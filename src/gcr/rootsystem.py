"""Root systems of the classical and exceptional types, with the combinatorics
used everywhere else in this package: positive roots in a fixed total order
by height, their pairings with the simple coroots (one table, ``pairings``,
that every reader shares), and the invariant form.

Roots are coefficient tuples with respect to the simple roots, numbered
1..rank in the standard (Bourbaki) ordering.  All public functions accept and
return plain tuples of ints.
"""

from __future__ import annotations

import functools
import operator
import re
from fractions import Fraction

Root = tuple[int, ...]

# Dynkin diagram edge lists, 1-based.  A chain 1-2-...-n for A_n; D_n forks at
# n-2; E types hang node 2 off node 4.
def _edges(kind: str, rank: int) -> list[tuple[int, int]]:
    if kind == "A":
        return [(i, i + 1) for i in range(1, rank)]
    if kind == "D":
        return [(i, i + 1) for i in range(1, rank - 1)] + [(rank - 2, rank)]
    if kind == "E":
        return [(1, 3), (3, 4), (4, 5), (2, 4)] + [(i, i + 1) for i in range(5, rank)]
    raise ValueError(f"unsupported type {kind}{rank}")


def cartan_matrix(kind: str, rank: int) -> list[list[int]]:
    """Cartan matrix A with A[i][j] = <alpha_i, alpha_j-check>, 0-based."""
    if kind == "G":
        # alpha1 short, alpha2 long; <a1,a2^> = -1, <a2,a1^> = -3.
        return [[2, -1], [-3, 2]]
    a = [[2 * (i == j) for j in range(rank)] for i in range(rank)]
    for i, j in _edges(kind, rank):
        a[i - 1][j - 1] = a[j - 1][i - 1] = -1
    return a


def parse_type(name: str) -> tuple[str, int]:
    """(kind, rank) of a type name: A, D, E or G in either case, then ASCII
    digits, with surrounding whitespace allowed."""
    m = re.fullmatch(r"\s*([ADEG])([0-9]+)\s*", name, re.IGNORECASE)
    if m is None:
        raise ValueError(f"unsupported type {name!r}")
    kind, rank = m[1].upper(), int(m[2])
    if kind == "A" and rank >= 1:
        return kind, rank
    if kind == "D" and rank >= 3:
        return kind, rank
    if kind == "E" and rank in (6, 7, 8):
        return kind, rank
    if kind == "G" and rank == 2:
        return kind, rank
    raise ValueError(f"unsupported type {name!r}")


class RootSystem:
    """Positive roots of a simple type, built by height, sorted by (height,
    coefficient tuple)."""

    def __init__(self, kind: str, rank: int):
        self.kind, self.rank = kind, rank
        self.name = f"{kind}{rank}"
        self.cartan = cartan_matrix(kind, rank)
        # 3 * (alpha_i, alpha_j) = 3 d_j A[i][j], long roots of norm 2: 3 d_j
        # is 1 for G2's short root alpha_1 and 3 for every other simple root
        d3 = [1 if kind == "G" and j == 0 else 3 for j in range(rank)]
        self._gram3 = [[d * a for d, a in zip(d3, row)] for row in self.cartan]
        # pairings[i][j] = <positive root i, alpha_{j+1}-check>
        self.positive, self.pairings = self._closure()
        self.index = {r: i for i, r in enumerate(self.positive)}

    def _closure(self) -> tuple[list[Root], list[tuple[int, ...]]]:
        """The positive roots and, in the same order, their pairings with
        the simple coroots, one height at a time.  Each root carries, per
        simple root alpha_j, the length of the alpha_j-string below it: one
        more than at r - alpha_j when that is a root, else 0.  Then
        r + alpha_i is a root exactly when that length for alpha_i exceeds
        <r, alpha_i-check> (Humphreys, Introduction to Lie Algebras and
        Representation Theory, 9.4), and its pairings are r's plus Cartan
        row i.  A root s of the next height is built from every root
        s - alpha_j, and that build records its length for j."""
        n = self.rank
        rows = [tuple(row) for row in self.cartan]
        # root of the current height -> (pairings, string lengths below)
        layer = {tuple(int(i == j) for j in range(n)): (rows[i], [0] * n)
                 for i in range(n)}
        positive, pairings = [], []
        while layer:
            order = sorted(layer)
            positive += order
            pairings += [layer[r][0] for r in order]
            above = {}
            for r in order:
                pairs, down = layer[r]
                for i in range(n):
                    if down[i] > pairs[i]:
                        s = r[:i] + (r[i] + 1,) + r[i + 1:]
                        if s not in above:
                            above[s] = (tuple(map(operator.add, pairs, rows[i])), [0] * n)
                        above[s][1][i] = down[i] + 1
            layer = above
        return positive, pairings

    # -- basic queries ------------------------------------------------------

    def pairing(self, r: Root, alpha: Root) -> int:
        """<r, alpha-check> for any root alpha, via the invariant form."""
        num = 2 * self._form3(r, alpha)
        den = self._form3(alpha, alpha)
        if num % den:
            raise ValueError(f"non-integral pairing of {r} with {alpha}")
        return num // den

    def form(self, a: Root, b: Root) -> Fraction:
        """W-invariant symmetric form, long roots of norm 2."""
        return Fraction(self._form3(a, b), 3)

    def _form3(self, a: Root, b: Root) -> int:
        """Three times the invariant form: an integer."""
        return sum(ci * cj * g for ci, row in zip(a, self._gram3) if ci
                   for cj, g in zip(b, row))

    # -- formatting ---------------------------------------------------------

    def format_root(self, r: Root) -> str:
        """A positive root as its digits, as error messages name it."""
        return "".join(map(str, r))


@functools.cache
def build_root_system(name: str) -> RootSystem:
    """The root system of a type name; every spelling of one type, such as
    " e6 " and "E6", gives the same cached object."""
    return _root_system(*parse_type(name))


_root_system = functools.cache(RootSystem)
