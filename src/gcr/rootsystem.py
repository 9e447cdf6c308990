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


def cartan_matrix(name: str) -> list[list[int]]:
    """Cartan matrix A with A[i][j] = <alpha_i, alpha_j-check>, 0-based."""
    kind, rank = parse_type(name)
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


# Root lengths: d[i] = (alpha_i, alpha_i)/2 relative to long roots of norm 2.
# Only G2 is non-simply-laced here.
def _root_norms(kind: str, rank: int) -> list[Fraction]:
    if kind == "G":
        return [Fraction(1, 3), Fraction(1)]
    return [Fraction(1)] * rank


class RootSystem:
    """Positive roots of a simple type, closed under the string-building
    recursion, sorted by (height, coefficient tuple)."""

    def __init__(self, name: str):
        self.kind, self.rank = parse_type(name)
        self.name = f"{self.kind}{self.rank}"
        self.cartan = cartan_matrix(name)
        self._norms = _root_norms(self.kind, self.rank)
        # 3 * (alpha_i, alpha_j) = 3 * d_j * A[i][j]: integral, since the
        # norms d_j are 1 or 1/3
        self._gram3 = [[int(3 * self._norms[j] * self.cartan[i][j])
                        for j in range(self.rank)] for i in range(self.rank)]
        # pairings[i][j] = <positive root i, alpha_{j+1}-check>
        self.positive, self.pairings = self._closure()
        self.index = {r: i for i, r in enumerate(self.positive)}

    # -- construction ------------------------------------------------------

    def _closure(self) -> tuple[list[Root], list[tuple[int, ...]]]:
        """The positive roots and, in the same order, their pairings with
        the simple coroots.  The pairings of alpha_i are Cartan row i, and
        those of r + alpha_i are those of r plus that row."""
        rows = [tuple(row) for row in self.cartan]
        simples = [tuple(int(i == j) for j in range(self.rank)) for i in range(self.rank)]
        roots = dict(zip(simples, rows))
        frontier = simples
        while frontier:
            nxt = []
            for r in frontier:
                pairs = roots[r]
                for i in range(self.rank):
                    # alpha_i-string through r: know how far down it goes,
                    # deduce how far up from the Cartan pairing.  Lower parts
                    # of the string are always already built.
                    down = 0
                    cur = self._sub_simple(r, i)
                    while cur in roots:
                        down += 1
                        cur = self._sub_simple(cur, i)
                    if down > pairs[i]:
                        s = self._add_simple(r, i)
                        if s not in roots:
                            roots[s] = tuple(map(operator.add, pairs, rows[i]))
                            nxt.append(s)
            frontier = nxt
        positive = sorted(roots, key=lambda r: (sum(r), r))
        return positive, [roots[r] for r in positive]

    def _add_simple(self, r: Root, i: int) -> Root:
        return tuple(c + (j == i) for j, c in enumerate(r))

    def _sub_simple(self, r: Root, i: int) -> Root:
        return tuple(c - (j == i) for j, c in enumerate(r))

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


@functools.cache
def _root_system(kind: str, rank: int) -> RootSystem:
    return RootSystem(f"{kind}{rank}")
