"""Integral Chevalley bases: structure constants and Lie brackets.

Signs follow a deterministic convention: for each non-simple positive root
the extraspecial pair (the special pair whose first member is least in the
root-system total order) gets a positive constant, and every other constant
is forced from those by the standard length-weighted identities on triples
and quadruples of roots summing to zero.  The resulting table satisfies the
Jacobi identity; tests verify this directly.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from .rootsystem import Root, RootSystem, build_root_system

F = Fraction


def _add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def _neg(a: Root) -> Root:
    return tuple(-x for x in a)


class ConstantTable:
    """Structure constants N_{a,b} and derived data for one root system."""

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self.npos = len(rs.positive)
        self.dim = 2 * self.npos + rs.rank
        self._n_memo: dict[tuple[Root, Root], int] = {}
        self._n_pos = self._build_positive_pairs()

    # -- construction of the positive special-pair table -------------------

    def _build_positive_pairs(self) -> dict[tuple[Root, Root], int]:
        rs = self.rs
        table: dict[tuple[Root, Root], int] = {}
        self._n_pos = table  # let N() see partial results during the build
        for gamma in rs.positive:
            if sum(gamma) == 1:
                continue
            pairs = []
            for alpha in rs.positive:
                if rs.index[alpha] >= rs.index[gamma]:
                    break
                beta = tuple(g - a for g, a in zip(gamma, alpha))
                if beta in rs.index and rs.index[alpha] < rs.index[beta]:
                    pairs.append((alpha, beta))
            pairs.sort(key=lambda ab: rs.index[ab[0]])
            a1, b1 = pairs[0]
            # N = p + 1, with b1 - p*a1 the bottom of the a1-string through b1
            p, cur = 0, tuple(b - a for b, a in zip(b1, a1))
            while cur in rs._all:
                p, cur = p + 1, tuple(c - a for c, a in zip(cur, a1))
            table[(a1, b1)] = p + 1
            gg = rs.form(gamma, gamma)
            for xi, eta in pairs[1:]:
                # quadruple (a1, b1, -xi, -eta) sums to zero, no two opposite
                t2 = F(0)
                d1 = tuple(b - x for b, x in zip(b1, xi))
                if d1 in rs._all:
                    t2 = F(self.N(b1, _neg(xi)) * self.N(a1, _neg(eta))) / rs.form(d1, d1)
                t3 = F(0)
                d2 = tuple(a - x for a, x in zip(a1, xi))
                if d2 in rs._all:
                    t3 = F(self.N(_neg(xi), a1) * self.N(b1, _neg(eta))) / rs.form(d2, d2)
                val = gg * (t2 + t3) / table[(a1, b1)]
                if val.denominator != 1:
                    raise ArithmeticError("non-integral structure constant")
                table[(xi, eta)] = int(val)
        return table

    # -- structure constants for arbitrary sign patterns --------------------

    def N(self, a: Root, b: Root) -> int:
        """Constant in [e_a, e_b] = N(a,b) e_{a+b}; zero when a+b is not a root."""
        s = _add(a, b)
        if s not in self.rs._all:
            return 0
        key = (a, b)
        if key in self._n_memo:
            return self._n_memo[key]
        val = self._n_uncached(a, b)
        self._n_memo[key] = val
        return val

    def _n_uncached(self, a: Root, b: Root) -> int:
        rs = self.rs
        apos = a in rs.index
        bpos = b in rs.index
        if apos and bpos:
            if rs.index[a] < rs.index[b]:
                return self._n_pos[(a, b)]
            return -self._n_pos[(b, a)]
        if not apos and not bpos:
            return -self.N(_neg(a), _neg(b))
        if not apos:
            return -self.N(b, a)
        # a positive, b negative, a+b a root
        bb = _neg(b)
        s = _add(a, b)
        if s in rs.index:
            # (-a) + bb + s = 0
            val = F(-rs.form(s, s)) / rs.form(a, a) * self.N(bb, s)
        else:
            d = _neg(s)
            # a + (-bb) + d = 0
            val = F(rs.form(d, d)) / rs.form(bb, bb) * self.N(d, a)
        if val.denominator != 1:
            raise ArithmeticError("non-integral structure constant")
        return int(val)

    def coroot(self, a: Root) -> tuple[int, ...]:
        """a-check as an integer vector over the simple coroots."""
        rs = self.rs
        da = rs.form(a, a) / 2
        out = []
        for i, c in enumerate(a):
            v = F(c) * rs._norms[i] / da
            if v.denominator != 1:
                raise ArithmeticError("non-integral coroot")
            out.append(int(v))
        return tuple(out)

    # -- Lie algebra elements ----------------------------------------------
    # Elements are dicts mapping basis keys to coefficients; keys are
    # ('e', root) or ('h', i) for 0-based simple-coroot index.

    def bracket_basis(self, x, y) -> dict:
        """Bracket of two basis keys, as a dict over basis keys."""
        rs = self.rs
        if x[0] == "h" and y[0] == "h":
            return {}
        if x[0] == "h":
            k = rs.pairing_index(y[1], x[1])
            return {y: k} if k else {}
        if y[0] == "h":
            k = rs.pairing_index(x[1], y[1])
            return {x: -k} if k else {}
        a, b = x[1], y[1]
        if _add(a, b) == tuple(0 for _ in a):
            return {("h", i): c for i, c in enumerate(self.coroot(a)) if c}
        n = self.N(a, b)
        return {("e", _add(a, b)): n} if n else {}

    def bracket(self, x: dict, y: dict) -> dict:
        out: dict = {}
        for kx, cx in x.items():
            for ky, cy in y.items():
                for kz, cz in self.bracket_basis(kx, ky).items():
                    out[kz] = out.get(kz, 0) + cx * cy * cz
        return {k: v for k, v in out.items() if v}

    # -- basis layout -------------------------------------------------------

    def basis_keys(self) -> list:
        rs = self.rs
        keys = [("e", r) for r in rs.positive]
        keys += [("h", i) for i in range(rs.rank)]
        keys += [("e", _neg(r)) for r in rs.positive]
        return keys


@functools.cache
def build_constants(name: str) -> ConstantTable:
    return ConstantTable(build_root_system(name))


def jacobi_defect(table: ConstantTable, keys) -> dict:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] for three basis keys."""
    x, y, z = ({k: 1} for k in keys)
    t1 = table.bracket(table.bracket(x, y), z)
    t2 = table.bracket(table.bracket(y, z), x)
    t3 = table.bracket(table.bracket(z, x), y)
    out = {}
    for t in (t1, t2, t3):
        for k, v in t.items():
            out[k] = out.get(k, 0) + v
    return {k: v for k, v in out.items() if v}
