"""Representation calculus for rank-one and G2 subgroups in characteristic p,
plus characteristic-zero weight multisets for arbitrary simply-laced and G2
types via Freudenthal's formula.

Rank-one modules carry explicit divided-power operator matrices over GF(p),
so cocycle spaces can be computed by honest linear algebra; character-level
routines (composition factors, tilting characters) are kept separate so the
two can be played against each other in tests.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .rings import nullspace, rank, rref
from .rootsystem import build_root_system


# -- Freudenthal weight multiplicities ---------------------------------------

def freudenthal(name: str, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """Weight multiplicities of the irreducible characteristic-zero module
    with highest weight lam (fundamental-weight coordinates), by Freudenthal's
    formula (Humphreys, §22.3), cached once per type and weight whatever the
    spelling of the type name."""
    return _freudenthal(build_root_system(name).name, tuple(lam))


@functools.lru_cache(maxsize=None)
def _freudenthal(name: str, lam: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """``freudenthal`` on a canonical type name.  Each weight
    mu = lam - sum c_i alpha_i carries its depth c, so on the root system's
    Gram matrix g scaled by 3 every term is an integer: 3(omega_i, alpha_j) = delta_ij g[i][i]/2, and
    3((lam+rho)^2 - (mu+rho)^2) = sum c_i (lam_i+1) g[i][i] - 3(c, c).
    Root strings through weights are unbroken, so mu - alpha_j is a weight
    exactly when the alpha_j-string runs more than -mu_j steps above mu, and
    the terms mu + k alpha of the formula stop at the first non-weight."""
    rs = build_root_system(name)
    n = rs.rank
    if any(x < 0 for x in lam):
        raise ValueError(f"highest weight {lam} of {rs.name} must be dominant")
    half = [rs._gram3[i][i] // 2 for i in range(n)]
    # per positive root alpha: its weight, the vector 3(omega_j, alpha) and
    # 3(alpha, alpha)
    pos = [(tuple(rs.pairing_index(r, i) for i in range(n)),
            tuple(h * c for h, c in zip(half, r)), rs._form3(r, r))
           for r in rs.positive]
    # (lam_i + 1) g[i][i], the first term of the scaled denominator
    lam_rho = [2 * h * (x + 1) for h, x in zip(half, lam)]
    mult: dict[tuple[int, ...], int] = {lam: 1}
    depth = {lam: (0,) * n}
    frontier = [lam]
    while frontier:
        nxt: dict[tuple[int, ...], tuple[int, ...]] = {}
        for w in frontier:
            c = depth[w]
            for j, s in enumerate(rs.cartan):
                t = 1 - w[j]
                if t <= 0 or tuple(a + t * b for a, b in zip(w, s)) in mult:
                    mu = tuple(a - b for a, b in zip(w, s))
                    nxt[mu] = c[:j] + (c[j] + 1,) + c[j + 1:]
        frontier = sorted(nxt)
        for mu in frontier:
            c = depth[mu] = nxt[mu]
            total = 0
            for omega, r_half, r_norm in pos:
                mu_r = sum(a * b for a, b in zip(mu, r_half))
                up, k = tuple(a + b for a, b in zip(mu, omega)), 1
                while up in mult:
                    total += mult[up] * (mu_r + k * r_norm)
                    up, k = tuple(a + b for a, b in zip(up, omega)), k + 1
            denom = sum(a * b for a, b in zip(c, lam_rho)) - rs._form3(c, c)
            val, rem = divmod(2 * total, denom)
            if rem or val <= 0:
                raise ArithmeticError(f"Freudenthal gave {2 * total}/{denom} at {mu}")
            mult[mu] = val
    return mult


def weyl_dim(name: str, lam: tuple[int, ...]) -> int:
    return sum(freudenthal(name, lam).values())


# -- peeling characters -------------------------------------------------------

def peel_characters(char, top_weight, top_char) -> Counter:
    """Write a character as a nonnegative sum of the characters of its top
    weights.  ``char`` is a weight multiset (an iterable of weights or a
    Counter); ``top_weight(remaining)`` picks the weight to remove next from
    the remaining weights, or None when none qualifies; ``top_char(lam)``
    lists the weights, with repetition, of the character headed by lam.
    Returns lam -> multiplicity.  Raises ArithmeticError naming the leftover
    weight when a multiplicity goes negative or no weight qualifies."""
    remaining = Counter(char)
    out: Counter = Counter()
    while True:
        for w, c in remaining.items():
            if c < 0:
                raise ArithmeticError(
                    f"weight {w} is left with multiplicity {c}: the character "
                    "is not a nonnegative sum")
        remaining = +remaining
        if not remaining:
            return out
        top = top_weight(remaining)
        if top is None:
            raise ArithmeticError(
                f"leftover weight {max(remaining)} heads no character")
        mult = remaining[top]
        out[top] += mult
        for w in top_char(top):
            remaining[w] -= mult


def a1_top_weight(weights):
    """The highest rank-one weight, or None when it is negative."""
    top = max(weights)
    return top if top >= 0 else None


# -- rank-one characters -----------------------------------------------------

def a1_weyl_weights(m: int) -> list[int]:
    """Weights of W(m); also the dominance check of ``a1_tilting_weights``."""
    if m < 0:
        raise ValueError(f"highest weight {m} must be dominant")
    return list(range(m, -m - 1, -2))


def _base_p_digits(m: int, p: int) -> list[int]:
    """Base-p digits of m >= 0, least significant first."""
    digits = []
    while True:
        m, d = divmod(m, p)
        digits.append(d)
        if m == 0:
            return digits


def donkin_split(m: int, p: int) -> tuple[int, int]:
    """(a, b) with m = a + p*b and p - 1 <= a <= 2p - 2, for m >= p - 1, so
    that T(m) = T(a) (x) T(b)^[1]."""
    if m < p - 1:
        raise ValueError(f"no Donkin split of {m} at p={p}: needs m >= p - 1")
    a = (p - 1) + (m - (p - 1)) % p
    return a, (m - a) // p


@functools.lru_cache(maxsize=None)
def a1_simple_weights(m: int, p: int) -> tuple[int, ...]:
    """Weights of L(m) via the twisted tensor factorisation over the base-p
    digits of m."""
    if m < 0:
        raise ValueError(f"highest weight {m} of L(m) at p={p} must be dominant")
    weights = [0]
    for i, d in enumerate(_base_p_digits(m, p)):
        weights = [w + (d - 2 * k) * p ** i for w in weights for k in range(d + 1)]
    return tuple(sorted(weights, reverse=True))


@functools.lru_cache(maxsize=None)
def a1_tilting_weights(m: int, p: int) -> tuple[int, ...]:
    """Character of the indecomposable tilting module T(m)."""
    if m <= p - 1:
        return tuple(a1_weyl_weights(m))
    if m <= 2 * p - 2:
        return tuple(sorted(a1_weyl_weights(m) + a1_weyl_weights(2 * p - 2 - m),
                            reverse=True))
    a, b = donkin_split(m, p)
    out = [p * x + y
           for x in a1_tilting_weights(b, p)
           for y in a1_tilting_weights(a, p)]
    return tuple(sorted(out, reverse=True))


def a1_comp_factors(weights, p: int) -> Counter:
    """Composition factor multiset of any module with the given T-weights,
    by greedy removal of simple characters from the top."""
    return peel_characters(weights, a1_top_weight,
                           lambda n: a1_simple_weights(n, p))


@functools.lru_cache(maxsize=None)
def a1_jantzen_character(m: int, p: int) -> Counter:
    """Net character of the Jantzen filtration layers of W(m): the signed sum
    of Weyl characters at the reflected weights 2kp - m - 2 for 0 < kp < m+1,
    each weighted by 1 + v_p(k)."""
    total: Counter = Counter()
    k = 1
    while k * p < m + 1:
        nu, q = 1, k
        while q % p == 0:
            nu += 1
            q //= p
        mu = 2 * k * p - m - 2
        if mu >= 0:
            for w in a1_weyl_weights(mu):
                total[w] += nu
        elif mu <= -2:
            for w in a1_weyl_weights(-mu - 2):
                total[w] -= nu
        k += 1
    return Counter({w: c for w, c in total.items() if c})


@functools.lru_cache(maxsize=None)
def a1_weyl_factors(m: int, p: int) -> Counter:
    """Composition factors of W(m).  The radical factors are read off the
    Jantzen character, which counts each with multiplicity equal to the
    number of filtration layers containing it; rank-one Weyl modules are
    multiplicity-free, so the factor multiset is the head plus the support
    of that decomposition."""
    jz = a1_jantzen_character(m, p)
    if any(c < 0 for c in jz.values()):
        raise ArithmeticError("Jantzen character has a negative multiplicity")
    layered = a1_comp_factors(list(jz.elements()), p)
    out = Counter({mu: 1 for mu in layered})
    out[m] += 1
    return out


def h1_irreducible(lam: int, p: int) -> bool:
    """Whether H^1 of the rank-one group with coefficients in L(lam) is
    nonzero: lam = (2p-2) p^s."""
    if lam <= 0:
        return False
    while lam % p == 0:
        lam //= p
    return lam == 2 * p - 2


# -- rank-one modules with explicit operators --------------------------------

class A1Module:
    """Module for the rank-one group: T-weights per basis vector plus the
    divided-power operators E[a], F[a] over GF(p), so that
    x_+(t) = sum_a t^a E[a] and x_-(t) = sum_a t^a F[a].

    E[a] raises a weight by 2a and F[a] lowers it by 2a, so few entries are
    nonzero.  ``entries`` is the pair (E, F), each kind kept over all its
    degrees as one triple (rows, cols, values mod p) of nonzero entries at
    distinct positions; an entry's degree is half its weight shift.  The
    constructor takes, per kind, such a flat triple (a tuple), or a dict
    from degree a to a matrix (an array or nested lists) or an entry triple.
    It reduces mod p, drops zeros and checks every nonzero entry's weight
    shift: +-2a for a dict, positive and even in the operator's direction
    for a flat triple.  ``E`` and ``F`` are dense dicts per degree, built on
    first use."""

    def __init__(self, p: int, weights: list[int], E: dict | tuple, F_: dict | tuple):
        self.p = p
        self.weights = list(weights)
        self.dim = len(weights)
        w = np.array(self.weights, dtype=np.int64)
        self.entries = tuple(self._flat(ops, w, sign, name)
                             for ops, sign, name in ((E, 1, "E"), (F_, -1, "F")))

    def _flat(self, ops, w: np.ndarray, sign: int, name: str) -> tuple:
        """One kind's nonzero entries mod p as a flat triple, shifts checked."""
        if not isinstance(ops, tuple):
            parts = [(np.zeros(0, dtype=np.int64),) * 4]
            for a, m in ops.items():
                if not isinstance(m, tuple):
                    m = np.asarray(m, dtype=np.int64)
                    m = (*np.nonzero(m), m[np.nonzero(m)])
                parts.append((*m, np.full(len(m[2]), 2 * a)))
            ops = map(np.concatenate, zip(*parts))
        r, c, v, *want = (np.asarray(x, dtype=np.int64) for x in ops)
        keep = v % self.p != 0
        r, c, v = r[keep], c[keep], v[keep] % self.p
        shift = sign * (w[r] - w[c])
        want = want[0][keep] if want else None
        bad = (shift <= 0) | (shift % 2 == 1) if want is None else shift != want
        if bad.any():
            i = np.flatnonzero(bad)[0]
            expected = (f"{'+-'[sign < 0]}2a with a >= 1" if want is None
                        else f"{sign * want[i]:+d}")
            raise ArithmeticError(
                f"operator does not shift weights correctly: {name} entry "
                f"({r[i]}, {c[i]}) maps weight {w[c[i]]} to {w[r[i]]}, "
                f"expected a shift of {expected}")
        return r, c, v

    def _dense(self, which: int) -> dict[int, np.ndarray]:
        r, c, v = self.entries[which]
        w = np.array(self.weights, dtype=np.int64)
        deg = np.abs(w[r] - w[c]) // 2
        out = {}
        for a in np.unique(deg).tolist():
            at = deg == a
            out[a] = np.zeros((self.dim, self.dim), dtype=np.int64)
            out[a][r[at], c[at]] = v[at]
        return out

    @functools.cached_property
    def E(self) -> dict[int, np.ndarray]:
        return self._dense(0)

    @functools.cached_property
    def F(self) -> dict[int, np.ndarray]:
        return self._dense(1)

    def _exp(self, ops: dict[int, np.ndarray], t: int) -> np.ndarray:
        out = np.eye(self.dim, dtype=np.int64)
        for a, m in ops.items():
            out = (out + pow(t, a, self.p) * m) % self.p
        return out

    def x_plus(self, t: int) -> np.ndarray:
        return self._exp(self.E, t)

    def x_minus(self, t: int) -> np.ndarray:
        return self._exp(self.F, t)


def weyl_module(m: int, p: int) -> A1Module:
    """W(m) on divided-power basis v_0 .. v_m, v_i of weight m - 2i:
    E_k v_i = binom(m - i + k, k) v_{i-k} and F_k v_{i-k} = binom(i, k) v_i."""
    lo, hi = np.triu_indices(m + 1, 1)
    pairs = list(zip(lo.tolist(), hi.tolist()))
    return A1Module(p, [m - 2 * i for i in range(m + 1)],
                    (lo, hi, [math.comb(m - j, i - j) % p for j, i in pairs]),
                    (hi, lo, [math.comb(i, i - j) % p for j, i in pairs]))


def simple_module(m: int, p: int) -> A1Module:
    """L(m) as a twisted tensor product over the base-p digits."""
    out = None
    for i, d in enumerate(_base_p_digits(m, p)):
        piece = twist(weyl_module(d, p), i) if i else weyl_module(d, p)
        out = piece if out is None else tensor(out, piece)
    return out


def trivial_module(p: int) -> A1Module:
    return weyl_module(0, p)


def _with_identity(entries: tuple, dim: int) -> tuple:
    """An entry triple with the identity appended as degree 0."""
    i = np.arange(dim)
    return tuple(map(np.concatenate, zip(entries, (i, i, np.ones_like(i)))))


def tensor(a: A1Module, b: A1Module) -> A1Module:
    """a (x) b on the basis u_i (x) v_j at index i * b.dim + j.  Each factor's
    entries, with its identity appended as degree 0, are multiplied pairwise,
    and the identity (x) identity block is dropped.  An entry's weight shift
    fixes its degree in each factor, so the products never share a
    position."""
    weights = [wa + wb for wa in a.weights for wb in b.weights]
    ops = []
    for xa, xb in zip(a.entries, b.entries):
        (ra, ca, va), (rb, cb, vb) = _with_identity(xa, a.dim), _with_identity(xb, b.dim)
        keep = np.ones((ra.size, rb.size), dtype=bool)
        keep[xa[0].size:, xb[0].size:] = False
        ops.append(((ra[:, None] * b.dim + rb)[keep],
                    (ca[:, None] * b.dim + cb)[keep], np.outer(va, vb)[keep]))
    return A1Module(a.p, weights, *ops)


def twist(a: A1Module, r: int) -> A1Module:
    q = a.p ** r
    return A1Module(a.p, [w * q for w in a.weights], *a.entries)


def dual(a: A1Module) -> A1Module:
    """Negated weights; each entry transposed, with the sign (-1)^degree."""
    w = np.array(a.weights, dtype=np.int64)
    return A1Module(a.p, (-w).tolist(),
                    *((c, r, np.where((w[r] - w[c]) // 2 % 2, -v, v))
                      for r, c, v in a.entries))


def direct_sum(*mods: A1Module) -> A1Module:
    ops: tuple[list, list] = ([], [])
    off = 0
    for m in mods:
        for store, (r, c, v) in zip(ops, m.entries):
            store.append((r + off, c + off, v))
        off += m.dim
    return A1Module(mods[0].p, [w for m in mods for w in m.weights],
                    *(tuple(map(np.concatenate, zip(*s))) for s in ops))


def _submodule_restriction(mod: A1Module, basis: np.ndarray) -> A1Module:
    """Restrict to the submodule spanned by the independent columns of basis.

    The pivot rows S of rref(basis.T) form an invertible block B_S, so each
    operator M restricts to X = B_S^-1 (M basis)_S if basis X = M basis."""
    p = mod.p
    basis = np.asarray(basis, dtype=np.int64) % p
    cols = basis.shape[1]
    w, nz = np.array(mod.weights, dtype=np.int64), basis != 0
    weights = np.where(nz, w[:, None], w.min() - 1).max(axis=0)
    mixed = np.flatnonzero(weights != np.where(nz, w[:, None], w.max() + 1).min(axis=0))
    if mixed.size:
        raise ArithmeticError(f"basis vector mixes weights: column {mixed[0]} has "
                              f"weights {sorted(set(w[nz[:, mixed[0]]].tolist()))}")
    keys, images = [], []
    for which, (r, c, v) in enumerate(mod.entries):
        degs, at = np.unique(np.abs(w[r] - w[c]) // 2, return_inverse=True)
        image = np.zeros((degs.size, mod.dim, cols), dtype=np.int64)
        np.add.at(image, (at, r), v[:, None] * basis[c])
        keys += [(which, a) for a in degs.tolist()]
        images.append(image)
    images = np.concatenate(images)
    rows = rref(basis.T, p)[1]
    if len(rows) < cols:
        raise ArithmeticError("basis vectors are dependent")
    solved = rref(np.concatenate([basis[rows], *images[:, rows]], axis=1), p)[0]
    x = solved[:, cols:].reshape(cols, len(keys), cols).transpose(1, 0, 2)
    bad = np.flatnonzero(((basis @ x - images) % p).any(axis=(1, 2)))
    if bad.size:
        which, a = keys[bad[0]]
        raise ArithmeticError(
            f"not a submodule: {'EF'[which]}_{a} maps the span outside itself")
    out = []
    for sel in np.split(x, [sum(kind == 0 for kind, _ in keys)]):
        at, i, j = np.nonzero(sel)
        out.append((i, j, sel[at, i, j]))
    return A1Module(p, weights.tolist(), *out)


def _mat_power_mod(m: np.ndarray, n: int, p: int) -> np.ndarray:
    out = np.eye(m.shape[0], dtype=np.int64)
    base = m % p
    while n:
        if n & 1:
            out = out @ base % p
        base = base @ base % p
        n >>= 1
    return out


def tilting_module(m: int, p: int) -> A1Module:
    """The indecomposable tilting module T(m) with explicit operators.

    Below p, T(m) = W(m); above 2p - 2, T(m) = T(b)^[1] (x) T(a) by Donkin's
    split.  For p <= m <= 2p - 2, T(m) is a summand of St (x) L(k) with
    k = m - p + 1, cut out by Omega = H^2 + 2H + 4 F_1 E_1, twice the
    Casimir: it is integral and central, so it commutes with every divided
    power, and it acts on W(n) by (n + 1)^2 - 1.  St (x) L(k) is tilting with
    Weyl sections W(p - 1 + k - 2j), j = 0..k, and p + k - 2j = +-k mod p
    only for j = 0 and j = k, the sections W(m) and W(2p - 2 - m).  So the
    generalised eigenspace of Omega for (m + 1)^2 - 1 is a tilting summand
    with the character of T(m), hence T(m)."""
    if m <= p - 1:
        return weyl_module(m, p)
    if m > 2 * p - 2:
        a, b = donkin_split(m, p)
        return tensor(twist(tilting_module(b, p), 1), tilting_module(a, p))
    big = tensor(weyl_module(p - 1, p), weyl_module(m - p + 1, p))
    h = np.array(big.weights, dtype=np.int64)
    omega = np.diag(h * h + 2 * h) + 4 * (big.F[1] @ big.E[1])
    shifted = (omega - ((m + 1) ** 2 - 1) * np.eye(big.dim, dtype=np.int64)) % p
    sub = _submodule_restriction(
        big, nullspace(_mat_power_mod(shifted, big.dim, p), p).T)
    if Counter(sub.weights) != Counter(a1_tilting_weights(m, p)):
        raise ArithmeticError(
            f"T({m}) at p={p}: the Casimir eigenspace of St (x) L({m - p + 1}) "
            "does not have the tilting character")
    return sub


# -- first cohomology from explicit operators --------------------------------

def _binom_mod(n: np.ndarray, k: np.ndarray, p: int) -> np.ndarray:
    """binom(n, k) mod p elementwise for 0 <= k <= n, by Lucas' theorem."""
    digits = np.array([[math.comb(i, j) % p for j in range(p)] for i in range(p)])
    out = np.ones_like(n)
    while n.any():
        out = out * digits[n % p, k % p] % p
        n, k = n // p, k // p
    return out


def h1_module_a1(mod: A1Module) -> int:
    """dim H^1 of the rank-one group acting on mod.

    A cocycle restricted to the positive one-parameter subgroup and weighted
    by the torus has the shape gamma(x_+(t)) = sum_{d>=1} t^d v_d with v_d of
    weight 2d; the multiplication law forces
    binom(a+b, a) v_{a+b} = E_a v_b for all a, b >= 1.  Coboundaries come
    from weight-zero vectors modulo invariants."""
    p = mod.p
    w = np.array(mod.weights, dtype=np.int64)
    # one unknown per basis vector of weight 2s > 0, and one relation per such
    # vector and 1 <= a < s: its coordinate in binom(s, a) v_s - E_a v_{s-a};
    # an empty v_b still forces binom(a+b, a) v_{a+b} = 0
    pos = (w > 0) & (w % 2 == 0)
    var = np.cumsum(pos) - 1
    s = w[pos] // 2
    start = np.cumsum(s - 1) - (s - 1)
    own = np.repeat(np.arange(s.size), s - 1)
    mat = np.zeros((own.size, s.size), dtype=np.int64)
    mat[np.arange(own.size), own] = _binom_mod(
        s[own], np.arange(own.size) - start[own] + 1, p)
    # all E entries at once: an entry's degree is half its weight shift
    r, c, v = mod.entries[0]
    keep = pos[r] & pos[c]
    rk, ck = r[keep], c[keep]
    mat[start[var[rk]] + (w[rk] - w[ck]) // 2 - 1, var[ck]] -= v[keep]
    z = s.size - rank(mat[(mat % p).any(axis=1)], p)
    # coboundaries modulo invariants: the rank of E on the weight-zero
    # vectors; E_a lands in weight 2a, so the degrees fill disjoint rows
    zero = w == 0
    smat = np.zeros((mod.dim, zero.sum()), dtype=np.int64)
    keep = zero[c]
    smat[r[keep], (np.cumsum(zero) - 1)[c[keep]]] = v[keep]
    return z - rank(smat, p)


# -- G2 characters at p = 7 --------------------------------------------------

G2_SIMPLE_DIMS = {(0, 0): 1, (1, 0): 7, (0, 1): 14, (2, 0): 26, (1, 1): 38, (3, 0): 77}


@functools.lru_cache(maxsize=None)
def g2_weyl_char(lam: tuple[int, int]) -> Counter:
    return Counter(dict(freudenthal("G2", lam)))


@functools.lru_cache(maxsize=None)
def g2_simple_char(lam: tuple[int, int], p: int = 7) -> Counter:
    """Characters of restricted simple G2-modules at p = 7; the only
    corrections to the Weyl character in this range are at (2,0) and (1,1)."""
    if p != 7:
        raise NotImplementedError("G2 characters are tabulated for p = 7 only")
    if lam not in G2_SIMPLE_DIMS:
        raise NotImplementedError(f"simple G2 character for {lam} not tabulated")
    ch = Counter(g2_weyl_char(lam))
    if lam == (2, 0):
        ch.subtract(g2_weyl_char((0, 0)))
    elif lam == (1, 1):
        ch.subtract(g2_weyl_char((2, 0)))
        ch.update(g2_weyl_char((0, 0)))
    out = Counter({w: c for w, c in ch.items() if c})
    if any(c < 0 for c in out.values()):
        raise ArithmeticError("negative multiplicity in tabulated character")
    return out


def _g2_root_coords(mu: tuple[int, int]) -> tuple[int, int]:
    return (2 * mu[0] + 3 * mu[1], mu[0] + 2 * mu[1])


def _g2_top_weight(weights):
    """The dominant weight of greatest height, or None."""
    return max((w for w in weights if w[0] >= 0 and w[1] >= 0),
               key=lambda w: (sum(_g2_root_coords(w)), w), default=None)


def g2_comp_factors(char: Counter, p: int = 7) -> Counter:
    """Composition factors of a G2-module given by its character."""
    return peel_characters(char, _g2_top_weight,
                           lambda lam: g2_simple_char(lam, p).elements())


@functools.lru_cache(maxsize=None)
def g2_tilting_char(lam: tuple[int, int], p: int = 7) -> Counter:
    """Characters of the indecomposable G2 tilting modules at p = 7 for the
    tabulated weights.  T(20) = 00|20|00 and T(11) = 20|(11+00)|20; the other
    four weights have W = T = L."""
    if p != 7:
        raise NotImplementedError("G2 characters are tabulated for p = 7 only")
    if lam not in G2_SIMPLE_DIMS:
        raise NotImplementedError(f"tilting G2 character for {lam} not tabulated")
    ch = Counter(g2_weyl_char(lam))
    if lam == (2, 0):
        ch.update(g2_weyl_char((0, 0)))
    elif lam == (1, 1):
        ch.update(g2_weyl_char((2, 0)))
    return ch


def g2_h1_simples(p: int = 7) -> set[tuple[int, int]]:
    """Restricted simple G2-modules with nonzero H^1 at p = 7: only L(20),
    where W(20) = 20|00 gives the nonsplit extension."""
    return {(2, 0)}


def g2_h1_irreducible(lam: tuple[int, int], p: int = 7) -> bool:
    """H^1 flag for a tabulated simple G2-module; weights outside the table
    raise rather than silently report zero."""
    if p != 7:
        raise NotImplementedError("G2 characters are tabulated for p = 7 only")
    if lam not in G2_SIMPLE_DIMS:
        raise NotImplementedError(f"H^1 for G2 weight {lam} not tabulated")
    return lam in g2_h1_simples(p)


# -- module expressions ------------------------------------------------------

@dataclass(frozen=True)
class ModExpr:
    """Formal module expression: sums of tensor products of (possibly
    twisted) simples, Weyl modules and tiltings, closed under duals,
    alternating and symmetric powers, and half-spin restriction.

    Weights are integers for the rank-one group or pairs for G2; twists are
    nonnegative integers or symbols (r, s, ...) with an optional offset,
    resolved by a substitution at evaluation time."""

    kind: str
    weight: int | tuple[int, int] | None = None
    twist: int | tuple[str, int] | None = None
    part: ModExpr | None = None
    k: int | None = None
    n: int | None = None
    parts: tuple[ModExpr, ...] = ()

    def __repr__(self):
        return f"ModExpr({format_module(self)!r})"


def m_simple(a, r=0) -> ModExpr:
    return ModExpr("simple", weight=a, twist=r)

def m_tilt(a, r=0) -> ModExpr:
    return ModExpr("tilt", weight=a, twist=r)

def m_weyl(a, r=0) -> ModExpr:
    return ModExpr("weyl", weight=a, twist=r)

def m_dualweyl(a, r=0) -> ModExpr:
    # the induced module: for rank one this is the dual Weyl module
    return m_dual(m_weyl(a, r))

def m_dual(part: ModExpr) -> ModExpr:
    return ModExpr("dual", part=part)

def m_alt(part: ModExpr, k: int) -> ModExpr:
    return ModExpr("alt", part=part, k=k)

def m_sym(part: ModExpr, k: int) -> ModExpr:
    return ModExpr("sym", part=part, k=k)

def m_spin(n: int, part: ModExpr) -> ModExpr:
    return ModExpr("spin", n=n, part=part)

def m_tensor(*parts) -> ModExpr:
    return ModExpr("tensor", parts=parts)

def m_sum(*parts) -> ModExpr:
    return ModExpr("sum", parts=parts)


_TWIST_SYMBOLS = "rstuvw"

_TOKEN = re.compile(
    r"(x|\+|\(|\)|\[|\]|;|\*|Alt|Sym|Spin|T(?=\()|W(?=\()|D[0-9]+"
    r"|[0-9]+|[rstuvw](?:\+[0-9]+)?)")
_MAX_DEPTH = 50     # deepest bracket nesting that parse_module accepts


def _tokenize(s: str) -> list[str]:
    s = s.replace("⊗", "x").replace(" ", "")
    toks = []
    pos = 0
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            raise ValueError(f"cannot tokenize module expression {s!r} "
                             f"at {s[pos:]!r}")
        toks.append(m.group(0))
        pos = m.end()
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def take(self, want=None):
        tok = self.peek()
        if tok is None:
            raise ValueError(f"unexpected end of module expression {self.text!r}")
        if want is not None and tok != want:
            raise ValueError(f"expected {want!r}, found {tok!r} in {self.text!r}")
        self.i += 1
        return tok

    def number(self) -> int:
        tok = self.take()
        if not tok.isdigit():
            raise ValueError(f"expected a number, found {tok!r} in {self.text!r}")
        return int(tok)

    def expr(self) -> ModExpr:
        terms = [self.term()]
        while self.peek() == "+":
            self.take()
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else m_sum(*terms)

    def term(self) -> ModExpr:
        factors = [self.postfixed()]
        while self.peek() == "x":
            self.take()
            factors.append(self.postfixed())
        return factors[0] if len(factors) == 1 else m_tensor(*factors)

    def postfixed(self) -> ModExpr:
        e = self.primary()
        while self.peek() == "*":
            self.take()
            e = m_dual(e)
        return e

    def primary(self) -> ModExpr:
        tok = self.peek()
        if tok in ("Alt", "Sym"):
            self.take()
            self.take("(")
            k = self.number()
            self.take(";")
            inner = self.expr()
            self.take(")")
            return (m_alt if tok == "Alt" else m_sym)(inner, k)
        if tok == "Spin":
            self.take()
            self.take("(")
            dn = self.take()
            if not dn.startswith("D"):
                raise ValueError(f"Spin needs a D-type rank, found {dn!r} "
                                 f"in {self.text!r}")
            self.take(";")
            inner = self.expr()
            self.take(")")
            return m_spin(int(dn[1:]), inner)
        if tok == "(":
            self.take()
            inner = self.expr()
            self.take(")")
            return inner
        return self.atom()

    def atom(self) -> ModExpr:
        tok = self.take()
        if tok in ("T", "W"):
            self.take("(")
            a = self.number()
            self.take(")")
            ctor = m_tilt if tok == "T" else m_weyl
        elif tok.isdigit():
            a = int(tok)
            ctor = m_simple
        else:
            raise ValueError(f"unexpected token {tok!r} in {self.text!r}")
        tw = 0
        if self.peek() == "[":
            self.take()
            t = self.take()
            if t.isdigit():
                tw = int(t)
            elif t[0] in _TWIST_SYMBOLS:
                sym, _, off = t.partition("+")
                tw = (sym, int(off or 0))
            else:
                raise ValueError(f"bad twist {t!r} in {self.text!r}")
            self.take("]")
        return ctor(a, tw)


def parse_module(s: str) -> ModExpr:
    """Parse the module text grammar: "3 x 1[1] + T(8) + 0", "W(5)*",
    "Spin(D5; 4+4[r])", "Alt(2; 2 x 1[s])" (x or the tensor sign both
    work; twists may be numbers or symbols like r, s+1)."""
    parser = _Parser(s)
    depths = itertools.accumulate((t == "(") - (t == ")") for t in parser.toks)
    if max(depths, default=0) > _MAX_DEPTH:
        raise ValueError(f"module expression nested deeper than {_MAX_DEPTH}: {s!r}")
    e = parser.expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in {s!r}: {parser.toks[parser.i:]}")
    return e


def _format_twist(tw) -> str:
    if isinstance(tw, tuple):
        sym, off = tw
        return f"[{sym}+{off}]" if off else f"[{sym}]"
    return f"[{tw}]" if tw else ""


def _fmt(e: ModExpr, prec: int) -> str:
    if e.kind == "sum":
        s = " + ".join(_fmt(t, 1) for t in e.parts)
        return f"({s})" if prec > 0 else s
    if e.kind == "tensor":
        s = " x ".join(_fmt(t, 2) for t in e.parts)
        return f"({s})" if prec > 1 else s
    if e.kind == "dual":
        return f"{_fmt(e.part, 2)}*"
    if e.kind == "alt":
        return f"Alt({e.k}; {_fmt(e.part, 0)})"
    if e.kind == "sym":
        return f"Sym({e.k}; {_fmt(e.part, 0)})"
    if e.kind == "spin":
        return f"Spin(D{e.n}; {_fmt(e.part, 0)})"
    w = e.weight if isinstance(e.weight, int) else f"({e.weight[0]},{e.weight[1]})"
    tw = _format_twist(e.twist)
    if e.kind == "simple":
        return f"{w}{tw}"
    if e.kind == "tilt":
        return f"T({w}){tw}"
    if e.kind == "weyl":
        return f"W({w}){tw}"
    raise ValueError(e.kind)


def format_module(e: ModExpr) -> str:
    return _fmt(e, 0)


def _twist_value(tw, subst) -> int:
    if isinstance(tw, int):
        return tw
    sym, off = tw
    if not subst or sym not in subst:
        raise ValueError(f"unresolved twist symbol {sym!r}")
    return subst[sym] + off


def _wadd(a, b):
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def char_tensor(a: Counter, b: Counter) -> Counter:
    """Character of the tensor product of modules with characters a and b."""
    out: Counter = Counter()
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[_wadd(w1, w2)] += c1 * c2
    return out


def power_char(elems, kind: str, k: int) -> Counter:
    """Character of the k-th alternating ("alt") or symmetric ("sym") power,
    or of the Schur functor S_(2,1) ("s21", k = 3), of a module whose weights,
    with repetition, are elems.  Weights combine by position, so repeated
    weights count as distinct basis vectors."""
    if kind == "s21" and k == 3:
        # ch S_(2,1)(V) = ch(V) * ch(alt^2 V) - ch(alt^3 V)
        out = char_tensor(power_char(elems, "alt", 2), Counter(elems))
        out.subtract(power_char(elems, "alt", 3))
        return out
    if kind == "alt":
        combos = itertools.combinations(elems, k)
    elif kind == "sym":
        combos = itertools.combinations_with_replacement(elems, k)
    else:
        raise ValueError(f"no {kind} power of degree {k}")
    return Counter(functools.reduce(_wadd, combo) for combo in combos)


def _wneg(a):
    if isinstance(a, tuple):
        return tuple(-x for x in a)
    return -a


def _wscale(a, q):
    if isinstance(a, tuple):
        return tuple(x * q for x in a)
    return a * q


def module_subst(e: ModExpr, subst: dict[str, int]) -> ModExpr:
    """Resolve symbolic twists to integers."""
    if e.kind in ("sum", "tensor"):
        return replace(e, parts=tuple(module_subst(t, subst) for t in e.parts))
    if e.part is not None:
        return replace(e, part=module_subst(e.part, subst))
    return replace(e, twist=_twist_value(e.twist, subst))


def module_twists(e: ModExpr) -> list[int]:
    """All atom twists in the expression; symbolic twists raise."""
    if e.kind in ("sum", "tensor"):
        return [t for part in e.parts for t in module_twists(part)]
    if e.kind in ("dual", "alt", "sym", "spin"):
        return module_twists(e.part)
    return [_twist_value(e.twist, None) if not isinstance(e.twist, int) else e.twist]


def module_twist_shift(e: ModExpr, d: int) -> ModExpr:
    """Shift every atom twist by d (twists must be concrete)."""
    if e.kind in ("sum", "tensor"):
        return replace(e, parts=tuple(module_twist_shift(t, d) for t in e.parts))
    if e.part is not None:
        return replace(e, part=module_twist_shift(e.part, d))
    if not isinstance(e.twist, int):
        raise ValueError("cannot shift a symbolic twist")
    if e.twist + d < 0:
        raise ValueError("twist shift went negative")
    return replace(e, twist=e.twist + d)


def _atom_char(e: ModExpr, p: int, subst) -> Counter:
    tw = _twist_value(e.twist, subst)
    q = p ** tw
    if isinstance(e.weight, tuple):
        if e.kind == "simple":
            base = g2_simple_char(e.weight, p)
        elif e.kind == "tilt":
            base = g2_tilting_char(e.weight, p)
        else:
            base = g2_weyl_char(e.weight)
        return Counter({_wscale(w, q): c for w, c in base.items()})
    if e.weight < 0:
        raise ValueError(f"highest weight {e.weight} at p={p} must be dominant")
    if e.kind == "simple":
        base = Counter(a1_simple_weights(e.weight, p))
    elif e.kind == "tilt":
        base = Counter(a1_tilting_weights(e.weight, p))
    else:
        base = Counter(a1_weyl_weights(e.weight))
    return Counter({w * q: c for w, c in base.items()})


def _spin_half_list(char: Counter):
    """The n weights a_1..a_n with the natural module's weights ±a_i: the
    canonical-positive weights with multiplicity plus half the zero
    multiplicity.  Raises if the character is not that of an orthogonal
    action.  A rank-one composition factor of odd highest weight carries
    only a symplectic form, so in an orthogonal module it occurs an even
    number of times; mod 2 that is the same as even Weyl coefficients on
    the odd weights (the two bases differ by a unitriangular matrix)."""
    odd = Counter({w: c for w, c in char.items() if isinstance(w, int) and w % 2})
    if any(c % 2 for c in peel_characters(odd, a1_top_weight, a1_weyl_weights).values()):
        raise ArithmeticError(
            "an odd-weight (symplectic) factor has odd multiplicity: "
            "the action is not orthogonal")
    zero = None
    a = []
    for w, c in char.items():
        vec = w if isinstance(w, tuple) else (w,)
        if all(x == 0 for x in vec):
            zero = c
            continue
        if next(x for x in vec if x) > 0:
            if char.get(_wneg(w), 0) != c:
                raise ArithmeticError("character is not symmetric: not orthogonal")
            a.extend([w] * c)
    if zero is not None:
        if zero % 2:
            raise ArithmeticError("odd zero-weight multiplicity: not orthogonal")
        z = 0 if not a or isinstance(a[0], int) else (0,) * len(a[0])
        a.extend([z] * (zero // 2))
    return a


def spin_halves_from_char(char: Counter, n: int) -> tuple[Counter, Counter]:
    """Both half-spin characters of D_n restricted along an orthogonal
    2n-dimensional action with the given character."""
    a = _spin_half_list(char)
    if len(a) != n:
        raise ArithmeticError(f"action has {len(a)} weight pairs, not {n}")
    return spin_weights(a)


def spin_weights(natural_half: list) -> tuple[Counter, Counter]:
    """Half-spin weight multisets of D_n, from the n weights a_1..a_n whose
    pairs +-a_i make up the natural module: the half-sums of the signed a_i,
    split into (even, odd) number of minus signs."""
    even: Counter = Counter()
    odd: Counter = Counter()
    for signs in itertools.product((1, -1), repeat=len(natural_half)):
        tot = None
        for sg, w in zip(signs, natural_half):
            piece = w if sg == 1 else _wneg(w)
            tot = piece if tot is None else _wadd(tot, piece)
        vec = tot if isinstance(tot, tuple) else (tot,)
        if any(x % 2 for x in vec):
            raise ArithmeticError("half-spin weight not integral")
        half = tuple(x // 2 for x in vec) if isinstance(tot, tuple) else tot // 2
        if signs.count(-1) % 2 == 0:
            even[half] += 1
        else:
            odd[half] += 1
    return even, odd


def module_weights(e: ModExpr, p: int, subst: dict[str, int] | None = None) -> Counter:
    """Formal character of the expression: weight -> multiplicity."""
    if e.kind == "sum":
        out: Counter = Counter()
        for t in e.parts:
            out.update(module_weights(t, p, subst))
        return out
    if e.kind == "tensor":
        return functools.reduce(char_tensor, (module_weights(t, p, subst)
                                              for t in e.parts))
    if e.kind == "dual":
        return Counter({_wneg(w): c
                        for w, c in module_weights(e.part, p, subst).items()})
    if e.kind in ("alt", "sym"):
        return power_char(list(module_weights(e.part, p, subst).elements()),
                          e.kind, e.k)
    if e.kind == "spin":
        even, _ = spin_halves_from_char(module_weights(e.part, p, subst), e.n)
        return even
    return _atom_char(e, p, subst)


def spin_chars(e: ModExpr, p: int,
               subst: dict[str, int] | None = None) -> tuple[Counter, Counter]:
    """Both half-spin characters for a Spin expression."""
    if e.kind != "spin":
        raise ValueError("spin_chars wants a Spin expression")
    return spin_halves_from_char(module_weights(e.part, p, subst), e.n)


def _power_basis(d: int, k: int, p: int, sign: bool) -> np.ndarray:
    """Basis of the image of the (anti)symmetrizer inside the k-th tensor
    power of a d-dimensional space, as columns over GF(p)."""
    combos = (list(itertools.combinations(range(d), k)) if sign
              else list(itertools.combinations_with_replacement(range(d), k)))
    basis = np.zeros((d ** k, len(combos)), dtype=np.int64)
    for c, combo in enumerate(combos):
        seen = set()
        for perm in itertools.permutations(range(k)):
            arr = tuple(combo[j] for j in perm)
            if arr in seen:
                continue
            seen.add(arr)
            idx = 0
            for i in arr:
                idx = idx * d + i
            val = 1
            if sign:
                # parity of the permutation
                pe = list(perm)
                for i in range(k):
                    while pe[i] != i:
                        j = pe[i]
                        pe[i], pe[j] = pe[j], pe[i]
                        val = -val
            basis[idx, c] = val % p
    return basis


def module_matrices(e: ModExpr, p: int,
                    subst: dict[str, int] | None = None) -> A1Module:
    """Explicit operator realisation of a rank-one expression."""
    if e.kind == "sum":
        return direct_sum(*(module_matrices(t, p, subst) for t in e.parts))
    if e.kind == "tensor":
        mods = [module_matrices(t, p, subst) for t in e.parts]
        out = mods[0]
        for m in mods[1:]:
            out = tensor(out, m)
        return out
    if e.kind == "dual":
        return dual(module_matrices(e.part, p, subst))
    if e.kind in ("alt", "sym"):
        if e.k >= p:
            raise NotImplementedError("power exponent must be below p")
        base = module_matrices(e.part, p, subst)
        big = base
        for _ in range(e.k - 1):
            big = tensor(big, base)
        return _submodule_restriction(big, _power_basis(base.dim, e.k, p,
                                                        e.kind == "alt"))
    if e.kind == "spin":
        raise NotImplementedError("no explicit operators for spin restrictions")
    if isinstance(e.weight, tuple):
        raise NotImplementedError("explicit operators are rank-one only")
    tw = _twist_value(e.twist, subst)
    if e.kind == "simple":
        base = simple_module(e.weight, p)
    elif e.kind == "tilt":
        base = tilting_module(e.weight, p)
    else:
        base = weyl_module(e.weight, p)
    return twist(base, tw) if tw else base


_G2_SIMPLE_TILTING = {(0, 0), (1, 0), (0, 1), (3, 0)}


def module_is_tilting(e: ModExpr, p: int) -> bool:
    """Structural sufficient condition for the expression to denote a tilting
    module (hence to have vanishing H^1): untwisted tiltings are closed under
    sums, tensor products, duals, and alternating/symmetric powers of
    exponent below p.  A Frobenius twist defeats the argument, so any twisted
    part returns False."""
    if e.kind in ("sum", "tensor"):
        return all(module_is_tilting(t, p) for t in e.parts)
    if e.kind == "dual":
        return module_is_tilting(e.part, p)
    if e.kind in ("alt", "sym"):
        return e.k < p and module_is_tilting(e.part, p)
    if e.kind == "spin":
        return False
    if e.twist != 0:
        return False
    if e.kind == "tilt":
        return True
    if isinstance(e.weight, tuple):
        # the tabulated weights with W = T = L
        return e.weight in _G2_SIMPLE_TILTING
    return e.weight <= p - 1


def module_comp_factors(e: ModExpr, p: int,
                        subst: dict[str, int] | None = None) -> Counter:
    """Composition factor multiset of the expression's character."""
    char = module_weights(e, p, subst)
    if any(isinstance(w, tuple) for w in char):
        return g2_comp_factors(char, p)
    return a1_comp_factors(list(char.elements()), p)


def module_dim(e: ModExpr, p: int, subst: dict[str, int] | None = None) -> int:
    return sum(module_weights(e, p, subst).values())
