"""Representation calculus for rank-one and G2 subgroups in characteristic p,
plus characteristic-zero weight multisets for arbitrary simply-laced and G2
types via Freudenthal's formula.

Rank-one modules carry explicit divided-power operators over GF(p), kept
as their nonzero entries, so cocycle spaces can be computed by honest
linear algebra; character-level routines (composition factors, tilting
characters) are kept separate so the two can be played against each other
in tests.

Module expressions (``ModExpr``) say only what the golden tables write,
in one flat shape: a "+"-sum of "x"-products of atoms m (a simple) or T(m)
(a tilting), each with an optional Frobenius twist [n], a number, as in
"3 x 1[1] + T(8) + 0".  A ``ModExpr`` is exactly its ``terms``: one tuple
per "+"-term of its ``Atom``s, the "x"-factors.  ``parse_module`` reads
that text, with no brackets since nothing nests, and ``format_module``
writes it back.  Alternating powers and half-spins are characters
(``alt_char``, ``spin_halves_from_char``).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections import Counter, namedtuple
from dataclasses import dataclass
from types import MappingProxyType

from .rings import nullspace, rank, rref
from .rootsystem import build_root_system


# -- Freudenthal weight multiplicities ---------------------------------------

def freudenthal(name: str, lam: tuple[int, ...]) -> MappingProxyType:
    """Weight multiplicities of the irreducible characteristic-zero module
    with highest weight lam (fundamental-weight coordinates), by Freudenthal's
    formula (Humphreys, §22.3), cached once per type and weight whatever the
    spelling of the type name.  The value is read-only, since every caller
    shares it."""
    return _freudenthal(build_root_system(name).name, tuple(lam))


@functools.lru_cache(maxsize=None)
def _freudenthal(name: str, lam: tuple[int, ...]) -> MappingProxyType:
    """``freudenthal`` on a canonical type name.  The formula runs at the
    dominant weights only, in order of depth, and the W-orbits are filled in
    at the end (Moody and Patera, Bull. AMS 7, 1982); the dominant weights
    below lam are reached from lam by subtracting positive roots (Stembridge,
    Adv. Math. 134, 1998).  Each mu = lam - sum c_i alpha_i carries its depth
    c, so on the root system's Gram matrix g scaled by 3 every term is an
    integer: 3(omega_i, alpha_j) = delta_ij g[i][i]/2, and
    3((lam+rho)^2 - (mu+rho)^2) = sum c_i (lam_i+1) g[i][i] - 3(c, c).
    The term at mu + k alpha takes the multiplicity of its dominant conjugate,
    found earlier; root strings through weights are unbroken, so the terms
    stop at the first one whose conjugate is not below lam.  A positive
    root's weight is its row of ``rs.pairings``."""
    rs = build_root_system(name)
    n = rs.rank
    if len(lam) != n:
        raise ValueError(f"highest weight {lam} of {rs.name} needs rank {n} coordinates")
    if any(x < 0 for x in lam):
        raise ValueError(f"highest weight {lam} of {rs.name} must be dominant")
    half = [rs._gram3[i][i] // 2 for i in range(n)]
    # per positive root alpha: its weight, its root coordinates, the vector
    # 3(omega_j, alpha) and 3(alpha, alpha)
    pos = [(omega, r, tuple(h * c for h, c in zip(half, r)), rs._form3(r, r))
           for omega, r in zip(rs.pairings, rs.positive)]
    # (lam_i + 1) g[i][i], the first term of the scaled denominator
    lam_rho = [2 * h * (x + 1) for h, x in zip(half, lam)]

    def dominant(w):
        while (j := next((j for j, x in enumerate(w) if x < 0), None)) is not None:
            w = tuple(a - w[j] * b for a, b in zip(w, rs.cartan[j]))
        return w

    depth, found = {lam: (0,) * n}, [lam]
    for w in found:
        for omega, r, _, _ in pos:
            mu = tuple(a - b for a, b in zip(w, omega))
            if min(mu) >= 0 and mu not in depth:
                depth[mu] = tuple(a + b for a, b in zip(depth[w], r))
                found.append(mu)
    mult: dict[tuple[int, ...], int] = {lam: 1}
    for mu in sorted(found[1:], key=lambda w: sum(depth[w])):
        c, total = depth[mu], 0
        for omega, _, r_half, r_norm in pos:
            mu_r = sum(a * b for a, b in zip(mu, r_half))
            up, k = tuple(a + b for a, b in zip(mu, omega)), 1
            while (top := dominant(up)) in mult:
                total += mult[top] * (mu_r + k * r_norm)
                up, k = tuple(a + b for a, b in zip(up, omega)), k + 1
        denom = sum(a * b for a, b in zip(c, lam_rho)) - rs._form3(c, c)
        val, rem = divmod(2 * total, denom)
        if rem or val <= 0:
            raise ArithmeticError(f"Freudenthal gave {2 * total}/{denom} at {mu}")
        mult[mu] = val
    out: dict[tuple[int, ...], int] = {}
    for mu, m in mult.items():
        orbit = [mu]
        out[mu] = m
        for w in orbit:  # the lowering reflections reach the whole orbit
            for j in (j for j, x in enumerate(w) if x > 0):
                v = tuple(a - w[j] * b for a, b in zip(w, rs.cartan[j]))
                if v not in out:
                    out[v] = m
                    orbit.append(v)
    return MappingProxyType(out)


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
    """Base-p digits of m >= 0, least significant first; a negative m or a
    p below 2, which have no such digits, raises ValueError naming both."""
    if m < 0 or p < 2:
        raise ValueError(f"no base-{p} digits of {m}: needs m >= 0 and p >= 2")
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
    digits = _base_p_digits(m, p)
    check_prime(p)
    weights = [0]
    for i, d in enumerate(digits):
        weights = [w + (d - 2 * k) * p ** i for w in weights for k in range(d + 1)]
    return tuple(sorted(weights, reverse=True))


@functools.lru_cache(maxsize=None)
def a1_tilting_weights(m: int, p: int) -> tuple[int, ...]:
    """Character of the indecomposable tilting module T(m)."""
    check_prime(p)
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


# -- rank-one modules with explicit operators --------------------------------

def is_prime(p) -> bool:
    """True for a prime int and no other value, a bool included."""
    return type(p) is int and p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


def nonnegative_int(n) -> bool:
    """True for an int >= 0 and no other value, a bool included: the rule
    for tmax in the scan and ``tables.expand_rows``, and for the (m, t)
    pairs of ``a1coh.h1_dim``."""
    return isinstance(n, int) and not isinstance(n, bool) and n >= 0


def check_prime(p) -> None:
    """Refuse, naming it, a p that ``is_prime`` refuses."""
    if not is_prime(p):
        raise ValueError(f"p={p!r} of a rank-one module must be a prime int")


class A1Module:
    """Module for the rank-one group: T-weights per basis vector plus the
    divided-power operators E_a, F_a over GF(p), p prime, so that
    x_+(t) = sum_a t^a E_a and x_-(t) = sum_a t^a F_a.

    E_a raises a weight by 2a and F_a lowers it by 2a, so few entries are
    nonzero, and the operators are kept as entries only: ``entries`` is the
    pair (E, F), each kind kept over all its degrees as one triple (rows,
    cols, values mod p) of tuples of Python ints, the nonzero entries at
    distinct positions; an entry's degree is half its weight shift.  The
    constructor takes, per kind, such a triple of int sequences as a tuple,
    and raises ``TypeError`` on anything else.  It refuses a p that is not a
    prime int, rejects entries outside the module, reduces mod p, drops
    zeros and checks that every nonzero entry shifts its weight by a
    positive even amount in the operator's direction.  ``weights`` and every
    entry triple are tuples, so a module cannot change: ``tilting_module``
    shares modules, and builders share their entries."""

    def __init__(self, p: int, weights, E: tuple, F_: tuple):
        check_prime(p)
        self.p = p
        self.weights = tuple(weights)
        self.dim = len(self.weights)
        # by index, so that a negative index is outside too
        w = dict(enumerate(self.weights))
        self.entries = (self._flat(E, 1, "E", w), self._flat(F_, -1, "F", w))

    def _flat(self, ops, sign: int, name: str, w: dict) -> tuple:
        """One kind's nonzero entries mod p as a flat triple, shifts checked."""
        if not isinstance(ops, tuple):
            raise TypeError(f"{name} must be a (rows, cols, values) tuple, "
                            f"not {type(ops).__name__}")
        r, c, v = map(tuple, ops)
        p = self.p
        try:
            shifts = {w[i] - w[j] for i, j in zip(r, c)}
        except KeyError:
            i = next(i for i, rc in enumerate(zip(r, c)) if not set(rc) <= w.keys())
            raise ValueError(f"{name} entry ({r[i]}, {c[i]}) lies outside a "
                             f"module of dim {self.dim}") from None
        values = set(v)
        if values and not 0 < min(values) <= max(values) < p:
            keep = [k for k, x in enumerate(v) if x % p]
            r, c = (tuple(x[k] for k in keep) for x in (r, c))
            v = tuple(v[k] % p for k in keep)
            shifts = {w[i] - w[j] for i, j in zip(r, c)}
        bad = {d for d in shifts if sign * d <= 0 or d & 1}
        if bad:
            raise ArithmeticError(next(
                f"operator does not shift weights correctly: {name} entry "
                f"({x}, {y}) maps weight {w[y]} to {w[x]}, "
                f"expected a shift of {'+-'[sign < 0]}2a with a >= 1"
                for x, y in zip(r, c) if w[x] - w[y] in bad))
        return r, c, v


def weyl_module(m: int, p: int) -> A1Module:
    """W(m) on divided-power basis v_0 .. v_m, v_i of weight m - 2i:
    E_k v_i = binom(m - i + k, k) v_{i-k} and F_k v_{i-k} = binom(i, k) v_i.
    A negative m raises ValueError naming m and p."""
    if m < 0:
        raise ValueError(f"highest weight {m} of W(m) at p={p} must be dominant")
    pairs = [(j, i) for j in range(m + 1) for i in range(j + 1, m + 1)]
    lo, hi = [j for j, _ in pairs], [i for _, i in pairs]
    return A1Module(p, [m - 2 * i for i in range(m + 1)],
                    (lo, hi, [math.comb(m - j, i - j) % p for j, i in pairs]),
                    (hi, lo, [math.comb(i, i - j) % p for j, i in pairs]))


def tensor(a: A1Module, b: A1Module) -> A1Module:
    """a (x) b on the basis u_i (x) v_j at index i * b.dim + j.  Each factor's
    entries, with its identity appended as degree 0, are multiplied pairwise,
    and the identity (x) identity block is dropped.  An entry's weight shift
    fixes its degree in each factor, so the products never share a
    position, and a product of units mod p is a unit.  The products with
    one entry of a are read off per index and per value of a."""
    d, p, ids, flat = b.dim, a.p, tuple(range(b.dim)), itertools.chain.from_iterable
    ops = []
    for (ra, ca, va), (rb, cb, vb) in zip(a.entries, b.entries):
        n = len(vb)
        rows = [[i * d + y for y in rb + ids] for i in range(a.dim)]
        cols = [[i * d + y for y in cb + ids] for i in range(a.dim)]
        vals = {x: [x * y % p for y in vb + (1,) * d] for x in set(va)}
        ops.append(([*flat(map(rows.__getitem__, ra)), *flat(x[:n] for x in rows)],
                    [*flat(map(cols.__getitem__, ca)), *flat(x[:n] for x in cols)],
                    [*flat(map(vals.__getitem__, va)), *vb * a.dim]))
    return A1Module(p, [wa + wb for wa in a.weights for wb in b.weights], *ops)


def twist(a: A1Module, r: int) -> A1Module:
    q = a.p ** r
    return A1Module(a.p, [w * q for w in a.weights], *a.entries)


def _weight_spaces(weights) -> dict:
    """weight -> the indices of that weight, in order."""
    out: dict = {}
    for i, x in enumerate(weights):
        out.setdefault(x, []).append(i)
    return out


def _submodule_restriction(mod: A1Module, basis) -> A1Module:
    """Restrict to the submodule spanned by the columns of basis (a dim x n
    matrix), weight vectors that must be independent.

    The columns of one weight are replaced by the rref basis of their span,
    which is the identity on its pivot coordinates S, so the basis stays one
    of weight vectors.  An image M b then lies in the span exactly when
    M b minus the basis times its coordinates (M b)_S is 0, which is checked
    in full for every operator and column."""
    p, w = mod.p, mod.weights
    at, weights, space = _weight_spaces(w), [], {}    # space: weight -> columns
    for j, col in enumerate(zip(*basis)):
        seen = sorted({w[i] for i, x in enumerate(col) if x % p})
        if len(seen) != 1:
            raise ArithmeticError(f"basis vector mixes weights: column {j} has "
                                  f"weights {seen}")
        weights.append(seen[0])
        space.setdefault(seen[0], []).append(j)
    vec, lead = {}, {}    # per column: its new vector {coordinate: value}, its pivot
    for mu, js in space.items():
        r, piv = rref([[basis[i][j] for i in at[mu]] for j in js], p)
        if len(piv) < len(js):
            raise ArithmeticError("basis vectors are dependent")
        for j, row, c in zip(js, r, piv):
            vec[j], lead[j] = {i: x for i, x in zip(at[mu], row) if x}, at[mu][c]
    moves = [[] for _ in w]    # per coordinate: (kind, row, value) of its entries
    for which, (r, c, v) in enumerate(mod.entries):
        for i, j, x in zip(r, c, v):
            moves[j].append((which, i, x))
    out, bad = (([], [], []), ([], [], [])), set()
    for j, mu in enumerate(weights):
        images = {}    # (kind, weight) -> the image, {coordinate: value}
        for c, x in vec[j].items():
            for which, i, y in moves[c]:
                image = images.setdefault((which, w[i]), {})
                image[i] = image.get(i, 0) + x * y
        for (which, nu), image in images.items():
            for i in space.get(nu, ()):
                y = image.get(lead[i], 0) % p
                if y:
                    for row, value in zip(out[which], (i, j, y)):
                        row.append(value)
                    for k, z in vec[i].items():
                        image[k] = image.get(k, 0) - y * z
            if any(z % p for z in image.values()):
                bad.add((which, abs(nu - mu) // 2))
    if bad:
        raise ArithmeticError("not a submodule: {}_{} maps the span outside itself"
                              .format(*min(("EF"[k], a) for k, a in bad)))
    return A1Module(p, weights, *out)


@functools.cache
def tilting_module(m: int, p: int) -> A1Module:
    """Indecomposable tilting T(m) with explicit operators, cached per (m, p).

    Below p, T(m) = W(m); above 2p - 2, T(m) = T(b)^[1] (x) T(a) by Donkin's
    split.  For p <= m <= 2p - 2, T(m) is a summand of St (x) L(k) with
    k = m - p + 1, cut out by Omega = H^2 + 2H + 4 F_1 E_1, twice the
    Casimir: it is integral and central, so it commutes with every divided
    power, and it acts on W(n) by (n + 1)^2 - 1.  St (x) L(k) is tilting with
    Weyl sections W(p - 1 + k - 2j), j = 0..k, and p + k - 2j = +-k mod p
    only for j = 0 and j = k, the sections W(m) and W(2p - 2 - m).  So the
    generalised eigenspace of Omega for (m + 1)^2 - 1 is a tilting summand
    with the character of T(m), hence T(m).  Omega has weight 0, so that
    eigenspace is the sum over the weight spaces V_mu of its eigenspaces on
    each: the kernel of (Omega - (m + 1)^2 + 1)^n on V_mu, for any n at
    least dim V_mu <= p, found by squaring a block of at most p x p."""
    if m <= p - 1:
        return weyl_module(m, p)
    if m > 2 * p - 2:
        a, b = donkin_split(m, p)
        return tensor(twist(tilting_module(b, p), 1), tilting_module(a, p))
    big = tensor(weyl_module(p - 1, p), weyl_module(m - p + 1, p))
    w, lam = big.weights, (m + 1) ** 2 - 1
    # the degree-one entries of E and F, as (row, value) by column
    e1, f1 = ([[] for _ in w] for _ in range(2))
    for one, (r, c, v) in zip((e1, f1), big.entries):
        for i, j, x in zip(r, c, v):
            if abs(w[i] - w[j]) == 2:
                one[j].append((i, x))
    columns = []
    for mu, coords in _weight_spaces(w).items():
        block = [[0] * len(coords) for _ in coords]
        for k, i in enumerate(coords):
            block[k][k] = mu * mu + 2 * mu - lam
            for up, x in e1[i]:
                for down, y in f1[up]:
                    block[coords.index(down)][k] += 4 * x * y
        for _ in range((len(coords) - 1).bit_length()):
            block = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*block)]
                     for row in block]
        columns += ([dict(zip(coords, v)).get(i, 0) for i in range(big.dim)]
                    for v in nullspace(block, p))
    sub = _submodule_restriction(big, list(zip(*columns)))
    if Counter(sub.weights) != Counter(a1_tilting_weights(m, p)):
        raise ArithmeticError(
            f"T({m}) at p={p}: the Casimir eigenspace of St (x) L({m - p + 1}) "
            "does not have the tilting character")
    return sub


# -- first cohomology from explicit operators --------------------------------

def h1_module_a1(mod: A1Module) -> int:
    """dim H^1 of the rank-one group acting on mod.

    A cocycle restricted to the positive one-parameter subgroup and weighted
    by the torus has the shape gamma(x_+(t)) = sum_{d>=1} t^d v_d with v_d of
    weight 2d; the multiplication law forces
    binom(a+b, a) v_{a+b} = E_a v_b for all a, b >= 1.  Coboundaries come
    from weight-zero vectors modulo invariants.

    The relations are solved in order of weight, s = 1, 2, ...: where some
    binom(s, a) is a unit mod p, v_s = binom(s, a)^-1 E_a v_{s-a} is fixed
    by the v_b of lower weight; where none is (by Lucas, exactly when s is a
    power of p), the coordinates of v_s are free parameters.  Every other
    relation is a linear constraint on the parameters.  So the cocycles are
    the parameters the constraints allow, and a cocycle is fixed by its
    parameters; hence a coboundary, the cocycle E_a u of a weight-zero u,
    is too, and the coboundaries have the rank of u -> its parameters,
    (E_s u)_r for the parameter coordinates r of weight 2s."""
    p, w, spaces = mod.p, mod.weights, _weight_spaces(mod.weights)
    at = {x // 2: c for x, c in spaces.items() if x > 0 and not x & 1}
    binoms = {s: [math.comb(s, a) % p for a in range(s)] for s in at}
    pick = {s: next((a for a in range(1, s) if b[a]), 0) for s, b in binoms.items()}
    params = [i for s in sorted(at) if not pick[s] for i in at[s]]
    if not params:
        return 0
    n, zeros = len(params), [0] * len(params)
    col = {j: k for k, j in enumerate(spaces.get(0, ()))}
    cob = {i: [0] * len(col) for i in params}    # E from weight 0 to the parameters
    into = {}    # row -> (degree, column, value) of E from weight > 0
    for i, j, x in zip(*mod.entries[0]):
        if w[j] > 0:
            into.setdefault(i, []).append(((w[i] - w[j]) // 2, j, x))
        elif i in cob and j in col:
            cob[i][col[j]] = x
    form, rows = {i: [int(i == k) for k in params] for i in params}, []
    for s in sorted(at):
        b, a0 = binoms[s], pick[s]
        for i in at[s]:
            images = {}    # a -> the form of (E_a v_{s-a})_i
            for a, j, x in into.get(i, ()):
                images[a] = [y + x * z for y, z in zip(images.get(a, zeros), form[j])]
            if a0:
                form[i] = [y * pow(b[a0], p - 2, p) % p for y in images.get(a0, zeros)]
            rows += ([(b[a] * y - z) % p for y, z in zip(form[i], images.get(a, zeros))]
                     for a in range(1, s) if a != a0 and (b[a] or a in images))
    return (n - rank([row for row in rows if any(row)], p)
            - rank([row for row in cob.values() if any(row)], p))


# -- G2 characters at p = 7 --------------------------------------------------

G2_SIMPLE_DIMS = {(0, 0): 1, (1, 0): 7, (0, 1): 14, (2, 0): 26, (1, 1): 38, (3, 0): 77}


@functools.lru_cache(maxsize=None)
def g2_weyl_char(lam: tuple[int, int]) -> MappingProxyType:
    """The Weyl character of G2, read-only: every caller shares it."""
    return MappingProxyType(Counter(freudenthal("G2", lam)))


@functools.lru_cache(maxsize=None)
def g2_simple_char(lam: tuple[int, int], p: int = 7) -> MappingProxyType:
    """Characters of restricted simple G2-modules at p = 7, read-only since
    every caller shares them; the only corrections to the Weyl character in
    this range are at (2,0) and (1,1)."""
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
    return MappingProxyType(out)


def _g2_root_coords(mu: tuple[int, int]) -> tuple[int, int]:
    return (2 * mu[0] + 3 * mu[1], mu[0] + 2 * mu[1])


def _g2_top_weight(weights):
    """The dominant weight of greatest height, or None."""
    return max((w for w in weights if w[0] >= 0 and w[1] >= 0),
               key=lambda w: (sum(_g2_root_coords(w)), w), default=None)


def g2_comp_factors(char: Counter, p: int = 7) -> Counter:
    """Composition factors of a G2-module given by its character."""
    return peel_characters(char, _g2_top_weight,
                           lambda lam: Counter(g2_simple_char(lam, p)).elements())


def g2_h1_irreducible(lam: tuple[int, int], p: int = 7) -> bool:
    """H^1 flag for a tabulated simple G2-module at p = 7: nonzero only for
    L(20), where W(20) = 20|00 gives the nonsplit extension.  Weights outside
    the table raise rather than silently report zero."""
    if p != 7:
        raise NotImplementedError("G2 characters are tabulated for p = 7 only")
    if lam not in G2_SIMPLE_DIMS:
        raise NotImplementedError(f"H^1 for G2 weight {lam} not tabulated")
    return lam == (2, 0)


# -- module expressions ------------------------------------------------------

Atom = namedtuple("Atom", "kind weight twist")
Atom.__doc__ = """One factor of a term: a simple ("simple") or tilting ("tilt")
module of highest weight ``weight`` with Frobenius twist ``twist``."""


@dataclass(frozen=True)
class ModExpr:
    """Formal module expression in the one shape the golden tables write: a
    sum of tensor products of (possibly twisted) simples and tiltings, kept
    as its ``terms``, a non-empty tuple of terms, each a non-empty tuple of
    ``Atom``s.  Any other shape raises ValueError, so ``parse_module`` reads
    back exactly what ``format_module`` writes of a rank-one expression.

    Weights are ints >= 0 for the rank-one group or pairs of them for G2,
    and twists ints >= 0, which the twist sweep writes into the text; any
    other atom raises ValueError naming it.  Expressions key caches, so
    each hashes once, when built."""

    terms: tuple[tuple[Atom, ...], ...]

    def __post_init__(self):
        terms = self.terms
        if not (type(terms) is tuple and terms and all(
                type(term) is tuple and term and all(map(_written, term))
                for term in terms)):
            raise ValueError("a module expression is a sum of tensor products of "
                             f"atoms, not {terms!r}")
        object.__setattr__(self, "_hash", hash(terms))

    def __hash__(self):
        return self._hash


def _written(a) -> bool:
    """Whether a is an ``Atom`` of a known kind; one whose weight or twist
    the text cannot write, ints >= 0 (no bool) or a pair for a G2 weight,
    raises ValueError naming it."""
    known = type(a) is Atom and a.kind in ("simple", "tilt")
    if known and not (type(a.twist) is int and a.twist >= 0 and (
            type(w := a.weight) is int and w >= 0
            or type(w) is tuple and len(w) == 2 and all(type(x) is int and x >= 0 for x in w))):
        raise ValueError(f"atom {a!r} needs a weight that is an int >= 0 or a "
                         "pair of them, and a twist that is an int >= 0")
    return known


# one atom with its optional twist
_ATOM = re.compile(r"(?:([0-9]+)|T\(([0-9]+)\))(?:\[([0-9]+)\])?")


@functools.lru_cache(maxsize=None)
def parse_module(s: str) -> ModExpr:
    """Read the module text grammar, a "+"-sum of "x"-products of atoms:
    m or T(m), each with an optional twist [n], as in "3 x 1[1] + T(8) + 0".
    The tensor sign works for x, spaces are ignored and digits are ASCII;
    there are no brackets, since no table nests, and no twist symbols,
    since the sweep writes its numbers into the text.  Other text raises
    ValueError quoting it.  Each text is read once; the expression is
    frozen, so callers share it."""
    terms = []
    for term in s.replace("⊗", "x").replace(" ", "").split("+"):
        atoms = []
        for atom in term.split("x"):
            m = _ATOM.fullmatch(atom)
            if m is None:
                raise ValueError(f"cannot tokenize module expression {s!r}: {atom!r} "
                                 "is no atom m or T(m) with an optional twist [n]")
            simple, tilt, n = m.groups()
            atoms.append(Atom("simple" if simple else "tilt", int(simple or tilt), int(n or 0)))
        terms.append(tuple(atoms))
    return ModExpr(tuple(terms))


def format_atom(a: Atom) -> str:
    """The text of one atom, as ``parse_module`` reads it."""
    w = a.weight if isinstance(a.weight, int) else f"({a.weight[0]},{a.weight[1]})"
    tw = f"[{a.twist}]" if a.twist else ""
    return f"T({w}){tw}" if a.kind == "tilt" else f"{w}{tw}"


def format_module(e: ModExpr) -> str:
    """The text of an expression, as ``parse_module`` reads it."""
    return " + ".join(" x ".join(map(format_atom, term)) for term in e.terms)


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


def alt_char(elems, k: int) -> Counter:
    """Character of the k-th alternating power of a module whose weights,
    with repetition, are elems.  Weights combine by position, so repeated
    weights count as distinct basis vectors."""
    return Counter(functools.reduce(_wadd, combo)
                   for combo in itertools.combinations(elems, k))


def module_twists(e: ModExpr) -> list[int]:
    """The twists of the non-trivial atoms in the expression: a trivial
    atom is insensitive to twisting."""
    return [a.twist for term in e.terms for a in term
            if a.weight not in (0, (0, 0))]


def atom_weights(a: Atom, p: int) -> Counter:
    """Formal character of one atom: weight -> multiplicity."""
    q = p ** a.twist
    if isinstance(a.weight, tuple):
        if a.kind != "simple":
            raise NotImplementedError(f"no G2 character for {format_atom(a)}: "
                                      "only simple G2 atoms are tabulated")
        return Counter({tuple(x * q for x in w): c
                        for w, c in g2_simple_char(a.weight, p).items()})
    base = (a1_simple_weights if a.kind == "simple" else a1_tilting_weights)(a.weight, p)
    return Counter(w * q for w in base)


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
    a = []
    for w, c in char.items():
        vec = w if isinstance(w, tuple) else (w,)
        if all(x == 0 for x in vec):
            if c % 2:
                raise ArithmeticError("odd zero-weight multiplicity: not orthogonal")
            a.extend([w] * (c // 2))
        elif next(x for x in vec if x) > 0:
            if char.get(tuple(-x for x in w) if vec is w else -w, 0) != c:
                raise ArithmeticError("character is not symmetric: not orthogonal")
            a.extend([w] * c)
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
    scalar = not isinstance(natural_half[0], tuple)
    vecs = [(w,) if scalar else w for w in natural_half]
    halves = (Counter(), Counter())
    for signs in itertools.product((1, -1), repeat=len(vecs)):
        tot = [sum(s * x for s, x in zip(signs, col)) for col in zip(*vecs)]
        if any(x % 2 for x in tot):
            raise ArithmeticError("half-spin weight not integral")
        half = tuple(x // 2 for x in tot)
        halves[signs.count(-1) % 2][half[0] if scalar else half] += 1
    return halves


def module_weights(e: ModExpr, p: int) -> Counter:
    """Formal character of the expression: weight -> multiplicity."""
    out: Counter = Counter()
    for term in e.terms:
        out.update(functools.reduce(char_tensor, (atom_weights(a, p) for a in term)))
    return out


def module_is_tilting(e: ModExpr, p: int) -> bool:
    """Structural sufficient condition for the expression to denote a tilting
    module (hence to have vanishing H^1): untwisted tiltings, and the simples
    that are their own Weyl modules, are closed under sums and tensor
    products.  A Frobenius twist defeats the argument, so any twisted atom
    returns False."""
    return all(_atom_is_tilting(a, p) for term in e.terms for a in term)


def _atom_is_tilting(a: Atom, p: int) -> bool:
    if a.twist != 0:
        return False
    if a.kind == "tilt":
        return True
    if isinstance(a.weight, tuple):
        # a simple Weyl module is tilting; untabulated weights raise
        return g2_simple_char(a.weight, p) == g2_weyl_char(a.weight)
    return a.weight <= p - 1
