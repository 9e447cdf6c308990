"""Helpers that exist only to check ``gcr``: no table result or cross-check
uses them, so they live with the tests.

- the divided powers E_a and F_a of an explicit rank-one module as dense
  matrices per degree, read off its entries, and the one-parameter
  subgroups x_+(t) and x_-(t) built from them, for the operator tests
- the simple module L(m), direct sums and the explicit module of a rank-one
  expression, for the H^1 and alternating-power tests
- the dual of an explicit rank-one module, for the H^1 test of W(8)* and
  as a factor of the tensor-reference tests
- the k-th alternating power of an explicit rank-one module, for the
  tests of ``a1coh.sum_power`` and ``modrep.alt_char`` against operators
- the weight vectors of an explicit rank-one module killed by every
  divided power E_a, for the test of the Hom recursion of ``a1coh``
- the full root set, the simple roots, the pairings with the simple
  coroots summed from the Cartan matrix and the simple reflections of a
  root system, for the Euclidean-model and Weyl-invariance tests, and a
  root's level and the radical roots of a parabolic grouped by their
  outside coefficients, for the level-summand tests
- the dimension of a characteristic-zero irreducible, summed from
  ``modrep.freudenthal``
- the descriptor of any action expression, the composition factors of a
  module expression's character, and the H^1 criterion for a simple
  rank-one module
- the Levi-irreducible actions on the natural module of A_n and D_n,
  enumerated from the rule that defines them, for the test of the
  hand-written candidate patterns
- the candidate scan done the long way: every action a pattern gives, by
  the full product of its terms' choices with duplicates dropped, and the
  A1 report of every candidate product of a parabolic, class by class,
  with H^1 worked out on every factor and no memo
- the canonical JSON dump of a table's scan and diff, whose hash pins the
  whole output of a table, that of every restriction derived by a rule
  rather than read off a candidate's module, and that of the level summands
  the scan reads for every proper Levi of E6, E7 and E8
- the canonical JSON dump of every level-H^1 value a table's scan
  memoises, and that of the candidate tables in their order
"""

import functools
import itertools
import json
import math
from collections import Counter

import numpy as np

from gcr.a1coh import h1_dim, terms_tensor
from gcr.h1scan import (class_unit, _level_h1_memo, _summand_weights,
                        _tensor_shapes, canonical_action, d_type_actions,
                        factor_assignments, factor_candidates,
                        factor_restriction_terms, scan_group, spin_half_terms)
from gcr.modrep import (A1Module, Atom, ModExpr, _base_p_digits,
                        _submodule_restriction, a1_simple_weights,
                        a1_top_weight, format_module, freudenthal, g2_comp_factors,
                        module_weights, peel_characters, tensor, tilting_module,
                        twist, weyl_module)
from gcr.rings import rank
from gcr.rootsystem import Root, RootSystem
from gcr.tables import diff_badx, diff_to_json, render_diff


# -- rank-one groups ---------------------------------------------------------

def dense_ops(mod: A1Module) -> tuple[dict[int, np.ndarray], dict[int, np.ndarray]]:
    """(E, F): each kind of divided power as {degree a: dense matrix of E_a
    or F_a}, read off the module's entries, a degree being half the weight
    shift; a degree with no nonzero entry is absent."""
    w = np.array(mod.weights, dtype=np.int64)
    out = []
    for r, c, v in ([np.array(x, dtype=np.int64) for x in kind] for kind in mod.entries):
        deg = np.abs(w[r] - w[c]) // 2
        ops = {}
        for a in sorted(set(deg.tolist())):
            at = deg == a
            ops[a] = np.zeros((mod.dim, mod.dim), dtype=np.int64)
            ops[a][r[at], c[at]] = v[at]
        out.append(ops)
    return tuple(out)


def _exp(mod: A1Module, ops: dict[int, np.ndarray], t: int) -> np.ndarray:
    out = np.eye(mod.dim, dtype=np.int64)
    for a, m in ops.items():
        out = (out + pow(t, a, mod.p) * m) % mod.p
    return out


def x_plus(mod: A1Module, t: int) -> np.ndarray:
    """x_+(t) = sum_a t^a E_a over GF(p)."""
    return _exp(mod, dense_ops(mod)[0], t)


def x_minus(mod: A1Module, t: int) -> np.ndarray:
    """x_-(t) = sum_a t^a F_a over GF(p)."""
    return _exp(mod, dense_ops(mod)[1], t)


def simple_module(m: int, p: int) -> A1Module:
    """L(m) as a twisted tensor product of Weyl modules over the base-p
    digits of m (Steinberg's tensor product theorem)."""
    out = None
    for i, d in enumerate(_base_p_digits(m, p)):
        piece = twist(weyl_module(d, p), i) if i else weyl_module(d, p)
        out = piece if out is None else tensor(out, piece)
    return out


def direct_sum(*mods: A1Module) -> A1Module:
    """The direct sum, on the modules' bases in turn."""
    ops = (([], [], []), ([], [], []))
    off = 0
    for m in mods:
        for store, (r, c, v) in zip(ops, m.entries):
            store[0].extend(x + off for x in r)
            store[1].extend(x + off for x in c)
            store[2].extend(v)
        off += m.dim
    return A1Module(mods[0].p, [w for m in mods for w in m.weights], *ops)


def module_matrices(e: ModExpr, p: int) -> A1Module:
    """Explicit operator realisation of a rank-one expression: the direct
    sum of its terms, each the tensor product of its atoms."""
    return direct_sum(*(functools.reduce(tensor, [atom_matrices(a, p) for a in term])
                        for term in e.terms))


def atom_matrices(a: Atom, p: int) -> A1Module:
    """Explicit operator realisation of a rank-one atom."""
    if isinstance(a.weight, tuple):
        raise NotImplementedError("explicit operators are rank-one only")
    base = (simple_module if a.kind == "simple" else tilting_module)(a.weight, p)
    return twist(base, a.twist) if a.twist else base


def dual(a: A1Module) -> A1Module:
    """Negated weights; each entry transposed, with the sign (-1)^degree."""
    w = a.weights
    return A1Module(a.p, [-x for x in w],
                    *((c, r, [x if (w[i] - w[j]) // 2 % 2 == 0 else -x
                              for i, j, x in zip(r, c, v)])
                      for r, c, v in a.entries))


def _power_basis(d: int, k: int, p: int) -> np.ndarray:
    """Basis of the image of the antisymmetrizer inside the k-th tensor
    power of a d-dimensional space, as columns over GF(p)."""
    combos = list(itertools.combinations(range(d), k))
    basis = np.zeros((d ** k, len(combos)), dtype=np.int64)
    for c, combo in enumerate(combos):
        for perm in itertools.permutations(range(k)):
            idx = 0
            for j in perm:
                idx = idx * d + combo[j]
            val = 1
            # parity of the permutation
            pe = list(perm)
            for i in range(k):
                while pe[i] != i:
                    j = pe[i]
                    pe[i], pe[j] = pe[j], pe[i]
                    val = -val
            basis[idx, c] = val % p
    return basis


def alt_power_module(base: A1Module, k: int) -> A1Module:
    """The k-th alternating power of an explicit module, for k < p: the
    antisymmetrizer's image in the k-th tensor power, cut out as a
    submodule."""
    if k >= base.p:
        raise NotImplementedError("power exponent must be below p")
    big = functools.reduce(tensor, [base] * k)
    return _submodule_restriction(big, _power_basis(base.dim, k, base.p).tolist())


def highest_weight_vectors(mod: A1Module, lam: int) -> int:
    """dim of the weight-lam vectors of mod killed by every E_a, a >= 1,
    that is dim Hom(Delta(lam), mod) (Jantzen, Representations of
    Algebraic Groups, II.2.13).  E_a lands in weight lam + 2a, so the
    degrees fill disjoint rows of one matrix."""
    cols = {j: k for k, j in enumerate(j for j, x in enumerate(mod.weights) if x == lam)}
    rows: dict[int, list[int]] = {}
    for i, j, x in zip(*mod.entries[0]):
        if j in cols:
            rows.setdefault(i, [0] * len(cols))[cols[j]] = x
    return len(cols) - rank(list(rows.values()), mod.p)


# -- root systems -------------------------------------------------------------

def roots(rs: RootSystem) -> list[Root]:
    """Every root: the positive ones, then their negatives."""
    return list(rs.positive) + [tuple(-c for c in r) for r in rs.positive]


def simple(rs: RootSystem, i: int) -> Root:
    """The simple root alpha_i, i 1-based."""
    return tuple(int(j == i - 1) for j in range(rs.rank))


def pairing_index(rs: RootSystem, r: Root, i: int) -> int:
    """<r, alpha_{i+1}-check> for 0-based i, summed from the Cartan matrix."""
    return sum(c * rs.cartan[j][i] for j, c in enumerate(r))


def reflect(rs: RootSystem, r: Root, i: int) -> Root:
    """Simple reflection s_i (1-based) applied to r."""
    k = pairing_index(rs, r, i - 1)
    return tuple(c - k * (j == i - 1) for j, c in enumerate(r))


def level(r: Root, levi) -> int:
    """Sum of the coefficients of r outside the Levi (1-based nodes)."""
    inside = set(levi)
    return sum(c for i, c in enumerate(r, start=1) if i not in inside)


def weyl_dim(name: str, lam: tuple[int, ...]) -> int:
    """Dimension of the characteristic-zero irreducible of highest weight
    lam: the sum of its Freudenthal multiplicities."""
    return sum(freudenthal(name, lam).values())


def radical_shapes(rs: RootSystem, levi) -> dict[tuple, list[Root]]:
    """The roots of the unipotent radical of P_levi, those of positive
    ``level``, grouped by their coefficients outside the Levi, each group
    in root order and the groups in the order of their least roots."""
    shapes: dict[tuple, list[Root]] = {}
    for r in rs.positive:
        if level(r, levi):
            outside = tuple(c for i, c in enumerate(r, 1) if i not in levi)
            shapes.setdefault(outside, []).append(r)
    return shapes


# -- module expressions -------------------------------------------------------

def action_descriptor(e: ModExpr) -> str:
    """The descriptor of any action expression: that of its canonical form."""
    return format_module(canonical_action(e))


def a1_comp_factors(weights, p: int) -> Counter:
    """Composition factor multiset of any module with the given T-weights,
    by greedy removal of simple characters from the top."""
    return peel_characters(weights, a1_top_weight,
                           lambda n: a1_simple_weights(n, p))


def h1_irreducible(lam: int, p: int) -> bool:
    """Whether H^1 of the rank-one group with coefficients in L(lam) is
    nonzero: lam = (2p-2) p^s."""
    if lam <= 0:
        return False
    while lam % p == 0:
        lam //= p
    return lam == 2 * p - 2


def module_comp_factors(e: ModExpr, p: int) -> Counter:
    """Composition factor multiset of the expression's character."""
    char = module_weights(e, p)
    if any(isinstance(w, tuple) for w in char):
        return g2_comp_factors(char, p)
    return a1_comp_factors(list(char.elements()), p)


# -- Levi-irreducible actions on a natural module --------------------------------

@functools.cache
def _restricted_terms(p: int, tmax: int, maxdim: int) -> tuple:
    """Every tensor product of restricted L(m), 1 <= m <= p - 1, at
    pairwise distinct twists 0..tmax, of dimension at most maxdim, as
    (shape, dim, term), the shape its weights in decreasing order.
    By Steinberg's tensor product theorem these are the distinct
    non-trivial irreducibles with twists in the window."""
    out = []
    for k in range(1, tmax + 2):
        for twists in itertools.combinations(range(tmax + 1), k):
            for weights in itertools.product(range(1, p), repeat=k):
                dim = math.prod(w + 1 for w in weights)
                if dim <= maxdim:
                    term = tuple(Atom("simple", w, t) for w, t in zip(weights, twists))
                    out.append((tuple(sorted(weights, reverse=True)), dim, term))
    return tuple(out)


def _pattern(shapes) -> tuple:
    """A multiset of term shapes in one order: decreasing, so a trivial
    term, shape (), comes last."""
    return tuple(sorted(shapes, reverse=True))


def natural_actions(kind: str, n: int, p: int, tmax: int) -> dict[tuple, set[str]]:
    """The Levi-irreducible rank-one actions on the natural module of A_n
    or D_n (kind "A" or "D"), with twists 0..tmax, by pattern:
    {pattern: descriptors}.  On A_n they are the irreducibles of dimension
    n + 1.  On D_n they are the sums of pairwise distinct orthogonal
    irreducibles of total dimension 2n: a term is orthogonal when it has an
    even number of odd weights (an odd weight carries a symplectic form),
    and the trivial module occurs at most once."""
    dim = n + 1 if kind == "A" else 2 * n
    terms = _restricted_terms(p, tmax, dim)
    if kind == "A":
        sums = [[t] for t in terms if t[1] == dim]
    else:
        terms = [t for t in terms if sum(w % 2 for w in t[0]) % 2 == 0]
        sums = []

        def extend(start: int, left: int, chosen: list):
            if left in (0, 1):
                sums.append(chosen + [((), 1, (Atom("simple", 0, 0),))] * left)
            for i in range(start, len(terms)):
                if terms[i][1] <= left:
                    extend(i + 1, left - terms[i][1], chosen + [terms[i]])

        extend(0, dim, [])
    out: dict[tuple, set[str]] = {}
    for chosen in sums:
        e = ModExpr(tuple(t[2] for t in chosen))
        out.setdefault(_pattern(t[0] for t in chosen), set()).add(action_descriptor(e))
    return out


def action_pattern(e: ModExpr) -> tuple:
    """The pattern of an action on a natural module: the shape of each of
    its terms, in ``natural_actions``' order."""
    return _pattern(tuple(sorted((a.weight for a in term if a.weight), reverse=True))
                    for term in e.terms)


# -- the candidate scan --------------------------------------------------------

def actions_by_product(patterns, p: int, tmax: int) -> tuple[ModExpr, ...]:
    """Every action the patterns give, from the full product of each
    term's choices, keeping the first expression per descriptor."""
    out: dict[str, ModExpr] = {}
    for pattern in patterns:
        live = [shape for shape in pattern if shape]
        trivial = len(live) < len(pattern)
        if any(w > p - 1 for shape in live for w in shape):
            continue
        for combo in itertools.product(*(_tensor_shapes(s, tmax) for s in live)):
            if len({format_module(canonical_action(ModExpr((t,)))) for t in combo}) \
                    != len(combo):
                continue
            full = combo + (((Atom("simple", 0, 0),),) if trivial else ())
            c = canonical_action(ModExpr(full))
            out.setdefault(format_module(c), c)
    return tuple(out.values())


def a1_reports_by_product(name: str, levi: tuple[int, ...], p: int,
                          tmax: int = 2) -> list[tuple]:
    """(actions, flagged classes, hits, class units) of every A1 candidate
    product on one parabolic that is untwisted on some factor, flagged or
    not, in product order.  Each class's H^1 on each distinct summand
    weight is that of the tensor product of the restrictions to every
    factor, trivial ones included; nothing is memoised."""
    types, distinct, summands = _summand_weights(name, levi)
    per_factor = [factor_candidates(t, p, tmax) for t in types]
    out = []
    if not types or not all(per_factor):
        return out
    for combo in itertools.product(*per_factor):
        if min(t for c in combo for t in c.twists) != 0:
            continue
        classes, hits, units = 0, [], []
        assigns = [factor_assignments(c, t, p) for c, t in zip(combo, types)]
        for assign in itertools.product(*assigns):
            outcomes = []
            for weights, _ in distinct:
                level = {(): 1}
                for c, t, w, a in zip(combo, types, weights, assign):
                    level = terms_tensor(level.items(),
                                         factor_restriction_terms(c, t, w, p, a))
                outcomes.append(h1_dim(level, p))
            for lvl, k in summands:
                if outcomes[k] and (lvl, outcomes[k]) not in hits:
                    hits.append((lvl, outcomes[k]))
            if any(outcomes):
                classes += 1
                units.append(class_unit(combo, p, assign))
        out.append((tuple(c.descriptor for c in combo), classes, hits, units))
    return out


# -- table output ----------------------------------------------------------------

def table_dump(group: str, p: int, tmax: int) -> str:
    """Canonical JSON of one table's output: every scan row's key, classes,
    hits, class units, parabolics and pruned levels, by key; the pruned
    non-rows; and the diff against the golden table, as ``diff_to_json``
    and as ``render_diff`` text.  Two trees with the same dump give the
    same table."""
    scan = scan_group(group, p, tmax)
    diff = diff_badx(group, p, tmax, scan=scan)
    return json.dumps({
        "rows": [[list(key), r.classes, r.hits, r.class_units, r.parabolics,
                  r.pruned] for key, r in sorted(scan.rows.items())],
        "pruned_nonrows": scan.pruned_nonrows,
        "diff": diff_to_json(diff),
        "text": render_diff(diff),
    }, sort_keys=True, separators=(",", ":"))


def _terms_json(terms) -> list:
    return sorted([[list(map(list, t)), c] for t, c in terms.items() if c])


def restriction_dump(tmax: int) -> str:
    """Canonical JSON of every restriction derived by a rule, at p = 5, 7,
    11 and 13: the two half-spin term sums of every D4..D7 action, and the
    alternating powers alt^k V, 2 <= k <= (r + 1) / 2, of the natural module
    V of every A_r candidate.  Two trees with the same dump derive the same
    restrictions."""
    out = []
    for p in (5, 7, 11, 13):
        for r in range(4, 8):
            for e in d_type_actions(r, p, tmax):
                out.append([f"D{r}", format_module(e), p,
                            *map(_terms_json, spin_half_terms(e, p))])
        for r in range(2, 7):
            for c in factor_candidates(f"A{r}", p, tmax):
                for k in range(2, (r + 1) // 2 + 1):
                    weight = tuple(int(i == k - 1) for i in range(r))
                    out.append([f"A{r}", c.descriptor, p, k, _terms_json(dict(
                        factor_restriction_terms(c, f"A{r}", weight, p, None)))])
    return json.dumps(out, separators=(",", ":"))


def level_dump() -> str:
    """Canonical JSON of ``_summand_weights`` for every proper Levi of E6,
    E7 and E8: factor types, distinct summand weights with their live
    factors, and (level, weight index) per non-trivial summand.  Two trees
    with the same dump give the scan the same levels."""
    out = []
    for name, rank in (("E6", 6), ("E7", 7), ("E8", 8)):
        for k in range(rank):
            for levi in itertools.combinations(range(1, rank + 1), k):
                out.append([name, levi, *_summand_weights(name, levi)])
    return json.dumps(out, separators=(",", ":"))


def level_h1_dump(group: str, p: int, tmax: int = 2) -> str:
    """Canonical JSON of every level-H^1 value a cold scan of one table
    memoises: the sorted (key, dim H^1) items of ``_level_h1_memo()``.  Two
    trees with the same dump computed the same H^1 on every key, flagging
    or not."""
    _level_h1_memo.cache_clear()
    scan_group(group, p, tmax)
    return json.dumps(sorted(_level_h1_memo().items()), separators=(",", ":"))


def candidate_dump() -> str:
    """Canonical JSON of the candidate tables in their order, at p = 5, 7
    and 11 and tmax 2 and 3: each candidate's descriptor, twists and kind
    for A1..A7, D4..D7, E6 and E7.  Two trees with the same dump offer the
    scan the same candidates in the same order."""
    types = [f"A{r}" for r in range(1, 8)] + [f"D{r}" for r in range(4, 8)]
    out = []
    for p in (5, 7, 11):
        for tmax in (2, 3):
            for t in types + ["E6", "E7"]:
                out.append([t, p, tmax, [[c.descriptor, c.twists, c.kind]
                                         for c in factor_candidates(t, p, tmax)]])
    return json.dumps(out, separators=(",", ":"))
