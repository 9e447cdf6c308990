"""Helpers that exist only to check ``gcr``: no table result or cross-check
uses them, so they live with the tests.

- the one-parameter subgroups x_+(t) and x_-(t) of an explicit rank-one
  module, for the group-law tests of its divided powers
- the dual of an explicit rank-one module, for the H^1 test of W(8)* and
  as a factor of the tensor-reference tests
- the k-th alternating power of an explicit rank-one module, for the
  tests of ``a1coh.sum_power`` and ``modrep.alt_char`` against operators
- the weight vectors of an explicit rank-one module killed by every
  divided power E_a, for the test of the Hom recursion of ``a1coh``
- the full root set, the simple roots and the simple reflections of a root
  system, for the Euclidean-model and Weyl-invariance tests, and the
  radical roots of a parabolic grouped by their outside coefficients, for
  the level-summand tests
- the descriptor of any action expression, the composition factors of a
  module expression's character, and the H^1 criterion for a simple
  rank-one module
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
from collections import Counter

import numpy as np

from gcr.a1coh import h1_dim, terms_tensor
from gcr.h1scan import (class_unit, _level_h1_memo, _summand_weights,
                        _tensor_shapes, canonical_action, d_type_actions,
                        factor_assignments, factor_candidates,
                        factor_restriction_terms, scan_group, spin_half_terms)
from gcr.modrep import (A1Module, ModExpr, _submodule_restriction,
                        a1_simple_weights, a1_top_weight, format_module,
                        g2_comp_factors, m_simple, m_sum, module_weights,
                        peel_characters, tensor)
from gcr.rings import rank
from gcr.rootsystem import Root, RootSystem
from gcr.tables import diff_badx, diff_to_json, render_diff


# -- rank-one groups ---------------------------------------------------------

def _exp(mod: A1Module, ops: dict[int, np.ndarray], t: int) -> np.ndarray:
    out = np.eye(mod.dim, dtype=np.int64)
    for a, m in ops.items():
        out = (out + pow(t, a, mod.p) * m) % mod.p
    return out


def x_plus(mod: A1Module, t: int) -> np.ndarray:
    """x_+(t) = sum_a t^a E[a] over GF(p)."""
    return _exp(mod, mod.E, t)


def x_minus(mod: A1Module, t: int) -> np.ndarray:
    """x_-(t) = sum_a t^a F[a] over GF(p)."""
    return _exp(mod, mod.F, t)


def dual(a: A1Module) -> A1Module:
    """Negated weights; each entry transposed, with the sign (-1)^degree."""
    w = np.array(a.weights, dtype=np.int64)
    return A1Module(a.p, (-w).tolist(),
                    *((c, r, np.where((w[r] - w[c]) // 2 % 2, -v, v))
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
    return _submodule_restriction(big, _power_basis(base.dim, k, base.p))


def highest_weight_vectors(mod: A1Module, lam: int) -> int:
    """dim of the weight-lam vectors of mod killed by every E_a, a >= 1,
    that is dim Hom(Delta(lam), mod) (Jantzen, Representations of
    Algebraic Groups, II.2.13).  E_a lands in weight lam + 2a, so the
    degrees fill disjoint rows of one matrix."""
    w = np.array(mod.weights, dtype=np.int64)
    cols = np.flatnonzero(w == lam)
    r, c, v = mod.entries[0]
    keep = w[c] == lam
    mat = np.zeros((mod.dim, cols.size), dtype=np.int64)
    mat[r[keep], np.searchsorted(cols, c[keep])] = v[keep]
    return cols.size - rank(mat[mat.any(axis=1)], mod.p)


# -- root systems -------------------------------------------------------------

def roots(rs: RootSystem) -> list[Root]:
    """Every root: the positive ones, then their negatives."""
    return list(rs.positive) + [tuple(-c for c in r) for r in rs.positive]


def simple(rs: RootSystem, i: int) -> Root:
    """The simple root alpha_i, i 1-based."""
    return tuple(int(j == i - 1) for j in range(rs.rank))


def reflect(rs: RootSystem, r: Root, i: int) -> Root:
    """Simple reflection s_i (1-based) applied to r."""
    k = rs.pairing_index(r, i - 1)
    return tuple(c - k * (j == i - 1) for j, c in enumerate(r))


def radical_shapes(rs: RootSystem, levi) -> dict[tuple, list[Root]]:
    """The roots of the unipotent radical of P_levi, those of positive
    ``RootSystem.level``, grouped by their coefficients outside the Levi,
    each group in root order and the groups in the order of their least
    roots."""
    shapes: dict[tuple, list[Root]] = {}
    for r in rs.positive:
        if rs.level(r, levi):
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
            terms = [canonical_action(t) for t in combo]
            descs = [format_module(t) for t in terms]
            if len(set(descs)) != len(descs):
                continue
            full = list(terms) + ([m_simple(0)] if trivial else [])
            c = canonical_action(full[0] if len(full) == 1 else m_sum(*full))
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
