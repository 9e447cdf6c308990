"""Tests for the twist-layer cohomology calculus, the candidate enumeration,
the spin-half restriction rules, and the full parabolic level scans against
the golden classification tables."""

import dataclasses
import gc
import hashlib
import itertools
import json
import math
import re
import sys
from collections import Counter

import pytest

from gcr import a1coh, h1scan, modrep
from gcr.a1coh import (h1_dim, sum_power, term_char, terms_char, terms_tensor,
                       tilting_product)
from gcr.modrep import (
    ModExpr,
    alt_char,
    char_tensor,
    format_module,
    g2_comp_factors,
    h1_module_a1,
    module_weights,
    parse_module,
    spin_halves_from_char,
    tensor,
    tilting_module,
    twist,
)
from gcr.h1scan import (
    _A_PATTERNS,
    _D_PATTERNS,
    a_type_actions,
    canonical_action,
    d_type_actions,
    e6_factor_candidates,
    e7_factor_candidates,
    factor_assignments,
    factor_candidates,
    factor_restriction_g2,
    factor_restriction_terms,
    _level_h1_memo,
    _summand_weights,
    g2_factor_candidate,
    scan_group,
    scan_parabolic,
    spin_half_terms,
)
from gcr.parabolic import (component_type, decompose_level, levi_components,
                           radical_levels, typed_components)
from gcr.rootsystem import build_root_system
from gcr.tables import (DiffRow, TableDiff, canon_factor, diff_badx, diff_to_json,
                        expand_rows, load_badx, render_diff)
from oracles import (a1_reports_by_product, action_descriptor, alt_power_module,
                     actions_by_product, candidate_dump, highest_weight_vectors,
                     action_pattern, level, level_dump, level_h1_dump,
                     module_matrices, natural_actions, pairing_index,
                     radical_shapes, restriction_dump, table_dump, weyl_dim)


# -- twist-layer H^1 of tilting-product terms ---------------------------------

# terms are tuples of (m, t) pairs meaning the product of T(m) twisted t
# times; expected values hand-derived from the layer rules / digit criterion
H1_TERM_CASES_P5 = [
    (((8, 0),), 0),                 # a single tilting module
    (((3, 0), (1, 1)), 1),          # L(3) (x) L(1)^[1] = L(8), digits (3, 1)
    (((3, 0),), 0),
    (((1, 0), (1, 1)), 0),          # bottom factor T(1): layer rule gives 0
    (((4, 0), (1, 1)), 0),          # bottom factor T(p-1)
    (((8, 0), (1, 1)), 0),          # bottom T(2p-2): reduces to H^1(T(1)) = 0
    (((8, 0), (3, 1), (1, 2)), 1),  # bottom T(2p-2): reduces to H^1(L(8))
    (((3, 1), (1, 2)), 1),          # common twist normalised away
    (((2, 0), (3, 1), (1, 2)), 0),  # bottom T(2) kills the layer
    (((3, 0), (3, 1), (1, 2)), 0),  # L(43): digits (3, 3, 1), extra digit
    (((10, 0), (1, 1)), 0),         # bottom T(10) rewrites to T(5) (x) ...
]

H1_TERM_CASES_P7 = [
    (((5, 0), (1, 1)), 1),          # L(5) (x) L(1)^[1] = L(12), digits (5, 1)
    (((12, 0),), 0),
    (((12, 0), (5, 1), (1, 2)), 1),
    (((6, 0), (1, 1)), 0),
]


@pytest.mark.parametrize("term,expected", H1_TERM_CASES_P5)
def test_h1_term_values_p5(term, expected):
    assert h1_dim([term], 5) == expected


@pytest.mark.parametrize("term,expected", H1_TERM_CASES_P7)
def test_h1_term_values_p7(term, expected):
    assert h1_dim([term], 7) == expected


@pytest.mark.parametrize("terms,p", [([((9, 0),)], 4), ([((3, 0),)], 1)],
                         ids=["p4", "p1"])
def test_h1_dim_refuses_a_p_that_is_not_prime(terms, p):
    """Both sums came out 0, as if p were prime."""
    with pytest.raises(ValueError, match=f"p={p} of a rank-one module"):
        h1_dim(terms, p)


@pytest.mark.parametrize("terms", [
    [((1, -1), (1, 0))], [((-1, 0),)], [((1,),)], [((1, 0, 2),)], [(1, 0)],
    [((1, 0.0),)], [((True, 1),)], [[[1, 0]]], [5], {((1, 0), (2, -3)): 2}],
    ids=["negative-twist", "negative-weight", "no-pair", "triple", "bare-pair",
         "float", "bool", "list-pair", "int", "mapping"])
def test_h1_dim_refuses_a_term_that_is_not_pairs(terms):
    """A factor with a negative twist came out 0, since the layer split
    keeps t < 0 in no level, and a factor that is no pair raised a bare
    unpacking error that named no input."""
    term = next(iter(terms))
    with pytest.raises(ValueError, match=re.escape(f"term {term!r} of h1_dim")):
        h1_dim(terms, 5)


def test_h1_counts_multiplicity():
    terms = Counter({((3, 0), (1, 1)): 4})
    assert h1_dim(terms, 5) == 4


def test_plain_dicts_keep_their_counts():
    # any mapping from terms to counts counts, not only a Counter
    assert h1_dim({((3, 0), (1, 1)): 2}, 5) == 2
    assert terms_char({((1, 0),): 3}, 5) == Counter({1: 3, -1: 3})


def _term_module(term, p):
    mod = None
    for m, t in term:
        f = twist(tilting_module(m, p), t)
        mod = f if mod is None else tensor(mod, f)
    return mod


@pytest.mark.parametrize("p", [5, 7])
def test_h1_terms_match_matrix_cocycles(p):
    """Cross-validate the layer rules against the independent matrix-level
    cocycle solver on all two-layer products of small tiltings."""
    for m1 in range(1, 2 * p - 1):
        for m2 in range(1, 2 * p - 1):
            term = ((m1, 0), (m2, 1))
            expected = h1_module_a1(_term_module(term, p))
            assert h1_dim([term], p) == expected, term


@pytest.mark.parametrize("p,factors,mmax,tmax,cases,nonzero", [
    (5, 2, 14, 2, 1806, 101), (7, 2, 12, 2, 1332, 78), (5, 3, 4, 2, 728, 45)])
def test_hom_matches_explicit_operators(p, factors, mmax, tmax, cases, nonzero):
    """For lam in {0, 1}, T(lam) = Delta(lam), so dim Hom(T(lam), M) is the
    dimension of the weight-lam vectors of M killed by every divided power
    E_a, a >= 1.  Checked on every term of the given number of factors
    (m, t), 1 <= m <= mmax and t <= tmax, built from explicit operators.
    At p = 5, m up to 3p - 1 makes summands T(e), e >= 3p - 2, whose
    Donkin split carries a nonzero Hom to the next twist."""
    atoms = [(m, t) for m in range(1, mmax + 1) for t in range(tmax + 1)]
    seen = positive = 0
    for term in itertools.combinations_with_replacement(atoms, factors):
        mod = _term_module(term, p)
        for lam in (0, 1):
            expected = highest_weight_vectors(mod, lam)
            assert a1coh._hom(lam, term, p) == expected, (term, lam)
            seen += 1
            positive += expected > 0
    assert (seen, positive) == (cases, nonzero)


def test_h1_single_tiltings_vanish():
    for p in (5, 7):
        for m in range(22):
            assert h1_dim([((m, 0),)], p) == 0, (m, p)


def test_term_char_dimension():
    # T(8) at p = 5 is 10-dimensional: chi(8) + chi(0)
    ch = term_char(((8, 0),), 5)
    assert sum(ch.values()) == 10
    assert ch[8] == 1 and ch[2] == 1 and ch[0] == 2


def test_tilting_product_regroups():
    # T(1) (x) T(1) = T(2) + T(0) at any p > 2
    assert tilting_product((1, 1), 5) == ((0, 1), (2, 1))
    # T(3) (x) T(1) = T(4) + T(2) at p = 5
    assert tilting_product((3, 1), 5) == ((2, 1), (4, 1))


def test_sum_power_alternating_only():
    """alt^2(k + L(1)) = alt^2 k + k (x) L(1) + alt^2 L(1) = L(1) + k at
    p = 5: the trivial summand's square vanishes.  A power of exponent p
    or more is refused, naming k and p."""
    assert sum_power(Counter({(): 1, ((1, 0),): 1}).items(), 2, 5) == \
        Counter({((1, 0),): 1, (): 1})
    with pytest.raises(NotImplementedError, match=re.escape("alt^5 at p=5")):
        sum_power(Counter({((4, 0),): 1, ((1, 1),): 1}).items(), 5, 5)


@pytest.mark.parametrize("p,cases", [(5, 21), (7, 33)])
def test_alternating_powers_match_explicit_operators(p, cases):
    """Every alternating power alt^k V, 2 <= k <= (r + 1) / 2, of the
    natural module V of every A_r candidate (tmax 2): the explicit module
    has the character of the derived terms, and its H^1 is theirs."""
    seen = 0
    for r in range(2, 7):
        for c in factor_candidates(f"A{r}", p, 2):
            for k in range(2, (r + 1) // 2 + 1):
                terms = sum_power(h1scan._frozen_terms(c.expr, p), k, p)
                mod = alt_power_module(module_matrices(c.expr, p), k)
                label = (c.descriptor, k)
                assert Counter(mod.weights) == terms_char(terms, p), label
                assert h1_module_a1(mod) == h1_dim(terms, p), label
                seen += 1
    assert seen == cases


# -- candidate enumeration ----------------------------------------------------

def test_action_counts_frozen():
    """Enumeration sizes for the built-in irreducible rank-one actions, with
    twists swept 0..2 (frozen once validated against the classification
    constraints)."""
    assert [len(a_type_actions(r, 5, 2)) for r in range(1, 8)] == \
        [3, 3, 6, 3, 6, 0, 0]
    assert [len(a_type_actions(r, 7, 2)) for r in range(1, 8)] == \
        [3, 3, 6, 3, 9, 3, 0]
    assert [len(d_type_actions(r, 5, 2)) for r in range(4, 8)] == \
        [27, 22, 94, 78]
    assert [len(d_type_actions(r, 7, 2)) for r in range(4, 8)] == \
        [30, 31, 118, 117]
    assert len(e6_factor_candidates(5, 2)) == 19
    assert len(e6_factor_candidates(7, 2)) == 34
    assert len(e7_factor_candidates(5, 2)) == 0
    assert len(e7_factor_candidates(7, 2)) == 384


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("tmax", [2, 3])
def test_actions_match_product_oracle(p, tmax):
    """A run of equal shapes in a pattern takes strictly increasing term
    choices; that gives the same actions, in the same order, as the full
    product with duplicates dropped."""
    cases = [(a_type_actions, rank, _A_PATTERNS[rank]) for rank in _A_PATTERNS]
    cases += [(d_type_actions, rank, _D_PATTERNS[rank]) for rank in _D_PATTERNS]
    for actions, rank, patterns in cases:
        got = actions(rank, p, tmax)
        want = actions_by_product(patterns, p, tmax)
        assert [format_module(e) for e in got] == [format_module(e) for e in want]
        assert got == want


_A7_TABLE = "_A_PATTERNS stops at rank 6"
_NO_22 = "the hand patterns of this rank have no shape (2, 2)"
_P11 = "a weight of 7 or more is restricted only from p = 11"
# every Levi-irreducible action pattern that the independent enumeration
# finds and the hand-written tables lack, by (type, pattern), with the least
# p of {5, 7, 11} at which it occurs and why the tables lack it
NATURAL_GAPS = {
    ("A7", ((3, 1),)): (5, _A7_TABLE),
    ("A7", ((1, 1, 1),)): (5, _A7_TABLE),
    ("A7", ((7,),)): (11, _A7_TABLE),
    ("D5", ((2, 2), ())): (5, _NO_22),
    ("D7", ((4,), (2, 2))): (5, _NO_22),
    ("D7", ((2, 2), (1, 1), ())): (5, _NO_22),
    ("D5", ((8,), ())): (11, _P11),
    ("D6", ((8,), (2,))): (11, _P11),
    ("D6", ((10,), ())): (11, _P11),
    ("D7", ((8,), (4,))): (11, _P11),
    ("D7", ((8,), (1, 1), ())): (11, _P11),
    ("D7", ((10,), (2,))): (11, _P11),
}


@pytest.mark.parametrize("p", [5, 7, 11])
@pytest.mark.parametrize("tmax", [2, 3])
def test_hand_patterns_against_enumeration(p, tmax):
    """The actions of ``_A_PATTERNS``/``_D_PATTERNS`` against the
    independent enumeration of Levi-irreducible actions on the natural
    module, pattern by pattern, for every A and D rank of an exceptional
    Levi: a pattern of the tables gives exactly the actions the enumeration
    gives it, and every pattern the tables lack is a pinned gap, so a new
    gap, or one closed, fails by name."""
    gaps = set()
    for kind, ranks, actions in (("A", range(1, 8), a_type_actions),
                                 ("D", range(4, 8), d_type_actions)):
        for rank in ranks:
            want = natural_actions(kind, rank, p, tmax)
            got: dict[tuple, set] = {}
            for e in actions(rank, p, tmax):
                got.setdefault(action_pattern(e), set()).add(action_descriptor(e))
            assert got.keys() <= want.keys(), (kind, rank, got.keys() - want.keys())
            for pattern, descs in got.items():
                assert descs == want[pattern], (kind, rank, pattern)
            gaps.update((f"{kind}{rank}", pattern) for pattern in want.keys() - got.keys())
    assert gaps == {gap for gap, (least, _) in NATURAL_GAPS.items() if p >= least}


def test_a_type_action_contents():
    descs = {action_descriptor(e) for e in a_type_actions(3, 5, 2)}
    assert descs == {"3", "1 x 1[1]", "1 x 1[2]", "1[1] x 1[2]",
                     "3[1]", "3[2]"}
    # A2: only the untwisted/twisted adjoint-natural
    descs2 = {action_descriptor(e) for e in a_type_actions(2, 5, 2)}
    assert descs2 == {"2", "2[1]", "2[2]"}


def test_actions_are_canonical():
    """The enumerated actions are in canonical form already, so each
    candidate's descriptor is its action's text, and the A1D6 candidates
    format each D6 action once for every A1 twist."""
    count = 0
    for p in (5, 7, 11):
        for tmax in (2, 3):
            for rank in range(1, 8):
                for actions, fam in ((a_type_actions, "A"), (d_type_actions, "D")):
                    got = actions(rank, p, tmax)
                    count += len(got)
                    assert [action_descriptor(e) for e in got] == \
                        [format_module(e) for e in got]
                    assert [c.descriptor for c in factor_candidates(f"{fam}{rank}", p, tmax)] \
                        == [action_descriptor(e) for e in got]
    assert count == 3994
    a1d6 = [c for c in e7_factor_candidates(7, 2) if c.kind == "a1d6"]
    d6 = d_type_actions(6, 7, 2)
    assert len(a1d6) == 3 * len(d6) == 3 * 118
    assert [c.descriptor for c in a1d6] == [
        f"A1D6({a}, {action_descriptor(m)})"
        for a in ("1", "1[1]", "1[2]") for m in d6]


def test_cached_actions_are_immutable():
    """The enumerators are cached and hand out the same expressions to every
    caller, so no caller may change one."""
    action = next(e for e in a_type_actions(3, 5, 2) if len(e.terms[0]) > 1)
    before = action_descriptor(action)
    assert isinstance(action.terms, tuple)
    with pytest.raises(dataclasses.FrozenInstanceError):
        action.terms = ()
    with pytest.raises(AttributeError):
        action.terms[0][0].weight = 2
    assert action_descriptor(action) == before


def test_a5_and_a6_windows():
    # the 6-dimensional irreducible actions of a rank-one group exist only
    # for p = 7 (weight 5 needs p > 5 to stay restricted)
    assert {action_descriptor(e) for e in a_type_actions(5, 7, 2)} >= \
        {"5", "2 x 1[1]", "2[1] x 1"}
    assert a_type_actions(6, 5, 2) == ()
    assert {action_descriptor(e) for e in a_type_actions(6, 7, 2)} == \
        {"6", "6[1]", "6[2]"}


def test_d_type_actions_are_orthogonal_dimension():
    for rank, p in [(4, 5), (5, 5), (6, 7), (7, 7)]:
        for e in d_type_actions(rank, p, 2):
            ws = module_weights(e, p)
            assert sum(ws.values()) == 2 * rank, action_descriptor(e)
            # orthogonal: weights symmetric under negation
            assert all(ws[w] == ws[-w] for w in ws), action_descriptor(e)


def test_factor_candidates_min_twist_zero_exists():
    # every candidate list contains untwisted representatives; twisted copies
    # are filtered at combination time, not enumeration time
    cands = factor_candidates("A3", 5, 2)
    assert any(min(c.twists) == 0 for c in cands)


def test_shared_candidates_and_terms_stay_unchanged():
    # candidates are built once per (type, p, tmax); a caller that changes a
    # restriction it was handed does not change the next caller's
    cands = factor_candidates("A3", 5, 2)
    assert factor_candidates("A3", 5, 2) is cands
    handed = factor_restriction_terms(cands[0], "A3", (1, 0, 0), 5, None)
    assert isinstance(handed, tuple)
    first = dict(handed)
    want = Counter(first)
    first[((99, 0),)] = 1
    assert dict(factor_restriction_terms(cands[0], "A3", (1, 0, 0), 5, None)) == want


def test_g2_candidates():
    assert g2_factor_candidate("A6").descriptor == "(1,0)"
    assert g2_factor_candidate("D7").descriptor == "(0,1)"
    assert g2_factor_candidate("E6").descriptor == "max F4"
    assert g2_factor_candidate("D4") is not None
    assert g2_factor_candidate("A5") is None


# (subgroup type, factor type, summand weight, error text or None): one valid
# weight per node kind (natural, alternating power, half-spin, the 27 of E6,
# the 56 of E7), then weights with no restriction rule and weights that are
# not fundamental
NODE_CASES = [
    ("A1", "D4", (1, 0, 0, 0), None),
    ("G2", "D4", (1, 0, 0, 0), None),
    ("A1", "A6", (0, 1, 0, 0, 0, 0), None),
    ("G2", "A6", (0, 1, 0, 0, 0, 0), None),
    ("A1", "D7", (0, 0, 0, 0, 0, 0, 1), None),
    ("G2", "D7", (0, 0, 0, 0, 0, 1, 0), None),
    ("A1", "E6", (1, 0, 0, 0, 0, 0), None),
    ("G2", "E6", (0, 0, 0, 0, 0, 1), None),
    ("A1", "E7", (0, 0, 0, 0, 0, 0, 1), None),
] + [(x, t, w, message) for x in ("A1", "G2") for t, w, message in (
    ("D5", (0, 1, 0, 0, 0), "no restriction rule for D5 weight (0, 1, 0, 0, 0)"),
    ("E6", (0, 1, 0, 0, 0, 0),
     "no restriction rule for E6 weight (0, 1, 0, 0, 0, 0)"),
    ("E7", (1, 0, 0, 0, 0, 0, 0),
     "no restriction rule for E7 weight (1, 0, 0, 0, 0, 0, 0)"),
    ("A3", (1, 1, 0), "summand weight (1, 1, 0) is not fundamental"),
    ("D4", (0, 2, 0, 0), "summand weight (0, 2, 0, 0) is not fundamental"),
)]


@pytest.mark.parametrize("x_type,type_name,weight,message", NODE_CASES)
def test_node_rule(x_type, type_name, weight, message):
    """A fundamental weight with a restriction rule restricts, through the
    last candidate on the factor and its first class, to a module of its
    Weyl dimension; any other weight raises NotImplementedError naming it.
    The rule reads only the factor type and the weight, so the error cases
    all restrict through a D4 candidate."""
    p = 7
    if x_type == "G2":
        restrict = factor_restriction_g2
        cand = g2_factor_candidate("D4" if message else type_name)
    else:
        restrict = factor_restriction_terms
        cand = factor_candidates("D4" if message else type_name, p, 2)[-1]
    if message:
        with pytest.raises(NotImplementedError, match=re.escape(message)):
            restrict(cand, type_name, weight, p, None)
        return
    assign = factor_assignments(cand, type_name, p)[0]
    out = restrict(cand, type_name, weight, p, assign)
    char = out[1] if x_type == "G2" else terms_char(dict(out), p)
    assert sum(char.values()) == weyl_dim(type_name, weight)


# (factor type, summand weight, prune flag, dimension) of three G2 summands,
# each with the H^1-positive factor (2,0)
G2_PRUNE_CASES = [("A6", (0, 0, 1, 0, 0, 0), True, 35),
                  ("D7", (0, 0, 0, 0, 0, 0, 1), False, 64),
                  ("E6", (1, 0, 0, 0, 0, 0), False, 27)]


@pytest.mark.parametrize("type_name,weight,tilting,dim", G2_PRUNE_CASES)
def test_g2_prune_rule(type_name, weight, tilting, dim):
    """The G2 prune flag is read off the node: the cube of A6's natural
    module L(1,0) = W(1,0) is tilting (3 < 7), so its (2,0) is pruned,
    the A6 (1,0) non-row of E7/7 and E8/7; a D7 half-spin restriction is
    never taken for tilting, nor is E6's 27, (2,0) + (0,0), whose (2,0)
    is not its Weyl module."""
    cand = g2_factor_candidate(type_name)
    assign = factor_assignments(cand, type_name, 7)[0]
    flag, char = factor_restriction_g2(cand, type_name, weight, 7, assign)
    assert flag is tilting
    assert sum(char.values()) == dim
    assert g2_comp_factors(char)[(2, 0)] >= 1


def test_g2_restriction_rejects_trivial_weight():
    """The scan restricts live weights only; a trivial one fails loudly,
    naming the factor type and the weight."""
    cand = g2_factor_candidate("D4")
    with pytest.raises(ValueError, match=re.escape("D4 weight (0, 0, 0, 0)")):
        factor_restriction_g2(cand, "D4", (0, 0, 0, 0), 7, None)


def test_g2_restriction_refuses_alternating_power_at_or_above_p():
    """Lambda^7 of A6's natural module through A13's node 7 at p = 7 has no
    prune rule: the restriction fails loudly, naming k and p, where it
    returned a trivial character and no flag."""
    cand = g2_factor_candidate("A6")
    weight = tuple(int(i == 6) for i in range(13))
    with pytest.raises(NotImplementedError, match=re.escape("alt^7 at p=7")):
        factor_restriction_g2(cand, "A13", weight, 7, None)


# -- spin-half restriction rules ----------------------------------------------

# actions outside the D tables whose halves the derivation also covers
EXTRA_ORTHOGONAL_ACTIONS = {(5, 11): ["8 + 0"]}


@pytest.mark.parametrize("rank,p", itertools.product((4, 5, 6, 7), (5, 7, 11, 13)))
def test_spin_halves_match_sign_pattern_oracle(rank, p):
    """The half-spin terms agree with the sign-pattern character
    computation for every enumerated orthogonal action (517 cases at p = 5
    and 7) and for the extra actions, as unordered pairs."""
    extra = [parse_module(text) for text in EXTRA_ORTHOGONAL_ACTIONS.get((rank, p), ())]
    for e in [*d_type_actions(rank, p, 2), *extra]:
        h0, h1 = spin_half_terms(e, p)
        got = {tuple(sorted(terms_char(h0, p).items())),
               tuple(sorted(terms_char(h1, p).items()))}
        ev, od = spin_halves_from_char(module_weights(e, p), rank)
        want = {tuple(sorted(ev.items())), tuple(sorted(od.items()))}
        assert got == want, action_descriptor(e)


# the spin factors of the summand shapes of the D tables at p <= 7, as the
# hand table gave them: one term sum for an odd-dimensional summand, the two
# halves for an even one, with the atoms at twists 0, 1, 2 in turn; each
# term sum maps a term to its multiplicity
SHAPE_SPINORS = {
    "0": [{(): 1}],
    "2": [{((1, 0),): 1}],
    "4": [{((3, 0),): 1}],
    "6": [{((6, 0),): 1, (): 1}],
    "2 x 2[1]": [{((1, 1), (3, 0)): 1, ((1, 0), (3, 1)): 1}],
    "1 x 1[1]": [{((1, 0),): 1}, {((1, 1),): 1}],
    "3 x 1[1]": [{((1, 1), (3, 0)): 1}, {((4, 0),): 1, ((2, 1),): 1}],
    "5 x 1[1]": [{((1, 1), (8, 0)): 1, ((3, 1),): 1},
                 {((9, 0),): 1, ((2, 1), (5, 0)): 1}],
    "2 x 1[1] x 1[2]": [
        {((1, 1), (4, 0)): 1, ((3, 1),): 1, ((1, 1), (2, 0), (2, 2)): 1},
        {((1, 2), (4, 0)): 1, ((3, 2),): 1, ((1, 2), (2, 0), (2, 1)): 1}],
}


@pytest.mark.parametrize("p", [5, 7])
@pytest.mark.parametrize("text", SHAPE_SPINORS)
def test_summand_spinors_pinned(text, p):
    """The derived spin factors of each summand shape, as (term,
    multiplicity) pairs, are the hand table's, as an unordered pair; at
    p = 5 a shape with a weight above p - 1 is no action, and its simple
    atom, which is no tilting module, is refused by name."""
    e = parse_module(text)
    if p == 5 and text in ("6", "5 x 1[1]"):
        atom = text.split(" ")[0]
        with pytest.raises(ValueError, match=re.escape(f"simple atom {atom} at p={p}")):
            h1scan._summand_spinors(e.terms[0], p)
        return
    got = h1scan._summand_spinors(e.terms[0], p)
    assert {frozenset(h) for h in got} == \
        {frozenset(h.items()) for h in SHAPE_SPINORS[text]}
    assert len(got) == len(SHAPE_SPINORS[text])


def test_spin_factor_outside_tilting_products_raises():
    """L(4) x L(2)^[1] at p = 5: the spin character of the 15-dimensional
    summand is no sum of tilting products, so the derivation raises, naming
    the shape and p."""
    with pytest.raises(ArithmeticError, match=re.escape("shape (4, 2) at p=5")):
        spin_half_terms(parse_module("4 x 2[1] + 0"), 5)


def test_unrestricted_simple_atom_has_no_terms():
    """L(6) at p = 5 is not T(6), so a module with it has no term form: the
    error names the atom and p."""
    with pytest.raises(ValueError, match=re.escape("simple atom 6[1] at p=5")):
        h1scan._frozen_terms(parse_module("1 x 6[1] + 0"), 5)


def test_odd_summand_count_names_the_action():
    with pytest.raises(ArithmeticError, match=re.escape("action 4 + 2 + 0 has")):
        spin_half_terms(parse_module("4 + 2 + 0"), 5)


def test_spin_case_total():
    total = sum(len(d_type_actions(r, p, 2))
                for r in range(4, 8) for p in (5, 7))
    assert total == 517


def test_spin_halves_d4_natural():
    # action 3 x 1[1] on the natural 8-space of D4: halves 3 x 1[1] and
    # 4 + 2[1] (the three 8-dimensional fundamentals exhaust the triple)
    e = canonical_action(parse_module("3 x 1[1]"))
    h0, h1 = spin_half_terms(e, 5)
    chars = {tuple(sorted(terms_char(h, 5).items())) for h in (h0, h1)}
    want = {tuple(sorted(module_weights(parse_module(s), 5).items()))
            for s in ("3 x 1[1]", "4 + 2[1]")}
    assert chars == want


# -- parabolic scans ----------------------------------------------------------

def _flagged(reports):
    return {(r.x_type, r.actions): r for r in reports if r.flagged}


def test_scan_e7_e6_parabolic_p7():
    """The E6 Levi of the largest parabolic: abelian radical, one level; the
    chain action (1^[1], 5) and the G2 subgroup flag, nothing else."""
    reports = scan_parabolic("E7", (1, 2, 3, 4, 5, 6), 7)
    flagged = _flagged(reports)
    assert set(flagged) == {("A1", ("A1A5(1[1], 5)",)), ("G2", ("max F4",))}
    a1 = flagged[("A1", ("A1A5(1[1], 5)",))]
    assert a1.hits == [(1, 1)]
    assert a1.classes == 1


def test_scan_a6_parabolic_g2_pruned():
    """G2 in the A6 Levi: the level restriction contains a cohomology-
    positive factor but the level is tilting, so the candidate is pruned and
    never flagged."""
    for group, levi in [("E7", (1, 3, 4, 5, 6, 7)), ("E8", (1, 3, 4, 5, 6, 7))]:
        reports = scan_parabolic(group, levi, 7)
        g2 = [r for r in reports if r.x_type == "G2"]
        assert len(g2) == 1
        assert not g2[0].flagged
        assert g2[0].pruned, (group, levi)


def test_scan_e6_d4_parabolic_p5():
    reports = scan_parabolic("E6", (2, 3, 4, 5), 5)
    flagged = _flagged(reports)
    assert set(flagged) == {("A1", ("3 x 1[1]",)), ("A1", ("4 + 2[1]",))}
    assert flagged[("A1", ("3 x 1[1]",))].classes == 2
    assert flagged[("A1", ("4 + 2[1]",))].classes == 1


@pytest.mark.parametrize("group,p", [("E6", 5), ("E7", 5)])
def test_scan_parabolic_flags_what_every_product_flags(group, p):
    """On every parabolic, the A1 reports of the live-factor walk are the
    flagged ones of the exhaustive product, in the same order and with the
    same actions, class counts, hits and class units; no unflagged A1
    report comes back."""
    rs = build_root_system(group)
    flagged = 0
    for k in range(rs.rank):
        for levi in itertools.combinations(range(1, rs.rank + 1), k):
            got = [r for r in scan_parabolic(group, levi, p) if r.x_type == "A1"]
            assert all(r.flagged for r in got), levi
            want = [r for r in a1_reports_by_product(group, levi, p) if r[1]]
            assert [(r.actions, r.classes, r.hits, r.class_units)
                    for r in got] == want, levi
            flagged += len(want)
    assert flagged == {"E6": 22, "E7": 95}[group]


def test_level_h1_memo_keys_pinned():
    """Each table's scan looks up level H^1 once per live sub-assignment of
    its untwisted candidate products: a walk that evaluated any other key
    would grow the memo."""
    sizes = []
    for group, p in [("E6", 5), ("E7", 5), ("E7", 7), ("E8", 7)]:
        _level_h1_memo.cache_clear()
        scan_group(group, p)
        memo = _level_h1_memo()
        sizes.append((len(memo), sum(v > 0 for v in memo.values())))
    assert sizes == [(295, 15), (984, 36), (1080, 2), (3285, 27)]


# SHA-256 of oracles.level_h1_dump, pinned on the tree that still thawed
# each restriction into a Counter before multiplying: every memoised level
# H^1, flagging or not, of a cold scan of each table
LEVEL_H1_DUMP_SHA256 = {
    ("E6", 5): "9108882773c8e3e4a2851757ed3d9faf63c67f56dfd0459d3272c529530e4977",
    ("E7", 5): "addb566e69e818cb8ceded15eda2d36a0c8d91b2aedf49933fb69b32b8a4c923",
    ("E7", 7): "7ed6c9783e424ea343e0689e24a093adc6101d8bc81ca99ffe50e349ef83f678",
    ("E8", 7): "35b2de18437d0f7217de0c39882dbe870f2cb460a37c25b3ba4362067a926f93",
}


@pytest.mark.parametrize("group,p", LEVEL_H1_DUMP_SHA256)
def test_level_h1_values_pinned(group, p):
    dump = level_h1_dump(group, p)
    assert hashlib.sha256(dump.encode()).hexdigest() == LEVEL_H1_DUMP_SHA256[group, p]


def test_level_h1_lookups_pinned(monkeypatch):
    """Each live-factor walk runs once per walk key and is reused by every
    Levi that asks again, and the reports read its records, so the walks
    make every lookup; losing the reuse multiplies them (1,161, 4,391,
    4,508 and 17,431 without it)."""
    calls = 0
    outcome = h1scan._a1_outcome

    def spy(*args):
        nonlocal calls
        calls += 1
        return outcome(*args)

    monkeypatch.setattr(h1scan, "_a1_outcome", spy)
    counts = []
    for group, p in [("E6", 5), ("E7", 5), ("E7", 7), ("E8", 7)]:
        _level_h1_memo.cache_clear()
        calls = 0
        scan_group(group, p)
        counts.append(calls)
    assert counts == [326, 1187, 1290, 3765]


def test_walk_records_are_the_positive_memo_keys():
    """Each walk record holds the positive choices of its walk key, each
    with the H^1 of the level-H^1 key it names, and the records name
    exactly the positive keys of the memo; a key walked with and without
    covering every factor can name one memo key twice."""
    sizes = []
    for group, p in [("E6", 5), ("E7", 5), ("E7", 7), ("E8", 7)]:
        _level_h1_memo.cache_clear()
        scan_group(group, p)
        memo = _level_h1_memo()
        named = set()
        for (q, tmax, _, live), record in memo.walks.items():
            assert (q, tmax) == (p, 2)
            for choice, h1 in record.items():
                key = (p, tuple((t, factor_candidates(t, p, tmax)[i].descriptor, j, w)
                                for (t, w), (i, j) in zip(live, choice)))
                assert h1 == memo[key] > 0, key
                named.add(key)
        assert named == {key for key, h1 in memo.items() if h1 > 0}
        sizes.append((len(memo.walks), sum(map(len, memo.walks.values())), len(named)))
    assert sizes == [(40, 15, 15), (81, 44, 36), (83, 2, 2), (149, 28, 27)]


def test_restriction_memo_pinned():
    """A cold scan of each table builds the restriction of a key part only
    when a level-H^1 key holding it misses: resolving every option's
    restriction when the walk resolves its options would build 174 more on
    E8/7 alone."""
    sizes = []
    for group, p in [("E6", 5), ("E7", 5), ("E7", 7), ("E8", 7)]:
        _level_h1_memo.cache_clear()
        h1scan._restriction_memo.cache_clear()
        scan_group(group, p)
        sizes.append(len(h1scan._restriction_memo()))
    assert sizes == [139, 348, 420, 1346]


def test_spin_classes_built_once_per_module(monkeypatch):
    """A cold E8/7 scan restricts the half-spin modules through each
    orthogonal action once, 296 times in all, where building them per
    candidate made 650 calls; an A1D6 candidate shares the classes of the
    D6 candidate with its module."""
    calls = 0
    halves = h1scan.spin_half_terms

    def spy(*args):
        nonlocal calls
        calls += 1
        return halves(*args)

    monkeypatch.setattr(h1scan, "spin_half_terms", spy)
    for cached in (_level_h1_memo, h1scan._spin_classes):
        cached.cache_clear()
    scan_group("E8", 7)
    assert calls == 296
    d6 = {c.expr: c for c in factor_candidates("D6", 7, 2)}
    a1d6 = [c for c in factor_candidates("E7", 7, 2) if c.kind == "a1d6"]
    assert len(a1d6) == 354
    for c in a1d6:
        assert factor_assignments(c, "E7", 7) is factor_assignments(d6[c.expr], "D6", 7)


def test_class_rule_agrees_with_equal_halves():
    """The class rule: an orthogonal action has one class when some summand
    has odd dimension, and two otherwise.  On every D4-D7 candidate at p =
    5, 7, 11 and tmax 2, 3 it gives one class exactly where the two
    half-spin restrictions are equal, the test it replaced; the second
    class carries the halves swapped."""
    checked = one = 0
    for p, tmax, rank in itertools.product((5, 7, 11), (2, 3), range(4, 8)):
        for e in d_type_actions(rank, p, tmax):
            odd = any(sum(module_weights(ModExpr((t,)), p).values()) % 2 for t in e.terms)
            halves = sorted(map(h1scan._char_fp, spin_half_terms(e, p)))
            classes = factor_assignments(h1scan._module_candidate(e), f"D{rank}", p)
            assert len(classes) == (1 if odd else 2), (rank, p, format_module(e))
            assert (halves[0] == halves[1]) == odd, (rank, p, format_module(e))
            assert classes == (tuple(halves), tuple(halves[::-1]))[:len(classes)]
            checked += 1
            one += odd
    assert (checked, one) == (3801, 3279)


def test_g2_classes_follow_the_class_rule():
    """G2 acts on D4 as 7 + 1 and on D7 as its 14: one class on D4, two on
    D7 with equal halves, and the scan counts both D7 classes, one unit
    each, where a constant once gave the 2."""
    d4 = factor_assignments(g2_factor_candidate("D4"), "D4", 7)
    d7 = factor_assignments(g2_factor_candidate("D7"), "D7", 7)
    assert len(d4) == 1 and len(d7) == 2
    assert d7[0] == d7[1] and d7[0][0] == d7[0][1]
    (rep,) = [r for r in scan_parabolic("E8", (2, 3, 4, 5), 7) if r.x_type == "G2"]
    assert (rep.levi_type, rep.classes, rep.hits) == ("D4", 0, [])
    rep = scan_group("E8", 7).rows["D7", "G2", ("(0,1)",)]
    assert rep.classes == len(rep.class_units) == 2
    assert rep.class_units[0] == rep.class_units[1]
    assert rep.hits == [(1, [(2, 0)])]


@pytest.mark.parametrize("tmax", [2, 3])
@pytest.mark.parametrize("group,p", [("E6", 5), ("E7", 5), ("E7", 7), ("E8", 7)])
def test_class_count_and_flag_read_off_class_units(group, p, tmax):
    """A report stores no class count and no flag: every row's classes is
    its number of class units, and it is flagged exactly when it has one."""
    names = {f.name for f in dataclasses.fields(h1scan.CandidateReport)}
    assert not names & {"classes", "flagged"}
    rows = scan_group(group, p, tmax).rows
    assert rows
    for key, rep in rows.items():
        assert rep.classes == len(rep.class_units) > 0, key
        assert rep.flagged == (rep.classes > 0), key


def test_scan_group_results_frozen():
    assert len(scan_group("E6", 5).rows) == 8
    assert len(scan_group("E7", 7).rows) == 3
    e7 = scan_group("E7", 5)
    assert len(e7.rows) == 51
    per_type = Counter(k[0] for k in e7.rows)
    assert per_type == Counter({
        "A1+A1+A1+A2": 18, "A1+A1+A2": 2, "A1+A1+A3": 8, "A1+A2+A3": 4,
        "A1+A3": 1, "A1+D4": 8, "A1+D5": 3, "A2+A3": 1, "D4": 2, "D5": 3,
        "E6": 1})
    e8 = scan_group("E8", 7)
    assert len(e8.rows) == 23


def test_negative_controls_flag_nothing():
    """At primes no golden table covers, the scan flags and prunes nothing.
    For p > 7 every connected reductive subgroup is G-cr (Liebeck and
    Seitz, Mem. AMS 580, 1996), and the paper lists E6 subgroups that are
    not G-cr at p = 5 only."""
    found = {}
    for group, p in [("E6", 7), ("E6", 11), ("E7", 11), ("E8", 11),
                     ("E7", 13), ("E8", 13)]:
        result = scan_group(group, p)
        found[group, p] = (len(result.rows), len(result.pruned_nonrows))
    assert found == dict.fromkeys(found, (0, 0))


def scan_terms(group: str, p: int, tmax: int = 2) -> set:
    """Every term whose H^1 a cold scan of group at p and tmax takes: the
    product of each level-H^1 memo key's parts, rebuilt from the
    restrictions that ``_restriction`` memoised for them, as
    ``_a1_outcome`` builds it."""
    _level_h1_memo.cache_clear()
    h1scan._restriction_memo.cache_clear()
    scan_group(group, p, tmax)
    restrictions, terms = h1scan._restriction_memo(), set()
    for q, parts in _level_h1_memo():
        pairs = restrictions[q, parts[0]]
        for part in parts[1:]:
            pairs = terms_tensor(pairs, restrictions[q, part]).items()
        terms.update(term for term, _ in pairs)
    return terms


def layer_bound(terms) -> int:
    """B: the largest weight sum of one twist layer of any of the terms."""
    return max(sum(m for m, s in term if s == t) for term in terms for _, t in term)


def test_no_a1_row_at_any_good_p_from_17_on():
    """The A1 half of "every good p": no A1 row appears on E6, E7 or E8 at
    any p >= 17, by the layer rule of ``a1coh``.

    Take a term T(m_1)^[t_1] (x) ... (x) T(m_k)^[t_k] whose every twist
    layer has weight sum B_t = sum_{t_i = t} m_i < p - 2.  The tilting
    summands T(n) of the product of a layer's factors have n <= B_t, so
    n <= p - 3: ``h1_term`` meets only n = 0, which recurses one layer up,
    and 1 <= n <= p - 3, which gives H^1 = 0, and a term with no twisted
    factor left has H^1 = 0.  So the term has H^1 = 0, and a level whose
    terms all have B < p - 2 flags nothing.

    From p = 13 on every weight in a candidate or a restriction is at most
    12 <= p - 1, so each tilting character is a Weyl character, every
    restriction's peel is p's Weyl decomposition, and the candidate tables
    are those of every larger p.  So the terms a scan takes are the same
    at every p >= 13, which the test checks at 13, 17 and 19.  B is 9 on
    E6 and 12 on E7 and E8, so p - 2 > B from p = 17 on; the negative
    controls cover p = 11 and 13.  G2 candidates are built at p = 7 only
    (``g2_simple_char`` is tabulated there), so G2 above p = 7 is
    unchecked.

    The window of twists is measured, not argued: B at p = 17 is the same
    at tmax 3 and 4 as at tmax 2, so a wider window gives no larger layer
    weight sum.  The fifteen scans, each with cold level-H^1 and
    restriction memos, take about 0.9 s."""
    for group, bound in (("E6", 9), ("E7", 12), ("E8", 12)):
        terms = {p: scan_terms(group, p) for p in (13, 17, 19)}
        bounds = {p: layer_bound(t) for p, t in terms.items()}
        assert bounds == dict.fromkeys(terms, bound), group
        assert all(p - 2 > bounds[p] for p in (17, 19)), group
        assert terms[13] == terms[17] == terms[19], group
        assert [layer_bound(scan_terms(group, 17, tmax)) for tmax in (3, 4)] == [bound] * 2, group


# (group, p, tmax) the scan refuses: p not a prime, below 5 or bad for E8
# (5), tmax negative or not an int, and a group other than E6, E7 or E8
# (A2/5, D4/5 and D5/7 returned no rows, and G2/7 died in the G2 prune)
BAD_SCAN_INPUTS = [("E6", 1, 2), ("E6", 0, 2), ("E6", -5, 2), ("E6", 9, 2),
                   ("E7", 3, 2), ("E8", 4, 2), ("E8", 5, 2), ("E6", 5.0, 2),
                   ("E6", True, 2), ("E6", 5, -1), ("E6", 5, 1.5), ("E6", 4, 2),
                   ("A2", 5, 2), ("D4", 5, 2), ("D5", 7, 2), ("G2", 7, 2)]


@pytest.mark.parametrize("group,p,tmax", BAD_SCAN_INPUTS)
def test_scan_group_refuses_bad_input(group, p, tmax):
    """The scan assumes a good prime p >= 5 and a twist window 0..tmax; any
    other input fails loudly, naming the group, p and tmax, instead of
    returning no rows or dying in a character peel."""
    with pytest.raises(ValueError, match=re.escape(
            f"cannot scan {group} at p={p!r}, tmax={tmax!r}: ")):
        scan_group(group, p, tmax)


@pytest.mark.parametrize("group,p,tmax", BAD_SCAN_INPUTS)
def test_scan_parabolic_refuses_what_scan_group_refuses(group, p, tmax):
    """One check stands behind both scans, so one parabolic is refused with
    the same message: scan_parabolic("E6", (1, 2, 3), 4) flagged an A1+A2
    row, and tmax -1 returned no reports."""
    messages = []
    for scan in (lambda: scan_group(group, p, tmax),
                 lambda: scan_parabolic(group, (1, 2, 3), p, tmax)):
        with pytest.raises(ValueError, match=re.escape(
                f"cannot scan {group} at p={p!r}, tmax={tmax!r}: ")) as err:
            scan()
        messages.append(str(err.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("levi", [(1, 1), [1, 3], (1, 7)])
def test_scan_parabolic_refuses_a_bad_levi_before_its_cache(levi):
    """A repeated node, a list or a node outside the diagram is refused
    before the summand cache sees the Levi: (1, 1) was scanned as (1,),
    and [1, 3] died unhashable in that cache."""
    before = _summand_weights.cache_info()
    with pytest.raises(ValueError, match=re.escape(
            f"Levi {levi} of E6 must list nodes 1..6, each once, as a tuple")):
        scan_parabolic("E6", levi, 5)
    assert _summand_weights.cache_info() == before


@pytest.mark.parametrize("group,p", [("E6", 7), ("E8", 5), ("E7", 11)])
def test_missing_golden_table_names_the_pair(group, p):
    """A (group, p) with no golden table is named, with the tables there
    are, by both the loader and the diff."""
    message = (f"no golden table for {group} at p={p}; there are tables for "
               "E6/5, E7/5, E7/7, E8/7")
    with pytest.raises(ValueError, match=re.escape(message)):
        load_badx(group, p)
    with pytest.raises(ValueError, match=re.escape(message)):
        diff_badx(group, p)


def _factor_types():
    """Simple factor types of every Levi of E8 (which contain those of E6
    and E7)."""
    rs = build_root_system("E8")
    nodes = range(1, rs.rank + 1)
    return sorted({component_type(rs, c)
                   for k in range(1, rs.rank)
                   for levi in itertools.combinations(nodes, k)
                   for c in levi_components(rs, levi)})


@pytest.mark.parametrize("p", [5, 7])
def test_candidate_descriptors_distinct(p):
    """The level H^1 memo keys candidates by descriptor."""
    types = _factor_types()
    assert {"A1", "A7", "D4", "D7", "E6", "E7"} <= set(types)
    for t in types:
        descs = [c.descriptor for c in factor_candidates(t, p, 2)]
        assert len(set(descs)) == len(descs), (t, p)
    assert len(factor_candidates("E7", 7, 2)) == 384


# SHA-256 of oracles.candidate_dump, pinned on the tree that still
# canonicalised every term of every pick: 6,385 candidates of A1..A7,
# D4..D7, E6 and E7 at p = 5, 7, 11 and tmax 2, 3, in table order
CANDIDATE_DUMP_SHA256 = "3ccb4c831bb78a29144d8c0e6b351f436ef948c0f1e0fd28f894c0fe8353d0e0"


def test_candidate_dump_pinned():
    dump = candidate_dump()
    assert sum(len(row[3]) for row in json.loads(dump)) == 6385
    assert hashlib.sha256(dump.encode()).hexdigest() == CANDIDATE_DUMP_SHA256


def test_candidate_tables_canonicalise_each_shape_term_once(monkeypatch):
    """Building E8/7's A and D tables from cold caches canonicalises each
    twisted tensor term of each pattern shape once (54 calls), not every
    term of every pick afresh (6,448 calls)."""
    p, tmax = 7, 2
    calls = 0
    canonical = h1scan.canonical_action

    def spy(e):
        nonlocal calls
        calls += 1
        return canonical(e)

    monkeypatch.setattr(h1scan, "canonical_action", spy)
    for cached in (a_type_actions, d_type_actions, h1scan._shape_terms):
        cached.cache_clear()
    for r in range(1, 8):
        a_type_actions(r, p, tmax)
    for r in range(4, 8):
        d_type_actions(r, p, tmax)
    shapes = {shape for table, ranks in ((_A_PATTERNS, range(1, 8)),
                                         (_D_PATTERNS, range(4, 8)))
              for r in ranks for pattern in table.get(r, ()) for shape in pattern
              if shape and max(shape) <= p - 1}
    shape_terms = sum(math.perm(tmax + 1, len(shape)) for shape in shapes)
    assert calls == shape_terms == 54


def _scan_fingerprint(result):
    return {k: (r.classes, r.hits, r.class_units) for k, r in result.rows.items()}


def test_level_h1_memo_does_not_leak_across_p():
    _level_h1_memo.cache_clear()
    scan_group("E7", 7)
    warm = _scan_fingerprint(scan_group("E7", 5))
    _level_h1_memo.cache_clear()
    cold = _scan_fingerprint(scan_group("E7", 5))
    assert warm == cold
    assert len(cold) == 51


def test_warm_scan_across_tmax_matches_cold():
    """The walk table keys on tmax: a tmax-3 scan after a tmax-2 one, with
    both tables kept, equals a cold tmax-3 scan."""
    def fingerprint(result):
        rows = {k: (r.classes, r.hits, r.class_units, r.parabolics)
                for k, r in result.rows.items()}
        return rows, result.pruned_nonrows

    _level_h1_memo.cache_clear()
    scan_group("E7", 5, tmax=2)
    warm = fingerprint(scan_group("E7", 5, tmax=3))
    _level_h1_memo.cache_clear()
    cold = fingerprint(scan_group("E7", 5, tmax=3))
    assert warm == cold
    assert len(cold[0]) == 77


def test_level_h1_memo_is_sound_on_e6_p5():
    """After a full E6/p=5 scan, the memoised H^1 of every A1 candidate,
    class and non-trivial level summand, read by its key, equals H^1 of the
    tensor product of the restrictions to all Levi factors, trivial ones
    included, computed without the memo; summands trivial on every factor,
    which the scan drops, carry no H^1."""
    p = 5
    _level_h1_memo.cache_clear()
    scan_group("E6", p)
    memo = _level_h1_memo()
    rs = build_root_system("E6")
    checked = positive = 0
    for k in range(1, rs.rank):
        for levi in itertools.combinations(range(1, rs.rank + 1), k):
            types, distinct, _ = _summand_weights("E6", levi)
            comps = [c for _, c in typed_components(rs, levi)]
            every = {tuple(s["high_weight"][c] for c in comps)
                     for roots in radical_levels(rs, levi).values()
                     for s in decompose_level(rs, levi, roots)}
            live = dict(distinct)
            assert set(live) == {w for w in every if any(map(any, w))}
            for combo in itertools.product(
                    *(factor_candidates(t, p, 2) for t in types)):
                if min(t for c in combo for t in c.twists) != 0:
                    continue
                assigns = [factor_assignments(c, t, p)
                           for c, t in zip(combo, types)]
                for classes in itertools.product(
                        *(range(len(a)) for a in assigns)):
                    assign = [a[i] for a, i in zip(assigns, classes)]
                    for weights in every:
                        level = {(): 1}
                        for c, t, w, a in zip(combo, types, weights, assign):
                            level = terms_tensor(
                                level.items(), factor_restriction_terms(c, t, w, p, a))
                        full = h1_dim(level, p)
                        if weights not in live:
                            assert full == 0, (levi, weights)
                            continue
                        scanned = memo[p, tuple(
                            (types[k], combo[k].descriptor, classes[k], weights[k])
                            for k in live[weights])]
                        assert scanned == full, (levi, combo, classes, weights)
                        checked += 1
                        positive += full > 0
    assert (checked, positive) == (2049, 26)


# -- golden tables ------------------------------------------------------------

def test_canon_factor_forms():
    assert canon_factor("1[0]", 2).descriptor == "1"
    assert canon_factor("1[1] x 3", 2).descriptor == "3 x 1[1]"
    assert canon_factor("A1A5(1[0], 5[0])", 2).descriptor == "A1A5(1, 5)"
    assert canon_factor("max F4", 2).kind == "g2"
    assert canon_factor("(0,1)", 2).kind == "g2"
    assert canon_factor("1[3]", 2) is None          # out of window
    assert canon_factor("T(8)", 2).kind == "module"  # not a chain


@pytest.mark.parametrize("text,message", [
    ("(1,0", "cannot tokenize module expression '(1,0'"),
    ("A1A6(1, 2 x 1[1])", "factor 'A1A6(1, 2 x 1[1])' names no chain the scan builds"),
    ("(0, 1)", "cannot tokenize module expression '(0, 1)'"),
    ("A1A5(1[r])", "chain A1A5 has 2 factors, but factor 'A1A5(1[r])' gives it 1"),
    ("A2A2A2(2, 2[1], 2[2], 2)",
     "chain A2A2A2 has 3 factors, but factor 'A2A2A2(2, 2[1], 2[2], 2)' gives it 4")])
def test_canon_factor_refuses_unknown_text(text, message):
    """A factor text that is no module expression, no chain the scan
    builds with one slot per factor, no "max F4" and no G2 weight (a,b)
    raises ValueError naming it: any text that began with "(" was read as
    a G2 factor, any chain name was accepted, and "A1A5(1[r])" at r = 0
    became the candidate "A1A5(1)", which a diff could only report as an
    unexplained missing row."""
    with pytest.raises(ValueError, match=re.escape(message)):
        canon_factor(text, 2, {"r": 0})


@pytest.mark.parametrize("group,p,ref,factor", [
    ("E8", 7, "e8p7badX:D7-G2", "(1,0"),
    ("E7", 5, "e7p5badX:E6", "A1A6(1, 2 x 1[1])")])
def test_diff_refuses_a_broken_factor(group, p, ref, factor):
    """A golden table whose factor text is broken fails the diff, naming
    the row and the text: the E8/7 copy with "(1,0" diffed as 17 match, 6
    extra and 1 missing, and the E7/5 copy with an A1A6 chain as 1 missing
    and 1 extra."""
    data = load_badx(group, p)
    row = next(r for r in data["rows"] if r["ref"] == ref)
    row["factors"] = [factor]
    with pytest.raises(ValueError, match=re.escape(f"row {ref}: ") + ".*"
                       + re.escape(repr(factor))):
        diff_badx(group, p, data=data)


@pytest.mark.parametrize("tmax", [2.5, -1, True, "2", None])
def test_expand_rows_refuses_bad_tmax(tmax):
    """expand_rows and the diff refuse a tmax that the scan refuses, with
    the scan's rule: 2.5 died in a TypeError from range, -1 gave no
    instances and True was read as 1."""
    message = f"cannot expand table 'e6p5badX' at tmax={tmax!r}: tmax must be an int >= 0"
    with pytest.raises(ValueError, match=re.escape(message)):
        expand_rows(load_badx("E6", 5), tmax)
    with pytest.raises(ValueError, match=re.escape(message)):
        diff_badx("E6", 5, tmax)


def test_expand_window_counts():
    assert len(expand_rows(load_badx("E6", 5))) == 8
    assert len(expand_rows(load_badx("E7", 5))) == 47
    assert len(expand_rows(load_badx("E7", 7))) == 3
    assert len(expand_rows(load_badx("E8", 7))) == 18


def test_expand_respects_constraints():
    rows = expand_rows(load_badx("E8", 7))
    a1e6 = [r for r in rows if r.levi == "A1+E6"]
    assert {r.actions for r in a1e6} == {
        ("1", "A1A5(1[1], 5)"),
        ("1", "A1A5(1[2], 5[1])"),
        ("1[1]", "A1A5(1[1], 5)"),
        ("1[2]", "A1A5(1[1], 5)"),
    }


@pytest.mark.parametrize("constraint", ["r**s==0", "__import__('os')"])
def test_expand_rejects_malformed_constraint(constraint):
    data = load_badx("E8", 7)
    row = next(r for r in data["rows"] if r.get("constraints"))
    row["constraints"] = [constraint]
    with pytest.raises(ValueError, match=re.escape(row["ref"])):
        expand_rows(data)


_DROP = object()


@pytest.mark.parametrize("key,value", [
    ("classes", _DROP), ("levi", _DROP), ("factors", _DROP),
    ("factors", "1[r]"), ("classes", "1"), ("classes", True), ("classes", 0),
    ("x", "B2"), ("constraints", "r*s==0"),
    ("factors", ["1 x 1[v]", "A1A5(1[s+1], 5[s])"]),
    ("factors", ["1[r", "A1A5(1[s+1], 5[s])"]),
], ids=["no-classes", "no-levi", "no-factors", "factors-string",
        "classes-string", "classes-bool", "classes-zero", "x-B2",
        "constraints-string", "unswept-symbol", "unparsable-factor"])
def test_expand_names_malformed_row(key, value):
    """A malformed golden row raises ValueError naming its ref, instead of
    a bare KeyError, an error naming no row, or a silent missing or
    mismatch row in the diff."""
    data = load_badx("E8", 7)
    row = next(r for r in data["rows"] if r["ref"] == "e8p7badX:A1E6")
    if value is _DROP:
        del row[key]
    else:
        row[key] = value
    with pytest.raises(ValueError, match=re.escape("row e8p7badX:A1E6: ")):
        expand_rows(data)


def test_chain_templates_match_their_slots():
    """Every E6 and E7 chain template (A1D6 aside, whose restriction is
    built from its slots) is a self-dual character of dimension 27 or 56 at
    p = 5, 7 and tmax 2, 3.  The subsystem templates equal their slot
    derivation: on A1A5 the 27 is V2 (x) V6 + Alt^4 V6, and on A2A2A2 it
    is the sum over i < j of Vi (x) Alt^2 Vj."""
    def alt(e, k, p):
        return alt_char(list(module_weights(e, p).elements()), k)

    checked = derived = 0
    for p, tmax in itertools.product((5, 7), (2, 3)):
        for dim, cands in ((27, e6_factor_candidates(p, tmax)),
                           (56, e7_factor_candidates(p, tmax))):
            for c in cands:
                if c.kind != "chain":
                    continue
                char = module_weights(c.expr, p)
                assert sum(char.values()) == dim, (p, c.descriptor)
                assert all(char[-w] == n for w, n in char.items()), (p, c.descriptor)
                checked += 1
                name, slots = c.descriptor[:-1].split("(", 1)
                v = [parse_module(s) for s in slots.split(", ")]
                if name == "A1A5":
                    slot_sum = (char_tensor(module_weights(v[0], p), module_weights(v[1], p))
                                + alt(v[1], 4, p))
                elif name == "A2A2A2":
                    slot_sum = sum((char_tensor(module_weights(v[i], p), alt(v[j], 2, p))
                                    for i, j in itertools.combinations(range(3), 2)),
                                   Counter())
                else:
                    continue
                assert slot_sum == char, (p, c.descriptor)
                derived += 1
    assert (checked, derived) == (287, 167)


def _clear_every_cache() -> set[str]:
    """Clear every functools cache defined in a module of the package, and
    return their names."""
    cleared = set()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] != "gcr":
            continue
        for attr, value in vars(module).items():
            if hasattr(value, "cache_clear") and value.__module__ == name:
                value.cache_clear()
                cleared.add(f"{name}.{attr}")
    return cleared


def test_scan_and_diff_parse_each_text_once():
    """From cold caches, scanning and diffing E8/7 reads each distinct
    module text once, 29 in all, where parsing each chain template once
    per twist choice and each row factor once per instance built 124: the
    reader runs only on a miss of its cache."""
    _clear_every_cache()
    diff_badx("E8", 7, scan=scan_group("E8", 7))
    info = modrep.parse_module.cache_info()
    assert info.misses == info.currsize == 29


@pytest.mark.parametrize("group,p", [("E6", 5), ("E7", 5), ("E7", 7), ("E8", 7)])
def test_scan_and_diff_build_no_cycles(group, p):
    """The premise of pausing the cyclic collector in scan_group: with it
    off, a scan from fully cold caches, and the diff of its table, leave
    nothing that only a collection frees.  The chain constraints' closures
    over themselves left 54 objects after the E8/7 scan and 18 after its
    diff.  Every cache of the package is cleared, so what the test checks
    does not depend on the tests that ran before it."""
    cleared = _clear_every_cache()
    assert {"gcr.h1scan._spin_classes", "gcr.h1scan._level_h1_memo",
            "gcr.h1scan._restriction_memo", "gcr.h1scan._summand_weights",
            "gcr.parabolic._components", "gcr.rootsystem.build_root_system",
            "gcr.modrep.parse_module", "gcr.a1coh.h1_term"} <= cleared
    gc.collect()
    gc.disable()
    try:
        scan = scan_group(group, p)
        after_scan = gc.collect()
        diff_badx(group, p, scan=scan)
        after_diff = gc.collect()
    finally:
        gc.enable()
    assert (after_scan, after_diff) == (0, 0)


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("p", [7, 4])
def test_scan_group_pauses_the_collector_and_restores_it(monkeypatch, enabled, p):
    """Each parabolic is scanned with the collector off, and scan_group
    leaves it as it found it, also when it refuses p."""
    seen = set()
    per_parabolic = h1scan.scan_parabolic

    def spy(*args):
        seen.add(gc.isenabled())
        return per_parabolic(*args)

    monkeypatch.setattr(h1scan, "scan_parabolic", spy)
    (gc.enable if enabled else gc.disable)()
    try:
        if p == 7:
            scan_group("E6", p)
        else:
            with pytest.raises(ValueError, match="cannot scan E6 at p=4"):
                scan_group("E6", p)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == {False}


def test_scan_group_leaves_no_collection_pending():
    """A cold scan with the collector enabled runs no collection, and hands
    back a young count below its threshold: what the scan allocated moves
    to the oldest generation before the collector resumes.  Without the
    move, the first allocation after the pause, still inside the call,
    started a collection that traversed the scan's caches and freed
    nothing."""
    _clear_every_cache()
    started = []

    def hook(phase, info):
        if phase == "start":
            started.append(info["generation"])

    gc.collect()
    gc.enable()
    gc.callbacks.append(hook)
    try:
        scan_group("E6", 5)
        count = gc.get_count()
    finally:
        gc.callbacks.remove(hook)
    assert started == []
    assert count[0] < gc.get_threshold()[0]


EXPECTED_EXTRAS = {
    ("E6", 5): set(),
    ("E7", 5): set(),
    ("E7", 7): set(),
    # rows reproducible by hand from the layer rules but absent from the
    # golden table; kept visible as extras rather than silently dropped
    ("E8", 7): {
        ("A3+A3", "A1", ("1 x 1[1]", "3")),
        ("A3+A3", "A1", ("3", "1 x 1[1]")),
        ("D7", "A1", ("3 x 1[1] + 2 + 2[1]",)),
        ("D7", "A1", ("3 x 1[2] + 2 + 2[1]",)),
        ("D7", "A1", ("3[1] x 1 + 2[1] + 2[2]",)),
    },
}


@pytest.mark.parametrize("group,p", [("E6", 5), ("E7", 5), ("E7", 7),
                                     ("E8", 7)])
def test_diff_against_golden(group, p):
    d = diff_badx(group, p)
    counts = d.counts()
    assert counts.get("mismatch", 0) == 0
    assert counts.get("missing", 0) == 0
    assert counts["match"] == len(expand_rows(load_badx(group, p)))
    extras = {(r.levi, r.x, r.actions) for r in d.rows if r.status == "extra"}
    assert extras == EXPECTED_EXTRAS[(group, p)]
    assert d.ok


def test_diff_d4_frame_note():
    d = diff_badx("E7", 5)
    a1d4 = [r for r in d.rows if r.levi == "A1+D4"]
    assert len(a1d4) == 4
    assert all(r.status == "match" for r in a1d4)
    assert all("relabelling" in r.note for r in a1d4)
    # the two classes of each row are accounted for
    assert all(r.expected_classes == 2 for r in a1d4)


def test_diff_reports_pruned_nonrow():
    for group in ("E7", "E8"):
        d = diff_badx(group, 7)
        assert any(levi == "A6" and x == "G2"
                   for levi, x, _, _ in d.pruned_nonrows), group


def test_diff_detects_tampering():
    """A deliberately damaged golden table must fail the diff."""
    data = load_badx("E6", 5)
    data["rows"][0]["classes"] = 7
    d = diff_badx("E6", 5, data=data)
    bad = [r for r in d.rows if r.status == "mismatch"]
    assert bad and all(r.expected_classes == 7 for r in bad)
    assert d.ok is False
    assert diff_badx("E6", 5).ok


def test_diff_reports_missing_rows():
    """A golden row that the scan does not give is reported missing, and
    the diff is not ok.  On a D4-bearing Levi the relabelling pass gives up
    when the class units cannot match: when a scan row is gone, the rows
    are diffed directly, and E7/5's A1+D4 rows are then missing,
    mismatched or extra; and when the table gives a row a class count its
    action does not have (1 for E7/5's two-class A1+D4 actions).  In that
    second case the four table rows find one-class scan rows of the same
    key, but the four ``4 + 2[1]`` scan rows are left over, so no direct
    match stands: the rows are mismatched, with a note, and the diff is
    not ok."""
    scan = scan_group("E6", 5)
    gone = next(iter(scan.rows))
    rows = {k: r for k, r in scan.rows.items() if k != gone}
    d = diff_badx("E6", 5, scan=dataclasses.replace(scan, rows=rows))
    missing = [r for r in d.rows if r.status == "missing"]
    assert [(r.levi, r.x, r.actions) for r in missing] == [gone]
    assert missing[0].computed_classes is None and not missing[0].hits
    assert d.counts() == {"match": 7, "missing": 1} and not d.ok

    scan = scan_group("E7", 5)
    a1d4 = sorted(k for k in scan.rows if k[0] == "A1+D4")
    rows = {k: r for k, r in scan.rows.items() if k != a1d4[0]}
    d = diff_badx("E7", 5, scan=dataclasses.replace(scan, rows=rows))
    rows_d4 = [r for r in d.rows if r.levi == "A1+D4"]
    assert not any("relabelling" in r.note for r in rows_d4) and not d.ok
    assert Counter(r.status for r in rows_d4) == {"missing": 1, "mismatch": 3, "extra": 4}
    d = diff_badx("E7", 5, scan=scan, data=_with_classes(load_badx("E7", 5), "A1+D4", 1))
    assert not any("relabelling" in r.note for r in d.rows) and not d.ok
    rows_d4 = [r for r in d.rows if r.levi == "A1+D4"]
    assert Counter(r.status for r in rows_d4) == {"mismatch": 4, "extra": 4}
    assert all(r.note == "4 scan rows of this type unmatched and no D4 frame "
               "matches its class units" for r in rows_d4 if r.status == "mismatch")


def _with_classes(data: dict, levi: str, classes: int) -> dict:
    """A copy of a golden table whose rows on the Levi type give classes."""
    return dict(data, rows=[dict(row, classes=classes) if row["levi"] == levi else row
                            for row in data["rows"]])


@pytest.mark.parametrize("group,p,tmax,data", [
    ("E7", 5, 2, None), ("E6", 5, 3, None), ("E6", 7, 2, ("E6", 5))],
    ids=["group", "tmax", "p"])
def test_diff_refuses_scan_of_another_table(group, p, tmax, data):
    """A scan handed to the diff must be of the diff's own group, p and
    tmax; another one raises ValueError naming both triples instead of
    diffing unrelated rows."""
    scan = scan_group("E6", 5)
    assert (scan.group, scan.p, scan.tmax) == ("E6", 5, 2)
    with pytest.raises(ValueError, match=re.escape(
            f"a scan of ('E6', 5, 2) cannot be diffed as {(group, p, tmax)}")):
        diff_badx(group, p, tmax, scan=scan, data=data and load_badx(*data))


@pytest.mark.parametrize("group,p", [(None, 5), (6, 5), ("E6", "5"), ("E6", 5.0)])
def test_load_badx_names_malformed_input(group, p):
    """A group that is no str or a p that is no int raises ValueError
    naming both, instead of an AttributeError or, for p = "5", the E6/5
    table."""
    with pytest.raises(ValueError, match=re.escape(
            f"no golden table for group={group!r}, p={p!r}: ")):
        load_badx(group, p)


@pytest.mark.parametrize("data,name", [
    ({"table": "x"}, "'x'"), ({"table": "x", "rows": {}}, "'x'"),
    ({"rows": []}, "None"), (None, "None")])
def test_expand_rows_names_table_without_rows(data, name):
    """A table with no list of rows or no name raises ValueError naming
    it, where the diff met a bare KeyError on either."""
    with pytest.raises(ValueError, match=re.escape(
            f"table {name} needs a str name and a list of rows")):
        expand_rows(data)


def test_conflicting_duplicates_name_both_rows():
    """Two rows that give one action tuple different class counts are named
    by both refs."""
    data = load_badx("E6", 5)
    row = data["rows"][0]
    data["rows"].append(dict(row, ref="copy", classes=row["classes"] + 1))
    with pytest.raises(ValueError, match=re.escape(
            f"row {row['ref']} gives {row['classes']} classes, "
            f"row copy {row['classes'] + 1}")):
        expand_rows(data)


def test_diff_renderers():
    d = diff_badx("E8", 7)
    out = diff_to_json(d)
    assert json.loads(json.dumps(out)) == out
    assert Counter(r["status"] for r in out["rows"]) == {"match": 18, "extra": 5}
    assert out["ok"] is True
    lines = render_diff(d).splitlines()
    assert d.pruned_nonrows
    assert len(lines) == 1 + len(d.rows) + len(d.pruned_nonrows)
    assert sum("[pruned  ]" in line for line in lines) == len(d.pruned_nonrows)


def test_diff_row_levels_are_distinct_and_ascending():
    """Both renderers read one definition of a row's levels."""
    row = DiffRow("extra", "", "D5", "A1", ("4 + 4[1]",), None, 1,
                  hits=((2, 1), (1, 1), (2, 3)))
    d = TableDiff("E6", 5, "t", rows=[row])
    assert row.levels == [1, 2]
    assert diff_to_json(d)["rows"][0]["levels"] == [1, 2]
    assert "levels=[1, 2]" in render_diff(d)


# SHA-256 of oracles.table_dump at tmax 2: a change that moves any scan row,
# class unit, hit, parabolic, pruned level or diff line re-pins these and
# says why
TABLE_DUMP_SHA256 = {
    ("E6", 5): "40997d07e1588913b0bcdda0ab74a45d6e970ed485633f9cfb914f3c7398afb7",
    ("E7", 5): "0a45b247b708c484851906322992d56d4118d5c4d7c7f4d084aebe410c860517",
    ("E7", 7): "bcc3475045bf3fd37a097573448dcfba73d73bd7d906b17c115aef92071f6847",
    ("E8", 7): "8f8ac07653657c518d92b69993b2f1b9c03ef999e086c5633056e63cae6d6bbc",
}


@pytest.mark.parametrize("group,p", TABLE_DUMP_SHA256)
def test_table_dump_pinned(group, p):
    dump = table_dump(group, p, 2)
    assert hashlib.sha256(dump.encode()).hexdigest() == TABLE_DUMP_SHA256[group, p]


# the same at tmax 3, pinned on the tree that still thawed each restriction
# into a Counter before multiplying
TABLE_DUMP3_SHA256 = {
    ("E6", 5): "003bcf628b9ec668c1476b57c5014c8c3d81d9c2ada2d67bc43af551fd55abef",
    ("E7", 5): "be5cdabcb73c2e01fc1ef493849c3dc2f282b8340bdd22eb080c5192f88ead61",
    ("E7", 7): "bcc3475045bf3fd37a097573448dcfba73d73bd7d906b17c115aef92071f6847",
    ("E8", 7): "5d1cf5178b3cc091d16d2bf15579bedddc6494f0971db68cd4602cf078996110",
}


@pytest.mark.parametrize("group,p", TABLE_DUMP3_SHA256)
def test_table_dump_tmax3_pinned(group, p):
    dump = table_dump(group, p, 3)
    assert hashlib.sha256(dump.encode()).hexdigest() == TABLE_DUMP3_SHA256[group, p]


# SHA-256 of oracles.restriction_dump at tmax 2, pinned on the tree that
# still derived alternating powers by a Schur-functor recursion: 1,229
# restrictions, none of which raises
RESTRICTION_DUMP_SHA256 = "24c721c1e43523136c8695bdf31ba9502a78a535b3201a186ec8c231ac9db709"


def test_restriction_dump_pinned():
    dump = restriction_dump(2)
    assert len(json.loads(dump)) == 1229
    assert hashlib.sha256(dump.encode()).hexdigest() == RESTRICTION_DUMP_SHA256


# SHA-256 of oracles.level_dump, pinned on the tree that still read each
# Levi's summands through radical_levels and decompose_level: 445 Levis
LEVEL_DUMP_SHA256 = "ad067b83ed781ac44aa1d1b508ad78485511fdf03acd555c4807d5c63f61e8a7"
# (level summands, trivial ones) over every proper Levi
LEVEL_SUMMANDS = {"E6": (712, 273), "E7": (2400, 854), "E8": (8864, 2960)}


def test_one_factor_order():
    """Every proper Levi of E6, E7 and E8 lists its components by kind,
    rank and least node, and the scan takes its factor types in that
    order."""
    levis = 0
    for name in ("E6", "E7", "E8"):
        rs = build_root_system(name)
        for k in range(rs.rank):
            for levi in itertools.combinations(range(1, rs.rank + 1), k):
                typed = typed_components(rs, levi)
                keys = [(t[0], int(t[1:]), min(nodes)) for t, nodes in typed]
                assert keys == sorted(keys), (name, levi)
                assert _summand_weights(name, levi)[0] == tuple(t for t, _ in typed)
                levis += 1
    assert levis == 445


def test_level_dump_pinned():
    # each summand is rebuilt from oracles.level alone: the radical roots
    # grouped by their coefficients outside the Levi, in the order of their
    # least roots, each weighted by its unique highest root; a summand is
    # one-dimensional exactly when its weight is zero, which is what lets the
    # scan drop the summands of dim 1
    dump = level_dump()
    assert hashlib.sha256(dump.encode()).hexdigest() == LEVEL_DUMP_SHA256
    levis = json.loads(dump)
    assert len(levis) == 445
    totals = {name: [0, 0] for name in LEVEL_SUMMANDS}
    for name, levi, _, distinct, summands in levis:
        rs = build_root_system(name)
        comps = [c for _, c in typed_components(rs, tuple(levi))]
        expect = []
        for roots in radical_shapes(rs, levi).values():
            height = max(map(sum, roots))
            (top,) = [r for r in roots if sum(r) == height]
            weights = [[pairing_index(rs, top, i - 1) for i in c] for c in comps]
            trivial = not any(map(any, weights))
            assert (len(roots) == 1) == trivial, (name, levi, roots)
            totals[name][0] += 1
            totals[name][1] += trivial
            if not trivial:
                expect.append([level(top, levi), weights])
        expect.sort(key=lambda e: e[0])
        assert [[lvl, distinct[k][0]] for lvl, k in summands] == expect, (name, levi)
    assert {name: tuple(t) for name, t in totals.items()} == LEVEL_SUMMANDS
