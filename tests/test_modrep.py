"""Modular representation calculus for rank-one groups and G2."""

import math
import re
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcr.modrep import (
    G2_SIMPLE_DIMS,
    A1Module,
    _submodule_restriction,
    a1_comp_factors,
    a1_simple_weights,
    a1_tilting_weights,
    a1_weyl_factors,
    a1_weyl_weights,
    direct_sum,
    dual,
    freudenthal,
    g2_comp_factors,
    g2_h1_irreducible,
    g2_h1_simples,
    g2_tilting_char,
    g2_simple_char,
    g2_weyl_char,
    h1_irreducible,
    h1_module_a1,
    a1_jantzen_character,
    format_module,
    m_alt,
    m_dualweyl,
    m_simple,
    m_spin,
    m_sym,
    m_tilt,
    module_comp_factors,
    module_dim,
    module_is_tilting,
    module_matrices,
    module_subst,
    module_twist_shift,
    module_twists,
    module_weights,
    parse_module,
    spin_chars,
    spin_halves_from_char,
    simple_module,
    spin_weights,
    tensor,
    tilting_module,
    trivial_module,
    twist,
    weyl_dim,
    weyl_module,
)
from gcr.rings import rank
from gcr.rootsystem import build_root_system


# -- characteristic-zero weight multiplicities --------------------------------

# dimensions from the Weyl dimension formula, computable by hand
CLASSICAL_DIMS = [
    ("G2", (1, 0), 7),
    ("G2", (0, 1), 14),
    ("G2", (2, 0), 27),
    ("G2", (1, 1), 64),
    ("G2", (0, 2), 77),
    ("G2", (3, 0), 77),
    ("A6", (0, 0, 1, 0, 0, 0), 35),
    ("D7", (0, 0, 0, 0, 0, 0, 1), 64),
    ("E6", (1, 0, 0, 0, 0, 0), 27),
    ("E6", (0, 0, 0, 0, 0, 1), 27),
    ("E7", (0, 0, 0, 0, 0, 0, 1), 56),
]


@pytest.mark.parametrize("name,lam,dim", CLASSICAL_DIMS)
def test_freudenthal_dimensions(name, lam, dim):
    assert weyl_dim(name, lam) == dim


def test_adjoint_multiplicities_match_root_system():
    # the adjoint module has one weight per root and rank-many zeros
    mults = freudenthal("E6", (0, 1, 0, 0, 0, 0))
    assert sum(mults.values()) == 78
    assert mults[(0, 0, 0, 0, 0, 0)] == 6
    nonzero = {w: m for w, m in mults.items() if any(w)}
    assert all(m == 1 for m in nonzero.values())
    assert len(nonzero) == 72


def test_freudenthal_rejects_nondominant():
    with pytest.raises(ValueError):
        freudenthal("G2", (-1, 0))


@pytest.mark.parametrize("call,match", [
    (lambda: freudenthal("E6", (0, 0, -2, 0, 0, 0)), r"\(0, 0, -2, 0, 0, 0\) of E6"),
    (lambda: a1_simple_weights(-3, 7), r"-3 of L\(m\) at p=7"),
    (lambda: module_weights(m_simple(-4), 5), r"-4 at p=5"),
    (lambda: a1_weyl_weights(-2), r"weight -2 must"),
    (lambda: a1_tilting_weights(-3, 5), r"weight -3 must"),
], ids=["freudenthal", "a1_simple_weights", "atom_char", "a1_weyl_weights",
        "a1_tilting_weights"])
def test_nondominant_weight_errors_name_the_input(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_weyl_dim_a1_series():
    for m in range(8):
        assert weyl_dim("A1", (m,)) == m + 1


# every Levi factor type the scans meet, and G2
LEVI_TYPES = ([f"A{n}" for n in range(1, 8)] + [f"D{n}" for n in range(4, 8)]
              + ["E6", "E7", "G2"])


@pytest.mark.parametrize("name", LEVI_TYPES)
def test_fundamental_characters_weyl_dimension_and_symmetry(name):
    """Checks of Freudenthal's output that share none of its arithmetic:
    Weyl's product formula prod (lam + rho, alpha)/(rho, alpha) over the
    positive roots, with (omega_i, alpha_j) = delta_ij (alpha_j, alpha_j)/2,
    and invariance of the weight multiset under every simple reflection."""
    rs = build_root_system(name)
    for i in range(rs.rank):
        lam = tuple(int(i == j) for j in range(rs.rank))
        mults = freudenthal(name, lam)
        dim = Fraction(1)
        for r in rs.positive:
            dim *= Fraction(sum((x + 1) * c * d for x, c, d in zip(lam, r, rs._norms)),
                            sum(c * d for c, d in zip(r, rs._norms)))
        assert sum(mults.values()) == dim, lam
        for j, alpha in enumerate(rs.cartan):
            reflected = {tuple(a - mu[j] * b for a, b in zip(mu, alpha)): m
                         for mu, m in mults.items()}
            assert reflected == mults, (lam, j)


# -- rank-one characters ------------------------------------------------------

def test_weyl_weights_are_string():
    assert a1_weyl_weights(4) == [4, 2, 0, -2, -4]


def test_simple_weights_by_digit_tensor():
    # L(8) = L(3) (x) L(1)^[1] at p = 5, worked out by hand
    assert Counter(a1_simple_weights(8, 5)) == Counter(
        {8: 1, 6: 1, 4: 1, 2: 1, -2: 1, -4: 1, -6: 1, -8: 1})
    # restricted weights keep the full string
    assert Counter(a1_simple_weights(4, 5)) == Counter({4: 1, 2: 1, 0: 1, -2: 1, -4: 1})
    assert len(a1_simple_weights(12, 7)) == 12


def test_simple_weights_dim_multiplicative():
    for p in (5, 7):
        for m in range(0, 2 * p * p):
            dim = 1
            q = m
            while True:
                dim *= (q % p) + 1
                q //= p
                if q == 0:
                    break
            assert len(a1_simple_weights(m, p)) == dim


def test_weyl_factors():
    assert a1_weyl_factors(8, 5) == Counter({8: 1, 0: 1})
    assert a1_weyl_factors(6, 5) == Counter({6: 1, 2: 1})
    assert a1_weyl_factors(3, 5) == Counter({3: 1})
    # m = ap + b with 0 <= b < p - 1 gives the linked factor m - 2(b + 1)
    assert a1_weyl_factors(16, 7) == Counter({16: 1, 10: 1})


def test_comp_factors_recover_tensor_square():
    # L(1) (x) L(1) has factors 2 and 0 whenever p > 2
    ws = [2, 0, 0, -2]
    assert a1_comp_factors(ws, 5) == Counter({2: 1, 0: 1})


def test_tilting_weights_small():
    # T(m) = W(m) below p; T(8) at p = 5 has W(8) + W(0) character
    assert a1_tilting_weights(3, 5) == (3, 1, -1, -3)
    assert Counter(a1_tilting_weights(8, 5)) == Counter(a1_weyl_weights(8) + [0])


@pytest.mark.parametrize("p", [5, 7])
def test_tilting_weights_selfdual(p):
    for m in range(0, 2 * p * p // 3):
        c = Counter(a1_tilting_weights(m, p))
        assert c == Counter({-w: k for w, k in c.items()})


# -- cohomology predicates ----------------------------------------------------

def test_h1_predicate():
    assert h1_irreducible(8, 5)
    assert h1_irreducible(40, 5)
    assert h1_irreducible(200, 5)
    assert not h1_irreducible(4, 5)
    assert not h1_irreducible(0, 5)
    assert h1_irreducible(12, 7)
    assert h1_irreducible(84, 7)
    assert not h1_irreducible(24, 7)


# -- explicit rank-one modules ------------------------------------------------

def test_weyl_module_operators():
    w = weyl_module(4, 5)
    assert w.dim == 5
    assert w.weights == [4, 2, 0, -2, -4]
    # E_1 on divided powers: v_i -> (4 - i + 1) v_{i-1}
    e1 = w.E[1]
    assert e1[0, 1] == 4 and e1[1, 2] == 3 and e1[2, 3] == 2 and e1[3, 4] == 1


def test_simple_module_matches_char():
    for p in (5, 7):
        for m in (0, 1, p - 1, p, 2 * p - 2, 3 * p + 1):
            mod = simple_module(m, p)
            assert Counter(mod.weights) == Counter(a1_simple_weights(m, p))


def test_module_constructors_consistent():
    p = 5
    a = simple_module(3, p)
    b = twist(simple_module(1, p), 1)
    t = tensor(a, b)
    assert Counter(t.weights) == Counter(a1_simple_weights(8, p))
    s = direct_sum(a, trivial_module(p))
    assert s.dim == a.dim + 1
    d = dual(t)
    assert Counter(d.weights) == Counter(t.weights)


# T(20) at p = 7 goes through Donkin's split; every m in [p, 2p - 2] is cut
# out of St (x) L(m - p + 1) by the Casimir
@pytest.mark.parametrize("m,p", [(20, 7)] + [(m, p) for p in (5, 7)
                                             for m in range(p, 2 * p - 1)])
def test_tilting_module_extraction(m, p):
    mod = tilting_module(m, p)
    assert Counter(mod.weights) == Counter(a1_tilting_weights(m, p))


def test_one_param_group_law():
    # x_+(t + u) = x_+(t) x_+(u) for every pair in GF(p)^2, likewise x_-
    for m, p in ((8, 5), (12, 7)):
        mod = tilting_module(m, p)
        for t in range(p):
            for u in range(p):
                for x in (mod.x_plus, mod.x_minus):
                    assert np.array_equal(x((t + u) % p), x(t) @ x(u) % p), (m, p, t, u)


def test_module_rejects_wrong_weight_shift():
    # E_1 must raise the weight by 2: from -1 to 1, never from 1 to -1
    good = A1Module(5, [1, -1], {1: [[0, 1], [0, 0]]}, {1: [[0, 0], [1, 0]]})
    assert good.dim == 2
    with pytest.raises(ArithmeticError, match=re.escape(
            "operator does not shift weights correctly: E entry (1, 0) maps "
            "weight 1 to -1, expected a shift of +2")):
        A1Module(5, [1, -1], {1: [[0, 0], [1, 0]]}, {})
    with pytest.raises(ArithmeticError, match=re.escape(
            "F entry (0, 1) maps weight -1 to 1, expected a shift of -2")):
        A1Module(5, [1, -1], {}, {1: [[0, 1], [0, 0]]})


def test_module_rejects_wrong_weight_shift_in_entry_form():
    # the same operators as (rows, cols, values) triples
    good = A1Module(5, [1, -1], {1: ([0], [1], [1])}, {1: ([1], [0], [1])})
    assert np.array_equal(good.E[1], [[0, 1], [0, 0]])
    assert np.array_equal(good.F[1], [[0, 0], [1, 0]])
    with pytest.raises(ArithmeticError):
        A1Module(5, [1, -1], {1: ([1], [0], [1])}, {})
    with pytest.raises(ArithmeticError):
        A1Module(5, [1, -1], {}, {1: ([0], [1], [1])})
    # an entry that vanishes mod p is dropped before the shift check
    assert A1Module(5, [1, -1], {1: ([1], [0], [5])}, {}).E == {}


def test_dict_and_flat_input_agree():
    # per-degree matrices, per-degree triples and one flat triple per kind,
    # listing the same entries in the same order, give the same module
    p = 5
    t = tilting_module(6, p)
    flat, triples = [], []
    for ops in (t.E, t.F):
        nz = {a: (*np.nonzero(m), m[np.nonzero(m)]) for a, m in ops.items()}
        triples.append(nz)
        flat.append(tuple(map(np.concatenate, zip(*nz.values()))))
    mods = [A1Module(p, t.weights, t.E, t.F), A1Module(p, t.weights, *triples),
            A1Module(p, t.weights, *flat)]
    for mod in mods[1:]:
        for got, want in zip(mod.entries, mods[0].entries):
            for x, y in zip(got, want):
                assert np.array_equal(x, y)
        for got, want in ((mod.E, t.E), (mod.F, t.F)):
            assert got.keys() == want.keys()
            for k in want:
                assert np.array_equal(got[k], want[k]), k


@pytest.mark.parametrize("weights,E,F", [
    ([1, -1], ([0], [0], [1]), ([], [], [])),      # zero shift
    ([1, 0], ([0], [1], [1]), ([], [], [])),       # odd shift
    ([1, -1], ([1], [0], [1]), ([], [], [])),      # E lowering
    ([1, -1], ([], [], []), ([0], [1], [1])),      # F raising
], ids=["zero", "odd", "E-down", "F-up"])
def test_flat_input_rejects_bad_shift(weights, E, F):
    with pytest.raises(ArithmeticError, match=re.escape(
            "operator does not shift weights correctly: ")):
        A1Module(5, weights, E, F)


def _same_module(x, y):
    assert x.weights == y.weights
    for got, want in ((x.E, y.E), (x.F, y.F)):
        assert got.keys() == want.keys()
        for k in want:
            assert np.array_equal(got[k], want[k]), k


@pytest.mark.parametrize("p", [5, 7])
def test_dual_and_twist_compose(p):
    # the factors of test_tensor_matches_kron_reference
    for mod in (weyl_module(3, p), tilting_module(p, p),
                twist(tilting_module(2, p), 1), dual(weyl_module(p + 1, p))):
        _same_module(dual(dual(mod)), mod)
        _same_module(twist(twist(mod, 1), 1), twist(mod, 2))


def _kron_tensor_ops(a, b):
    """The operators of a (x) b, degree by degree, as dense sums of np.kron
    of the factors' divided powers (degree 0 being the identity)."""
    out = []
    for xa, xb in ((a.E, b.E), (a.F, b.F)):
        ops = {}
        for i, mi in (*xa.items(), (0, np.eye(a.dim, dtype=np.int64))):
            for j, mj in (*xb.items(), (0, np.eye(b.dim, dtype=np.int64))):
                if i + j:
                    ops[i + j] = (ops.get(i + j, 0) + np.kron(mi, mj)) % a.p
        out.append({k: m for k, m in ops.items() if m.any()})
    return out


@pytest.mark.parametrize("p", [5, 7])
def test_tensor_matches_kron_reference(p):
    factors = [weyl_module(3, p), tilting_module(p, p),
               twist(tilting_module(2, p), 1), dual(weyl_module(p + 1, p))]
    for a in factors:
        for b in factors:
            t = tensor(a, b)
            assert t.weights == [wa + wb for wa in a.weights for wb in b.weights]
            for got, want in zip((t.E, t.F), _kron_tensor_ops(a, b)):
                assert got.keys() == want.keys()
                for k in want:
                    assert np.array_equal(got[k], want[k]), (a.weights, b.weights, k)


def test_group_law_on_tensor_dual_and_sum():
    p = 5
    a, b = tilting_module(6, p), twist(weyl_module(2, p), 1)
    for mod in (tensor(a, b), dual(a), direct_sum(a, b, trivial_module(p))):
        for t in range(p):
            for u in range(p):
                for x in (mod.x_plus, mod.x_minus):
                    assert np.array_equal(x((t + u) % p), x(t) @ x(u) % p), (t, u)


def test_dual_is_signed_transpose():
    p = 5
    a = tilting_module(6, p)
    d = dual(a)
    assert d.weights == [-w for w in a.weights]
    for ops, dops in ((a.E, d.E), (a.F, d.F)):
        assert ops.keys() == dops.keys()
        for k, m in ops.items():
            assert np.array_equal(dops[k], (-1) ** k * m.T % p), k


def test_submodule_restriction_errors():
    w2 = weyl_module(2, 5)
    # F_1 moves the top vector v_0 of W(2) to v_1
    with pytest.raises(ArithmeticError, match="not a submodule"):
        _submodule_restriction(w2, np.array([[1], [0], [0]]))
    with pytest.raises(ArithmeticError, match="basis vector mixes weights"):
        _submodule_restriction(w2, np.array([[1], [1], [0]]))
    # the errors name the operator and degree, or the mixed column
    with pytest.raises(ArithmeticError, match="not a submodule: F_1 "):
        _submodule_restriction(w2, np.array([[1], [0], [0]]))
    with pytest.raises(ArithmeticError, match="not a submodule: E_1 "):
        _submodule_restriction(w2, np.array([[0], [0], [1]]))
    with pytest.raises(ArithmeticError, match=re.escape(
            "column 1 has weights [-2, 2]")):
        _submodule_restriction(w2, np.array([[0, 1], [1, 0], [0, 1]]))
    with pytest.raises(ArithmeticError, match="basis vectors are dependent"):
        _submodule_restriction(w2, np.array([[1, 2], [0, 0], [0, 0]]))


# -- H^1 from explicit operators ---------------------------------------------

@pytest.mark.parametrize("p", [5, 7])
def test_h1_matches_predicate_on_simples(p):
    for lam in range(0, 2 * p * p - 1):
        mod = simple_module(lam, p)
        expected = 1 if h1_irreducible(lam, p) else 0
        assert h1_module_a1(mod) == expected, lam


@pytest.mark.parametrize("p", [5, 7])
def test_h1_vanishes_on_tilting(p):
    for m in range(0, 21):
        assert h1_module_a1(tilting_module(m, p)) == 0, m


def test_h1_additive_over_sums():
    p = 5
    a = simple_module(8, p)
    b = simple_module(40, p)
    c = simple_module(3, p)
    assert h1_module_a1(direct_sum(a, b, c)) == 2


def test_h1_weyl_module_w8():
    # W(8) at p = 5: head L(8), socle L(0).  The long exact sequence leaves
    # H^1(W(8)) = H^1(L(8)) = k, while the dual (induced) module has no
    # higher cohomology at all.  The two directions of the same character
    # must therefore disagree.
    assert a1_weyl_factors(8, 5) == Counter({8: 1, 0: 1})
    assert h1_module_a1(weyl_module(8, 5)) == 1
    assert h1_module_a1(dual(weyl_module(8, 5))) == 0


# -- spin / exterior / symmetric weight multisets -----------------------------

def test_spin_weights_small_case():
    # weights are half-sums (sum of signed a_i) / 2
    ev, od = spin_weights([1, 1])
    assert ev == Counter({1: 1, -1: 1})
    assert od == Counter({0: 2})
    with pytest.raises(ArithmeticError):
        spin_weights([1, 2])


def test_spin_weights_counts():
    # natural module of D5 with weights +-4, +-2, +-0, +-2, +-0
    ev, od = spin_halves_from_char(Counter({4: 1, -4: 1, 2: 2, -2: 2, 0: 4}), 5)
    assert sum(ev.values()) == 16
    assert sum(od.values()) == 16


def test_spin_halves_accept_odd_weight_pairs():
    # L(1) + L(1) carries an invariant symmetric form: weights +-1 twice
    assert spin_halves_from_char(Counter({1: 2, -1: 2}), 2) == \
        (Counter({1: 1, -1: 1}), Counter({0: 2}))
    # L(3) + L(3): the symplectic factor occurs twice
    ev, od = spin_halves_from_char(Counter({3: 2, 1: 2, -1: 2, -3: 2}), 4)
    assert sum(ev.values()) == sum(od.values()) == 8


def test_spin_halves_reject_odd_count_of_odd_pairs():
    # one pair +-1 beside a zero pair: every half-sum is a half-integer
    with pytest.raises(ArithmeticError):
        spin_halves_from_char(Counter({1: 1, -1: 1, 0: 2}), 2)
    with pytest.raises(ArithmeticError):
        spin_halves_from_char(Counter({3: 1, -3: 1, 2: 2, -2: 2}), 3)


def test_alt_sym_weights():
    # L(3) at p = 5 has weights 3, 1, -1, -3
    assert module_weights(m_alt(m_simple(3), 2), 5) == \
        Counter({4: 1, 2: 1, 0: 2, -2: 1, -4: 1})
    assert sum(module_weights(m_sym(m_simple(3), 2), 5).values()) == 10
    assert module_weights(m_sym(m_simple(3), 2), 5)[6] == 1


# -- G2 at p = 7 --------------------------------------------------------------

def test_g2_simple_dims():
    assert G2_SIMPLE_DIMS == {
        (0, 0): 1, (1, 0): 7, (0, 1): 14, (2, 0): 26, (1, 1): 38, (3, 0): 77}
    for lam, d in G2_SIMPLE_DIMS.items():
        assert sum(g2_simple_char(lam).values()) == d


def test_g2_weyl_factors():
    assert g2_comp_factors(g2_weyl_char((2, 0))) == Counter({(2, 0): 1, (0, 0): 1})
    assert g2_comp_factors(g2_weyl_char((1, 1))) == Counter({(1, 1): 1, (2, 0): 1})
    assert g2_comp_factors(g2_weyl_char((1, 0))) == Counter({(1, 0): 1})
    assert g2_comp_factors(g2_weyl_char((0, 1))) == Counter({(0, 1): 1})


def test_g2_tensor_char_decomposition():
    ch = Counter()
    for w1, m1 in g2_simple_char((1, 0)).items():
        for w2, m2 in g2_simple_char((1, 0)).items():
            ch[tuple(a + b for a, b in zip(w1, w2))] += m1 * m2
    # 7 (x) 7 = 49 splits with known factors at p = 7
    factors = g2_comp_factors(ch)
    assert sum(G2_SIMPLE_DIMS[w] * k for w, k in factors.items()) == 49
    assert factors[(2, 0)] == 1 and factors[(0, 1)] == 1 and factors[(1, 0)] == 1


def test_g2_h1_list():
    # W(20) = 20|00 is a nonsplit extension, so L(20) carries the H^1;
    # W(11) = 11|20 pushes nothing onto L(11)
    assert g2_h1_simples() == {(2, 0)}
    assert g2_h1_irreducible((2, 0)) is True
    assert g2_h1_irreducible((1, 1)) is False
    assert g2_h1_irreducible((0, 1)) is False
    with pytest.raises(NotImplementedError):
        g2_h1_irreducible((0, 2))


# -- module expressions -------------------------------------------------------

def test_parse_format_roundtrip():
    for s in ["3 x 1[1] + T(8) + 0", "8", "T(12)", "1 x 1[1] x 1[2]", "6[1] + 2"]:
        assert format_module(parse_module(s)) == s


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_module("3 + + 0")
    with pytest.raises(ValueError):
        parse_module("T(8")


def test_module_weights_and_matrices():
    e = parse_module("3 x 1[1] + T(8) + 0")
    w = module_weights(e, 5)
    assert sum(w.values()) == 8 + 10 + 1
    mod = module_matrices(parse_module("3 x 1[1] + 0"), 5)
    assert mod.dim == 9
    assert Counter(mod.weights) == module_weights(parse_module("3 x 1[1] + 0"), 5)


def test_module_is_tilting():
    assert module_is_tilting(parse_module("T(8)"), 5)
    assert module_is_tilting(parse_module("4"), 5)      # small simples are tilting
    assert not module_is_tilting(parse_module("8"), 5)
    assert not module_is_tilting(parse_module("T(8)[1]"), 5)


def test_module_comp_factors():
    assert module_comp_factors(parse_module("T(8)"), 5) == Counter({8: 1, 0: 2})
    # the twisted tensor product of restricted simples is itself simple
    assert module_comp_factors(parse_module("3 x 1[1]"), 5) == Counter({8: 1})
    assert module_comp_factors(parse_module("1 x 1[1]"), 5) == Counter({6: 1})


# -- randomised structure checks ----------------------------------------------

@given(m=st.integers(min_value=0, max_value=60), p=st.sampled_from([5, 7]))
@settings(max_examples=40, deadline=None)
def test_simple_char_symmetric(m, p):
    c = Counter(a1_simple_weights(m, p))
    assert c == Counter({-w: k for w, k in c.items()})
    assert c[m] == 1


@given(m=st.integers(min_value=0, max_value=40), p=st.sampled_from([5, 7]))
@settings(max_examples=30, deadline=None)
def test_weyl_factors_account_for_dimension(m, p):
    factors = a1_weyl_factors(m, p)
    assert sum(len(a1_simple_weights(w, p)) * k for w, k in factors.items()) == m + 1
    assert factors[m] == 1


# -- extended expression grammar ----------------------------------------------

def test_extended_parse_roundtrip():
    for s in ["W(5)*", "Spin(D5; 4 + 4[r])", "Alt(2; 2 x 1[s])",
              "Sym(3; 1[s+1])", "T(8)[r] + 1[s] x 2", "(2 + 0)*",
              "Spin(D7; 6[r] + 2[s] + 2[t] + 0)"]:
        assert format_module(parse_module(s)) == s


def test_symbolic_twist_resolution():
    e = parse_module("2[s] x 1[s+1]")
    with pytest.raises(ValueError):
        module_weights(e, 5)
    w = module_weights(e, 5, {"s": 0})
    assert w == module_weights(parse_module("2 x 1[1]"), 5)
    e2 = module_subst(e, {"s": 1})
    assert format_module(e2) == "2[1] x 1[2]"
    assert module_twists(e2) == [1, 2]
    assert module_twists(module_twist_shift(e2, 1)) == [2, 3]


def test_alt_square_of_twisted_tensor():
    # dimension 15 and the same character as 4 + 2 x 2[s] + 0
    for s in (1, 2):
        sub = {"s": s}
        got = module_weights(parse_module("Alt(2; 2 x 1[s])"), 5, sub)
        want = module_weights(parse_module("4 + 2 x 2[s] + 0"), 5, sub)
        assert sum(got.values()) == 15
        assert got == want


def test_spin_d5_of_4_plus_twisted_4():
    for r in (1, 2):
        sub = {"r": r}
        e = parse_module("Spin(D5; 4 + 4[r])")
        got = module_weights(e, 5, sub)
        want = module_weights(parse_module("3 x 3[r]"), 5, sub)
        assert sum(got.values()) == 16
        assert got == want
        # with a zero weight pair present the two halves agree
        ev, od = spin_chars(e, 5, sub)
        assert ev == od == got


def test_spin_errors():
    with pytest.raises(ArithmeticError):
        module_weights(parse_module("Spin(D2; 3)"), 5)   # symplectic action
    with pytest.raises(ArithmeticError):
        module_weights(parse_module("Spin(D4; 4 + 4[1])"), 5)  # rank mismatch


def test_dual_expressions():
    # rank-one characters are symmetric, so duals match at character level
    assert module_weights(parse_module("W(5)*"), 5) == \
        module_weights(parse_module("W(5)"), 5)
    assert m_dualweyl(5) == parse_module("W(5)*")
    # but the module structure flips: W(8) has H^1, its dual does not
    assert h1_module_a1(module_matrices(parse_module("W(8)*"), 5)) == 0
    assert h1_module_a1(module_matrices(parse_module("W(8)"), 5)) == 1


def test_alt_sym_matrices():
    alt = module_matrices(parse_module("Alt(2; W(4))"), 5)
    assert alt.dim == 10
    assert Counter(alt.weights) == module_weights(parse_module("Alt(2; W(4))"), 5)
    sym = module_matrices(parse_module("Sym(2; 2)"), 7)
    assert sym.dim == 6
    assert Counter(sym.weights) == module_weights(parse_module("Sym(2; 2)"), 7)
    # alternating square of the natural 4-dimensional module of C2-type is
    # the 6-dimensional orthogonal one; check factors
    assert module_comp_factors(parse_module("Alt(2; 3)"), 5) == \
        Counter({4: 1, 0: 1})


def test_tilting_prune_closure():
    assert module_is_tilting(m_alt(m_simple((1, 0)), 3), 7)
    assert not module_is_tilting(m_alt(m_simple(1), 7), 7)  # exponent too big
    assert module_is_tilting(parse_module("T(2) x T(3)"), 5)
    assert module_is_tilting(parse_module("W(5)*"), 7)      # W(5) = T(5) here
    assert not module_is_tilting(parse_module("W(5)*"), 5)
    assert not module_is_tilting(m_spin(5, parse_module("4 + 4")), 5)
    assert module_is_tilting(m_tilt((2, 0)), 7)
    assert not module_is_tilting(m_simple((2, 0)), 7)
    assert module_is_tilting(m_simple((3, 0)), 7)


def test_g2_expression_characters():
    assert module_dim(m_tilt((2, 0)), 7) == 28
    assert module_dim(m_tilt((1, 1)), 7) == 91
    assert module_comp_factors(m_tilt((1, 1)), 7) == \
        Counter({(1, 1): 1, (2, 0): 2, (0, 0): 1})
    # alternating cube of the 7-dimensional module: tilting, with the
    # h1-positive factor 20 inside -- the prune is what kills it
    cube = m_alt(m_simple((1, 0)), 3)
    factors = module_comp_factors(cube, 7)
    assert module_dim(cube, 7) == 35
    assert factors[(2, 0)] == 1
    assert module_is_tilting(cube, 7)


# -- Jantzen sum formula ------------------------------------------------------

def test_jantzen_character_examples():
    # W(5) at p=5: the single reflection contributes ch W(3)
    assert a1_jantzen_character(5, 5) == Counter(a1_weyl_weights(3))
    # restricted weights below p give an empty sum
    assert a1_jantzen_character(3, 5) == Counter()


@pytest.mark.parametrize("p", [5, 7])
def test_weyl_factors_against_greedy_decomposition(p):
    # independent oracle: greedy subtraction of simple characters from the
    # Weyl character, no filtration input at all
    for m in range(0, 2 * p * p + 2):
        greedy = a1_comp_factors(a1_weyl_weights(m), p)
        assert a1_weyl_factors(m, p) == greedy, m


def test_weyl_factors_two_factor_window():
    # in the window p <= m <= 2p-2 the factors are m and 2p-2-m's reflection
    for p in (5, 7):
        for m in range(p, 2 * p - 1):
            nu = 2 * p - 2 - m
            want = Counter({m: 1}) if nu == m else Counter({m: 1, m - 2 * (m % p + 1): 1})
            if m == p - 1:
                want = Counter({m: 1})
            assert a1_weyl_factors(m, p) == want
