"""Structure-constant table checks.

The Jacobi identity is the ground truth for the whole table (it pins every
sign once the extraspecial values are fixed); the magnitudes are checked
against root-string lengths and the brackets against sl2-triples.
"""

import itertools
import random

import pytest

from gcr.chevalley import build_constants, jacobi_defect

SMALL = ["A2", "G2", "A3", "D4"]
BIG = ["E6", "E7", "E8"]


def _string_below(rs, a, b):
    """p with b - p*a the bottom of the a-string through b."""
    p = 0
    cur = tuple(x - y for x, y in zip(b, a))
    while cur in rs._all:
        p += 1
        cur = tuple(x - y for x, y in zip(cur, a))
    return p


@pytest.mark.parametrize("name", SMALL)
def test_jacobi_full(name):
    t = build_constants(name)
    keys = t.basis_keys()
    for tri in itertools.combinations(keys, 3):
        assert jacobi_defect(t, tri) == {}


@pytest.mark.parametrize("name,p", [("E6", 5), ("E7", 5), ("E7", 7), ("E8", 7)])
def test_jacobi_sampled_mod_p(name, p):
    t = build_constants(name)
    keys = t.basis_keys()
    rng = random.Random(20240800 + t.dim)
    for _ in range(1000):
        tri = rng.sample(keys, 3)
        d = jacobi_defect(t, tri)
        assert d == {}
        assert {k: v % p for k, v in d.items() if v % p} == {}


@pytest.mark.parametrize("name", SMALL + BIG)
def test_antisymmetry(name):
    t = build_constants(name)
    rs = t.rs
    allr = list(rs._all)
    rng = random.Random(3)
    for _ in range(500):
        a, b = rng.choice(allr), rng.choice(allr)
        if tuple(x + y for x, y in zip(a, b)) in rs._all:
            assert t.N(a, b) == -t.N(b, a)


@pytest.mark.parametrize("name", SMALL + BIG)
def test_extraspecial_values_positive(name):
    t = build_constants(name)
    rs = t.rs
    for gamma in rs.positive:
        if sum(gamma) == 1:
            continue
        first = None
        for alpha in rs.positive:
            if rs.index[alpha] >= rs.index[gamma]:
                break
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            if beta in rs.index and rs.index[alpha] < rs.index[beta]:
                first = (alpha, beta)
                break
        assert first is not None
        p = _string_below(rs, *first)
        assert t.N(*first) == p + 1 > 0


def test_magnitudes():
    t = build_constants("E6")
    for (a, b), n in t._n_pos.items():
        assert abs(n) == 1
    t = build_constants("G2")
    rs = t.rs
    for a in rs._all:
        for b in rs._all:
            if tuple(x + y for x, y in zip(a, b)) in rs._all:
                n = t.N(a, b)
                p = _string_below(rs, a, b)
                assert abs(n) == p + 1 <= 3


@pytest.mark.parametrize("name", ["G2", "E6"])
def test_sl2_triples(name):
    t = build_constants(name)
    for r in t.rs._all:
        e = {("e", r): 1}
        f = {("e", tuple(-x for x in r)): 1}
        h = t.bracket(e, f)
        assert t.bracket(h, e) == {("e", r): 2}
        assert t.bracket(h, f) == {("e", tuple(-x for x in r)): -2}
