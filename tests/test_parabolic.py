"""Radical filtrations of standard parabolics and their Levi modules."""

import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcr import modrep, parabolic
from gcr.h1scan import scan_parabolic
from gcr.parabolic import (
    component_type,
    decompose_level,
    level_summands,
    levi_components,
    radical_levels,
    typed_components,
    verify_levels,
)
from gcr.rootsystem import RootSystem, build_root_system
from oracles import level, pairing_index, radical_shapes, simple


def _rs(name):
    return build_root_system(name)


# -- Levi diagram bookkeeping -------------------------------------------------

def test_components_split_and_order():
    rs = _rs("E6")
    comps = levi_components(rs, (1, 3, 5, 6))
    assert comps == [(1, 3), (5, 6)]
    assert [component_type(rs, c) for c in comps] == ["A2", "A2"]


def test_levi_components_returns_a_new_list():
    rs = _rs("E6")
    levi_components(rs, (1, 3, 5, 6)).append((2,))
    assert levi_components(rs, (1, 3, 5, 6)) == [(1, 3), (5, 6)]


@pytest.mark.parametrize("ints_first", [False, True])
def test_levi_node_check_does_not_depend_on_call_order(ints_first):
    """A float or bool node equals its int as a cache key, yet is refused
    whether or not the int Levi was asked first; (1, 2.0) came back from
    the cache as [(1,), (2,)] after (1, 2)."""
    rs = _rs("E6")
    parabolic._components.cache_clear()
    if ints_first:
        assert levi_components(rs, (1, 2)) == [(1,), (2,)]
    for levi in ((1, 2.0), (True, 2)):
        with pytest.raises(ValueError, match=re.escape(f"Levi {levi} of E6")):
            levi_components(rs, levi)
    assert levi_components(rs, (1, 2)) == [(1,), (2,)]


@pytest.mark.parametrize("levi", [(7,), (-1,), (0, 1), (1, 3, 9), (1, 1), [1, 3]])
def test_levi_outside_the_diagram_is_refused(levi):
    """A node outside 1..rank, a repeated node or a Levi that is no tuple
    is refused, naming the group and the Levi, by every reader of the
    Levi, the scan included: (7,) and (-1,) came back as components and
    the level readers then died in a bare IndexError, (1, 1) was read as
    (1,), and [1, 3] died unhashable in a cache; ``radical_levels`` read
    (1, 1) as (1,) and took [1, 3]."""
    rs = _rs("E6")
    for call in (levi_components, typed_components, level_summands, verify_levels,
                 radical_levels,
                 lambda rs, levi: decompose_level(rs, levi, []),
                 lambda rs, levi: scan_parabolic("E6", levi, 5)):
        with pytest.raises(ValueError, match=re.escape(
                f"Levi {levi} of E6 must list nodes 1..6")):
            call(rs, levi)


def test_component_d_type_ordering():
    rs = _rs("E7")
    comps = levi_components(rs, (2, 3, 4, 5, 6, 7))
    assert len(comps) == 1
    comp = comps[0]
    assert component_type(rs, comp) == "D6"
    # long arm first, fork, then the two leaves
    assert comp == (7, 6, 5, 4, 2, 3)


def test_component_e_type():
    rs = _rs("E8")
    comps = levi_components(rs, tuple(range(1, 8)))
    assert len(comps) == 1
    assert component_type(rs, comps[0]) == "E7"
    assert comps[0] == (1, 2, 3, 4, 5, 6, 7)


def test_component_d4_inside_e6():
    rs = _rs("E6")
    comps = levi_components(rs, (2, 3, 4, 5))
    assert len(comps) == 1
    assert component_type(rs, comps[0]) == "D4"


# type counts over the components of every Levi, the full one included, as
# reading each component's degrees and adjacencies gave them
TYPE_COUNTS = {
    "E8": {"A1": 336, "A2": 128, "A3": 56, "A4": 28, "A5": 7, "A6": 4, "A7": 1,
           "D4": 4, "D5": 6, "D6": 1, "D7": 1, "E6": 2, "E7": 1, "E8": 1},
    "D7": {"A1": 152, "A2": 52, "A3": 30, "A4": 9, "A5": 3, "A6": 2, "D4": 4,
           "D5": 2, "D6": 1, "D7": 1},
}


@pytest.mark.parametrize("name", TYPE_COUNTS)
def test_component_types_over_every_levi(name):
    rs = _rs(name)
    counts = Counter(component_type(rs, c)
                     for k in range(rs.rank + 1)
                     for levi in itertools.combinations(range(1, rs.rank + 1), k)
                     for c in levi_components(rs, levi))
    assert counts == TYPE_COUNTS[name]


def test_typed_components_agree_with_the_two_readers():
    """On every proper Levi of E6, E7 and E8, the one checked read gives
    each component's type and nodes as ``levi_components`` and
    ``component_type`` give them, in the same order."""
    levis = 0
    for name in ("E6", "E7", "E8"):
        rs = _rs(name)
        for k in range(rs.rank):
            for levi in itertools.combinations(range(1, rs.rank + 1), k):
                levis += 1
                assert list(typed_components(rs, levi)) == [
                    (component_type(rs, c), c) for c in levi_components(rs, levi)]
    assert levis == 445


def test_component_type_rejects_disconnected_nodes():
    with pytest.raises(ValueError, match=re.escape("nodes (1, 2) of E6")):
        component_type(_rs("E6"), (1, 2))


# -- radical levels -----------------------------------------------------------

def test_radical_size_is_complementary():
    for name in ("E6", "E7", "E8"):
        rs = _rs(name)
        levi = tuple(range(2, rs.rank + 1))
        levels = radical_levels(rs, levi)
        levi_pos = sum(1 for r in rs.positive if level(r, levi) == 0)
        assert sum(len(v) for v in levels.values()) == len(rs.positive) - levi_pos


def test_level_one_generators_are_simple_roots():
    rs = _rs("E7")
    levi = (1, 3, 4, 6)
    levels = radical_levels(rs, levi)
    gens = {s["generator"] for s in decompose_level(rs, levi, levels[1])}
    outside = {simple(rs, i) for i in range(1, 8) if i not in levi}
    assert gens == outside


def test_highest_level_matches_highest_root():
    rs = _rs("E8")
    levi = tuple(i for i in range(1, 9) if i != 4)
    levels = radical_levels(rs, levi)
    top = max(rs.index, key=rs.index.get)
    assert max(levels) == level(top, levi)
    assert max(levels) == 6


# -- known module shapes ------------------------------------------------------

def test_e6_a5_levi_levels():
    # Levi A5 on 1,3,4,5,6: one 20-dimensional level and a line above it
    rs = _rs("E6")
    levi = (1, 3, 4, 5, 6)
    levels = radical_levels(rs, levi)
    assert sorted(levels) == [1, 2]
    one = decompose_level(rs, levi, levels[1])
    assert [s["dim"] for s in one] == [20]
    comp = levi_components(rs, levi)[0]
    assert one[0]["high_weight"][comp] == (0, 0, 1, 0, 0)
    two = decompose_level(rs, levi, levels[2])
    assert [s["dim"] for s in two] == [1]


def test_e6_d4_levi_levels():
    # Levi D4: level 1 carries both half-spin modules, level 2 the vector
    rs = _rs("E6")
    levi = (2, 3, 4, 5)
    levels = radical_levels(rs, levi)
    assert sorted(levels) == [1, 2]
    one = decompose_level(rs, levi, levels[1])
    assert [s["dim"] for s in one] == [8, 8]
    two = decompose_level(rs, levi, levels[2])
    assert [s["dim"] for s in two] == [8]
    comp = levi_components(rs, levi)[0]
    hw = {one[0]["high_weight"][comp], one[1]["high_weight"][comp],
          two[0]["high_weight"][comp]}
    # the three 8-dimensional D4 modules all occur
    assert hw == {(1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def test_e7_e6_levi_is_abelian_27():
    rs = _rs("E7")
    levi = (1, 2, 3, 4, 5, 6)
    levels = radical_levels(rs, levi)
    assert sorted(levels) == [1]
    one = decompose_level(rs, levi, levels[1])
    assert [s["dim"] for s in one] == [27]


def test_e8_e7_levi_levels():
    rs = _rs("E8")
    levi = tuple(range(1, 8))
    levels = radical_levels(rs, levi)
    assert sorted(levels) == [1, 2]
    assert [s["dim"] for s in decompose_level(rs, levi, levels[1])] == [56]
    assert [s["dim"] for s in decompose_level(rs, levi, levels[2])] == [1]


def test_e8_d7_levi_levels():
    rs = _rs("E8")
    levi = tuple(range(2, 9))
    levels = radical_levels(rs, levi)
    assert sorted(levels) == [1, 2]
    one = decompose_level(rs, levi, levels[1])
    two = decompose_level(rs, levi, levels[2])
    assert [s["dim"] for s in one] == [64]
    assert [s["dim"] for s in two] == [14]


def test_borel_levels_are_lines():
    rs = _rs("E6")
    for lvl, roots in radical_levels(rs, ()).items():
        for s in decompose_level(rs, (), roots):
            assert s["dim"] == 1
            assert s["high_weight"] == {}


# -- every summand against its roots --------------------------------------------

# (level summands, trivial ones) over all proper standard parabolics
SHAPE_TOTALS = {"E6": (712, 273), "E7": (2400, 854), "E8": (8864, 2960)}


@pytest.mark.parametrize("name", SHAPE_TOTALS)
def test_every_summand_matches_its_roots(name):
    """Every summand, trivial ones included, against the radical roots
    grouped by oracles.level: its shape key, its level, its least root
    (the generator ``decompose_level`` gives for the whole radical), its dim
    and its flat weight, the pairings of the group's unique highest root."""
    rs = _rs(name)
    total = trivial = 0
    for k in range(rs.rank):
        for levi in itertools.combinations(range(1, rs.rank + 1), k):
            nodes = [i for c in levi_components(rs, levi) for i in c]
            shapes = radical_shapes(rs, levi)
            expect = []
            for key, roots in shapes.items():
                height = max(map(sum, roots))
                (top,) = [r for r in roots if sum(r) == height]
                flat = tuple(pairing_index(rs, top, i - 1) for i in nodes)
                expect.append((key, level(top, levi), roots[0], len(roots), flat))
                trivial += not any(flat)
            summands = level_summands(rs, levi)
            whole = decompose_level(rs, levi, [r for roots in shapes.values() for r in roots])
            assert len(summands) == len(whole) == len(expect), (name, levi)
            got = [(key, lvl, s["generator"], s["dim"], flat)
                   for (key, lvl, flat), s in zip(summands, whole)]
            assert got == expect, (name, levi)
            total += len(summands)
    assert (total, trivial) == SHAPE_TOTALS[name]


def test_level_summands_name_a_weight_that_is_not_dominant():
    # a fresh root system with one pairings row doctored: the top of A3's
    # level one under the A1 x A1 Levi pairs (1, 0, 1) with the simple roots
    rs = RootSystem("A3")
    rs.pairings[rs.index[(1, 1, 1)]] = (-1, 0, 1)
    with pytest.raises(ArithmeticError, match=re.escape(
            "A3 parabolic with Levi (1, 3): summand high weight (-1, 1) of "
            "highest root 111 is not dominant")):
        level_summands(rs, (1, 3))
    assert level_summands(_rs("A3"), (1, 3)) == [((1,), 1, (1, 1))]


# -- character comparison across every parabolic ------------------------------

# level summands over all proper standard parabolics
SUMMAND_TOTALS = {"E6": 712, "E7": 2400, "E8": 8864}
# distinct (factor types, per-factor weights) among them: the summand
# characters one pass over the proper parabolics builds
SUMMAND_CHARACTERS = {"E6": 65, "E7": 158, "E8": 315}


@pytest.mark.parametrize("name", ["E6", "E7", "E8"])
def test_every_summand_matches_its_character(name):
    """Every summand of every proper parabolic matches its character, and
    from a cleared cache the pass builds each distinct summand character
    once, not once per Levi."""
    rs = _rs(name)
    nodes = list(range(1, rs.rank + 1))
    checked = 0
    parabolic._summand_character.cache_clear()
    for k in range(rs.rank):
        for levi in itertools.combinations(nodes, k):
            checked += verify_levels(rs, levi)
    assert checked == SUMMAND_TOTALS[name]
    built = parabolic._summand_character.cache_info()
    assert built.misses == built.currsize == SUMMAND_CHARACTERS[name]


@pytest.mark.parametrize("change", ["drop", "add"])
def test_verify_levels_names_the_summand_a_wrong_character_fails(change, monkeypatch):
    """A character of A2's natural module L(1, 0) with its weight (0, -1)
    dropped, or a weight (0, 0) added, fails on E6's A2 Levi (1, 3) the
    first summand in least-root order of that weight, the level-1 shape
    whose least root is alpha_4, by name.  The summand character cache is
    cleared before and after."""
    true = modrep.freudenthal

    def wrong(name, lam):
        char = dict(true(name, lam))
        if (name, lam) == ("A2", (1, 0)):
            if change == "drop":
                del char[0, -1]
            else:
                char[0, 0] = 1
        return char

    monkeypatch.setattr(modrep, "freudenthal", wrong)
    parabolic._summand_character.cache_clear()
    try:
        with pytest.raises(ArithmeticError, match=re.escape(
                "level 1 summand at 000100 does not match its character")):
            verify_levels(_rs("E6"), (1, 3))
    finally:
        parabolic._summand_character.cache_clear()


def test_verify_counts_summands():
    rs = _rs("E6")
    assert verify_levels(rs, ()) == 36
    assert verify_levels(rs, (1, 3, 4, 5, 6)) == 2
    # P = G: no radical, nothing to check
    assert verify_levels(rs, (1, 2, 3, 4, 5, 6)) == 0


@given(st.sampled_from(["E6", "E7"]),
       st.sets(st.integers(min_value=1, max_value=7), max_size=6))
@settings(max_examples=25, deadline=None)
def test_random_levi_verifies(name, levi_set):
    rs = _rs(name)
    levi = tuple(i for i in sorted(levi_set) if i <= rs.rank)
    if len(levi) == rs.rank:
        levi = levi[:-1]
    verify_levels(rs, levi)


def test_decompose_rejects_non_string_summand():
    # the A1 x A1 Levi of A3 acts on level one as 2 (x) 2; without its top
    # root the remaining three roots have two highest roots
    rs = build_root_system("A3")
    level = radical_levels(rs, (1, 3))[1]
    assert len(decompose_level(rs, (1, 3), level)) == 1
    with pytest.raises(ArithmeticError, match="single string module"):
        decompose_level(rs, (1, 3), [r for r in level if r != (1, 1, 1)])


def test_decompose_rejects_levi_roots():
    # the simple roots of the A1 x A1 Levi of A3 lie in the Levi, not in the
    # radical: no level summand holds them
    rs = build_root_system("A3")
    with pytest.raises(ValueError, match=re.escape(
            "(1, 0, 0) is not a root of the unipotent radical of the A3 "
            "parabolic with Levi (1, 3)")):
        decompose_level(rs, (1, 3), [(1, 0, 0), (0, 0, 1)])


def test_decompose_rejects_non_roots():
    rs = build_root_system("A3")
    with pytest.raises(ValueError, match=re.escape(
            "(5, 5, 5) is not a root of the unipotent radical of the A3 "
            "parabolic with Levi (1, 3)")):
        decompose_level(rs, (1, 3), [(0, 1, 0), (5, 5, 5)])

