"""Root-system construction checked against independent Euclidean models."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcr import modrep
from gcr.rootsystem import build_root_system, parse_type

F = Fraction


def _vec(*xs):
    return tuple(F(x) for x in xs)


def _add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _scale(c, a):
    return tuple(c * x for x in a)


def _euclidean_model(name):
    """(simple root vectors, full root set) built directly from coordinates,
    with no reference to Cartan matrices or the closure recursion."""
    kind, rank = name[0], int(name[1:])
    if kind == "A":
        n = rank
        e = [tuple(F(int(i == j)) for j in range(n + 1)) for i in range(n + 1)]
        simples = [_add(e[i], _scale(-1, e[i + 1])) for i in range(n)]
        roots = {_add(e[i], _scale(-1, e[j])) for i in range(n + 1) for j in range(n + 1) if i != j}
        return simples, roots
    if kind == "D":
        n = rank
        e = [tuple(F(int(i == j)) for j in range(n)) for i in range(n)]
        simples = [_add(e[i], _scale(-1, e[i + 1])) for i in range(n - 1)]
        simples.append(_add(e[n - 2], e[n - 1]))
        roots = set()
        for i in range(n):
            for j in range(i + 1, n):
                for si in (1, -1):
                    for sj in (1, -1):
                        roots.add(_add(_scale(si, e[i]), _scale(sj, e[j])))
        return simples, roots
    if kind == "G":
        e = [tuple(F(int(i == j)) for j in range(3)) for i in range(3)]
        simples = [
            _add(e[0], _scale(-1, e[1])),
            _add(_scale(-2, e[0]), _add(e[1], e[2])),
        ]
        base = [
            _add(e[0], _scale(-1, e[1])),
            _add(e[1], _scale(-1, e[2])),
            _add(e[0], _scale(-1, e[2])),
            _add(_scale(2, e[0]), _add(_scale(-1, e[1]), _scale(-1, e[2]))),
            _add(_scale(2, e[1]), _add(_scale(-1, e[0]), _scale(-1, e[2]))),
            _add(_scale(2, e[2]), _add(_scale(-1, e[0]), _scale(-1, e[1]))),
        ]
        roots = {r for b in base for r in (b, _scale(-1, b))}
        return simples, roots
    # E6/E7/E8 inside the standard E8 coordinates.
    e = [tuple(F(int(i == j)) for j in range(8)) for i in range(8)]
    e8_simples = [
        _add(_scale(F(1, 2), _add(e[0], e[7])),
             _scale(F(-1, 2), _add(_add(e[1], e[2]), _add(_add(e[3], e[4]), _add(e[5], e[6]))))),
        _add(e[0], e[1]),
        _add(e[1], _scale(-1, e[0])),
        _add(e[2], _scale(-1, e[1])),
        _add(e[3], _scale(-1, e[2])),
        _add(e[4], _scale(-1, e[3])),
        _add(e[5], _scale(-1, e[4])),
        _add(e[6], _scale(-1, e[5])),
    ]
    e8_roots = set()
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    e8_roots.add(_add(_scale(si, e[i]), _scale(sj, e[j])))
    for signs in range(256):
        bits = [(signs >> k) & 1 for k in range(8)]
        if sum(bits) % 2 == 0:
            e8_roots.add(tuple(F(1 - 2 * b, 2) for b in bits))
    simples = e8_simples[:rank]
    if rank == 8:
        return simples, e8_roots
    # keep only roots inside the span of the first `rank` simples
    span_roots = set()
    for r in e8_roots:
        if _in_span(r, simples):
            span_roots.add(r)
    return simples, span_roots


def _in_span(v, basis):
    """Exact rational test for membership of v in the span of basis."""
    rows = [list(b) for b in basis] + [list(v)]
    # row-reduce; v is in the span iff elimination zeroes the last row
    m = [row[:] for row in rows]
    ncols = len(m[0])
    pivot_rows = []
    col = 0
    for r in range(len(basis)):
        # find pivot among basis rows only
        prow = None
        while col < ncols and prow is None:
            for i in range(r, len(basis)):
                if m[i][col]:
                    prow = i
                    break
            if prow is None:
                col += 1
        if prow is None:
            break
        m[r], m[prow] = m[prow], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivot_rows.append(r)
        col += 1
    return not any(m[-1])


ALL_TYPES = ["A1", "A2", "A3", "A4", "A5", "A6", "A7", "D4", "D5", "D6", "D7", "E6", "E7", "E8", "G2"]

EXPECTED_POSITIVE_COUNTS = {
    "E6": 36, "E7": 63, "E8": 120, "G2": 6,
    # A_n: n(n+1)/2; D_n: n(n-1)
    **{f"A{n}": n * (n + 1) // 2 for n in range(1, 8)},
    **{f"D{n}": n * (n - 1) for n in range(4, 8)},
}


@pytest.mark.parametrize("name", ALL_TYPES)
def test_positive_count(name):
    rs = build_root_system(name)
    assert len(rs.positive) == EXPECTED_POSITIVE_COUNTS[name]


@pytest.mark.parametrize("name", ALL_TYPES)
def test_matches_euclidean_model(name):
    rs = build_root_system(name)
    simples, model_roots = _euclidean_model(name)
    mapped = set()
    for r in rs.roots():
        v = tuple(F(0) for _ in simples[0])
        for c, s in zip(r, simples):
            v = _add(v, _scale(c, s))
        mapped.add(v)
    assert mapped == model_roots


@pytest.mark.parametrize("name", ALL_TYPES)
def test_norms_against_model(name):
    rs = build_root_system(name)
    simples, _ = _euclidean_model(name)
    # Euclidean dot products, scaled so long roots have norm 2, must agree
    # with the abstract invariant form.
    dots = [sum(s * t for s, t in zip(a, b)) for a in simples for b in simples]
    longest = max(sum(s * s for s in a) for a in simples)
    for i in range(rs.rank):
        ai = rs.simple(i + 1)
        for j in range(rs.rank):
            aj = rs.simple(j + 1)
            dot = sum(s * t for s, t in zip(simples[i], simples[j]))
            assert rs.form(ai, aj) == dot * 2 / longest


def test_total_order_is_height_then_lex():
    rs = build_root_system("E6")
    keys = [(sum(r), r) for r in rs.positive]
    assert keys == sorted(keys)


@pytest.mark.parametrize("name", ["E6", "E7", "E8", "G2"])
def test_reflection_permutes_roots(name):
    rs = build_root_system(name)
    for i in range(1, rs.rank + 1):
        image = {rs.reflect(r, i) for r in rs.roots()}
        assert image == set(rs.roots())
        # s_i permutes the positive roots other than alpha_i
        pos = set(rs.positive) - {rs.simple(i)}
        assert {rs.reflect(r, i) for r in pos} == pos


def test_levels_e6_d4_parabolic():
    rs = build_root_system("E6")
    levi = [2, 3, 4, 5]
    radical = [r for r in rs.positive if rs.level(r, levi) > 0]
    assert len(radical) == 24
    by_level = {}
    for r in radical:
        by_level.setdefault(rs.level(r, levi), []).append(r)
    assert {k: len(v) for k, v in by_level.items()} == {1: 16, 2: 8}


def test_levels_e6_a5_parabolic():
    rs = build_root_system("E6")
    levi = [1, 3, 4, 5, 6]
    radical = [r for r in rs.positive if rs.level(r, levi) > 0]
    by_level = {}
    for r in radical:
        by_level.setdefault(rs.level(r, levi), []).append(r)
    assert {k: len(v) for k, v in by_level.items()} == {1: 20, 2: 1}
    assert by_level[2] == [rs.highest_root()]


def test_weyl_word_swaps_e6_alpha6():
    # The eight-letter word swapping the root subgroups U_alpha6 and U_101111.
    rs = build_root_system("E6")
    word = [1, 3, 4, 2, 5, 4, 3, 1]
    a6 = rs.parse_root("000001")
    target = rs.parse_root("101111")
    assert rs.apply_word(word, a6) == target
    assert rs.apply_word(word, target) == a6


def test_parse_and_format_roundtrip():
    rs = build_root_system("E7")
    for r in rs.roots():
        assert rs.parse_root(rs.format_root(r)) == r


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_random_words_preserve_form(data):
    rs = build_root_system(data.draw(st.sampled_from(["E6", "E7", "G2"])))
    word = data.draw(st.lists(st.integers(1, rs.rank), max_size=8))
    r = data.draw(st.sampled_from(rs.roots()))
    image = rs.apply_word(word, r)
    assert image in rs._all
    assert rs.form(image, image) == rs.form(r, r)


@pytest.mark.parametrize("name", ["A2", "D4", "G2", "E6", "E8"])
def test_pairing_is_integral_and_matches_cartan(name):
    # <r, alpha_i-check> through the invariant form equals the Cartan sum
    rs = build_root_system(name)
    for r in rs.roots():
        for i in range(1, rs.rank + 1):
            val = rs.pairing(r, rs.simple(i))
            assert type(val) is int
            assert val == rs.pairing_index(r, i - 1)
        for a in rs.positive:
            assert type(rs.pairing(r, a)) is int


def test_pairing_rejects_non_integral():
    rs = build_root_system("A2")
    # (a1, 2a1 + 2a2) = 2 and (2a1 + 2a2)^2 = 8: the pairing is 1/2
    with pytest.raises(ValueError):
        rs.pairing((1, 0), (2, 2))


@pytest.mark.parametrize("name,expected", [
    ("", None), ("E", None), ("E0_6", None), ("E+6", None),
    ("E\u0666", None),                   # Arabic-Indic six
    (" e6 ", "E6"),
])
def test_parse_type_is_strict(name, expected):
    if expected is None:
        with pytest.raises(ValueError, match=re.escape(repr(name))):
            parse_type(name)
    else:
        assert build_root_system(name).name == expected


def test_type_name_spellings_share_one_cache_entry():
    assert build_root_system(" e6 ") is build_root_system("E6")
    # a weight no other test asks for, so its first spelling is a miss
    before = modrep._freudenthal.cache_info().misses
    first = modrep.freudenthal("a2", (3, 4))
    assert modrep.freudenthal(" A2 ", (3, 4)) is first
    assert modrep._freudenthal.cache_info().misses - before == 1
