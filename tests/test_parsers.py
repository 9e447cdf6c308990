"""Property tests of the module-expression reader (``parse_module``/
``format_module``): every expression, a sum of tensor products of atoms,
round-trips; any other text raises ``ValueError`` and nothing else, and so
does any other nesting of ``ModExpr``."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcr import h1scan
from gcr.modrep import (
    TWIST_SYMBOLS,
    ModExpr,
    m_simple,
    m_sum,
    m_tensor,
    m_tilt,
    format_module,
    parse_module,
)

# -- module expressions -------------------------------------------------------

_twists = st.one_of(
    st.integers(0, 12),
    st.tuples(st.sampled_from(TWIST_SYMBOLS), st.integers(0, 3)),
)
_atoms = st.builds(
    lambda ctor, w, tw: ctor(w, tw),
    st.sampled_from([m_simple, m_tilt]), st.integers(0, 40), _twists)


def _joined(ctor, max_size):
    """One part alone, or ctor of two or more."""
    return lambda inner: st.lists(inner, min_size=1, max_size=max_size).map(
        lambda ps: ps[0] if len(ps) == 1 else ctor(*ps))


# the one shape: a sum of tensor products of atoms
_exprs = _joined(m_sum, 4)(_joined(m_tensor, 3)(_atoms))


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_module_expressions_roundtrip(e):
    text = format_module(e)
    assert parse_module(text) == e
    assert hash(parse_module(text)) == hash(e)
    assert format_module(parse_module(text)) == text


# pieces of the grammar, so that random text reaches deep into the reader;
# "*", ";", "Alt", "Sym", "Spin", "W" and "D5" are not in it, so text that
# uses them must be rejected
_TOKENS = ["x", "+", "(", ")", "[", "]", ";", "*", "Alt", "Sym", "Spin", "T",
           "W", "D5", "0", "1", "12", "r", "s+1", " ", "⊗", "१", ","]


def _rejects_with_value_error_only(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.text(max_size=40),
                 st.lists(st.sampled_from(_TOKENS), max_size=30).map("".join)))
def test_module_parser_raises_only_value_error(text):
    _rejects_with_value_error_only(parse_module, text)


@pytest.mark.parametrize("text,message", [
    ("(" * 400 + "1" + ")" * 400, "cannot tokenize module expression '\\(\\(\\("),
    ("Alt(1;" * 400 + "1" + ")" * 400, "cannot tokenize module expression 'Alt\\(1;Alt"),
    ("1[", "cannot tokenize module expression '1\\[': '1\\[' is no atom"),
    ("T(", "cannot tokenize module expression 'T\\(': 'T\\(' is no atom"),
    ("", "cannot tokenize module expression '': '' is no atom"),
    ("१[२]", "cannot tokenize module expression '१\\[२\\]'"),
    ("Alt(2; 4)", "cannot tokenize module expression 'Alt\\(2; 4\\)'"),
    ("Spin(D5; 4 + 4)", "cannot tokenize module expression 'Spin\\(D5; 4 \\+ 4\\)'"),
    ("T(r)", "cannot tokenize module expression 'T\\(r\\)'"),
    ("W(5)", "cannot tokenize module expression 'W\\(5\\)'"),
    ("2*", "cannot tokenize module expression '2\\*'"),
    ("Sym(2; 1)", "cannot tokenize module expression 'Sym\\(2; 1\\)'"),
], ids=["deep-brackets", "deep-alt", "open-twist", "open-tilting", "empty",
        "devanagari-digits", "alt-power", "half-spin", "tilting-symbol-weight",
        "weyl-module", "dual", "symmetric-power"])
def test_module_parser_regressions(text, message):
    with pytest.raises(ValueError, match=message):
        parse_module(text)


@pytest.mark.parametrize("build", [
    lambda a: m_tensor(m_sum(a, a), a),
    lambda a: m_sum(m_sum(a, a), a),
    lambda a: m_tensor(m_tensor(a, a), a),
    lambda a: m_sum(a),
    lambda a: m_tensor(),
    lambda a: ModExpr("alt", weight=2, parts=(a, a)),
], ids=["sum-in-tensor", "sum-in-sum", "tensor-in-tensor", "one-term-sum",
        "empty-tensor", "unknown-kind"])
def test_module_expressions_refuse_nesting(build):
    """An expression is a sum of tensor products of atoms, each compound of
    two or more parts, so that text and expression are one to one: any
    other shape, which the text could not write back, raises ValueError."""
    with pytest.raises(ValueError, match="a sum of tensor products of atoms"):
        build(m_simple(1, 1))


@pytest.mark.parametrize("text", ["1[v]", "T(4)[w+1]", "2 x 1[a]"])
def test_twist_symbol_outside_the_alphabet_fails_in_the_parser(text):
    """The parser took the symbols v and w, which the twist sweep never
    substitutes, so "1[v]" parsed and failed only at substitution."""
    with pytest.raises(ValueError, match="cannot tokenize module expression "
                       + re.escape(repr(text))):
        parse_module(text)


def test_one_twist_alphabet():
    """The parser and the twist sweep read one alphabet: every symbol of it
    parses, and the sweep varies exactly the symbols of a text."""
    text = " + ".join(f"1[{sym}]" for sym in TWIST_SYMBOLS)
    assert format_module(parse_module(text)) == text
    subs = list(h1scan.twist_choices([text], (), 1, "test"))
    assert len(subs) == 2 ** len(TWIST_SYMBOLS)
    assert all(sorted(sub) == sorted(TWIST_SYMBOLS) for sub in subs)
