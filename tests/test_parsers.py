"""Property tests of the module-expression parser (``parse_module``/
``format_module``): valid input round-trips; any other text raises
``ValueError`` and nothing else."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcr import h1scan
from gcr.modrep import (
    TWIST_SYMBOLS,
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


def _compound(inner):
    parts = st.lists(inner, min_size=2, max_size=3)
    return st.one_of(
        parts.map(lambda ps: m_tensor(*ps)),
        parts.map(lambda ps: m_sum(*ps)),
    )


_exprs = st.recursive(_atoms, _compound, max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_module_expressions_roundtrip(e):
    text = format_module(e)
    assert parse_module(text) == e
    assert hash(parse_module(text)) == hash(e)
    assert format_module(parse_module(text)) == text


# pieces of the grammar, so that random text reaches deep into the parser;
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
    ("(" * 400 + "1" + ")" * 400, "nested deeper"),
    ("Alt(1;" * 400 + "1" + ")" * 400, "cannot tokenize module expression 'Alt\\(1;Alt"),
    ("1[", "unexpected end of module expression '1\\['"),
    ("T(", "unexpected end of module expression 'T\\('"),
    ("", "unexpected end of module expression ''"),
    ("१[२]", "cannot tokenize module expression '१\\[२\\]'"),
    ("Alt(2; 4)", "cannot tokenize module expression 'Alt\\(2; 4\\)'"),
    ("Spin(D5; 4 + 4)", "cannot tokenize module expression 'Spin\\(D5; 4 \\+ 4\\)'"),
    ("T(r)", "expected a number, found 'r' in 'T\\(r\\)'"),
    ("W(5)", "cannot tokenize module expression 'W\\(5\\)'"),
    ("2*", "cannot tokenize module expression '2\\*'"),
    ("Sym(2; 1)", "cannot tokenize module expression 'Sym\\(2; 1\\)'"),
], ids=["deep-brackets", "deep-alt", "open-twist", "open-tilting", "empty",
        "devanagari-digits", "alt-power", "half-spin", "tilting-symbol-weight",
        "weyl-module", "dual", "symmetric-power"])
def test_module_parser_regressions(text, message):
    with pytest.raises(ValueError, match=message):
        parse_module(text)



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
