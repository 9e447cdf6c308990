"""Property tests of the module-expression reader (``parse_module``/
``format_module``): every expression, a sum of tensor products of atoms,
round-trips; any other text raises ``ValueError`` and nothing else, and so
does any other shape of ``ModExpr``.  The canonical form of an action keeps
its character and its text."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcr import h1scan
from gcr.modrep import (
    TWIST_SYMBOLS,
    Atom,
    ModExpr,
    format_module,
    module_weights,
    parse_module,
)

# -- module expressions -------------------------------------------------------

_twists = st.one_of(
    st.integers(0, 12),
    st.tuples(st.sampled_from(TWIST_SYMBOLS), st.integers(0, 3)),
)


def _shaped(weights, twists):
    """The one shape: a sum of one to four tensor products, each of one to
    three atoms with the given weights and twists."""
    atoms = st.builds(Atom, st.sampled_from(["simple", "tilt"]), weights, twists)
    terms = st.lists(atoms, min_size=1, max_size=3).map(tuple)
    return st.lists(terms, min_size=1, max_size=4).map(lambda ts: ModExpr(tuple(ts)))


_exprs = _shaped(st.integers(0, 40), _twists)
# int twists and small weights, so that characters stay small
_small_exprs = _shaped(st.integers(0, 8), st.integers(0, 3))


@settings(max_examples=200, deadline=None)
@given(_exprs)
def test_module_expressions_roundtrip(e):
    text = format_module(e)
    assert parse_module(text) == e
    assert hash(parse_module(text)) == hash(e)
    assert format_module(parse_module(text)) == text


@settings(max_examples=200, deadline=None)
@given(_small_exprs)
def test_canonical_action_keeps_character_and_text(e):
    """Sorting the atoms of each term and then the terms is idempotent,
    keeps the character, and writes text that reads back as itself."""
    c = h1scan.canonical_action(e)
    assert h1scan.canonical_action(c) == c
    assert module_weights(c, 7) == module_weights(e, 7)
    assert parse_module(format_module(c)) == c


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
    lambda a: ModExpr(((a, ModExpr(((a,),))),)),
    lambda a: ModExpr((ModExpr(((a,),)), (a,))),
    lambda a: ModExpr(((a, (a, a)),)),
    lambda a: ModExpr(()),
    lambda a: ModExpr(((a,), ())),
    lambda a: ModExpr(((a, tuple(a)),)),
    lambda a: ModExpr((a,)),
    lambda a: ModExpr([(a,)]),
    lambda a: ModExpr(((a._replace(kind="alt"),),)),
], ids=["sum-in-tensor", "sum-in-sum", "tensor-in-tensor", "empty-sum",
        "empty-tensor", "tuple-as-atom", "atom-as-term", "list-of-terms",
        "unknown-kind"])
def test_module_expressions_refuse_nesting(build):
    """An expression is a non-empty tuple of terms, each a non-empty tuple
    of atoms, so that text and expression are one to one: any other shape,
    a nesting or an empty sum or product, which the text could not write
    back, raises ValueError."""
    with pytest.raises(ValueError, match="a sum of tensor products of atoms"):
        build(Atom("simple", 1, 1))


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
