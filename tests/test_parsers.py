"""Property tests of the module-expression reader (``parse_module``/
``format_module``): every expression, a sum of tensor products of atoms,
round-trips; any other text raises ``ValueError`` and nothing else, and so
does any other shape of ``ModExpr``.  The canonical form of an action keeps
its character and its text."""

import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcr import h1scan
from gcr.h1scan import TWIST_SYMBOLS
from gcr.modrep import (
    Atom,
    ModExpr,
    format_module,
    module_weights,
    parse_module,
)

# -- module expressions -------------------------------------------------------

def _shaped(weights, twists):
    """The one shape: a sum of one to four tensor products, each of one to
    three atoms with the given weights and twists."""
    atoms = st.builds(Atom, st.sampled_from(["simple", "tilt"]), weights, twists)
    terms = st.lists(atoms, min_size=1, max_size=3).map(tuple)
    return st.lists(terms, min_size=1, max_size=4).map(lambda ts: ModExpr(tuple(ts)))


_exprs = _shaped(st.integers(0, 40), st.integers(0, 12))
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


_SHAPE = "a sum of tensor products of atoms"


def _bad_atom(**fields):
    """A case whose one atom has the given fields, and the error naming it."""
    atom = Atom("simple", 1, 1)._replace(**fields)
    return (lambda a: ModExpr(((a, atom),)),
            re.escape(f"atom {atom!r} needs a weight that is an int >= 0"))


@pytest.mark.parametrize("build,message", [
    (lambda a: ModExpr(((a, ModExpr(((a,),))),)), _SHAPE),
    (lambda a: ModExpr((ModExpr(((a,),)), (a,))), _SHAPE),
    (lambda a: ModExpr(((a, (a, a)),)), _SHAPE),
    (lambda a: ModExpr(()), _SHAPE),
    (lambda a: ModExpr(((a,), ())), _SHAPE),
    (lambda a: ModExpr(((a, tuple(a)),)), _SHAPE),
    (lambda a: ModExpr((a,)), _SHAPE),
    (lambda a: ModExpr([(a,)]), _SHAPE),
    (lambda a: ModExpr(((a._replace(kind="alt"),),)), _SHAPE),
    _bad_atom(twist=-1),
    _bad_atom(twist=True),
    _bad_atom(twist=("r", 0)),
    _bad_atom(weight=-1),
    _bad_atom(weight=True),
    _bad_atom(weight=1.0),
    _bad_atom(weight=(1, -1)),
    _bad_atom(weight=(1, 0, 0)),
], ids=["sum-in-tensor", "sum-in-sum", "tensor-in-tensor", "empty-sum",
        "empty-tensor", "tuple-as-atom", "atom-as-term", "list-of-terms",
        "unknown-kind", "negative-twist", "bool-twist", "symbolic-twist",
        "negative-weight", "bool-weight", "float-weight", "negative-pair-weight",
        "triple-weight"])
def test_module_expressions_refuse_nesting(build, message):
    """An expression is a non-empty tuple of terms, each a non-empty tuple
    of atoms, so that text and expression are one to one: any other shape,
    a nesting or an empty sum or product, which the text could not write
    back, raises ValueError, and so does an atom whose twist is no int
    >= 0 or whose weight is neither an int >= 0 nor a pair of them, naming
    it: "1[-1]" and "1[True]" were written, and a twist of -1 gave float
    weights."""
    with pytest.raises(ValueError, match=message):
        build(Atom("simple", 1, 1))


@pytest.mark.parametrize("text", ["1[v]", "T(4)[w+1]", "2 x 1[a]", "1[r]", "T(4)[s+1]"])
def test_twist_symbol_outside_the_alphabet_fails_in_the_parser(text):
    """The parser reads numbered twists only: v and w, which the twist
    sweep never substitutes, and r and s, which it writes as numbers before
    any text is read, are all refused."""
    with pytest.raises(ValueError, match="cannot tokenize module expression "
                       + re.escape(repr(text))):
        parse_module(text)


def test_one_twist_alphabet():
    """The sweep varies exactly the symbols of a text, the first slowest,
    and writes every symbol of the alphabet, with or without an offset, as
    its number, so that the reader reads each choice."""
    text = " + ".join(f"1[{sym}] x 2[{sym}+{k}]" for k, sym in enumerate(TWIST_SYMBOLS, 1))
    choices = list(h1scan.twist_choices([text], (), 1, "test"))
    values = list(itertools.product((0, 1), repeat=len(TWIST_SYMBOLS)))
    assert choices == [(" + ".join(f"1[{v}] x 2[{v + k}]" for k, v in enumerate(vs, 1)),)
                       for vs in values]
    assert all(parse_module(t) for (t,) in choices)
