"""Exact first cohomology for rank-one modules built from twisted tilting
factors.

A *term* is a tensor product of Frobenius-twisted indecomposable tilting
modules for SL2, written as a sorted tuple of ``(m, t)`` pairs meaning
``T(m)^[t]``.  Because every restricted simple module equals the tilting
module of the same highest weight, the restrictions of the built-in
subgroup actions to unipotent-radical levels always decompose into sums of
such terms, and H^1 of each term can be computed exactly:

* a product of tiltings at one twist is tilting, hence has no H^1, and its
  indecomposable tilting summands are determined by its character;
* ``T(a) (x) T(b)^[1] = T(a + pb)`` whenever ``p - 1 <= a <= 2p - 2``, which
  also rewrites any ``T(m)`` with ``m > 2p - 2`` as a twisted product;
* for ``T(n) (x) N^[1]`` with ``n`` in the untwisted slot, the
  Lyndon-Hochschild-Serre sequence over the first Frobenius kernel G_1
  collapses: ``T(n)`` with ``p - 1 <= n <= 2p - 2`` is projective over G_1,
  restricted simples L(n) = T(n) with ``n <= p - 2`` have vanishing
  G_1-cohomology except ``H^1(G_1, L(p-2)) = L(1)^[1]``.  This yields

      n = 0:               H^1 = H^1(N)
      1 <= n <= p - 3:     H^1 = 0
      n = p - 2:           H^1 = Hom(L(1), N)
      p - 1 <= n <= 2p-3:  H^1 = 0
      n = 2p - 2:          H^1 = H^1(N)   (G_1-fixed points are trivial)

  and a term with no untwisted factor has H^1(N^[1]) = H^1(N).

The Hom dimensions come from one recursion, ``_hom(d, M)`` = dim Hom(T(d),
M) for a term M, with L(1) = T(1) and the invariants Hom(T(0), M):

* T(d) is self-dual, so it moves across an untwisted part: Hom(T(d),
  T(n) (x) N^[1]) = Hom(k, T(d) (x) T(n) (x) N^[1]) is the sum of
  Hom(T(e), N^[1]) over the summands T(e) of T(d) (x) T(n);
* with nothing twisted, Hom(k, T(e)) pairs the Weyl filtration of k with
  the good filtration of T(e) (Jantzen, Representations of Algebraic
  Groups, II.4.16): it is the multiplicity of chi(0) in T(e);
* with every factor twisted, a map T(d) -> N^[1] factors through the
  largest quotient of T(d) with trivial G_1-action, which is k for d = 0
  and d = 2p - 2, so Hom(T(d), N^[1]) = Hom(k, N) there, and 0 for the
  other d <= 2p - 3; above that the Donkin split T(d) = T(a) (x) T(b)^[1]
  moves T(b)^[1] onto M.

The module also derives restrictions from characters: a character with one
coordinate per tilting atom is peeled into products of tilting characters,
which are then placed on the atoms' twists.  This gives the alternating
powers of sums of terms, so that fundamental modules of type-A factors
restrict within the same representation, and the half-spin pieces of
type-D factors.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from collections.abc import Mapping

from .modrep import (
    a1_tilting_weights,
    a1_top_weight,
    a1_weyl_weights,
    alt_char,
    char_tensor,
    check_prime,
    donkin_split,
    nonnegative_int,
    peel_characters,
)


# -- characters ---------------------------------------------------------------

def chi_coeffs(weights) -> Counter:
    """Expansion of a weight multiset into Weyl characters chi(n)."""
    return peel_characters(weights, a1_top_weight, a1_weyl_weights)


@functools.lru_cache(maxsize=None)
def tilting_product(ms: tuple, p: int) -> tuple:
    """Indecomposable tilting summands of a product of tiltings at a single
    twist: ``(x) T(m)`` for m in ms, as sorted ((n, mult), ...).  This is
    the one-coordinate case of ``tilting_peel``."""
    char = Counter({(0,): 1})
    for m in ms:
        char = char_tensor(char, Counter((w,) for w in a1_tilting_weights(m, p)))
    return tuple(sorted((n, mult) for (n,), mult in tilting_peel(char, p)))


def _split_levels(factors):
    level0 = tuple(sorted(m for m, t in factors if t == 0))
    higher = tuple(sorted((m, t - 1) for m, t in factors if t >= 1))
    return level0, higher


@functools.lru_cache(maxsize=None)
def h1_term(factors: tuple, p: int) -> int:
    """dim H^1 of one term, the product of the T(m)^[t] of its (m, t) pairs."""
    level0, higher = _split_levels(factors)
    if not higher:
        return 0
    if not level0:
        return h1_term(higher, p)
    total = 0
    for n, mult in tilting_product(level0, p):
        if n == 0 or n == 2 * p - 2:
            total += mult * h1_term(higher, p)
        elif n == p - 2:
            total += mult * _hom(1, higher, p)
        elif n > 2 * p - 2:
            a, b = donkin_split(n, p)
            rewritten = ((a, 0), (b, 1)) + tuple((m, t + 1) for m, t in higher)
            total += mult * h1_term(tuple(sorted(rewritten)), p)
    return total


@functools.lru_cache(maxsize=None)
def _hom(d: int, factors: tuple, p: int) -> int:
    """dim Hom(T(d), M) for M the product of the twisted tilting factors,
    by the recursion of the module docstring."""
    level0, higher = _split_levels(factors)
    if level0 or not higher:
        tilts = tilting_product(tuple(sorted((d,) + level0)), p)
        if not higher:
            return sum(mult * chi_coeffs(a1_tilting_weights(e, p))[0]
                       for e, mult in tilts)
        twisted = tuple(f for f in factors if f[1])
        return sum(mult * _hom(e, twisted, p) for e, mult in tilts)
    if d == 0 or d == 2 * p - 2:
        return _hom(0, higher, p)
    if d <= 2 * p - 3:
        return 0
    a, b = donkin_split(d, p)
    return _hom(a, tuple(sorted(((b, 1),) + factors)), p)


def _term_counts(terms):
    """(term, count) pairs of a mapping from terms to counts, or of an
    iterable of terms, each counted once."""
    return terms.items() if isinstance(terms, Mapping) else zip(terms, itertools.repeat(1))


def h1_dim(terms, p: int) -> int:
    """dim H^1 of a direct sum of twisted-tilting-product terms.  The input
    is an iterable of terms or any mapping from terms to counts, and p a
    prime.  A term is a tuple or list of (m, t) tuples of ints >= 0, and
    any other raises ValueError naming it: ``h1_term``, which the scan
    calls on terms it built, checks nothing."""
    check_prime(p)
    return sum(c * h1_term(_checked_term(t), p) for t, c in _term_counts(terms))


def _checked_term(term) -> tuple:
    if isinstance(term, (tuple, list)) and all(
            type(f) is tuple and len(f) == 2 and all(map(nonnegative_int, f))
            for f in term):
        return tuple(term)
    raise ValueError(f"term {term!r} of h1_dim is no tuple of (m, t) pairs of ints >= 0")


def terms_tensor(a, b, out: dict | None = None) -> dict:
    """Tensor product of two sums of terms, each given as (term, count)
    pairs, as a dict of term -> count; added into out when given."""
    if out is None:
        out = {}
    for ta, ca in a:
        for tb, cb in b:
            key = tuple(sorted(ta + tb))
            out[key] = out.get(key, 0) + ca * cb
    return out


def term_char(term, p: int) -> Counter:
    """Weight character of a single term."""
    char = Counter({0: 1})
    for m, t in term:
        char = char_tensor(char, Counter(w * p ** t
                                         for w in a1_tilting_weights(m, p)))
    return char


def terms_char(terms, p: int) -> Counter:
    """Weight character of a sum of terms, given as ``h1_dim`` takes it."""
    out: Counter = Counter()
    for term, mult in _term_counts(terms):
        for w, c in term_char(term, p).items():
            out[w] += mult * c
    return out


# -- the tilting peel in atom coordinates ------------------------------------
#
# A restriction is derived with one coordinate per tilting atom: its
# character is then that of a module for a product of copies of SL2, one per
# atom, and the diagonal, twisted on each copy by its atom's twist, takes
# that module to the restriction.  A tilting module is determined by its
# character (Jantzen, Representations of Algebraic Groups, II.E.6), so a
# tilting module for the product is its peel into products of tilting
# characters, and the peel raises on a character that is no sum of them.

def atom_char(shapes, p: int) -> list:
    """Weights, with repetition, of the direct sum over the shapes of the
    products (x) T(m), m in shape, each atom of each shape on its own
    coordinate."""
    n = sum(map(len, shapes))
    out, i = [], 0
    for shape in shapes:
        pad = (0,) * (n - i - len(shape))
        out += [(0,) * i + w + pad
                for w in itertools.product(*(a1_tilting_weights(m, p) for m in shape))]
        i += len(shape)
    return out


def _product_top(weights):
    """The weight of greatest coordinate sum, or None when it is not
    dominant: each tilting product's own weights lie below its top."""
    top = max(weights, key=lambda w: (sum(w), w))
    return top if min(top, default=0) >= 0 else None


def tilting_peel(char, p: int) -> tuple:
    """A character in atom coordinates as read-only (tilting top,
    multiplicity) pairs, the top (m_1, ..., m_n) standing for (x) T(m_i) on
    coordinate i.  Raises ArithmeticError when the character is no sum of
    tilting products."""
    return tuple(peel_characters(
        char, _product_top,
        lambda top: itertools.product(*(a1_tilting_weights(m, p) for m in top))
    ).items())


def place_tops(peel, twists) -> Counter:
    """The terms of a peel with coordinate i at twist twists[i]; trivial
    atoms drop out."""
    out: Counter = Counter()
    for top, mult in peel:
        out[tuple(sorted((m, t) for m, t in zip(top, twists) if m))] += mult
    return out


@functools.lru_cache(maxsize=None)
def _power_peel(shape: tuple, k: int, p: int) -> tuple:
    return tilting_peel(alt_char(atom_char(shape, p), k), p)


def sum_power(terms, k: int, p: int) -> Counter:
    """Alternating k-th power of a direct sum of terms, given as (term,
    count) pairs, for k < p: every factor of every copy of every term gets
    its own coordinate, and the k-th alternating power of that character is
    peeled, once per twist-free shape.  For k < p the alternating power of
    a tilting module is a summand of its k-th tensor power, hence tilting,
    so the peel is the module."""
    if k >= p:
        raise NotImplementedError(f"alt^{k} at p={p}: exact only for k < p")
    copies = [term for term, count in terms for _ in range(count)]
    shape = tuple(tuple(m for m, _ in term) for term in copies)
    return place_tops(_power_peel(shape, k, p),
                      [t for term in copies for _, t in term])
