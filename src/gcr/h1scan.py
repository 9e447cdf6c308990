"""Candidate scan: which irreducible rank-one (and G2) subgroups of Levi
factors see nonvanishing first cohomology on some level of the unipotent
radical.

The enumeration of irreducible actions per simple factor type is a built-in
table; restrictions of level summands are computed through alternating
powers (type A), the natural and half-spin modules (type D), and built-in
27- and 56-dimensional restriction rules for E6 and E7 factors, written as
golden-table rows and read, like the golden tables, by ``twist_choices``
and ``canon_factor``.

For rank-one candidates the restrictions are carried as sums of tensor
products of twisted tilting modules, on which first cohomology is computed
exactly; a character-level test would over-flag whenever an H^1-positive
composition factor sits inside a tilting summand (for instance inside
T(2p) = T(p) (x) T(1)^[1]).  G2 candidates are evaluated on composition
factors, with structurally-tilting summands pruned.

A term sum travels through the rank-one scan as read-only (term, count)
pairs, each built once for what it depends on: the canonical terms of each
candidate shape, the natural module's terms per action and p, the half-spin
classes per orthogonal action and p, and each restriction per part of a
level-H^1 key.  One walk per summand weight takes the product of its live
factors' options, each built once per walk: per candidate class, its
candidate and class indices, whether it is untwisted, its key part, the
candidate and the class.  A level-H^1 key is the options' parts, and on a
miss their restrictions, built on first use, multiply into the one dict
whose terms' H^1 is summed.  The walk keeps each positive (candidate,
class) choice with its H^1, and the reports read their outcomes there.
"""

from __future__ import annotations

import ast
import functools
import gc
import itertools
import math
import operator
import re
from collections import Counter
from dataclasses import dataclass, field, replace

from .a1coh import (atom_char, h1_term, place_tops, sum_power, terms_char,
                    terms_tensor, tilting_peel)
from .modrep import (
    TWIST_SYMBOLS,
    Atom,
    ModExpr,
    alt_char,
    atom_weights,
    format_atom,
    g2_comp_factors,
    g2_h1_irreducible,
    format_module,
    is_prime,
    module_is_tilting,
    module_subst,
    module_twists,
    module_weights,
    nonnegative_int,
    parse_module,
    spin_halves_from_char,
)
from .parabolic import level_summands, split_weight, typed_components
from .rootsystem import build_root_system


# -- canonical form for action expressions ------------------------------------

def _atom_key(a: Atom):
    return (-a.weight, a.twist)


def _term_key(term: tuple[Atom, ...]):
    return tuple(map(_atom_key, term))


def canonical_action(e: ModExpr) -> ModExpr:
    """Sort each term's atoms, then the terms, into the fixed display
    order: higher weights first, lower twists first."""
    return ModExpr(tuple(sorted((tuple(sorted(term, key=_atom_key)) for term in e.terms),
                                key=_term_key)))


# -- built-in irreducible actions per factor type ------------------------------

def _tensor_shapes(weights: tuple[int, ...], tmax: int):
    """All assignments of pairwise distinct twists to the tensor factors,
    each a term of simple atoms."""
    for tw in itertools.permutations(range(tmax + 1), len(weights)):
        yield tuple(Atom("simple", w, t) for w, t in zip(weights, tw))


# per rank, the patterns of an action on the natural module: the weights
# of each tensor-product term, () for a trivial summand
_A_PATTERNS = {
    1: [[(1,)]],
    2: [[(2,)]],
    3: [[(3,)], [(1, 1)]],
    4: [[(4,)]],
    5: [[(5,)], [(2, 1)]],
    6: [[(6,)]],
}

_D_PATTERNS = {
    4: [[(6,), ()], [(4,), (2,)], [(3, 1)], [(2,), (1, 1), ()],
        [(1, 1), (1, 1)]],
    5: [[(6,), (2,)], [(4,), (4,)], [(4,), (1, 1), ()],
        [(2,), (2,), (1, 1)], [(2,), (2,), (2,), ()]],
    6: [[(5, 1)], [(6,), (4,)], [(6,), (1, 1), ()], [(2, 1, 1)],
        [(2, 2), (2,)], [(4,), (2,), (1, 1)], [(3, 1), (1, 1)],
        [(4,), (2,), (2,), ()], [(3, 1), (2,), ()],
        [(2,), (2,), (2,), (2,)], [(2,), (1, 1), (1, 1), ()],
        [(1, 1), (1, 1), (1, 1)]],
    7: [[(6,), (6,)], [(6,), (2,), (2,), ()], [(6,), (2,), (1, 1)],
        [(4,), (4,), (1, 1)], [(4,), (4,), (2,), ()], [(4,), (3, 1), ()],
        [(4,), (2,), (2,), (2,)], [(3, 1), (2,), (2,)],
        [(4,), (1, 1), (1, 1), ()], [(2,), (2,), (2,), (1, 1), ()],
        [(2,), (2,), (1, 1), (1, 1)]],
}


@functools.lru_cache(maxsize=None)
def _shape_terms(shape: tuple[int, ...], tmax: int) -> tuple[tuple, ...]:
    """Each twisted tensor term of a weight shape once, as (sort key,
    descriptor, canonical term)."""
    out = []
    for t in _tensor_shapes(shape, tmax):
        c = canonical_action(ModExpr((t,)))
        out.append((_term_key(c.terms[0]), format_module(c), c.terms[0]))
    return tuple(out)


_TRIVIAL = (Atom("simple", 0, 0),)
_TRIVIAL_TERM = (_term_key(_TRIVIAL), format_atom(*_TRIVIAL), _TRIVIAL)


def _actions(patterns, p: int, tmax: int) -> tuple[ModExpr, ...]:
    """Every action the patterns give with restricted weights and twists up
    to tmax, as sums of pairwise distinct terms, once per descriptor.  The
    terms come canonical from ``_shape_terms``; a sum sorts them on their
    keys, as ``canonical_action`` does, and joins their descriptors."""
    out: dict[str, ModExpr] = {}
    for pattern in patterns:
        live = [shape for shape in pattern if shape]
        trivial = [_TRIVIAL_TERM] if len(live) < len(pattern) else []
        if any(w > p - 1 for shape in live for w in shape):
            continue
        # equal shapes sit next to each other in a pattern; their terms are
        # unordered, so a run of them takes strictly increasing choices
        runs = [(shape, len(list(run))) for shape, run in itertools.groupby(live)]
        for picks in itertools.product(*(
                itertools.combinations(_shape_terms(shape, tmax), n)
                for shape, n in runs)):
            terms = [t for pick in picks for t in pick]
            if len({desc for _, desc, _ in terms}) != len(terms):
                continue
            terms = sorted(terms + trivial, key=operator.itemgetter(0))
            desc = " + ".join(desc for _, desc, _ in terms)
            if desc not in out:
                out[desc] = ModExpr(tuple(c for _, _, c in terms))
    return tuple(out.values())


@functools.lru_cache(maxsize=None)
def a_type_actions(rank: int, p: int, tmax: int) -> tuple[ModExpr, ...]:
    """Irreducible rank-one actions on the natural module of A_rank, from the
    built-in table (no entries exist above rank 6)."""
    return _actions(_A_PATTERNS.get(rank, []), p, tmax)


@functools.lru_cache(maxsize=None)
def d_type_actions(rank: int, p: int, tmax: int) -> tuple[ModExpr, ...]:
    """Orthogonal irreducible rank-one actions on the natural module of
    D_rank: sums of pairwise distinct self-dual terms from the built-in
    patterns."""
    return _actions(_D_PATTERNS.get(rank, []), p, tmax)


# restriction rules for the 27-dimensional module under the built-in chains
# through E6, as golden-table rows: (factor text, constraints, template).
# The factor text names the chain and the action on each chain factor, with
# twist symbols r, s, t that the template shares; the constraints keep the
# admissible twist choices

_E6_CHAINS = [
    ("A1A5(1[r], 5[s])", (), "1[r] x 5[s] + T(8)[s] + 0"),
    ("A2G2(2[r], 6[s])", ("r!=s",), "4[r] + 2[r] x 6[s] + 0"),
    ("A1A5(1[r], 2[s] x 1[t])", ("s!=t",),
     "1[r] x 2[s] x 1[t] + 4[s] + 2[s] x 2[t] + 0"),
    # the three slots carry the same weight, so order them
    ("A2A2A2(2[r], 2[s], 2[t])", ("r<s", "s<t"),
     "2[r] x 2[s] + 2[r] x 2[t] + 2[s] x 2[t]"),
]

# the same for the 56-dimensional module through E7 (p = 7 only); the A1D6
# chain is handled separately since its second slot ranges over the D6 table

_E7_CHAINS = [
    ("A1A1(1[r], 1[s])", ("r!=s",), "6[r] x 3[s] + 4[r] x 1[s] + 2[r] x 5[s]"),
    ("A1G2(1[r], 6[s])", ("r!=s",), "3[r] x 6[s] + 1[r] x T(10)[s]"),
    ("G2C3(6[r], 5[s])", ("r!=s",), "6[r] x 5[s] + T(9)[s]"),
    ("G2C3(6[r], 2[s] x 1[t])", ("s!=r", "s!=t"),
     "6[r] x 2[s] x 1[t] + 4[s] x 1[t] + 3[t]"),
]


# -- factor candidates ---------------------------------------------------------

@dataclass(frozen=True)
class FactorCandidate:
    """An irreducible action of the scanned subgroup on one simple factor:
    enough data to describe itself, restrict any occurring fundamental
    weight, and expose its Frobenius twists.  An "a1d6" candidate's module
    is its D6 slot's action; its A1 slot's twist is twists[0]."""
    descriptor: str
    twists: tuple[int, ...]
    kind: str                      # module | chain | a1d6 | g2
    expr: ModExpr | None = None


def _module_candidate(e: ModExpr) -> FactorCandidate:
    """The candidate of a canonical action."""
    return FactorCandidate(format_module(e), tuple(module_twists(e)),
                           "module", expr=e)


# -- factor-action text: twist sweep and canonical form ----------------------

_CHAIN_RE = re.compile(r"^((?:[A-G][1-9])+)\((.+)\)$")
_VAR_RE = re.compile(rf"\b([{TWIST_SYMBOLS}])\b")


def _step(u, *vals):
    """True if u equals one swept value and another swept value is its
    successor (the adjacency condition used by one parametric row)."""
    return any(u == a and b == a + 1
               for a, b in itertools.permutations(vals, 2))


_CONSTRAINT_OPS = {ast.Add: operator.add, ast.Mult: operator.mul,
                   ast.Eq: operator.eq, ast.NotEq: operator.ne,
                   ast.Lt: operator.lt}


def _constraint(text: str, ref: str):
    """One row constraint as a predicate on the swept twist values.  It may
    use twist names, integers, +, *, one ==, != or < and calls of step;
    anything else raises ValueError naming the row."""
    try:
        body = ast.parse(text, mode="eval").body
    except SyntaxError:
        raise ValueError(_BAD_CONSTRAINT.format(ref, text)) from None
    return functools.partial(_constraint_value, body, text, ref)


_BAD_CONSTRAINT = "row {}: unsupported constraint {!r}"


def _constraint_value(node, text: str, ref: str, params):
    """The value of one parsed node of the constraint text of row ref under
    the twist values params.  A module-level function, not a closure over
    itself, so that a predicate is freed by reference counting alone."""
    if isinstance(node, ast.Name) and node.id in params:
        return params[node.id]
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return node.value
    if isinstance(node, ast.BinOp) and type(node.op) in _CONSTRAINT_OPS:
        return _CONSTRAINT_OPS[type(node.op)](
            _constraint_value(node.left, text, ref, params),
            _constraint_value(node.right, text, ref, params))
    if (isinstance(node, ast.Compare) and len(node.ops) == 1
            and type(node.ops[0]) in _CONSTRAINT_OPS):
        return _CONSTRAINT_OPS[type(node.ops[0])](
            _constraint_value(node.left, text, ref, params),
            _constraint_value(node.comparators[0], text, ref, params))
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "step" and not node.keywords):
        return _step(*(_constraint_value(a, text, ref, params) for a in node.args))
    raise ValueError(_BAD_CONSTRAINT.format(ref, text))


def _chain_slots(text: str):
    """(name, slot texts) of a chain text; (None, [text]) for another."""
    m = _CHAIN_RE.match(text)
    return (m[1], [s.strip() for s in m[2].split(",")]) if m else (None, [text])


_CHAIN_NAMES = {_chain_slots(text)[0] for text, _, _ in _E6_CHAINS + _E7_CHAINS} | {"A1D6"}
_G2_WEIGHT_RE = re.compile(r"^\(\d+,\d+\)$")


def twist_choices(texts, constraints, tmax: int, ref: str):
    """Each choice of twists 0..tmax for the ``TWIST_SYMBOLS`` of the texts
    and constraints that all constraints admit, as a symbol -> twist dict;
    the symbols in alphabetical order, the first varying slowest.  A
    constraint outside the grammar raises ValueError naming ref."""
    symbols = sorted(set(_VAR_RE.findall(" ".join((*texts, *constraints)))))
    tests = [_constraint(c, ref) for c in constraints]
    for values in itertools.product(range(tmax + 1), repeat=len(symbols)):
        subst = dict(zip(symbols, values))
        if all(test(subst) for test in tests):
            yield subst


def canon_factor(text: str, tmax: int,
                 subst: dict[str, int] | None = None) -> FactorCandidate | None:
    """Canonicalise one factor-action text, with its symbolic twists
    resolved by subst, into the scan's form of a factor action; None if a
    twist leaves the window.  The text is a module expression, which the
    factor carries, a chain the scan builds (E6 and E7 chains and A1D6),
    whose twists are its slots' non-trivial ones, or a G2 factor, "max F4"
    or a weight (a,b), with none.  Any other text raises ValueError naming
    it."""
    if text == "max F4" or _G2_WEIGHT_RE.match(text):
        return FactorCandidate(text, (), "g2")
    name, slots = _chain_slots(text)
    if name is not None and name not in _CHAIN_NAMES:
        raise ValueError(f"factor {text!r} names no chain the scan builds "
                         f"({', '.join(sorted(_CHAIN_NAMES))})")
    if name is not None and len(slots) != len(name) // 2:   # a type is two characters
        raise ValueError(f"chain {name} has {len(name) // 2} factors, but factor "
                         f"{text!r} gives it {len(slots)}")
    exprs = [canonical_action(module_subst(parse_module(s), subst)) for s in slots]
    twists = tuple(t for e in exprs for t in module_twists(e))
    if any(t > tmax or t < 0 for t in twists):
        return None
    if name:
        return FactorCandidate(f"{name}({', '.join(map(format_module, exprs))})",
                               twists, "chain")
    return _module_candidate(exprs[0])


def _candidates_from_chains(chains, p: int, tmax: int) -> list[FactorCandidate]:
    """One candidate per chain and admissible twist choice, its module the
    chain's template with the slot twists substituted; a chain with a slot
    weight above p - 1 has none."""
    out = []
    for text, constraints, template in chains:
        slots = [parse_module(s) for s in _chain_slots(text)[1]]
        if any(a.weight > p - 1 for e in slots for term in e.terms for a in term):
            continue
        for subst in twist_choices((text,), constraints, tmax, text):
            out.append(replace(canon_factor(text, tmax, subst),
                               expr=module_subst(parse_module(template), subst)))
    return out


@functools.lru_cache(maxsize=None)
def e6_factor_candidates(p: int, tmax: int) -> tuple[FactorCandidate, ...]:
    return tuple(_candidates_from_chains(_E6_CHAINS, p, tmax))


@functools.lru_cache(maxsize=None)
def e7_factor_candidates(p: int, tmax: int) -> tuple[FactorCandidate, ...]:
    if p != 7:
        return ()
    out = _candidates_from_chains(_E7_CHAINS, p, tmax)
    # rank-one subgroups of the A1 D6 subsystem: second slot runs over the
    # D6 table, and the 56-dimensional module restricts as
    # 1[a] x M plus a half-spin of M
    d6 = [(m, format_module(m), module_twists(m))
          for m in d_type_actions(6, p, tmax)]
    for a in range(tmax + 1):
        for m, desc, twists in d6:
            out.append(FactorCandidate(f"A1D6({format_atom(Atom('simple', 1, a))}, {desc})",
                                       (a, *twists), "a1d6", expr=m))
    return tuple(out)


_G2_FACTOR_ACTIONS = {
    t: ModExpr(tuple((Atom("simple", w, 0),) for w in weights))
    for t, weights in (("A6", [(1, 0)]), ("D4", [(1, 0), (0, 0)]), ("D7", [(0, 1)]),
                       ("E6", [(2, 0), (0, 0)]))   # E6: the 27 through F4
}


def g2_factor_candidate(type_name: str) -> FactorCandidate | None:
    e = _G2_FACTOR_ACTIONS.get(type_name)
    if e is None:
        return None
    desc = "max F4" if type_name == "E6" else format_module(e)
    return FactorCandidate(desc, (0,), "g2", expr=e)


@functools.lru_cache(maxsize=None)
def factor_candidates(type_name: str, p: int, tmax: int) -> tuple[FactorCandidate, ...]:
    """All built-in irreducible rank-one actions for one simple factor; the
    candidates are frozen, so one tuple serves every call.  The factor is
    of a type that a proper Levi of E6, E7 or E8 has, A, D, E6 or E7; any
    other raises ValueError naming it."""
    fam, rank = type_name[0], int(type_name[1:])
    if fam == "A":
        return tuple(_module_candidate(e) for e in a_type_actions(rank, p, tmax))
    if fam == "D":
        return tuple(_module_candidate(e) for e in d_type_actions(rank, p, tmax))
    if type_name in ("E6", "E7"):
        return (e6_factor_candidates if rank == 6 else e7_factor_candidates)(p, tmax)
    raise ValueError(f"no candidate table for a factor of type {type_name}")


# -- restriction of a summand weight through a factor candidate ----------------

def _node(type_name: str, weight: tuple[int, ...]):
    """Which module of the factor a summand weight names: None for the
    trivial module; "natural" for the natural module, the 27 of E6 (weight
    1 or 6) or the 56 of E7 (weight 7); ("alt", k) for the k-th alternating
    power of the natural module of type A; ("spin", i) for the half-spin
    module on node rank - 1 + i of type D.  Any other weight has no
    restriction rule."""
    fam, rank = type_name[0], int(type_name[1:])
    nz = [i for i, x in enumerate(weight) if x]
    if not nz:
        return None
    if len(nz) > 1 or weight[nz[0]] != 1:
        raise NotImplementedError(f"summand weight {weight} is not fundamental")
    pos = nz[0] + 1
    if fam == "A":
        k = min(pos, rank + 1 - pos)
        return "natural" if k == 1 else ("alt", k)
    if (type_name, pos) in (("E6", 1), ("E6", 6), ("E7", 7)) or (fam, pos) == ("D", 1):
        return "natural"
    if fam == "D" and pos in (rank - 1, rank):
        return ("spin", pos - rank + 1)
    raise NotImplementedError(f"no restriction rule for {type_name} weight {weight}")


def _tilting_term(term: tuple[Atom, ...], p: int) -> tuple:
    """One term of an expression as a twisted-tilting-product term.
    Restricted simples are tilting modules of the same highest weight, so
    the atoms map directly onto (weight, twist) factors, and the trivial
    ones drop out; a simple atom L(m) with m > p - 1, which is no tilting
    module, raises ValueError naming it."""
    for a in term:
        if a.kind == "simple" and a.weight > p - 1:
            raise ValueError(f"simple atom {format_atom(a)} at p={p} is not "
                             "a tilting module: its weight exceeds p - 1")
    return tuple(sorted((a.weight, a.twist) for a in term if a.weight))


@functools.lru_cache(maxsize=None)
def _frozen_terms(e: ModExpr, p: int) -> tuple:
    """The expression's twisted-tilting-product terms as (term, count)
    pairs, built once per expression and p; a tuple, so no caller can
    change the shared value."""
    return tuple(Counter(_tilting_term(term, p) for term in e.terms).items())


@functools.lru_cache(maxsize=None)
def _shape_spinors(shape: tuple[int, ...], p: int) -> tuple[tuple, ...]:
    """Spin factors of an orthogonal summand of the given weight shape, one
    coordinate per atom, as ``tilting_peel`` pairs: the spin_weights of its
    natural character, peeled into products of tilting characters.  An
    odd-dimensional summand takes one more zero weight and gives its one
    spin factor, the first of two equal halves; an even one gives both
    halves.  The peel raises when a spin character is no sum of tilting
    products."""
    natural = Counter(atom_char((shape,), p))
    odd = sum(natural.values()) % 2
    natural[(0,) * len(shape)] += odd
    halves = spin_halves_from_char(natural, sum(natural.values()) // 2)
    try:
        return tuple(tilting_peel(half, p) for half in halves[:2 - odd])
    except ArithmeticError as exc:
        raise ArithmeticError(f"the spin character of summand shape {shape} at "
                              f"p={p} is not a sum of tilting products: {exc}") from None


@functools.lru_cache(maxsize=None)
def _summand_spinors(term: tuple[Atom, ...], p: int) -> tuple[tuple, ...]:
    """Spin factors of one orthogonal summand, a term of an expression, as
    read-only (term, multiplicity) pairs, with the tops placed on the
    twists of its non-trivial atoms: one factor for an odd-dimensional
    summand, the two halves for an even-dimensional one."""
    pairs = _tilting_term(term, p)[::-1]   # highest weight first, as errors name the shape
    return tuple(tuple(place_tops(half, [t for _, t in pairs]).items())
                 for half in _shape_spinors(tuple(m for m, _ in pairs), p))


def spin_half_terms(expr: ModExpr, p: int) -> tuple[dict, dict]:
    """The two half-spin modules of a D-factor, restricted through the given
    orthogonal action, as dicts of term -> count, multiplied straight from
    the summands' spin factors.  With no odd-dimensional summands the
    half-spin pairs of the even summands split by sign parity; otherwise
    both restrictions agree and carry multiplicity 2^(odd/2 - 1)."""
    odd, even = [], []
    for term in expr.terms:
        factors = _summand_spinors(term, p)
        if len(factors) == 1:
            odd += factors
        else:
            even.append(factors)
    if odd:
        if len(odd) % 2:
            raise ArithmeticError(f"action {format_module(expr)} has an odd number "
                                  "of odd-dimensional summands")
        half = {(): 2 ** (len(odd) // 2 - 1)}
        for piece in odd:
            half = terms_tensor(half.items(), piece)
        for plus, minus in even:
            half = terms_tensor(half.items(), minus, terms_tensor(half.items(), plus))
        return half, half
    even_half, odd_half = {(): 1}, {}
    for plus, minus in even:
        even_half, odd_half = (
            terms_tensor(odd_half.items(), minus, terms_tensor(even_half.items(), plus)),
            terms_tensor(odd_half.items(), plus, terms_tensor(even_half.items(), minus)))
    return even_half, odd_half


def factor_assignments(cand: FactorCandidate, type_name: str, p: int):
    """Conjugacy classes of the factor action, one assignment per class:
    an action on a D factor, or on the D6 of an A1D6 chain, has the one or
    two classes of ``_spin_classes``, A1 and G2 candidates alike; an
    action on another factor has one class and carries no choice."""
    if type_name[0] == "D" or cand.kind == "a1d6":
        return _spin_classes(cand.expr, p)
    return (None,)


@functools.lru_cache(maxsize=None)
def _spin_classes(expr: ModExpr, p: int) -> tuple:
    """The classes of the orthogonal action expr, once per module and p
    (shared by a D candidate and every A1D6 candidate through its D6
    action), each the pair of restrictions to the two half-spin nodes: term
    sums for a rank-one action, characters for a G2 one, as sorted (term or
    weight, multiplicity) pairs, the pair in sorted order.

    X acts on V, the sum of its summands V_i: pairwise non-isomorphic,
    non-degenerate and irreducible.  So C_{O(V)}(X) is generated by the -1
    on each V_i, of determinant (-1)^{dim V_i}.  If some V_i has odd
    dimension (the product of its tensor atoms'), the O(V)-class of X is
    one SO(V)-class.  Otherwise it is two, exchanged by the graph
    automorphism that swaps the half-spin nodes: the second class carries
    the halves swapped, even where they are equal (G2 on D7 acts as 14)."""
    dims = [math.prod(_atom_dim(a, p) for a in term) for term in expr.terms]
    halves = (spin_halves_from_char(module_weights(expr, p), sum(dims) // 2)
              if isinstance(expr.terms[0][0].weight, tuple) else spin_half_terms(expr, p))
    halves = tuple(sorted(map(_char_fp, halves)))
    return (halves,) if any(d % 2 for d in dims) else (halves, halves[::-1])


@functools.lru_cache(maxsize=None)
def _atom_dim(atom: Atom, p: int) -> int:
    return sum(atom_weights(atom, p).values())


_UNIT_TERMS = (((), 1),)


def factor_restriction_terms(cand: FactorCandidate, type_name: str,
                             weight: tuple[int, ...], p: int,
                             assignment) -> tuple:
    """Terms of the factor's irreducible module of the given high weight,
    restricted to one class of a rank-one candidate subgroup, as read-only
    (term, count) pairs.  The natural module's pairs are ``_frozen_terms``'
    and a half-spin node's are the assignment's half, handed out as they
    are; an alternating power or an A1D6 natural module is built and frozen
    once per call.  The assignment fixes which half-spin restriction sits
    on which of the two spin nodes."""
    node = _node(type_name, weight)
    if node is None:
        return _UNIT_TERMS
    if node == "natural":
        natural = _frozen_terms(cand.expr, p)
        if cand.kind != "a1d6":
            return natural
        # the 56 restricts as 1[a] x M plus a half-spin of M
        return tuple(terms_tensor(((((1, cand.twists[0]),), 1),), natural,
                                  dict(assignment[1])).items())
    kind, i = node
    if kind == "alt":
        return tuple(sum_power(_frozen_terms(cand.expr, p), i, p).items())
    return assignment[i]


def factor_restriction_g2(cand: FactorCandidate, type_name: str,
                          weight: tuple[int, ...], p: int, assignment):
    """(tilting?, character) of a G2 candidate's restriction.  The flag is
    the prune rule, read off the node: the natural module is tilting when
    ``module_is_tilting`` says so, and so is Lambda^k of it, a summand of
    its k-th tensor power for k < p; a half-spin never is.  Lambda^k with
    k >= p raises NotImplementedError naming k and p.  The scan hands over
    live weights only, so a trivial one raises ValueError."""
    node = _node(type_name, weight)
    if node is None:
        raise ValueError(f"trivial {type_name} weight {weight} has no G2 restriction")
    if node == "natural":
        return module_is_tilting(cand.expr, p), module_weights(cand.expr, p)
    kind, i = node
    if kind == "alt":
        if i >= p:
            raise NotImplementedError(f"alt^{i} at p={p}: exact only for k < p")
        return (module_is_tilting(cand.expr, p),
                alt_char(list(module_weights(cand.expr, p).elements()), i))
    return False, Counter(dict(assignment[i]))


def char_h1_factors(char: Counter, p: int) -> list:
    """G2 composition factors of the character with nonzero H^1."""
    return [w for w in g2_comp_factors(char, p) if g2_h1_irreducible(w, p)]


# -- the scan ------------------------------------------------------------------

@dataclass
class CandidateReport:
    """One candidate product on one parabolic.  ``class_units`` holds one
    ``class_unit`` per flagged class, so equal units stand for distinct
    classes; the class count and the flag are read off them."""
    levi_type: str
    x_type: str
    actions: tuple[str, ...]
    # (level, dim H^1) for A1, (level, H^1-positive G2 factors) for G2
    hits: list = field(default_factory=list)
    pruned: list = field(default_factory=list)
    parabolics: list = field(default_factory=list)
    class_units: list = field(default_factory=list)

    @property
    def classes(self) -> int:
        return len(self.class_units)

    @property
    def flagged(self) -> bool:
        return self.classes > 0


def _char_fp(char: Counter):
    """Hashable fingerprint of a character."""
    return tuple(sorted(char.items()))


@functools.lru_cache(maxsize=None)
def _summand_weights(name: str, levi: tuple[int, ...]):
    """Factor types; distinct summand weights with their live (non-trivial)
    factor indices; (level, weight index) per summand, by level and then
    least root, read from the radical's shape keys.  Trivial summands are
    dropped before any weight is split: X is reductive, so H^1(X, k) = 0,
    and a summand is trivial exactly when its flat weight is zero.  The
    factors are the ``typed_components`` components in their order, and a
    flat weight lists their nodes in turn, so ``split_weight`` cuts each
    distinct one into per-factor weights once.  All three are tuples, since
    every caller shares them."""
    rs = build_root_system(name)
    typed = typed_components(rs, levi)
    ids: dict[tuple, int] = {}
    out = [(lvl, ids.setdefault(flat, len(ids)))
           for _, lvl, flat in sorted(level_summands(rs, levi), key=operator.itemgetter(1))
           if any(flat)]
    distinct = []
    for flat in ids:
        weights = split_weight([c for _, c in typed], flat)
        distinct.append((weights, tuple(k for k, w in enumerate(weights) if any(w))))
    return tuple(t for t, _ in typed), tuple(distinct), tuple(out)


def scan_parabolic(name: str, levi: tuple[int, ...], p: int,
                   tmax: int = 2) -> list[CandidateReport]:
    """Evaluate every built-in candidate subgroup against the levels of one
    standard parabolic.  Candidates whose minimal Frobenius twist is positive
    are skipped (they repeat an untwisted candidate).  Returns the G2 report,
    flagged or not, since it may carry pruned terms, and the flagged A1
    reports only, in candidate order: an unflagged A1 report has neither
    hits nor pruned terms, and ``scan_group`` keeps flagged rows only.  Each
    report's classes are those of ``factor_assignments``, one class unit per
    flagged class.  A group other than E6, E7 or E8 (the built-in
    candidates and the paper's tables are theirs), a p not prime and good
    for the group as the paper assumes (at least 5; 7 for E8), or a tmax
    not an int >= 0, raises ValueError naming all three; then a Levi that
    is no tuple of distinct nodes 1..rank raises ValueError naming the
    group and the Levi."""
    rs = build_root_system(name)
    least = 7 if rs.name == "E8" else 5
    good = is_prime(p) and p >= least
    if rs.kind != "E" or not good or not nonnegative_int(tmax):
        raise ValueError(f"cannot scan {rs.name} at p={p!r}, tmax={tmax!r}: " + (
            "the group must be E6, E7 or E8" if rs.kind != "E"
            else f"p must be a prime good for {rs.name}, at least {least}" if not good
            else "tmax must be an int >= 0"))
    typed_components(rs, levi)          # refuses a bad Levi before the cache
    types, distinct, summands = _summand_weights(name, levi)
    if not types:
        return []
    reports = []
    if p == 7 and len(types) == 1:
        cand = g2_factor_candidate(types[0])
        if cand is not None:
            reports.append(_evaluate(types, (cand,), "G2", distinct, summands, p))
    per_factor = [factor_candidates(t, p, tmax) for t in types]
    if all(per_factor):
        records = [_walk(types, per_factor, weights, live, p, tmax)
                   for weights, live in distinct]
        for idx in sorted(_flagging_products(per_factor, distinct, records)):
            combo = tuple(cands[i] for cands, i in zip(per_factor, idx))
            reports.append(_evaluate(types, combo, "A1", distinct, summands, p,
                                     (idx, records)))
    return reports


def _flagging_products(per_factor, distinct, records) -> set:
    """Index tuples of the candidate products, untwisted on some factor,
    that some class flags: each positive choice of a summand weight's walk
    record flags every product that extends its candidates."""
    untwisted = [[0 in c.twists for c in cands] for cands in per_factor]
    flagged = set()
    for (_, live), record in zip(distinct, records):
        for sub in {tuple(i for i, _ in choice) for choice in record}:
            fixed = dict(zip(live, sub))
            ranges = [(fixed[k],) if k in fixed else range(len(cands))
                      for k, cands in enumerate(per_factor)]
            flagged.update(idx for idx in itertools.product(*ranges)
                           if any(u[i] for u, i in zip(untwisted, idx)))
    return flagged


def _walk(types, per_factor, weights, live, p, tmax) -> dict:
    """The record of one summand weight in ``_level_h1_memo().walks``:
    {((candidate index, class index) per live factor): dim H^1} for its
    positive choices.  The summand's H^1 depends only on the live factors'
    candidates and classes, and (type, p, tmax) fixes the candidate list,
    so each walk key is walked on its first lookup and read by every Levi
    that asks again.  Each option is built once per walk: (candidate
    index, class index, untwisted?, key part, candidate, assignment).  A
    walk that covers every factor skips the choices twisted on all of
    them, which no product reaches, so the memo gets the keys of the
    untwisted products and no others."""
    memo = _level_h1_memo()
    covers = len(live) == len(types)
    key = (p, tmax, covers, tuple((types[k], weights[k]) for k in live))
    record = memo.walks.get(key)
    if record is None:
        options = [[(i, j, 0 in c.twists, (types[k], c.descriptor, j, weights[k]), c, a)
                    for i, c in enumerate(per_factor[k])
                    for j, a in enumerate(factor_assignments(c, types[k], p))]
                   for k in live]
        record = memo.walks[key] = {}
        for choice in itertools.product(*options):
            if covers and not any(option[2] for option in choice):
                continue
            h1 = _a1_outcome(p, choice, memo)
            if h1:
                record[tuple(option[:2] for option in choice)] = h1
    return record


def _restriction(p: int, part: tuple, cand: FactorCandidate, assignment) -> tuple:
    """``factor_restriction_terms`` of one key part, built once per (p,
    part)."""
    memo = _restriction_memo()
    key = (p, part)
    if key not in memo:
        type_name, _, _, weight = part
        memo[key] = factor_restriction_terms(cand, type_name, weight, p, assignment)
    return memo[key]


def class_unit(combo, p, assign):
    """Invariant description of one class: per factor, either None or the
    ordered triple of characters on the natural and the two spin nodes."""
    unit = []
    for c, a in zip(combo, assign):
        if a is None:
            unit.append(None)
        else:
            halves = [h if c.kind == "g2" else _char_fp(terms_char(dict(h), p))
                      for h in a]
            unit.append((_char_fp(module_weights(c.expr, p)), *halves))
    return tuple(unit)


class _LevelMemo(dict):
    """The level-H^1 table, carrying the walk table of ``_walk`` as
    ``walks``."""
    def __init__(self):
        super().__init__()
        self.walks: dict = {}


@functools.cache
def _level_h1_memo() -> _LevelMemo:
    """Level H^1 of A1 candidates, shared by every parabolic: maps (p,
    ((factor type, candidate descriptor, class index, summand weight) per
    live factor)) to dim H^1; trivial factors drop out of the product.
    Each inner tuple is the key part of one ``_walk`` option, built once
    per walk and shared by every key that holds it.  Descriptors are
    distinct within a factor type, so they stand for the candidates.  Its
    ``walks`` attribute maps each walk key (p, tmax, covers, ((factor type,
    summand weight) per live factor)) to its ``_walk`` record, whose dims
    are those of the H^1 keys its choices name.  ``len`` counts H^1 keys
    only, and one ``_level_h1_memo.cache_clear()`` drops both tables."""
    return _LevelMemo()


def _a1_outcome(p, parts, memo):
    """dim H^1 of one summand under one class of an A1 candidate: the
    tensor product of its restrictions to the live factors, given as one
    ``_walk`` option per live factor.  The key is p with the options' key
    parts.  On a miss the options' restrictions, from ``_restriction``,
    multiply, one ``terms_tensor`` per further factor, and each term's
    H^1, times its count, is summed straight from the pairs."""
    key = (p, tuple([option[3] for option in parts]))
    h1 = memo.get(key)
    if h1 is None:
        pairs = _restriction(p, *parts[0][3:])
        for option in parts[1:]:
            pairs = terms_tensor(pairs, _restriction(p, *option[3:])).items()
        h1 = memo[key] = sum(count * h1_term(term, p) for term, count in pairs)
    return h1


@functools.cache
def _restriction_memo() -> dict:
    return {}


def _evaluate(types, combo, x_type, distinct, summands, p,
              walked=None) -> CandidateReport:
    """The report of one candidate product, with one class unit per flagged
    class.  Each class's outcome is worked out once per distinct summand
    weight: dim H^1 for A1, read from the walk records, the H^1-positive
    composition factors for G2.  An A1 product comes with walked, its
    candidate indices and the record of each distinct weight.  The
    summands read the outcomes off in order, and a positive one is a hit,
    unless it is a G2 outcome on a tilting summand, which is pruned."""
    rep = CandidateReport("+".join(types), x_type, tuple(c.descriptor for c in combo))
    assign_lists = [factor_assignments(c, t, p) for c, t in zip(combo, types)]
    for classes in itertools.product(*(range(len(a)) for a in assign_lists)):
        assign = [a[j] for a, j in zip(assign_lists, classes)]
        if x_type == "G2":
            # scan_parabolic builds G2 candidates for one-factor Levis only
            (c,), (t,), (a,) = combo, types, assign
            g2 = [factor_restriction_g2(c, t, w, p, a) for (w,), _ in distinct]
            tilting = [flag for flag, _ in g2]
            outcomes = [char_h1_factors(char, p) for _, char in g2]
        else:
            idx, records = walked
            tilting = [False] * len(distinct)
            outcomes = [record.get(tuple((idx[k], classes[k]) for k in live), 0)
                        for (_, live), record in zip(distinct, records)]
        flagged = False
        for lvl, k in summands:
            if outcomes[k] and tilting[k]:
                rep.pruned.append((lvl, outcomes[k]))
            elif outcomes[k]:
                flagged = True
                if (lvl, outcomes[k]) not in rep.hits:
                    rep.hits.append((lvl, outcomes[k]))
        if flagged:
            rep.class_units.append(class_unit(combo, p, assign))
    return rep


@dataclass
class ScanResult:
    """Flagged rows keyed (levi type, X type, action tuple), plus the
    candidates that show a cohomology-positive composition factor pruned
    away by a tilting argument without ever being flagged, and the (group,
    p, tmax) scanned."""
    rows: dict
    pruned_nonrows: list
    group: str
    p: int
    tmax: int


def scan_group(name: str, p: int, tmax: int = 2) -> ScanResult:
    """Evaluate every built-in candidate on every standard parabolic.
    ``scan_parabolic`` refuses the group, p and tmax on the first, empty
    Levi, before any work.

    The cyclic garbage collector is paused for the scan, and left enabled
    or disabled afterwards as it was on entry, also when the scan raises.
    The scan builds no reference cycles, so reference counting alone frees
    all it drops, and a collection would only traverse the caches it fills;
    ``test_scan_and_diff_build_no_cycles`` backs this for the four golden
    tables and their diffs.  Before an enabled collector resumes, every
    tracked object moves to the oldest generation (``gc.freeze`` then
    ``gc.unfreeze``, which also zeroes the young count), so the first
    allocation after the scan does not start a collection that traverses
    the caches and frees nothing.  The caches live as long as the process,
    so they gain nothing from the young generations; a cycle among the
    caller's own young objects moves with them and waits for the next full
    collection, and objects the caller froze with ``gc.freeze`` are
    unfrozen into the oldest generation.  A collector disabled on entry is
    left untouched.  Only the scan is paused: ``diff_badx`` pauses the
    collector just for a scan it runs itself."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        rs = build_root_system(name)
        nodes = list(range(1, rs.rank + 1))
        rows: dict = {}
        pruned: dict = {}
        for k in range(rs.rank):
            for levi in itertools.combinations(nodes, k):
                for rep in scan_parabolic(name, tuple(levi), p, tmax):
                    key = (rep.levi_type, rep.x_type, rep.actions)
                    if rep.flagged:
                        if key in rows:
                            rows[key].parabolics.append(levi)
                        else:
                            rep.parabolics = [levi]
                            rows[key] = rep
                    elif rep.pruned and key not in pruned:
                        pruned[key] = rep.pruned
    finally:
        if enabled:
            gc.freeze()
            gc.unfreeze()
            gc.enable()
    nonrows = [(k[0], k[1], k[2], v) for k, v in sorted(pruned.items())]
    return ScanResult(rows, nonrows, rs.name, p, tmax)
