"""Standard parabolics: radical filtration by levels and the Levi action.

For a subset J of simple roots, the radical of the standard parabolic P_J
has root set {positive roots with a coefficient outside J}, graded by the
level (sum of those outside coefficients).  Each level is a module for the
derived Levi; its weight spaces are root spaces.  The roots of a level with
given coefficients outside J form a shape, and each shape is an irreducible
Levi module whose highest weight is that of its highest root (Azad, Barry
and Seitz, Comm. Algebra 18 (1990)), so a level is the sum of its shapes.

A root's shape key is its tuple of coefficients outside J, and its level
is the key's sum; each reader takes the keys afresh, with one ``map`` over
the positive roots, and nothing is kept per Levi.  The roots are sorted by
height, so ``dict(zip(keys, range(N)))`` puts each key where it first
occurs, at its shape's least root, and keeps its last value, the index of
the shape's highest root, which is unique.  ``level_summands`` reads the
summands off that dict, and the scan, ``radical_levels``,
``decompose_level`` and ``verify_levels`` all read the same keys; the last
two read them once per call and take the summands from the same list.

``verify_levels`` is the independent check of the summands: per Levi it
compares one multiset, the (shape key, weight) pairs of the radical's
roots, with the one the summands' characters give, each keyed by its
shape.  A summand's character is the product of its components'
Freudenthal characters, built once per (factor types, per-factor weights)
for the process, since the same product recurs across Levis.

``typed_components`` is the one checked reader of a Levi: it refuses a
Levi that is no tuple of distinct nodes 1..rank, and gives the type and
the standard-ordered nodes of each component, computed once per (root
system, Levi).  It lists the components in the one factor order of the
package, by kind, rank and least node, so a flat weight read against its
nodes in turn is already in factor order.  ``levi_components`` and
``component_type`` are readers built on it; ``_summand_weights`` in the
scan and ``verify_levels`` take a Levi's types and nodes from it in one
read.
"""

from __future__ import annotations

import functools
import itertools
import operator
from collections import Counter
from types import MappingProxyType

from .rootsystem import Root, RootSystem


def levi_components(rs: RootSystem, levi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Connected components of the sub-Dynkin diagram on the 1-based nodes
    in levi, in ``typed_components``' order, each ordered in the standard
    numbering of its type: a new list on every call."""
    return [nodes for _, nodes in typed_components(rs, levi)]


def typed_components(rs: RootSystem, levi: tuple[int, ...]) -> tuple[tuple, ...]:
    """(type, ordered nodes) of each component of the Levi, by kind, rank
    and least node, computed once per (rs, levi).  A Levi that is no tuple
    of distinct ints in 1..rank raises ValueError naming the group and the
    Levi, before the cache, whose keys take 2.0 and True for int nodes,
    would read (1, 1) as (1,) and cannot hash a list."""
    if not (type(levi) is tuple and all(type(i) is int and 1 <= i <= rs.rank for i in levi)
            and len(set(levi)) == len(levi)):
        raise ValueError(f"Levi {levi} of {rs.name} must list nodes 1..{rs.rank}, "
                         "each once, as a tuple")
    return _components(rs, levi)


@functools.cache
def _components(rs: RootSystem, levi: tuple[int, ...]) -> tuple[tuple, ...]:
    nodes = sorted(set(levi))
    adj = {i: [] for i in nodes}
    for i in nodes:
        for j in nodes:
            if i < j and rs.cartan[i - 1][j - 1] != 0:
                adj[i].append(j)
                adj[j].append(i)
    seen: set[int] = set()
    comps = []
    for start in nodes:
        if start in seen:
            continue
        comp = [start]
        seen.add(start)
        k = 0
        while k < len(comp):
            for nb in adj[comp[k]]:
                if nb not in seen:
                    seen.add(nb)
                    comp.append(nb)
            k += 1
        comps.append(_order_component(sorted(comp), adj))
    comps.sort(key=lambda c: (c[0][0], int(c[0][1:]), min(c[1])))
    return tuple(comps)


def _order_component(nodes: list[int], adj) -> tuple[str, tuple[int, ...]]:
    """The type of one component and its nodes in that type's standard
    order: a chain is type A, a fork with two one-node arms type D, and one
    with arms of one and two nodes type E."""
    deg = {i: sum(1 for j in adj[i] if j in nodes) for i in nodes}
    if len(nodes) == 1:
        return "A1", (nodes[0],)
    forks = [i for i in nodes if deg[i] == 3]
    if not forks:
        # chain; start from the smaller-numbered end
        start = min(i for i in nodes if deg[i] == 1)
        return f"A{len(nodes)}", _walk_chain(start, nodes, adj)
    fork = forks[0]
    arms = sorted((_walk_chain(nb, nodes, adj, fork) for nb in adj[fork] if nb in nodes),
                  key=lambda a: (len(a), a[0]))
    if len(arms[0]) == 1 and len(arms[1]) == 1:
        # type D: long arm first, then fork, then the two leaves
        return f"D{len(nodes)}", (*reversed(arms[2]), fork,
                                  *sorted([arms[0][0], arms[1][0]]))
    # type E: node 2 is the length-1 arm, nodes 1,3 the length-2 arm
    if len(arms[0]) != 1 or len(arms[1]) != 2:
        raise ArithmeticError(
            f"Levi component on nodes {nodes} has arms of lengths "
            f"{[len(a) for a in arms]}: neither type D nor type E")
    short, mid, long = arms
    return f"E{len(nodes)}", (mid[1], short[0], mid[0], fork, *long)


def component_type(rs: RootSystem, comp: tuple[int, ...]) -> str:
    """Dynkin type of one connected component, as ``levi_components``
    orders it; nodes that are not one component raise ValueError."""
    comps = typed_components(rs, comp)
    if len(comps) != 1:
        raise ValueError(f"nodes {comp} of {rs.name} are not one component")
    return comps[0][0]


def _walk_chain(start: int, nodes: list[int], adj, prev=None) -> tuple[int, ...]:
    """The nodes from start along a chain to its end, walking away from
    prev: from an end of a type-A component, or from a fork along an arm."""
    out = [start]
    while True:
        nxt = [j for j in adj[out[-1]] if j in nodes and j != prev]
        if not nxt:
            return tuple(out)
        prev = out[-1]
        out.append(nxt[0])


def _entries(idx: list[int]):
    """Reads the entries idx of a row as one tuple: ``operator.itemgetter``
    gives a bare entry for one index and takes no empty list."""
    if len(idx) > 1:
        return operator.itemgetter(*idx)
    return lambda row: tuple([row[i] for i in idx])


def _shape_keys(rs: RootSystem, levi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The shape key of every positive root, by index: its coefficients
    outside the Levi."""
    outside = [i for i in range(rs.rank) if i + 1 not in levi]
    return list(map(_entries(outside), rs.positive))


def split_weight(comps, flat: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """A flat weight, which lists the nodes of each component of comps in
    turn, as one tuple per component."""
    it = iter(flat)
    return tuple(tuple(itertools.islice(it, len(c))) for c in comps)


def radical_levels(rs: RootSystem, levi: tuple[int, ...]) -> dict[int, list[Root]]:
    """Roots of the unipotent radical of P_levi, grouped by level.  A Levi
    that ``typed_components`` refuses is refused before it is read."""
    typed_components(rs, levi)
    out: dict[int, list[Root]] = {}
    for r, key in zip(rs.positive, _shape_keys(rs, levi)):
        if any(key):
            out.setdefault(sum(key), []).append(r)
    return out


def level_summands(rs: RootSystem, levi: tuple[int, ...]) -> list[tuple]:
    """The summands of the radical of P_levi, one per shape, in the order of
    their least roots: (shape key, level, flat weight).  The flat weight is
    the pairings of the shape's highest root against the nodes of the
    ``typed_components`` components in turn, and ``split_weight`` gives one
    tuple per component (Azad, Barry and Seitz, "On the structure of
    parabolic subgroups", Comm. Algebra 18 (1990)).  A weight that is not
    dominant raises ``ArithmeticError`` naming the group, the Levi and the
    root.  ``verify_levels`` checks every summand against its character."""
    return _summands(rs, levi, _shape_keys(rs, levi))


def _summands(rs: RootSystem, levi: tuple[int, ...], keys: list[tuple[int, ...]]) -> list[tuple]:
    """``level_summands`` read off the Levi's shape keys."""
    tops = dict(zip(keys, range(len(keys))))
    tops.pop((0,) * len(keys[0]), None)         # the Levi's own roots
    weight = _entries([i - 1 for _, nodes in typed_components(rs, levi) for i in nodes])
    flats = list(map(weight, map(rs.pairings.__getitem__, tops.values())))
    if min(itertools.chain.from_iterable(flats), default=0) < 0:
        raise ArithmeticError(next(
            f"{rs.name} parabolic with Levi {levi}: summand high weight "
            f"{flat} of highest root {rs.format_root(rs.positive[top])} "
            f"is not dominant"
            for flat, top in zip(flats, tops.values()) if min(flat) < 0))
    return list(zip(tops, map(sum, tops), flats))


def decompose_level(rs: RootSystem, levi: tuple[int, ...], roots: list[Root]) -> list[dict]:
    """The summands of ``level_summands`` whose shapes the radical roots
    cover, in the order of their least roots.  The roots may be one level or
    any union of whole shapes, such as the whole radical.  Each summand
    reports its level, its generator (least root in the total order), its
    highest weight keyed by component, and its root list.  A root outside
    the radical raises ``ValueError`` naming it; roots that are not a union
    of whole shapes raise ``ArithmeticError``; a Levi that
    ``levi_components`` refuses is refused before the roots are read."""
    comps = levi_components(rs, levi)
    keys = _shape_keys(rs, levi)
    groups: dict[tuple, list[int]] = {}
    for r in roots:
        i = rs.index.get(r)
        if i is None or not any(keys[i]):
            raise ValueError(f"{r} is not a root of the unipotent radical of "
                             f"the {rs.name} parabolic with Levi {levi}")
        groups.setdefault(keys[i], []).append(i)
    sizes = Counter(keys)
    out = []
    for key, lvl, flat in _summands(rs, levi, keys):
        members = sorted(set(groups.get(key, ())))
        if not members:
            continue
        if len(members) != sizes[key]:
            raise ArithmeticError(
                f"Levi {levi}: {len(members)} of {sizes[key]} roots of a shape: "
                f"level summand is not a single string module")
        out.append({
            "level": lvl,
            "generator": rs.positive[members[0]],
            "high_weight": dict(zip(comps, split_weight(comps, flat))),
            "roots": [rs.positive[m] for m in members],
            "dim": sizes[key],
        })
    return out


def verify_levels(rs: RootSystem, levi: tuple[int, ...]) -> int:
    """Check every level summand against the character of the irreducible
    module it claims to be.

    The weight of a radical root under the derived Levi is its pairing
    tuple against the Levi simple roots.  One multiset of (shape key,
    weight) over the radical's roots must equal the one that the summands
    of ``level_summands`` give, each summand's character keyed by its shape
    key.  The shapes partition the radical, so this is the summand-by-summand
    comparison.  A summand's character is the product of the
    characteristic-zero characters of its components' weights
    (``_summand_character``).  Returns the number of summands checked; on a
    mismatch raises ``ArithmeticError`` naming the level and the least root
    of the first summand, in least-root order, that does not match."""
    typed = typed_components(rs, levi)
    types = tuple(t for t, _ in typed)
    comps = [c for _, c in typed]
    keys = _shape_keys(rs, levi)
    weight = _entries([i - 1 for nodes in comps for i in nodes])
    seen = Counter(itertools.compress(zip(keys, map(weight, rs.pairings)), map(any, keys)))
    summands = _summands(rs, levi, keys)
    chars = {flat: _summand_character(types, split_weight(comps, flat))
             for flat in {flat for _, _, flat in summands}}
    expect: dict[tuple, int] = {}
    for key, _, flat in summands:
        char = chars[flat]
        expect.update(zip(zip(itertools.repeat(key), char), char.values()))
    if seen != expect:
        raise ArithmeticError(next(
            f"level {lvl} summand at {rs.format_root(rs.positive[keys.index(key)])} "
            f"does not match its character"
            for key, lvl, flat in summands
            if {w: m for (k, w), m in seen.items() if k == key} != chars[flat]))
    return len(summands)


@functools.cache
def _summand_character(types: tuple[str, ...],
                       weights: tuple[tuple[int, ...], ...]) -> MappingProxyType:
    """Flat weight -> multiplicity of the irreducible module of a Levi with
    factor types ``types`` and per-factor highest weights ``weights``: the
    product of the factors' Freudenthal characters, once per process, and
    read-only, since every caller shares it."""
    from .modrep import freudenthal

    char: dict[tuple, int] = {(): 1}
    for tw in zip(types, weights):
        char = {flat + w: m0 * m for flat, m0 in char.items()
                for w, m in freudenthal(*tw).items()}
    return MappingProxyType(char)
