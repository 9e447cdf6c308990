"""Standard parabolics: radical filtration by levels and the Levi action.

For a subset J of simple roots, the radical of the standard parabolic P_J
has root set {positive roots with a coefficient outside J}, graded by the
level (sum of those outside coefficients).  Each level is a module for the
derived Levi; its weight spaces are root spaces.  The roots of a level with
given coefficients outside J form a shape, and each shape is an irreducible
Levi module whose highest weight is that of its highest root (Azad, Barry
and Seitz, Comm. Algebra 18 (1990)), so a level is the sum of its shapes.

The shape table, cached once per Levi, is the one decomposition: it holds
every root's level and shape and each shape's least root, highest root and
size.  ``level_summands`` reads the summands off it, and the scan, the level
lists, ``decompose_level`` and ``verify_levels`` all read that table.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter

from .rootsystem import Root, RootSystem


def levi_components(rs: RootSystem, levi: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Connected components of the sub-Dynkin diagram on the 1-based nodes
    in levi, each ordered in the standard numbering of its type: a new list
    on every call, computed once per (rs, levi)."""
    return [nodes for _, nodes in _levi_components(rs, levi)]


@functools.cache
def _levi_components(rs: RootSystem, levi: tuple[int, ...]) -> tuple[tuple, ...]:
    """(type, ordered nodes) of each component, by least node."""
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
    comps.sort(key=lambda c: c[1][0])
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
        ends = [i for i in nodes if deg[i] == 1]
        start = min(ends)
        return f"A{len(nodes)}", _walk_chain(start, nodes, adj)
    fork = forks[0]
    arms = []
    for nb in adj[fork]:
        if nb not in nodes:
            continue
        arm = [nb]
        prev = fork
        while True:
            nxt = [j for j in adj[arm[-1]] if j in nodes and j != prev]
            if not nxt:
                break
            prev = arm[-1]
            arm.append(nxt[0])
        arms.append(arm)
    arms.sort(key=lambda a: (len(a), a[0]))
    if len(arms[0]) == 1 and len(arms[1]) == 1:
        # type D: long arm first, then fork, then the two leaves
        long = arms[2]
        out = list(reversed(long)) + [fork] + sorted([arms[0][0], arms[1][0]])
        return f"D{len(nodes)}", tuple(out)
    # type E: node 2 is the length-1 arm, nodes 1,3 the length-2 arm
    if len(arms[0]) != 1 or len(arms[1]) != 2:
        raise ArithmeticError(
            f"Levi component on nodes {nodes} has arms of lengths "
            f"{[len(a) for a in arms]}: neither type D nor type E")
    short, mid, long = arms
    out = [mid[1], short[0], mid[0], fork] + long
    return f"E{len(nodes)}", tuple(out)


def component_type(rs: RootSystem, comp: tuple[int, ...]) -> str:
    """Dynkin type of one connected component, as ``levi_components``
    orders it; nodes that are not one component raise ValueError."""
    comps = _levi_components(rs, comp)
    if len(comps) != 1:
        raise ValueError(f"nodes {comp} of {rs.name} are not one component")
    return comps[0][0]


def _walk_chain(start: int, nodes: list[int], adj) -> tuple[int, ...]:
    out = [start]
    prev = None
    while True:
        nxt = [j for j in adj[out[-1]] if j in nodes and j != prev]
        if not nxt:
            return tuple(out)
        prev = out[-1]
        out.append(nxt[0])


def radical_levels(rs: RootSystem, levi: tuple[int, ...]) -> dict[int, list[Root]]:
    """Roots of the unipotent radical of P_levi, grouped by level."""
    out: dict[int, list[Root]] = {}
    for r, lvl in zip(rs.positive, _root_shapes(rs, levi)[0]):
        if lvl > 0:
            out.setdefault(lvl, []).append(r)
    return out


@functools.cache
def _root_shapes(rs: RootSystem, levi: tuple[int, ...]):
    """Level and shape of every positive root, by index, for P_levi, and the
    (least index, highest index, size) of each shape.  The level is the sum
    of the root's coefficients outside the Levi; two roots share a shape, a
    small id, exactly when those coefficients agree.  Ids follow the least
    roots."""
    outside = [i - 1 for i in range(1, rs.rank + 1) if i not in levi]
    # one outside node gives each root a single coefficient, not a tuple;
    # none (P = G) gives each root the empty tuple
    coeffs = (list(map(operator.itemgetter(*outside), rs.positive)) if outside
              else [()] * len(rs.positive))
    ids = {c: k for k, c in enumerate(dict.fromkeys(coeffs))}
    shape = tuple(map(ids.__getitem__, coeffs))
    level = tuple(coeffs) if len(outside) == 1 else tuple(map(sum, coeffs))
    spans = []
    for i, s in enumerate(shape):
        if s == len(spans):
            spans.append([i, i, 0])
        span = spans[s]
        span[1] = i
        span[2] += 1
    return level, shape, tuple(map(tuple, spans))


def level_summands(rs: RootSystem, levi: tuple[int, ...]) -> list[tuple]:
    """The summands of the radical of P_levi, one per shape, in the order of
    their least roots: (shape id, level, highest weight, dim).  The highest
    weight is one tuple per component of ``levi_components``: the pairings
    of the shape's highest root against that component's simple roots
    (Azad, Barry and Seitz, "On the structure of parabolic subgroups",
    Comm. Algebra 18 (1990)).  ``verify_levels`` checks every summand
    against its character."""
    comps = [[i - 1 for i in nodes] for nodes in levi_components(rs, levi)]
    level, _, spans = _root_shapes(rs, levi)
    out = []
    for s, (least, high, dim) in enumerate(spans):
        if level[least]:
            pair = rs.pairings[high]
            hw = tuple(tuple([pair[i] for i in nodes]) for nodes in comps)
            if any(v < 0 for w in hw for v in w):
                raise ArithmeticError("summand high weight not dominant")
            out.append((s, level[least], hw, dim))
    return out


def decompose_level(rs: RootSystem, levi: tuple[int, ...], roots: list[Root]) -> list[dict]:
    """The summands of ``level_summands`` whose shapes the radical roots
    cover, in the order of their least roots.  The roots may be one level or
    any union of whole shapes, such as the whole radical.  Each summand
    reports its level, its generator (least root in the total order), its
    highest weight keyed by component, and its root list.  A root outside
    the radical raises ``ValueError`` naming it; roots that are not a union
    of whole shapes raise ``ArithmeticError``."""
    level, shape, _ = _root_shapes(rs, levi)
    groups: dict[int, list[int]] = {}
    for r in roots:
        i = rs.index.get(r)
        if i is None or not level[i]:
            raise ValueError(f"{r} is not a root of the unipotent radical of "
                             f"the {rs.name} parabolic with Levi {levi}")
        groups.setdefault(shape[i], []).append(i)
    comps = levi_components(rs, levi)
    out = []
    for s, lvl, hw, dim in level_summands(rs, levi):
        members = sorted(set(groups.get(s, ())))
        if not members:
            continue
        if len(members) != dim:
            raise ArithmeticError(
                f"Levi {levi}: {len(members)} of {dim} roots of a shape: "
                f"level summand is not a single string module")
        out.append({
            "level": lvl,
            "generator": rs.positive[members[0]],
            "high_weight": dict(zip(comps, hw)),
            "roots": [rs.positive[m] for m in members],
            "dim": dim,
        })
    return out


def verify_levels(rs: RootSystem, levi: tuple[int, ...]) -> int:
    """Check every level summand against the character of the irreducible
    module it claims to be.

    The weight of a radical root under the derived Levi is its pairing
    tuple against the Levi simple roots; summand by summand, the multiset
    of these must equal the weight multiset of the characteristic-zero
    irreducible with the summand's high weight, formed component by
    component.  Returns the number of summands checked; raises on any
    mismatch."""
    from .modrep import freudenthal

    comps = levi_components(rs, levi)
    types = [component_type(rs, c) for c in comps]
    nodes = [[j - 1 for j in c] for c in comps]
    members: dict[int, list[int]] = {}
    for i, s in enumerate(_root_shapes(rs, levi)[1]):
        members.setdefault(s, []).append(i)
    summands = level_summands(rs, levi)
    # each (type, weight) character once, however many summands share it
    chars = {tw: freudenthal(*tw)
             for tw in {tw for _, _, hw, _ in summands for tw in zip(types, hw)}}
    for s, lvl, hw, _ in summands:
        seen = Counter(tuple([tuple([rs.pairings[i][j] for j in c]) for c in nodes])
                       for i in members[s])
        expect: dict[tuple, int] = {(): 1}
        for tw in zip(types, hw):
            expect = {
                key + (w,): m0 * m
                for key, m0 in expect.items()
                for w, m in chars[tw].items()
            }
        if seen != expect:
            raise ArithmeticError(
                f"level {lvl} summand at {rs.format_root(rs.positive[members[s][0]])} "
                f"does not match its character")
    return len(summands)
