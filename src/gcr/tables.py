"""Golden classification tables and table diffing.

The data files under ``data/`` record, one file per (group, prime), the
classification rows that the level scan is expected to reproduce: for each
Levi type, the irreducible rank-one (or G2-type) actions whose restriction to
some level of the unipotent radical has nonzero first cohomology, together
with the number of conjugacy classes each row accounts for.

A row's factor texts, one per Levi factor, take the forms that
``h1scan.canon_factor`` reads:
- a module text, the action on the factor's natural module, such as
  ``3 x 1[1] + 2 + 2[1]`` (the flat grammar of ``modrep.parse_module``)
- ``NAME(slot, ...)``, a chain the scanner builds (E6 and E7 chains, and
  A1D6), with one module text per factor type of NAME, such as
  ``A1A5(1[r], 5[s])``
- ``(a,b)``, a G2 action by its highest weight
- ``max F4``, the G2 of E6 through F4

Rows may be twist-parametric: factor strings contain twist variables
(``1[r]``, ``3[s] x 1[s+1]``).  A sweep over a finite window, kept by the
row's constraints, writes them as numbers (``1[r+1]`` at r = 1 is
``1[2]``); it and the canonical form are the scanner's own for its E6 and
E7 chains (``h1scan.twist_choices``, ``h1scan.canon_factor``).

Diff statuses per row: ``match`` | ``mismatch`` (same action, different class
count) | ``missing`` (expected but not computed) | ``extra`` (computed but
not expected).  For Levi factors of type D4 the three 8-dimensional
fundamental weights are permuted by graph automorphisms, and which of them a
table names as "the" natural module is a frame choice; when direct matching
leaves a remainder on such a Levi, a second pass matches class units up to a
uniform relabelling of the three 8-dimensional nodes.  When no relabelling
matches and scan rows of the Levi type are left over, a direct match may
pair different classes, so it is reported as a ``mismatch`` with a note.
"""

from __future__ import annotations

import itertools
import json
import re
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources

from .h1scan import (FactorCandidate, ScanResult, scan_group, canon_factor,
                     factor_assignments, twist_choices, class_unit)
from .modrep import nonnegative_int


# -- golden data loading -------------------------------------------------------

def load_badx(group: str, p: int) -> dict:
    """The golden table of (group, p); a group that is no str, a p that is
    no int, or a pair with no table raises ValueError naming it (and, for
    a pair, every table there is)."""
    if not isinstance(group, str) or type(p) is not int:
        raise ValueError(f"no golden table for group={group!r}, p={p!r}: "
                         "the group must be a str and p an int")
    data = resources.files(__package__).joinpath("data")
    try:
        with data.joinpath(f"badx_{group.lower()}_p{p}.json").open() as fh:
            return json.load(fh)
    except FileNotFoundError:
        found = sorted((m[1].upper(), int(m[2])) for m in (
            re.fullmatch(r"badx_(\w+)_p(\d+)\.json", f.name) for f in data.iterdir()) if m)
        raise ValueError(f"no golden table for {group} at p={p}; there are tables for "
                         + ", ".join(f"{g}/{q}" for g, q in found)) from None


# -- parametric row expansion --------------------------------------------------

@dataclass
class GoldenInstance:
    ref: str
    levi: str
    x: str
    actions: tuple[str, ...]
    classes: int
    factors: tuple[FactorCandidate, ...]

    @property
    def key(self):
        return (self.levi, self.x, self.actions)


def _checked_row(row: dict) -> tuple[str, str, list[str]]:
    """(ref, X type, constraints) of one golden row whose fields have the
    right types; a missing or ill-typed one raises ValueError naming the
    row."""
    ref, classes = row.get("ref"), row.get("classes")
    x, constraints = row.get("x", "A1"), row.get("constraints", [])
    for key, ok, want in (
            ("levi", isinstance(row.get("levi"), str), "a string"),
            ("factors", _str_list(row.get("factors")), "a list of strings"),
            ("classes", type(classes) is int and classes >= 1, "an int >= 1"),
            ("x", x in ("A1", "G2"), "A1 or G2"),
            ("constraints", _str_list(constraints), "a list of strings")):
        if not ok:
            raise ValueError(f"row {ref}: {key} must be {want}, not {row.get(key)!r}")
    return ref, x, constraints


def _str_list(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def expand_rows(data: dict, tmax: int = 2) -> list[GoldenInstance]:
    """All in-window instances of the table's parametric rows, one per
    distinct canonical action tuple.  A malformed row, constraint or factor
    raises ValueError naming the row; a table with no str name or no list
    of rows, or a tmax that is no int >= 0, raises ValueError naming the
    table."""
    if not (isinstance(data, dict) and isinstance(data.get("table"), str)
            and isinstance(data.get("rows"), list)):
        raise ValueError(f"table {data.get('table') if isinstance(data, dict) else data!r} "
                         "needs a str name and a list of rows")
    if not nonnegative_int(tmax):
        raise ValueError(f"cannot expand table {data['table']!r} at tmax={tmax!r}: "
                         "tmax must be an int >= 0")
    out: dict[tuple, GoldenInstance] = {}
    for row in data["rows"]:
        ref, x, constraints = _checked_row(row)
        for texts in twist_choices(row["factors"], constraints, tmax, ref):
            try:
                factors = [canon_factor(f, tmax) for f in texts]
            except ValueError as exc:
                raise ValueError(f"row {ref}: {exc}") from None
            if None in factors or min((t for cf in factors for t in cf.twists),
                                      default=0) != 0:
                continue
            inst = GoldenInstance(
                ref=ref, levi=row["levi"], x=x,
                actions=tuple(cf.descriptor for cf in factors),
                classes=row["classes"], factors=tuple(factors))
            prev = out.get(inst.key)
            if prev is not None and prev.classes != inst.classes:
                raise ValueError(f"conflicting duplicates for {inst.key}: row {prev.ref} "
                                 f"gives {prev.classes} classes, row {ref} {inst.classes}")
            out.setdefault(inst.key, inst)
    return list(out.values())


# -- diffing -------------------------------------------------------------------

@dataclass
class DiffRow:
    status: str                    # match | mismatch | missing | extra
    ref: str
    levi: str
    x: str
    actions: tuple[str, ...]
    expected_classes: int | None
    computed_classes: int | None
    hits: tuple = ()
    note: str = ""

    @property
    def levels(self) -> list[int]:
        """The distinct levels of the hits, ascending."""
        return sorted({h[0] for h in self.hits})


@dataclass
class TableDiff:
    group: str
    p: int
    table: str
    rows: list[DiffRow] = field(default_factory=list)
    pruned_nonrows: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """Every expected row reproduced with the expected class count."""
        return not any(r.status in ("mismatch", "missing") for r in self.rows)

    def counts(self) -> Counter:
        return Counter(r.status for r in self.rows)


def _d4_positions(levi: str) -> list[int]:
    return [i for i, t in enumerate(levi.split("+")) if t == "D4"]


def _golden_units(inst: GoldenInstance, pos: int, p: int):
    """Class signatures of a golden instance, as the scan writes them for
    its own classes: (other-action tuple, ordered triple of characters on
    the natural and the two half-spin nodes).  None when the table's class
    count is not the scan's."""
    cand = inst.factors[pos]
    assigns = factor_assignments(cand, "D4", p)
    if len(assigns) != inst.classes:
        return None
    others = inst.actions[:pos] + inst.actions[pos + 1:]
    return [(others, class_unit((cand,), p, (a,))[0]) for a in assigns]


def _engine_units(rep, pos: int):
    """The scan's class signatures of one report, one per class unit."""
    others = rep.actions[:pos] + rep.actions[pos + 1:]
    return [(others, unit[pos]) for unit in rep.class_units]


_S3 = list(itertools.permutations(range(3)))


def _permute(triple, sigma):
    return tuple(triple[i] for i in sigma)


def _frame_match(golden_insts, engine_reps, p, pos):
    """Find a single relabelling of the three 8-dimensional D4 nodes under
    which the golden instances and the engine rows of one D4-bearing Levi
    type carry the same multiset of class units.  Returns the permutation,
    or None."""
    gsig = []
    for inst in golden_insts:
        units = _golden_units(inst, pos, p)
        if units is None:
            return None
        gsig.extend(units)
    goal = Counter(gsig)
    for sigma in _S3:
        esig = Counter()
        for rep in engine_reps:
            for others, triple in _engine_units(rep, pos):
                esig[(others, _permute(triple, sigma))] += 1
        if esig == goal:
            return sigma
    return None


def diff_badx(group: str, p: int, tmax: int = 2,
              scan: ScanResult | None = None,
              data: dict | None = None) -> TableDiff:
    """Diff the computed scan of (group, p) against the golden table, or
    against ``data`` in the golden table's format when given.  A ``scan``
    of another (group, p, tmax) raises ValueError naming both."""
    if data is None:
        data = load_badx(group, p)
    if scan is not None and (scan.group, scan.p, scan.tmax) != (str(group).upper(), p, tmax):
        raise ValueError(f"a scan of {(scan.group, scan.p, scan.tmax)} cannot be "
                         f"diffed as {(group, p, tmax)}")
    golden = expand_rows(data, tmax)
    if scan is None:
        scan = scan_group(group, p, tmax)
    engine = dict(scan.rows)
    diff = TableDiff(group=group, p=p, table=data["table"],
                     pruned_nonrows=list(scan.pruned_nonrows))

    groups: dict[tuple, list[GoldenInstance]] = {}
    for inst in golden:
        groups.setdefault((inst.levi, inst.x), []).append(inst)

    consumed: set = set()
    for (levi, x), insts in sorted(groups.items()):
        erows = {k: r for k, r in engine.items()
                 if k[0] == levi and k[1] == x}
        direct: list[DiffRow] = []
        leftover: list[GoldenInstance] = []
        used: set = set()
        for inst in insts:
            rep = erows.get(inst.key)
            if rep is None:
                leftover.append(inst)
                continue
            used.add(inst.key)
            status = "match" if rep.classes == inst.classes else "mismatch"
            direct.append(DiffRow(
                status, inst.ref, inst.levi, inst.x, inst.actions,
                inst.classes, rep.classes, tuple(rep.hits)))
        clean = (not leftover and len(used) == len(erows)
                 and all(r.status == "match" for r in direct))
        pos = _d4_positions(levi)
        if len(pos) == 1 and not clean:
            # the three 8-dimensional fundamentals of a D4 factor are only
            # labelled up to graph automorphism: re-match the whole group of
            # rows for this Levi type under a common relabelling
            sigma = _frame_match(insts, list(erows.values()), p, pos[0])
            if sigma is not None:
                hits = tuple(sorted({h for r in erows.values()
                                     for h in r.hits}))
                note = f"matched up to D4 node relabelling {sigma}"
                for inst in insts:
                    diff.rows.append(DiffRow(
                        "match", inst.ref, inst.levi, inst.x, inst.actions,
                        inst.classes, inst.classes, hits, note))
                consumed.update(erows)
                continue
            if len(used) < len(erows):
                # no relabelling holds and scan rows of this type are left
                # over, so a direct match may pair different classes
                note = (f"{len(erows) - len(used)} scan rows of this type unmatched "
                        "and no D4 frame matches its class units")
                for row in direct:
                    if row.status == "match":
                        row.status, row.note = "mismatch", note
        diff.rows.extend(direct)
        consumed.update(used)
        for inst in leftover:
            diff.rows.append(DiffRow(
                "missing", inst.ref, inst.levi, inst.x, inst.actions,
                inst.classes, None))

    for key, rep in sorted(engine.items()):
        if key in consumed:
            continue
        diff.rows.append(DiffRow(
            "extra", "", rep.levi_type, rep.x_type, rep.actions,
            None, rep.classes, tuple(rep.hits)))

    diff.rows.sort(key=lambda r: (r.levi, r.x, r.actions, r.status))
    return diff


# -- rendering -----------------------------------------------------------------

def render_diff(diff: TableDiff) -> str:
    lines = [f"table {diff.table} ({diff.group}, p={diff.p}): "
             + ", ".join(f"{v} {k}" for k, v in sorted(diff.counts().items()))]
    for r in diff.rows:
        acts = ", ".join(r.actions)
        line = f"  [{r.status:8}] {r.levi:12} {r.x:3} ({acts})"
        if r.expected_classes is not None:
            line += f" expected classes={r.expected_classes}"
        if r.computed_classes is not None:
            line += f" computed classes={r.computed_classes}"
        if r.hits:
            line += f" levels={r.levels}"
        if r.ref:
            line += f"  <{r.ref}>"
        if r.note:
            line += f"  ({r.note})"
        lines.append(line)
    for levi, x, actions, pruned in diff.pruned_nonrows:
        acts = ", ".join(actions)
        lines.append(f"  [pruned  ] {levi:12} {x:3} ({acts})"
                     f" tilting-pruned at levels {[l for l, _ in pruned]}"
                     " (no row)")
    return "\n".join(lines)


def diff_to_json(diff: TableDiff) -> dict:
    return {
        "group": diff.group, "p": diff.p, "table": diff.table,
        "ok": diff.ok,
        "rows": [{
            "status": r.status, "ref": r.ref, "levi": r.levi, "x": r.x,
            "actions": list(r.actions),
            "expected_classes": r.expected_classes,
            "computed_classes": r.computed_classes,
            "levels": r.levels,
            "note": r.note,
        } for r in diff.rows],
        "pruned_nonrows": [{
            "levi": levi, "x": x, "actions": list(actions),
            "levels": [l for l, _ in pruned],
        } for levi, x, actions, pruned in diff.pruned_nonrows],
    }
