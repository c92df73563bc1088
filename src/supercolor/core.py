"""Ground sets, bitmask subsets, and integer-valued set functions.

A subset of a named universe is a plain int bitmask, bit i standing for
GroundSet.names[i], so union, intersection, difference, inclusion and
cardinality are single word operations.  It is the one set representation:
library functions take and return masks, and GroundSet.mask_of and names_of
convert only at the boundary, where files are read and the CLI prints.  A
SetFn maps an explicit family of subsets to integers; the structural checks
(intersecting-closure, supermodularity, capacity) run against it and report
witnesses instead of raising.

Validation happens once per function, at the boundary: require_valid and
require_capacity record a pass in a private attribute of the frozen SetFn,
outside ==, hash and repr, so later calls on it return at once.  That record
is all a SetFn holds beside its ground set and entries.  A failed check
records nothing, and the check_* reporters walk on every call.  Each check is
one plain walk, and a check that passes builds nothing: check_pairs and
check_capacity return one shared empty Report (frozen, so sharing it is safe)
for a side with no faults, and only a failing side gets a fresh one.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Iterator


class InputError(ValueError):
    """Bad caller input: malformed files, mismatched grounds, failed preconditions."""


class ResourceLimitError(RuntimeError):
    """A configured search cap or sampling budget would be exceeded."""


@dataclass(frozen=True)
class GroundSet:
    """Ordered universe of distinct element names; element i <-> bit i.

    An empty ground set is permitted programmatically (it arises when a
    function is reduced by its whole universe); instance files must name at
    least one element.  size (the number of elements) and full_mask (the
    mask of all of them) are plain attributes, set once at construction.
    """

    names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", tuple(self.names))
        index: dict[str, int] = {}
        for i, name in enumerate(self.names):
            if not isinstance(name, str) or not name:
                raise InputError(f"element names must be nonempty strings, got {name!r}")
            if name in index:
                raise InputError(f"duplicate element name {name!r}")
            index[name] = i
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "size", len(self.names))
        object.__setattr__(self, "full_mask", (1 << len(self.names)) - 1)

    def mask_of(self, names: Iterable[str]) -> int:
        """Mask of the named elements; the inverse of names_of."""
        mask = 0
        for name in names:
            try:
                bit = 1 << self._index[name]  # type: ignore[attr-defined]
            except (KeyError, TypeError):  # TypeError: an unhashable name from a file
                raise InputError(f"unknown element {name!r}") from None
            if mask & bit:
                raise InputError(f"element {name!r} listed twice in one set")
            mask |= bit
        return mask

    def names_of(self, mask: int) -> tuple[str, ...]:
        return tuple(n for i, n in enumerate(self.names) if (mask >> i) & 1)


@dataclass(frozen=True)
class SetFn:
    """An integer-valued function on an explicit family of distinct subsets.

    Entries are stored canonically, sorted by set-as-integer, which fixes the
    iteration order everywhere downstream.  Values may be non-positive.
    """

    ground: GroundSet
    entries: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        # by mask alone: values of one set listed twice may not compare
        canon = tuple(sorted(self.entries, key=itemgetter(0)))
        full = self.ground.full_mask
        last = None  # sorted, so a set listed twice comes right after itself
        for mask, value in canon:
            if not 0 <= mask <= full:
                raise InputError(f"set mask {mask:#x} outside the ground set")
            if type(value) is not int and (  # exact int first: the common case
                not isinstance(value, int) or isinstance(value, bool)
            ):
                raise InputError(f"set values must be integers, got {value!r}")
            if mask == last:
                raise InputError(
                    f"duplicate set {{{','.join(self.ground.names_of(mask))}}} in one function"
                )
            last = mask
        object.__setattr__(self, "entries", canon)

    @classmethod
    def from_names(
        cls, ground: GroundSet, pairs: Iterable[tuple[Iterable[str], int]]
    ) -> "SetFn":
        return cls(ground, tuple((ground.mask_of(ns), v) for ns, v in pairs))


@dataclass(frozen=True)
class Violation:
    """One failed check: the kind, the sets/elements involved, and the numbers."""

    kind: str
    subjects: tuple[tuple[str, ...], ...]
    values: tuple[int, ...] = ()

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "subjects": [list(s) for s in self.subjects],
            "values": list(self.values),
        }


@dataclass(frozen=True)
class Report:
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_dict() for v in self.violations]}


def bit_indices(mask: int) -> Iterator[int]:
    """Indices of the set bits of mask, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


_PASSED = Report()  # what every check returns for a side with no faults


def check_pairs(g: SetFn) -> tuple[Report, Report]:
    """One walk over the intersecting pairs of g's family, in entry order.

    Returns the missing unions and intersections (union first within a pair)
    and the supermodular violations g(X)+g(Y) > g(X∪Y)+g(X∩Y) among the pairs
    whose union and intersection are both present.  A side with no faults is
    one shared empty Report.
    """
    value = dict(g.entries).get
    names = g.ground.names_of
    entries = g.entries
    missing: list[Violation] = []
    unequal: list[Violation] = []
    for i, (a, va) in enumerate(entries):
        for b, vb in entries[i + 1 :]:
            common = a & b  # b > a, so b is no subset of a: X, Y cross iff common != 0, a
            if not common or common == a:
                continue
            vu = value(a | b)
            vi = value(common)
            if vu is None:
                missing.append(Violation("missing_union", (names(a), names(b), names(a | b))))
            if vi is None:
                missing.append(
                    Violation("missing_intersection", (names(a), names(b), names(common)))
                )
            elif vu is not None and va + vb > vu + vi:
                unequal.append(
                    Violation("supermodular", (names(a), names(b)), (va + vb, vu + vi))
                )
    return (
        Report(tuple(missing)) if missing else _PASSED,
        Report(tuple(unequal)) if unequal else _PASSED,
    )


def check_intersecting_family(g: SetFn) -> Report:
    """Check closure under union/intersection of every intersecting pair."""
    return check_pairs(g)[0]


def _not_closed(family: Report) -> InputError:
    return InputError(
        f"family is not intersecting-closed: {{{','.join(family.violations[0].subjects[2])}}}"
        " is missing"
    )


def check_supermodular(g: SetFn) -> Report:
    """Check g(X)+g(Y) <= g(X∪Y)+g(X∩Y) on every intersecting pair.

    Requires the family to be intersecting-closed; otherwise the inequality
    is not even well defined and an InputError names a missing set.
    """
    family, supermodular = check_pairs(g)
    if family.violations:
        raise _not_closed(family)
    return supermodular


def check_capacity(g: SetFn) -> Report:
    """Check |X| >= g(X) for every entry; no fault gives the shared empty Report."""
    violations = []
    for m, v in g.entries:
        if m.bit_count() < v:
            violations.append(Violation("capacity", (g.ground.names_of(m),), (m.bit_count(), v)))
    return Report(tuple(violations)) if violations else _PASSED


def require_valid(g: SetFn) -> None:
    """Raise InputError unless g is an intersecting-supermodular function; a pass is recorded.

    A family that is not intersecting-closed is named first, by its first
    missing set; else the first supermodular violation."""
    if getattr(g, "_valid", False):
        return
    family, supermodular = check_pairs(g)
    if family.violations:
        raise _not_closed(family)
    if supermodular.violations:
        v = supermodular.violations[0]
        raise InputError(
            "function is not supermodular: "
            f"{{{','.join(v.subjects[0])}}}, {{{','.join(v.subjects[1])}}} "
            f"give {v.values[0]} > {v.values[1]}"
        )
    object.__setattr__(g, "_valid", True)


def require_capacity(g: SetFn) -> None:
    if getattr(g, "_capacity", False):
        return
    report = check_capacity(g)
    if report.violations:
        v = report.violations[0]
        raise InputError(
            f"capacity violated: |{{{','.join(v.subjects[0])}}}| = {v.values[0]} < {v.values[1]}"
        )
    object.__setattr__(g, "_capacity", True)


def require_same_ground(g1: SetFn, g2: SetFn) -> None:
    if g1.ground != g2.ground:
        raise InputError("functions live on different ground sets")


def delta(g1: SetFn, g2: SetFn) -> int:
    """max{1, max of all stored values}; the color count of the classic bound."""
    require_same_ground(g1, g2)
    best = 1
    for g in (g1, g2):
        for _, v in g.entries:
            if v > best:
                best = v
    return best


# ---------------------------------------------------------------------------
# Outside text: every file and JSON argument goes through these two, so
# malformed text always raises InputError.

def read_text(path) -> str:
    """The text of a UTF-8 file; a file that cannot be read or decoded is bad input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise InputError(f"cannot read {path}: {e}") from None


def decode_json(text: str, error: str = "invalid JSON"):
    """The one decoder of outside JSON text; any failure is InputError(f"{error}: ...")."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # bad syntax, > 4300 digits, deep nesting
        raise InputError(f"{error}: {e}") from None


# Instance files: {"elements": [...], "g1": [{"set": [...], "value": n}], "g2": [...]}

# |value| stays below this, so the sum of two values, which the checks print,
# has at most 4300 digits: the most that int() prints at Python's default limit.
VALUE_LIMIT = 10**4299


def parse_instance(text: str) -> tuple[SetFn, SetFn]:
    doc = decode_json(text)
    if not isinstance(doc, dict):
        raise InputError("instance file must be a JSON object")
    elements = doc.get("elements")
    if not isinstance(elements, list) or not elements:
        raise InputError('"elements" must be a nonempty list of names')
    ground = GroundSet(tuple(elements))
    out = []
    for key in ("g1", "g2"):
        raw = doc.get(key)
        if not isinstance(raw, list):
            raise InputError(f'"{key}" must be a list of entries')
        pairs = []
        for entry in raw:
            if not isinstance(entry, dict) or "set" not in entry or "value" not in entry:
                raise InputError(f'each {key} entry needs "set" and "value"')
            if not isinstance(entry["set"], list):
                raise InputError(f'"set" must be a list of element names in {key}')
            mask, value = ground.mask_of(entry["set"]), entry["value"]
            if isinstance(value, int) and abs(value) >= VALUE_LIMIT:
                raise InputError(
                    f"{key} value of {{{','.join(ground.names_of(mask))}}} is out of range:"
                    " |value| must be below 10**4299"
                )
            pairs.append((mask, value))
        out.append(SetFn(ground, tuple(pairs)))
    return out[0], out[1]


def load_instance(path) -> tuple[SetFn, SetFn]:
    return parse_instance(read_text(path))


def instance_payload(g1: SetFn, g2: SetFn) -> dict:
    """JSON-ready canonical form: elements in ground order, entries sorted."""
    require_same_ground(g1, g2)
    return {
        "elements": list(g1.ground.names),
        "g1": [{"set": list(g1.ground.names_of(m)), "value": v} for m, v in g1.entries],
        "g2": [{"set": list(g2.ground.names_of(m)), "value": v} for m, v in g2.entries],
    }


def dump_json(obj) -> str:
    """Canonical JSON used for all emitted reports and files."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"
