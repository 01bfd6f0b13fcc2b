"""Conformance validation: building law hierarchies and checking deltas.

A child law conforms to its ancestry when every override it declares targets
an ancestor's default rule and is covered by a meta permission of compatible
direction granted by the law that owns that rule: the nearest law above the
child that declares the rule's id.  Categorical rules can never be
overridden.  New rules a child introduces need no permission; they are only
reachable where no ancestor rule already matches, because ancestor rules are
always scanned first.

Validation only checks: ``build_hierarchy`` holds the very laws it is
given, hashed by the parser (``law_lang.parse_law``), and writes nothing
onto them.  The controller pairs each override with its target rule on the
leaf's path (``controller.program_for``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .model import (
    Law,
    LawHierarchy,
    MetaDirection,
    OverrideKind,
    Rule,
    RuleMode,
)


class ViolationKind(Enum):
    OVERRIDES_CATEGORICAL = "OverridesCategorical"
    NO_META_PERMISSION = "NoMetaPermission"
    WRONG_DIRECTION = "WrongDirection"
    UNKNOWN_PARENT = "UnknownParent"
    DUPLICATE_NAME = "DuplicateName"
    CYCLE_DETECTED = "CycleDetected"
    MULTIPLE_ROOTS = "MultipleRoots"


@dataclass(frozen=True)
class ConformanceViolation:
    kind: ViolationKind
    law: str      # name of the offending law
    detail: str


_COMPATIBLE = {
    OverrideKind.PERMIT: (MetaDirection.MAY_PERMIT, MetaDirection.MAY_REPLACE),
    OverrideKind.BLOCK: (MetaDirection.MAY_PROHIBIT, MetaDirection.MAY_REPLACE),
    OverrideKind.REPLACE: (MetaDirection.MAY_REPLACE,),
}


def _resolve_target(chain: Sequence[Law], target: str) -> Optional[tuple[Law, Rule]]:
    """Find the nearest ancestor (chain is root-first) owning rule `target`."""
    for law in reversed(chain):
        rule = law.rule(target)
        if rule is not None:
            return law, rule
    return None


def check_overrides(chain: Sequence[Law], law: Law) -> list[ConformanceViolation]:
    """The violations of ``law``'s overrides against the laws above it.

    ``chain`` holds those laws, root first and the parent last.  Each
    override must target the nearest declaration of its rule id in the
    chain, a default rule whose law grants a compatible direction.
    """
    violations: list[ConformanceViolation] = []
    for ov in law.overrides:
        resolved = _resolve_target(chain, ov.target)
        if resolved is None:
            violations.append(ConformanceViolation(
                ViolationKind.NO_META_PERMISSION, law.name,
                f"override targets {ov.target!r}, which no ancestor law declares"))
            continue
        owner, rule = resolved
        if rule.mode is RuleMode.CATEGORICAL:
            violations.append(ConformanceViolation(
                ViolationKind.OVERRIDES_CATEGORICAL, law.name,
                f"override targets categorical rule {ov.target!r} of law {owner.name!r}"))
            continue
        grants = owner.grants(ov.target)
        if not grants:
            violations.append(ConformanceViolation(
                ViolationKind.NO_META_PERMISSION, law.name,
                f"law {owner.name!r} grants no override permission on {ov.target!r}"))
        elif not any(g in _COMPATIBLE[ov.kind] for g in grants):
            granted = ", ".join(str(g) for g in grants)
            violations.append(ConformanceViolation(
                ViolationKind.WRONG_DIRECTION, law.name,
                f"{ov.kind.value} override of {ov.target!r} not covered by "
                f"granted direction(s) {granted}"))
    return violations


def build_hierarchy(laws: Iterable[Law]) -> tuple[Optional[LawHierarchy], list[ConformanceViolation]]:
    """Assemble and validate a full law tree.

    Structural checks (names, parent links, single root, acyclicity) run
    first; conformance of every law against its ancestry runs root-down.
    All violations found are returned together.  The hierarchy holds the
    given laws themselves, in the walk's order.
    """
    violations: list[ConformanceViolation] = []
    by_name: dict[str, Law] = {}
    for law in laws:
        if law.name in by_name:
            violations.append(ConformanceViolation(
                ViolationKind.DUPLICATE_NAME, law.name,
                "another law in the set has the same name"))
            continue
        by_name[law.name] = law

    roots = [law for law in by_name.values() if law.parent is None]
    for law in by_name.values():
        if law.parent is not None and law.parent not in by_name:
            violations.append(ConformanceViolation(
                ViolationKind.UNKNOWN_PARENT, law.name,
                f"parent law {law.parent!r} is not in the set"))

    # Cycle detection over the parent links that do resolve.
    state: dict[str, int] = {}  # 1 = on current walk, 2 = done
    for start in sorted(by_name):
        trail: list[str] = []
        cursor: Optional[str] = start
        while cursor in by_name and not state.get(cursor):
            state[cursor] = 1
            trail.append(cursor)
            cursor = by_name[cursor].parent
        if state.get(cursor) == 1:  # a loop no earlier walk met
            loop = trail[trail.index(cursor):]
            violations.append(ConformanceViolation(
                ViolationKind.CYCLE_DETECTED, min(loop),
                "parent chain loops: " + " -> ".join(loop + [cursor])))
        for name in trail:
            state[name] = 2

    if len(roots) > 1:
        names = ", ".join(sorted(law.name for law in roots))
        violations.append(ConformanceViolation(
            ViolationKind.MULTIPLE_ROOTS, sorted(law.name for law in roots)[0],
            f"parentless laws: {names}"))
    elif not by_name:  # else a rootless set has a loop or an unknown parent
        violations.append(ConformanceViolation(
            ViolationKind.CYCLE_DETECTED, "", "no laws in the set"))

    if violations:
        return None, violations

    root = roots[0]
    # Walk root-down, children in name order for deterministic reports.
    # Each law's chain (root first, itself last) and lineage extend its
    # parent's.
    children: dict[str, list[str]] = {name: [] for name in by_name}
    for law in by_name.values():
        if law.parent is not None:
            children[law.parent].append(law.name)
    chains: dict[str, list[Law]] = {root.name: [root]}
    lineage: dict[str, tuple[str, ...]] = {root.name: (root.hash,)}
    order = [root.name]
    for current in order:  # grows as the walk reaches each law's children
        chain = chains[current]
        for name in sorted(children[current]):
            law = by_name[name]
            violations.extend(check_overrides(chain, law))
            chains[name] = chain + [law]
            lineage[name] = lineage[current] + (law.hash,)
            order.append(name)
    # Unreached laws would mean a cycle, which was already rejected.

    if violations:
        return None, violations
    return LawHierarchy(root=root.name,
                        laws={name: by_name[name] for name in order},
                        lineage=lineage), []
