"""Hierarchy assembly and the conformance rules that guard it."""

from typing import Optional

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from mds.conformance import (ConformanceViolation, ViolationKind,
                              build_hierarchy, check_overrides)
from mds.controller import (BareInbound, Decision, Envelope, adopt,
                            handle_arrive, matched_token)
from mds.law_lang import parse_law
from mds.model import Law
from mds.runner import check_law_dir

ROOT = """
law Root {
  categorical rule fixed on sent if op == "sealed" {
    block;
  }
  default rule d-open on sent if flow == outflow {
    permit;
  }
  default rule d-shut on arrived if flow == inflow {
    block;
  }
  allow-override d-open may-prohibit;
  allow-override d-shut may-permit;
}
"""


def _build(*texts):
    return build_hierarchy([parse_law(t) for t in texts])


def _kinds(violations):
    return {v.kind for v in violations}


def _arrival(h, leaf, op="knock", sender_law=None):
    """The (decision, token) of a ``leaf`` agent's ruling on an arrival:
    inflow from a ``sender_law`` agent, or an import when that is None."""
    agent, _ = adopt("r", h, leaf)
    if sender_law is None:
        inbound = BareInbound("10.0.0.9:1", op, b"")
    else:
        inbound = Envelope(sender_module=sender_law, sender_profile=(),
                           sender_lineage=h.lineage[sender_law],
                           operation=op, payload=b"", sender="peer")
    ruling, _ = handle_arrive(agent, inbound)
    return ruling.decision, matched_token(ruling.matched)


class TestViolationData:
    """Each directory holds a parseable but non-conforming law set."""

    @pytest.mark.parametrize("case,kind", [
        ("categorical-override", "OverridesCategorical"),
        ("wrong-direction", "WrongDirection"),
        ("unknown-parent", "UnknownParent"),
        ("duplicate-name", "DuplicateName"),
        ("cycle", "CycleDetected"),
        ("multiple-roots", "MultipleRoots"),
    ])
    def test_rejected_with_kind(self, violation_dir, case, kind):
        h, problems = check_law_dir(violation_dir / case)
        assert h is None
        assert any(p.startswith(kind + ":") for p in problems), problems


class TestBuildHierarchy:
    def test_shipped_laws_build(self, shipped):
        assert shipped.root == "S"
        assert set(shipped.laws) == {"S", "MS", "SB", "OPS", "MGMT", "P"}
        for name in shipped.laws:
            assert shipped.lineage[name][0] == shipped.laws["S"].hash

    def test_holds_the_given_laws(self):
        laws = [parse_law(ROOT),
                parse_law('law A extends Root {'
                          ' override d-shut permit on arrived { } }')]
        h, violations = build_hierarchy(laws)
        assert h is not None, violations
        assert [h.laws[law.name] for law in laws] == laws
        assert all(h.laws[law.name] is law for law in laws)

    def test_empty_child_conforms(self):
        h, violations = _build(ROOT, "law Kid extends Root { }")
        assert h is not None, violations
        assert h.path("Kid") == ("Root", "Kid")

    def test_conformance_violations_reported_together(self):
        h, violations = _build(
            ROOT,
            'law A extends Root { override fixed permit on sent { } }',
            'law B extends Root { override d-open permit on sent { } }')
        assert h is None
        assert _kinds(violations) == {ViolationKind.OVERRIDES_CATEGORICAL,
                                      ViolationKind.WRONG_DIRECTION}

    def test_structural_violations_reported_together(self):
        h, violations = _build(
            ROOT, 'law B extends Ghost { }', 'law Second { }')
        assert h is None
        assert _kinds(violations) == {ViolationKind.UNKNOWN_PARENT,
                                      ViolationKind.MULTIPLE_ROOTS}

    def test_empty_set_has_no_laws(self):
        h, violations = build_hierarchy([])
        assert h is None
        assert [(v.kind, v.law, v.detail) for v in violations] == [
            (ViolationKind.CYCLE_DETECTED, "", "no laws in the set")]

    def test_no_grant_at_all(self):
        root = """
        law Root {
          default rule quiet on sent if flow == outflow { permit; }
        }
        """
        h, violations = _build(
            root, 'law A extends Root { override quiet block on sent { } }')
        assert h is None
        assert _kinds(violations) == {ViolationKind.NO_META_PERMISSION}

    def test_unknown_target_reports_no_meta_permission(self):
        h, violations = _build(
            ROOT, 'law A extends Root { override ghost permit on sent { } }')
        assert h is None
        assert _kinds(violations) == {ViolationKind.NO_META_PERMISSION}
        assert "no ancestor law declares" in violations[0].detail

    def test_permit_override_needs_may_permit(self):
        h, violations = _build(
            ROOT, 'law A extends Root { override d-open permit on sent { } }')
        assert h is None
        assert _kinds(violations) == {ViolationKind.WRONG_DIRECTION}

    def test_replace_needs_may_replace(self):
        h, violations = _build(
            ROOT,
            'law A extends Root {'
            ' override d-shut replace on arrived { permit; } }')
        assert h is None
        assert _kinds(violations) == {ViolationKind.WRONG_DIRECTION}

    def test_may_replace_covers_every_direction(self):
        root = """
        law Root {
          default rule d on sent if flow == outflow { permit; }
          allow-override d may-replace;
        }
        """
        for body in ('override d permit on sent { }',
                     'override d block on sent { }',
                     'override d replace on sent { block; }'):
            h, violations = _build(
                root, 'law A extends Root { %s }' % body)
            assert h is not None, (body, violations)


class TestTransitiveConformance:
    GRAND = """
    law Mid extends Root {
      profile [middling];
    }
    """

    def test_grandchild_may_override_root_rule(self):
        h, violations = _build(
            ROOT, self.GRAND,
            'law Leaf extends Mid {'
            ' override d-shut permit on arrived if op == "knock" { } }')
        assert h is not None, violations
        # Mid declares no d-shut, so Leaf's override replaces Root's
        assert _arrival(h, "Leaf", "knock", "Mid") == (
            Decision.DELIVER, "Leaf:d-shut")
        assert _arrival(h, "Leaf", "other", "Mid") == (
            Decision.BLOCK_SILENT, "Root:d-shut")

    def test_parent_cannot_narrow_grandchild_grants(self):
        # Mid grants nothing itself; the root grant still reaches Leaf.
        h, violations = _build(
            ROOT, self.GRAND,
            'law Leaf extends Mid {'
            ' override d-open block on sent { } }')
        assert h is not None, violations

    def test_nearest_ancestor_owns_shadowed_id(self):
        mid = """
        law Mid extends Root {
          default rule d-shut on arrived if flow == import { block; }
          allow-override d-shut may-permit;
        }
        """
        h, violations = _build(
            ROOT, mid,
            'law Leaf extends Mid {'
            ' override d-shut permit on arrived { } }')
        assert h is not None, violations
        # The override substitutes Mid's d-shut, which rules on imports;
        # Root's d-shut decides inflow first and keeps its own body.
        assert _arrival(h, "Leaf") == (Decision.DELIVER, "Leaf:d-shut")
        assert _arrival(h, "Leaf", sender_law="Mid") == (
            Decision.BLOCK_SILENT, "Root:d-shut")
        assert _arrival(h, "Mid") == (Decision.BLOCK_SILENT, "Mid:d-shut")


class TestCheckOverrides:
    def test_override_pairs_with_its_rule_at_the_ruling(self):
        root = parse_law(ROOT)
        child = parse_law(
            'law A extends Root { override d-shut permit on arrived { } }')
        assert check_overrides([root], child) == []
        h, violations = build_hierarchy([root, child])
        assert h is not None, violations
        assert h.laws["A"] is child
        assert _arrival(h, "A", sender_law="Root") == (
            Decision.DELIVER, "A:d-shut")
        assert _arrival(h, "Root", sender_law="A") == (
            Decision.BLOCK_SILENT, "Root:d-shut")

    def test_reports_each_bad_override_in_order(self):
        mid = parse_law("""
        law Mid extends Root {
          default rule quiet on sent { permit; }
        }
        """)
        leaf = parse_law("""
        law Leaf extends Mid {
          override ghost permit on sent { }
          override fixed permit on sent { }
          override d-shut permit on arrived { }
          override quiet block on sent { }
          override d-open permit on sent { }
        }
        """)
        assert check_overrides([parse_law(ROOT), mid], leaf) == [
            ConformanceViolation(
                ViolationKind.NO_META_PERMISSION, "Leaf",
                "override targets 'ghost', which no ancestor law declares"),
            ConformanceViolation(
                ViolationKind.OVERRIDES_CATEGORICAL, "Leaf",
                "override targets categorical rule 'fixed' of law 'Root'"),
            ConformanceViolation(
                ViolationKind.NO_META_PERMISSION, "Leaf",
                "law 'Mid' grants no override permission on 'quiet'"),
            ConformanceViolation(
                ViolationKind.WRONG_DIRECTION, "Leaf",
                "permit override of 'd-open' not covered by granted "
                "direction(s) may-prohibit"),
        ]


def _ref_cycles(laws) -> list[ConformanceViolation]:
    """The cycle violations of the parent links, as the walk with a
    ``cycles_reported`` set and an early-out for finished laws found them."""
    violations: list[ConformanceViolation] = []
    by_name: dict[str, Law] = {}
    for law in laws:
        by_name.setdefault(law.name, law)
    state: dict[str, int] = {}  # 1 = on current walk, 2 = done
    cycles_reported: set[str] = set()
    for start in sorted(by_name):
        if state.get(start):
            continue
        trail: list[str] = []
        cursor: Optional[str] = start
        while cursor is not None and cursor in by_name and not state.get(cursor):
            state[cursor] = 1
            trail.append(cursor)
            cursor = by_name[cursor].parent
        if cursor is not None and state.get(cursor) == 1:
            loop = trail[trail.index(cursor):]
            key = min(loop)
            if key not in cycles_reported:
                cycles_reported.add(key)
                violations.append(ConformanceViolation(
                    ViolationKind.CYCLE_DETECTED, key,
                    "parent chain loops: " + " -> ".join(loop + [cursor])))
        for name in trail:
            state[name] = 2
    return violations


def _links(*pairs) -> list[Law]:
    """Bare laws with the given (name, parent) links and no clauses."""
    return [Law(name, parent, (), (), (), ()) for name, parent in pairs]


# 8 names a law may have, and 2 more a parent link may name
_LINK_SETS = st.lists(st.tuples(st.sampled_from("ABCDEFGH"),
                            st.sampled_from([None, *"ABCDEFGHXY"])),
                  min_size=1, max_size=9)


class TestCycleWalkReference:
    """``build_hierarchy`` reports each loop of parent links once, at the
    least name on it, in the order the reference walk finds them."""

    @staticmethod
    def _cycles(laws):
        return [v for v in build_hierarchy(laws)[1]
                if v.kind is ViolationKind.CYCLE_DETECTED]

    @pytest.mark.parametrize("pairs, loops", [
        ([("A", "A")], ["A -> A"]),
        ([("A", "B"), ("B", "A"), ("C", "D"), ("D", "C")],
         ["A -> B -> A", "C -> D -> C"]),
        ([("A", "B"), ("B", "C"), ("C", "D"), ("D", "C")], ["C -> D -> C"]),
        ([("E", "F"), ("F", "G"), ("G", "E"), ("A", "F")],
         ["F -> G -> E -> F"]),
        ([("R", None), ("A", "X"), ("B", "B"), ("C", None)], ["B -> B"]),
        ([("R", None), ("A", "R")], []),
    ], ids=["self-loop", "two-disjoint-loops", "tail-into-a-loop",
            "tail-entered-first", "unknown-parent-and-roots", "no-loop"])
    def test_hand_built_link_sets(self, pairs, loops):
        laws = _links(*pairs)
        found = self._cycles(laws)
        assert found == _ref_cycles(laws)
        assert [v.detail.removeprefix("parent chain loops: ")
                for v in found] == loops
        assert [v.law for v in found] == [min(l.split(" -> ")) for l in loops]

    @given(_LINK_SETS)
    @example([("A", "A"), ("B", "B")])
    @example([("A", "B"), ("B", "A"), ("C", "D"), ("D", "C"), ("E", "C")])
    @example([("A", "X"), ("B", None), ("C", None), ("D", "D")])
    def test_generated_link_sets(self, pairs):
        laws = _links(*pairs)
        assert self._cycles(laws) == _ref_cycles(laws)
