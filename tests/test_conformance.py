"""Hierarchy assembly and the conformance rules that guard it."""

import pytest

from mds.conformance import ViolationKind, build_hierarchy, derive_law
from mds.law_lang import parse_law
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
        ov = h.laws["Leaf"].overrides[0]
        assert ov.owner == "Root"

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
          default rule local on arrived if flow == import { block; }
          allow-override local may-permit;
        }
        """
        h, violations = _build(
            ROOT, mid,
            'law Leaf extends Mid {'
            ' override local permit on arrived { } }')
        assert h is not None, violations
        assert h.laws["Leaf"].overrides[0].owner == "Mid"


class TestDeriveLaw:
    def test_annotates_owner(self):
        parent = parse_law(ROOT)
        child = parse_law(
            'law A extends Root { override d-shut permit on arrived { } }')
        derived, violations = derive_law(parent, child)
        assert not violations
        assert derived.overrides[0].owner == "Root"
