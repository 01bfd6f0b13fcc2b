"""Value-type behaviour: names, terminals, hierarchy navigation."""

import pytest

from mds.conformance import build_hierarchy
from mds.controller import program_for
from mds.law_lang import parse_law
from mds.model import (Block, EventKind, FlowKind, Permit, SetState,
                       UnknownLawError, terminal_of, unsigned_decimal,
                       valid_name)


class TestNames:
    @pytest.mark.parametrize("token", [
        "S", "MS", "snake_case", "with-dash", "_lead", "a1", "Z9-x_",
    ])
    def test_accepts(self, token):
        assert valid_name(token)

    @pytest.mark.parametrize("token", [
        "", "1abc", "-lead", "has space", "dot.ted", "semi;", "eé",
    ])
    def test_rejects(self, token):
        assert not valid_name(token)


class TestUnsignedDecimal:
    @pytest.mark.parametrize("text,value", [
        ("0", 0), ("007", 7), ("65535", 65535),
        pytest.param("9" * 4300, int("9" * 4300), id="4300-digits"),
    ])
    def test_accepts_ascii_digits(self, text, value):
        assert unsigned_decimal(text) == value

    @pytest.mark.parametrize("text", [
        "", "-1", "+1", " 80", "80 ", "1_0", "0x10", "1e3", "\u00b2",
        "\u0663", "\u0668\u0660", pytest.param("9" * 5000, id="5000-digits"),
    ])
    def test_rejects_all_else(self, text):
        assert unsigned_decimal(text) is None


class TestEnums:
    def test_flow_kinds(self):
        assert {k.value for k in FlowKind} == {
            "inner", "inflow", "outflow", "import", "export"}

    def test_event_kinds(self):
        assert {k.value for k in EventKind} == {"adopted", "sent", "arrived"}


class TestTerminal:
    def test_permit(self):
        assert terminal_of((SetState("k", "v"), Permit())) == "permit"

    def test_block(self):
        assert terminal_of((Block(),)) == "block"

    def test_none(self):
        assert terminal_of((SetState("k", "v"),)) is None
        assert terminal_of(()) is None


_CHAIN = """
law {name} {extends} {{
  default rule r-{name} on sent if flow == outflow {{
    permit;
  }}
  allow-override r-{name} may-prohibit;
}}
"""


def _chain_hierarchy():
    texts = [
        _CHAIN.format(name="Top", extends=""),
        _CHAIN.format(name="Mid", extends="extends Top"),
        _CHAIN.format(name="Leaf", extends="extends Mid"),
    ]
    h, violations = build_hierarchy([parse_law(t) for t in texts])
    assert h is not None, violations
    return h


class TestHierarchy:
    def test_path_runs_root_down(self):
        h = _chain_hierarchy()
        assert h.path("Leaf") == ("Top", "Mid", "Leaf")
        assert h.path("Top") == ("Top",)

    def test_lineage_starts_at_root(self):
        h = _chain_hierarchy()
        root_hash = h.laws["Top"].hash
        for name in ("Top", "Mid", "Leaf"):
            lineage = h.lineage[name]
            assert lineage[0] == root_hash
            assert len(lineage) == len(h.path(name))
        assert h.lineage["Leaf"][-1] == h.laws["Leaf"].hash

    def test_unknown_law_raises(self):
        h = _chain_hierarchy()
        with pytest.raises(UnknownLawError):
            h.law("Nobody")

    def test_effective_rules_order_ancestors_first(self):
        h = _chain_hierarchy()
        entries = program_for(h, "Leaf").entries
        assert [e.rule_id for e in entries] == ["r-Top", "r-Mid", "r-Leaf"]
        assert [e.law_name for e in entries] == ["Top", "Mid", "Leaf"]
