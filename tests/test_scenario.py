"""Scenario script parsing and validation."""

import re
import sys

import pytest

from mds.scenario import (AdvanceStep, ScenarioError, SendStep, _split,
                          parse_scenario)

GOOD = """
# exercise every directive
scenario demo
law ../laws

component a modules MS
component b modules OPS,P cert clearance=high,team=ops
outside wild

send a -> b@OPS op ping payload "hello world"
expect delivered matched S:inner-permit

outsidesend wild -> a op knock
expect blocked-at-receiver

advance 4
send b@P -> wild op wave
"""


class TestParse:
    def test_full_script(self):
        scn = parse_scenario(GOOD)
        assert scn.name == "demo"
        assert scn.law_dir == "../laws"
        assert [d.name for d in scn.components] == ["a", "b"]
        assert scn.components[1].modules == ("OPS", "P")
        assert dict(scn.components[1].cert_attrs) == {
            "clearance": "high", "team": "ops"}
        assert scn.outsides == ["wild"]
        kinds = [type(s).__name__ for s in scn.steps]
        assert kinds == ["SendStep", "SendStep", "AdvanceStep", "SendStep"]

    def test_payload_and_expectation_binding(self):
        scn = parse_scenario(GOOD)
        first = scn.steps[0]
        assert isinstance(first, SendStep)
        assert first.payload == b"hello world"
        assert first.expect.outcome == "delivered"
        assert first.expect.matched == "S:inner-permit"
        second = scn.steps[1]
        assert second.from_outside
        assert second.expect.outcome == "blocked-at-receiver"
        assert second.expect.matched is None
        assert scn.steps[3].expect is None

    def test_advance_ticks(self):
        scn = parse_scenario(GOOD)
        step = scn.steps[2]
        assert isinstance(step, AdvanceStep)
        assert step.ticks == 4

    def test_outside_target_allowed(self):
        scn = parse_scenario(GOOD)
        last = scn.steps[3]
        assert last.target == "wild"
        assert last.sender_law == "P"


def _expect_error(text, fragment, line=None):
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert fragment in str(err.value), str(err.value)
    if line is not None:
        assert err.value.line == line


MINI = "scenario t\nlaw d\ncomponent a modules M\ncomponent c modules M\n"


class TestErrors:
    def test_unknown_directive_with_line(self):
        _expect_error(MINI + "transmit a -> c op x\n",
                      "unknown directive", line=5)

    def test_missing_scenario_line(self):
        _expect_error("law d\n", "missing scenario")

    def test_missing_law_line(self):
        _expect_error("scenario t\n", "missing law")

    def test_expect_before_any_send(self):
        _expect_error("scenario t\nlaw d\nexpect delivered\n",
                      "no send", line=3)

    def test_double_expectation(self):
        _expect_error(MINI + "send a -> c op x\nexpect delivered\n"
                             "expect delivered\n",
                      "already has", line=7)

    def test_bad_outcome(self):
        _expect_error(MINI + "send a -> c op x\nexpect maybe\n",
                      "outcome must be one of", line=6)

    def test_undeclared_sender(self):
        _expect_error(MINI + "send ghost -> c op x\n", "not a component")

    def test_undeclared_target(self):
        _expect_error(MINI + "send a -> ghost op x\n", "unknown target")

    def test_outsidesend_needs_outside_party(self):
        _expect_error(MINI + "outsidesend a -> c op x\n",
                      "not an outside party")

    def test_outside_sender_cannot_carry_law(self):
        _expect_error(MINI + "outside w\noutsidesend w@M -> c op x\n",
                      "hold no law")

    def test_multi_module_endpoint_needs_module(self):
        text = ("scenario t\nlaw d\ncomponent a modules M,N\n"
                "component c modules M\nsend a -> c op x\n")
        _expect_error(text, "holds several modules", line=5)

    def test_module_must_be_adopted(self):
        _expect_error(MINI + "send a@Z -> c op x\n", "adopted no module")

    def test_duplicate_component_name(self):
        _expect_error("scenario t\nlaw d\ncomponent a modules M\n"
                      "component a modules N\n", "duplicate", line=4)

    def test_outside_name_collision(self):
        _expect_error("scenario t\nlaw d\ncomponent a modules M\n"
                      "outside a\n", "duplicate", line=4)

    def test_unquoted_payload(self):
        _expect_error(MINI + "send a -> c op x payload bare\n", "quoted")

    def test_repeated_module_in_declaration(self):
        _expect_error("scenario t\nlaw d\ncomponent a modules M,M\n",
                      "repeated module", line=3)


class TestSplit:
    """How a script line breaks into words; a string keeps its '"' marker."""

    @pytest.mark.parametrize("line,words", [
        pytest.param('a "q\\"x" b', ["a", '"q"x', "b"], id="escaped-quote"),
        pytest.param('a "q\\\\x" b', ["a", '"q\\x', "b"],
                     id="escaped-backslash"),
        pytest.param('a "q\\nx\\\\\\"y" b', ["a", '"q\\nx\\"y', "b"],
                     id="other-backslash-stays"),
        pytest.param('a"b c"', ['a"b', 'c"'], id="quotes-inside-words"),
        pytest.param('"x"y', ['"x', "y"], id="word-after-string"),
        pytest.param('"" z', ['"', "z"], id="empty-string"),
        pytest.param("a  b\x1cc", ["a", "b", "c"], id="space-and-x1c"),
        pytest.param('a\x1cb "c d"\x1c e', ["a", "b", '"c d', "e"],
                     id="x1c-around-a-string"),
        pytest.param("a\x1fb\xa0c d", ["a", "b", "c", "d"],
                     id="unicode-whitespace"),
    ])
    def test_words(self, line, words):
        assert _split(line, 1) == words

    @pytest.mark.parametrize("line", [
        pytest.param('a "unterminated', id="no-closing-quote"),
        pytest.param('a "ends in backslash\\', id="trailing-backslash"),
        pytest.param('a "escaped quote\\"', id="escaped-closing-quote"),
    ])
    def test_unterminated_string(self, line):
        with pytest.raises(ScenarioError) as err:
            _split(line, 3)
        assert (err.value.line, err.value.message) == (3, "unterminated string")

    def test_regex_whitespace_is_str_isspace(self):
        # The quoted-line path splits on \s, the plain path on str.split().
        every = "".join(map(chr, range(sys.maxunicode + 1)))
        assert set(re.findall(r"\s", every)) == {
            c for c in every if c.isspace()}

    def test_payload_unescapes_in_a_script(self):
        scn = parse_scenario(MINI + 'send a -> c op x payload "P\\"7\\\\\\q"\n')
        assert scn.steps[0].payload == b'P"7\\\\q'

    def test_unterminated_payload_names_its_line(self):
        _expect_error(MINI + 'send a -> c op x payload "open\n',
                      "unterminated string", line=5)

    def test_payload_keeps_a_unicode_line_break(self):
        scn = parse_scenario(MINI + 'send a -> c op x payload "a\x85b"\n')
        assert scn.steps[0].payload == "a\x85b".encode("utf-8")

    def test_form_feed_line_does_not_shift_later_line_numbers(self):
        _expect_error("scenario t\nlaw d\n\x0c\nexpect maybe\n",
                      "outcome must be one of", line=4)

    def test_crlf_line_ends(self):
        scn = parse_scenario(MINI.replace("\n", "\r\n")
                             + "send a -> c op x\r\nexpect delivered\r\n")
        assert scn.steps[0].expect.outcome == "delivered"


class TestEmptyScript:
    def test_zero_steps_is_valid(self):
        scn = parse_scenario("scenario quiet\nlaw ../laws\n")
        assert scn.steps == []
        assert scn.components == []
