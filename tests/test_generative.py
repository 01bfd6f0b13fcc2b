"""Generated text into both parsers: each fails only with its own error.

Examples are derived from the test source rather than drawn at random, and
no example database is kept, so every run checks the same inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from mds.law_lang import LawParseError, parse_law
from mds.scenario import ScenarioError, parse_scenario

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None,
                    database=None)

# Pieces each lexer treats specially, so that joined pieces reach the
# parsers' later stages and their string and escape edge cases.
LAW_PIECES = [
    "law ", "T ", "extends ", "{", "}", "[", "]", "(", ")", ",", ";", ".",
    "=", "==", "<", " ", "\t", "\r", "\n", "#", "# note\n", '"', '"x"',
    "\\", '\\"', "\\\\", "\\n", "\\t", "\\q", "\x00", "\x1f", "\ufeff",
    "-", "-1", "7", "1a", "_a", "a-b", "profile [a, b];", "default ",
    "categorical ", "rule ", "r ", "on ", "sent", "arrived", "adopted",
    "if ", "op ", "flow ", "inflow ", "state.", "n ", "peer.", "cert.",
    "not ", "and ", "or ", "permit;", "block;", "set ", "increment ",
    "by ", "append-profile ", "require-cert ", "contains ", "module-name",
    "allow-override ", "may-permit", "override ", "replace ", "é", "$",
]
SCENARIO_PIECES = [
    "scenario ", "law ", "component ", "modules ", "cert ", "outside ",
    "send ", "outsidesend ", "expect ", "matched ", "advance ", "op ",
    "payload ", "-> ", "a", "b", "M", "N", "@", ",", "=", "k=v", "3",
    "delivered", "blocked-at-sender", " ", "\t", "\n", "\x1c", "\x1f",
    "\xa0", "#", '"', '"x"', "\\", '\\"', "\\\\", "\\q", "é",
]


def _joined(pieces):
    return st.lists(st.sampled_from(pieces), max_size=40).map("".join)


class TestLawParser:
    @SETTINGS
    @given(st.text())
    def test_any_text_parses_or_raises_law_parse_error(self, text):
        try:
            parse_law(text)
        except LawParseError:
            pass

    @SETTINGS
    @given(_joined(LAW_PIECES))
    def test_law_like_text_parses_or_raises_law_parse_error(self, text):
        try:
            parse_law(text)
        except LawParseError:
            pass


class TestScenarioParser:
    @SETTINGS
    @given(st.text())
    def test_any_text_parses_or_raises_scenario_error(self, text):
        try:
            parse_scenario(text)
        except ScenarioError:
            pass

    @SETTINGS
    @given(_joined(SCENARIO_PIECES))
    def test_script_like_text_parses_or_raises_scenario_error(self, text):
        try:
            parse_scenario(text)
        except ScenarioError:
            pass
