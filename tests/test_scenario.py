"""Scenario script parsing and validation."""

import gc
import importlib
import re
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mds import scenario
from mds.scenario import (OUTCOMES, AdvanceStep, ScenarioError, SendStep,
                          _split, load_scenario, parse_scenario)

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_FILES = sorted((REPO_ROOT / "scenarios").glob("*.mds"))

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

    def test_cert_skips_empty_pairs_and_splits_at_the_first_equals(self):
        scn = parse_scenario("scenario t\nlaw d\ncomponent c modules M "
                             "cert dept=a,,clearance=b=c,\n")
        assert scn.components[0].cert_attrs == (
            ("dept", "a"), ("clearance", "b=c"))

    def test_payload_and_expectation_binding(self):
        scn = parse_scenario(GOOD)
        first = scn.steps[0]
        assert isinstance(first, SendStep)
        assert first.payload == b"hello world"
        assert first.expect_outcome == "delivered"
        assert first.expect_matched == "S:inner-permit"
        second = scn.steps[1]
        assert second.from_outside
        assert second.expect_outcome == "blocked-at-receiver"
        assert second.expect_matched is None
        assert scn.steps[3].expect_outcome is None
        assert scn.steps[3].expect_matched is None

    @pytest.mark.parametrize("sends", [100, 1000])
    def test_one_tracked_object_per_send(self, sends):
        """A send and its expect line leave one object the cyclic collector
        tracks, the step: nothing per line may creep back."""
        text = MINI + "".join(
            f'send a -> c op x{i} payload "p{i}"\n'
            f"expect delivered matched M:r{i}\n" for i in range(sends))
        gc.disable()
        try:
            gc.collect()
            before = len(gc.get_objects())
            scn = parse_scenario(text)
            grown = len(gc.get_objects()) - before
        finally:
            gc.enable()
        assert len(scn.steps) == sends
        assert grown <= sends + 20

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

    @pytest.mark.parametrize("text,line,message", [
        pytest.param('send a -> c op "ping"\n', 5,
                     "operation must not be quoted", id="operation"),
        pytest.param('send a -> c op x\nexpect delivered matched "M:x"\n',
                     6, "matched token must not be quoted", id="matched"),
    ])
    def test_quoted_word_is_refused(self, text, line, message):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINI + text)
        assert (err.value.line, err.value.message) == (line, message)

    @pytest.mark.parametrize("text", [
        pytest.param("law d\n", id="while-reading"),
        pytest.param(MINI + "send a -> ghost op x\n", id="endpoint-check"),
    ])
    def test_error_names_its_origin(self, text):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(text, origin="x.mds")
        assert err.value.origin == "x.mds"
        assert str(err.value) == f"line {err.value.line}: {err.value.message}"

    def test_unreadable_file_names_its_path(self, tmp_path):
        path = tmp_path / "latin1.mds"
        path.write_bytes(b"scenario t\nlaw d\n# caf\xe9\n")
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert (err.value.line, err.value.origin) == (3, str(path))

    def test_repeated_module_in_declaration(self):
        _expect_error("scenario t\nlaw d\ncomponent a modules M,M\n",
                      "repeated module", line=3)

    @pytest.mark.parametrize("count", [
        pytest.param("\u00b2", id="superscript-two"),
        pytest.param("\u0663", id="arabic-indic-three"),
        pytest.param("9" * 5000, id="more-digits-than-int-reads"),
        pytest.param("-1", id="negative"),
        pytest.param("3x", id="trailing-letter"),
    ])
    def test_advance_takes_ascii_digits_only(self, count):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(MINI + f"advance {count}\n")
        assert (err.value.line, err.value.message) == (
            5, "expected: advance N")

    def test_cert_key_must_not_be_empty(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("scenario t\nlaw d\ncomponent a modules M "
                           "cert =1\n")
        assert (err.value.line, err.value.message) == (
            3, "cert attribute '=1' has an empty key")

    def test_cert_key_must_not_repeat(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario("scenario t\nlaw d\ncomponent a modules M "
                           "cert team=a,team=b\n")
        assert (err.value.line, err.value.message) == (
            3, "repeated cert key 'team'")


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
        assert scn.steps[0].expect_outcome == "delivered"


class TestEmptyScript:
    def test_zero_steps_is_valid(self):
        scn = parse_scenario("scenario quiet\nlaw ../laws\n")
        assert scn.steps == []
        assert scn.components == []


def _crlf(text):
    """``text`` with CRLF line ends and no newline after its last line."""
    return text.replace("\n", "\r\n").removesuffix("\r\n")


class TestLineEnds:
    """A line ends at a newline or at the end of the text; a carriage
    return before the newline is a blank like any other."""

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
    def test_shipped_scenarios(self, path):
        text = path.read_text(encoding="utf-8")
        assert parse_scenario(_crlf(text)) == parse_scenario(text)

    @pytest.mark.parametrize("workload", ["sim-mix", "tcp-mix", "deep-law"])
    def test_workload_scripts(self, workload, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        text = workloads.build(workload, 1, REPO_ROOT / "laws",
                               steps=40).scenario_text("laws")
        assert parse_scenario(_crlf(text)) == parse_scenario(text)

    @pytest.mark.parametrize("body,fragment,line", [
        pytest.param("transmit a -> c op x\n", "unknown directive", 5,
                     id="unknown-directive"),
        pytest.param('send a -> c op x payload "open\n',
                     "unterminated string", 5, id="unterminated-payload"),
        pytest.param("send a -> c op x\nexpect maybe\n",
                     "outcome must be one of", 6, id="bad-outcome"),
        pytest.param("expect delivered\nsend a -> c op x\n",
                     "expect with no send before it", 5,
                     id="expect-before-any-send"),
        pytest.param("send a -> c op x\nexpect delivered\nexpect delivered\n",
                     "step already has an expectation", 7,
                     id="second-expect"),
        pytest.param("send a -> ghost op x\n", "unknown target", 5,
                     id="unknown-target"),
        pytest.param("scenario u\n", "second scenario line", 5,
                     id="second-scenario"),
        pytest.param("law e\n", "second law line", 5, id="second-law"),
        pytest.param("component 9b modules M\n",
                     "bad component name '9b'", 5, id="bad-component-name"),
        pytest.param("component b modules ,\n",
                     "component needs at least one module", 5,
                     id="no-module"),
        pytest.param("component b modules M,9N\n", "bad module name '9N'", 5,
                     id="bad-module-name"),
        pytest.param("component b modules M extra\n", "unexpected 'extra'",
                     5, id="unexpected-after-modules"),
        pytest.param("component b modules M cert team\n",
                     "cert attribute 'team' needs k=v", 5,
                     id="cert-without-value"),
        pytest.param("send a -> c op x\nexpect delivered by T\n",
                     "expected: matched TOKEN", 6,
                     id="expect-without-matched"),
    ])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_errors_keep_their_line(self, body, fragment, line, end):
        text = (MINI + body).replace("\n", end)
        _expect_error(text, fragment, line=line)
        _expect_error(text.removesuffix(end), fragment, line=line)

    @pytest.mark.parametrize("body,fragment,line", [
        pytest.param("send a -> c op x\nexpect delivered\nsend c@M -> a op y"
                     "\nexpect blocked-at-sender matched T\ntransmit a\n",
                     "unknown directive", 9, id="unknown-directive"),
        pytest.param("send a -> c op x\nexpect delivered\nsend a -> ghost op y"
                     "\nexpect delivered\n", "unknown target", 7,
                     id="unknown-target"),
        pytest.param("send a -> c op x\nexpect delivered\nsend a -> c op y\n"
                     "expect delivered\nexpect blocked-at-sender\n",
                     "step already has an expectation", 9,
                     id="second-expect"),
    ])
    @pytest.mark.parametrize("end", ["\n", "\r\n"], ids=["lf", "crlf"])
    def test_errors_after_paired_rows_keep_their_line(self, body, fragment,
                                                      line, end):
        """A send and its expect are one row but two lines."""
        text = (MINI + body).replace("\n", end)
        _expect_error(text, fragment, line=line)
        _assert_paths_agree(text)

    @pytest.mark.parametrize("blank", ["\xa0", "\x0b", "\x1c"])
    def test_unicode_blanks_between_words(self, blank):
        lines = ['send a -> c@N op x payload "p"',
                 "expect delivered matched T", "outsidesend w -> c@M op y"]
        text = _HEADER + "".join(line.replace(" ", blank) + "\n"
                                 for line in lines)
        assert parse_scenario(text) == parse_scenario(
            _HEADER + "".join(line + "\n" for line in lines))
        _assert_paths_agree(text)


# -- the row pattern against the word-by-word path ---------------------------

# Sorts every line but a blank or '#' one as "other", so the parser reads it
# word by word: the groups that mark a send or an expect never match.
_WORDS_ONLY = re.compile(
    r"(?:[^\S\n]*(?:#[^\n]*)?|(?!)" + "()" * (scenario._OTHER_ROW - 1)
    + r"|([^\n]*))(?:\n|\Z)")


def _parsed(text):
    """The scenario, or the (line, message) of the error it raises."""
    try:
        return parse_scenario(text)
    except ScenarioError as exc:
        return exc.line, exc.message


def _assert_paths_agree(text):
    fast = _parsed(text)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenario, "_ROW", _WORDS_ONLY)
        slow = _parsed(text)
    assert fast == slow, text


# Whitespace that str.strip, str.split and \s all treat as a separator.
_SPACE = st.text(" \t\r\x0b\x0c\x1c\x1f\x85\xa0\u2003", min_size=1,
                 max_size=3)
def _mostly(common, odd):
    """Draw from ``common`` four times in five, else from ``odd``; each is a
    strategy or a list to sample."""
    common, odd = (st.sampled_from(x) if isinstance(x, list) else x
                   for x in (common, odd))
    return st.integers(0, 4).flatmap(lambda i: common if i else odd)


# Endpoints the header below declares, mostly, and some it does not.
_ODD_ENDPOINTS = st.one_of(
    st.sampled_from(["c", "ghost", "a-1", "_q", "9z", 'a"b', "->"]),
    st.builds("{}@{}".format, st.sampled_from(["a", "w", "9z", 'a"b']),
              st.sampled_from(["M", "N", "Z", "", '"M"', "M@N"])))
_SENDERS = {
    "send": _mostly(["a", "a@M", "c@M", "c@N"], _ODD_ENDPOINTS),
    "outsidesend": _mostly(["w", "w", "w@M"], _ODD_ENDPOINTS),
}
_TARGETS = _mostly(["a", "c@M", "c@N", "w"], _ODD_ENDPOINTS)
_WORDS = _mostly(["x", "ping", "S:inner-permit"],
                 ['a"b', '"x"', '"', "->", "op", "payload", "matched", "\\",
                  "a\\"])
# A payload body: quotes and backslashes in any order, so some strings
# close early, some never close, and some end on an escaped quote.
_BODIES = st.text('ab \\"\x85\xa0\u00e9', max_size=6)
_PAYLOADS = st.one_of(
    st.builds('"{}"'.format, _BODIES),
    st.builds('"{}"'.format, _BODIES.map(
        lambda b: b.replace("\\", "\\\\").replace('"', '\\"'))))


@st.composite
def _send_line(draw):
    verb = draw(st.sampled_from(["send", "outsidesend"]))
    words = [verb, draw(_SENDERS[verb]), "->", draw(_TARGETS), "op",
             draw(_WORDS)]
    if draw(st.booleans()):
        words += ["payload", draw(_PAYLOADS)]
    elif draw(st.integers(0, 3)) == 0:
        words += ["payload", draw(_WORDS)]
    return draw(_damaged(words))


@st.composite
def _expect_line(draw):
    words = ["expect", draw(st.sampled_from(OUTCOMES + ("maybe",)))]
    if draw(st.booleans()):
        words += ["matched", draw(_WORDS)]
    return draw(_damaged(words))


@st.composite
def _damaged(draw, words):
    """``words`` joined by drawn whitespace, perhaps with one word dropped,
    replaced or added, and perhaps with no space at one join."""
    words = list(words)
    damage = draw(st.sampled_from(["none"] * 9 + ["drop", "swap", "add"]))
    at = draw(st.integers(0, len(words) - 1))
    if damage == "drop":
        del words[at]
    elif damage == "swap":
        words[at] = draw(_WORDS)
    elif damage == "add":
        words.insert(at + draw(st.integers(0, 1)), draw(_WORDS))
    gaps = [draw(_SPACE) for _ in words]
    if draw(st.integers(0, 11)) == 0:
        gaps[draw(st.integers(0, len(gaps) - 1))] = ""
    return "".join(g + w for g, w in zip(gaps, words)) + draw(
        st.sampled_from(["", " ", "\x85", "\xa0\t"]))


# A send, mostly with its expect after it; now and then a blank or '#' line
# or a "\r" between the two, a second expect, or a lone expect.
_BLOCKS = st.one_of(
    st.tuples(_send_line(), _expect_line()).map("\n".join),
    st.tuples(_send_line(), st.sampled_from(["\n\n", "\n\t\n", "\n# x\n",
                                             "\r\n"]),
              _expect_line()).map("".join),
    st.tuples(_send_line(), _expect_line(), _expect_line()).map("\n".join),
    _send_line(), _expect_line())

_HEADER = ("scenario t\nlaw d\ncomponent a modules M\n"
           "component c modules M,N\noutside w\n")


class TestFastLinesAgreeWithWords:
    """The row pattern's send and expect rows build exactly what the
    word-by-word path builds, and it sorts as "other" every line that path
    would refuse."""

    @pytest.mark.parametrize("path", SCENARIO_FILES, ids=lambda p: p.stem)
    def test_shipped_scenarios(self, path):
        _assert_paths_agree(path.read_text(encoding="utf-8"))

    @pytest.mark.parametrize("text", [GOOD, MINI], ids=["GOOD", "MINI"])
    def test_sample_scripts(self, text):
        _assert_paths_agree(text)

    def test_shipped_send_and_expect_lines_take_the_patterns(self):
        """Each shipped send with an expect line right after it is one row
        that carries the expect's words, and no expect line is a row of its
        own."""
        pairs = 0
        for path in SCENARIO_FILES:
            text = path.read_text(encoding="utf-8")
            lines = text.split("\n")
            at = 0  # the index in ``lines`` of the row's first line
            for m in scenario._ROW.finditer(text):
                first = lines[at].strip()
                assert not first.startswith("expect"), first
                if (first.startswith(("send ", "outsidesend "))
                        and lines[at + 1].strip().startswith("expect ")):
                    assert m.lastindex in (8, 9), first
                    words = lines[at + 1].split()
                    assert m.group(8, 9) == (
                        words[1], words[3] if len(words) == 4 else None)
                    pairs += 1
                at += m[0].count("\n")
        assert pairs > 10

    def test_words_only_pattern_sorts_every_line_as_other(self):
        for path in SCENARIO_FILES:
            text = path.read_text(encoding="utf-8")
            rows = list(_WORDS_ONLY.finditer(text))
            assert len(rows) == text.count("\n") + 1
            for m in rows:
                line = m[0].strip()
                want = (None if not line or line.startswith("#")
                        else scenario._OTHER_ROW)
                assert m.lastindex == want, line

    @pytest.mark.parametrize("line,fragment", [
        ("{b}x", "unknown directive"),
        ("send{b}a{b}->{b}c{b}op{b}x{b}y", "expected: payload"),
        ("send a -> c op x payload{b}y", "payload must be quoted"),
        ("send a -> c op x\nexpect delivered matched T{b}y",
         "expected: expect OUTCOME"),
        ("send{b}a{b}->{b}c{b}op{b}x{b}\n{b}expect{b}delivered{b}matched{b}"
         "T{b}y", "expected: expect OUTCOME"),
    ])
    def test_long_blank_runs_take_linear_time(self, line, fragment):
        """A failing line is given up in time linear in its length: at
        50,000 blanks a pattern that backs off quadratically takes tens of
        seconds."""
        text = MINI + line.format(b=" \t" * 25_000) + "\n"
        start = time.monotonic()
        _expect_error(text, fragment)
        assert time.monotonic() - start < 1.0
        _assert_paths_agree(text)

    @settings(derandomize=True, max_examples=600, deadline=None,
              database=None)
    @given(st.lists(_BLOCKS, min_size=1, max_size=3))
    def test_generated_lines(self, lines):
        _assert_paths_agree(_HEADER + "\n".join(lines) + "\n")
