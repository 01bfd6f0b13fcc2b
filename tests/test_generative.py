"""Generated input into both parsers and the frame reader: each fails only
with its own error.

Examples are derived from the test source rather than drawn at random, and
no example database is kept, so every run checks the same inputs.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mds.fabric import WIRE_FORMAT, FrameError, encode_frame, read_frame
from mds.law_lang import LawParseError, parse_law
from mds.scenario import ScenarioError, parse_scenario
from test_fabric import _JSON_VALUES, _SAMPLES, ChunkedSocket

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

# Bytes spliced into a frame body, so that edited bodies stay close to JSON
# and reach the per-field checks.
FRAME_PIECES = [
    b"{", b"}", b"[", b"]", b",", b":", b'"', b'"kind"', b'"x"', b"null",
    b"true", b"0", b"-1", b"1.5", b"1e999", b"[[[[", b'"\\u00"', b"\\",
    b"\xff", b"\x00", b" ",
]
MESSAGE_TYPES = tuple(cls for cls, _ in WIRE_FORMAT.values())
DROP = object()  # a field left out of the frame


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


@st.composite
def _near_valid_frame(draw):
    """A frame of some kind with one field set to some JSON value or
    dropped, its body then edited a few times at the byte level, and its
    length prefix declared as the edited length, give or take a few bytes."""
    kind = draw(st.sampled_from(sorted(WIRE_FORMAT)))
    data = json.loads(encode_frame(_SAMPLES[kind])[4:])
    key = draw(st.sampled_from([None, *data]))
    if key is not None:
        value = draw(st.sampled_from([DROP, *_JSON_VALUES]))
        if value is DROP:
            del data[key]
        else:
            data[key] = value
    body = bytearray(json.dumps(data).encode())
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(body)))
        cut = draw(st.integers(0, 6))
        body[at:at + cut] = draw(st.sampled_from(FRAME_PIECES) | st.binary(
            max_size=4))
    size = max(0, len(body) + draw(st.sampled_from((0, 0, 0, -1, 1, 5))))
    return size.to_bytes(4, "big") + bytes(body)


class TestFrameReader:
    @staticmethod
    def _read_all(stream, seed):
        """Read frames until the stream ends or one raises FrameError."""
        sock = ChunkedSocket(stream, seed)
        try:
            while (msg := read_frame(sock)) is not None:
                assert isinstance(msg, MESSAGE_TYPES), msg
        except FrameError:
            pass

    @SETTINGS
    @given(st.binary(), st.integers(0, 2 ** 32))
    def test_any_bytes_read_as_messages_or_raise_frame_error(self, stream,
                                                             seed):
        self._read_all(stream, seed)

    @SETTINGS
    @given(st.lists(_near_valid_frame(), min_size=1, max_size=3),
           st.integers(0, 2 ** 32))
    def test_near_valid_frames_read_as_messages_or_raise_frame_error(
            self, frames, seed):
        self._read_all(b"".join(frames), seed)
