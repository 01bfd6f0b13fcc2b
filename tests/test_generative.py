"""Generated input into both parsers, the frame reader and the receiving
controller: each parser fails only with its own error, and a controller
rules on any message the wire can carry, as the oracle does.

Examples are derived from the test source rather than drawn at random, and
no example database is kept, so every run checks the same inputs.
"""

import dataclasses
import importlib
import sys
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mds.conformance import build_hierarchy
from mds.controller import (BareInbound, Envelope, EventContext, adopt,
                            handle_arrive, issue_certificate, matched_token)
from mds.fabric import (WIRE_FORMAT, FrameError, decode_body, encode_frame,
                        read_frame)
from mds.law_lang import LawParseError, parse_law
from mds.model import EventKind
from mds.oracle import oracle_evaluate, oracle_flow
from mds.runner import check_law_dir
from mds.scenario import ScenarioError, parse_scenario
from test_fabric import (_SAMPLES, _WIRE_VALUES, BLOCKS, KIND_BYTES,
                         ChunkedSocket, _as_data, _frame, _wire)

REPO_ROOT = Path(__file__).resolve().parent.parent

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

# Bytes spliced into a frame body: counts, lengths, bool bytes and bytes
# that are not UTF-8, so that edited bodies stay close to the layout.
FRAME_PIECES = [
    b"\x00", b"\x01", b"\x02", b"\xff", b"\x00\x00", b"\x00\x01",
    b"\xff\xff", b"\x00\x00\x00\x00", b"\x00\x00\x00\x01",
    b"\x00\x00\x00\x05", b"\x80", b"\xed\xa0\x80", "é".encode(), b"x",
]
MESSAGE_TYPES = tuple(cls for cls, _ in WIRE_FORMAT.values())
# The fields each message class sends as one block.
BLOCK_FIELDS = {WIRE_FORMAT[kind][0]: names for kind, names in BLOCKS.items()}


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

    @pytest.mark.parametrize("opener,closer", [("(", ")"), ("not ", "")])
    def test_deep_nesting_raises_law_parse_error(self, opener, closer):
        # 10,000 levels overflowed the interpreter's stack before the
        # parser had a nesting limit.
        text = ("law T { default rule r on sent if " + opener * 10_000
                + "peer.outside" + closer * 10_000 + " { permit; } }")
        with pytest.raises(LawParseError, match="nested deeper than 64"):
            parse_law(text)


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


def _pieces(value) -> list[tuple[str, bytes]]:
    """``value`` as the wire lays it out, cut into (type, bytes) pieces, one
    per text, bytes, bool or int; a list is a count piece, then its items,
    and a block is a u32 length piece, then its fields' pieces."""
    if isinstance(value, tuple):
        return [("count", len(value).to_bytes(2, "big")),
                *(piece for item in value for piece in _pieces(item))]
    if dataclasses.is_dataclass(value):
        block = BLOCK_FIELDS.get(type(value), ())
        pieces = []
        for f in dataclasses.fields(value):
            if f.name in block[1:]:
                continue
            if f.name not in block:
                pieces += _pieces(getattr(value, f.name))
                continue
            inner = [piece for name in block
                     for piece in _pieces(getattr(value, name))]
            size = sum(len(piece) for _, piece in inner)
            pieces += [("block", size.to_bytes(4, "big")), *inner]
        return pieces
    return [("bool" if type(value) is bool else type(value).__name__,
             _wire(value))]


# Each damage _near_valid_frame makes, and the pieces it applies to (None:
# any piece).  Every text of the samples is non-empty.  A damage inside a
# block leaves the block's length as it was.
DAMAGES = {"short": None, "missing": None, "trailing": None, "kind": None,
           "over-long": ("str", "bytes", "count", "block"),
           "bad UTF-8": ("str",),
           "bool byte": ("bool",)}


@st.composite
def _near_valid_frame(draw):
    """A frame of some kind with one damage the decoder must refuse: a field
    cut short with the rest of the body, a length or count past the body,
    bad UTF-8 in a text, a bool byte other than 0 or 1, a field left out,
    bytes after the last field, or an unknown kind byte.  A field left out
    shifts the ones after it, which could by chance read as other fields;
    with these samples no such shift does."""
    damage = draw(st.sampled_from(sorted(DAMAGES)))
    kind, at = draw(st.sampled_from([
        (kind, at) for kind in sorted(WIRE_FORMAT)
        for at, (wire_type, _) in enumerate(_pieces(_SAMPLES[kind]))
        if DAMAGES[damage] is None or wire_type in DAMAGES[damage]]))
    pieces = _pieces(_SAMPLES[kind])
    wire_type, piece = pieces[at]
    before = bytes([KIND_BYTES[kind]]) + b"".join(p for _, p in pieces[:at])
    after = b"".join(p for _, p in pieces[at + 1:])
    if damage == "short":
        body = before + piece[:draw(st.integers(0, len(piece) - 1))]
    elif damage == "missing":
        body = before + after
    elif damage == "trailing":
        body = before + piece + after + draw(st.binary(min_size=1,
                                                        max_size=8))
    elif damage == "kind":
        kind_byte = draw(st.integers(len(WIRE_FORMAT), 255))
        body = bytes([kind_byte]) + before[1:] + piece + after
    elif damage == "over-long" and wire_type == "count":
        body = before + b"\xff\xff" + after
    elif damage == "over-long":
        size = len(piece) - 4 + len(after) + draw(st.integers(1, 1000))
        body = before + size.to_bytes(4, "big") + piece[4:] + after
    elif damage == "bool byte":
        body = before + bytes([draw(st.integers(2, 255))]) + after
    else:  # a non-ASCII byte in ASCII text: never UTF-8
        cut = draw(st.integers(4, len(piece) - 1))
        bad = bytes([draw(st.integers(0x80, 0xff))])
        body = before + piece[:cut] + bad + piece[cut + 1:] + after
    return len(body).to_bytes(4, "big") + body


@st.composite
def _edited_frame(draw):
    """A frame of some kind with one field set to some value or dropped,
    its body then edited a few times at the byte level, and its length
    prefix declared as the edited length, give or take a few bytes."""
    kind = draw(st.sampled_from(sorted(WIRE_FORMAT)))
    data = _as_data(_SAMPLES[kind])
    key = draw(st.sampled_from([None, *list(data)[1:]]))
    if key is not None:
        data[key] = draw(st.sampled_from(_WIRE_VALUES))  # None: left out
    body = bytearray(_frame(data)[4:])
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(body)))
        cut = draw(st.integers(0, 6))
        body[at:at + cut] = draw(st.sampled_from(FRAME_PIECES) | st.binary(
            max_size=4))
    size = max(0, len(body) + draw(st.sampled_from((0, 0, 0, -1, 1, 5))))
    return size.to_bytes(4, "big") + bytes(body)


class TestFrameReader:
    @pytest.mark.parametrize("kind", sorted(WIRE_FORMAT))
    def test_pieces_lay_out_the_samples(self, kind):
        # _near_valid_frame damages these pieces, so they must be the
        # layout the decoder reads.
        body = bytes([KIND_BYTES[kind]]) + b"".join(
            piece for _, piece in _pieces(_SAMPLES[kind]))
        assert decode_body(body) == _SAMPLES[kind]

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
    @given(st.lists(_near_valid_frame() | _edited_frame(), min_size=1,
                    max_size=3),
           st.integers(0, 2 ** 32))
    def test_near_valid_frames_read_as_messages_or_raise_frame_error(
            self, frames, seed):
        self._read_all(b"".join(frames), seed)

    @SETTINGS
    @given(_near_valid_frame(), st.integers(0, 2 ** 32))
    def test_a_damaged_field_raises_frame_error(self, frame, seed):
        sock = ChunkedSocket(frame, seed)
        try:
            msg = read_frame(sock)
        except FrameError:
            return
        raise AssertionError(f"{frame!r} read as {msg!r}")

    @SETTINGS
    @given(st.binary() | _edited_frame().map(lambda frame: frame[4:]))
    def test_an_accepted_body_encodes_back_to_the_same_bytes(self, body):
        try:
            msg = decode_body(body)
        except FrameError:
            return
        assert encode_frame(msg)[4:] == body


@cache
def _agents() -> tuple:
    """(hierarchy, agent) for an agent of every shipped law and of one leaf
    of the deep-law workload's generated tree."""
    shipped, problems = check_law_dir(REPO_ROOT / "laws")
    assert shipped is not None, problems
    sys.path.insert(0, str(REPO_ROOT / "perfbench"))
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(str(REPO_ROOT / "perfbench"))
    deep_texts = workloads.build("deep-law", 1, REPO_ROOT / "laws",
                                 steps=1).law_texts
    deep, problems = build_hierarchy(
        workloads.parse_law_texts(deep_texts).values())
    assert deep is not None, problems
    leaf = max(deep.laws, key=lambda name: len(deep.lineage[name]))
    agents = []
    for h, law in [(shipped, name) for name in sorted(shipped.laws)] + [
            (deep, leaf)]:
        cert = issue_certificate(f"{law.lower()}0", {"modules": law})
        agent, _ = adopt(f"{law.lower()}0", h, law, cert=cert)
        agents.append((h, agent))
    return tuple(agents)


# Text a controller compares against: profile labels, operations of the
# shipped and generated laws (the q* ones meet an ``op matches "q*"``
# glob), and names, some empty and some no identifier.
LABELS = ["approver", "log", "buyer", "operator", "sandboxed", "l3", "l6"]
OPERATIONS = ["ident", "purchaseOrder", "directive", "approve", "logged",
              "report", "alert", "disclose", "q", "q0", "q5", "q*", "qq",
              "x4", "zz3", "ping"]
NAMES = ["", "S", "MS", "N0", "ms0", "wild", "a b", "é", "-", "\x00", "q\n",
         "S,MS", "*"]
_text = st.sampled_from(NAMES) | st.text(max_size=12)
_op = st.sampled_from(OPERATIONS) | _text


def _held():
    """(sender_module, sender_lineage) as a hierarchy holds them for an
    agent's law or a law it descends from."""
    return st.sampled_from(sorted({
        (name, lineage) for h, agent in _agents()
        for name, lineage in h.lineage.items()
        if h.lineage[agent.law][:len(lineage)] == lineage}))


def _claims():
    """Held claims, some with the lineage cut short or doubled, another
    module's lineage, or a made-up one."""
    held = _held()
    return st.one_of(
        held.flatmap(lambda claim: st.sampled_from([
            claim, (claim[0], claim[1][:-1]), (claim[0], claim[1] * 2)])),
        st.tuples(_text, held.map(lambda claim: claim[1])),
        st.tuples(_text, st.lists(st.text("0123456789abcdef", max_size=64),
                                  max_size=40).map(tuple)))


def _envelope(claims, labels, op):
    """Envelopes whose (sender_module, sender_lineage) ``claims`` draws."""
    return st.builds(
        lambda claim, profile, operation, payload, sender: Envelope(
            claim[0], profile, claim[1], operation, payload, sender),
        st.deferred(claims), st.lists(labels, max_size=4).map(tuple), op,
        st.binary(max_size=16), _text)


_inbound = st.one_of(
    # as a peer's controller would send it, its profile perhaps repeating
    # labels
    _envelope(_held, st.sampled_from(LABELS), st.sampled_from(OPERATIONS)),
    _envelope(_claims, st.sampled_from(LABELS) | _text, _op),
    st.builds(BareInbound, _text, _op, st.binary(max_size=16)))


class TestDecodedInbound:
    @settings(SETTINGS, max_examples=600)
    @given(_inbound)
    def test_any_decodable_message_gets_the_oracles_ruling(self, sent):
        """Whatever the wire carries to a controller, ``handle_arrive``
        rules on it, as the oracle rules on the event it makes."""
        msg = decode_body(encode_frame(sent)[4:])
        assert msg == sent
        for h, template in _agents():
            agent = dataclasses.replace(template, state=dict(template.state))
            before = dict(agent.state)
            ruling, _ = handle_arrive(agent, msg)
            if isinstance(msg, Envelope) and not (
                    msg.sender_module and msg.sender and msg.sender_lineage):
                assert ruling.matched == "-" and not ruling.decision.permits
                assert agent.state == before
                continue
            genuine = (isinstance(msg, Envelope) and h.lineage.get(
                msg.sender_module) == msg.sender_lineage)
            if genuine:
                peer, profile = msg.sender_module, frozenset(msg.sender_profile)
            else:
                peer = (msg.sender if isinstance(msg, Envelope)
                        else msg.sender_address)
                profile = frozenset()
            flow = oracle_flow(agent.law, peer if genuine else None, agent.law)
            expected = oracle_evaluate(
                h.laws, agent.law, before, agent.cert_attrs,
                EventContext(EventKind.ARRIVED, msg.operation, flow, peer,
                            profile, not genuine))
            verdict = "permit" if ruling.decision.permits else "block"
            assert ruling.flow is flow, (agent.law, msg)
            assert (verdict, matched_token(ruling.matched),
                    agent.state) == expected, (agent.law, msg)
