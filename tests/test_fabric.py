"""Wire frames, the deterministic simulator, and the shared services."""

import copy
import dataclasses
import gc
import hashlib
import importlib
import random
import select
import socket
import string
import sys
import threading
import time
import types
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mds import fabric
from mds.conformance import build_hierarchy
from mds.fabric import (WIRE_FORMAT, FrameError, LawFetch, LawResponse,
                        LawServer, Registration, Registry, RegistryQuery,
                        RegistryRecord, RegistryRecords, SimNetwork,
                        TcpNetwork, TcpService, call_remote, decode_body,
                        encode_frame, read_frame, record_size)
from mds.controller import BareInbound, Envelope
from mds.law_lang import print_law

REPO_ROOT = Path(__file__).resolve().parent.parent


class ChunkedSocket:
    """Stands in for a socket: ``recv`` hands out the stream in chunks of
    random size, then b"" for the end of the stream."""

    def __init__(self, stream: bytes, seed: int = 0):
        self._stream = stream
        self._at = 0
        self._rng = random.Random(seed)

    def recv(self, n: int) -> bytes:
        size = min(n, self._rng.randint(1, 7))
        chunk = self._stream[self._at:self._at + size]
        self._at += len(chunk)
        return chunk


def _read(stream: bytes, seed: int = 0):
    """The first message ``read_frame`` finds in ``stream``."""
    return read_frame(ChunkedSocket(stream, seed))


# The kind bytes of the README's wire format table.
KIND_BYTES = {"enveloped": 0, "bare": 1, "registration": 2, "law_fetch": 3,
              "law_response": 4, "registry_query": 5, "registry_records": 6}


def _wire(value) -> bytes:
    """``value`` laid out as the README lays out a field of its Python type:
    text and bytes as a u32 length and the bytes, a bool as one byte, an int
    as an i64, a list as a u16 count and its items, a record (a dict) as its
    values in order; None lays out nothing."""
    if value is None:
        return b""
    if isinstance(value, bool):
        return bytes([value])
    if isinstance(value, int):
        return value.to_bytes(8, "big", signed=True)
    if isinstance(value, str):
        value = value.encode()
    if isinstance(value, bytes):
        return len(value).to_bytes(4, "big") + value
    if isinstance(value, dict):
        return b"".join(_wire(item) for item in value.values())
    return len(value).to_bytes(2, "big") + b"".join(_wire(v) for v in value)


# The fields each kind sends as one block, as the README lists them.
BLOCKS = {"enveloped": ("sender_module", "sender_profile", "sender_lineage")}


def _frame(data: dict) -> bytes:
    """A frame of ``data``: its "kind" as the kind's byte (or as the byte
    given), then its other values as ``_wire`` lays them out, in order; the
    values of a block's fields are laid out as one bytes value where the
    block's first field stands."""
    kind = data["kind"]
    block = BLOCKS.get(kind, ())
    body = bytes([KIND_BYTES.get(kind, kind)])
    for key, value in data.items():
        if key == "kind" or key in block[1:]:
            continue
        if key in block:
            value = b"".join(_wire(data[name]) for name in block)
        body += _wire(value)
    return len(body).to_bytes(4, "big") + body


class TestGoldenFrame:
    def test_kind_bytes(self):
        assert list(WIRE_FORMAT) == list(KIND_BYTES)

    def test_bare_frame_bytes(self):
        # Expected bytes written out by hand from the documented layout:
        # 4-byte big-endian length, the kind byte, then each field in order.
        body = (b"\x01"                               # kind: bare
                b"\x00\x00\x00\x04wild"               # sender_address
                b"\x00\x00\x00\x04ping"               # operation
                b"\x00\x00\x00\x03\x01\x02\x03")      # payload, raw
        expected = b"\x00\x00\x00\x18" + body
        msg = BareInbound(sender_address="wild", operation="ping",
                          payload=b"\x01\x02\x03")
        assert encode_frame(msg) == expected
        assert _read(expected) == msg

    def test_enveloped_frame_bytes(self):
        body = (b"\x00"                               # kind: enveloped
                b"\x00\x00\x00\x1d"                   # sender identity block
                b"\x00\x00\x00\x02MS"                 #   sender_module
                b"\x00\x01"                           #   sender_profile: 1
                b"\x00\x00\x00\x03log"
                b"\x00\x02"                           #   sender_lineage: 2
                b"\x00\x00\x00\x02aa"
                b"\x00\x00\x00\x02bb"
                b"\x00\x00\x00\x03log"                # operation
                b"\x00\x00\x00\x00"                   # payload, empty
                b"\x00\x00\x00\x02m1")                # sender
        expected = b"\x00\x00\x00\x33" + body
        env = Envelope(sender_module="MS", sender_profile=("log",),
                       sender_lineage=("aa", "bb"), operation="log",
                       payload=b"", sender="m1")
        assert encode_frame(env) == expected
        assert _read(expected) == env

    def test_bool_int_and_record_bytes(self):
        response = (b"\x04"                           # kind: law_response
                    b"\x00\x00\x00\x01L"              # name
                    b"\x01"                           # found: true
                    b"\x00\x00\x00\x00"               # text, empty
                    b"\x00\x00"                       # lineage: none
                    b"\x00\x00\x00\x03abc")           # algo
        records = (b"\x06"                            # kind: registry_records
                   b"\x00\x01"                        # records: 1
                   b"\x00\x00\x00\x01c"               # component
                   b"\x00\x00\x00\x01a"               # address
                   b"\x00\x00\x00\x01M"               # module
                   b"\xff\xff\xff\xff\xff\xff\xff\xfe")  # registered_at: -2
        for body, msg in (
                (response, LawResponse("L", True, "", (), "abc")),
                (records, RegistryRecords((RegistryRecord("c", "a", "M", -2),)))):
            assert encode_frame(msg) == len(body).to_bytes(4, "big") + body
            assert _read(encode_frame(msg)) == msg


def _random_message(rng: random.Random):
    def word(n=8):
        return "".join(rng.choice(string.ascii_letters + "_-")
                       for _ in range(rng.randint(1, n)))

    def blob():
        return bytes(rng.getrandbits(8) for _ in range(rng.randint(0, 40)))

    kind = rng.randrange(7)
    if kind == 0:
        return BareInbound(word(), word(), blob())
    if kind == 1:
        return Envelope(
            sender_module=word(), sender_profile=tuple(
                word(5) for _ in range(rng.randint(0, 3))),
            sender_lineage=tuple(word(12) for _ in range(rng.randint(1, 4))),
            operation=word(), payload=blob(), sender=word())
    if kind == 2:
        return Registration(word(), word(), word())
    if kind == 3:
        return LawFetch(word())
    if kind == 4:
        return LawResponse(word(), rng.random() < 0.5,
                           "law X { }\n" * rng.randint(0, 3),
                           tuple(word(12) for _ in range(rng.randint(0, 3))),
                           "sha256")
    if kind == 5:
        return RegistryQuery(rng.choice(("module", "name", "")), word())
    return RegistryRecords(tuple(
        RegistryRecord(word(), word(), word(), rng.randint(0, 99))
        for _ in range(rng.randint(0, 4))))


class TestRoundTrip:
    def test_ten_thousand_random_messages(self):
        rng = random.Random(20240817)
        for i in range(10_000):
            msg = _random_message(rng)
            assert _read(encode_frame(msg), seed=i) == msg, i

    def test_twenty_thousand_random_messages_of_all_seven_kinds(self):
        rng = random.Random(20261018)
        kinds = set()
        for i in range(20_000):
            msg = _random_message(rng)
            frame = encode_frame(msg)
            assert decode_body(frame[4:]) == msg, i
            kinds.add(frame[4])
        assert kinds == set(range(len(WIRE_FORMAT)))

    def test_reader_handles_arbitrary_chunking(self):
        rng = random.Random(5)
        messages = [_random_message(rng) for _ in range(60)]
        sock = ChunkedSocket(b"".join(encode_frame(m) for m in messages))
        got = []
        while (msg := read_frame(sock)) is not None:
            got.append(msg)
        assert got == messages


class TestFrameErrors:
    def test_truncated_prefix(self):
        with pytest.raises(FrameError):
            _read(b"\x00\x00")

    def test_length_mismatch(self):
        with pytest.raises(FrameError):
            _read(b"\x00\x00\x00\x05{}")

    def test_unknown_kind(self):
        for kind in (len(WIRE_FORMAT), 0x7b, 0xff):
            with pytest.raises(FrameError):
                _read(_frame({"kind": kind, "name": "L"}))

    def test_missing_field(self):
        with pytest.raises(FrameError):
            _read(_frame({"kind": "bare", "sender_address": "t"}))

    def test_undecodable_bodies(self):
        bodies = [
            b"",  # no kind byte
            b"\x03",  # law_fetch, no name
            b"\x03\x00\x00\x00",  # half a length
            b"\x03\x00\x00\x00\x05ab",  # a length past the body
            b"\x03\x00\x00\x00\x02\xff\xfe",  # bad UTF-8
            b"\x03\x00\x00\x00\x02\xed\xa0",  # half a surrogate
            b"\x03\x00\x00\x00\x01ab",  # a trailing byte
            b"\x04\x00\x00\x00\x01L\x02" + bytes(10),  # found is 2
            b'{"kind":"bare"}',  # JSON is no longer the wire
            b"\xff\xfe",
        ]
        for body in bodies:
            with pytest.raises(FrameError):
                _read(len(body).to_bytes(4, "big") + body)

    @pytest.mark.parametrize("field, value", [
        ("sender_profile", [{}]),
        ("operation", 5),
        ("payload", True),
    ])
    def test_ill_typed_enveloped_field(self, field, value):
        data = {"kind": "enveloped", "sender_module": "MS",
                "sender_profile": ["log"], "sender_lineage": ["aa"],
                "operation": "log", "payload": b"", "sender": "m1"}
        data[field] = value
        with pytest.raises(FrameError):
            _read(_frame(data))

    @pytest.mark.parametrize("data", [
        {"kind": "registration", "component": [], "module": "M",
         "address": "a"},
        {"kind": "law_response", "name": "L", "found": True, "text": 5,
         "lineage": ["aa"], "algo": "sha256"},
        {"kind": "registry_records", "records": [
            {"component": "c", "address": {}, "module": "M",
             "registered_at": 1}]},
        {"kind": "law_response", "name": "L", "found": "false", "text": "",
         "lineage": [], "algo": "sha256"},
        {"kind": "registry_records", "records": [
            {"component": "c", "address": "a", "module": "M",
             "registered_at": "1"}]},
        {"kind": "registry_records", "records": [
            {"component": "c", "address": "a", "module": "M",
             "registered_at": True}]},
    ])
    def test_ill_typed_service_field(self, data):
        with pytest.raises(FrameError):
            _read(_frame(data))

    def test_reader_rejects_oversized_declaration(self):
        header = (fabric.MAX_FRAME + 1).to_bytes(4, "big")
        with pytest.raises(FrameError):
            _read(header)

    def test_encode_rejects_oversized_body(self):
        huge = BareInbound("a", "b", b"x" * fabric.MAX_FRAME)
        with pytest.raises(FrameError):
            encode_frame(huge)

    @pytest.mark.parametrize("msg", [
        LawResponse("L", True, "", ("aa",) * 65536, "sha256"),
        RegistryRecords((RegistryRecord("c", "a", "M", 2 ** 63),)),
        RegistryRecords((RegistryRecord("c", "a", "M", -2 ** 63 - 1),)),
    ])
    def test_encode_rejects_what_the_layout_cannot_hold(self, msg):
        with pytest.raises(FrameError):
            encode_frame(msg)


_SAMPLES = {
    "enveloped": Envelope("MS", ("log",), ("aa", "bb"), "log", b"\x01", "m1"),
    "bare": BareInbound("wild", "ping", b"\x01\x02"),
    "registration": Registration("c", "M", "addr"),
    "law_fetch": LawFetch("L"),
    "law_response": LawResponse("L", True, "law L { }", ("aa",), "sha256"),
    "registry_query": RegistryQuery("module", "M"),
    "registry_records": RegistryRecords((RegistryRecord("c", "a", "M", 3),)),
}

# Values of each type the layout knows, some of them valid in some field,
# as _wire lays them out; None leaves the field out.
_WIRE_VALUES = [None, True, False, 0, -7, 2 ** 63 - 1, -2 ** 63, "", "text",
                "é", b"", b"\x01\x02\x03", b"\xff", [], ["a", "b"], [1],
                [b"\xff"], [None], [{}], {}, {"k": "v"}]


def _as_data(msg) -> dict:
    """A message as ``_frame`` data: its fields by name, lists for tuples."""
    def plain(value):
        if isinstance(value, tuple):
            return [plain(item) for item in value]
        if dataclasses.is_dataclass(value):
            return {f.name: plain(getattr(value, f.name))
                    for f in dataclasses.fields(value)}
        return value
    kind = next(kind for kind, (cls, _) in WIRE_FORMAT.items()
                if cls is type(msg))
    return {"kind": kind, **plain(msg)}


class TestEveryField:
    def test_any_wire_value_in_any_field(self):
        """Each value put in each field of each kind (and of each registry
        record) either fails as a FrameError or reads as a message that
        encodes back to the very same bytes."""
        assert set(_SAMPLES) == set(WIRE_FORMAT)
        accepted = 0
        for kind, (cls, fields) in WIRE_FORMAT.items():
            base = _as_data(_SAMPLES[kind])
            assert _frame(base) == encode_frame(_SAMPLES[kind])
            # wire order is the order the class declares its fields in
            declared = [f.name for f in dataclasses.fields(cls)]
            assert [name for field in fields for name, _ in (
                field if isinstance(field, fabric.Block) else (field,))
            ] == declared
            paths = [(key,) for key in declared]
            for key in declared:
                if isinstance(base[key], list) and base[key] and type(
                        base[key][0]) is dict:
                    paths += [(key, 0, inner) for inner in base[key][0]]
            for path in paths:
                for value in _WIRE_VALUES:
                    data = copy.deepcopy(base)
                    record = data
                    for step in path[:-1]:
                        record = record[step]
                    record[path[-1]] = value
                    frame = _frame(data)
                    try:
                        msg = _read(frame)
                    except FrameError:
                        continue
                    accepted += 1
                    assert type(msg) is cls, (kind, path, value)
                    assert encode_frame(msg) == frame, (kind, path, value)
        assert accepted > 0


def _cold():
    for memo in fabric._MEMOS:
        memo.clear()


_texts = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
_envelopes = st.builds(
    Envelope, _texts, st.lists(_texts, max_size=4).map(tuple),
    st.lists(st.text("0123456789abcdef", min_size=64, max_size=64),
             max_size=7).map(tuple),
    _texts, st.binary(max_size=16), _texts)


class TestIdentityMemos:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.lists(_envelopes, min_size=1, max_size=4))
    def test_memos_cold_and_warm_give_the_same_bytes_and_messages(
            self, envelopes):
        _cold()
        cold = [encode_frame(env) for env in envelopes]
        assert [decode_body(frame[4:]) for frame in cold] == envelopes
        warm = [encode_frame(env) for env in envelopes]
        assert warm == cold
        assert [decode_body(frame[4:]) for frame in warm] == envelopes
        # the independent layout agrees, and so does a list profile
        for env, frame in zip(envelopes, cold):
            assert _frame(_as_data(env)) == frame
            listed = dataclasses.replace(env, sender_profile=list(
                env.sender_profile), sender_lineage=list(env.sender_lineage))
            assert encode_frame(listed) == frame

    @pytest.mark.parametrize("damage", [
        lambda block: block[:5] + b"\xff" + block[6:],   # bad UTF-8
        lambda block: block[:-1],                         # cut short
        lambda block: block + b"\x00",                    # a byte over
        lambda block: b"\x00\x00\x00\x09" + block[4:],  # too long a text
    ])
    def test_a_damaged_identity_block_is_refused_and_never_kept(self, damage):
        env = _SAMPLES["enveloped"]
        body = encode_frame(env)[4:]
        size = int.from_bytes(body[1:5], "big")
        block = damage(body[5:5 + size])
        _cold()
        for declared in (len(block), size):
            with pytest.raises(FrameError):
                decode_body(body[:1] + declared.to_bytes(4, "big") + block
                            + body[5 + size:])
            if declared == len(block):  # the block as its prefix cuts it
                assert all(not memo for memo in fabric._MEMOS)
        # at the old length the cut may hold a well-formed block, and the
        # memo may keep it: only ever as its own fields
        for memo in fabric._MEMOS:
            for key, value in memo.items():
                assert memo.make(key) == value
        assert decode_body(body) == env

    def test_memos_stay_within_their_bounds(self):
        _cold()
        largest = 0
        for i in range(10_000):
            env = Envelope(f"M{i}", ("log",), (f"{i:064x}",), "op", b"",
                           "m1")
            assert decode_body(encode_frame(env)[4:]) == env
            largest = max(largest, *map(len, fabric._MEMOS))
        assert largest == fabric.MEMO_SIZE
        # a block over MEMO_BYTES is coded afresh each time, never kept
        _cold()
        big = Envelope("M", (), ("a" * fabric.MEMO_BYTES,), "op", b"", "m1")
        for _ in range(2):
            assert decode_body(encode_frame(big)[4:]) == big
        assert all(not memo for memo in fabric._MEMOS)


    def test_threads_share_the_memos(self):
        """Threads that code distinct and shared identities at once, with a
        memo cleared under them, each get their own messages back."""
        _cold()
        failures = []

        def work(tag):
            for i in range(3000):
                env = Envelope(f"M{i % 1500 if tag % 2 else i}", (),
                               (f"{tag}",), "op", b"", "m1")
                if decode_body(encode_frame(env)[4:]) != env:
                    failures.append((tag, i))

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            workers = [threading.Thread(target=work, args=(tag,))
                       for tag in range(4)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=30.0)
        finally:
            sys.setswitchinterval(switch)
        assert not any(worker.is_alive() for worker in workers)
        assert not failures
        for memo in fabric._MEMOS:  # a racing miss may add one key more
            assert len(memo) <= fabric.MEMO_SIZE + len(workers)
            for key, value in list(memo.items()):
                assert memo.make(key) == value


# Both networks keep one delivery contract: ``send`` queues, only
# ``run_until_idle`` delivers, messages arrive in send order, and
# ``advance`` only moves time.

@pytest.mark.parametrize("network", [SimNetwork, TcpNetwork])
def test_messages_arrive_in_send_order(network):
    net = network()
    try:
        seen = []
        net.register("x", seen.append)
        for op in ("slow", "fast", "mid"):
            net.send("x", BareInbound("s", op, b""))
        net.run_until_idle()
        assert [m.operation for m in seen] == ["slow", "fast", "mid"]
    finally:
        net.close()


@pytest.mark.parametrize("network", [SimNetwork, TcpNetwork])
def test_advance_delivers_nothing(network):
    net = network()
    try:
        seen = []
        net.register("x", seen.append)
        for op in ("slow", "fast", "mid"):
            net.send("x", BareInbound("s", op, b""))
        net.advance(1)  # a message may be due at tick 1; none is delivered
        assert seen == []
        if network is SimNetwork:
            assert net.clock == 1
        net.run_until_idle()
        assert [m.operation for m in seen] == ["slow", "fast", "mid"]
        if network is SimNetwork:  # the clock moves to the latest due tick
            draws = random.Random(0)  # the network's seed
            assert net.clock == max(draws.randint(1, 3) for _ in range(3))
    finally:
        net.close()


@pytest.mark.parametrize("network", [SimNetwork, TcpNetwork])
def test_run_until_idle_returns_the_last_result_and_raises_errors(network):
    def fail(msg):
        raise RuntimeError(f"handler fails on {msg.operation}")

    net = network()
    try:
        net.register("x", lambda msg: msg.operation)
        net.register("bad", fail)
        assert net.run_until_idle() is None  # nothing was sent
        for op in ("first", "last"):
            net.send("x", BareInbound("s", op, b""))
        assert net.run_until_idle() == "last"
        net.send("bad", BareInbound("s", "op", b""))
        with pytest.raises(RuntimeError, match="handler fails on op"):
            net.run_until_idle()
        net.send("x", BareInbound("s", "after", b""))
        assert net.run_until_idle() == "after"
    finally:
        net.close()


@pytest.mark.parametrize("network", [SimNetwork, TcpNetwork])
def test_an_unknown_address_is_refused_before_anything_is_queued(network):
    got = []
    net = network()
    try:
        net.register("x", lambda msg: got.append(msg) or msg.operation)
        with pytest.raises(KeyError):
            net.send("nowhere", BareInbound("s", "lost", b""))
        assert net.run_until_idle() is None
        # a frame written but not queued would be read as this one's
        net.send("x", BareInbound("s", "after", b""))
        assert net.run_until_idle() == "after"
    finally:
        net.close()
    assert [msg.operation for msg in got] == ["after"]


class TestLawServer:
    def test_serves_canonical_text_and_lineage(self, shipped):
        reply = LawServer(shipped).respond(LawFetch("MS"))
        assert reply.found is True
        assert reply.text.startswith("law MS extends S {")
        assert reply.lineage == shipped.lineage["MS"]

    def test_serves_the_text_hashed_at_parse(self, shipped):
        server = LawServer(shipped)
        for name, law in shipped.laws.items():
            text = server.respond(LawFetch(name)).text.encode("utf-8")
            assert text == print_law(law).encode("utf-8"), name
            assert hashlib.sha256(text).hexdigest() == law.hash, name

    def test_missing_law_reported_not_found(self, shipped):
        server = LawServer(shipped)
        reply = server.respond(LawFetch("Nobody"))
        assert reply.found is False
        assert reply.algo == "sha256"


class TestRegistry:
    def test_last_writer_wins_per_component_module(self):
        reg = Registry()
        reg.register("c", "M", "addr-1")
        reg.register("c", "M", "addr-2")
        records = reg.query(name="c")
        assert len(records) == 1
        assert records[0].address == "addr-2"

    def test_query_filters_and_sorted_order(self):
        reg = Registry()
        reg.register("b", "M", "x")
        reg.register("a", "N", "y")
        reg.register("a", "M", "z")
        assert [(r.component, r.module) for r in reg.query()] == [
            ("a", "M"), ("a", "N"), ("b", "M")]
        assert [r.component for r in reg.query(module="M")] == ["a", "b"]
        assert [r.module for r in reg.query(name="a")] == ["M", "N"]

    def test_respond_routes_fields(self):
        reg = Registry()
        reg.register("c", "M", "addr")
        by_module = reg.respond(RegistryQuery("module", "M"))
        assert len(by_module.records) == 1
        by_name = reg.respond(RegistryQuery("name", "c"))
        assert by_name == by_module
        everything = reg.respond(RegistryQuery("", ""))
        assert everything == by_module

    def test_concurrent_registration_is_safe(self):
        reg = Registry()

        def worker(tag):
            for i in range(50):
                reg.register(f"c{tag}-{i}", "M", f"a{i}")

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(reg.query()) == 8 * 50

    @given(st.builds(RegistryRecord, *[st.text(st.characters(
        blacklist_categories=("Cs",)))] * 3,
        st.integers(-2 ** 63, 2 ** 63 - 1)))
    def test_record_size_is_what_a_record_adds_to_a_listing(self, record):
        empty = len(encode_frame(RegistryRecords(())))
        assert (len(encode_frame(RegistryRecords((record,)))) - empty
                == record_size(record))

    def test_listing_stays_within_one_reply(self, caplog):
        reg = Registry()

        def body() -> int:  # bytes of the unfiltered reply's body
            return len(encode_frame(reg.respond(RegistryQuery("", "")))) - 4

        kept = [reg.register(f"{i:04}".ljust(1000, "c"), "M", "a" * 100)
                for i in range(1000)]
        first_dropped = kept.index(None)
        assert 0 < first_dropped
        assert kept[first_dropped:] == [None] * (1000 - first_dropped)
        assert len(reg.query()) == first_dropped
        full = [r for r in caplog.records if "registry full" in r.message]
        assert len(full) == 1  # once, not once per dropped registration
        # a replacement is sized by what it adds beyond the record it
        # replaces, to the byte
        room = fabric.MAX_FRAME - body()
        last = reg.query()[-1].component
        assert reg.register(last, "M", "a" * (100 + room + 1)) is None
        assert reg.query(name=last)[0].address == "a" * 100
        assert reg.register(last, "M", "a" * (100 + room)) is not None
        assert body() == fabric.MAX_FRAME
        assert reg.register("x", "M", "") is None
        assert reg.register(last, "M", "") is not None
        assert reg.register("x", "M", "a" * (100 + room - 22)) is not None
        assert body() == fabric.MAX_FRAME

    def test_listing_stays_within_a_list_count(self, monkeypatch):
        monkeypatch.setattr(fabric, "MAX_FRAME", 1 << 22)
        reg = Registry()
        kept = [reg.register(str(i), "M", "") for i in range(1 << 16)]
        assert kept.count(None) == 1 and kept[-1] is None
        assert reg.register("0", "M", "a") is not None  # a replacement
        assert len(reg.respond(RegistryQuery("", "")).records) == 0xFFFF


def _settle(condition, within: float = 1.0) -> bool:
    """Poll ``condition`` until it holds or ``within`` seconds pass."""
    deadline = time.monotonic() + within
    while not condition() and time.monotonic() < deadline:
        time.sleep(0.01)
    return condition()


def _bare(operation: str) -> BareInbound:
    return BareInbound("peer", operation, b"")


def _one_of_each_kind() -> dict:
    """A message of every ``WIRE_FORMAT`` class, by class."""
    rng = random.Random(23)
    found = {}
    while len(found) < len(WIRE_FORMAT):
        msg = _random_message(rng)
        found.setdefault(type(msg), msg)
    assert set(found) == {cls for cls, _ in WIRE_FORMAT.values()}
    return found


class TestServiceHandlers:
    """``respond`` takes any wire message, so it is a ``TcpService``
    handler as it stands."""

    def test_the_law_server_answers_only_a_law_fetch(self, shipped):
        server = LawServer(shipped)
        for cls, msg in _one_of_each_kind().items():
            reply = server.respond(msg)
            if cls is LawFetch:
                assert isinstance(reply, LawResponse)
            else:
                assert reply is None, cls.__name__

    def test_the_registry_keeps_a_registration_and_answers_a_query(self):
        reg = Registry()
        messages = _one_of_each_kind()
        for cls, msg in messages.items():
            reply = reg.respond(msg)
            if cls is RegistryQuery:
                assert isinstance(reply, RegistryRecords)
            else:
                assert reply is None, cls.__name__
        kept = messages[Registration]
        assert [(r.component, r.module, r.address) for r in reg.query()] == [
            (kept.component, kept.module, kept.address)]


class TestTcpServices:
    def test_registry_over_sockets(self):
        reg = Registry()
        service = TcpService(reg.respond)
        try:
            address = service.address
            ack = call_remote(address, Registration("c", "M", "addr"))
            assert ack is None
            # registration is fire-and-forget: the thread serving its
            # connection may not have handled it when the query arrives
            assert _settle(lambda: reg.query(name="c"))
            reply = call_remote(address, RegistryQuery("name", "c"))
            assert isinstance(reply, RegistryRecords)
            assert reply.records[0].address == "addr"
        finally:
            service.close()

    def test_a_message_too_big_for_a_frame_opens_no_connection(self):
        """``call_remote`` encodes before it connects, so a message it
        cannot frame raises ``FrameError`` and the listener it names has
        nothing to accept."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.setblocking(False)
            with pytest.raises(FrameError, match="frame body too large"):
                call_remote(listener.getsockname(), Registration(
                    "c" * (1024 * 1024 + 100), "M", "addr"))
            with pytest.raises(BlockingIOError):
                listener.accept()

    def test_a_registration_call_returns_without_waiting_for_a_reply(self):
        """The registry answers a registration with nothing, so the call
        returns once it is sent and never waits out CALL_TIMEOUT."""
        reg = Registry()
        service = TcpService(reg.respond)
        try:
            start = time.monotonic()
            assert call_remote(service.address,
                               Registration("c", "M", "addr")) is None
            assert time.monotonic() - start < 1.0
            assert _settle(lambda: reg.query(name="c"))
        finally:
            service.close()

    def test_one_peer_cannot_fill_the_registry_past_one_reply(self,
                                                               caplog):
        reg = Registry()
        service = TcpService(reg.respond)
        try:
            with socket.create_connection(service.address) as filling:
                filling.sendall(b"".join(
                    encode_frame(Registration(f"{i:04}".ljust(1000, "c"),
                                              "M", "a" * 100))
                    for i in range(2000)))
                # replies come in order, so this one follows every
                # registration above
                filling.sendall(encode_frame(RegistryQuery("name",
                                                           "nobody")))
                assert read_frame(filling) == RegistryRecords(())
            reply = call_remote(service.address, RegistryQuery("", ""))
        finally:
            service.close()
        assert isinstance(reply, RegistryRecords)
        assert 0 < len(reply.records) < 2000
        assert reply.records == tuple(reg.query())
        assert sum("registry full" in r.message for r in caplog.records) == 1

    def test_close_ends_accepted_connections(self):
        before = threading.active_count()
        service = TcpService(lambda msg: None)
        peer = socket.create_connection(service.address)
        try:
            # one loop thread serves the listener and every connection
            assert _settle(lambda: threading.active_count() == before + 1)
            service.close()
            # the peer keeps its end open, yet reads the end of the stream
            peer.settimeout(1.0)
            assert peer.recv(1) == b""
            assert _settle(lambda: threading.active_count() <= before)
        finally:
            peer.close()

    def test_connect_attempts_share_the_call_deadline(self, monkeypatch):
        """A name that resolves to several addresses gives each attempt
        only the time left, so the call still ends at ``CALL_TIMEOUT``."""
        monkeypatch.setattr(fabric, "CALL_TIMEOUT", 0.5)
        waits = []

        class Unanswered:  # connects that wait, then fail
            def __init__(self, *args):
                pass

            def settimeout(self, timeout):
                self.timeout = timeout

            def connect(self, sockaddr):
                waits.append(self.timeout)
                if len(waits) == 1:  # refused after a while
                    time.sleep(0.2)
                    raise ConnectionRefusedError("refused")
                time.sleep(self.timeout)  # silent to the end
                raise TimeoutError("timed out")

            def close(self):
                pass

        resolved = [(socket.AF_INET, socket.SOCK_STREAM, 0, "",
                     ("192.0.2.1", 9))] * 3
        monkeypatch.setattr(fabric, "socket", types.SimpleNamespace(
            getaddrinfo=lambda *args: resolved,
            SOCK_STREAM=socket.SOCK_STREAM, socket=Unanswered))
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            call_remote(("law.example", 9), LawFetch(name="MGMT"))
        assert time.monotonic() - start < fabric.CALL_TIMEOUT + 0.2
        assert len(waits) == 2
        assert waits[1] <= fabric.CALL_TIMEOUT - 0.2

    def test_law_fetch_over_sockets(self, shipped):
        service = TcpService(LawServer(shipped).respond)
        try:
            reply = call_remote(service.address, LawFetch("SB"))
            assert reply.found
            assert reply.lineage == shipped.lineage["SB"]
            missing = call_remote(service.address, LawFetch("ZZ"))
            assert not missing.found
        finally:
            service.close()


class TestTcpNetwork:
    def test_sends_to_one_address_share_one_connection(self, monkeypatch):
        opened = []
        connect = fabric.socket.create_connection

        def counting(address, *args, **kwargs):
            opened.append(address)
            return connect(address, *args, **kwargs)

        monkeypatch.setattr(fabric.socket, "create_connection", counting)
        before = threading.active_count()
        net = TcpNetwork()
        assert len(opened) == 1
        got = []
        try:
            for name in ("a", "b", "c"):
                net.register(name, lambda msg, name=name: got.append(
                    (name, msg)))
            for i in range(6):
                net.send("abc"[i % 3], LawFetch(f"L{i}"))
                if i % 2:
                    net.run_until_idle()
        finally:
            net.close()
        assert got == [("abc"[i % 3], LawFetch(f"L{i}")) for i in range(6)]
        assert len(opened) == 1  # one per network, none per register
        # close() ends the connection, so the service thread exits while
        # the network object is still alive
        deadline = time.monotonic() + 1.0
        while (threading.active_count() > before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() <= before

    def test_a_failed_own_link_leaves_no_service_thread(self, monkeypatch):
        def services():
            return {thread for thread in threading.enumerate()
                    if thread.name == "mds-tcp-service"}

        def refuse():
            raise OSError("no loopback")

        monkeypatch.setattr(fabric, "_own_link", refuse)
        before = services()
        with pytest.raises(OSError, match="no loopback"):
            TcpNetwork()
        assert services() <= before

    def test_own_link_refuses_a_stranger_that_connects_first(
            self, monkeypatch):
        """A local process that reaches the own link's listener before
        its client does is refused, and the failed link leaves no socket
        or thread behind."""
        strangers = []
        create_server = socket.create_server

        def racing(*args, **kwargs):
            listener = create_server(*args, **kwargs)
            strangers.append(socket.create_connection(listener.getsockname()))
            return listener

        monkeypatch.setattr(fabric.socket, "create_server", racing)
        threads = set(threading.enumerate())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                with pytest.raises(ConnectionError) as refused:
                    TcpNetwork()
                (stranger,) = strangers
                assert str(refused.value) == (
                    f"accepted {stranger.getsockname()}, not this "
                    f"network's own connection")
            finally:
                for sock in strangers:
                    sock.close()
            del refused  # its traceback holds the link's frame
            gc.collect()
        assert [w.message for w in caught] == []
        assert set(threading.enumerate()) <= threads

    def test_failing_handler_does_not_end_the_connection(self):
        got = []

        def handler(msg):
            if not got:
                got.append(None)
                raise RuntimeError("first frame fails")
            got.append(msg)

        queued = []
        net = TcpNetwork()
        try:
            net.register("a", handler)
            net.register("b", queued.append)
            net.send("a", LawFetch("first"))
            net.send("b", LawFetch("queued"))
            with pytest.raises(RuntimeError, match="first frame fails"):
                net.run_until_idle()
            assert not queued
            start = time.monotonic()
            net.send("a", LawFetch("second"))
            net.run_until_idle()
            assert time.monotonic() - start < fabric.DELIVERY_TIMEOUT / 10
        finally:
            net.close()
        # read order is send order: b's frame reaches b, not a
        assert queued == [LawFetch("queued")]
        assert got == [None, LawFetch("second")]

    def test_own_frames_are_handled_on_the_calling_thread(self):
        threads = []
        net = TcpNetwork()
        try:
            net.register("a", lambda msg: threads.append(
                threading.get_ident()))
            for i in range(3):
                net.send("a", LawFetch(f"L{i}"))
                net.run_until_idle()
        finally:
            net.close()
        assert threads == [threading.get_ident()] * 3

    def test_outside_frames_are_handled_on_one_loop_thread(self):
        handled = []  # (operation, thread)

        def handler(msg):
            handled.append((msg.operation, threading.get_ident()))

        net = TcpNetwork()
        try:
            host, port = net.register("a", handler).rsplit(":", 1)
            with socket.create_connection((host, int(port))) as outside:
                outside.sendall(b"".join(
                    encode_frame(_bare("outside")) for _ in range(30)))
                for _ in range(30):
                    net.send("a", _bare("own"))
                    net.run_until_idle()
                assert _settle(lambda: len(handled) == 60, within=5.0)
        finally:
            net.close()
        main = threading.get_ident()
        assert {t for name, t in handled if name == "own"} == {main}
        loop_threads = {t for name, t in handled if name == "outside"}
        assert len(loop_threads) == 1 and main not in loop_threads

    def test_outside_frames_get_no_reply_and_the_loop_keeps_serving(
            self, caplog):
        handled = []

        def handler(msg):
            if msg.operation == "fail":
                raise RuntimeError("outside frame fails")
            handled.append(msg)
            return msg  # a value the service could encode as a reply

        net = TcpNetwork()
        try:
            host, port = net.register("a", handler).rsplit(":", 1)
            for i in range(2):
                with socket.create_connection((host, int(port))) as outside:
                    # a failing frame is logged, and the next one handled
                    outside.sendall(encode_frame(_bare("fail"))
                                    + encode_frame(_bare(f"outside{i}")))
                    outside.shutdown(socket.SHUT_WR)
                    # the service closes the connection once the frame is
                    # handled, and sends nothing before it
                    outside.settimeout(2.0)
                    assert outside.recv(4096) == b""
            net.send("a", _bare("own"))
            assert net.run_until_idle() == _bare("own")
        finally:
            net.close()
        assert handled == [_bare("outside0"), _bare("outside1"), _bare("own")]
        assert [r.getMessage() for r in caplog.records] == [
            "frame handler failed"] * 2

    def test_an_outside_frame_of_another_kind_is_dropped(self):
        handled = []
        net = TcpNetwork()
        try:
            host, port = net.register("a", handled.append).rsplit(":", 1)
            with socket.create_connection((host, int(port))) as outside:
                outside.sendall(
                    encode_frame(LawFetch("S"))
                    + encode_frame(Registration("c", "M", "h:1"))
                    + encode_frame(_bare("outside")))
                # one connection's frames are handled in the order sent
                assert _settle(lambda: handled, within=5.0)
        finally:
            net.close()
        assert handled == [_bare("outside")]

    def test_one_thread_serves_every_address(self):
        before = threading.active_count()
        net = TcpNetwork()
        try:
            for i in range(20):
                net.register(f"p{i}", lambda msg: None)
            assert threading.active_count() <= before + 1
        finally:
            net.close()
        assert threading.active_count() <= before

    def test_a_frame_of_the_largest_size_needs_no_reader_to_be_sent(self):
        # send() writes the whole frame before run_until_idle reads it on
        # the same thread
        got = []
        payload = b"x" * (fabric.MAX_FRAME - 100)

        def deliver():
            net = TcpNetwork()
            try:
                net.register("a", got.append)
                net.send("a", BareInbound("s", "op", payload))
                net.run_until_idle()
            finally:
                net.close()

        worker = threading.Thread(target=deliver, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert [msg.payload for msg in got] == [payload]

    def test_frames_past_the_loopback_buffers_are_sent_before_any_read(
            self):
        # 16 MiB queued to one address overflows the loopback buffers:
        # send() must not wait for the read run_until_idle makes later
        got = []
        payload = b"x" * (fabric.MAX_FRAME - 100)

        def deliver():
            net = TcpNetwork()
            try:
                net.register("a", lambda msg: got.append(msg.operation))
                for i in range(16):
                    net.send("a", BareInbound("s", f"op{i}", payload))
                net.run_until_idle()
            finally:
                net.close()

        worker = threading.Thread(target=deliver, daemon=True)
        worker.start()
        worker.join(timeout=10.0)
        assert not worker.is_alive(), "send() is blocked"
        assert got == [f"op{i}" for i in range(16)]


class TestOwnConnectionReader:
    @pytest.fixture
    def net(self):
        net = TcpNetwork()
        yield net
        net.close()

    def test_frames_that_arrived_together_take_one_recv(self, net,
                                                       monkeypatch):
        handled = []
        net.register("a", lambda msg: handled.append(msg) or msg.name)
        server = net._link.server
        frames = [LawFetch("one"), LawFetch("two")]
        for msg in frames:
            net.send("a", msg)
        size = sum(len(encode_frame(msg)) for msg in frames)
        while True:  # until both frames are in the receive buffer
            try:
                if len(server.recv(size, socket.MSG_PEEK)) == size:
                    break
            except BlockingIOError:
                time.sleep(0.001)
        calls = []
        real_recv = socket.socket.recv

        def recv(sock, *args):
            if sock is server:
                calls.append(args)
            return real_recv(sock, *args)

        monkeypatch.setattr(socket.socket, "recv", recv)
        assert net.run_until_idle() == "two"
        assert handled == frames
        assert len(calls) == 1

    @pytest.mark.parametrize("at", [2, 9])  # in the prefix, in the body
    def test_a_frame_split_across_reads_is_put_back_together(
            self, net, monkeypatch, at):
        def send_in_two(link, frame):
            link.client.sendall(frame[:at])
            threading.Timer(0.05, link.client.sendall, (frame[at:],)).start()

        monkeypatch.setattr(fabric, "_write", send_in_two)
        net.register("a", lambda msg: msg)
        net.send("a", LawFetch("split"))
        assert net.run_until_idle() == LawFetch("split")

    @pytest.mark.parametrize("sent, error", [
        (b"", ConnectionError),                                 # between
        (encode_frame(LawFetch("cut"))[:-2], FrameError),       # mid-frame
    ])
    def test_the_end_of_the_stream(self, net, monkeypatch, sent, error):
        monkeypatch.setattr(fabric, "_write",
                            lambda link, frame: link.client.sendall(sent))
        net.register("a", lambda msg: msg)
        net.send("a", LawFetch("cut"))
        net._link.client.shutdown(socket.SHUT_WR)
        with pytest.raises(error):
            net.run_until_idle()

    def test_a_frame_that_never_comes_times_out(self, net, monkeypatch):
        monkeypatch.setattr(fabric, "DELIVERY_TIMEOUT", 0.2)
        monkeypatch.setattr(fabric, "_write", lambda link, frame: None)
        net.register("a", lambda msg: msg)
        threads = threading.active_count()
        net.send("a", LawFetch("lost"))
        start = time.monotonic()
        with pytest.raises(TimeoutError):
            net.run_until_idle()
        assert 0.2 <= time.monotonic() - start < 2.0
        assert threading.active_count() <= threads

    def test_a_frame_that_arrives_whole_skips_the_inbox(self, net):
        class Untouchable(bytearray):
            def __iadd__(self, data):
                raise AssertionError("the inbox was written")

            extend = __iadd__

        net.register("a", lambda msg: msg)
        link = net._link = net._link._replace(inbox=Untouchable())
        net.send("a", LawFetch("whole"))
        _wait_for(link.server, len(encode_frame(LawFetch("whole"))))
        assert net.run_until_idle() == LawFetch("whole")

    @pytest.mark.parametrize("at", [2, 9])  # in the prefix, in the body
    def test_a_frame_and_the_start_of_the_next(self, net, monkeypatch, at):
        first, second = (encode_frame(LawFetch(name))
                         for name in ("first", "second"))
        writes = iter([first + second[:at], second[at:]])
        monkeypatch.setattr(fabric, "_write",
                            lambda link, frame: link.client.sendall(
                                next(writes)))
        net.register("a", lambda msg: msg)
        link = net._link
        net.send("a", LawFetch("first"))
        _wait_for(link.server, len(first) + at)
        assert net.run_until_idle() == LawFetch("first")
        assert link.inbox == second[:at]
        net.send("a", LawFetch("second"))
        assert net.run_until_idle() == LawFetch("second")
        assert not link.inbox

    @pytest.mark.parametrize("prefix, max_frame", [
        (0xFFFFFFFF, None),  # over MAX_FRAME
        (8, 7),              # right, but over a lowered MAX_FRAME
        (7, None),           # one byte short of the body
        (9, None),           # one byte past it, then the end of the stream
    ], ids=["over-max", "over-lowered-max", "short", "long"])
    def test_a_prefix_that_is_not_the_body_read_is_refused(
            self, net, monkeypatch, prefix, max_frame):
        body = encode_frame(LawFetch("cut"))[4:]
        assert len(body) == 8
        monkeypatch.setattr(fabric, "_write",
                            lambda link, frame: link.client.sendall(
                                prefix.to_bytes(4, "big") + body))
        monkeypatch.setattr(fabric, "DELIVERY_TIMEOUT", 2.0)
        net.register("a", lambda msg: msg)
        net.send("a", LawFetch("cut"))
        net._link.client.shutdown(socket.SHUT_WR)
        if max_frame is not None:  # after the encoder's own check
            monkeypatch.setattr(fabric, "MAX_FRAME", max_frame)
        with pytest.raises(FrameError):
            net.run_until_idle()

    @pytest.mark.parametrize("quickack", ["present", "removed"])
    def test_the_reader_acks_late_where_it_can(self, monkeypatch, quickack):
        if quickack == "removed":
            monkeypatch.delattr(socket, "TCP_QUICKACK", raising=False)
        net = TcpNetwork()  # the link is made with the network
        try:
            net.register("a", lambda msg: msg)
            if hasattr(socket, "TCP_QUICKACK"):
                server = net._link.server
                assert server.getsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_QUICKACK) == 0
            for name in ("one", "two"):
                net.send("a", LawFetch(name))
                assert net.run_until_idle() == LawFetch(name)
            if hasattr(socket, "TCP_QUICKACK"):
                # what the delayed-ACK timer does after an idle gap
                server.setsockopt(socket.IPPROTO_TCP, socket.TCP_QUICKACK, 1)
            assert net.advance(1) == "advance 1"
            if hasattr(socket, "TCP_QUICKACK"):
                assert server.getsockopt(socket.IPPROTO_TCP,
                                         socket.TCP_QUICKACK) == 0
        finally:
            net.close()


def _wait_for(sock: socket.socket, size: int):
    """Wait until ``size`` bytes are in ``sock``'s receive buffer."""
    deadline = time.monotonic() + 5.0
    while True:
        try:
            if len(sock.recv(size, socket.MSG_PEEK)) >= size:
                return
        except BlockingIOError:
            pass
        assert time.monotonic() < deadline, "the bytes never arrived"
        time.sleep(0.001)


def _ended(sock: socket.socket, within: float = 2.0) -> bool:
    """Whether the other side ends the stream (by FIN or reset) in time."""
    sock.settimeout(within)
    try:
        while sock.recv(4096):
            pass
    except ConnectionResetError:
        pass
    except TimeoutError:
        return False
    return True


class TestServiceLimits:
    def test_slow_peer_is_dropped_while_others_are_served(
            self, shipped, monkeypatch):
        monkeypatch.setattr(fabric, "FRAME_DEADLINE", 0.3)
        service = TcpService(LawServer(shipped).respond)
        try:
            with socket.create_connection(service.address) as loris:
                loris.sendall(b"\x00\x00")  # half a length prefix, then idle
                reply = call_remote(service.address, LawFetch("SB"))
                assert reply.found and reply.lineage == shipped.lineage["SB"]
                start = time.monotonic()
                assert _ended(loris)
                assert time.monotonic() - start < 1.5
        finally:
            service.close()

    def test_connection_flood_starts_no_thread(self, shipped, monkeypatch):
        monkeypatch.setattr(fabric, "FRAME_DEADLINE", 1.0)
        service = TcpService(LawServer(shipped).respond)
        threads = threading.active_count()
        flood = []
        try:
            for _ in range(fabric.MAX_CONNECTIONS + 8):
                sock = socket.create_connection(service.address)
                flood.append(sock)
                sock.sendall(b"\x00")
            assert threading.active_count() <= threads
            # the connections past the cap are closed at once, the others
            # when their unfinished frames run out of time
            time.sleep(0.4)
            closed, _, _ = select.select(flood, [], [], 0)
            assert len(closed) == 8
            assert all(_ended(sock) for sock in flood)
            assert threading.active_count() <= threads
            assert call_remote(service.address, LawFetch("SB")).found
        finally:
            for sock in flood:
                sock.close()
            service.close()

    def test_a_full_service_makes_room_by_closing_the_longest_idle_peer(
            self, shipped, monkeypatch):
        monkeypatch.setattr(fabric, "MAX_CONNECTIONS", 4)
        service = TcpService(LawServer(shipped).respond)
        peers = []
        try:
            for _ in range(4):  # each is served once, then idles
                sock = socket.create_connection(service.address, timeout=5.0)
                peers.append(sock)
                sock.sendall(encode_frame(LawFetch("SB")))
                assert read_frame(sock).found
            # a fifth peer
            assert call_remote(service.address, LawFetch("SB")).found
            assert _ended(peers[0])
            for sock in peers[1:]:  # the rest are served still
                sock.sendall(encode_frame(LawFetch("S")))
                assert read_frame(sock).found
        finally:
            for sock in peers:
                sock.close()
            service.close()

    def test_a_service_full_of_unfinished_frames_refuses_a_new_peer(
            self, shipped, monkeypatch):
        monkeypatch.setattr(fabric, "MAX_CONNECTIONS", 4)
        service = TcpService(LawServer(shipped).respond)
        peers = []
        try:
            for _ in range(4):
                sock = socket.create_connection(service.address)
                peers.append(sock)
                sock.sendall(b"\x00")  # a frame begun, not finished
            # the fifth peer comes once the service has begun all four frames
            assert _settle(lambda: [p.since is not None for p in tuple(
                service._peers.values())] == [True] * 4, within=5.0)
            with pytest.raises((FrameError, OSError)):
                call_remote(service.address, LawFetch("SB"))
            assert not select.select(peers, [], [], 0)[0]  # all still open
        finally:
            for sock in peers:
                sock.close()
            service.close()

    def test_a_served_peer_gets_a_bounded_send_buffer(self, shipped):
        """Replies a peer does not read fill at most SEND_BUFFER bytes of
        the kernel's memory (Linux reports twice the size asked for), not
        the megabytes loopback would size it at."""
        service = TcpService(LawServer(shipped).respond)
        try:
            with socket.create_connection(service.address,
                                          timeout=5.0) as peer:
                peer.sendall(encode_frame(LawFetch("SB")))
                assert read_frame(peer).found  # accepted and served
                [served] = list(service._peers)
                size = served.getsockopt(socket.SOL_SOCKET,
                                         socket.SO_SNDBUF)
        finally:
            service.close()
        assert fabric.SEND_BUFFER <= size <= 2 * fabric.SEND_BUFFER

    def test_oversized_declaration_is_refused_before_the_body(self):
        stream = (fabric.MAX_FRAME + 1).to_bytes(4, "big") + b"{}" * 64
        sock = ChunkedSocket(stream)
        with pytest.raises(FrameError):
            read_frame(sock)
        assert sock._at == 4
        # a service drops the connection on the prefix alone
        service = TcpService(lambda msg: None)
        try:
            with socket.create_connection(service.address) as peer:
                peer.sendall(stream[:4])
                start = time.monotonic()
                assert _ended(peer)
                assert time.monotonic() - start < fabric.FRAME_DEADLINE / 2
        finally:
            service.close()

    def test_replies_that_back_up_wait_in_order_while_others_are_served(
            self, shipped, monkeypatch):
        """A peer that pipelines thousands of fetches and reads nothing
        fills its socket; the service then waits to send, serves other
        peers meanwhile, sends every reply in order once the peer reads,
        and closes with replies still owed."""
        names = sorted(shipped.laws) * 500
        server = LawServer(shipped)
        want = [server.respond(LawFetch(name)) for name in names]
        fetches = b"".join(encode_frame(LawFetch(name)) for name in names)
        # Below one of loopback's 64 KiB segments, a send often finds the
        # buffer full, and the service must wait for room.
        monkeypatch.setattr(fabric, "SEND_BUFFER", 16384)
        service = TcpService()
        address = service.serve(socket.create_server(("127.0.0.1", 0)),
                                server.respond)
        try:
            with socket.socket() as greedy:
                greedy.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                greedy.connect(address)
                greedy.settimeout(10.0)
                for round in ("drain", "close"):
                    sender = threading.Thread(target=greedy.sendall,
                                              args=(fetches,), daemon=True)
                    sender.start()
                    sender.join(timeout=10.0)
                    assert not sender.is_alive()
                    _wait_for(greedy, 4096)  # replies wait, unread
                    assert call_remote(address, LawFetch("SB")) == want[
                        names.index("SB")]
                    if round == "drain":
                        assert [read_frame(greedy) for _ in names] == want
                closing = threading.Thread(target=service.close, daemon=True)
                closing.start()
                closing.join(timeout=5.0)
                assert not closing.is_alive()
        finally:
            service.close()

    def test_replies_to_a_slow_reader_wait_while_others_are_served(
            self, shipped, monkeypatch):
        real_send = socket.socket.send
        partial = []

        def send(sock, data, *args):  # at most 256 bytes leave per call
            if len(data) > 256:
                partial.append(len(data))
            return real_send(sock, data[:256], *args)

        monkeypatch.setattr(socket.socket, "send", send)
        names = sorted(shipped.laws) * 6
        server = LawServer(shipped)
        service = TcpService(LawServer(shipped).respond)
        try:
            with socket.socket() as slow:
                slow.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
                slow.connect(service.address)
                slow.sendall(b"".join(encode_frame(LawFetch(name))
                                      for name in names))
                reply = call_remote(service.address, LawFetch("SB"))
                assert reply == server.respond(LawFetch("SB"))
                slow.settimeout(5.0)

                class SlowReader:
                    def recv(self, n):
                        time.sleep(0.001)
                        return slow.recv(min(n, 512))

                got = [read_frame(SlowReader()) for _ in names]
        finally:
            service.close()
        assert got == [server.respond(LawFetch(name)) for name in names]
        assert partial  # some reply took more than one send

    def test_a_refused_reply_is_logged_and_others_are_served(
            self, monkeypatch, caplog):
        registry = Registry()
        for i in range(40):
            registry.register(f"component{i}", "M", f"address{i}")
        # lowered only now, so that the registry holds a listing too large
        # for one reply
        monkeypatch.setattr(fabric, "MAX_FRAME", 512)

        def handle(msg):
            if msg.field == "odd":
                return object()  # not a wire message
            if msg.field == "ill":  # a field of the wrong type
                return LawResponse("L", True, None, (), "sha256")
            return registry.respond(msg)

        service = TcpService(handle)
        try:
            for query, refused in (
                    (RegistryQuery("", ""), "RegistryRecords reply cannot "
                     "be sent: frame body too large"),
                    (RegistryQuery("odd", ""), "object reply cannot be "
                     "sent: unencodable object"),
                    (RegistryQuery("ill", ""), "LawResponse reply cannot "
                     "be sent: unencodable LawResponse")):
                with socket.create_connection(service.address) as asking:
                    asking.sendall(encode_frame(query))
                    assert _ended(asking)
                assert refused in caplog.records[-1].getMessage()
                reply = call_remote(service.address,
                                    RegistryQuery("name", "component7"))
                assert [r.address for r in reply.records] == ["address7"]
        finally:
            service.close()

    def test_law_responses_fit_in_a_frame(self, shipped, monkeypatch):
        monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        deep = workloads.build("deep-law", 1, REPO_ROOT / "laws", steps=1)
        laws = workloads.parse_law_texts(deep.law_texts)
        deep_h, problems = build_hierarchy(laws.values())
        assert deep_h is not None, problems
        for h in (shipped, deep_h):
            server = LawServer(h)
            sizes = [len(encode_frame(server.respond(LawFetch(name)))) - 4
                     for name in h.laws]
            assert max(sizes) <= fabric.MAX_FRAME
