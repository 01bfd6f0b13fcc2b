"""Message fabric: wire frames, two transports, and services.

A frame is a 4-byte big-endian length prefix and a binary body: the
message kind's index in ``WIRE_FORMAT`` as one byte, then the fields of
that kind in table order (text and bytes as a u32 length and the bytes,
lists as a u16 count and the items, a bool as one byte, an int as an
i64, a block of fields as a u32 length and the fields).  At import,
``WIRE_FORMAT`` is compiled into one straight-line encoder and one decoder
per kind.  An envelope's sender identity (module, profile, lineage), the
same on every message a sender sends, is one block, and the codec keeps
each distinct one's bytes and fields in two memos.  A memo is cleared at
``MEMO_SIZE`` keys, keeps no block over ``MEMO_BYTES`` nor one that does
not decode, and is touched only by get, set and clear, so threads share
it without a lock.  ``_frame_end`` checks every length prefix read.  The
frames back the TCP transport and services; the in-process simulator
carries the decoded message objects themselves, so it never runs the
codec.

``SimNetwork`` and ``TcpNetwork`` offer one interface: ``register``,
``send``, ``run_until_idle``, ``advance``, ``now`` and ``close``.
``run_until_idle`` returns the last handler's result (None if it delivered
nothing), and a handler's exception propagates from it; ``send`` to an
unregistered address raises KeyError.  ``TcpNetwork`` sends every frame
on one own connection and reads them back in send order, ruling on the
caller's thread: a hop is one ``send`` and, when the read returns
exactly one whole frame, one ``recv`` decoded where it lies.  The
reading end acks late where the platform allows it, about one ACK
segment per two frames until the link first idles.
``TcpService`` serves peers from outside a run (and the law server and
registry) from one selector thread; ``call_remote`` opens one connection
per request, for law fetches and registry calls.  The simulator
delivers strictly in (deliver_at, enqueue sequence) order, so a fixed
schedule of sends yields one possible execution, always the same.  The
registry is best-effort bookkeeping: rulings never depend on it.
"""

from __future__ import annotations

import itertools
import logging
import selectors
import socket
import struct
import threading
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Callable, NamedTuple, Optional, Union

from . import law_lang
from .controller import BareInbound, Envelope
from .model import LawHierarchy, UnknownLawError

log = logging.getLogger("mds.fabric")

MAX_FRAME = 1024 * 1024  # bytes in a frame body; a law_response needs ~2 KB
DELIVERY_TIMEOUT = 10.0  # seconds TcpNetwork.run_until_idle waits per read
FRAME_DEADLINE = 5.0  # seconds a served peer has to finish a frame it began
MAX_CONNECTIONS = 32  # connections one TcpService serves at once
MAX_SIM_EVENTS = 1_000_000  # deliveries SimNetwork.run_until_idle allows
MEMO_SIZE = 1024  # distinct blocks each codec memo keeps; cleared when full
MEMO_BYTES = 2048  # bytes of the largest block a codec memo keeps
CALL_TIMEOUT = 5.0  # seconds call_remote waits to connect, send or read


@dataclass(frozen=True)
class Registration:
    component: str
    module: str
    address: str


@dataclass(frozen=True)
class LawFetch:
    name: str


@dataclass(frozen=True)
class LawResponse:
    name: str
    found: bool
    text: str
    lineage: tuple[str, ...]
    algo: str


@dataclass(frozen=True)
class RegistryQuery:
    field: str  # "module" | "name" | "" for all
    value: str


@dataclass(frozen=True)
class RegistryRecord:
    component: str
    address: str
    module: str
    registered_at: int


@dataclass(frozen=True)
class RegistryRecords:
    records: tuple[RegistryRecord, ...]


WireMessage = Union[Envelope, BareInbound, Registration, LawFetch, LawResponse,
                    RegistryQuery, RegistryRecords]


class FrameError(ValueError):
    pass


# A wire type is a pair of source lines: one appends the value {v} to the
# bytearray o, one reads it into {v} from the body b at offset p, moving p
# past it.  A list is a 1-tuple: a u16 count, then its items.
TEXT = ("s = {v}.encode(); o += U32(len(s)); o += s",
        "n, = U32_AT(b, p); p += 4; {v} = b[p:p + n].decode(); p += n")
BYTES = ("o += U32(len({v})); o += {v}",
         "n, = U32_AT(b, p); p += 4; {v} = b[p:p + n]; p += n")
BOOL = ("o.append({v})", "{v} = (False, True)[b[p]]; p += 1")
INT = ("o += I64({v})", "{v}, = I64_AT(b, p); p += 8")
TEXTS = (TEXT,)


class Block(tuple):
    """Fields sent as one unit, a u32 length and then the fields; it stands
    in a record's field list for the (name, wire type) pairs it holds."""


class _Memo(dict):
    """``make(key)`` by key, within the bounds the module docstring gives."""

    def __init__(self, make: Callable):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self.make(key)
        if max(len(key), len(value)) <= MEMO_BYTES:
            if len(self) >= MEMO_SIZE:
                self.clear()
            self[key] = value
        return value


# The wire format.  A frame body is the kind's index here as one byte, then
# the fields of its class, a record, in the order the class declares them.
WIRE_FORMAT = {
    "enveloped": (Envelope, (
        Block((("sender_module", TEXT), ("sender_profile", TEXTS),
               ("sender_lineage", TEXTS))),
        ("operation", TEXT), ("payload", BYTES), ("sender", TEXT),
        ("target", TEXT))),
    "bare": (BareInbound, (
        ("sender_address", TEXT), ("target", TEXT), ("operation", TEXT),
        ("payload", BYTES))),
    "registration": (Registration, (
        ("component", TEXT), ("module", TEXT), ("address", TEXT))),
    "law_fetch": (LawFetch, (("name", TEXT),)),
    "law_response": (LawResponse, (
        ("name", TEXT), ("found", BOOL), ("text", TEXT), ("lineage", TEXTS),
        ("algo", TEXT))),
    "registry_query": (RegistryQuery, (("field", TEXT), ("value", TEXT))),
    "registry_records": (RegistryRecords, (
        ("records", ((RegistryRecord, (
            ("component", TEXT), ("address", TEXT), ("module", TEXT),
            ("registered_at", INT))),)),)),
}


def record_size(r: RegistryRecord) -> int:
    """Bytes ``r`` adds to a registry_records body: three texts and an int."""
    return 20 + sum(len(s.encode()) for s in (r.component, r.address,
                                               r.module))


def _lines(wire, src: str, dst: str, names: dict,
           memos: list) -> tuple[list, list]:
    """The lines that encode ``src`` and decode ``dst``, values of ``wire``;
    a block's memos are appended to ``memos``."""
    if isinstance(wire[0], str):
        return [wire[0].format(v=src)], [wire[1].format(v=dst)]
    if len(wire) == 1:
        item = dst + "_item"
        enc, dec = (["    " + line for line in lines]
                    for lines in _lines(wire[0], item, item, names, memos))
        return ([f"o += U16(len({src}))", f"for {item} in {src}:", *enc],
                ["n, = U16_AT(b, p); p += 2", f"{dst} = []",
                 "for _ in range(n):", *dec, f"    {dst}.append({item})",
                 f"{dst} = tuple({dst})"])
    cls, fields = wire
    names[cls.__name__] = cls
    enc, dec, args = [], [], []
    for field in fields:
        if isinstance(field, Block):
            args += [f"{dst}_{name}" for name, _ in field]
            more = _block(field, src, dst, names, memos)
        else:
            name, field_wire = field
            args.append(f"{dst}_{name}")
            more = _lines(field_wire, f"{src}.{name}", args[-1], names,
                          memos)
        enc, dec = enc + more[0], dec + more[1]
    return enc, dec + [f"{dst} = {cls.__name__}({', '.join(args)})"]


def _block(fields: Block, src: str, dst: str, names: dict,
           memos: list) -> tuple[list, list]:
    """The lines that encode and decode ``fields`` as one block."""
    enc, dec = [], []
    for i, (name, wire) in enumerate(fields):
        more = _lines(wire, f"m[{i}]", f"r_{name}", names, memos)
        enc, dec = enc + more[0], dec + more[1]
    got = "".join(f"r_{name}, " for name, _ in fields)
    encode, decode = _codec(enc + ["o[:4] = U32(len(o) - 4); o = bytes(o)"],
                            dec + [f"r = ({got})"], bytes(4), names)
    n = len(memos)
    memos += [_Memo(encode), _Memo(decode)]
    names[f"MEMO{n}"], names[f"MEMO{n + 1}"] = memos[n:]
    keys = "".join(f"{src}.{name}, " for name, _ in fields)
    values = "".join(f"{dst}_{name}, " for name, _ in fields)
    return ([f"k = ({keys})", "try:", f"    o += MEMO{n}[k]",
             "except TypeError:  # unhashable, a list profile say",
             f"    o += MEMO{n}.make(k)"],
            ["n, = U32_AT(b, p); p += 4",
             f"{values}= MEMO{n + 1}[b[p:p + n]]; p += n"])


def _codec(enc: list, dec: list, head: bytes, names: dict) -> tuple:
    """An encoder that appends to ``head``, and a decoder that starts after
    its length prefix and refuses bytes left over after the fields."""
    exec("\n    ".join([
        "def encode(m):", f"o = bytearray({head!r})", *enc,
        "return o\ndef decode(b):", f"p = {len(head) - 4}", *dec,
        "if p != len(b):",
        "    raise FrameError(f'fields end at byte {p} of {len(b)}')",
        "return r"]), names)
    return names["encode"], names["decode"]


def _compile() -> tuple[dict, tuple, list]:
    """Straight-line encoders by message class, decoders by kind byte, and
    the blocks' memos."""
    names = {"FrameError": FrameError}
    for name, code in (("U16", ">H"), ("U32", ">I"), ("I64", ">q")):
        names[name] = struct.Struct(code).pack
        names[name + "_AT"] = struct.Struct(code).unpack_from
    encoders, decoders, memos = {}, [], []
    for kind, record in enumerate(WIRE_FORMAT.values()):
        enc, dec = _lines(record, "m", "r", names, memos)
        encoders[record[0]], decode = _codec(
            enc, dec, bytes(4) + bytes([kind]), names)
        decoders.append(decode)
    return encoders, tuple(decoders), memos


_ENCODERS, _DECODERS, _MEMOS = _compile()
_PREFIX = struct.Struct(">I")  # a frame's length prefix


def encode_frame(msg: WireMessage) -> bytes:
    try:  # KeyError: not a wire message; ValueError: a surrogate
        frame = _ENCODERS[type(msg)](msg)
    except (AttributeError, KeyError, TypeError, struct.error,
            ValueError) as exc:
        raise FrameError(f"unencodable {type(msg).__name__}: {exc}") from None
    size = len(frame) - 4
    if size > MAX_FRAME:
        raise FrameError("frame body too large")
    frame[:4] = _PREFIX.pack(size)
    return bytes(frame)


def decode_body(body: bytes) -> WireMessage:
    if not body or body[0] >= len(_DECODERS):
        raise FrameError(f"unknown frame kind {body[:1]!r}")
    try:
        return _DECODERS[body[0]](body)
    except (struct.error, IndexError, ValueError) as exc:
        raise FrameError(f"malformed frame body: {exc}") from None


# ---------------------------------------------------------------------------
# Deterministic in-process simulator
# ---------------------------------------------------------------------------


class SimNetwork:
    """Logical-tick message transport with reproducible delivery order."""

    def __init__(self):
        self.clock = 0
        self._seq = 0
        self._pending: list[tuple[int, int, Callable, WireMessage]] = []
        self._handlers: dict[str, Callable[[WireMessage], object]] = {}

    def register(self, address: str,
                 handler: Callable[[WireMessage], object]) -> str:
        """Deliver messages for ``address`` to ``handler``; returns address."""
        self._handlers[address] = handler
        return address

    def send(self, address: str, msg: WireMessage, latency: int = 0):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        handler = self._handlers[address]
        heappush(self._pending, (self.clock + latency, self._seq, handler, msg))
        self._seq += 1

    def step(self) -> object:
        """Deliver the next message due, of which there must be one; returns
        what its handler returned."""
        deliver_at, _, handler, msg = heappop(self._pending)
        if deliver_at > self.clock:
            self.clock = deliver_at
        return handler(msg)

    def run_until_idle(self) -> object:
        result = None
        for _ in range(MAX_SIM_EVENTS):
            if not self._pending:
                return result
            result = self.step()
        raise RuntimeError("simulator did not quiesce")

    def advance(self, ticks: int) -> str:
        """Move the clock forward, delivering everything due on the way.

        Returns the step text a scenario report shows.
        """
        target = self.clock + ticks
        while self._pending and self._pending[0][0] <= target:
            self.step()
        if target > self.clock:
            self.clock = target
        return f"advance {ticks} -> t={self.clock}"

    def now(self) -> int:
        return self.clock

    def close(self):
        """Drop the handlers and the messages queued for them.  A handler is
        usually a bound method of the network's owner, which holds the
        network, so the two form a cycle that only a full collection frees."""
        self._handlers.clear()
        self._pending.clear()


# ---------------------------------------------------------------------------
# Law server and registry
# ---------------------------------------------------------------------------


class LawServer:
    """Serves each law's canonical text, kept from hashing, plus its lineage."""

    def __init__(self, h: LawHierarchy):
        self._texts = {name: law.text for name, law in h.laws.items()}
        self._lineage = dict(h.lineage)

    def get(self, name: str) -> tuple[str, tuple[str, ...]]:
        if name not in self._texts:
            raise UnknownLawError(f"law server does not hold {name!r}")
        return self._texts[name], self._lineage[name]

    def respond(self, msg: LawFetch) -> LawResponse:
        try:
            text, lineage = self.get(msg.name)
        except UnknownLawError:
            return LawResponse(name=msg.name, found=False, text="",
                               lineage=(), algo=law_lang.HASH_ALGORITHM)
        return LawResponse(name=msg.name, found=True, text=text,
                           lineage=lineage, algo=law_lang.HASH_ALGORITHM)


class Registry:
    """Best-effort component directory: last writer wins per (component,
    module).  It holds no more than one registry_records reply can carry,
    and drops a registration that would not fit."""

    def __init__(self):
        self._records: dict[tuple[str, str], RegistryRecord] = {}
        self._lock = threading.Lock()
        self._stamp = 0
        self._size = 3  # the full listing's body: kind byte and u16 count
        self._full = False

    def register(self, component: str, module: str,
                 address: str) -> Optional[RegistryRecord]:
        """The record kept, or None when the listing has no room for it."""
        with self._lock:
            record = RegistryRecord(component, address, module,
                                    self._stamp + 1)
            old = self._records.get((component, module))
            size = (self._size + record_size(record)
                    - (record_size(old) if old else 0))
            # a body holds MAX_FRAME bytes, a list a u16 count of items
            if size > MAX_FRAME or (not old and len(self._records) >= 0xFFFF):
                if not self._full:
                    self._full = True
                    log.warning("registry full at %d records: dropping "
                                "registrations one reply could not carry",
                                len(self._records))
                return None
            self._stamp, self._size = record.registered_at, size
            self._records[(component, module)] = record
            return record

    def query(self, module: Optional[str] = None,
              name: Optional[str] = None) -> list[RegistryRecord]:
        with self._lock:
            records = list(self._records.values())
        if module is not None:
            records = [r for r in records if r.module == module]
        if name is not None:
            records = [r for r in records if r.component == name]
        records.sort(key=lambda r: (r.component, r.module))
        return records

    def respond(self, msg: RegistryQuery) -> RegistryRecords:
        if msg.field == "module":
            found = self.query(module=msg.value)
        elif msg.field == "name":
            found = self.query(name=msg.value)
        else:
            found = self.query()
        return RegistryRecords(records=tuple(found))


# ---------------------------------------------------------------------------
# TCP transport
# ---------------------------------------------------------------------------


def _frame_end(buf: bytes) -> int:
    """Where the first frame in ``buf`` ends, 4 until its length prefix is
    in; a size over MAX_FRAME is refused at the prefix."""
    if len(buf) < 4:
        return 4
    size = _PREFIX.unpack_from(buf)[0]
    if size > MAX_FRAME:
        raise FrameError("frame too large")
    return 4 + size


def _cut(buf: bytearray) -> Optional[bytes]:
    """Take the body of the first frame out of ``buf``; None while the
    frame is unfinished."""
    end = _frame_end(buf)
    if len(buf) < end:
        return None
    body = bytes(buf[4:end])
    del buf[:end]
    return body


def read_frame(sock: socket.socket) -> Optional[WireMessage]:
    """Read one frame and not a byte past it; None when the peer closed the
    stream between frames."""
    buf = bytearray()
    while len(buf) < (end := _frame_end(buf)):
        chunk = sock.recv(end - len(buf))
        if not chunk:
            if buf:
                raise FrameError("connection closed mid-frame")
            return None
        buf += chunk
    return decode_body(bytes(buf[4:]))


def send_frame(sock: socket.socket, msg: WireMessage):
    sock.sendall(encode_frame(msg))


Handler = Callable[[WireMessage], Optional[WireMessage]]  # returns a reply


class _Peer:
    """An accepted connection: the bytes of frames not yet whole, and the
    bytes of replies not yet sent."""

    __slots__ = ("sock", "handler", "inbox", "outbox", "since", "active",
                 "events")

    def __init__(self, sock: socket.socket, handler: Handler):
        self.sock = sock
        self.handler = handler
        self.inbox = bytearray()
        self.outbox = bytearray()
        self.since: Optional[float] = None  # when the unfinished frame began
        self.active = time.monotonic()  # when the peer was last served
        self.events = selectors.EVENT_READ


class TcpService:
    """Frame servers on one selector thread.

    ``TcpService(handler, host, port)`` listens at ``address``; ``serve``
    adds more listeners, each with its own handler.  Every accepted
    connection keeps a byte buffer, cut into frames at the length prefix
    (the check ``read_frame`` makes).  The loop thread hands each whole
    frame to the listener's handler, one frame at a time, and sends back
    the reply it returns; it reads no more from a connection until that
    reply is out.  A handler that raises is logged, and the next frame is
    read.  A connection is dropped when its peer closes it or sends a bad
    frame, or when a frame it began (or a reply to it) is still unfinished
    after ``FRAME_DEADLINE`` seconds.  At ``MAX_CONNECTIONS`` open
    connections, a new one takes the place of the one idle longest (with
    no unfinished frame or reply); if every one is mid-frame, the new one
    is closed as soon as it is accepted.
    ``close`` stops the thread and closes every socket.
    """

    def __init__(self, handler: Optional[Handler] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self._selector = selectors.DefaultSelector()
        # serve() and close() write a byte here to wake the loop
        self._wake, self._waker = socket.socketpair()
        self._wake.setblocking(False)
        self._waker.setblocking(False)
        self._selector.register(self._wake, selectors.EVENT_READ,
                                self._on_wake)
        self._lock = threading.Lock()
        self._closing = False
        self._joining: list[tuple[socket.socket, Handler]] = []
        self._listeners: list[socket.socket] = []
        self._peers: dict[socket.socket, _Peer] = {}
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="mds-tcp-service")
        self._thread.start()
        if handler is not None:
            try:
                self.address = self.serve(
                    socket.create_server((host, port)), handler)
            except OSError:
                self.close()
                raise

    def serve(self, listener: socket.socket,
              handler: Handler) -> tuple[str, int]:
        """Serve the connections ``listener`` accepts; returns its address."""
        listener.setblocking(False)
        with self._lock:
            self._joining.append((listener, handler))
        self._wakeup()
        return listener.getsockname()

    def close(self):
        """Stop the loop thread, which closes every socket on its way out."""
        with self._lock:
            self._closing = True
        self._wakeup()
        self._thread.join()
        self._waker.close()

    def _wakeup(self):
        try:
            self._waker.send(b"\0")
        except OSError:  # a wake-up is pending already, or the loop is gone
            pass

    # -- the loop thread ----------------------------------------------------

    def _run(self):
        timeout = None
        try:
            while not self._closing:
                for key, events in self._selector.select(timeout):
                    key.data(events)
                timeout = self._expire()
        finally:
            self._release()

    def _expire(self) -> Optional[float]:
        """Drop the peers whose unfinished frame ran out of time; returns
        the seconds left to the next one that may, None if there is none."""
        now = time.monotonic()
        timeout = None
        for peer in list(self._peers.values()):
            if peer.since is None:
                continue
            left = peer.since + FRAME_DEADLINE - now
            if left <= 0:
                self._drop(peer)
            elif timeout is None or left < timeout:
                timeout = left
        return timeout

    def _on_wake(self, _events: int):
        try:
            while self._wake.recv(4096):
                pass
        except BlockingIOError:
            pass
        with self._lock:
            joining, self._joining = self._joining, []
        for listener, handler in joining:
            self._listeners.append(listener)
            self._selector.register(listener, selectors.EVENT_READ,
                                    partial(self._accept, listener, handler))

    def _accept(self, listener: socket.socket, handler: Handler,
                _events: int):
        try:
            sock, _ = listener.accept()
        except OSError:  # the peer gave up before it was accepted
            return
        if len(self._peers) >= MAX_CONNECTIONS:
            idle = [peer for peer in self._peers.values()
                    if peer.since is None]
            if not idle:
                sock.close()
                return
            self._drop(min(idle, key=lambda peer: peer.active))
        sock.setblocking(False)
        peer = _Peer(sock, handler)
        self._peers[sock] = peer
        self._selector.register(sock, peer.events,
                                partial(self._on_peer, peer))

    def _on_peer(self, peer: _Peer, events: int):
        if self._peers.get(peer.sock) is not peer:  # dropped this round
            return
        peer.active = time.monotonic()
        try:
            if events & selectors.EVENT_READ:
                data = peer.sock.recv(65536)
                if not data:  # closed by the peer, perhaps mid-frame
                    self._drop(peer)
                    return
                peer.inbox += data
            self._pump(peer)
        except BlockingIOError:
            pass
        except (OSError, FrameError):
            self._drop(peer)

    def _pump(self, peer: _Peer):
        """Send what is owed, then handle whole frames, until the peer must
        send more or take what is owed."""
        inbox, outbox = peer.inbox, peer.outbox
        handled = False
        while True:
            if outbox:
                try:
                    del outbox[:peer.sock.send(outbox)]
                except BlockingIOError:
                    break
                if outbox:
                    break
            body = _cut(inbox)
            if body is None:
                break
            msg = decode_body(body)
            handled = True
            try:
                reply = peer.handler(msg)
            except Exception:  # the frame boundary holds: read the next
                log.exception("frame handler failed")
                continue
            if reply is not None:
                try:
                    outbox += encode_frame(reply)
                except FrameError as exc:
                    log.warning("dropping a peer whose %s reply cannot be "
                                "sent: %s", type(reply).__name__, exc)
                    raise
        if not inbox and not outbox:
            peer.since = None
        elif handled or peer.since is None:
            peer.since = time.monotonic()
        events = selectors.EVENT_WRITE if outbox else selectors.EVENT_READ
        if events != peer.events:
            peer.events = events
            self._selector.modify(peer.sock, events,
                                  partial(self._on_peer, peer))

    def _drop(self, peer: _Peer):
        self._selector.unregister(peer.sock)
        del self._peers[peer.sock]
        peer.sock.close()

    def _release(self):
        with self._lock:
            joining, self._joining = self._joining, []
        for listener in self._listeners + [sock for sock, _ in joining]:
            # a peer still waiting to be accepted reads the end of the
            # stream too, not a reset
            while True:
                try:
                    listener.accept()[0].close()
                except OSError:
                    break
            listener.close()
        for sock in self._peers:
            sock.close()
        self._peers.clear()
        self._selector.close()
        self._wake.close()


def serve_law_server(h: LawHierarchy, host: str = "127.0.0.1",
                     port: int = 0) -> TcpService:
    server = LawServer(h)

    def handle(msg: WireMessage) -> Optional[WireMessage]:
        if isinstance(msg, LawFetch):
            return server.respond(msg)
        return None

    return TcpService(handle, host, port)


def serve_registry(registry: Registry, host: str = "127.0.0.1",
                   port: int = 0) -> TcpService:
    def handle(msg: WireMessage) -> Optional[WireMessage]:
        if isinstance(msg, Registration):
            registry.register(msg.component, msg.module, msg.address)
            return None
        if isinstance(msg, RegistryQuery):
            return registry.respond(msg)
        return None

    return TcpService(handle, host, port)


def call_remote(address: tuple[str, int], msg: WireMessage,
                expect_reply: bool = True) -> Optional[WireMessage]:
    """One request (and optionally one reply) over a fresh connection."""
    with socket.create_connection(address, timeout=CALL_TIMEOUT) as sock:
        send_frame(sock, msg)
        if not expect_reply:
            return None
        return read_frame(sock)  # create_connection set the timeout


def fetch_law(address: tuple[str, int], name: str) -> LawResponse:
    reply = call_remote(address, LawFetch(name=name))
    if not isinstance(reply, LawResponse):
        raise FrameError("law server sent no law_response")
    return reply


class _Link(NamedTuple):
    """The network's own connection, which carries every frame it sends."""
    client: socket.socket  # send() writes here, without blocking
    server: socket.socket  # the accepted end run_until_idle reads
    inbox: bytearray  # bytes read from server, not yet a whole frame


def _own_link() -> _Link:
    """A connection to a listener closed once it has accepted it.  Frames
    flow one way, so the client sends each at once (TCP_NODELAY) and the
    server end clears TCP_QUICKACK once where it exists: the kernel then
    acks every second frame until the link first idles, when the
    delayed-ACK timer (about 40 ms) turns quick ACKs back on for good, as
    the server end never sends data.  Only speed depends on it."""
    with socket.create_server(("127.0.0.1", 0)) as listener, \
            ExitStack() as undo:
        client = undo.enter_context(
            socket.create_connection(listener.getsockname()))
        client.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        listener.settimeout(DELIVERY_TIMEOUT)
        server, peer = listener.accept()
        undo.enter_context(server)
        if peer != client.getsockname():
            raise ConnectionError(f"accepted {peer}, not this network's own "
                                  f"connection")
        quickack = getattr(socket, "TCP_QUICKACK", None)
        if quickack is not None:
            server.setsockopt(socket.IPPROTO_TCP, quickack, 0)
        client.setblocking(False)
        server.setblocking(False)
        undo.pop_all()
    return _Link(client, server, bytearray())


def _recv(link: _Link) -> bytes:
    """One read from ``link``'s server end, waiting up to DELIVERY_TIMEOUT
    s only when nothing has arrived; the end of the stream is an error."""
    sock = link.server
    try:
        data = sock.recv(65536)
    except BlockingIOError:  # wait for it: socket timeouts poll, so
        sock.settimeout(DELIVERY_TIMEOUT)  # any fd number will do
        try:
            data = sock.recv(65536)
        finally:
            sock.setblocking(False)
    if not data:
        if link.inbox:
            raise FrameError("connection closed mid-frame")
        raise ConnectionError("own connection closed")
    return data


def _receive(link: _Link) -> WireMessage:
    """The next frame on ``link``'s own connection."""
    inbox = link.inbox
    if not inbox:
        data = _recv(link)
        # one whole frame, the common case: decode it from the read itself
        if _frame_end(data) == len(data):
            return decode_body(data[4:])
        inbox += data
    while (body := _cut(inbox)) is None:
        inbox += _recv(link)
    return decode_body(body)


def _write(link: _Link, frame: bytes):
    """Write ``frame`` on ``link``'s own connection.  While the loopback
    buffers are full, what the server end holds moves into the inbox, so
    the write never waits for a read that only this thread would make."""
    sent = 0
    while sent < len(frame):
        try:  # frame[0:] is frame itself: a whole write copies nothing
            sent += link.client.send(frame[sent:])
        except BlockingIOError:
            try:
                link.inbox.extend(link.server.recv(65536))
            except BlockingIOError:
                pass


class TcpNetwork:
    """The ``SimNetwork`` interface over loopback sockets.

    One own connection (``_own_link``), opened when the network is made,
    carries every frame ``send`` writes (``latency`` is the real
    network's, so the argument is ignored).  ``run_until_idle`` reads them
    back in send order and runs each one's handler on the calling thread,
    so the handler's result or exception reaches the caller.  A write
    never waits (``_write``); only a read that would block waits, up to
    DELIVERY_TIMEOUT s (``_receive``).  The stream's end is a
    ConnectionError between frames and a FrameError within one; a wait
    that runs out is a TimeoutError.
    Outside peers reach an address at the host:port ``register`` returns;
    one ``TcpService`` loop thread serves them all, sends no reply and logs
    a handler's failure.  Only a controller puts an envelope on the own
    connection, so one from outside is handled as the bare message it
    carries.  Each address's handler runs under a lock of its own, so an
    outside frame is never handled while the caller handles one for the
    same address, and since it arrives on another connection it cannot
    end a wait.
    There is no shared clock: ``now`` counts its own readings, so the
    timestamps of a run are 0, 1, 2, ... in the order they were read.
    """

    def __init__(self):
        self._service = TcpService()
        try:
            self._link = _own_link()
        except OSError:
            self._service.close()
            raise
        self._handlers: dict[str, Callable[[WireMessage], object]] = {}
        self._sent: deque[Callable] = deque()  # a handler per frame not read
        self._ticks = itertools.count()

    def register(self, address: str,
                 handler: Callable[[WireMessage], object]) -> str:
        """Serve outside peers of ``handler`` at a fresh listening socket;
        returns its host:port."""
        lock = threading.Lock()

        def handle(msg: WireMessage) -> object:
            with lock:
                return handler(msg)

        def serve(msg: WireMessage) -> None:  # an outside peer gets no reply
            if isinstance(msg, Envelope):  # no controller put it there
                msg = BareInbound(msg.sender, msg.target, msg.operation,
                                  msg.payload)
            handle(msg)

        host, port = self._service.serve(
            socket.create_server(("127.0.0.1", 0)), serve)
        self._handlers[address] = handle
        return f"{host}:{port}"

    def send(self, address: str, msg: WireMessage, latency: int = 0):
        handle = self._handlers[address]
        _write(self._link, encode_frame(msg))
        self._sent.append(handle)

    def run_until_idle(self) -> object:
        sent, link = self._sent, self._link
        result = None
        while sent:
            result = sent.popleft()(_receive(link))
        return result

    def advance(self, ticks: int) -> str:
        """Sleep 10 ms per tick; returns the step text."""
        time.sleep(ticks * 0.01)
        return f"advance {ticks}"

    def now(self) -> int:
        return next(self._ticks)

    def close(self):
        """Stop serving outside peers, then close the own connection."""
        self._service.close()
        self._link.client.close()
        self._link.server.close()
        self._handlers.clear()
        self._sent.clear()
