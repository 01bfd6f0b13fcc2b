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
``send``, ``run_until_idle``, ``advance``, ``now`` and ``close``, and
keep one delivery contract: ``send`` queues, only ``run_until_idle``
delivers, messages arrive in send order, and ``advance`` only moves time.
``run_until_idle`` returns the last handler's result (None if it delivered
nothing), and a handler's exception propagates from it; ``send`` to an
unregistered address raises KeyError before anything is queued.
``TcpNetwork`` sends every frame on one own connection and reads them
back in send order, ruling on the caller's thread: a hop is one ``send``
and, when the read returns exactly one whole frame, one ``recv`` decoded
where it lies.  The reading end acks late where the platform allows it,
about one ACK segment per two frames, set again after each ``advance``
pause.
``TcpService`` serves a run's outside peers from one selector thread, so
a ``TcpNetwork`` handler may run there while the caller's thread runs
one too: the handlers' owner serializes them.  From outside, such a
handler sees only controller messages, an envelope as the bare one it
carries.  ``LawServer.respond`` and ``Registry.respond`` are
``TcpService`` handlers as they stand; ``respond`` is the law server's
one entry point, in process too.  ``call_remote`` opens one connection
per request, for law fetches and registry calls, and only once it has
encoded the request, so a message too big for a frame raises
``FrameError`` having opened none (the runner drops such a registration
like a refused one).  ``CALL_TIMEOUT`` bounds the whole call but the host
name lookup: every address tried, however slowly a peer trickles its
reply.  Every request but one gets a reply: ``Registry.respond`` keeps a
``Registration`` and answers nothing, so ``call_remote`` reads no reply
to one.  The registry is best-effort bookkeeping: rulings never depend
on it.
"""

from __future__ import annotations

import itertools
import logging
import random
import selectors
import socket
import struct
import threading
import time
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple, Optional, Union

from . import law_lang
from .controller import BareInbound, Envelope
from .model import LawHierarchy

log = logging.getLogger("mds.fabric")

MAX_FRAME = 1024 * 1024  # bytes in a frame body; a law_response needs ~2 KB
DELIVERY_TIMEOUT = 10.0  # seconds TcpNetwork.run_until_idle waits per read
FRAME_DEADLINE = 5.0  # seconds a served peer has to finish a frame it began
MAX_CONNECTIONS = 32  # connections one TcpService serves at once
# bytes of kernel send buffer each served peer gets, where loopback's own
# sizing gives megabytes to a peer that sends requests and reads no reply
SEND_BUFFER = 64 * 1024
MEMO_SIZE = 1024  # distinct blocks each codec memo keeps; cleared when full
MEMO_BYTES = 2048  # bytes of the largest block a codec memo keeps
CALL_TIMEOUT = 5.0  # seconds one call_remote takes, name lookup aside


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
        ("operation", TEXT), ("payload", BYTES), ("sender", TEXT))),
    "bare": (BareInbound, (
        ("sender_address", TEXT), ("operation", TEXT), ("payload", BYTES))),
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
    """Logical-tick transport: ``send`` queues a message due as many ticks
    from now as ``random.Random(seed).randint(1, 3)`` draws, and
    ``run_until_idle`` delivers the queue in send order, moving the clock
    to each message's due tick."""

    def __init__(self, seed: int = 0):
        self.clock = 0
        self._bits = random.Random(seed).getrandbits
        self._pending: deque[tuple[int, Callable, WireMessage]] = deque()
        self._handlers: dict[str, Callable[[WireMessage], object]] = {}

    def register(self, address: str,
                 handler: Callable[[WireMessage], object]) -> str:
        """Deliver messages for ``address`` to ``handler``; returns address."""
        self._handlers[address] = handler
        return address

    def send(self, address: str, msg: WireMessage):
        handler = self._handlers[address]
        # randint(1, 3) inlined: the same draws of two bits, 3 redrawn
        latency = self._bits(2)
        while latency == 3:
            latency = self._bits(2)
        self._pending.append((self.clock + latency + 1, handler, msg))

    def run_until_idle(self) -> object:
        pending = self._pending
        result = None
        while pending:
            deliver_at, handler, msg = pending.popleft()
            if deliver_at > self.clock:
                self.clock = deliver_at
            result = handler(msg)
        return result

    def advance(self, ticks: int) -> str:
        """Move the clock forward, never back; returns the step text a
        scenario report shows."""
        if ticks > 0:
            self.clock += ticks
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
    """Serves each law of the hierarchy it was built from: the canonical
    text, kept from hashing, plus its lineage."""

    def __init__(self, h: LawHierarchy):
        self._h = h

    def respond(self, msg: WireMessage) -> Optional[LawResponse]:
        """The reply to a law_fetch; None to any other message."""
        if not isinstance(msg, LawFetch):
            return None
        law = self._h.laws.get(msg.name)
        if law is None:
            return LawResponse(name=msg.name, found=False, text="",
                               lineage=(), algo=law_lang.HASH_ALGORITHM)
        return LawResponse(name=msg.name, found=True, text=law.text,
                           lineage=self._h.lineage[msg.name],
                           algo=law_lang.HASH_ALGORITHM)


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

    def respond(self, msg: WireMessage) -> Optional[RegistryRecords]:
        """Keep a registration (with no reply) and answer a
        registry_query; None to any other message."""
        if isinstance(msg, Registration):
            self.register(msg.component, msg.module, msg.address)
            return None
        if not isinstance(msg, RegistryQuery):
            return None
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
    connection gets a kernel send buffer of ``SEND_BUFFER`` bytes and
    keeps a byte buffer, cut into frames at the length prefix (the check
    ``read_frame`` makes).  The loop thread hands each whole
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
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, SEND_BUFFER)
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


def _time_left(deadline: float) -> float:
    """Seconds until ``deadline`` (a ``time.monotonic`` reading);
    TimeoutError once it has passed."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("timed out")
    return left


class _DeadlineReader:
    """The socket ``read_frame`` reads for ``call_remote``: each ``recv``
    waits only for the time left to one deadline."""

    def __init__(self, sock: socket.socket, deadline: float):
        self._sock = sock
        self._deadline = deadline

    def recv(self, size: int) -> bytes:
        self._sock.settimeout(_time_left(self._deadline))
        return self._sock.recv(size)


def _connect(address: tuple[str, int], deadline: float) -> socket.socket:
    """``socket.create_connection`` with each attempt, one per address the
    host name resolves to, waiting only for the time left to ``deadline``;
    the name lookup itself has no limit."""
    host, port = address
    errors: list[OSError] = []
    for family, kind, proto, _, sockaddr in socket.getaddrinfo(
            host, port, 0, socket.SOCK_STREAM):
        timeout = _time_left(deadline)
        sock = socket.socket(family, kind, proto)
        try:
            sock.settimeout(timeout)
            sock.connect(sockaddr)
            return sock
        except OSError as exc:
            sock.close()
            errors.append(exc)
    raise errors[0] if errors else OSError("getaddrinfo returns an empty list")


def call_remote(address: tuple[str, int],
                msg: WireMessage) -> Optional[WireMessage]:
    """One request and its reply over a fresh connection, all within
    ``CALL_TIMEOUT`` seconds but for the host name lookup: each connect
    attempt, the send and each read wait only for the time left, so a reply
    that trickles in times out as a silent one does.  A ``Registration``
    gets no reply, so its call returns None once it is sent; any other
    request whose stream ends before its reply raises ``FrameError``."""
    frame = encode_frame(msg)  # a frame that cannot be sent opens nothing
    deadline = time.monotonic() + CALL_TIMEOUT
    with _connect(address, deadline) as sock:
        sock.settimeout(_time_left(deadline))
        sock.sendall(frame)  # the timeout bounds the whole send
        if isinstance(msg, Registration):
            return None
        reply = read_frame(_DeadlineReader(sock, deadline))
        if reply is None:
            raise FrameError("connection closed with no reply")
        return reply


class _Link(NamedTuple):
    """The network's own connection, which carries every frame it sends."""
    client: socket.socket  # send() writes here, without blocking
    server: socket.socket  # the accepted end run_until_idle reads
    inbox: bytearray  # bytes read from server, not yet a whole frame


def _ack_late(sock: socket.socket):
    """Clear TCP_QUICKACK on ``sock`` where the platform has it, so the
    kernel acks every second frame.  An idle gap long enough for the
    delayed-ACK timer (about 40 ms) turns quick ACKs back on, and as the
    reading end never sends data, only clearing the option again turns
    them off.  Only speed depends on it."""
    quickack = getattr(socket, "TCP_QUICKACK", None)
    if quickack is not None:
        sock.setsockopt(socket.IPPROTO_TCP, quickack, 0)


def _own_link() -> _Link:
    """A connection to a listener closed once it has accepted it.  Frames
    flow one way, so the client sends each at once (TCP_NODELAY) and the
    server end acks late (``_ack_late``)."""
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
        _ack_late(server)
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
    carries every frame ``send`` writes.  ``run_until_idle`` reads them
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
    carries, and a frame of another kind is dropped.  An outside frame
    arrives on another connection, so it cannot end a wait, but its
    handler runs on the loop thread while the caller's thread runs on: the
    network takes no lock, and the handlers' owner serializes them.
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
        returns its host:port.  From outside, the handler gets only a
        ``BareInbound``, on the loop thread, perhaps while the caller's
        thread runs it for an own frame: its owner serializes the two."""

        def serve(msg: WireMessage) -> None:  # an outside peer gets no reply
            if isinstance(msg, Envelope):  # no controller put it there
                handler(BareInbound(msg.sender, msg.operation, msg.payload))
            elif isinstance(msg, BareInbound):
                handler(msg)  # any other kind is no controller message

        host, port = self._service.serve(
            socket.create_server(("127.0.0.1", 0)), serve)
        self._handlers[address] = handler
        return f"{host}:{port}"

    def send(self, address: str, msg: WireMessage):
        handler = self._handlers[address]
        _write(self._link, encode_frame(msg))
        self._sent.append(handler)

    def run_until_idle(self) -> object:
        sent, link = self._sent, self._link
        result = None
        while sent:
            result = sent.popleft()(_receive(link))
        return result

    def advance(self, ticks: int) -> str:
        """Sleep 10 ms per tick, then ack late again, as the idle gap may
        have ended it; returns the step text."""
        time.sleep(ticks * 0.01)
        _ack_late(self._link.server)
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
