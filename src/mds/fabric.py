"""Message fabric: wire frames, two transports, and services.

A frame is a 4-byte big-endian length prefix and a JSON body laid out as
``WIRE_FORMAT`` lists; ``read_frame`` is the one reader of the prefix.  The
frames back the TCP transport and services; the in-process simulator
carries the decoded message objects themselves, so it never runs the codec.

``SimNetwork`` and ``TcpNetwork`` offer one interface: ``register``,
``send``, ``run_until_idle``, ``advance``, ``now`` and ``close``.
``TcpNetwork`` keeps one persistent connection per registered address,
opened at the first send to it; ``call_remote`` opens one connection per
request, for law fetches and registry calls.  The simulator delivers
strictly in (deliver_at, enqueue sequence) order, so a fixed schedule of
sends yields one possible execution, always the same.  The registry is
best-effort bookkeeping: rulings never depend on it.
"""

from __future__ import annotations

import base64
import itertools
import json
import logging
import socket
import threading
import time
from dataclasses import dataclass
from functools import partial
from heapq import heappop, heappush
from typing import Callable, Optional, Union

from . import law_lang
from .controller import BareInbound, Envelope
from .model import LawHierarchy, UnknownLawError

log = logging.getLogger("mds.fabric")

MAX_FRAME = 16 * 1024 * 1024
DELIVERY_TIMEOUT = 10.0  # seconds TcpNetwork.run_until_idle waits
MAX_SIM_EVENTS = 1_000_000  # deliveries SimNetwork.run_until_idle allows


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


# A wire type is (JSON type, encode, decode): a field's value travels as
# encode(value), a JSON value of exactly that type (so JSON true is no
# integer), and decode turns it back; None for both means "as it is".

def _texts(items: list) -> tuple[str, ...]:
    if not all(type(item) is str for item in items):
        raise TypeError("a list holds a non-string")
    return tuple(items)


def _b64(payload: bytes) -> str:
    return base64.b64encode(payload).decode("ascii")


def _to_json(obj, fields, body: dict) -> dict:
    for name, (_, encode, _) in fields:
        value = getattr(obj, name)
        body[name] = value if encode is None else encode(value)
    return body


def _from_json(cls, fields, data):
    if type(data) is not dict:
        raise TypeError("a record is not a JSON object")
    values = []
    for name, (json_type, _, decode) in fields:
        value = data[name]
        if type(value) is not json_type:
            raise TypeError(f"{name!r} is not a JSON {json_type.__name__}")
        values.append(value if decode is None else decode(value))
    return cls(*values)


def _records(cls: type, fields) -> tuple:
    """A list of ``cls`` records, each a JSON object of ``fields``."""
    return (list, lambda records: [_to_json(r, fields, {}) for r in records],
            lambda items: tuple(_from_json(cls, fields, i) for i in items))


TEXT = (str, None, None)
TEXTS = (list, list, _texts)
BYTES = (str, _b64, partial(base64.b64decode, validate=True))  # base64 text
BOOL = (bool, None, None)
INT = (int, None, None)

# The wire format.  A frame body is a JSON object: "kind" first, then the
# fields of that kind's message class in the order listed here, which is
# also the order the class declares them in.
WIRE_FORMAT = {
    "enveloped": (Envelope, (
        ("sender_module", TEXT), ("sender_profile", TEXTS),
        ("sender_lineage", TEXTS), ("operation", TEXT), ("payload", BYTES),
        ("sender", TEXT), ("target", TEXT))),
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
        ("records", _records(RegistryRecord, (
            ("component", TEXT), ("address", TEXT), ("module", TEXT),
            ("registered_at", INT)))),)),
}
_KIND_OF = {cls: kind for kind, (cls, _) in WIRE_FORMAT.items()}
_compact_json = json.JSONEncoder(separators=(",", ":")).encode


def encode_frame(msg: WireMessage) -> bytes:
    kind = _KIND_OF[type(msg)]
    body = _to_json(msg, WIRE_FORMAT[kind][1], {"kind": kind})
    data = _compact_json(body).encode("utf-8")
    if len(data) > MAX_FRAME:
        raise FrameError("frame body too large")
    return len(data).to_bytes(4, "big") + data


def decode_body(body: bytes) -> WireMessage:
    try:
        data = json.loads(body.decode("utf-8"))
    # ValueError: bad UTF-8, bad JSON, or an integer too long to convert;
    # RecursionError: arrays or objects nested too deep
    except (ValueError, RecursionError) as exc:
        raise FrameError(f"undecodable frame body: {exc}") from None
    if not isinstance(data, dict):
        raise FrameError("frame body is not a record")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in WIRE_FORMAT:
        raise FrameError(f"unknown frame kind {kind!r}")
    try:
        return _from_json(*WIRE_FORMAT[kind], data)
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"malformed {kind!r} frame: {exc}") from None


# ---------------------------------------------------------------------------
# Deterministic in-process simulator
# ---------------------------------------------------------------------------


class SimNetwork:
    """Logical-tick message transport with reproducible delivery order."""

    def __init__(self):
        self.clock = 0
        self._seq = 0
        self._pending: list[tuple[int, int, str, WireMessage]] = []
        self._handlers: dict[str, Callable[[WireMessage], None]] = {}
        self.dropped: list[tuple[str, WireMessage]] = []

    def register(self, address: str,
                 handler: Callable[[WireMessage], None]) -> str:
        """Deliver messages for ``address`` to ``handler``; returns address."""
        self._handlers[address] = handler
        return address

    def send(self, address: str, msg: WireMessage, latency: int = 0):
        if latency < 0:
            raise ValueError("latency must be >= 0")
        heappush(self._pending, (self.clock + latency, self._seq, address, msg))
        self._seq += 1

    def step(self) -> bool:
        if not self._pending:
            return False
        deliver_at, _, address, msg = heappop(self._pending)
        if deliver_at > self.clock:
            self.clock = deliver_at
        handler = self._handlers.get(address)
        if handler is None:
            log.warning("dropping message for unknown address %r", address)
            self.dropped.append((address, msg))
            return True
        handler(msg)
        return True

    def run_until_idle(self):
        for _ in range(MAX_SIM_EVENTS):
            if not self.step():
                return
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
        """Nothing to release: the simulator holds no sockets or threads."""


# ---------------------------------------------------------------------------
# Law server and registry
# ---------------------------------------------------------------------------


class LawServer:
    """Serves canonical law text plus the hash lineage for each law."""

    def __init__(self, h: LawHierarchy):
        self._texts = {name: law_lang.print_law(law)
                       for name, law in h.laws.items()}
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
    """Best-effort component directory: last writer wins per (component, module)."""

    def __init__(self):
        self._records: dict[tuple[str, str], RegistryRecord] = {}
        self._lock = threading.Lock()
        self._stamp = 0

    def register(self, component: str, module: str,
                 address: str) -> RegistryRecord:
        with self._lock:
            self._stamp += 1
            record = RegistryRecord(component=component, address=address,
                                    module=module, registered_at=self._stamp)
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


def read_frame(sock: socket.socket) -> Optional[WireMessage]:
    """Read one frame; None when the peer closed the stream between frames."""
    header = _read_upto(sock, 4)
    if not header:
        return None
    if len(header) < 4:
        raise FrameError("truncated length prefix")
    size = int.from_bytes(header, "big")
    if size > MAX_FRAME:
        raise FrameError("frame too large")
    body = _read_upto(sock, size)
    if len(body) < size:
        raise FrameError("connection closed mid-frame")
    return decode_body(body)


def _read_upto(sock: socket.socket, n: int) -> bytes:
    """``n`` bytes, or fewer if the peer closes the stream first."""
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            break
        buf.extend(chunk)
    return bytes(buf)


def send_frame(sock: socket.socket, msg: WireMessage):
    sock.sendall(encode_frame(msg))


class TcpService:
    """A frame server: one thread per connection, frames handled serially."""

    def __init__(self, handler: Callable[[WireMessage], Optional[WireMessage]],
                 host: str = "127.0.0.1", port: int = 0):
        self._handler = handler
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind((host, port))
        self._sock.listen(32)
        self.address = self._sock.getsockname()
        self._closing = False
        self._conns: set[socket.socket] = set()  # accepted, still served
        self._lock = threading.Lock()
        threading.Thread(target=self._accept_loop, daemon=True).start()

    def _accept_loop(self):
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            with self._lock:
                if self._closing:
                    conn.close()
                    return
                self._conns.add(conn)
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn: socket.socket):
        try:
            while True:
                try:
                    msg = read_frame(conn)
                except (FrameError, OSError):
                    return
                if msg is None:
                    return
                try:
                    reply = self._handler(msg)
                except Exception:  # the frame boundary holds: read the next
                    log.exception("frame handler failed")
                    continue
                if reply is not None:
                    try:
                        send_frame(conn, reply)
                    except OSError:
                        return
        finally:
            with self._lock:
                self._conns.discard(conn)
            conn.close()

    def close(self):
        # close() alone wakes no thread blocked in accept() or recv()
        with self._lock:
            self._closing = True
            conns = list(self._conns)
        for sock in (self._sock, *conns):
            try:
                sock.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its serving thread
                pass
        self._sock.close()


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
                expect_reply: bool = True,
                timeout: float = 5.0) -> Optional[WireMessage]:
    """One request (and optionally one reply) over a fresh connection."""
    with socket.create_connection(address, timeout=timeout) as sock:
        send_frame(sock, msg)
        if not expect_reply:
            return None
        return read_frame(sock)  # create_connection set the timeout


def fetch_law(address: tuple[str, int], name: str) -> LawResponse:
    reply = call_remote(address, LawFetch(name=name))
    if not isinstance(reply, LawResponse):
        raise FrameError("law server sent no law_response")
    return reply


class TcpNetwork:
    """The ``SimNetwork`` interface over loopback sockets.

    Each registered address gets its own ``TcpService``, whose handler runs
    under a lock of its own; peers outside the run reach it at the host:port
    that ``register`` returns.  ``send`` writes each frame to one persistent
    connection per registered address, opened at the first send to it and
    closed by ``close`` (``latency`` is the real network's, so the argument
    is ignored).  ``run_until_idle`` waits until the handled count reaches
    the mark each ``send`` raises from the count it finds, so a stray frame
    handled between sends (a ``law_fetch``, a registry peer's) does not end
    a later wait.
    There is no shared clock: ``now`` counts its own readings, so the
    timestamps of a run are 0, 1, 2, ... in the order they were read.
    """

    def __init__(self):
        self._services: dict[str, TcpService] = {}
        self._conns: dict[str, socket.socket] = {}
        self._handled = 0
        self._target = 0
        self._cv = threading.Condition()
        self._ticks = itertools.count()

    def register(self, address: str,
                 handler: Callable[[WireMessage], None]) -> str:
        """Serve ``handler`` on a fresh socket; returns its host:port."""
        lock = threading.Lock()

        def handle(msg: WireMessage) -> None:
            try:
                with lock:
                    handler(msg)
            finally:  # a failed handler is done too; the sender sees no ruling
                with self._cv:
                    self._handled += 1
                    self._cv.notify_all()

        service = TcpService(handle)
        self._services[address] = service
        return "{}:{}".format(*service.address)

    def send(self, address: str, msg: WireMessage, latency: int = 0):
        with self._cv:
            self._target = max(self._target, self._handled) + 1
        conn = self._conns.get(address)
        if conn is None:
            conn = socket.create_connection(self._services[address].address)
            # frames flow one way: never hold one back for an ACK
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._conns[address] = conn
        try:
            send_frame(conn, msg)
        except OSError:  # a partial frame may be out: never reuse the stream
            del self._conns[address]
            conn.close()
            raise

    def run_until_idle(self):
        with self._cv:
            if not self._cv.wait_for(lambda: self._handled >= self._target,
                                     timeout=DELIVERY_TIMEOUT):
                raise TimeoutError("tcp delivery timed out")

    def advance(self, ticks: int) -> str:
        """Sleep 10 ms per tick; returns the step text."""
        time.sleep(ticks * 0.01)
        return f"advance {ticks}"

    def now(self) -> int:
        return next(self._ticks)

    def close(self):
        """Close the connections this network opened, then the services."""
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        for service in self._services.values():
            service.close()
