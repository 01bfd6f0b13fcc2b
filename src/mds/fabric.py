"""Message fabric: wire frames, two transports, and services.

Every frame on the wire is a 4-byte big-endian length prefix followed by a
self-describing JSON body whose keys appear in a fixed, documented order
(payload bytes travel base64-encoded).  The frames back the TCP transport
and services; the in-process simulator carries the decoded message objects
themselves, so it never runs the codec.

Frame kinds and field order:

    enveloped        kind, sender_module, sender_profile, sender_lineage,
                     operation, payload, sender, target
    bare             kind, sender_address, target, operation, payload
    registration     kind, component, module, address
    law_fetch        kind, name
    law_response     kind, name, found, text, lineage, algo
    registry_query   kind, field, value
    registry_records kind, records (each: component, address, module,
                     registered_at)

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
from heapq import heappop, heappush
from typing import Callable, Optional, Union

from . import law_lang
from .controller import BareInbound, Envelope
from .model import LawHierarchy, UnknownLawError

log = logging.getLogger("mds.fabric")

MAX_FRAME = 16 * 1024 * 1024
DELIVERY_TIMEOUT = 10.0  # seconds TcpNetwork.run_until_idle waits


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


def _b64(payload: bytes) -> str:
    return base64.b64encode(payload).decode("ascii")


def _unb64(text: str) -> bytes:
    return base64.b64decode(text, validate=True)


def _text(data: dict, key: str) -> str:
    value = data[key]
    if not isinstance(value, str):
        raise FrameError(f"field {key!r} is not a string")
    return value


def _texts(data: dict, key: str) -> tuple[str, ...]:
    value = data[key]
    if not (isinstance(value, list)
            and all(isinstance(item, str) for item in value)):
        raise FrameError(f"field {key!r} is not a list of strings")
    return tuple(value)


def _body_of(msg: WireMessage) -> dict:
    if isinstance(msg, Envelope):
        return {
            "kind": "enveloped",
            "sender_module": msg.sender_module,
            "sender_profile": list(msg.sender_profile),
            "sender_lineage": list(msg.sender_lineage),
            "operation": msg.operation,
            "payload": _b64(msg.payload),
            "sender": msg.sender,
            "target": msg.target,
        }
    if isinstance(msg, BareInbound):
        return {
            "kind": "bare",
            "sender_address": msg.sender_address,
            "target": msg.target,
            "operation": msg.operation,
            "payload": _b64(msg.payload),
        }
    if isinstance(msg, Registration):
        return {"kind": "registration", "component": msg.component,
                "module": msg.module, "address": msg.address}
    if isinstance(msg, LawFetch):
        return {"kind": "law_fetch", "name": msg.name}
    if isinstance(msg, LawResponse):
        return {"kind": "law_response", "name": msg.name, "found": msg.found,
                "text": msg.text, "lineage": list(msg.lineage),
                "algo": msg.algo}
    if isinstance(msg, RegistryQuery):
        return {"kind": "registry_query", "field": msg.field,
                "value": msg.value}
    if isinstance(msg, RegistryRecords):
        return {"kind": "registry_records", "records": [
            {"component": r.component, "address": r.address,
             "module": r.module, "registered_at": r.registered_at}
            for r in msg.records]}
    raise TypeError(f"not a wire message: {msg!r}")  # pragma: no cover


def encode_frame(msg: WireMessage) -> bytes:
    body = json.dumps(_body_of(msg), separators=(",", ":")).encode("utf-8")
    if len(body) > MAX_FRAME:
        raise FrameError("frame body too large")
    return len(body).to_bytes(4, "big") + body


def decode_body(body: bytes) -> WireMessage:
    try:
        data = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame body: {exc}") from None
    if not isinstance(data, dict):
        raise FrameError("frame body is not a record")
    kind = data.get("kind")
    try:
        if kind == "enveloped":
            return Envelope(
                sender_module=_text(data, "sender_module"),
                sender_profile=_texts(data, "sender_profile"),
                sender_lineage=_texts(data, "sender_lineage"),
                operation=_text(data, "operation"),
                payload=_unb64(data["payload"]),
                sender=_text(data, "sender"),
                target=_text(data, "target"))
        if kind == "bare":
            return BareInbound(sender_address=_text(data, "sender_address"),
                               target=_text(data, "target"),
                               operation=_text(data, "operation"),
                               payload=_unb64(data["payload"]))
        if kind == "registration":
            return Registration(component=_text(data, "component"),
                                module=_text(data, "module"),
                                address=_text(data, "address"))
        if kind == "law_fetch":
            return LawFetch(name=_text(data, "name"))
        if kind == "law_response":
            return LawResponse(name=_text(data, "name"),
                               found=bool(data["found"]),
                               text=_text(data, "text"),
                               lineage=_texts(data, "lineage"),
                               algo=_text(data, "algo"))
        if kind == "registry_query":
            return RegistryQuery(field=_text(data, "field"),
                                 value=_text(data, "value"))
        if kind == "registry_records":
            return RegistryRecords(records=tuple(
                RegistryRecord(component=_text(r, "component"),
                               address=_text(r, "address"),
                               module=_text(r, "module"),
                               registered_at=int(r["registered_at"]))
                for r in data["records"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise FrameError(f"malformed {kind!r} frame: {exc}") from None
    raise FrameError(f"unknown frame kind {kind!r}")


def decode_frame(frame: bytes) -> WireMessage:
    if len(frame) < 4:
        raise FrameError("truncated length prefix")
    size = int.from_bytes(frame[:4], "big")
    if len(frame) != 4 + size:
        raise FrameError("frame length mismatch")
    return decode_body(frame[4:])


class FrameReader:
    """Incremental decoder for a byte stream of frames."""

    def __init__(self):
        self._buf = bytearray()

    def feed(self, data: bytes) -> list[WireMessage]:
        self._buf.extend(data)
        out: list[WireMessage] = []
        while True:
            if len(self._buf) < 4:
                return out
            size = int.from_bytes(self._buf[:4], "big")
            if size > MAX_FRAME:
                raise FrameError("frame too large")
            if len(self._buf) < 4 + size:
                return out
            body = bytes(self._buf[4:4 + size])
            del self._buf[:4 + size]
            out.append(decode_body(body))


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

    def run_until_idle(self, max_events: int = 1_000_000):
        count = 0
        while self.step():
            count += 1
            if count > max_events:
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

    def register(self, component: str, module: str, address: str,
                 timestamp: Optional[int] = None) -> RegistryRecord:
        with self._lock:
            if timestamp is None:
                self._stamp += 1
                timestamp = self._stamp
            record = RegistryRecord(component=component, address=address,
                                    module=module, registered_at=timestamp)
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
    header = _read_exact(sock, 4)
    if header is None:
        return None
    size = int.from_bytes(header, "big")
    if size > MAX_FRAME:
        raise FrameError("frame too large")
    body = _read_exact(sock, size)
    if body is None:
        raise FrameError("connection closed mid-frame")
    return decode_body(body)


def _read_exact(sock: socket.socket, n: int) -> Optional[bytes]:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            return None
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
        self._accept_thread = threading.Thread(target=self._accept_loop,
                                               daemon=True)
        self._accept_thread.start()

    def _accept_loop(self):
        while not self._closing:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                return
            threading.Thread(target=self._serve, args=(conn,),
                             daemon=True).start()

    def _serve(self, conn: socket.socket):
        with conn:
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

    def close(self):
        self._closing = True
        try:  # close() alone does not wake a thread blocked in accept()
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
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
        sock.settimeout(timeout)
        return read_frame(sock)


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
        """Close the connections, so each service thread sees EOF and exits,
        then the services."""
        for conn in self._conns.values():
            conn.close()
        self._conns.clear()
        for service in self._services.values():
            service.close()
