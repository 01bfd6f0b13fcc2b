"""Span recording around the public entry points of each mds layer.

The tracer replaces module attributes at the bindings the program really
calls through (``mds.runner.handle_send`` rather than
``mds.controller.handle_send``, because the runner imported the name), so
no program file changes.  Every span records (id, name, start, end,
parent, step, thread, cpu).  The parent is the enclosing span on the same
thread; a span opened on a thread with no enclosing span (a TCP service
thread, say) belongs to the step in flight, of which there is only ever
one.  Top-level spans also record the CPU time their thread spent inside
them, so that a client thread's busy time can be told from its waiting.
Spans stay in memory until the run ends.

A wrapper costs time outside the interval it records: that cost lands in
the parent's self time.  ``calibrate`` measures it on a no-op, and
``self_times`` takes it off again once per child.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass

import mds.controller
import mds.fabric
import mds.law_lang
import mds.runner
import mds.scenario

SETUP = -1  # step id of spans opened while a runner is being built

# (layer, owner, attribute).  Owners are the objects whose attribute the
# calling code looks up at call time.
BINDINGS = (
    ("scenario", mds.scenario, "parse_scenario"),
    ("law_lang", mds.law_lang, "parse_law"),
    ("law_lang", mds.law_lang, "print_law"),
    ("conformance", mds.runner, "build_hierarchy"),
    ("controller", mds.runner, "adopt"),
    ("controller", mds.runner, "handle_send"),
    ("controller", mds.runner, "handle_arrive"),
    ("controller", mds.controller, "program_for"),
    ("controller", mds.controller, "evaluate"),
    ("fabric", mds.fabric, "encode_frame"),
    ("fabric", mds.fabric, "decode_body"),
    ("fabric", mds.fabric, "call_remote"),
    ("fabric", mds.fabric.SimNetwork, "send"),
    ("fabric", mds.fabric.SimNetwork, "run_until_idle"),
)


def _key(owner, attr: str) -> str:
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"


LAYERS = {_key(owner, attr): layer for layer, owner, attr in BINDINGS}


@dataclass
class Span:
    id: int
    name: str
    start: int
    end: int
    parent: int | None
    step: int
    thread: int
    cpu: int        # thread CPU ns inside the span; top-level spans only

    @property
    def duration(self) -> int:
        return self.end - self.start


class Tracer:
    """Records spans while installed; restores every binding on uninstall."""

    def __init__(self):
        self.raw: list[tuple] = []
        self.step = SETUP
        self.steps_taken = 0
        self.compiles: list[int] = []       # span ids of program_for misses
        self.frame_bytes: list[tuple] = []  # (span id, encoded frame size)
        self.scans: list[tuple] = []        # (span id, program, matched)
        # Most threads alive at once in a traced repetition: the client plus
        # those started since ``threads_before`` was taken.
        self.threads_before = threading.active_count()
        self.threads_peak = 1
        self.nested_cost = 0                # ns per span, see calibrate()
        self.top_cost = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- installation -------------------------------------------------------

    def install(self):
        for _, owner, attr in BINDINGS:
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(_key(owner, attr), fn))

    def uninstall(self):
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- per-entry-point notes ----------------------------------------------

    def _pre_program_for(self, args):
        # program_for compiles only when the hierarchy's cache lacks it.
        return ("program", args[1]) not in args[0].cache

    def _post_program_for(self, sid, args, result, missed):
        if missed:
            self.compiles.append(sid)

    def _post_evaluate(self, sid, args, result, _):
        self.scans.append((sid, args[0], result[1]))

    def _post_encode_frame(self, sid, args, result, _):
        self.frame_bytes.append((sid, len(result)))

    def _post_handle_arrive(self, sid, args, result, _):
        count = threading.active_count() - self.threads_before + 1
        if count > self.threads_peak:
            self.threads_peak = count

    def _wrap(self, name: str, fn):
        suffix = name.rsplit(".", 1)[-1]
        pre = getattr(self, f"_pre_{suffix}", None)
        post = getattr(self, f"_post_{suffix}", None)
        ids = self._ids
        local = self._local
        raw = self.raw
        clock = time.perf_counter_ns
        cpu_clock = time.thread_time_ns
        get_ident = threading.get_ident
        tracer = self

        def wrapped(*args, **kwargs):
            note = pre(args) if pre is not None else None
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
                stack.append(sid)
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    stack.pop()
                    raw.append((sid, name, t0, t1, parent, tracer.step,
                                get_ident(), 0))
            else:
                parent = None
                stack.append(sid)
                c0 = cpu_clock()
                t0 = clock()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = clock()
                    c1 = cpu_clock()
                    stack.pop()
                    raw.append((sid, name, t0, t1, None, tracer.step,
                                get_ident(), c1 - c0))
            if post is not None:
                post(sid, args, result, note)
            return result
        return wrapped

    def calibrate(self, calls: int = 20000, rounds: int = 5):
        """Measure the wrapper's cost outside the interval it records.

        ``nested_cost`` is what a nested span adds to its parent's self
        time; ``top_cost`` is the CPU a top-level span's wrapper spends
        outside the CPU interval it records, which lands in the client's
        own time.  Both are minima over ``rounds`` batches of no-op calls.
        """
        def noop():
            return None

        saved = self.raw, self.step
        self.raw = []
        wrapped = self._wrap("calibration.noop", noop)

        def batch(nested: bool) -> int:
            self.raw.clear()
            stack = self._local.__dict__.setdefault("stack", [])
            clock = time.perf_counter_ns if nested else time.thread_time_ns
            t0 = clock()
            for _ in range(calls):
                noop()
            bare = clock() - t0
            if nested:
                stack.append(0)
            t0 = clock()
            for _ in range(calls):
                wrapped()
            elapsed = clock() - t0
            if nested:
                stack.pop()
                inside = sum(r[3] - r[2] for r in self.raw)
            else:
                inside = sum(r[7] for r in self.raw)
            return max(0, (elapsed - inside - bare) // calls)

        try:
            self.nested_cost = min(batch(True) for _ in range(rounds))
            self.top_cost = min(batch(False) for _ in range(rounds))
        finally:
            self.raw, self.step = saved

    # -- results ------------------------------------------------------------

    def spans(self) -> list[Span]:
        return [Span(*r) for r in self.raw]


def self_times(spans: list[Span], nested_cost: int = 0) -> dict[int, int]:
    """Span id -> duration minus its children's, and their wrapper cost."""
    child_total: dict[int, int] = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_total[s.parent] += s.duration + nested_cost
    return {s.id: s.duration - child_total[s.id] for s in spans}


def scan_position(program, matched) -> int:
    """Index of the entry that decided, or the program length on fallback."""
    if not isinstance(matched, tuple):
        return len(program.entries)
    law, rule = matched
    for i, entry in enumerate(program.entries):
        if entry.rule_id != rule:
            continue
        if entry.law_name == law or any(ov.source == law
                                        for ov in entry.overrides):
            return i
    raise ValueError(f"no entry decided as {law}:{rule}")
