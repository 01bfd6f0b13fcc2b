#!/usr/bin/env python3
"""End-to-end scenario benchmark for mds, with a traced per-layer breakdown.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sim-mix --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each run generates its workload from the seed (``workloads.py``), replays
the script through the interpretive oracle to write an expectation under
every send, and then drives it through the path ``mds run`` takes:
``parse_scenario`` -> ``ScenarioRunner`` -> ``run()``.  One process and
one closed-loop client keep one message in flight.

``--trace 0`` measures for ``--seconds``: it builds a fresh runner from the
same scenario text again and again and runs it, and reports set-up time,
throughput, per-step latency and peak memory.  A step's latency is timed
from outside the runner: the runner is handed a step sequence whose
iterator stamps the clock each time the runner takes the next step.

``--trace 1`` alternates untraced and traced repetitions for ``--seconds``,
wraps the public entry points of every layer (``tracing.py``) and reports
per-layer self times and counts.  Its counts are per repetition and repeat
exactly for one seed.  End-to-end figures never come from traced
repetitions.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A fuller record,
and for traced runs the spans, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
LAWS = ROOT / "laws"
OUT = HERE / "out"

WORKLOAD_NAMES = ("sim-mix", "tcp-mix", "deep-law")

def _load_program():
    """Import mds from this checkout's src/, or stop with a non-zero code."""
    if not (SRC / "mds" / "__init__.py").is_file() or not LAWS.is_dir():
        raise SystemExit(f"perfbench: no mds sources or laws/ under {ROOT}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import mds
    if Path(mds.__file__).resolve().parent != SRC / "mds":
        raise SystemExit(f"perfbench: imported mds from {mds.__file__}, "
                         f"not from {SRC}")


# ---------------------------------------------------------------------------
# One repetition
# ---------------------------------------------------------------------------


class Stamper:
    """The runner's step sequence; stamps the clock as each step is taken.

    ``wall[i]`` is taken when the runner asks for step i, and a last stamp
    when it asks for the step after the last, so ``wall[i+1] - wall[i]`` is
    step i from start to known outcome.  ``cpu_ns`` is the client thread's
    CPU time over the same span.  With a tracer, it also tells the tracer
    which step is in flight.
    """

    def __init__(self, steps, tracer=None):
        self.steps = steps
        self.tracer = tracer
        self.wall: list[int] = []
        self.cpu_ns = 0

    def __iter__(self):
        clock = time.perf_counter_ns
        wall = self.wall
        tracer = self.tracer
        cpu0 = time.thread_time_ns()
        for step in self.steps:
            if tracer is not None:
                tracer.step = tracer.steps_taken
                tracer.steps_taken += 1
            wall.append(clock())
            yield step
        wall.append(clock())
        self.cpu_ns = time.thread_time_ns() - cpu0


@dataclass
class Rep:
    """What one repetition leaves behind; the runner itself is dropped."""

    setup_s: float
    run_s: float
    latency_ns: array
    wall_ns: int        # from taking the first step to the last outcome
    cpu_ns: int         # client thread CPU in that time
    sends: int
    failed: int
    audit_lines: int
    audit_bytes: int


class Checks:
    """Collects correctness problems; any problem makes the run incorrect.

    Every repetition must meet the oracle's expectation on every step and
    report the same step outcomes as the first repetition checked.
    """

    def __init__(self):
        self.problems: list[str] = []
        self.reference: list[str] | None = None

    def steps(self, texts: list[str], failed: int, error: str):
        if error:
            self.problems.append(error)
        if failed:
            bad = [t for t in texts if "[FAIL" in t][:3]
            self.problems.append(f"{failed} step(s) missed the oracle: "
                                 + "; ".join(bad))
        if self.reference is None:
            self.reference = texts
        elif texts != self.reference:
            self.problems.append("step outcomes differ between repetitions")


def run_once(text: str, mode: str, seed: int, checks: Checks,
             tracer=None) -> Rep:
    """Scenario text -> fresh runner -> run(); the path of ``mds run``."""
    import mds.runner
    import mds.scenario
    from tracing import SETUP

    if tracer is not None:
        tracer.step = SETUP
    t0 = time.perf_counter()
    scn = mds.scenario.parse_scenario(text, origin="perfbench")
    runner = mds.runner.ScenarioRunner(scn, base_dir=ROOT, mode=mode,
                                       seed=seed)
    t1 = time.perf_counter()
    sends = len(scn.steps)
    stamper = Stamper(scn.steps, tracer)
    scn.steps = stamper
    error = ""
    try:
        report = runner.run()
        steps, audit = report.steps, report.audit_lines
    except (mds.runner.RunnerError, OSError) as exc:
        error = f"{type(exc).__name__}: {exc}"
        steps, audit = runner.reports, list(runner.audit)
    t2 = time.perf_counter()
    if tracer is not None:
        tracer.step = SETUP
    failed = sends - sum(1 for s in steps if s.ok and s.line > 0)
    checks.steps([s.text for s in steps], failed, error)
    wall = stamper.wall
    return Rep(setup_s=t1 - t0, run_s=t2 - t1,
               latency_ns=array("q", (b - a for a, b in zip(wall, wall[1:]))),
               wall_ns=wall[-1] - wall[0], cpu_ns=stamper.cpu_ns,
               sends=sends, failed=failed,
               audit_lines=len(audit),
               audit_bytes=sum(len(a) + 1 for a in audit))


def prepare(workload: str, seed: int, steps: int | None):
    """Generate the workload; returns (work, scenario text)."""
    import workloads

    work = workloads.build(workload, seed, LAWS, steps)
    if work.law_texts:
        law_dir = OUT / f"laws-{workload}-{seed}"
        law_dir.mkdir(parents=True, exist_ok=True)
        for old in law_dir.glob("*.law"):
            if old.name not in work.law_texts:
                old.unlink()
        for name, body in work.law_texts.items():
            (law_dir / name).write_text(body, encoding="utf-8")
        rel = law_dir.relative_to(ROOT).as_posix()
    else:
        rel = LAWS.relative_to(ROOT).as_posix()
    return work, work.scenario_text(rel)


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def beyond(count: int, q: float) -> int:
    """Samples above the nearest-rank q-percentile of ``count`` samples."""
    return count - math.ceil(q * count)


# String hashing is salted per process, and the salt alone moved sim-mix
# step latency by up to half between processes.  Each --trace 0 run
# therefore measures in one child process per salt below, for an equal
# share of the time, and pools the samples; every run sees the same salts.
HASH_SEEDS = ("0", "1", "2", "3")

# The CPU speed of the 2-CPU host this benchmark was defined on swings
# between two levels about 1.7x apart, several times a second and on each
# CPU on its own; over a 10 s window the slow share ranged from 0.4 to 1.0.
# A fixed piece of interpreter work, timed before every repetition, tracks
# that swing, and set-up time, throughput and the latencies are reported at
# the speed at which it takes REFERENCE_NS (its fast-level time there); the
# raw figures are printed beside them.
#
# The p95 and p99 latencies are printed but carry no bound.  Over ten seeds
# their quartile spread reached 0.31 (p99) on sim-mix, 0.21 (p95) on
# deep-law and 0.35 (p95) and 1.47 (p99) on tcp-mix, where 1-5 ms stalls
# hit between 0.4% and 5% of the steps as the host's load changed.
REFERENCE_NS = 6_500_000


def reference_ns() -> int:
    """Time a fixed mix of calls, int-keyed dict and str operations.

    No str or enum is hashed, so the per-process hash salt cannot change
    the reference's own speed.
    """
    t0 = time.perf_counter_ns()
    for _ in range(4):
        counts: dict[int, int] = {}
        acc = 0
        for i in range(1500):
            key = f"k{i % 97}|{i % 13}"
            slot = i % 97
            counts[slot] = counts.get(slot, 0) + 1
            head, tail = key.split("|")
            acc += len(head) + (tail in ("1", "2"))
            acc += sum(x for x in (i, i >> 1, i >> 2) if x & 1)
    return time.perf_counter_ns() - t0


def peak_rss_kib() -> int:
    """High-water resident size of this process image.

    ``getrusage`` would not do: a child started by vfork and exec inherits
    the parent's high-water mark.  VmHWM belongs to the exec'd image.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def measure_part(work, text: str, seed: int, seconds: float,
                 checks: Checks) -> dict:
    """Repeat set-up and run until ``seconds`` have passed; raw samples."""
    run_once(text, work.mode, seed, checks)  # warm-up, not recorded
    # Peak memory of one set-up and run, as ``mds run`` would do it.  Later
    # repetitions would add the accept threads that TcpService.close()
    # leaves blocked, by a count that depends on the host's speed.
    peak_rss_mb = peak_rss_kib() / 1024
    reps: list[Rep] = []
    slowdown: list[float] = []
    deadline = time.perf_counter() + seconds
    while True:
        slowdown.append(reference_ns() / REFERENCE_NS)
        rep = run_once(text, work.mode, seed, checks)
        reps.append(rep)
        if checks.problems or time.perf_counter() >= deadline:
            break
    return {"setup_s": [r.setup_s for r in reps],
            "run_s": [r.run_s for r in reps],
            "sends": [r.sends for r in reps],
            "failed": sum(r.failed for r in reps),
            "slowdown": slowdown,
            "latency_ns": [r.latency_ns.tolist() for r in reps],
            "peak_rss_mb": peak_rss_mb,
            "problems": checks.problems}


class Sample(NamedTuple):
    """One measured repetition, as a child reports it."""

    setup_s: float
    run_s: float
    sends: int
    slowdown: float           # reference time before it / REFERENCE_NS
    latency_ns: list[int]


def measure(args, checks: Checks):
    """Run one child per hash seed and pool what they measured."""
    reps: list[Sample] = []
    rss = []
    failed = 0
    for salt in HASH_SEEDS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds / len(HASH_SEEDS)), "--part"]
        if args.steps is not None:
            cmd += ["--steps", str(args.steps)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=dict(os.environ, PYTHONHASHSEED=salt),
                              timeout=170)
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: measuring child failed "
                             f"(exit {proc.returncode})")
        part = json.loads(proc.stdout.strip().splitlines()[-1])
        checks.problems.extend(part["problems"])
        failed += part["failed"]
        rss.append(part["peak_rss_mb"])
        reps += map(Sample, part["setup_s"], part["run_s"], part["sends"],
                    part["slowdown"], part["latency_ns"])
    sends = sum(r.sends for r in reps)
    raw = sorted(x for r in reps for x in r.latency_ns)
    adjusted = sorted(x / r.slowdown for r in reps for x in r.latency_ns)
    # p99 per repetition, then the median over repetitions, so that the few
    # repetitions hit by a burst of stalls cannot move it on their own.
    p99s = [percentile(sorted(r.latency_ns), 0.99) for r in reps]
    steps = min(len(r.latency_ns) for r in reps)
    beyond_p99 = beyond(steps, 0.99)
    metrics = {
        "setup_s": (statistics.median(r.setup_s / r.slowdown for r in reps),
                    "s"),
        "throughput_msgs_per_s": (
            sends / sum(r.run_s / r.slowdown for r in reps), "msgs/s"),
        "latency_p50_us": (statistics.median(adjusted) / 1e3, "us"),
        "peak_rss_mb": (max(rss), "MB"),
    }
    info = {"hash_seeds": ",".join(HASH_SEEDS),
            "repetitions": len(reps), "setup_samples": len(reps),
            "latency_samples": len(raw),
            "latency_p95_us": percentile(adjusted, 0.95) / 1e3,
            "latency_p95_samples_beyond": beyond(len(raw), 0.95),
            # Needs at least ten samples beyond it in every repetition.
            "latency_p99_us": (statistics.median(p99s) / 1e3
                               if beyond_p99 >= 10 else None),
            "p99_samples_per_repetition": steps,
            "p99_samples_beyond": beyond_p99,
            "slowdown_median": round(
                statistics.median(r.slowdown for r in reps), 3),
            "raw_setup_s": statistics.median(r.setup_s for r in reps),
            "raw_throughput_msgs_per_s": sends / sum(r.run_s for r in reps),
            "raw_latency_p50_us": statistics.median(raw) / 1e3,
            "raw_latency_p95_us": percentile(raw, 0.95) / 1e3}
    return metrics, sends, failed, info


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

# Entry points each workload must reach; a traced run in which one of them
# was never called fails, so a moved call site cannot report zero silently.
COMMON_SEAMS = (
    "scenario.parse_scenario", "law_lang.parse_law", "law_lang.print_law",
    "runner.build_hierarchy", "runner.adopt", "runner.handle_send",
    "runner.handle_arrive", "controller.program_for", "controller.evaluate",
)
SEAMS = {
    "sim": COMMON_SEAMS + ("SimNetwork.send", "SimNetwork.run_until_idle"),
    "tcp": COMMON_SEAMS + ("fabric.encode_frame", "fabric.decode_body",
                           "fabric.call_remote"),
}


# Per-call times of entry points only one transport calls.  They are
# printed and recorded, but left out of the result line, where every
# workload reports the same metrics; fabric.self_us covers both transports.
ONE_TRANSPORT = ("fabric.encode_us", "fabric.decode_us",
                 "fabric.call_remote_us", "fabric.sim_drain_self_us")


class SeamError(RuntimeError):
    pass


# Spans are held in memory until the run ends; a traced run stops early
# once it holds this many (about ten sim-mix repetitions).
MAX_SPANS = 200_000


def traced(work, text: str, seed: int, seconds: float, checks: Checks):
    """Alternate untraced and traced repetitions; summarise the spans.

    Counts are per repetition, so they do not depend on how many
    repetitions fit in ``seconds`` or under ``MAX_SPANS``.
    """
    from tracing import LAYERS, Tracer, scan_position, self_times

    tracer = Tracer()
    plain: list[Rep] = []
    reps: list[Rep] = []
    run_once(text, work.mode, seed, checks)  # warm-up, not recorded
    tracer.calibrate()
    deadline = time.perf_counter() + seconds
    while not reps or (time.perf_counter() < deadline
                       and len(tracer.raw) < MAX_SPANS):
        plain.append(run_once(text, work.mode, seed, checks))
        tracer.threads_before = threading.active_count()
        with tracer:
            reps.append(run_once(text, work.mode, seed, checks, tracer))
        if checks.problems:
            break

    spans = tracer.spans()
    calls: dict[str, int] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    missing = [n for n in SEAMS[work.mode] if not calls.get(n)]
    if missing:
        raise SeamError("traced run never reached " + ", ".join(missing))

    own = self_times(spans, tracer.nested_cost)
    layers = layer_table(spans, own, reps, tracer)
    n = len(reps)
    steps = sum(r.sends for r in reps)
    setup = [s for s in spans if s.step < 0]
    run = [s for s in spans if s.step >= 0]

    def total(group, name, only=None):
        return sum(own[s.id] for s in group
                   if s.name == name and (only is None or s.id in only))

    def count(group, name):
        return sum(1 for s in group if s.name == name)

    def per_call(group, name):
        c = count(group, name)
        return total(group, name) / c / 1e3 if c else None

    compiles = set(tracer.compiles)
    step_of = {s.id: s.step for s in spans}
    positions = [scan_position(program, matched)
                 for sid, program, matched in tracer.scans
                 if step_of[sid] >= 0]
    run_encodes = {s.id for s in run if s.name == "fabric.encode_frame"}
    frame_bytes = [b for sid, b in tracer.frame_bytes if sid in run_encodes]
    fabric_self = sum(own[s.id] for s in run if LAYERS[s.name] == "fabric")
    ms = 1e6
    m = {
        "scenario.parse_ms": (total(setup, "scenario.parse_scenario") / n / ms, "ms"),
        "law_lang.parse_ms": (total(setup, "law_lang.parse_law") / n / ms, "ms"),
        "law_lang.parse_calls": (count(setup, "law_lang.parse_law") / n, "count"),
        "law_lang.print_ms": (total(setup, "law_lang.print_law") / n / ms, "ms"),
        "conformance.build_ms": (total(setup, "runner.build_hierarchy") / n / ms, "ms"),
        "conformance.build_calls": (count(setup, "runner.build_hierarchy") / n, "count"),
        "controller.adopt_ms": (total(setup, "runner.adopt") / n / ms, "ms"),
        "controller.compile_ms": (total(spans, "controller.program_for", compiles) / n / ms, "ms"),
        "controller.compiles": (len(compiles) / n, "count"),
        "controller.evaluate_us": (per_call(run, "controller.evaluate"), "us"),
        "controller.evaluate_calls": (count(run, "controller.evaluate") / n, "count"),
        "controller.send_self_us": (per_call(run, "runner.handle_send"), "us"),
        "controller.arrive_self_us": (per_call(run, "runner.handle_arrive"), "us"),
        "controller.scan_position_mean": (statistics.fmean(positions), "entries"),
        "fabric.self_us": (fabric_self / steps / 1e3, "us"),
        "fabric.encode_us": (per_call(run, "fabric.encode_frame"), "us"),
        "fabric.decode_us": (per_call(run, "fabric.decode_body"), "us"),
        "fabric.frames": (count(run, "fabric.encode_frame") / n, "count"),
        "fabric.frame_bytes_mean": (
            statistics.fmean(frame_bytes) if frame_bytes else 0.0, "B"),
        "fabric.call_remote_us": (per_call(run, "fabric.call_remote"), "us"),
        "fabric.connections_opened": (count(run, "fabric.call_remote") / n, "count"),
        "fabric.delivery_wait_us": (layers["run_us_per_step"]["client wait"], "us"),
        "fabric.sim_drain_self_us": (per_call(run, "SimNetwork.run_until_idle"), "us"),
        "fabric.threads_peak": (tracer.threads_peak, "count"),
        "runner.self_us": (layers["run_us_per_step"]["runner"], "us"),
        "runner.audit_lines": (reps[0].audit_lines, "count"),
        "runner.audit_bytes": (reps[0].audit_bytes, "B"),
        "trace.overhead_ratio": (sum(r.run_s for r in reps)
                                 / sum(r.run_s for r in plain), "ratio"),
    }
    info = {"repetitions_each_side": n, "traced_steps": steps,
            "spans": len(spans), "calls": dict(sorted(calls.items())),
            "wrapper_cost_ns": {"nested": tracer.nested_cost,
                                "top_level_cpu": tracer.top_cost},
            "layers": layers}
    attempted = sum(r.sends for r in plain + reps)
    failed = sum(r.failed for r in plain + reps)
    return m, attempted, failed, info, spans


def layer_table(spans, own, reps, tracer) -> dict:
    """Self time per layer as the client thread sees it.

    Per phase, the client's wall time splits into the self time of spans on
    the client thread, ``runner`` (client CPU outside any span), ``client
    wait`` (off CPU outside any span) and ``tracer`` (the calibrated cost
    of the wrappers).  Spans on service threads run while the client waits
    and are listed apart.  Set-up has no CPU stamps, so there ``runner`` is
    the whole remainder.
    """
    from tracing import LAYERS

    main = threading.get_ident()
    wall = sum(r.wall_ns for r in reps)
    cpu = sum(r.cpu_ns for r in reps)
    phases = {"setup": (sum(r.setup_s for r in reps) * 1e9, None, len(reps)),
              "run": (wall, cpu, sum(r.sends for r in reps))}
    out = {}
    for phase, (wall_ns, cpu_ns, per) in phases.items():
        group = [s for s in spans if (s.step < 0) == (phase == "setup")]
        top = [s for s in group if s.parent is None and s.thread == main]
        nested = sum(1 for s in group
                     if s.parent is not None and s.thread == main)
        times: dict[str, float] = {}
        for s in group:
            layer = LAYERS[s.name]
            if s.thread != main:
                layer += " (service threads)"
            times[layer] = times.get(layer, 0) + own[s.id]
        overhead = len(top) * tracer.top_cost + nested * tracer.nested_cost
        top_wall = sum(s.duration for s in top)
        if cpu_ns is None:
            times["runner"] = wall_ns - top_wall - overhead
        else:
            top_cpu = sum(s.cpu for s in top)
            times["runner"] = cpu_ns - top_cpu - len(top) * tracer.top_cost
            times["client wait"] = (wall_ns - top_wall) - (cpu_ns - top_cpu)
        times["tracer"] = overhead
        unit = 1e6 if phase == "setup" else 1e3
        key = "setup_ms_per_setup" if phase == "setup" else "run_us_per_step"
        out[key] = {k: round(v / per / unit, 4) for k, v in times.items()}
        out[f"{phase}_share"] = {k: round(v / wall_ns, 4)
                                 for k, v in times.items()}
    return out


# ---------------------------------------------------------------------------
# Reporting
# ---------------------------------------------------------------------------


def host_record() -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = "unknown (not a git checkout)"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "commit": commit,
            "tcp": "loopback 127.0.0.1, not a real link"}


def show(title: str, values: dict):
    print(title)
    for key, value in values.items():
        print(f"  {key:32s} {value}")


def run_part(args) -> int:
    """One measuring child: its last line holds the raw samples."""
    _load_program()
    checks = Checks()
    work, text = prepare(args.workload, args.seed, args.steps)
    print(json.dumps(measure_part(work, text, args.seed, args.seconds,
                                  checks)))
    return 0


def run_workload(args) -> int:
    _load_program()
    checks = Checks()
    t0 = time.perf_counter()
    work, text = prepare(args.workload, args.seed, args.steps)
    if work.mode == "tcp":
        # The same script over the simulator must reach the same outcomes.
        run_once(text, "sim", args.seed, checks)
    print(f"workload {work.name} seed {work.seed} mode {work.mode}"
          + (" (tcp over loopback 127.0.0.1, not a real link)"
             if work.mode == "tcp" else ""))
    print(f"  prepared in {time.perf_counter() - t0:.2f} s; "
          f"closed loop, 1 client, 1 message in flight")
    show("digests (sha256, first 16 hex)", work.digests())
    shape = work.shape()
    show("shape (from the oracle replay)", shape)

    record = {"workload": work.name, "seed": work.seed, "mode": work.mode,
              "trace": args.trace, "host": host_record(),
              "digests": work.digests(), "shape": shape}
    spans = None
    try:
        if args.trace:
            metrics, attempted, failed, info, spans = traced(
                work, text, args.seed, args.seconds, checks)
        else:
            metrics, attempted, failed, info = measure(args, checks)
    except SeamError as exc:
        print(f"SEAM CHECK FAILED: {exc}", file=sys.stderr)
        return 3
    record["info"] = info
    if args.trace:
        layers = info.pop("layers")
        show("layer self time, ms per set-up",
             layers["setup_ms_per_setup"])
        show("share of set-up wall", layers["setup_share"])
        show("layer self time, us per step", layers["run_us_per_step"])
        show("share of run wall (service threads overlap the client wait)",
             layers["run_share"])
        record["layers"] = layers
        sent = shape["transmitted"]
        conns = metrics["fabric.connections_opened"][0]
        print(f"connections opened per transmitted message: "
              f"{conns / sent:.3f} ({conns:.0f} / {sent})")
    show("run", info)
    print("metrics")
    for name, (value, unit) in metrics.items():
        shown = "n/a (layer not called)" if value is None else f"{value:.6g}"
        print(f"  {name:32s} {shown} {unit}")
    print(f"  {'failed_ratio':32s} {failed / attempted:.6g} "
          f"({failed} of {attempted} send steps)")
    for problem in checks.problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)

    correct = not checks.problems and failed == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()
                          if k not in ONE_TRANSPORT}}
    record["result"] = result
    record["problems"] = checks.problems
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{work.name}-seed{work.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if spans is not None:
        with gzip.open(stem.with_suffix(".spans.jsonl.gz"), "wt") as fh:
            for s in spans:
                fh.write(json.dumps([s.id, s.name, s.start, s.end, s.parent,
                                     s.step, s.thread]) + "\n")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.steps is not None:
            cmd += ["--steps", str(args.steps)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]) + "\n")
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=None,
                        help="send steps per script (default: per workload)")
    parser.add_argument("--part", action="store_true",
                        help=argparse.SUPPRESS)  # a measuring child
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    if args.part:
        return run_part(args)
    if args.trace and os.environ.get("PYTHONHASHSEED") != HASH_SEEDS[0]:
        # Traced runs keep to one salt; see HASH_SEEDS.
        sys.stdout.flush()
        os.execve(sys.executable,
                  [sys.executable, str(Path(__file__).resolve()), *argv],
                  dict(os.environ, PYTHONHASHSEED=HASH_SEEDS[0]))
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
