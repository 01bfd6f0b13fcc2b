"""Checks of the benchmark itself, at a reduced size.

Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

run._load_program()

import tracing  # noqa: E402
import workloads  # noqa: E402
from mds.conformance import build_hierarchy  # noqa: E402

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
SMALL = 120  # send steps per script

# Counts a later change may cite; they must not depend on timing.
EXACT = ("fabric.frames", "fabric.connections_opened",
         "controller.evaluate_calls", "controller.compiles",
         "runner.audit_lines", "runner.audit_bytes", "law_lang.parse_calls",
         "conformance.build_calls", "controller.scan_position_mean")


def _traced(name: str, seed: int):
    work, text = run.prepare(name, seed, SMALL)
    checks = run.Checks()
    metrics, attempted, failed, info, _ = run.traced(work, text, seed, 0.5,
                                                     checks)
    assert checks.problems == [] and failed == 0
    assert attempted == 2 * info["repetitions_each_side"] * SMALL
    return work, metrics


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_seed_fixes_the_generated_text(name):
    a = workloads.build(name, 5, run.LAWS, SMALL)
    b = workloads.build(name, 5, run.LAWS, SMALL)
    c = workloads.build(name, 6, run.LAWS, SMALL)
    assert a.scenario_text("laws") == b.scenario_text("laws")
    assert a.law_texts == b.law_texts
    assert a.digests() == b.digests()
    assert a.digests()["scenario"] != c.digests()["scenario"]
    if name == "deep-law":
        assert a.digests()["laws"] != c.digests()["laws"]


def test_deep_law_tree_is_conformant_and_deep():
    work = workloads.build("deep-law", 3, run.LAWS, SMALL)
    laws = workloads.parse_law_texts(work.law_texts)
    h, violations = build_hierarchy(laws.values())
    assert violations == []
    assert len(h.laws) == 64
    leaves = {m for _, mods in work.components for m in mods}
    assert {len(h.path(leaf)) for leaf in leaves} == {7}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_counts_repeat_exactly(name):
    _, first = _traced(name, 2)
    _, second = _traced(name, 2)
    for key in EXACT:
        assert first[key] == second[key], key
    assert set(first) >= {m["name"] for m in SPEC["per_layer"]}


def test_shapes_differ_where_the_workloads_say_they_do():
    sim_work, sim = _traced("sim-mix", 4)
    _, deep = _traced("deep-law", 4)
    tcp_work, tcp = _traced("tcp-mix", 4)
    assert sim["controller.scan_position_mean"][0] <= 10
    assert deep["controller.scan_position_mean"][0] >= 50
    # One connection per message handed to the transport.
    assert (tcp["fabric.connections_opened"][0]
            == tcp_work.shape()["transmitted"])
    assert tcp["fabric.frames"][0] == tcp_work.shape()["transmitted"]
    assert sim["fabric.frames"][0] == 0
    flows = sim_work.shape()["flow_mix"]
    assert set(flows) == {"export", "import", "inner", "outflow/inflow"}
    assert set(sim_work.shape()["sender_verdicts"]) == {"forward",
                                                        "block-notice"}
    assert set(sim_work.shape()["receiver_verdicts"]) == {"deliver",
                                                          "block-silent"}


def test_tcp_outcomes_equal_sim_outcomes():
    work, text = run.prepare("tcp-mix", 8, SMALL)
    checks = run.Checks()
    sim = run.run_once(text, "sim", 8, checks)
    tcp = run.run_once(text, "tcp", 8, checks)
    assert sim.failed == 0 and tcp.failed == 0
    assert checks.problems == []
    # The check compares each repetition's step reports with the first.
    shorter = "".join(text.splitlines(keepends=True)[:-2])
    run.run_once(shorter, "sim", 8, checks)
    assert checks.problems == ["step outcomes differ between repetitions"]


def test_missed_seam_fails_loudly(monkeypatch):
    kept = tuple(b for b in tracing.BINDINGS if b[2] != "evaluate")
    monkeypatch.setattr(tracing, "BINDINGS", kept)
    work, text = run.prepare("sim-mix", 1, SMALL)
    with pytest.raises(run.SeamError, match="controller.evaluate"):
        run.traced(work, text, 1, 0.1, run.Checks())


def test_a_wrong_expectation_counts_as_failed():
    work, text = run.prepare("sim-mix", 1, SMALL)
    wrong = text.replace("expect delivered", "expect blocked-at-sender", 1)
    checks = run.Checks()
    rep = run.run_once(wrong, "sim", 1, checks)
    assert rep.failed == 1
    assert "1 step(s) missed the oracle" in checks.problems[0]


def _result(*args) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300)
    assert proc.returncode == 0
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name, trace, kind", [
    ("sim-mix", 0, "end_to_end"), ("sim-mix", 1, "per_layer"),
    ("tcp-mix", 1, "per_layer")])
def test_result_line_matches_the_spec(name, trace, kind):
    result = _result("--workload", name, "--seed", "3",
                     "--seconds", "1", "--trace", str(trace),
                     "--steps", str(SMALL))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= SMALL
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


def test_benchmark_json_follows_its_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [m["name"] for k in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[k]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25 and unit.match(m["unit"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"} and unit.match(m["unit"])
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program():
    # A directory holding only BENCHMARK.json and the benchmark's files.
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bench = bare / "perfbench"
    bench.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sim-mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
    shutil.rmtree(bare)
