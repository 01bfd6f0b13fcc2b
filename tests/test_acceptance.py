"""Full-system guarantees, one test per shipped promise.

Every test funnels through the ``acceptance`` fixture so the terminal
summary ends with one ACCEPTANCE line per guarantee.  Tolerances and time
budgets are stated inline next to each check.
"""

import random
import re
import time
from dataclasses import replace

from mds.bench import run_bench
from mds.conformance import build_hierarchy
from mds.controller import (OUTSIDE, BareInbound, Decision, adopt,
                            handle_arrive, handle_send, issue_certificate,
                            matched_token)
from mds.law_lang import parse_law
from mds.oracle import generate_system, run_differential
from mds.runner import check_law_dir, run_scenario

def _timed_scenario(scenario_dir, name, seed=7):
    started = time.perf_counter()
    report = run_scenario(scenario_dir / f"{name}.mds", mode="sim",
                          seed=seed)
    return report, time.perf_counter() - started


def _scenario_detail(report, elapsed):
    sends = sum(1 for s in report.steps if " op " in s.text)
    return f"{sends} messages, {len(report.failures())} failed, {elapsed:.2f}s"


class TestScenarioGuarantees:
    def test_monitoring_isolation(self, acceptance, scenario_dir):
        # Exact outcomes, wall budget 5s: log in from anywhere inside,
        # retrieve only module-internal, disclose only to the stakeholder
        # module or the approved outside address, all else blocked.
        report, elapsed = _timed_scenario(scenario_dir, "monitoring")
        ok = report.ok and elapsed < 5.0
        acceptance("monitoring-isolation", ok,
                   _scenario_detail(report, elapsed))

    def test_sandbox_allow_list(self, acceptance, scenario_dir):
        # Exact outcomes, wall budget 5s: disallowed outbound dies at the
        # sandboxed sender, disallowed inbound at the receiver, the two
        # allow-listed routes deliver.
        report, elapsed = _timed_scenario(scenario_dir, "sandbox")
        ok = report.ok and elapsed < 5.0
        acceptance("sandbox-allow-list", ok,
                   _scenario_detail(report, elapsed))

    def test_crosscutting_purchase(self, acceptance, scenario_dir):
        # Exact outcomes, wall budget 5s: purchase orders only through the
        # P side, gated on approval plus a confirmed log entry, and the
        # log message to the MS member is visible in the audit trail.
        report, elapsed = _timed_scenario(scenario_dir, "crosscutting")
        log_seen = re.compile(
            r"\| logger@MS \| arrived \| inflow \| deliver \| MS:inflow-block$")
        log_arrivals = [ln for ln in report.audit_lines
                        if log_seen.search(ln)]
        ok = report.ok and elapsed < 5.0 and len(log_arrivals) == 2
        acceptance("crosscutting-purchase", ok,
                   _scenario_detail(report, elapsed)
                   + f", {len(log_arrivals)} log arrivals")


class TestConformanceGate:
    CASES = (
        ("categorical-override", "OverridesCategorical"),
        ("wrong-direction", "WrongDirection"),
        ("unknown-parent", "UnknownParent"),
        ("duplicate-name", "DuplicateName"),
        ("cycle", "CycleDetected"),
        ("multiple-roots", "MultipleRoots"),
    )

    def test_conformance_gate(self, acceptance, law_dir, violation_dir):
        # The shipped set must pass; each crafted set must be rejected
        # with its specific violation kind.  No tolerance.
        h, problems = check_law_dir(law_dir)
        shipped_ok = h is not None and not problems
        bad = []
        for case, kind in self.CASES:
            rejected, issues = check_law_dir(violation_dir / case)
            if rejected is not None or not any(
                    p.startswith(kind + ":") for p in issues):
                bad.append(case)
        ok = shipped_ok and not bad
        detail = "shipped set ok, 6 violation kinds detected" if ok else \
            f"shipped_ok={shipped_ok}, misdetected={bad}"
        acceptance("conformance-gate", ok, detail)


class TestDifferentialAgreement:
    def test_differential_agreement(self, acceptance):
        # 1,000 random systems (up to 4 modules, 8 components, 60
        # messages): the compiled path and the interpretive evaluator must
        # agree on every ruling and every state. 100% in under 60s.
        report = run_differential(trials=1000, seed=0)
        ok = (report.agreement == 1.0 and report.elapsed < 60.0
              and report.trials == 1000)
        acceptance("differential-agreement", ok,
                   f"{report.trials} trials, {report.events_compared} events"
                   f", {report.elapsed:.1f}s, "
                   f"agreement {report.agreement:.4f}")


class TestDefaultsRegularity:
    OPS = ("ping", "data", "note")

    def test_defaults_regularity(self, acceptance, law_dir):
        # Exhaustive sweep of a 2-module, 4-component system whose module
        # laws add nothing: every within-module message delivers, every
        # cross-module message forwards then dies at the receiver, every
        # export and import dies.  Zero tolerance.
        root_text = (law_dir / "S.law").read_text()
        h, violations = build_hierarchy([
            parse_law(root_text),
            parse_law("law D1 extends S { }"),
            parse_law("law D2 extends S { }"),
        ])
        assert h is not None, violations

        agents = {}
        for name, module in (("p1", "D1"), ("p2", "D1"),
                             ("p3", "D2"), ("p4", "D2")):
            cert = issue_certificate(name, {"modules": module})
            agents[name], _ = adopt(name, h, module, cert=cert)

        failures = []
        events = 0

        def check(desc, got, want):
            nonlocal events
            events += 1
            if got != want:
                failures.append(f"{desc}: {got} != {want}")

        names = sorted(agents)
        for sname in names:
            sender = agents[sname]
            for tname in names:
                if tname == sname:
                    continue
                receiver = agents[tname]
                inner = sender.law == receiver.law
                for op in self.OPS:
                    ruling, env = handle_send(sender, op, b"", tname,
                                              receiver.law)
                    check(f"send {sname}->{tname} {op}",
                          (ruling.decision, matched_token(ruling.matched)),
                          (Decision.FORWARD,
                           "S:inner-permit" if inner else "S:outflow-permit"))
                    if env is None:
                        continue
                    ruling, _ = handle_arrive(receiver, env)
                    want = ((Decision.DELIVER, "S:inner-permit") if inner
                            else (Decision.BLOCK_SILENT, "S:inflow-block"))
                    check(f"arrive {sname}->{tname} {op}",
                          (ruling.decision, matched_token(ruling.matched)),
                          want)
            for op in self.OPS:
                ruling, env = handle_send(sender, op, b"", "ext", OUTSIDE)
                check(f"export {sname} {op}",
                      (ruling.decision, matched_token(ruling.matched), env),
                      (Decision.BLOCK_NOTICE, "S:boundary-block", None))
                ruling, delivery = handle_arrive(
                    sender, BareInbound("ext", op, b""))
                check(f"import {sname} {op}",
                      (ruling.decision, matched_token(ruling.matched),
                       delivery),
                      (Decision.BLOCK_SILENT, "S:boundary-block", None))

        ok = not failures
        detail = f"{events} events, {len(failures)} deviations"
        if failures:
            detail += "; first: " + failures[0]
        acceptance("defaults-regularity", ok, detail)


class TestLatencyBudget:
    def test_latency_budget(self, acceptance, law_dir):
        # Three rounds of 100,000 timed send+arrive pairs against the
        # shipped MS law, fresh agents each round: median of all samples at
        # most 100us, no pair over 1ms in its best round, finished inside
        # 30s.
        report = run_bench(events=100_000, law_dir=str(law_dir))
        ok = (report.median_us <= 100.0 and report.max_us <= 1000.0
              and report.elapsed_s < 30.0)
        acceptance("latency-budget", ok,
                   f"median {report.median_us:.1f}us, p99 "
                   f"{report.p99_us:.1f}us, worst {report.max_us:.1f}us, "
                   f"{report.elapsed_s:.1f}s")


class TestAuditDeterminism:
    def test_audit_determinism(self, acceptance, scenario_dir):
        # Same scenario, same seed, sim transport: the audit trail must be
        # byte-identical, for every shipped scenario.
        mismatched = []
        for name in ("monitoring", "sandbox", "crosscutting"):
            first, _ = _timed_scenario(scenario_dir, name, seed=11)
            second, _ = _timed_scenario(scenario_dir, name, seed=11)
            a = ("\n".join(first.audit_lines)).encode()
            b = ("\n".join(second.audit_lines)).encode()
            if a != b or not first.ok:
                mismatched.append(name)
        acceptance("audit-determinism", not mismatched,
                   "3 scenarios, 2 runs each"
                   + (f"; diverged: {mismatched}" if mismatched else ""))


class TestRulingLocality:
    def _shipped_agents(self, law_dir):
        h, problems = check_law_dir(law_dir)
        assert h is not None, problems
        agents = []
        for name, module in (("m1", "MS"), ("m2", "MS"), ("app", "OPS"),
                             ("boxed", "SB"), ("boss", "MGMT"),
                             ("buyer", "P")):
            cert = issue_certificate(name, {"modules": module})
            agent, _ = adopt(name, h, module, cert=cert)
            agents.append(agent)
        return h, agents

    @staticmethod
    def _evaluate(h, sender, receiver, op, sstate, rstate):
        s = replace(sender, state=dict(sstate))
        ruling, env = handle_send(s, op, b"x", receiver.component, receiver.law)
        sent = (ruling.decision, ruling.matched, ruling.state_updates,
                ruling.effects, ruling.flow, s.state)
        arrived = None
        if env is not None:
            r = replace(receiver, state=dict(rstate))
            ruling2, _ = handle_arrive(r, env)
            arrived = (ruling2.decision, ruling2.matched,
                       ruling2.state_updates, ruling2.effects, ruling2.flow,
                       r.state)
        return sent, arrived

    def test_ruling_locality(self, acceptance, law_dir):
        # 10,000 trials: evaluate a fixed event, scramble the states of
        # every agent not involved in it, evaluate again.  The two rulings
        # (decision, matched rule, state deltas, effects, flow) must be
        # identical every single time.
        rng = random.Random(2024)
        systems = [self._shipped_agents(law_dir)]
        for seed in range(10):
            system = generate_system(seed)
            h, violations = build_hierarchy(list(system.laws.values()))
            assert h is not None, violations
            agents = []
            for comp in system.components:
                cert = issue_certificate(comp.name, comp.attributes())
                for module in comp.modules:
                    agent, _ = adopt(comp.name, h, module, cert=cert)
                    agents.append(agent)
            if len(agents) >= 2:
                systems.append((h, agents))

        ops = ("retrieve", "log", "task", "result", "disclose", "report",
               "ping", "sync", "probe", "approve")
        divergent = 0
        trials = 10_000
        for _ in range(trials):
            h, agents = systems[rng.randrange(len(systems))]
            sender, receiver = rng.sample(agents, 2)
            op = rng.choice(ops)
            sstate = dict(sender.state)
            rstate = dict(receiver.state)
            first = self._evaluate(h, sender, receiver, op, sstate, rstate)
            for other in agents:
                if other is sender or other is receiver:
                    continue
                other.state[rng.choice(("module", "mode", "count"))] = \
                    rng.choice(("mutated", 13, "yes"))
            second = self._evaluate(h, sender, receiver, op, sstate, rstate)
            if first != second:
                divergent += 1
        acceptance("ruling-locality", divergent == 0,
                   f"{trials} trials, {divergent} divergent")
