"""The interpretive reference evaluator and the differential harness."""

import dataclasses
import random

import pytest

from mds import controller, oracle
from mds.conformance import build_hierarchy
from mds.controller import EventContext
from mds.law_lang import parse_law
from mds.model import EventKind, FlowKind
from mds.oracle import (GeneratedSystem, generate_system, oracle_evaluate,
                        oracle_flow, replay, run_differential, run_trial)
from mds.scenario import ComponentDecl, parse_scenario

LAW_TEXTS = {
    "Top": """
law Top {
  categorical rule veto on sent if op == "veto" {
    block;
  }
  default rule shut on arrived if flow == inflow {
    block;
  }
  default rule open on sent if flow == outflow {
    permit;
  }
  allow-override shut may-permit;
}
""",
    "Sub": """
law Sub extends Top {
  profile [branch];
  override shut permit on arrived if op == "pass" {
    increment state.seen by 1;
  }
}
""",
}


@pytest.fixture(scope="module")
def laws():
    return {name: parse_law(text) for name, text in LAW_TEXTS.items()}


class TestOracleFlow:
    @pytest.mark.parametrize("sender,target,kind", [
        ("M", "M", FlowKind.INNER),
        ("M", "N", FlowKind.OUTFLOW),
        ("N", "M", FlowKind.INFLOW),
        ("M", None, FlowKind.EXPORT),
        (None, "M", FlowKind.IMPORT),
    ])
    def test_table(self, sender, target, kind):
        assert oracle_flow("M", sender, target) is kind


class TestOracleEvaluate:
    def test_categorical_blocks_first(self, laws):
        verdict, token, _ = oracle_evaluate(
            laws, "Sub", {}, {},
            EventContext(EventKind.SENT, "veto", FlowKind.OUTFLOW, "Top"))
        assert (verdict, token) == ("block", "Top:veto")

    def test_default_body_when_no_override(self, laws):
        verdict, token, _ = oracle_evaluate(
            laws, "Sub", {}, {},
            EventContext(EventKind.ARRIVED, "nope", FlowKind.INFLOW, "Top"))
        assert (verdict, token) == ("block", "Top:shut")

    def test_override_substitutes_and_mutates_copy(self, laws):
        state = {"seen": 4}
        verdict, token, new_state = oracle_evaluate(
            laws, "Sub", state, {},
            EventContext(EventKind.ARRIVED, "pass", FlowKind.INFLOW, "Top"))
        assert (verdict, token) == ("permit", "Sub:shut")
        assert new_state["seen"] == 5
        assert state["seen"] == 4  # caller's dict untouched

    def test_builtin_fallback_tokens(self, laws):
        verdict, token, _ = oracle_evaluate(
            laws, "Sub", {}, {},
            EventContext(EventKind.ARRIVED, "x", FlowKind.IMPORT, "w",
                        peer_outside=True))
        assert (verdict, token) == ("block", "default:import")
        verdict, token, _ = oracle_evaluate(
            laws, "Sub", {}, {},
            EventContext(EventKind.SENT, "x", FlowKind.INNER, "Sub"))
        assert (verdict, token) == ("permit", "default:inner")
        verdict, token, _ = oracle_evaluate(
            laws, "Sub", {}, {}, EventContext(EventKind.ADOPTED))
        assert (verdict, token) == ("permit", "default:adopted")


class TestGenerator:
    def test_respects_size_caps(self):
        for seed in range(60):
            system = generate_system(seed)
            assert 1 <= len(system.laws) <= 4
            assert len(system.components) <= 8
            assert len(system.script) <= 60

    def test_generated_hierarchies_conform(self):
        for seed in range(60):
            system = generate_system(seed)
            h, violations = build_hierarchy(list(system.laws.values()))
            assert h is not None, (seed, violations)
            assert h.root == next(iter(system.laws))

    def test_trials_are_reproducible(self):
        a = generate_system(1234)
        b = generate_system(1234)
        assert a.laws.keys() == b.laws.keys()
        assert a.script == b.script
        assert run_trial(a) == run_trial(b)

    def test_a_generated_system_is_a_scenario(self):
        """Written as .mds text, one row per component, outsider and step
        and every endpoint with its @MODULE, a generated system parses
        back to its own components and steps."""
        def endpoint(name, module):
            return name if module is None else f"{name}@{module}"

        for seed in range(300):
            system = generate_system(seed)
            rows = ["scenario generated", "law laws"]
            for comp in system.components:
                cert = ",".join(f"{k}={v}" for k, v in comp.cert_attrs)
                rows.append(f"component {comp.name} modules "
                            f"{','.join(comp.modules)}"
                            + (f" cert {cert}" if cert else ""))
            rows += [f"outside {name}" for name in oracle._OUTSIDERS]
            header = len(rows)
            for step in system.script:
                rows.append(
                    f"{'outsidesend' if step.from_outside else 'send'} "
                    f"{endpoint(step.sender, step.sender_law)} -> "
                    f"{endpoint(step.target, step.target_law)} "
                    f'op {step.operation} payload "{step.payload.decode()}"')
            scn = parse_scenario("\n".join(rows))
            assert scn.components == system.components, seed
            assert scn.outsides == list(oracle._OUTSIDERS), seed
            assert scn.steps == [
                dataclasses.replace(step, line=header + step.line)
                for step in system.script], seed


class TestDifferential:
    @pytest.fixture
    def split_b(self, monkeypatch):
        """A mutant production that splits the state of each agent of B at
        its adoption."""
        real_adopt = oracle.adopt

        def adopt(*args, **kwargs):
            agent, ruling = real_adopt(*args, **kwargs)
            if agent.law == "B":
                agent.state["extra"] = 1
            return agent, ruling

        monkeypatch.setattr(oracle, "adopt", adopt)

    def test_quick_batch_agrees(self):
        report = run_differential(trials=150, seed=2)
        assert report.disagreements == [], report.disagreements[:3]
        assert report.trials == 150
        assert report.agreement == 1.0
        assert report.events_compared > 1000

    def test_agreement_is_the_share_of_agreeing_trials(self, split_b):
        """A trial reports at most its first mismatch, however many
        personas a mutant splits."""
        report = run_differential(trials=100, seed=1)
        failing = {line.split()[1].rstrip(":")
                   for line in report.disagreements}
        assert 0 < len(failing) < report.trials
        assert 0 <= report.agreement <= 1
        assert report.agreement == pytest.approx(
            1 - len(failing) / report.trials)
        assert all(" adoption state split at c" in line
                   for line in report.disagreements)

    def test_events_compared_are_the_record_pairs_walked(self, request):
        """An agreeing trial counts every record ``replay`` yields; a
        failing one only the pairs up to and including its mismatch."""
        rng = random.Random(1)
        records = []
        for _ in range(100):
            system = generate_system(rng.getrandbits(48))
            records.append(list(replay(system.laws, system.components,
                                       system.script)))
        report = run_differential(trials=100, seed=1)
        assert report.agreement == 1.0
        assert report.events_compared == sum(map(len, records))

        request.getfixturevalue("split_b")
        # the mutant splits the first adoption of B, if there is one
        until_split = [next((i + 1 for i, r in enumerate(trial)
                             if r.event == "adopted" and r.persona[1] == "B"),
                            len(trial)) for trial in records]
        report = run_differential(trials=100, seed=1)
        assert report.disagreements
        assert report.events_compared == sum(until_split)
        assert report.events_compared < sum(map(len, records))

    def test_a_state_written_after_its_adoption_is_a_final_split(
            self, monkeypatch):
        """A production write the oracle's records never see, made into
        one agent while another adopts, shows only at the final
        comparison."""
        system = GeneratedSystem(
            seed=7, laws={"R": parse_law("law R {\n}\n")},
            components=[ComponentDecl("a", ("R",), ()),
                        ComponentDecl("b", ("R",), ())],
            script=[])
        real_adopt, adopted = oracle.adopt, []

        def adopt(*args, **kwargs):
            agent, ruling = real_adopt(*args, **kwargs)
            if adopted:
                adopted[0].state["late"] = 1
            adopted.append(agent)
            return agent, ruling

        monkeypatch.setattr(oracle, "adopt", adopt)
        assert oracle._lockstep(system) == (2, [
            "seed 7: final state split at ('a', 'R'): {'late': 1} != {}"])

    def test_the_oracle_reads_certificates_from_the_script(
            self, monkeypatch):
        """Production that drops every certificate is caught: the oracle
        takes each component's attributes from the script, not from the
        agent production made."""
        monkeypatch.setattr(controller, "demo_verify", lambda cert: False)
        report = run_differential(trials=300, seed=1)
        assert report.disagreements
