"""End-to-end scenario execution over both transports."""

import gc
import random
import re
import socket
import threading
import time

import pytest

from mds import conformance, fabric, law_lang
from mds.controller import BareInbound, Envelope
from mds.runner import (ENV_LAW_SERVER, ENV_REGISTRY, RunnerError,
                        ScenarioRunner, check_law_dir, run_scenario)
from mds.scenario import load_scenario, parse_scenario

AUDIT_LINE = re.compile(
    r"^\d+ \| [^|]+ \| (adopted|refused|sent|arrived) \| [^|]+ \| [^|]+ \| [^|]+$")

SHIPPED = ["monitoring", "sandbox", "crosscutting"]


class TestShippedScenarios:
    @pytest.mark.parametrize("name", SHIPPED)
    def test_sim_run_meets_every_expectation(self, scenario_dir, name):
        report = run_scenario(scenario_dir / f"{name}.mds", mode="sim",
                              seed=7)
        assert report.ok, [s.text for s in report.failures()]
        assert report.mode == "sim"
        assert all(s.ok for s in report.steps)

    @pytest.mark.parametrize("name", SHIPPED)
    def test_audit_lines_are_well_formed(self, scenario_dir, name):
        report = run_scenario(scenario_dir / f"{name}.mds", mode="sim",
                              seed=7)
        assert report.audit_lines
        for line in report.audit_lines:
            assert AUDIT_LINE.match(line), line

    def test_tcp_transport_agrees_on_outcomes(self, scenario_dir):
        for name in SHIPPED:
            sim = run_scenario(scenario_dir / f"{name}.mds", mode="sim",
                               seed=7)
            tcp = run_scenario(scenario_dir / f"{name}.mds", mode="tcp",
                               seed=7)
            assert tcp.ok, [s.text for s in tcp.failures()]
            # advance texts differ by design: only sim has a clock to show
            assert ([s.text.partition(": ")[2] for s in sim.steps]
                    == [s.text.partition(": ")[2] for s in tcp.steps]), name
            sim_cols = [line.split(" | ", 1) for line in sim.audit_lines]
            tcp_cols = [line.split(" | ", 1) for line in tcp.audit_lines]
            assert ([rest for _, rest in tcp_cols]
                    == [rest for _, rest in sim_cols]), name
            # tcp has no shared clock: each audit line takes the next tick
            assert ([int(ts) for ts, _ in tcp_cols]
                    == list(range(len(tcp_cols)))), name

    def test_tcp_run_survives_stray_frames(self, scenario_dir):
        scn = load_scenario(str(scenario_dir / "sandbox.mds"))
        runner = ScenarioRunner(scn, scenario_dir, mode="tcp", seed=7)
        records = runner.registry.query()
        assert records
        for record in records:
            host, port = record.address.rsplit(":", 1)
            with socket.create_connection((host, int(port))) as conn:
                fabric.send_frame(conn, fabric.LawFetch("S"))
                conn.shutdown(socket.SHUT_WR)
                # the service closes the connection once the frame is handled
                assert conn.recv(1) == b""
        report = runner.run()
        assert report.ok, [s.text for s in report.failures()]

    def test_an_outside_envelope_is_ruled_as_import(self, scenario_dir):
        """An outside peer that sends an envelope naming OPS, with the
        lineage the law server gives anyone, is not let in as OPS."""
        scn = load_scenario(str(scenario_dir / "sandbox.mds"))
        runner = ScenarioRunner(scn, scenario_dir, mode="tcp", seed=7)
        try:
            record, = runner.registry.query(name="boxed1", module="SB")
            host, port = record.address.rsplit(":", 1)
            forged = Envelope("OPS", ("operator",), runner.h.lineage["OPS"],
                              "task", b"", "helper", "boxed1")
            with socket.create_connection((host, int(port)),
                                          timeout=5.0) as conn:
                fabric.send_frame(conn, forged)
                conn.shutdown(socket.SHUT_WR)
                assert conn.recv(1) == b""  # closed once it is handled
        finally:
            runner.net.close()
        assert [line.split(" | ", 1)[1] for line in runner.audit
                if "| arrived |" in line] == [
            "boxed1@SB | arrived | import | block-silent | S:boundary-block"]

    @pytest.mark.parametrize("name", SHIPPED)
    def test_tcp_run_leaves_no_threads(self, scenario_dir, name):
        before = threading.active_count()
        report = run_scenario(scenario_dir / f"{name}.mds", mode="tcp",
                              seed=7)
        assert report.ok, [s.text for s in report.failures()]
        deadline = time.monotonic() + 1.0
        while (threading.active_count() > before
               and time.monotonic() < deadline):
            time.sleep(0.01)
        assert threading.active_count() <= before


class TestDeterminism:
    def test_same_seed_same_audit(self, scenario_dir):
        a = run_scenario(scenario_dir / "monitoring.mds", mode="sim", seed=3)
        b = run_scenario(scenario_dir / "monitoring.mds", mode="sim", seed=3)
        assert a.audit_lines == b.audit_lines

    def test_seed_changes_latency_not_outcomes(self, scenario_dir):
        a = run_scenario(scenario_dir / "crosscutting.mds", mode="sim",
                         seed=1)
        b = run_scenario(scenario_dir / "crosscutting.mds", mode="sim",
                         seed=99)
        assert a.ok and b.ok
        outcomes_a = [s.text.split(": ", 1)[1] for s in a.steps]
        outcomes_b = [s.text.split(": ", 1)[1] for s in b.steps]
        assert outcomes_a == outcomes_b

    def test_latencies_are_the_seeds_randint_draws(self, scenario_dir,
                                                   monkeypatch):
        # The runner draws latencies by hand; they must stay the draws of
        # random.Random(seed).randint(1, 3), which fix the sim audits.
        seen: list[int] = []
        real_send = fabric.SimNetwork.send

        def send(net, address, msg, latency=0):
            seen.append(latency)
            return real_send(net, address, msg, latency)

        monkeypatch.setattr(fabric.SimNetwork, "send", send)
        scn = load_scenario(str(scenario_dir / "monitoring.mds"))
        for seed in range(200):
            del seen[:]
            assert ScenarioRunner(scn, scenario_dir, seed=seed).run().ok
            rng = random.Random(seed)
            assert seen and seen == [rng.randint(1, 3) for _ in seen], seed


class TestRunnerMechanics:
    def test_finished_runner_leaves_no_cyclic_garbage(self, scenario_dir):
        # Its laws and compiled programs go with its last reference, not at
        # whichever later full collection reaches them.
        gc.collect()
        gc.disable()
        try:
            scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
            ScenarioRunner(scn, scenario_dir, mode="sim", seed=0).run()
            del scn
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_one_registration_per_adoption(self, scenario_dir):
        scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
        runner = ScenarioRunner(scn, scenario_dir, mode="sim", seed=0)
        runner.run()
        records = runner.registry.query()
        # buyer adopted twice (OPS and P), logger and approver1 once each
        assert len(records) == 4
        assert [(r.component, r.module) for r in records] == [
            ("approver1", "MGMT"), ("buyer", "OPS"), ("buyer", "P"),
            ("logger", "MS")]

    def test_registry_does_not_shape_rulings(self, scenario_dir,
                                             monkeypatch):
        baseline = run_scenario(scenario_dir / "monitoring.mds", mode="sim",
                                seed=5)
        monkeypatch.setattr(fabric.Registry, "register",
                            lambda self, *a, **k: None)
        silenced = run_scenario(scenario_dir / "monitoring.mds", mode="sim",
                                seed=5)
        assert silenced.audit_lines == baseline.audit_lines
        assert silenced.ok

    def test_delivered_export_leaves_the_system(self, scenario_dir):
        scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
        runner = ScenarioRunner(scn, scenario_dir, mode="sim", seed=0)
        report = runner.run()
        assert report.ok
        assert ("vendor", "purchaseOrder", b"PO-7") in runner.outbound
        assert ("vendor", "purchaseOrder", b"PO-9") not in runner.outbound

    def test_empty_script_succeeds_with_zero_steps(self, tmp_path, law_dir):
        script = tmp_path / "quiet.mds"
        script.write_text(f"scenario quiet\nlaw {law_dir}\n")
        report = run_scenario(script, mode="sim", seed=0)
        assert report.ok
        assert report.steps == []

    def test_unknown_mode_rejected(self, scenario_dir):
        scn = parse_scenario("scenario t\nlaw ../laws\n")
        with pytest.raises(RunnerError):
            ScenarioRunner(scn, scenario_dir, mode="carrier-pigeon")

    def test_failed_expectation_reported_not_raised(self, tmp_path, law_dir):
        script = tmp_path / "wrong.mds"
        script.write_text(
            f"scenario wrong\nlaw {law_dir}\n"
            "component a modules MS\ncomponent b modules MS\n"
            "send a -> b op retrieve\nexpect blocked-at-receiver\n")
        report = run_scenario(script, mode="sim", seed=0)
        assert not report.ok
        failed = report.failures()
        assert len(failed) == 1
        assert "[FAIL expected blocked-at-receiver]" in failed[0].text

    def test_refused_adoption_is_audited_and_cannot_send(self, tmp_path,
                                                         law_dir):
        script = tmp_path / "refused.mds"
        script.write_text(
            f"scenario refused\nlaw {law_dir}\n"
            "component X modules P cert modules=MS\n"
            "component b modules MS\n"
            "send X -> b op retrieve\n")
        runner = ScenarioRunner(load_scenario(str(script)), tmp_path)
        assert runner.audit[0] == "0 | X@P | adopted | - | refused | S:init"
        assert runner.reports[0].text == (
            "adopt X@P: refused (certificate attribute 'modules' does not "
            "list 'P')")
        with pytest.raises(RunnerError) as err:
            runner.run()
        assert str(err.value) == "X@P refused adoption; cannot take part"

    def test_step_reports_its_own_arrival_not_a_later_one(self, tmp_path,
                                                          law_dir,
                                                          monkeypatch):
        """An outside peer's frame may reach another persona on another
        thread between a step's own delivery and its report."""
        handlers = {}

        class Interleaved(fabric.SimNetwork):
            def register(self, address, handler):
                handlers[address] = handler
                return super().register(address, handler)

            def run_until_idle(self):
                result = super().run_until_idle()
                stray = threading.Thread(target=handlers["c@MS"], args=(
                    BareInbound("wild", "c", "retrieve", b""),))
                stray.start()
                stray.join()
                return result

        monkeypatch.setattr(fabric, "SimNetwork", Interleaved)
        script = tmp_path / "interleaved.mds"
        script.write_text(
            f"scenario interleaved\nlaw {law_dir}\n"
            "component a modules MS\ncomponent b modules MS\n"
            "component c modules MS\n"
            "send a -> b op retrieve\nexpect delivered\n")
        report = run_scenario(script)
        assert report.steps[-1].text == (
            "send a -> b op retrieve: delivered matched=S:inner-permit [ok]")
        assert report.audit_lines[-1].endswith(
            " | c@MS | arrived | import | block-silent | S:boundary-block")


class TestLawDistribution:
    def test_sim_run_parses_each_law_once(self, scenario_dir, law_dir,
                                          monkeypatch):
        parsed = []
        real = law_lang.parse_law

        def parse_law(text, origin):
            parsed.append(origin)
            return real(text, origin)

        monkeypatch.setattr(law_lang, "parse_law", parse_law)
        assert run_scenario(scenario_dir / "crosscutting.mds", seed=1).ok
        assert len(parsed) == len(list(law_dir.glob("*.law")))

    @pytest.mark.parametrize("mode", ["sim", "tcp"])
    def test_set_up_prints_each_law_once(self, scenario_dir, monkeypatch,
                                         mode):
        printed = []
        real = law_lang.print_law

        def print_law(law):
            printed.append(law.name)
            return real(law)

        monkeypatch.setattr(law_lang, "print_law", print_law)
        scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
        runner = ScenarioRunner(scn, scenario_dir, mode=mode, seed=1)
        runner.net.close()
        assert sorted(printed) == sorted(runner.h.laws)

    def test_sim_run_builds_the_hierarchy_once(self, scenario_dir,
                                               monkeypatch):
        calls = []
        real = conformance.build_hierarchy

        def build_hierarchy(laws):
            calls.append(laws)
            return real(laws)

        monkeypatch.setattr("mds.runner.build_hierarchy", build_hierarchy)
        assert run_scenario(scenario_dir / "crosscutting.mds", seed=1).ok
        assert len(calls) == 1

    def test_wrong_ancestor_hash_in_lineage_is_refused(self, scenario_dir,
                                                       monkeypatch):
        real = fabric.LawServer.get

        def get(self, name):
            text, lineage = real(self, name)
            if name == "MS":
                lineage = ("0" * 64,) + lineage[1:]
            return text, lineage

        monkeypatch.setattr(fabric.LawServer, "get", get)
        scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
        with pytest.raises(RunnerError, match="lineage.*'MS'"):
            ScenarioRunner(scn, scenario_dir, mode="sim", seed=0)

    def test_tampered_law_text_is_refused(self, scenario_dir, monkeypatch):
        real = fabric.LawServer.get

        def get(self, name):
            text, lineage = real(self, name)
            if name == "MS":
                text = text.replace('"log"', '"lag"')
            return text, lineage

        monkeypatch.setattr(fabric.LawServer, "get", get)
        scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
        with pytest.raises(RunnerError, match="hash mismatch.*'MS'"):
            ScenarioRunner(scn, scenario_dir, mode="sim", seed=0)

    def test_unparsable_law_text_is_refused(self, scenario_dir, monkeypatch):
        real = fabric.LawServer.get

        def get(self, name):
            text, lineage = real(self, name)
            if name == "MS":
                text = text.replace("permit;", "block;", 1)
            return text, lineage

        monkeypatch.setattr(fabric.LawServer, "get", get)
        scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
        with pytest.raises(RunnerError, match="hash mismatch.*'MS'"):
            ScenarioRunner(scn, scenario_dir, mode="sim", seed=0)


class TestExternalServices:
    def test_tcp_run_uses_the_law_server_and_registry_it_is_given(
            self, scenario_dir, shipped, monkeypatch):
        law_service = fabric.serve_law_server(shipped)
        registry = fabric.Registry()
        registry_service = fabric.serve_registry(registry)
        own_law_servers = []
        monkeypatch.setattr(fabric, "serve_law_server",
                            lambda *args: own_law_servers.append(args))
        try:
            for env, service in ((ENV_LAW_SERVER, law_service),
                                 (ENV_REGISTRY, registry_service)):
                monkeypatch.setenv(env, "{}:{}".format(*service.address))
            scn = load_scenario(str(scenario_dir / "sandbox.mds"))
            runner = ScenarioRunner(scn, scenario_dir, mode="tcp", seed=7)
            report = runner.run()
            assert report.ok, [s.text for s in report.failures()]
            assert own_law_servers == []

            def personas(reg):  # stamps follow the order frames arrive in
                return [(r.component, r.module, r.address)
                        for r in reg.query()]

            notified = personas(runner.registry)
            assert notified
            # registration is fire-and-forget, so it may land after the run
            deadline = time.monotonic() + 2.0
            while (personas(registry) != notified
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            assert personas(registry) == notified
        finally:
            law_service.close()
            registry_service.close()


class TestLawDirChecking:
    def test_missing_directory_is_a_problem(self, tmp_path):
        h, problems = check_law_dir(tmp_path / "nowhere")
        assert h is None
        assert problems == ["no .law files found"]

    def test_parse_problem_names_file_and_line(self, tmp_path):
        bad = tmp_path / "broken.law"
        bad.write_text("law X {\n  wat;\n}\n")
        h, problems = check_law_dir(tmp_path)
        assert h is None
        assert any(p.startswith("broken.law:2:") for p in problems)

    def test_deep_nesting_is_a_positioned_problem(self, law_dir, tmp_path):
        for file in law_dir.glob("*.law"):
            (tmp_path / file.name).write_text(file.read_text())
        (tmp_path / "X.law").write_text(
            "law X extends S {\n  default rule r on sent if "
            + "(" * 5000 + "peer.outside" + ")" * 5000 + " { permit; }\n}\n")
        h, problems = check_law_dir(tmp_path)
        assert h is None
        assert problems == [
            "X.law:2:93: predicate nested deeper than 64 levels"]


class TestGoldenAudits:
    """Byte-for-byte pins of each shipped scenario's audit at seed 7.

    The semantic truth lives in the scenario expectations; these files only
    guard against accidental drift in ordering, clocking, or formatting.
    """

    @pytest.mark.parametrize("name", SHIPPED)
    def test_audit_matches_frozen_trail(self, scenario_dir, name):
        import pathlib
        golden = (pathlib.Path(__file__).parent / "data" / "goldens"
                  / f"{name}.audit")
        report = run_scenario(scenario_dir / f"{name}.mds", mode="sim",
                              seed=7)
        assert report.ok
        assert "\n".join(report.audit_lines) + "\n" == golden.read_text()
