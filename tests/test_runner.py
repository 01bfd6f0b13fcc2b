"""End-to-end scenario execution over both transports."""

import dataclasses
import dis
import gc
import random
import re
import socket
import sys
import threading
import time
import types

import pytest

from mds import conformance, controller, fabric, law_lang
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

    @pytest.mark.parametrize("mode", ["sim", "tcp"])
    @pytest.mark.parametrize("name", SHIPPED)
    def test_each_send_is_run_to_idle_before_the_next(
            self, scenario_dir, monkeypatch, name, mode):
        # At most one message is ever queued, so the order in which a
        # network would deliver several can move no ruling.
        network = fabric.SimNetwork if mode == "sim" else fabric.TcpNetwork
        calls: list[str] = []
        for method in ("send", "run_until_idle"):
            def wrapped(net, *args, _real=getattr(network, method),
                        _method=method, **kwargs):
                calls.append(_method)
                return _real(net, *args, **kwargs)

            monkeypatch.setattr(network, method, wrapped)
        report = run_scenario(scenario_dir / f"{name}.mds", mode=mode, seed=7)
        assert report.ok, [s.text for s in report.failures()]
        assert calls and calls == ["send", "run_until_idle"] * (len(calls) // 2)

    def test_tcp_run_survives_stray_frames(self, scenario_dir):
        scn = load_scenario(str(scenario_dir / "sandbox.mds"))
        runner = ScenarioRunner(scn, scenario_dir, mode="tcp", seed=7)
        records = runner.registry.query()
        assert records
        for record in records:
            host, port = record.address.rsplit(":", 1)
            with socket.create_connection((host, int(port))) as conn:
                conn.sendall(fabric.encode_frame(fabric.LawFetch("S")))
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
                              "task", b"", "helper")
            with socket.create_connection((host, int(port)),
                                          timeout=5.0) as conn:
                conn.sendall(fabric.encode_frame(forged))
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

    @pytest.mark.parametrize("mode", ["sim", "tcp"])
    def test_the_sandbox_lets_ident_out_and_its_members_talk(
            self, scenario_dir, mode):
        """SB's allow-list binds only what S lets it override: the root's
        categorical ident rule and its open inner flow still decide."""
        scn = parse_scenario(
            "scenario sandbox-gaps\nlaw ../laws\n"
            "component boxed1 modules SB\ncomponent boxed2 modules SB\n"
            "outside wild\n"
            "send boxed1 -> wild op ident\n"
            "expect delivered matched S:ident\n"
            "send boxed1 -> boxed2 op sync\n"
            "expect delivered matched S:inner-permit\n")
        report = ScenarioRunner(scn, scenario_dir, mode=mode, seed=7).run()
        assert report.ok, [s.text for s in report.failures()]
        assert [s.text for s in report.steps[2:]] == [
            "send boxed1 -> wild op ident: delivered matched=S:ident [ok]",
            "send boxed1 -> boxed2 op sync: delivered"
            " matched=S:inner-permit [ok]"]


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
        # The simulator draws latencies by hand; they must stay the draws
        # of random.Random(seed).randint(1, 3), which fix the sim audits.
        # The runner runs each message to idle alone, so the clock step of
        # each delivery is that message's latency.
        seen: list[int] = []
        real_run = fabric.SimNetwork.run_until_idle

        def run_until_idle(net):
            before = net.clock
            result = real_run(net)
            seen.append(net.clock - before)
            return result

        monkeypatch.setattr(fabric.SimNetwork, "run_until_idle",
                            run_until_idle)
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

    def test_an_outside_frame_is_ruled_by_the_persona_whose_port_it_reached(
            self, tmp_path):
        """No frame names its recipient: the same bare frame, sent to two
        personas' listeners, is ruled and audited by each in turn."""
        laws = tmp_path / "laws"
        laws.mkdir()
        (laws / "R.law").write_text(
            "law R {\n  default rule join on adopted { notify-registry; }\n"
            "  default rule gate on arrived if flow == import { block; }\n"
            "  allow-override gate may-permit;\n}\n")
        (laws / "A.law").write_text(
            "law A extends R {\n  override gate permit on arrived if "
            "op == \"ping\" {\n    increment state.pings by 1;\n  }\n}\n")
        (laws / "B.law").write_text("law B extends R {\n}\n")
        script = tmp_path / "two.mds"
        script.write_text("scenario two\nlaw laws\n"
                          "component a modules A\ncomponent b modules B\n")
        runner = ScenarioRunner(load_scenario(str(script)), tmp_path,
                                mode="tcp")
        frame = fabric.encode_frame(BareInbound("wild", "ping", b""))
        try:
            for name in ("b", "a"):  # not in the order they registered
                record, = runner.registry.query(name=name)
                host, port = record.address.rsplit(":", 1)
                with socket.create_connection((host, int(port)),
                                              timeout=5.0) as conn:
                    conn.sendall(frame)
                    conn.shutdown(socket.SHUT_WR)
                    assert conn.recv(1) == b""  # closed once it is handled
        finally:
            runner.net.close()
        assert [line.split(" | ", 1)[1] for line in runner.audit
                if "| arrived |" in line] == [
            "b@B | arrived | import | block-silent | R:gate",
            "a@A | arrived | import | deliver | A:gate"]
        assert runner.agents["a@A"].state["pings"] == 1
        assert "pings" not in runner.agents["b@B"].state

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

    @pytest.mark.parametrize("mode", ["sim", "tcp"])
    def test_unknown_module_is_a_runner_error(self, tmp_path, law_dir, mode):
        script = tmp_path / "nope.mds"
        script.write_text(f"scenario nope\nlaw {law_dir}\n"
                          "component a modules NOPE\n")
        with pytest.raises(RunnerError,
                           match="^component a: no module 'NOPE' in "):
            run_scenario(script, mode=mode)

    def test_failed_tcp_set_up_closes_its_network(self, tmp_path, law_dir):
        script = tmp_path / "nope.mds"
        script.write_text(f"scenario nope\nlaw {law_dir}\n"
                          "component a modules MS\ncomponent b modules NOPE\n")
        before = threading.active_count()
        for _ in range(3):
            with pytest.raises(RunnerError):
                run_scenario(script, mode="tcp")
        assert threading.active_count() <= before

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
                    BareInbound("wild", "retrieve", b""),))
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


class TestPerMessagePath:
    def test_no_enum_member_is_read_through_its_class(self):
        # On Python 3.10 and 3.11 such a read calls EnumType.__getattr__.
        def globals_loaded(code):
            for ins in dis.get_instructions(code):
                if ins.opname == "LOAD_GLOBAL":
                    yield ins.argval
            for const in code.co_consts:
                if isinstance(const, types.CodeType):
                    yield from globals_loaded(const)

        for fn in (controller.evaluate, controller.handle_send,
                   controller.handle_arrive, ScenarioRunner._send_step,
                   ScenarioRunner._transmit, ScenarioRunner._deliver):
            loaded = set(globals_loaded(fn.__code__))
            assert not loaded & {"EventKind", "FlowKind", "Decision"}, \
                fn.__qualname__


class TestLawDistribution:
    def test_sim_run_parses_each_law_once(self, scenario_dir, law_dir,
                                          monkeypatch):
        parsed = []
        real = law_lang.parse_law

        def parse_law(text, origin, memo):
            parsed.append(origin)
            return real(text, origin, memo)

        monkeypatch.setattr(law_lang, "parse_law", parse_law)
        assert run_scenario(scenario_dir / "crosscutting.mds", seed=1).ok
        assert len(parsed) == len(list(law_dir.glob("*.law")))

    @pytest.mark.parametrize("mode", ["sim", "tcp"])
    def test_set_up_prints_each_law_once(self, scenario_dir, monkeypatch,
                                         mode):
        printed = []
        real = law_lang.print_law

        def print_law(law, pieces=None):
            printed.append(law.name)
            return real(law, pieces)

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
        real = fabric.LawServer.respond

        def respond(self, msg):
            reply = real(self, msg)
            if msg.name == "MS":
                reply = dataclasses.replace(
                    reply, lineage=("0" * 64,) + reply.lineage[1:])
            return reply

        monkeypatch.setattr(fabric.LawServer, "respond", respond)
        scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
        with pytest.raises(RunnerError, match="lineage.*'MS'"):
            ScenarioRunner(scn, scenario_dir, mode="sim", seed=0)

    def test_tampered_law_text_is_refused(self, scenario_dir, monkeypatch):
        real = fabric.LawServer.respond

        def respond(self, msg):
            reply = real(self, msg)
            if msg.name == "MS":
                reply = dataclasses.replace(
                    reply, text=reply.text.replace('"log"', '"lag"'))
            return reply

        monkeypatch.setattr(fabric.LawServer, "respond", respond)
        scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
        with pytest.raises(RunnerError, match="hash mismatch.*'MS'"):
            ScenarioRunner(scn, scenario_dir, mode="sim", seed=0)

    def test_unparsable_law_text_is_refused(self, scenario_dir, monkeypatch):
        real = fabric.LawServer.respond

        def respond(self, msg):
            reply = real(self, msg)
            if msg.name == "MS":
                reply = dataclasses.replace(
                    reply, text=reply.text.replace("permit;", "block;", 1))
            return reply

        monkeypatch.setattr(fabric.LawServer, "respond", respond)
        scn = load_scenario(str(scenario_dir / "crosscutting.mds"))
        with pytest.raises(RunnerError, match="hash mismatch.*'MS'"):
            ScenarioRunner(scn, scenario_dir, mode="sim", seed=0)


class TestExternalServices:
    def test_tcp_run_uses_the_law_server_and_registry_it_is_given(
            self, scenario_dir, shipped, monkeypatch):
        law_service = fabric.TcpService(fabric.LawServer(shipped).respond)
        registry = fabric.Registry()
        registry_service = fabric.TcpService(registry.respond)
        own_law_servers = []
        monkeypatch.setattr(fabric, "LawServer",
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


    def test_registering_stops_at_the_first_failure(
            self, scenario_dir, monkeypatch):
        """Registering is best effort: one failed call, not one per
        persona, and the run goes on."""
        with socket.create_server(("127.0.0.1", 0)) as listener:
            address = listener.getsockname()  # bound and closed again
        monkeypatch.setenv(ENV_REGISTRY, "{}:{}".format(*address))
        calls = []
        real = fabric.call_remote

        def call_remote(to, msg):
            if isinstance(msg, fabric.Registration):
                calls.append(msg)
            return real(to, msg)

        monkeypatch.setattr(fabric, "call_remote", call_remote)
        scn = load_scenario(str(scenario_dir / "sandbox.mds"))
        runner = ScenarioRunner(scn, scenario_dir, mode="tcp", seed=7)
        report = runner.run()
        assert report.ok, [s.text for s in report.failures()]
        assert len(runner.registry.query()) > 1
        assert len(calls) == 1


    def test_a_registration_too_big_for_a_frame_stops_registering(
            self, law_dir, tmp_path, monkeypatch):
        """A registration that cannot be framed is dropped like a refused
        one: the run adopts and audits the persona, and registers with the
        remote registry no more."""
        name = "c" * (1024 * 1024 + 100)
        (tmp_path / "big.mds").write_text(
            f"scenario big\nlaw {law_dir}\n\ncomponent {name} modules MS\n")
        registry = fabric.Registry()
        service = fabric.TcpService(registry.respond)
        try:
            monkeypatch.setenv(ENV_REGISTRY, "{}:{}".format(*service.address))
            scn = load_scenario(str(tmp_path / "big.mds"))
            runner = ScenarioRunner(scn, tmp_path, mode="tcp", seed=0)
            report = runner.run()
        finally:
            service.close()
        assert report.ok
        assert [s.text for s in report.steps] == [f"adopt {name}@MS: adopted"]
        [line] = report.audit_lines
        assert line.split(" | ")[1:5] == [f"{name}@MS", "adopted", "-",
                                          "adopted"]
        assert runner._remote_registry is None
        assert registry.query() == []


class TestOneRulingAtATime:
    """In tcp mode an outside peer's frame is ruled on the network's
    service thread, and the runner's lock keeps that ruling from
    interleaving with one the run's own thread is making."""

    @staticmethod
    def _sandbox(scenario_dir):
        """A tcp runner of sandbox.mds, and boxed1@SB's outside address."""
        scn = load_scenario(str(scenario_dir / "sandbox.mds"))
        runner = ScenarioRunner(scn, scenario_dir, mode="tcp", seed=7)
        [record] = runner.registry.query(name="boxed1")
        host, port = record.address.rsplit(":", 1)
        return runner, (host, int(port))

    @pytest.mark.parametrize("held", ["send", "arrive"])
    def test_an_outside_frame_waits_for_the_ruling_in_progress(
            self, scenario_dir, monkeypatch, held):
        real_send = controller.handle_send
        real_arrive = controller.handle_arrive
        stray = BareInbound(sender_address="stray", operation="task",
                            payload=b"")
        events = []  # from either thread, in the order they happen
        stray_ruled = threading.Event()
        runner, boxed1 = self._sandbox(scenario_dir)

        def hold(real, agent, *args):
            """boxed1's first such ruling: the stray frame goes out, and
            the ruling waits up to 0.5 s for it to be ruled first."""
            events.append("held ruling starts")
            outside.sendall(fabric.encode_frame(stray))
            stray_ruled.wait(0.5)
            try:
                return real(agent, *args)
            finally:
                events.append("held ruling returns")

        def send(agent, *args):
            if held == "send" and agent.component == "boxed1" and not events:
                return hold(real_send, agent, *args)
            return real_send(agent, *args)

        def arrive(agent, msg):
            if msg == stray:
                events.append("stray ruled")
                stray_ruled.set()
            elif held == "arrive" and agent.component == "boxed1" \
                    and not events:
                return hold(real_arrive, agent, msg)
            return real_arrive(agent, msg)

        monkeypatch.setattr("mds.runner.handle_send", send)
        monkeypatch.setattr("mds.runner.handle_arrive", arrive)
        with socket.create_connection(boxed1) as outside:
            report = runner.run()  # its close waits for the loop thread
        assert report.ok, [s.text for s in report.failures()]
        assert events == ["held ruling starts", "held ruling returns",
                          "stray ruled"]
        assert sum(line.split(" | ")[1:4] == ["boxed1@SB", "arrived",
                                               "import"]
                   for line in report.audit_lines) == 2  # stray and wild

    def test_no_two_rulings_overlap_while_outside_peers_send(
            self, scenario_dir, monkeypatch):
        guard = threading.Lock()
        inside = 0
        overlapped = False

        def watched(real):
            def ruling(*args):
                nonlocal inside, overlapped
                with guard:
                    inside += 1
                    overlapped = overlapped or inside > 1
                time.sleep(0.0005)  # widen the window an overlap would need
                try:
                    return real(*args)
                finally:
                    with guard:
                        inside -= 1
            return ruling

        for name in ("handle_send", "handle_arrive"):
            monkeypatch.setattr(f"mds.runner.{name}",
                                watched(getattr(controller, name)))
        runner, boxed1 = self._sandbox(scenario_dir)
        strays = b"".join(fabric.encode_frame(BareInbound(
            f"stray{i}", "task", b"")) for i in range(30))
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often: overlaps show
        peers = []
        try:
            for _ in range(3):  # three peers besides the run itself
                peers.append(socket.create_connection(boxed1))
                peers[-1].sendall(strays)
            report = runner.run()
        finally:
            sys.setswitchinterval(switch)
            for peer in peers:
                peer.close()
        assert report.ok, [s.text for s in report.failures()]
        assert not overlapped

    @pytest.mark.parametrize("name", ["handle_send", "handle_arrive"])
    def test_a_ruling_that_raises_releases_the_lock(self, scenario_dir,
                                                    monkeypatch, name):
        class Broken(Exception):
            pass

        def broken(*args):
            raise Broken(name)

        monkeypatch.setattr(f"mds.runner.{name}", broken)
        scn = load_scenario(str(scenario_dir / "sandbox.mds"))
        runner = ScenarioRunner(scn, scenario_dir, mode="sim", seed=7)
        with pytest.raises(Broken, match=name):
            runner.run()
        assert not runner._lock.locked()


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
