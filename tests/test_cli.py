"""Command-line entry points and exit codes."""

import dataclasses
import os
import random
import re
import signal
import socket
import struct
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import mds
from mds import bench, fabric, oracle
from mds.cli import main
from mds.conformance import ConformanceViolation, ViolationKind
from mds.controller import Decision, Ruling
from mds.model import EventKind


class TestLawCommands:
    def test_check_accepts_shipped_laws(self, law_dir, capsys):
        assert main(["law", "check", str(law_dir)]) == 0
        out = capsys.readouterr().out
        assert "ok: 6 laws, root S" in out

    @staticmethod
    def _tree_lines(out: str) -> list[tuple[int, str]]:
        """(depth, law name) of each law line `law check` printed."""
        rows = []
        for line in out.splitlines():
            if line.startswith("ok:"):
                break
            name = line.split()[0]
            rows.append(((len(line) - len(line.lstrip(" "))) // 2, name))
        return rows

    @pytest.mark.parametrize("tree", ["shipped", "deep"])
    def test_check_prints_each_law_under_its_parent(self, tree, law_dir,
                                                     tmp_path, capsys):
        parents = {"S": None, "MGMT": "S", "MS": "S", "OPS": "S", "P": "S",
                   "SB": "S"}
        if tree == "deep":
            # Name order differs from tree order at every level.
            parents = {"Z": None, "B": "Z", "A": "Z", "BA": "B", "AB": "A",
                       "AA": "A", "AAA": "AA", "C": "Z"}
            for name, parent in parents.items():
                head = f"law {name}" + (f" extends {parent}" if parent else "")
                (tmp_path / f"{name}.law").write_text(head + " {\n}\n")
            law_dir = tmp_path
        assert main(["law", "check", str(law_dir)]) == 0
        rows = self._tree_lines(capsys.readouterr().out)
        root = next(name for name, parent in parents.items() if parent is None)
        assert rows[0] == (0, root)
        assert sorted(name for _, name in rows) == sorted(parents)
        for i, (depth, name) in enumerate(rows[1:], start=1):
            # The nearest law above at one level less is the parent.
            above = next(n for d, n in reversed(rows[:i]) if d == depth - 1)
            assert above == parents[name]
        # Siblings print in name order.
        for parent in parents:
            kids = [n for _, n in rows if parents[n] == parent]
            assert kids == sorted(kids)

    def test_check_rejects_violations_with_kind(self, violation_dir, capsys):
        code = main(["law", "check", str(violation_dir / "cycle")])
        assert code == 1
        assert "CycleDetected" in capsys.readouterr().out

    def test_check_skips_dot_files(self, law_dir, tmp_path, capsys):
        # An editor's lock file beside a law it has open: a dangling
        # symlink named like a law, which the shell's *.law would skip.
        for file in law_dir.glob("*.law"):
            (tmp_path / file.name).write_text(file.read_text())
        (tmp_path / ".#S.law").symlink_to("user@host.1234:1700000000")
        (tmp_path / ".hidden.law").write_text("not a law")
        assert main(["law", "check", str(tmp_path)]) == 0
        assert capsys.readouterr().out.endswith("ok: 6 laws, root S\n")

    def test_check_names_a_law_file_that_is_a_directory(self, law_dir,
                                                         tmp_path, capsys):
        for file in law_dir.glob("*.law"):
            (tmp_path / file.name).write_text(file.read_text())
        (tmp_path / "Z.law").mkdir()
        assert main(["law", "check", str(tmp_path)]) == 1
        assert capsys.readouterr().out == (
            f"Z.law: unreadable ([Errno 21] Is a directory: "
            f"'{tmp_path / 'Z.law'}')\nrejected: {tmp_path}\n")

    def test_print_emits_canonical_text(self, law_dir, capsys):
        assert main(["law", "print", str(law_dir / "SB.law")]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("law SB extends S {")
        assert "sha256" in captured.err

    def test_print_of_an_unreadable_path_fails_in_one_line(self, tmp_path,
                                                           capsys):
        missing = tmp_path / "missing.law"
        assert main(["law", "print", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot read {missing}: ")
        assert captured.err.count("\n") == 1, captured.err

    def test_print_reports_parse_errors(self, tmp_path, capsys):
        bad = tmp_path / "bad.law"
        bad.write_text("law { }")
        assert main(["law", "print", str(bad)]) == 1


class TestRunCommand:
    def test_passing_scenario_exits_zero(self, scenario_dir):
        assert main(["run", str(scenario_dir / "sandbox.mds"),
                     "--seed", "3"]) == 0

    def test_audit_written_to_file(self, scenario_dir, tmp_path):
        audit = tmp_path / "trail.log"
        assert main(["run", str(scenario_dir / "sandbox.mds"),
                     "--seed", "3", "--audit", str(audit)]) == 0
        lines = audit.read_text().splitlines()
        assert lines and all(" | " in line for line in lines)

    def test_failing_expectation_exits_one(self, tmp_path, law_dir):
        script = tmp_path / "wrong.mds"
        script.write_text(
            f"scenario wrong\nlaw {law_dir}\n"
            "component a modules MS\ncomponent b modules OPS\n"
            "send a -> b op probe\nexpect delivered\n")
        assert main(["run", str(script)]) == 1


    def test_unparsable_served_law_fails_in_one_line(self, scenario_dir,
                                                     monkeypatch, capsys):
        real = fabric.LawServer.respond

        def respond(self, msg):
            reply = real(self, msg)
            if msg.name == "MS":
                reply = dataclasses.replace(
                    reply, text=reply.text.replace("permit;", "block;", 1))
            return reply

        monkeypatch.setattr(fabric.LawServer, "respond", respond)
        assert main(["run", str(scenario_dir / "crosscutting.mds")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("run failed: hash mismatch for fetched law 'MS'")

    @pytest.mark.parametrize("reply, reason", [
        (None, "connection closed with no reply"),
        (fabric.RegistryRecords(()), "law server sent no law_response")],
        ids=["closes", "wrong-kind"])
    def test_a_bad_law_server_reply_fails_in_one_line(
            self, scenario_dir, monkeypatch, capsys, reply, reason):
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(10.0)

            def serve():  # read the first fetch, then answer it badly
                conn, _ = listener.accept()
                with conn:
                    fabric.read_frame(conn)
                    if reply is not None:
                        conn.sendall(fabric.encode_frame(reply))

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            address = "{}:{}".format(*listener.getsockname())
            monkeypatch.setenv("MDS_LAW_SERVER", address)
            status = main(["run", str(scenario_dir / "sandbox.mds"),
                           "--mode", "tcp"])
            server.join(timeout=10.0)
        assert not server.is_alive()
        err = capsys.readouterr().err
        assert status == 1
        assert err == (f"run failed: cannot fetch 'MGMT' from {address}: "
                       f"{reason}\n")

    @pytest.mark.parametrize("change, message", [
        ({"found": False}, "law server lacks 'P'"),
        ({"algo": "md5"}, "law server hashes with 'md5'")],
        ids=["lacks-a-law", "other-hash"])
    def test_a_law_server_serving_other_laws_fails_in_one_line(
            self, scenario_dir, shipped, monkeypatch, capsys, change,
            message):
        server = fabric.LawServer(shipped)

        def respond(msg):  # every law but P as it is, or none with sha256
            reply = server.respond(msg)
            if msg.name == "P" or "algo" in change:
                reply = dataclasses.replace(reply, **change)
            return reply

        service = fabric.TcpService(respond)
        try:
            monkeypatch.setenv("MDS_LAW_SERVER",
                               "{}:{}".format(*service.address))
            status = main(["run", str(scenario_dir / "sandbox.mds"),
                           "--mode", "tcp"])
        finally:
            service.close()
        assert status == 1
        assert capsys.readouterr().err == f"run failed: {message}\n"

    def test_a_trickling_law_server_fails_within_the_call_timeout(
            self, scenario_dir, monkeypatch, capsys):
        """A reply that comes a byte at a time, each well within the time
        one read may take, still ends the call at ``CALL_TIMEOUT``."""
        monkeypatch.setattr(fabric, "CALL_TIMEOUT", 1.0)
        with socket.create_server(("127.0.0.1", 0)) as listener:
            listener.settimeout(10.0)

            def serve():  # promise 200 bytes, then send one each 0.2 s
                conn, _ = listener.accept()
                with conn:
                    fabric.read_frame(conn)
                    stop = time.monotonic() + 4.0
                    try:
                        conn.sendall(struct.pack(">I", 200))
                        while time.monotonic() < stop:
                            conn.sendall(b"\0")
                            time.sleep(0.2)
                    except OSError:  # the client gave up
                        pass

            server = threading.Thread(target=serve, daemon=True)
            server.start()
            address = "{}:{}".format(*listener.getsockname())
            monkeypatch.setenv("MDS_LAW_SERVER", address)
            start = time.monotonic()
            status = main(["run", str(scenario_dir / "sandbox.mds"),
                           "--mode", "tcp"])
            took = time.monotonic() - start
            server.join(timeout=10.0)
        err = capsys.readouterr().err
        assert status == 1
        assert err == (f"run failed: cannot fetch 'MGMT' from {address}: "
                       f"timed out\n")
        assert took < fabric.CALL_TIMEOUT + 1.0

    @pytest.mark.parametrize("where", ["refused", "unresolvable"])
    def test_an_unreachable_law_server_fails_in_one_line(
            self, scenario_dir, monkeypatch, capsys, where):
        if where == "refused":  # a port bound and closed again
            with socket.create_server(("127.0.0.1", 0)) as listener:
                address = "{}:{}".format(*listener.getsockname())
        else:  # a stand-in resolver, so that no name server is asked
            address = "lawserver.invalid:4000"
            real = socket.getaddrinfo

            def getaddrinfo(host, *args, **kwargs):
                if host == "lawserver.invalid":
                    raise socket.gaierror(socket.EAI_NONAME,
                                          "Name or service not known")
                return real(host, *args, **kwargs)

            monkeypatch.setattr(socket, "getaddrinfo", getaddrinfo)
        monkeypatch.setenv("MDS_LAW_SERVER", address)
        assert main(["run", str(scenario_dir / "sandbox.mds"),
                     "--mode", "tcp"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(
            f"run failed: cannot fetch 'MGMT' from {address}: "), err

    def test_an_advance_too_long_to_sleep_fails_in_one_line(
            self, tmp_path, law_dir, capsys):
        script = tmp_path / "long.mds"
        script.write_text(f"scenario long\nlaw {law_dir}\n"
                          "component a modules MS\n"
                          "advance 99999999999999999999\n")
        assert main(["run", str(script)]) == 0  # sim only moves its clock
        assert "-> t=99999999999999999999" in capsys.readouterr().out
        assert main(["run", str(script), "--mode", "tcp"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith(
            "run failed: line 4: advance 99999999999999999999: "), err

    def test_a_message_too_big_for_the_wire_fails_a_tcp_run_in_one_line(
            self, tmp_path, law_dir, capsys):
        script = tmp_path / "big.mds"
        payload = "x" * (fabric.MAX_FRAME + 10)
        script.write_text(f"scenario big\nlaw {law_dir}\n"
                          "component a modules MS\ncomponent b modules MS\n"
                          f'send a -> b op retrieve payload "{payload}"\n')
        assert main(["run", str(script)]) == 0  # sim encodes no frame
        capsys.readouterr()
        assert main(["run", str(script), "--mode", "tcp"]) == 1
        assert capsys.readouterr().err == (
            "run failed: line 5: frame body too large\n")

    @pytest.mark.parametrize("port", [
        "²", "0", "70000", pytest.param("9" * 5000, id="5000-digits")])
    @pytest.mark.parametrize("env", ["MDS_LAW_SERVER", "MDS_REGISTRY"])
    def test_a_bad_service_port_fails_in_one_line(self, scenario_dir,
                                                  monkeypatch, capsys, env,
                                                  port):
        # "²" passes str.isdigit, the resolver wraps 70000 to 4464, and
        # int() refuses more than 4,300 digits
        monkeypatch.setenv(env, f"127.0.0.1:{port}")
        assert main(["run", str(scenario_dir / "sandbox.mds"),
                     "--mode", "tcp"]) == 1
        assert capsys.readouterr().err == (
            f"run failed: bad address '127.0.0.1:{port}', expected "
            f"host:port with a port of 1-65535\n")


class TestNotUtf8:
    """A file that is not UTF-8 ends each command in one line, exit 1."""

    LATIN1 = "# caf\xe9\n".encode("latin-1")

    @pytest.fixture
    def bad_law_dir(self, law_dir, tmp_path):
        for law in law_dir.glob("*.law"):
            (tmp_path / law.name).write_bytes(law.read_bytes())
        (tmp_path / "X.law").write_bytes(b"law X extends S {\n  "
                                         + self.LATIN1 + b"}\n")
        return tmp_path

    def test_run_scenario(self, law_dir, tmp_path, capsys):
        script = tmp_path / "bad.mds"
        script.write_bytes(f"scenario bad\r\nlaw {law_dir}\r\n\r".encode()
                           + self.LATIN1)
        assert main(["run", str(script)]) == 1
        assert capsys.readouterr().err == (
            "run failed: line 4: not UTF-8 (byte 0xe9) at column 6\n")

    def test_run_law_dir(self, bad_law_dir, capsys):
        script = bad_law_dir / "ok.mds"
        script.write_text(f"scenario ok\nlaw {bad_law_dir}\n")
        assert main(["run", str(script)]) == 1
        assert capsys.readouterr().err == (
            "run failed: law directory rejected:\n"
            "  X.law: not UTF-8 (byte 0xe9) at line 2, column 8\n")

    def test_law_check(self, bad_law_dir, capsys):
        assert main(["law", "check", str(bad_law_dir)]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "X.law: not UTF-8 (byte 0xe9) at line 2, column 8",
            f"rejected: {bad_law_dir}"]

    def test_law_print(self, bad_law_dir, capsys):
        law = bad_law_dir / "X.law"
        assert main(["law", "print", str(law)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"{law}: not UTF-8 (byte 0xe9) at line 2, column 8\n")


class TestOtherCommands:
    def test_fuzz_small_batch(self, capsys):
        assert main(["fuzz", "--trials", "10", "--seed", "1"]) == 0
        assert "agree" in capsys.readouterr().out

    def test_fuzz_reports_a_refused_adoption(self, monkeypatch, capsys):
        """Production refusing what the oracle adopts is a disagreement,
        and the run ends with exit 1, not a traceback."""
        def refuse(*args, **kwargs):
            return None, Ruling(Decision.BLOCK_NOTICE, "-", "refused", (), ())

        monkeypatch.setattr(oracle, "adopt", refuse)
        assert main(["fuzz", "--trials", "3", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == "3 disagreement(s)"
        assert all(": adoption c0@" in line and "prod ('block', '-')" in line
                   for line in lines[1:-1])

    @staticmethod
    def _first_system():
        """The seed and first adoption of ``fuzz --seed 1``'s first trial,
        with the token the oracle decides that adoption by."""
        seed = random.Random(1).getrandbits(48)
        system = oracle.generate_system(seed)
        first = next(oracle.replay(system.laws, system.components,
                                   system.script))
        return seed, "{}@{}".format(*first.persona), first.token

    def test_fuzz_reports_an_adoption_only_the_oracle_refuses(
            self, monkeypatch, capsys):
        seed, persona, token = self._first_system()
        real = oracle.oracle_evaluate

        def oracle_evaluate(laws, leaf, state, cert_attrs, ev):
            verdict, matched, state = real(laws, leaf, state, cert_attrs, ev)
            if ev.event is EventKind.ADOPTED:
                verdict = "block"
            return verdict, matched, state

        monkeypatch.setattr(oracle, "oracle_evaluate", oracle_evaluate)
        assert main(["fuzz", "--trials", "1", "--seed", "1"]) == 1
        assert capsys.readouterr().out.splitlines()[1:] == [
            f"seed {seed}: oracle refused adoption {persona} via {token}",
            "1 disagreement(s)"]

    def test_fuzz_reports_a_rejected_generated_hierarchy(self, monkeypatch,
                                                         capsys):
        seed, _, _ = self._first_system()
        monkeypatch.setattr(oracle, "build_hierarchy", lambda laws: (None, [
            ConformanceViolation(ViolationKind.CYCLE_DETECTED, "L0", ""),
            ConformanceViolation(ViolationKind.MULTIPLE_ROOTS, "L0", "")]))
        assert main(["fuzz", "--trials", "1", "--seed", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("trials 1, events compared 0, ")
        assert lines[1:] == [
            f"seed {seed}: generated hierarchy rejected: "
            "CycleDetected; MultipleRoots",
            "1 disagreement(s)"]

    def test_bench_tiny(self, law_dir, capsys):
        assert main(["bench", "--events", "400",
                     "--laws", str(law_dir)]) == 0
        assert "median per event" in capsys.readouterr().out

    def test_bench_p99_is_the_nearest_rank(self, law_dir, monkeypatch):
        """0.99 of 30 samples is 29.7, so p99 is the 30th: the largest."""
        rounds = iter(range(bench.ROUNDS))

        def timed_round(h, events):  # 1-30 us across the three rounds
            first = next(rounds) * events + 1
            return [1000 * us for us in range(first, first + events)], 0

        monkeypatch.setattr(bench, "_timed_round", timed_round)
        assert bench.run_bench(events=10, law_dir=str(law_dir)).p99_us == 30

    def test_usage_error_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["law", "frobnicate"])
        assert err.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["bench", "--events", "0"], ["fuzz", "--trials", "-3"],
        # int() reads "\u0663" (Arabic-Indic three) as 3
        ["bench", "--events", "\u0663"], ["fuzz", "--trials", "\u0663"]],
        ids=["bench", "fuzz", "bench-arabic-indic-3", "fuzz-arabic-indic-3"])
    def test_a_count_below_one_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"must be at least 1, not {argv[2]}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "fuzz"])
    @pytest.mark.parametrize("seed", [
        # int() reads each of the first four as a seed: 1, 10, 7 and 3
        pytest.param("\u0661", id="arabic-indic-1"),
        pytest.param("1_0", id="underscore"),
        pytest.param(" 7", id="leading-space"),
        "+3", "--5"])
    def test_a_seed_that_is_not_a_plain_integer_is_a_usage_error(
            self, scenario_dir, command, seed, capsys):
        argv = (["run", str(scenario_dir / "sandbox.mds")]
                if command == "run" else ["fuzz", "--trials", "1"])
        with pytest.raises(SystemExit) as err:
            main(argv + [f"--seed={seed}"])
        assert err.value.code == 2
        assert f"must be an integer, not {seed}" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", ["-3", "0"])
    def test_a_negative_or_zero_seed_runs(self, scenario_dir, seed, capsys):
        assert main(["run", str(scenario_dir / "sandbox.mds"),
                     "--seed", seed]) == 0
        assert f" seed={int(seed)}\n" in capsys.readouterr().out

    def test_bench_with_a_law_that_refuses_adoption_fails_in_one_line(
            self, law_dir, tmp_path, capsys):
        for law in law_dir.glob("*.law"):
            (tmp_path / law.name).write_bytes(law.read_bytes())
        (tmp_path / "MS.law").write_text(
            'law MS extends S { profile [log]; categorical rule gate on '
            'adopted if not cert.dept == "x" { block; } }\n')
        assert main(["bench", "--events", "10", "--laws", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "bench failed: adopt m1@MS: refused (adoption blocked)\n")

    def test_bench_without_laws_fails_in_one_line(self, tmp_path, capsys):
        assert main(["bench", "--events", "10", "--laws", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            "bench failed: law directory rejected: no .law files found\n")

    @pytest.mark.parametrize("needed", ["MS", "OPS"])
    def test_bench_without_ms_or_ops_fails_in_one_line(
            self, law_dir, tmp_path, capsys, needed):
        for law in law_dir.glob("*.law"):
            if law.stem != needed:
                (tmp_path / law.name).write_bytes(law.read_bytes())
        assert main(["bench", "--events", "10", "--laws", str(tmp_path)]) == 1
        assert capsys.readouterr().err == (
            f"bench failed: law directory has no law named {needed}\n")

    def test_unwritable_audit_fails_in_one_line(self, scenario_dir,
                                                tmp_path, capsys):
        audit = tmp_path / "missing" / "trail.audit"
        assert main(["run", str(scenario_dir / "sandbox.mds"),
                     "--audit", str(audit)]) == 1
        assert capsys.readouterr().err == (
            f"cannot write audit {audit}: No such file or directory\n")


class TestServeCommands:
    """A port the service cannot listen on ends in one line, never in a
    traceback."""

    @pytest.fixture(params=["registry", "lawserver"])
    def serve(self, request, law_dir):
        if request.param == "registry":
            return ["registry", "serve"]
        return ["lawserver", "serve", str(law_dir)]

    @pytest.mark.parametrize("port", [
        "70000", "-1",
        # int() reads each of these as a port: 80, 10 and 80
        pytest.param("\u0668\u0660", id="arabic-indic-80"),
        pytest.param("1_0", id="underscore"),
        pytest.param(" 80", id="leading-space")])
    def test_a_port_out_of_range_is_a_usage_error(self, serve, port, capsys):
        with pytest.raises(SystemExit) as err:
            main(serve + ["--port", port])
        assert err.value.code == 2
        assert f"must be 0-65535, not {port}" in capsys.readouterr().err

    def test_a_rejected_law_directory_fails_in_one_line(self, tmp_path,
                                                        capsys):
        assert main(["lawserver", "serve", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "no .law files found\n"

    def test_a_port_in_use_fails_in_one_line(self, serve, capsys):
        with socket.create_server(("127.0.0.1", 0)) as taken:
            port = taken.getsockname()[1]
            assert main(serve + ["--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot listen on 127.0.0.1:{port}: ")
        assert err.count("\n") == 1, err

    def test_an_interrupt_stops_the_service_cleanly(self, serve):
        """SIGINT ends a service with exit 0 and no traceback, and its
        port refuses connections once it has gone."""
        src = str(Path(mds.__file__).resolve().parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "mds.cli", *serve, "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=dict(os.environ, PYTHONPATH=src))
        try:
            line = proc.stdout.readline()
            found = re.fullmatch(r".* listening on (.+):(\d+)\n", line)
            assert found, line
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert (proc.returncode, out, err) == (0, "", "")
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection(
                (found[1], int(found[2])), timeout=5).close()
