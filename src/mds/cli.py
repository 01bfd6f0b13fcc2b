"""Command line entry points.

Exit codes: 0 on success, 1 when a check or run fails, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Optional

from . import bench as bench_mod
from . import fabric, law_lang
from .model import not_utf8, unsigned_decimal
from .oracle import run_differential
from .runner import RunnerError, check_law_dir, run_scenario
from .scenario import ScenarioError


def _cmd_law_check(args) -> int:
    h, problems = check_law_dir(args.directory)
    if h is None:
        for problem in problems:
            print(problem)
        print(f"rejected: {args.directory}")
        return 1
    # Depth first from the root, children by name.
    for name in sorted(h.laws, key=h.path):
        depth = len(h.lineage[name]) - 1
        print(f"{'  ' * depth}{name}  {h.laws[name].hash[:12]}")
    print(f"ok: {len(h.laws)} laws, root {h.root}")
    return 0


def _cmd_law_print(args) -> int:
    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        print(f"cannot read {path}: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        line, col, what = not_utf8(exc)
        print(f"{path}: {what} at line {line}, column {col}", file=sys.stderr)
        return 1
    try:
        law = law_lang.parse_law(text, str(path))
    except law_lang.LawParseError as exc:
        for diag in exc.diagnostics:
            print(f"{path}:{diag}", file=sys.stderr)
        return 1
    sys.stdout.write(law.text)
    print(f"# {law_lang.HASH_ALGORITHM}: {law.hash}", file=sys.stderr)
    return 0


def _cmd_run(args) -> int:
    try:
        report = run_scenario(args.scenario, mode=args.mode, seed=args.seed)
    except (RunnerError, ScenarioError, OSError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return 1
    print(f"scenario {report.scenario} mode={report.mode} seed={report.seed}")
    for step in report.steps:
        print(step.text)
    if args.audit:
        audit_path = Path(args.audit)
        try:
            audit_path.write_text("".join(line + "\n"
                                          for line in report.audit_lines),
                                  encoding="utf-8")
        except OSError as exc:
            print(f"cannot write audit {audit_path}: {exc.strerror}",
                  file=sys.stderr)
            return 1
        print(f"audit written to {audit_path} "
              f"({len(report.audit_lines)} lines)")
    failures = report.failures()
    if failures:
        print(f"{len(failures)} expectation(s) failed")
        return 1
    print("all expectations met")
    return 0


def _cmd_fuzz(args) -> int:
    report = run_differential(trials=args.trials, seed=args.seed)
    print(f"trials {report.trials}, events compared {report.events_compared}, "
          f"elapsed {report.elapsed:.1f}s")
    if report.disagreements:
        for detail in report.disagreements[:20]:
            print(detail)
        print(f"{len(report.disagreements)} disagreement(s)")
        return 1
    print("evaluators agree on every trial")
    return 0


def _cmd_bench(args) -> int:
    try:
        report = bench_mod.run_bench(events=args.events, law_dir=args.laws)
    except RunnerError as exc:
        print(f"bench failed: {exc}", file=sys.stderr)
        return 1
    for line in report.lines():
        print(line)
    return 0 if report.within_budget else 1


def _serve_forever(args, what: str, handler: fabric.Handler) -> int:
    try:
        service = fabric.TcpService(handler, args.host, args.port)
    except OSError as exc:
        print(f"cannot listen on {args.host}:{args.port}: "
              f"{exc.strerror or exc}", file=sys.stderr)
        return 1
    try:  # an interrupt as soon as the line is out still closes the service
        host, port = service.address
        print(f"{what} listening on {host}:{port}", flush=True)
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        return 0
    finally:
        service.close()


def _cmd_registry_serve(args) -> int:
    return _serve_forever(args, "registry", fabric.Registry().respond)


def _cmd_lawserver_serve(args) -> int:
    h, problems = check_law_dir(args.directory)
    if h is None:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 1
    return _serve_forever(args, "law server", fabric.LawServer(h).respond)


def positive_int(text: str) -> int:
    """argparse type of a count: an integer of at least 1."""
    n = unsigned_decimal(text)
    if n is None or n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {text}")
    return n


def seed_number(text: str) -> int:
    """argparse type of a seed: an optional '-', then ASCII digits."""
    sign = -1 if text.startswith("-") else 1
    n = unsigned_decimal(text[1:] if sign < 0 else text)
    if n is None:
        raise argparse.ArgumentTypeError(f"must be an integer, not {text}")
    return sign * n


def port_number(text: str) -> int:
    """argparse type of a TCP port: 0 (any free port) to 65535."""
    n = unsigned_decimal(text)
    if n is None or n > 65535:
        raise argparse.ArgumentTypeError(f"must be 0-65535, not {text}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mds",
        description="Modular distributed systems: laws, controllers, "
                    "simulation.")
    sub = parser.add_subparsers(dest="command", required=True)

    law = sub.add_parser("law", help="inspect and validate laws")
    law_sub = law.add_subparsers(dest="law_command", required=True)
    check = law_sub.add_parser("check", help="validate a law directory")
    check.add_argument("directory")
    check.set_defaults(func=_cmd_law_check)
    pr = law_sub.add_parser("print", help="print a law in canonical form")
    pr.add_argument("file")
    pr.set_defaults(func=_cmd_law_print)

    run = sub.add_parser("run", help="execute a scenario")
    run.add_argument("scenario")
    run.add_argument("--mode", choices=("sim", "tcp"), default="sim")
    run.add_argument("--seed", type=seed_number, default=0)
    run.add_argument("--audit", help="write the audit trail to this file")
    run.set_defaults(func=_cmd_run)

    fuzz = sub.add_parser("fuzz",
                          help="differential-test the two evaluators")
    fuzz.add_argument("--trials", type=positive_int, default=100)
    fuzz.add_argument("--seed", type=seed_number, default=0)
    fuzz.set_defaults(func=_cmd_fuzz)

    bench = sub.add_parser("bench", help="time the enforcement hot path")
    bench.add_argument("--events", type=positive_int, default=100_000)
    bench.add_argument("--laws", default="laws",
                       help="law directory to load (default: laws)")
    bench.set_defaults(func=_cmd_bench)

    registry = sub.add_parser("registry", help="component directory service")
    registry_sub = registry.add_subparsers(dest="registry_command",
                                           required=True)
    rserve = registry_sub.add_parser("serve")
    rserve.add_argument("--host", default="127.0.0.1")
    rserve.add_argument("--port", type=port_number, default=0)
    rserve.set_defaults(func=_cmd_registry_serve)

    lawserver = sub.add_parser("lawserver", help="law distribution service")
    lawserver_sub = lawserver.add_subparsers(dest="lawserver_command",
                                             required=True)
    lserve = lawserver_sub.add_parser("serve")
    lserve.add_argument("directory")
    lserve.add_argument("--host", default="127.0.0.1")
    lserve.add_argument("--port", type=port_number, default=0)
    lserve.set_defaults(func=_cmd_lawserver_serve)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
