"""Scenario execution: build the system a script describes, then drive it.

The runner drives one transport interface (``fabric.SimNetwork`` or
``fabric.TcpNetwork``); the mode picks which, and nothing after assembly
depends on it.  ``run_until_idle`` returns the receiver's ruling from the
delivery that made it, so a step reports the ruling on its own message,
and a handler failure raises out of the step in both modes.  In ``sim``
mode messages travel a deterministic in-process network whose logical
clock moves by latencies it draws from the run's seed, so a scenario plus
a seed fixes the audit byte for byte.  In ``tcp`` mode every frame
crosses the network's one own loopback connection, and every adopted
persona listens for outside peers, whose controller messages alone
``fabric`` hands on, to be ruled on its service thread.  So each ruling
and its audit line run under the runner's one lock, which no socket I/O
is ever done under: a ruling is a function of the agent's state only
while no other ruling writes that state.  Unless ``MDS_LAW_SERVER`` names
one, the law server a tcp run fetches its laws from is served by that
same service, until the run closes.

Adoption is ruled as a send or an arrival is: ``adopt`` returns a refusal
as a block-notice ruling with no agent, and the runner audits and reports
each persona's adoption from its ruling alike.

Either way the run leaves an audit trail, one line per controller event:

    ts | agent | event | flow | decision | matched

with ``matched`` the ruling's own token: the deciding rule as LAW:rule, the
built-in fallback as default:FLOW, or ``-`` for a malformed envelope.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Union

from . import fabric, law_lang
from .conformance import build_hierarchy
from .controller import (OUTSIDE, Agent, BareInbound, Decision, Envelope,
                         NOTIFY_REGISTRY, adopt, handle_arrive, handle_send,
                         issue_certificate)
from .model import (FlowKind, Law, LawHierarchy, UnknownLawError, not_utf8,
                    unsigned_decimal)
from .scenario import (BLOCKED_AT_RECEIVER, BLOCKED_AT_SENDER, DELIVERED,
                       AdvanceStep, Scenario, SendStep, load_scenario)

ENV_LAW_SERVER = "MDS_LAW_SERVER"
ENV_REGISTRY = "MDS_REGISTRY"


class RunnerError(RuntimeError):
    pass


# bound once, as in ``controller``: a read through the class is slow on 3.10-11
_DELIVER, _BLOCK_NOTICE = Decision.DELIVER, Decision.BLOCK_NOTICE


def load_law_dir(path: Union[str, Path]) -> tuple[list[Law], list[str]]:
    """Parse every *.law file in path whose name does not start with a dot,
    as the shell's ``*.law`` reads them.  Returns (laws, problems).

    One memo serves every parse of the load, so a clause tail, guard or
    body spelled alike in several laws is parsed once and shared, and a
    shared guard or body is printed once (``law_lang.parse_law``).
    Name clashes are left in the list on purpose; the conformance check
    reports them with the other hierarchy violations.
    """
    laws: list[Law] = []
    problems: list[str] = []
    memo: dict = {}
    for file in sorted(Path(path).glob("*.law")):
        if file.name.startswith("."):  # an editor's lock or backup file
            continue
        try:
            text = file.read_text(encoding="utf-8")
        except OSError as exc:
            problems.append(f"{file.name}: unreadable ({exc})")
            continue
        except UnicodeDecodeError as exc:
            line, col, what = not_utf8(exc)
            problems.append(f"{file.name}: {what} at line {line}, "
                            f"column {col}")
            continue
        try:
            law = law_lang.parse_law(text, str(file), memo)
        except law_lang.LawParseError as exc:
            problems.extend(
                f"{file.name}:{d.line}:{d.col}: {d.message}"
                for d in exc.diagnostics)
            continue
        laws.append(law)
    return laws, problems


def check_law_dir(path: Union[str, Path]) -> tuple[Optional[LawHierarchy], list[str]]:
    """Parse and conformance-check a law directory."""
    laws, problems = load_law_dir(path)
    if problems:
        return None, problems
    if not laws:
        return None, ["no .law files found"]
    h, violations = build_hierarchy(laws)
    if h is None:
        return None, [f"{v.kind.value}: {v.law}: {v.detail}" for v in violations]
    return h, []


def _service_address(var: str) -> Optional[tuple[str, int]]:
    """The host:port environment variable ``var`` names; None if unset."""
    text = os.environ.get(var)
    if not text:
        return None
    host, sep, digits = text.rpartition(":")
    port = unsigned_decimal(digits) if sep else None
    if port is None or not 1 <= port <= 65535:  # a resolver wraps 65536 to 0
        raise RunnerError(f"bad address {text!r}, expected host:port "
                          f"with a port of 1-65535")
    return host, port


@dataclass
class StepReport:
    line: int
    text: str
    ok: bool


@dataclass
class RunReport:
    scenario: str
    mode: str
    seed: int
    ok: bool
    steps: list[StepReport]
    audit_lines: list[str]

    def failures(self) -> list[StepReport]:
        return [s for s in self.steps if not s.ok]


class ScenarioRunner:
    """One scenario, assembled and executed."""

    def __init__(self, scn: Scenario, base_dir: Union[str, Path],
                 mode: str = "sim", seed: int = 0):
        if mode not in ("sim", "tcp"):
            raise RunnerError(f"unknown mode {mode!r}")
        self.scn = scn
        self.mode = mode
        self.seed = seed
        self.audit: list[str] = []
        self.reports: list[StepReport] = []
        self.outbound: list[tuple[str, str, bytes]] = []  # left the system
        self._lock = threading.Lock()  # one ruling at a time, see above

        law_dir = (Path(base_dir) / scn.law_dir).resolve()
        h0, problems = check_law_dir(law_dir)
        if h0 is None:
            raise RunnerError("law directory rejected:\n  " +
                              "\n  ".join(problems))
        self.h = h0
        self.registry = fabric.Registry()
        self._remote_registry = (_service_address(ENV_REGISTRY)
                                 if mode == "tcp" else None)
        self.decls = {d.name: d for d in scn.components}
        self.agents: dict[str, Agent] = {}
        self.net = (fabric.SimNetwork(seed) if mode == "sim"
                    else fabric.TcpNetwork())
        try:
            self._distribute(h0)
            self._adopt_all()
        except BaseException:
            self.net.close()
            raise

    # -- law distribution ---------------------------------------------------

    def _distribute(self, h0: LawHierarchy):
        """Re-obtain every law through the law server and check it against
        ``h0``, the hierarchy it was served from.  A tcp run fetches from
        ``MDS_LAW_SERVER``, or else from a law server on its own network's
        service, which serves it until the run closes: one ``call_remote``
        for every law, on one connection.  The replies are checked in name
        order, and the first law whose reply is not a law_response, or did
        not come before the server ended the stream, fails the run."""
        names = sorted(h0.laws)
        fetches = map(fabric.LawFetch, names)
        if self.mode == "sim":
            replies = map(fabric.LawServer(h0).respond, fetches)
            where = "the law server"
        else:
            addr = (_service_address(ENV_LAW_SERVER)
                    or self.net.serve(fabric.LawServer(h0).respond))
            where = f"{addr[0]}:{addr[1]}"
            try:
                replies = fabric.call_remote(addr, *fetches)
            except (fabric.FrameError, OSError) as exc:
                raise RunnerError(f"cannot fetch {names[0]!r} from "
                                  f"{where}: {exc}") from exc
        for name, resp in itertools.zip_longest(names, replies):
            if not isinstance(resp, fabric.LawResponse):
                why = ("law server sent no law_response" if resp is not None
                       else "connection closed with no reply")
                raise RunnerError(f"cannot fetch {name!r} from {where}: {why}")
            if not resp.found:
                raise RunnerError(f"law server lacks {name!r}")
            if resp.algo != law_lang.HASH_ALGORITHM:
                raise RunnerError(f"law server hashes with {resp.algo!r}")
            if resp.lineage != h0.lineage[name]:
                raise RunnerError(f"lineage mismatch for fetched law {name!r}")
            if law_lang.text_hash(resp.text) != h0.law(name).hash:
                raise RunnerError(f"hash mismatch for fetched law {name!r}")

    # -- assembly -----------------------------------------------------------

    def _adopt_all(self):
        for decl in self.scn.components:
            cert = issue_certificate(decl.name, decl.attributes())
            for module in decl.modules:
                label = f"{decl.name}@{module}"
                try:
                    agent, ruling = adopt(decl.name, self.h, module, cert=cert)
                except UnknownLawError:
                    raise RunnerError(f"component {decl.name}: no module "
                                      f"{module!r} in {self.scn.law_dir}"
                                      ) from None
                if agent is None:
                    verdict, text = "refused", f"refused ({ruling.reason})"
                else:
                    self.agents[label] = agent
                    address = self.net.register(
                        label, functools.partial(self._deliver, label, agent))
                    if NOTIFY_REGISTRY in ruling.effects:
                        self._register(decl.name, module, address)
                    verdict = text = "adopted"
                with self._lock:
                    self._audit_line(label, "adopted", None, verdict,
                                     ruling.matched)
                self.reports.append(StepReport(0, f"adopt {label}: {text}",
                                               True))

    def _register(self, component: str, module: str, address: str):
        self.registry.register(component, module, address)
        if self._remote_registry is not None:
            try:
                fabric.call_remote(
                    self._remote_registry,
                    fabric.Registration(component=component, module=module,
                                        address=address))
            except (fabric.FrameError, OSError):  # best effort: stop trying
                self._remote_registry = None

    # -- delivery -----------------------------------------------------------

    def _deliver(self, label: str, agent: Agent,
                 msg: Union[Envelope, BareInbound]) -> tuple[Decision, str]:
        # acquire and release, not ``with``: ``with`` makes a bound
        # ``__exit__`` each time, and the two rulings of a step take the lock
        self._lock.acquire()
        try:
            ruling, _delivery = handle_arrive(agent, msg)
            self._audit_line(label, "arrived", ruling.flow,
                             ruling.decision._value_, ruling.matched)
        finally:
            self._lock.release()
        return ruling.decision, ruling.matched

    def _audit_line(self, agent_label: str, event: str,
                    flow: Optional[FlowKind], decision: str, matched: str):
        """Append one audit line; the caller holds the lock."""
        ts = self.net.now()
        flow_tok = flow._value_ if flow is not None else "-"
        self.audit.append(
            f"{ts} | {agent_label} | {event} | {flow_tok} | {decision}"
            f" | {matched}")

    def _transmit(self, label: str, msg: fabric.WireMessage) -> tuple[str, str]:
        """Send msg to a persona, wait for its arrival ruling, and return
        (outcome, matched token)."""
        self.net.send(label, msg)
        decision, token = self.net.run_until_idle()
        if decision is _DELIVER:
            return DELIVERED, token
        return BLOCKED_AT_RECEIVER, token

    # -- steps --------------------------------------------------------------

    def run(self) -> RunReport:
        try:
            for step in self.scn.steps:
                if isinstance(step, AdvanceStep):
                    try:
                        text = self.net.advance(step.ticks)
                    except OverflowError as exc:  # tcp sleeps; sim counts
                        raise RunnerError(f"line {step.line}: advance "
                                          f"{step.ticks}: {exc}") from None
                    self.reports.append(StepReport(step.line, text, True))
                else:
                    try:
                        self._send_step(step)
                    except fabric.FrameError as exc:  # sim carries no frames
                        raise RunnerError(f"line {step.line}: {exc}") from None
        finally:
            self.net.close()
        ok = all(r.ok for r in self.reports)
        return RunReport(scenario=self.scn.name, mode=self.mode,
                         seed=self.seed, ok=ok, steps=self.reports,
                         audit_lines=list(self.audit))

    def _persona(self, name: str, explicit: Optional[str]) -> str:
        module = (explicit if explicit is not None
                  else self.decls[name].modules[0])
        label = f"{name}@{module}"
        if label not in self.agents:
            raise RunnerError(f"{label} refused adoption; cannot take part")
        return label

    def _send_step(self, step: SendStep):
        if step.from_outside:
            tlabel = self._persona(step.target, step.target_law)
            outcome, matched = self._transmit(tlabel, BareInbound(
                sender_address=step.sender, operation=step.operation,
                payload=step.payload))
        else:
            slabel = self._persona(step.sender, step.sender_law)
            agent = self.agents[slabel]
            if step.target in self.decls:
                tlabel = self._persona(step.target, step.target_law)
                locus: object = self.agents[tlabel].law
            else:
                tlabel = None
                locus = OUTSIDE
            self._lock.acquire()  # not ``with``: see _deliver
            try:
                ruling, env = handle_send(agent, step.operation,
                                          step.payload, step.target, locus)
                matched = ruling.matched
                self._audit_line(slabel, "sent", ruling.flow,
                                 ruling.decision._value_, matched)
            finally:
                self._lock.release()
            if ruling.decision is _BLOCK_NOTICE:
                outcome = BLOCKED_AT_SENDER
            elif tlabel is None:
                self.outbound.append((step.target, step.operation,
                                      step.payload))
                outcome = DELIVERED
            else:
                assert env is not None
                outcome, matched = self._transmit(tlabel, env)

        want_outcome, want_matched = step.expect_outcome, step.expect_matched
        if want_outcome is None:
            ok, verdict = True, ""
        elif want_outcome == outcome and (want_matched is None
                                          or want_matched == matched):
            ok, verdict = True, " [ok]"
        else:
            ok = False
            want = f" matched {want_matched}" if want_matched else ""
            verdict = f" [FAIL expected {want_outcome}{want}]"
        text = (
            f"{'outsidesend' if step.from_outside else 'send'} "
            f"{step.sender}{'@' if step.sender_law else ''}"
            f"{step.sender_law or ''} -> "
            f"{step.target}{'@' if step.target_law else ''}"
            f"{step.target_law or ''} op {step.operation}: {outcome}"
            f"{'' if matched == '-' else ' matched=' + matched}{verdict}")
        self.reports.append(StepReport(step.line, text, ok))


def run_scenario(path: Union[str, Path], mode: str = "sim",
                 seed: int = 0) -> RunReport:
    path = Path(path)
    scn = load_scenario(str(path))
    runner = ScenarioRunner(scn, base_dir=path.parent, mode=mode, seed=seed)
    return runner.run()
