"""Seeded workload generators for the scenario benchmark.

Each generator turns (workload, seed) into the inputs a user of ``mds run``
would write by hand: a scenario script and, for ``deep-law``, a law
directory.  The program under test only ever sees that text.

Before anything is timed, every generated script is replayed through the
interpretive evaluator in ``mds.oracle`` (``oracle_evaluate`` and
``oracle_flow``), and the replay's verdict is written under each send as
``expect OUTCOME matched TOKEN``.  The runner then checks every step
against a reference that shares none of the production rule-scan code.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from mds import law_lang
from mds.model import EventKind, FlowKind, Law
from mds.oracle import OracleEvent, oracle_evaluate, oracle_flow

WORKLOADS = ("sim-mix", "tcp-mix", "deep-law")

MODES = {"sim-mix": "sim", "tcp-mix": "tcp", "deep-law": "sim"}

# Send steps per generated script.  Every repetition of a run replays the
# same script through a fresh runner, so these also fix the size of one
# set-up's scenario text.
STEPS = {"sim-mix": 3000, "tcp-mix": 1500, "deep-law": 1200}


@dataclass(frozen=True)
class Send:
    sender: str
    sender_module: Optional[str]   # None: an outside party sends
    target: str
    target_module: Optional[str]   # None: the target is outside
    operation: str
    payload: str


@dataclass
class Expected:
    outcome: str
    token: str
    sender_flow: Optional[FlowKind]
    sender_verdict: Optional[str]
    receiver_flow: Optional[FlowKind]
    receiver_verdict: Optional[str]


@dataclass
class Workload:
    name: str
    seed: int
    mode: str
    law_texts: dict[str, str]           # file name -> text; empty: shipped laws
    components: list[tuple[str, tuple[str, ...]]]
    outsides: tuple[str, ...]
    sends: list[Send]
    expected: list[Expected] = field(default_factory=list)

    def scenario_text(self, law_dir: str) -> str:
        lines = [f"scenario {self.name}-{self.seed}", f"law {law_dir}"]
        for name, modules in self.components:
            lines.append(f"component {name} modules {','.join(modules)}")
        for name in self.outsides:
            lines.append(f"outside {name}")
        for send, exp in zip(self.sends, self.expected, strict=True):
            src = (send.sender if send.sender_module is None
                   else f"{send.sender}@{send.sender_module}")
            dst = (send.target if send.target_module is None
                   else f"{send.target}@{send.target_module}")
            verb = "outsidesend" if send.sender_module is None else "send"
            lines.append(f'{verb} {src} -> {dst} op {send.operation} '
                         f'payload "{send.payload}"')
            lines.append(f"expect {exp.outcome} matched {exp.token}")
        return "\n".join(lines) + "\n"

    def digests(self) -> dict[str, str]:
        """sha256 of the scenario text and of the concatenated law texts."""
        laws = "".join(f"{k}\n{v}" for k, v in sorted(self.law_texts.items()))
        return {
            "scenario": hashlib.sha256(
                self.scenario_text("laws").encode()).hexdigest()[:16],
            "laws": (hashlib.sha256(laws.encode()).hexdigest()[:16]
                     if laws else "shipped laws/"),
        }

    def shape(self) -> dict:
        """Flow mix and verdict shares of the expected run, by side."""
        kinds = Counter()
        sender = Counter()
        receiver = Counter()
        for exp in self.expected:
            if exp.sender_flow is None:
                kinds["import"] += 1
            elif exp.sender_flow is FlowKind.OUTFLOW:
                kinds["outflow/inflow"] += 1
            else:
                kinds[exp.sender_flow.value] += 1
            if exp.sender_verdict is not None:
                sender["forward" if exp.sender_verdict == "permit"
                       else "block-notice"] += 1
            if exp.receiver_verdict is not None:
                receiver["deliver" if exp.receiver_verdict == "permit"
                         else "block-silent"] += 1
        n = len(self.expected)
        return {
            "sends": n,
            "flow_mix": {k: round(v / n, 4) for k, v in sorted(kinds.items())},
            "sender_verdicts": dict(sorted(sender.items())),
            "receiver_verdicts": dict(sorted(receiver.items())),
            # Messages handed to the transport: forwarded in-system sends
            # and everything outside parties send in.
            "transmitted": sum(1 for e in self.expected
                               if e.receiver_verdict is not None),
            "outcomes": dict(sorted(Counter(
                e.outcome for e in self.expected).items())),
        }


# ---------------------------------------------------------------------------
# sim-mix and tcp-mix: the shipped laws
# ---------------------------------------------------------------------------

# (weight, sender module, target module or outside party, operations).
# "P" senders and targets are the OPS members that also adopted P.
_MIX = (
    (6, "MS", "MS", ("retrieve", "sync")),
    (4, "OPS", "OPS", ("sync", "ping")),
    (2, "SB", "SB", ("chat",)),
    (6, "OPS", "MS", ("log",)),
    (2, "SB", "MS", ("log",)),
    (3, "MS", "MGMT", ("disclose", "alert")),
    (2, "MS", "OPS", ("disclose",)),
    (4, "OPS", "MGMT", ("report", "chat")),
    (4, "MGMT", "OPS", ("directive",)),
    (2, "MS", "OPS", ("directive",)),
    (3, "OPS", "SB", ("task",)),
    (1, "MGMT", "SB", ("task",)),
    (3, "SB", "OPS", ("result",)),
    (1, "SB", "MGMT", ("result",)),
    (4, "MGMT", "P", ("approve",)),
    (1, "OPS", "P", ("approve",)),
    (4, "MS", "P", ("logged",)),
    (2, "P", "MS", ("log",)),
    (4, "P", "vendor", ("purchaseOrder",)),
    (1, "OPS", "vendor", ("purchaseOrder",)),
    (2, "MS", "auditor", ("disclose",)),
    (2, "OPS", "vendor", ("ident", "ping")),
    (3, None, "*", ("probe", "log")),
)

_OUTSIDES = ("vendor", "auditor", "wild")

# Members per module; the first DUAL of the OPS members also adopt P.
_CAST = {
    "sim-mix": ({"MS": 12, "OPS": 14, "MGMT": 10, "SB": 12}, 6),
    "tcp-mix": ({"MS": 3, "OPS": 4, "MGMT": 2, "SB": 3}, 2),
}


def _deck(rng: random.Random, weights, n: int) -> list[int]:
    """n indices in shuffled order, each index's count in proportion to its
    weight (largest remainder), so every seed gets the same mix."""
    total = sum(weights)
    exact = [w * n / total for w in weights]
    counts = [int(x) for x in exact]
    by_remainder = sorted(range(len(weights)),
                          key=lambda i: counts[i] - exact[i])
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    deck = [i for i, c in enumerate(counts) for _ in range(c)]
    rng.shuffle(deck)
    return deck


def _shipped_mix(name: str, seed: int, steps: int) -> Workload:
    rng = random.Random(f"{name}/{seed}")
    counts, dual = _CAST[name]
    components: list[tuple[str, tuple[str, ...]]] = []
    members: dict[str, list[str]] = {"P": []}
    for module, count in counts.items():
        members[module] = []
        for i in range(count):
            cname = f"{module.lower()}{i}"
            modules = (module,)
            if module == "OPS" and i < dual:
                modules = ("OPS", "P")
                members["P"].append(cname)
            components.append((cname, modules))
            members[module].append(cname)
    personas = [(c, m) for c, mods in components for m in mods]
    sends: list[Send] = []
    for i, pick in enumerate(_deck(rng, [w for w, *_ in _MIX], steps)):
        _, smod, tmod, ops = _MIX[pick]
        op = rng.choice(ops)
        payload = f"m{i}"
        if smod is None:
            target, target_module = rng.choice(personas)
            sends.append(Send(rng.choice(_OUTSIDES), None, target,
                              target_module, op, payload))
            continue
        sender = rng.choice(members[smod])
        if tmod in _OUTSIDES:
            sends.append(Send(sender, smod, tmod, None, op, payload))
            continue
        target = rng.choice([c for c in members[tmod] if c != sender])
        sends.append(Send(sender, smod, target, tmod, op, payload))
    return Workload(name, seed, MODES[name], {}, components, _OUTSIDES, sends)


# ---------------------------------------------------------------------------
# deep-law: a generated, conformance-valid law tree
# ---------------------------------------------------------------------------

# Laws per level, root first: 64 laws, leaves at depth 6, so each leaf's
# program holds 7 laws x 12 rules = 84 entries.
_LEVELS = (1, 2, 4, 8, 12, 16, 21)
_RULES = 12
_QOPS = tuple(f"q{i}" for i in range(6))


def _deep_laws(rng: random.Random) -> tuple[dict[str, str], list[str]]:
    """Law texts of the tree and the names of its leaves.

    Most rules match the common q* operations without deciding and write
    state on the way; what decides sits late: rules of the leaf law, or
    leaf overrides of default rules at depth 4 and 5.
    """
    names: list[list[str]] = []
    parent: dict[str, Optional[str]] = {}
    index = 0
    for level, count in enumerate(_LEVELS):
        row = []
        for k in range(count):
            name = f"N{index}"
            index += 1
            if level == 0:
                parent[name] = None
            else:
                above = names[level - 1]
                # Every law of the level above gets a child first.
                parent[name] = (above[k] if k < len(above)
                                else rng.choice(above))
            row.append(name)
        names.append(row)
    level_of = {n: lv for lv, row in enumerate(names) for n in row}
    leaves = names[-1]

    def ancestry(name: str) -> list[str]:
        chain = []
        cur: Optional[str] = name
        while cur is not None:
            chain.append(cur)
            cur = parent[cur]
        return chain[::-1]

    texts: dict[str, str] = {}
    grantable: dict[str, list[str]] = {}
    for row in names:
        for name in row:
            lv = level_of[name]
            rid = name.lower()
            leaf = name in leaves
            body: list[str] = []
            grants: list[str] = []
            if lv == 0:
                body.append(
                    "  categorical rule init on adopted {\n"
                    "    require-cert modules contains module-name;\n"
                    "    set state.module = module-name;\n"
                    "    set state.profile = module-profile;\n"
                    "  }")
            for k in range(_RULES - (2 if leaf else 0) - (1 if lv == 0 else 0)):
                r = f"{rid}r{k}"
                q = rng.choice(_QOPS)
                kind = k % 6
                if kind == 0:
                    body.append(
                        f"  categorical rule {r} on sent, arrived if op matches \"q*\" {{\n"
                        f"    increment state.c{lv} by 1;\n  }}")
                elif kind == 1:
                    body.append(
                        f"  default rule {r} on sent if flow == outflow or flow == inner {{\n"
                        f"    set state.m{lv} = \"{name}\";\n  }}")
                    grants.append(r)
                elif kind == 2:
                    body.append(
                        f"  default rule {r} on arrived if peer.outside or op == \"{q}\" {{\n"
                        f"    increment state.a{lv} by 1;\n  }}")
                    grants.append(r)
                elif kind == 3:
                    body.append(
                        f"  categorical rule {r} on sent, arrived if op == \"zz{k}\" {{\n"
                        f"    block;\n  }}")
                elif kind == 4:
                    body.append(
                        f"  default rule {r} on sent, arrived if op == \"x{lv}\" {{\n"
                        f"    {rng.choice(('permit', 'block'))};\n  }}")
                else:
                    body.append(
                        f"  categorical rule {r} on sent, arrived if state.c{lv} < 1000000 and op == \"{q}\" {{\n"
                        f"    set state.t = \"{name}\";\n  }}")
            if leaf:
                p1, p2, b1 = rng.sample(_QOPS, 3)
                body.append(
                    f"  default rule {rid}r10 on sent, arrived if op == \"{p1}\" or op == \"{p2}\" {{\n"
                    f"    permit;\n  }}")
                body.append(
                    f"  default rule {rid}r11 on arrived if op == \"{b1}\" and state.a{lv} < 40 {{\n"
                    f"    block;\n  }}")
            for r in grants:
                body.append(f"  allow-override {r} may-replace;")
            grantable[name] = grants
            if leaf:
                deep = [a for a in ancestry(name)[:-1] if level_of[a] >= 4]
                targets = [(a, r) for a in deep for r in grantable[a]]
                for a, r in rng.sample(targets, min(3, len(targets))):
                    q = rng.choice(_QOPS)
                    verdict = rng.choice(("permit", "block"))
                    body.append(
                        f"  override {r} replace on sent, arrived if op == \"{q}\" and state.c{lv} < 60 {{\n"
                        f"    increment state.o by 1;\n    {verdict};\n  }}")
            head = f"law {name}" + (f" extends {parent[name]}"
                                    if parent[name] else "")
            texts[f"{name}.law"] = (head + " {\n  profile [l" + str(lv)
                                    + "];\n\n" + "\n".join(body) + "\n}\n")
    return texts, leaves


def _deep_law(seed: int, steps: int) -> Workload:
    rng = random.Random(f"deep-law/{seed}")
    texts, leaves = _deep_laws(rng)
    components = [(f"d{i}{c}", (leaf,))
                  for i, leaf in enumerate(leaves) for c in "ab"]
    personas = [(c, mods[0]) for c, mods in components]
    rare = [f"x{lv}" for lv in range(len(_LEVELS))] + ["ping"]
    sends: list[Send] = []
    # Import, export, inner and inter-module sends; then common or rare ops.
    kinds = _deck(rng, (8, 8, 14, 70), steps)
    rares = _deck(rng, (9, 1), steps)
    for i, (kind, rare_op) in enumerate(zip(kinds, rares)):
        op = rng.choice(rare) if rare_op else rng.choice(_QOPS)
        payload = f"m{i}"
        if kind == 0:
            target, tmod = rng.choice(personas)
            sends.append(Send("wild", None, target, tmod, op, payload))
            continue
        sender, smod = rng.choice(personas)
        if kind == 1:
            sends.append(Send(sender, smod, "vendor", None, op, payload))
        elif kind == 2:
            mate = sender[:-1] + ("b" if sender.endswith("a") else "a")
            sends.append(Send(sender, smod, mate, smod, op, payload))
        else:
            target, tmod = rng.choice(
                [p for p in personas if p[0] != sender])
            sends.append(Send(sender, smod, target, tmod, op, payload))
    return Workload("deep-law", seed, "sim", texts, components,
                    ("wild", "vendor"), sends)


# ---------------------------------------------------------------------------
# Oracle replay
# ---------------------------------------------------------------------------


def _profile(state: dict) -> frozenset:
    raw = state.get("profile")
    if not isinstance(raw, str):
        return frozenset()
    return frozenset(x for x in raw.split(",") if x)


def replay(work: Workload, laws: dict[str, Law]) -> None:
    """Fill ``work.expected`` from the interpretive oracle alone."""
    states: dict[tuple[str, str], dict] = {}
    certs: dict[str, dict] = {}
    for name, modules in work.components:
        certs[name] = {"modules": ",".join(modules)}
        for module in modules:
            verdict, token, st = oracle_evaluate(
                laws, module, {}, certs[name],
                OracleEvent(event=EventKind.ADOPTED))
            if verdict != "permit":
                raise ValueError(f"{name}@{module} would be refused ({token})")
            states[(name, module)] = st
    work.expected = []
    for s in work.sends:
        if s.sender_module is None:
            key = (s.target, s.target_module)
            verdict, token, states[key] = oracle_evaluate(
                laws, s.target_module, states[key], certs[s.target],
                OracleEvent(event=EventKind.ARRIVED, operation=s.operation,
                            flow=FlowKind.IMPORT, peer_name=s.sender,
                            peer_outside=True))
            work.expected.append(Expected(
                "delivered" if verdict == "permit" else "blocked-at-receiver",
                token, None, None, FlowKind.IMPORT, verdict))
            continue
        key = (s.sender, s.sender_module)
        outside = s.target_module is None
        flow = oracle_flow(s.sender_module, s.sender_module, s.target_module)
        verdict, token, states[key] = oracle_evaluate(
            laws, s.sender_module, states[key], certs[s.sender],
            OracleEvent(event=EventKind.SENT, operation=s.operation,
                        flow=flow,
                        peer_name=s.target if outside else s.target_module,
                        peer_outside=outside))
        if verdict != "permit" or outside:
            work.expected.append(Expected(
                "delivered" if verdict == "permit" else "blocked-at-sender",
                token, flow, verdict, None, None))
            continue
        tkey = (s.target, s.target_module)
        flow2 = oracle_flow(s.target_module, s.sender_module, s.target_module)
        verdict2, token2, states[tkey] = oracle_evaluate(
            laws, s.target_module, states[tkey], certs[s.target],
            OracleEvent(event=EventKind.ARRIVED, operation=s.operation,
                        flow=flow2, peer_name=s.sender_module,
                        peer_profile=_profile(states[key])))
        work.expected.append(Expected(
            "delivered" if verdict2 == "permit" else "blocked-at-receiver",
            token2, flow, verdict, flow2, verdict2))


def parse_law_texts(texts: dict[str, str]) -> dict[str, Law]:
    laws = (law_lang.parse_law(t) for _, t in sorted(texts.items()))
    return {law.name: law for law in laws}


def build(name: str, seed: int, shipped_laws: Path,
          steps: Optional[int] = None) -> Workload:
    """Generate the workload and its oracle expectations."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    n = STEPS[name] if steps is None else steps
    if name == "deep-law":
        work = _deep_law(seed, n)
        texts = work.law_texts
    else:
        work = _shipped_mix(name, seed, n)
        texts = {p.name: p.read_text(encoding="utf-8")
                 for p in sorted(shipped_laws.glob("*.law"))}
    replay(work, parse_law_texts(texts))
    return work
