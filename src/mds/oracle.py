"""Second-opinion evaluator and randomized differential checking.

The production controller compiles each hierarchy into a flat program of
closures.  This module reaches the same verdicts by a deliberately different
route: it walks the law syntax trees directly, re-derives the scan order
from parent pointers on every call, resolves overrides by its own search,
and applies actions interpretively to a copied state, ruling on the same
``EventContext`` production builds.  A randomly generated system is a
scenario's cast and script: ``ComponentDecl``s and ``SendStep``s.
``replay`` turns one into the records the oracle expects, one per
controller event, with certificate attributes taken from the script
(``ComponentDecl.attributes``), never from production.  ``run_trial``
drives production over the same script and reports the first record that
differs, which is a bug in one of the two;
``DiffReport.agreement`` is the share of trials with none.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fnmatch import fnmatchcase
from typing import Iterator, NamedTuple, Optional

from .conformance import build_hierarchy
from .controller import (OUTSIDE, BareInbound, EventContext, adopt,
                         handle_arrive, handle_send, issue_certificate)
from .law_lang import parse_law, print_law
from .model import (And, AppendProfile, Block, CertConstraint, CertEquals,
                    EventKind, FlowIs, FlowKind, IncrementState, Law,
                    LawHierarchy, MetaDirection, MetaPermission, Not,
                    NotifyRegistry, OpEquals, OpGlob, Or, Override,
                    OverrideKind, Permit, PeerModuleIs, PeerOutside,
                    PeerProfileHas, Predicate, RequireCertificate, Rule,
                    RuleMode, SetState, SpecialValue, StateEquals, StateLess,
                    TruePred)
from .scenario import ComponentDecl, SendStep


# ---------------------------------------------------------------------------
# Interpretive evaluation
# ---------------------------------------------------------------------------


# The former name, which perfbench's workloads still import.
OracleEvent = EventContext


def oracle_path(laws: dict[str, Law], leaf: str) -> list[Law]:
    chain = []
    cursor: Optional[str] = leaf
    while cursor is not None:
        law = laws[cursor]
        chain.append(law)
        cursor = law.parent
    chain.reverse()
    return chain


def _eval_pred(p: Predicate, ev: EventContext, state: dict,
               cert_attrs: dict) -> bool:
    if isinstance(p, TruePred):
        return True
    if isinstance(p, OpEquals):
        return ev.operation == p.value
    if isinstance(p, OpGlob):
        return fnmatchcase(ev.operation, p.pattern)
    if isinstance(p, FlowIs):
        return ev.flow is p.kind
    if isinstance(p, PeerModuleIs):
        return ev.peer_name == p.name
    if isinstance(p, PeerProfileHas):
        return p.label in ev.peer_profile
    if isinstance(p, PeerOutside):
        return ev.peer_outside
    if isinstance(p, StateEquals):
        have = state.get(p.key)
        if isinstance(p.value, str):
            return have == p.value
        return (isinstance(have, int) and not isinstance(have, bool)
                and have == p.value)
    if isinstance(p, StateLess):
        have = state.get(p.key)
        return (isinstance(have, int) and not isinstance(have, bool)
                and have < p.bound)
    if isinstance(p, CertEquals):
        return cert_attrs.get(p.attr) == p.value
    if isinstance(p, Not):
        return not _eval_pred(p.inner, ev, state, cert_attrs)
    if isinstance(p, And):
        return all(_eval_pred(x, ev, state, cert_attrs) for x in p.parts)
    if isinstance(p, Or):
        return any(_eval_pred(x, ev, state, cert_attrs) for x in p.parts)
    raise TypeError(f"unknown predicate {p!r}")  # pragma: no cover


def _owning_law(chain: list[Law], upto: int, target: str) -> Optional[str]:
    """Nearest law before index ``upto`` declaring a rule named target."""
    for k in range(upto - 1, -1, -1):
        for rule in chain[k].rules:
            if rule.id == target:
                return chain[k].name
    return None


def _find_override(chain: list[Law], law_index: int, rule: Rule,
                   ev: EventContext, state: dict,
                   cert_attrs: dict) -> Optional[tuple[str, Override]]:
    if rule.mode is not RuleMode.DEFAULT:
        return None
    for j in range(len(chain) - 1, law_index, -1):
        for ov in chain[j].overrides:
            if ov.target != rule.id:
                continue
            if _owning_law(chain, j, ov.target) != chain[law_index].name:
                continue
            if ev.event not in ov.events:
                continue
            if _eval_pred(ov.predicate, ev, state, cert_attrs):
                return chain[j].name, ov
    return None


def _run_body(actions, leaf: str, leaf_profile: tuple[str, ...], state: dict,
              cert_attrs: dict) -> Optional[str]:
    """Apply a body to state; returns 'permit', 'block', or None."""
    for act in actions:
        if isinstance(act, Permit):
            return "permit"
        if isinstance(act, Block):
            return "block"
        if isinstance(act, SetState):
            if act.value is SpecialValue.MODULE_NAME:
                state[act.key] = leaf
            elif act.value is SpecialValue.MODULE_PROFILE:
                state[act.key] = ",".join(leaf_profile)
            else:
                state[act.key] = act.value
        elif isinstance(act, IncrementState):
            have = state.get(act.key)
            if not (isinstance(have, int) and not isinstance(have, bool)):
                have = 0
            state[act.key] = have + act.delta
        elif isinstance(act, NotifyRegistry):
            pass
        elif isinstance(act, AppendProfile):
            raw = state.get("profile")
            labels = ([x for x in raw.split(",") if x]
                      if isinstance(raw, str) else [])
            added = [lbl for lbl in act.labels if lbl not in labels]
            if added:
                state["profile"] = ",".join(labels + added)
        elif isinstance(act, RequireCertificate):
            for c in act.constraints:
                want = leaf if isinstance(c.value, SpecialValue) else c.value
                have = cert_attrs.get(c.attr)
                if c.op == "equals":
                    if have != want:
                        return "block"
                else:
                    listed = [] if have is None else [
                        x.strip() for x in have.split(",")]
                    if want not in listed:
                        return "block"
    return None


def oracle_evaluate(laws: dict[str, Law], leaf: str, state: dict,
                    cert_attrs: dict,
                    ev: EventContext) -> tuple[str, str, dict]:
    """Independent ruling: returns (verdict, matched token, new state)."""
    chain = oracle_path(laws, leaf)
    leaf_profile = chain[-1].profile
    st = dict(state)
    for i, law in enumerate(chain):
        for rule in law.rules:
            if ev.event not in rule.events:
                continue
            if not _eval_pred(rule.predicate, ev, st, cert_attrs):
                continue
            found = _find_override(chain, i, rule, ev, st, cert_attrs)
            if found is not None:
                source, ov = found
                verdict = _run_body(ov.actions, leaf, leaf_profile, st,
                                    cert_attrs)
                token = f"{source}:{rule.id}"
            else:
                verdict = _run_body(rule.actions, leaf, leaf_profile, st,
                                    cert_attrs)
                token = f"{law.name}:{rule.id}"
            if verdict is not None:
                return verdict, token, st
    if ev.event is EventKind.ADOPTED or ev.flow in (FlowKind.OUTFLOW,
                                                    FlowKind.INNER):
        verdict = "permit"
    else:
        verdict = "block"
    flow_tok = ev.flow.value if ev.flow is not None else "adopted"
    return verdict, f"default:{flow_tok}", st


def oracle_flow(perspective: str, sender_module: Optional[str],
                target_module: Optional[str]) -> FlowKind:
    """Flow taxonomy re-derived for the oracle's half of the comparison."""
    if target_module is None:
        return FlowKind.EXPORT
    if sender_module is None:
        return FlowKind.IMPORT
    if sender_module == perspective and target_module == perspective:
        return FlowKind.INNER
    if sender_module == perspective:
        return FlowKind.OUTFLOW
    return FlowKind.INFLOW


# ---------------------------------------------------------------------------
# Random system generation
# ---------------------------------------------------------------------------


_MODULES = ("R", "A", "B", "C")
_OPS = ("ping", "report", "approve", "log", "sync", "probe")
_STATE_KEYS = ("mode", "count", "budget")
_LABELS = ("audited", "probation", "trusted")
_CERT_ATTRS = (("dept", ("finance", "eng")), ("clearance", ("high", "low")))
_OUTSIDERS = ("wild", "visitor")
_PAYLOADS = (b"", b"x", b"hello", b"42")
MAX_COMPONENTS = 8  # components one generated system has at most
MAX_MESSAGES = 60  # messages in one generated script at most


@dataclass
class GeneratedSystem:
    """A random law hierarchy, root first, with its cast and script."""
    seed: int
    laws: dict[str, Law]
    components: list[ComponentDecl]
    script: list[SendStep]


def _gen_predicate(rng: random.Random, modules: list[str],
                   depth: int, top: bool = True) -> Predicate:
    if depth <= 0 or rng.random() < 0.45:
        # The grammar has no literal for "always": a whole predicate may be
        # TruePred (prints as a missing if clause) but subterms may not.
        pick = rng.randrange(9) if top else rng.randrange(1, 9)
        if pick == 0:
            return TruePred()
        if pick == 1:
            return OpEquals(rng.choice(_OPS))
        if pick == 2:
            return OpGlob(rng.choice(("p*", "*o*", "re*", "*g")))
        if pick == 3:
            return FlowIs(rng.choice(list(FlowKind)))
        if pick == 4:
            return PeerModuleIs(rng.choice(modules + list(_OUTSIDERS)))
        if pick == 5:
            return PeerProfileHas(rng.choice(_LABELS))
        if pick == 6:
            return PeerOutside()
        if pick == 7:
            key = rng.choice(_STATE_KEYS)
            if rng.random() < 0.5:
                return StateEquals(key, rng.choice(("on", "off", 1, 2)))
            return StateLess(key, rng.randint(1, 3))
        attr, values = rng.choice(_CERT_ATTRS)
        return CertEquals(attr, rng.choice(values))
    shape = rng.random()
    if shape < 0.25:
        return Not(_gen_predicate(rng, modules, depth - 1, top=False))
    parts = tuple(_gen_predicate(rng, modules, depth - 1, top=False)
                  for _ in range(rng.randint(2, 3)))
    return And(parts) if shape < 0.65 else Or(parts)


def _gen_cert_check(rng: random.Random) -> CertConstraint:
    pick = rng.randrange(3)
    if pick == 2:
        return CertConstraint("modules", "contains", SpecialValue.MODULE_NAME)
    attr, values = rng.choice(_CERT_ATTRS + (("modules", _MODULES),))
    return CertConstraint(attr, ("equals", "contains")[pick],
                          rng.choice(values))


def _gen_actions(rng: random.Random, terminal_pool: tuple[str, ...]) -> tuple:
    """A body ending in one of terminal_pool ("none" for no terminal).
    ``require-cert`` can block, so it is drawn only where block is."""
    acts: list = []
    for _ in range(rng.randint(0, 2)):
        pick = rng.randrange(5 if "block" in terminal_pool else 4)
        if pick == 0:
            acts.append(SetState(rng.choice(_STATE_KEYS), rng.choice(
                ("on", "off", 0, 2, *SpecialValue))))
        elif pick == 1:
            acts.append(IncrementState(rng.choice(_STATE_KEYS),
                                       rng.randint(1, 2)))
        elif pick == 2:
            acts.append(NotifyRegistry())
        elif pick == 3:
            acts.append(AppendProfile(tuple(
                rng.sample(_LABELS, rng.randint(1, len(_LABELS))))))
        else:
            acts.append(RequireCertificate(tuple(
                _gen_cert_check(rng) for _ in range(rng.randint(1, 2)))))
    terminal = rng.choice(terminal_pool)
    if terminal == "permit":
        acts.append(Permit())
    elif terminal == "block":
        acts.append(Block())
    return tuple(acts)


def _gen_events(rng: random.Random, allow_adopted: bool) -> tuple[EventKind, ...]:
    pool = [EventKind.SENT, EventKind.ARRIVED]
    if allow_adopted:
        pool.append(EventKind.ADOPTED)
    chosen = [e for e in pool if rng.random() < 0.55]
    if not chosen:
        chosen = [rng.choice(pool)]
    return tuple(e for e in EventKind if e in chosen)


def _gen_law(rng: random.Random, name: str, parent: Optional[str],
             modules: list[str], ancestors: list[Law], memo: dict) -> Law:
    """A random law, as the parser makes it from the law's printed text;
    ``memo`` is the parse memo of the system's laws."""
    rules: list[Rule] = []
    meta: list[MetaPermission] = []
    for r in range(rng.randint(1, 4)):
        events = _gen_events(rng, allow_adopted=True)
        # Adoption must always succeed: any rule that can fire at adoption
        # gets a body that cannot block.
        if EventKind.ADOPTED in events:
            terminals: tuple[str, ...] = ("none", "none", "permit")
        else:
            terminals = ("none", "permit", "block")
        rules.append(Rule(
            id=f"r{r}",
            mode=rng.choice((RuleMode.CATEGORICAL, RuleMode.DEFAULT)),
            events=events,
            predicate=_gen_predicate(rng, modules, depth=2),
            actions=_gen_actions(rng, terminals)))
    for rule in rules:
        if rule.mode is RuleMode.DEFAULT and rng.random() < 0.6:
            for direction in MetaDirection:
                if rng.random() < 0.5:
                    meta.append(MetaPermission(rule.id, direction))
    overrides: list[Override] = []
    # Only the nearest declaration of a rule id can be overridden; drop
    # grants shadowed by a deeper declaration of the same id.
    reachable = [(law, rule, mp)
                 for law in ancestors
                 for rule in law.rules
                 for mp in law.meta
                 if mp.rule_id == rule.id
                 and _owning_law(ancestors, len(ancestors), rule.id) == law.name
                 and not any(r.id == rule.id for r in rules)]
    for _ in range(rng.randint(0, 3)):
        if not reachable:
            break
        law, rule, mp = rng.choice(reachable)
        if mp.direction is MetaDirection.MAY_PERMIT:
            kind = OverrideKind.PERMIT
            actions = _gen_actions(rng, ("permit",))
        elif mp.direction is MetaDirection.MAY_PROHIBIT:
            kind = OverrideKind.BLOCK
            actions = _gen_actions(rng, ("block",))
        else:
            kind = OverrideKind.REPLACE
            actions = _gen_actions(rng, ("permit", "block"))
        overrides.append(Override(
            target=rule.id, kind=kind,
            events=_gen_events(rng, allow_adopted=False),
            predicate=_gen_predicate(rng, modules, depth=2),
            actions=actions))
    profile = tuple(sorted({rng.choice(_LABELS)
                            for _ in range(rng.randint(0, 2))}))
    return parse_law(print_law(Law(
        name=name, parent=parent, profile=profile, rules=tuple(rules),
        meta=tuple(meta), overrides=tuple(overrides))), name, memo)


def generate_system(seed: int) -> GeneratedSystem:
    rng = random.Random(seed)
    count = rng.randint(1, len(_MODULES))
    names = list(_MODULES[:count])
    laws: dict[str, Law] = {}
    order: list[str] = []
    memo: dict = {}  # one parse memo per system, as per law directory
    for i, name in enumerate(names):
        if i == 0:
            parent = None
            ancestors: list[Law] = []
        else:
            parent = rng.choice(order)
            ancestors = oracle_path(laws, parent)
        law = _gen_law(rng, name, parent, names, ancestors, memo)
        laws[name] = law
        order.append(name)

    components: list[ComponentDecl] = []
    for i in range(rng.randint(1, MAX_COMPONENTS)):
        adopted = tuple(rng.sample(names, rng.randint(1, min(2, count))))
        attrs = []
        for attr, values in _CERT_ATTRS:
            if rng.random() < 0.5:
                attrs.append((attr, rng.choice(values)))
        components.append(ComponentDecl(f"c{i}", adopted, tuple(attrs)))

    personas = [(c.name, m) for c in components for m in c.modules]
    script: list[SendStep] = []
    for line in range(1, rng.randint(1, MAX_MESSAGES) + 1):
        op = rng.choice(_OPS)
        payload = rng.choice(_PAYLOADS)
        if rng.random() < 0.15:
            target, tmod = rng.choice(personas)
            sender, smod = rng.choice(_OUTSIDERS), None
        else:
            sender, smod = rng.choice(personas)
            if rng.random() < 0.15:
                target, tmod = rng.choice(_OUTSIDERS), None
            else:
                target, tmod = rng.choice(personas)
        script.append(SendStep(sender, smod, target, tmod, op, payload,
                               smod is None, line))
    return GeneratedSystem(seed=seed, laws=laws, components=components,
                           script=script)


# ---------------------------------------------------------------------------
# Differential harness
# ---------------------------------------------------------------------------


class Record(NamedTuple):
    """One controller event, as the ruling on it left the persona."""
    index: int                # the message's place in the script; -1: adoption
    persona: tuple[str, str]  # (component, module)
    event: str                # adopted, sent, arrived or import
    verdict: str              # permit or block
    token: str                # the rule, override or default that decided
    state: dict               # the persona's state after the event


def replay(laws: dict[str, Law], components: list[ComponentDecl],
           script: list[SendStep]) -> Iterator[Record]:
    """The oracle's record of each controller event the script makes, from
    the laws and the script alone.  A blocked send has no arrival, and
    neither has a send aimed outside."""
    certs = {comp.name: comp.attributes() for comp in components}
    states: dict[tuple[str, str], dict] = {}

    def rule(idx, key, event, ev: EventContext) -> Record:
        verdict, token, states[key] = oracle_evaluate(
            laws, key[1], states.get(key, {}), certs[key[0]], ev)
        return Record(idx, key, event, verdict, token, states[key])

    for comp in components:
        for module in comp.modules:
            yield rule(-1, (comp.name, module), "adopted",
                       EventContext(EventKind.ADOPTED))
    for idx, msg in enumerate(script):
        src, dst, op = msg.sender_law, msg.target_law, msg.operation
        if msg.from_outside:
            yield rule(idx, (msg.target, dst), "import", EventContext(
                EventKind.ARRIVED, op, FlowKind.IMPORT, msg.sender,
                peer_outside=True))
            continue
        sent = rule(idx, (msg.sender, src), "sent", EventContext(
            EventKind.SENT, op, oracle_flow(src, src, dst), dst or msg.target,
            peer_outside=dst is None))
        yield sent
        if sent.verdict == "permit" and dst is not None:
            raw = sent.state.get("profile")  # the sender's profile labels
            labels = raw.split(",") if isinstance(raw, str) else ()
            yield rule(idx, (msg.target, dst), "arrived", EventContext(
                EventKind.ARRIVED, op, oracle_flow(dst, src, dst), src,
                frozenset(labels) - {""}))


def _production(system: GeneratedSystem, h: LawHierarchy,
                agents: dict) -> Iterator[Record]:
    """Production's record of the same events, in ``replay``'s order;
    puts each agent it adopts in ``agents``."""
    def record(idx, key, event, ruling) -> Record:
        return Record(idx, key, event, "permit" if ruling.decision.permits
                      else "block", ruling.matched,
                      dict(agents[key].state) if key in agents else {})

    for comp in system.components:
        cert = issue_certificate(comp.name, comp.attributes())
        for module in comp.modules:
            key = (comp.name, module)
            agent, ruling = adopt(comp.name, h, module, cert=cert)
            if agent is None:
                yield record(-1, key, "adopted", ruling)
                return
            agents[key] = agent
            yield record(-1, key, "adopted", ruling)
    for idx, msg in enumerate(system.script):
        target = (msg.target, msg.target_law)
        if msg.from_outside:
            ruling, _ = handle_arrive(agents[target], BareInbound(
                msg.sender, msg.operation, msg.payload))
            yield record(idx, target, "import", ruling)
            continue
        key = (msg.sender, msg.sender_law)
        ruling, env = handle_send(agents[key], msg.operation, msg.payload,
                                  msg.target, msg.target_law or OUTSIDE)
        yield record(idx, key, "sent", ruling)
        if env is not None:  # forwarded in-system
            ruling, _ = handle_arrive(agents[target], env)
            yield record(idx, target, "arrived", ruling)


def _mismatch(seed: int, want: Record, have: Record) -> Optional[str]:
    """How production's record ``have`` departs from the oracle's ``want``,
    or None where they agree."""
    at = "{}@{}".format(*want.persona)
    if want.index >= 0:
        where = f"seed {seed} msg {want.index} {want.event}"
        split = f"{where}: state split"
    elif want.verdict != "permit":
        return f"seed {seed}: oracle refused adoption {at} via {want.token}"
    else:
        where = f"seed {seed}: adoption {at}"
        split = f"seed {seed}: adoption state split at {at}:"
    prod, oracle = (have.verdict, have.token), (want.verdict, want.token)
    if prod != oracle:
        return f"{where}: prod {prod} oracle {oracle}"
    if have.state != want.state:
        return f"{split} {have.state!r} != {want.state!r}"
    return None


@dataclass
class DiffReport:
    trials: int
    events_compared: int  # record pairs compared, up to each mismatch
    disagreements: list[str]  # at most one per trial
    elapsed: float

    @property
    def agreement(self) -> float:
        """The share of trials on which the two evaluators agree."""
        return 1.0 - len(self.disagreements) / max(self.trials, 1)


def _lockstep(system: GeneratedSystem) -> tuple[int, list[str]]:
    """Walk the oracle's and production's records of one generated system
    in lockstep; returns the record pairs compared, up to and including the
    first mismatch, and that mismatch, if any, as a one-line list."""
    h, violations = build_hierarchy(system.laws.values())
    if h is None:
        return 0, [f"seed {system.seed}: generated hierarchy rejected: "
                   + "; ".join(v.kind.value for v in violations)]
    agents: dict = {}  # (component, module) -> production's agent
    final: dict[tuple[str, str], dict] = {}
    expected = replay(system.laws, system.components, system.script)
    compared = 0
    for want, have in zip(expected, _production(system, h, agents)):
        compared += 1
        problem = _mismatch(system.seed, want, have)
        if problem is not None:
            return compared, [problem]
        final[want.persona] = want.state
    for key, agent in agents.items():
        if agent.state != final[key]:
            return compared, [f"seed {system.seed}: final state split at "
                              f"{key}: {agent.state!r} != {final[key]!r}"]
    return compared, []


def run_trial(system: GeneratedSystem) -> list[str]:
    """The first mismatch of one generated system, if any, as a list."""
    return _lockstep(system)[1]


def run_differential(trials: int, seed: int = 0) -> DiffReport:
    rng = random.Random(seed)
    started = time.perf_counter()
    disagreements: list[str] = []
    events = 0
    for _ in range(trials):
        compared, problems = _lockstep(generate_system(rng.getrandbits(48)))
        events += compared
        disagreements.extend(problems)
    return DiffReport(trials=trials, events_compared=events,
                      disagreements=disagreements,
                      elapsed=time.perf_counter() - started)
