"""Per-component controllers: adoption, flow classification, and rulings.

A component joins a module by adopting its law, which yields an agent: the
pair of the component and a private controller holding the agent's state.
Every message is judged twice, first by the sender's controller (Forward or
block with notice) and then by the receiver's (Deliver or block silently).
Controllers append the sender's identification envelope on Forward and strip
it before delivery; messages leaving the system are sent bare.  Arrivals
without a valid envelope, or whose lineage does not start at this system's
root law, are judged as imports from outside.

A ruling is a pure function of the law hierarchy, the agent's own state, and
the event context; no other agent's state is ever consulted.

Rule scan discipline: laws are scanned root-to-leaf, rules in textual order
within each law.  A matching rule applies its non-terminal actions; the first
matching rule that carries a terminal (or whose default body is substituted
by the deepest matching override on the leaf path) decides.  When nothing
matches, built-in fallbacks decide: block for inflow, import, and export;
permit for outflow, innerflow, and adoption.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from enum import Enum
from fnmatch import fnmatchcase
from typing import Callable, Optional, Union

from .model import (
    And,
    AppendProfile,
    Block,
    CertConstraint,
    CertEquals,
    EventKind,
    FlowIs,
    FlowKind,
    IncrementState,
    LawHierarchy,
    Not,
    NotifyRegistry,
    OpEquals,
    OpGlob,
    Or,
    PeerModuleIs,
    PeerOutside,
    PeerProfileHas,
    Permit,
    Predicate,
    RequireCertificate,
    RuleMode,
    SetState,
    SpecialValue,
    StateEquals,
    StateLess,
    TruePred,
)


class _Outside:
    """Locus of parties that run no controller."""

    _instance: Optional["_Outside"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Outside"


OUTSIDE = _Outside()
Locus = Union[str, _Outside]


class FlowClassificationError(ValueError):
    pass


class AdoptionRefused(RuntimeError):
    def __init__(self, reason: str, outcome: Optional["Ruling"] = None):
        super().__init__(reason)
        self.reason = reason
        self.outcome = outcome


def classify_flow(perspective: str, sender: Locus, receiver: Locus) -> FlowKind:
    """Judge a message's flow kind from one module's point of view.

    At least one locus must be the perspective module; outside-to-outside
    traffic is not classifiable.
    """
    sender_out = isinstance(sender, _Outside)
    receiver_out = isinstance(receiver, _Outside)
    if sender_out and receiver_out:
        raise FlowClassificationError("both endpoints are outside the system")
    if sender == perspective and receiver == perspective:
        return FlowKind.INNER
    if sender == perspective:
        return FlowKind.EXPORT if receiver_out else FlowKind.OUTFLOW
    if receiver == perspective:
        return FlowKind.IMPORT if sender_out else FlowKind.INFLOW
    raise FlowClassificationError(
        f"neither endpoint is in module {perspective!r}")


# ---------------------------------------------------------------------------
# Identities and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ComponentId:
    name: str
    address: str = ""


@dataclass(frozen=True)
class Certificate:
    """A signed attribute record presented at adoption.

    ``attributes["modules"]`` lists, comma-separated, the laws the subject
    may adopt.  Verification is pluggable; the bundled issuer is a stand-in
    for a real certification authority and must not be mistaken for one.
    """

    subject: str
    issuer: str
    attributes: tuple[tuple[str, str], ...]  # sorted (key, value) pairs
    signature: str

    def attr_dict(self) -> dict[str, str]:
        return dict(self.attributes)


def _cert_digest(subject: str, issuer: str,
                 attributes: tuple[tuple[str, str], ...], secret: str) -> str:
    blob = "|".join([secret, subject, issuer] +
                    [f"{k}={v}" for k, v in attributes])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class DemoIssuer:
    """Toy certificate authority: the issuer name doubles as signing secret."""

    def __init__(self, name: str = "demo-ca"):
        self.name = name

    def issue(self, subject: str, attributes: dict[str, str]) -> Certificate:
        attrs = tuple(sorted(attributes.items()))
        return Certificate(
            subject=subject, issuer=self.name, attributes=attrs,
            signature=_cert_digest(subject, self.name, attrs, self.name))


def demo_verify(cert: Certificate) -> bool:
    return cert.signature == _cert_digest(
        cert.subject, cert.issuer, cert.attributes, cert.issuer)


Verifier = Callable[[Certificate], bool]


# ---------------------------------------------------------------------------
# Messages in flight
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Envelope:
    """Sender identification concatenated to every in-system message."""

    sender_module: str
    sender_profile: tuple[str, ...]
    sender_lineage: tuple[str, ...]  # law hashes root-first
    operation: str
    payload: bytes
    sender: str   # component name
    target: str   # component name


@dataclass(frozen=True)
class BareInbound:
    """A message that arrived without an envelope (from outside the system)."""

    sender_address: str
    target: str
    operation: str
    payload: bytes


@dataclass(frozen=True)
class Delivery:
    operation: str
    payload: bytes
    sender_identity: Optional[tuple[str, tuple[str, ...]]] = None


# ---------------------------------------------------------------------------
# Agents and rulings
# ---------------------------------------------------------------------------


@dataclass
class Agent:
    """A component paired with its controller state for one adopted law."""

    component: ComponentId
    law: str
    lineage: tuple[str, ...]
    state: dict[str, Union[str, int]] = field(default_factory=dict)
    cert: Optional[Certificate] = None
    cert_attrs: dict[str, str] = field(default_factory=dict)
    last_delivery: Optional[tuple[str, tuple[str, ...]]] = None

    def profile_labels(self) -> tuple[str, ...]:
        raw = self.state.get("profile", "")
        if not isinstance(raw, str) or not raw:
            return ()
        return tuple(x for x in raw.split(",") if x)


class Decision(Enum):
    FORWARD = "forward"
    DELIVER = "deliver"
    BLOCK_SILENT = "block-silent"
    BLOCK_NOTICE = "block-notice"

    def __str__(self) -> str:
        return self.value

    @property
    def permits(self) -> bool:
        return self in (Decision.FORWARD, Decision.DELIVER)


@dataclass(frozen=True)
class DefaultOfRoot:
    """Marker for rulings decided by the built-in fallback, not a rule."""

    flow: Optional[FlowKind]


Matched = Union[tuple[str, str], DefaultOfRoot, None]


def matched_token(matched: Matched) -> str:
    if matched is None:
        return "-"
    if isinstance(matched, DefaultOfRoot):
        return f"default:{matched.flow.value if matched.flow else 'adopted'}"
    return f"{matched[0]}:{matched[1]}"


@dataclass(frozen=True)
class Ruling:
    decision: Decision
    matched: Matched
    reason: Optional[str]
    state_updates: tuple[tuple, ...]
    effects: tuple[tuple, ...]
    flow: Optional[FlowKind] = None


# ---------------------------------------------------------------------------
# Predicate and program compilation
# ---------------------------------------------------------------------------


@dataclass
class EventContext:
    __slots__ = ("event", "operation", "flow", "peer_name", "peer_profile",
                 "peer_outside")
    event: EventKind
    operation: str
    flow: Optional[FlowKind]
    peer_name: Optional[str]
    peer_profile: frozenset
    peer_outside: bool


_CompiledPred = Callable[[EventContext, dict, dict], bool]


def compile_predicate(p: Predicate) -> _CompiledPred:
    """Close a predicate over into a fast callable(ctx, state, cert_attrs)."""
    if isinstance(p, TruePred):
        return lambda ctx, st, ce: True
    if isinstance(p, OpEquals):
        v = p.value
        return lambda ctx, st, ce: ctx.operation == v
    if isinstance(p, OpGlob):
        pat = p.pattern
        return lambda ctx, st, ce: fnmatchcase(ctx.operation, pat)
    if isinstance(p, FlowIs):
        k = p.kind
        return lambda ctx, st, ce: ctx.flow is k
    if isinstance(p, PeerModuleIs):
        n = p.name
        return lambda ctx, st, ce: ctx.peer_name == n
    if isinstance(p, PeerProfileHas):
        lbl = p.label
        return lambda ctx, st, ce: lbl in ctx.peer_profile
    if isinstance(p, PeerOutside):
        return lambda ctx, st, ce: ctx.peer_outside
    if isinstance(p, StateEquals):
        key, val = p.key, p.value
        if isinstance(val, str):
            return lambda ctx, st, ce: st.get(key) == val
        return lambda ctx, st, ce: type(st.get(key)) is int and st.get(key) == val
    if isinstance(p, StateLess):
        key, bound = p.key, p.bound
        def less(ctx, st, ce, _k=key, _b=bound):
            v = st.get(_k)
            return type(v) is int and v < _b
        return less
    if isinstance(p, CertEquals):
        attr, val = p.attr, p.value
        return lambda ctx, st, ce: ce.get(attr) == val
    if isinstance(p, Not):
        inner = compile_predicate(p.inner)
        return lambda ctx, st, ce: not inner(ctx, st, ce)
    if isinstance(p, And):
        parts = tuple(compile_predicate(x) for x in p.parts)
        def conj(ctx, st, ce, _parts=parts):
            for f in _parts:
                if not f(ctx, st, ce):
                    return False
            return True
        return conj
    if isinstance(p, Or):
        parts = tuple(compile_predicate(x) for x in p.parts)
        def disj(ctx, st, ce, _parts=parts):
            for f in _parts:
                if f(ctx, st, ce):
                    return True
            return False
        return disj
    raise TypeError(f"unknown predicate node {p!r}")  # pragma: no cover


class _OvEntry:
    __slots__ = ("source", "events", "pred", "actions", "terminal")

    def __init__(self, source, events, pred, actions, terminal):
        self.source = source      # law declaring the override
        self.events = events
        self.pred = pred
        self.actions = actions
        self.terminal = terminal


class _RuleEntry:
    __slots__ = ("law_name", "rule_id", "mode", "events", "pred", "actions",
                 "terminal", "overrides")

    def __init__(self, law_name, rule_id, mode, events, pred, actions,
                 terminal, overrides):
        self.law_name = law_name
        self.rule_id = rule_id
        self.mode = mode
        self.events = events
        self.pred = pred
        self.actions = actions
        self.terminal = terminal
        self.overrides = overrides


class Program:
    """Pre-resolved scan order for one leaf law of one hierarchy."""

    __slots__ = ("leaf", "leaf_profile", "entries")

    def __init__(self, leaf: str, leaf_profile: tuple[str, ...], entries):
        self.leaf = leaf
        self.leaf_profile = leaf_profile
        self.entries = entries


def program_for(h: LawHierarchy, leaf: str) -> Program:
    cached = h.cache.get(("program", leaf))
    if cached is not None:
        return cached
    path = h.path(leaf)
    laws = [h.law(name) for name in path]
    entries: list[_RuleEntry] = []
    for i, law in enumerate(laws):
        for rule in law.rules:
            ovs: list[_OvEntry] = []
            # Deepest law first; textual order within a law.
            for j in range(len(laws) - 1, i, -1):
                for ov in laws[j].overrides:
                    if ov.owner == law.name and ov.target == rule.id:
                        ovs.append(_OvEntry(
                            source=laws[j].name,
                            events=frozenset(ov.events),
                            pred=compile_predicate(ov.predicate),
                            actions=ov.actions,
                            terminal=ov.terminal))
            entries.append(_RuleEntry(
                law_name=law.name,
                rule_id=rule.id,
                mode=rule.mode,
                events=frozenset(rule.events),
                pred=compile_predicate(rule.predicate),
                actions=rule.actions,
                terminal=rule.terminal,
                overrides=tuple(ovs)))
    program = Program(leaf=leaf, leaf_profile=laws[-1].profile,
                      entries=tuple(entries))
    h.cache[("program", leaf)] = program
    return program


_FALLBACK_PERMIT = frozenset((FlowKind.OUTFLOW, FlowKind.INNER))


def _check_cert(constraints: tuple[CertConstraint, ...], cert_attrs: dict,
                leaf: str) -> Optional[str]:
    for c in constraints:
        want = leaf if isinstance(c.value, SpecialValue) else c.value
        have = cert_attrs.get(c.attr)
        if c.op == "equals":
            if have != want:
                return f"certificate attribute {c.attr!r} != {want!r}"
        else:
            items = [x.strip() for x in (have or "").split(",")]
            if want not in items:
                return f"certificate attribute {c.attr!r} does not list {want!r}"
    return None


def evaluate(program: Program, state: dict, cert_attrs: dict,
             ctx: EventContext) -> tuple[str, Matched, tuple, tuple, Optional[str]]:
    """Run the scan; returns (verdict, matched, state_updates, effects, reason).

    Verdict is 'permit' or 'block'.  Non-terminal actions of every matching
    rule passed on the way apply in order; the state dict is mutated.
    """
    updates: list[tuple] = []
    effects: list[tuple] = []
    event = ctx.event
    for entry in program.entries:
        if event not in entry.events:
            continue
        if not entry.pred(ctx, state, cert_attrs):
            continue
        actions = entry.actions
        terminal = entry.terminal
        matched: Matched = (entry.law_name, entry.rule_id)
        if entry.mode is RuleMode.DEFAULT and entry.overrides:
            for ov in entry.overrides:
                if event in ov.events and ov.pred(ctx, state, cert_attrs):
                    actions = ov.actions
                    terminal = ov.terminal
                    matched = (ov.source, entry.rule_id)
                    break
        for act in actions:
            if isinstance(act, Permit):
                return "permit", matched, tuple(updates), tuple(effects), None
            if isinstance(act, Block):
                return "block", matched, tuple(updates), tuple(effects), None
            if isinstance(act, SetState):
                if act.value is SpecialValue.MODULE_NAME:
                    value: Union[str, int] = program.leaf
                elif act.value is SpecialValue.MODULE_PROFILE:
                    value = ",".join(program.leaf_profile)
                else:
                    value = act.value
                state[act.key] = value
                updates.append(("set", act.key, value))
            elif isinstance(act, IncrementState):
                cur = state.get(act.key)
                base = cur if type(cur) is int else 0
                state[act.key] = base + act.delta
                updates.append(("increment", act.key, act.delta, base + act.delta))
            elif isinstance(act, NotifyRegistry):
                effects.append(("notify-registry",))
            elif isinstance(act, AppendProfile):
                raw = state.get("profile", "")
                labels = [x for x in raw.split(",") if x] if isinstance(raw, str) else []
                added = [l for l in act.labels if l not in labels]
                if added:
                    state["profile"] = ",".join(labels + added)
                    updates.append(("append-profile", tuple(added)))
            elif isinstance(act, RequireCertificate):
                failure = _check_cert(act.constraints, cert_attrs, program.leaf)
                if failure is not None:
                    return ("block", matched, tuple(updates), tuple(effects),
                            failure)
        if terminal is not None:  # pragma: no cover - returned above
            raise AssertionError("terminal action must be last")
    # Nothing decided: built-in fallback.
    if event is EventKind.ADOPTED or ctx.flow in _FALLBACK_PERMIT:
        return ("permit", DefaultOfRoot(ctx.flow), tuple(updates),
                tuple(effects), None)
    return ("block", DefaultOfRoot(ctx.flow), tuple(updates), tuple(effects),
            None)


# ---------------------------------------------------------------------------
# Controller operations
# ---------------------------------------------------------------------------


def adopt(component: ComponentId, h: LawHierarchy, law: str,
          cert: Optional[Certificate] = None,
          verifier: Optional[Verifier] = demo_verify) -> tuple[Agent, Ruling]:
    """Create an agent of ``law`` for the component, or refuse.

    The adoption event runs every matching adopted-event rule root-first;
    a failed certificate requirement or a block terminal refuses adoption.
    Certificate attributes are readable by rules only if the verifier
    accepts the certificate.
    """
    h.law(law)  # raises UnknownLawError early
    attrs: dict[str, str] = {}
    if cert is not None and (verifier is None or verifier(cert)):
        attrs = cert.attr_dict()
    agent = Agent(component=component, law=law, lineage=h.lineage[law],
                  cert=cert, cert_attrs=attrs)
    ctx = EventContext(event=EventKind.ADOPTED, operation="", flow=None,
                       peer_name=None, peer_profile=frozenset(),
                       peer_outside=False)
    program = program_for(h, law)
    verdict, matched, updates, effects, reason = evaluate(
        program, agent.state, agent.cert_attrs, ctx)
    if verdict == "block":
        ruling = Ruling(Decision.BLOCK_NOTICE, matched,
                        reason or "adoption blocked", updates, effects)
        raise AdoptionRefused(ruling.reason, ruling)
    ruling = Ruling(Decision.DELIVER, matched, None, updates, effects)
    return agent, ruling


def handle_send(agent: Agent, h: LawHierarchy, operation: str, payload: bytes,
                target: str, target_locus: Locus) -> tuple[Ruling, Optional[Envelope]]:
    """Sender-side ruling.  Forward yields the enveloped message, or a bare
    payload (None envelope) when the target is outside the system."""
    flow = classify_flow(agent.law, agent.law, target_locus)
    outside = isinstance(target_locus, _Outside)
    ctx = EventContext(event=EventKind.SENT, operation=operation, flow=flow,
                       peer_name=target if outside else target_locus,
                       peer_profile=frozenset(), peer_outside=outside)
    program = program_for(h, agent.law)
    verdict, matched, updates, effects, reason = evaluate(
        program, agent.state, agent.cert_attrs, ctx)
    if verdict == "block":
        note = reason or f"blocked by {matched_token(matched)}"
        return Ruling(Decision.BLOCK_NOTICE, matched, note, updates, effects,
                      flow), None
    ruling = Ruling(Decision.FORWARD, matched, None, updates, effects, flow)
    if outside:
        return ruling, None
    env = Envelope(
        sender_module=agent.law,
        sender_profile=agent.profile_labels(),
        sender_lineage=agent.lineage,
        operation=operation,
        payload=payload,
        sender=agent.component.name,
        target=target,
    )
    return ruling, env


def handle_arrive(agent: Agent, h: LawHierarchy,
                  inbound: Union[Envelope, BareInbound]) -> tuple[Ruling, Optional[Delivery]]:
    """Receiver-side ruling.  Deliver strips the envelope and hands the
    component only the operation and payload (plus the sender identity when
    the agent's law disclosed it)."""
    if isinstance(inbound, Envelope):
        if (not inbound.sender_module or not inbound.sender
                or not inbound.sender_lineage):
            ruling = Ruling(Decision.BLOCK_NOTICE, None, "malformed envelope",
                            (), ())
            return ruling, None
        # in-system only if the lineage is the one this hierarchy holds for
        # the claimed module, root to leaf
        genuine = (h.lineage.get(inbound.sender_module)
                   == inbound.sender_lineage)
        if genuine and inbound.sender_module == agent.law:
            flow = FlowKind.INNER
        elif genuine:
            flow = FlowKind.INFLOW
        else:
            flow = FlowKind.IMPORT
        if genuine:
            peer_name: Optional[str] = inbound.sender_module
            peer_profile = frozenset(inbound.sender_profile)
            peer_outside = False
            identity: Optional[tuple[str, tuple[str, ...]]] = (
                inbound.sender_module, inbound.sender_profile)
        else:
            peer_name = inbound.sender
            peer_profile = frozenset()
            peer_outside = True
            identity = None
    else:
        flow = FlowKind.IMPORT
        peer_name = inbound.sender_address
        peer_profile = frozenset()
        peer_outside = True
        identity = None
    ctx = EventContext(event=EventKind.ARRIVED, operation=inbound.operation,
                       flow=flow, peer_name=peer_name,
                       peer_profile=peer_profile, peer_outside=peer_outside)
    program = program_for(h, agent.law)
    verdict, matched, updates, effects, reason = evaluate(
        program, agent.state, agent.cert_attrs, ctx)
    if verdict == "block":
        # Arrival-side blocks stay silent: a notice would leak topology.
        return Ruling(Decision.BLOCK_SILENT, matched, None, updates, effects,
                      flow), None
    agent.last_delivery = identity
    disclose = agent.state.get("disclose") == "yes"
    delivery = Delivery(operation=inbound.operation, payload=inbound.payload,
                        sender_identity=identity if disclose else None)
    return Ruling(Decision.DELIVER, matched, None, updates, effects,
                  flow), delivery


@dataclass(frozen=True)
class DisclosureResult:
    kind: str  # "disclosed" | "refused" | "none"
    identity: Optional[tuple[str, tuple[str, ...]]]


def disclose_identity(agent: Agent) -> DisclosureResult:
    """Reveal the stripped identification of the last delivery, law willing.

    A law grants disclosure by setting state key ``disclose`` to ``"yes"``
    (typically at adoption).  With no prior enveloped delivery there is
    nothing to disclose.
    """
    if agent.last_delivery is None:
        return DisclosureResult("none", None)
    if agent.state.get("disclose") == "yes":
        return DisclosureResult("disclosed", agent.last_delivery)
    return DisclosureResult("refused", None)
