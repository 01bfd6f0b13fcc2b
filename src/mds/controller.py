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

``program_for`` does the per-rule work once per leaf law.  Its entries list
the rules on the path root-first: each with its guard and body compiled to
closures, values that name the module resolved against the leaf, and its
matched pair; a default rule also carries the overrides that target it,
paired with it in one walk up the path from the leaf and compiled the same
way.  A guard costs as few calls as its shape allows
(``compile_predicate``).  A guard or body is compiled once per hierarchy
(``_compile_clause``): the cache is keyed on the parsed node, which the
laws of one directory load share wherever they spell it alike, so one
compile serves every clause and leaf that holds the node, unless the body
names the module, which is compiled for each leaf.  The same pass records
which operations the ``op ==`` atoms of a guard let match, and whether
the guard reads anything but the operation.  Adoption binds the leaf's
program, which also holds the hierarchy's lineage table and token cache, to
the agent (``Agent.program``), so a send or an arrival goes straight to
``evaluate``, and its ruling names the decider by a token rendered once.

Scans are built on demand, never at compile time.  ``evaluate`` looks
the scan of one event and operation up in ``Program.tables``; only on a
miss does ``Program.scan`` build it, in one walk of the entries that skips
those the event cannot reach, and a guard the operation settles is dropped
or never run.
An entry without overrides puts the same ready-made row into every scan
that keeps it, one with its guard as written and one with the guard
settled, each made when first needed; the row of an entry with overrides
is built per scan, since its overrides depend on the event and
operation.  Past the lookup, ``evaluate`` runs guards and bodies and
nothing else.
"""

from __future__ import annotations

import fnmatch
import hmac
import re
import secrets
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple, Optional, Union

from .model import (
    Action,
    And,
    AppendProfile,
    Block,
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
    Override,
    PeerModuleIs,
    PeerOutside,
    PeerProfileHas,
    Permit,
    Predicate,
    RequireCertificate,
    Rule,
    SetState,
    SpecialValue,
    StateEquals,
    StateLess,
    TruePred,
)


class _Outside:
    """Locus of parties that run no controller."""

    def __repr__(self) -> str:
        return "Outside"


OUTSIDE = _Outside()
Locus = Union[str, _Outside]


class AdoptionRefused(RuntimeError):
    def __init__(self, reason: str, outcome: "Ruling"):
        super().__init__(reason)
        self.reason = reason
        self.outcome = outcome


# ---------------------------------------------------------------------------
# Identities and certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """A signed attribute record presented at adoption.

    ``attributes["modules"]`` lists, comma-separated, the laws the subject
    may adopt.  ``issue_certificate`` is the one certification authority:
    ``demo_verify`` accepts only what it signed in this process, and
    ``adopt`` reads only a certificate that verifies and names the adopting
    component as its subject.  The authority is a stand-in for a real one
    and must not be mistaken for one.
    """

    subject: str
    attributes: tuple[tuple[str, str], ...]  # sorted (key, value) pairs
    signature: bytes


_CA_KEY = secrets.token_bytes(32)  # drawn once per process


def _sign(subject: str, attributes: tuple[tuple[str, str], ...]) -> bytes:
    return hmac.digest(_CA_KEY, repr((subject, attributes)).encode("utf-8"),
                       "sha256")


def issue_certificate(subject: str, attributes: dict[str, str]) -> Certificate:
    attrs = tuple(sorted(attributes.items()))
    return Certificate(subject, attrs, _sign(subject, attrs))


def demo_verify(cert: Certificate) -> bool:
    return hmac.compare_digest(cert.signature,
                               _sign(cert.subject, cert.attributes))


# ---------------------------------------------------------------------------
# Messages in flight
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Envelope:
    """Sender identification concatenated to every in-system message."""

    sender_module: str
    sender_profile: tuple[str, ...]
    sender_lineage: tuple[str, ...]  # law hashes root-first
    operation: str
    payload: bytes
    sender: str   # component name


@dataclass(slots=True)
class BareInbound:
    """A message that arrived without an envelope (from outside the system)."""

    sender_address: str
    operation: str
    payload: bytes


@dataclass(slots=True)
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

    component: str  # the component's name
    law: str
    lineage: tuple[str, ...]
    program: Program = field(repr=False)  # the law's, bound at adoption
    state: dict[str, Union[str, int]] = field(default_factory=dict)
    cert_attrs: dict[str, str] = field(default_factory=dict)
    # state["profile"] as last split, and its labels
    _profile: tuple = field(default=("", ()), init=False, repr=False,
                            compare=False)

    def profile_labels(self) -> tuple[str, ...]:
        raw = self.state.get("profile", "")
        seen, labels = self._profile
        if raw is not seen:
            labels = (tuple(x for x in raw.split(",") if x)
                      if isinstance(raw, str) else ())
            self._profile = (raw, labels)
        return labels


class Decision(Enum):
    FORWARD = "forward"
    DELIVER = "deliver"
    BLOCK_SILENT = "block-silent"
    BLOCK_NOTICE = "block-notice"

    @property
    def permits(self) -> bool:
        return self in (Decision.FORWARD, Decision.DELIVER)


# The members a ruling reads, bound once: on Python 3.10 and 3.11 each read
# through the class (``Decision.DELIVER``) goes through
# ``EnumType.__getattr__``, about 100 ns; a module global costs next to none.
_FORWARD, _DELIVER = Decision.FORWARD, Decision.DELIVER
_BLOCK_SILENT, _BLOCK_NOTICE = Decision.BLOCK_SILENT, Decision.BLOCK_NOTICE
_ADOPTED, _SENT, _ARRIVED = EventKind.ADOPTED, EventKind.SENT, EventKind.ARRIVED
_EXPORT, _INNER, _OUTFLOW = FlowKind.EXPORT, FlowKind.INNER, FlowKind.OUTFLOW
_INFLOW, _IMPORT = FlowKind.INFLOW, FlowKind.IMPORT


# what ``evaluate`` says decided: a rule's (law, rule), or a fallback's token
Matched = Union[tuple[str, str], str]


def matched_token(matched: Matched) -> str:
    """LAW:rule for a rule's pair; a fallback's default:FLOW is its token."""
    if type(matched) is tuple:  # a rule decided: the common case
        return f"{matched[0]}:{matched[1]}"
    return matched


class _Tokens(dict):
    """``matched`` value -> its audit token, rendered on first use.  One per
    hierarchy; the values come from its rules, so peers cannot grow it."""

    def __missing__(self, matched):
        token = self[matched] = matched_token(matched)
        return token


@dataclass(slots=True)
class Ruling:
    decision: Decision
    matched: str  # audit token: LAW:rule, default:FLOW, or - if malformed
    reason: Optional[str]
    # the ruling's writes, in order, as the notes described above _Decided;
    # replayed on the state before the ruling, they give the state after it
    state_updates: tuple[tuple, ...]
    effects: tuple[tuple, ...]
    flow: Optional[FlowKind] = None


# ---------------------------------------------------------------------------
# Predicate and program compilation
# ---------------------------------------------------------------------------


class EventContext(NamedTuple):
    event: EventKind
    operation: str = ""
    flow: Optional[FlowKind] = None
    peer_name: Optional[str] = None
    peer_profile: tuple[str, ...] = ()  # the envelope's, as it arrived
    peer_outside: bool = False


# Calling tuple.__new__ skips NamedTuple's Python-level __new__.
_tuple_new = tuple.__new__
_NO_PROFILE: tuple[str, ...] = ()

_CompiledPred = Callable[[EventContext, dict, dict], bool]


def compile_predicate(p: Predicate) -> _CompiledPred:
    """Close a predicate over into a fast callable(ctx, state, cert_attrs).

    An ``or`` made only of ``flow ==`` atoms, or only of ``op ==`` atoms,
    is one membership test; a two-part ``and``/``or`` calls its parts
    directly, and only a longer one loops over them.
    """
    if isinstance(p, TruePred):
        return lambda ctx, st, ce: True
    if isinstance(p, OpEquals):
        v = p.value
        return lambda ctx, st, ce: ctx.operation == v
    if isinstance(p, OpGlob):
        # fnmatchcase's own matcher, compiled once
        match = re.compile(fnmatch.translate(p.pattern)).match
        return lambda ctx, st, ce: match(ctx.operation) is not None
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
    if isinstance(p, Or) and all(isinstance(x, FlowIs) for x in p.parts):
        # a tuple, not a set: an Enum member hashes in Python
        kinds = tuple(x.kind for x in p.parts)
        return lambda ctx, st, ce: ctx.flow in kinds
    if isinstance(p, Or) and all(isinstance(x, OpEquals) for x in p.parts):
        ops = frozenset(x.value for x in p.parts)
        return lambda ctx, st, ce: ctx.operation in ops
    if isinstance(p, (And, Or)):
        parts = tuple(compile_predicate(x) for x in p.parts)
        if len(parts) == 2:
            a, b = parts
            if isinstance(p, And):
                return lambda ctx, st, ce: a(ctx, st, ce) and b(ctx, st, ce)
            return lambda ctx, st, ce: a(ctx, st, ce) or b(ctx, st, ce)
        if isinstance(p, And):
            def conj(ctx, st, ce, _parts=parts):
                for f in _parts:
                    if not f(ctx, st, ce):
                        return False
                return True
            return conj

        def disj(ctx, st, ce, _parts=parts):
            for f in _parts:
                if f(ctx, st, ce):
                    return True
            return False
        return disj
    raise TypeError(f"unknown predicate node {p!r}")  # pragma: no cover


# A compiled body applies its actions to (state, cert_attrs, updates,
# effects) and returns (verdict, reason) if it decides, or None.  Each write
# appends one note to ``updates``: ("set", key, value) for the value stored;
# ("increment", key, delta) for a key that now holds delta plus its old
# value, or plus 0 if that was not an int; ("append-profile", labels) for
# the labels added to the end of the comma-separated "profile" value.  A
# set or increment note is made once, when its step is compiled, and every
# ruling shares it.
_Decided = Optional[tuple[str, Optional[str]]]
_CompiledBody = Callable[[dict, dict, list, list], _Decided]

_PERMIT = ("permit", None)
_BLOCK = ("block", None)
# The effect a notify-registry action appends; the runner looks for it.
NOTIFY_REGISTRY = ("notify-registry",)


def _compile_step(act: Action, leaf: str,
                  leaf_profile: tuple[str, ...]) -> _CompiledBody:
    """Close one non-terminal action over into a compiled body."""
    if isinstance(act, SetState):
        key, value = act.key, act.value
        if value is SpecialValue.MODULE_NAME:
            value = leaf
        elif value is SpecialValue.MODULE_PROFILE:
            value = ",".join(leaf_profile)
        note = ("set", key, value)

        def set_state(st, ce, updates, effects):
            st[key] = value
            updates.append(note)
        return set_state
    if isinstance(act, IncrementState):
        key, delta = act.key, act.delta
        note = ("increment", key, delta)

        def increment(st, ce, updates, effects):
            cur = st.get(key)
            st[key] = (cur if type(cur) is int else 0) + delta
            updates.append(note)
        return increment
    if isinstance(act, NotifyRegistry):
        return lambda st, ce, updates, effects: effects.append(
            NOTIFY_REGISTRY)
    if isinstance(act, AppendProfile):
        wanted = act.labels

        def append_profile(st, ce, updates, effects):
            raw = st.get("profile", "")
            labels = ([x for x in raw.split(",") if x]
                      if isinstance(raw, str) else [])
            added = [l for l in wanted if l not in labels]
            if added:
                st["profile"] = ",".join(labels + added)
                updates.append(("append-profile", tuple(added)))
        return append_profile
    if isinstance(act, RequireCertificate):
        # (attribute, equality?, wanted value, the block it decides)
        checks = []
        for c in act.constraints:
            want = leaf if isinstance(c.value, SpecialValue) else c.value
            if c.op == "equals":
                why = f"certificate attribute {c.attr!r} != {want!r}"
            else:
                why = f"certificate attribute {c.attr!r} does not list {want!r}"
            checks.append((c.attr, c.op == "equals", want, ("block", why)))

        def require_cert(st, ce, updates, effects):
            for attr, equals, want, refusal in checks:
                have = ce.get(attr)
                if equals:
                    if have != want:
                        return refusal
                elif have is None or want not in [
                        x.strip() for x in have.split(",")]:
                    return refusal
            return None
        return require_cert
    raise TypeError(f"unknown action {act!r}")  # pragma: no cover


def compile_body(actions: tuple[Action, ...], leaf: str,
                 leaf_profile: tuple[str, ...]) -> _CompiledBody:
    """Close a rule or override body over into a fast callable.

    Values that name the adopting module are resolved against the leaf law
    here, once.  Actions after the first terminal are never reached.
    """
    steps: list[_CompiledBody] = []
    end: _Decided = None
    for act in actions:
        if isinstance(act, (Permit, Block)):
            end = _PERMIT if isinstance(act, Permit) else _BLOCK
            break
        steps.append(_compile_step(act, leaf, leaf_profile))
    if not steps:
        return lambda st, ce, updates, effects: end
    if len(steps) == 1:
        step = steps[0]
        if end is None:
            return step
        return lambda st, ce, updates, effects: (
            step(st, ce, updates, effects) or end)

    def body(st, ce, updates, effects):
        for step in steps:
            decided = step(st, ce, updates, effects)
            if decided is not None:
                return decided
        return end
    return body


def _names_module(actions: tuple[Action, ...]) -> bool:
    """True if a body holds a value resolved against the leaf law."""
    for act in actions:
        if isinstance(act, SetState) and isinstance(act.value, SpecialValue):
            return True
        if isinstance(act, RequireCertificate) and any(
                isinstance(c.value, SpecialValue) for c in act.constraints):
            return True
    return False


def _op_facts(p: Predicate) -> tuple[Optional[frozenset], bool]:
    """(ops, op_only) of a guard: the operations whose ``op ==`` atoms can
    make p true, or None for any, and whether p reads nothing but the
    operation."""
    if isinstance(p, OpEquals):
        return frozenset((p.value,)), True
    if isinstance(p, Not):
        return None, _op_facts(p.inner)[1]
    if isinstance(p, (And, Or)):
        facts = [_op_facts(x) for x in p.parts]
        sets = [ops for ops, _ in facts]
        op_only = all(only for _, only in facts)
        if isinstance(p, Or):
            return None if None in sets else frozenset().union(*sets), op_only
        known = [ops for ops in sets if ops is not None]
        return frozenset.intersection(*known) if known else None, op_only
    return None, isinstance(p, (TruePred, OpGlob))


def _compile_clause(h: LawHierarchy, clause: Union[Rule, Override], leaf: str,
                    leaf_profile: tuple[str, ...]
                    ) -> tuple[_CompiledPred, _CompiledBody,
                               Optional[frozenset], bool]:
    """(guard, body, operations, reads only op) of a rule or override,
    compiled and analysed once per hierarchy.

    The cache is keyed on the guard node and the body node, not on the
    clause: leaves share what ancestors declare, and the laws of one
    directory load share every guard and body spelled alike
    (``law_lang.parse_law``), so the first clause to reach a node compiles
    it for all.  Only a body that names the module is compiled again for
    each leaf.
    """
    nodes = h.cache.setdefault("nodes", {})
    pred, actions = clause.predicate, clause.actions
    guard = nodes.get(id(pred))
    if guard is None:
        # Each node is kept so that its id is not reused while cached.
        guard = nodes[id(pred)] = (
            pred, compile_predicate(pred), *_op_facts(pred))
    body = nodes.get(id(actions))
    if body is None:
        body = nodes[id(actions)] = (
            actions, None if _names_module(actions)
            else compile_body(actions, leaf, leaf_profile))
    compiled = body[1]
    if compiled is None:
        compiled = compile_body(actions, leaf, leaf_profile)
    return guard[1], compiled, guard[2], guard[3]


class _OvEntry:
    __slots__ = ("source", "events", "pred", "body", "matched", "ops",
                 "op_only")

    def __init__(self, source: str, ov: Override, pred: _CompiledPred,
                 body: _CompiledBody, ops: Optional[frozenset],
                 op_only: bool):
        self.source = source      # law declaring the override
        self.events = ov.events
        self.pred = pred
        self.body = body
        self.matched = (source, ov.target)
        self.ops = ops            # see _op_facts
        self.op_only = op_only


class _RuleEntry:
    __slots__ = ("law_name", "rule_id", "events", "pred", "body", "matched",
                 "overrides", "ops", "op_only", "row", "settled_row")

    def __init__(self, law_name: str, rule: Rule, pred: _CompiledPred,
                 body: _CompiledBody, ops: Optional[frozenset], op_only: bool,
                 overrides: tuple[_OvEntry, ...]):
        self.law_name = law_name
        self.rule_id = rule.id
        self.events = rule.events
        self.pred = pred
        self.body = body
        self.matched = (law_name, rule.id)
        self.overrides = overrides  # deepest law first; empty unless DEFAULT
        self.ops = ops
        self.op_only = op_only
        # ready-made scan rows, for an entry without overrides (see Program)
        self.row: Optional[tuple] = None
        self.settled_row: Optional[tuple] = None


_OTHER = object()  # table key of the scan for operations no ``op ==`` names


class Program:
    """Pre-resolved scan order for one leaf law of one hierarchy.

    ``entries`` lists every rule on the path root-first, and ``tables``
    holds, per event kind, the scan each operation reaches, keyed by
    operation (``_OTHER`` for every operation no ``op ==`` names).  A scan
    is built on a miss in ``tables``, by ``scan``, which fills it in.
    A scan row is (guard, body, matched, overrides as (guard, body,
    matched)); a None guard always holds.  An entry without overrides
    lends every scan that keeps it one of two ready-made rows, ``row``
    (guard as written) or ``settled_row`` (guard settled to None), each
    made by the first scan that needs it; the row of an entry with
    overrides is built for its scan.  ``lineages`` is the hierarchy's
    lineage table, against which an arrival checks its sender's claim, and
    ``tokens`` its token cache (see ``_Tokens``).
    """

    __slots__ = ("tokens", "entries", "lineages", "named", "tables")

    def __init__(self, tokens: _Tokens, entries: tuple[_RuleEntry, ...],
                 lineages: dict[str, tuple[str, ...]]):
        self.tokens = tokens
        self.entries = entries
        self.lineages = lineages
        # operations some ``op ==`` of the program names
        self.named = frozenset().union(*(
            c.ops for e in entries for c in (e, *e.overrides)
            if c.ops is not None))
        self.tables: dict[EventKind, dict] = {event: {} for event in EventKind}

    def scan(self, event: EventKind, operation: str) -> tuple:
        """The rows of ``entries`` that the event and operation can reach,
        in scan order, built in one pass on a miss in ``tables``, which
        ``evaluate`` has already looked up.

        A clause whose event or ``op ==`` atoms exclude the operation is
        skipped.  For a named operation, a guard that reads only the
        operation is settled: a rule whose guard fails is dropped, and one
        whose guard holds gets a None guard, which ``evaluate`` skips; an
        override whose guard holds becomes the row's body, and the overrides
        after it are dropped.  Operations that no ``op ==`` names share one
        scan, so a peer cannot grow the table.
        """
        key = operation if operation in self.named else _OTHER
        # op-only guards are settled by a named operation alone
        ctx = None if key is _OTHER else EventContext(event, operation)
        kept = []
        for entry in self.entries:
            # ops lie within named, so an unnamed operation is in none
            if event not in entry.events or (
                    entry.ops is not None and operation not in entry.ops):
                continue
            settled = ctx is not None and entry.op_only
            if settled and not entry.pred(ctx, None, None):
                continue
            if not entry.overrides:
                if settled:
                    row = entry.settled_row
                    if row is None:
                        row = entry.settled_row = (None, entry.body,
                                                   entry.matched, ())
                else:
                    row = entry.row
                    if row is None:
                        row = entry.row = (entry.pred, entry.body,
                                           entry.matched, ())
                kept.append(row)
                continue
            body, matched, overrides = entry.body, entry.matched, []
            for ov in entry.overrides:
                if event not in ov.events or (
                        ov.ops is not None and operation not in ov.ops):
                    continue
                if ctx is not None and ov.op_only:
                    if ov.pred(ctx, None, None):
                        body, matched = ov.body, ov.matched
                        break
                    continue
                overrides.append((ov.pred, ov.body, ov.matched))
            kept.append((None if settled else entry.pred, body, matched,
                         tuple(overrides)))
        rows = self.tables[event][key] = tuple(kept)
        return rows


def program_for(h: LawHierarchy, leaf: str) -> Program:
    cached = h.cache.get(("program", leaf))
    if cached is not None:
        return cached
    profile = h.law(leaf).profile
    # One walk up the path, leaf first.  An override targets the nearest
    # law above its own that declares the id, so each rule takes the
    # overrides met so far for its id (deepest law first, textual order
    # within a law) before its own law's overrides join them.
    pending: dict[str, list[_OvEntry]] = {}
    entries: list[_RuleEntry] = []
    for name in reversed(h.path(leaf)):
        law = h.law(name)
        entries[:0] = [_RuleEntry(
            name, rule, *_compile_clause(h, rule, leaf, profile),
            tuple(pending.pop(rule.id, ()))) for rule in law.rules]
        for ov in law.overrides:
            pending.setdefault(ov.target, []).append(_OvEntry(
                name, ov, *_compile_clause(h, ov, leaf, profile)))
    program = Program(h.cache.setdefault("tokens", _Tokens()),
                      tuple(entries), h.lineage)
    h.cache[("program", leaf)] = program
    return program


_FALLBACK_PERMIT = (_OUTFLOW, _INNER)
_DEFAULT_OF_ROOT = {flow: f"default:{flow.value if flow else 'adopted'}"
                    for flow in (None, *FlowKind)}


def evaluate(program: Program, state: dict, cert_attrs: dict,
             ctx: EventContext) -> tuple[str, Matched, tuple, tuple, Optional[str]]:
    """Run the scan; returns (verdict, matched, state_updates, effects, reason).

    Verdict is 'permit' or 'block'.  Non-terminal actions of every matching
    rule passed on the way apply in order; the state dict is mutated.
    """
    op = ctx.operation
    rows = program.tables[ctx.event].get(op if op in program.named else _OTHER)
    if rows is None:
        rows = program.scan(ctx.event, op)
    updates: list[tuple] = []
    effects: list[tuple] = []
    for pred, body, matched, overrides in rows:
        if pred is not None and not pred(ctx, state, cert_attrs):
            continue
        if overrides:
            for ov_pred, ov_body, ov_matched in overrides:
                if ov_pred(ctx, state, cert_attrs):
                    body, matched = ov_body, ov_matched
                    break
        decided = body(state, cert_attrs, updates, effects)
        if decided is not None:
            return (decided[0], matched, tuple(updates), tuple(effects),
                    decided[1])
    # Nothing decided: built-in fallback.
    if ctx.event is _ADOPTED or ctx.flow in _FALLBACK_PERMIT:
        verdict = "permit"
    else:
        verdict = "block"
    return (verdict, _DEFAULT_OF_ROOT[ctx.flow], tuple(updates),
            tuple(effects), None)


# ---------------------------------------------------------------------------
# Controller operations
# ---------------------------------------------------------------------------


def adopt(component: str, h: LawHierarchy, law: str,
          cert: Optional[Certificate] = None) -> tuple[Agent, Ruling]:
    """Create an agent of ``law`` for the named component, or refuse.

    The adoption event runs every matching adopted-event rule root-first;
    a failed certificate requirement or a block terminal refuses adoption.
    Certificate attributes are readable by rules only if ``demo_verify``
    accepts the certificate and its subject is ``component``.
    """
    program = program_for(h, law)  # raises UnknownLawError for no such law
    attrs: dict[str, str] = {}
    if cert is not None and cert.subject == component and demo_verify(cert):
        attrs = dict(cert.attributes)
    agent = Agent(component=component, law=law, lineage=h.lineage[law],
                  program=program, cert_attrs=attrs)
    verdict, matched, updates, effects, reason = evaluate(
        agent.program, agent.state, agent.cert_attrs, EventContext(_ADOPTED))
    token = agent.program.tokens[matched]
    if verdict == "block":
        ruling = Ruling(_BLOCK_NOTICE, token,
                        reason or "adoption blocked", updates, effects)
        raise AdoptionRefused(ruling.reason, ruling)
    ruling = Ruling(_DELIVER, token, None, updates, effects)
    return agent, ruling


def handle_send(agent: Agent, operation: str, payload: bytes, target: str,
                target_locus: Locus) -> tuple[Ruling, Optional[Envelope]]:
    """Sender-side ruling.  Forward yields the enveloped message, or a bare
    payload (None envelope) when the target is outside the system."""
    outside = target_locus is OUTSIDE
    if outside:
        flow = _EXPORT
    elif target_locus == agent.law:
        flow = _INNER
    else:
        flow = _OUTFLOW
    ctx = _tuple_new(EventContext, (
        _SENT, operation, flow,
        target if outside else target_locus, _NO_PROFILE, outside))
    program = agent.program
    verdict, matched, updates, effects, reason = evaluate(
        program, agent.state, agent.cert_attrs, ctx)
    token = program.tokens[matched]
    if verdict == "block":
        return Ruling(_BLOCK_NOTICE, token, reason or f"blocked by {token}",
                      updates, effects, flow), None
    ruling = Ruling(_FORWARD, token, None, updates, effects, flow)
    if outside:
        return ruling, None
    env = Envelope(agent.law, agent.profile_labels(), agent.lineage,
                   operation, payload, agent.component)
    return ruling, env


def handle_arrive(agent: Agent, inbound: Union[Envelope, BareInbound]
                  ) -> tuple[Ruling, Optional[Delivery]]:
    """Receiver-side ruling.  Deliver strips the envelope and hands the
    component only the operation and payload, plus the sender's module and
    profile when the sender is in-system and the agent's law has set state
    key ``disclose`` to ``"yes"``."""
    if isinstance(inbound, Envelope):
        if (not inbound.sender_module or not inbound.sender
                or not inbound.sender_lineage):
            ruling = Ruling(_BLOCK_NOTICE, "-", "malformed envelope",
                            (), ())
            return ruling, None
        # in-system only if the lineage is the one this hierarchy holds for
        # the claimed module, root to leaf
        module = inbound.sender_module
        if agent.program.lineages.get(module) == inbound.sender_lineage:
            flow = _INNER if module == agent.law else _INFLOW
            peer_name: Optional[str] = module
            peer_profile = inbound.sender_profile
            peer_outside = False
        else:
            flow = _IMPORT
            peer_name = inbound.sender
            peer_profile = _NO_PROFILE
            peer_outside = True
    else:
        flow = _IMPORT
        peer_name = inbound.sender_address
        peer_profile = _NO_PROFILE
        peer_outside = True
    ctx = _tuple_new(EventContext, (
        _ARRIVED, inbound.operation, flow, peer_name, peer_profile,
        peer_outside))
    program = agent.program
    verdict, matched, updates, effects, reason = evaluate(
        program, agent.state, agent.cert_attrs, ctx)
    token = program.tokens[matched]
    if verdict == "block":
        # Arrival-side blocks stay silent: a notice would leak topology.
        return Ruling(_BLOCK_SILENT, token, None, updates, effects,
                      flow), None
    identity = None
    if not peer_outside and agent.state.get("disclose") == "yes":
        identity = (peer_name, inbound.sender_profile)
    delivery = Delivery(inbound.operation, inbound.payload, identity)
    return Ruling(_DELIVER, token, None, updates, effects,
                  flow), delivery

