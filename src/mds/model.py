"""Data model for interaction laws and the conformance hierarchy.

A distributed module is the set of components whose messaging is governed by
a shared interaction law.  Laws form a tree: every law except the root names
a parent and may deviate from it only where the parent's meta permissions
allow.  This module holds the in-memory representation of laws (rules,
predicates, actions, meta permissions, overrides) and of a validated
hierarchy.  Text parsing and printing live in ``law_lang``; tree validation
lives in ``conformance``.

Values here are immutable once constructed; evaluation never mutates a law.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union


# A law name doubles as a module name.  Identifiers (law names, rule ids,
# profile labels, outside addresses) share one token charset: NAME_CHAR, and
# a NAME starts with neither a digit nor "-".
NAME_CHAR = "[A-Za-z0-9_-]"
NAME = "[A-Za-z_]" + NAME_CHAR + "*"
_NAME_RE = re.compile(NAME)


def valid_name(token: str) -> bool:
    """True if token is usable as a law name, rule id, label, or address."""
    return _NAME_RE.fullmatch(token) is not None


def unsigned_decimal(text: str) -> Optional[int]:
    """The value of a count, tick or port a person typed, if it is ASCII
    digits 0-9 and no more than ``int`` converts ("²", "٣", "-1", " 1" and
    "1_0" are not); else None.  Each caller checks its own range."""
    try:
        return int(text) if text.isascii() and text.isdigit() else None
    except ValueError:  # more digits than int() converts
        return None


def not_utf8(exc: UnicodeDecodeError) -> tuple[int, int, str]:
    """(line, column, "not UTF-8 (byte 0x..)") of the first byte of a file,
    read whole through ``open``, that does not decode.

    Lines end where ``open``'s universal newlines end them, at CR LF, CR
    or LF, so the line is the one a parser of the text counts; the column
    counts characters from 1.
    """
    lines = re.split(r"\r\n?|\n", exc.object[:exc.start].decode("utf-8"))
    return (len(lines), len(lines[-1]) + 1,
            f"not UTF-8 (byte 0x{exc.object[exc.start]:02x})")


class FlowKind(Enum):
    """How a message relates to the module whose law is doing the judging."""

    INNER = "inner"      # both endpoints inside the module
    INFLOW = "inflow"    # receipt from another module of the same system
    OUTFLOW = "outflow"  # send to another module of the same system
    IMPORT = "import"    # receipt from outside the system
    EXPORT = "export"    # send to outside the system

    # Members are singletons compared by identity, so the identity hash is
    # sound; Enum's own hashes the name in Python, on every dict lookup.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


class EventKind(Enum):
    ADOPTED = "adopted"
    SENT = "sent"
    ARRIVED = "arrived"

    __hash__ = object.__hash__  # as FlowKind's


class RuleMode(Enum):
    # Categorical rules bind all subordinate laws unconditionally; default
    # rules may be deviated from where a meta permission says so.
    CATEGORICAL = "categorical"
    DEFAULT = "default"


class MetaDirection(Enum):
    MAY_PERMIT = "may-permit"      # carve permits out of a blocking default
    MAY_PROHIBIT = "may-prohibit"  # carve blocks out of a permitting default
    MAY_REPLACE = "may-replace"    # arbitrary replacement

    def __str__(self) -> str:
        return self.value


class OverrideKind(Enum):
    PERMIT = "permit"
    BLOCK = "block"
    REPLACE = "replace"


class SpecialValue(Enum):
    """Action values resolved against the adopting agent, not literals."""

    MODULE_NAME = "module-name"        # name of the leaf law being adopted
    MODULE_PROFILE = "module-profile"  # comma-joined declared profile labels


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------
# Atoms are total: a missing state key, absent peer profile, or absent
# certificate attribute makes the atom false, never an error.


@dataclass(frozen=True)
class TruePred:
    """Empty guard; matches every event."""


@dataclass(frozen=True)
class OpEquals:
    value: str


@dataclass(frozen=True)
class OpGlob:
    pattern: str


@dataclass(frozen=True)
class FlowIs:
    kind: FlowKind


@dataclass(frozen=True)
class PeerModuleIs:
    # Matches the peer's module name, or its address token when the peer is
    # outside the system.
    name: str


@dataclass(frozen=True)
class PeerProfileHas:
    label: str


@dataclass(frozen=True)
class PeerOutside:
    pass


@dataclass(frozen=True)
class StateEquals:
    key: str
    value: Union[str, int]  # comparison is type-sensitive


@dataclass(frozen=True)
class StateLess:
    key: str
    bound: int


@dataclass(frozen=True)
class CertEquals:
    # Reads the local agent's verified certificate attributes.
    attr: str
    value: str


@dataclass(frozen=True)
class Not:
    inner: "Predicate"


@dataclass(frozen=True)
class And:
    # N-ary and flattened: parts never contains another And.
    parts: tuple["Predicate", ...]


@dataclass(frozen=True)
class Or:
    parts: tuple["Predicate", ...]


Predicate = Union[
    TruePred, OpEquals, OpGlob, FlowIs, PeerModuleIs, PeerProfileHas,
    PeerOutside, StateEquals, StateLess, CertEquals, Not, And, Or,
]


# ---------------------------------------------------------------------------
# Actions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Permit:
    pass


@dataclass(frozen=True)
class Block:
    pass


@dataclass(frozen=True)
class SetState:
    key: str
    value: Union[str, int, SpecialValue]


@dataclass(frozen=True)
class IncrementState:
    key: str
    delta: int


@dataclass(frozen=True)
class NotifyRegistry:
    pass


@dataclass(frozen=True)
class CertConstraint:
    attr: str
    op: str  # "equals" | "contains"
    value: Union[str, SpecialValue]


@dataclass(frozen=True)
class RequireCertificate:
    constraints: tuple[CertConstraint, ...]


@dataclass(frozen=True)
class AppendProfile:
    labels: tuple[str, ...]


Action = Union[
    Permit, Block, SetState, IncrementState, NotifyRegistry,
    RequireCertificate, AppendProfile,
]

def terminal_of(actions: tuple[Action, ...]) -> Optional[str]:
    """'permit', 'block', or None when the body carries no terminal."""
    if actions and isinstance(actions[-1], Permit):
        return "permit"
    if actions and isinstance(actions[-1], Block):
        return "block"
    return None


# ---------------------------------------------------------------------------
# Laws
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Rule:
    id: str
    mode: RuleMode
    events: tuple[EventKind, ...]  # canonical order: adopted, sent, arrived
    predicate: Predicate
    actions: tuple[Action, ...]    # terminal, if any, is last


@dataclass(frozen=True)
class MetaPermission:
    rule_id: str
    direction: MetaDirection


@dataclass(frozen=True)
class Override:
    """A child law's deviation from an ancestor's default rule.

    ``target`` names the rule of the nearest law above the declaring one
    that declares that id; the law stays as written, and the controller
    finds that rule on the leaf's path.
    """

    target: str
    kind: OverrideKind
    events: tuple[EventKind, ...]
    predicate: Predicate
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class Law:
    name: str
    parent: Optional[str]          # None only for the root
    profile: tuple[str, ...]
    rules: tuple[Rule, ...]        # textual order is evaluation order
    meta: tuple[MetaPermission, ...]
    overrides: tuple[Override, ...]
    hash: str = ""                 # digest of the canonical serialized text
    # The canonical text itself, kept from hashing so the law server serves
    # it without printing the law again; derived, so never compared.
    text: str = field(default="", compare=False, repr=False)

    def rule(self, rule_id: str) -> Optional[Rule]:
        for r in self.rules:
            if r.id == rule_id:
                return r
        return None

    def grants(self, rule_id: str) -> tuple[MetaDirection, ...]:
        return tuple(m.direction for m in self.meta if m.rule_id == rule_id)


class UnknownLawError(LookupError):
    pass


@dataclass
class LawHierarchy:
    """A validated law tree.

    ``lineage[name]`` is the chain of law hashes from the root down to
    ``name`` inclusive, so ``lineage[name][0]`` is always the root's hash.
    ``cache`` holds compiled artifacts (a program per leaf, the guards and
    bodies they share, and the token cache that names each ruling's
    decider); it never affects equality.
    """

    root: str
    laws: dict[str, Law]
    lineage: dict[str, tuple[str, ...]]
    cache: dict = field(default_factory=dict, compare=False, repr=False)

    def law(self, name: str) -> Law:
        try:
            return self.laws[name]
        except KeyError:
            raise UnknownLawError(f"no law named {name!r} in hierarchy") from None

    def path(self, leaf: str) -> tuple[str, ...]:
        """Law names from the root down to leaf, inclusive."""
        chain: list[str] = []
        cursor: Optional[str] = leaf
        while cursor is not None:
            law = self.law(cursor)
            chain.append(law.name)
            cursor = law.parent
        chain.reverse()
        return tuple(chain)
