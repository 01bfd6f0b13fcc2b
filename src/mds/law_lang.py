r"""Textual law language: parser, canonical printer, and law hashing.

Grammar (``#`` starts a comment; input must be UTF-8 without a BOM)::

    law NAME [extends NAME] {
      profile [LABEL, ...];
      (rule | allow-override | override)*
    }

    rule           ::= (categorical|default) rule ID on EVENTS [if PRED] BODY
    allow-override ::= allow-override ID (may-permit|may-prohibit|may-replace) ;
    override       ::= override RULE_ID (permit|block|replace) on EVENTS [if PRED] BODY
    EVENTS         ::= (adopted|sent|arrived) (, (adopted|sent|arrived))*
    BODY           ::= { (action ;)* }

    action ::= permit | block
             | set state.KEY = (STRING | INT | module-name | module-profile)
             | increment state.KEY by INT
             | notify-registry
             | require-cert CONSTR (, CONSTR)*
             | append-profile LABEL (, LABEL)*
    CONSTR ::= ATTR == STRING | ATTR contains (STRING | module-name)

    PRED   ::= disjunction of conjunctions of (possibly negated) atoms;
               not binds tightest, then and, then or; parentheses group
    atom   ::= op == STRING | op matches STRING
             | flow == (inflow|outflow|import|export|inner)
             | peer.module == NAME | peer.profile has STRING | peer.outside
             | state.KEY == (STRING|INT) | state.KEY < INT
             | cert.ATTR == STRING

A rule body carries at most one terminal action (permit/block), and only in
last position; a body without a terminal applies its actions and lets the
scan continue.  Identifiers must not start with a digit or ``-``.

The lexer reads the text one ``\n``-separated row at a time with a single
regular expression.  Space, tab and carriage return separate tokens, and a
comment runs to the end of its row.  A STRING closes on its own row, holds
no control character and knows only the escapes ``\\ \" \n \t``.  A run of
``[A-Za-z0-9_-]`` is an INT when it reads ``-?[0-9]+`` and a name when it
starts with a letter or ``_``; any other run is an error.  Columns count
characters from 1, tabs included.

The canonical form emitted by :func:`print_law` is what gets hashed: profile
line first, then rules in textual order, then allow-override lines, then
overrides, two-space indent, comments stripped.  ``print_law`` is idempotent
across a parse round trip.  :func:`finalize` prints a law once and keeps the
text on ``Law.text`` beside its hash; that kept text is what a law server
serves.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple, Optional, Union

from .model import (
    Action,
    And,
    AppendProfile,
    Block,
    CertConstraint,
    CertEquals,
    EventKind,
    FlowIs,
    FlowKind,
    IncrementState,
    Law,
    MetaDirection,
    MetaPermission,
    NAME,
    NAME_CHAR,
    Not,
    NotifyRegistry,
    OpEquals,
    OpGlob,
    Or,
    Override,
    OverrideKind,
    PeerModuleIs,
    PeerOutside,
    PeerProfileHas,
    Permit,
    Predicate,
    RequireCertificate,
    Rule,
    RuleMode,
    SetState,
    SpecialValue,
    StateEquals,
    StateLess,
    TruePred,
    terminal_of,
)

HASH_ALGORITHM = "sha256"

_EVENT_ORDER = (EventKind.ADOPTED, EventKind.SENT, EventKind.ARRIVED)
_FLOW_TOKENS = {k.value: k for k in FlowKind}
_EVENT_TOKENS = {e.value: e for e in EventKind}
_DIRECTION_TOKENS = {d.value: d for d in MetaDirection}
_OVERRIDE_TOKENS = {k.value: k for k in OverrideKind}
_SPECIAL_TOKENS = {v.value: v for v in SpecialValue}


@dataclass(frozen=True)
class LawSource:
    text: str
    origin: str = "<law>"


@dataclass(frozen=True)
class ParseDiagnostic:
    severity: str  # "error" | "warning"
    line: int      # 1-based
    col: int       # 1-based
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.severity}: {self.message}"


class LawParseError(ValueError):
    def __init__(self, origin: str, diagnostics: list[ParseDiagnostic]):
        self.origin = origin
        self.diagnostics = diagnostics
        lines = "; ".join(str(d) for d in diagnostics[:4])
        super().__init__(f"{origin}: {lines}")


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# One alternative per lexeme; ``Match.lastindex`` tells which matched.
# Every character of a row matches some alternative, so ``finditer`` walks
# a row without gaps.  A '"' that opens no well-formed string on its row
# falls through to the last alternative and ``_bad_string`` says why.
# What a string may hold: no control character, and only the escapes
# \\ \" \n \t.
_STRING_BODY = r'(?:[^"\\\x00-\x1f]|\\[\\"nt])*'

_LAW_LEXEME = re.compile(
    r"([ \t\r]+)"                               # 1 blank
    r"|(#.*)"                                   # 2 comment, to the row's end
    r"|(" + NAME + ")"                          # 3 NAME
    r"|(==|[{}\[\](),;.=<])"                    # 4 PUNCT
    r'|("' + _STRING_BODY + '")'                # 5 STRING
    r"|(-?[0-9]+(?!" + NAME_CHAR + "))"         # 6 NUMBER
    r"|(" + NAME_CHAR + "+)"                    # 7 word that is neither
    r"|(.)")                                    # 8 anything else
_COMMENT, _STRING, _BAD_WORD = 2, 5, 7
_KINDS = (None, None, None, "NAME", "PUNCT", "STRING", "NUMBER")
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}


class _Token(NamedTuple):
    kind: str  # NAME NUMBER STRING PUNCT EOF
    value: str
    line: int
    col: int


_tuple_new = tuple.__new__


class _Abort(Exception):
    pass


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m.group(1)]


def _bad_string(row: str, start: int, line: int,
                diags: list[ParseDiagnostic]):
    """Report why the '"' at ``row[start]`` opens no well-formed string."""
    end = _STRING_PREFIX.match(row, start + 1).end()
    ahead = row[end:end + 2]
    if ahead in ("", "\\"):
        # The row ends, or ends after a backslash.
        diags.append(ParseDiagnostic(
            "error", line, start + 1, "unterminated string"))
    elif ahead[0] == "\\":
        diags.append(ParseDiagnostic(
            "error", line, end + 1, f"unknown escape \\{ahead[1]}"))
    else:
        diags.append(ParseDiagnostic(
            "error", line, end + 1, "control character in string"))
    raise _Abort


def _tokenize(text: str, diags: list[ParseDiagnostic]) -> list[_Token]:
    if text.startswith("\ufeff"):
        diags.append(ParseDiagnostic("error", 1, 1, "byte order mark not allowed"))
        raise _Abort
    toks: list[_Token] = []
    append = toks.append
    rows = text.split("\n")
    for line, row in enumerate(rows, start=1):
        for m in _LAW_LEXEME.finditer(row):
            group = m.lastindex
            if group <= _COMMENT:
                continue
            value = m.group()
            if group == _STRING:
                value = value[1:-1]
                if "\\" in value:
                    value = _ESCAPE.sub(_unescape, value)
            elif group >= _BAD_WORD:
                if value == '"':
                    _bad_string(row, m.start(), line, diags)
                message = (f"bad identifier {value!r} (must not start with a "
                           f"digit or '-')" if group == _BAD_WORD
                           else f"unexpected character {value!r}")
                diags.append(ParseDiagnostic(
                    "error", line, m.start() + 1, message))
                raise _Abort
            # Calling tuple.__new__ skips NamedTuple's Python-level __new__.
            append(_tuple_new(_Token, (_KINDS[group], value, line,
                                       m.start() + 1)))
    append(_Token("EOF", "", len(rows), len(rows[-1]) + 1))
    return toks


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, toks: list[_Token], diags: list[ParseDiagnostic]):
        self.toks = toks
        self.pos = 0
        self.diags = diags

    def peek(self) -> _Token:
        # ``advance`` never steps past the EOF token.
        return self.toks[self.pos]

    def advance(self) -> _Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def fail(self, tok: _Token, message: str):
        self.diags.append(ParseDiagnostic("error", tok.line, tok.col, message))
        raise _Abort

    def accept(self, kind: str, value: str) -> bool:
        """Step over the next token if it is ``kind`` ``value``."""
        tok = self.toks[self.pos]
        if tok.kind == kind and tok.value == value:
            self.pos += 1
            return True
        return False

    @staticmethod
    def found(tok: _Token) -> str:
        """The token as a diagnostic names it: a string in its quotes, the
        end of input as 'EOF'."""
        if tok.kind == "STRING":
            return repr(_quote(tok.value))
        return repr(tok.value or tok.kind)

    def expect_kind(self, kind: str, message: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            self.fail(tok, message)
        return self.advance()

    def expect_punct(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.value != value:
            self.fail(tok, f"expected {value!r}, found {self.found(tok)}")
        return self.advance()

    def expect_name(self, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != "NAME":
            self.fail(tok, f"expected {what}, found {self.found(tok)}")
        return self.advance()

    def expect_keyword(self, word: str):
        tok = self.expect_name(f"keyword {word!r}")
        if tok.value != word:
            self.fail(tok, f"expected keyword {word!r}, found {tok.value!r}")
        return tok

    def at_name(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.value == word

    def at_punct(self, value: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value == value

    def comma_list(self, item: Callable[[list], object]) -> list:
        """One or more ``item(done)`` separated by commas, where ``done``
        holds the items parsed so far."""
        done: list = []
        while True:
            done.append(item(done))
            if not self.accept("PUNCT", ","):
                return done

    def label(self, done: list[str], kind: str = "profile") -> str:
        tok = self.expect_name("profile label")
        if tok.value in done:
            self.fail(tok, f"duplicate {kind} label {tok.value!r}")
        return tok.value

    # -- top level ----------------------------------------------------------

    def parse(self) -> Law:
        self.expect_keyword("law")
        name_tok = self.expect_name("law name")
        parent: Optional[str] = None
        if self.accept("NAME", "extends"):
            parent = self.expect_name("parent law name").value
        self.expect_punct("{")
        profile: Optional[tuple[str, ...]] = None
        rules: list[Rule] = []
        meta: list[MetaPermission] = []
        overrides: list[Override] = []
        while not self.accept("PUNCT", "}"):
            tok = self.peek()
            if tok.kind == "EOF":
                self.fail(tok, "unexpected end of input inside law body")
            if self.at_name("profile"):
                if profile is not None:
                    self.fail(tok, "duplicate profile declaration")
                profile = self.parse_profile()
            elif self.at_name("categorical") or self.at_name("default"):
                rules.append(self.parse_rule())
            elif self.at_name("allow-override"):
                meta.append(self.parse_meta())
            elif self.at_name("override"):
                overrides.append(self.parse_override())
            else:
                self.fail(tok, f"expected rule, allow-override, override, or profile; "
                               f"found {self.found(tok)}")
        tail = self.peek()
        if tail.kind != "EOF":
            self.fail(tail, "trailing input after law")
        law = Law(
            name=name_tok.value,
            parent=parent,
            profile=profile or (),
            rules=tuple(rules),
            meta=tuple(meta),
            overrides=tuple(overrides),
        )
        self.validate(law, name_tok)
        return law

    def parse_profile(self) -> tuple[str, ...]:
        self.expect_keyword("profile")
        self.expect_punct("[")
        labels = [] if self.at_punct("]") else self.comma_list(self.label)
        self.expect_punct("]")
        self.expect_punct(";")
        return tuple(labels)

    def event(self, done: list[EventKind]) -> EventKind:
        tok = self.expect_name("event kind (adopted, sent, arrived)")
        kind = _EVENT_TOKENS.get(tok.value)
        if kind is None:
            self.fail(tok, f"unknown event kind {tok.value!r}")
        if kind in done:
            self.fail(tok, f"duplicate event kind {tok.value!r}")
        return kind

    def guarded(self) -> tuple[tuple[EventKind, ...], Predicate,
                               tuple[Action, ...]]:
        """The ``on EVENTS [if PRED] BODY`` tail of rules and overrides."""
        self.expect_keyword("on")
        seen = self.comma_list(self.event)
        events = tuple(e for e in _EVENT_ORDER if e in seen)
        predicate = self.parse_or() if self.accept("NAME", "if") else TruePred()
        return events, predicate, self.parse_body()

    def parse_rule(self) -> Rule:
        mode_tok = self.advance()
        mode = RuleMode.CATEGORICAL if mode_tok.value == "categorical" else RuleMode.DEFAULT
        self.expect_keyword("rule")
        id_tok = self.expect_name("rule id")
        events, predicate, actions = self.guarded()
        return Rule(id=id_tok.value, mode=mode, events=events,
                    predicate=predicate, actions=actions)

    def parse_meta(self) -> MetaPermission:
        self.expect_keyword("allow-override")
        id_tok = self.expect_name("rule id")
        dir_tok = self.expect_name("override direction")
        direction = _DIRECTION_TOKENS.get(dir_tok.value)
        if direction is None:
            self.fail(dir_tok, f"unknown override direction {dir_tok.value!r}")
        self.expect_punct(";")
        return MetaPermission(rule_id=id_tok.value, direction=direction)

    def parse_override(self) -> Override:
        self.expect_keyword("override")
        target_tok = self.expect_name("target rule id")
        kind_tok = self.expect_name("override kind (permit, block, replace)")
        kind = _OVERRIDE_TOKENS.get(kind_tok.value)
        if kind is None:
            self.fail(kind_tok, f"unknown override kind {kind_tok.value!r}")
        events, predicate, actions = self.guarded()
        term = terminal_of(actions)
        if kind is OverrideKind.REPLACE:
            if term is None:
                self.fail(kind_tok, "replace override body needs a terminal action")
        elif term is None:
            actions += (Permit() if kind is OverrideKind.PERMIT else Block(),)
        elif term != kind.value:
            self.fail(kind_tok, f"{kind.value} override body ends in {term}")
        return Override(target=target_tok.value, kind=kind, events=events,
                        predicate=predicate, actions=actions)

    # -- bodies / actions ---------------------------------------------------

    def parse_body(self) -> tuple[Action, ...]:
        self.expect_punct("{")
        actions: list[Action] = []
        while not self.accept("PUNCT", "}"):
            tok = self.peek()
            if tok.kind == "EOF":
                self.fail(tok, "unexpected end of input inside rule body")
            if actions and isinstance(actions[-1], (Permit, Block)):
                self.fail(tok, "terminal action must be last in the body")
            actions.append(self.parse_action())
            self.expect_punct(";")
        return tuple(actions)

    def parse_action(self) -> Action:
        tok = self.advance()
        if tok.kind != "NAME":
            self.fail(tok, f"expected action, found {self.found(tok)}")
        word = tok.value
        if word == "permit":
            return Permit()
        if word == "block":
            return Block()
        if word == "set":
            key = self.parse_state_key()
            self.expect_punct("=")
            return SetState(key=key, value=self.parse_value())
        if word == "increment":
            key = self.parse_state_key()
            self.expect_keyword("by")
            num = self.expect_kind("NUMBER", "expected integer delta")
            return IncrementState(key=key, delta=int(num.value))
        if word == "notify-registry":
            return NotifyRegistry()
        if word == "require-cert":
            constraints = self.comma_list(
                lambda done: self.parse_cert_constraint())
            return RequireCertificate(constraints=tuple(constraints))
        if word == "append-profile":
            labels = self.comma_list(
                lambda done: self.label(done, "append-profile"))
            return AppendProfile(labels=tuple(labels))
        self.fail(tok, f"unknown action {word!r}")

    def parse_state_key(self) -> str:
        self.expect_keyword("state")
        self.expect_punct(".")
        return self.expect_name("state key").value

    def parse_value(self) -> Union[str, int, SpecialValue]:
        tok = self.advance()
        if tok.kind == "STRING":
            return tok.value
        if tok.kind == "NUMBER":
            return int(tok.value)
        if tok.kind == "NAME" and tok.value in _SPECIAL_TOKENS:
            return _SPECIAL_TOKENS[tok.value]
        self.fail(tok, "expected string, integer, module-name, or module-profile")

    def parse_cert_constraint(self) -> CertConstraint:
        attr = self.expect_name("certificate attribute").value
        if self.accept("PUNCT", "=="):
            val = self.expect_kind("STRING", "expected string after '=='")
            return CertConstraint(attr=attr, op="equals", value=val.value)
        if self.accept("NAME", "contains"):
            val = self.advance()
            if val.kind == "STRING":
                return CertConstraint(attr=attr, op="contains", value=val.value)
            if val.kind == "NAME" and val.value == SpecialValue.MODULE_NAME.value:
                return CertConstraint(attr=attr, op="contains",
                                      value=SpecialValue.MODULE_NAME)
            self.fail(val, "expected string or module-name after 'contains'")
        self.fail(self.peek(),
                  "expected '==' or 'contains' in certificate constraint")

    # -- predicates ---------------------------------------------------------

    def parse_or(self) -> Predicate:
        parts: list[Predicate] = []
        first = self.parse_and()
        parts.extend(first.parts if isinstance(first, Or) else (first,))
        while self.accept("NAME", "or"):
            nxt = self.parse_and()
            parts.extend(nxt.parts if isinstance(nxt, Or) else (nxt,))
        return parts[0] if len(parts) == 1 else Or(parts=tuple(parts))

    def parse_and(self) -> Predicate:
        parts: list[Predicate] = []
        first = self.parse_not()
        parts.extend(first.parts if isinstance(first, And) else (first,))
        while self.accept("NAME", "and"):
            nxt = self.parse_not()
            parts.extend(nxt.parts if isinstance(nxt, And) else (nxt,))
        return parts[0] if len(parts) == 1 else And(parts=tuple(parts))

    def parse_not(self) -> Predicate:
        if self.accept("NAME", "not"):
            return Not(inner=self.parse_not())
        return self.parse_primary()

    def parse_primary(self) -> Predicate:
        if self.accept("PUNCT", "("):
            inner = self.parse_or()
            self.expect_punct(")")
            return inner
        tok = self.advance()
        if tok.kind != "NAME":
            self.fail(tok, f"expected predicate atom, found {self.found(tok)}")
        word = tok.value
        if word == "op":
            if self.accept("PUNCT", "=="):
                val = self.expect_kind("STRING", "expected string operation name")
                return OpEquals(value=val.value)
            if self.accept("NAME", "matches"):
                val = self.expect_kind("STRING", "expected string glob pattern")
                return OpGlob(pattern=val.value)
            self.fail(self.peek(), "expected '==' or 'matches' after op")
        if word == "flow":
            self.expect_punct("==")
            val = self.expect_name("flow kind")
            kind = _FLOW_TOKENS.get(val.value)
            if kind is None:
                self.fail(val, f"unknown flow kind {val.value!r}")
            return FlowIs(kind=kind)
        if word == "peer":
            self.expect_punct(".")
            what = self.expect_name("peer attribute")
            if what.value == "module":
                self.expect_punct("==")
                return PeerModuleIs(name=self.expect_name("module name").value)
            if what.value == "profile":
                self.expect_keyword("has")
                val = self.expect_kind("STRING", "expected string label")
                return PeerProfileHas(label=val.value)
            if what.value == "outside":
                return PeerOutside()
            self.fail(what, f"unknown peer attribute {what.value!r}")
        if word == "state":
            self.expect_punct(".")
            key = self.expect_name("state key").value
            if self.accept("PUNCT", "=="):
                val = self.advance()
                if val.kind == "STRING":
                    return StateEquals(key=key, value=val.value)
                if val.kind == "NUMBER":
                    return StateEquals(key=key, value=int(val.value))
                self.fail(val, "expected string or integer")
            if self.accept("PUNCT", "<"):
                val = self.expect_kind("NUMBER", "expected integer bound")
                return StateLess(key=key, bound=int(val.value))
            self.fail(self.peek(), "expected '==' or '<' after state key")
        if word == "cert":
            self.expect_punct(".")
            attr = self.expect_name("certificate attribute").value
            self.expect_punct("==")
            val = self.expect_kind("STRING", "expected string value")
            return CertEquals(attr=attr, value=val.value)
        self.fail(tok, f"expected predicate atom, found {word!r}")

    # -- law-level validation ----------------------------------------------

    def validate(self, law: Law, anchor: _Token):
        seen_ids: set[str] = set()
        for rule in law.rules:
            if rule.id in seen_ids:
                self.diags.append(ParseDiagnostic(
                    "error", anchor.line, anchor.col,
                    f"duplicate rule id {rule.id!r}"))
            seen_ids.add(rule.id)
        seen_meta: set[tuple[str, MetaDirection]] = set()
        for grant in law.meta:
            rule = law.rule(grant.rule_id)
            if rule is None:
                self.diags.append(ParseDiagnostic(
                    "error", anchor.line, anchor.col,
                    f"allow-override names unknown rule {grant.rule_id!r}"))
            elif rule.mode is not RuleMode.DEFAULT:
                self.diags.append(ParseDiagnostic(
                    "error", anchor.line, anchor.col,
                    f"allow-override names categorical rule {grant.rule_id!r}"))
            pair = (grant.rule_id, grant.direction)
            if pair in seen_meta:
                self.diags.append(ParseDiagnostic(
                    "error", anchor.line, anchor.col,
                    f"duplicate allow-override for {grant.rule_id!r}"))
            seen_meta.add(pair)


def parse_law(source: Union[str, LawSource]) -> Law:
    """Parse one law and return it with its canonical-text hash filled in.

    Raises :class:`LawParseError` carrying 1-based positioned diagnostics.
    """
    src = source if isinstance(source, LawSource) else LawSource(text=source)
    diags: list[ParseDiagnostic] = []
    law: Optional[Law] = None
    try:
        toks = _tokenize(src.text, diags)
        law = _Parser(toks, diags).parse()
    except _Abort:
        pass
    errors = [d for d in diags if d.severity == "error"]
    if errors or law is None:
        if not errors:
            errors = [ParseDiagnostic("error", 1, 1, "parse failed")]
        raise LawParseError(src.origin, errors)
    return finalize(law)


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------


def _quote(s: str) -> str:
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _pred_prec(p: Predicate) -> int:
    if isinstance(p, Or):
        return 1
    if isinstance(p, And):
        return 2
    if isinstance(p, Not):
        return 3
    return 4


def print_predicate(p: Predicate, parent_prec: int = 0) -> str:
    if isinstance(p, Or):
        text = " or ".join(print_predicate(x, 1) for x in p.parts)
    elif isinstance(p, And):
        text = " and ".join(print_predicate(x, 2) for x in p.parts)
    elif isinstance(p, Not):
        text = "not " + print_predicate(p.inner, 3)
    elif isinstance(p, OpEquals):
        text = f"op == {_quote(p.value)}"
    elif isinstance(p, OpGlob):
        text = f"op matches {_quote(p.pattern)}"
    elif isinstance(p, FlowIs):
        text = f"flow == {p.kind.value}"
    elif isinstance(p, PeerModuleIs):
        text = f"peer.module == {p.name}"
    elif isinstance(p, PeerProfileHas):
        text = f"peer.profile has {_quote(p.label)}"
    elif isinstance(p, PeerOutside):
        text = "peer.outside"
    elif isinstance(p, StateEquals):
        rhs = _quote(p.value) if isinstance(p.value, str) else str(p.value)
        text = f"state.{p.key} == {rhs}"
    elif isinstance(p, StateLess):
        text = f"state.{p.key} < {p.bound}"
    elif isinstance(p, CertEquals):
        text = f"cert.{p.attr} == {_quote(p.value)}"
    elif isinstance(p, TruePred):
        text = ""
    else:  # pragma: no cover - exhaustive over the model
        raise TypeError(f"unknown predicate node {p!r}")
    if _pred_prec(p) < parent_prec:
        return f"({text})"
    return text


def _print_value(v: Union[str, int, SpecialValue]) -> str:
    if isinstance(v, SpecialValue):
        return v.value
    if isinstance(v, str):
        return _quote(v)
    return str(v)


def _print_action(a: Action) -> str:
    if isinstance(a, Permit):
        return "permit;"
    if isinstance(a, Block):
        return "block;"
    if isinstance(a, SetState):
        return f"set state.{a.key} = {_print_value(a.value)};"
    if isinstance(a, IncrementState):
        return f"increment state.{a.key} by {a.delta};"
    if isinstance(a, NotifyRegistry):
        return "notify-registry;"
    if isinstance(a, RequireCertificate):
        parts = []
        for c in a.constraints:
            if c.op == "equals":
                parts.append(f"{c.attr} == {_print_value(c.value)}")
            else:
                rhs = c.value.value if isinstance(c.value, SpecialValue) else _quote(c.value)
                parts.append(f"{c.attr} contains {rhs}")
        return "require-cert " + ", ".join(parts) + ";"
    if isinstance(a, AppendProfile):
        return "append-profile " + ", ".join(a.labels) + ";"
    raise TypeError(f"unknown action {a!r}")  # pragma: no cover


def _print_events(events: tuple[EventKind, ...]) -> str:
    return ", ".join(e.value for e in events)


def _print_block(head: str, predicate: Predicate, actions: tuple[Action, ...],
                 out: list[str]):
    guard = print_predicate(predicate)
    if guard:
        head += f" if {guard}"
    out.append(f"  {head} {{")
    for act in actions:
        out.append(f"    {_print_action(act)}")
    out.append("  }")


def print_law(law: Law) -> str:
    """Canonical text: the serialization that gets hashed and served."""
    head = f"law {law.name}"
    if law.parent is not None:
        head += f" extends {law.parent}"
    out = [head + " {"]
    out.append("  profile [" + ", ".join(law.profile) + "];")
    for rule in law.rules:
        _print_block(
            f"{rule.mode.value} rule {rule.id} on {_print_events(rule.events)}",
            rule.predicate, rule.actions, out)
    for grant in law.meta:
        out.append(f"  allow-override {grant.rule_id} {grant.direction.value};")
    for ov in law.overrides:
        _print_block(
            f"override {ov.target} {ov.kind.value} on {_print_events(ov.events)}",
            ov.predicate, ov.actions, out)
    out.append("}")
    return "\n".join(out) + "\n"


def text_hash(text: str) -> str:
    """Content digest (sha256 hex) of a law text."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def law_hash(law: Law) -> str:
    """Content digest of the canonical serialized law text."""
    return text_hash(print_law(law))


def finalize(law: Law) -> Law:
    """Return the law with its canonical text and that text's hash set."""
    text = print_law(law)
    return replace(law, hash=text_hash(text), text=text)
