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

The lexer is one regular expression, ``_LEXEME``: it skips blanks and
comments, then matches a lexeme, the end of the text, or a bad lexeme.
Space, tab, carriage return and newline separate lexemes, and a comment
runs to the end of its row.  A STRING closes on its own row, holds no
control character and knows only the escapes ``\\ \" \n \t``.  A run of
``[A-Za-z0-9_-]`` is an INT when it reads ``-?[0-9]+`` and a name when it
starts with a letter or ``_``; any other run is an error.  One ``findall``
over the text plus a newline gives the parser its list of lexeme strings:
its one group reads ``""`` both for a bad lexeme and for the end of the
text, which the added newline makes come exactly twice, so any earlier
``""`` marks a bad lexeme.  The parser reads each lexeme's kind from its
first character.  A text that starts with a byte order mark or holds a
bad lexeme is refused with one diagnostic, at the mark or the first bad
lexeme, found again by a walk over the text.  Positions cost nothing
until a diagnostic needs one: then a ``finditer`` walk over the same
expression finds the lexeme's offset, and the line and column follow
from it.  Columns count characters from 1, tabs included.  A predicate
nests at most ``MAX_NESTING`` (64) levels of ``(`` and ``not``, so no
text can exhaust the interpreter's stack.

A law tree repeats its clauses from law to law, so ``parse_law`` takes
an optional memo, which ``runner.load_law_dir`` passes to every parse of
one directory load and then drops.  The memo maps the lexemes of a
clause's tail, from its ``on`` up to its body's ``}``, to the (events,
guard, body) they parsed to; those of a guard, from its ``if`` up to its
``{``, and of a body, from its ``{`` up to its ``}``, to their nodes.  It
holds a node only if its parse succeeded and stopped right at that
delimiter, so a tail that misses still shares its guard and body, and a
damaged one is parsed again and gives the diagnostics it gives alone.  A
permit or block override body that lacks its terminal is completed with
it, and the completed body is kept in the memo under its own actions.
So every clause that spells a tail, guard or body alike gets the same
immutable nodes, every clause without a guard the one ``TruePred``, and
no law, hash or diagnostic changes.

The canonical form emitted by :func:`print_law` is what gets hashed: profile
line first, then rules in textual order, then allow-override lines, then
overrides, two-space indent, comments stripped.  ``print_law`` is idempotent
across a parse round trip.  An ``or`` is put in parentheses only inside
an ``and`` or a ``not``, an ``and`` only inside a ``not``, and a string
escapes exactly ``\\ \" \n \t`` (``_ESCAPES``, the lexer's table).
:func:`parse_law` keeps the printed text on ``Law.text`` beside its hash;
that kept text is what a law server serves.  It prints through the memo,
which also holds the printed text of each events tuple, and of each guard
and body node under the node's ``id``, so a directory load prints each
shared piece once.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, replace
from itertools import islice
from string import ascii_letters
from typing import Callable, Iterator, Optional, Union

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

_EVENT_ORDER = tuple(EventKind)
_TRUE = TruePred()  # the guard of every clause without an ``if``
_FLOW_TOKENS = {k.value: k for k in FlowKind}
_EVENT_TOKENS = {e.value: e for e in EventKind}
_DIRECTION_TOKENS = {d.value: d for d in MetaDirection}
_OVERRIDE_TOKENS = {k.value: k for k in OverrideKind}
_SPECIAL_TOKENS = {v.value: v for v in SpecialValue}


@dataclass(frozen=True)
class ParseDiagnostic:
    line: int      # 1-based
    col: int       # 1-based
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: error: {self.message}"


class LawParseError(ValueError):
    def __init__(self, origin: str, diagnostics: list[ParseDiagnostic]):
        self.origin = origin
        self.diagnostics = diagnostics
        lines = "; ".join(str(d) for d in diagnostics[:4])
        super().__init__(f"{origin}: {lines}")


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

# What a string may hold: no control character, and only the escapes
# \\ \" \n \t.
_STRING_BODY = r'(?:[^"\\\x00-\x1f]|\\[\\"nt])*'

# Blanks and comments, skipped one character or comment at a time.
_SKIP = r"(?:[ \t\r\n]|#[^\n]*)*"
# Where no lexeme matches: a bad word, or one character.
_BAD = NAME_CHAR + r"+|[^ \t\r\n]"

# Skip, then take a lexeme (the group), the end of the text (the group,
# empty) or a bad lexeme (no group, so ``findall`` gives "").  The last
# alternative cannot fail, so the skip never backtracks and lexing stays
# linear.  A '"' that opens no well-formed string on its row is a bad
# lexeme, and ``_lex_error`` says why.
_LEXEME = re.compile(
    _SKIP + r"(?:(" + NAME                      # NAME
    + r"|==|[{}\[\](),;.=<]"                    # PUNCT
    + r'|"' + _STRING_BODY + '"'                # STRING
    + r"|-?[0-9]+(?!" + NAME_CHAR + ")"         # NUMBER
    + r"|\Z)"                                   # end of text: ""
    + r"|" + _BAD + ")")                        # bad lexeme: ""
_BAD_LEXEME = re.compile(_SKIP + "(" + _BAD + ")")
_STRING_PREFIX = re.compile(_STRING_BODY)
_ESCAPE = re.compile(r"\\(.)")
_ESCAPES = {"\\": "\\", '"': '"', "n": "\n", "t": "\t"}
_QUOTE = str.maketrans({c: "\\" + e for e, c in _ESCAPES.items()})

# A lexeme's first character gives its kind; "" is the end of input.
_NAME_FIRST = frozenset(ascii_letters + "_")
_NUMBER_FIRST = frozenset("-0123456789")

# Levels of ``(`` and ``not`` a predicate may nest.
MAX_NESTING = 64


class _Abort(Exception):
    pass


def _unescape(m: re.Match) -> str:
    return _ESCAPES[m.group(1)]


def _unquote(lexeme: str) -> str:
    body = lexeme[1:-1]
    return _ESCAPE.sub(_unescape, body) if "\\" in body else body


def _found(lexeme: str) -> str:
    """A lexeme as a diagnostic names it: a string in its quotes (the
    lexeme itself), the end of input as 'EOF'."""
    return repr(lexeme or "EOF")


def _error(text: str, offset: int, message: str) -> ParseDiagnostic:
    line = text.count("\n", 0, offset) + 1
    return ParseDiagnostic(line, offset - text.rfind("\n", 0, offset), message)


def _offsets(text: str) -> Iterator[int]:
    """The text offset of each lexeme that ``findall`` gives over a text
    without a bad lexeme, in order."""
    for m in _LEXEME.finditer(text):
        yield m.start(1)


def _lex_error(text: str) -> ParseDiagnostic:
    """The diagnostic for a text that starts with a byte order mark or
    holds a bad lexeme, at the mark or the first bad lexeme."""
    if text.startswith("\ufeff"):
        return ParseDiagnostic(1, 1, "byte order mark not allowed")
    at = next(m.start() for m in _LEXEME.finditer(text) if m.lastindex is None)
    m = _BAD_LEXEME.match(text, at)
    start, value = m.start(1), m.group(1)
    if value == '"':
        end = _STRING_PREFIX.match(text, start + 1).end()
        ahead = text[end:end + 2]
        if ahead[:1] in ("", "\n") or ahead in ("\\", "\\\n"):
            # The row ends, or ends after a backslash.
            return _error(text, start, "unterminated string")
        if ahead[0] == "\\":
            return _error(text, end, f"unknown escape \\{ahead[1]}")
        return _error(text, end, "control character in string")
    if value[0] in _NAME_FIRST or value[0] in _NUMBER_FIRST:
        return _error(text, start, f"bad identifier {value!r} (must not start "
                                   f"with a digit or '-')")
    return _error(text, start, f"unexpected character {value!r}")


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    """Recursive descent over lexeme strings.  A failure records the index
    of the lexeme it is about; ``parse_law`` turns that into a line and
    column only once a diagnostic is made.  ``memo`` holds the tails,
    guards and bodies parsed so far (see ``shared``)."""

    def __init__(self, lexemes: list[str], memo: dict):
        self.lex = lexemes
        self.pos = 0
        self.depth = 0
        self.errors: list[tuple[int, str]] = []
        self.memo = memo

    def fail(self, message: str, at: Optional[int] = None):
        """Record an error at lexeme ``at``, by default the next one."""
        self.errors.append((self.pos if at is None else at, message))
        raise _Abort

    def accept(self, lexeme: str) -> bool:
        """Step over the next lexeme if it is ``lexeme``."""
        if self.lex[self.pos] == lexeme:
            self.pos += 1
            return True
        return False

    def expect_punct(self, value: str):
        if self.lex[self.pos] != value:
            self.fail(f"expected {value!r}, found {_found(self.lex[self.pos])}")
        self.pos += 1

    def expect_name(self, what: str) -> str:
        tok = self.lex[self.pos]
        if tok[:1] not in _NAME_FIRST:
            self.fail(f"expected {what}, found {_found(tok)}")
        self.pos += 1
        return tok

    def expect_keyword(self, word: str):
        if self.expect_name(f"keyword {word!r}") != word:
            self.fail(f"expected keyword {word!r}, found "
                      f"{self.lex[self.pos - 1]!r}", self.pos - 1)

    def expect_string(self, message: str) -> str:
        tok = self.lex[self.pos]
        if tok[:1] != '"':
            self.fail(message)
        self.pos += 1
        return _unquote(tok)

    def expect_int(self, message: str) -> int:
        if self.lex[self.pos][:1] not in _NUMBER_FIRST:
            self.fail(message)
        return self.integer()

    def integer(self) -> int:
        """Step over the next lexeme, a NUMBER, and give its value."""
        try:
            value = int(self.lex[self.pos])
        except ValueError:  # more digits than int() converts
            self.fail("integer literal too long")
        self.pos += 1
        return value

    def shared(self, parse: Callable[[], object], close: str):
        """``parse()`` of the lexemes from the one just passed (``on``,
        ``if`` or ``{``) up to the next ``close``, taken from the memo if
        they were parsed before.  A node is stored only when its parse
        succeeded and stopped right at ``close``: it then depends on those
        lexemes alone, so every text that spells them alike gets the same
        object and the same outcome.  Nodes are immutable, so laws may
        share them."""
        memo = self.memo
        lex, start = self.lex, self.pos
        try:
            end = lex.index(close, start)
        except ValueError:
            return parse()
        key = tuple(lex[start - 1:end])
        node = memo.get(key)
        if node is not None:
            self.pos = end
            return node
        node = parse()
        if self.pos == end:
            memo[key] = node
        return node

    def comma_list(self, item: Callable[[list], object]) -> list:
        """One or more ``item(done)`` separated by commas, where ``done``
        holds the items parsed so far."""
        done: list = []
        while True:
            done.append(item(done))
            if not self.accept(","):
                return done

    def label(self, done: list[str], kind: str = "profile") -> str:
        tok = self.expect_name("profile label")
        if tok in done:
            self.fail(f"duplicate {kind} label {tok!r}", self.pos - 1)
        return tok

    # -- top level ----------------------------------------------------------

    def parse(self) -> Law:
        self.expect_keyword("law")
        name_at = self.pos
        name = self.expect_name("law name")
        parent: Optional[str] = None
        if self.accept("extends"):
            parent = self.expect_name("parent law name")
        self.expect_punct("{")
        profile: Optional[tuple[str, ...]] = None
        rules: list[Rule] = []
        meta: list[MetaPermission] = []
        overrides: list[Override] = []
        while not self.accept("}"):
            tok = self.lex[self.pos]
            if tok == "profile":
                if profile is not None:
                    self.fail("duplicate profile declaration")
                profile = self.parse_profile()
            elif tok == "categorical" or tok == "default":
                rules.append(self.parse_rule())
            elif tok == "allow-override":
                meta.append(self.parse_meta())
            elif tok == "override":
                overrides.append(self.parse_override())
            elif not tok:
                self.fail("unexpected end of input inside law body")
            else:
                self.fail(f"expected rule, allow-override, override, or "
                          f"profile; found {_found(tok)}")
        if self.lex[self.pos]:
            self.fail("trailing input after law")
        law = Law(
            name=name,
            parent=parent,
            profile=profile or (),
            rules=tuple(rules),
            meta=tuple(meta),
            overrides=tuple(overrides),
        )
        self.validate(law, name_at)
        return law

    def parse_profile(self) -> tuple[str, ...]:
        self.pos += 1  # "profile"
        self.expect_punct("[")
        labels = [] if self.lex[self.pos] == "]" else self.comma_list(self.label)
        self.expect_punct("]")
        self.expect_punct(";")
        return tuple(labels)

    def event(self, done: list[EventKind]) -> EventKind:
        tok = self.expect_name("event kind (adopted, sent, arrived)")
        kind = _EVENT_TOKENS.get(tok)
        if kind is None:
            self.fail(f"unknown event kind {tok!r}", self.pos - 1)
        if kind in done:
            self.fail(f"duplicate event kind {tok!r}", self.pos - 1)
        return kind

    def guarded(self) -> tuple[tuple[EventKind, ...], Predicate,
                               tuple[Action, ...]]:
        """The ``on EVENTS [if PRED] BODY`` tail of rules and overrides,
        shared whole from ``on`` to the body's ``}``."""
        self.expect_keyword("on")
        tail = self.shared(self.parse_tail, "}")
        self.pos += 1  # "}"
        return tail

    def parse_tail(self) -> tuple[tuple[EventKind, ...], Predicate,
                                  tuple[Action, ...]]:
        """A tail after its ``on``, up to the body's closing ``}``."""
        seen = self.comma_list(self.event)
        events = tuple(e for e in _EVENT_ORDER if e in seen)
        predicate = (self.shared(self.parse_or, "{") if self.accept("if")
                     else _TRUE)
        self.expect_punct("{")
        return events, predicate, self.shared(self.parse_actions, "}")

    def parse_rule(self) -> Rule:
        mode = (RuleMode.CATEGORICAL if self.lex[self.pos] == "categorical"
                else RuleMode.DEFAULT)
        self.pos += 1
        self.expect_keyword("rule")
        rule_id = self.expect_name("rule id")
        events, predicate, actions = self.guarded()
        return Rule(id=rule_id, mode=mode, events=events,
                    predicate=predicate, actions=actions)

    def parse_meta(self) -> MetaPermission:
        self.pos += 1  # "allow-override"
        rule_id = self.expect_name("rule id")
        tok = self.expect_name("override direction")
        direction = _DIRECTION_TOKENS.get(tok)
        if direction is None:
            self.fail(f"unknown override direction {tok!r}", self.pos - 1)
        self.expect_punct(";")
        return MetaPermission(rule_id=rule_id, direction=direction)

    def parse_override(self) -> Override:
        self.pos += 1  # "override"
        target = self.expect_name("target rule id")
        kind_at = self.pos
        tok = self.expect_name("override kind (permit, block, replace)")
        kind = _OVERRIDE_TOKENS.get(tok)
        if kind is None:
            self.fail(f"unknown override kind {tok!r}", kind_at)
        events, predicate, actions = self.guarded()
        term = terminal_of(actions)
        if kind is OverrideKind.REPLACE:
            if term is None:
                self.fail("replace override body needs a terminal action",
                          kind_at)
        elif term is None:
            done = actions + (
                Permit() if kind is OverrideKind.PERMIT else Block(),)
            actions = self.memo.setdefault(done, done)
        elif term != kind.value:
            self.fail(f"{kind.value} override body ends in {term}", kind_at)
        return Override(target=target, kind=kind, events=events,
                        predicate=predicate, actions=actions)

    # -- bodies / actions ---------------------------------------------------

    def parse_actions(self) -> tuple[Action, ...]:
        """The actions of a body, up to its closing ``}``."""
        actions: list[Action] = []
        while self.lex[self.pos] != "}":
            if not self.lex[self.pos]:
                self.fail("unexpected end of input inside rule body")
            if actions and isinstance(actions[-1], (Permit, Block)):
                self.fail("terminal action must be last in the body")
            actions.append(self.parse_action())
            self.expect_punct(";")
        return tuple(actions)

    def parse_action(self) -> Action:
        word = self.expect_name("action")
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
            return IncrementState(
                key=key, delta=self.expect_int("expected integer delta"))
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
        self.fail(f"unknown action {word!r}", self.pos - 1)

    def parse_state_key(self) -> str:
        self.expect_keyword("state")
        self.expect_punct(".")
        return self.expect_name("state key")

    def parse_value(self) -> Union[str, int, SpecialValue]:
        tok = self.lex[self.pos]
        first = tok[:1]
        if first == '"':
            self.pos += 1
            return _unquote(tok)
        if first in _NUMBER_FIRST:
            return self.integer()
        if tok in _SPECIAL_TOKENS:
            self.pos += 1
            return _SPECIAL_TOKENS[tok]
        self.fail("expected string, integer, module-name, or module-profile")

    def parse_cert_constraint(self) -> CertConstraint:
        attr = self.expect_name("certificate attribute")
        if self.accept("=="):
            value = self.expect_string("expected string after '=='")
            return CertConstraint(attr=attr, op="equals", value=value)
        if self.accept("contains"):
            tok = self.lex[self.pos]
            if tok[:1] == '"':
                self.pos += 1
                return CertConstraint(attr=attr, op="contains",
                                      value=_unquote(tok))
            if tok == SpecialValue.MODULE_NAME.value:
                self.pos += 1
                return CertConstraint(attr=attr, op="contains",
                                      value=SpecialValue.MODULE_NAME)
            self.fail("expected string or module-name after 'contains'")
        self.fail("expected '==' or 'contains' in certificate constraint")

    # -- predicates ---------------------------------------------------------

    def nest(self):
        """Enter the level of ``(`` or ``not`` that the next lexeme opens."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.fail(f"predicate nested deeper than {MAX_NESTING} levels")
        self.pos += 1

    def chain(self, word: str, part: Callable[[], Predicate],
              kind: type) -> Predicate:
        """One or more ``part()`` separated by ``word``, flattened into one
        ``kind`` node: a part that is a ``kind`` node gives its parts.  A
        single other part is returned as it is."""
        parts: list[Predicate] = []
        while True:
            nxt = part()
            parts.extend(nxt.parts if isinstance(nxt, kind) else (nxt,))
            if not self.accept(word):
                return parts[0] if len(parts) == 1 else kind(parts=tuple(parts))

    def parse_or(self) -> Predicate:
        return self.chain("or", self.parse_and, Or)

    def parse_and(self) -> Predicate:
        return self.chain("and", self.parse_not, And)

    def parse_not(self) -> Predicate:
        if self.lex[self.pos] != "not":
            return self.parse_primary()
        self.nest()
        inner = self.parse_not()
        self.depth -= 1
        return Not(inner=inner)

    def parse_primary(self) -> Predicate:
        if self.lex[self.pos] == "(":
            self.nest()
            inner = self.parse_or()
            self.expect_punct(")")
            self.depth -= 1
            return inner
        word = self.expect_name("predicate atom")
        if word == "op":
            if self.accept("=="):
                return OpEquals(value=self.expect_string(
                    "expected string operation name"))
            if self.accept("matches"):
                return OpGlob(pattern=self.expect_string(
                    "expected string glob pattern"))
            self.fail("expected '==' or 'matches' after op")
        if word == "flow":
            self.expect_punct("==")
            tok = self.expect_name("flow kind")
            kind = _FLOW_TOKENS.get(tok)
            if kind is None:
                self.fail(f"unknown flow kind {tok!r}", self.pos - 1)
            return FlowIs(kind=kind)
        if word == "peer":
            self.expect_punct(".")
            what = self.expect_name("peer attribute")
            if what == "module":
                self.expect_punct("==")
                return PeerModuleIs(name=self.expect_name("module name"))
            if what == "profile":
                self.expect_keyword("has")
                return PeerProfileHas(
                    label=self.expect_string("expected string label"))
            if what == "outside":
                return PeerOutside()
            self.fail(f"unknown peer attribute {what!r}", self.pos - 1)
        if word == "state":
            self.expect_punct(".")
            key = self.expect_name("state key")
            if self.accept("=="):
                tok = self.lex[self.pos]
                if tok[:1] == '"':
                    self.pos += 1
                    return StateEquals(key=key, value=_unquote(tok))
                return StateEquals(key=key, value=self.expect_int(
                    "expected string or integer"))
            if self.accept("<"):
                return StateLess(key=key, bound=self.expect_int(
                    "expected integer bound"))
            self.fail("expected '==' or '<' after state key")
        if word == "cert":
            self.expect_punct(".")
            attr = self.expect_name("certificate attribute")
            self.expect_punct("==")
            return CertEquals(attr=attr, value=self.expect_string(
                "expected string value"))
        self.fail(f"expected predicate atom, found {word!r}", self.pos - 1)

    # -- law-level validation ----------------------------------------------

    def validate(self, law: Law, anchor: int):
        errors = self.errors
        seen_ids: set[str] = set()
        for rule in law.rules:
            if rule.id in seen_ids:
                errors.append((anchor, f"duplicate rule id {rule.id!r}"))
            seen_ids.add(rule.id)
        seen_meta: set[tuple[str, MetaDirection]] = set()
        for grant in law.meta:
            rule = law.rule(grant.rule_id)
            if rule is None:
                errors.append((anchor, f"allow-override names unknown rule "
                                       f"{grant.rule_id!r}"))
            elif rule.mode is not RuleMode.DEFAULT:
                errors.append((anchor, f"allow-override names categorical "
                                       f"rule {grant.rule_id!r}"))
            pair = (grant.rule_id, grant.direction)
            if pair in seen_meta:
                errors.append((anchor, f"duplicate allow-override for "
                                       f"{grant.rule_id!r}"))
            seen_meta.add(pair)


def parse_law(text: str, origin: str = "<law>",
              memo: Optional[dict] = None) -> Law:
    """Parse one law and return it with its canonical-text hash filled in.

    Raises :class:`LawParseError` naming ``origin`` and carrying 1-based
    positioned diagnostics.  ``memo`` is an empty dict that the caller
    passes to every parse of one batch of laws and then drops: a clause
    tail, guard or body spelled alike in two of them is parsed once and
    shared, and each shared guard and body is printed once.  Without one,
    the parse shares nodes and printed pieces within its own law only.
    """
    # With the newline, the end of the text always reads as two "", so an
    # earlier "" is a bad lexeme.
    lexemes = _LEXEME.findall(text + "\n")
    if text.startswith("\ufeff") or lexemes.index("") < len(lexemes) - 2:
        raise LawParseError(origin, [_lex_error(text)])
    parser = _Parser(lexemes, {} if memo is None else memo)
    try:
        law = parser.parse()
    except _Abort:
        pass
    if parser.errors:
        raise LawParseError(origin, [
            _error(text, next(islice(_offsets(text), at, None)), message)
            for at, message in parser.errors])
    text = print_law(law, parser.memo)
    return replace(law, hash=text_hash(text), text=text)


# ---------------------------------------------------------------------------
# Canonical printer
# ---------------------------------------------------------------------------


def _quote(s: str) -> str:
    return f'"{s.translate(_QUOTE)}"'


def print_predicate(p: Predicate, parent_prec: int = 0) -> str:
    """Canonical text of p under a parent of precedence ``parent_prec``:
    0 for none, 1 for ``or``, 2 for ``and``, 3 for ``not``."""
    if isinstance(p, Or):
        text = " or ".join(print_predicate(x, 1) for x in p.parts)
        return f"({text})" if parent_prec > 1 else text
    if isinstance(p, And):
        text = " and ".join(print_predicate(x, 2) for x in p.parts)
        return f"({text})" if parent_prec > 2 else text
    if isinstance(p, Not):
        return "not " + print_predicate(p.inner, 3)
    if isinstance(p, OpEquals):
        return f"op == {_quote(p.value)}"
    if isinstance(p, OpGlob):
        return f"op matches {_quote(p.pattern)}"
    if isinstance(p, FlowIs):
        return f"flow == {p.kind.value}"
    if isinstance(p, PeerModuleIs):
        return f"peer.module == {p.name}"
    if isinstance(p, PeerProfileHas):
        return f"peer.profile has {_quote(p.label)}"
    if isinstance(p, PeerOutside):
        return "peer.outside"
    if isinstance(p, StateEquals):
        return f"state.{p.key} == {_print_value(p.value)}"
    if isinstance(p, StateLess):
        return f"state.{p.key} < {p.bound}"
    if isinstance(p, CertEquals):
        return f"cert.{p.attr} == {_quote(p.value)}"
    if isinstance(p, TruePred):
        return ""
    raise TypeError(f"unknown predicate node {p!r}")  # pragma: no cover


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
        return "require-cert " + ", ".join(
            f"{c.attr} {'==' if c.op == 'equals' else 'contains'} "
            f"{_print_value(c.value)}" for c in a.constraints) + ";"
    if isinstance(a, AppendProfile):
        return "append-profile " + ", ".join(a.labels) + ";"
    raise TypeError(f"unknown action {a!r}")  # pragma: no cover


def _clause(head: str, clause: Union[Rule, Override], pieces: dict) -> str:
    events = pieces.get(clause.events)
    if events is None:
        events = pieces[clause.events] = ", ".join(
            [e._value_ for e in clause.events])
    predicate, actions = clause.predicate, clause.actions
    guard = pieces.get(id(predicate))
    if guard is None:
        text = print_predicate(predicate)
        guard = pieces[id(predicate)] = (
            predicate, f" if {text} {{" if text else " {")
    body = pieces.get(id(actions))
    if body is None:
        body = pieces[id(actions)] = (actions, "".join(
            f"\n    {_print_action(a)}" for a in actions) + "\n  }")
    return head + events + guard[1] + body[1]


def print_law(law: Law, pieces: Optional[dict] = None) -> str:
    """Canonical text: the serialization that gets hashed and served.

    ``pieces`` holds the pieces printed so far: each events tuple maps to
    its text, and ``id(node)`` of each guard and body to ``(node, text)``,
    the guard's `` if GUARD {`` (or `` {``), the body's action rows and
    closing ``  }``.  A caller that passes one dict to several prints gets
    each shared piece printed once; a node is kept beside its text so that
    its id is not reused while the dict lives.  ``parse_law`` passes its
    parse memo, whose other keys are tuples of lexemes or actions.
    """
    if pieces is None:
        pieces = {}
    head = f"law {law.name}"
    if law.parent is not None:
        head += f" extends {law.parent}"
    out = [head + " {", "  profile [" + ", ".join(law.profile) + "];"]
    for rule in law.rules:
        out.append(_clause(f"  {rule.mode._value_} rule {rule.id} on ",
                           rule, pieces))
    for grant in law.meta:
        out.append(f"  allow-override {grant.rule_id} "
                   f"{grant.direction._value_};")
    for ov in law.overrides:
        out.append(_clause(f"  override {ov.target} {ov.kind._value_} on ",
                           ov, pieces))
    out.append("}")
    return "\n".join(out) + "\n"


def text_hash(text: str) -> str:
    """Content digest (``HASH_ALGORITHM`` hex) of a law text."""
    return hashlib.new(HASH_ALGORITHM, text.encode("utf-8")).hexdigest()
