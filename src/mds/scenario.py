"""Parser for the line-oriented .mds scenario format.

A scenario declares a law directory, a cast of components (each adopting one
or more modules) and outside parties, then a script of deliveries:

    scenario purchase-flow
    law ../laws
    component buyer modules P,MS cert dept=finance
    component approver modules P
    outside wild
    send buyer@P -> approver op approve payload "PO-7"
    expect delivered
    outsidesend wild -> approver op probe
    expect blocked-at-receiver
    advance 5

`expect` binds to the nearest preceding send step and fills its two fields,
``expect_outcome`` and ``expect_matched``; `@LAW` picks which of a
component's modules speaks or listens and may be dropped when only one was
declared.  One pass of `_ROW` reads the text a row at a time, where a row is
a line, or a send and the expect line right after it: it skips blank and `#`
lines, and splits into words only the lines of no well-formed send row.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Optional, Union

from .model import NAME, not_utf8, unsigned_decimal, valid_name

OUTCOMES = DELIVERED, BLOCKED_AT_SENDER, BLOCKED_AT_RECEIVER = (
    "delivered", "blocked-at-sender", "blocked-at-receiver")


class ScenarioError(ValueError):
    """A script fault at ``line``; ``origin`` names the script, and is not
    part of the message."""

    def __init__(self, line: int, message: str,
                 origin: Optional[str] = None):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message
        self.origin = origin


@dataclass(frozen=True)
class ComponentDecl:
    name: str
    modules: tuple[str, ...]
    cert_attrs: tuple[tuple[str, str], ...]

    def attributes(self) -> dict[str, str]:
        """The component's certificate attributes: ``modules`` lists its
        modules, comma-separated, unless ``cert_attrs`` sets it."""
        return {"modules": ",".join(self.modules), **dict(self.cert_attrs)}


@dataclass(slots=True)
class SendStep:
    sender: str
    sender_law: Optional[str]
    target: str
    target_law: Optional[str]
    operation: str
    payload: bytes
    from_outside: bool
    line: int
    expect_outcome: Optional[str] = None  # from the expect line, if any
    expect_matched: Optional[str] = None


@dataclass
class AdvanceStep:
    ticks: int
    line: int


Step = Union[SendStep, AdvanceStep]


@dataclass
class Scenario:
    name: str
    law_dir: str
    components: list[ComponentDecl] = field(default_factory=list)
    outsides: list[str] = field(default_factory=list)
    steps: list[Step] = field(default_factory=list)


# A string's body: only \" and \\ are escapes; any other backslash stays.
_STRING_BODY = r'(?:[^"\\]|\\["\\]|\\(?!["\\]))*'
# A string with its opening '"', a '"' that nothing closes, or a word.  A
# word runs up to whitespace, quotes included; ``\s`` and ``str.isspace``
# agree on every code point.
_WORD = re.compile(rf'("{_STRING_BODY})"|(")|(\S+)')
_QUOTED_ESCAPE = re.compile(r'\\(["\\])')
_ENDPOINT = re.compile(f"({NAME})(?:@({NAME}))?")

# One match per row, ended by "\n" or the end of the text: a line, or a send
# and the expect line right after it.  Blanks are all whitespace but "\n", so
# a "\r" before it is one.  The last group a match closes sorts it: 6-7 a
# send (an outside sender takes no @MODULE, an operation no '"', a payload one
# string with no backslash), 8-9 a send and its expect, 10 any other line,
# none a blank or '#' line; an expect line that does not follow its send is
# another line.  A run of blanks is always followed by a word or the line's
# end, so 3.10's greedy repeats take the rows 3.11's possessive ones take
# (which read sim-mix's script about 1 ms sooner, BENCH_26.json), and a
# failing line backs off in linear time.
_P = "+" if sys.version_info >= (3, 11) else ""
_BLANKS, _GAP = rf"[^\S\n]*{_P}", rf"[^\S\n]+{_P}"
_ROW = re.compile(
    rf"{_BLANKS}(?:(?:send|(outside)send){_GAP}({NAME})(?(1)|(?:@({NAME}))?)"
    rf'{_GAP}->{_GAP}({NAME})(?:@({NAME}))?{_GAP}op{_GAP}([^\s"]+{_P})'
    rf'(?:{_GAP}payload{_GAP}"([^"\\\n]*{_P})")?{_BLANKS}'
    rf'(?:\n{_BLANKS}expect{_GAP}({"|".join(OUTCOMES)})'
    rf'(?:{_GAP}matched{_GAP}([^\s"]+{_P}))?{_BLANKS}(?=\n|\Z))?'
    rf"|#[^\n]*)?(?:\n|\Z)|([^\n]*)\n?")
_SEND_ROW, _OTHER_ROW = 7, 10


def _split(line: str, lineno: int) -> list[str]:
    """Whitespace split that keeps one double-quoted string per token.

    A string token keeps its opening '"' as a marker so callers see a string.
    """
    if '"' not in line:
        return line.split()
    out: list[str] = []
    for quoted, lone, word in _WORD.findall(line):
        if lone:
            raise ScenarioError(lineno, "unterminated string")
        out.append(_QUOTED_ESCAPE.sub(r"\1", quoted) or word)
    return out


def _endpoint(token: str, lineno: int) -> tuple[str, Optional[str]]:
    """NAME or NAME@MODULE, as (name, module or None)."""
    m = _ENDPOINT.fullmatch(token)
    if m is None:
        raise ScenarioError(lineno, f"bad endpoint {token!r}")
    return m.groups()


def _parse_cert(tokens: list[str], lineno: int) -> tuple[tuple[str, str], ...]:
    attrs: dict[str, str] = {}
    for pair in " ".join(tokens).split(","):
        pair = pair.strip()
        if not pair:
            continue
        if "=" not in pair:
            raise ScenarioError(lineno, f"cert attribute {pair!r} needs k=v")
        key, value = pair.split("=", 1)
        key = key.strip()
        if not key:
            raise ScenarioError(lineno, f"cert attribute {pair!r} has an "
                                        "empty key")
        if key in attrs:
            raise ScenarioError(lineno, f"repeated cert key {key!r}")
        attrs[key] = value.strip()
    return tuple(attrs.items())


def parse_scenario(text: str, origin: str = "<scenario>") -> Scenario:
    """The scenario ``text`` holds; a ScenarioError it raises carries
    ``origin`` as its ``origin``."""
    try:
        return _parse(text)
    except ScenarioError as exc:
        exc.origin = origin
        raise


def _parse(text: str) -> Scenario:
    name: Optional[str] = None
    law_dir: Optional[str] = None
    components: list[ComponentDecl] = []
    outsides: list[str] = []
    names: set[str] = set()  # components and outside parties so far
    steps: list[Step] = []
    last_send: Optional[SendStep] = None  # what an expect line binds to

    lineno = 0
    for m in _ROW.finditer(text):
        lineno += 1
        if (kind := m.lastindex) is None:
            continue
        if kind < _OTHER_ROW:
            (outside, sender, sender_law, target, target_law, operation,
             payload, outcome, matched, _) = m.groups()
            steps.append(last_send := SendStep(
                sender, sender_law, target, target_law, operation,
                (payload or "").encode(), outside is not None, lineno,
                outcome, matched))
            lineno += kind > _SEND_ROW  # a send and its expect: two lines
            continue
        words = _split(m[0], lineno)
        head = words[0]

        if head == "scenario":
            if name is not None:
                raise ScenarioError(lineno, "second scenario line")
            if len(words) != 2 or not valid_name(words[1]):
                raise ScenarioError(lineno, "expected: scenario NAME")
            name = words[1]

        elif head == "law":
            if law_dir is not None:
                raise ScenarioError(lineno, "second law line")
            if len(words) != 2:
                raise ScenarioError(lineno, "expected: law PATH")
            law_dir = words[1].lstrip('"')

        elif head == "component":
            if len(words) < 4 or words[2] != "modules":
                raise ScenarioError(
                    lineno, "expected: component NAME modules M1[,M2] "
                            "[cert k=v,...]")
            cname = words[1]
            if not valid_name(cname):
                raise ScenarioError(lineno, f"bad component name {cname!r}")
            if cname in names:
                raise ScenarioError(lineno, f"duplicate name {cname!r}")
            modules = tuple(m.strip() for m in words[3].split(",") if m.strip())
            if not modules:
                raise ScenarioError(lineno, "component needs at least one module")
            for m in modules:
                if not valid_name(m):
                    raise ScenarioError(lineno, f"bad module name {m!r}")
            if len(set(modules)) != len(modules):
                raise ScenarioError(lineno, "repeated module")
            cert_attrs: tuple[tuple[str, str], ...] = ()
            if len(words) > 4:
                if words[4] != "cert":
                    raise ScenarioError(lineno, f"unexpected {words[4]!r}")
                cert_attrs = _parse_cert(words[5:], lineno)
            components.append(ComponentDecl(cname, modules, cert_attrs))
            names.add(cname)

        elif head == "outside":
            if len(words) != 2 or not valid_name(words[1]):
                raise ScenarioError(lineno, "expected: outside NAME")
            oname = words[1]
            if oname in names:
                raise ScenarioError(lineno, f"duplicate name {oname!r}")
            outsides.append(oname)
            names.add(oname)

        elif head in ("send", "outsidesend"):
            if len(words) < 6 or words[2] != "->" or words[4] != "op":
                raise ScenarioError(
                    lineno, f"expected: {head} FROM -> TO op OP "
                            "[payload \"TEXT\"]")
            sender, sender_law = _endpoint(words[1], lineno)
            target, target_law = _endpoint(words[3], lineno)
            operation = words[5]
            if operation.startswith('"'):
                raise ScenarioError(lineno, "operation must not be quoted")
            payload = b""
            rest = words[6:]
            if rest:
                if rest[0] != "payload" or len(rest) != 2:
                    raise ScenarioError(lineno,
                                        "expected: payload \"TEXT\"")
                if not rest[1].startswith('"'):
                    raise ScenarioError(lineno, "payload must be quoted")
                payload = rest[1][1:].encode("utf-8")
            if head == "outsidesend" and sender_law is not None:
                raise ScenarioError(lineno, "outside senders hold no law")
            steps.append(last_send := SendStep(
                sender, sender_law, target, target_law, operation, payload,
                head == "outsidesend", lineno))

        elif head == "advance":
            ticks = unsigned_decimal(words[1]) if len(words) == 2 else None
            if ticks is None:
                raise ScenarioError(lineno, "expected: advance N")
            steps.append(AdvanceStep(ticks=ticks, line=lineno))

        elif head == "expect":
            if len(words) not in (2, 4):
                raise ScenarioError(
                    lineno, "expected: expect OUTCOME [matched TOKEN]")
            outcome = words[1]
            if outcome not in OUTCOMES:
                raise ScenarioError(
                    lineno, f"outcome must be one of {', '.join(OUTCOMES)}")
            matched = None
            if len(words) == 4:
                if words[2] != "matched" or not words[3]:
                    raise ScenarioError(lineno, "expected: matched TOKEN")
                matched = words[3]
                if matched.startswith('"'):
                    raise ScenarioError(lineno,
                                        "matched token must not be quoted")
            if last_send is None:
                raise ScenarioError(lineno, "expect with no send before it")
            if last_send.expect_outcome is not None:
                raise ScenarioError(lineno, "step already has an expectation")
            last_send.expect_outcome, last_send.expect_matched = outcome, matched

        else:
            raise ScenarioError(lineno, f"unknown directive {head!r}")

    if name is None:
        raise ScenarioError(1, "missing scenario line")
    if law_dir is None:
        raise ScenarioError(1, "missing law line")

    scn = Scenario(name=name, law_dir=law_dir, components=components,
                   outsides=outsides, steps=steps)
    _check_endpoints(scn)
    return scn


def _check_endpoints(scn: Scenario):
    outside = set(scn.outsides)
    decls = {d.name: d for d in scn.components}
    for step in scn.steps:
        if not isinstance(step, SendStep):
            continue
        sender = decls.get(step.sender)  # None for an outside party
        target = decls.get(step.target)
        if step.from_outside:
            if step.sender not in outside:
                raise ScenarioError(step.line,
                                    f"{step.sender!r} is not an outside party")
            if target is None:
                raise ScenarioError(step.line,
                                    f"{step.target!r} is not a component")
        else:
            if sender is None:
                raise ScenarioError(step.line,
                                    f"{step.sender!r} is not a component")
            if target is None and step.target not in outside:
                raise ScenarioError(step.line, f"unknown target {step.target!r}")
        if sender is not None:
            _check_module(step, sender, step.sender_law)
        if target is not None:
            _check_module(step, target, step.target_law)


def _check_module(step: SendStep, decl: ComponentDecl, law: Optional[str]):
    """``law``, the @MODULE the step names for ``decl``, is one it adopted,
    or is left out where it adopted only one."""
    if law is None:
        if len(decl.modules) > 1:
            raise ScenarioError(step.line, f"{decl.name!r} holds several "
                                f"modules; write {decl.name}@MODULE")
    elif law not in decl.modules:
        raise ScenarioError(step.line,
                            f"{decl.name!r} adopted no module {law!r}")


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            line, col, what = not_utf8(exc)
            raise ScenarioError(line, f"{what} at column {col}",
                                origin=path) from None
    return parse_scenario(text, origin=path)
