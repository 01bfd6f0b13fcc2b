"""Law text: parsing, canonical printing, and content hashing."""

import hashlib
import importlib
import json
import random
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st
from test_generative import LAW_PIECES, REPO_ROOT, SETTINGS, _joined

from mds import law_lang, oracle
from mds.law_lang import (_LEXEME, LawParseError, _offsets, parse_law,
                          print_law, print_predicate, text_hash)
from mds.model import (NAME, NAME_CHAR, And, CertEquals, EventKind, FlowIs,
                       FlowKind, MetaDirection, Not, OpEquals, OpGlob, Or,
                       PeerModuleIs, PeerOutside, PeerProfileHas, RuleMode,
                       StateEquals, StateLess, TruePred)
from mds.oracle import generate_system
from mds.runner import load_law_dir

LEXER_CORPUS = REPO_ROOT / "tests" / "data" / "lexer-corpus"
ROOT_HASH = "179e48fadf68a4c1abe509984725d69f7f631a93a5535c8914cb509cf3df2d1e"


@pytest.fixture(scope="module")
def root(law_dir):
    return parse_law((law_dir / "S.law").read_text())


class TestParseShippedRoot:
    def test_shape(self, root):
        assert root.name == "S"
        assert root.parent is None
        modes = [r.mode for r in root.rules]
        assert modes.count(RuleMode.CATEGORICAL) == 3
        assert modes.count(RuleMode.DEFAULT) == 4

    def test_rule_ids_in_text_order(self, root):
        assert [r.id for r in root.rules] == [
            "init", "ident", "po-guard",
            "inflow-block", "outflow-permit", "boundary-block", "inner-permit"]

    def test_meta_permissions(self, root):
        grants = {m.rule_id: m.direction for m in root.meta}
        assert grants == {
            "inflow-block": MetaDirection.MAY_PERMIT,
            "outflow-permit": MetaDirection.MAY_PROHIBIT,
            "boundary-block": MetaDirection.MAY_PERMIT,
            "inner-permit": MetaDirection.MAY_PROHIBIT,
        }

    def test_two_sided_rules_carry_both_events(self, root):
        by_id = {r.id: r for r in root.rules}
        assert by_id["boundary-block"].events == (EventKind.SENT,
                                                 EventKind.ARRIVED)
        assert by_id["inner-permit"].events == (EventKind.SENT,
                                               EventKind.ARRIVED)
        assert by_id["inflow-block"].events == (EventKind.ARRIVED,)

    def test_stable_hash(self, root):
        # Regression pin: any grammar or canonicalization change that moves
        # this digest invalidates every stored lineage.
        assert root.hash == ROOT_HASH


class TestPredicates:
    def _pred(self, text):
        law = parse_law(
            "law T {\n  default rule r on sent if " + text
            + " {\n    permit;\n  }\n  allow-override r may-prohibit;\n}\n")
        return law.rules[0].predicate

    def test_precedence_not_binds_tightest(self):
        p = self._pred('not op == "a" and flow == outflow')
        assert isinstance(p, And)
        assert p.parts[0] == Not(OpEquals("a"))

    def test_precedence_and_over_or(self):
        p = self._pred('op == "a" or op == "b" and op == "c"')
        assert isinstance(p, Or)
        assert p.parts[1] == And((OpEquals("b"), OpEquals("c")))

    def test_parens_regroup(self):
        p = self._pred('(op == "a" or op == "b") and op == "c"')
        assert isinstance(p, And)
        assert p.parts[0] == Or((OpEquals("a"), OpEquals("b")))

    def test_atoms(self):
        assert self._pred('op matches "get*"') == OpGlob("get*")
        assert self._pred('state.mode == "quiet"') == StateEquals(
            "mode", "quiet")
        assert self._pred('state.count == 3') == StateEquals("count", 3)
        assert self._pred('state.count < 2') == StateLess("count", 2)

    def test_flow_atom(self):
        p = self._pred("flow == import")
        assert p.kind is FlowKind.IMPORT

    def test_printed_predicate_reparses_identically(self):
        p = self._pred('not (op == "a" or state.n < 4) and flow == inner')
        assert self._pred(print_predicate(p)) == p


class TestParseErrors:
    @pytest.mark.parametrize("text,fragment", [
        ("law 1bad { }", "identifier"),
        ('law T { rule r on sent { permit; } }', "expected"),
        ('law T { default rule r on sent { permit; block; } }', "terminal"),
        ('law T { default rule r on flying { permit; } }', "event"),
        ('law T { allow-override ghost may-permit; }', "ghost"),
        ('law T { override r replace on sent { set state.k = "v"; } }',
         "terminal"),
        ('law T { default rule r on sent if op == 3 { permit; } }', "string"),
        ('law T { default rule r on sent { append-profile x, y, x; permit; } }',
         "duplicate append-profile label 'x'"),
    ])
    def test_rejects_with_message(self, text, fragment):
        with pytest.raises(LawParseError) as err:
            parse_law(text)
        rendered = str(err.value).lower()
        assert fragment.lower() in rendered

    def test_positions_point_at_offence(self):
        text = 'law T {\n  default rule r on sent {\n    permit\n  }\n}\n'
        with pytest.raises(LawParseError) as err:
            parse_law(text, "t.law")
        diag = err.value.diagnostics[0]
        assert diag.line >= 3

    def test_duplicate_rule_id_rejected(self):
        text = ('law T {\n'
                '  default rule r on sent if flow == outflow { permit; }\n'
                '  default rule r on arrived if flow == inflow { block; }\n'
                '}\n')
        with pytest.raises(LawParseError):
            parse_law(text)


ON = "law T { default rule r on sent "
RULE = ON + "if "
BODY = ON + "{ "


class TestLexerDiagnostics:
    """Position and wording of each lexer diagnostic, one case per row."""

    @pytest.mark.parametrize("text,line,col,message", [
        pytest.param("\ufefflaw T { }", 1, 1, "byte order mark not allowed",
                     id="bom"),
        pytest.param(RULE + 'op == "abc', 1, 41, "unterminated string",
                     id="unterminated-at-end-of-text"),
        pytest.param('law T {\n  default rule r on sent if op == "ab\ncd" '
                     '{ permit; }\n}\n', 2, 35, "unterminated string",
                     id="unterminated-across-newline"),
        pytest.param(RULE + 'op == "ab\\', 1, 41, "unterminated string",
                     id="unterminated-after-trailing-backslash"),
        pytest.param(RULE + 'op == "ab\\\ncd" { permit; } }', 1, 41,
                     "unterminated string", id="backslash-before-newline"),
        pytest.param(RULE + 'op == "a\\qb" { permit; } }', 1, 43,
                     "unknown escape \\q", id="unknown-escape"),
        pytest.param(RULE + 'op == "a\x01b" { permit; } }', 1, 43,
                     "control character in string", id="control-character"),
        pytest.param(RULE + 'op == "a\tb" { permit; } }', 1, 43,
                     "control character in string", id="tab-in-string"),
        pytest.param(RULE + 'op == "a\rb" { permit; } }', 1, 43,
                     "control character in string", id="cr-in-string"),
        pytest.param(RULE + 'op == "a\\q\x01 { permit; } }', 1, 43,
                     "unknown escape \\q", id="escape-before-control"),
        pytest.param(RULE + 'op == "a\x01\\q { permit; } }', 1, 43,
                     "control character in string", id="control-before-escape"),
        pytest.param(RULE + 'op == "a\\\\" "b\\n\\t\\"" $ }', 1, 57,
                     "unexpected character '$'", id="column-after-escapes"),
        pytest.param("law 1bad { }", 1, 5,
                     "bad identifier '1bad' (must not start with a digit "
                     "or '-')", id="1bad"),
        pytest.param("law T { default rule -x on sent { permit; } }", 1, 22,
                     "bad identifier '-x' (must not start with a digit "
                     "or '-')", id="-x"),
        pytest.param(RULE + "state.n < 12ab { permit; } }", 1, 45,
                     "bad identifier '12ab' (must not start with a digit "
                     "or '-')", id="12ab"),
        pytest.param(RULE + "state.n < --5 { permit; } }", 1, 45,
                     "bad identifier '--5' (must not start with a digit "
                     "or '-')", id="--5"),
        pytest.param("law T { $ }", 1, 9, "unexpected character '$'",
                     id="dollar"),
        pytest.param("law T { default rule r on sent { permit; } } \x0b", 1,
                     46, "unexpected character '\\x0b'", id="vertical-tab"),
        pytest.param("law T { default rule r on sent { permit; } } \ufeff", 1,
                     46, "unexpected character '\\ufeff'", id="inner-bom"),
        pytest.param("law T {\t\t$ }", 1, 10, "unexpected character '$'",
                     id="columns-after-tabs"),
        pytest.param("law T {\r\r$ }", 1, 10, "unexpected character '$'",
                     id="columns-after-cr"),
        pytest.param("law T\t{\r\n\t default\r rule r on sent if op == 3 "
                     "{ permit; } }", 2, 36, "expected string operation name",
                     id="columns-on-a-crlf-line"),
        pytest.param(RULE + 'op === "a" { permit; } }', 1, 40,
                     "expected string operation name", id="triple-equals"),
        pytest.param("law T {\n", 2, 1,
                     "unexpected end of input inside law body",
                     id="end-after-newline"),
        pytest.param("law T {\n  # open", 2, 9,
                     "unexpected end of input inside law body",
                     id="end-inside-comment"),
        pytest.param("law T {\n  default rule r on sent { permit", 2, 34,
                     "expected ';', found 'EOF'", id="end-inside-body"),
        pytest.param("", 1, 1, "expected keyword 'law', found 'EOF'",
                     id="empty"),
    ])
    def test_diagnostic(self, text, line, col, message):
        with pytest.raises(LawParseError) as err:
            parse_law(text)
        diag = err.value.diagnostics[0]
        assert (diag.line, diag.col, diag.message) == (line, col, message)

    def test_string_escapes(self):
        law = parse_law(RULE + 'op == "q\\\\\\"\\n\\té\x7f" '
                        "{ permit; } }")
        assert law.rules[0].predicate == OpEquals('q\\"\n\té\x7f')

    def test_comment_hides_quotes_and_escapes(self):
        law = parse_law('law T { # "\\q $\n}\n')
        assert law.rules == ()


class TestParserDiagnostics:
    """Every parser diagnostic, each pinned to its full (line, col, message)
    list.  One row per ``fail`` site and law-level check, so a change to how
    the parser is put together cannot move or reword any of them unseen."""

    @pytest.mark.parametrize("text,line,col,message", [
        pytest.param("{ }",
                     1, 1, "expected keyword 'law', found '{'",
                     id="expect-keyword-not-a-name"),
        pytest.param("rule T { }",
                     1, 1, "expected keyword 'law', found 'rule'",
                     id="expect-keyword-wrong-word"),
        pytest.param("law { }",
                     1, 5, "expected law name, found '{'", id="law-name"),
        pytest.param("law T extends { }",
                     1, 15, "expected parent law name, found '{'",
                     id="parent-law-name"),
        pytest.param("law T ; }",
                     1, 7, "expected '{', found ';'", id="expect-open-brace"),
        pytest.param("law T {",
                     1, 8, "unexpected end of input inside law body",
                     id="end-inside-law-body"),
        pytest.param("law T { profile [a]; profile [b]; }",
                     1, 22, "duplicate profile declaration",
                     id="duplicate-profile"),
        pytest.param("law T { profile [a, ]; }",
                     1, 21, "expected profile label, found ']'",
                     id="profile-label"),
        pytest.param("law T { profile [a, b, a]; }",
                     1, 24, "duplicate profile label 'a'",
                     id="duplicate-profile-label"),
        pytest.param("law T { profile [a b]; }",
                     1, 20, "expected ']', found 'b'", id="profile-close"),
        pytest.param("law T { profile [a] }",
                     1, 21, "expected ';', found '}'", id="profile-semicolon"),
        pytest.param("law T { permit; }",
                     1, 9,
                     "expected rule, allow-override, override, or profile; found 'permit'",
                     id="not-a-declaration"),
        pytest.param("law T { ; }",
                     1, 9,
                     "expected rule, allow-override, override, or profile; found ';'",
                     id="not-a-declaration-punct"),
        pytest.param("law T { } law U { }",
                     1, 11, "trailing input after law", id="trailing-input"),
        pytest.param("law T { default policy r on sent { permit; } }",
                     1, 17, "expected keyword 'rule', found 'policy'",
                     id="rule-keyword"),
        pytest.param("law T { default rule { permit; } }",
                     1, 22, "expected rule id, found '{'", id="rule-id"),
        pytest.param("law T { default rule r when sent { permit; } }",
                     1, 24, "expected keyword 'on', found 'when'",
                     id="on-keyword"),
        pytest.param("law T { default rule r on 3 { permit; } }",
                     1, 27,
                     "expected event kind (adopted, sent, arrived), found '3'",
                     id="event-kind"),
        pytest.param('law T { default rule r on "" { permit; } }',
                     1, 27,
                     "expected event kind (adopted, sent, arrived), found "
                     "'\"\"'",
                     id="event-kind-empty-string"),
        pytest.param("law T { default rule r on flying { permit; } }",
                     1, 27, "unknown event kind 'flying'", id="unknown-event"),
        pytest.param("law T { default rule r on sent, arrived, sent { permit; "
                     "} }",
                     1, 42, "duplicate event kind 'sent'",
                     id="duplicate-event"),
        pytest.param("law T { default rule r on sent, { permit; } }",
                     1, 33,
                     "expected event kind (adopted, sent, arrived), found '{'",
                     id="event-after-comma"),
        pytest.param(ON + "permit; }",
                     1, 32, "expected '{', found 'permit'", id="body-open"),
        pytest.param(BODY + "",
                     1, 34, "unexpected end of input inside rule body",
                     id="end-inside-rule-body"),
        pytest.param(BODY + "permit; block; } }",
                     1, 42, "terminal action must be last in the body",
                     id="terminal-not-last"),
        pytest.param(BODY + "3; } }",
                     1, 34, "expected action, found '3'",
                     id="action-not-a-name"),
        pytest.param(BODY + "jump; } }",
                     1, 34, "unknown action 'jump'", id="unknown-action"),
        pytest.param(BODY + "permit }",
                     1, 41, "expected ';', found '}'", id="action-semicolon"),
        pytest.param(BODY + "set count = 1; } }",
                     1, 38, "expected keyword 'state', found 'count'",
                     id="state-keyword"),
        pytest.param(BODY + "set state count = 1; } }",
                     1, 44, "expected '.', found 'count'", id="state-dot"),
        pytest.param(BODY + "set state. = 1; } }",
                     1, 45, "expected state key, found '='", id="state-key"),
        pytest.param(BODY + "set state.k == 1; } }",
                     1, 46, "expected '=', found '=='", id="set-equals"),
        pytest.param(BODY + "set state.k = peer; } }",
                     1, 48,
                     "expected string, integer, module-name, or module-profile",
                     id="set-value"),
        pytest.param(BODY + "increment state.k to 1; } }",
                     1, 52, "expected keyword 'by', found 'to'",
                     id="increment-by"),
        pytest.param(BODY + 'increment state.k by "1"; } }',
                     1, 55, "expected integer delta", id="increment-delta"),
        pytest.param(BODY + 'require-cert == "a"; } }',
                     1, 47, "expected certificate attribute, found '=='",
                     id="require-cert-attribute"),
        pytest.param(BODY + 'require-cert role < "a"; } }',
                     1, 52,
                     "expected '==' or 'contains' in certificate constraint",
                     id="require-cert-op"),
        pytest.param(BODY + "require-cert role == 3; } }",
                     1, 55, "expected string after '=='",
                     id="require-cert-equals-value"),
        pytest.param("law T { default rule r on sent { require-cert modules "
                     "contains module-profile; } }",
                     1, 64, "expected string or module-name after 'contains'",
                     id="require-cert-contains-value"),
        pytest.param(BODY + 'require-cert role == "a", ; } }',
                     1, 60, "expected certificate attribute, found ';'",
                     id="require-cert-second"),
        pytest.param(BODY + "append-profile ; } }",
                     1, 49, "expected profile label, found ';'",
                     id="append-profile-label"),
        pytest.param(BODY + "append-profile x, y, x; } }",
                     1, 55, "duplicate append-profile label 'x'",
                     id="duplicate-append-profile-label"),
        pytest.param("law T { allow-override ; }",
                     1, 24, "expected rule id, found ';'",
                     id="allow-override-id"),
        pytest.param("law T { allow-override r 3; }",
                     1, 26, "expected override direction, found '3'",
                     id="override-direction"),
        pytest.param("law T { allow-override r may-fly; }",
                     1, 26, "unknown override direction 'may-fly'",
                     id="unknown-direction"),
        pytest.param("law T { allow-override r may-permit }",
                     1, 37, "expected ';', found '}'",
                     id="allow-override-semicolon"),
        pytest.param("law T { override { } }",
                     1, 18, "expected target rule id, found '{'",
                     id="override-target"),
        pytest.param("law T { override r ; }",
                     1, 20,
                     "expected override kind (permit, block, replace), found ';'",
                     id="override-kind"),
        pytest.param("law T { override r allow on sent { } }",
                     1, 20, "unknown override kind 'allow'",
                     id="unknown-override-kind"),
        pytest.param("law T { override r permit on sent { block; } }",
                     1, 20, "permit override body ends in block",
                     id="permit-override-ends-in-block"),
        pytest.param("law T { override r block on sent { permit; } }",
                     1, 20, "block override body ends in permit",
                     id="block-override-ends-in-permit"),
        pytest.param('law T { override r replace on sent { set state.k = "v"; '
                     "} }",
                     1, 20, "replace override body needs a terminal action",
                     id="replace-needs-terminal"),
        pytest.param(RULE + "; { permit; } }",
                     1, 35, "expected predicate atom, found ';'",
                     id="atom-not-a-name"),
        pytest.param(RULE + "color == red { permit; } }",
                     1, 35, "expected predicate atom, found 'color'",
                     id="atom-unknown-word"),
        pytest.param(RULE + "op == 3 { permit; } }",
                     1, 41, "expected string operation name", id="op-string"),
        pytest.param(RULE + "op matches get { permit; } }",
                     1, 46, "expected string glob pattern", id="op-glob"),
        pytest.param(RULE + 'op < "a" { permit; } }',
                     1, 38, "expected '==' or 'matches' after op",
                     id="op-operator"),
        pytest.param(RULE + "flow matches inner { permit; } }",
                     1, 40, "expected '==', found 'matches'",
                     id="flow-equals"),
        pytest.param(RULE + 'flow == "inner" { permit; } }',
                     1, 43, "expected flow kind, found '\"inner\"'",
                     id="flow-kind"),
        pytest.param(RULE + "flow == sideways { permit; } }",
                     1, 43, "unknown flow kind 'sideways'", id="unknown-flow"),
        pytest.param(RULE + "peer module == X { permit; } }",
                     1, 40, "expected '.', found 'module'", id="peer-dot"),
        pytest.param(RULE + "peer. { permit; } }",
                     1, 41, "expected peer attribute, found '{'",
                     id="peer-attribute"),
        pytest.param(RULE + "peer.name == X { permit; } }",
                     1, 40, "unknown peer attribute 'name'",
                     id="unknown-peer-attribute"),
        pytest.param(RULE + "peer.module X { permit; } }",
                     1, 47, "expected '==', found 'X'",
                     id="peer-module-equals"),
        pytest.param(RULE + 'peer.module == "X" { permit; } }',
                     1, 50, "expected module name, found '\"X\"'",
                     id="peer-module-name"),
        pytest.param(RULE + 'peer.profile == "a" { permit; } }',
                     1, 48, "expected keyword 'has', found '=='",
                     id="peer-profile-has"),
        pytest.param(RULE + "peer.profile has a { permit; } }",
                     1, 52, "expected string label", id="peer-profile-label"),
        pytest.param(RULE + "state.3 { permit; } }",
                     1, 41, "expected state key, found '3'",
                     id="state-atom-key"),
        pytest.param(RULE + "state.k == on { permit; } }",
                     1, 46, "expected string or integer",
                     id="state-equals-value"),
        pytest.param(RULE + 'state.k < "3" { permit; } }',
                     1, 45, "expected integer bound", id="state-bound"),
        pytest.param(RULE + "state.k matches 3 { permit; } }",
                     1, 43, "expected '==' or '<' after state key",
                     id="state-operator"),
        pytest.param(RULE + 'cert role == "a" { permit; } }',
                     1, 40, "expected '.', found 'role'", id="cert-dot"),
        pytest.param(RULE + 'cert. == "a" { permit; } }',
                     1, 41, "expected certificate attribute, found '=='",
                     id="cert-attribute"),
        pytest.param(RULE + 'cert.role contains "a" { permit; } }',
                     1, 45, "expected '==', found 'contains'",
                     id="cert-equals"),
        pytest.param(RULE + "cert.role == admin { permit; } }",
                     1, 48, "expected string value", id="cert-value"),
        pytest.param(RULE + '(op == "a" { permit; } }',
                     1, 46, "expected ')', found '{'", id="close-paren"),
        pytest.param(RULE + "not { permit; } }",
                     1, 39, "expected predicate atom, found '{'",
                     id="not-without-atom"),
        pytest.param(RULE + 'op == "a" and { permit; } }',
                     1, 49, "expected predicate atom, found '{'",
                     id="and-without-atom"),
        pytest.param(RULE + 'op == "a" or ) { permit; } }',
                     1, 48, "expected predicate atom, found ')'",
                     id="or-without-atom"),
        pytest.param(BODY + "permit; } default rule r on arrived { block; } }",
                     1, 5, "duplicate rule id 'r'", id="duplicate-rule-id"),
        pytest.param("law T { allow-override ghost may-permit; }",
                     1, 5, "allow-override names unknown rule 'ghost'",
                     id="allow-override-unknown-rule"),
        pytest.param("law T { categorical rule c on sent { permit; } "
                     "allow-override c may-permit; }",
                     1, 5, "allow-override names categorical rule 'c'",
                     id="allow-override-categorical"),
        pytest.param("law T { default rule r on sent { } allow-override r "
                     "may-permit; allow-override r may-permit; }",
                     1, 5, "duplicate allow-override for 'r'",
                     id="duplicate-allow-override"),
        pytest.param(RULE + "(" * 65 + "peer.outside" + ")" * 65
                     + " { permit; } }",
                     1, 99, "predicate nested deeper than 64 levels",
                     id="nested-parentheses"),
        pytest.param(RULE + "not " * 65 + "peer.outside { permit; } }",
                     1, 291, "predicate nested deeper than 64 levels",
                     id="nested-not"),
        pytest.param(BODY + "increment state.k by " + "1" * 5000 + "; } }",
                     1, 55, "integer literal too long",
                     id="integer-too-long"),

    ])
    def test_diagnostic(self, text, line, col, message):
        with pytest.raises(LawParseError) as err:
            parse_law(text)
        assert [(d.line, d.col, d.message)
                for d in err.value.diagnostics] == [(line, col, message)]


class TestNesting:
    @pytest.mark.parametrize("opener,closer", [("(", ")"), ("not (", ")")])
    def test_sixty_four_levels_parse(self, opener, closer):
        depth = 64 // len(opener.split())
        law = parse_law(RULE + opener * depth + "peer.outside"
                        + closer * depth + " { permit; } }")
        assert print_law(parse_law(law.text)) == law.text


# The row-by-row lexer that the single-pattern lexer replaced, kept as a
# reference: each row walked with one pattern, blanks and comments dropped.
_ROW_LEXEME = re.compile(
    r"[ \t\r]+|#.*"
    r"|(" + NAME + r'|==|[{}\[\](),;.=<]|"(?:[^"\\\x00-\x1f]|\\[\\"nt])*"'
    r"|-?[0-9]+(?!" + NAME_CHAR + "))"
    r"|(.)")


def _row_lexemes(text):
    """The lexemes a row-by-row walk finds, or None for a text that starts
    with a byte order mark or holds a bad lexeme."""
    if text.startswith("\ufeff"):
        return None
    lexemes = []
    for row in text.split("\n"):
        for m in _ROW_LEXEME.finditer(row):
            if m.group(2) is not None:
                return None
            if m.group(1) is not None:
                lexemes.append(m.group(1))
    return lexemes


def _check_lexemes(text):
    lexemes = _LEXEME.findall(text + "\n")
    reference = _row_lexemes(text)
    # With the newline, the end of input reads as exactly two "".
    assert lexemes[-2:] == ["", ""]
    if reference is None:
        # A bad lexeme reads as "" too.
        assert text.startswith("\ufeff") or "" in lexemes[:-2]
        return
    assert "" not in lexemes[:-2]
    assert lexemes[:-2] == reference
    # The walk that positions diagnostics, over the text as given, sees the
    # same lexemes, then the end of input as one or two "".
    offsets = list(_offsets(text))
    assert 1 <= len(offsets) - len(reference) <= 2
    assert [text[at:at + len(lexeme)]
            for at, lexeme in zip(offsets, reference)] == reference
    assert offsets == sorted(offsets) and offsets[-1] == len(text)


def _mutations(texts, count, seed):
    """Texts with up to three random cuts, insertions of LAW_PIECES, or
    truncations each."""
    rng = random.Random(seed)
    for _ in range(count):
        text = rng.choice(texts)
        for _ in range(rng.randint(1, 3)):
            at = rng.randrange(len(text) + 1)
            what = rng.randrange(3)
            if what == 0:
                text = text[:at] + text[at + rng.randint(1, 8):]
            elif what == 1:
                text = text[:at] + rng.choice(LAW_PIECES) + text[at:]
            else:
                text = text[:at]
        yield text


def _outcome(text):
    try:
        return parse_law(text).hash
    except LawParseError as err:
        return [str(d) for d in err.diagnostics]


class TestLexer:
    """The lexemes parsing reads, against the walk that positions
    diagnostics and against the row-by-row reference lexer."""

    def test_shipped_laws(self, law_dir):
        for file in sorted(law_dir.glob("*.law")):
            _check_lexemes(file.read_text())

    def test_generated_laws(self):
        for seed in range(40):
            for law in generate_system(seed).laws.values():
                _check_lexemes(print_law(law))

    @SETTINGS
    @given(_joined(LAW_PIECES))
    def test_law_pieces(self, text):
        _check_lexemes(text)

    def test_shipped_hashes(self, law_dir):
        # Regression pin of every shipped law's digest, as the row-by-row
        # lexer and its parser gave them.
        assert {file.stem: parse_law(file.read_text()).hash
                for file in sorted(law_dir.glob("*.law"))} == {
            "MGMT": "35c1b35574afa4cdd80b66ba5661844dcf3dbf3833bf6431f9fd6ca77a68d743",
            "MS": "fd06955b2f74e49580fee64f01c78ad6a4f2e6192908087ed28b9d38dff4a265",
            "OPS": "81cb44abc16eac722a42941c86d4d66518837eba8c45c92863a0603f1df7eb11",
            "P": "ae0e3c3f225bf5a658fc60c6055f281ac3464c6b7a5a9d90f76fccdc5ff9110c",
            "S": ROOT_HASH,
            "SB": "0f2889b519c0acad84f3466fc80223d33f7fc515aab7a195651b3635e67319c3",
        }

    def test_mutated_laws_keep_their_outcomes(self):
        # Regression pin: the digest of each of 2,000 damaged laws' hash or
        # full diagnostic list, as the row-by-row lexer and its parser gave
        # them (368 parse; the rest fail with 38 kinds of message).  The
        # damage falls on a fixed copy of the six shipped laws as they were
        # written when the pin was taken, comments too, so an edit to a
        # shipped law leaves it be, while a lexer or parser change moves it.
        texts = [file.read_text()
                 for file in sorted(LEXER_CORPUS.glob("*.law"))]
        outcomes = [_outcome(text) for text in _mutations(texts, 2000, 15)]
        digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
        assert digest == ("2fb1df9a95c1d89e867acc2732c5f8cf0011421ca5e8c844"
                          "aa956aec11ecaf7a")

    @pytest.mark.parametrize("text", [
        pytest.param(BODY + "permit; } }" + " " * 100_000,
                     id="trailing-blanks"),
        pytest.param("# row\n" * 100_000 + BODY + "permit; } }",
                     id="comment-rows"),
        pytest.param(RULE + 'op == "' + "a" * 100_000, id="open-string"),
        pytest.param("law T { " + "1a " * 50_000 + "}", id="bad-words"),
    ])
    def test_pathological_text_is_linear(self, text):
        # Each takes tens of milliseconds; a lexer that backtracks over
        # the blanks it skips takes seconds to hours.
        started = time.perf_counter()
        try:
            parse_law(text)
        except LawParseError:
            pass
        assert time.perf_counter() - started < 1.0


class TestDirectoryMemo:
    """``load_law_dir`` parses a directory's files with one memo of tails,
    guards and bodies; each law and each problem must be what parsing its
    file alone gives."""

    @staticmethod
    def _alone(directory):
        """(laws, problems) of parsing each file without a memo, in the
        form ``load_law_dir`` reports them."""
        laws, problems = [], []
        for file in sorted(directory.glob("*.law")):
            try:
                laws.append(parse_law(file.read_text(encoding="utf-8"),
                                      str(file)))
            except LawParseError as err:
                problems.extend(f"{file.name}:{d.line}:{d.col}: {d.message}"
                                for d in err.diagnostics)
        return laws, problems

    def _load(self, directory):
        laws, problems = load_law_dir(directory)
        alone, alone_problems = self._alone(directory)
        assert laws == alone
        assert [law.hash for law in laws] == [law.hash for law in alone]
        assert problems == alone_problems
        return laws, problems

    @staticmethod
    def _write(directory, texts):
        directory.mkdir()
        for name, text in texts.items():
            (directory / name).write_text(text, encoding="utf-8")

    @staticmethod
    def _deep_texts(monkeypatch):
        monkeypatch.syspath_prepend(str(REPO_ROOT / "perfbench"))
        workloads = importlib.import_module("workloads")
        return workloads.build("deep-law", 1, REPO_ROOT / "laws",
                               steps=1).law_texts

    def _canonical_deep(self, monkeypatch, directory):
        """The deep-law tree, each law printed canonically: there, two
        guards or bodies are spelled alike exactly when they are equal."""
        texts = self._deep_texts(monkeypatch)
        self._write(directory, {name: print_law(parse_law(text))
                                for name, text in texts.items()})
        return self._load(directory)[0]

    @staticmethod
    def _nodes(laws):
        """(law name, guard or body) of every clause, leaving out the
        guards and bodies a clause without them gets."""
        for law in laws:
            for clause in law.rules + law.overrides:
                if not isinstance(clause.predicate, TruePred):
                    yield law.name, clause.predicate
                if clause.actions:
                    yield law.name, clause.actions

    def test_damaged_laws_load_as_they_parse_alone(self, law_dir, tmp_path):
        # Each damaged text is written twice, so the second copy meets
        # whatever the first left in the memo, and all of them load
        # before the shipped laws do (digits sort before letters).
        shipped = {file.name: file.read_text()
                   for file in sorted(law_dir.glob("*.law"))}
        damaged = list(_mutations(list(shipped.values()), 300, 30))
        problems = 0
        for n in range(30):
            texts = dict(shipped)
            for i, text in enumerate(damaged[10 * n:10 * n + 10]):
                texts[f"M{i}a.law"] = texts[f"M{i}b.law"] = text
            self._write(tmp_path / str(n), texts)
            problems += len(self._load(tmp_path / str(n))[1])
        assert problems > 300

    def test_deep_trees_load_as_they_parse_alone(self, monkeypatch,
                                                 tmp_path):
        self._write(tmp_path / "generated", self._deep_texts(monkeypatch))
        assert len(self._load(tmp_path / "generated")[0]) == 64
        assert len(self._canonical_deep(monkeypatch,
                                        tmp_path / "canonical")) == 64

    def test_alike_guards_and_bodies_are_one_object(self, monkeypatch,
                                                    tmp_path):
        laws = self._canonical_deep(monkeypatch, tmp_path / "deep")
        found: dict = {}
        for name, node in self._nodes(laws):
            ids, names = found.setdefault(node, (set(), set()))
            ids.add(id(node))
            names.add(name)
        assert all(len(ids) == 1 for ids, _ in found.values())
        # shared across laws, not only within one
        assert sum(len(names) > 1 for _, names in found.values()) > 50

    def test_shipped_laws_hold_each_node_once(self, law_dir):
        laws, problems = load_law_dir(law_dir)
        assert not problems
        clauses = [c for law in laws for c in law.rules + law.overrides]
        guards = {id(c.predicate): c.predicate for c in clauses}
        assert len(guards) == len(set(guards.values())) == 18
        # The permit and block override bodies completed with their
        # terminal are shared too, though not with the rules that spell
        # ``{ permit; }`` and ``{ block; }``: 11 objects for 9 bodies.
        bodies = {id(c.actions): c.actions for c in clauses}
        assert (len(bodies), len(set(bodies.values()))) == (11, 9)

    def test_alike_tails_are_one_object(self, monkeypatch, tmp_path):
        # In canonical text, two tails from ``on`` to the body's ``}`` are
        # spelled alike exactly when their events, guards and bodies are
        # equal; overrides print their completed bodies.
        laws = self._canonical_deep(monkeypatch, tmp_path / "deep")
        found: dict = {}
        for law in laws:
            for clause in law.rules + law.overrides:
                tail = (clause.events, clause.predicate, clause.actions)
                ids, names = found.setdefault(tail, (set(), set()))
                ids.add(id(clause.events))
                names.add(law.name)
        assert all(len(ids) == 1 for ids, _ in found.values())
        assert sum(len(names) > 1 for _, names in found.values()) > 50

    def test_each_shared_body_is_printed_once(self, monkeypatch, tmp_path):
        self._canonical_deep(monkeypatch, tmp_path / "deep")
        printed = []
        real = law_lang._print_action

        def print_action(action):
            printed.append(action)
            return real(action)

        monkeypatch.setattr(law_lang, "_print_action", print_action)
        laws, problems = load_law_dir(tmp_path / "deep")
        assert not problems
        bodies = {id(c.actions): c.actions
                  for law in laws for c in law.rules + law.overrides}
        clauses = sum(len(c.actions)
                      for law in laws for c in law.rules + law.overrides)
        assert len(printed) == sum(map(len, bodies.values())) < clauses

    def test_kept_text_is_the_plain_print(self, law_dir, monkeypatch,
                                          tmp_path):
        # Printed with no shared pieces, each law reads as the text its
        # directory load printed through the memo.
        self._write(tmp_path / "generated", self._deep_texts(monkeypatch))
        for directory in (law_dir, tmp_path / "generated"):
            laws, problems = load_law_dir(directory)
            assert laws and not problems
            for law in laws:
                assert law.text == print_law(law), law.name

    def test_separate_loads_share_nothing(self, monkeypatch, tmp_path):
        first = self._canonical_deep(monkeypatch, tmp_path / "deep")
        second, problems = load_law_dir(tmp_path / "deep")
        assert second == first and not problems
        assert not ({id(node) for _, node in self._nodes(first)}
                    & {id(node) for _, node in self._nodes(second)})


class TestCanonicalPrint:
    def test_shipped_laws_round_trip(self, law_dir):
        for file in sorted(law_dir.glob("*.law")):
            law = parse_law(file.read_text())
            printed = print_law(law)
            again = parse_law(printed)
            assert again == law, file.name
            assert print_law(again) == printed, file.name

    def test_comments_do_not_reach_canonical_text(self, law_dir):
        printed = print_law(parse_law((law_dir / "S.law").read_text()))
        assert "#" not in printed

    def test_profile_line_always_present(self):
        law = parse_law("law T {\n  default rule r on sent "
                        "if flow == outflow { permit; }\n}\n")
        assert "profile [];" in print_law(law)


def _ref_quote(s):
    """The printer's string quoting as one ``replace`` per escape."""
    out = s.replace("\\", "\\\\").replace('"', '\\"')
    out = out.replace("\n", "\\n").replace("\t", "\\t")
    return f'"{out}"'


def _ref_prec(p):
    if isinstance(p, Or):
        return 1
    if isinstance(p, And):
        return 2
    if isinstance(p, Not):
        return 3
    return 4


def _ref_print_predicate(p, parent_prec=0):
    """The printer with its precedence table kept apart from its walk."""
    if isinstance(p, Or):
        text = " or ".join(_ref_print_predicate(x, 1) for x in p.parts)
    elif isinstance(p, And):
        text = " and ".join(_ref_print_predicate(x, 2) for x in p.parts)
    elif isinstance(p, Not):
        text = "not " + _ref_print_predicate(p.inner, 3)
    elif isinstance(p, OpEquals):
        text = f"op == {_ref_quote(p.value)}"
    elif isinstance(p, OpGlob):
        text = f"op matches {_ref_quote(p.pattern)}"
    elif isinstance(p, FlowIs):
        text = f"flow == {p.kind.value}"
    elif isinstance(p, PeerModuleIs):
        text = f"peer.module == {p.name}"
    elif isinstance(p, PeerProfileHas):
        text = f"peer.profile has {_ref_quote(p.label)}"
    elif isinstance(p, PeerOutside):
        text = "peer.outside"
    elif isinstance(p, StateEquals):
        rhs = (_ref_quote(p.value) if isinstance(p.value, str)
               else str(p.value))
        text = f"state.{p.key} == {rhs}"
    elif isinstance(p, StateLess):
        text = f"state.{p.key} < {p.bound}"
    elif isinstance(p, CertEquals):
        text = f"cert.{p.attr} == {_ref_quote(p.value)}"
    else:
        assert isinstance(p, TruePred)
        text = ""
    return f"({text})" if _ref_prec(p) < parent_prec else text


_A, _B, _C = OpEquals("a"), OpGlob("b*"), StateLess("n", 2)

# Hand-built nestings: an or under an and, an or under a not, an and under
# a not, a not under an or, not not, and a few deeper ones.
NESTINGS = (
    And((Or((_A, _B)), _C)),
    Not(Or((_A, _B))),
    Not(And((_A, _B))),
    Or((Not(_A), _B)),
    Not(Not(_A)),
    Not(Not(Or((_A, And((_B, Not(_C))))))),
    And((_A, Not(Or((And((_B, _C)), _A))))),
    Or((And((Or((_A, _B)), _C)), Not(And((_A, _C))))),
    And((OpEquals("a"), OpEquals("b"))),
    And((OpEquals("a"), Or((OpEquals("a"), OpEquals("b"))))),
)


def generated_predicates(draws=200):
    """``oracle._gen_predicate`` draws at depths 0-4, both ``top``s."""
    rng = random.Random(0)
    modules = ["M0", "M1"]
    for depth in range(5):
        for top in (True, False):
            for _ in range(draws):
                yield oracle._gen_predicate(rng, modules, depth, top)


class TestPrinterReference:
    """The printer's one walk prints what a printer with a separate
    precedence table prints, under every parent precedence."""

    @pytest.mark.parametrize("p", NESTINGS, ids=_ref_print_predicate)
    @pytest.mark.parametrize("parent_prec", range(4))
    def test_hand_built_nestings(self, p, parent_prec):
        assert (print_predicate(p, parent_prec)
                == _ref_print_predicate(p, parent_prec))

    @pytest.mark.parametrize("parent_prec", range(4))
    def test_generated_predicates(self, parent_prec):
        for p in generated_predicates():
            assert (print_predicate(p, parent_prec)
                    == _ref_print_predicate(p, parent_prec)), p

    @SETTINGS
    @given(st.text(st.one_of(st.sampled_from('\\"\n\t'), st.characters())))
    def test_quote(self, s):
        assert law_lang._quote(s) == _ref_quote(s)


class TestHashing:
    BASE = ('law T {{\n'
            '  default rule {a} on sent if flow == outflow {{ permit; }}\n'
            '  default rule {b} on arrived if flow == inflow {{ block; }}\n'
            '}}\n')

    def test_comment_changes_are_invisible(self):
        plain = parse_law(self.BASE.format(a="r1", b="r2"))
        noisy = parse_law("# header\n" + self.BASE.format(a="r1", b="r2"))
        assert plain.hash == noisy.hash

    def test_rule_order_is_visible(self):
        one = parse_law(self.BASE.format(a="r1", b="r2"))
        swapped = parse_law(
            'law T {\n'
            '  default rule r2 on arrived if flow == inflow { block; }\n'
            '  default rule r1 on sent if flow == outflow { permit; }\n'
            '}\n')
        assert one.hash != swapped.hash

    def test_renames_are_visible(self):
        assert (parse_law(self.BASE.format(a="r1", b="r2")).hash
                != parse_law(self.BASE.format(a="rx", b="r2")).hash)

    def test_law_hash_matches_stored_hash(self, law_dir):
        law = parse_law((law_dir / "MS.law").read_text())
        assert text_hash(print_law(law)) == law.hash


class TestGeneratedRoundTrip:
    def test_thousand_generated_laws_survive_print_and_reparse(self):
        seen = 0
        seed = 0
        while seen < 1000:
            system = generate_system(seed)
            for law in system.laws.values():
                assert law.text == print_law(law), f"seed {seed}, law {law.name}"
                assert law.hash == text_hash(law.text), \
                    f"seed {seed}, law {law.name}"
                # generated laws come out of the parser: their reparse is
                # the very same law
                assert parse_law(law.text) == law, \
                    f"seed {seed}, law {law.name}"
                seen += 1
            seed += 1
        assert seen >= 1000
