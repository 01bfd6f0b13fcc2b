"""Law text: parsing, canonical printing, and content hashing."""

import pytest

from mds.law_lang import (LawParseError, LawSource, law_hash, parse_law,
                          print_law, print_predicate)
from mds.model import (And, EventKind, FlowKind, MetaDirection, Not,
                       OpEquals, OpGlob, Or, OverrideKind, RuleMode,
                       StateEquals, StateLess)
from mds.oracle import generate_system

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
            parse_law(LawSource(text, "t.law"))
        diag = err.value.diagnostics[0]
        assert diag.line >= 3

    def test_duplicate_rule_id_rejected(self):
        text = ('law T {\n'
                '  default rule r on sent if flow == outflow { permit; }\n'
                '  default rule r on arrived if flow == inflow { block; }\n'
                '}\n')
        with pytest.raises(LawParseError):
            parse_law(text)


RULE = "law T { default rule r on sent if "


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
        pytest.param(RULE + 'op == "ab\\\ncd" { permit; } }', 1, 44,
                     "unknown escape \\\n", id="backslash-before-newline"),
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
        pytest.param("law T {\n  # open", 2, 3,
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
        assert law_hash(law) == law.hash


class TestGeneratedRoundTrip:
    def test_thousand_generated_laws_survive_print_and_reparse(self):
        # Equality is judged on canonical text and digest: conformance
        # annotates override owners, which fresh parses rightly lack.
        seen = 0
        seed = 0
        while seen < 1000:
            system = generate_system(seed)
            for law in system.laws.values():
                printed = print_law(law)
                again = parse_law(printed)
                assert print_law(again) == printed, \
                    f"seed {seed}, law {law.name}"
                assert again.hash == law_hash(law), \
                    f"seed {seed}, law {law.name}"
                seen += 1
            seed += 1
        assert seen >= 1000
