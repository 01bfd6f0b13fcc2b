"""Per-component enforcement: flows, adoption, rulings, disclosure."""

import hmac
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_law_lang import NESTINGS, generated_predicates

from mds import controller, oracle
from mds.conformance import build_hierarchy
from mds.controller import (OUTSIDE, BareInbound, Certificate, Decision,
                            Envelope, EventContext, adopt, demo_verify,
                            handle_arrive, handle_send, issue_certificate,
                            matched_token)
from mds.law_lang import parse_law, print_law
from mds.model import (And, CertEquals, EventKind, FlowIs, FlowKind, Not,
                       OpEquals, OpGlob, Or, PeerModuleIs, PeerOutside,
                       PeerProfileHas, StateEquals, StateLess, TruePred)
from mds.oracle import generate_system, oracle_evaluate, oracle_flow
from mds.runner import check_law_dir

def _adopt(h, name, module, attrs=None, cert=True):
    c = None
    if cert:
        full = {"modules": module}
        full.update(attrs or {})
        c = issue_certificate(name, full)
    return adopt(name, h, module, cert=c)


def _refusal(adopted) -> tuple:
    """(decision, token, reason) of a refused adoption, which has no agent."""
    agent, ruling = adopted
    assert agent is None
    return ruling.decision, ruling.matched, ruling.reason


# how the shipped S law's init rule refuses an MS adoption
NOT_MS = (Decision.BLOCK_NOTICE, "S:init",
          "certificate attribute 'modules' does not list 'MS'")


def _hier(*texts):
    h, violations = build_hierarchy([parse_law(t) for t in texts])
    assert h is not None, violations
    return h


class TestRulingFlow:
    """Each side's ruling names the flow the oracle derives for it."""

    @pytest.fixture
    def cast(self):
        h = _hier("law M {\n}\n", "law N extends M {\n}\n")
        return h, _adopt(h, "m", "M")[0], _adopt(h, "n", "N")[0]

    @pytest.mark.parametrize("target_module, kind", [
        ("M", FlowKind.INNER),
        ("N", FlowKind.OUTFLOW),
        (None, FlowKind.EXPORT),
    ], ids=["inner", "outflow", "export"])
    def test_send(self, cast, target_module, kind):
        _, m, _ = cast
        locus = OUTSIDE if target_module is None else target_module
        ruling, _ = handle_send(m, "op", b"", "peer", locus)
        assert ruling.flow is kind
        assert kind is oracle_flow("M", "M", target_module)

    @pytest.mark.parametrize("arrival, sender_module, kind", [
        ("inner", "M", FlowKind.INNER),
        ("inflow", "N", FlowKind.INFLOW),
        ("bare", None, FlowKind.IMPORT),
        ("forged", None, FlowKind.IMPORT),
    ], ids=["inner", "inflow", "import-bare", "import-forged"])
    def test_arrive(self, cast, arrival, sender_module, kind):
        h, m, n = cast
        _, inner = handle_send(m, "op", b"", "m", "M")
        _, inflow = handle_send(n, "op", b"", "m", "M")
        inbound = {
            "inner": inner,
            "inflow": inflow,
            "bare": BareInbound("wild", "op", b""),
            # a lineage this hierarchy does not hold for N
            "forged": replace(inflow, sender_lineage=("0" * 64,)),
        }[arrival]
        ruling, _ = handle_arrive(m, inbound)
        assert ruling.flow is kind
        assert kind is oracle_flow("M", sender_module, "M")


class TestCertificates:
    def test_issue_verify_round_trip(self):
        cert = issue_certificate("alice", {"modules": "MS",
                                           "clearance": "high"})
        assert demo_verify(cert)
        assert dict(cert.attributes)["clearance"] == "high"

    def test_tampered_attribute_fails(self):
        cert = issue_certificate("alice", {"modules": "MS"})
        forged = Certificate(cert.subject, (("modules", "MS,P"),),
                             cert.signature)
        assert not demo_verify(forged)

    def test_wrong_issuer_secret_fails(self, shipped):
        # signed as the authority signs, under a key it does not hold
        attrs = (("modules", "MS"),)
        forged = Certificate("alice", attrs, hmac.digest(
            b"rogue-ca", repr(("alice", attrs)).encode("utf-8"), "sha256"))
        assert not demo_verify(forged)
        assert _refusal(adopt("alice", shipped, "MS", cert=forged)) == NOT_MS

    def test_attributes_resplit_across_the_separators_fail(self):
        cert = issue_certificate("alice", {"dept": "eng|modules=MS"})
        resplit = Certificate("alice", (("dept", "eng"), ("modules", "MS")),
                              cert.signature)
        assert not demo_verify(resplit)


class TestAdoption:
    def test_member_state_initialized(self, shipped):
        agent, ruling = _adopt(shipped, "m", "MS")
        assert agent.state["module"] == "MS"
        assert agent.state["profile"] == "log"
        assert ruling.decision.permits

    def test_exactly_one_registration_effect(self, shipped):
        for module in ("MS", "SB", "OPS", "MGMT", "P"):
            _, ruling = _adopt(shipped, "c", module)
            count = sum(1 for e in ruling.effects if e[0] == "notify-registry")
            assert count == 1, module

    def test_no_certificate_refused(self, shipped):
        assert _refusal(_adopt(shipped, "m", "MS", cert=False)) == NOT_MS

    def test_certificate_without_module_refused(self, shipped):
        cert = issue_certificate("m", {"modules": "OPS,SB"})
        assert _refusal(adopt("m", shipped, "MS", cert=cert)) == NOT_MS

    def test_tampered_certificate_refused(self, shipped):
        cert = issue_certificate("m", {"modules": "OPS"})
        forged = Certificate(cert.subject, (("modules", "MS"),),
                             cert.signature)
        assert _refusal(adopt("m", shipped, "MS", cert=forged)) == NOT_MS

    def test_certificate_of_another_subject_refused(self, shipped):
        alices = issue_certificate("alice", {"modules": "MS"})
        assert adopt("alice", shipped, "MS", cert=alices)[0].cert_attrs
        assert _refusal(adopt("mallory", shipped, "MS",
                              cert=alices)) == NOT_MS

    def test_multi_module_component_gets_separate_agents(self, shipped):
        cert = issue_certificate("b", {"modules": "OPS,P"})
        ops_agent, _ = adopt("b", shipped, "OPS", cert=cert)
        p_agent, _ = adopt("b", shipped, "P", cert=cert)
        assert ops_agent.state["module"] == "OPS"
        assert p_agent.state["module"] == "P"
        ops_agent.state["scratch"] = 1
        assert "scratch" not in p_agent.state

    def test_p_adoption_seeds_workflow_flags(self, shipped):
        agent, _ = _adopt(shipped, "b", "P")
        assert agent.state["approved"] == "no"
        assert agent.state["logged"] == "no"

    def test_agent_carries_its_law_program(self, shipped):
        agent, _ = _adopt(shipped, "m", "MS")
        assert agent.program is controller.program_for(shipped, "MS")
        assert replace(agent, state={}).program is agent.program


class TestSendRulings:
    def test_inner_forward(self, shipped):
        a, _ = _adopt(shipped, "m1", "MS")
        ruling, env = handle_send(a, "retrieve", b"", "m2", "MS")
        assert ruling.decision is Decision.FORWARD
        assert matched_token(ruling.matched) == "S:inner-permit"
        assert env is not None and env.sender_module == "MS"
        assert env.sender_lineage == a.lineage

    def test_outflow_forward(self, shipped):
        a, _ = _adopt(shipped, "app", "OPS")
        ruling, env = handle_send(a, "log", b"", "m1", "MS")
        assert ruling.decision is Decision.FORWARD
        assert ruling.flow is FlowKind.OUTFLOW
        assert matched_token(ruling.matched) == "S:outflow-permit"

    def test_export_blocked_with_notice(self, shipped):
        a, _ = _adopt(shipped, "app", "OPS")
        ruling, env = handle_send(a, "report", b"", "ext", OUTSIDE)
        assert ruling.decision is Decision.BLOCK_NOTICE
        assert matched_token(ruling.matched) == "S:boundary-block"
        assert env is None
        assert ruling.reason

    def test_ident_export_always_permitted(self, shipped):
        a, _ = _adopt(shipped, "app", "OPS")
        ruling, env = handle_send(a, "ident", b"", "ext", OUTSIDE)
        assert ruling.decision is Decision.FORWARD
        assert matched_token(ruling.matched) == "S:ident"
        assert env is None  # leaves the system bare

    def test_purchase_order_pinned_to_purchasing(self, shipped):
        a, _ = _adopt(shipped, "app", "OPS")
        ruling, _ = handle_send(a, "purchaseOrder", b"", "v", OUTSIDE)
        assert ruling.decision is Decision.BLOCK_NOTICE
        assert matched_token(ruling.matched) == "S:po-guard"

    def test_sandbox_outflow_allow_list(self, shipped):
        a, _ = _adopt(shipped, "boxed", "SB")
        allowed, _ = handle_send(a, "result", b"", "helper", "OPS")
        assert allowed.decision is Decision.FORWARD
        denied, _ = handle_send(a, "report", b"", "helper", "OPS")
        assert denied.decision is Decision.BLOCK_NOTICE
        assert matched_token(denied.matched) == "SB:outflow-permit"


class TestArriveRulings:
    def _envelope(self, sender_agent, operation, payload=b""):
        return Envelope(sender_module=sender_agent.law,
                        sender_profile=sender_agent.profile_labels(),
                        sender_lineage=sender_agent.lineage,
                        operation=operation, payload=payload,
                        sender=sender_agent.component)

    def test_inner_deliver_strips_envelope(self, shipped):
        a, _ = _adopt(shipped, "m1", "MS")
        b, _ = _adopt(shipped, "m2", "MS")
        ruling, delivery = handle_arrive(
            b, self._envelope(a, "retrieve", b"q"))
        assert ruling.decision is Decision.DELIVER
        assert delivery.operation == "retrieve" and delivery.payload == b"q"
        assert delivery.sender_identity is None  # not disclosed by default

    def test_inflow_blocked_silently(self, shipped):
        a, _ = _adopt(shipped, "app", "OPS")
        b, _ = _adopt(shipped, "m1", "MS")
        ruling, delivery = handle_arrive(
            b, self._envelope(a, "retrieve"))
        assert ruling.decision is Decision.BLOCK_SILENT
        assert delivery is None
        assert matched_token(ruling.matched) == "S:inflow-block"

    def test_bare_inbound_is_import(self, shipped):
        b, _ = _adopt(shipped, "m1", "MS")
        ruling, delivery = handle_arrive(
            b, BareInbound(sender_address="ext", operation="log",
                           payload=b""))
        assert ruling.decision is Decision.BLOCK_SILENT
        assert ruling.flow is FlowKind.IMPORT
        assert matched_token(ruling.matched) == "S:boundary-block"

    def test_foreign_lineage_classified_as_import(self, shipped):
        b, _ = _adopt(shipped, "m1", "MS")
        stranger = Envelope(sender_module="MS", sender_profile=("log",),
                            sender_lineage=("feedfeed",), operation="log",
                            payload=b"", sender="impostor")
        ruling, _ = handle_arrive(b, stranger)
        assert ruling.flow is FlowKind.IMPORT
        assert ruling.decision is Decision.BLOCK_SILENT

    def test_root_only_lineage_classified_as_import(self, shipped):
        # the root hash alone names no module's law: the whole lineage must
        # be the one the receiver's hierarchy holds for the claimed module
        b, _ = _adopt(shipped, "app", "OPS")
        claimant = Envelope(sender_module="MS", sender_profile=("log",),
                            sender_lineage=(shipped.lineage["MS"][0],),
                            operation="log", payload=b"", sender="impostor")
        ruling, _ = handle_arrive(b, claimant)
        assert ruling.flow is FlowKind.IMPORT

    def test_malformed_envelope_rejected_with_notice(self, shipped):
        b, _ = _adopt(shipped, "m1", "MS")
        broken = Envelope(sender_module="", sender_profile=(),
                          sender_lineage=(), operation="log", payload=b"",
                          sender="")
        ruling, delivery = handle_arrive(b, broken)
        assert ruling.decision is Decision.BLOCK_NOTICE
        assert delivery is None


class TestWorkflowState:
    def test_approve_sets_flag_and_spend_resets(self, shipped):
        buyer, _ = _adopt(shipped, "buyer", "P")
        approver, _ = _adopt(shipped, "boss", "MGMT")
        logger, _ = _adopt(shipped, "logkeeper", "MS")

        env = Envelope(sender_module="MGMT",
                       sender_profile=approver.profile_labels(),
                       sender_lineage=approver.lineage, operation="approve",
                       payload=b"", sender="boss")
        ruling, _ = handle_arrive(buyer, env)
        assert ruling.decision is Decision.DELIVER
        assert buyer.state["approved"] == "yes"
        assert buyer.state["logged"] == "no"

        blocked, _ = handle_send(buyer, "purchaseOrder", b"", "v", OUTSIDE)
        assert blocked.decision is Decision.BLOCK_NOTICE

        ack = Envelope(sender_module="MS",
                       sender_profile=logger.profile_labels(),
                       sender_lineage=logger.lineage, operation="logged",
                       payload=b"", sender="logkeeper")
        handle_arrive(buyer, ack)
        assert buyer.state["logged"] == "yes"

        sent, env = handle_send(buyer, "purchaseOrder", b"", "v", OUTSIDE)
        assert sent.decision is Decision.FORWARD
        assert matched_token(sent.matched) == "P:boundary-block"
        assert buyer.state["approved"] == "no"
        assert buyer.state["logged"] == "no"

    def test_approve_from_unprofiled_peer_ignored(self, shipped):
        buyer, _ = _adopt(shipped, "buyer", "P")
        worker, _ = _adopt(shipped, "w", "OPS")
        env = Envelope(sender_module="OPS",
                       sender_profile=worker.profile_labels(),
                       sender_lineage=worker.lineage, operation="approve",
                       payload=b"", sender="w")
        ruling, _ = handle_arrive(buyer, env)
        assert ruling.decision is Decision.BLOCK_SILENT
        assert buyer.state["approved"] == "no"

    def test_directive_increments_counter(self, shipped):
        worker, _ = _adopt(shipped, "w", "OPS")
        boss, _ = _adopt(shipped, "boss", "MGMT")
        env = Envelope(sender_module="MGMT",
                       sender_profile=boss.profile_labels(),
                       sender_lineage=boss.lineage, operation="directive",
                       payload=b"", sender="boss")
        notes = []
        for expected in (1, 2):
            ruling, _ = handle_arrive(worker, env)
            assert ruling.decision is Decision.DELIVER
            assert worker.state["directives"] == expected
            assert ruling.state_updates == (("increment", "directives", 1),)
            notes.append(ruling.state_updates[0])
        assert notes[0] is notes[1]  # made once, when the law compiled


def _replay(state, notes):
    """``state`` after the writes ``notes`` record, as the notes described
    in ``controller`` say."""
    st = dict(state)
    for note in notes:
        if note[0] == "set":
            _, key, value = note
            st[key] = value
        elif note[0] == "increment":
            _, key, delta = note
            old = st.get(key)
            st[key] = (old if type(old) is int else 0) + delta
        else:
            kind, added = note
            assert kind == "append-profile", note
            raw = st.get("profile", "")
            labels = ([x for x in raw.split(",") if x]
                      if isinstance(raw, str) else [])
            st["profile"] = ",".join(labels + list(added))
    return st


class TestWriteLog:
    """Replaying a ruling's ``state_updates`` on the agent's state from
    before the ruling gives its state after it."""

    def test_generated_systems(self, monkeypatch):
        real_send, real_arrive = oracle.handle_send, oracle.handle_arrive
        seen = {}  # (event, note kind) -> count

        def replayed(kind, agent, ruling, before):
            assert _replay(before, ruling.state_updates) == agent.state
            for note in ruling.state_updates:
                seen[kind, note[0]] = seen.get((kind, note[0]), 0) + 1

        def send(agent, *args):
            before = dict(agent.state)
            ruling, env = real_send(agent, *args)
            replayed("sent", agent, ruling, before)
            return ruling, env

        def arrive(agent, msg):
            before = dict(agent.state)
            ruling, delivery = real_arrive(agent, msg)
            replayed("import" if isinstance(msg, BareInbound) else "arrived",
                     agent, ruling, before)
            return ruling, delivery

        monkeypatch.setattr(oracle, "handle_send", send)
        monkeypatch.setattr(oracle, "handle_arrive", arrive)
        for seed in range(40):
            assert oracle.run_trial(generate_system(seed)) == []
        for event in ("sent", "arrived", "import"):
            for kind in ("set", "increment", "append-profile"):
                assert seen.get((event, kind)), (event, kind, seen)


OPEN = """
law Open {
  default rule any on arrived {
    permit;
  }
}
"""


class TestDisclosure:
    """``Delivery.sender_identity`` is where a receiver learns who sent."""

    @pytest.mark.parametrize("receiver, inbound, disclose, flow, identity", [
        ("MS", "genuine", False, FlowKind.INNER, None),
        ("MS", "genuine", True, FlowKind.INNER, ("MS", ("log",))),
        ("Peer", "genuine", True, FlowKind.INFLOW, ("MS", ("log",))),
        ("MS", "bare", True, FlowKind.IMPORT, None),
        ("MS", "forged", True, FlowKind.IMPORT, None),
    ], ids=["default", "inner", "inflow", "bare-import", "forged-lineage"])
    def test_identity_on_delivery(self, receiver, inbound, disclose, flow,
                                  identity):
        h = _hier(OPEN, "law MS extends Open { }",
                  "law Peer extends Open { }")
        agent, _ = adopt("r", h, receiver)
        if disclose:
            agent.state["disclose"] = "yes"
        if inbound == "bare":
            msg = BareInbound(sender_address="10.0.0.9:1",
                              operation="retrieve", payload=b"q")
        else:
            lineage = h.lineage["MS"] if inbound == "genuine" else (
                "0" * 64,)
            msg = Envelope(sender_module="MS", sender_profile=("log",),
                           sender_lineage=lineage, operation="retrieve",
                           payload=b"q", sender="m1")
        ruling, delivery = handle_arrive(agent, msg)
        assert (ruling.decision, ruling.flow) == (Decision.DELIVER, flow)
        assert delivery.sender_identity == identity


BASE = """
law Base {
  default rule gate on arrived if flow == inflow {
    block;
  }
  default rule out on sent if flow == outflow or flow == inner {
    permit;
  }
  allow-override gate may-permit;
}
"""

MID = """
law Mid extends Base {
  override gate permit on arrived if op matches "open-*" {
  }
}
"""

LEAF = """
law Leaf extends Mid {
  override gate permit on arrived if op == "only-leaf" {
  }
}
"""


class TestMatchDiscipline:
    def _arrive(self, h, receiver, op, sender_law="Mid"):
        sender_lineage = h.lineage[sender_law]
        env = Envelope(sender_module=sender_law, sender_profile=(),
                       sender_lineage=sender_lineage, operation=op,
                       payload=b"", sender="peer")
        return handle_arrive(receiver, env)

    def test_deepest_matching_override_decides(self):
        h = _hier(BASE, MID, LEAF)
        r, _ = adopt("r", h, "Leaf")
        ruling, _ = self._arrive(h, r, "only-leaf")
        assert ruling.decision is Decision.DELIVER
        assert matched_token(ruling.matched) == "Leaf:gate"

    def test_shallower_override_used_when_deeper_declines(self):
        h = _hier(BASE, MID, LEAF)
        r, _ = adopt("r", h, "Leaf")
        ruling, _ = self._arrive(h, r, "open-sesame")
        assert ruling.decision is Decision.DELIVER
        assert matched_token(ruling.matched) == "Mid:gate"

    def test_default_body_runs_when_no_override_matches(self):
        h = _hier(BASE, MID, LEAF)
        r, _ = adopt("r", h, "Leaf")
        ruling, _ = self._arrive(h, r, "shut")
        assert ruling.decision is Decision.BLOCK_SILENT
        assert matched_token(ruling.matched) == "Base:gate"

    def test_textual_order_breaks_ties_within_one_law(self):
        kid = """
        law Kid extends Base {
          override gate permit on arrived if op matches "a*" {
            set state.tag = "first";
          }
          override gate permit on arrived if op matches "ab*" {
            set state.tag = "second";
          }
        }
        """
        h = _hier(BASE, kid)
        r, _ = adopt("r", h, "Kid")
        ruling, _ = self._arrive(h, r, "abc", sender_law="Base")
        assert ruling.decision is Decision.DELIVER
        assert r.state["tag"] == "first"

    def test_non_terminal_rule_applies_and_scan_continues(self):
        root = """
        law Root2 {
          categorical rule mark on sent if op == "stamp" {
            set state.seen = "yes";
          }
          default rule out on sent if flow == outflow {
            permit;
          }
        }
        """
        h = _hier(root, "law Kid extends Root2 { }")
        a, _ = adopt("a", h, "Kid")
        ruling, _ = handle_send(a, "stamp", b"", "peer", "Root2")
        assert ruling.decision is Decision.FORWARD
        assert matched_token(ruling.matched) == "Root2:out"
        assert a.state["seen"] == "yes"
        assert ("set", "seen", "yes") in ruling.state_updates

    def test_builtin_fallback_per_flow(self):
        thin = 'law Thin {\n  categorical rule only on sent if op == "x" '\
               '{\n    block;\n  }\n}\n'
        h = _hier(thin)
        a, _ = adopt("a", h, "Thin")
        inner, _ = handle_send(a, "y", b"", "peer", "Thin")
        assert inner.decision is Decision.FORWARD
        assert matched_token(inner.matched) == "default:inner"
        export, _ = handle_send(a, "y", b"", "ext", OUTSIDE)
        assert export.decision is Decision.BLOCK_NOTICE
        assert matched_token(export.matched) == "default:export"
        imported, _ = handle_arrive(
            a, BareInbound("ext", "y", b""))
        assert imported.decision is Decision.BLOCK_SILENT
        assert matched_token(imported.matched) == "default:import"

    def test_the_token_cache_renders_as_matched_token(self):
        """Every leaf of a hierarchy names its rulings through one token
        cache, which ``matched_token`` fills once per matched value."""
        h = _hier(BASE, MID, LEAF)
        mid, _ = adopt("m", h, "Mid")
        leaf, _ = adopt("l", h, "Leaf")
        assert mid.program is not leaf.program
        tokens = leaf.program.tokens
        assert mid.program.tokens is tokens
        rulings = [self._arrive(h, agent, "shut", sender_law="Base")[0]
                   for agent in (mid, leaf)]
        assert [r.matched for r in rulings] == ["Base:gate", "Base:gate"]
        assert rulings[0].matched is rulings[1].matched  # rendered once
        for matched in (("Base", "out"), "default:adopted",
                        *(f"default:{flow.value}" for flow in FlowKind)):
            token = tokens[matched]
            assert token == matched_token(matched)
            assert tokens[matched] is token


class TestLocalityQuick:
    """Rulings read only the acting agent and the message itself."""

    def test_unrelated_state_never_changes_a_ruling(self, shipped):
        rng = random.Random(11)
        agents = {}
        for name, module in (("m1", "MS"), ("m2", "MS"), ("app", "OPS"),
                             ("boxed", "SB"), ("boss", "MGMT")):
            agents[name], _ = _adopt(shipped, name, module)
        names = sorted(agents)
        ops = ("retrieve", "log", "task", "result", "disclose", "report")
        for _ in range(300):
            sname, tname = rng.sample(names, 2)
            op = rng.choice(ops)
            sender0 = replace(agents[sname],
                              state=dict(agents[sname].state))
            first = handle_send(sender0, op, b"", tname, agents[tname].law)
            for other in names:
                if other not in (sname, tname):
                    agents[other].state[rng.choice(("module", "zz", "n"))] = \
                        rng.choice(("poked", 7, "yes"))
            sender1 = replace(agents[sname],
                              state=dict(agents[sname].state))
            second = handle_send(sender1, op, b"", tname, agents[tname].law)
            assert first[0] == second[0]


class TestCompiledBodiesMatchOracle:
    """Actions whose values compiled bodies resolve at compile time.

    The random systems of the differential fuzzer never generate these
    (module-name, module-profile, require-cert), so they are driven here
    through the controller and the interpretive oracle side by side.
    """

    ROOT = """
    law Root {
      profile [base];
      categorical rule stamp on adopted, sent {
        set state.home = module-name;
        set state.badge = module-profile;
      }
      categorical rule vet on sent if op == "vet" {
        require-cert dept == "finance", modules contains module-name;
        increment state.vetted by 1;
      }
      default rule gate on sent if op matches "g*" {
        set state.gate = "root";
        permit;
      }
      allow-override gate may-replace;
    }
    """
    LEFT = """
    law Left extends Root {
      profile [left, l2];
      override gate replace on sent if op == "go" {
        set state.via = module-name;
        require-cert dept == "eng";
        block;
      }
    }
    """
    RIGHT = "law Right extends Root {\n  profile [right];\n}\n"

    # (component, leaf, certificate attributes, "modules" defaulting to leaf)
    CAST = (
        ("fin", "Left", {"dept": "finance"}),
        ("eng", "Left", {"dept": "eng"}),
        ("fin2", "Right", {"dept": "finance"}),
        ("stray", "Right", {"dept": "finance", "modules": "Left"}),
    )

    def test_controller_agrees_with_oracle(self):
        h = _hier(self.ROOT, self.LEFT, self.RIGHT)
        reasons = {}  # (component, op) -> reason of an inner-flow block
        for name, leaf, attrs in self.CAST:
            cert = issue_certificate(name, {"modules": leaf, **attrs})
            agent, ruling = adopt(name, h, leaf, cert=cert)
            expected = oracle_evaluate(h.laws, leaf, {}, agent.cert_attrs,
                                       EventContext(EventKind.ADOPTED))
            assert expected == ("permit", matched_token(ruling.matched),
                                agent.state)
            # One root rule, resolved against each leaf.
            assert agent.state["home"] == leaf
            assert agent.state["badge"] == ",".join(h.laws[leaf].profile)
            for op in ("vet", "go", "gx", "other", "vet"):
                for target, locus in (("peer", leaf), ("peer", "Root"),
                                      ("ext", OUTSIDE)):
                    outside = locus is OUTSIDE
                    flow = oracle_flow(leaf, leaf, None if outside else locus)
                    expected = oracle_evaluate(
                        h.laws, leaf, agent.state, agent.cert_attrs,
                        EventContext(EventKind.SENT, op, flow,
                                     target if outside else locus,
                                     peer_outside=outside))
                    ruling, _ = handle_send(agent, op, b"", target, locus)
                    verdict = "permit" if ruling.decision.permits else "block"
                    assert (verdict, matched_token(ruling.matched),
                            agent.state) == expected, (name, op, locus)
                    if flow is FlowKind.INNER and verdict == "block":
                        reasons[(name, op)] = ruling.reason
        # require-cert as a non-terminal action blocks with its reason
        assert reasons[("eng", "vet")] == \
            "certificate attribute 'dept' != 'finance'"
        assert reasons[("stray", "vet")] == \
            "certificate attribute 'modules' does not list 'Right'"
        assert ("fin", "vet") not in reasons
        # The override body, not the rule's, ran on Left only: its set
        # applied before its require-cert decided.
        assert reasons[("fin", "go")] == \
            "certificate attribute 'dept' != 'eng'"
        assert reasons[("eng", "go")] == "blocked by Left:gate"
        assert ("fin2", "go") not in reasons

    def test_multi_label_append_profile_agrees_with_oracle(self):
        # A repeated label is a parse error; distinct labels append in
        # order, skipping one the profile already holds.
        law = ('law Grow {\n  categorical rule grow on adopted {\n'
               '    append-profile b, a, c;\n  }\n}\n')
        h = _hier(law)
        for start in ({}, {"profile": "a"}, {"profile": "c,b"}):
            state = dict(start)
            controller.evaluate(controller.program_for(h, "Grow"), state, {},
                                EventContext(EventKind.ADOPTED))
            _, _, expected = oracle_evaluate(h.laws, "Grow", start, {},
                                             EventContext(EventKind.ADOPTED))
            assert state == expected, start

    @staticmethod
    def _adopted_both_ways(body: str, cert: dict) -> tuple:
        """(production's, the oracle's) ruling of the adopted event under a
        one-rule law, each as (verdict, token, state after)."""
        h = _hier("law G {\n  default rule init on adopted {\n"
                  f"    {body}\n  }}\n}}\n")
        state: dict = {}
        verdict, matched, *_ = controller.evaluate(
            controller.program_for(h, "G"), state, cert,
            EventContext(EventKind.ADOPTED))
        return ((verdict, matched_token(matched), state),
                oracle_evaluate(h.laws, "G", {}, cert,
                                EventContext(EventKind.ADOPTED)))

    @pytest.mark.parametrize("label,profile", [("c", "a,c"), ("a", ",a")])
    def test_append_profile_skips_empty_labels_as_the_oracle_does(
            self, label, profile):
        # Labels are the non-empty parts; the value is rewritten only when
        # a label is added.
        production, expected = self._adopted_both_ways(
            f'set state.profile = ",a"; append-profile {label};', {})
        assert production == expected
        assert production[2] == {"profile": profile}

    @pytest.mark.parametrize("cert,verdict", [
        ({}, "block"), ({"dept": "eng"}, "block"), ({"dept": ""}, "permit")])
    def test_an_absent_attribute_lists_nothing_as_in_the_oracle(
            self, cert, verdict):
        production, expected = self._adopted_both_ways(
            'require-cert dept contains ""; permit;', cert)
        assert production == expected
        assert production[0] == verdict


# Guards that read only the operation, some of which hold for an
# operation some ``op ==`` names and some of which do not.
_OP_ONLY_GUARDS = (
    OpGlob("p*"), OpEquals("sync"), Not(OpEquals("ping")),
    Or((OpEquals("log"), OpGlob("*g"))),
    And((OpGlob("*o*"), Not(OpEquals("probe")))),
)


def _with_op_only_overrides(laws, rng):
    """The laws with each override's guard swapped for one that reads only
    the operation; conformance does not look at guards."""
    return {name: parse_law(print_law(replace(law, overrides=tuple(
        replace(ov, predicate=rng.choice(_OP_ONLY_GUARDS))
        for ov in law.overrides)))) for name, law in laws.items()}


def _guards(p):
    """Every predicate node of p, p included."""
    yield p
    if isinstance(p, Not):
        yield from _guards(p.inner)
    for child in getattr(p, "parts", ()):
        yield from _guards(child)


def _ref_ops_of(p):
    """Operations whose ``op ==`` atoms can make p true, or None for any."""
    if isinstance(p, OpEquals):
        return frozenset((p.value,))
    if isinstance(p, And):
        known = [ops for ops in map(_ref_ops_of, p.parts) if ops is not None]
        return frozenset.intersection(*known) if known else None
    if isinstance(p, Or):
        sets = [_ref_ops_of(x) for x in p.parts]
        return None if None in sets else frozenset().union(*sets)
    return None


def _ref_reads_only_op(p):
    """True if p reads nothing but the operation."""
    if isinstance(p, (TruePred, OpEquals, OpGlob)):
        return True
    if isinstance(p, Not):
        return _ref_reads_only_op(p.inner)
    if isinstance(p, (And, Or)):
        return all(map(_ref_reads_only_op, p.parts))
    return False


class TestOpFacts:
    """``_op_facts`` gives in one walk what one walk per fact gives."""

    @pytest.mark.parametrize("p", NESTINGS + _OP_ONLY_GUARDS)
    def test_hand_built_guards(self, p):
        assert controller._op_facts(p) == (_ref_ops_of(p),
                                           _ref_reads_only_op(p))

    def test_generated_guards(self):
        for p in generated_predicates():
            assert controller._op_facts(p) == (_ref_ops_of(p),
                                               _ref_reads_only_op(p)), p


def _ref_arrival(agent, inbound):
    """The event context an arrival is ruled on, as classified with a
    ``genuine`` flag read by two ``if`` chains; None for a malformed
    envelope, which is refused before any ruling."""
    if isinstance(inbound, Envelope):
        if (not inbound.sender_module or not inbound.sender
                or not inbound.sender_lineage):
            return None
        genuine = (agent.program.lineages.get(inbound.sender_module)
                   == inbound.sender_lineage)
        if genuine and inbound.sender_module == agent.law:
            flow = FlowKind.INNER
        elif genuine:
            flow = FlowKind.INFLOW
        else:
            flow = FlowKind.IMPORT
        if genuine:
            peer = (inbound.sender_module, inbound.sender_profile, False)
        else:
            peer = (inbound.sender, (), True)
    else:
        flow = FlowKind.IMPORT
        peer = (inbound.sender_address, (), True)
    return EventContext(EventKind.ARRIVED, inbound.operation, flow, *peer)


def _arrivals(h, receiver, sender):
    """An arrival of each kind at a ``receiver`` agent, by name; the
    enveloped ones claim the module of agent ``sender``."""
    genuine = Envelope(sender.law, sender.profile_labels(), sender.lineage,
                       "op", b"", sender.component)
    other = next(law for law in h.lineage if law != sender.law)
    return {
        "genuine": genuine,
        "forged-hash": replace(genuine, sender_lineage=("0" * 64,)),
        "forged-other-lineage": replace(genuine,
                                        sender_lineage=h.lineage[other]),
        "forged-extended": replace(
            genuine, sender_lineage=sender.lineage + ("0" * 64,)),
        "malformed-module": replace(genuine, sender_module=""),
        "malformed-sender": replace(genuine, sender=""),
        "malformed-lineage": replace(genuine, sender_lineage=()),
        "bare": BareInbound("10.0.0.9:1", "op", b""),
    }


class TestArrivalReference:
    """``handle_arrive`` reads the lineage verdict once and rules on the
    context the reference classification gives, for every pair of shipped
    modules, the receiver's own module included."""

    @pytest.fixture
    def ruled(self, monkeypatch):
        """The contexts ``handle_arrive`` passes to ``evaluate``."""
        contexts = []
        real = controller.evaluate

        def evaluate(program, state, cert_attrs, ctx):
            contexts.append(ctx)
            return real(program, state, cert_attrs, ctx)

        monkeypatch.setattr(controller, "evaluate", evaluate)
        return contexts

    def test_every_kind_of_arrival_between_shipped_modules(self, shipped,
                                                           ruled):
        seen = set()
        for receiving in shipped.laws:
            for sending in shipped.laws:
                receiver, _ = _adopt(shipped, "r", receiving)
                sender, _ = _adopt(shipped, "s", sending)
                for kind, inbound in _arrivals(shipped, receiver,
                                               sender).items():
                    want = _ref_arrival(receiver, inbound)
                    ruled.clear()
                    ruling, _ = handle_arrive(receiver, inbound)
                    if want is None:
                        assert ruled == [] and ruling.matched == "-", kind
                        assert ruling.decision is Decision.BLOCK_NOTICE
                    else:
                        assert ruled == [want], (receiving, sending, kind)
                        assert ruling.flow is want.flow
                    seen.add((kind, want and want.flow))
        assert {flow for kind, flow in seen if kind == "genuine"} == {
            FlowKind.INNER, FlowKind.INFLOW}
        assert {flow for kind, flow in seen if kind.startswith("forged")
                or kind == "bare"} == {FlowKind.IMPORT}


class TestOperationIndex:
    """``evaluate`` runs only the rows of ``entries`` that ``Program.scan``
    keeps for the event and its operation."""

    INDEXED = """
    law Idx {
      categorical rule a on sent if op == "x" {
        increment state.a by 1;
      }
      categorical rule b on sent if op matches "q*" {
        increment state.b by 1;
      }
      categorical rule c on sent if op == "x" or op == "y" and state.n < 3 {
        increment state.c by 1;
      }
      default rule d on sent if flow == inner {
        permit;
      }
      allow-override d may-replace;
    }
    """
    KID = """
    law IdxKid extends Idx {
      override d replace on sent if op == "q1" {
        block;
      }
      override d replace on sent if not op == "x" and peer.outside {
        permit;
      }
    }
    """

    def test_rows_an_operation_cannot_reach_are_dropped(self):
        h = _hier(self.INDEXED, self.KID)
        program = controller.program_for(h, "IdxKid")
        a, b, c, d = program.entries
        assert program.named == {"x", "y", "q1"}
        # op-only guards that hold become None; c still reads state
        x_rows = program.scan(EventKind.SENT, "x")
        assert [r[2][1] for r in x_rows] == ["a", "c", "d"]
        assert x_rows[0][0] is None and x_rows[1][0] is c.pred
        # the override for q1 always applies: it becomes d's body, and the
        # one after it never runs
        q1_rows = program.scan(EventKind.SENT, "q1")
        assert [r[0] for r in q1_rows] == [None, d.pred]
        assert q1_rows[1][1:] == (d.overrides[0].body, ("IdxKid", "d"), ())
        # an unnamed operation keeps the guards it cannot settle, and
        # loses the override only q1 can reach; evaluate builds that scan
        # for q9 and finds it in the table for zz
        ov = d.overrides[1]
        sent = program.tables[EventKind.SENT]
        controller.evaluate(program, {}, {}, EventContext(
            EventKind.SENT, "q9", FlowKind.INNER, "IdxKid"))
        q9_rows = sent[controller._OTHER]
        assert q9_rows == (
            (b.pred, b.body, b.matched, ()),
            (d.pred, d.body, d.matched, ((ov.pred, ov.body, ov.matched),)))
        controller.evaluate(program, {}, {}, EventContext(
            EventKind.SENT, "zz", FlowKind.INNER, "IdxKid"))
        assert sent.keys() == {"x", "q1", controller._OTHER}
        assert sent[controller._OTHER] is q9_rows

    def test_made_up_operations_share_one_scan(self, shipped):
        h, _ = build_hierarchy(shipped.laws.values())
        for leaf in h.laws:
            program = controller.program_for(h, leaf)
            ops = sorted(program.named) + [f"made-up-{i}" for i in range(1000)]
            for event in EventKind:
                for op in ops:
                    controller.evaluate(program, {}, {}, EventContext(
                        event, op, FlowKind.INNER, leaf))
                assert (len(program.tables[event])
                        <= len(program.named) + 1), (leaf, event)

    @staticmethod
    def _full_scan(program, state, cert_attrs, ctx):
        """Reference: ``evaluate`` over every entry of the program."""
        updates, effects = [], []
        for entry in program.entries:
            if (ctx.event not in entry.events
                    or not entry.pred(ctx, state, cert_attrs)):
                continue
            body, matched = entry.body, entry.matched
            for ov in entry.overrides:
                if ctx.event in ov.events and ov.pred(ctx, state, cert_attrs):
                    body, matched = ov.body, ov.matched
                    break
            decided = body(state, cert_attrs, updates, effects)
            if decided is not None:
                return (decided[0], matched, tuple(updates), tuple(effects),
                        decided[1])
        permit = (ctx.event is EventKind.ADOPTED
                  or ctx.flow in (FlowKind.OUTFLOW, FlowKind.INNER))
        return ("permit" if permit else "block",
                f"default:{ctx.flow.value if ctx.flow else 'adopted'}",
                tuple(updates), tuple(effects), None)

    @staticmethod
    def _systems(rng):
        """Generated law sets: those of the first hundred seeds, and each of
        the first six hundred that holds overrides, once as generated and
        once with every override guard reading only the operation."""
        for seed in range(600):
            laws = generate_system(seed).laws
            overridden = any(law.overrides for law in laws.values())
            if seed < 100 or overridden:
                yield seed, laws
            if overridden:
                yield seed, _with_op_only_overrides(laws, rng)

    def test_indexed_scan_rules_as_full_scan_and_oracle(self):
        rng = random.Random(6)
        # ops no generated law names; the first four match its globs
        unnamed = ("pqr", "rex", "zog", "xox", "made-up", "")
        covered = set()
        for seed, laws in self._systems(rng):
            h, violations = build_hierarchy(laws.values())
            assert h is not None, violations
            for leaf in h.laws:
                program = controller.program_for(h, leaf)
                preds = [g for law in h.laws.values()
                         for c in (*law.rules, *law.overrides)
                         for g in _guards(c.predicate)]
                if any(isinstance(g, Not) and isinstance(g.inner, OpEquals)
                       for g in preds):
                    covered.add("not op ==")
                if any(o.op_only for e in program.entries
                       for o in e.overrides):
                    covered.add("op-only override")
                ops = sorted(program.named) + list(unnamed)
                overridden = any(e.overrides for e in program.entries)
                for _ in range(200 if overridden else 30):
                    event = rng.choice(list(EventKind))
                    flow = (None if event is EventKind.ADOPTED
                            else rng.choice(list(FlowKind)))
                    op = rng.choice(ops)
                    covered.add(flow or "adopted")
                    covered.add("named" if op in program.named else
                                "glob" if op in unnamed[:4] else "made-up")
                    ev = EventContext(
                        event, op, flow,
                        rng.choice((None, leaf, "R", "wild")),
                        frozenset(rng.sample(("audited", "probation",
                                              "trusted"), rng.randint(0, 2))),
                        rng.random() < 0.3)
                    state = {key: rng.choice(("on", "off", 0, 1, 2, 3))
                             for key in ("mode", "count", "budget")
                             if rng.random() < 0.6}
                    cert = {"dept": rng.choice(("finance", "eng"))}
                    indexed_state, full_state = dict(state), dict(state)
                    indexed = controller.evaluate(program, indexed_state,
                                                  cert, ev)
                    full = self._full_scan(program, full_state, cert, ev)
                    assert indexed == full, (seed, leaf, ev)
                    assert indexed_state == full_state, (seed, leaf, ev)
                    assert oracle_evaluate(h.laws, leaf, state, cert, ev) == (
                        indexed[0], matched_token(indexed[1]),
                        indexed_state), (seed, leaf, ev)
        assert covered >= {"named", "glob", "made-up", "not op ==",
                           "op-only override", "adopted", *FlowKind}


class TestScanRows:
    """Where scan rows come from: an entry without overrides lends its own
    rows, and nothing is built before a scan asks for it."""

    def test_entry_without_overrides_lends_one_row(self, shipped):
        idx = _hier(TestOperationIndex.INDEXED, TestOperationIndex.KID)
        for h in (shipped, idx):
            for leaf in h.laws:
                program = controller.program_for(h, leaf)
                ops = sorted(program.named) + ["made-up", ""]
                lent = {}  # (matched, guard settled?) -> ids of rows seen
                for event in EventKind:
                    for op in ops:
                        for row in program.scan(event, op):
                            lent.setdefault((row[2], row[0] is None),
                                            set()).add(id(row))
                for entry in program.entries:
                    if entry.overrides:
                        continue
                    for settled in (False, True):
                        assert len(lent.get((entry.matched, settled),
                                            ())) <= 1, (leaf, entry.matched)
        # c reads state, so it keeps its guard for both of its operations
        program = controller.program_for(idx, "IdxKid")
        x_rows = program.scan(EventKind.SENT, "x")
        y_rows = program.scan(EventKind.SENT, "y")
        assert x_rows[1][2] == ("Idx", "c") and x_rows[1] is y_rows[0]

    def test_building_a_program_makes_no_rows(self):
        h = _hier(TestOperationIndex.INDEXED, TestOperationIndex.KID)
        program = controller.program_for(h, "IdxKid")
        assert not any(program.tables.values())
        assert all(e.row is e.settled_row is None for e in program.entries)
        program.scan(EventKind.SENT, "x")
        assert [event for event, table in program.tables.items()
                if table] == [EventKind.SENT]
        assert [e.row is not None or e.settled_row is not None
                for e in program.entries] == [True, False, True, False]


# Guard shapes ``compile_predicate`` compiles in a way of its own: an
# ``or`` of ``flow ==`` or of ``op ==`` atoms, a two-part ``and``/``or``,
# a longer one, and ``not`` around any of them.
_GUARD_ATOMS = st.sampled_from([
    TruePred(), OpEquals("ping"), OpEquals("zz"), OpGlob("p*"),
    FlowIs(FlowKind.INNER), FlowIs(FlowKind.EXPORT), PeerModuleIs("M"),
    PeerProfileHas("audited"), PeerOutside(), StateEquals("mode", "on"),
    StateEquals("count", 1), StateLess("count", 2),
    CertEquals("dept", "eng")])
_FLOW_ORS = st.lists(st.sampled_from(list(FlowKind)).map(FlowIs),
                     min_size=1, max_size=4).map(lambda ps: Or(tuple(ps)))
_OP_ORS = st.lists(st.sampled_from(oracle._OPS + ("zz",)).map(OpEquals),
                   min_size=1, max_size=4).map(lambda ps: Or(tuple(ps)))
_GUARDS = st.recursive(
    st.one_of(_GUARD_ATOMS, _FLOW_ORS, _OP_ORS),
    lambda inner: st.one_of(
        inner.map(Not),
        st.sampled_from([And, Or]).flatmap(lambda join: st.one_of(
            st.tuples(inner, inner),
            st.lists(inner, min_size=3, max_size=4).map(tuple)).map(join))),
    max_leaves=8)
_EVENTS = st.builds(
    EventContext, st.sampled_from(list(EventKind)),
    st.sampled_from(oracle._OPS + ("zz", "")),
    st.sampled_from([None, *FlowKind]), st.sampled_from([None, "M", "wild"]),
    st.frozensets(st.sampled_from(oracle._LABELS)), st.booleans())
_STATES = st.dictionaries(st.sampled_from(oracle._STATE_KEYS),
                          st.sampled_from(["on", "off", 0, 1, 2, 3, True]))
_CERTS = st.dictionaries(st.sampled_from(["dept", "clearance"]),
                         st.sampled_from(["finance", "eng", "high", "low"]))


class TestCompiledGuards:
    """A compiled guard holds exactly where the oracle's reading of the
    predicate does.  Examples are derived from the test source, and no
    example database is kept."""

    SETTINGS = settings(derandomize=True, max_examples=300, deadline=None,
                        database=None)

    @staticmethod
    def _assert_agrees(p, ev, state, cert):
        assert controller.compile_predicate(p)(ev, state, cert) == \
            oracle._eval_pred(p, ev, state, cert), p

    @SETTINGS
    @given(st.integers(0, 2**32), st.integers(0, 4), _EVENTS, _STATES,
           _CERTS)
    def test_drawn_predicates(self, seed, depth, ev, state, cert):
        p = oracle._gen_predicate(random.Random(seed), ["M", "N"], depth)
        self._assert_agrees(p, ev, state, cert)

    @SETTINGS
    @given(_GUARDS, _EVENTS, _STATES, _CERTS)
    def test_flat_shapes(self, p, ev, state, cert):
        self._assert_agrees(p, ev, state, cert)


class TestSharedNodes:
    """Laws loaded from one directory share the guards and bodies they
    spell alike, and a hierarchy compiles each shared node once; a body
    that names the module is still compiled for each leaf."""

    SIBLING = """law {name} extends R {{
  profile [{name}];
  categorical rule init on adopted {{
    require-cert modules contains module-name;
    set state.module = module-name;
  }}
  default rule r on sent if op == "x" or peer.outside {{
    permit;
  }}
}}
"""

    @pytest.fixture
    def h(self, tmp_path):
        (tmp_path / "R.law").write_text("law R {\n}\n")
        for name in ("A", "B"):
            (tmp_path / f"{name}.law").write_text(
                self.SIBLING.format(name=name))
        h, problems = check_law_dir(tmp_path)
        assert h is not None, problems
        return h

    def test_a_shared_body_that_names_the_module_stays_per_leaf(self, h):
        assert h.law("A").rules[0].actions is h.law("B").rules[0].actions
        for leaf in ("A", "B"):
            agent, ruling = _adopt(h, leaf.lower(), leaf)
            assert agent.state["module"] == leaf
            assert ruling.state_updates == (("set", "module", leaf),)
        assert _refusal(adopt("x", h, "B", cert=issue_certificate(
            "x", {"modules": "A"}))) == (
            Decision.BLOCK_NOTICE, "B:init",
            "certificate attribute 'modules' does not list 'B'")

    def test_a_shared_guard_compiles_to_one_closure(self, h):
        assert (h.law("A").rules[1].predicate
                is h.law("B").rules[1].predicate)
        a = controller.program_for(h, "A").entries[-1]
        b = controller.program_for(h, "B").entries[-1]
        assert a.pred is b.pred and a.body is b.body
        assert (a.matched, b.matched) == (("A", "r"), ("B", "r"))


class TestTracedSeams:
    """The calls a tracer wraps, looked up on ``mds.controller`` at call
    time: adoption reaches ``program_for`` and then ``evaluate``, a send or
    arrival ``evaluate`` alone, on the program bound to the agent; and every
    rule-decided ``matched`` names an entry of the program scanned."""

    def _spy(self, monkeypatch):
        calls = []   # (name, program or leaf, matched)
        real_program_for = controller.program_for
        real_evaluate = controller.evaluate

        def program_for(h, leaf):
            calls.append(("program_for", leaf, None))
            return real_program_for(h, leaf)

        def evaluate(program, state, cert_attrs, ctx):
            result = real_evaluate(program, state, cert_attrs, ctx)
            calls.append(("evaluate", program, result[1]))
            return result

        monkeypatch.setattr(controller, "program_for", program_for)
        monkeypatch.setattr(controller, "evaluate", evaluate)
        return calls

    def test_operations_reach_both_seams(self, shipped, monkeypatch):
        calls = self._spy(monkeypatch)
        a, _ = _adopt(shipped, "a", "MS")
        b, _ = _adopt(shipped, "b", "MS")
        assert [c[0] for c in calls] == ["program_for", "evaluate"] * 2
        del calls[:]
        _, env = handle_send(a, "retrieve", b"", "b", "MS")
        assert [c[:2] for c in calls] == [("evaluate", a.program)]
        del calls[:]
        handle_arrive(b, env)
        assert [c[:2] for c in calls] == [("evaluate", b.program)]

    def test_every_rule_match_names_a_program_entry(self, scenario_dir,
                                                    monkeypatch):
        from mds.runner import run_scenario
        calls = self._spy(monkeypatch)
        for path in sorted(scenario_dir.glob("*.mds")):
            assert run_scenario(path, seed=7).ok
        decided = [(p, m) for name, p, m in calls
                   if name == "evaluate" and isinstance(m, tuple)]
        assert decided
        by_override = 0
        for program, (law, rule) in decided:
            entries = [e for e in program.entries if e.rule_id == rule]
            rules = {e.law_name for e in entries}
            sources = {ov.source for e in entries for ov in e.overrides}
            assert law in rules | sources, (law, rule)
            by_override += law not in rules
        assert by_override, "no override decided in the shipped scenarios"
