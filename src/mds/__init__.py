"""Interaction-law middleware for modular distributed systems.

Groups of components become modules by adopting a shared law from a
conformance hierarchy; a per-component controller enforces the law on
every message the component sends or receives, using only local state
and the sender identification enveloped onto in-system traffic.
"""

from .conformance import (ConformanceViolation, ViolationKind,
                          build_hierarchy, check_overrides)
from .controller import (OUTSIDE, Agent, BareInbound, Certificate, Decision,
                         Delivery, Envelope, Ruling, adopt, handle_arrive,
                         handle_send, issue_certificate, matched_token)
from .law_lang import HASH_ALGORITHM, LawParseError, parse_law, print_law
from .model import (EventKind, FlowKind, Law, LawHierarchy, MetaDirection,
                    OverrideKind, Rule, RuleMode, UnknownLawError)
from .runner import RunReport, RunnerError, check_law_dir, run_scenario
from .scenario import Scenario, ScenarioError, load_scenario, parse_scenario

__version__ = "0.1.0"

__all__ = [
    "OUTSIDE",
    "Agent",
    "BareInbound",
    "Certificate",
    "ConformanceViolation",
    "Decision",
    "Delivery",
    "Envelope",
    "EventKind",
    "FlowKind",
    "HASH_ALGORITHM",
    "Law",
    "LawHierarchy",
    "LawParseError",
    "MetaDirection",
    "OverrideKind",
    "Rule",
    "RuleMode",
    "Ruling",
    "RunReport",
    "RunnerError",
    "Scenario",
    "ScenarioError",
    "UnknownLawError",
    "ViolationKind",
    "adopt",
    "build_hierarchy",
    "check_law_dir",
    "check_overrides",
    "handle_arrive",
    "handle_send",
    "issue_certificate",
    "load_scenario",
    "matched_token",
    "parse_law",
    "parse_scenario",
    "print_law",
    "run_scenario",
    "__version__",
]
