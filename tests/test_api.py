"""The public surface of the package and the README's tour of it."""

from __future__ import annotations

import re
from pathlib import Path

import effectgraph
from effectgraph import AuditReport, audit_effect

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC_NAMES = [
    "AuditEntry",
    "AuditFailure",
    "AuditReport",
    "DanglingViolation",
    "Diagnostic",
    "Edge",
    "EdgeType",
    "EffectGraphError",
    "EffectOrientedRule",
    "EffectTransformation",
    "ElementSet",
    "InducedRule",
    "InducedSelection",
    "InvalidPreMatch",
    "InvalidSelection",
    "MatchResult",
    "MatchStats",
    "Morphism",
    "Nac",
    "NacViolated",
    "NotInjective",
    "ParseError",
    "PreMatch",
    "Rule",
    "StrategyArgumentMismatch",
    "TraceData",
    "TransformationRecord",
    "TypeGraph",
    "TypedGraph",
    "ValidationError",
    "apply_rule",
    "audit_effect",
    "bank_graph",
    "banking_type_graph",
    "build_induced_rule",
    "builtin_type_graphs",
    "canonical_text",
    "check_morphism",
    "client_match",
    "count_bounds",
    "decode_audit_report",
    "decode_graph",
    "decode_match",
    "decode_rule",
    "decode_trace",
    "decode_type_graph",
    "encode_audit_report",
    "encode_graph",
    "encode_match",
    "encode_rule",
    "encode_trace",
    "encode_type_graph",
    "ensure_account_rule",
    "ensure_no_account_rule",
    "enumerate_selections",
    "find_all_locally_complete",
    "find_base_prematches",
    "find_globally_maximal",
    "find_injective_extensions",
    "find_locally_complete",
    "find_locally_maximal",
    "fixture_path",
    "fixture_text",
    "prematch_from_maps",
    "pushout_complement",
    "rebuild_transformation",
    "satisfies_nacs",
    "shared_accounts_graph",
    "shift_nacs",
    "transform",
    "validate_graph",
    "validate_selection",
]


def test_public_names_are_pinned():
    assert effectgraph.__all__ == PUBLIC_NAMES


def test_readme_library_tour_runs(capsys):
    text = README.read_text(encoding="utf-8")
    tour = text[text.index("## Library tour") :]
    snippet = re.search(r"```python\n(.*?)```", tour, re.S).group(1)
    namespace: dict = {}
    exec(compile(snippet, str(README), "exec"), namespace)
    assert capsys.readouterr().out == "['accounts_c_a#1', 'portfolios_c_p#1']\n"
    report = audit_effect(namespace["t"])
    assert isinstance(report, AuditReport) and report.entries
