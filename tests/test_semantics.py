"""Strategy-driven transformation and the effect audit."""

from __future__ import annotations

import pytest

from effectgraph import (
    AuditFailure,
    Edge,
    EdgeType,
    EffectOrientedRule,
    EffectTransformation,
    ElementSet,
    InducedSelection,
    Morphism,
    PreMatch,
    Rule,
    StrategyArgumentMismatch,
    TypeGraph,
    TypedGraph,
    apply_rule,
    audit_effect,
    build_induced_rule,
    transform,
)
from effectgraph.fixtures import (
    bank_graph,
    banking_type_graph,
    ensure_account_rule,
    ensure_no_account_rule,
    shared_accounts_graph,
)

from gen import empty_graph, empty_selection


def prematch_at(eor, host, client) -> PreMatch:
    return PreMatch(Morphism(eor.base.lhs, host, {"c": client}, {}))


def test_transform_validates_strategy_arguments():
    provision = ensure_account_rule()
    host = bank_graph()
    pm = prematch_at(provision, host, "c1")
    with pytest.raises(ValueError, match="unknown strategy"):
        transform(provision, host, "sideways", pm)
    with pytest.raises(StrategyArgumentMismatch, match="needs a pre-match"):
        transform(provision, host, "locally_complete")
    with pytest.raises(StrategyArgumentMismatch, match="needs a pre-match"):
        transform(provision, host, "locally_maximal")
    with pytest.raises(StrategyArgumentMismatch, match="searches all pre-matches"):
        transform(provision, host, "globally_maximal", pm)


def test_locally_complete_transform_takes_the_first_dive():
    provision = ensure_account_rule()
    host = bank_graph()
    t = transform(provision, host, "locally_complete", prematch_at(provision, host, "c2"))
    assert t is not None
    assert t.strategy == "locally_complete"
    # The first candidates in id order are a1 and p; neither admits a
    # reusable edge from c2, so only the two nodes are preserved.
    assert t.selection.preserve_extra.nodes == {"a", "p"}
    assert t.selection.preserve_extra.edges == frozenset()
    created = t.result.output.edges.keys() - host.edges.keys()
    assert created == {"accounts_c_a#1", "portfolios_c_p#1", "portfolio_a_p#1"}


def test_locally_maximal_transform_reuses_the_backed_account():
    provision = ensure_account_rule()
    host = bank_graph()
    t = transform(provision, host, "locally_maximal", prematch_at(provision, host, "c2"))
    assert t is not None
    assert t.result.match.node_map["a"] == "a2"
    assert t.selection.preserve_extra.edges == {"portfolio_a_p"}
    created = t.result.output.edges.keys() - host.edges.keys()
    assert created == {"accounts_c_a#1", "portfolios_c_p#1"}


def test_globally_maximal_transform_picks_c1():
    provision = ensure_account_rule()
    host = bank_graph()
    t = transform(provision, host, "globally_maximal")
    assert t is not None
    assert t.base_prematch.morphism.node_map == {"c": "c1"}
    assert dict(t.result.output.nodes) == dict(host.nodes)
    assert t.result.output.edges.keys() - host.edges.keys() == {"portfolios_c_p#1"}


def test_transform_returns_none_when_nothing_completes():
    teardown = ensure_no_account_rule()
    empty = empty_graph(banking_type_graph())
    assert transform(teardown, empty, "globally_maximal") is None
    # c9's only account is shared with c1, and the exclusive account a4
    # hangs off c1 alone: every deletion dangles, nothing absorbs.
    host = shared_accounts_graph()
    t = transform(teardown, host, "locally_complete", prematch_at(teardown, host, "c9"))
    assert t is None


def test_audit_passes_on_strategy_results():
    provision = ensure_account_rule()
    host = bank_graph()
    t = transform(provision, host, "locally_maximal", prematch_at(provision, host, "c2"))
    report = audit_effect(t)
    clauses = {(e.kind, e.element): e.clause for e in report.entries}
    # Both created edges touch the potential account or portfolio node, so
    # the one-element interface extension is not a graph.
    assert clauses == {
        ("creation", "accounts_c_a"): "skipped:not-a-graph",
        ("creation", "portfolios_c_p"): "skipped:not-a-graph",
    }

    full = transform(provision, host, "globally_maximal")
    full_report = audit_effect(full)
    assert {(e.kind, e.element, e.clause) for e in full_report.entries} == {
        ("creation", "portfolios_c_p", "skipped:not-a-graph")
    }


def test_audit_clauses_on_the_deletion_rule():
    teardown = ensure_no_account_rule()
    host = shared_accounts_graph()
    t = transform(teardown, host, "locally_complete", prematch_at(teardown, host, "c1"))
    report = audit_effect(t)
    clauses = {(e.kind, e.element): e.clause for e in report.entries}
    assert clauses == {
        ("deletion", "a"): "alternative-action",
        ("deletion", "accounts_c_a"): "alternative-action",
        ("deletion", "p"): "no-extension",
        ("deletion", "portfolio_a_p"): "skipped:not-a-graph",
        ("deletion", "portfolios_c_p"): "skipped:not-a-graph",
    }


ABSORB_TG = TypeGraph(
    "absorb",
    frozenset({"Client", "Account"}),
    {"accounts": EdgeType("Client", "Account")},
)


def test_audit_records_reuse_witness_for_skipped_deletion():
    interface = TypedGraph(ABSORB_TG, {"c": "Client"}, {})
    maximal_lhs = interface.with_elements(
        nodes={"a_d": "Account"}, edges={"e_d": Edge("accounts", "c", "a_d")}
    )
    maximal_rhs = interface.with_elements(
        nodes={"a_c": "Account"}, edges={"e_c": Edge("accounts", "c", "a_c")}
    )
    eor = EffectOrientedRule(
        Rule(interface, interface, interface),
        Rule(maximal_lhs, interface, maximal_rhs),
    )
    host = TypedGraph(
        ABSORB_TG,
        {"c1": "Client", "z": "Client", "x": "Account"},
        {"e1": Edge("accounts", "c1", "x"), "ez": Edge("accounts", "z", "x")},
    )
    t = transform(
        eor,
        host,
        "locally_complete",
        PreMatch(Morphism(eor.base.lhs, host, {"c": "c1"}, {})),
    )
    report = audit_effect(t)
    by_element = {e.element: e for e in report.entries}
    skipped = by_element["a_d"]
    assert skipped.clause == "alternative-creation"
    assert skipped.witness == (("a_d", "x"),)


def _manual_transformation(eor, host, selection, node_map, edge_map, pm):
    induced = build_induced_rule(eor, selection)
    match = Morphism(induced.rule.lhs, host, node_map, edge_map)
    record = apply_rule(induced.rule, host, match)
    return EffectTransformation(
        eor=eor,
        strategy="locally_complete",
        result=record,
        selection=selection,
        base_prematch=pm,
    )


def test_audit_rejects_deleting_nothing_when_deletion_was_possible():
    teardown = ensure_no_account_rule()
    host = bank_graph()
    pm = prematch_at(teardown, host, "c1")
    t = _manual_transformation(
        teardown, host, empty_selection(), {"c": "c1"}, {}, pm
    )
    with pytest.raises(AuditFailure) as err:
        audit_effect(t)
    assert err.value.element == "a"
    assert "neither deleted nor reused" in str(err.value)


def test_audit_rejects_creating_what_could_be_reused():
    provision = ensure_account_rule()
    host = bank_graph()
    pm = prematch_at(provision, host, "c1")
    t = _manual_transformation(
        provision, host, empty_selection(), {"c": "c1"}, {}, pm
    )
    with pytest.raises(AuditFailure) as err:
        audit_effect(t)
    assert err.value.element == "a"
    assert "could have been reused" in str(err.value)


def test_audit_accepts_the_honest_empty_host_creation():
    provision = ensure_account_rule()
    host = TypedGraph(banking_type_graph(), {"c7": "Client"}, {})
    pm = prematch_at(provision, host, "c7")
    t = transform(provision, host, "locally_complete", pm)
    report = audit_effect(t)
    assert {(e.element, e.clause) for e in report.entries} == {
        ("a", "no-extension"),
        ("p", "no-extension"),
        ("accounts_c_a", "skipped:not-a-graph"),
        ("portfolios_c_p", "skipped:not-a-graph"),
        ("portfolio_a_p", "skipped:not-a-graph"),
    }
