"""Strategy-driven transformation and the effect audit."""

from __future__ import annotations

import random

import pytest

from effectgraph import (
    AuditFailure,
    DanglingViolation,
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
    find_all_locally_complete,
    find_base_prematches,
    prematch_from_maps,
    transform,
)
from effectgraph.fixtures import (
    bank_graph,
    banking_type_graph,
    ensure_account_rule,
    ensure_no_account_rule,
    shared_accounts_graph,
)

from gen import (
    empty_graph,
    empty_selection,
    grow,
    instances,
    random_graph,
    random_type_graph,
    seeded_bank,
)
from oracles import reference_audit, with_elements


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
    maximal_lhs = with_elements(
        interface, nodes={"a_d": "Account"}, edges={"e_d": Edge("accounts", "c", "a_d")}
    )
    maximal_rhs = with_elements(
        interface, nodes={"a_c": "Account"}, edges={"e_c": Edge("accounts", "c", "a_c")}
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


def test_the_audit_leaves_a_chain_step_at_the_root():
    """40 locally complete ``ensure_account`` steps, each audited: every
    creation the audit skips as not a graph is decided without reading the
    input, so the output stays the root of its lineage and the next step
    replays no delta."""
    provision = ensure_account_rule()
    host = seeded_bank(200, 3)
    for i in range(40):
        pm = prematch_at(provision, host, f"c{i}")
        t = transform(provision, host, "locally_complete", pm)
        audit_effect(t)
        assert t.result.output._link is None, i
        host = t.result.output


def _audit_outcome(audit, t):
    """The entries ``audit`` reports for ``t`` and ``None``, or no entries
    and the element and message of its failure."""
    try:
        return audit(t).entries, None
    except AuditFailure as exc:
        return (), (exc.element, str(exc))


def _transformations(eor, host, pm):
    """A transformation for every locally complete match at ``pm``, then
    the base rule's at ``pm`` when it does not dangle."""
    if pm is None:
        return
    for mr in find_all_locally_complete(eor, host, pm):
        m = mr.match
        yield _manual_transformation(
            eor, host, mr.induced.selection, m.node_map, m.edge_map, pm
        )
    base = pm.morphism
    try:
        yield _manual_transformation(
            eor, host, empty_selection(), base.node_map, base.edge_map, pm
        )
    except DanglingViolation:
        pass


def test_audit_agrees_with_the_search_based_reference():
    """On seeded instances, and on their hosts with some edges doubled, the
    audit reports what the reference that extends the interface embedding
    by each element through the injective search reports: the same
    entries, or the same failure.  The base rule fails the audit wherever
    a potential creation could be reused; between them the inputs reach
    every clause, for nodes and for edges."""
    seen, transformations, failures = set(), 0, 0
    for seed in range(100):
        for eor, host, pm in instances(seed, 1):
            rng = random.Random(seed)
            edges = sorted(host.edges.items())
            parallel = with_elements(
                host, edges={f"{e}'": x for e, x in edges if rng.random() < 0.5}
            )
            parallel_pm = next(find_base_prematches(eor, parallel), None)
            sides = {"deletion": eor.maximal.lhs, "creation": eor.maximal.rhs}
            for g, p in (host, pm), (parallel, parallel_pm):
                for t in _transformations(eor, g, p):
                    expected = _audit_outcome(reference_audit, t)
                    assert _audit_outcome(audit_effect, t) == expected, seed
                    entries, failure = expected
                    transformations += 1
                    if failure is not None:
                        failures += 1
                        node = any(failure[0] in side.nodes for side in sides.values())
                        seen.add(("failure", node))
                    for entry in entries:
                        node = entry.element in sides[entry.kind].nodes
                        seen.add((entry.kind, entry.clause, node))
    assert transformations > 800 and failures > 100
    clauses = [("deletion", "alternative-creation"), ("deletion", "no-extension")]
    clauses += [("deletion", "alternative-action"), ("creation", "no-extension")]
    clauses += [("creation", "alternative-action")]
    assert seen == {
        *((kind, clause, node) for kind, clause in clauses for node in (True, False)),
        ("deletion", "skipped:not-a-graph", False),
        ("creation", "skipped:not-a-graph", False),
        ("failure", True),
        ("failure", False),
    }


def _reapplied(eor, strategy, t):
    """The second application under ``strategy``: at the image of the first
    one's pre-match in its output, or without a pre-match when globally
    maximal."""
    out, comatch = t.result.output, t.result.comatch
    pm = None
    if strategy != "globally_maximal":
        lhs = eor.base.lhs
        nodes = {v: comatch.node_map[v] for v in lhs.nodes}
        edges = {e: comatch.edge_map[e] for e in lhs.edges}
        pm = prematch_from_maps(eor, out, nodes, edges)
    return transform(eor, out, strategy, pm)


def test_a_second_application_creates_nothing():
    """The paper's effect guarantee: an action need not be performed when
    its outcome is already present.  For an effect rule whose base rule is
    an identity, with only potential creations and no NACs, a second
    application at the image of the same pre-match finds a match and
    creates nothing; under the globally maximal strategy the rule is
    applied to the output again without a pre-match.  No oracle is needed,
    so the hosts may be of any size: seeded random hosts, and the outputs of
    a chain of ``ensure_account`` steps on bank(1000).

    Only the maximal strategies are claimed by the definitions: the first
    application embeds the whole maximal rhs in its output, so a largest
    selection there reuses every potential creation.  For locally complete
    the property is only checked empirically, on these inputs."""
    strategies = ("locally_complete", "locally_maximal", "globally_maximal")
    local = strategies[:2]
    rng, checked, created = random.Random(5), 0, 0
    while checked < 1000:
        tg = random_type_graph(rng)
        interface = random_graph(rng, tg, max_nodes=2, max_edges=1, prefix="k")
        rhs = grow(rng, interface, rng.randint(1, 2), rng.randint(0, 3), "pc")
        base = Rule(interface, interface, interface)
        eor = EffectOrientedRule(base, Rule(interface, interface, rhs))
        host = random_graph(rng, tg, max_nodes=12, max_edges=16)
        pms = list(find_base_prematches(eor, host))
        if not pms:
            continue
        pm = rng.choice(pms)
        for strategy in strategies:
            first = transform(eor, host, strategy, pm if strategy in local else None)
            again = _reapplied(eor, strategy, first)
            assert again.result.created == ElementSet(), (checked, strategy)
            created += bool(first.result.created)
        checked += 1
    assert created > 1000

    provision, bank = ensure_account_rule(), seeded_bank(1000, 0)
    clients = sorted(n for n, t in bank.nodes.items() if t == "Client")
    random.Random(5).shuffle(clients)
    for strategy in strategies:
        host = bank
        for client in clients[:50]:
            pm = prematch_from_maps(provision, host, {"c": client}, {})
            t = transform(provision, host, strategy, pm if strategy in local else None)
            assert _reapplied(provision, strategy, t).result.created == ElementSet()
            host = t.result.output
