"""The matcher: pre-matches, local completeness, maximal strategies."""

from __future__ import annotations

import hashlib
import math
import random
from collections import Counter
from functools import cached_property

import pytest
from hypothesis import given, settings, strategies as st

from effectgraph import (
    Edge,
    EdgeType,
    EffectOrientedRule,
    EffectTransformation,
    ElementSet,
    InducedSelection,
    InvalidSelection,
    MatchResult,
    MatchStats,
    Morphism,
    Nac,
    PreMatch,
    Rule,
    TypeGraph,
    TypedGraph,
    audit_effect,
    build_induced_rule,
    enumerate_selections,
    find_all_locally_complete,
    find_base_prematches,
    find_globally_maximal,
    find_injective_extensions,
    find_locally_complete,
    find_locally_maximal,
    satisfies_nacs,
    transform,
    validate_selection,
)
from effectgraph.fixtures import (
    ENSURE_ACCOUNT_FILE,
    ENSURE_NO_ACCOUNT_FILE,
    bank_graph,
    banking_type_graph,
    builtin_type_graphs,
    ensure_account_rule,
    ensure_no_account_rule,
    fixture_text,
    shared_accounts_graph,
)
from effectgraph import documents, effect, matching
from effectgraph.matching import InvalidPreMatch, validate_prematch
from effectgraph.rules import apply_rule
from effectgraph.semantics import (
    GLOBALLY_MAXIMAL,
    LOCALLY_COMPLETE,
    LOCALLY_MAXIMAL,
    STRATEGIES,
    find_match,
)

from gen import empty_graph, empty_selection, instances, random_graph, seeded_bank
from oracles import (
    compose,
    induced,
    is_compatible,
    is_locally_complete,
    oracle_locally_complete,
    restricted,
    rule_applicable,
    same_maps,
    with_elements,
)

# ---------------------------------------------------------------------------
# helpers


def prematch_at(eor: EffectOrientedRule, host: TypedGraph, client: str) -> PreMatch:
    return PreMatch(Morphism(eor.base.lhs, host, {"c": client}, {}))


def selection_ids(mr) -> tuple:
    sel = mr.induced.selection
    return (
        tuple(sorted(sel.del_extra.nodes)),
        tuple(sorted(sel.del_extra.edges)),
        tuple(sorted(sel.preserve_extra.nodes)),
        tuple(sorted(sel.preserve_extra.edges)),
    )


def result_key(mr) -> tuple:
    return mr.sort_key()


def mirror_is_locally_complete(eor, host, mr) -> bool:
    """Re-derivation of local completeness from one-step extension rules.

    For every potential element outside the selection, grow the selection by
    that single element; if the grown selection is no longer edge-closed the
    extension is not a rule and cannot block.  Otherwise the extension
    blocks exactly when its left-hand side still has an injective match
    that keeps every existing binding in place."""
    sel = mr.induced.selection
    m = mr.match
    deletions, creations = eor.potential_deletions, eor.potential_creations

    def blocked(sel2: InducedSelection) -> bool:
        if validate_selection(eor, sel2):
            return False
        lhs2 = build_induced_rule(eor, sel2).rule.lhs
        hit = next(
            iter(
                find_injective_extensions(lhs2, host, (m.node_map, m.edge_map))
            ),
            None,
        )
        return hit is not None

    for nid in sorted(deletions.nodes - sel.del_extra.nodes):
        grown = InducedSelection(
            ElementSet(sel.del_extra.nodes | {nid}, sel.del_extra.edges),
            sel.preserve_extra,
        )
        if blocked(grown):
            return False
    for eid in sorted(deletions.edges - sel.del_extra.edges):
        grown = InducedSelection(
            ElementSet(sel.del_extra.nodes, sel.del_extra.edges | {eid}),
            sel.preserve_extra,
        )
        if blocked(grown):
            return False
    for nid in sorted(creations.nodes - sel.preserve_extra.nodes):
        grown = InducedSelection(
            sel.del_extra,
            ElementSet(sel.preserve_extra.nodes | {nid}, sel.preserve_extra.edges),
        )
        if blocked(grown):
            return False
    for eid in sorted(creations.edges - sel.preserve_extra.edges):
        grown = InducedSelection(
            sel.del_extra,
            ElementSet(sel.preserve_extra.nodes, sel.preserve_extra.edges | {eid}),
        )
        if blocked(grown):
            return False
    return True


# ---------------------------------------------------------------------------
# pre-matches


def test_find_base_prematches_lists_every_client():
    provision = ensure_account_rule()
    host = bank_graph()
    clients = [pm.morphism.node_map["c"] for pm in find_base_prematches(provision, host)]
    assert clients == ["c1", "c2"]


def guarded_provision() -> EffectOrientedRule:
    """``ensure_account`` for clients that hold no account yet."""
    provision = ensure_account_rule()
    forbidden = with_elements(
        provision.base.lhs, nodes={"held": "Account"}, edges={"he": Edge("accounts", "c", "held")}
    )
    guarded_base = Rule(
        provision.base.lhs,
        provision.base.interface,
        provision.base.rhs,
        (Nac(forbidden),),
    )
    return EffectOrientedRule(
        guarded_base,
        Rule(
            provision.maximal.lhs,
            provision.maximal.interface,
            provision.maximal.rhs,
            (Nac(forbidden),),
        ),
    )


def test_find_base_prematches_respects_nacs():
    guarded = guarded_provision()
    host = bank_graph()
    clients = [pm.morphism.node_map["c"] for pm in find_base_prematches(guarded, host)]
    assert clients == ["c2"]
    bad = prematch_at(guarded, host, "c1")
    assert not satisfies_nacs(bad.morphism, guarded.base.nacs)
    with pytest.raises(Exception, match="violates a base NAC"):
        validate_prematch(guarded, host, bad)


def test_validate_prematch_rejects_malformed_maps():
    provision = ensure_account_rule()
    host = bank_graph()
    with pytest.raises(Exception, match="base lhs into the host"):
        validate_prematch(
            provision,
            host,
            PreMatch(Morphism(provision.maximal.rhs, host, {}, {})),
        )
    with pytest.raises(Exception, match="not a valid injection"):
        validate_prematch(
            provision,
            host,
            PreMatch(Morphism(provision.base.lhs, host, {"c": "a1"}, {})),
        )


def test_a_prematch_is_validated_once_where_it_enters(monkeypatch):
    """Every ``find_*`` and ``transform`` check a pre-match built by hand,
    or one checked for another rule or host; a pre-match checked for the
    very rule and host is not checked again, so a chain step validates its
    pre-match once."""
    provision, guarded = ensure_account_rule(), guarded_provision()
    host = bank_graph()
    c1 = next(iter(find_base_prematches(provision, host)))
    validate_prematch(provision, host, c1)
    other = transform(provision, host, LOCALLY_COMPLETE, c1).result.output
    refused = [
        (provision, host, PreMatch(Morphism(provision.base.lhs, host, {"c": "a1"}, {}))),
        (provision, host, PreMatch(Morphism(provision.maximal.rhs, host, {}, {}))),
        (guarded, host, c1),  # checked for ``provision``; c1 holds an account
        (provision, other, c1),  # checked for ``host``
    ]
    for eor, g, pm in refused:
        for find in (find_locally_complete, find_all_locally_complete, find_locally_maximal):
            with pytest.raises(InvalidPreMatch):
                find(eor, g, pm)
        for strategy in (LOCALLY_COMPLETE, LOCALLY_MAXIMAL):
            with pytest.raises(InvalidPreMatch):
                transform(eor, g, strategy, pm)

    checked = []

    def counting(*args):
        checked.append(args)
        return validate_prematch(*args)

    monkeypatch.setattr(matching, "validate_prematch", counting)
    monkeypatch.setattr(documents, "validate_prematch", counting)
    for pm in find_base_prematches(provision, host):
        transform(provision, host, LOCALLY_MAXIMAL, pm)
        find_all_locally_complete(provision, host, pm)
    assert len(checked) == 2  # c1 and c2, each where it entered
    checked.clear()
    steps = 0
    for client in ("c2", "c1", "c2"):
        pm = documents.prematch_from_maps(provision, host, {"c": client}, {})
        t = transform(provision, host, LOCALLY_COMPLETE, pm)
        audit_effect(t)
        host = t.result.output
        steps += 1
    assert len(checked) == steps


# ---------------------------------------------------------------------------
# worked scenarios on the banking corpus


def test_oracle_at_c1_finds_exactly_the_two_reuse_variants():
    provision = ensure_account_rule()
    host = bank_graph()
    results = oracle_locally_complete(provision, host, prematch_at(provision, host, "c1"))
    assert len(results) == 2
    by_account = {mr.match.node_map["a"]: mr for mr in results}
    assert set(by_account) == {"a1", "a2"}

    partial = by_account["a1"]
    assert partial.induced.size == 3
    assert selection_ids(partial) == ((), (), ("a", "p"), ("accounts_c_a",))
    assert partial.match.node_map == {"c": "c1", "a": "a1", "p": "p"}
    assert partial.match.edge_map == {"accounts_c_a": "accounts_c1_a1"}

    full = by_account["a2"]
    assert full.induced.size == 4
    assert selection_ids(full) == (
        (),
        (),
        ("a", "p"),
        ("accounts_c_a", "portfolio_a_p"),
    )
    assert full.match.edge_map == {
        "accounts_c_a": "accounts_c1_a2",
        "portfolio_a_p": "portfolio_a2_p",
    }


def test_find_locally_complete_returns_a_complete_compatible_result():
    provision = ensure_account_rule()
    host = bank_graph()
    pm = prematch_at(provision, host, "c1")
    stats = MatchStats()
    mr = find_locally_complete(provision, host, pm, stats)
    assert mr is not None
    assert is_compatible(provision, pm, mr)
    assert is_locally_complete(provision, host, pm, mr)
    assert mirror_is_locally_complete(provision, host, mr)
    assert stats.backtracks == 0
    again = find_locally_complete(provision, host, pm)
    assert again is not None and result_key(again) == result_key(mr)


def test_locally_maximal_at_c1_reuses_the_backed_account():
    provision = ensure_account_rule()
    host = bank_graph()
    results = find_locally_maximal(provision, host, prematch_at(provision, host, "c1"))
    assert len(results) == 1
    (mr,) = results
    assert mr.induced.size == 4
    assert mr.match.node_map == {"c": "c1", "a": "a2", "p": "p"}


def test_locally_maximal_at_c2_creates_the_two_missing_edges():
    provision = ensure_account_rule()
    host = bank_graph()
    results = find_locally_maximal(provision, host, prematch_at(provision, host, "c2"))
    assert len(results) == 1
    (mr,) = results
    assert mr.induced.size == 3
    assert selection_ids(mr) == ((), (), ("a", "p"), ("portfolio_a_p",))
    t = apply_rule(mr.induced.rule, host, mr.match)
    created = t.output.edges.keys() - host.edges.keys()
    assert created == {"accounts_c_a#1", "portfolios_c_p#1"}
    assert t.output.edges["accounts_c_a#1"] == Edge("accounts", "c2", "a2")
    assert t.output.edges["portfolios_c_p#1"] == Edge("portfolios", "c2", "p")


def test_globally_maximal_prefers_the_provisioned_client():
    provision = ensure_account_rule()
    host = bank_graph()
    results = find_globally_maximal(provision, host)
    assert len(results) == 1
    (mr,) = results
    assert mr.induced.size == 4
    assert mr.base_prematch.morphism.node_map == {"c": "c1"}
    assert mr.match.node_map["a"] == "a2"


def test_globally_maximal_is_nondeterministic_across_equal_clients():
    provision = ensure_account_rule()
    host = bank_graph()
    twin = with_elements(
        host, nodes={"c3": "Client", "a5": "Account", "p5": "Portfolio"},
        edges={
            "accounts_c3_a5": Edge("accounts", "c3", "a5"),
            "portfolio_a5_p5": Edge("portfolio", "a5", "p5"),
        },
    )
    results = find_globally_maximal(provision, twin)
    assert len(results) == 2
    assert {mr.base_prematch.morphism.node_map["c"] for mr in results} == {"c1", "c3"}
    assert {mr.induced.size for mr in results} == {4}


def test_globally_maximal_empty_without_prematches():
    provision = ensure_account_rule()
    empty = empty_graph(banking_type_graph())
    assert find_globally_maximal(provision, empty) == []


def test_bare_client_yields_only_the_create_everything_rule():
    provision = ensure_account_rule()
    host = TypedGraph(banking_type_graph(), {"c7": "Client"}, {})
    pm = prematch_at(provision, host, "c7")
    results = oracle_locally_complete(provision, host, pm)
    assert len(results) == 1
    assert results[0].induced.size == 0
    t = apply_rule(results[0].induced.rule, host, results[0].match)
    assert set(t.output.nodes) == {"c7", "a#1", "p#1"}
    assert set(t.output.edges) == {
        "accounts_c_a#1",
        "portfolios_c_p#1",
        "portfolio_a_p#1",
    }


def test_backtracking_scenario_deletes_the_unshared_account():
    teardown = ensure_no_account_rule()
    host = shared_accounts_graph()
    pm = prematch_at(teardown, host, "c1")
    stats = MatchStats()
    mr = find_locally_complete(teardown, host, pm, stats)
    assert mr is not None
    assert mr.match.node_map["a"] == "a4"
    assert selection_ids(mr) == (("a",), ("accounts_c_a",), (), ())
    assert stats.backtracks >= 1
    t = apply_rule(mr.induced.rule, host, mr.match)
    assert set(t.output.nodes) == {"a3", "c1", "c9"}
    assert set(t.output.edges) == {"accounts_c1_a3", "accounts_c9_a3"}
    # And the exhaustive search agrees that a4 is the only option.
    results = oracle_locally_complete(teardown, host, pm)
    assert [r.match.node_map["a"] for r in results] == ["a4"]


def owned_bank(n: int) -> TypedGraph:
    """A bank whose ``n`` clients each hold one account, owned by the bank;
    the accounts of the even clients are backed by a portfolio."""
    nodes = {"b": "Bank"}
    edges = {}
    for i in range(n):
        c, a, p = f"c{i}", f"a{i}", f"p{i}"
        nodes[c], nodes[a] = "Client", "Account"
        edges[f"accounts_{c}_{a}"] = Edge("accounts", c, a)
        edges[f"owns_account_b_{a}"] = Edge("owns_account", "b", a)
        if i % 2 == 0:
            nodes[p] = "Portfolio"
            edges[f"portfolio_{a}_{p}"] = Edge("portfolio", a, p)
            edges[f"portfolios_{c}_{p}"] = Edge("portfolios", c, p)
            edges[f"owns_portfolio_b_{p}"] = Edge("owns_portfolio", "b", p)
    return TypedGraph(banking_type_graph(), nodes, edges)


def test_teardown_backtracks_stay_linear_in_the_host():
    """Every account of a 200-client bank is owned by the bank, so no
    teardown can delete one; the search must see that from each account's
    incident edges instead of trying its bindings one by one."""
    n = 200
    host = owned_bank(n)
    teardown = ensure_no_account_rule()
    stats = MatchStats()
    pm = prematch_at(teardown, host, "c0")
    assert find_locally_complete(teardown, host, pm, stats) is None
    assert stats.backtracks <= 4 * n


def test_maximal_backtracks_follow_the_client_not_the_host(monkeypatch):
    """A backed client reaches the rule's bound, and so do the bank's backed
    clients over every pre-match: the pass at the bound answers both
    without an incumbent.  Below the bound, a maximal search binds the
    client's own account and portfolio first; every other binding then
    shares one bound below the incumbent, so it is cut without being tried."""
    incumbents, _ = counting(monkeypatch)
    n = 200
    host = owned_bank(n)
    provision = ensure_account_rule()
    stats = MatchStats()
    backed = prematch_at(provision, host, "c0")
    (mr,) = find_locally_maximal(provision, host, backed, stats)
    assert mr.induced.size == 5
    assert mr.match.node_map == {"c": "c0", "a": "a0", "p": "p0"}
    assert stats.backtracks <= 10
    assert incumbents == []

    # Without a portfolio of its own, the client ties over every account
    # that can be reused with something: the search may give each account
    # and portfolio up once.
    stats = MatchStats()
    unbacked = prematch_at(provision, host, "c1")
    results = find_locally_maximal(provision, host, unbacked, stats)
    assert {mr.induced.size for mr in results} == {3}
    assert stats.backtracks <= len(host.nodes_by_type["Account"]) + len(
        host.nodes_by_type["Portfolio"]
    )
    assert len(incumbents) == 1

    incumbents.clear()
    stats = MatchStats()
    results = find_globally_maximal(provision, host, stats)
    assert len(results) == n // 2
    assert {mr.induced.size for mr in results} == {5}
    assert stats.backtracks <= 4 * n
    assert incumbents == []



def test_teardown_answers_no_match_in_one_pass():
    """No account of an owned bank can be deleted, and the greedy pass
    never comes to a point where the full search would skip an account on
    purpose, so the greedy pass alone answers: each account is rejected
    once."""
    n = 200
    host = owned_bank(n)
    teardown = ensure_no_account_rule()
    stats = MatchStats()
    pm = prematch_at(teardown, host, "c0")
    assert find_locally_complete(teardown, host, pm, stats) is None
    assert stats.backtracks == n
    assert stats.full_passes == 0


def test_teardown_examines_the_profiles_not_the_host():
    """The accounts of an owned bank fall into two incidence profiles,
    backed or not, and neither fits the rule's account: the teardown tests
    each profile once and rejects every account in one step, so it
    examines as much on a bank ten times the size."""
    examined = set()
    for n in (200, 2000):
        host = owned_bank(n)
        teardown = ensure_no_account_rule()
        stats = MatchStats()
        pm = prematch_at(teardown, host, "c0")
        assert find_locally_complete(teardown, host, pm, stats) is None
        assert stats.backtracks == n
        profiles = host._rooted().profiles["Account"]
        assert stats.examined <= len(profiles) + len(host.incidence["c0"])
        examined.add(stats.examined)
    assert len(examined) == 1


@pytest.mark.parametrize("n", [200, 800])
def test_maximal_work_per_result_does_not_grow_with_the_host(n, monkeypatch):
    """The host elements a maximal search examines stay under one constant
    per result: an unbacked client ties over about every account and
    portfolio, a backed client has one result, and over every client the
    bank's backed ones tie.  The last two reach the rule's bound, where the
    pass at the bound answers without an incumbent, and reads no more of
    the host per result than on a bank a quarter the size."""
    incumbents, _ = counting(monkeypatch)
    host = owned_bank(n)
    provision = ensure_account_rule()
    stats = MatchStats()
    unbacked = prematch_at(provision, host, "c1")
    results = find_locally_maximal(provision, host, unbacked, stats)
    assert len(results) >= n
    assert stats.examined <= 10 * len(results)

    per_result = {}  # host elements read by the backed and the global query
    for size in (n // 4, n):
        host = owned_bank(size)
        backed = prematch_at(provision, host, "c0")
        incumbents.clear()
        read = reading(host)
        stats = MatchStats()
        (mr,) = find_locally_maximal(provision, host, backed, stats)
        assert stats.examined <= 16
        at_c0, read[0] = read[0], 0

        stats = MatchStats()
        results = find_globally_maximal(provision, host, stats)
        assert len(results) == size // 2
        assert stats.examined <= 24 * len(results)
        assert stats.full_passes == 0
        assert incumbents == []
        per_result[size] = at_c0, read[0] / len(results)
    small, large = per_result[n // 4], per_result[n]
    assert 0 < large[0] <= small[0] and 0 < large[1] <= small[1]


ABSORB_TG = TypeGraph(
    "absorb",
    frozenset({"Client", "Account"}),
    {"accounts": EdgeType("Client", "Account")},
)


def absorb_rule() -> EffectOrientedRule:
    """One potential deletion and one potential creation of the same type."""
    interface = TypedGraph(ABSORB_TG, {"c": "Client"}, {})
    maximal_lhs = with_elements(
        interface, nodes={"a_d": "Account"}, edges={"e_d": Edge("accounts", "c", "a_d")}
    )
    maximal_rhs = with_elements(
        interface, nodes={"a_c": "Account"}, edges={"e_c": Edge("accounts", "c", "a_c")}
    )
    base = Rule(interface, interface, interface)
    maximal = Rule(maximal_lhs, interface, maximal_rhs)
    return EffectOrientedRule(base, maximal)


def test_exhausted_search_still_finds_the_absorbing_completion():
    """Every candidate for the deletion node dangles, so the depth-first
    dive fails; the reuse that binds the same host account as a preserved
    creation is still a valid completion and must be returned."""
    eor = absorb_rule()
    host = TypedGraph(
        ABSORB_TG,
        {"c1": "Client", "z": "Client", "x": "Account"},
        {"e1": Edge("accounts", "c1", "x"), "ez": Edge("accounts", "z", "x")},
    )
    pm = PreMatch(Morphism(eor.base.lhs, host, {"c": "c1"}, {}))
    stats = MatchStats()
    mr = find_locally_complete(eor, host, pm, stats)
    assert mr is not None
    assert stats.backtracks >= 1
    assert stats.full_passes == 1
    assert selection_ids(mr) == ((), (), ("a_c",), ("e_c",))
    assert mr.match.node_map == {"c": "c1", "a_c": "x"}
    assert mr.match.edge_map == {"e_c": "e1"}
    results = oracle_locally_complete(eor, host, pm)
    assert [result_key(r) for r in results] == [result_key(mr)]


def test_no_free_candidate_anywhere_means_no_match():
    """When the lone deletion candidate dangles and nothing absorbs it, a
    blocked extension still exists, so no completion is possible at all."""
    interface = TypedGraph(ABSORB_TG, {"c": "Client"}, {})
    maximal_lhs = with_elements(
        interface, nodes={"a_d": "Account"}, edges={"e_d": Edge("accounts", "c", "a_d")}
    )
    eor = EffectOrientedRule(
        Rule(interface, interface, interface),
        Rule(maximal_lhs, interface, interface),
    )
    host = TypedGraph(
        ABSORB_TG,
        {"c1": "Client", "z": "Client", "x": "Account"},
        {"e1": Edge("accounts", "c1", "x"), "ez": Edge("accounts", "z", "x")},
    )
    pm = PreMatch(Morphism(eor.base.lhs, host, {"c": "c1"}, {}))
    assert oracle_locally_complete(eor, host, pm) == []
    assert find_locally_complete(eor, host, pm) is None


# ---------------------------------------------------------------------------
# properties over random instances


@settings(max_examples=60)
@given(st.integers(0, 10**6))
def test_equivalence_of_search_and_oracle(seed):
    for eor, host, pm in instances(seed, 2):
        stats = MatchStats()
        mr = find_locally_complete(eor, host, pm, stats)
        results = oracle_locally_complete(eor, host, pm)
        assert (mr is None) == (not results)
        if mr is not None:
            assert is_compatible(eor, pm, mr)
            assert is_locally_complete(eor, host, pm, mr)
            assert result_key(mr) in {result_key(r) for r in results}


@settings(max_examples=50)
@given(st.integers(0, 10**6))
def test_is_locally_complete_agrees_with_the_mirror(seed):
    for eor, host, pm in instances(seed, 2):
        seen = 0
        for sel in enumerate_selections(eor):
            induced = build_induced_rule(eor, sel)
            for m in find_injective_extensions(
                induced.rule.lhs, host, (pm.morphism.node_map, pm.morphism.edge_map)
            ):
                if not rule_applicable(induced.rule, host, m):
                    continue
                mr = MatchResult(induced=induced, match=m, base_prematch=pm)
                assert is_locally_complete(eor, host, pm, mr) == (
                    mirror_is_locally_complete(eor, host, mr)
                )
                seen += 1
                if seen >= 12:
                    return


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_base_case_iff(seed):
    for eor, host, pm in instances(seed, 2):
        mr = find_locally_complete(eor, host, pm)
        empty_rule = build_induced_rule(eor, empty_selection())
        base_match = Morphism(
            empty_rule.rule.lhs, host, pm.morphism.node_map, pm.morphism.edge_map
        )
        base_result = MatchResult(
            induced=empty_rule, match=base_match, base_prematch=pm
        )
        base_possible = rule_applicable(
            empty_rule.rule, host, base_match
        ) and is_locally_complete(eor, host, pm, base_result)
        got_base = mr is not None and mr.induced.size == 0
        assert got_base == base_possible


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_maximality_chain(seed):
    for eor, host, pm in instances(seed, 2):
        complete = {result_key(r) for r in oracle_locally_complete(eor, host, pm)}
        local = find_locally_maximal(eor, host, pm)
        local_keys = {result_key(r) for r in local}
        assert local_keys <= complete
        if complete:
            top = max(
                r.induced.size for r in oracle_locally_complete(eor, host, pm)
            )
            assert {r.induced.size for r in local} == {top}
            assert local_keys == {
                result_key(r)
                for r in oracle_locally_complete(eor, host, pm)
                if r.induced.size == top
            }
    # The global strategy picks from the per-prematch locally maximal sets.
    for eor, host, _ in instances(seed + 1, 1):
        global_results = find_globally_maximal(eor, host)
        union = {
            result_key(r)
            for pm in find_base_prematches(eor, host)
            for r in find_locally_maximal(eor, host, pm)
        }
        assert {result_key(r) for r in global_results} <= union
        if union:
            sizes = {r.induced.size for r in global_results}
            assert len(sizes) == 1


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_match_decomposes_over_the_base(seed):
    for eor, host, pm in instances(seed, 2):
        for mr in oracle_locally_complete(eor, host, pm):
            m = mr.match
            rule = mr.induced.rule
            # Restricting to the base lhs recovers the pre-match ...
            assert same_maps(
                compose(Morphism.inclusion(eor.base.lhs, rule.lhs), m), pm.morphism
            )
            # ... and restricting to the interface agrees with it too.
            on_interface = restricted(
                m,
                induced(
                    rule.lhs, eor.interface.nodes.keys(), eor.interface.edges.keys()
                ),
            )
            for nid in eor.interface.nodes:
                assert on_interface.node_map[nid] == pm.morphism.node_map[nid]
            # The deleting part and the kept part overlap exactly on the
            # base interface image.
            sel = mr.induced.selection
            deleting = eor.base.lhs.nodes.keys() | sel.del_extra.nodes
            kept = eor.interface.nodes.keys() | sel.preserve_extra.nodes
            overlap = {m.node_map[v] for v in deleting} & {
                m.node_map[v] for v in kept
            }
            assert overlap == {m.node_map[v] for v in eor.interface.nodes}


@settings(max_examples=30)
@given(st.integers(0, 10**6))
def test_induced_nacs_answer_like_base_nacs(seed):
    from effectgraph import enumerate_selections

    for eor, host, pm in instances(seed, 1):
        if not eor.base.nacs:
            continue
        for sel in enumerate_selections(eor)[:6]:
            rule = build_induced_rule(eor, sel).rule
            inclusion = Morphism.inclusion(eor.base.lhs, rule.lhs)
            for m in find_injective_extensions(rule.lhs, host):
                assert satisfies_nacs(m, rule.nacs) == satisfies_nacs(
                    compose(inclusion, m), eor.base.nacs
                )


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_no_deletion_nodes_means_no_backtracking(seed):
    for eor, host, pm in instances(
        seed, 2, allow_deletion_nodes=False, require_base_applicable=True
    ):
        stats = MatchStats()
        mr = find_locally_complete(eor, host, pm, stats)
        assert stats.backtracks == 0
        assert mr is not None


def _keys(results) -> list[tuple]:
    return [mr.sort_key() for mr in results]


def agree_with_the_oracle(eor, host, pm, globally: bool = True) -> list[MatchResult]:
    """Assert, list for list, that all locally complete matches at ``pm``
    and the locally maximal ones (the oracle's of the best size) are the
    brute-force oracle's, and with ``globally`` the globally maximal ones
    (the best size over the oracle's lists of every pre-match).  Returns the
    oracle's list at ``pm``."""
    oracle = oracle_locally_complete(eor, host, pm)
    assert _keys(find_all_locally_complete(eor, host, pm)) == _keys(oracle)
    best = max((mr.induced.size for mr in oracle), default=None)
    assert _keys(find_locally_maximal(eor, host, pm)) == _keys(
        mr for mr in oracle if mr.induced.size == best
    )
    if globally:
        union = [
            mr
            for other in find_base_prematches(eor, host)
            for mr in oracle_locally_complete(eor, host, other)
        ]
        top = max((mr.induced.size for mr in union), default=None)
        assert _keys(find_globally_maximal(eor, host)) == sorted(
            _keys(mr for mr in union if mr.induced.size == top)
        )
    return oracle


def test_every_strategy_equals_the_brute_force_oracle():
    """Every strategy against the oracle on 100 instances per seed, the
    globally maximal one on the first 30, whose pre-matches number in the
    hundreds."""
    parallel = 0
    for seed in (1105, 1010, 4711, 5150):
        for k, (eor, host, pm) in enumerate(instances(seed, 100)):
            for mr in agree_with_the_oracle(eor, host, pm, globally=k < 30):
                for eid, h in mr.match.edge_map.items():
                    e = host.edges[h]
                    siblings = host.edge_classes[(e.type, e.src, e.tgt)]
                    parallel += eid not in pm.morphism.edge_map and len(siblings) > 1
    # Some matches bind a potential edge among parallel host edges.
    assert parallel > 0


def test_every_strategy_equals_the_oracle_on_parallel_heavy_hosts():
    """Every strategy against the oracle on hosts whose edges each have up
    to two parallel copies more, so that a host class often holds more
    edges than the rule's class it hosts.  Where no match at the rule's
    bound passes, the pass there meets node maps of several edge maps, and
    skips the rest of each one that fails."""
    wider = skipped = 0
    for seed in (1616, 2727):
        for eor, host, pm in instances(seed, 100, max_host_nodes=5, parallel=2):
            oracle = agree_with_the_oracle(eor, host, pm)
            for mr in oracle:
                pattern = mr.match.src_graph.edge_classes
                for eid, h in mr.match.edge_map.items():
                    e, he = mr.match.src_graph.edges[eid], host.edges[h]
                    wider += len(host.edge_classes[he]) > len(pattern[e])
            bound = eor._bound
            at_bound = Counter(
                tuple(sorted(m.node_map.items()))
                for m in find_injective_extensions(
                    bound.rule.lhs, host, (pm.morphism.node_map, pm.morphism.edge_map)
                )
            )
            below = all(mr.induced.size < bound.size for mr in oracle)
            skipped += below and any(n > 1 for n in at_bound.values())
    assert wider > 100 and skipped > 0


def test_transform_applies_the_first_maximal_result(monkeypatch):
    """``find_match`` builds only the least match of the best size, and
    ``transform`` applies it; it is the first result of the public maximal
    searches, which build every tie.  The hosts are random instances,
    tie-heavy banks and owned banks.  Both of ``find_match``'s paths answer
    some of them: the pass at the rule's bound, which creates no
    incumbent, and the branch and bound."""
    incumbents, _ = counting(monkeypatch)
    cases = [
        (eor, host, [pm])
        for seed in (1105, 1010, 4711, 5150)
        for eor, host, pm in instances(seed, 100)
    ]
    for seed in (3, 17, 29):
        for eor in (ensure_account_rule(), ensure_no_account_rule(), *linked_rules()):
            host = tie_bank(eor.base.lhs.type_graph, 12, seed)
            cases.append((eor, host, list(find_base_prematches(eor, host))))
    for n in (7, 20):
        for eor in (ensure_account_rule(), ensure_no_account_rule()):
            host = owned_bank(n)
            cases.append((eor, host, list(find_base_prematches(eor, host))))
    applied, paths = 0, Counter()
    for eor, host, pms in cases:
        runs = [
            (LOCALLY_MAXIMAL, find_locally_maximal(eor, host, pm), pm) for pm in pms
        ]
        runs.append((GLOBALLY_MAXIMAL, find_globally_maximal(eor, host), None))
        for strategy, results, given in runs:
            incumbents.clear()
            mr = find_match(eor, host, strategy, given)
            paths["branch and bound" if incumbents else "bound"] += mr is not None
            t = transform(eor, host, strategy, given)
            if not results:
                assert mr is None and t is None
                continue
            first = results[0]
            assert mr == first
            assert t.selection == first.induced.selection
            assert same_maps(t.result.match, first.match)
            assert t.base_prematch == first.base_prematch
            applied += 1
    assert applied > 600
    assert paths["bound"] > 0 and paths["branch and bound"] > 0


def test_a_chain_of_steps_builds_each_induced_rule_once(monkeypatch):
    """50 locally complete ``ensure_account`` steps on one decoded rule
    validate each distinct selection once: a step reuses the induced rule
    an earlier step built.  An invalid selection is never kept."""
    text = fixture_text(ENSURE_ACCOUNT_FILE)
    _, provision = documents.decode_rule(text, builtin_type_graphs())
    validated = Counter()
    validate = effect.validate_selection

    def counted(eor, sel):
        validated[sel] += 1
        return validate(eor, sel)

    monkeypatch.setattr(effect, "validate_selection", counted)
    host, selections = seeded_bank(60, 0), set()
    for i in range(50):
        pm = prematch_at(provision, host, f"c{i}")
        t = transform(provision, host, LOCALLY_COMPLETE, pm)
        selections.add(t.selection)
        host = t.result.output
    assert len(selections) > 1
    assert validated == dict.fromkeys(selections, 1)
    for sel in selections:
        assert build_induced_rule(provision, sel) is build_induced_rule(provision, sel)
    open_edge = InducedSelection(
        ElementSet(), ElementSet(frozenset(), frozenset({"accounts_c_a"}))
    )
    for calls in (1, 2, 3):
        with pytest.raises(InvalidSelection, match="not-closed"):
            build_induced_rule(provision, open_edge)
        assert validated[open_edge] == calls


def test_transform_compares_keys_not_the_order_found():
    """Over every client of the seeded bank(20), ``c1`` is searched before
    ``c11`` and ties with it, but ``a11_0 < a1_0``: the least match is
    ``c11``'s, not the first one found."""
    provision = ensure_account_rule()
    host = seeded_bank(20, 0)
    results = find_globally_maximal(provision, host)
    tied = {mr.match.node_map["c"] for mr in results}
    order = [pm.morphism.node_map["c"] for pm in find_base_prematches(provision, host)]
    assert next(c for c in order if c in tied) == "c1"
    assert dict(results[0].match.node_map) == {"c": "c11", "a": "a11_0", "p": "p11_0"}
    t = transform(provision, host, GLOBALLY_MAXIMAL)
    assert same_maps(t.result.match, results[0].match)


def counting(monkeypatch) -> tuple[list, list]:
    """Make the matcher record, in the two lists returned, each incumbent
    it creates, with the number of leaves offered to it, and each
    ``MatchStats`` it creates."""
    incumbents, counters = [], []

    class Incumbent(matching._Best):
        def __init__(self, least=False):
            super().__init__(least)
            self.offered = 0  # leaves the search built
            incumbents.append(self)

        def offer(self, leaf):
            self.offered += 1
            super().offer(leaf)

    class Counters(MatchStats):
        def __init__(self):
            super().__init__()
            counters.append(self)

    monkeypatch.setattr(matching, "_Best", Incumbent)
    monkeypatch.setattr(matching, "MatchStats", Counters)
    return incumbents, counters


def test_locally_maximal_transform_work_does_not_grow_with_the_host(monkeypatch):
    """The locally maximal ``transform`` for ``c0`` examines as many host
    elements on a bank of 2,000 clients as on one of 200, and keeps one
    leaf: it builds a leaf only when it beats the incumbent."""
    incumbents, counters = counting(monkeypatch)
    provision = ensure_account_rule()
    seen = {}
    for n in (200, 2000):
        host = seeded_bank(n, 0)
        pm = prematch_at(provision, host, "c0")
        incumbents.clear()
        counters.clear()
        t = transform(provision, host, LOCALLY_MAXIMAL, pm)
        (best,), (stats,) = incumbents, counters
        assert best.least and len(best.leaves) == 1 and best.offered <= 2
        seen[n] = stats.examined, best.offered
        first = find_locally_maximal(provision, host, pm)[0]
        assert same_maps(t.result.match, first.match)
    assert seen[200] == seen[2000]
    assert seen[200][0] <= 10


def test_locally_maximal_transform_below_the_bound_does_not_grow_with_the_host(
    monkeypatch,
):
    """For every client of a bank of 200 clients that holds no backed
    account, so that no match reaches the rule's bound, the locally maximal
    ``transform`` keeps one leaf of at most 2 offered, on that bank and on
    one of 2,000 clients whose first 200 are the same.  A client holding
    accounts examines as many host elements on both.  A client holding none
    reuses the least backed account, and examines the unbacked accounts that
    sort before it: the same count for each such client of a bank, and no
    more on the larger one."""
    incumbents, counters = counting(monkeypatch)
    provision = ensure_account_rule()
    seen: dict[int, dict[str, tuple[int, bool]]] = {}
    for n in (200, 2000):
        host = seeded_bank(n, 0)
        edges, incidence = host.edges, host.incidence

        def ends(x: str, etype: str) -> list[str]:  # the targets of x's edges of etype
            out = (edges[e] for e in incidence[x])
            return [e.tgt for e in out if e.type == etype and e.src == x]

        seen[n] = {}
        for c in (f"c{i}" for i in range(200)):
            accounts = ends(c, "accounts")
            if any(ends(a, "portfolio") for a in accounts):
                continue
            incumbents.clear()
            counters.clear()
            transform(provision, host, LOCALLY_MAXIMAL, prematch_at(provision, host, c))
            (best,), (stats,) = incumbents, counters
            assert best.least and len(best.leaves) == 1 and best.offered <= 2
            seen[n][c] = stats.examined, bool(accounts)
    small, large = seen[200], seen[2000]
    assert small.keys() == large.keys() and len(small) > 100
    held = [c for c in small if small[c][1]]
    assert held and all(small[c] == large[c] for c in held)
    (bare,) = {(small[c][0], large[c][0]) for c in small if not small[c][1]}
    assert bare[1] <= bare[0]


def without_portfolios(host: TypedGraph) -> TypedGraph:
    """``host`` less its portfolios and their edges: no ``ensure_account``
    match reaches the rule's bound."""
    nodes = {x: t for x, t in host.nodes.items() if t != "Portfolio"}
    edges = {e: d for e, d in host.edges.items() if {d.src, d.tgt} <= nodes.keys()}
    return TypedGraph(host.type_graph, nodes, edges)


def test_globally_maximal_transform_work_per_prematch_stays_flat(monkeypatch):
    """Below the rule's bound, on banks of 200 and 2,000 clients without
    portfolios, the globally maximal ``transform`` examines at most 6 host
    elements per base pre-match, and keeps one of at most 3 leaves offered:
    a pre-match that cannot beat the incumbent costs its own bindings, not
    the rule's set-up or the host's size.  A node type with no free host
    node does not count towards what a branch can still bind."""
    incumbents, counters = counting(monkeypatch)
    provision = ensure_account_rule()
    for n in (200, 2000):
        host = without_portfolios(seeded_bank(n, 0))
        incumbents.clear()
        counters.clear()
        t = transform(provision, host, GLOBALLY_MAXIMAL)
        (best,), (stats,) = incumbents, counters
        assert best.least and len(best.leaves) == 1 and best.offered <= 3
        assert stats.examined <= 6 * len(list(find_base_prematches(provision, host)))
        assert t.selection.size == 2


def test_a_match_at_the_bound_keeps_to_the_base_nacs():
    """``guarded_provision`` forbids the account that a match at the rule's
    bound reuses, so every such match of the globally maximal ``find_match``
    fails a base NAC.  The answer lies below the bound, as that of the public
    search does: it reuses another client's account and portfolio."""
    guarded, host = guarded_provision(), seeded_bank(20, 0)
    mr = find_match(guarded, host, GLOBALLY_MAXIMAL)
    assert mr == find_globally_maximal(guarded, host)[0]
    assert mr.induced.size == 3 and "accounts_c_a" not in mr.match.edge_map


def parallel_teardown(k: int) -> EffectOrientedRule:
    """A rule that may delete an account ``a`` of its client ``c`` with
    ``k`` parallel ``accounts`` edges ``c -> a``."""
    tg = banking_type_graph()
    client = TypedGraph(tg, {"c": "Client"}, {})
    held = with_elements(
        client, {"a": "Account"}, {f"e{i}": Edge("accounts", "c", "a") for i in range(k)}
    )
    return EffectOrientedRule(Rule(client, client, client), Rule(held, client, client))


def parallel_bank(m: int) -> TypedGraph:
    """Clients ``c0`` and ``c1`` of one bank, each holding by ``m`` parallel
    ``accounts`` edges one account, which the bank owns."""
    nodes, edges = {"b": "Bank"}, {}
    for i in range(2):
        c, a = f"c{i}", f"a{i}"
        nodes.update({c: "Client", a: "Account"})
        edges[f"owns_client_{c}"] = Edge("owns_client", "b", c)
        edges[f"owns_account_{a}"] = Edge("owns_account", "b", a)
        edges.update({f"accounts_{c}_{j}": Edge("accounts", c, a) for j in range(m)})
    return TypedGraph(banking_type_graph(), nodes, edges)


@pytest.mark.parametrize("k, m", [(3, 6), (5, 9)])
def test_the_pass_at_the_bound_checks_each_node_map_once(k, m, monkeypatch):
    """At the rule's bound, a client's account binds by m!/(m-k)! edge maps,
    and each leaves the bank's edge dangling.  Parallel host edges swap
    freely, so the pass runs one dangling check per node map: one for a
    client's pre-match and one per client without, for ``find_match`` and
    the public finders alike.  No match exists."""
    checks = []
    dangling = matching.dangling_node

    def counted(*args):
        checks.append(args)
        return dangling(*args)

    monkeypatch.setattr(matching, "dangling_node", counted)
    teardown, host = parallel_teardown(k), parallel_bank(m)
    pm = prematch_at(teardown, host, "c0")
    at_c0 = find_injective_extensions(teardown.maximal.lhs, host, ({"c": "c0"}, {}))
    assert len(list(at_c0)) == math.perm(m, k)
    for run, node_maps in (
        (lambda: find_match(teardown, host, LOCALLY_MAXIMAL, pm), 1),
        (lambda: find_match(teardown, host, GLOBALLY_MAXIMAL), 2),
        (lambda: find_locally_maximal(teardown, host, pm), 1),
        (lambda: find_globally_maximal(teardown, host), 2),
    ):
        checks.clear()
        assert not run()
        assert len(checks) == node_maps


def reading(host: TypedGraph) -> list[int]:
    """Count, in the one-item list returned, what a search reads of the
    warm indexes of ``host``'s store: the ids it draws from a type bucket
    and the incident edges of each node it looks up."""
    read = [0]

    class Bucket(list):
        def __iter__(self):
            for x in list.__iter__(self):
                read[0] += 1
                yield x

    class Incidence(dict):
        def __getitem__(self, node):
            ids = dict.__getitem__(self, node)
            read[0] += len(ids)
            return ids

    store = host._rooted()
    buckets = {t: Bucket(ids) for t, ids in store.nodes_by_type.items()}
    store.__dict__.update(nodes_by_type=buckets, incidence=Incidence(store.incidence))
    return read


def test_globally_maximal_transform_at_the_bound_does_not_grow_with_the_host(
    monkeypatch,
):
    """Where a match reaches the rule's bound, the globally maximal
    ``transform`` applies the least one, at the backed account of least
    id, without a branch and bound, and reads no more of the host on a bank
    of 20,000 clients than on one of 200: the accounts that sort below the
    answer and the incident edges of what it binds."""
    incumbents, _ = counting(monkeypatch)
    provision = ensure_account_rule()
    read = {}
    for n, account in ((200, "a102_0"), (2000, "a1000_0"), (20000, "a10001_0")):
        host = seeded_bank(n, 0)
        read[n] = reading(host)
        t = transform(provision, host, GLOBALLY_MAXIMAL)
        assert t.result.match.node_map["a"] == account and t.selection.size == 5
        assert incumbents == []
    assert 0 < read[20000][0] <= read[200][0]


def decoded_rule(name: str) -> EffectOrientedRule:
    """A fresh copy of a fixture rule, which no search has used yet."""
    return documents.decode_rule(fixture_text(name), builtin_type_graphs())[1]


def test_a_rule_builds_its_search_plan_once_and_keeps_it(monkeypatch):
    """The set-up of the search that depends on the rule alone is built by
    the rule's first search and shared by every later one, which must leave
    it as it was: every strategy answers as on a freshly decoded copy of the
    rule, one copy per query, and the locally maximal ones have the sizes
    of the brute-force oracle.  The deletion rule runs on a bank where some
    accounts can be deleted, so a search that changed what it read of a
    deletion node's incident edges would answer differently."""
    built = []
    plan = EffectOrientedRule.__dict__["_plan"]

    def counted(eor):
        built.append(eor)
        return plan.func(eor)

    patched = cached_property(counted)
    patched.__set_name__(EffectOrientedRule, "_plan")
    monkeypatch.setattr(EffectOrientedRule, "_plan", patched)

    def answers(rule, host) -> list:
        """Every strategy's answer on ``host``, from ``rule()`` each time."""
        found = [find_match(rule(), host, GLOBALLY_MAXIMAL)]
        for pm in find_base_prematches(rule(), host):
            for strategy in (LOCALLY_COMPLETE, LOCALLY_MAXIMAL):
                found.append(find_match(rule(), host, strategy, pm))
        return [None if mr is None else mr.sort_key() for mr in found]

    for name, host in (
        (ENSURE_ACCOUNT_FILE, seeded_bank(20, 0)),
        (ENSURE_NO_ACCOUNT_FILE, tie_bank(banking_type_graph(), 12, 3)),
    ):
        eor = decoded_rule(name)
        first, again = answers(lambda: eor, host), answers(lambda: eor, host)
        assert sum(e is eor for e in built) == 1
        assert first == again == answers(lambda: decoded_rule(name), host)
        # The locally maximal answers have the brute-force oracle's sizes.
        sizes = [
            max((mr.induced.size for mr in oracle), default=None)
            for pm in find_base_prematches(eor, host)
            for oracle in [oracle_locally_complete(eor, host, pm)]
        ]
        assert [k and sum(map(len, k[:4])) for k in first[2::2]] == sizes
        if name == ENSURE_NO_ACCOUNT_FILE:  # it deletes, more than once
            assert sum(k is not None and k[0] != () for k in first) > 1


def test_transform_records_what_apply_rule_records():
    """``transform`` applies the match it finds without the checks of
    ``apply_rule``, which hold by construction; on a copy of the host,
    ``apply_rule`` with every check makes the same output, comatch and
    delta, under every strategy."""
    applied = 0
    for seed in (1105, 4711):
        for eor, host, pm in instances(seed, 60):
            for strategy in STRATEGIES:
                given = None if strategy == GLOBALLY_MAXIMAL else pm
                mr = find_match(eor, host, strategy, given)
                t = transform(eor, host, strategy, given)
                if mr is None:
                    assert t is None
                    continue
                copy = TypedGraph(host.type_graph, host.nodes, host.edges)
                m = Morphism(mr.match.src_graph, copy, mr.match.node_map, mr.match.edge_map)
                want, got = apply_rule(mr.induced.rule, copy, m), t.result
                assert (got.output.nodes, got.output.edges) == (
                    want.output.nodes, want.output.edges
                )
                assert same_maps(got.comatch, want.comatch)
                assert same_maps(got.match, mr.match)
                assert (got.created, got.deleted) == (want.created, want.deleted)
                applied += 1
    assert applied > 200


LINKED_TG = TypeGraph(
    "linked_banking",
    banking_type_graph().node_types,
    {**banking_type_graph().edge_types, "link": EdgeType("Account", "Account")},
)


def tie_bank(tg: TypeGraph, n: int, seed: int) -> TypedGraph:
    """A seeded bank of ``n`` clients whose accounts and portfolios are
    largely interchangeable, so maximal matches tie.

    Each client holds up to two accounts.  Each account is, at random,
    owned by the bank, held by a second client, backed by a portfolio (that
    the client may or may not hold) and, over a type graph with ``link``,
    linked to itself."""
    rng = random.Random(seed)
    nodes = {"b": "Bank"}
    edges = {}
    for i in range(n):
        c = f"c{i}"
        nodes[c] = "Client"
        edges[f"owns_client_b_{c}"] = Edge("owns_client", "b", c)
        for j in range(rng.randint(0, 2)):
            a, p = f"a{i}_{j}", f"p{i}_{j}"
            nodes[a] = "Account"
            edges[f"accounts_{c}_{a}"] = Edge("accounts", c, a)
            if rng.random() < 0.5:
                edges[f"owns_account_b_{a}"] = Edge("owns_account", "b", a)
            if i and rng.random() < 0.3:
                other = f"c{rng.randrange(i)}"
                edges[f"accounts_{other}_{a}"] = Edge("accounts", other, a)
            if "link" in tg.edge_types and rng.random() < 0.5:
                edges[f"link_{a}"] = Edge("link", a, a)
            if rng.random() < 0.5:
                nodes[p] = "Portfolio"
                edges[f"portfolio_{a}_{p}"] = Edge("portfolio", a, p)
                if rng.random() < 0.7:
                    edges[f"portfolios_{c}_{p}"] = Edge("portfolios", c, p)
    return TypedGraph(tg, nodes, edges)


def linked_rules() -> tuple[EffectOrientedRule, EffectOrientedRule]:
    """Two rules whose potential account has a potential self-loop: one
    reuses or creates a linked account with a portfolio, the other deletes
    a linked account where it can."""
    client = TypedGraph(LINKED_TG, {"c": "Client"}, {})
    linked = with_elements(
        client, {"a": "Account"},
        {"accounts_c_a": Edge("accounts", "c", "a"), "link_a": Edge("link", "a", "a")},
    )
    backed = with_elements(
        linked, {"p": "Portfolio"},
        {
            "portfolio_a_p": Edge("portfolio", "a", "p"),
            "portfolios_c_p": Edge("portfolios", "c", "p"),
        },
    )
    identity = Rule(client, client, client)
    return (
        EffectOrientedRule(identity, Rule(client, client, backed)),
        EffectOrientedRule(identity, Rule(linked, client, client)),
    )


@pytest.mark.parametrize("seed", [3, 17, 29])
def test_maximal_strategies_equal_the_oracle_on_tie_heavy_banks(seed):
    """List for list against the brute-force oracle, for every client and
    over all of them, on banks where many matches of the best size tie.
    The rules cover reuse, deletion with the up-front rejection of
    deletion candidates, and potential self-loops."""
    rng = random.Random(seed)
    rules = (ensure_account_rule(), ensure_no_account_rule(), *linked_rules())
    ties = 0
    for eor in rules:
        n, bank_seed = rng.randint(6, 10), rng.randrange(1 << 30)
        host = tie_bank(eor.base.lhs.type_graph, n, bank_seed)
        union = []
        for pm in find_base_prematches(eor, host):
            oracle = oracle_locally_complete(eor, host, pm)
            best = max((mr.induced.size for mr in oracle), default=None)
            local = find_locally_maximal(eor, host, pm)
            assert _keys(local) == _keys(mr for mr in oracle if mr.induced.size == best)
            ties = max(ties, len(local))
            union += oracle
        top = max((mr.induced.size for mr in union), default=None)
        assert _keys(find_globally_maximal(eor, host)) == sorted(
            _keys(mr for mr in union if mr.induced.size == top)
        )
    assert ties > 1


@settings(max_examples=40)
@given(st.integers(0, 10**6))
def test_every_strategy_result_passes_the_audit(seed):
    for eor, host, pm in instances(seed, 2):
        found = find_locally_complete(eor, host, pm)
        for strategy, results in (
            (LOCALLY_COMPLETE, [found] if found is not None else []),
            (LOCALLY_MAXIMAL, find_locally_maximal(eor, host, pm)),
            (GLOBALLY_MAXIMAL, find_globally_maximal(eor, host)),
        ):
            for mr in results:
                record = apply_rule(mr.induced.rule, host, mr.match)
                audit_effect(
                    EffectTransformation(
                        eor, strategy, record, mr.induced.selection, mr.base_prematch
                    )
                )


def test_search_results_are_deterministic():
    for eor, host, pm in instances(424242, 5):
        first = find_locally_complete(eor, host, pm)
        second = find_locally_complete(eor, host, pm)
        assert (first is None) == (second is None)
        if first is not None:
            assert result_key(first) == result_key(second)
        assert [result_key(r) for r in find_locally_maximal(eor, host, pm)] == [
            result_key(r) for r in find_locally_maximal(eor, host, pm)
        ]


# The SHA-256 of ``repr`` of the result lists below, computed with the
# search as it stood before it was made output-sensitive.  Any change to
# the matcher must leave every result and its order as it is.
RESULT_DIGEST = "93519d1a21aa8c33e2fb4ff430118f8709ece3c7ddfc615612f18ea2dabf074e"


def test_result_digest_is_unchanged():
    """Every strategy, list for list, on owned and tie-heavy banks and on
    100 random instances of each of four seeds.  The recipe: for each
    (rule, host, pre-match), the ``sort_key`` list of
    ``find_locally_maximal``, that of ``find_all_locally_complete``, and the
    ``sort_key`` of ``find_locally_complete`` or ``None``; after each host's
    pre-matches (after each instance, for the random ones), the list of
    ``find_globally_maximal``."""
    parts: list = []

    def record(eor: EffectOrientedRule, host: TypedGraph, pms) -> None:
        for pm in pms:
            found = find_locally_complete(eor, host, pm)
            parts.append(_keys(find_locally_maximal(eor, host, pm)))
            parts.append(_keys(find_all_locally_complete(eor, host, pm)))
            parts.append(None if found is None else found.sort_key())
        parts.append(_keys(find_globally_maximal(eor, host)))

    for n in (7, 20):
        host = owned_bank(n)
        for eor in (ensure_account_rule(), ensure_no_account_rule()):
            record(eor, host, find_base_prematches(eor, host))
    for seed in (3, 17, 29):
        for eor in (ensure_account_rule(), ensure_no_account_rule(), *linked_rules()):
            host = tie_bank(eor.base.lhs.type_graph, 12, seed)
            record(eor, host, find_base_prematches(eor, host))
    for seed in (1105, 1010, 4711, 5150):
        for eor, host, pm in instances(seed, 100):
            record(eor, host, [pm])
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == RESULT_DIGEST


# The SHA-256 of ``repr`` of the counters of ``find_match``'s searches over
# the hosts of the result digest and two of its seeds, computed before the
# injective search kept a plan per pattern and the branch and bound kept
# what can still bind up to date.  A change that keeps every result and
# every cut keeps these counts too.
COUNTER_DIGEST = "402a52df523068655ef23668a546fde8e3a257828eb41c79761ea5d4180d47a8"


def test_find_match_counter_digest_is_unchanged(monkeypatch):
    """The ``MatchStats`` each ``find_match`` creates, as (backtracks,
    examined, full passes), under each strategy: on owned and tie-heavy
    banks at every base pre-match, then once globally per host, and on 100
    random instances of each of two seeds."""
    _, counters = counting(monkeypatch)
    parts: list = []

    def count(run) -> None:
        counters.clear()
        run()
        parts.append([(c.backtracks, c.examined, c.full_passes) for c in counters])

    def record(eor: EffectOrientedRule, host: TypedGraph, pms) -> None:
        for pm in pms:
            for strategy in (LOCALLY_COMPLETE, LOCALLY_MAXIMAL):
                count(lambda: find_match(eor, host, strategy, pm))
        count(lambda: find_match(eor, host, GLOBALLY_MAXIMAL))

    for n in (7, 20):
        host = owned_bank(n)
        for eor in (ensure_account_rule(), ensure_no_account_rule()):
            record(eor, host, find_base_prematches(eor, host))
    for seed in (3, 17, 29):
        for eor in (ensure_account_rule(), ensure_no_account_rule(), *linked_rules()):
            host = tie_bank(eor.base.lhs.type_graph, 12, seed)
            record(eor, host, find_base_prematches(eor, host))
    for seed in (1105, 1010):
        for eor, host, pm in instances(seed, 100):
            record(eor, host, [pm])
    digest = hashlib.sha256(repr(parts).encode()).hexdigest()
    assert digest == COUNTER_DIGEST
