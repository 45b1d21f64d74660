"""The acceptance gate: ten behavioral criteria, one verdict line each.

Each test prints ``criterion NN PASS/FAIL`` through the terminal reporter
so the gate reads as a checklist even inside a larger run.  Random checks
are seeded and sized to finish well inside their stated budgets.
"""

from __future__ import annotations

import functools
import random
import time
from contextlib import contextmanager

import gen
from effectgraph import (
    Edge,
    EdgeType,
    EffectTransformation,
    Morphism,
    Nac,
    Rule,
    TypeGraph,
    apply_rule,
    build_induced_rule,
    check_base_subrule,
    audit_effect,
    count_bounds,
    enumerate_selections,
    find_base_prematches,
    find_globally_maximal,
    find_injective_extensions,
    find_locally_complete,
    find_locally_maximal,
    prematch_from_maps,
    satisfies_nacs,
    shift_nacs,
)
from effectgraph.core import DanglingViolation, compose
from effectgraph.matching import MatchStats, is_compatible, is_locally_complete
from effectgraph.fixtures import (
    bank_graph,
    client_match,
    ensure_account_rule,
    ensure_no_account_rule,
    shared_accounts_graph,
)
from oracles import (
    enumerate_typed_graphs,
    is_isomorphic,
    oracle_locally_complete,
    pushout,
)


@contextmanager
def _verdict(request, num, budget, text):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def line(outcome, extra=""):
        if reporter is not None:
            reporter.write_line(f"criterion {num:02d} {outcome}  {text}{extra}")

    started = time.perf_counter()
    try:
        yield
    except BaseException:
        line("FAIL")
        raise
    elapsed = time.perf_counter() - started
    if elapsed >= budget:
        line("FAIL", f" (took {elapsed:.1f}s, budget {budget:g}s)")
        raise AssertionError(f"criterion {num} exceeded its {budget:g}s budget")
    line("PASS", f" ({elapsed:.2f}s)")


def test_criterion_01_creation_variants(request):
    with _verdict(request, 1, 1.0, "the provision rule has exactly 4 creation variants"):
        provision = ensure_account_rule()
        selections = enumerate_selections(provision, "weak_right")
        assert len(selections) == 4
        reuse = {
            tuple(sorted(s.preserve_extra.nodes | s.preserve_extra.edges))
            for s in selections
        }
        assert reuse == {
            (),
            ("a", "accounts_c_a"),
            ("p", "portfolios_c_p"),
            ("a", "accounts_c_a", "p", "portfolio_a_p", "portfolios_c_p"),
        }
        for sel in selections:
            assert not sel.del_extra.nodes and not sel.del_extra.edges
            induced = build_induced_rule(provision, sel)
            performed = (
                induced.rule.rhs.nodes.keys() - induced.rule.interface.nodes.keys()
            ) | (induced.rule.rhs.edges.keys() - induced.rule.interface.edges.keys())
            expected = {
                "a",
                "p",
                "accounts_c_a",
                "portfolio_a_p",
                "portfolios_c_p",
            } - (sel.preserve_extra.nodes | sel.preserve_extra.edges)
            assert performed == expected


def test_criterion_02_selection_count_sandwich(request):
    with _verdict(request, 2, 10.0, "selection counts sit between both bounds"):
        for eor in (ensure_account_rule(), ensure_no_account_rule()):
            lower, upper = count_bounds(eor)
            assert (lower, upper) == (4, 32)
            assert lower <= len(enumerate_selections(eor, "none")) == 13 <= upper
        rng = random.Random(1202)
        for _ in range(200):
            tg = gen.random_type_graph(rng)
            eor = gen.random_effect_rule(rng, tg)
            potential_nodes = (
                eor.maximal.lhs.nodes.keys() - eor.base.lhs.nodes.keys()
            ) | (eor.maximal.rhs.nodes.keys() - eor.base.rhs.nodes.keys())
            potential_edges = (
                eor.maximal.lhs.edges.keys() - eor.base.lhs.edges.keys()
            ) | (eor.maximal.rhs.edges.keys() - eor.base.rhs.edges.keys())
            assert len(potential_nodes) <= 4 and len(potential_edges) <= 6
            lower, upper = count_bounds(eor)
            assert lower <= len(enumerate_selections(eor, "none")) <= upper


@functools.cache
def _banking_scenarios():
    provision = ensure_account_rule()
    teardown = ensure_no_account_rule()
    bank = bank_graph()
    shared = shared_accounts_graph()
    pm1 = prematch_from_maps(provision, bank, *client_match("c1"))
    pm2 = prematch_from_maps(provision, bank, *client_match("c2"))
    pm_shared = prematch_from_maps(teardown, shared, {"c": "c1"}, {})
    stats = MatchStats()
    return {
        "provision": provision,
        "teardown": teardown,
        "bank": bank,
        "shared": shared,
        "oracle_c1": oracle_locally_complete(provision, bank, pm1),
        "maximal_c1": find_locally_maximal(provision, bank, pm1),
        "maximal_c2": find_locally_maximal(provision, bank, pm2),
        "global": find_globally_maximal(provision, bank),
        "teardown_result": find_locally_complete(teardown, shared, pm_shared, stats),
        "teardown_backtracks": stats.backtracks,
    }


def test_criterion_03_two_client_scenarios(request):
    with _verdict(request, 3, 1.0, "the two-client host behaves as narrated"):
        s = _banking_scenarios()
        small, big = s["oracle_c1"]
        assert len(s["oracle_c1"]) == 2
        assert small.induced.size == 3
        assert small.match.node_map == {"c": "c1", "a": "a1", "p": "p"}
        assert small.match.edge_map == {"accounts_c_a": "accounts_c1_a1"}
        assert big.induced.size == 4
        assert big.match.node_map == {"c": "c1", "a": "a2", "p": "p"}
        assert big.match.edge_map == {
            "accounts_c_a": "accounts_c1_a2",
            "portfolio_a_p": "portfolio_a2_p",
        }

        [best] = s["maximal_c1"]
        assert best.induced.size == 4 and best.match.node_map["a"] == "a2"

        [other] = s["maximal_c2"]
        record = apply_rule(other.induced.rule, s["bank"], other.match)
        created = {
            record.output.edges[eid]
            for eid in record.output.edges.keys() - s["bank"].edges.keys()
        }
        assert created == {
            Edge("accounts", "c2", "a2"),
            Edge("portfolios", "c2", "p"),
        }

        [top] = s["global"]
        assert top.induced.size == 4
        assert top.base_prematch.morphism.node_map == {"c": "c1"}


def test_criterion_04_shared_account_backtracking(request):
    with _verdict(request, 4, 1.0, "the shared-account teardown backtracks, then deletes a4"):
        s = _banking_scenarios()
        mr = s["teardown_result"]
        assert mr is not None
        assert mr.match.node_map["a"] == "a4"
        assert s["teardown_backtracks"] >= 1
        record = apply_rule(mr.induced.rule, s["shared"], mr.match)
        assert s["shared"].nodes.keys() - record.output.nodes.keys() == {"a4"}


@functools.cache
def _random_suite():
    suite = []
    for eor, host, pm in gen.instances(1105, 500):
        stats = MatchStats()
        found = find_locally_complete(eor, host, pm, stats)
        oracle = oracle_locally_complete(eor, host, pm)
        suite.append((eor, host, pm, found, oracle))
    return suite


def test_criterion_05_search_agrees_with_the_oracle(request):
    with _verdict(request, 5, 60.0, "search and brute force agree on 500 random instances"):
        for eor, host, pm, found, oracle in _random_suite():
            assert (found is not None) == bool(oracle)
            if found is not None:
                keys = {mr.sort_key() for mr in oracle}
                assert found.sort_key() in keys
            for mr in oracle:
                assert is_compatible(eor, pm, mr)
                assert is_locally_complete(eor, host, pm, mr)


def test_criterion_06_base_embedding_and_strategy_chain(request):
    with _verdict(request, 6, 30.0, "induced rules embed the base; the strategy chain holds"):
        for eor in (ensure_account_rule(), ensure_no_account_rule()):
            for sel in enumerate_selections(eor, "none"):
                assert check_base_subrule(eor, build_induced_rule(eor, sel))
        suite = _random_suite()
        for eor, host, pm, found, oracle in suite:
            if not oracle:
                continue
            best = max(mr.induced.size for mr in oracle)
            maximal = find_locally_maximal(eor, host, pm)
            assert {mr.sort_key() for mr in maximal} == {
                mr.sort_key() for mr in oracle if mr.induced.size == best
            }
        for eor, host, pm, found, oracle in suite[:100]:
            for sel in enumerate_selections(eor, "none"):
                assert check_base_subrule(eor, build_induced_rule(eor, sel))
            union: dict[tuple, int] = {}
            for other_pm in find_base_prematches(eor, host):
                for mr in find_locally_maximal(eor, host, other_pm):
                    union[mr.sort_key()] = mr.induced.size
            top = find_globally_maximal(eor, host)
            assert bool(top) == bool(union)
            best = max(union.values(), default=None)
            for mr in top:
                assert mr.sort_key() in union
                assert mr.induced.size == best


def _as_transformation(eor, host, mr):
    record = apply_rule(mr.induced.rule, host, mr.match)
    return EffectTransformation(
        eor=eor,
        strategy="locally_complete",
        result=record,
        selection=mr.induced.selection,
        base_prematch=mr.base_prematch,
    )


def test_criterion_07_audits_pass_on_all_produced_transformations(request):
    with _verdict(request, 7, 30.0, "every produced transformation passes the effect audit"):
        s = _banking_scenarios()
        audited = 0
        for mr in (
            *s["oracle_c1"],
            *s["maximal_c1"],
            *s["maximal_c2"],
            *s["global"],
            s["teardown_result"],
        ):
            audit_effect(_as_transformation(
                s["teardown"] if mr is s["teardown_result"] else s["provision"],
                s["shared"] if mr is s["teardown_result"] else s["bank"],
                mr,
            ))
            audited += 1
        for eor, host, pm, found, oracle in _random_suite():
            if found is not None:
                audit_effect(_as_transformation(eor, host, found))
                audited += 1
        assert audited > 100


def test_criterion_08_dpo_round_trips(request):
    with _verdict(request, 8, 30.0, "500 random applications reconstruct both sides"):
        rng = random.Random(808)
        applications = 0
        dangling_seen = 0
        while applications < 500:
            tg = gen.random_type_graph(rng)
            rule = gen.random_plain_rule(rng, tg, nac_chance=0.0)
            host = gen.random_graph(rng, tg, max_nodes=8)
            matches = list(find_injective_extensions(rule.lhs, host))
            if not matches:
                continue
            m = rng.choice(matches)
            deleted_nodes = {
                m.node_map[x]
                for x in rule.lhs.nodes.keys() - rule.interface.nodes.keys()
            }
            deleted_edges = {
                m.edge_map[x]
                for x in rule.lhs.edges.keys() - rule.interface.edges.keys()
            }
            dangles = any(
                eid not in deleted_edges
                for nid in deleted_nodes
                for eid in host.incidence.get(nid, ())
            )
            try:
                record = apply_rule(rule, host, m)
            except DanglingViolation:
                assert dangles
                dangling_seen += 1
                continue
            assert not dangles
            applications += 1
            left = Morphism.inclusion(rule.interface, rule.lhs)
            right = Morphism.inclusion(rule.interface, rule.rhs)
            rebuilt_input, _, _ = pushout(left, record.interface_to_context)
            rebuilt_output, _, _ = pushout(right, record.interface_to_context)
            assert is_isomorphic(rebuilt_input, host)
            assert is_isomorphic(rebuilt_output, record.output)
        assert dangling_seen > 0
        for _ in range(50):
            tg = gen.random_type_graph(rng)
            g = gen.random_graph(rng, tg, max_nodes=4, max_edges=4)
            host = gen.grow(rng, g, 2, 2, "env")
            m = next(iter(find_injective_extensions(g, host)))
            record = apply_rule(Rule(g, g, g), host, m)
            assert dict(record.output.nodes) == dict(host.nodes)
            assert dict(record.output.edges) == dict(host.edges)


SHIFT_TG = TypeGraph("shift", frozenset({"A", "B"}), {"ab": EdgeType("A", "B")})


def _worst_parallel(graphs):
    worst = 1
    for g in graphs:
        for ids in g.edge_classes.values():
            worst = max(worst, len(ids))
    return worst


@functools.cache
def _shift_hosts(max_parallel):
    return list(enumerate_typed_graphs(SHIFT_TG, 5, max_parallel=max_parallel))


def test_criterion_09_shifted_conditions_are_equivalent(request):
    with _verdict(request, 9, 60.0, "shifted conditions agree with originals on every small host"):
        rng = random.Random(909)
        pairs = 0
        while pairs < 20:
            lhs = gen.random_graph(rng, SHIFT_TG, max_nodes=2, max_edges=1, prefix="r")
            nacs = tuple(
                Nac(forbidden)
                for j in range(rng.randint(1, 2))
                for forbidden in [
                    gen.grow(rng, lhs, rng.randint(0, 1), rng.randint(0, 2), f"x{j}_")
                ]
                if len(forbidden.nodes) > len(lhs.nodes)
                or len(forbidden.edges) > len(lhs.edges)
            )
            if not nacs:
                continue
            wide = gen.grow(rng, lhs, rng.randint(0, 1), rng.randint(0, 1), "w")
            mono = Morphism.inclusion(lhs, wide)
            shifted = shift_nacs(mono, nacs)
            bound = _worst_parallel(
                [wide, *(n.forbidden for n in nacs), *(n.forbidden for n in shifted)]
            )
            for host in _shift_hosts(bound):
                for m in find_injective_extensions(wide, host):
                    assert satisfies_nacs(m, shifted) == satisfies_nacs(
                        compose(mono, m), nacs
                    )
            pairs += 1


def test_criterion_10_no_deletions_means_no_backtracking(request):
    with _verdict(request, 10, 10.0, "creation-only searches never backtrack"):
        count = 0
        for eor, host, pm in gen.instances(
            1010, 100, allow_deletion_nodes=False, require_base_applicable=True
        ):
            stats = MatchStats()
            found = find_locally_complete(eor, host, pm, stats)
            assert found is not None
            assert stats.backtracks == 0
            count += 1
        assert count == 100
