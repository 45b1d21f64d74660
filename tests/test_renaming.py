"""Results follow the shape of a rule and a host, not their ids.

Each public search runs again on a copy of its rule and host whose ids a
seeded bijection renamed, order-reversing or shuffled.  Mapped back, the
copy's results are the original's, as a set, and ``find_match`` returns
the least of the copy's by key."""

from __future__ import annotations

import pytest

from effectgraph import (
    EffectOrientedRule,
    MatchResult,
    Morphism,
    PreMatch,
    TypedGraph,
    find_all_locally_complete,
    find_base_prematches,
    find_globally_maximal,
    find_locally_maximal,
)
from effectgraph.fixtures import ensure_account_rule, ensure_no_account_rule
from effectgraph.semantics import (
    GLOBALLY_MAXIMAL,
    LOCALLY_COMPLETE,
    LOCALLY_MAXIMAL,
    find_match,
)

from gen import instances, renamed, renamed_rule, renaming, rule_ids, seeded_bank


def key_back(mr: MatchResult, rule_back: dict, host_back: dict) -> tuple:
    """The :meth:`MatchResult.sort_key` of ``mr`` with its rule ids and host
    ids mapped back through ``rule_back`` and ``host_back``."""
    sel = mr.induced.selection

    def ids(xs) -> tuple:
        return tuple(sorted(rule_back[x] for x in xs))

    def pairs(m) -> tuple:
        return tuple(sorted((rule_back[k], host_back[v]) for k, v in m.items()))

    return (
        ids(sel.del_extra.nodes), ids(sel.del_extra.edges),
        ids(sel.preserve_extra.nodes), ids(sel.preserve_extra.edges),
        pairs(mr.match.node_map), pairs(mr.match.edge_map),
    )


def check_renamed(
    eor: EffectOrientedRule, host: TypedGraph, pms: list[PreMatch], how: str, seed: int
) -> int:
    """Every public search on ``eor`` and ``host``, at each of ``pms`` and
    over all pre-matches, against the same search on a renamed copy.  The
    number of results compared."""
    to_rule = renaming(rule_ids(eor), how, seed)
    to_host = renaming([*host.nodes, *host.edges], how, seed + 1)
    eor2, host2 = renamed_rule(eor, to_rule), renamed(host, to_host)
    rule_back = {y: x for x, y in to_rule.items()}
    host_back = {y: x for x, y in to_host.items()}

    def keys(results) -> list[tuple]:
        return sorted(mr.sort_key() for mr in results)

    def same(results, renamed_results, strategy, pm2=None) -> int:
        back = sorted(key_back(mr, rule_back, host_back) for mr in renamed_results)
        assert keys(results) == back
        found = find_match(eor2, host2, strategy, pm2)
        least = min(renamed_results, key=MatchResult.sort_key, default=None)
        if strategy == LOCALLY_COMPLETE:  # the greedy pass's first match
            assert (found is None) == (least is None)
            assert found is None or found.sort_key() in keys(renamed_results)
        else:
            assert (found and found.sort_key()) == (least and least.sort_key())
        return len(results)

    compared = 0
    for pm in pms:
        nm, em = pm.morphism.node_map, pm.morphism.edge_map
        pm2 = PreMatch(
            Morphism(
                eor2.base.lhs, host2,
                {to_rule[k]: to_host[v] for k, v in nm.items()},
                {to_rule[k]: to_host[v] for k, v in em.items()},
            )
        )
        for find, strategy in (
            (find_all_locally_complete, LOCALLY_COMPLETE),
            (find_locally_maximal, LOCALLY_MAXIMAL),
        ):
            compared += same(find(eor, host, pm), find(eor2, host2, pm2), strategy, pm2)
    return compared + same(
        find_globally_maximal(eor, host), find_globally_maximal(eor2, host2), GLOBALLY_MAXIMAL
    )


def unowned(host: TypedGraph) -> TypedGraph:
    """``host`` less the bank's edges to accounts and portfolios, so that a
    client's accounts and portfolios can be deleted."""
    kept = host.type_graph.edge_types.keys() - {"owns_account", "owns_portfolio"}
    edges = {e: d for e, d in host.edges.items() if d.type in kept}
    return TypedGraph(host.type_graph, host.nodes, edges)


@pytest.mark.parametrize("how", ["reverse", "shuffle"])
@pytest.mark.parametrize("rule", [ensure_account_rule, ensure_no_account_rule])
def test_fixture_rules_on_seeded_banks_follow_the_shape(rule, how):
    eor, compared = rule(), 0
    for seed in range(3):
        for host in (seeded_bank(20, seed), unowned(seeded_bank(20, seed))):
            pms = list(find_base_prematches(eor, host))
            compared += check_renamed(eor, host, pms, how, seed)
    assert compared > 50


@pytest.mark.parametrize("how", ["reverse", "shuffle"])
def test_random_instances_follow_the_shape(how):
    compared = 0
    for seed in (1105, 4711):
        for k, (eor, host, pm) in enumerate(instances(seed, 40)):
            compared += check_renamed(eor, host, [pm], how, k)
    assert compared > 500
