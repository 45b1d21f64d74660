"""Rewrite steps derived from their input as a delta.

An output graph copies its input's element dicts and patches whichever
indexes the input had built; every patched index must equal the one built
from scratch, and the sorted id tuples are computed on access, never
stored.  The record's context is computed on first access and equals the
one :func:`pushout_complement` builds, created ids follow the ``rid#k``
scheme computed from the materialised context, and an output keeps no
reference to its input.
"""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter

import pytest

from effectgraph import (
    DanglingViolation,
    Edge,
    EdgeType,
    Morphism,
    NacViolated,
    NotInjective,
    Rule,
    TypeGraph,
    TypedGraph,
    apply_rule,
    check_morphism,
    find_base_prematches,
    find_injective_extensions,
    pushout_complement,
    transform,
)

from gen import instances, random_graph, random_plain_rule, random_type_graph
from oracles import compose, is_pullback_square, same_maps

INDEXES = ("nodes_by_type", "edge_classes", "incidence")

CHAIN = TypeGraph(
    "chain",
    frozenset({"A", "B"}),
    {"ab": EdgeType("A", "B"), "bb": EdgeType("B", "B")},
)


def swap_rule() -> Rule:
    """Delete an A-node hanging off a B-node, create a fresh B-successor."""
    interface = TypedGraph(CHAIN, {"k": "B"}, {})
    lhs = interface.with_elements(nodes={"d": "A"}, edges={"de": Edge("ab", "d", "k")})
    rhs = interface.with_elements(nodes={"c": "B"}, edges={"ce": Edge("bb", "k", "c")})
    return Rule(lhs, interface, rhs)


def built(g: TypedGraph) -> set[str]:
    return {name for name in INDEXES if name in g.__dict__}


def assert_indexes_match_rebuild(g: TypedGraph) -> None:
    fresh = TypedGraph(g.type_graph, g.nodes, g.edges)
    for name in built(g):
        assert g.__dict__[name] == getattr(fresh, name), name


def expected_created_ids(r: Rule, context: TypedGraph) -> dict[str, str]:
    """The id scheme on the materialised context: in ascending rule-id
    order, nodes before edges, each created element gets ``rid#k`` for the
    smallest ``k >= 1`` not taken by the context or an earlier creation."""
    taken = set(context.nodes) | set(context.edges)
    ids = {}
    for rid in sorted(r.rhs.nodes.keys() - r.interface.nodes.keys()) + sorted(
        r.rhs.edges.keys() - r.interface.edges.keys()
    ):
        k = 1
        while f"{rid}#{k}" in taken:
            k += 1
        ids[rid] = f"{rid}#{k}"
        taken.add(ids[rid])
    return ids


def check_step(r: Rule, record, seen: Counter) -> None:
    """Everything a derived step promises, checked against references."""
    host, out = record.input, record.output
    assert "context" not in record.__dict__
    assert built(out) == built(host)
    assert_indexes_match_rebuild(out)
    for g in (host, out):
        assert g.sorted_nodes == tuple(sorted(g.nodes))
        assert g.sorted_edges == tuple(sorted(g.edges))
        assert "sorted_nodes" not in g.__dict__ and "sorted_edges" not in g.__dict__

    created = expected_created_ids(r, record.context)
    comatch = {**record.comatch.node_map, **record.comatch.edge_map}
    assert {rid: comatch[rid] for rid in created} == created
    assert record.created.nodes | record.created.edges == set(created.values())
    context = record.context
    assert dict(context.nodes) == {
        n: t for n, t in host.nodes.items() if n not in record.deleted.nodes
    }
    assert dict(context.edges) == {
        e: v for e, v in host.edges.items() if e not in record.deleted.edges
    }
    assert record.created.nodes <= out.nodes.keys()
    assert record.created.edges <= out.edges.keys()
    assert {
        n: t for n, t in out.nodes.items() if n not in record.created.nodes
    } == dict(context.nodes)
    assert {
        e: v for e, v in out.edges.items() if e not in record.created.edges
    } == dict(context.edges)
    assert_indexes_match_rebuild(context)

    # The pushout complement's span through the lazy context closes both
    # squares of the derivation.
    complement, k_to_context, context_to_input = pushout_complement(
        r.left_inclusion, record.match
    )
    assert dict(complement.nodes) == dict(context.nodes)
    assert dict(complement.edges) == dict(context.edges)
    context_to_output = Morphism.inclusion(complement, out)
    assert not check_morphism(k_to_context)
    assert same_maps(
        compose(r.left_inclusion, record.match),
        compose(k_to_context, context_to_input),
    )
    assert same_maps(
        compose(r.right_inclusion, record.comatch),
        compose(k_to_context, context_to_output),
    )
    assert is_pullback_square(
        k_to_context, r.left_inclusion, context_to_input, record.match
    )
    assert is_pullback_square(
        k_to_context, r.right_inclusion, context_to_output, record.comatch
    )

    fresh = TypedGraph(out.type_graph, out.nodes, out.edges)
    changed = [host.edges[e] for e in record.deleted.edges]
    changed += [out.edges[e] for e in record.created.edges]
    seen["steps"] += 1
    seen["deleted_nodes"] += bool(record.deleted.nodes)
    seen["deleted_edges"] += bool(record.deleted.edges)
    seen["parallel"] += any(len(ids) > 1 for ids in fresh.edge_classes.values())
    seen["self_loop"] += any(e.src == e.tgt for e in changed)
    seen["nac"] += bool(r.nacs)


def first_step(r: Rule, host: TypedGraph):
    for m in find_injective_extensions(r.lhs, host):
        try:
            return apply_rule(r, host, m)
        except (DanglingViolation, NacViolated):
            continue
    return None


@pytest.mark.parametrize("seed", [3, 17, 2024])
def test_plain_rule_chains_patch_indexes_like_a_rebuild(seed):
    rng = random.Random(seed)
    seen: Counter = Counter()
    for _ in range(150):
        tg = random_type_graph(rng)
        r = random_plain_rule(rng, tg, nac_chance=0.5)
        host = random_graph(rng, tg, max_nodes=8, max_edges=12)
        for name in rng.sample(INDEXES, rng.randint(0, len(INDEXES))):
            getattr(host, name)
        for _ in range(4):
            record = first_step(r, host)
            if record is None:
                break
            check_step(r, record, seen)
            host = record.output
    for what in ("deleted_nodes", "deleted_edges", "parallel", "self_loop", "nac"):
        assert seen[what] > 0, (what, seen)


@pytest.mark.parametrize("seed", [1105, 1010])
def test_effect_chains_patch_indexes_like_a_rebuild(seed):
    seen: Counter = Counter()
    for eor, host, pm in instances(seed, 120):
        for name in INDEXES:
            getattr(host, name)
        for _ in range(3):
            t = transform(eor, host, "locally_complete", pm)
            if t is None:
                break
            check_step(t.result.rule, t.result, seen)
            host = t.result.output
            pm = next(iter(find_base_prematches(eor, host)), None)
            if pm is None:
                break
    assert seen["steps"] > 100
    assert seen["deleted_nodes"] > 0 and seen["nac"] > 0


def test_recreated_ids_move_between_index_buckets():
    # Deleting the A-node ``c#1`` frees its id, which the created B-node
    # takes again; likewise for the edge ``ce#1``.
    r = swap_rule()
    host = TypedGraph(CHAIN, {"k0": "B", "c#1": "A"}, {"ce#1": Edge("ab", "c#1", "k0")})
    for name in INDEXES:
        getattr(host, name)
    m = Morphism(r.lhs, host, {"k": "k0", "d": "c#1"}, {"de": "ce#1"})
    record = apply_rule(r, host, m)
    out = record.output
    assert record.deleted.nodes == record.created.nodes == {"c#1"}
    assert record.deleted.edges == record.created.edges == {"ce#1"}
    assert out.nodes_by_type == {"B": ("c#1", "k0")}
    assert out.edge_classes == {("bb", "k0", "c#1"): ("ce#1",)}
    assert out.incidence == {"k0": ("ce#1",), "c#1": ("ce#1",)}
    check_step(r, record, Counter())


def test_output_does_not_keep_its_input_alive():
    r = swap_rule()
    host = TypedGraph(
        CHAIN,
        {"b1": "B", "a1": "A", "a2": "A"},
        {"f1": Edge("ab", "a1", "b1"), "f2": Edge("ab", "a2", "b1")},
    )
    for name in INDEXES:
        getattr(host, name)
    alive = weakref.ref(host)
    m = Morphism(r.lhs, host, {"k": "b1", "d": "a1"}, {"de": "f1"})
    record = apply_rule(r, host, m)
    record.context  # the cached context goes with the record
    out = record.output
    del record, m, host
    gc.collect()
    assert alive() is None
    assert dict(out.nodes) == {"b1": "B", "a2": "A", "c#1": "B"}
    assert_indexes_match_rebuild(out)


def test_match_validation_keeps_its_precedence():
    host = TypedGraph(CHAIN, {"a1": "A", "b1": "B"}, {})
    merge = TypedGraph(CHAIN, {"x": "A", "y": "A", "z": "B"}, {})
    rule = Rule(merge, TypedGraph.empty(CHAIN), TypedGraph.empty(CHAIN))
    # Not total and not injective: the invalid morphism is reported first.
    squashed = Morphism(merge, host, {"x": "a1", "y": "a1"}, {})
    with pytest.raises(ValueError, match="not a valid morphism"):
        apply_rule(rule, host, squashed)
    total = Morphism(merge, host, {"x": "a1", "y": "a1", "z": "b1"}, {})
    with pytest.raises(NotInjective):
        apply_rule(rule, host, total)
    # The public constructions still validate their inputs.
    with pytest.raises(ValueError, match="id-subgraph"):
        Morphism.inclusion(merge, host)
    with pytest.raises(ValueError, match="match is not a valid injection"):
        pushout_complement(Morphism.identity(merge), total)
