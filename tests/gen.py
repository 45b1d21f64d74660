"""Seeded random generators shared by the test modules.

Every generator takes a ``random.Random`` so that failures replay from a
seed.  The structures are kept small and dense — few types, parallel
edges, shared endpoints — so brute-force oracles stay fast while the
interesting collisions (dangling deletions, same-type competition between
bindings, NAC overlaps) stay common.
"""

from __future__ import annotations

import random
from typing import Iterator

from effectgraph import (
    Edge,
    EdgeType,
    EffectOrientedRule,
    Morphism,
    Nac,
    PreMatch,
    Rule,
    TypeGraph,
    TypedGraph,
    find_base_prematches,
    shift_nacs,
)

from oracles import rule_applicable


def random_type_graph(
    rng: random.Random, max_node_types: int = 3, max_edge_types: int = 4
) -> TypeGraph:
    names = [f"T{i}" for i in range(rng.randint(1, max_node_types))]
    edge_types = {
        f"e{i}": EdgeType(rng.choice(names), rng.choice(names))
        for i in range(rng.randint(0, max_edge_types))
    }
    return TypeGraph(f"tg_{rng.randrange(1 << 30):08x}", frozenset(names), edge_types)


def grow(
    rng: random.Random, base: TypedGraph, n_nodes: int, n_edges: int, prefix: str
) -> TypedGraph:
    """Extend ``base`` with up to the given number of fresh nodes and edges.

    New ids start with ``prefix``; callers keep prefixes distinct so grown
    graphs stay id-disjoint outside their shared part.
    """
    tg = base.type_graph
    type_names = sorted(tg.node_types)
    nodes = {f"{prefix}{i}": rng.choice(type_names) for i in range(n_nodes)}
    pool = sorted({**dict(base.nodes), **nodes}.items())
    edges: dict[str, Edge] = {}
    edge_type_names = sorted(tg.edge_types)
    if edge_type_names and pool:
        for i in range(n_edges):
            et = rng.choice(edge_type_names)
            ends = tg.edge_types[et]
            srcs = [n for n, t in pool if t == ends.source]
            tgts = [n for n, t in pool if t == ends.target]
            if srcs and tgts:
                edges[f"{prefix}_{et}_{i}"] = Edge(et, rng.choice(srcs), rng.choice(tgts))
    return base.with_elements(nodes, edges)


def random_graph(
    rng: random.Random,
    tg: TypeGraph,
    max_nodes: int = 6,
    max_edges: int = 8,
    prefix: str = "h",
) -> TypedGraph:
    return grow(
        rng,
        TypedGraph.empty(tg),
        rng.randint(0, max_nodes),
        rng.randint(0, max_edges),
        prefix,
    )


def _maybe_nacs(rng: random.Random, lhs: TypedGraph, chance: float) -> tuple[Nac, ...]:
    nacs = []
    if rng.random() < chance:
        for j in range(rng.randint(1, 2)):
            forbidden = grow(rng, lhs, rng.randint(0, 1), rng.randint(1, 2), f"x{j}_")
            # A NAC equal to its root forbids every match; skip those.
            if len(forbidden.nodes) > len(lhs.nodes) or len(forbidden.edges) > len(
                lhs.edges
            ):
                nacs.append(Nac(forbidden))
    return tuple(nacs)


def random_plain_rule(
    rng: random.Random, tg: TypeGraph, nac_chance: float = 0.4
) -> Rule:
    interface = random_graph(rng, tg, max_nodes=3, max_edges=2, prefix="k")
    lhs = grow(rng, interface, rng.randint(0, 2), rng.randint(0, 2), "d")
    rhs = grow(rng, interface, rng.randint(0, 2), rng.randint(0, 2), "c")
    return Rule(lhs, interface, rhs, _maybe_nacs(rng, lhs, nac_chance))


def random_effect_rule(
    rng: random.Random,
    tg: TypeGraph,
    allow_deletion_nodes: bool = True,
    nac_chance: float = 0.3,
) -> EffectOrientedRule:
    interface = random_graph(rng, tg, max_nodes=2, max_edges=1, prefix="k")
    base_lhs = grow(rng, interface, rng.randint(0, 1), rng.randint(0, 1), "bd")
    base_rhs = grow(rng, interface, rng.randint(0, 1), rng.randint(0, 1), "bc")
    del_nodes = rng.randint(0, 2) if allow_deletion_nodes else 0
    maximal_lhs = grow(rng, base_lhs, del_nodes, rng.randint(0, 2), "pd")
    maximal_rhs = grow(rng, base_rhs, rng.randint(0, 2), rng.randint(0, 2), "pc")
    base_nacs = _maybe_nacs(rng, base_lhs, nac_chance)
    maximal_nacs = shift_nacs(Morphism.inclusion(base_lhs, maximal_lhs), base_nacs)
    base = Rule(base_lhs, interface, base_rhs, base_nacs)
    maximal = Rule(maximal_lhs, interface, maximal_rhs, maximal_nacs)
    return EffectOrientedRule(base, maximal)


def instances(
    seed: int,
    count: int,
    max_host_nodes: int = 8,
    allow_deletion_nodes: bool = True,
    require_base_applicable: bool = False,
) -> Iterator[tuple[EffectOrientedRule, TypedGraph, PreMatch]]:
    """Yield ``count`` random (rule, host, pre-match) triples.

    Hosts without any pre-match are discarded, so every yielded triple is
    ready for the matcher.  With ``require_base_applicable`` the pre-match
    additionally passes the base rule's dangling check.
    """
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        tg = random_type_graph(rng)
        eor = random_effect_rule(rng, tg, allow_deletion_nodes=allow_deletion_nodes)
        host = random_graph(rng, tg, max_nodes=max_host_nodes, max_edges=10)
        pms = list(find_base_prematches(eor, host))
        if require_base_applicable:
            pms = [
                pm for pm in pms if rule_applicable(eor.base, host, pm.morphism)
            ]
        if not pms:
            continue
        yield eor, host, rng.choice(pms)
        produced += 1
