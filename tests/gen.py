"""Seeded random generators shared by the test modules.

Every generator takes a ``random.Random`` so that failures replay from a
seed.  The structures are kept small and dense — few types, parallel
edges, shared endpoints — so brute-force oracles stay fast while the
interesting collisions (dangling deletions, same-type competition between
bindings, NAC overlaps) stay common.
"""

from __future__ import annotations

import random
from typing import Iterable, Iterator, Mapping

from effectgraph import (
    Edge,
    EdgeType,
    EffectOrientedRule,
    ElementSet,
    InducedSelection,
    Morphism,
    Nac,
    PreMatch,
    Rule,
    TypeGraph,
    TypedGraph,
    find_base_prematches,
    shift_nacs,
)

from effectgraph.fixtures import banking_type_graph

from oracles import rule_applicable, with_elements


def empty_graph(tg: TypeGraph) -> TypedGraph:
    return TypedGraph(tg, {}, {})


def empty_selection() -> InducedSelection:
    """The selection of no potential action: the base rule itself."""
    return InducedSelection(ElementSet(), ElementSet())


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
    return with_elements(base, nodes, edges)


def random_graph(
    rng: random.Random,
    tg: TypeGraph,
    max_nodes: int = 6,
    max_edges: int = 8,
    prefix: str = "h",
) -> TypedGraph:
    return grow(
        rng,
        empty_graph(tg),
        rng.randint(0, max_nodes),
        rng.randint(0, max_edges),
        prefix,
    )


def thicken(rng: random.Random, host: TypedGraph, extra: int) -> TypedGraph:
    """``host`` with up to ``extra`` more edges parallel to each of its
    edges, so that its classes hold more parallel edges than a rule's."""
    more = {
        f"{eid}'{j}": e
        for eid, e in sorted(host.edges.items())
        for j in range(rng.randint(0, extra))
    }
    return with_elements(host, edges=more)


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
    parallel: int = 0,
) -> Iterator[tuple[EffectOrientedRule, TypedGraph, PreMatch]]:
    """Yield ``count`` random (rule, host, pre-match) triples.

    Hosts without any pre-match are discarded, so every yielded triple is
    ready for the matcher.  With ``require_base_applicable`` the pre-match
    additionally passes the base rule's dangling check.  With ``parallel``,
    each host edge gets up to that many parallel copies (:func:`thicken`).
    """
    rng = random.Random(seed)
    produced = 0
    while produced < count:
        tg = random_type_graph(rng)
        eor = random_effect_rule(rng, tg, allow_deletion_nodes=allow_deletion_nodes)
        host = random_graph(rng, tg, max_nodes=max_host_nodes, max_edges=10)
        if parallel:
            host = thicken(rng, host, parallel)
        pms = list(find_base_prematches(eor, host))
        if require_base_applicable:
            pms = [
                pm for pm in pms if rule_applicable(eor.base, host, pm.morphism)
            ]
        if not pms:
            continue
        yield eor, host, rng.choice(pms)
        produced += 1


def seeded_bank(n: int, seed: int) -> TypedGraph:
    """The benchmark's generated bank (``bench/bank.py``): clients
    ``c0..c{n-1}`` of one bank, each holding up to two accounts, each
    account backed by a portfolio with probability 0.5."""
    rng = random.Random(seed)
    nodes = {"b": "Bank"}
    edges = {}
    for i in range(n):
        c = f"c{i}"
        nodes[c] = "Client"
        edges[f"owns_client_b_{c}"] = Edge("owns_client", "b", c)
        for j in range(rng.randint(0, 2)):
            a = f"a{i}_{j}"
            nodes[a] = "Account"
            edges[f"accounts_{c}_{a}"] = Edge("accounts", c, a)
            edges[f"owns_account_b_{a}"] = Edge("owns_account", "b", a)
            if rng.random() < 0.5:
                p = f"p{i}_{j}"
                nodes[p] = "Portfolio"
                edges[f"portfolio_{a}_{p}"] = Edge("portfolio", a, p)
                edges[f"portfolios_{c}_{p}"] = Edge("portfolios", c, p)
                edges[f"owns_portfolio_b_{p}"] = Edge("owns_portfolio", "b", p)
    return TypedGraph(banking_type_graph(), nodes, edges)


def renaming(ids: Iterable[str], how: str, seed: int = 0) -> dict[str, str]:
    """A bijection from ``ids`` onto new names ``n0``, ``n1``, …, padded so
    that they sort as their numbers: ``"reverse"`` reverses the order of the
    ids, ``"shuffle"`` permutes it at random from ``seed``."""
    ids = sorted(set(ids))
    order = list(range(len(ids)))
    if how == "reverse":
        order.reverse()
    else:
        random.Random(seed).shuffle(order)
    width = len(str(len(ids)))
    return {x: f"n{i:0{width}d}" for x, i in zip(ids, order)}


def renamed(g: TypedGraph, to: Mapping[str, str]) -> TypedGraph:
    """``g`` with every id ``x`` renamed ``to[x]``."""
    return TypedGraph(
        g.type_graph,
        {to[n]: t for n, t in g.nodes.items()},
        {to[eid]: Edge(e.type, to[e.src], to[e.tgt]) for eid, e in g.edges.items()},
    )


def _sides(r: Rule) -> list[TypedGraph]:
    return [r.lhs, r.interface, r.rhs, *(nac.forbidden for nac in r.nacs)]


def rule_ids(eor: EffectOrientedRule) -> set[str]:
    """Every id of the graphs of ``eor``, NACs included."""
    return {x for g in _sides(eor.base) + _sides(eor.maximal) for x in (*g.nodes, *g.edges)}


def renamed_rule(eor: EffectOrientedRule, to: Mapping[str, str]) -> EffectOrientedRule:
    """``eor`` with every id ``x`` of its graphs renamed ``to[x]``."""

    def side(r: Rule) -> Rule:
        lhs, interface, rhs, *nacs = (renamed(g, to) for g in _sides(r))
        return Rule(lhs, interface, rhs, [Nac(g) for g in nacs])

    return EffectOrientedRule(side(eor.base), side(eor.maximal))
