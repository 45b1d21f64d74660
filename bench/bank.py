"""The seeded synthetic bank host ``bank(N, seed)``.

One bank ``b`` owns clients ``c0..c{N-1}`` through ``owns_client`` edges.
Each client holds ``randint(0, 2)`` accounts (``accounts`` plus the bank's
``owns_account``), and each account is backed with probability 0.5 by a
portfolio (``portfolio`` from the account, ``portfolios`` from the client,
``owns_portfolio`` from the bank).  The generator keeps, next to the graph,
the facts the benchmark's output checks are derived from, so no check ever
compares the engine against its own earlier output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from effectgraph.core import Edge, TypeGraph, TypedGraph

# seed 0, N = 1000: the baseline shape the roadmap measures against.
BASELINE = (1000, 0, 2452, 4388)


@dataclass(frozen=True)
class Bank:
    graph: TypedGraph
    clients: tuple[str, ...]
    accounts: dict[str, tuple[str, ...]]  # client -> its accounts
    backed: frozenset[str]  # clients holding at least one backed account


def bank(n: int, seed: int, type_graph: TypeGraph) -> Bank:
    rng = random.Random(seed)
    nodes = {"b": "Bank"}
    edges: dict[str, Edge] = {}
    clients, accounts, backed = [], {}, set()
    for i in range(n):
        c = f"c{i}"
        clients.append(c)
        nodes[c] = "Client"
        edges[f"owns_client_b_{c}"] = Edge("owns_client", "b", c)
        held = []
        for j in range(rng.randint(0, 2)):
            a = f"a{i}_{j}"
            held.append(a)
            nodes[a] = "Account"
            edges[f"accounts_{c}_{a}"] = Edge("accounts", c, a)
            edges[f"owns_account_b_{a}"] = Edge("owns_account", "b", a)
            if rng.random() < 0.5:
                p = f"p{i}_{j}"
                backed.add(c)
                nodes[p] = "Portfolio"
                edges[f"portfolio_{a}_{p}"] = Edge("portfolio", a, p)
                edges[f"portfolios_{c}_{p}"] = Edge("portfolios", c, p)
                edges[f"owns_portfolio_b_{p}"] = Edge("owns_portfolio", "b", p)
        accounts[c] = tuple(held)
    return Bank(
        TypedGraph(type_graph, nodes, edges), tuple(clients), accounts, frozenset(backed)
    )


def self_check(type_graph: TypeGraph) -> None:
    """Raise unless ``bank`` still produces the baseline shape."""
    n, seed, want_nodes, want_edges = BASELINE
    g = bank(n, seed, type_graph).graph
    if (len(g.nodes), len(g.edges)) != (want_nodes, want_edges):
        raise RuntimeError(
            f"bank({n}, {seed}) gave {len(g.nodes)} nodes and {len(g.edges)} "
            f"edges, expected {want_nodes} and {want_edges}"
        )


def best_selection_size(b: Bank, client: str | None) -> int:
    """Size of a maximal ``ensure_account`` selection, from the generator's facts.

    The rule reuses an account ``a``, a portfolio ``p`` and the three edges
    ``accounts(c, a)``, ``portfolio(a, p)`` and ``portfolios(c, p)`` wherever
    the host has them; a node is reused whenever one of its type exists.
    ``client=None`` asks for the best over every client."""
    if client is None:
        return max((best_selection_size(b, c) for c in b.clients), default=0)
    if client in b.backed:
        return 5
    has_account = any(b.accounts.values())
    if b.backed:  # some account elsewhere comes with its portfolio edge
        return 3
    if b.accounts[client]:
        return 2  # own account and its accounts edge; no portfolio exists
    return 1 if has_account else 0
