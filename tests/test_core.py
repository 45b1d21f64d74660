"""Graphs, morphisms, and the two pushout constructions."""

from __future__ import annotations

import gc
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from effectgraph import (
    DanglingViolation,
    Edge,
    EdgeType,
    Morphism,
    Nac,
    TypeGraph,
    TypedGraph,
    check_morphism,
    find_injective_extensions,
    pushout_complement,
    shift_nacs,
    validate_graph,
)
from effectgraph.core import fresh_id
from effectgraph.fixtures import bank_graph, ensure_account_rule

from gen import grow, random_graph, random_type_graph
from oracles import (
    NonCommuting,
    compose,
    enumerate_typed_graphs,
    graph_union,
    induced,
    is_isomorphic,
    is_pullback_square,
    pushout,
    same_maps,
)

PAIR = TypeGraph(
    "pair",
    frozenset({"A", "B"}),
    {"ab": EdgeType("A", "B"), "aa": EdgeType("A", "A")},
)


def pair_graph() -> TypedGraph:
    return TypedGraph(
        PAIR,
        {"x": "A", "y": "A", "z": "B"},
        {"e1": Edge("ab", "x", "z"), "e2": Edge("aa", "x", "y")},
    )


def test_type_graph_rejects_unknown_endpoint_types():
    with pytest.raises(ValueError, match="unknown source type"):
        TypeGraph("t", frozenset({"A"}), {"e": EdgeType("C", "A")})
    with pytest.raises(ValueError, match="unknown target type"):
        TypeGraph("t", frozenset({"A"}), {"e": EdgeType("A", "C")})


def test_validate_graph_reports_each_violation_kind():
    g = TypedGraph(
        PAIR,
        {"x": "A", "w": "C", "e1": "B"},
        {
            "e1": Edge("ab", "x", "e1"),
            "bad_type": Edge("zz", "x", "x"),
            "gone": Edge("ab", "x", "nope"),
            "wrong_end": Edge("ab", "w", "e1"),
        },
    )
    codes = {(d.code, d.element) for d in validate_graph(g, PAIR)}
    assert ("duplicate-id", "e1") in codes
    assert ("unknown-node-type", "w") in codes
    assert ("unknown-edge-type", "bad_type") in codes
    assert ("dangling-endpoint", "gone") in codes
    assert ("endpoint-type-mismatch", "wrong_end") in codes
    assert not validate_graph(pair_graph(), PAIR)


def test_validate_graph_flags_foreign_type_graph():
    other = TypeGraph("other", frozenset({"A"}), {})
    diags = validate_graph(TypedGraph.empty(other), PAIR)
    assert [d.code for d in diags] == ["type-graph-mismatch"]


def test_with_elements_rejects_collisions_and_missing_endpoints():
    g = pair_graph()
    with pytest.raises(ValueError, match="already present"):
        g.with_elements(nodes={"x": "A"})
    with pytest.raises(ValueError, match="already present"):
        g.with_elements(edges={"e1": Edge("aa", "x", "y")})
    with pytest.raises(ValueError, match="missing endpoints"):
        g.with_elements(edges={"e9": Edge("aa", "x", "ghost")})


def test_cached_views_are_consistent():
    g = pair_graph()
    assert g.sorted_nodes == ("x", "y", "z")
    assert g.nodes_by_type == {"A": ("x", "y"), "B": ("z",)}
    assert g.edge_classes == {("ab", "x", "z"): ("e1",), ("aa", "x", "y"): ("e2",)}
    assert g.incidence == {"x": ("e1", "e2"), "y": ("e2",), "z": ("e1",)}


def _indexes_by_global_sort(g: TypedGraph) -> tuple[dict, dict, dict]:
    """The three indexes grouped from every id in ascending order."""
    by_type: dict = {}
    classes: dict = {}
    incidence: dict = {nid: () for nid in g.nodes}
    for nid in sorted(g.nodes):
        by_type[g.nodes[nid]] = by_type.get(g.nodes[nid], ()) + (nid,)
    for eid in sorted(g.edges):
        e = g.edges[eid]
        key = (e.type, e.src, e.tgt)
        classes[key] = classes.get(key, ()) + (eid,)
        for n in {e.src, e.tgt} & incidence.keys():
            incidence[n] += (eid,)
    return by_type, classes, incidence


def test_indexes_equal_a_global_sort():
    rng = random.Random(41)
    for _ in range(200):
        tg = random_type_graph(rng)
        g = random_graph(rng, tg, max_nodes=8, max_edges=12)
        if g.nodes and tg.edge_types and rng.random() < 0.3:
            # An edge whose source is missing gets no incidence bucket for it.
            edge = Edge(rng.choice(sorted(tg.edge_types)), "ghost", rng.choice(g.sorted_nodes))
            g = TypedGraph(tg, g.nodes, {**g.edges, "dangling": edge})
        built = (g.nodes_by_type, g.edge_classes, g.incidence)
        assert built == _indexes_by_global_sort(g)


def test_incidence_counts_loops_once():
    g = TypedGraph(PAIR, {"x": "A"}, {"l": Edge("aa", "x", "x")})
    assert g.incidence == {"x": ("l",)}


def test_morphism_identity_and_composition_laws():
    rng = random.Random(2)
    for _ in range(20):
        tg = random_type_graph(rng)
        a = random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="a")
        b = grow(rng, a, rng.randint(0, 2), rng.randint(0, 2), "b")
        c = grow(rng, b, rng.randint(0, 2), rng.randint(0, 2), "c")
        f = Morphism.inclusion(a, b)
        g = Morphism.inclusion(b, c)
        assert not check_morphism(f)
        assert same_maps(compose(Morphism.identity(a), f), f)
        assert same_maps(compose(f, Morphism.identity(b)), f)
        assert same_maps(compose(f, g), Morphism.inclusion(a, c))


def test_check_morphism_reports_each_violation_kind():
    g = pair_graph()
    h = TypedGraph(PAIR, {"u": "A", "v": "B"}, {"f": Edge("ab", "u", "v")})
    broken = Morphism(
        g,
        h,
        {"x": "u", "y": "ghost", "extra": "u"},
        {"e1": "missing", "e2": "f"},
    )
    codes = {(d.code, d.element) for d in check_morphism(broken)}
    assert ("not-total", "z") in codes
    assert ("unknown-image", "y") in codes
    assert ("spurious-mapping", "extra") in codes
    assert ("unknown-image", "e1") in codes
    assert ("type-not-preserved", "e2") in codes

    squash = Morphism(
        TypedGraph(PAIR, {"x": "A", "y": "A"}, {}),
        TypedGraph(PAIR, {"u": "A"}, {}),
        {"x": "u", "y": "u"},
        {},
    )
    assert [d.code for d in check_morphism(squash)] == ["not-injective"]

    askew = Morphism(
        TypedGraph(PAIR, {"x": "A", "y": "B"}, {"e": Edge("ab", "x", "y")}),
        TypedGraph(
            PAIR,
            {"u": "A", "v": "B", "w": "B"},
            {"f": Edge("ab", "u", "v"), "f2": Edge("ab", "u", "w")},
        ),
        {"x": "u", "y": "w"},
        {"e": "f"},
    )
    assert [d.code for d in check_morphism(askew)] == ["non-commuting"]


def _brute_force_injective(pattern: TypedGraph, host: TypedGraph):
    """All injective morphisms, assembled with no cleverness at all."""
    node_ids = pattern.sorted_nodes
    node_choices = [
        [h for h in host.sorted_nodes if host.nodes[h] == pattern.nodes[p]]
        for p in node_ids
    ]
    edge_ids = pattern.sorted_edges
    found = set()
    for images in itertools.product(*node_choices):
        if len(set(images)) != len(images):
            continue
        nmap = dict(zip(node_ids, images))
        edge_choices = []
        for eid in edge_ids:
            e = pattern.edges[eid]
            edge_choices.append(
                [
                    h
                    for h, he in host.edges.items()
                    if he.type == e.type
                    and he.src == nmap[e.src]
                    and he.tgt == nmap[e.tgt]
                ]
            )
        for eimages in itertools.product(*edge_choices):
            if len(set(eimages)) != len(eimages):
                continue
            found.add(
                (frozenset(nmap.items()), frozenset(zip(edge_ids, eimages)))
            )
    return found


@given(st.integers(0, 10**6))
def test_find_injective_extensions_matches_brute_force(seed):
    rng = random.Random(seed)
    tg = random_type_graph(rng)
    pattern = random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p")
    host = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")
    results = list(find_injective_extensions(pattern, host))
    for m in results:
        assert not check_morphism(m)
    got = {
        (frozenset(m.node_map.items()), frozenset(m.edge_map.items()))
        for m in results
    }
    assert len(got) == len(results)
    assert got == _brute_force_injective(pattern, host)


def test_find_injective_extensions_respects_partial_assignment():
    g = pair_graph()
    host = TypedGraph(
        PAIR,
        {"u1": "A", "u2": "A", "u3": "A", "v": "B"},
        {
            "f1": Edge("ab", "u1", "v"),
            "f2": Edge("aa", "u1", "u2"),
            "f3": Edge("aa", "u1", "u3"),
        },
    )
    all_results = list(find_injective_extensions(g, host))
    pinned = list(find_injective_extensions(g, host, ({"y": "u3"}, {})))
    assert [m.node_map for m in pinned] == [
        m.node_map for m in all_results if m.node_map["y"] == "u3"
    ]
    via_edge = list(find_injective_extensions(g, host, ({}, {"e2": "f3"})))
    assert [m.edge_map["e2"] for m in via_edge] == ["f3"]
    with pytest.raises(ValueError, match="conflicts with node"):
        list(find_injective_extensions(g, host, ({"y": "u2"}, {"e2": "f3"})))
    with pytest.raises(ValueError, match="not injective"):
        list(find_injective_extensions(g, host, ({"x": "u1", "y": "u1"}, {})))


def test_find_injective_extensions_is_deterministic():
    rng = random.Random(5)
    tg = random_type_graph(rng)
    pattern = random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p")
    host = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")
    first = [(m.node_map, m.edge_map) for m in find_injective_extensions(pattern, host)]
    second = [(m.node_map, m.edge_map) for m in find_injective_extensions(pattern, host)]
    assert first == second


def test_find_injective_extensions_leaves_no_garbage_cycles():
    """Finished and dropped streams are freed by reference counting alone."""
    client = ensure_account_rule().base.lhs
    held = client.with_elements({"a": "Account"}, {"e": Edge("accounts", "c", "a")})
    host = bank_graph()
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            for pattern in (client, held):
                assert list(find_injective_extensions(pattern, host))
                next(find_injective_extensions(pattern, host))
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_shift_nacs_leaves_no_garbage_cycles():
    """Shifting NACs, which enumerates overlaps recursively, is freed by
    reference counting alone."""
    root = TypedGraph(PAIR, {"k": "B"}, {})
    forbidden = root.with_elements({"n": "A"}, {"ne": Edge("ab", "n", "k")})
    wide = root.with_elements({"other": "A"})
    inclusion = Morphism.inclusion(root, wide)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            assert len(shift_nacs(inclusion, [Nac(forbidden)])) == 2
        assert gc.collect() == 0
    finally:
        gc.enable()


def _as_networkx(g: TypedGraph, nx):
    out = nx.MultiDiGraph()
    for nid, ntype in g.nodes.items():
        out.add_node(nid, type=ntype)
    for eid, e in g.edges.items():
        out.add_edge(e.src, e.tgt, key=eid, type=e.type)
    return out


def _edges_fit(host_edges, pattern_edges) -> bool:
    """Between one pair of nodes the host holds at least as many edges of
    each type as the pattern."""
    have = Counter(attrs["type"] for attrs in host_edges.values())
    need = Counter(attrs["type"] for attrs in pattern_edges.values())
    return all(have[t] >= k for t, k in need.items())


def test_find_injective_extensions_agrees_with_networkx():
    """The node maps of all injective morphisms, with and without a
    root-fixing partial map, against networkx's VF2 multigraph
    monomorphisms with node and edge types as match attributes."""
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import MultiDiGraphMatcher

    rng = random.Random(5150)
    maps_seen = rooted_seen = 0
    for _ in range(200):
        tg = random_type_graph(rng)
        root = random_graph(rng, tg, max_nodes=2, max_edges=2, prefix="r")
        pattern = grow(rng, root, rng.randint(0, 2), rng.randint(0, 3), "p")
        host = grow(rng, root, rng.randint(1, 5), rng.randint(2, 8), "h")
        matcher = MultiDiGraphMatcher(
            _as_networkx(host, nx),
            _as_networkx(pattern, nx),
            node_match=lambda h, p: h["type"] == p["type"],
            edge_match=_edges_fit,
        )
        expected = {
            frozenset((p, h) for h, p in mono.items())
            for mono in matcher.subgraph_monomorphisms_iter()
        }
        got = {
            frozenset(m.node_map.items())
            for m in find_injective_extensions(pattern, host)
        }
        assert got == expected
        fixed = ({n: n for n in root.nodes}, {e: e for e in root.edges})
        got_rooted = {
            frozenset(m.node_map.items())
            for m in find_injective_extensions(pattern, host, fixed)
        }
        assert got_rooted == {
            nmap for nmap in expected if all((n, n) in nmap for n in root.nodes)
        }
        maps_seen += len(got)
        rooted_seen += bool(root.nodes) and len(got_rooted) < len(got)
    assert maps_seen > 1000 and rooted_seen > 30


def test_empty_pattern_has_exactly_the_empty_morphism():
    host = pair_graph()
    results = list(find_injective_extensions(TypedGraph.empty(PAIR), host))
    assert len(results) == 1
    assert results[0].node_map == {} and results[0].edge_map == {}


def test_fresh_id_picks_smallest_free_suffix():
    assert fresh_id("x", set().__contains__) == "x#1"
    assert fresh_id("x", {"x"}.__contains__) == "x#1"
    assert fresh_id("x", {"x", "x#1", "x#2"}.__contains__) == "x#3"
    assert fresh_id("x", {"x#2"}.__contains__) == "x#1"


def test_graph_union_merges_overlapping_id_subgraphs():
    base = pair_graph()
    left = induced(base, ["x", "y"], ["e2"])
    right = induced(base, ["x", "z"], ["e1"])
    assert is_isomorphic(graph_union(left, right), base)
    merged = graph_union(left, right)
    assert dict(merged.nodes) == dict(base.nodes)
    assert dict(merged.edges) == dict(base.edges)


def test_is_isomorphic_on_relabelled_graphs():
    rng = random.Random(9)
    for _ in range(15):
        tg = random_type_graph(rng)
        g = random_graph(rng, tg, max_nodes=5, max_edges=6)
        renamed_nodes = {n: f"r_{n}" for n in g.nodes}
        h = TypedGraph(
            tg,
            {renamed_nodes[n]: t for n, t in g.nodes.items()},
            {
                f"r_{e}": Edge(v.type, renamed_nodes[v.src], renamed_nodes[v.tgt])
                for e, v in g.edges.items()
            },
        )
        assert is_isomorphic(g, h)
        if g.nodes:
            assert not is_isomorphic(g, induced(h, list(h.sorted_nodes[1:]), []))


@given(st.integers(0, 10**6))
def test_pushout_of_inclusions(seed):
    rng = random.Random(seed)
    tg = random_type_graph(rng)
    shared = random_graph(rng, tg, max_nodes=3, max_edges=2, prefix="k")
    left = grow(rng, shared, rng.randint(0, 2), rng.randint(0, 2), "b")
    right = grow(rng, shared, rng.randint(0, 2), rng.randint(0, 2), "c")
    f = Morphism.inclusion(shared, left)
    g = Morphism.inclusion(shared, right)
    d, in_left, in_right = pushout(f, g)
    assert not check_morphism(in_left)
    assert not check_morphism(in_right)
    assert same_maps(compose(f, in_left), compose(g, in_right))
    assert len(d.nodes) == len(left.nodes) + len(right.nodes) - len(shared.nodes)
    assert len(d.edges) == len(left.edges) + len(right.edges) - len(shared.edges)
    covered_nodes = in_left.node_images | in_right.node_images
    covered_edges = in_left.edge_images | in_right.edge_images
    assert covered_nodes == set(d.nodes) and covered_edges == set(d.edges)
    # A pushout of injective legs is also a pullback.
    assert is_pullback_square(f, g, in_left, in_right)


def test_pushout_renames_clashing_ids():
    shared = TypedGraph(PAIR, {"k": "A"}, {})
    left = shared.with_elements(nodes={"n": "A"})
    right = shared.with_elements(nodes={"n": "B"})
    d, _, in_right = pushout(
        Morphism.inclusion(shared, left), Morphism.inclusion(shared, right)
    )
    assert d.nodes["n"] == "A"
    assert in_right.node_map["n"] == "n~1"
    assert d.nodes["n~1"] == "B"


def test_pushout_rejects_mismatched_legs():
    a = TypedGraph(PAIR, {"k": "A"}, {})
    b = a.with_elements(nodes={"n": "A"})
    with pytest.raises(ValueError, match="share their source"):
        pushout(Morphism.inclusion(a, b), Morphism.inclusion(b, b))
    squash = Morphism(
        TypedGraph(PAIR, {"x": "A", "y": "A"}, {}),
        TypedGraph(PAIR, {"u": "A"}, {}),
        {"x": "u", "y": "u"},
        {},
    )
    with pytest.raises(ValueError, match="not a valid injection"):
        pushout(squash, Morphism.identity(squash.src_graph))


def _independent_dangling(host: TypedGraph, deleted_nodes, deleted_edges) -> bool:
    for eid, e in host.edges.items():
        if eid in deleted_edges:
            continue
        if e.src in deleted_nodes or e.tgt in deleted_nodes:
            return False
    return True


@given(st.integers(0, 10**6))
def test_pushout_complement_then_pushout_restores_host(seed):
    rng = random.Random(seed)
    tg = random_type_graph(rng)
    interface = random_graph(rng, tg, max_nodes=2, max_edges=1, prefix="k")
    lhs = grow(rng, interface, rng.randint(0, 2), rng.randint(0, 2), "d")
    host = random_graph(rng, tg, max_nodes=6, max_edges=7, prefix="h")
    matches = list(find_injective_extensions(lhs, host))
    if not matches:
        return
    m = matches[rng.randrange(len(matches))]
    l = Morphism.inclusion(interface, lhs)
    deleted_nodes = {m.node_map[v] for v in lhs.nodes.keys() - interface.nodes.keys()}
    deleted_edges = {m.edge_map[e] for e in lhs.edges.keys() - interface.edges.keys()}
    if not _independent_dangling(host, deleted_nodes, deleted_edges):
        with pytest.raises(DanglingViolation):
            pushout_complement(l, m)
        return
    context, k_to_context, context_to_host = pushout_complement(l, m)
    assert not check_morphism(k_to_context)
    assert set(context.nodes) == host.nodes.keys() - deleted_nodes
    assert set(context.edges) == host.edges.keys() - deleted_edges
    rebuilt, _, _ = pushout(l, k_to_context)
    assert is_isomorphic(rebuilt, host)
    # The complement square itself must commute and be a pullback.
    assert same_maps(compose(l, m), compose(k_to_context, context_to_host))
    assert is_pullback_square(k_to_context, l, context_to_host, m)


def test_pullback_square_detects_missing_intersection():
    # Two copies of an A-node meeting in the host, but an empty apex: the
    # square commutes yet misses the shared point, so it is no pullback.
    apex = TypedGraph.empty(PAIR)
    b = TypedGraph(PAIR, {"x": "A"}, {})
    c = TypedGraph(PAIR, {"y": "A"}, {})
    d = TypedGraph(PAIR, {"u": "A"}, {})
    top = Morphism(apex, b, {}, {})
    left = Morphism(apex, c, {}, {})
    right = Morphism(b, d, {"x": "u"}, {})
    bottom = Morphism(c, d, {"y": "u"}, {})
    assert not is_pullback_square(top, left, right, bottom)
    assert is_pullback_square(
        Morphism(b, b, {"x": "x"}, {}),
        Morphism(b, c, {"x": "y"}, {}),
        right,
        bottom,
    )


def test_pullback_square_raises_on_non_commuting_legs():
    b = TypedGraph(PAIR, {"x": "A"}, {})
    d = TypedGraph(PAIR, {"u": "A", "w": "A"}, {})
    with pytest.raises(NonCommuting):
        is_pullback_square(
            Morphism.identity(b),
            Morphism.identity(b),
            Morphism(b, d, {"x": "u"}, {}),
            Morphism(b, d, {"x": "w"}, {}),
        )


def test_enumerate_typed_graphs_counts_node_only_case():
    tg = TypeGraph("n", frozenset({"A", "B"}), {})
    graphs = list(enumerate_typed_graphs(tg, 2))
    # One representative per multiset of node types: {}, A, B, AA, AB, BB.
    assert len(graphs) == 6
    assert all(not g.edges for g in graphs)


def test_enumerate_typed_graphs_respects_parallel_bound():
    tg = TypeGraph("l", frozenset({"A"}), {"aa": EdgeType("A", "A")})
    singles = list(enumerate_typed_graphs(tg, 1, max_parallel=1))
    doubles = list(enumerate_typed_graphs(tg, 1, max_parallel=2))
    assert len(singles) == 3  # empty, lone node, node with loop
    assert len(doubles) == 4  # plus the double loop
    for g in doubles:
        assert all(len(ids) <= 2 for ids in g.edge_classes.values())
        assert not validate_graph(g, tg)
