"""Graphs, morphisms, and the two pushout constructions."""

from __future__ import annotations

import gc
import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from effectgraph import (
    DanglingViolation,
    Edge,
    EdgeType,
    MatchStats,
    Morphism,
    Nac,
    TypeGraph,
    TypedGraph,
    apply_rule,
    check_morphism,
    find_base_prematches,
    find_injective_extensions,
    pushout_complement,
    shift_nacs,
    transform,
    validate_graph,
)
from effectgraph.core import fresh_id, is_id_subgraph
from effectgraph.documents import prematch_from_maps
from effectgraph.fixtures import (
    bank_graph,
    banking_type_graph,
    ensure_account_rule,
    ensure_no_account_rule,
)
from effectgraph.matching import _leaves

from gen import empty_graph, grow, instances, random_graph, random_type_graph
from oracles import (
    NonCommuting,
    compose,
    enumerate_typed_graphs,
    graph_union,
    identity,
    induced,
    is_isomorphic,
    is_pullback_square,
    pushout,
    same_maps,
    with_elements,
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
    diags = validate_graph(empty_graph(other), PAIR)
    assert [d.code for d in diags] == ["type-graph-mismatch"]


def test_reprs_summarise_graphs_and_maps():
    g = pair_graph()
    assert repr(PAIR) == "TypeGraph('pair', 2 node types, 2 edge types)"
    assert repr(g) == "TypedGraph(3 nodes, 2 edges over 'pair')"
    m = Morphism(g, g, {"x": "y", "y": "x", "z": "z"}, {})
    assert repr(m) == "Morphism({'x': 'y', 'y': 'x', 'z': 'z'}, {})"


def test_a_graph_is_not_equal_to_a_value_of_another_kind():
    g = pair_graph()
    assert g.__eq__(1) is NotImplemented
    assert (g == 1) is False


def test_is_id_subgraph_compares_edges_by_type_and_ends():
    g = pair_graph()
    kept = TypedGraph(PAIR, dict(g.nodes), {"e1": g.edges["e1"]})
    moved = TypedGraph(PAIR, dict(g.nodes), {"e1": Edge("ab", "y", "z")})
    assert is_id_subgraph(kept, g)
    assert not is_id_subgraph(moved, g)


def test_with_elements_rejects_collisions_and_missing_endpoints():
    g = pair_graph()
    with pytest.raises(ValueError, match="already present"):
        with_elements(g, nodes={"x": "A"})
    with pytest.raises(ValueError, match="already present"):
        with_elements(g, edges={"e1": Edge("aa", "x", "y")})
    with pytest.raises(ValueError, match="missing endpoints"):
        with_elements(g, edges={"e9": Edge("aa", "x", "ghost")})


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


def test_an_edge_is_its_own_class_key():
    """An :class:`Edge` equals and hashes like its ``(type, src, tgt)``
    tuple, so the class keys are the edges and a plain tuple finds them."""
    e = Edge("ab", "x", "z")
    assert e == ("ab", "x", "z") and hash(e) == hash(("ab", "x", "z"))
    g = pair_graph()
    assert g.edge_classes[("ab", "x", "z")] == ("e1",)
    assert all(type(key) is Edge for key in g.edge_classes)
    assert all(g.edges[ids[0]] is key for key, ids in g._rooted().edge_classes.items())


def test_edge_classes_sort_a_large_class_and_keep_singletons():
    # The 2,000 parallel edges arrive in descending id order, so their class
    # must be sorted; the singletons and the self-loop stay one-edge classes.
    edges = {f"p{i:04d}": Edge("aa", "x", "y") for i in reversed(range(2000))}
    edges.update(s1=Edge("ab", "x", "z"), s0=Edge("ab", "y", "z"), loop=Edge("aa", "x", "x"))
    g = TypedGraph(PAIR, {"x": "A", "y": "A", "z": "B"}, edges)
    assert next(iter(g.edges)) == "p1999"
    assert g.edge_classes == _indexes_by_global_sort(g)[1]
    assert all(type(ids) is tuple for ids in g.edge_classes.values())
    assert len(g.edge_classes[("aa", "x", "y")]) == 2000
    assert g.edge_classes[("aa", "x", "x")] == ("loop",)


def test_incidence_counts_loops_once():
    g = TypedGraph(PAIR, {"x": "A"}, {"l": Edge("aa", "x", "x")})
    assert g.incidence == {"x": ("l",)}


def _profiles_by_definition(g: TypedGraph, types) -> tuple[dict, dict]:
    """The profile index of the node ``types`` and the node -> profile map,
    from ``g``'s nodes and edges: a node's incident edges counted by (edge
    type, is source, is target), as sorted (kind, count) pairs."""
    of = {}
    for n in sorted(n for n, t in g.nodes.items() if t in types):
        incident = (e for e in g.edges.values() if n in (e.src, e.tgt))
        of[n] = tuple(sorted(Counter((e.type, e.src == n, e.tgt == n) for e in incident).items()))
    index: dict = {t: {} for t in types}
    for n, p in of.items():
        index[g.nodes[n]].setdefault(p, []).append(n)
    return index, of


def assert_profiles_match_definition(g: TypedGraph) -> None:
    """The store's profile index, rerooted to ``g``, without its empty
    buckets, and its node -> profile map are those ``g`` defines."""
    store = g._rooted()
    kept = {t: {p: ids for p, ids in b.items() if ids} for t, b in store.profiles.items()}
    assert (kept, store.profile_of) == _profiles_by_definition(g, store.profiles.keys())


@pytest.mark.parametrize("seed", [23, 2323])
def test_profile_index_follows_steps_and_reroots(seed):
    """A rule with a potential deletion node builds its node type's profile
    index on the host it reads; reading a step's output replays its delta
    into the index, and reading an earlier version replays the deltas back.
    After every move the store's index and node -> profile map are those
    built from the nodes and edges of the version read."""
    rng = random.Random(seed)
    seen: Counter = Counter()
    for eor, host, _ in instances(seed, 120):
        if not eor.potential_deletions.nodes:
            continue
        versions = [host]
        for _ in range(15):
            g = rng.choice(versions)
            seen["older"] += g._link is not None
            pms = list(find_base_prematches(eor, g))
            if not pms:
                continue
            t = transform(eor, g, "locally_complete", rng.choice(pms))
            assert_profiles_match_definition(g)
            if t is not None:
                record = t.result
                versions.append(record.output)
                assert_profiles_match_definition(record.output)
                assert_profiles_match_definition(rng.choice(versions))
                seen["steps"] += 1
                seen["recreated"] += bool(record.deleted.nodes & record.created.nodes)
        seen["built"] += bool(host._rooted().profiles)
    assert seen["built"] > 40 and seen["steps"] > 200, seen
    assert seen["older"] > 100 and seen["recreated"] > 50, seen


def test_a_suspended_teardown_resumes_on_its_profile_buckets():
    """A teardown search is suspended at each leaf while the caller applies
    that leaf and reads the output's profile index, which takes the leaf's
    account out of the bucket the search draws from.  Resumed, the search
    yields the leaves it yields without the interruption."""
    nodes = {"c": "Client", "c2": "Client", "shared": "Account"}
    edges = {"held": Edge("accounts", "c", "shared"), "also": Edge("accounts", "c2", "shared")}
    for i in range(1, 7):
        nodes[f"a{i}"] = "Account"
        edges[f"h{i}"] = Edge("accounts", "c", f"a{i}")
        if i % 2:  # a backed account, with its portfolio
            nodes[f"p{i}"] = "Portfolio"
            edges[f"ap{i}"] = Edge("portfolio", f"a{i}", f"p{i}")
            edges[f"cp{i}"] = Edge("portfolios", "c", f"p{i}")
    host = TypedGraph(banking_type_graph(), nodes, edges)
    teardown = ensure_no_account_rule()
    pm = prematch_from_maps(teardown, host, {"c": "c"}, {})

    def leaves(interrupted: bool) -> list:
        out = []
        for leaf in _leaves(teardown, host, pm, MatchStats()):
            out.append(leaf.match.sort_key())
            if interrupted:
                output = apply_rule(leaf.induced.rule, host, leaf.match).output
                assert leaf.match.node_map["a"] not in output.nodes
                assert_profiles_match_definition(output)
        return out

    want = leaves(False)
    assert [dict(m[0])["a"] for m in want] == ["a1", "a3", "a5"]
    assert leaves(True) == want
    assert_profiles_match_definition(host)


def test_a_step_undone_at_once_leaves_the_profile_index_alone(replays):
    """A query's step that changes an account's profile leaves the store at
    its input, so reading the input back patches nothing.  Reading the
    output moves the account, and reading the input again moves it back."""
    host = bank_graph()
    store = host._rooted()
    store.by_profile("Account")
    before = dict(store.profile_of)
    replays.clear()  # the shared fixture's store may have rested at another version
    provision = ensure_account_rule()
    pm = prematch_from_maps(provision, host, {"c": "c2"}, {})
    record = transform(provision, host, "locally_maximal", pm).result
    comatch, created = record.comatch, record.created
    ends = {
        comatch.node_map[end]
        for rid, e in comatch.src_graph.edges.items()
        if comatch.edge_map[rid] in created.edges
        for end in (e.src, e.tgt)
    }
    assert "a2" in ends and not record.deleted  # the step adds an edge at a2
    host._rooted()
    assert replays == [] and all(store.profile_of[n] is p for n, p in before.items())
    assert_profiles_match_definition(record.output)
    assert store.profile_of["a2"] != before["a2"]
    host._rooted()
    assert store.profile_of == before and len(replays) == 2


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
        assert same_maps(compose(identity(a), f), f)
        assert same_maps(compose(f, identity(b)), f)
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


def test_check_morphism_reports_a_spurious_edge_mapping():
    g = pair_graph()
    host = with_elements(g, edges={"e3": Edge("aa", "x", "y")})
    ids = Morphism.inclusion(g, host)
    extra = Morphism(g, host, ids.node_map, {**ids.edge_map, "ghost": "e3"})
    assert [(d.code, d.element) for d in check_morphism(extra)] == [
        ("spurious-mapping", "ghost")
    ]


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
    # Each other refusal of a partial map; e3 runs parallel to e2.
    parallel = with_elements(g, edges={"e3": Edge("aa", "x", "y")})
    for pattern, partial, message in [
        (g, ({"w": "u1"}, {}), "unknown pattern node 'w'"),
        (g, ({"z": "u1"}, {}), "sends node 'z' to incompatible 'u1'"),
        (g, ({}, {"e9": "f1"}), "unknown pattern edge 'e9'"),
        (g, ({}, {"e1": "f9"}), "sends edge 'e1' to missing 'f9'"),
        (g, ({}, {"e1": "f2"}), "sends edge 'e1' to a different type"),
        (g, ({"y": "u1"}, {"e1": "f1"}), "not injective after endpoint closure"),
        (parallel, ({}, {"e2": "f2", "e3": "f2"}), "partial edge map is not injective"),
    ]:
        with pytest.raises(ValueError, match=message):
            list(find_injective_extensions(pattern, host, partial))


def test_find_injective_extensions_is_deterministic():
    rng = random.Random(5)
    tg = random_type_graph(rng)
    pattern = random_graph(rng, tg, max_nodes=3, max_edges=3, prefix="p")
    host = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")
    first = [(m.node_map, m.edge_map) for m in find_injective_extensions(pattern, host)]
    second = [(m.node_map, m.edge_map) for m in find_injective_extensions(pattern, host)]
    assert first == second


def test_find_injective_extensions_binds_every_node_before_the_edges():
    """The pinned stream order: free nodes in ascending id order, each over
    its candidates in ascending order; then each class of parallel edges
    takes the permutations of its free host class in ascending order."""
    pattern = TypedGraph(
        PAIR,
        {"u": "A", "v": "A", "w": "B"},
        {"p1": Edge("aa", "u", "v"), "p2": Edge("aa", "u", "v")},
    )
    host = TypedGraph(
        PAIR,
        {"u0": "A", "v0": "A", "b1": "B", "b2": "B"},
        {h: Edge("aa", "u0", "v0") for h in ("h1", "h2", "h3")},
    )
    stream = find_injective_extensions(pattern, host)
    assert [(m.node_map["w"], m.edge_map["p1"], m.edge_map["p2"]) for m in stream] == [
        ("b1", "h1", "h2"), ("b1", "h1", "h3"), ("b1", "h2", "h1"),
        ("b1", "h2", "h3"), ("b1", "h3", "h1"), ("b1", "h3", "h2"),
        ("b2", "h1", "h2"), ("b2", "h1", "h3"), ("b2", "h2", "h1"),
        ("b2", "h2", "h3"), ("b2", "h3", "h1"), ("b2", "h3", "h2"),
    ]
    pinned = find_injective_extensions(pattern, host, ({}, {"p1": "h2"}))
    assert [(m.node_map["w"], m.edge_map["p2"]) for m in pinned] == [
        ("b1", "h1"), ("b1", "h3"), ("b2", "h1"), ("b2", "h3")
    ]


def test_find_injective_extensions_draws_through_the_least_edge_id():
    """A free node next to two bound ones draws its candidates from the
    incident edges of the image joined by its least pattern edge id, in
    whatever order the pattern's edges were stored."""
    host = TypedGraph(
        PAIR,
        {"hub": "A", "leaf": "A", **{f"b{i}": "B" for i in range(6)}},
        {
            **{f"h{i}": Edge("ab", "hub", f"b{i}") for i in range(6)},
            **{f"l{i}": Edge("ab", "leaf", f"b{i}") for i in range(2)},
        },
    )
    read: list[str] = []

    class Reads(dict):
        def __getitem__(self, node: str) -> list[str]:
            read.append(node)
            return dict.__getitem__(self, node)

    store = host._rooted()
    store.__dict__["incidence"] = Reads(store.incidence)
    x, y = Edge("ab", "l", "v"), Edge("ab", "h", "v")
    partial = ({"h": "hub", "l": "leaf"}, {})
    for edges in ({"x": x, "y": y}, {"y": y, "x": x}):
        pattern = TypedGraph(PAIR, {"h": "A", "l": "A", "v": "B"}, edges)
        read.clear()
        found = [m.node_map["v"] for m in find_injective_extensions(pattern, host, partial)]
        assert found == ["b0", "b1"] and read == ["leaf"]


def test_find_injective_extensions_reads_each_image_once_per_stream():
    """Two accounts drawn through one bound client read the client's
    incident edges once in the stream, not once per draw: the second is
    drawn again for each candidate of the first."""
    tg = banking_type_graph()
    host = TypedGraph(
        tg,
        {"c0": "Client", **{f"a{i}": "Account" for i in range(4)}},
        {f"e{i}": Edge("accounts", "c0", f"a{i}") for i in range(4)},
    )
    read: list[str] = []

    class Reads(dict):
        def __getitem__(self, node: str) -> list[str]:
            read.append(node)
            return dict.__getitem__(self, node)

    store = host._rooted()
    store.__dict__["incidence"] = Reads(store.incidence)
    pattern = TypedGraph(
        tg,
        {"c": "Client", "x": "Account", "y": "Account"},
        {"cx": Edge("accounts", "c", "x"), "cy": Edge("accounts", "c", "y")},
    )
    found = list(find_injective_extensions(pattern, host, ({"c": "c0"}, {})))
    assert len(found) == 12 and read == ["c0"]


# The SHA-256 of ``repr`` of ``_enumeration_parts`` over seeds 0-299,
# computed before the injective search and the NAC shift were shortened.
# Both must keep every result and its order.
ENUMERATION_DIGEST = "3c2e7492f4490b99db12bf98a1891b6c668888d29efc79f7bcbbec61f38e40be"


def _graph_key(g: TypedGraph) -> tuple:
    edges = ((eid, e.type, e.src, e.tgt) for eid, e in g.edges.items())
    return tuple(sorted(g.nodes.items())), tuple(sorted(edges))


def _enumeration_parts(seed: int) -> list:
    """Both enumerators' outputs, in stream order, on one seeded instance:
    the injective morphisms of a pattern into a host with parallel edges,
    without and with a partial map cut from one of them; then the NACs
    shifted along an inclusion and along up to two renaming monos."""
    rng = random.Random(seed)
    tg = random_type_graph(rng)
    pattern = random_graph(rng, tg, max_nodes=3, max_edges=4, prefix="p")
    host = random_graph(rng, tg, max_nodes=5, max_edges=8, prefix="h")
    host = with_elements(
        host, edges={f"{eid}'": e for eid, e in sorted(host.edges.items()) if rng.random() < 0.4}
    )
    found = list(find_injective_extensions(pattern, host))
    parts = [[m.sort_key() for m in found]]
    if found:
        m = rng.choice(found)
        partial = (
            {n: m.node_map[n] for n in sorted(m.node_map) if rng.random() < 0.5},
            {e: m.edge_map[e] for e in sorted(m.edge_map) if rng.random() < 0.5},
        )
        extensions = find_injective_extensions(pattern, host, partial)
        parts.append([x.sort_key() for x in extensions])
    root = random_graph(rng, tg, max_nodes=2, max_edges=1, prefix="k")
    nacs = [
        Nac(grow(rng, root, rng.randint(0, 2), rng.randint(0, 2), f"x{j}_"))
        for j in range(rng.randint(1, 2))
    ]
    wide = grow(rng, root, rng.randint(0, 2), rng.randint(0, 3), "w")
    monos = [Morphism.inclusion(root, wide)]
    monos += itertools.islice(find_injective_extensions(root, host), 2)
    for b in monos:
        parts.append([_graph_key(nac.forbidden) for nac in shift_nacs(b, nacs)])
    return parts


def test_enumeration_digest_is_unchanged():
    parts = [_enumeration_parts(seed) for seed in range(300)]
    assert hashlib.sha256(repr(parts).encode()).hexdigest() == ENUMERATION_DIGEST


def test_find_injective_extensions_leaves_no_garbage_cycles():
    """Finished and dropped streams are freed by reference counting alone."""
    client = ensure_account_rule().base.lhs
    held = with_elements(client, {"a": "Account"}, {"e": Edge("accounts", "c", "a")})
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
    forbidden = with_elements(root, {"n": "A"}, {"ne": Edge("ab", "n", "k")})
    wide = with_elements(root, {"other": "A"})
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
    results = list(find_injective_extensions(empty_graph(PAIR), host))
    assert len(results) == 1
    assert results[0].node_map == {} and results[0].edge_map == {}


def test_fresh_id_picks_smallest_free_suffix():
    assert fresh_id("x", set().__contains__) == "x#1"
    assert fresh_id("x", {"x"}.__contains__) == "x#1"
    assert fresh_id("x", {"x", "x#1", "x#2"}.__contains__) == "x#3"
    assert fresh_id("x", {"x#2"}.__contains__) == "x#1"


def test_fresh_id_probes_from_a_floor_and_raises_it():
    taken = {"x#1", "x#2", "x#3", "x#5"}
    probed = []

    def counted(x: str) -> bool:
        probed.append(x)
        return x in taken

    floors = {"x": 2, "y": 7}
    assert fresh_id("x", counted, floors) == "x#4"
    assert probed == ["x#3", "x#4"]
    assert floors == {"x": 4, "y": 7}
    taken.add("x#4")
    assert fresh_id("x", counted, floors) == "x#6"
    assert floors == {"x": 6, "y": 7}
    assert fresh_id("z", counted, floors) == "z#1"
    assert floors == {"x": 6, "y": 7, "z": 1}


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
    left = with_elements(shared, nodes={"n": "A"})
    right = with_elements(shared, nodes={"n": "B"})
    d, _, in_right = pushout(
        Morphism.inclusion(shared, left), Morphism.inclusion(shared, right)
    )
    assert d.nodes["n"] == "A"
    assert in_right.node_map["n"] == "n~1"
    assert d.nodes["n~1"] == "B"


def test_pushout_rejects_mismatched_legs():
    a = TypedGraph(PAIR, {"k": "A"}, {})
    b = with_elements(a, nodes={"n": "A"})
    with pytest.raises(ValueError, match="share their source"):
        pushout(Morphism.inclusion(a, b), Morphism.inclusion(b, b))
    squash = Morphism(
        TypedGraph(PAIR, {"x": "A", "y": "A"}, {}),
        TypedGraph(PAIR, {"u": "A"}, {}),
        {"x": "u", "y": "u"},
        {},
    )
    with pytest.raises(ValueError, match="not a valid injection"):
        pushout(squash, identity(squash.src_graph))


def test_pushout_complement_refuses_legs_that_do_not_compose():
    g = pair_graph()
    k = TypedGraph(PAIR, {"x": "A"}, {})
    other = TypedGraph(PAIR, {"x": "A", "y": "A"}, {})
    with pytest.raises(ValueError, match="do not compose"):
        pushout_complement(Morphism.inclusion(k, g), Morphism.inclusion(other, g))


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
    apex = empty_graph(PAIR)
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
            identity(b),
            identity(b),
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
