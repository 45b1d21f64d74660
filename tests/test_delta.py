"""Rewrite steps derived from their input as a delta.

An output shares one store with its input, the store of their lineage:
the step applies its delta to the store's element dicts and to whichever
indexes the lineage has built, and any version read later is rerooted to.
Every index, read at any version, must equal the one built from scratch
for that version, and a mapping handed out by a public property never
changes afterwards.  The sorted id tuples are computed on access, never
stored.  The record's context is computed on first access and equals the
one :func:`pushout_complement` builds, created ids follow the ``rid#k``
scheme computed from the materialised context, and an input dropped once
its output has been read is freed.  An output carries fresh-id floors,
``base -> j`` with ``base#1 … base#j`` all ids of the output, so a chain
of steps probes a constant number of ids per created element however long
it runs.  A step allocates no more on a large host than on a small one.
"""

from __future__ import annotations

import copy
import gc
import itertools
import random
import tracemalloc
import weakref
from collections import Counter
from typing import NamedTuple

import pytest

from effectgraph import (
    DanglingViolation,
    Edge,
    EdgeType,
    MatchStats,
    Morphism,
    NacViolated,
    NotInjective,
    Rule,
    TypeGraph,
    TypedGraph,
    apply_rule,
    audit_effect,
    check_morphism,
    find_base_prematches,
    find_injective_extensions,
    pushout_complement,
    rules,
    transform,
)
from effectgraph import core
from effectgraph.core import fresh_id
from effectgraph.documents import prematch_from_maps
from effectgraph.fixtures import banking_type_graph, ensure_account_rule
from effectgraph.matching import _leaves

from gen import empty_graph, instances, random_graph, random_plain_rule, random_type_graph
from oracles import compose, identity, is_pullback_square, same_maps, with_elements

INDEXES = ("nodes_by_type", "edge_classes", "incidence")

CHAIN = TypeGraph(
    "chain",
    frozenset({"A", "B"}),
    {"ab": EdgeType("A", "B"), "bb": EdgeType("B", "B")},
)


def swap_rule() -> Rule:
    """Delete an A-node hanging off a B-node, create a fresh B-successor."""
    interface = TypedGraph(CHAIN, {"k": "B"}, {})
    lhs = with_elements(interface, nodes={"d": "A"}, edges={"de": Edge("ab", "d", "k")})
    rhs = with_elements(interface, nodes={"c": "B"}, edges={"ce": Edge("bb", "k", "c")})
    return Rule(lhs, interface, rhs)


def built(g: TypedGraph) -> set[str]:
    """The indexes the store of ``g``'s lineage has built."""
    return {name for name in INDEXES if name in g._store.__dict__}


def store_index(g: TypedGraph, name: str) -> dict:
    """Index ``name`` as the store holds it once rerooted to ``g``, in the
    form of the public property: tuples, no empty type buckets."""
    index = getattr(g._rooted(), name)
    return {k: tuple(ids) for k, ids in index.items() if ids or name == "incidence"}


def assert_indexes_match_rebuild(g: TypedGraph) -> None:
    fresh = TypedGraph(g.type_graph, g.nodes, g.edges)
    for name in built(g):
        assert store_index(g, name) == getattr(fresh, name), name


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


def test_a_graph_refuses_assignment_and_its_copy_starts_a_lineage():
    host = TypedGraph(CHAIN, {"a": "A", "b": "B"}, {"f": Edge("ab", "a", "b")})
    with pytest.raises(AttributeError, match="cannot assign to field 'nodes'"):
        host.nodes = {}
    assert host.incidence == {"a": ("f",), "b": ("f",)}  # builds the store
    twin = copy.copy(host)
    r = swap_rule()
    record = apply_rule(r, twin, Morphism(r.lhs, twin, {"k": "b", "d": "a"}, {"de": "f"}))
    assert dict(host.nodes) == {"a": "A", "b": "B"} and set(host.edges) == {"f"}
    assert dict(record.output.nodes) == {"b": "B", "c#1": "B"}
    assert twin == host and twin._store is not host._store


def check_step(r: Rule, record, seen: Counter) -> None:
    """Everything a derived step promises, checked against references."""
    host, out = record.input, record.output
    assert "context" not in record.__dict__
    assert out._store is host._store  # one store per lineage
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


def test_an_input_dropped_after_its_output_is_read_is_freed():
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
    out.nodes  # reroots the store to ``out``, which holds no older version
    gc.collect()
    assert alive() is None
    assert dict(out.nodes) == {"b1": "B", "a2": "A", "c#1": "B"}
    assert_indexes_match_rebuild(out)


def test_an_unread_output_keeps_its_input_alive_and_is_freed_unread(replays):
    """An output never read holds its input, the root, with the delta it
    has not replayed: the input lives while the output does.  Dropped
    unread, the output is freed, and the store, which never moved, holds
    the input."""
    r = swap_rule()
    nodes = {"b1": "B", "a1": "A", "a2": "A"}
    edges = {"f1": Edge("ab", "a1", "b1"), "f2": Edge("ab", "a2", "b1")}
    host = TypedGraph(CHAIN, nodes, edges)
    for name in INDEXES:
        getattr(host, name)
    alive, store = weakref.ref(host), host._store
    m = Morphism(r.lhs, host, {"k": "b1", "d": "a1"}, {"de": "f1"})
    out = apply_rule(r, host, m).output
    del m, host
    gc.collect()
    assert alive() is not None and out._link[0] is alive()
    host, unread = alive(), weakref.ref(out)
    del out
    gc.collect()
    assert unread() is None and replays == []
    assert host._link is None and (store.nodes, store.edges) == (nodes, edges)
    assert_indexes_match_rebuild(host)
    assert replays == []


def test_match_validation_keeps_its_precedence():
    host = TypedGraph(CHAIN, {"a1": "A", "b1": "B"}, {})
    merge = TypedGraph(CHAIN, {"x": "A", "y": "A", "z": "B"}, {})
    rule = Rule(merge, empty_graph(CHAIN), empty_graph(CHAIN))
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
        pushout_complement(identity(merge), total)


# ---------------------------------------------------------------------------
# fresh ids probed from carried floors


def floors(g: TypedGraph) -> dict[str, int]:
    return g.__dict__.get("_floors", {})


def assert_floors_hold(g: TypedGraph) -> None:
    for base, j in floors(g).items():
        for k in range(1, j + 1):
            assert f"{base}#{k}" in g.nodes or f"{base}#{k}" in g.edges, (base, j, k)


def count_probes(monkeypatch) -> list[int]:
    """Make ``apply_rule`` record, per created element, how many ids its
    ``fresh_id`` call probes; returns the list the counts go to."""
    probes: list[int] = []

    def counting_fresh_id(base, taken, *floors):
        def counted(x: str) -> bool:
            probes[-1] += 1
            return taken(x)

        probes.append(0)
        return fresh_id(base, counted, *floors)

    monkeypatch.setattr(rules, "fresh_id", counting_fresh_id)
    return probes


def swap_host(n: int) -> TypedGraph:
    """``n`` A-nodes ``c#i`` hanging off one B-node by edges ``ce#i``: ids of
    the form ``swap_rule`` creates, so its steps free ids below its floors."""
    nodes = {"k0": "B", **{f"c#{i}": "A" for i in range(1, n + 1)}}
    edges = {f"ce#{i}": Edge("ab", f"c#{i}", "k0") for i in range(1, n + 1)}
    return TypedGraph(CHAIN, nodes, edges)


def random_chain(rng: random.Random, r: Rule, host: TypedGraph, steps: int):
    """Up to ``steps`` chained records of ``r`` from ``host``, each at a
    match drawn at random from the first 20 the search yields."""
    for _ in range(steps):
        matches = list(itertools.islice(find_injective_extensions(r.lhs, host), 20))
        rng.shuffle(matches)
        for m in matches:
            try:
                record = apply_rule(r, host, m)
            except (DanglingViolation, NacViolated):
                continue
            yield record
            host = record.output
            break
        else:
            return


def below_floor(record) -> bool:
    """Whether the step deletes some ``base#k`` with ``k`` at most the
    input's floor for ``base``."""
    for x in record.deleted.nodes | record.deleted.edges:
        base, _, k = x.rpartition("#")
        if k.isdigit() and 1 <= int(k) <= floors(record.input).get(base, 0):
            return True
    return False


@pytest.mark.parametrize("seed", [5, 29])
def test_chained_steps_take_the_smallest_free_id(seed):
    """Ids probed from the carried floors equal the scheme computed from
    scratch on each step's materialised context, over chains of up to 25
    steps, among them steps that free an id below a floor and take it
    again."""
    rng = random.Random(seed)
    seen: Counter = Counter()
    chains = [(swap_rule(), swap_host(40))]
    for _ in range(150):
        tg = random_type_graph(rng)
        host = random_graph(rng, tg, max_nodes=8, max_edges=12)
        chains.append((random_plain_rule(rng, tg, nac_chance=0.3), host))
    for r, host in chains:
        ever_created: set[str] = set()
        length = 0
        for record in random_chain(rng, r, host, 25):
            created = expected_created_ids(r, record.context)
            comatch = {**record.comatch.node_map, **record.comatch.edge_map}
            assert {rid: comatch[rid] for rid in created} == created
            assert_floors_hold(record.output)
            ids = record.created.nodes | record.created.edges
            seen["steps"] += 1
            seen["below_floor"] += below_floor(record)
            seen["taken_again"] += bool(ids & ever_created)
            ever_created |= ids
            length += 1
        seen["long_chains"] += length >= 20
    assert seen["steps"] > 500, seen
    assert seen["long_chains"] >= 10, seen
    assert seen["below_floor"] > 20 and seen["taken_again"] > 20, seen


def test_look_alike_ids_leave_a_floor_alone(monkeypatch):
    """Only ``x#`` followed by ``str(k)``, k >= 1, names ``x#k``: deleting a
    look-alike keeps the floor, so the next ``x`` is found in one probe."""
    probes = count_probes(monkeypatch)
    empty = empty_graph(CHAIN)
    r = Rule(TypedGraph(CHAIN, {"d": "A"}, {}), empty, TypedGraph(CHAIN, {"x": "B"}, {}))
    look_alikes = ["x#0", "x#01", "x#", "x#1#1", "x#\u0663", "x#" + "1" * 5000]
    host = TypedGraph(
        CHAIN, {"x#1": "B", "x#2": "A", "a0": "A", **dict.fromkeys(look_alikes, "A")}, {}
    )

    def step(g: TypedGraph, victim: str) -> TypedGraph:
        probes.clear()
        record = apply_rule(r, g, Morphism(r.lhs, g, {"d": victim}, {}))
        assert record.comatch.node_map["x"] == expected_created_ids(r, record.context)["x"]
        assert_floors_hold(record.output)
        return record.output

    host = step(host, "a0")  # no floor yet: probes x#1, x#2, x#3
    assert probes == [3] and floors(host) == {"x": 3}
    for i, victim in enumerate(look_alikes, start=4):
        host = step(host, victim)
        assert probes == [1] and floors(host) == {"x": i}, victim
        assert host.nodes[f"x#{i}"] == "B"
    # The genuine ``x#2`` lowers the floor, and its id is taken again.
    host = step(host, "x#2")
    assert probes == [1] and floors(host) == {"x": 2} and host.nodes["x#2"] == "B"


def test_a_long_chain_probes_a_constant_number_of_ids(monkeypatch):
    """300 ``ensure_account`` steps on one bank without restarts: after the
    first step, every created element is found within two probes."""
    probes = count_probes(monkeypatch)
    eor = ensure_account_rule()
    nodes = {"b": "Bank", **{f"c{i}": "Client" for i in range(300)}}
    edges = {f"owns_client_b_c{i}": Edge("owns_client", "b", f"c{i}") for i in range(300)}
    host = TypedGraph(banking_type_graph(), nodes, edges)
    per_step = []
    for i in range(300):
        probes.clear()
        pm = prematch_from_maps(eor, host, {"c": f"c{i}"}, {})
        t = transform(eor, host, "locally_complete", pm)
        assert t is not None and t.result.created
        host = t.result.output
        per_step.append(list(probes))
    assert all(per_step)
    assert max(max(counts) for counts in per_step[1:]) <= 2
    assert len(host.edges) > 600


# ---------------------------------------------------------------------------
# one store per lineage, rerooted on read


class Version(NamedTuple):
    """A graph of a lineage with the content it must read as, worked out
    from the steps that made it, and the floors it was made with."""

    graph: TypedGraph
    nodes: dict[str, str]
    edges: dict[str, Edge]
    floors: dict[str, int]


def stepped(r: Rule, v: Version, m: Morphism):
    """The record of ``r`` at ``m`` on ``v``, its output's version, and the
    version of its context; ids deleted and created are read off the match
    and the comatch."""
    record = apply_rule(r, v.graph, m)
    gone_nodes = {m.node_map[x] for x in r.lhs.nodes if x not in r.interface.nodes}
    gone_edges = {m.edge_map[x] for x in r.lhs.edges if x not in r.interface.edges}
    nodes = {n: t for n, t in v.nodes.items() if n not in gone_nodes}
    edges = {e: x for e, x in v.edges.items() if e not in gone_edges}
    context = (nodes, edges)
    nodes, edges = dict(nodes), dict(edges)
    cn, ce = record.comatch.node_map, record.comatch.edge_map
    for rid in r.rhs.nodes.keys() - r.interface.nodes.keys():
        nodes[cn[rid]] = r.rhs.nodes[rid]
    for rid in r.rhs.edges.keys() - r.interface.edges.keys():
        e = r.rhs.edges[rid]
        edges[ce[rid]] = Edge(e.type, cn[e.src], cn[e.tgt])
    out = Version(record.output, nodes, edges, dict(floors(record.output)))
    return record, out, context


def assert_reads_as(v: Version, public: bool) -> None:
    """``v`` read from the store, rerooted to it, and, if ``public``, its
    public snapshots equal a fresh rebuild of its content; its floors are
    those it was made with, and they hold."""
    fresh = TypedGraph(v.graph.type_graph, v.nodes, v.edges)
    store = v.graph._rooted()
    assert store.nodes == v.nodes and store.edges == v.edges
    for name in built(v.graph):
        assert store_index(v.graph, name) == getattr(fresh, name), name
    if public:
        for name in ("nodes", "edges", *INDEXES):
            assert getattr(v.graph, name) == getattr(fresh, name), name
        assert v.graph == fresh
    assert floors(v.graph) == v.floors
    for base, j in v.floors.items():
        assert all(f"{base}#{k}" in v.nodes or f"{base}#{k}" in v.edges for k in range(1, j + 1))


def maps(ms) -> list[tuple[dict, dict]]:
    return [(dict(m.node_map), dict(m.edge_map)) for m in ms]


@pytest.mark.parametrize("seed", [41, 4242])
def test_versions_read_in_any_order_equal_a_fresh_rebuild(seed):
    """Steps from old and new versions, record contexts, index builds,
    reads and suspended searches, in random order: every version reads as
    a fresh rebuild of its content, and a search suspended while the store
    moves elsewhere yields what it yields on a fresh copy.  Some steps
    delete and create nothing, so rerooting across them replays nothing;
    every index is built right after such a step and checked at once."""
    rng = random.Random(seed)
    seen: Counter = Counter()
    for _ in range(100):
        tg = random_type_graph(rng)
        r = random_plain_rule(rng, tg, nac_chance=0.3)
        still = Rule(r.lhs, r.lhs, r.lhs)  # its steps have an empty delta
        host = random_graph(rng, tg, max_nodes=8, max_edges=12)
        versions = [Version(host, dict(host.nodes), dict(host.edges), {})]
        records = []
        for _ in range(50):
            v = rng.choice(versions)
            action = rng.random()
            if action < 0.4:
                step = still if rng.random() < 0.25 else r
                matches = list(itertools.islice(find_injective_extensions(r.lhs, v.graph), 10))
                rng.shuffle(matches)
                for m in matches:
                    try:
                        record, out, context = stepped(step, v, m)
                    except (DanglingViolation, NacViolated):
                        continue
                    seen["branch"] += v is not versions[-1]
                    if step is still:
                        seen["empty"] += 1
                        for name in INDEXES:
                            getattr(out.graph._rooted(), name)
                        assert_reads_as(v, public=False)
                        assert_reads_as(out, public=False)
                    fresh_context = TypedGraph(tg, *context)
                    created = expected_created_ids(step, fresh_context)
                    comatch = {**record.comatch.node_map, **record.comatch.edge_map}
                    assert {rid: comatch[rid] for rid in created} == created
                    versions.append(out)
                    records.append((record, context))
                    break
            elif action < 0.5 and records:
                record, context = records.pop(rng.randrange(len(records)))
                versions.append(Version(record.context, *context, {}))
            elif action < 0.6:
                getattr(v.graph._rooted(), rng.choice(INDEXES))
            elif action < 0.7:
                fresh = TypedGraph(tg, v.nodes, v.edges)
                want = maps(find_injective_extensions(r.lhs, fresh))
                stream = find_injective_extensions(r.lhs, v.graph)
                got = maps(itertools.islice(stream, 1))
                w = rng.choice(versions)
                seen["moved"] += w.graph._store is v.graph._store and w is not v
                assert_reads_as(w, public=False)
                assert got + maps(stream) == want
            else:
                seen["older"] += v.graph._link is not None
                assert_reads_as(v, public=rng.random() < 0.3)
        rng.shuffle(versions)
        for v in versions:
            assert_reads_as(v, public=True)
        seen["versions"] += len(versions)
    assert seen["versions"] > 500 and seen["older"] > 100, seen
    assert seen["branch"] > 50 and seen["moved"] > 20 and seen["empty"] > 100, seen


def test_a_suspended_effect_search_reroots_when_it_resumes():
    """Between two leaves of the effect search, or two pre-matches, the
    store moves to another version; the searches yield what they yield
    without the move."""
    seen = 0
    for eor, host, pm in instances(777, 120):
        t = transform(eor, host, "locally_complete", pm)
        if t is None:
            continue
        other = t.result.output

        def leaves(moving: bool) -> list:
            out = []
            for leaf in _leaves(eor, host, pm, MatchStats()):
                out.append((leaf.induced.selection, leaf.match.sort_key()))
                if moving:
                    other._rooted()
            return out

        def prematches(moving: bool) -> list:
            out = []
            for found in find_base_prematches(eor, host):
                out += maps([found.morphism])
                if moving:
                    other._rooted()
            return out

        assert leaves(True) == leaves(False)
        assert prematches(True) == prematches(False)
        seen += len(leaves(False)) > 1
    assert seen > 10


def test_a_pattern_from_the_hosts_lineage_matches_as_fresh_copies():
    """A pattern may be a version of its host's own lineage, so both read
    one store.  For each pair of a step's input and output, with either of
    them read last before the search, the stream equals the one on fresh
    copies of both graphs; so does a partial map to a created node."""
    tg = TypeGraph("loops", frozenset({"N"}), {"e": EdgeType("N", "N")})
    interface = TypedGraph(tg, {"k": "N"}, {})
    parallel = {"c1": Edge("e", "k", "c"), "c2": Edge("e", "k", "c")}
    grow = Rule(interface, interface, with_elements(interface, {"c": "N"}, parallel))
    cases = [((0, 1), None, 4), ((1, 1), None, 8), ((0, 0), None, 2), ((0, 1), "c#1", 2)]
    for (p, h), image, count in cases:
        for last in (0, 1):
            g = TypedGraph(tg, {"a": "N", "b": "N"}, {x: Edge("e", "a", "b") for x in "fg"})
            record = apply_rule(grow, g, Morphism(grow.lhs, g, {"k": "a"}, {}))
            step = (record.input, record.output)
            step[last]._rooted()
            partial = None if image is None else ({"b": image}, {})
            got = maps(find_injective_extensions(step[p], step[h], partial))
            fresh = [TypedGraph(tg, x.nodes, x.edges) for x in (step[p], step[h])]
            assert got == maps(find_injective_extensions(*fresh, partial))
            assert len(got) == count, ((p, h), image, last)


def test_searches_of_a_pattern_share_one_plan(monkeypatch):
    """What the injective search needs of its pattern alone is built by the
    pattern's first search and kept on it: a later search with a partial
    map over the same nodes reuses it, on any host, and one over other nodes
    adds its own node steps.  A pattern from its host's own lineage keeps
    its plan while the store moves between the two, and every search gives
    the stream that independent copies of both graphs give."""
    built: list[tuple[TypedGraph, frozenset]] = []
    node_steps = core._node_steps

    def counted(pattern: TypedGraph, bound: frozenset) -> tuple:
        built.append((pattern, bound))
        return node_steps(pattern, bound)

    monkeypatch.setattr(core, "_node_steps", counted)
    tg = TypeGraph("loops", frozenset({"N"}), {"e": EdgeType("N", "N")})
    interface = TypedGraph(tg, {"k": "N"}, {})
    parallel = {"c1": Edge("e", "k", "c"), "c2": Edge("e", "k", "c")}
    grow = Rule(interface, interface, with_elements(interface, {"c": "N"}, parallel))
    g = TypedGraph(tg, {"a": "N", "b": "N"}, {x: Edge("e", "a", "b") for x in "fg"})
    record = apply_rule(grow, g, Morphism(grow.lhs, g, {"k": "a"}, {}))
    pattern, host = record.input, record.output
    copies = [TypedGraph(tg, x.nodes, x.edges) for x in (pattern, host)]
    for partial in (None, ({"b": "c#1"}, {})):
        want = maps(find_injective_extensions(*copies, partial))
        assert maps(find_injective_extensions(pattern, host, partial)) == want
        plan = pattern._pattern_plan
        for moved in (pattern, host, pattern):  # the store moves to each in turn
            moved._rooted()
            assert maps(find_injective_extensions(pattern, host, partial)) == want
            assert pattern._pattern_plan is plan
    itself = maps(find_injective_extensions(*copies[:1] * 2))
    assert maps(find_injective_extensions(pattern, pattern)) == itself
    assert [bound for p, bound in built if p is pattern] == [frozenset(), {"b"}]


def test_a_public_mapping_never_changes():
    """A mapping taken from a public property of any version, a built one
    read before its store exists included, stays as it was while other
    versions are derived and read, and cannot be written."""
    rng = random.Random(12)
    r = swap_rule()
    versions = [swap_host(10)]
    held = []
    for i in range(80):
        g = rng.choice(versions)
        if i % 8 == 0:  # a new lineage: read one mapping, then derive from it
            g = TypedGraph(CHAIN, g.nodes, g.edges)
            versions.append(g)
            mapping = getattr(g, ("nodes", "edges")[i // 8 % 2])
            held.append((mapping, dict(mapping)))
        if i % 8 and rng.random() < 0.5:
            mapping = getattr(g, rng.choice(("nodes", "edges", *INDEXES)))
            held.append((mapping, dict(mapping)))
        elif matches := list(find_injective_extensions(r.lhs, g)):
            record = apply_rule(r, g, rng.choice(matches))
            versions.append(record.output)
            if rng.random() < 0.3:
                versions.append(record.context)
        for mapping, copy in held:
            assert dict(mapping) == copy
    assert len(held) > 30 and len(versions) > 20
    for mapping, _ in held:
        with pytest.raises(TypeError):
            mapping["x"] = "A"


@pytest.mark.parametrize("clients", [2000, 20000])
def test_a_step_allocates_as_little_on_a_large_bank(clients):
    """A locally complete ``ensure_account`` step (pre-match, ``transform``
    and audit) allocates under 64 KB whether the bank has 2,000 clients or
    20,000: it copies nothing of the host.  The indexes a step reads are
    built before the first one, so every step counts."""
    eor = ensure_account_rule()
    nodes = {"b": "Bank", **{f"c{i}": "Client" for i in range(clients)}}
    edges = {f"o{i}": Edge("owns_client", "b", f"c{i}") for i in range(clients)}
    host = TypedGraph(banking_type_graph(), nodes, edges)
    store = host._rooted()
    store.nodes_by_type, store.edge_classes
    peaks = []
    tracemalloc.start()
    try:
        for i in range(10):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            pm = prematch_from_maps(eor, host, {"c": f"c{i}"}, {})
            t = transform(eor, host, "locally_complete", pm)
            audit_effect(t)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            host = t.result.output
            del t, pm
    finally:
        tracemalloc.stop()
    assert max(peaks) < 64 * 1024, peaks
