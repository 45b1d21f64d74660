"""Typed graphs, typed graph morphisms, and the categorical constructions
the rewriting engine is built from.

Graphs are immutable and typed over a :class:`TypeGraph`.  Element identity
is a plain string id, and subgraph relationships are realised by id sharing:
``K`` is a subgraph of ``L`` exactly when every element of ``K`` occurs in
``L`` with the same type and, for edges, the same endpoints.  Inclusion
morphisms are therefore identity maps on ids.  Parallel edges of the same
type between the same nodes are permitted throughout.

The module provides validation (:func:`validate_graph`,
:func:`check_morphism`), deterministic injective-morphism search
(:func:`find_injective_extensions`), the one dangling-edge check
(:func:`dangling_node`), and pushout complements built on it
(:func:`pushout_complement`, :func:`deleted_images`).  Gluing lives in
:func:`effectgraph.rules.apply_rule`; pushouts, pullback squares,
isomorphism and host enumeration are test oracles, not library code.

A graph's search indexes (``nodes_by_type``, ``edge_classes``,
``incidence``) are built on first use; ``sorted_nodes`` and
``sorted_edges`` are computed on each access.  A rewrite step does not
rebuild the indexes: the rewritten graph is derived from its input as a
delta of deleted and created ids, which copies the two element dicts at C
level and patches only the index entries the delta touches, so a step costs
O(|L| + |R|) Python operations plus those copies, however large the host.
A derived graph holds no reference to the graph it came from.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping


class EffectGraphError(Exception):
    """Base class for errors raised by the engine."""


class DanglingViolation(EffectGraphError):
    """Deleting a matched node would leave an incident host edge behind."""

    def __init__(self, node_id: str) -> None:
        super().__init__(
            f"deleting host node {node_id!r} would leave a dangling edge"
        )
        self.node_id = node_id


@dataclass(frozen=True)
class Diagnostic:
    """A single validation finding, tied to the offending element."""

    code: str
    element: str | None
    message: str

    def __str__(self) -> str:
        where = f" [{self.element}]" if self.element is not None else ""
        return f"{self.code}{where}: {self.message}"


@dataclass(frozen=True)
class EdgeType:
    source: str
    target: str


@dataclass(frozen=True)
class TypeGraph:
    """Declares the node types and the typed edges allowed between them."""

    name: str
    node_types: frozenset[str]
    edge_types: Mapping[str, EdgeType]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_types", frozenset(self.node_types))
        object.__setattr__(
            self, "edge_types", MappingProxyType(dict(self.edge_types))
        )
        for name, et in self.edge_types.items():
            if et.source not in self.node_types:
                raise ValueError(
                    f"edge type {name!r} has unknown source type {et.source!r}"
                )
            if et.target not in self.node_types:
                raise ValueError(
                    f"edge type {name!r} has unknown target type {et.target!r}"
                )

    def __repr__(self) -> str:
        return (
            f"TypeGraph({self.name!r}, {len(self.node_types)} node types, "
            f"{len(self.edge_types)} edge types)"
        )


@dataclass(frozen=True)
class Edge:
    type: str
    src: str
    tgt: str


def _frozen_copy(mapping: Mapping) -> MappingProxyType:
    """A read-only private copy; ``dict(proxy)`` goes through the generic
    mapping protocol, ``proxy.copy()`` copies the underlying dict in C."""
    if type(mapping) is MappingProxyType:
        mapping = mapping.copy()
    return MappingProxyType(dict(mapping))


def _patched(
    ids: tuple[str, ...], removed: Collection[str], added: Collection[str]
) -> tuple[str, ...]:
    """The sorted tuple ``ids`` without ``removed`` (all present) and with
    ``added``, still sorted."""
    out = list(ids)
    for x in removed:
        del out[bisect_left(out, x)]
    for x in added:
        insort(out, x)
    return tuple(out)


def _patch_buckets(
    buckets: dict,
    removed: Iterable[tuple],
    added: Iterable[tuple],
    drop_empty: bool = True,
) -> dict:
    """Patch, in place, an index of sorted id tuples by ``(key, id)`` pairs.

    A bucket left empty is dropped unless ``drop_empty`` is false, so the
    result equals the index built from scratch."""
    changes: dict = {}
    for key, x in removed:
        changes.setdefault(key, ([], []))[0].append(x)
    for key, x in added:
        changes.setdefault(key, ([], []))[1].append(x)
    for key, (rem, add) in changes.items():
        ids = _patched(buckets.get(key, ()), rem, add)
        if ids or not drop_empty:
            buckets[key] = ids
        else:
            del buckets[key]
    return buckets


def _endpoints(e: Edge) -> tuple[str, ...]:
    return (e.src,) if e.src == e.tgt else (e.src, e.tgt)


@dataclass(frozen=True)
class TypedGraph:
    """An immutable graph typed over a :class:`TypeGraph`.

    ``nodes`` maps node id to node type name; ``edges`` maps edge id to an
    :class:`Edge`.  Node and edge ids share one namespace.
    """

    type_graph: TypeGraph
    nodes: Mapping[str, str]
    edges: Mapping[str, Edge]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", _frozen_copy(self.nodes))
        object.__setattr__(self, "edges", _frozen_copy(self.edges))

    @classmethod
    def empty(cls, type_graph: TypeGraph) -> TypedGraph:
        return cls(type_graph, {}, {})

    def _derive(
        self,
        deleted_nodes: Collection[str],
        deleted_edges: Collection[str],
        created_nodes: Mapping[str, str] = MappingProxyType({}),
        created_edges: Mapping[str, Edge] = MappingProxyType({}),
    ) -> TypedGraph:
        """This graph minus the deleted ids, plus the created elements.

        Trusted, for constructions that hold by design: every deleted id is
        present, no edge is left dangling, and created ids are fresh once
        the deletions are done (a deleted id may be created again).  The
        indexes this graph has already built are patched rather than
        rebuilt; the others stay lazy.  The result keeps no reference to
        this graph."""
        nodes = self.nodes.copy()
        edges = self.edges.copy()
        gone_nodes = {n: nodes.pop(n) for n in deleted_nodes}
        gone_edges = {e: edges.pop(e) for e in deleted_edges}
        nodes.update(created_nodes)
        edges.update(created_edges)
        out = object.__new__(TypedGraph)
        object.__setattr__(out, "type_graph", self.type_graph)
        object.__setattr__(out, "nodes", MappingProxyType(nodes))
        object.__setattr__(out, "edges", MappingProxyType(edges))

        built, patched = self.__dict__, out.__dict__
        if "nodes_by_type" in built:
            patched["nodes_by_type"] = _patch_buckets(
                built["nodes_by_type"].copy(),
                [(t, n) for n, t in gone_nodes.items()],
                [(t, n) for n, t in created_nodes.items()],
            )
        if "edge_classes" in built:
            patched["edge_classes"] = _patch_buckets(
                built["edge_classes"].copy(),
                [((e.type, e.src, e.tgt), eid) for eid, e in gone_edges.items()],
                [((e.type, e.src, e.tgt), eid) for eid, e in created_edges.items()],
            )
        if "incidence" in built:
            incidence = built["incidence"].copy()
            for n in gone_nodes:
                del incidence[n]  # its incident edges are deleted with it
            incidence.update(dict.fromkeys(created_nodes, ()))
            patched["incidence"] = _patch_buckets(
                incidence,
                [
                    (n, eid)
                    for eid, e in gone_edges.items()
                    for n in _endpoints(e)
                    if n not in gone_nodes
                ],
                [(n, eid) for eid, e in created_edges.items() for n in _endpoints(e)],
                drop_empty=False,
            )
        return out

    @property
    def sorted_nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.nodes))

    @property
    def sorted_edges(self) -> tuple[str, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def nodes_by_type(self) -> Mapping[str, tuple[str, ...]]:
        buckets: dict[str, list[str]] = {}
        for nid, ntype in self.nodes.items():
            buckets.setdefault(ntype, []).append(nid)
        return {t: tuple(sorted(ids)) for t, ids in buckets.items()}

    @cached_property
    def edge_classes(self) -> Mapping[tuple[str, str, str], tuple[str, ...]]:
        """Edge ids grouped by (type, src, tgt); parallel edges share a class."""
        buckets: dict[tuple[str, str, str], list[str]] = {}
        for eid, e in self.edges.items():
            buckets.setdefault((e.type, e.src, e.tgt), []).append(eid)
        return {k: tuple(sorted(v)) for k, v in buckets.items()}

    @cached_property
    def incidence(self) -> Mapping[str, tuple[str, ...]]:
        """Node id to the sorted ids of its incident edges."""
        buckets: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for eid, e in self.edges.items():
            if e.src in buckets:
                buckets[e.src].append(eid)
            if e.tgt in buckets and e.tgt != e.src:
                buckets[e.tgt].append(eid)
        return {k: tuple(sorted(v)) for k, v in buckets.items()}

    def with_elements(
        self,
        nodes: Mapping[str, str] | None = None,
        edges: Mapping[str, Edge] | None = None,
    ) -> TypedGraph:
        """A new graph with extra elements; added ids must be fresh."""
        new_nodes = dict(self.nodes)
        new_edges = dict(self.edges)
        for nid, ntype in (nodes or {}).items():
            if nid in new_nodes or nid in new_edges:
                raise ValueError(f"id {nid!r} already present")
            new_nodes[nid] = ntype
        for eid, edge in (edges or {}).items():
            if eid in new_nodes or eid in new_edges:
                raise ValueError(f"id {eid!r} already present")
            if edge.src not in new_nodes or edge.tgt not in new_nodes:
                raise ValueError(f"edge {eid!r} has missing endpoints")
            new_edges[eid] = edge
        return TypedGraph(self.type_graph, new_nodes, new_edges)

    def __repr__(self) -> str:
        return (
            f"TypedGraph({len(self.nodes)} nodes, {len(self.edges)} edges "
            f"over {self.type_graph.name!r})"
        )


@dataclass(frozen=True)
class ElementSet:
    """A set of graph elements, split into nodes and edges."""

    nodes: frozenset[str] = frozenset()
    edges: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", frozenset(self.edges))

    @classmethod
    def empty(cls) -> ElementSet:
        return cls(frozenset(), frozenset())

    def __len__(self) -> int:
        return len(self.nodes) + len(self.edges)

    def __bool__(self) -> bool:
        return bool(self.nodes) or bool(self.edges)

    def __sub__(self, other: ElementSet) -> ElementSet:
        return ElementSet(self.nodes - other.nodes, self.edges - other.edges)

    def sort_key(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        return (tuple(sorted(self.nodes)), tuple(sorted(self.edges)))


def element_difference(a: TypedGraph, b: TypedGraph) -> ElementSet:
    """Elements of ``a`` that are not elements of ``b``, by id."""
    return ElementSet(
        frozenset(a.nodes.keys() - b.nodes.keys()),
        frozenset(a.edges.keys() - b.edges.keys()),
    )


@dataclass(frozen=True)
class Morphism:
    """A typed graph morphism given by explicit node and edge id maps."""

    src_graph: TypedGraph
    dst_graph: TypedGraph
    node_map: Mapping[str, str]
    edge_map: Mapping[str, str]

    def __post_init__(self) -> None:
        object.__setattr__(self, "node_map", _frozen_copy(self.node_map))
        object.__setattr__(self, "edge_map", _frozen_copy(self.edge_map))

    @classmethod
    def identity(cls, g: TypedGraph) -> Morphism:
        return cls._trusted_inclusion(g, g)

    @classmethod
    def inclusion(cls, sub: TypedGraph, sup: TypedGraph) -> Morphism:
        """The identity-on-ids inclusion of an id-subgraph."""
        if not is_id_subgraph(sub, sup):
            raise ValueError("not an id-subgraph; no inclusion exists")
        return cls._trusted_inclusion(sub, sup)

    @classmethod
    def _trusted_inclusion(cls, sub: TypedGraph, sup: TypedGraph) -> Morphism:
        """The identity-on-ids inclusion, unchecked: for inclusions that
        hold by construction."""
        return cls(
            sub, sup, dict(zip(sub.nodes, sub.nodes)), dict(zip(sub.edges, sub.edges))
        )

    @cached_property
    def node_images(self) -> frozenset[str]:
        return frozenset(self.node_map.values())

    @cached_property
    def edge_images(self) -> frozenset[str]:
        return frozenset(self.edge_map.values())

    def sort_key(self) -> tuple:
        return (
            tuple(sorted(self.node_map.items())),
            tuple(sorted(self.edge_map.items())),
        )

    def __repr__(self) -> str:
        return f"Morphism({dict(self.node_map)!r}, {dict(self.edge_map)!r})"


def is_id_subgraph(sub: TypedGraph, sup: TypedGraph) -> bool:
    """Whether every element of ``sub`` occurs identically in ``sup``."""
    for nid, ntype in sub.nodes.items():
        if sup.nodes.get(nid) != ntype:
            return False
    for eid, edge in sub.edges.items():
        if sup.edges.get(eid) != edge:
            return False
    return True


def fresh_id(base: str, taken: Callable[[str], bool]) -> str:
    """The first ``base#k`` with k >= 1 that is not ``taken``: the engine's
    one fresh-id scheme.  Probes ``k`` ids, by design."""
    k = 1
    while taken(f"{base}#{k}"):
        k += 1
    return f"{base}#{k}"


def validate_graph(g: TypedGraph, tg: TypeGraph) -> list[Diagnostic]:
    """All well-formedness violations of ``g`` against ``tg``."""
    out: list[Diagnostic] = []
    if g.type_graph.name != tg.name:
        out.append(
            Diagnostic(
                "type-graph-mismatch",
                None,
                f"graph is typed over {g.type_graph.name!r}, expected {tg.name!r}",
            )
        )
    shared = g.nodes.keys() & g.edges.keys()
    for eid in sorted(shared):
        out.append(
            Diagnostic("duplicate-id", eid, "id used for both a node and an edge")
        )
    for nid in g.sorted_nodes:
        ntype = g.nodes[nid]
        if ntype not in tg.node_types:
            out.append(
                Diagnostic("unknown-node-type", nid, f"node type {ntype!r} not declared")
            )
    for eid in g.sorted_edges:
        e = g.edges[eid]
        et = tg.edge_types.get(e.type)
        if et is None:
            out.append(
                Diagnostic("unknown-edge-type", eid, f"edge type {e.type!r} not declared")
            )
            continue
        for endpoint, role, want in ((e.src, "src", et.source), (e.tgt, "tgt", et.target)):
            if endpoint not in g.nodes:
                out.append(
                    Diagnostic(
                        "dangling-endpoint",
                        eid,
                        f"{role} node {endpoint!r} does not exist",
                    )
                )
            elif g.nodes[endpoint] != want:
                out.append(
                    Diagnostic(
                        "endpoint-type-mismatch",
                        eid,
                        f"{role} node {endpoint!r} has type "
                        f"{g.nodes[endpoint]!r}, edge type {e.type!r} requires {want!r}",
                    )
                )
    return out


def check_morphism(f: Morphism) -> list[Diagnostic]:
    """All violations of totality, commutation, typing, and injectivity
    for ``f``; injectivity findings come last."""
    out: list[Diagnostic] = []
    src, dst = f.src_graph, f.dst_graph
    for nid in src.sorted_nodes:
        img = f.node_map.get(nid)
        if img is None:
            out.append(Diagnostic("not-total", nid, "node has no image"))
        elif img not in dst.nodes:
            out.append(Diagnostic("unknown-image", nid, f"image node {img!r} missing"))
        elif dst.nodes[img] != src.nodes[nid]:
            out.append(
                Diagnostic(
                    "type-not-preserved",
                    nid,
                    f"node of type {src.nodes[nid]!r} mapped to {dst.nodes[img]!r}",
                )
            )
    for nid in sorted(f.node_map.keys() - src.nodes.keys()):
        out.append(Diagnostic("spurious-mapping", nid, "mapped node not in source"))
    for eid in src.sorted_edges:
        img = f.edge_map.get(eid)
        if img is None:
            out.append(Diagnostic("not-total", eid, "edge has no image"))
            continue
        if img not in dst.edges:
            out.append(Diagnostic("unknown-image", eid, f"image edge {img!r} missing"))
            continue
        se, de = src.edges[eid], dst.edges[img]
        if se.type != de.type:
            out.append(
                Diagnostic(
                    "type-not-preserved",
                    eid,
                    f"edge of type {se.type!r} mapped to {de.type!r}",
                )
            )
        if f.node_map.get(se.src) != de.src or f.node_map.get(se.tgt) != de.tgt:
            out.append(
                Diagnostic(
                    "non-commuting",
                    eid,
                    "edge image endpoints disagree with node images",
                )
            )
    for eid in sorted(f.edge_map.keys() - src.edges.keys()):
        out.append(Diagnostic("spurious-mapping", eid, "mapped edge not in source"))
    for kind, mapping in (("node", f.node_map), ("edge", f.edge_map)):
        hits = Counter(mapping.values())
        for img, count in sorted(hits.items()):
            if count > 1:
                culprits = sorted(k for k, v in mapping.items() if v == img)
                out.append(
                    Diagnostic(
                        "not-injective",
                        culprits[1],
                        f"{kind}s {culprits} share image {img!r}",
                    )
                )
    return out


def _normalise_partial(
    pattern: TypedGraph,
    host: TypedGraph,
    partial: tuple[Mapping[str, str], Mapping[str, str]] | None,
) -> tuple[dict[str, str], dict[str, str]]:
    if partial is None:
        return {}, {}
    node_map, edge_map = dict(partial[0]), dict(partial[1])
    for nid, img in node_map.items():
        if nid not in pattern.nodes:
            raise ValueError(f"partial map mentions unknown pattern node {nid!r}")
        if img not in host.nodes or host.nodes[img] != pattern.nodes[nid]:
            raise ValueError(f"partial map sends node {nid!r} to incompatible {img!r}")
    if len(set(node_map.values())) != len(node_map):
        raise ValueError("partial node map is not injective")
    for eid, img in edge_map.items():
        if eid not in pattern.edges:
            raise ValueError(f"partial map mentions unknown pattern edge {eid!r}")
        if img not in host.edges:
            raise ValueError(f"partial map sends edge {eid!r} to missing {img!r}")
        pe, he = pattern.edges[eid], host.edges[img]
        if pe.type != he.type:
            raise ValueError(f"partial map sends edge {eid!r} to a different type")
        # Pre-assigned edges pin down their endpoints' node images.
        for p_end, h_end in ((pe.src, he.src), (pe.tgt, he.tgt)):
            if node_map.get(p_end, h_end) != h_end:
                raise ValueError(
                    f"partial map on edge {eid!r} conflicts with node {p_end!r}"
                )
            node_map[p_end] = h_end
    if len(set(node_map.values())) != len(node_map):
        raise ValueError("partial map is not injective after endpoint closure")
    if len(set(edge_map.values())) != len(edge_map):
        raise ValueError("partial edge map is not injective")
    return node_map, edge_map


def find_injective_extensions(
    pattern: TypedGraph,
    host: TypedGraph,
    partial: tuple[Mapping[str, str], Mapping[str, str]] | None = None,
) -> Iterator[Morphism]:
    """All injective morphisms ``pattern -> host`` extending ``partial``, a
    pair of node and edge id maps.

    The stream is deterministic: free pattern nodes are processed in
    ascending id order, host candidates are tried in ascending id order, and
    parallel-edge assignments follow ascending edge ids.
    """
    node_map, edge_map = _normalise_partial(pattern, host, partial)
    free_nodes = [n for n in pattern.sorted_nodes if n not in node_map]
    used = set(node_map.values())

    pattern_classes: dict[tuple[str, str, str], list[str]] = {}
    for eid in pattern.sorted_edges:
        e = pattern.edges[eid]
        pattern_classes.setdefault((e.type, e.src, e.tgt), []).append(eid)
    preassigned_per_class: Counter = Counter()
    claimed_per_host_class: Counter = Counter()
    for eid, img in edge_map.items():
        e = pattern.edges[eid]
        preassigned_per_class[(e.type, e.src, e.tgt)] += 1
        he = host.edges[img]
        claimed_per_host_class[(he.type, he.src, he.tgt)] += 1

    def class_feasible(cls: tuple[str, str, str]) -> bool:
        etype, ps, pt = cls
        hs, ht = node_map.get(ps), node_map.get(pt)
        if hs is None or ht is None:
            return True
        need = len(pattern_classes[cls]) - preassigned_per_class[cls]
        host_cls = (etype, hs, ht)
        have = len(host.edge_classes.get(host_cls, ())) - claimed_per_host_class[host_cls]
        return have >= need

    touching: dict[str, list[tuple[str, str, str]]] = {n: [] for n in pattern.nodes}
    for cls in pattern_classes:
        _, ps, pt = cls
        touching[ps].append(cls)
        if pt != ps:
            touching[pt].append(cls)

    def assign_edges() -> Iterator[dict[str, str]]:
        classes = sorted(pattern_classes)
        claimed = set(edge_map.values())

        def per_class(
            per_class, idx: int, acc: dict[str, str]
        ) -> Iterator[dict[str, str]]:
            if idx == len(classes):
                yield dict(acc)
                return
            cls = classes[idx]
            etype, ps, pt = cls
            remaining = [e for e in pattern_classes[cls] if e not in edge_map]
            if not remaining:
                yield from per_class(per_class, idx + 1, acc)
                return
            candidates = [
                h
                for h in host.edge_classes.get(
                    (etype, node_map[ps], node_map[pt]), ()
                )
                if h not in claimed
            ]
            if len(candidates) < len(remaining):
                return
            for combo in itertools.permutations(candidates, len(remaining)):
                for e, h in zip(remaining, combo):
                    acc[e] = h
                    claimed.add(h)
                yield from per_class(per_class, idx + 1, acc)
                for e, h in zip(remaining, combo):
                    del acc[e]
                    claimed.discard(h)

        yield from per_class(per_class, 0, dict(edge_map))

    # ``assign_nodes`` and ``per_class`` call themselves through an argument,
    # not a closure cell, so a finished or dropped stream leaves no cycle for
    # the collector.
    def assign_nodes(assign_nodes, pos: int) -> Iterator[Morphism]:
        if pos == len(free_nodes):
            for emap in assign_edges():
                yield Morphism(pattern, host, dict(node_map), emap)
            return
        v = free_nodes[pos]
        for x in host.nodes_by_type.get(pattern.nodes[v], ()):
            if x in used:
                continue
            node_map[v] = x
            used.add(x)
            if all(class_feasible(cls) for cls in touching[v]):
                yield from assign_nodes(assign_nodes, pos + 1)
            del node_map[v]
            used.discard(x)

    return assign_nodes(assign_nodes, 0)


def dangling_node(
    host: TypedGraph, nodes: Iterable[str], edges: Collection[str]
) -> str | None:
    """The first of ``nodes``, in the order given, with an incident ``host``
    edge outside ``edges``: a node whose deletion together with ``edges``
    would leave that edge dangling.  ``None`` if there is no such node.
    Costs the incident edges of the nodes scanned."""
    for y in nodes:
        for eid in host.incidence[y]:
            if eid not in edges:
                return y
    return None


def deleted_images(
    m: Morphism, kept_nodes: Collection[str], kept_edges: Collection[str]
) -> tuple[frozenset[str], frozenset[str]]:
    """The host node and edge ids that ``m`` sends its source elements
    outside ``kept_nodes`` and ``kept_edges`` to: what a rule deletes.

    Raises :class:`DanglingViolation`, naming the smallest such node id,
    if a deleted host node keeps an incident edge that is not itself
    deleted.  Costs O(|L|) plus the incident edges of the deleted nodes."""
    nodes = frozenset(m.node_map[v] for v in m.src_graph.nodes if v not in kept_nodes)
    edges = frozenset(m.edge_map[e] for e in m.src_graph.edges if e not in kept_edges)
    culprit = dangling_node(m.dst_graph, sorted(nodes), edges)
    if culprit is not None:
        raise DanglingViolation(culprit)
    return nodes, edges


def pushout_complement(
    l: Morphism, m: Morphism
) -> tuple[TypedGraph, Morphism, Morphism]:
    """The pushout complement of ``l: K -> L`` and injective ``m: L -> G``.

    Deletes ``m(L \\ l(K))`` from the host.  Raises
    :class:`DanglingViolation` if a deleted node keeps an incident host edge
    that is not itself deleted.
    """
    for leg, name in ((l, "interface inclusion"), (m, "match")):
        problems = check_morphism(leg)
        if problems:
            raise ValueError(f"{name} is not a valid injection: {problems[0]}")
    if l.dst_graph != m.src_graph:
        raise ValueError("interface inclusion and match do not compose")

    host = m.dst_graph
    context = host._derive(*deleted_images(m, l.node_images, l.edge_images))
    k_to_context = Morphism(
        l.src_graph,
        context,
        {k: m.node_map[l.node_map[k]] for k in l.src_graph.nodes},
        {k: m.edge_map[l.edge_map[k]] for k in l.src_graph.edges},
    )
    return context, k_to_context, Morphism._trusted_inclusion(context, host)
