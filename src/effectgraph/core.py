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

A rewrite step does not copy its host.  A built graph and the graphs
derived from it form a lineage, which owns one mutable store: the node and
edge dicts and the indexes (``nodes_by_type``, ``edge_classes``,
``incidence``, and ``by_profile`` for each node type asked) built so far.
The store holds one version, the root; every other version keeps a link
towards the root with the delta back to itself (Baker's shallow binding).
A step reads its input and leaves the store there: its output links to the
input, the root, with the step's delta.  Reading another version reroots
the store, replaying the deltas on the way and flipping their links.  So:

* a step costs O(|L| + |R|) however large the host is, and reading a
  version costs its delta distance from the root: an output never read
  costs the store nothing;
* ``nodes``, ``edges`` and the indexes are read-only snapshots that never
  change, built in O(|G|) on a version's first public read and cached;
  library code reads the store, rerooted to the graph it was given;
* a version holds its neighbour towards the root, never the reverse, so a
  version is kept alive only by versions farther from the root, as an
  output never read keeps its input;
* reading moves the shared store: versions of one lineage must not be read
  from several threads at once.

Fresh ids follow one scheme, :func:`fresh_id`: ``base#k`` with the smallest
free ``k >= 1``.  A graph made by :func:`effectgraph.rules.apply_rule`
carries private floors, ``base -> j`` with ``base#1 … base#j`` all ids of
the graph, which the next step lowers below its deletions and probes from,
so a created element costs O(1) amortised probes however long the chain.
Any other graph has no floors and probes from ``k = 1`` once.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left, insort
from collections import Counter
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Collection, Iterable, Iterator, Mapping, NamedTuple


class EffectGraphError(Exception):
    """Base class for errors raised by the engine."""


class DanglingViolation(EffectGraphError):
    """Deleting a matched node would leave an incident host edge behind."""

    def __init__(self, node_id: str) -> None:
        super().__init__(
            f"deleting host node {node_id!r} would leave a dangling edge"
        )
        self.node_id = node_id


class _Value:
    """A frozen value.  A subclass names its ``_fields``, and its
    ``__init__`` sets them once through ``__dict__``, where a
    ``cached_property`` caches too.  Values of one class are equal when
    their fields are; they are unhashable unless the subclass says how."""

    _fields: tuple[str, ...] = ()
    __hash__ = None

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        fields = self._fields
        return [getattr(self, f) for f in fields] == [getattr(other, f) for f in fields]

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self) -> tuple:  # caches, and a graph's lineage, start afresh
        fields = (getattr(self, f) for f in self._fields)  # the __init__ order
        return type(self), tuple(dict(x) if isinstance(x, Mapping) else x for x in fields)


class Diagnostic(NamedTuple):
    """A single validation finding, tied to the offending element."""

    code: str
    element: str | None
    message: str

    def __str__(self) -> str:
        where = f" [{self.element}]" if self.element is not None else ""
        return f"{self.code}{where}: {self.message}"


class EdgeType(NamedTuple):
    source: str
    target: str


class TypeGraph(_Value):
    """Declares the node types and the typed edges allowed between them."""

    _fields = ("name", "node_types", "edge_types")

    def __init__(
        self, name: str, node_types: Iterable[str], edge_types: Mapping[str, EdgeType]
    ) -> None:
        node_types = frozenset(node_types)
        edge_types = MappingProxyType(dict(edge_types))
        for et_name, et in edge_types.items():
            for end, node_type in (("source", et.source), ("target", et.target)):
                if node_type not in node_types:
                    raise ValueError(
                        f"edge type {et_name!r} has unknown {end} type {node_type!r}"
                    )
        self.__dict__.update(name=name, node_types=node_types, edge_types=edge_types)

    def __repr__(self) -> str:
        return (
            f"TypeGraph({self.name!r}, {len(self.node_types)} node types, "
            f"{len(self.edge_types)} edge types)"
        )


class Edge(NamedTuple):
    """An edge, which is also the key of its class: parallel edges are equal."""

    type: str
    src: str
    tgt: str


def _copy(mapping: Mapping) -> dict:
    """A private dict copy, made in C from a read-only proxy too."""
    return mapping.copy() if type(mapping) is MappingProxyType else dict(mapping)


class _Store:
    """A lineage's root elements and the indexes built so far, patched by
    every delta replayed.  A type or profile bucket stays when it empties: a
    suspended search iterating it finds the same list when it resumes."""

    def __init__(self, nodes: dict[str, str], edges: dict[str, Edge]) -> None:
        self.nodes, self.edges = nodes, edges
        self.profiles, self.profile_of = {}, {}  # see by_profile

    @cached_property
    def nodes_by_type(self) -> dict[str, list[str]]:
        buckets: dict[str, list[str]] = {}
        for nid, ntype in self.nodes.items():
            buckets.setdefault(ntype, []).append(nid)
        for ids in buckets.values():
            ids.sort()
        return buckets

    @cached_property
    def edge_classes(self) -> dict[Edge, tuple[str, ...]]:
        """Classes are small: each is a sorted tuple, replaced when patched."""
        classes: dict = {}
        shared = []  # classes of parallel edges: lists until sorted
        for eid, e in self.edges.items():
            ids = classes.get(e)
            if ids is None:
                classes[e] = (eid,)
            elif type(ids) is list:
                ids.append(eid)
            else:
                classes[e] = [ids[0], eid]
                shared.append(e)
        for key in shared:
            classes[key] = tuple(sorted(classes[key]))
        return classes

    @cached_property
    def incidence(self) -> dict[str, list[str]]:
        buckets: dict[str, list[str]] = {nid: [] for nid in self.nodes}
        for eid, e in self.edges.items():
            if e.src in buckets:
                buckets[e.src].append(eid)
            if e.tgt in buckets and e.tgt != e.src:
                buckets[e.tgt].append(eid)
        for ids in buckets.values():
            ids.sort()
        return buckets

    def by_profile(self, ntype: str) -> dict[tuple, list[str]]:
        """The sorted ids of the nodes of ``ntype`` by profile, built on first
        use: the kinds (edge type, is source, is target) of a node's incident
        edges as sorted (kind, count) pairs, which ``profile_of`` keeps."""
        if ntype not in self.profiles:
            kinds: dict[str, list] = {n: [] for n in self.nodes_by_type.get(ntype, ())}
            for etype, src, tgt in self.edges.values():
                if src in kinds:
                    kinds[src].append((etype, True, tgt == src))
                if tgt in kinds and tgt != src:
                    kinds[tgt].append((etype, False, True))
            buckets, shared = self.profiles.setdefault(ntype, {}), {}  # equal shapes share
            for n, found in kinds.items():  # in id order
                key = tuple(sorted(found))
                p = shared.get(key) or shared.setdefault(key, tuple(Counter(key).items()))
                buckets.setdefault(p, []).append(n)
                self.profile_of[n] = p
        return self.profiles[ntype]

    def apply(self, *delta: Mapping) -> None:
        """Remove the ``gone`` elements of ``delta``, then add the ``new``
        ones (an id may be both), patching the built indexes in place."""
        gone_nodes, gone_edges, new_nodes, new_edges = delta
        for n in gone_nodes:
            del self.nodes[n]
        for e in gone_edges:
            del self.edges[e]
        self.nodes.update(new_nodes)
        self.edges.update(new_edges)
        if "nodes_by_type" in self.__dict__:
            by_type = self.nodes_by_type
            for n, t in gone_nodes.items():
                del by_type[t][bisect_left(by_type[t], n)]
            for n, t in new_nodes.items():
                insort(by_type.setdefault(t, []), n)
        if "edge_classes" in self.__dict__:
            classes = self.edge_classes
            for eid, e in gone_edges.items():
                ids = classes.pop(e)
                if len(ids) > 1:
                    classes[e] = tuple(x for x in ids if x != eid)
            for eid, e in new_edges.items():
                ids = classes.get(e)
                classes[e] = (eid,) if ids is None else tuple(sorted((*ids, eid)))
        if "incidence" in self.__dict__:
            incidence = self.incidence
            for eid, e in gone_edges.items():
                for n in {e.src, e.tgt}:
                    del incidence[n][bisect_left(incidence[n], eid)]
            for n in gone_nodes:
                del incidence[n]
            incidence.update({n: [] for n in new_nodes})
            for eid, e in new_edges.items():
                for n in {e.src, e.tgt}:
                    insort(incidence[n], eid)
        if self.profiles:  # each node touched has its kinds counted, then moves once
            profiles, of, counts = self.profiles, self.profile_of, {}
            for n in gone_nodes.keys() & of.keys():
                ids = profiles[gone_nodes[n]][of.pop(n)]
                del ids[bisect_left(ids, n)]
            for sign, edges in ((-1, gone_edges), (1, new_edges)):
                for n, t in new_nodes.items() if sign > 0 else ():  # an id may be both
                    if t in profiles:
                        of[n] = ()
                        insort(profiles[t].setdefault((), []), n)
                for e in edges.values():
                    for n in {e.src, e.tgt} & of.keys():
                        kinds = counts.get(n) or counts.setdefault(n, Counter(dict(of[n])))
                        kinds[e.type, e.src == n, e.tgt == n] += sign
            for n, kinds in counts.items():
                buckets = profiles[self.nodes[n]]
                p, ids = tuple(sorted((+kinds).items())), buckets[of[n]]
                del ids[bisect_left(ids, n)]
                insort(buckets.setdefault(p, []), n)
                of[n] = p


class TypedGraph(_Value):
    """An immutable graph typed over a :class:`TypeGraph`.

    ``nodes`` maps node id to node type name; ``edges`` maps edge id to an
    :class:`Edge`.  Node and edge ids share one namespace.  Graphs are
    equal when their type graphs, nodes and edges are.
    """

    _fields = ("type_graph", "nodes", "edges")

    def __init__(
        self, type_graph: TypeGraph, nodes: Mapping[str, str], edges: Mapping[str, Edge]
    ) -> None:
        store = _Store(_copy(nodes), _copy(edges))
        self.__dict__.update(type_graph=type_graph, _store=store, _link=None)

    def _rooted(self) -> _Store:
        """The lineage's store, rerooted to this graph: the deltas from the
        root are replayed and their links flipped."""
        if self._link is not None:
            path, g = [], self
            while g._link is not None:
                path.append(g)
                g = g._link[0]
            for g in reversed(path):
                nearer, delta = g._link
                if any(delta):  # a step that neither deleted nor created
                    self._store.apply(*delta)
                nearer.__dict__["_link"] = (g, delta[2:] + delta[:2])
                g.__dict__["_link"] = None
        return self._store

    def _derive(
        self,
        deleted_nodes: Collection[str],
        deleted_edges: Collection[str],
        created_nodes: Mapping[str, str] = MappingProxyType({}),
        created_edges: Mapping[str, Edge] = MappingProxyType({}),
        floors: dict[str, int] | None = None,
    ) -> TypedGraph:
        """This graph minus the deleted ids, plus the created elements, made
        in O(delta): this graph, read first, stays the root, and the result
        keeps the delta from it, replayed when the result is read.

        Trusted, for constructions that hold by design: every deleted id is
        present, no edge is left dangling, and created ids are fresh once
        the deletions are done (a deleted id may be created again).  The
        created mappings become the delta and must not change.  ``floors``,
        if given, must hold for the result and is kept by it."""
        store = self._rooted()
        gone_nodes = {n: store.nodes[n] for n in deleted_nodes}
        gone_edges = {e: store.edges[e] for e in deleted_edges}
        delta = gone_nodes, gone_edges, created_nodes, created_edges
        out = object.__new__(TypedGraph)
        out.__dict__.update(type_graph=self.type_graph, _store=store, _link=(self, delta))
        if floors is not None:
            out.__dict__["_floors"] = floors
        return out

    def _floors_without(self, deleted: Iterable[str]) -> dict[str, int]:
        """A copy of this graph's fresh-id floors, lowered below every
        ``deleted`` id of the form ``base#k``.

        A floor ``base -> j`` states that ``base#1 … base#j`` are all ids
        of the graph; the copy states it of what remains once the
        ``deleted`` ids are gone.  Only graphs made by
        :func:`effectgraph.rules.apply_rule` carry floors; any other graph
        has none, which states nothing and so always holds."""
        floors = dict(self.__dict__.get("_floors", ()))
        for x in deleted:
            base, sep, suffix = x.rpartition("#")
            j = floors.get(base, 0)
            # Only a suffix ``str(k)`` with 1 <= k <= j names ``base#k``, so
            # ``x#0``, ``x#01``, ``x#`` and non-ASCII digits do not.  The
            # length test keeps ``int`` off arbitrarily long digit strings.
            if sep and j and suffix.isdecimal() and len(suffix) <= len(str(j)):
                k = int(suffix)
                if 1 <= k <= j and str(k) == suffix:
                    floors[base] = k - 1
        return floors

    @cached_property
    def nodes(self) -> Mapping[str, str]:
        return MappingProxyType(self._rooted().nodes.copy())

    @cached_property
    def edges(self) -> Mapping[str, Edge]:
        return MappingProxyType(self._rooted().edges.copy())

    @property
    def sorted_nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self.nodes))

    @property
    def sorted_edges(self) -> tuple[str, ...]:
        return tuple(sorted(self.edges))

    @cached_property
    def nodes_by_type(self) -> Mapping[str, tuple[str, ...]]:
        """Node type to the sorted ids of its nodes."""
        by_type = self._rooted().nodes_by_type
        return MappingProxyType({t: tuple(ids) for t, ids in by_type.items() if ids})

    @cached_property
    def edge_classes(self) -> Mapping[Edge, tuple[str, ...]]:
        """Edge ids by their :class:`Edge`, a (type, src, tgt) key they share."""
        return MappingProxyType(self._rooted().edge_classes.copy())

    @cached_property
    def incidence(self) -> Mapping[str, tuple[str, ...]]:
        """Node id to the sorted ids of its incident edges."""
        incidence = self._rooted().incidence
        return MappingProxyType({n: tuple(ids) for n, ids in incidence.items()})

    @cached_property
    def _pattern_plan(self) -> tuple:
        """What :func:`find_injective_extensions` needs of this graph as its
        pattern: its edge classes in key order, and its :func:`_node_steps`
        by the set of nodes bound first, added as searches ask."""
        return tuple(sorted(self.edge_classes.items())), {}

    def __repr__(self) -> str:
        return (
            f"TypedGraph({len(self._rooted().nodes)} nodes, "
            f"{len(self._rooted().edges)} edges over {self.type_graph.name!r})"
        )


class ElementSet(_Value):
    """A set of graph elements, split into nodes and edges."""

    _fields = ("nodes", "edges")

    def __init__(self, nodes: Iterable[str] = (), edges: Iterable[str] = ()) -> None:
        self.__dict__.update(nodes=frozenset(nodes), edges=frozenset(edges))

    def __hash__(self) -> int:
        return hash((self.nodes, self.edges))

    def __eq__(self, other: object) -> bool:
        if type(other) is not ElementSet:
            return NotImplemented
        return self.nodes == other.nodes and self.edges == other.edges

    def __len__(self) -> int:
        return len(self.nodes) + len(self.edges)

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


class Morphism(_Value):
    """A typed graph morphism given by explicit node and edge id maps."""

    _fields = ("src_graph", "dst_graph", "node_map", "edge_map")

    def __init__(
        self, src_graph: TypedGraph, dst_graph: TypedGraph,
        node_map: Mapping[str, str], edge_map: Mapping[str, str],
    ) -> None:
        self.__dict__.update(
            src_graph=src_graph, dst_graph=dst_graph,
            node_map=MappingProxyType(_copy(node_map)),
            edge_map=MappingProxyType(_copy(edge_map)),
        )

    @classmethod
    def inclusion(cls, sub: TypedGraph, sup: TypedGraph) -> Morphism:
        """The identity-on-ids inclusion of an id-subgraph."""
        if not is_id_subgraph(sub, sup):
            raise ValueError("not an id-subgraph; no inclusion exists")
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


def fresh_id(
    base: str, taken: Callable[[str], bool], floors: dict[str, int] | None = None
) -> str:
    """The first ``base#k`` with k >= 1 that is not ``taken``: the engine's
    one fresh-id scheme.

    Without ``floors`` the probe starts at ``k = 1`` and costs ``k`` calls
    of ``taken``.  ``floors`` maps a base to a ``j`` such that ``base#1 …
    base#j`` are all taken; the probe starts at ``j + 1``, and the entry
    becomes the ``k`` found, so a chain of steps that carries its floors
    probes O(1) amortised ids per call."""
    k = floors.get(base, 0) + 1 if floors else 1
    while taken(f"{base}#{k}"):
        k += 1
    if floors is not None:
        floors[base] = k
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
    # The source's snapshots come first: both graphs may share one store.
    src_nodes, src_edges = f.src_graph.nodes, f.src_graph.edges
    dst_nodes, dst_edges = f.dst_graph._rooted().nodes, f.dst_graph._rooted().edges
    for nid in sorted(src_nodes):
        img = f.node_map.get(nid)
        if img is None:
            out.append(Diagnostic("not-total", nid, "node has no image"))
        elif img not in dst_nodes:
            out.append(Diagnostic("unknown-image", nid, f"image node {img!r} missing"))
        elif dst_nodes[img] != src_nodes[nid]:
            out.append(
                Diagnostic(
                    "type-not-preserved",
                    nid,
                    f"node of type {src_nodes[nid]!r} mapped to {dst_nodes[img]!r}",
                )
            )
    for nid in sorted(f.node_map.keys() - src_nodes.keys()):
        out.append(Diagnostic("spurious-mapping", nid, "mapped node not in source"))
    for eid in sorted(src_edges):
        img = f.edge_map.get(eid)
        if img is None:
            out.append(Diagnostic("not-total", eid, "edge has no image"))
            continue
        if img not in dst_edges:
            out.append(Diagnostic("unknown-image", eid, f"image edge {img!r} missing"))
            continue
        se, de = src_edges[eid], dst_edges[img]
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
    for eid in sorted(f.edge_map.keys() - src_edges.keys()):
        out.append(Diagnostic("spurious-mapping", eid, "mapped edge not in source"))
    for kind, mapping in (("node", f.node_map), ("edge", f.edge_map)):
        if len(set(mapping.values())) == len(mapping):
            continue
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
    p_nodes: Mapping[str, str], p_edges: Mapping[str, Edge],
    host: _Store,
    partial: tuple[Mapping[str, str], Mapping[str, str]] | None,
) -> tuple[dict[str, str], dict[str, str]]:
    if partial is None:
        return {}, {}
    node_map, edge_map = dict(partial[0]), dict(partial[1])
    for nid, img in node_map.items():
        if nid not in p_nodes:
            raise ValueError(f"partial map mentions unknown pattern node {nid!r}")
        if host.nodes.get(img) != p_nodes[nid]:
            raise ValueError(f"partial map sends node {nid!r} to incompatible {img!r}")
    if len(set(node_map.values())) != len(node_map):
        raise ValueError("partial node map is not injective")
    for eid, img in edge_map.items():
        if eid not in p_edges:
            raise ValueError(f"partial map mentions unknown pattern edge {eid!r}")
        if img not in host.edges:
            raise ValueError(f"partial map sends edge {eid!r} to missing {img!r}")
        pe, he = p_edges[eid], host.edges[img]
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


def _node_steps(pattern: TypedGraph, bound: frozenset[str]) -> tuple:
    """The steps that bind the nodes of ``pattern`` outside ``bound``, in id
    order: each node, its type, the class it draws its candidates through,
    if any, and the classes they must fit.  It draws through its first class
    by least edge id with the other end bound before it, from that end (by
    :class:`Edge` items), and fits each class with both ends bound."""
    classes, before, steps = pattern.edge_classes, set(bound), []
    touching: dict[str, list[Edge]] = {n: [] for n in pattern.nodes}
    for cls in sorted(classes, key=classes.get):  # by least edge id
        for end in {cls.src, cls.tgt}:
            touching[end].append(cls)
    for v in sorted(pattern.nodes.keys() - bound):
        draw, fit = None, []
        for cls in touching[v]:
            etype, ps, pt = cls
            u, near, far = (ps, 1, 2) if pt == v else (pt, 2, 1)
            if draw is None and u in before:
                draw = etype, u, near, far
            if u in before or u == v:
                fit.append((etype, ps, pt, len(classes[cls])))
        before.add(v)
        steps.append((v, pattern.nodes[v], draw, tuple(fit)))
    return tuple(steps)


def find_injective_extensions(
    pattern: TypedGraph,
    host: TypedGraph,
    partial: tuple[Mapping[str, str], Mapping[str, str]] | None = None,
) -> Iterator[Morphism]:
    """All injective morphisms ``pattern -> host`` extending ``partial``, a
    pair of node and edge id maps.

    The stream is deterministic: free pattern nodes are processed in
    ascending id order, host candidates are tried in ascending id order, and
    parallel-edge assignments follow ascending edge ids.  The stream
    reroots the host's store each time it resumes.

    What the search needs of the pattern alone, its classes of parallel
    edges and the order and draw of its nodes, is built by the pattern's
    first search with ``partial`` over the same nodes and kept on the
    pattern, which is immutable: a later one pays for its bindings alone.
    """
    # The pattern's snapshots come first, and its steps read no more: both
    # graphs may share one store.
    p_nodes, p_edges = pattern.nodes, pattern.edges
    by_key, planned = pattern._pattern_plan
    store = host._rooted()
    node_map, edge_map = _normalise_partial(p_nodes, p_edges, store, partial)
    bound = frozenset(node_map)
    steps = planned.get(bound)
    if steps is None:
        steps = planned[bound] = _node_steps(pattern, bound)
    used = set(node_map.values())
    # The node map is injective, so distinct pattern classes land in distinct
    # host classes, and the endpoint closure puts a class's pre-assigned
    # edges in its own: a class fits when its host class is as large, and
    # its free edges avoid only the pre-assigned images.
    fixed = set(edge_map.values())
    free_edges = by_key if not edge_map else [
        (cls, [e for e in ids if e not in edge_map]) for cls, ids in by_key
    ]
    n_free, n_all = len(steps), len(steps) + len(free_edges)

    # ``extend`` binds the free nodes, then each class's free edges, and
    # calls itself through an argument, not a closure cell, so a finished or
    # dropped stream leaves no cycle.  A type bucket iterated across a yield
    # is the same list once rerooted.
    def extend(extend, pos: int) -> Iterator[Morphism]:
        if pos == 0:
            host._rooted()
        if pos < n_free:
            v, ntype, draw, fit = steps[pos]
            if draw is None:
                candidates = store.nodes_by_type.get(ntype, ())
            else:  # the rest fail to fit the class drawn through
                etype, u, near, far = draw
                y = node_map[u]
                incident = map(store.edges.__getitem__, store.incidence[y])
                ends = {e[far] for e in incident if e[0] == etype and e[near] == y}
                candidates = sorted([x for x in ends if store.nodes[x] == ntype])
            for x in candidates:
                if x in used:
                    continue
                node_map[v] = x
                for etype, ps, pt, n in fit:  # a host class as large
                    if len(store.edge_classes.get((etype, node_map[ps], node_map[pt]), ())) < n:
                        break
                else:
                    used.add(x)
                    yield from extend(extend, pos + 1)
                    used.discard(x)
                del node_map[v]
        elif pos < n_all:
            (etype, ps, pt), remaining = free_edges[pos - n_free]
            host_class = store.edge_classes.get((etype, node_map[ps], node_map[pt]), ())
            free = [h for h in host_class if h not in fixed]
            for combo in itertools.permutations(free, len(remaining)):
                edge_map.update(zip(remaining, combo))
                yield from extend(extend, pos + 1)
        else:
            yield Morphism(pattern, host, node_map, edge_map)
            host._rooted()

    return extend(extend, 0)


def dangling_node(
    host: TypedGraph, nodes: Iterable[str], edges: Collection[str]
) -> str | None:
    """The first of ``nodes``, in the order given, with an incident ``host``
    edge outside ``edges``: a node whose deletion together with ``edges``
    would leave that edge dangling.  ``None`` if there is no such node.
    Costs the incident edges of the nodes scanned."""
    for y in nodes:
        for eid in host._rooted().incidence[y]:
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
    return context, k_to_context, Morphism.inclusion(context, host)
