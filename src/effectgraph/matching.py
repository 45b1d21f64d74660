"""Matching for effect-oriented rules.

Starting from a pre-match of the base rule, the matcher binds potential
actions to host elements: a potential deletion that is bound will be
deleted, a potential creation that is bound is reused from the host instead
of being created.  One search, :func:`_leaves`, serves every strategy; the
public ``find_*`` functions drive it, and none enumerates the selections.
"""

from __future__ import annotations

from heapq import merge
from typing import Iterable, Iterator, NamedTuple

from .core import (
    Edge,
    EffectGraphError,
    ElementSet,
    Morphism,
    TypedGraph,
    _Value,
    check_morphism,
    dangling_node,
    find_injective_extensions,
)
from .effect import (
    EffectOrientedRule,
    InducedRule,
    InducedSelection,
    build_induced_rule,
)
from .rules import satisfies_nacs


class InvalidPreMatch(EffectGraphError):
    """The supplied pre-match is not an injective NAC-satisfying match of
    the base left-hand side."""


class PreMatch(_Value):
    """A morphism from the base lhs; :func:`validate_prematch` checks that
    it is injective and satisfies the base NACs."""

    _fields = ("morphism",)

    def __init__(self, morphism: Morphism) -> None:
        self.__dict__["morphism"] = morphism


class MatchResult(NamedTuple):
    """An induced rule together with its match and the pre-match it extends."""

    induced: InducedRule
    match: Morphism
    base_prematch: PreMatch

    def sort_key(self) -> tuple:
        return self.induced.selection.sort_key() + self.match.sort_key()


class MatchStats:
    """Counters filled in by :func:`find_locally_complete`,
    :func:`find_locally_maximal` and :func:`find_globally_maximal`.

    ``backtracks`` counts rejected candidates: host elements given up for a
    potential element, either up front (the free nodes whose incident edges
    the deletion could never all remove) or after the search below failed.
    Candidates that a maximal search cuts without binding them, by its
    bound or, in :func:`~effectgraph.semantics.find_match`, by the key of a
    tie, are not counted.

    ``examined`` counts the host elements the search looked at to find
    candidates: the incident edges of each bound node's image, which a
    maximal search scans once for supported candidates and dead edges,
    plus every element drawn from a type bucket or an edge class, used or
    free; for a potential deletion node, the profiles of its type tested and
    the candidates drawn from those that fit.  A maximal search stops
    drawing from a bucket at the first candidate that its bound cuts.

    ``full_passes`` counts the times :func:`find_locally_complete` ran the
    full search after its greedy pass found nothing."""

    def __init__(self) -> None:
        self.backtracks = 0
        self.examined = 0
        self.full_passes = 0


def find_base_prematches(
    eor: EffectOrientedRule, host: TypedGraph
) -> Iterator[PreMatch]:
    """All injective NAC-satisfying morphisms of the base lhs, in the
    deterministic search order."""
    for m in find_injective_extensions(eor.base.lhs, host):
        if satisfies_nacs(m, eor.base.nacs):
            yield PreMatch(m)


def validate_prematch(
    eor: EffectOrientedRule, host: TypedGraph, pm: PreMatch
) -> None:
    if pm.morphism.src_graph != eor.base.lhs or pm.morphism.dst_graph != host:
        raise InvalidPreMatch("pre-match does not map the base lhs into the host")
    problems = check_morphism(pm.morphism)
    if problems:
        raise InvalidPreMatch(f"pre-match is not a valid injection: {problems[0]}")
    if not satisfies_nacs(pm.morphism, eor.base.nacs):
        raise InvalidPreMatch("pre-match violates a base NAC")
    pm.__dict__["_rule"] = eor


def _entered(eor: EffectOrientedRule, host: TypedGraph, pm: PreMatch) -> None:
    """:func:`validate_prematch` where a pre-match enters, unless ``pm``
    was checked for ``eor`` and this very ``host`` already."""
    if pm.__dict__.get("_rule") is not eor or pm.morphism.dst_graph is not host:
        validate_prematch(eor, host, pm)


class _Best:
    """The incumbent of a branch and bound: every leaf of the largest size
    offered so far, and that size (-1 before the first leaf).  With
    ``least``, only the least of them by :meth:`MatchResult.sort_key`, and
    its ``key``; the search then offers only leaves that beat the incumbent."""

    def __init__(self, least: bool = False) -> None:
        self.size, self.least, self.key = -1, least, None
        self.leaves: list[MatchResult] = []

    def offer(self, leaf: MatchResult) -> None:
        size = leaf.induced.size
        if size > self.size or self.least:
            self.size, self.leaves = size, [leaf]
            self.key = leaf.sort_key() if self.least else None
        elif size == self.size:
            self.leaves.append(leaf)


def _leaves(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    stats: MatchStats,
    greedy: set[int] | None = None,
    best: _Best | None = None,
) -> Iterator[MatchResult]:
    """The effect-matching search: lazily, every locally complete match
    extending ``pm`` that admits a transformation.

    Potential deletion nodes, creation nodes, deletion edges and creation
    edges are visited in that order, by ascending id.  Each binds a free
    host element of its type or edge class (in ``nodes_by_type`` or
    ``edge_classes`` order) or is skipped; an edge with an unbound endpoint
    is skipped.  Only necessary conditions prune:

    * a deletion node tests each host profile of its type once and draws
      only the nodes of those that fit its own, no more edges of any kind;
      the free nodes of the others are rejected at once (they count as free);
    * a skip needs no more free candidates than same-typed nodes or
      same-class edges still to come, so every leaf is locally complete;
    * once the deletions are decided, :func:`dangling_node` checks them;
    * with an incumbent ``best``, a branch whose size plus what it can
      still bind is below the incumbent's size is cut, so ties survive
      unless ``best`` keeps one leaf (below).

    The free candidates of a node are counted, not scanned: the bucket's
    size minus the used nodes of its type.  The edges' host classes, and
    what can still bind, are updated only where a binding changes them.

    With an incumbent, a potential node ``v`` first tries its supported
    candidates: those joined by a free host edge to the image of an already
    bound node ``u``, with the type and direction of a potential edge
    between ``v`` and ``u`` (an anchored edge).  They are found from the
    incident edges of the images alone.  The other candidates leave every
    anchored edge without a free host edge, so they share one bound, what
    ``v`` can bind unbound minus the anchored edges.  They are drawn from
    the bucket one at a time, and the drawing stops once that bound is
    below the incumbent, which may have grown since the last draw.  A query
    whose results all tie thus costs about its results plus the degree of
    the nodes it binds, whatever the size of the buckets.  What a branch
    can still bind leaves out dead edges: an edge with one end bound, whose
    image has no free host edge of the edge's type and direction.

    A branch that can only tie the one leaf ``best`` keeps must bind all it
    counts, so its selection is known: it is cut when that selection, or
    else its images fixed so far in key order, compare greater than the
    leaf's :meth:`MatchResult.sort_key`.  So a leaf is built only when it beats
    the kept one, and the first unsupported candidate cut ends the drawing.

    With ``greedy``, a set, an element is skipped only when no candidate is
    free, and the position ``i`` of each element that the full search would
    skip although a candidate is free is added to the set."""
    elements, n_nodes, boundary, room, adjacent, gone, parts = eor._plan
    pd, pc = eor.potential_deletions, eor.potential_creations

    node_map = dict(pm.morphism.node_map)
    edge_map = dict(pm.morphism.edge_map)
    used_nodes, used_edges = set(node_map.values()), set(edge_map.values())
    store = host._rooted()
    edges = store.edges
    used_types: dict[str, int] = {}  # used nodes by type
    for t in map(store.nodes.__getitem__, used_nodes):
        used_types[t] = used_types.get(t, 0) + 1
    del_nodes = {node_map[v] for v in gone.nodes}
    del_edges = {edge_map[e] for e in gone.edges}

    reached: dict[str, dict[tuple[str, bool], list[str]]] = {}
    if best is not None:  # the edge types ``reach`` is asked about
        asked = {item.type for _, item, _, is_node in elements if not is_node}

    def reach(y: str) -> dict[tuple[str, bool], list[str]]:
        """The other ends of the free host edges at node ``y`` of the potential
        edges' types, by type and whether ``y`` is the source, from one scan
        of its incidence.  Only nodes use it: the free edges stay put."""
        ends = reached.get(y)
        if ends is None:
            incident = store.incidence[y]
            stats.examined += len(incident)
            ends = reached[y] = {}
            for he in (edges[h] for h in incident if h not in used_edges):
                if he.type in asked:
                    out = he.src == y
                    ends.setdefault((he.type, out), []).append(he.tgt if out else he.src)
        return ends

    def edge_key(e: Edge) -> tuple[str, ...] | None:
        # A bindable edge's host class, or None.  A valid rule's sides share
        # only interface ids: mapped means bound on the edge's side.  With an
        # incumbent, a dead edge gets the class (), which has no edges.
        src, tgt = node_map.get(e.src), node_map.get(e.tgt)
        if src is not None and tgt is not None:
            return (e.type, src, tgt)
        if best is None or src is None and tgt is None:
            return None
        y = tgt if src is None else src
        return None if (e.type, src is not None) in reach(y) else ()

    # Each element's node type or edge class, kept up to date as nodes bind.
    keys = [item if is_node else edge_key(item) for _, item, _, is_node in elements]

    def open_type(t: str) -> bool:  # whether type ``t`` has a free host node
        return len(store.nodes_by_type.get(t, ())) > used_types.get(t, 0)

    def open_class(k: tuple[str, ...] | None) -> bool:  # an end unbound, or a free edge
        return k is None or not used_edges.issuperset(store.edge_classes.get(k, ()))

    # With an incumbent, whether each position can still bind, kept up to
    # date as elements bind: a branch at ``i`` can bind those from ``i`` on.
    grows = [] if best is None else [
        open_type(k) if j < n_nodes else open_class(k) for j, k in enumerate(keys)
    ]

    def rebound(i: int, key: str | tuple[str, ...]) -> None:
        """Once element ``i``, of node type or edge class ``key``, binds or
        unbinds: the classes of the edges at a node, and with an incumbent,
        whether they and the later elements of ``key`` can bind."""
        if i < n_nodes:
            for j, e, _ in adjacent[elements[i][0]]:
                keys[j] = edge_key(e)
                if best is not None:
                    grows[j] = open_class(keys[j])
        if best is not None:
            can = open_type(key) if i < n_nodes else open_class(key)
            for j in range(i + 1, len(elements)):
                if keys[j] == key:
                    grows[j] = can

    def fitting(v: str, ntype: str) -> tuple[Iterator[str], set[tuple]]:
        """The nodes deletion node ``v`` can delete, in bucket order, and their
        profiles, which fit ``v``'s; the free nodes of the others are rejected."""
        buckets, of = store.by_profile(ntype), store.profile_of
        stats.examined += len(buckets)
        fit = {p for p in buckets if all(room[v].get(kind, 0) >= n for kind, n in p)}
        taken = sum(store.nodes[u] == ntype and of[u] not in fit for u in used_nodes)
        stats.backtracks += sum(len(buckets[p]) for p in buckets.keys() - fit) - taken
        return merge(*(ids for p, ids in buckets.items() if p in fit)), fit

    def cut(bound: int, i: int, skip: dict | tuple = ()) -> bool:
        """Whether a branch that binds at most ``bound`` elements, no more
        than the incumbent, cannot beat it: it is smaller, or it ties the one
        leaf kept.  Then it binds exactly the positions from ``i`` on that can
        still bind but ``skip``, and it is cut if certain not to be less by
        key: by that selection, else by its images in key order up to one unfixed."""
        if bound < best.size or not best.least:
            return bound < best.size
        key = best.key
        rest = {j for j in range(i, len(grows)) if grows[j] and j not in skip}
        for part, images, least in zip(parts, (node_map, edge_map) * 2, key):
            ids = tuple([x for j, x in part if x in images or j in rest])
            if ids != least:  # a part of the selection's sort key
                return ids > least
        for items, images in zip(key[4:], (node_map, edge_map)):
            for v, y in items:
                if images.get(v) != y:
                    return v in images and images[v] > y
        return True

    def tries(i: int, size: int, candidates: Iterable[str], used: set[str]) -> Iterator[str]:
        """The free candidates element ``i`` tries, in order: those of
        ``candidates``, its bucket or class, or for a node with an
        incumbent, the supported ones and then the others of the bucket
        until the bound they share cuts them."""
        supported: set[str] = set()
        shared = None  # the bound the unsupported candidates share, if any
        if best is not None and i < n_nodes:
            v = elements[i][0]
            # The anchored edges but dead ones: each has a supported candidate,
            # and the unsupported candidates leave it without a host edge.
            anchored = {
                j: (e, u) for j, e, u in adjacent[v] if u in node_map and keys[j] is None
            }
            for e, u in anchored.values():
                supported.update(reach(node_map[u])[e.type, e.src == u])
            supported -= used_nodes
            # An anchored edge has an unbound end, so it can still bind.
            shared = size + 1 + sum(grows[i + 1 :]) - len(anchored)
            yield from sorted(supported)  # bucket order
        for x in candidates:
            stats.examined += 1
            if shared is not None and shared <= best.size:
                node_map[v] = x  # the key test reads the candidate's image
                stop = cut(shared, i + 1, anchored)
                del node_map[v]
                if stop:  # so are the rest: their images only grow
                    return  # they are cut untried, but free all the same
            if x not in used and x not in supported:
                yield x

    def place(place, i: int, size: int) -> Iterator[MatchResult]:
        # A skip goes on to the next position in the same frame.
        while True:
            if i == boundary and dangling_node(host, del_nodes, del_edges) is not None:
                return
            if best is not None:
                bound = size + sum(grows[i:])
                if bound <= best.size and cut(bound, i):
                    return
            if i == len(elements):
                sel = InducedSelection(
                    ElementSet(pd.nodes.intersection(node_map), pd.edges.intersection(edge_map)),
                    ElementSet(pc.nodes.intersection(node_map), pc.edges.intersection(edge_map)),
                )
                induced = build_induced_rule(eor, sel)
                match = Morphism(induced.rule.lhs, host, node_map, edge_map)
                yield MatchResult(induced, match, pm)
                host._rooted()  # before the frames above resume
                return
            xid, _, deleting, is_node = elements[i]
            key = keys[i]  # None has no candidates: the edge is skipped
            # Iterated across yields: a type bucket is the same list, with the
            # same content, once rerooted, and an edge class is a tuple.
            index, images, used, deleted = (
                (store.nodes_by_type, node_map, used_nodes, del_nodes)
                if is_node
                else (store.edge_classes, edge_map, used_edges, del_edges)
            )
            candidates = index.get(key, ())
            if is_node:
                free = len(candidates) - used_types.get(key, 0)
                candidates, fit = fitting(xid, key) if deleting else (candidates, None)
            else:
                free = sum(x not in used for x in candidates)
            for x in tries(i, size, candidates, used):
                if deleting and is_node and store.profile_of.get(x) not in fit:
                    continue  # a supported candidate, rejected by fitting()
                images[xid] = x
                used.add(x)
                if deleting:
                    deleted.add(x)
                if is_node:
                    used_types[key] = used_types.get(key, 0) + 1
                rebound(i, key)
                found = False
                for leaf in place(place, i + 1, size + 1):
                    found = True
                    yield leaf
                deleted.discard(x)
                used.discard(x)
                del images[xid]
                if is_node:
                    used_types[key] -= 1
                rebound(i, key)
                if not found:
                    stats.backtracks += 1
            if free:
                if free > keys[i + 1 :].count(key):
                    return
                if greedy is not None:
                    greedy.add(i)
                    return
            i += 1

    # Recursing through an argument, not a closure cell, leaves no cycle, so
    # the search state is freed as soon as the caller drops the generator.
    return place(place, 0, 0)


def _largest_leaves(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pms: Iterable[PreMatch],
    stats: MatchStats | None,
    least: bool = False,
) -> list[MatchResult]:
    """The largest matches over ``pms``, sorted, or with ``least`` the least
    of them alone, by branch and bound: one incumbent prunes the searches of
    every pre-match."""
    stats = MatchStats() if stats is None else stats
    best = _Best(least)
    for pm in pms:
        for leaf in _leaves(eor, host, pm, stats, best=best):
            best.offer(leaf)
    return best.leaves if least else sorted(best.leaves, key=MatchResult.sort_key)


def _at_bound(
    eor: EffectOrientedRule, host: TypedGraph, pm: PreMatch | None
) -> list[MatchResult]:
    """The least match of the rule's bound that extends ``pm`` or else a base
    pre-match, alone in a list if any.  Matches come in key order, and a node
    map's first edge map is its least: parallel host edges swap freely, so
    the checks (no dangling edge; without ``pm``, base NACs) pass all or none."""
    induced, base, gone, pd = eor._bound, eor.base.lhs, eor._plan[5], eor.potential_deletions
    nodes, edges = gone.nodes | pd.nodes, gone.edges | pd.edges  # what it deletes
    partial = None if pm is None else (pm.morphism.node_map, pm.morphism.edge_map)
    for m in find_injective_extensions(induced.rule.lhs, host, partial):
        nm, em = m.node_map, m.edge_map
        if dangling_node(host, map(nm.get, nodes), {em[e] for e in edges}) is not None:
            continue
        if pm is not None:
            return [MatchResult(induced, m, pm)]
        restricted = {v: nm[v] for v in base.nodes}, {e: em[e] for e in base.edges}
        on_base = Morphism(base, host, *restricted)
        if satisfies_nacs(on_base, eor.base.nacs):
            return [MatchResult(induced, m, PreMatch(on_base))]
    return []


def find_locally_complete(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    stats: MatchStats | None = None,
) -> MatchResult | None:
    """A locally complete match extending ``pm`` that admits a
    transformation, or ``None`` when there is none.

    The first match of a pass that skips an element only when no candidate
    is free is returned.  That pass misses matches that skip on purpose (a
    deletion node whose candidates all dangle until a same-typed creation
    node reuses one, say).  If it finds nothing, the full search runs only
    when the pass came to a point where the full search would skip
    although a candidate is free, and the least match of the full search by
    :meth:`MatchResult.sort_key` is returned.  Otherwise the full search
    would visit the very same tree, and the answer is ``None`` at once."""
    _entered(eor, host, pm)
    stats = MatchStats() if stats is None else stats
    greedy: set[int] = set()
    leaf = next(_leaves(eor, host, pm, stats, greedy), None)
    if leaf is not None or not greedy:
        return leaf
    stats.full_passes += 1
    return min(_leaves(eor, host, pm, stats), key=MatchResult.sort_key, default=None)


def find_all_locally_complete(
    eor: EffectOrientedRule, host: TypedGraph, pm: PreMatch
) -> list[MatchResult]:
    """Every locally complete match extending ``pm`` that admits a
    transformation, in :meth:`MatchResult.sort_key` order."""
    _entered(eor, host, pm)
    return sorted(_leaves(eor, host, pm, MatchStats()), key=MatchResult.sort_key)


def find_locally_maximal(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    stats: MatchStats | None = None,
) -> list[MatchResult]:
    """The locally complete matches of maximal induced-rule size for ``pm``,
    in :meth:`MatchResult.sort_key` order."""
    _entered(eor, host, pm)
    return _largest_leaves(eor, host, [pm], stats)


def find_globally_maximal(
    eor: EffectOrientedRule,
    host: TypedGraph,
    stats: MatchStats | None = None,
) -> list[MatchResult]:
    """The locally complete matches of maximal size over all pre-matches,
    in :meth:`MatchResult.sort_key` order."""
    return _largest_leaves(eor, host, find_base_prematches(eor, host), stats)
