"""Matching for effect-oriented rules.

Starting from a pre-match of the base rule, the matcher binds potential
actions to host elements: a potential deletion that is bound will be
deleted, a potential creation that is bound is reused from the host instead
of being created.  One search, :func:`_leaves`, serves every strategy; the
public ``find_*`` functions drive it, and none enumerates the selections.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple

from .core import (
    Edge,
    EffectGraphError,
    ElementSet,
    Morphism,
    TypedGraph,
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


@dataclass(frozen=True)
class PreMatch:
    """A morphism from the base lhs; :func:`validate_prematch` checks that
    it is injective and satisfies the base NACs."""

    morphism: Morphism


@dataclass(frozen=True)
class MatchResult:
    """An induced rule together with its match and the pre-match it extends."""

    induced: InducedRule
    match: Morphism
    base_prematch: PreMatch

    def sort_key(self) -> tuple:
        return self.induced.selection.sort_key() + self.match.sort_key()


@dataclass
class MatchStats:
    """Counters filled in by :func:`find_locally_complete`,
    :func:`find_locally_maximal` and :func:`find_globally_maximal`.

    ``backtracks`` counts rejected candidates: host elements given up for a
    potential element, either up front (a node whose incident edges the
    deletion could never all remove) or after the search below them failed.
    Candidates that a maximal search cuts by its bound without binding them
    are not counted.

    ``examined`` counts the host elements the search looked at to find
    candidates: the incident edges a maximal search scans for supported
    candidates, plus every element drawn from a type bucket or an edge
    class, used or free.  A maximal search stops drawing from a bucket at
    the first candidate that its bound cuts.

    ``full_passes`` counts the times :func:`find_locally_complete` ran the
    full search after its greedy pass found nothing."""

    backtracks: int = 0
    examined: int = 0
    full_passes: int = 0


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


class _Leaf(NamedTuple):
    """An accepted match whose induced rule is not built yet."""

    pm: PreMatch
    selection: InducedSelection
    node_map: dict[str, str]
    edge_map: dict[str, str]

    def sort_key(self) -> tuple:
        """The :meth:`MatchResult.sort_key` of the built result."""
        maps = self.node_map.items(), self.edge_map.items()
        return self.selection.sort_key() + tuple(tuple(sorted(m)) for m in maps)


class _Best:
    """The incumbent of a branch and bound: every leaf of the largest size
    offered so far, and that size (-1 before the first leaf)."""

    def __init__(self) -> None:
        self.size = -1
        self.leaves: list[_Leaf] = []

    def offer(self, leaf: _Leaf) -> None:
        size = leaf.selection.size
        if size > self.size:
            self.size, self.leaves = size, [leaf]
        elif size == self.size:
            self.leaves.append(leaf)


class _Greedy:
    """The mark of a greedy pass, which skips an element only when no
    candidate is free.  It records whether the pass visited a point where
    the full search would also skip on purpose; if not, the two searches
    visit the same tree."""

    def __init__(self) -> None:
        self.would_skip = False


def _edge_kinds(g: TypedGraph, node: str) -> Iterator[tuple[str, bool, bool]]:
    """The edges incident to ``node``, by type and direction."""
    for h in g.incidence[node]:
        e = g.edges[h]
        yield e.type, e.src == node, e.tgt == node


def _leaves(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    stats: MatchStats,
    greedy: _Greedy | None = None,
    best: _Best | None = None,
) -> Iterator[_Leaf]:
    """The effect-matching search: lazily, every locally complete match
    extending ``pm`` that admits a transformation.

    Potential deletion nodes, creation nodes, deletion edges and creation
    edges are visited in that order, by ascending id.  Each binds a free
    host element of its type or edge class (in ``nodes_by_type`` or
    ``edge_classes`` order) or is skipped; an edge with an unbound endpoint
    is skipped.  Only necessary conditions prune:

    * a deletion-node candidate with more incident host edges, by type and
      direction, than the rule node is rejected (it still counts as free);
      the check stops at the first host edge the rule node has no room for;
    * a skip needs no more free candidates than same-typed nodes or
      same-class edges still to come, so every leaf is locally complete;
    * once the deletions are decided, :func:`dangling_node` checks them;
    * with an incumbent ``best``, a branch whose size plus what it can
      still bind is below the incumbent's size is cut, so ties survive.

    The free candidates of a node are counted, not scanned: the bucket's
    size minus the used nodes of its type.  The host classes of the edges
    are looked up again only when a node binding changes.

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
    the nodes it binds, whatever the size of the buckets.

    With ``greedy`` an element is skipped only when no candidate is free,
    and ``greedy.would_skip`` is set wherever the full search would skip
    although a candidate is free."""
    base, lg, rg = eor.base, eor.maximal.lhs, eor.maximal.rhs
    pd, pc = eor.potential_deletions, eor.potential_creations
    elements = [(n, lg.nodes[n], True, True) for n in sorted(pd.nodes)]
    elements += [(n, rg.nodes[n], False, True) for n in sorted(pc.nodes)]
    n_nodes = len(elements)
    elements += [(e, lg.edges[e], True, False) for e in sorted(pd.edges)]
    boundary = len(elements)
    elements += [(e, rg.edges[e], False, False) for e in sorted(pc.edges)]

    node_map = dict(pm.morphism.node_map)
    edge_map = dict(pm.morphism.edge_map)
    used_nodes, used_edges = set(node_map.values()), set(edge_map.values())
    used_types: dict[str, int] = {}  # used nodes by type
    for t in map(host.nodes.__getitem__, used_nodes):
        used_types[t] = used_types.get(t, 0) + 1
    kept = base.interface
    del_nodes = {node_map[v] for v in base.lhs.nodes if v not in kept.nodes}
    del_edges = {edge_map[e] for e in base.lhs.edges if e not in kept.edges}
    room = {n: Counter(_edge_kinds(lg, n)) for n in pd.nodes}
    # Each potential node's potential edges, with their position and the
    # other end.  A valid rule's sides share only interface ids, so the
    # edges are on the node's side.
    adjacent: dict[str, list[tuple[int, Edge, str]]] = {
        v: [] for v, *_ in elements[:n_nodes]
    }
    for j in range(n_nodes, len(elements)):
        e = elements[j][1]
        for v, u in ((e.src, e.tgt), (e.tgt, e.src)):
            if v in adjacent:
                adjacent[v].append((j, e, u))

    def edge_key(e: Edge) -> tuple[str, str, str] | None:
        # A bindable edge's host class, or None.  A valid rule's sides share
        # only interface ids: mapped means bound on the edge's side.
        src, tgt = node_map.get(e.src), node_map.get(e.tgt)
        return None if src is None or tgt is None else (e.type, src, tgt)

    # Each element's node type or edge class, kept up to date as nodes bind.
    keys = [item if is_node else edge_key(item) for _, item, _, is_node in elements]

    def rekey(v: str) -> None:
        for j, e, _ in adjacent[v]:
            keys[j] = edge_key(e)

    def deletable(x: str, v: str) -> bool:
        """Whether deleting rule node ``v`` can remove every edge incident
        to host node ``x``: no more of them, by type and direction."""
        if len(host.incidence[x]) > len(lg.incidence[v]):
            return False
        left = dict(room[v])
        for kind in _edge_kinds(host, x):
            if not left.get(kind):
                return False
            left[kind] -= 1
        return True

    def can_grow(i: int) -> int:
        """At most how many elements from ``i`` on can still be bound: all but
        the bindable edges whose host class has no free edge left."""
        count = len(elements) - i
        for key in keys[max(i, n_nodes) :]:
            if key and used_edges.issuperset(host.edge_classes.get(key, ())):
                count -= 1
        return count

    def tries(
        i: int, size: int, candidates: tuple[str, ...], used: set[str]
    ) -> Iterator[str]:
        """The free candidates element ``i`` tries, in order: those of
        ``candidates``, its bucket or class, or for a node with an
        incumbent, the supported ones and then the others of the bucket
        until the bound they share is below the incumbent."""
        supported: set[str] = set()
        shared = None  # the bound the unsupported candidates share, if any
        if best is not None and i < n_nodes:
            v = elements[i][0]
            anchored = [(e, node_map[u]) for _, e, u in adjacent[v] if u in node_map]
            for e, y in anchored:
                outgoing = e.src == v
                incident = host.incidence[y]
                stats.examined += len(incident)
                for h in incident:
                    he = host.edges[h]
                    if he.type == e.type and h not in used_edges:
                        x, end = (he.src, he.tgt) if outgoing else (he.tgt, he.src)
                        if end == y:
                            supported.add(x)
            supported -= used_nodes
            shared = size + 1 + can_grow(i + 1) - len(anchored)
            yield from sorted(supported)  # bucket order
        for x in candidates:
            stats.examined += 1
            if shared is not None and shared < best.size:
                return  # the rest are cut untried, but free all the same
            if x not in used and x not in supported:
                yield x

    def place(place, i: int, size: int) -> Iterator[_Leaf]:
        if i == boundary and dangling_node(host, del_nodes, del_edges) is not None:
            return
        if i == len(elements):
            bound = node_map.keys(), edge_map.keys()
            selection = InducedSelection(
                ElementSet(pd.nodes & bound[0], pd.edges & bound[1]),
                ElementSet(pc.nodes & bound[0], pc.edges & bound[1]),
            )
            yield _Leaf(pm, selection, dict(node_map), dict(edge_map))
            return
        if best is not None and size + can_grow(i) < best.size:
            return
        xid, _, deleting, is_node = elements[i]
        key = keys[i]  # None has no candidates: the edge is skipped
        index, images, used, deleted = (
            (host.nodes_by_type, node_map, used_nodes, del_nodes)
            if is_node
            else (host.edge_classes, edge_map, used_edges, del_edges)
        )
        candidates = index.get(key, ())
        if is_node:
            free = len(candidates) - used_types.get(key, 0)
        else:
            free = sum(x not in used for x in candidates)
        for x in tries(i, size, candidates, used):
            if deleting and is_node and not deletable(x, xid):
                stats.backtracks += 1
                continue
            images[xid] = x
            used.add(x)
            if deleting:
                deleted.add(x)
            if is_node:
                used_types[key] = used_types.get(key, 0) + 1
                rekey(xid)
            found = False
            for leaf in place(place, i + 1, size + 1):
                found = True
                yield leaf
            deleted.discard(x)
            used.discard(x)
            del images[xid]
            if is_node:
                used_types[key] -= 1
                rekey(xid)
            if not found:
                stats.backtracks += 1
        if free == 0:
            yield from place(place, i + 1, size)
        elif free <= keys[i + 1 :].count(key):
            if greedy is None:
                yield from place(place, i + 1, size)
            else:
                greedy.would_skip = True

    # Recursing through an argument, not a closure cell, leaves no cycle, so
    # the search state is freed as soon as the caller drops the generator.
    return place(place, 0, 0)


def _built(
    eor: EffectOrientedRule, host: TypedGraph, leaves: Iterable[_Leaf]
) -> list[MatchResult]:
    """The results of ``leaves``, sorted; each induced rule is built once."""
    rules: dict[InducedSelection, InducedRule] = {}
    out = []
    for leaf in leaves:
        sel = leaf.selection
        induced = rules.get(sel) or rules.setdefault(sel, build_induced_rule(eor, sel))
        match = Morphism(induced.rule.lhs, host, leaf.node_map, leaf.edge_map)
        out.append(MatchResult(induced, match, leaf.pm))
    return sorted(out, key=MatchResult.sort_key)


def _largest_leaves(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pms: Iterable[PreMatch],
    stats: MatchStats | None,
) -> list[_Leaf]:
    """The largest matches over ``pms``, unbuilt, by branch and bound: one
    incumbent prunes the searches of every pre-match."""
    stats = MatchStats() if stats is None else stats
    best = _Best()
    for pm in pms:
        for leaf in _leaves(eor, host, pm, stats, best=best):
            best.offer(leaf)
    return best.leaves


def _least_built(
    eor: EffectOrientedRule, host: TypedGraph, leaves: Iterable[_Leaf]
) -> MatchResult | None:
    """The first result ``_built`` would return for ``leaves``, built alone;
    ``None`` when there is no leaf."""
    leaf = min(leaves, key=_Leaf.sort_key, default=None)
    return None if leaf is None else _built(eor, host, [leaf])[0]


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
    validate_prematch(eor, host, pm)
    stats = MatchStats() if stats is None else stats
    greedy = _Greedy()
    leaf = next(_leaves(eor, host, pm, stats, greedy), None)
    if leaf is not None:
        return _built(eor, host, [leaf])[0]
    if not greedy.would_skip:
        return None
    stats.full_passes += 1
    return _least_built(eor, host, _leaves(eor, host, pm, stats))


def find_all_locally_complete(
    eor: EffectOrientedRule, host: TypedGraph, pm: PreMatch
) -> list[MatchResult]:
    """Every locally complete match extending ``pm`` that admits a
    transformation, in :meth:`MatchResult.sort_key` order."""
    validate_prematch(eor, host, pm)
    return _built(eor, host, _leaves(eor, host, pm, MatchStats()))


def find_locally_maximal(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    stats: MatchStats | None = None,
) -> list[MatchResult]:
    """The locally complete matches of maximal induced-rule size for ``pm``,
    in :meth:`MatchResult.sort_key` order."""
    validate_prematch(eor, host, pm)
    return _built(eor, host, _largest_leaves(eor, host, [pm], stats))


def find_globally_maximal(
    eor: EffectOrientedRule,
    host: TypedGraph,
    stats: MatchStats | None = None,
) -> list[MatchResult]:
    """The locally complete matches of maximal size over all pre-matches,
    in :meth:`MatchResult.sort_key` order."""
    leaves = _largest_leaves(eor, host, find_base_prematches(eor, host), stats)
    return _built(eor, host, leaves)
