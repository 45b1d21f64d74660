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
    """An injective morphism from the base lhs with its NAC verdict."""

    morphism: Morphism
    nac_ok: bool

    @classmethod
    def create(cls, eor: EffectOrientedRule, morphism: Morphism) -> PreMatch:
        return cls(morphism, satisfies_nacs(morphism, eor.base.nacs))


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
    are not counted."""

    backtracks: int = 0


def find_base_prematches(
    eor: EffectOrientedRule, host: TypedGraph
) -> Iterator[PreMatch]:
    """All injective NAC-satisfying morphisms of the base lhs, in the
    deterministic search order."""
    for m in find_injective_extensions(eor.base.lhs, host):
        if satisfies_nacs(m, eor.base.nacs):
            yield PreMatch(m, True)


def validate_prematch(
    eor: EffectOrientedRule, host: TypedGraph, pm: PreMatch
) -> None:
    if pm.morphism.src_graph != eor.base.lhs or pm.morphism.dst_graph != host:
        raise InvalidPreMatch("pre-match does not map the base lhs into the host")
    problems = check_morphism(pm.morphism, require_injective=True)
    if problems:
        raise InvalidPreMatch(f"pre-match is not a valid injection: {problems[0]}")
    if not pm.nac_ok or not satisfies_nacs(pm.morphism, eor.base.nacs):
        raise InvalidPreMatch("pre-match violates a base NAC")


def is_compatible(eor: EffectOrientedRule, pm: PreMatch, mr: MatchResult) -> bool:
    """Whether the result's match restricts to the pre-match on the base lhs."""
    m, base = mr.match, pm.morphism
    for nid in eor.base.lhs.nodes:
        if m.node_map.get(nid) != base.node_map[nid]:
            return False
    for eid in eor.base.lhs.edges:
        if m.edge_map.get(eid) != base.edge_map[eid]:
            return False
    return True


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


def _profile(g: TypedGraph, node: str) -> Counter:
    """The edges incident to ``node``, counted by type and direction."""
    edges = map(g.edges.__getitem__, g.incidence[node])
    return Counter((e.type, e.src == node, e.tgt == node) for e in edges)


def _leaves(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    stats: MatchStats,
    greedy: bool = False,
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
    * a skip needs no more free candidates than same-typed nodes or
      same-class edges still to come, so every leaf is locally complete;
    * once the deletions are decided, :func:`dangling_node` checks them;
    * with an incumbent ``best``, a branch whose size plus what it can
      still bind is below the incumbent's size is cut, so ties survive.

    With an incumbent, a potential node ``v`` first tries its supported
    candidates: those joined by a free host edge to the image of an already
    bound node ``u``, with the type and direction of a potential edge
    between ``v`` and ``u`` (an anchored edge).  The other candidates leave
    every anchored edge without a free host edge, so they share one bound,
    what ``v`` can bind unbound minus the anchored edges; once it is below
    the incumbent they are cut together, still counted as free.

    With ``greedy`` an element is skipped only when no candidate is free."""
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
    kept = base.interface
    del_nodes = {node_map[v] for v in base.lhs.nodes if v not in kept.nodes}
    del_edges = {edge_map[e] for e in base.lhs.edges if e not in kept.edges}
    rule_profiles = {n: _profile(lg, n) for n in pd.nodes}
    # Each potential node's potential edges, with the other end.  A valid
    # rule's sides share only interface ids, so the edges are on the node's
    # side.
    adjacent: dict[str, list[tuple[Edge, str]]] = {
        v: [] for v, *_ in elements[:n_nodes]
    }
    for _, e, _, _ in elements[n_nodes:]:
        for v, u in ((e.src, e.tgt), (e.tgt, e.src)):
            if v in adjacent:
                adjacent[v].append((e, u))

    def key_of(i: int):
        # A node's type, a bindable edge's host class, or None.  A valid rule's
        # sides share only interface ids: mapped means bound on the edge's side.
        _, item, _, is_node = elements[i]
        if is_node:
            return item
        src, tgt = node_map.get(item.src), node_map.get(item.tgt)
        return None if src is None or tgt is None else (item.type, src, tgt)

    def can_grow(i: int) -> int:
        """At most how many elements from ``i`` on can still be bound: all but
        the bindable edges whose host class has no free edge left."""
        count = len(elements) - i
        for j in range(max(i, n_nodes), len(elements)):
            key = key_of(j)
            if key and used_edges.issuperset(host.edge_classes.get(key, ())):
                count -= 1
        return count

    def supported_first(i: int, size: int) -> tuple[list[str], int, int]:
        """The free candidates of node element ``i``, supported ones first,
        how many are supported, and the bound the others share."""
        v, ntype = elements[i][:2]
        anchored = [(e, node_map[u]) for e, u in adjacent[v] if u in node_map]
        supported = set()
        for e, y in anchored:
            outgoing = e.src == v
            for h in host.incidence[y]:
                he = host.edges[h]
                if he.type == e.type and h not in used_edges:
                    x, end = (he.src, he.tgt) if outgoing else (he.tgt, he.src)
                    if end == y:
                        supported.add(x)
        bucket = host.nodes_by_type.get(ntype, ())
        front = [x for x in bucket if x in supported and x not in used_nodes]
        rest = [x for x in bucket if x not in supported and x not in used_nodes]
        return front + rest, len(front), size + 1 + can_grow(i + 1) - len(anchored)

    def place(place, i: int, size: int) -> Iterator[_Leaf]:
        if i == boundary and dangling_node(host, del_nodes, del_edges) is not None:
            return
        if i == len(elements):
            keys = node_map.keys(), edge_map.keys()
            selection = InducedSelection(
                ElementSet(pd.nodes & keys[0], pd.edges & keys[1]),
                ElementSet(pc.nodes & keys[0], pc.edges & keys[1]),
            )
            yield _Leaf(pm, selection, dict(node_map), dict(edge_map))
            return
        if best is not None and size + can_grow(i) < best.size:
            return
        xid, _, deleting, is_node = elements[i]
        key = key_of(i)  # None has no candidates: the edge is skipped
        index, images, used, deleted = (
            (host.nodes_by_type, node_map, used_nodes, del_nodes)
            if is_node
            else (host.edge_classes, edge_map, used_edges, del_edges)
        )
        candidates = index.get(key, ())
        first, shared = len(candidates), 0  # from ``first`` on, bounded by ``shared``
        if best is not None and is_node:
            candidates, first, shared = supported_first(i, size)
        free = 0
        for k, x in enumerate(candidates):
            if x in used:
                continue
            free += 1
            if k >= first and shared < best.size:
                continue  # cut untried, but free all the same
            if deleting and is_node and not _profile(host, x) <= rule_profiles[xid]:
                stats.backtracks += 1
                continue
            images[xid] = x
            used.add(x)
            if deleting:
                deleted.add(x)
            found = False
            for leaf in place(place, i + 1, size + 1):
                found = True
                yield leaf
            deleted.discard(x)
            used.discard(x)
            del images[xid]
            if not found:
                stats.backtracks += 1
        later = range(i + 1, len(elements))
        if free == 0 or (not greedy and free <= sum(key_of(j) == key for j in later)):
            yield from place(place, i + 1, size)

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
    node reuses one, say), so if it finds nothing the least match of the
    full search by :meth:`MatchResult.sort_key` is returned."""
    validate_prematch(eor, host, pm)
    stats = MatchStats() if stats is None else stats
    leaf = next(_leaves(eor, host, pm, stats, greedy=True), None)
    if leaf is None:
        return _least_built(eor, host, _leaves(eor, host, pm, stats))
    return _built(eor, host, [leaf])[0]


def find_all_locally_complete(
    eor: EffectOrientedRule, host: TypedGraph, pm: PreMatch
) -> list[MatchResult]:
    """Every locally complete match extending ``pm`` that admits a
    transformation, in :meth:`MatchResult.sort_key` order."""
    validate_prematch(eor, host, pm)
    return _built(eor, host, _leaves(eor, host, pm, MatchStats()))


def is_locally_complete(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    mr: MatchResult,
) -> bool:
    """The one-step completeness check behind the matcher's guarantee.

    For every unselected potential element, the factorisation that
    additionally binds it on top of ``mr`` must be either not matchable (no
    injective extension of the existing match covers it) or not applicable
    (every candidate host element is already an image of the match, so the
    combined morphism would not be injective).  The existing bindings stay
    fixed and only the added element is free, which reduces both clauses to
    one question: does the host still hold a free element of the right type
    — and, for edges, between the right endpoint images?"""
    if not is_compatible(eor, pm, mr):
        raise ValueError("match result is not compatible with the pre-match")
    sel = mr.induced.selection
    m = mr.match
    lg, rg = eor.maximal.lhs, eor.maximal.rhs
    lhs_nodes = eor.base.lhs.nodes.keys() | sel.del_extra.nodes
    kept_nodes = eor.interface.nodes.keys() | sel.preserve_extra.nodes

    free_node_types = set()
    for nid in eor.potential_deletions.nodes - sel.del_extra.nodes:
        free_node_types.add(lg.nodes[nid])
    for nid in eor.potential_creations.nodes - sel.preserve_extra.nodes:
        free_node_types.add(rg.nodes[nid])
    for ntype in free_node_types:
        if any(
            x not in m.node_images for x in host.nodes_by_type.get(ntype, ())
        ):
            return False

    def edge_blocked(side: TypedGraph, eid: str, bound: set[str]) -> bool:
        e = side.edges[eid]
        if e.src not in bound or e.tgt not in bound:
            # One element at a time this is not a graph; adding the edge
            # together with an endpoint is caught through the endpoint.
            return False
        cls = (e.type, m.node_map[e.src], m.node_map[e.tgt])
        return any(
            x not in m.edge_images for x in host.edge_classes.get(cls, ())
        )

    for eid in eor.potential_deletions.edges - sel.del_extra.edges:
        if edge_blocked(lg, eid, lhs_nodes):
            return False
    for eid in eor.potential_creations.edges - sel.preserve_extra.edges:
        if edge_blocked(rg, eid, kept_nodes):
            return False
    return True


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
