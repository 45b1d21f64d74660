"""Matching for effect-oriented rules.

Starting from a pre-match of the base rule, the matcher binds potential
actions to host elements: a potential deletion that is bound will be
deleted, a potential creation that is bound is reused from the host instead
of being created.  :func:`find_locally_complete` implements the depth-first
search over the unbound potential nodes; edges are then included maximally.
A result is locally complete: no further potential element could have been
bound without either having no host candidate or forcing a non-injective
overall match.  :func:`oracle_locally_complete` recovers the same notion by
brute force over all selections and serves as the exhaustive cross-check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Mapping

from .core import (
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
    enumerate_selections,
)
from .rules import Rule, satisfies_nacs


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
    """Counters filled in by :func:`find_locally_complete`."""

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


def _infer_edge_maps(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    node_assign: Mapping[str, str],
) -> tuple[dict[str, str], dict[str, str]]:
    """Maximal injective edge binding for the given node binding.

    Potential deletion edges claim host edges first, then potential creation
    edges; within each side ascending rule-edge ids take the smallest unused
    host edge id."""
    claimed = set(pm.morphism.edge_map.values())
    deletions = eor.potential_deletions
    creations = eor.potential_creations
    lg, rg = eor.maximal.lhs, eor.maximal.rhs

    def claim(rule_graph: TypedGraph, eids: list[str]) -> dict[str, str]:
        taken: dict[str, str] = {}
        for eid in eids:
            e = rule_graph.edges[eid]
            src = node_assign.get(e.src)
            tgt = node_assign.get(e.tgt)
            if src is None or tgt is None:
                continue
            for h in host.edge_classes.get((e.type, src, tgt), ()):
                if h not in claimed:
                    claimed.add(h)
                    taken[eid] = h
                    break
        return taken

    del_edges = claim(lg, sorted(deletions.edges))
    pres_edges = claim(rg, sorted(creations.edges))
    return del_edges, pres_edges


def _dangling_ok(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    node_assign: Mapping[str, str],
    del_edge_map: Mapping[str, str],
) -> bool:
    base = eor.base
    deleted_hosts = {
        node_assign[v] for v in base.lhs.nodes.keys() - base.interface.nodes.keys()
    }
    deleted_hosts.update(
        node_assign[v] for v in eor.potential_deletions.nodes if v in node_assign
    )
    deleted_edges = {
        pm.morphism.edge_map[e]
        for e in base.lhs.edges.keys() - base.interface.edges.keys()
    }
    deleted_edges.update(del_edge_map.values())
    return dangling_node(host, deleted_hosts, deleted_edges) is None


def _assemble_result(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    node_assign: Mapping[str, str],
) -> MatchResult:
    del_edge_map, pres_edge_map = _infer_edge_maps(eor, host, pm, node_assign)
    selection = InducedSelection(
        ElementSet(
            frozenset(v for v in eor.potential_deletions.nodes if v in node_assign),
            frozenset(del_edge_map),
        ),
        ElementSet(
            frozenset(v for v in eor.potential_creations.nodes if v in node_assign),
            frozenset(pres_edge_map),
        ),
    )
    induced = build_induced_rule(eor, selection)
    lhs = induced.rule.lhs
    node_map = {v: node_assign[v] for v in lhs.nodes}
    edge_map = dict(pm.morphism.edge_map)
    edge_map.update(del_edge_map)
    edge_map.update(pres_edge_map)
    match = Morphism(lhs, host, node_map, edge_map)
    return MatchResult(induced=induced, match=match, base_prematch=pm)


def find_locally_complete(
    eor: EffectOrientedRule,
    host: TypedGraph,
    pm: PreMatch,
    stats: MatchStats | None = None,
) -> MatchResult | None:
    """Depth-first search for a locally complete match extending ``pm``.

    Unbound potential deletion nodes are processed first, then potential
    creation nodes, each side in ascending id order.  A candidate host node
    must have the right type and be unused by the current binding.  A node
    is skipped exactly when it has no candidate.  The dangling-edge check
    runs once the last unbound node is resolved; on failure the current
    candidate is undone (counted in ``stats.backtracks``) and the next one
    is tried.  Exhaustion falls back to the brute-force search, so the
    result is ``None`` exactly when no locally complete match compatible
    with ``pm`` admits a transformation.
    """
    validate_prematch(eor, host, pm)
    if stats is None:
        stats = MatchStats()

    del_nodes = sorted(eor.potential_deletions.nodes)
    cre_nodes = sorted(eor.potential_creations.nodes)
    unbound = del_nodes + cre_nodes
    node_types = {
        **{n: eor.maximal.lhs.nodes[n] for n in del_nodes},
        **{n: eor.maximal.rhs.nodes[n] for n in cre_nodes},
    }

    node_assign: dict[str, str] = dict(pm.morphism.node_map)
    used = set(node_assign.values())

    def leaf_ok() -> bool:
        del_edge_map, _ = _infer_edge_maps(eor, host, pm, node_assign)
        return _dangling_ok(eor, host, pm, node_assign, del_edge_map)

    def extend(position: int) -> bool:
        n = unbound[position]
        # Filtered lazily, so a success does not scan the whole type bucket;
        # each failed branch restores ``used`` before the next candidate.
        candidates = (
            x for x in host.nodes_by_type.get(node_types[n], ()) if x not in used
        )
        first = next(candidates, None)
        if first is not None:
            for x in itertools.chain((first,), candidates):
                node_assign[n] = x
                used.add(x)
                if position == len(unbound) - 1:
                    if leaf_ok():
                        return True
                    del node_assign[n]
                    used.discard(x)
                    stats.backtracks += 1
                else:
                    if extend(position + 1):
                        return True
                    del node_assign[n]
                    used.discard(x)
                    stats.backtracks += 1
            return False
        if position == len(unbound) - 1:
            return leaf_ok()
        return extend(position + 1)

    if (extend(0) if unbound else leaf_ok()):
        return _assemble_result(eor, host, pm, node_assign)
    # The depth-first search only skips a node while it has no candidate, so
    # it can exhaust without noticing a completion whose reuse choices free
    # the way (all of a deletion node's candidates dangle, say, until a
    # same-typed creation node absorbs them).  Fall back to the exhaustive
    # search so that an absent result really means no match exists.
    complete = oracle_locally_complete(eor, host, pm)
    return complete[0] if complete else None


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


def rule_applicable(rule: Rule, host: TypedGraph, match: Morphism) -> bool:
    """Whether deleting along ``match`` leaves no dangling host edge.

    Asks :func:`dangling_node` directly rather than catching the exception
    of :func:`deleted_images`: the brute-force search calls this once per
    candidate match, and most candidates dangle."""
    kept_nodes, kept_edges = rule.interface.nodes, rule.interface.edges
    nodes = [match.node_map[v] for v in rule.lhs.nodes if v not in kept_nodes]
    edges = {match.edge_map[e] for e in rule.lhs.edges if e not in kept_edges}
    return dangling_node(host, nodes, edges) is None


def oracle_locally_complete(
    eor: EffectOrientedRule, host: TypedGraph, pm: PreMatch
) -> list[MatchResult]:
    """Every locally complete match compatible with ``pm``, by brute force.

    Enumerates all selections, all compatible matches of each induced rule,
    and keeps exactly the applicable ones that pass
    :func:`is_locally_complete`.  Exhaustive and deterministic; intended for
    desk-scale hosts."""
    validate_prematch(eor, host, pm)
    results: list[MatchResult] = []
    base_maps = (pm.morphism.node_map, pm.morphism.edge_map)
    for sel in enumerate_selections(eor, "none"):
        induced = build_induced_rule(eor, sel)
        for m in find_injective_extensions(induced.rule.lhs, host, base_maps):
            if not rule_applicable(induced.rule, host, m):
                continue
            mr = MatchResult(induced=induced, match=m, base_prematch=pm)
            if is_locally_complete(eor, host, pm, mr):
                results.append(mr)
    results.sort(key=MatchResult.sort_key)
    return results


def find_locally_maximal(
    eor: EffectOrientedRule, host: TypedGraph, pm: PreMatch
) -> list[MatchResult]:
    """The locally complete matches of maximal induced-rule size for ``pm``."""
    complete = oracle_locally_complete(eor, host, pm)
    if not complete:
        return []
    best = max(mr.induced.size for mr in complete)
    return [mr for mr in complete if mr.induced.size == best]


def find_globally_maximal(
    eor: EffectOrientedRule, host: TypedGraph
) -> list[MatchResult]:
    """The locally complete matches of maximal size over all pre-matches."""
    collected: list[MatchResult] = []
    for pm in find_base_prematches(eor, host):
        collected.extend(oracle_locally_complete(eor, host, pm))
    if not collected:
        return []
    best = max(mr.induced.size for mr in collected)
    out = [mr for mr in collected if mr.induced.size == best]
    out.sort(key=MatchResult.sort_key)
    return out
