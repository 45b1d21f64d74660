"""Effect-oriented rules and their induced rules.

An :class:`EffectOrientedRule` pairs a base rule with a maximal rule that
embeds it while sharing the interface exactly.  Elements of the maximal
left-hand side beyond the base are potential deletions; elements of the
maximal right-hand side beyond the base are potential creations.  Choosing
any closed subset of each (:class:`InducedSelection`) yields an induced
rule: selected potential deletions are actually deleted, selected potential
creations are matched in the host instead of created, and everything else
keeps the base behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .core import (
    Diagnostic,
    EffectGraphError,
    ElementSet,
    Morphism,
    TypedGraph,
    element_difference,
)
from .rules import Rule, SubruleEmbedding, check_subrule_embedding, shift_nacs, validate_rule

SELECTION_FILTERS = ("none", "weak_left", "left", "weak_right", "right")


class InvalidSelection(EffectGraphError):
    """A selection violates containment or edge closure."""


@dataclass(frozen=True)
class EffectOrientedRule:
    """A base rule embedded in a maximal rule over the same interface."""

    base: Rule
    maximal: Rule
    embedding: SubruleEmbedding

    @classmethod
    def from_rules(cls, base: Rule, maximal: Rule) -> EffectOrientedRule:
        return cls(base, maximal, SubruleEmbedding.by_inclusion(base, maximal))

    @property
    def interface(self) -> TypedGraph:
        return self.base.interface

    @cached_property
    def potential_deletions(self) -> ElementSet:
        return element_difference(self.maximal.lhs, self.base.lhs)

    @cached_property
    def potential_creations(self) -> ElementSet:
        return element_difference(self.maximal.rhs, self.base.rhs)

    @property
    def is_plain(self) -> bool:
        return not self.potential_deletions and not self.potential_creations


def validate_effect_rule(eor: EffectOrientedRule) -> list[Diagnostic]:
    """Violations of the base/maximal shape: both rules well formed, the
    interfaces identical, and the embedding a genuine subrule embedding."""
    out: list[Diagnostic] = []
    for rule, label in ((eor.base, "base"), (eor.maximal, "maximal")):
        for d in validate_rule(rule):
            out.append(Diagnostic(d.code, d.element, f"{label}: {d.message}"))
    if dict(eor.base.interface.nodes) != dict(eor.maximal.interface.nodes) or dict(
        eor.base.interface.edges
    ) != dict(eor.maximal.interface.edges):
        out.append(
            Diagnostic(
                "interface-mismatch",
                None,
                "base and maximal rule must share the interface exactly",
            )
        )
    if not out:
        try:
            ok = check_subrule_embedding(eor.embedding)
        except (ValueError, EffectGraphError) as exc:
            out.append(Diagnostic("embedding-invalid", None, str(exc)))
        else:
            if not ok:
                out.append(
                    Diagnostic(
                        "embedding-invalid",
                        None,
                        "base rule does not embed into the maximal rule",
                    )
                )
    return out


@dataclass(frozen=True)
class InducedSelection:
    """Which potential deletions to perform and which potential creations
    to match in the host instead of creating."""

    del_extra: ElementSet
    preserve_extra: ElementSet

    @classmethod
    def empty(cls) -> InducedSelection:
        return cls(ElementSet.empty(), ElementSet.empty())

    @property
    def size(self) -> int:
        return len(self.del_extra) + len(self.preserve_extra)

    def sort_key(self) -> tuple:
        return self.del_extra.sort_key() + self.preserve_extra.sort_key()


@dataclass(frozen=True)
class InducedRule:
    selection: InducedSelection
    rule: Rule

    @property
    def size(self) -> int:
        return self.selection.size


def validate_selection(
    eor: EffectOrientedRule, sel: InducedSelection
) -> list[Diagnostic]:
    """Containment and edge-closure violations of ``sel`` against ``eor``."""
    out: list[Diagnostic] = []
    deletions, creations = eor.potential_deletions, eor.potential_creations
    for xid in sorted(sel.del_extra.nodes - deletions.nodes):
        out.append(Diagnostic("not-potential", xid, "not a potential deletion node"))
    for xid in sorted(sel.del_extra.edges - deletions.edges):
        out.append(Diagnostic("not-potential", xid, "not a potential deletion edge"))
    for xid in sorted(sel.preserve_extra.nodes - creations.nodes):
        out.append(Diagnostic("not-potential", xid, "not a potential creation node"))
    for xid in sorted(sel.preserve_extra.edges - creations.edges):
        out.append(Diagnostic("not-potential", xid, "not a potential creation edge"))
    if out:
        return out
    lhs_nodes = eor.base.lhs.nodes.keys() | sel.del_extra.nodes
    for eid in sorted(sel.del_extra.edges):
        e = eor.maximal.lhs.edges[eid]
        if e.src not in lhs_nodes or e.tgt not in lhs_nodes:
            out.append(
                Diagnostic(
                    "not-closed",
                    eid,
                    "selected deletion edge has an unselected potential endpoint",
                )
            )
    kept_nodes = eor.interface.nodes.keys() | sel.preserve_extra.nodes
    for eid in sorted(sel.preserve_extra.edges):
        e = eor.maximal.rhs.edges[eid]
        if e.src not in kept_nodes or e.tgt not in kept_nodes:
            out.append(
                Diagnostic(
                    "not-closed",
                    eid,
                    "preserved creation edge has an endpoint outside the "
                    "interface and the preserved nodes",
                )
            )
    return out


def build_induced_rule(eor: EffectOrientedRule, sel: InducedSelection) -> InducedRule:
    """The induced rule for ``sel``: its lhs extends the base lhs by the
    selected deletions and preserved creations, its interface extends the
    base interface by the preserved creations, and its rhs is the maximal
    rhs.  NACs are the base NACs shifted to the new lhs."""
    problems = validate_selection(eor, sel)
    if problems:
        raise InvalidSelection("; ".join(str(d) for d in problems))

    lg, rg = eor.maximal.lhs, eor.maximal.rhs
    lhs_nodes = dict(eor.base.lhs.nodes)
    lhs_edges = dict(eor.base.lhs.edges)
    for nid in sel.del_extra.nodes:
        lhs_nodes[nid] = lg.nodes[nid]
    for eid in sel.del_extra.edges:
        lhs_edges[eid] = lg.edges[eid]
    interface_nodes = dict(eor.interface.nodes)
    interface_edges = dict(eor.interface.edges)
    for nid in sel.preserve_extra.nodes:
        interface_nodes[nid] = rg.nodes[nid]
        lhs_nodes[nid] = rg.nodes[nid]
    for eid in sel.preserve_extra.edges:
        interface_edges[eid] = rg.edges[eid]
        lhs_edges[eid] = rg.edges[eid]

    lhs = TypedGraph(lg.type_graph, lhs_nodes, lhs_edges)
    interface = TypedGraph(lg.type_graph, interface_nodes, interface_edges)
    nacs = shift_nacs(Morphism.inclusion(eor.base.lhs, lhs), eor.base.nacs)
    rule = Rule(lhs=lhs, interface=interface, rhs=rg, nacs=nacs)
    return InducedRule(selection=sel, rule=rule)


def _closed_edge_subsets(
    edges: list[str],
    graph: TypedGraph,
    allowed_nodes: set[str],
) -> list[frozenset[str]]:
    usable = [e for e in edges if graph.edges[e].src in allowed_nodes and graph.edges[e].tgt in allowed_nodes]
    out = []
    for mask in range(1 << len(usable)):
        out.append(frozenset(e for i, e in enumerate(usable) if mask >> i & 1))
    return out


def _connected_ok(
    nodes: frozenset[str],
    edges: frozenset[str],
    graph: TypedGraph,
    anchor_nodes: set[str],
    weak: bool,
) -> bool:
    """The connectedness condition on one side of a selection.

    Every selected node must carry its adjacent edges of ``graph``; in the
    weak variant only edges whose other endpoint is also covered count.
    """
    covered = anchor_nodes | nodes
    for x in nodes:
        for eid in graph.incidence[x]:
            if eid in edges:
                continue
            e = graph.edges[eid]
            other = e.tgt if e.src == x else e.src
            if weak and other not in covered:
                continue
            return False
    return True


def enumerate_selections(
    eor: EffectOrientedRule, selection_filter: str = "none"
) -> list[InducedSelection]:
    """All valid selections, optionally restricted by a connectedness
    filter, in a deterministic order."""
    if selection_filter not in SELECTION_FILTERS:
        raise ValueError(
            f"unknown filter {selection_filter!r}; expected one of {SELECTION_FILTERS}"
        )
    deletions, creations = eor.potential_deletions, eor.potential_creations
    lg, rg = eor.maximal.lhs, eor.maximal.rhs
    base_lhs_nodes = set(eor.base.lhs.nodes)
    interface_nodes = set(eor.interface.nodes)

    del_sides: list[tuple[frozenset[str], frozenset[str]]] = []
    del_nodes_sorted = sorted(deletions.nodes)
    for mask in range(1 << len(del_nodes_sorted)):
        nodes = frozenset(n for i, n in enumerate(del_nodes_sorted) if mask >> i & 1)
        for edges in _closed_edge_subsets(
            sorted(deletions.edges), lg, base_lhs_nodes | nodes
        ):
            if selection_filter in ("weak_left", "left") and not _connected_ok(
                nodes, edges, lg, base_lhs_nodes, weak=selection_filter == "weak_left"
            ):
                continue
            del_sides.append((nodes, edges))

    pres_sides: list[tuple[frozenset[str], frozenset[str]]] = []
    pres_nodes_sorted = sorted(creations.nodes)
    for mask in range(1 << len(pres_nodes_sorted)):
        nodes = frozenset(n for i, n in enumerate(pres_nodes_sorted) if mask >> i & 1)
        for edges in _closed_edge_subsets(
            sorted(creations.edges), rg, interface_nodes | nodes
        ):
            if selection_filter in ("weak_right", "right") and not _connected_ok(
                nodes, edges, rg, interface_nodes, weak=selection_filter == "weak_right"
            ):
                continue
            pres_sides.append((nodes, edges))

    selections = [
        InducedSelection(ElementSet(dn, de), ElementSet(pn, pe))
        for dn, de in del_sides
        for pn, pe in pres_sides
    ]
    selections.sort(key=InducedSelection.sort_key)
    return selections


def count_bounds(eor: EffectOrientedRule) -> tuple[int, int]:
    """Lower and upper bounds on the number of induced rules.

    The lower bound counts the node choices alone (every pure node subset
    is closed); the upper bound counts all element subsets."""
    deletions, creations = eor.potential_deletions, eor.potential_creations
    lower = 2 ** (len(deletions.nodes) + len(creations.nodes))
    upper = 2 ** (len(deletions) + len(creations))
    return lower, upper


def check_base_subrule(eor: EffectOrientedRule, induced: InducedRule) -> bool:
    """Whether the base rule embeds into the induced rule as a subrule."""
    embedding = SubruleEmbedding.by_inclusion(eor.base, induced.rule)
    return check_subrule_embedding(embedding)
