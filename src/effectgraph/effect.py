"""Effect-oriented rules and their induced rules.

An :class:`EffectOrientedRule` is two rules: a base rule and a maximal rule
whose graphs contain the base graphs by id, with the interface shared
exactly, so the base embeds into the maximal rule by inclusion.  Elements
of the maximal left-hand side beyond the base are potential deletions;
elements of the maximal right-hand side beyond the base are potential
creations.  Choosing any closed subset of each (:class:`InducedSelection`)
yields an induced rule: selected potential deletions are actually deleted,
selected potential creations are matched in the host instead of created,
and everything else keeps the base behaviour.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterator, NamedTuple

from .core import (
    Diagnostic,
    EffectGraphError,
    ElementSet,
    Morphism,
    TypedGraph,
    _Value,
    element_difference,
)
from .rules import Rule, shift_nacs

SELECTION_FILTERS = ("none", "weak_left", "left", "weak_right", "right")


class InvalidSelection(EffectGraphError):
    """A selection violates containment or edge closure."""


class EffectOrientedRule(_Value):
    """A base rule and a maximal rule containing it by id, else ``ValueError``."""

    _fields = ("base", "maximal")

    def __init__(self, base: Rule, maximal: Rule) -> None:
        b, m = base, maximal
        for sub, sup in ((b.lhs, m.lhs), (b.interface, m.interface), (b.rhs, m.rhs)):
            Morphism.inclusion(sub, sup)
        self.__dict__.update(base=base, maximal=maximal)

    @property
    def interface(self) -> TypedGraph:
        return self.base.interface

    @cached_property
    def potential_deletions(self) -> ElementSet:
        return element_difference(self.maximal.lhs, self.base.lhs)

    @cached_property
    def potential_creations(self) -> ElementSet:
        return element_difference(self.maximal.rhs, self.base.rhs)

    @cached_property
    def _induced(self) -> dict[InducedSelection, InducedRule]:
        """The induced rules :func:`build_induced_rule` built, by selection."""
        return {}

    @cached_property
    def _bound(self) -> InducedRule:
        """The induced rule of the largest closed selection: every potential
        element but the creation edges at a node the base rule creates."""
        pd, pc, rhs = self.potential_deletions, self.potential_creations, self.maximal.rhs
        ends = self.interface.nodes.keys() | pc.nodes
        closed = [e for e in pc.edges if {rhs.edges[e].src, rhs.edges[e].tgt} <= ends]
        return build_induced_rule(self, InducedSelection(pd, ElementSet(pc.nodes, closed)))

    @cached_property
    def _plan(self) -> tuple:
        """What the effect search (:func:`~effectgraph.matching._leaves`) needs
        of the rule alone: the ``(id, node type or edge, deleting, is node)``
        of its potential elements in search order, and facts about them.
        Every search of the rule shares it, so it must not change."""
        lg, rg = self.maximal.lhs, self.maximal.rhs
        pd, pc = self.potential_deletions, self.potential_creations
        elements = [(n, lg.nodes[n], True, True) for n in sorted(pd.nodes)]
        elements += [(n, rg.nodes[n], False, True) for n in sorted(pc.nodes)]
        n_nodes = len(elements)
        elements += [(e, lg.edges[e], True, False) for e in sorted(pd.edges)]
        boundary = len(elements)
        elements += [(e, rg.edges[e], False, False) for e in sorted(pc.edges)]
        # Each potential node's potential edges, with their position and other
        # end: a valid rule's sides share only interface ids.
        adjacent: dict[str, list] = {v: [] for v, *_ in elements[:n_nodes]}
        for j in range(n_nodes, len(elements)):
            e = elements[j][1]
            for v, u in ((e.src, e.tgt), (e.tgt, e.src)):
                if v in adjacent:
                    adjacent[v].append((j, e, u))
        store = lg._rooted()  # a potential deletion node's profile is its room
        for t in {lg.nodes[n] for n in pd.nodes}:
            store.by_profile(t)
        room = {n: dict(store.profile_of[n]) for n in pd.nodes}
        gone = element_difference(self.base.lhs, self.interface)  # base deletions
        # The (position, id) of the elements in each part of a selection's key.
        n_del, n_all = len(pd.nodes), len(elements)
        spans = (0, n_del), (n_nodes, boundary), (n_del, n_nodes), (boundary, n_all)
        parts = tuple(tuple((j, elements[j][0]) for j in range(*a)) for a in spans)
        return tuple(elements), n_nodes, boundary, room, adjacent, gone, parts


class InducedSelection(NamedTuple):
    """Which potential deletions to perform and which potential creations
    to match in the host instead of creating."""

    del_extra: ElementSet
    preserve_extra: ElementSet

    @property
    def size(self) -> int:
        return len(self.del_extra) + len(self.preserve_extra)

    def sort_key(self) -> tuple:
        return self.del_extra.sort_key() + self.preserve_extra.sort_key()


class InducedRule(NamedTuple):
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
    # Per side: the selected and the potential elements, the graph of the
    # selected edges, the nodes their ends may be, and the not-closed message.
    sides = (
        ("deletion", sel.del_extra, eor.potential_deletions, eor.maximal.lhs,
         eor.base.lhs.nodes.keys() | sel.del_extra.nodes,
         "selected deletion edge has an unselected potential endpoint"),
        ("creation", sel.preserve_extra, eor.potential_creations, eor.maximal.rhs,
         eor.interface.nodes.keys() | sel.preserve_extra.nodes,
         "preserved creation edge has an endpoint outside the interface and the "
         "preserved nodes"),
    )
    for side, chosen, potential, *_ in sides:
        foreign = chosen - potential
        for kind, ids in (("node", foreign.nodes), ("edge", foreign.edges)):
            problem = f"not a potential {side} {kind}"
            out.extend(Diagnostic("not-potential", x, problem) for x in sorted(ids))
    if out:
        return out
    for _, chosen, _, graph, ends, problem in sides:
        for eid in sorted(chosen.edges):
            e = graph.edges[eid]
            if e.src not in ends or e.tgt not in ends:
                out.append(Diagnostic("not-closed", eid, problem))
    return out


def build_induced_rule(eor: EffectOrientedRule, sel: InducedSelection) -> InducedRule:
    """The induced rule for ``sel``: its lhs extends the base lhs by the
    selected deletions and preserved creations, its interface extends the
    base interface by the preserved creations, each in id order, and its rhs
    is the maximal rhs.  NACs are the base NACs shifted to the new lhs.

    ``eor`` keeps each rule built, by selection, for as long as it lives:
    one entry per distinct valid selection asked for.  An invalid selection
    is not kept and raises :class:`InvalidSelection` on every call."""
    if sel in eor._induced:
        return eor._induced[sel]
    problems = validate_selection(eor, sel)
    if problems:
        raise InvalidSelection("; ".join(str(d) for d in problems))

    lg, rg = eor.maximal.lhs, eor.maximal.rhs
    lhs_nodes = dict(eor.base.lhs.nodes)
    lhs_edges = dict(eor.base.lhs.edges)
    for nid in sorted(sel.del_extra.nodes):
        lhs_nodes[nid] = lg.nodes[nid]
    for eid in sorted(sel.del_extra.edges):
        lhs_edges[eid] = lg.edges[eid]
    interface_nodes = dict(eor.interface.nodes)
    interface_edges = dict(eor.interface.edges)
    for nid in sorted(sel.preserve_extra.nodes):
        interface_nodes[nid] = rg.nodes[nid]
        lhs_nodes[nid] = rg.nodes[nid]
    for eid in sorted(sel.preserve_extra.edges):
        interface_edges[eid] = rg.edges[eid]
        lhs_edges[eid] = rg.edges[eid]

    lhs = TypedGraph(lg.type_graph, lhs_nodes, lhs_edges)
    interface = TypedGraph(lg.type_graph, interface_nodes, interface_edges)
    nacs = shift_nacs(Morphism.inclusion(eor.base.lhs, lhs), eor.base.nacs)
    rule = Rule(lhs=lhs, interface=interface, rhs=rg, nacs=nacs)
    eor._induced[sel] = InducedRule(selection=sel, rule=rule)
    return eor._induced[sel]


def _subsets(ids: list[str]) -> Iterator[frozenset[str]]:
    """Every subset of ``ids``, in binary counting order."""
    for mask in range(1 << len(ids)):
        yield frozenset(x for i, x in enumerate(ids) if mask >> i & 1)


def _choices(
    potential: ElementSet, graph: TypedGraph, anchor: set[str], weak: bool | None
) -> Iterator[tuple[frozenset[str], list[str], set[str]]]:
    """Each subset of the ``potential`` nodes of ``graph``, with the sorted
    potential edges it closes around the ``anchor`` nodes and the edges the
    connectedness filter ``weak``, if any, forces on a selection: every
    edge at a selected node, or in the weak variant each whose ends are
    both covered."""
    ends = graph.edges
    for nodes in _subsets(sorted(potential.nodes)):
        closed = anchor | nodes
        usable = [e for e in sorted(potential.edges) if {ends[e].src, ends[e].tgt} <= closed]
        at = (e for x in nodes for e in graph.incidence[x]) if weak is not None else ()
        forced = {e for e in at if not weak or {ends[e].src, ends[e].tgt} <= closed}
        yield nodes, usable, forced


def _per_side(eor: EffectOrientedRule, selection_filter: str) -> Iterator[list]:
    """The :func:`_choices` of the potential deletions, then of the
    potential creations, each under the filter on its side, if any."""
    if selection_filter not in SELECTION_FILTERS:
        raise ValueError(
            f"unknown filter {selection_filter!r}; expected one of {SELECTION_FILTERS}"
        )
    side, weak = selection_filter.rpartition("_")[2], selection_filter.startswith("weak")
    left, right = (weak if side == name else None for name in ("left", "right"))
    lg, rg = eor.maximal.lhs, eor.maximal.rhs
    yield list(_choices(eor.potential_deletions, lg, set(eor.base.lhs.nodes), left))
    yield list(_choices(eor.potential_creations, rg, set(eor.interface.nodes), right))


def enumerate_selections(
    eor: EffectOrientedRule, selection_filter: str = "none"
) -> list[InducedSelection]:
    """All valid selections, optionally restricted by a connectedness
    filter, in a deterministic order."""
    del_sides, pres_sides = (
        [(n, edges) for n, u, f in choices for edges in _subsets(u) if f <= edges]
        for choices in _per_side(eor, selection_filter)
    )
    selections = [
        InducedSelection(ElementSet(dn, de), ElementSet(pn, pe))
        for dn, de in del_sides
        for pn, pe in pres_sides
    ]
    selections.sort(key=InducedSelection.sort_key)
    return selections


def count_selections(eor: EffectOrientedRule, selection_filter: str = "none") -> int:
    """``len(enumerate_selections(eor, selection_filter))`` without building
    a selection, so exponential in the potential nodes only: for each node
    subset, the forced edges must be usable and the other usable edges are
    free."""
    deletions, creations = (
        sum(0 if f.difference(u) else 2 ** (len(u) - len(f)) for _, u, f in choices)
        for choices in _per_side(eor, selection_filter)
    )
    return deletions * creations


def count_bounds(eor: EffectOrientedRule) -> tuple[int, int]:
    """Lower and upper bounds on the number of induced rules.

    The lower bound counts the node choices alone (every pure node subset
    is closed); the upper bound counts all element subsets."""
    deletions, creations = eor.potential_deletions, eor.potential_creations
    lower = 2 ** (len(deletions.nodes) + len(creations.nodes))
    upper = 2 ** (len(deletions) + len(creations))
    return lower, upper

