"""Rewrite rules over typed graphs.

A :class:`Rule` is a span ``L >= K <= R`` of id-subgraphs together with
negative application conditions (NACs) rooted at ``L``.  Applying a rule at
an injective, NAC-satisfying match deletes the image of ``L \\ K``, keeps
the image of ``K``, and glues in fresh copies of ``R \\ K``.

NACs can be shifted along an injective morphism of their root
(:func:`shift_nacs`); the result forbids the same host situations for the
extended pattern.  Two NAC sets over one root are equivalent exactly when
each NAC of either set receives a root-fixing injection from a NAC of the
other (:func:`nac_sets_equivalent`); the test is exact for hosts of any
size.  A rule embeds into another by id inclusion; the general subrule
embedding, with its pullback squares, is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .core import (
    Diagnostic,
    Edge,
    EffectGraphError,
    ElementSet,
    Morphism,
    TypedGraph,
    check_morphism,
    deleted_images,
    find_injective_extensions,
    fresh_id,
    is_id_subgraph,
    validate_graph,
)


class NotInjective(EffectGraphError):
    """A rule was applied at a non-injective candidate match."""


class NacViolated(EffectGraphError):
    """A rule was applied at a match that violates one of its NACs."""


@dataclass(frozen=True)
class Nac:
    """A negative application condition.

    ``forbidden`` contains the rule's left-hand side as an id-subgraph plus
    the elements whose joint presence around a match forbids it.
    """

    forbidden: TypedGraph


@dataclass(frozen=True)
class Rule:
    """A span ``lhs >= interface <= rhs`` with NACs rooted at ``lhs``."""

    lhs: TypedGraph
    interface: TypedGraph
    rhs: TypedGraph
    nacs: tuple[Nac, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "nacs", tuple(self.nacs))

    @property
    def left_inclusion(self) -> Morphism:
        return Morphism.inclusion(self.interface, self.lhs)

    @property
    def right_inclusion(self) -> Morphism:
        return Morphism.inclusion(self.interface, self.rhs)


@dataclass(frozen=True)
class TransformationRecord:
    """Everything produced by one rule application.

    The record keeps the delta of the step: the host ids it ``deleted`` and
    the output ids it ``created`` (a deleted id can be created again).  The
    ``context``, the input minus the deleted ids, is computed on first
    access and cached.  :func:`~effectgraph.core.pushout_complement` of
    ``rule.left_inclusion`` and ``match`` builds the same context together
    with its morphisms.
    """

    rule: Rule
    input: TypedGraph
    output: TypedGraph
    match: Morphism
    comatch: Morphism
    deleted: ElementSet
    created: ElementSet

    @cached_property
    def context(self) -> TypedGraph:
        return self.input._derive(self.deleted.nodes, self.deleted.edges)


def validate_rule(r: Rule) -> list[Diagnostic]:
    """All violations of the span shape, typing, and NAC rooting."""
    out: list[Diagnostic] = []
    tg = r.lhs.type_graph
    for g, label in ((r.interface, "interface"), (r.rhs, "rhs")):
        if g.type_graph != tg:
            out.append(
                Diagnostic("type-graph-mismatch", None, f"{label} uses another type graph")
            )
    for g, label in ((r.lhs, "lhs"), (r.interface, "interface"), (r.rhs, "rhs")):
        for d in validate_graph(g, tg):
            out.append(Diagnostic(d.code, d.element, f"{label}: {d.message}"))
    for sup, label in ((r.lhs, "lhs"), (r.rhs, "rhs")):
        for nid in sorted(r.interface.nodes):
            if sup.nodes.get(nid) != r.interface.nodes[nid]:
                out.append(
                    Diagnostic(
                        "interface-not-included",
                        nid,
                        f"interface node missing from or retyped in {label}",
                    )
                )
        for eid in sorted(r.interface.edges):
            if sup.edges.get(eid) != r.interface.edges[eid]:
                out.append(
                    Diagnostic(
                        "interface-not-included",
                        eid,
                        f"interface edge missing from or changed in {label}",
                    )
                )
    # Ids occurring on both sides but not in the interface would make the
    # deleted and created elements indistinguishable.
    overlap = (r.lhs.nodes.keys() & r.rhs.nodes.keys()) - r.interface.nodes.keys()
    overlap |= (r.lhs.edges.keys() & r.rhs.edges.keys()) - r.interface.edges.keys()
    for xid in sorted(overlap):
        out.append(
            Diagnostic(
                "lhs-rhs-overlap",
                xid,
                "id shared by lhs and rhs outside the interface",
            )
        )
    for i, nac in enumerate(r.nacs):
        if not is_id_subgraph(r.lhs, nac.forbidden):
            out.append(
                Diagnostic("nac-not-rooted", None, f"NAC {i} does not contain the lhs")
            )
        for d in validate_graph(nac.forbidden, tg):
            out.append(Diagnostic(d.code, d.element, f"NAC {i}: {d.message}"))
    return out


def satisfies_nacs(m: Morphism, nacs: Iterable[Nac]) -> bool:
    """Whether no NAC extends the injective match ``m`` into its host."""
    for nac in nacs:
        hit = next(
            iter(
                find_injective_extensions(
                    nac.forbidden, m.dst_graph, (m.node_map, m.edge_map)
                )
            ),
            None,
        )
        if hit is not None:
            return False
    return True


def _overlap_candidates(
    extra_nodes: Sequence[str],
    extra_edges: Sequence[str],
    nac_graph: TypedGraph,
    target: TypedGraph,
    image_nodes: frozenset[str],
    image_edges: frozenset[str],
    b_nodes: dict[str, str],
) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
    """All injective partial identifications of NAC-only elements with
    target elements outside the image of the root morphism."""
    free_nodes = [n for n in target.sorted_nodes if n not in image_nodes]
    free_edges = [e for e in target.sorted_edges if e not in image_edges]

    # Recursing through an argument, not a closure cell, leaves no cycles.
    def node_choices(
        node_choices, idx: int, phi: dict[str, str]
    ) -> Iterator[dict[str, str]]:
        if idx == len(extra_nodes):
            yield dict(phi)
            return
        n = extra_nodes[idx]
        yield from node_choices(node_choices, idx + 1, phi)
        for x in free_nodes:
            if x in phi.values() or target.nodes[x] != nac_graph.nodes[n]:
                continue
            phi[n] = x
            yield from node_choices(node_choices, idx + 1, phi)
            del phi[n]

    def edge_choices(
        edge_choices, phi: dict[str, str], idx: int, psi: dict[str, str]
    ) -> Iterator[tuple[dict[str, str], dict[str, str]]]:
        if idx == len(extra_edges):
            yield dict(phi), dict(psi)
            return
        eid = extra_edges[idx]
        yield from edge_choices(edge_choices, phi, idx + 1, psi)
        e = nac_graph.edges[eid]
        src_img = b_nodes.get(e.src, phi.get(e.src))
        tgt_img = b_nodes.get(e.tgt, phi.get(e.tgt))
        if src_img is None or tgt_img is None:
            return
        for x in free_edges:
            if x in psi.values():
                continue
            te = target.edges[x]
            if te.type != e.type or te.src != src_img or te.tgt != tgt_img:
                continue
            psi[eid] = x
            yield from edge_choices(edge_choices, phi, idx + 1, psi)
            del psi[eid]

    for phi in node_choices(node_choices, 0, {}):
        yield from edge_choices(edge_choices, phi, 0, {})


def _rooted_injection_exists(
    root: TypedGraph, source: TypedGraph, target: TypedGraph
) -> bool:
    """Whether an injective morphism ``source -> target`` fixes ``root``
    pointwise; both graphs must contain ``root`` as an id-subgraph."""
    partial = ({n: n for n in root.nodes}, {e: e for e in root.edges})
    hit = next(iter(find_injective_extensions(source, target, partial)), None)
    return hit is not None


def _same_rooted_nac(root: TypedGraph, a: Nac, b: Nac) -> bool:
    """Isomorphism of two NACs fixing the shared root pointwise."""
    fa, fb = a.forbidden, b.forbidden
    if len(fa.nodes) != len(fb.nodes) or len(fa.edges) != len(fb.edges):
        return False
    return _rooted_injection_exists(root, fa, fb)


def shift_nacs(b: Morphism, nacs: Iterable[Nac]) -> tuple[Nac, ...]:
    """Shift NACs along the injective morphism ``b`` of their root.

    For every injective ``m'`` out of the codomain of ``b``, the returned
    set is satisfied by ``m'`` exactly when the input set is satisfied by
    ``m' . b``.  Each result arises from one way of overlapping the NAC-only
    elements with codomain elements outside the image of ``b``; results that
    agree up to a root-fixing isomorphism are deduplicated.
    """
    target = b.dst_graph
    b_nodes = dict(b.node_map)
    shifted: list[Nac] = []
    for nac in nacs:
        n_graph = nac.forbidden
        root = b.src_graph
        extra_nodes = [n for n in n_graph.sorted_nodes if n not in root.nodes]
        extra_edges = [e for e in n_graph.sorted_edges if e not in root.edges]
        for phi, psi in _overlap_candidates(
            extra_nodes,
            extra_edges,
            n_graph,
            target,
            b.node_images,
            b.edge_images,
            b_nodes,
        ):
            taken = set(target.nodes) | set(target.edges)
            nodes = dict(target.nodes)
            node_names: dict[str, str] = {}
            for n in extra_nodes:
                if n in phi:
                    node_names[n] = phi[n]
                    continue
                new = fresh_id(n, taken.__contains__)
                taken.add(new)
                nodes[new] = n_graph.nodes[n]
                node_names[n] = new
            edges = dict(target.edges)
            ok = True
            for eid in extra_edges:
                if eid in psi:
                    continue
                e = n_graph.edges[eid]
                src = b_nodes.get(e.src, node_names.get(e.src))
                tgt = b_nodes.get(e.tgt, node_names.get(e.tgt))
                if src is None or tgt is None:
                    ok = False
                    break
                new = fresh_id(eid, taken.__contains__)
                taken.add(new)
                edges[new] = Edge(e.type, src, tgt)
            if not ok:
                continue
            candidate = Nac(TypedGraph(target.type_graph, nodes, edges))
            if not any(_same_rooted_nac(target, candidate, kept) for kept in shifted):
                shifted.append(candidate)
    shifted.sort(
        key=lambda nac: (
            len(nac.forbidden.nodes),
            len(nac.forbidden.edges),
            tuple(sorted(nac.forbidden.nodes.items())),
            tuple(sorted((k, v.type, v.src, v.tgt) for k, v in nac.forbidden.edges.items())),
        )
    )
    return tuple(shifted)


def nac_sets_equivalent(
    lhs: TypedGraph, first: Sequence[Nac], second: Sequence[Nac]
) -> bool:
    """Semantic equivalence of two NAC sets rooted at ``lhs``: every
    injective match of ``lhs`` into any host satisfies both sets or neither.

    Decided exactly: the sets are equivalent iff every NAC of each set
    receives a root-fixing injective morphism from some NAC of the other.
    If one does, a host violating the first NAC violates the second; if
    none does, that NAC itself, matched by the root inclusion, is a host
    that violates one set and satisfies the other.  Raises ``ValueError``
    for a NAC that does not contain ``lhs``."""
    for nac in (*first, *second):
        if not is_id_subgraph(lhs, nac.forbidden):
            raise ValueError("NAC is not rooted at the lhs")
    return all(
        any(_rooted_injection_exists(lhs, b.forbidden, a.forbidden) for b in others)
        for ones, others in ((first, second), (second, first))
        for a in ones
    )


def apply_rule(r: Rule, g: TypedGraph, m: Morphism) -> TransformationRecord:
    """Apply ``r`` to host ``g`` at match ``m``.

    The match must be a total injective morphism from the rule's lhs that
    satisfies all NACs; deletion must not leave dangling edges.  Created
    elements receive the :func:`fresh_id` ids ``ruleElementId#k`` (smallest
    free ``k``, probing ``k`` ids), so outputs are reproducible.

    The output is derived from ``g`` as a delta, so a step costs
    O(|L| + |R|) plus C-level copies of the host's element dicts, however
    large ``g`` is.
    """
    if m.src_graph != r.lhs or m.dst_graph != g:
        raise ValueError("match must map the rule's lhs into the host")
    problems = check_morphism(m)
    if problems:
        # Injectivity findings come last, so any other finding is first.
        if problems[0].code != "not-injective":
            raise ValueError(f"match is not a valid morphism: {problems[0]}")
        raise NotInjective("match identifies distinct lhs elements")
    if not satisfies_nacs(m, r.nacs):
        raise NacViolated("a negative application condition matches the host")
    if not is_id_subgraph(r.interface, r.lhs):
        raise ValueError("not an id-subgraph; no inclusion exists")

    deleted_nodes, deleted_edges = deleted_images(
        m, r.interface.nodes, r.interface.edges
    )
    created_nodes: dict[str, str] = {}
    created_edges: dict[str, Edge] = {}

    def taken(x: str) -> bool:
        # The ids of the context, without building it, plus those created.
        return (
            (x in g.nodes and x not in deleted_nodes)
            or (x in g.edges and x not in deleted_edges)
            or x in created_nodes
            or x in created_edges
        )

    comatch_nodes = {n: m.node_map[n] for n in r.interface.nodes}
    for rid in sorted(r.rhs.nodes.keys() - r.interface.nodes.keys()):
        new = fresh_id(rid, taken)
        created_nodes[new] = r.rhs.nodes[rid]
        comatch_nodes[rid] = new
    comatch_edges = {e: m.edge_map[e] for e in r.interface.edges}
    for rid in sorted(r.rhs.edges.keys() - r.interface.edges.keys()):
        new = fresh_id(rid, taken)
        e = r.rhs.edges[rid]
        created_edges[new] = Edge(e.type, comatch_nodes[e.src], comatch_nodes[e.tgt])
        comatch_edges[rid] = new

    output = g._derive(deleted_nodes, deleted_edges, created_nodes, created_edges)
    return TransformationRecord(
        rule=r,
        input=g,
        output=output,
        match=m,
        comatch=Morphism(r.rhs, output, comatch_nodes, comatch_edges),
        deleted=ElementSet(deleted_nodes, deleted_edges),
        created=ElementSet(frozenset(created_nodes), frozenset(created_edges)),
    )
