"""Rewrite rules over typed graphs.

A :class:`Rule` is a span ``L >= K <= R`` of id-subgraphs together with
negative application conditions (NACs) rooted at ``L``.  Applying a rule at
an injective, NAC-satisfying match deletes the image of ``L \\ K``, keeps
the image of ``K``, and glues in fresh copies of ``R \\ K``.

NACs can be shifted along an injective morphism of their root
(:func:`shift_nacs`); the result forbids the same host situations for the
extended pattern.  A rule embeds into another by id inclusion; the
general subrule embedding, with its pullback squares, and the equivalence
of two NAC sets are test oracles.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple

from .core import (
    Edge,
    EffectGraphError,
    ElementSet,
    Morphism,
    TypedGraph,
    _Value,
    check_morphism,
    deleted_images,
    find_injective_extensions,
    fresh_id,
)


class NotInjective(EffectGraphError):
    """A rule was applied at a non-injective candidate match."""


class NacViolated(EffectGraphError):
    """A rule was applied at a match that violates one of its NACs."""


class Nac(NamedTuple):
    """A negative application condition.

    ``forbidden`` contains the rule's left-hand side as an id-subgraph plus
    the elements whose joint presence around a match forbids it.
    """

    forbidden: TypedGraph


class Rule(_Value):
    """A span ``lhs >= interface <= rhs`` with NACs rooted at ``lhs``."""

    _fields = ("lhs", "interface", "rhs", "nacs")

    def __init__(
        self, lhs: TypedGraph, interface: TypedGraph, rhs: TypedGraph,
        nacs: Iterable[Nac] = (),
    ) -> None:
        self.__dict__.update(lhs=lhs, interface=interface, rhs=rhs, nacs=tuple(nacs))

    @property
    def left_inclusion(self) -> Morphism:
        return Morphism.inclusion(self.interface, self.lhs)

    @property
    def right_inclusion(self) -> Morphism:
        return Morphism.inclusion(self.interface, self.rhs)


class TransformationRecord(_Value):
    """Everything produced by one rule application.

    The record keeps the delta of the step: the host ids it ``deleted`` and
    the output ids it ``created`` (a deleted id can be created again).  The
    ``context``, the input minus the deleted ids, is computed on first
    access and cached.  :func:`~effectgraph.core.pushout_complement` of
    ``rule.left_inclusion`` and ``match`` builds the same context together
    with its morphisms.
    """

    _fields = ("rule", "input", "output", "match", "comatch", "deleted", "created")

    def __init__(
        self, rule: Rule, input: TypedGraph, output: TypedGraph, match: Morphism,
        comatch: Morphism, deleted: ElementSet, created: ElementSet,
    ) -> None:
        self.__dict__.update(
            rule=rule, input=input, output=output, match=match, comatch=comatch,
            deleted=deleted, created=created,
        )

    @cached_property
    def context(self) -> TypedGraph:
        return self.input._derive(self.deleted.nodes, self.deleted.edges)


def satisfies_nacs(m: Morphism, nacs: Iterable[Nac]) -> bool:
    """Whether no NAC extends the injective match ``m`` into its host."""
    for nac in nacs:
        partial = (m.node_map, m.edge_map)
        if next(find_injective_extensions(nac.forbidden, m.dst_graph, partial), None):
            return False
    return True


def _same_rooted_nac(root: TypedGraph, a: Nac, b: Nac) -> bool:
    """Isomorphism of two NACs fixing the shared root pointwise."""
    fa, fb = a.forbidden, b.forbidden
    if len(fa.nodes) != len(fb.nodes) or len(fa.edges) != len(fb.edges):
        return False
    partial = ({n: n for n in root.nodes}, {e: e for e in root.edges})
    return next(find_injective_extensions(fa, fb, partial), None) is not None


def shift_nacs(b: Morphism, nacs: Iterable[Nac]) -> tuple[Nac, ...]:
    """Shift NACs along the injective morphism ``b`` of their root.

    For every injective ``m'`` out of the codomain of ``b``, the returned
    set is satisfied by ``m'`` exactly when the input set is satisfied by
    ``m' . b``.  Each result arises from one way of overlapping the NAC-only
    elements with codomain elements outside the image of ``b``; results that
    agree up to a root-fixing isomorphism are deduplicated, keeping the
    first found.  The overlaps come from one recursion over the NAC-only
    nodes, then edges, in ascending id order: each is first left out, then
    identified with each unused element of its type bucket or edge class,
    read from the codomain's snapshots, which never change.
    """
    target = b.dst_graph
    shifted: list[Nac] = []
    for nac in nacs:
        n_graph = nac.forbidden
        extra_nodes = [n for n in n_graph.sorted_nodes if n not in b.src_graph.nodes]
        extra_edges = [e for e in n_graph.sorted_edges if e not in b.src_graph.edges]
        extras = extra_nodes + extra_edges
        # The codomain images of the NAC nodes (the root's by ``b``) and of
        # the NAC-only edges identified so far, and the images taken.
        names, same = dict(b.node_map), {}
        used_nodes, used_edges = set(b.node_images), set(b.edge_images)

        # Recursing through an argument, not a closure cell, leaves no cycles.
        def overlaps(overlaps, i: int) -> Iterator[None]:
            if i == len(extras):
                yield
                return
            yield from overlaps(overlaps, i + 1)
            x = extras[i]
            if i < len(extra_nodes):
                found, images = names, used_nodes
                candidates = target.nodes_by_type.get(n_graph.nodes[x], ())
            else:
                found, images = same, used_edges
                e = n_graph.edges[x]
                key = e.type, names.get(e.src), names.get(e.tgt)
                candidates = () if None in key else target.edge_classes.get(key, ())
            for y in candidates:
                if y in images:
                    continue
                found[x] = y
                images.add(y)
                yield from overlaps(overlaps, i + 1)
                del found[x]
                images.discard(y)

        for _ in overlaps(overlaps, 0):
            nodes, edges, ends = dict(target.nodes), dict(target.edges), dict(names)
            for n in extra_nodes:
                if n not in ends:
                    ends[n] = fresh_id(n, lambda x: x in nodes or x in edges)
                    nodes[ends[n]] = n_graph.nodes[n]
            for eid in extra_edges:
                if eid not in same:
                    e = n_graph.edges[eid]
                    new = fresh_id(eid, lambda x: x in nodes or x in edges)
                    edges[new] = Edge(e.type, ends[e.src], ends[e.tgt])
            candidate = Nac(TypedGraph(target.type_graph, nodes, edges))
            if not any(_same_rooted_nac(target, candidate, k) for k in shifted):
                shifted.append(candidate)
    shifted.sort(
        key=lambda nac: (
            len(nac.forbidden.nodes),
            len(nac.forbidden.edges),
            tuple(sorted(nac.forbidden.nodes.items())),
            tuple(sorted(nac.forbidden.edges.items())),
        )
    )
    return tuple(shifted)


def apply_rule(r: Rule, g: TypedGraph, m: Morphism) -> TransformationRecord:
    """Apply ``r`` to host ``g`` at match ``m``.

    The match must be a total injective morphism from the rule's lhs that
    satisfies all NACs; deletion must not leave dangling edges.  Created
    elements receive the :func:`fresh_id` ids ``ruleElementId#k`` (smallest
    free ``k``), so outputs are reproducible.

    The output is derived from ``g`` as a delta, which the store of
    ``g``'s lineage replays when the output is first read, so a step costs
    O(|L| + |R|) however large ``g`` is (see :mod:`effectgraph.core`).  The
    output carries the
    fresh-id floors of ``g``, lowered below the deleted ids and raised to
    the created ones, so a chain of steps probes O(1) amortised ids per
    created element; a host that no step made probes from ``k = 1`` once.
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
    Morphism.inclusion(r.interface, r.lhs)
    return _apply(r, g, m)


def _apply(r: Rule, g: TypedGraph, m: Morphism) -> TransformationRecord:
    """Apply as :func:`apply_rule` does, checking only for dangling edges."""
    deleted_nodes, deleted_edges = deleted_images(
        m, r.interface.nodes, r.interface.edges
    )
    created_nodes: dict[str, str] = {}
    created_edges: dict[str, Edge] = {}
    floors = g._floors_without([*deleted_nodes, *deleted_edges])
    store = g._rooted()

    def taken(x: str) -> bool:
        # The ids of the context, without building it, plus those created.
        return (
            (x in store.nodes and x not in deleted_nodes)
            or (x in store.edges and x not in deleted_edges)
            or x in created_nodes
            or x in created_edges
        )

    comatch_nodes = {n: m.node_map[n] for n in r.interface.nodes}
    for rid in sorted(r.rhs.nodes.keys() - r.interface.nodes.keys()):
        new = fresh_id(rid, taken, floors)
        created_nodes[new] = r.rhs.nodes[rid]
        comatch_nodes[rid] = new
    comatch_edges = {e: m.edge_map[e] for e in r.interface.edges}
    for rid in sorted(r.rhs.edges.keys() - r.interface.edges.keys()):
        new = fresh_id(rid, taken, floors)
        e = r.rhs.edges[rid]
        created_edges[new] = Edge(e.type, comatch_nodes[e.src], comatch_nodes[e.tgt])
        comatch_edges[rid] = new

    output = g._derive(
        deleted_nodes, deleted_edges, created_nodes, created_edges, floors
    )
    return TransformationRecord(
        rule=r,
        input=g,
        output=output,
        match=m,
        comatch=Morphism(r.rhs, output, comatch_nodes, comatch_edges),
        deleted=ElementSet(deleted_nodes, deleted_edges),
        created=ElementSet(frozenset(created_nodes), frozenset(created_edges)),
    )
