"""Reference constructions that the tests check the library against.

None of these is used by the library itself.  ``pushout`` (with its ``~k``
ids) is the independent gluing that ``apply_rule`` is round-tripped
through, ``is_pullback_square`` (with ``compose`` and ``same_maps``)
checks its squares, and ``check_subrule_embedding`` is the general subrule
embedding that ``validate_effect_rule`` decides by id inclusion, with
``nac_sets_equivalent`` for the NACs; ``decode_rule`` builds that shape by
construction.
``is_isomorphic`` compares graphs up to renaming,
``enumerate_typed_graphs`` with ``bounded_nac_sets_equivalent`` decides
application-condition questions by brute force over every small host, and
``oracle_locally_complete`` finds every locally complete match by brute
force over every selection of an effect-oriented rule, as judged by
``is_locally_complete``; ``is_compatible``, ``check_base_subrule`` and
``is_plain`` are further checks on results and rules.  ``reference_audit``
is the effect audit that extends the interface embedding by each element
through the general injective search.
``with_elements`` extends a graph by fresh elements, which is how most
tests build their graphs.
``reference_encode_graph`` and ``reference_decode_graph`` are the graph
codecs built on :func:`canonical_text` and on separate structure,
endpoint and :func:`validate_graph` passes, which the direct emitter and
the one-pass decoder must agree with byte for byte and error for error.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence

from effectgraph.core import (
    Diagnostic,
    Edge,
    EffectGraphError,
    ElementSet,
    Morphism,
    TypeGraph,
    TypedGraph,
    check_morphism,
    dangling_node,
    find_injective_extensions,
    is_id_subgraph,
    validate_graph,
)
from effectgraph.documents import (
    ParseError,
    ValidationError,
    _expect_kind,
    _load,
    _resolve_type_graph,
    _str_field,
    canonical_text,
)
from effectgraph.effect import (
    EffectOrientedRule,
    InducedRule,
    build_induced_rule,
    enumerate_selections,
)
from effectgraph.matching import MatchResult, PreMatch, validate_prematch
from effectgraph.rules import Nac, Rule, satisfies_nacs, shift_nacs
from effectgraph.semantics import (
    AuditEntry,
    AuditFailure,
    AuditReport,
    EffectTransformation,
)


class NonCommuting(EffectGraphError):
    """A square of morphisms that must commute does not."""


def with_elements(
    g: TypedGraph,
    nodes: Mapping[str, str] | None = None,
    edges: Mapping[str, Edge] | None = None,
) -> TypedGraph:
    """A new graph: ``g`` with extra elements; added ids must be fresh."""
    new_nodes = dict(g.nodes)
    new_edges = dict(g.edges)
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
    return TypedGraph(g.type_graph, new_nodes, new_edges)


def identity(g: TypedGraph) -> Morphism:
    return Morphism.inclusion(g, g)


def compose(first: Morphism, second: Morphism) -> Morphism:
    """The composite that applies ``first`` and then ``second``."""
    return Morphism(
        first.src_graph,
        second.dst_graph,
        {n: second.node_map[v] for n, v in first.node_map.items()},
        {e: second.edge_map[v] for e, v in first.edge_map.items()},
    )


def same_maps(a: Morphism, b: Morphism) -> bool:
    return dict(a.node_map) == dict(b.node_map) and dict(a.edge_map) == dict(b.edge_map)


def is_pullback_square(
    top: Morphism, left: Morphism, right: Morphism, bottom: Morphism
) -> bool:
    """Whether a commuting square of injective morphisms is a pullback.

    ``top: A -> B``, ``left: A -> C``, ``right: B -> D``, ``bottom: C -> D``.
    Raises :class:`NonCommuting` when the square does not commute.  For
    injective legs the square is a pullback exactly when ``A`` covers the
    whole intersection of the images of ``right`` and ``bottom``.
    """
    for leg, name in (
        (top, "top"),
        (left, "left"),
        (right, "right"),
        (bottom, "bottom"),
    ):
        problems = check_morphism(leg)
        if problems:
            raise ValueError(f"{name} leg is not a valid injection: {problems[0]}")
    if top.dst_graph != right.src_graph or left.dst_graph != bottom.src_graph:
        raise ValueError("square legs do not compose")
    if right.dst_graph != bottom.dst_graph:
        raise ValueError("square legs do not land in a common graph")
    if not same_maps(compose(top, right), compose(left, bottom)):
        raise NonCommuting("the square does not commute")

    for b_map, c_map, a_top, a_left in (
        (right.node_map, bottom.node_map, top.node_map, left.node_map),
        (right.edge_map, bottom.edge_map, top.edge_map, left.edge_map),
    ):
        c_inv = {v: k for k, v in c_map.items()}
        covered = {(a_top[a], a_left[a]) for a in a_top}
        for bid, d_img in b_map.items():
            cid = c_inv.get(d_img)
            if cid is not None and (bid, cid) not in covered:
                return False
    return True


@dataclass(frozen=True)
class SubruleEmbedding:
    """Componentwise injections embedding ``sub`` into ``sup``."""

    sub: Rule
    sup: Rule
    iota_lhs: Morphism
    iota_interface: Morphism
    iota_rhs: Morphism

    @classmethod
    def by_inclusion(cls, sub: Rule, sup: Rule) -> SubruleEmbedding:
        return cls(
            sub,
            sup,
            Morphism.inclusion(sub.lhs, sup.lhs),
            Morphism.inclusion(sub.interface, sup.interface),
            Morphism.inclusion(sub.rhs, sup.rhs),
        )


def check_subrule_embedding(e: SubruleEmbedding) -> bool:
    """Whether ``e`` embeds its small rule into its large rule.

    Structurally both mediating squares must commute and be pullbacks;
    semantically the large rule's NACs must be equivalent to the small
    rule's NACs shifted along the left leg.
    """
    for leg, src, dst, name in (
        (e.iota_lhs, e.sub.lhs, e.sup.lhs, "lhs"),
        (e.iota_interface, e.sub.interface, e.sup.interface, "interface"),
        (e.iota_rhs, e.sub.rhs, e.sup.rhs, "rhs"),
    ):
        if leg.src_graph != src or leg.dst_graph != dst:
            raise ValueError(f"{name} leg does not connect the two rules")
        problems = check_morphism(leg)
        if problems:
            raise ValueError(f"{name} leg is not a valid injection: {problems[0]}")

    try:
        squares_ok = is_pullback_square(
            e.sub.left_inclusion, e.iota_interface, e.iota_lhs, e.sup.left_inclusion
        ) and is_pullback_square(
            e.sub.right_inclusion, e.iota_interface, e.iota_rhs, e.sup.right_inclusion
        )
    except NonCommuting:
        return False
    return squares_ok and nac_sets_equivalent(
        e.sup.lhs, e.sup.nacs, shift_nacs(e.iota_lhs, e.sub.nacs)
    )


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

    def rooted_injection_exists(source: TypedGraph, target: TypedGraph) -> bool:
        partial = ({n: n for n in lhs.nodes}, {e: e for e in lhs.edges})
        return next(find_injective_extensions(source, target, partial), None) is not None

    return all(
        any(rooted_injection_exists(b.forbidden, a.forbidden) for b in others)
        for ones, others in ((first, second), (second, first))
        for a in ones
    )


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
    k = r.interface
    for sup, label in ((r.lhs, "lhs"), (r.rhs, "rhs")):
        for ours, theirs, what in (
            (k.nodes, sup.nodes, "node missing from or retyped in"),
            (k.edges, sup.edges, "edge missing from or changed in"),
        ):
            for xid in sorted(ours):
                if theirs.get(xid) != ours[xid]:
                    problem = f"interface {what} {label}"
                    out.append(Diagnostic("interface-not-included", xid, problem))
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


def validate_effect_rule(eor: EffectOrientedRule) -> list[Diagnostic]:
    """Violations of the base/maximal shape: both rules well formed, the
    interfaces identical, and the maximal NACs equivalent to the base NACs
    shifted to the maximal lhs."""
    out: list[Diagnostic] = []
    for rule, label in ((eor.base, "base"), (eor.maximal, "maximal")):
        for d in validate_rule(rule):
            out.append(Diagnostic(d.code, d.element, f"{label}: {d.message}"))
    # The base interface is already included in the maximal one.
    if not is_id_subgraph(eor.maximal.interface, eor.base.interface):
        out.append(
            Diagnostic(
                "interface-mismatch",
                None,
                "base and maximal rule must share the interface exactly",
            )
        )
    # Inclusions and identical interfaces K make both squares commute, and
    # L_base ∩ K = K = R_base ∩ K makes them pullbacks: only NACs are left.
    if not out and not nac_sets_equivalent(
        eor.maximal.lhs,
        eor.maximal.nacs,
        shift_nacs(Morphism.inclusion(eor.base.lhs, eor.maximal.lhs), eor.base.nacs),
    ):
        out.append(
            Diagnostic(
                "embedding-invalid",
                None,
                "base rule does not embed into the maximal rule",
            )
        )
    return out


def induced(
    g: TypedGraph, node_ids: Iterable[str], edge_ids: Iterable[str]
) -> TypedGraph:
    """The subgraph on the given ids; endpoints of kept edges must be kept."""
    node_ids = set(node_ids)
    edge_ids = set(edge_ids)
    nodes = {}
    for nid in node_ids:
        if nid not in g.nodes:
            raise ValueError(f"unknown node id {nid!r}")
        nodes[nid] = g.nodes[nid]
    edges = {}
    for eid in edge_ids:
        if eid not in g.edges:
            raise ValueError(f"unknown edge id {eid!r}")
        e = g.edges[eid]
        if e.src not in node_ids or e.tgt not in node_ids:
            raise ValueError(f"edge {eid!r} would dangle in the subgraph")
        edges[eid] = e
    return TypedGraph(g.type_graph, nodes, edges)


def restricted(f: Morphism, sub: TypedGraph) -> Morphism:
    """The restriction of ``f`` to an id-subgraph of its source."""
    return Morphism(
        sub,
        f.dst_graph,
        {n: f.node_map[n] for n in sub.nodes},
        {e: f.edge_map[e] for e in sub.edges},
    )


def graph_union(a: TypedGraph, b: TypedGraph) -> TypedGraph:
    """The id-level union of two graphs over the same type graph."""
    if a.type_graph != b.type_graph:
        raise ValueError("graphs are typed over different type graphs")
    nodes = dict(a.nodes)
    for nid, ntype in b.nodes.items():
        if nodes.get(nid, ntype) != ntype:
            raise ValueError(f"node {nid!r} has conflicting types in the union")
        nodes[nid] = ntype
    edges = dict(a.edges)
    for eid, edge in b.edges.items():
        if edges.get(eid, edge) != edge:
            raise ValueError(f"edge {eid!r} has conflicting content in the union")
        edges[eid] = edge
    return TypedGraph(a.type_graph, nodes, edges)


def is_isomorphic(a: TypedGraph, b: TypedGraph) -> bool:
    """Exhaustive isomorphism check, intended for small graphs."""
    if len(a.nodes) != len(b.nodes) or len(a.edges) != len(b.edges):
        return False
    if Counter(a.nodes.values()) != Counter(b.nodes.values()):
        return False
    if Counter(e.type for e in a.edges.values()) != Counter(
        e.type for e in b.edges.values()
    ):
        return False
    return next(iter(find_injective_extensions(a, b)), None) is not None


def _tilde_id(base: str, taken: set[str]) -> str:
    """``base`` if unused, otherwise the first free ``base~k`` with k >= 1:
    the pushout's own naming, independent of the engine's ``#k`` ids."""
    if base not in taken:
        return base
    k = 1
    while f"{base}~{k}" in taken:
        k += 1
    return f"{base}~{k}"


def pushout(f: Morphism, g: Morphism) -> tuple[TypedGraph, Morphism, Morphism]:
    """The pushout of injective ``f: A -> B`` and ``g: A -> C``.

    The result reuses the ids of ``B``; elements of ``C`` outside the image
    of ``g`` keep their ids unless they clash, in which case a ``~k`` suffix
    is appended deterministically.
    """
    if f.src_graph != g.src_graph:
        raise ValueError("pushout legs must share their source graph")
    for leg, name in ((f, "first"), (g, "second")):
        problems = check_morphism(leg)
        if problems:
            raise ValueError(f"{name} pushout leg is not a valid injection: {problems[0]}")
    b, c = f.dst_graph, g.dst_graph
    if b.type_graph != c.type_graph:
        raise ValueError("pushout legs land in different type graphs")

    g_node_inv = {v: k for k, v in g.node_map.items()}
    g_edge_inv = {v: k for k, v in g.edge_map.items()}

    nodes = dict(b.nodes)
    edges = dict(b.edges)
    taken = set(nodes) | set(edges)
    in_c_nodes: dict[str, str] = {}
    for cid in c.sorted_nodes:
        if cid in g_node_inv:
            in_c_nodes[cid] = f.node_map[g_node_inv[cid]]
        else:
            new = _tilde_id(cid, taken)
            taken.add(new)
            nodes[new] = c.nodes[cid]
            in_c_nodes[cid] = new
    in_c_edges: dict[str, str] = {}
    for cid in c.sorted_edges:
        if cid in g_edge_inv:
            in_c_edges[cid] = f.edge_map[g_edge_inv[cid]]
        else:
            new = _tilde_id(cid, taken)
            taken.add(new)
            e = c.edges[cid]
            edges[new] = Edge(e.type, in_c_nodes[e.src], in_c_nodes[e.tgt])
            in_c_edges[cid] = new

    d = TypedGraph(b.type_graph, nodes, edges)
    in_b = Morphism.inclusion(b, d)
    in_c = Morphism(c, d, in_c_nodes, in_c_edges)
    return d, in_b, in_c


def enumerate_typed_graphs(
    tg: TypeGraph, max_nodes: int, max_parallel: int = 1
) -> Iterator[TypedGraph]:
    """All graphs over ``tg`` with at most ``max_nodes`` nodes, up to
    isomorphic relabelling of nodes, with at most ``max_parallel`` parallel
    edges per (type, src, tgt) class.

    Used for bounded semantic checks of application conditions.
    """
    type_names = sorted(tg.node_types)
    for n in range(max_nodes + 1):
        for combo in itertools.combinations_with_replacement(type_names, n):
            nodes = {f"h{i}": t for i, t in enumerate(combo)}
            slots = []
            for et_name in sorted(tg.edge_types):
                et = tg.edge_types[et_name]
                for u in sorted(nodes):
                    if nodes[u] != et.source:
                        continue
                    for v in sorted(nodes):
                        if nodes[v] == et.target:
                            slots.append((et_name, u, v))
            for counts in itertools.product(range(max_parallel + 1), repeat=len(slots)):
                edges = {}
                i = 0
                for (et_name, u, v), k in zip(slots, counts):
                    for _ in range(k):
                        edges[f"e{i}"] = Edge(et_name, u, v)
                        i += 1
                yield TypedGraph(tg, nodes, edges)


def bounded_nac_sets_equivalent(
    lhs: TypedGraph,
    first: Sequence[Nac],
    second: Sequence[Nac],
    hosts: Iterable[TypedGraph],
) -> bool:
    """Whether every injective match of ``lhs`` into every one of ``hosts``
    satisfies both NAC sets or neither: equivalence decided by brute force.

    Exact when ``hosts`` holds every graph with as many nodes as the largest
    NAC and as many parallel edges as the worst class of the inputs, since a
    NAC is then a host itself."""
    for host in hosts:
        for m in find_injective_extensions(lhs, host):
            if satisfies_nacs(m, first) != satisfies_nacs(m, second):
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


def is_plain(eor: EffectOrientedRule) -> bool:
    """Whether ``eor`` has no potential action at all."""
    return not eor.potential_deletions and not eor.potential_creations


def check_base_subrule(eor: EffectOrientedRule, induced: InducedRule) -> bool:
    """Whether the base rule embeds into the induced rule as a subrule."""
    embedding = SubruleEmbedding.by_inclusion(eor.base, induced.rule)
    return check_subrule_embedding(embedding)


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


def _interface_plus_element(
    interface: TypedGraph, source: TypedGraph, element: str
) -> TypedGraph | None:
    """The interface extended by one source element, or ``None`` when an
    edge's endpoints are not all interface nodes."""
    if element in source.nodes:
        return with_elements(interface, nodes={element: source.nodes[element]})
    edge = source.edges[element]
    if edge.src not in interface.nodes or edge.tgt not in interface.nodes:
        return None
    return with_elements(interface, edges={element: edge})


def _reference_justify(
    kind: str,
    elements: ElementSet,
    acted: ElementSet,
    side: TypedGraph,
    target: TypedGraph,
    m: Morphism,
    interface: TypedGraph,
    clause: str,
    failure: str,
) -> Iterator[AuditEntry]:
    """The entries of ``elements`` as the library's ``_justify`` gives
    them, each element's extensions found by searching for the injective
    morphisms of the interface plus that element into ``target``."""
    on_interface = (
        {n: m.node_map[n] for n in interface.nodes},
        {e: m.edge_map[e] for e in interface.edges},
    )
    for element in sorted(elements.nodes) + sorted(elements.edges):
        is_node = element in side.nodes
        if element in (acted.nodes if is_node else acted.edges):
            yield AuditEntry(kind, element, "alternative-action")
            continue
        extended = _interface_plus_element(interface, side, element)
        if extended is None:
            yield AuditEntry(kind, element, "skipped:not-a-graph")
            continue
        extensions = list(find_injective_extensions(extended, target, on_interface))
        if not extensions:
            yield AuditEntry(kind, element, "no-extension")
            continue
        images = m.node_images if is_node else m.edge_images
        for ext in extensions:
            image = (ext.node_map if is_node else ext.edge_map)[element]
            if image not in images:
                raise AuditFailure(element, f"host element {image!r} {failure}")
            yield AuditEntry(kind, element, clause, ((element, image),))


def reference_audit(t: EffectTransformation) -> AuditReport:
    """What :func:`~effectgraph.semantics.audit_effect` reports for ``t``,
    or the same :class:`AuditFailure`."""
    eor, record, sel = t.eor, t.result, t.selection
    deletions = _reference_justify(
        "deletion",
        eor.potential_deletions,
        sel.del_extra,
        eor.maximal.lhs,
        record.output,
        record.comatch,
        eor.interface,
        "alternative-creation",
        "was neither deleted nor reused",
    )
    creations = _reference_justify(
        "creation",
        eor.potential_creations - sel.preserve_extra,
        ElementSet(),
        eor.maximal.rhs,
        record.input,
        record.match,
        eor.interface,
        "alternative-action",
        "could have been reused instead of creating",
    )
    return AuditReport((*deletions, *creations))


def reference_encode_graph(g: TypedGraph) -> str:
    return canonical_text(
        {
            "kind": "graph",
            "type_graph": g.type_graph.name,
            "nodes": [{"id": nid, "type": g.nodes[nid]} for nid in g.sorted_nodes],
            "edges": [
                {
                    "id": eid,
                    "type": g.edges[eid].type,
                    "src": g.edges[eid].src,
                    "tgt": g.edges[eid].tgt,
                }
                for eid in g.sorted_edges
            ],
        }
    )


def _element_lists(
    doc: Mapping[str, Any]
) -> tuple[dict[str, str], dict[str, Edge]]:
    nodes: dict[str, str] = {}
    edges: dict[str, Edge] = {}
    raw_nodes = doc.get("nodes")
    raw_edges = doc.get("edges")
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ParseError("nodes and edges must be lists")
    for entry in raw_nodes:
        if not isinstance(entry, dict):
            raise ParseError("a node entry must be an object")
        nid = _str_field(entry, "id", "node")
        if nid in nodes:
            raise ParseError("duplicate id", nid)
        nodes[nid] = _str_field(entry, "type", f"node {nid}")
    for entry in raw_edges:
        if not isinstance(entry, dict):
            raise ParseError("an edge entry must be an object")
        eid = _str_field(entry, "id", "edge")
        if eid in nodes or eid in edges:
            raise ParseError("duplicate id", eid)
        edges[eid] = Edge(
            _str_field(entry, "type", f"edge {eid}"),
            _str_field(entry, "src", f"edge {eid}"),
            _str_field(entry, "tgt", f"edge {eid}"),
        )
    return nodes, edges


def reference_decode_graph(text: str, types: Mapping[str, TypeGraph]) -> TypedGraph:
    doc = _load(text)
    _expect_kind(doc, "graph")
    tg = _resolve_type_graph(doc, types)
    nodes, edges = _element_lists(doc)
    for eid, e in edges.items():
        if e.src not in nodes or e.tgt not in nodes:
            raise ParseError("edge endpoint is not a declared node", eid)
    g = TypedGraph(tg, nodes, edges)
    problems = validate_graph(g, tg)
    if problems:
        raise ValidationError(problems)
    return g
