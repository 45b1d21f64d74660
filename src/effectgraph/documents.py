"""Canonical text documents for graphs, rules, matches, traces, and audits.

Every value encodes to exactly one byte sequence: UTF-8 JSON with two-space
indentation, sorted object keys, element lists sorted by id, and a trailing
newline.  ``encode`` after ``decode`` is the identity on canonical text, and
``decode`` after ``encode`` is the identity on values, so documents double
as golden files.

Rules use a single integrated element list: each node and edge carries an
action tag — ``preserve``, ``delete``, ``create`` for the mandatory base
rule, ``delete_potential`` and ``create_potential`` for the extra actions
of the maximal rule.  Negative application conditions are blocks of extra
elements glued onto the base left-hand side.
"""

from __future__ import annotations

import json
from typing import Any, Collection, Iterable, Mapping, NamedTuple

from .core import (
    DanglingViolation,
    Diagnostic,
    Edge,
    EdgeType,
    EffectGraphError,
    ElementSet,
    Morphism,
    TypeGraph,
    TypedGraph,
    check_morphism,
    element_difference,
    validate_graph,
)
from .effect import (
    EffectOrientedRule,
    InducedSelection,
    InvalidSelection,
    build_induced_rule,
)
from .matching import InvalidPreMatch, PreMatch, validate_prematch
from .rules import Nac, Rule, _apply, shift_nacs
from .semantics import (
    STRATEGIES,
    AuditEntry,
    AuditReport,
    EffectTransformation,
)

ACTIONS = ("preserve", "delete", "delete_potential", "create", "create_potential")


class ParseError(EffectGraphError):
    """The text is not a well-formed document."""

    def __init__(self, message: str, element: str | None = None) -> None:
        if element is not None:
            message = f"{message} (at {element!r})"
        super().__init__(message)
        self.element = element


class ValidationError(EffectGraphError):
    """The document is well formed but its content is inconsistent."""

    def __init__(self, diagnostics: Iterable[Diagnostic | str]) -> None:
        items = tuple(
            d if isinstance(d, Diagnostic) else Diagnostic("invalid", None, d)
            for d in diagnostics
        )
        super().__init__("; ".join(str(d) for d in items))
        self.diagnostics = items


def canonical_text(doc: Any) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _load(text: str | dict) -> dict:
    """``text`` parsed, or as it is if ``effectgraph validate`` parsed it."""
    try:
        doc = text if isinstance(text, dict) else json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError("the top level must be an object")
    return doc


def _expect_kind(doc: Mapping[str, Any], kind: str) -> None:
    if doc.get("kind") != kind:
        raise ParseError(f"expected a {kind!r} document, found {doc.get('kind')!r}")


def _str_field(obj: Mapping[str, Any], key: str, where: str) -> str:
    value = obj.get(key)
    if not isinstance(value, str) or not value:
        raise ParseError(f"{where}: {key!r} must be a non-empty string")
    return value


def _str_list(doc: Mapping[str, Any], key: str, message: str) -> list[str]:
    value = doc.get(key)
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise ParseError(message)
    return value


def _str_map(doc: Mapping[str, Any], key: str, where: str) -> dict[str, str]:
    value = doc.get(key)
    if not isinstance(value, dict):
        raise ParseError(f"{where}: {key!r} must be an object")
    for k, v in value.items():
        if not isinstance(v, str):
            raise ParseError(f"{where}: {key}[{k!r}] must be a string")
    return dict(value)


# ---------------------------------------------------------------------------
# type graphs


def encode_type_graph(tg: TypeGraph) -> str:
    return canonical_text(
        {
            "kind": "type_graph",
            "name": tg.name,
            "node_types": sorted(tg.node_types),
            "edge_types": {name: et._asdict() for name, et in tg.edge_types.items()},
        }
    )


def decode_type_graph(text: str) -> TypeGraph:
    doc = _load(text)
    _expect_kind(doc, "type_graph")
    name = _str_field(doc, "name", "type graph")
    node_types = _str_list(doc, "node_types", "node_types must be a list of strings")
    raw = doc.get("edge_types")
    if not isinstance(raw, dict):
        raise ParseError("edge_types must be an object")
    edge_types = {}
    for et_name, entry in raw.items():
        if not isinstance(entry, dict):
            raise ParseError("an edge type must be an object", et_name)
        edge_types[et_name] = EdgeType(
            _str_field(entry, "source", f"edge type {et_name}"),
            _str_field(entry, "target", f"edge type {et_name}"),
        )
    try:
        return TypeGraph(name, frozenset(node_types), edge_types)
    except ValueError as exc:
        raise ValidationError([str(exc)]) from None


def _resolve_type_graph(
    doc: Mapping[str, Any], types: Mapping[str, TypeGraph]
) -> TypeGraph:
    name = _str_field(doc, "type_graph", "document")
    try:
        return types[name]
    except KeyError:
        known = ", ".join(sorted(types)) or "none"
        raise ParseError(
            f"unknown type graph {name!r}; known: {known}"
        ) from None


# ---------------------------------------------------------------------------
# graphs


_quote = json.encoder.encode_basestring_ascii
_edge = tuple.__new__  # what ``Edge(...)`` calls, without its Python frame


def _list_text(entries: list[str]) -> str:
    return "[\n" + ",\n".join(entries) + "\n  ]" if entries else "[]"


def encode_graph(g: TypedGraph) -> str:
    """The canonical text of ``g``, written directly rather than through
    :func:`canonical_text`: one f-string per element, keys in sorted order,
    elements by id, and every id and type name (all strings) escaped by the
    same C routine ``json.dumps`` uses, so the bytes are the same."""
    nodes, edges, q = g._rooted().nodes, g._rooted().edges, _quote
    node_entries = [
        f'    {{\n      "id": {q(n)},\n      "type": {q(nodes[n])}\n    }}'
        for n in sorted(nodes)
    ]
    edge_entries = []
    for eid in sorted(edges):
        etype, src, tgt = edges[eid]
        edge_entries.append(
            f'    {{\n      "id": {q(eid)},\n      "src": {q(src)},\n'
            f'      "tgt": {q(tgt)},\n      "type": {q(etype)}\n    }}'
        )
    return (
        '{\n  "edges": ' + _list_text(edge_entries)
        + ',\n  "kind": "graph",\n  "nodes": ' + _list_text(node_entries)
        + ',\n  "type_graph": ' + q(g.type_graph.name) + "\n}\n"
    )


def decode_graph(text: str, types: Mapping[str, TypeGraph]) -> TypedGraph:
    """The graph encoded in ``text``.

    Its element lists are read whole and accepted on checks of whole sets:
    as many nodes and edges as entries, every id and type name a non-empty
    string, node and edge ids disjoint, every node type and every distinct
    (edge type, source type, target type) triple declared by the type graph.
    Only when one of them fails are the entries read again in order, to
    report the first fault: the first structural one in entry order;
    failing that, the first edge with an undeclared endpoint; failing that,
    a typing fault, as a ``ValidationError`` carrying the diagnostics of
    :func:`validate_graph`, which runs only then."""
    doc = _load(text)
    _expect_kind(doc, "graph")
    tg = _resolve_type_graph(doc, types)
    raw_nodes, raw_edges = doc.get("nodes"), doc.get("edges")
    if not isinstance(raw_nodes, list) or not isinstance(raw_edges, list):
        raise ParseError("nodes and edges must be lists")
    try:  # a non-object entry, a missing field or an unhashable value raises
        nodes = {n["id"]: n["type"] for n in raw_nodes}
        edges = {e["id"]: _edge(Edge, (e["type"], e["src"], e["tgt"])) for e in raw_edges}
        triples = {(t, nodes[s], nodes[d]) for t, s, d in edges.values()}
        node_types = set(nodes.values())
    except (KeyError, TypeError):
        pass
    else:
        names = node_types.union(t for t, _, _ in triples)
        if (
            len(nodes) == len(raw_nodes)
            and len(edges) == len(raw_edges)
            and {*map(type, nodes), *map(type, edges), *map(type, names)} <= {str}
            and "" not in nodes and "" not in edges and "" not in names
            and nodes.keys().isdisjoint(edges)
            and node_types <= tg.node_types
            and triples <= {(name, *et) for name, et in tg.edge_types.items()}
        ):
            return TypedGraph(tg, nodes, edges)
    nodes, edges = {}, {}
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
        fields = (_str_field(entry, key, f"edge {eid}") for key in ("type", "src", "tgt"))
        edges[eid] = Edge(*fields)
    for eid, (_, src, tgt) in edges.items():
        if src not in nodes or tgt not in nodes:
            raise ParseError("edge endpoint is not a declared node", eid)
    raise ValidationError(validate_graph(TypedGraph(tg, nodes, edges), tg))


# ---------------------------------------------------------------------------
# rules


def _actions_of(eor: EffectOrientedRule) -> dict[str, str]:
    """The action tag of every element of the maximal rule's sides: that of
    the first graph holding it, in the order of :data:`ACTIONS`."""
    lhs, rhs = eor.maximal.lhs, eor.maximal.rhs
    graphs = list(zip(ACTIONS, (eor.interface, eor.base.lhs, lhs, eor.base.rhs, rhs)))
    return {
        xid: next(a for a, g in graphs if xid in g.nodes or xid in g.edges)
        for xid in (*lhs.nodes, *lhs.edges, *rhs.nodes, *rhs.edges)
    }


def _element_entry(
    xid: str, g: TypedGraph, action: str | None = None
) -> dict[str, str]:
    """The document entry of element ``xid`` of ``g``: an element-list entry
    with its ``action`` tag, or a NAC entry without one."""
    entry = {"id": xid}
    if action is not None:
        entry["action"] = action
    if xid in g.nodes:
        entry["type"] = g.nodes[xid]
    else:
        entry.update(g.edges[xid]._asdict())
    return entry


def encode_rule(name: str, eor: EffectOrientedRule) -> str:
    """Canonical text; ``ValueError`` unless both maximal sides hold the
    interface and the maximal interface is the base one."""
    lhs, rhs = eor.maximal.lhs, eor.maximal.rhs
    # Only the sides' ids are tagged, and only the base interface's preserved.
    k = eor.interface
    for sub, sup in ((k, lhs), (k, rhs), (eor.maximal.interface, k)):
        Morphism.inclusion(sub, sup)
    elements = [
        _element_entry(xid, lhs if xid in lhs.nodes or xid in lhs.edges else rhs, tag)
        for xid, tag in _actions_of(eor).items()
    ]
    elements.sort(key=lambda entry: entry["id"])
    nac_blocks = []
    for nac in eor.base.nacs:
        extra = element_difference(nac.forbidden, eor.base.lhs)
        ids = sorted([*extra.nodes, *extra.edges])
        nac_blocks.append({"elements": [_element_entry(x, nac.forbidden) for x in ids]})
    nac_blocks.sort(key=canonical_text)
    return canonical_text(
        {
            "kind": "rule",
            "name": name,
            "type_graph": eor.maximal.lhs.type_graph.name,
            "elements": elements,
            "nacs": nac_blocks,
        }
    )


def _read_elements(
    raw: list, taken: Collection[str] = (), nac: bool = False
) -> tuple[dict[str, str], dict[str, Edge], dict[str, str]]:
    """The nodes, edges and action tags of the element entries ``raw`` of a
    rule document.  Entries of a ``nac`` block carry no action tag and say
    ``nac`` in their messages.  An id in ``taken`` is a duplicate."""
    prefix, article = ("nac ", "a nac") if nac else ("", "an")
    nodes: dict[str, str] = {}
    edges: dict[str, Edge] = {}
    actions: dict[str, str] = {}
    for entry in raw:
        if not isinstance(entry, dict):
            raise ParseError(f"{article} element entry must be an object")
        xid = _str_field(entry, "id", f"{prefix}element")
        if xid in nodes or xid in edges or xid in taken:
            raise ParseError("duplicate id", xid)
        if not nac:
            action = _str_field(entry, "action", f"element {xid}")
            if action not in ACTIONS:
                raise ParseError(f"unknown action tag {action!r}", xid)
            actions[xid] = action
        if "src" in entry or "tgt" in entry:
            where = f"{prefix}edge {xid}"
            edges[xid] = Edge(
                _str_field(entry, "type", where),
                _str_field(entry, "src", where),
                _str_field(entry, "tgt", where),
            )
        else:
            nodes[xid] = _str_field(entry, "type", f"{prefix}node {xid}")
    return nodes, edges, actions


def decode_rule(
    text: str, types: Mapping[str, TypeGraph]
) -> tuple[str, EffectOrientedRule]:
    """The rule name and the effect-oriented rule encoded in ``text``."""
    doc = _load(text)
    _expect_kind(doc, "rule")
    name = _str_field(doc, "name", "rule")
    tg = _resolve_type_graph(doc, types)
    raw = doc.get("elements")
    if not isinstance(raw, list):
        raise ParseError("elements must be a list")

    node_types, edge_data, action_of = _read_elements(raw)

    problems: list[Diagnostic] = []
    for eid, e in edge_data.items():
        for endpoint in (e.src, e.tgt):
            if endpoint not in node_types:
                raise ParseError("edge endpoint is not a declared node", eid)
            # Potential edges may not touch mandatory-action nodes: the edge could
            # then never (creation) or not safely (deletion) be left unselected.
            if action_of[endpoint] not in ("preserve", action_of[eid]):
                problems.append(
                    Diagnostic(
                        "inconsistent-tags",
                        eid,
                        f"{action_of[eid]} edge may not use "
                        f"{action_of[endpoint]} node {endpoint!r}",
                    )
                )
    if problems:
        raise ValidationError(problems)

    def side(actions: set[str]) -> TypedGraph:
        nodes = {x: t for x, t in node_types.items() if action_of[x] in actions}
        edges = {x: e for x, e in edge_data.items() if action_of[x] in actions}
        return TypedGraph(tg, nodes, edges)

    interface = side({"preserve"})
    base_lhs = side({"preserve", "delete"})
    base_rhs = side({"preserve", "create"})
    maximal_lhs = side({"preserve", "delete", "delete_potential"})
    maximal_rhs = side({"preserve", "create", "create_potential"})

    raw_nacs = doc.get("nacs", [])
    if not isinstance(raw_nacs, list):
        raise ParseError("nacs must be a list")
    nacs = []
    for block in raw_nacs:
        if not isinstance(block, dict) or not isinstance(block.get("elements"), list):
            raise ParseError("a nac must be an object with an element list")
        nac_nodes, nac_edges, _ = _read_elements(block["elements"], action_of, nac=True)
        forbidden = TypedGraph(
            tg,
            {**base_lhs.nodes, **nac_nodes},
            {**base_lhs.edges, **nac_edges},
        )
        bad = validate_graph(forbidden, tg)
        if bad:
            raise ValidationError(bad)
        nacs.append(Nac(forbidden))

    # The endpoint tags keep each side's edge ends in that side, so the other
    # sides, id-subgraphs of these two, are valid when these are.
    for g in (maximal_lhs, maximal_rhs):
        bad = validate_graph(g, tg)
        if bad:
            raise ValidationError(bad)

    base = Rule(base_lhs, interface, base_rhs, nacs=tuple(nacs))
    maximal = Rule(
        maximal_lhs,
        interface,
        maximal_rhs,
        nacs=shift_nacs(Morphism.inclusion(base_lhs, maximal_lhs), tuple(nacs)),
    )
    return name, EffectOrientedRule(base, maximal)


# ---------------------------------------------------------------------------
# matches


def encode_match(node_map: Mapping[str, str], edge_map: Mapping[str, str]) -> str:
    return canonical_text(
        {"kind": "match", "nodes": dict(node_map), "edges": dict(edge_map)}
    )


def decode_match(text: str) -> tuple[dict[str, str], dict[str, str]]:
    doc = _load(text)
    _expect_kind(doc, "match")
    return _str_map(doc, "nodes", "match"), _str_map(doc, "edges", "match")


def prematch_from_maps(
    eor: EffectOrientedRule,
    host: TypedGraph,
    node_map: Mapping[str, str],
    edge_map: Mapping[str, str],
) -> PreMatch:
    """A validated base pre-match from raw id maps.

    Edge images omitted from ``edge_map`` are inferred when both ends map
    to host nodes of their types and the host has a unique candidate;
    ambiguity is a validation error, and a bad end a fault of its node."""
    edge_map, lhs = dict(edge_map), eor.base.lhs
    for eid in lhs.sorted_edges:
        e, types = lhs.edges[eid], lhs.nodes
        ends = node_map.get(e.src), node_map.get(e.tgt)
        nodes = host._rooted().nodes  # read after the pattern: they may share a store
        if eid in edge_map or tuple(map(nodes.get, ends)) != (types[e.src], types[e.tgt]):
            continue
        candidates = [
            h
            for h in host._rooted().edge_classes.get((e.type, *ends), ())
            if h not in edge_map.values()
        ]
        if len(candidates) != 1:
            raise ValidationError(
                [f"edge {eid!r} has no unique host image; map it explicitly"]
            )
        edge_map[eid] = candidates[0]
    morphism = Morphism(eor.base.lhs, host, node_map, edge_map)
    try:
        pm = PreMatch(morphism)
        validate_prematch(eor, host, pm)
    except (InvalidPreMatch, ValueError) as exc:
        raise ValidationError([str(exc)]) from None
    return pm


# ---------------------------------------------------------------------------
# traces


class TraceData(NamedTuple):
    """The raw content of a trace document."""

    rule: str
    strategy: str
    selection_delete: tuple[str, ...]
    selection_preserve: tuple[str, ...]
    base_match: tuple[dict[str, str], dict[str, str]]
    match: tuple[dict[str, str], dict[str, str]]
    comatch: tuple[dict[str, str], dict[str, str]]


def _maps_doc(m: Morphism) -> dict[str, dict[str, str]]:
    return {"nodes": dict(m.node_map), "edges": dict(m.edge_map)}


def encode_trace(t: EffectTransformation, rule_name: str) -> str:
    sel = t.selection
    return canonical_text(
        {
            "kind": "trace",
            "rule": rule_name,
            "strategy": t.strategy,
            "selection": {
                "delete": sorted(sel.del_extra.nodes | sel.del_extra.edges),
                "preserve": sorted(
                    sel.preserve_extra.nodes | sel.preserve_extra.edges
                ),
            },
            "base_match": _maps_doc(t.base_prematch.morphism),
            "match": _maps_doc(t.result.match),
            "comatch": _maps_doc(t.result.comatch),
        }
    )


def decode_trace(text: str) -> TraceData:
    doc = _load(text)
    _expect_kind(doc, "trace")
    strategy = _str_field(doc, "strategy", "trace")
    if strategy not in STRATEGIES:
        raise ParseError(f"unknown strategy {strategy!r}")
    sel = doc.get("selection")
    if not isinstance(sel, dict):
        raise ParseError("selection must be an object")
    delete, preserve = (
        _str_list(sel, key, f"selection.{key} must be a list of ids")
        for key in ("delete", "preserve")
    )

    def maps(key: str) -> tuple[dict[str, str], dict[str, str]]:
        value = doc.get(key)
        if not isinstance(value, dict):
            raise ParseError(f"{key} must be an object")
        return _str_map(value, "nodes", key), _str_map(value, "edges", key)

    return TraceData(
        rule=_str_field(doc, "rule", "trace"),
        strategy=strategy,
        selection_delete=tuple(delete),
        selection_preserve=tuple(preserve),
        base_match=maps("base_match"),
        match=maps("match"),
        comatch=maps("comatch"),
    )


def _split_ids(
    ids: Iterable[str], graph: TypedGraph, what: str
) -> ElementSet:
    nodes, edges = set(), set()
    for xid in ids:
        if xid in graph.nodes:
            nodes.add(xid)
        elif xid in graph.edges:
            edges.add(xid)
        else:
            raise ValidationError([f"{what} id {xid!r} is not a rule element"])
    return ElementSet(frozenset(nodes), frozenset(edges))


def _check_output(output: TypedGraph, replay: TypedGraph) -> None:
    """``ValidationError`` unless ``output`` has the replay's elements; the
    replay is read from its store, so no snapshot of it is made."""
    if output.nodes != replay._rooted().nodes or output.edges != replay._rooted().edges:
        raise ValidationError(["recorded output graph does not match the replay"])


def rebuild_transformation(
    eor: EffectOrientedRule,
    host: TypedGraph,
    trace: TraceData,
    output: TypedGraph | None = None,
) -> EffectTransformation:
    """Replay a trace against its rule and input graph.

    The recorded match must extend the recorded base match, and the
    recorded comatch — and, when given, the recorded output graph — must
    agree with the replayed application."""
    sel = InducedSelection(
        _split_ids(trace.selection_delete, eor.maximal.lhs, "deleted"),
        _split_ids(trace.selection_preserve, eor.maximal.rhs, "preserved"),
    )
    try:
        induced = build_induced_rule(eor, sel)
    except InvalidSelection as exc:
        raise ValidationError([str(exc)]) from None
    match = Morphism(induced.rule.lhs, host, trace.match[0], trace.match[1])
    problems = check_morphism(match)
    if problems:
        raise ValidationError(problems)
    pm = prematch_from_maps(eor, host, trace.base_match[0], trace.base_match[1])
    base = pm.morphism
    if any(match.node_map[x] != y for x, y in base.node_map.items()) or any(
        match.edge_map[x] != y for x, y in base.edge_map.items()
    ):
        raise ValidationError(["recorded match does not extend the base match"])
    try:
        # The checks above and the pre-match's NACs, which the induced rule's
        # shifted NACs inherit, are all that apply_rule would check again.
        record = _apply(induced.rule, host, match)
    except DanglingViolation as exc:
        raise ValidationError([f"trace is not applicable: {exc}"]) from None
    if (
        dict(record.comatch.node_map) != trace.comatch[0]
        or dict(record.comatch.edge_map) != trace.comatch[1]
    ):
        raise ValidationError(["recorded comatch does not match the replay"])
    if output is not None:
        _check_output(output, record.output)
    return EffectTransformation(
        eor=eor,
        strategy=trace.strategy,
        result=record,
        selection=sel,
        base_prematch=pm,
    )


# ---------------------------------------------------------------------------
# audit reports


def encode_audit_report(report: AuditReport) -> str:
    return canonical_text(
        {
            "kind": "audit_report",
            "entries": [entry._asdict() for entry in report.entries],
        }
    )


def decode_audit_report(text: str) -> AuditReport:
    doc = _load(text)
    _expect_kind(doc, "audit_report")
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise ParseError("entries must be a list")
    entries = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ParseError("an audit entry must be an object")
        witness = entry.get("witness")
        if witness is not None:
            if not isinstance(witness, list) or not all(
                isinstance(p, list)
                and len(p) == 2
                and isinstance(p[0], str)
                and isinstance(p[1], str)
                for p in witness
            ):
                raise ParseError("witness must be a list of pairs")
            witness = tuple((p[0], p[1]) for p in witness)
        entries.append(
            AuditEntry(
                kind=_str_field(entry, "kind", "audit entry"),
                element=_str_field(entry, "element", "audit entry"),
                clause=_str_field(entry, "clause", "audit entry"),
                witness=witness,
            )
        )
    return AuditReport(tuple(entries))
