"""The contract of the public value types: how they print, compare, hash,
refuse change and copy.

One instance of each type is built twice, separately, and once more with
one field changed.  ``MatchStats`` is left out: it is a mutable counter,
not a value.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from effectgraph import (
    AuditEntry,
    AuditReport,
    Diagnostic,
    Edge,
    EdgeType,
    EffectOrientedRule,
    EffectTransformation,
    ElementSet,
    InducedRule,
    InducedSelection,
    MatchResult,
    Morphism,
    Nac,
    PreMatch,
    Rule,
    TraceData,
    TransformationRecord,
    TypeGraph,
    TypedGraph,
    apply_rule,
)

TG = TypeGraph("T", frozenset({"A"}), {"aa": EdgeType("A", "A")})


def graph(nodes: str, edges: dict | None = None, tg: TypeGraph = TG) -> TypedGraph:
    return TypedGraph(tg, {n: "A" for n in nodes}, edges or {})


def build(variant: str | None = None) -> dict[str, object]:
    """One value of each type, all built afresh; the value named
    ``variant`` differs from the default one in exactly one field."""

    def pick(name: str, usual, other):
        return other if name == variant else usual

    k, lhs = graph("x"), graph("xy", {"e": Edge("aa", "x", "y")})
    rhs = graph("xn")
    nac = Nac(graph(pick("Nac", "xyz", "xyw"), {"e": Edge("aa", "x", "y")}))
    rule = Rule(lhs, k, pick("Rule", rhs, graph("x")), [nac])
    host = graph("ab", {"f": Edge("aa", "a", "b")})
    match = Morphism(lhs, host, {"x": "a", "y": "b"}, {"e": "f"})
    record = apply_rule(rule, host, match)
    base = Rule(k, k, k)
    eor = EffectOrientedRule(base, pick("EffectOrientedRule", Rule(k, k, rhs), base))
    selection = InducedSelection(
        ElementSet(), pick("InducedSelection", ElementSet({"n"}), ElementSet())
    )
    induced = InducedRule(selection, pick("InducedRule", rule, base))
    prematch = PreMatch(
        Morphism(k, host, pick("PreMatch", {"x": "a"}, {"x": "b"}), {})
    )
    entry = AuditEntry(
        "deletion", "y", "acted", pick("AuditEntry", (("x", "a"),), None)
    )
    maps = ({"x": "a"}, {})
    return {
        "Diagnostic": Diagnostic("code", pick("Diagnostic", "x", None), "message"),
        "EdgeType": EdgeType("A", pick("EdgeType", "A", "B")),
        "TypeGraph": TypeGraph(pick("TypeGraph", "T", "U"), {"A"}, TG.edge_types),
        "Edge": Edge("aa", "x", pick("Edge", "y", "x")),
        "TypedGraph": pick("TypedGraph", lhs, graph("xy")),
        "ElementSet": ElementSet({"x"}, pick("ElementSet", {"e"}, ())),
        "Morphism": Morphism(k, host, {"x": pick("Morphism", "a", "b")}, {}),
        "Nac": nac,
        "Rule": rule,
        "TransformationRecord": TransformationRecord(
            record.rule, record.input, pick("TransformationRecord", record.output, host),
            record.match, record.comatch, record.deleted, record.created,
        ),
        "EffectOrientedRule": eor,
        "InducedSelection": selection,
        "InducedRule": induced,
        "PreMatch": prematch,
        "MatchResult": MatchResult(
            induced, pick("MatchResult", match, record.comatch), prematch
        ),
        "EffectTransformation": EffectTransformation(
            eor, pick("EffectTransformation", "locally_complete", "locally_maximal"),
            record, selection, prematch,
        ),
        "AuditEntry": entry,
        "AuditReport": AuditReport(pick("AuditReport", (entry,), ())),
        "TraceData": TraceData(
            "r", "locally_complete", ("y",), pick("TraceData", (), ("n",)),
            maps, maps, maps,
        ),
    }


# Each type's first field and its repr.
CONTRACT = {
    "Diagnostic": ("code", "Diagnostic(code='code', element='x', message='message')"),
    "EdgeType": ("source", "EdgeType(source='A', target='A')"),
    "TypeGraph": ("name", "TypeGraph('T', 1 node types, 1 edge types)"),
    "Edge": ("type", "Edge(type='aa', src='x', tgt='y')"),
    "TypedGraph": ("type_graph", "TypedGraph(2 nodes, 1 edges over 'T')"),
    "ElementSet": (
        "nodes",
        "ElementSet(nodes=frozenset({'x'}), edges=frozenset({'e'}))"
    ),
    "Morphism": ("node_map", "Morphism({'x': 'a'}, {})"),
    "Nac": ("forbidden", "Nac(forbidden=TypedGraph(3 nodes, 1 edges over 'T'))"),
    "Rule": (
        "lhs",
        "Rule(lhs=TypedGraph(2 nodes, 1 edges over 'T'), "
        "interface=TypedGraph(1 nodes, 0 edges over 'T'), "
        "rhs=TypedGraph(2 nodes, 0 edges over 'T'), "
        "nacs=(Nac(forbidden=TypedGraph(3 nodes, 1 edges over 'T')),))"
    ),
    "TransformationRecord": (
        "rule",
        "TransformationRecord(rule=Rule(lhs=TypedGraph(2 nodes, "
        "1 edges over 'T'), interface=TypedGraph(1 nodes, 0 edges over 'T'), "
        "rhs=TypedGraph(2 nodes, 0 edges over 'T'), "
        "nacs=(Nac(forbidden=TypedGraph(3 nodes, 1 edges over 'T')),)), "
        "input=TypedGraph(2 nodes, 1 edges over 'T'), "
        "output=TypedGraph(2 nodes, 0 edges over 'T'), "
        "match=Morphism({'x': 'a', 'y': 'b'}, {'e': 'f'}), "
        "comatch=Morphism({'x': 'a', 'n': 'n#1'}, {}), "
        "deleted=ElementSet(nodes=frozenset({'b'}), edges=frozenset({'f'})), "
        "created=ElementSet(nodes=frozenset({'n#1'}), edges=frozenset()))"
    ),
    "EffectOrientedRule": (
        "base",
        "EffectOrientedRule(base=Rule(lhs=TypedGraph(1 nodes, "
        "0 edges over 'T'), interface=TypedGraph(1 nodes, 0 edges over 'T'), "
        "rhs=TypedGraph(1 nodes, 0 edges over 'T'), nacs=()), "
        "maximal=Rule(lhs=TypedGraph(1 nodes, 0 edges over 'T'), "
        "interface=TypedGraph(1 nodes, 0 edges over 'T'), "
        "rhs=TypedGraph(2 nodes, 0 edges over 'T'), nacs=()))"
    ),
    "InducedSelection": (
        "del_extra",
        "InducedSelection(del_extra=ElementSet(nodes=frozenset(), "
        "edges=frozenset()), "
        "preserve_extra=ElementSet(nodes=frozenset({'n'}), "
        "edges=frozenset()))"
    ),
    "InducedRule": (
        "selection",
        "InducedRule(selection=InducedSelection(del_extra=ElementSet(nodes=frozenset(), "
        "edges=frozenset()), "
        "preserve_extra=ElementSet(nodes=frozenset({'n'}), "
        "edges=frozenset())), rule=Rule(lhs=TypedGraph(2 nodes, "
        "1 edges over 'T'), interface=TypedGraph(1 nodes, 0 edges over 'T'), "
        "rhs=TypedGraph(2 nodes, 0 edges over 'T'), "
        "nacs=(Nac(forbidden=TypedGraph(3 nodes, 1 edges over 'T')),)))"
    ),
    "PreMatch": ("morphism", "PreMatch(morphism=Morphism({'x': 'a'}, {}))"),
    "MatchResult": (
        "induced",
        "MatchResult(induced=InducedRule(selection=InducedSelection(del_extra=ElementSet(nodes=frozenset(), "
        "edges=frozenset()), "
        "preserve_extra=ElementSet(nodes=frozenset({'n'}), "
        "edges=frozenset())), rule=Rule(lhs=TypedGraph(2 nodes, "
        "1 edges over 'T'), interface=TypedGraph(1 nodes, 0 edges over 'T'), "
        "rhs=TypedGraph(2 nodes, 0 edges over 'T'), "
        "nacs=(Nac(forbidden=TypedGraph(3 nodes, 1 edges over 'T')),))), "
        "match=Morphism({'x': 'a', 'y': 'b'}, {'e': 'f'}), "
        "base_prematch=PreMatch(morphism=Morphism({'x': 'a'}, {})))"
    ),
    "EffectTransformation": (
        "eor",
        "EffectTransformation(eor=EffectOrientedRule(base=Rule(lhs=TypedGraph(1 nodes, "
        "0 edges over 'T'), interface=TypedGraph(1 nodes, 0 edges over 'T'), "
        "rhs=TypedGraph(1 nodes, 0 edges over 'T'), nacs=()), "
        "maximal=Rule(lhs=TypedGraph(1 nodes, 0 edges over 'T'), "
        "interface=TypedGraph(1 nodes, 0 edges over 'T'), "
        "rhs=TypedGraph(2 nodes, 0 edges over 'T'), nacs=())), "
        "strategy='locally_complete', "
        "result=TransformationRecord(rule=Rule(lhs=TypedGraph(2 nodes, "
        "1 edges over 'T'), interface=TypedGraph(1 nodes, 0 edges over 'T'), "
        "rhs=TypedGraph(2 nodes, 0 edges over 'T'), "
        "nacs=(Nac(forbidden=TypedGraph(3 nodes, 1 edges over 'T')),)), "
        "input=TypedGraph(2 nodes, 1 edges over 'T'), "
        "output=TypedGraph(2 nodes, 0 edges over 'T'), "
        "match=Morphism({'x': 'a', 'y': 'b'}, {'e': 'f'}), "
        "comatch=Morphism({'x': 'a', 'n': 'n#1'}, {}), "
        "deleted=ElementSet(nodes=frozenset({'b'}), edges=frozenset({'f'})), "
        "created=ElementSet(nodes=frozenset({'n#1'}), edges=frozenset())), "
        "selection=InducedSelection(del_extra=ElementSet(nodes=frozenset(), "
        "edges=frozenset()), "
        "preserve_extra=ElementSet(nodes=frozenset({'n'}), "
        "edges=frozenset())), "
        "base_prematch=PreMatch(morphism=Morphism({'x': 'a'}, {})))"
    ),
    "AuditEntry": (
        "kind",
        "AuditEntry(kind='deletion', element='y', clause='acted', "
        "witness=(('x', 'a'),))"
    ),
    "AuditReport": (
        "entries",
        "AuditReport(entries=(AuditEntry(kind='deletion', element='y', "
        "clause='acted', witness=(('x', 'a'),)),))"
    ),
    "TraceData": (
        "rule",
        "TraceData(rule='r', strategy='locally_complete', "
        "selection_delete=('y',), selection_preserve=(), "
        "base_match=({'x': 'a'}, {}), match=({'x': 'a'}, {}), "
        "comatch=({'x': 'a'}, {}))"
    ),
}
HASHABLE = ["Diagnostic", "Edge", "EdgeType", "ElementSet", "InducedSelection", "AuditEntry"]


def test_the_contract_covers_every_value_type():
    assert list(build()) == list(CONTRACT)


@pytest.mark.parametrize("name", CONTRACT)
def test_a_value_prints_as_before(name):
    assert repr(build()[name]) == CONTRACT[name][1]


@pytest.mark.parametrize("name", CONTRACT)
def test_values_built_apart_are_equal_and_one_field_tells_them_apart(name):
    a, b, other = build()[name], build()[name], build(name)[name]
    assert a == b and not a != b
    assert a != other and not a == other
    if name in HASHABLE:
        assert hash(a) == hash(b) and len({a, b, other}) == 2


@pytest.mark.parametrize("name", CONTRACT)
def test_a_value_refuses_assignment_and_deletion(name):
    value, field = build()[name], CONTRACT[name][0]
    kept = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    if name != "TypedGraph":  # a graph refuses assignment only
        with pytest.raises(AttributeError):
            delattr(value, field)
    assert getattr(value, field) is kept


@pytest.mark.parametrize("name", CONTRACT)
def test_a_value_survives_pickling_and_deep_copying(name):
    value = build()[name]
    for copied in pickle.loads(pickle.dumps(value)), copy.deepcopy(value):
        assert copied == value and type(copied) is type(value)


def test_morphism_maps_are_read_only_copies():
    nodes, edges = {"x": "a", "y": "b"}, {"e": "f"}
    lhs = graph("xy", {"e": Edge("aa", "x", "y")})
    host = graph("ab", {"f": Edge("aa", "a", "b")})
    m = Morphism(lhs, host, nodes, edges)
    nodes["x"], edges["e"] = "b", "g"
    assert m.node_map == {"x": "a", "y": "b"} and m.edge_map == {"e": "f"}
    with pytest.raises(TypeError):
        m.node_map["x"] = "b"
    with pytest.raises(TypeError):
        m.edge_map["e"] = "g"
