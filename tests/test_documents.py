"""Canonical text formats: byte-stable round trips and strict parsing."""

from __future__ import annotations

import json

import pytest

from effectgraph import (
    Edge,
    EffectOrientedRule,
    Morphism,
    Nac,
    ParseError,
    Rule,
    TypedGraph,
    ValidationError,
    audit_effect,
    canonical_text,
    decode_audit_report,
    decode_graph,
    decode_match,
    decode_rule,
    decode_trace,
    decode_type_graph,
    encode_audit_report,
    encode_graph,
    encode_match,
    encode_rule,
    encode_trace,
    encode_type_graph,
    prematch_from_maps,
    rebuild_transformation,
    transform,
)
from effectgraph import fixtures
from effectgraph.fixtures import (
    bank_graph,
    banking_type_graph,
    builtin_type_graphs,
    client_match,
    ensure_account_rule,
    fixture_text,
)


def test_canonical_text_layout():
    assert canonical_text({"b": 1, "a": [1, 2]}) == (
        '{\n  "a": [\n    1,\n    2\n  ],\n  "b": 1\n}\n'
    )


@pytest.mark.parametrize("name", fixtures.ALL_FILES)
def test_fixture_files_round_trip_byte_identically(name):
    text = fixture_text(name)
    types = builtin_type_graphs()
    kind = json.loads(text)["kind"]
    if kind == "type_graph":
        encoded = encode_type_graph(decode_type_graph(text))
    elif kind == "graph":
        encoded = encode_graph(decode_graph(text, types))
    elif kind == "rule":
        encoded = encode_rule(*decode_rule(text, types))
    else:
        assert kind == "match"
        encoded = encode_match(*decode_match(text))
    assert encoded == text


def test_rule_names_round_trip():
    types = builtin_type_graphs()
    assert decode_rule(fixture_text(fixtures.ENSURE_ACCOUNT_FILE), types)[0] == (
        "ensure_account"
    )
    assert decode_rule(fixture_text(fixtures.ENSURE_NO_ACCOUNT_FILE), types)[0] == (
        "ensure_no_account"
    )


def test_match_fixture_contents():
    assert client_match("c1") == ({"c": "c1"}, {})
    assert client_match("c2") == ({"c": "c2"}, {})


def test_graph_round_trip_on_constructed_value():
    tg = banking_type_graph()
    g = TypedGraph(
        tg,
        {"z-9": "Client", "a b": "Account"},
        {"e/1": Edge("accounts", "z-9", "a b")},
    )
    again = decode_graph(encode_graph(g), {tg.name: tg})
    assert dict(again.nodes) == dict(g.nodes)
    assert dict(again.edges) == dict(g.edges)


def test_parse_errors_are_specific():
    types = builtin_type_graphs()
    with pytest.raises(ParseError, match="not valid JSON"):
        decode_graph("{nope", types)
    with pytest.raises(ParseError, match="top level must be an object"):
        decode_graph("[1, 2]", types)
    with pytest.raises(ParseError, match="expected a 'graph' document"):
        decode_graph(fixture_text(fixtures.TYPE_GRAPH_FILE), types)
    with pytest.raises(ParseError, match="unknown type graph 'lost'"):
        decode_graph(
            canonical_text(
                {"kind": "graph", "type_graph": "lost", "nodes": [], "edges": []}
            ),
            types,
        )


def _graph_doc(nodes, edges):
    return canonical_text(
        {"kind": "graph", "type_graph": "banking", "nodes": nodes, "edges": edges}
    )


def test_graph_decoder_rejects_duplicate_and_dangling_ids():
    types = builtin_type_graphs()
    dup = _graph_doc(
        [{"id": "c1", "type": "Client"}, {"id": "c1", "type": "Client"}], []
    )
    with pytest.raises(ParseError, match="duplicate id \\(at 'c1'\\)"):
        decode_graph(dup, types)
    shadow = _graph_doc(
        [{"id": "c1", "type": "Client"}, {"id": "a1", "type": "Account"}],
        [{"id": "c1", "type": "accounts", "src": "c1", "tgt": "a1"}],
    )
    with pytest.raises(ParseError, match="duplicate id \\(at 'c1'\\)"):
        decode_graph(shadow, types)
    dangling = _graph_doc(
        [{"id": "c1", "type": "Client"}],
        [{"id": "e1", "type": "accounts", "src": "c1", "tgt": "ghost"}],
    )
    with pytest.raises(ParseError, match="endpoint is not a declared node"):
        decode_graph(dangling, types)


def test_graph_decoder_reports_type_problems_as_validation():
    types = builtin_type_graphs()
    doc = _graph_doc([{"id": "g1", "type": "Ghost"}], [])
    with pytest.raises(ValidationError) as err:
        decode_graph(doc, types)
    assert any(d.code == "unknown-node-type" for d in err.value.diagnostics)


def _rule_doc(elements, nacs=()):
    return canonical_text(
        {
            "kind": "rule",
            "name": "probe",
            "type_graph": "banking",
            "elements": elements,
            "nacs": list(nacs),
        }
    )


def test_rule_decoder_rejects_bad_tags():
    types = builtin_type_graphs()
    with pytest.raises(ParseError, match="unknown action tag 'keep'"):
        decode_rule(_rule_doc([{"id": "c", "type": "Client", "action": "keep"}]), types)
    with pytest.raises(ParseError, match="duplicate id"):
        decode_rule(
            _rule_doc(
                [
                    {"id": "c", "type": "Client", "action": "preserve"},
                    {"id": "c", "type": "Client", "action": "delete"},
                ]
            ),
            types,
        )
    with pytest.raises(ParseError, match="endpoint is not a declared node"):
        decode_rule(
            _rule_doc(
                [
                    {"id": "c", "type": "Client", "action": "preserve"},
                    {
                        "id": "e",
                        "type": "accounts",
                        "src": "c",
                        "tgt": "a",
                        "action": "delete",
                    },
                ]
            ),
            types,
        )


def test_rule_decoder_enforces_endpoint_action_compatibility():
    types = builtin_type_graphs()
    # A potential creation may not hang off a mandatory creation: leaving
    # the edge unselected would orphan it.
    bad = _rule_doc(
        [
            {"id": "c", "type": "Client", "action": "preserve"},
            {"id": "a", "type": "Account", "action": "create"},
            {
                "id": "e",
                "type": "accounts",
                "src": "c",
                "tgt": "a",
                "action": "create_potential",
            },
        ]
    )
    with pytest.raises(ValidationError) as err:
        decode_rule(bad, types)
    assert any(d.code == "inconsistent-tags" for d in err.value.diagnostics)

    ok = _rule_doc(
        [
            {"id": "c", "type": "Client", "action": "preserve"},
            {"id": "a", "type": "Account", "action": "create"},
            {
                "id": "e",
                "type": "accounts",
                "src": "c",
                "tgt": "a",
                "action": "create",
            },
        ]
    )
    name, eor = decode_rule(ok, types)
    assert name == "probe"
    assert set(eor.base.rhs.edges) == {"e"}


def test_rule_nacs_round_trip_and_shift():
    tg = banking_type_graph()
    doc = _rule_doc(
        [
            {"id": "a", "type": "Account", "action": "create_potential"},
            {"id": "c", "type": "Client", "action": "preserve"},
            {
                "id": "ea",
                "type": "accounts",
                "src": "c",
                "tgt": "a",
                "action": "create_potential",
            },
        ],
        nacs=[
            {
                "elements": [
                    {"id": "he", "type": "accounts", "src": "c", "tgt": "held"},
                    {"id": "held", "type": "Account"},
                ]
            }
        ],
    )
    name, eor = decode_rule(doc, {tg.name: tg})
    assert len(eor.base.nacs) == 1
    forbidden = eor.base.nacs[0].forbidden
    assert set(forbidden.nodes) == {"c", "held"}
    assert set(forbidden.edges) == {"he"}
    # The maximal side carries the shifted conditions and the text format
    # reproduces the whole package byte for byte.
    assert len(eor.maximal.nacs) >= 1
    assert encode_rule(name, eor) == doc


def test_prematch_edge_inference():
    tg = banking_type_graph()
    interface = TypedGraph(tg, {"c": "Client"}, {})
    lhs = interface.with_elements(
        nodes={"a": "Account"}, edges={"ea": Edge("accounts", "c", "a")}
    )
    base = Rule(lhs, interface, interface)
    eor = EffectOrientedRule(base, base)
    host = bank_graph()
    pm = prematch_from_maps(eor, host, {"c": "c1", "a": "a1"}, {})
    assert pm.morphism.edge_map == {"ea": "accounts_c1_a1"}

    doubled = host.with_elements(edges={"dup": Edge("accounts", "c1", "a1")})
    with pytest.raises(ValidationError, match="no unique host image"):
        prematch_from_maps(eor, doubled, {"c": "c1", "a": "a1"}, {})
    with pytest.raises(ValidationError, match="not a valid injection"):
        prematch_from_maps(
            eor, host, {"c": "c1", "a": "a2"}, {"ea": "portfolio_a2_p"}
        )
    # With a base NAC a bad map is reported the same way: the NAC search
    # runs once, on a valid injection.
    second = lhs.with_elements(
        nodes={"b": "Account"}, edges={"eb": Edge("accounts", "c", "b")}
    )
    guarded = Rule(lhs, interface, interface, (Nac(second),))
    guarded_eor = EffectOrientedRule(guarded, guarded)
    with pytest.raises(ValidationError, match="type-not-preserved"):
        prematch_from_maps(
            guarded_eor, host, {"c": "a1", "a": "a2"}, {"ea": "accounts_c1_a1"}
        )


def _provision_at_c2():
    eor = ensure_account_rule()
    host = bank_graph()
    pm = prematch_from_maps(eor, host, *client_match("c2"))
    return eor, host, transform(eor, host, "locally_maximal", pm)


def test_trace_round_trip_and_replay():
    eor, host, t = _provision_at_c2()
    text = encode_trace(t, "ensure_account")
    trace = decode_trace(text)
    assert trace.rule == "ensure_account"
    assert trace.strategy == "locally_maximal"
    assert set(trace.selection_preserve) == {"a", "p", "portfolio_a_p"}
    assert trace.selection_delete == ()
    assert trace.base_match == ({"c": "c2"}, {})

    rebuilt = rebuild_transformation(eor, host, trace, output=t.result.output)
    assert dict(rebuilt.result.output.edges) == dict(t.result.output.edges)
    assert rebuilt.selection == t.selection
    audit_effect(rebuilt)
    # And the re-encoded replay is the original document.
    assert encode_trace(rebuilt, "ensure_account") == text


def test_trace_decoder_rejects_malformed_documents():
    eor, host, t = _provision_at_c2()
    doc = json.loads(encode_trace(t, "ensure_account"))
    bad = dict(doc, strategy="sideways")
    with pytest.raises(ParseError, match="unknown strategy"):
        decode_trace(canonical_text(bad))
    bad = dict(doc, selection={"delete": "a", "preserve": []})
    with pytest.raises(ParseError, match="selection.delete must be a list"):
        decode_trace(canonical_text(bad))


def test_replay_cross_checks_the_recorded_facts():
    eor, host, t = _provision_at_c2()
    doc = json.loads(encode_trace(t, "ensure_account"))

    tampered = dict(doc)
    tampered["comatch"] = {
        "nodes": dict(doc["comatch"]["nodes"], a="a1"),
        "edges": doc["comatch"]["edges"],
    }
    with pytest.raises(ValidationError, match="comatch does not match"):
        rebuild_transformation(eor, host, decode_trace(canonical_text(tampered)))

    with pytest.raises(ValidationError, match="output graph does not match"):
        rebuild_transformation(
            eor, host, decode_trace(canonical_text(doc)), output=host
        )

    alien = dict(doc)
    alien["selection"] = {"delete": [], "preserve": ["a", "p", "warp"]}
    with pytest.raises(ValidationError, match="not a rule element"):
        rebuild_transformation(eor, host, decode_trace(canonical_text(alien)))

    unclosed = dict(doc)
    unclosed["selection"] = {"delete": [], "preserve": ["portfolio_a_p"]}
    with pytest.raises(ValidationError):
        rebuild_transformation(eor, host, decode_trace(canonical_text(unclosed)))


def test_audit_report_round_trip():
    eor, host, t = _provision_at_c2()
    report = audit_effect(t)
    assert decode_audit_report(encode_audit_report(report)) == report

    # Short pairs and pairs with a member that is not a string.
    for witness in ([["a"]], [[1, {}]], [["a", 1]], [[["a"], "x"]]):
        with pytest.raises(ParseError, match="witness must be a list of pairs"):
            decode_audit_report(
                canonical_text(
                    {
                        "kind": "audit_report",
                        "entries": [
                            {
                                "kind": "creation",
                                "element": "a",
                                "clause": "alternative-action",
                                "witness": witness,
                            }
                        ],
                    }
                )
            )


def test_audit_report_round_trip_with_witness_pairs():
    report = decode_audit_report(
        canonical_text(
            {
                "kind": "audit_report",
                "entries": [
                    {
                        "kind": "deletion",
                        "element": "a_d",
                        "clause": "alternative-creation",
                        "witness": [["a_d", "x"]],
                    }
                ],
            }
        )
    )
    assert report.entries[0].witness == (("a_d", "x"),)
    assert decode_audit_report(encode_audit_report(report)) == report


def test_type_graph_decoder_reports_bad_endpoints():
    doc = canonical_text(
        {
            "kind": "type_graph",
            "name": "broken",
            "node_types": ["A"],
            "edge_types": {"e": {"source": "A", "target": "Missing"}},
        }
    )
    with pytest.raises(ValidationError):
        decode_type_graph(doc)
