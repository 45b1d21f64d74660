"""Canonical text formats: byte-stable round trips and strict parsing."""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from effectgraph import (
    Edge,
    EffectGraphError,
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
    validate_graph,
)
from effectgraph import fixtures
from effectgraph.documents import ACTIONS
from effectgraph.fixtures import (
    bank_graph,
    banking_type_graph,
    builtin_type_graphs,
    client_match,
    ensure_account_rule,
    ensure_no_account_rule,
    fixture_text,
    shared_accounts_graph,
)

from gen import random_effect_rule, random_type_graph
from oracles import validate_effect_rule, validate_rule, with_elements


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


def _mutated_rule_docs(count):
    """``count`` seeded rule documents, each with one to three fields changed
    at random: an action tag, a type (possibly undeclared) or an edge end
    (possibly undeclared).  Every third is a fixture rule, given a NAC block
    half the time; the rest are random rules, most with NAC blocks."""
    files = (fixtures.ENSURE_ACCOUNT_FILE, fixtures.ENSURE_NO_ACCOUNT_FILE)
    held = [
        {"id": "x", "type": "Account"},
        {"id": "held", "type": "accounts", "src": "c", "tgt": "x"},
    ]
    for seed in range(count):
        rng = random.Random(seed)
        if seed % 3:
            tg = random_type_graph(rng)
            doc = json.loads(encode_rule("r", random_effect_rule(rng, tg, nac_chance=0.8)))
        else:
            tg = banking_type_graph()
            doc = json.loads(fixture_text(rng.choice(files)))
            if rng.random() < 0.5:
                doc["nacs"] = [{"elements": [dict(x) for x in held]}]
        entries = [*doc["elements"], *(x for nac in doc["nacs"] for x in nac["elements"])]
        node_ids = [x["id"] for x in entries if "src" not in x]
        for _ in range(rng.randint(1, 3) if entries else 0):
            entry = rng.choice(entries)
            field = rng.choice(("action", "type", "src", "tgt"))
            if field == "type":
                names = sorted(tg.edge_types if "src" in entry else tg.node_types)
                entry["type"] = rng.choice([*names, "Ghost"])
            elif field == "action" and "action" in entry:
                entry["action"] = rng.choice(ACTIONS)
            elif field in entry:
                entry[field] = rng.choice([*node_ids, "nowhere"])
        yield doc, {tg.name: tg}


def test_rule_decoder_validates_each_graph_once():
    """Every rule that decoding accepts has valid graphs: the interface,
    both base sides, both maximal sides and each base NAC, on seeded
    documents with faults and retaggings.  The maximal NACs are the base
    NACs shifted along an inclusion, valid by construction.  An invalid
    graph still raises the diagnostics of :func:`validate_graph` on it."""
    outcomes = {"accepted": 0, "with NACs": 0, "ParseError": 0, "ValidationError": 0}
    for doc, types in _mutated_rule_docs(1200):
        try:
            _, eor = decode_rule(doc, types)
        except (ParseError, ValidationError) as exc:
            outcomes[type(exc).__name__] += 1
            continue
        outcomes["accepted"] += 1
        base, maximal = eor.base, eor.maximal
        nacs = [nac.forbidden for nac in base.nacs]
        outcomes["with NACs"] += bool(nacs)
        for g in (base.lhs, base.interface, base.rhs, maximal.lhs, maximal.rhs, *nacs):
            assert validate_graph(g, g.type_graph) == []
    assert min(outcomes.values()) >= 60, outcomes

    types = builtin_type_graphs()
    client = {"id": "c", "type": "Client", "action": "preserve"}
    held = [
        {"id": "x", "type": "Account"},
        {"id": "held", "type": "accounts", "src": "c", "tgt": "x"},
    ]
    account = {"id": "a", "type": "Account", "action": "delete_potential"}
    _, eor = decode_rule(_rule_doc([client, account], [{"elements": held}]), types)
    assert [sorted(nac.forbidden.nodes) for nac in eor.base.nacs] == [["c", "x"]]
    for nac in (*eor.base.nacs, *eor.maximal.nacs):
        assert validate_graph(nac.forbidden, nac.forbidden.type_graph) == []

    ghost = {"id": "g", "type": "Ghost", "action": "create_potential"}
    with pytest.raises(ValidationError) as err:
        decode_rule(_rule_doc([client, ghost]), types)
    assert [str(d) for d in err.value.diagnostics] == [
        "unknown-node-type [g]: node type 'Ghost' not declared"
    ]


def test_decoded_rules_need_no_second_validation():
    """``decode_rule`` validates each graph and the endpoint tags, and
    nothing after it builds the rule: every other check of
    :func:`validate_effect_rule` holds by construction.  Random rules with
    some elements retagged at random stand for the documents it accepts."""
    accepted = retagged = 0
    for seed in range(500):
        rng = random.Random(seed)
        tg = random_type_graph(rng)
        doc = json.loads(encode_rule("r", random_effect_rule(rng, tg)))
        elements = doc["elements"]
        changed = False
        for entry in rng.sample(elements, min(len(elements), rng.randint(1, 3))):
            action = rng.choice(ACTIONS)
            changed |= action != entry["action"]
            entry["action"] = action
        try:
            _, eor = decode_rule(doc, {tg.name: tg})
        except EffectGraphError:
            continue
        assert validate_effect_rule(eor) == []
        accepted += 1
        retagged += changed
    assert accepted > 200 and retagged > 150


def test_rule_decoder_enforces_endpoint_action_compatibility():
    """Of the 25 pairs of edge and endpoint tags, the decoder accepts those
    where the endpoint is preserved or has the edge's own tag, and reports
    every other as ``inconsistent-tags``: a potential creation may not hang
    off a mandatory creation, since leaving the edge unselected would
    orphan it."""
    types = builtin_type_graphs()
    accepted = {}
    for edge_action in ACTIONS:
        for node_action in ACTIONS:
            doc = _rule_doc(
                [
                    {"id": "c", "type": "Client", "action": "preserve"},
                    {"id": "a", "type": "Account", "action": node_action},
                    {
                        "id": "e",
                        "type": "accounts",
                        "src": "c",
                        "tgt": "a",
                        "action": edge_action,
                    },
                ]
            )
            try:
                accepted[edge_action, node_action] = decode_rule(doc, types)
            except ValidationError as err:
                assert [str(d) for d in err.diagnostics] == [
                    f"inconsistent-tags [e]: {edge_action} edge may not use "
                    f"{node_action} node 'a'"
                ]
    assert list(accepted) == [
        (edge, node) for edge in ACTIONS for node in ACTIONS if node in ("preserve", edge)
    ]
    name, eor = accepted["create", "create"]
    assert name == "probe"
    assert set(eor.base.rhs.edges) == {"e"}


# The SHA-256 of the ``encode_rule`` texts of 500 seeded random effect
# rules, computed before the action tags were read off the graphs in the
# order of ``ACTIONS``.
RULE_TEXT_DIGEST = "71e6b4a812702ff9cd8dcd8b19767a3cc666bd207998269a627e3393a613c920"


def test_rule_text_digest_is_unchanged():
    texts = []
    for seed in range(500):
        rng = random.Random(seed)
        tg = random_type_graph(rng)
        texts.append(encode_rule("r", random_effect_rule(rng, tg)))
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == RULE_TEXT_DIGEST


@pytest.mark.parametrize(
    "rhs_nodes", [{"k": "Account", "n": "Account"}, {}], ids=["rhs-only", "neither-side"]
)
def test_a_rule_whose_interface_leaves_a_maximal_side_does_not_encode(rhs_nodes):
    """Only the maximal sides' ids are tagged, so an interface id of the rhs
    alone, or of neither side, would be lost or retagged: such a rule
    (``interface-not-included``) is refused rather than encoded as another."""
    tg = banking_type_graph()
    lhs = TypedGraph(tg, {"c": "Client"}, {})
    interface = TypedGraph(tg, {"c": "Client", "k": "Account"}, {})
    rhs = TypedGraph(tg, {"c": "Client", **rhs_nodes}, {})
    rule = Rule(lhs, interface, rhs)
    assert "interface-not-included" in [d.code for d in validate_rule(rule)]
    with pytest.raises(ValueError, match="not an id-subgraph"):
        encode_rule("r", EffectOrientedRule(rule, rule))


def test_a_rule_whose_maximal_interface_outgrows_the_base_one_does_not_encode():
    """An id of the maximal interface alone would be tagged as a potential
    deletion, and the text would decode to another rule: such a rule
    (``interface-mismatch``) is refused rather than encoded as another."""
    tg = banking_type_graph()
    c = TypedGraph(tg, {"c": "Client"}, {})
    ck = TypedGraph(tg, {"c": "Client", "k": "Account"}, {})
    eor = EffectOrientedRule(Rule(c, c, c), Rule(ck, ck, ck))
    assert "interface-mismatch" in [d.code for d in validate_effect_rule(eor)]
    with pytest.raises(ValueError, match="not an id-subgraph"):
        encode_rule("r", eor)


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
    lhs = with_elements(
        interface, nodes={"a": "Account"}, edges={"ea": Edge("accounts", "c", "a")}
    )
    base = Rule(lhs, interface, interface)
    eor = EffectOrientedRule(base, base)
    host = bank_graph()
    pm = prematch_from_maps(eor, host, {"c": "c1", "a": "a1"}, {})
    assert pm.morphism.edge_map == {"ea": "accounts_c1_a1"}
    # An edge with an unmapped end is not inferred: the fault is the node.
    with pytest.raises(ValidationError, match=r"not-total \[a\]: node has no image"):
        prematch_from_maps(eor, host, {"c": "c1"}, {})
    # Nor is one whose end maps to no host node or to a node of another type.
    with pytest.raises(ValidationError, match=r"unknown-image \[a\]: image node 'nosuch'"):
        prematch_from_maps(eor, host, {"c": "c1", "a": "nosuch"}, {})
    with pytest.raises(ValidationError, match=r"type-not-preserved \[c\]: node of type 'Client'"):
        prematch_from_maps(eor, host, {"c": "a1", "a": "a2"}, {})

    doubled = with_elements(host, edges={"dup": Edge("accounts", "c1", "a1")})
    with pytest.raises(ValidationError, match="no unique host image"):
        prematch_from_maps(eor, doubled, {"c": "c1", "a": "a1"}, {})
    with pytest.raises(ValidationError, match="not a valid injection"):
        prematch_from_maps(
            eor, host, {"c": "c1", "a": "a2"}, {"ea": "portfolio_a2_p"}
        )
    # With a base NAC a bad map is reported the same way: the NAC search
    # runs once, on a valid injection.
    second = with_elements(
        lhs, nodes={"b": "Account"}, edges={"eb": Edge("accounts", "c", "b")}
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

    # A base match that the recorded match does not extend.
    rebased = dict(doc)
    rebased["base_match"] = {"nodes": {"c": "c1"}, "edges": {}}
    with pytest.raises(ValidationError, match="does not extend the base match"):
        rebuild_transformation(eor, host, decode_trace(canonical_text(rebased)))

    alien = dict(doc)
    alien["selection"] = {"delete": [], "preserve": ["a", "p", "warp"]}
    with pytest.raises(ValidationError, match="not a rule element"):
        rebuild_transformation(eor, host, decode_trace(canonical_text(alien)))

    unclosed = dict(doc)
    unclosed["selection"] = {"delete": [], "preserve": ["portfolio_a_p"]}
    with pytest.raises(ValidationError):
        rebuild_transformation(eor, host, decode_trace(canonical_text(unclosed)))

    # A recorded match that sends the account to a node the host lacks.
    stray = dict(doc)
    stray["match"] = {
        "nodes": dict(doc["match"]["nodes"], a="ghost"),
        "edges": doc["match"]["edges"],
    }
    with pytest.raises(ValidationError, match="image node 'ghost' missing"):
        rebuild_transformation(eor, host, decode_trace(canonical_text(stray)))

    # Teardown deletes c1's exclusive account a4; replayed on a host where
    # c9 holds a4 too, the deletion would leave that edge dangling.
    teardown, shared = ensure_no_account_rule(), shared_accounts_graph()
    pm = prematch_from_maps(teardown, shared, {"c": "c1"}, {})
    t = transform(teardown, shared, "locally_complete", pm)
    assert t.result.deleted.nodes == {"a4"}
    held = with_elements(shared, edges={"accounts_c9_a4": Edge("accounts", "c9", "a4")})
    trace = decode_trace(encode_trace(t, "ensure_no_account"))
    with pytest.raises(ValidationError, match="trace is not applicable"):
        rebuild_transformation(teardown, held, trace)


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
