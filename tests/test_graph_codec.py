"""The graph codec against its reference implementations, and every decoder
under seeded mutation.

``encode_graph`` writes canonical text directly and ``decode_graph`` checks
a document in one pass; ``reference_encode_graph`` and
``reference_decode_graph`` in ``oracles`` are the straightforward versions
they replace.  The encoder must produce the same bytes and the decoder the
same graph or the same error, fault for fault.
"""

from __future__ import annotations

import copy
import json
import random
from collections import Counter

from effectgraph import (
    Edge,
    EdgeType,
    EffectGraphError,
    ParseError,
    TypeGraph,
    TypedGraph,
    ValidationError,
    audit_effect,
    decode_audit_report,
    decode_graph,
    decode_match,
    decode_rule,
    decode_trace,
    decode_type_graph,
    encode_audit_report,
    encode_graph,
    encode_trace,
    prematch_from_maps,
    transform,
)
from effectgraph import fixtures
from effectgraph.fixtures import (
    bank_graph,
    banking_type_graph,
    builtin_type_graphs,
    ensure_account_rule,
    fixture_text,
)

from gen import empty_graph, random_graph, random_type_graph
from oracles import reference_decode_graph, reference_encode_graph

# Characters that need escaping in JSON text, or that are not ASCII.
AWKWARD = ['"', "\\", "\x00", "\x1f", "\n", "\t", "\x7f", "é", "日本", "😀", " ", "/"]


def _awkward_name(rng: random.Random, taken: set[str]) -> str:
    while True:
        name = "".join(
            rng.choice(AWKWARD + ["a", "b", " "]) for _ in range(rng.randint(1, 5))
        )
        if name not in taken:
            taken.add(name)
            return name


def awkward_graph(rng: random.Random) -> TypedGraph:
    """A valid graph whose type graph, types and ids are all awkward strings."""
    names: set[str] = set()
    node_types = [_awkward_name(rng, names) for _ in range(rng.randint(1, 3))]
    edge_types = {
        _awkward_name(rng, names): EdgeType(rng.choice(node_types), rng.choice(node_types))
        for _ in range(rng.randint(1, 3))
    }
    tg = TypeGraph(_awkward_name(rng, names), frozenset(node_types), edge_types)
    ids: set[str] = set()
    nodes = {_awkward_name(rng, ids): rng.choice(node_types) for _ in range(rng.randint(1, 8))}
    edges = {}
    for _ in range(rng.randint(0, 10)):
        name = rng.choice(sorted(edge_types))
        et = edge_types[name]
        srcs = [n for n, t in nodes.items() if t == et.source]
        tgts = [n for n, t in nodes.items() if t == et.target]
        if srcs and tgts:
            edges[_awkward_name(rng, ids)] = Edge(name, rng.choice(srcs), rng.choice(tgts))
    return TypedGraph(tg, nodes, edges)


def inline_bank(n: int, seed: int = 0) -> TypedGraph:
    """A bank owning ``n`` clients, each with up to two accounts, half of them
    backed by a portfolio."""
    rng = random.Random(seed)
    nodes = {"b": "Bank"}
    edges = {}
    for i in range(n):
        c = f"c{i}"
        nodes[c] = "Client"
        edges[f"owns_client_b_{c}"] = Edge("owns_client", "b", c)
        for j in range(rng.randint(0, 2)):
            a = f"a{i}_{j}"
            nodes[a] = "Account"
            edges[f"accounts_{c}_{a}"] = Edge("accounts", c, a)
            edges[f"owns_account_b_{a}"] = Edge("owns_account", "b", a)
            if rng.random() < 0.5:
                p = f"p{i}_{j}"
                nodes[p] = "Portfolio"
                edges[f"portfolio_{a}_{p}"] = Edge("portfolio", a, p)
                edges[f"portfolios_{c}_{p}"] = Edge("portfolios", c, p)
                edges[f"owns_portfolio_b_{p}"] = Edge("owns_portfolio", "b", p)
    return TypedGraph(banking_type_graph(), nodes, edges)


# ---------------------------------------------------------------------------
# the encoder


def test_encoder_is_byte_identical_on_awkward_strings():
    rng = random.Random(6061)
    for _ in range(300):
        g = awkward_graph(rng)
        text = encode_graph(g)
        assert text == reference_encode_graph(g)
        again = decode_graph(text, {g.type_graph.name: g.type_graph})
        assert again.nodes == g.nodes and again.edges == g.edges


def test_encoder_is_byte_identical_on_empty_element_lists():
    tg = banking_type_graph()
    for g in (
        empty_graph(tg),
        TypedGraph(tg, {"c1": "Client", "a1": "Account"}, {}),
        TypedGraph(tg, {"c1": "Client", "a1": "Account"}, {"e": Edge("accounts", "c1", "a1")}),
    ):
        assert encode_graph(g) == reference_encode_graph(g)


def test_encoder_is_byte_identical_on_a_thousand_client_bank():
    g = inline_bank(1000)
    text = encode_graph(g)
    assert text == reference_encode_graph(g)
    types = builtin_type_graphs()
    again = decode_graph(text, types)
    assert again.nodes == g.nodes and again.edges == g.edges
    ref = reference_decode_graph(text, types)
    assert again.nodes == ref.nodes and again.edges == ref.edges


# ---------------------------------------------------------------------------
# mutations

JUNK = (None, True, False, 0, 7, -2.5, "", "x", [], {}, [1, "a"], {"id": "n"})


def _slots(value, out: list) -> list:
    """Every (container, key) pair below ``value``, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, child in list(items):
        out.append((value, key))
        if isinstance(child, (dict, list)):
            _slots(child, out)
    return out


def _strings(value, out: set) -> set:
    if isinstance(value, str):
        out.add(value)
    elif isinstance(value, (dict, list)):
        for child in value.values() if isinstance(value, dict) else value:
            _strings(child, out)
    return out


def _mutate_once(rng: random.Random, doc: dict) -> None:
    """Apply one seeded fault to ``doc`` in place."""
    slots = _slots(doc, [])
    container, key = rng.choice(slots)
    op = rng.randrange(5)
    if op == 0:
        container[key] = copy.deepcopy(rng.choice(JUNK))
    elif op == 1:
        del container[key]
    elif op == 2:
        # Another string of the document, or a foreign one: duplicate ids,
        # dangling endpoints, unknown and mismatched types.
        pool = sorted(_strings(doc, set())) + ["ghost", "Ghost"]
        container[key] = rng.choice(pool)
    elif op == 3 and isinstance(container, list):
        container.insert(rng.randrange(len(container) + 1), copy.deepcopy(container[key]))
    else:
        lists = [c[k] for c, k in slots if isinstance(c[k], list)] or [[]]
        target = rng.choice(lists)
        target.insert(rng.randrange(len(target) + 1), copy.deepcopy(rng.choice(JUNK)))


def mutations(rng: random.Random, doc: dict, count: int):
    """``count`` seeded mutants of ``doc``, each with one to three faults, as
    JSON text; an occasional one is cut short."""
    for _ in range(count):
        mutant = copy.deepcopy(doc)
        faults = rng.choice((1, 1, 2, 3))
        for _ in range(faults):
            if mutant:
                _mutate_once(rng, mutant)
        text = json.dumps(mutant)
        if rng.random() < 0.03:
            text = text[: rng.randrange(len(text))]
        yield faults, text


def _graph_documents(rng: random.Random) -> list[tuple[dict, dict]]:
    """Valid graph documents with the registries that type them."""
    types = builtin_type_graphs()
    docs = [
        (json.loads(fixture_text(name)), types)
        for name in (fixtures.BANK_GRAPH_FILE, fixtures.SHARED_ACCOUNTS_GRAPH_FILE)
    ]
    docs.append((json.loads(encode_graph(inline_bank(6, seed=3))), types))
    for _ in range(12):
        tg = random_type_graph(rng)
        g = random_graph(rng, tg, max_nodes=6, max_edges=8)
        docs.append((json.loads(encode_graph(g)), {tg.name: tg, **types}))
    return docs


FAULTS = ("duplicate id", "endpoint is not a declared node")


def _outcome(decode, text: str, types) -> tuple:
    try:
        g = decode(text, types)
    except Exception as exc:  # compared, class included, with the reference's
        codes = tuple(d.code for d in getattr(exc, "diagnostics", ()))
        return type(exc), str(exc), codes
    return g.type_graph, dict(g.nodes), dict(g.edges)


def test_decoder_matches_the_reference_on_mutated_documents():
    rng = random.Random(6062)
    seen: Counter = Counter()
    total = 0
    for doc, types in _graph_documents(rng):
        for faults, text in mutations(rng, doc, 90):
            got = _outcome(decode_graph, text, types)
            assert got == _outcome(reference_decode_graph, text, types), text
            total += 1
            if not isinstance(got[0], type):
                seen["decoded"] += 1
                continue
            cls, message, codes = got
            seen[cls.__name__] += 1
            seen.update(codes)
            seen.update(w for w in FAULTS if w in message)
            seen["several faults"] += faults > 1
    assert total >= 1000
    for what in (
        "decoded",
        "ParseError",
        "ValidationError",
        "several faults",
        *FAULTS,
        "unknown-node-type",
        "unknown-edge-type",
        "endpoint-type-mismatch",
    ):
        assert seen[what] > 0, what


def test_decoder_reports_structure_then_endpoints_then_typing():
    types = builtin_type_graphs()

    def doc(nodes, edges):
        return json.dumps(
            {"kind": "graph", "type_graph": "banking", "nodes": nodes, "edges": edges}
        )

    client = {"id": "c1", "type": "Client"}
    ghost_type = {"id": "g1", "type": "Ghost"}
    dangling = {"id": "e1", "type": "accounts", "src": "c1", "tgt": "nowhere"}
    mistyped = {"id": "e2", "type": "accounts", "src": "c1", "tgt": "c1"}
    unnamed = {"id": "", "type": "accounts", "src": "c1", "tgt": "c1"}
    cases = [
        (doc([client, ghost_type], [dangling, unnamed]), ParseError, "'id' must be"),
        (doc([client, ghost_type], [mistyped, dangling]), ParseError, "endpoint"),
        (doc([ghost_type, client], [mistyped]), ValidationError, "unknown-node-type"),
    ]
    for text, cls, words in cases:
        for decode in (decode_graph, reference_decode_graph):
            try:
                decode(text, types)
            except cls as exc:
                assert words in str(exc)
            else:
                raise AssertionError(f"{decode.__name__} accepted {text}")


def test_decoder_matches_the_reference_on_whole_set_corner_cases():
    """Documents that the whole-set checks must refuse, which the seeded
    mutations reach only by chance: each is decoded in order, fault for
    fault as the reference does."""
    blank = TypeGraph(
        "blank", frozenset({"", "N"}), {"": EdgeType("N", "N"), "e": EdgeType("N", "N")}
    )
    types = {"blank": blank, **builtin_type_graphs()}
    n1, n2 = {"id": "n1", "type": "N"}, {"id": "n2", "type": "N"}

    def doc(nodes, edges=()):
        graph = {"kind": "graph", "type_graph": "blank", "nodes": nodes, "edges": edges}
        return json.dumps(graph)

    def edge(xid="x", etype="e", tgt="n2"):
        return {"id": xid, "type": etype, "src": "n1", "tgt": tgt}

    odd_ids = (0, True, 1.5, [1])
    cases = [
        (doc([n1, n2], [edge()]), None),
        (doc([n1, {"id": "n3", "type": ""}]), "node n3: 'type' must be"),
        (doc([n1, n2], [edge(etype="")]), "edge x: 'type' must be"),
        *((doc([n1, {"id": odd, "type": "N"}]), "node: 'id' must be") for odd in odd_ids),
        *((doc([n1, n2], [edge(xid=odd)]), "edge: 'id' must be") for odd in odd_ids),
        (doc([n1, n2], [edge(xid="n2")]), "duplicate id (at 'n2')"),
        (doc([n1, n2], [edge(), edge()]), "duplicate id (at 'x')"),
        (doc([n1, n2], [edge(tgt=5)]), "edge x: 'tgt' must be"),
        (doc([n1, ["id", "n2", "type", "N"]]), "a node entry must be an object"),
        (doc([n1, "n2"]), "a node entry must be an object"),
    ]
    for text, words in cases:
        got = _outcome(decode_graph, text, types)
        assert got == _outcome(reference_decode_graph, text, types), text
        if words is None:
            assert got[0] is blank, got
        else:
            assert got[0] is ParseError and words in got[1], got


# ---------------------------------------------------------------------------
# every decoder


def test_every_decoder_raises_only_effect_graph_errors():
    types = builtin_type_graphs()
    eor = ensure_account_rule()
    host = bank_graph()
    pm = prematch_from_maps(eor, host, {"c": "c1"}, {})
    t = transform(eor, host, "locally_complete", pm)
    texts = [fixture_text(name) for name in fixtures.ALL_FILES]
    texts += [encode_trace(t, "ensure_account"), encode_audit_report(audit_effect(t))]
    decoders = (
        decode_type_graph,
        decode_match,
        decode_trace,
        decode_audit_report,
        lambda text: decode_graph(text, types),
        lambda text: decode_rule(text, types),
    )
    rng = random.Random(6063)
    outcomes: Counter = Counter()
    for text in texts:
        for _, mutant in mutations(rng, json.loads(text), 300):
            for decode in decoders:
                try:
                    decode(mutant)
                except EffectGraphError as exc:
                    outcomes[type(exc).__name__] += 1
                else:
                    outcomes["decoded"] += 1
    assert outcomes["ParseError"] and outcomes["ValidationError"] and outcomes["decoded"]
