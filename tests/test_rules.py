"""Plain rules: validation, NACs, shifting, and rule application."""

from __future__ import annotations

import functools
import random

import pytest
from hypothesis import given, strategies as st

from effectgraph import (
    DanglingViolation,
    Diagnostic,
    Edge,
    EdgeType,
    Morphism,
    Nac,
    NacViolated,
    NotInjective,
    Rule,
    TypeGraph,
    TypedGraph,
    apply_rule,
    check_morphism,
    find_injective_extensions,
    pushout_complement,
    satisfies_nacs,
    shift_nacs,
)

from gen import empty_graph, grow, random_graph, random_plain_rule, random_type_graph
from oracles import (
    SubruleEmbedding,
    bounded_nac_sets_equivalent,
    check_subrule_embedding,
    compose,
    enumerate_typed_graphs,
    identity,
    is_isomorphic,
    is_pullback_square,
    nac_sets_equivalent,
    same_maps,
    validate_rule,
    with_elements,
)

CHAIN = TypeGraph(
    "chain",
    frozenset({"A", "B"}),
    {"ab": EdgeType("A", "B"), "bb": EdgeType("B", "B")},
)


def swap_rule() -> Rule:
    """Delete an A-node hanging off a B-node, create a fresh B-successor."""
    interface = TypedGraph(CHAIN, {"k": "B"}, {})
    lhs = with_elements(
        interface, nodes={"d": "A"}, edges={"de": Edge("ab", "d", "k")}
    )
    rhs = with_elements(
        interface, nodes={"c": "B"}, edges={"ce": Edge("bb", "k", "c")}
    )
    return Rule(lhs, interface, rhs)


def test_validate_rule_accepts_well_formed_span():
    assert not validate_rule(swap_rule())


def test_validate_rule_reports_span_violations():
    interface = TypedGraph(CHAIN, {"k": "B"}, {})
    lhs = TypedGraph(CHAIN, {"d": "A"}, {})  # interface node missing
    rhs = with_elements(interface, nodes={"d": "A"})  # reuses a deleted id
    codes = {d.code for d in validate_rule(Rule(lhs, interface, rhs))}
    assert "interface-not-included" in codes
    assert "lhs-rhs-overlap" in codes

    retyped = Rule(
        TypedGraph(CHAIN, {"k": "A"}, {}), interface, interface
    )
    assert any(
        d.code == "interface-not-included" and d.element == "k"
        for d in validate_rule(retyped)
    )


def test_validate_rule_reports_unrooted_nac():
    r = swap_rule()
    loose = Nac(TypedGraph(CHAIN, {"other": "B"}, {}))
    bad = Rule(r.lhs, r.interface, r.rhs, (loose,))
    assert any(d.code == "nac-not-rooted" for d in validate_rule(bad))


def test_validate_rule_reports_an_ill_formed_side_graph():
    r = swap_rule()
    crossed = with_elements(r.rhs, edges={"bad": Edge("ab", "k", "c")})
    assert validate_rule(Rule(r.lhs, r.interface, crossed)) == [
        Diagnostic(
            "endpoint-type-mismatch",
            "bad",
            "rhs: src node 'k' has type 'B', edge type 'ab' requires 'A'",
        )
    ]


def test_validate_rule_reports_an_ill_formed_nac_graph():
    r = swap_rule()
    odd = Nac(with_elements(r.lhs, nodes={"z": "Z"}))
    assert validate_rule(Rule(r.lhs, r.interface, r.rhs, (odd,))) == [
        Diagnostic("unknown-node-type", "z", "NAC 0: node type 'Z' not declared")
    ]


def test_validate_rule_reports_a_side_over_another_type_graph():
    r = swap_rule()
    other = TypeGraph("other", CHAIN.node_types, CHAIN.edge_types)
    rhs = TypedGraph(other, dict(r.rhs.nodes), dict(r.rhs.edges))
    assert validate_rule(Rule(r.lhs, r.interface, rhs)) == [
        Diagnostic("type-graph-mismatch", None, "rhs uses another type graph"),
        Diagnostic(
            "type-graph-mismatch", None, "rhs: graph is typed over 'other', expected 'chain'"
        ),
    ]


def host_with_two_hooks() -> TypedGraph:
    return TypedGraph(
        CHAIN,
        {"b1": "B", "a1": "A", "a2": "A"},
        {"f1": Edge("ab", "a1", "b1"), "f2": Edge("ab", "a2", "b1")},
    )


def test_apply_rule_hand_checked_result():
    r = swap_rule()
    host = host_with_two_hooks()
    m = Morphism(r.lhs, host, {"k": "b1", "d": "a1"}, {"de": "f1"})
    t = apply_rule(r, host, m)
    assert dict(t.output.nodes) == {"b1": "B", "a2": "A", "c#1": "B"}
    assert dict(t.output.edges) == {
        "f2": Edge("ab", "a2", "b1"),
        "ce#1": Edge("bb", "b1", "c#1"),
    }
    assert t.comatch.node_map == {"k": "b1", "c": "c#1"}
    assert t.comatch.edge_map == {"ce": "ce#1"}
    assert dict(t.context.nodes) == {"b1": "B", "a2": "A"}


def test_apply_rule_created_ids_skip_taken_suffixes():
    r = swap_rule()
    host = with_elements(host_with_two_hooks(), nodes={"c#1": "B", "c#2": "B"})
    m = Morphism(r.lhs, host, {"k": "b1", "d": "a1"}, {"de": "f1"})
    t = apply_rule(r, host, m)
    assert "c#3" in t.output.nodes
    assert t.comatch.node_map["c"] == "c#3"


def test_apply_rule_identity_rule_is_a_no_op():
    host = host_with_two_hooks()
    square = TypedGraph(CHAIN, {"k": "B"}, {})
    r = Rule(square, square, square)
    m = Morphism(square, host, {"k": "b1"}, {})
    t = apply_rule(r, host, m)
    assert dict(t.output.nodes) == dict(host.nodes)
    assert dict(t.output.edges) == dict(host.edges)


def test_apply_rule_rejects_dangling_deletion():
    r = swap_rule()
    host = with_elements(
        host_with_two_hooks(), nodes={"b2": "B"}, edges={"extra": Edge("ab", "a1", "b2")}
    )
    m = Morphism(r.lhs, host, {"k": "b1", "d": "a1"}, {"de": "f1"})
    with pytest.raises(DanglingViolation):
        apply_rule(r, host, m)


def test_apply_rule_rejects_bad_matches():
    r = swap_rule()
    host = host_with_two_hooks()
    with pytest.raises(ValueError, match="lhs into the host"):
        apply_rule(r, host, Morphism(r.rhs, host, {}, {}))
    partial = Morphism(r.lhs, host, {"k": "b1"}, {})
    with pytest.raises(ValueError, match="not a valid morphism"):
        apply_rule(r, host, partial)

    merge = TypedGraph(CHAIN, {"x": "A", "y": "A"}, {})
    rule = Rule(merge, empty_graph(CHAIN), empty_graph(CHAIN))
    squashed = Morphism(merge, host, {"x": "a1", "y": "a1"}, {})
    with pytest.raises(NotInjective):
        apply_rule(rule, host, squashed)

    # A hand-built span whose interface holds the created node c.
    skewed = Rule(r.lhs, r.rhs, r.rhs)
    m = Morphism(r.lhs, host, {"k": "b1", "d": "a1"}, {"de": "f1"})
    with pytest.raises(ValueError, match="not an id-subgraph"):
        apply_rule(skewed, host, m)


def test_apply_rule_rejects_nac_violation():
    r = swap_rule()
    # Forbid a second A-node attached to the same hook.
    forbidden = with_elements(
        r.lhs, nodes={"n": "A"}, edges={"ne": Edge("ab", "n", "k")}
    )
    guarded = Rule(r.lhs, r.interface, r.rhs, (Nac(forbidden),))
    host = host_with_two_hooks()
    m = Morphism(guarded.lhs, host, {"k": "b1", "d": "a1"}, {"de": "f1"})
    with pytest.raises(NacViolated):
        apply_rule(guarded, host, m)
    lonely = TypedGraph(
        CHAIN, {"b1": "B", "a1": "A"}, {"f1": Edge("ab", "a1", "b1")}
    )
    ok = apply_rule(
        guarded,
        lonely,
        Morphism(guarded.lhs, lonely, {"k": "b1", "d": "a1"}, {"de": "f1"}),
    )
    assert "c#1" in ok.output.nodes


@given(st.integers(0, 10**6))
def test_apply_rule_record_is_coherent(seed):
    rng = random.Random(seed)
    tg = random_type_graph(rng)
    r = random_plain_rule(rng, tg, nac_chance=0.0)
    host = random_graph(rng, tg, max_nodes=6, max_edges=7)
    for m in find_injective_extensions(r.lhs, host):
        try:
            t = apply_rule(r, host, m)
        except DanglingViolation:
            continue
        assert not check_morphism(t.comatch)
        context, k_to_context, context_to_input = pushout_complement(
            r.left_inclusion, t.match
        )
        assert dict(context.nodes) == dict(t.context.nodes)
        assert dict(context.edges) == dict(t.context.edges)
        context_to_output = Morphism.inclusion(context, t.output)
        assert not check_morphism(k_to_context)
        # Both squares of the derivation commute and are pullbacks.
        assert same_maps(
            compose(r.left_inclusion, t.match),
            compose(k_to_context, context_to_input),
        )
        assert same_maps(
            compose(r.right_inclusion, t.comatch),
            compose(k_to_context, context_to_output),
        )
        assert is_pullback_square(
            k_to_context, r.left_inclusion, context_to_input, t.match
        )
        assert is_pullback_square(
            k_to_context, r.right_inclusion, context_to_output, t.comatch
        )
        break


@given(st.integers(0, 10**6))
def test_apply_rule_is_reversible_up_to_isomorphism(seed):
    rng = random.Random(seed)
    tg = random_type_graph(rng)
    r = random_plain_rule(rng, tg, nac_chance=0.0)
    host = random_graph(rng, tg, max_nodes=6, max_edges=7)
    reverse = Rule(r.rhs, r.interface, r.lhs)
    for m in find_injective_extensions(r.lhs, host):
        try:
            t = apply_rule(r, host, m)
        except DanglingViolation:
            continue
        back = apply_rule(reverse, t.output, t.comatch)
        assert is_isomorphic(back.output, host)
        break


def test_satisfies_nacs_hand_case():
    r = swap_rule()
    forbidden = with_elements(
        r.lhs, nodes={"n": "A"}, edges={"ne": Edge("ab", "n", "k")}
    )
    nacs = (Nac(forbidden),)
    crowded = host_with_two_hooks()
    m = Morphism(r.lhs, crowded, {"k": "b1", "d": "a1"}, {"de": "f1"})
    assert not satisfies_nacs(m, nacs)
    lonely = TypedGraph(
        CHAIN, {"b1": "B", "a1": "A"}, {"f1": Edge("ab", "a1", "b1")}
    )
    m2 = Morphism(r.lhs, lonely, {"k": "b1", "d": "a1"}, {"de": "f1"})
    assert satisfies_nacs(m2, nacs)
    assert satisfies_nacs(m, ())


def test_shift_along_identity_is_semantically_neutral():
    r = swap_rule()
    nacs = [
        Nac(with_elements(r.lhs, nodes={"n": "A"})),
        Nac(
            with_elements(
                r.lhs, nodes={"n": "B"}, edges={"ne": Edge("bb", "k", "n")}
            )
        ),
    ]
    shifted = shift_nacs(identity(r.lhs), nacs)
    assert nac_sets_equivalent(r.lhs, nacs, list(shifted))


@given(st.integers(0, 10**6))
def test_shift_nacs_matches_composition_semantics(seed):
    """The shifted set must answer exactly like the original set does after
    composing with the root inclusion, for every injective match."""
    rng = random.Random(seed)
    tg = random_type_graph(rng)
    root = random_graph(rng, tg, max_nodes=2, max_edges=1, prefix="r")
    wide = grow(rng, root, rng.randint(0, 2), rng.randint(0, 2), "w")
    nacs = []
    for j in range(rng.randint(1, 2)):
        forbidden = grow(rng, root, rng.randint(0, 1), rng.randint(1, 2), f"x{j}_")
        if len(forbidden.nodes) + len(forbidden.edges) > len(root.nodes) + len(
            root.edges
        ):
            nacs.append(Nac(forbidden))
    inclusion = Morphism.inclusion(root, wide)
    shifted = shift_nacs(inclusion, nacs)
    host = random_graph(rng, tg, max_nodes=5, max_edges=6, prefix="h")
    for m in find_injective_extensions(wide, host):
        assert satisfies_nacs(m, shifted) == satisfies_nacs(
            compose(inclusion, m), nacs
        )


def test_shift_nacs_overlap_example():
    """Shifting over a codomain that already holds a forbidden-shaped part
    must produce both the disjoint and the overlapping variant."""
    root = TypedGraph(CHAIN, {"k": "B"}, {})
    forbidden = with_elements(
        root, nodes={"n": "A"}, edges={"ne": Edge("ab", "n", "k")}
    )
    wide = with_elements(root, nodes={"other": "A"})
    shifted = shift_nacs(Morphism.inclusion(root, wide), [Nac(forbidden)])
    assert len(shifted) == 2
    sizes = sorted(len(n.forbidden.nodes) for n in shifted)
    assert sizes == [2, 3]  # overlap with "other" vs. a fresh A-node


def _nac_shapes(nacs) -> list[tuple[set, dict]]:
    return [
        (set(nac.forbidden.nodes), {k: (e.src, e.tgt) for k, e in nac.forbidden.edges.items()})
        for nac in nacs
    ]


def test_shift_nacs_keeps_the_first_overlap_of_each_shape():
    """The pinned representatives: NAC-only nodes, then edges, in ascending
    id order, each first left out and then identified with each candidate;
    of isomorphic overlaps the first one found is kept."""
    root = TypedGraph(CHAIN, {"k": "B"}, {})
    forbidden = with_elements(root, nodes={"n1": "A", "n2": "A"})
    wide = with_elements(root, nodes={"other": "A"})
    inclusion = Morphism.inclusion(root, wide)
    assert _nac_shapes(shift_nacs(inclusion, [Nac(forbidden)])) == [
        ({"k", "other", "n1#1"}, {}),
        ({"k", "other", "n1#1", "n2#1"}, {}),
    ]
    hooked = with_elements(
        forbidden, edges={"e1": Edge("ab", "n1", "k"), "e2": Edge("ab", "n2", "k")}
    )
    wide = with_elements(wide, edges={"f": Edge("ab", "other", "k")})
    inclusion = Morphism.inclusion(root, wide)
    f = ("other", "k")
    assert _nac_shapes(shift_nacs(inclusion, [Nac(hooked)])) == [
        ({"k", "other", "n1#1"}, {"e1#1": ("n1#1", "k"), "f": f}),
        ({"k", "other", "n1#1"}, {"e1#1": ("n1#1", "k"), "e2#1": f, "f": f}),
        (
            {"k", "other", "n1#1", "n2#1"},
            {"e1#1": ("n1#1", "k"), "e2#1": ("n2#1", "k"), "f": f},
        ),
    ]


def test_shift_nacs_reroots_the_codomain_when_a_nac_shares_its_lineage():
    """A NAC that is a later step of the codomain's lineage reroots the
    shared store when it is read; the overlaps must still draw their
    candidates from the codomain, so the result is that of the same NACs
    rebuilt in lineages of their own."""
    tg = TypeGraph("ab", frozenset({"A", "B"}), {"e": EdgeType("A", "B")})
    root = TypedGraph(tg, {"k": "B"}, {})
    wide = with_elements(root, nodes={"other": "A"}, edges={"e1": Edge("e", "other", "k")})
    grown = with_elements(root, nodes={"n2": "A"}, edges={"f": Edge("e", "n2", "k")})
    step = apply_rule(Rule(root, root, grown), wide, Morphism.inclusion(root, wide))
    nacs = [Nac(with_elements(root, nodes={"x": "B"})), Nac(step.output)]

    def rebuilt(g: TypedGraph) -> TypedGraph:
        return TypedGraph(g.type_graph, dict(g.nodes), dict(g.edges))

    shifted = shift_nacs(Morphism.inclusion(root, wide), nacs)
    expected = shift_nacs(
        Morphism.inclusion(root, rebuilt(wide)), [Nac(rebuilt(n.forbidden)) for n in nacs]
    )
    assert len(expected) == 4
    assert shifted == expected


def test_nac_sets_equivalent_detects_difference():
    root = TypedGraph(CHAIN, {"k": "B"}, {})
    with_edge = Nac(
        with_elements(root, nodes={"n": "A"}, edges={"ne": Edge("ab", "n", "k")})
    )
    node_only = Nac(with_elements(root, nodes={"n": "A"}))
    renamed = Nac(
        with_elements(root, nodes={"m": "A"}, edges={"me": Edge("ab", "m", "k")})
    )
    assert nac_sets_equivalent(root, [with_edge], [renamed])
    assert not nac_sets_equivalent(root, [with_edge], [node_only])
    assert not nac_sets_equivalent(root, [], [node_only])
    # A NAC that extends another adds nothing to the set.
    # The same shape hung off another root node is another condition.
    pair = with_elements(root, nodes={"j": "B"})
    at_k = Nac(with_elements(pair, nodes={"n": "A"}, edges={"ne": Edge("ab", "n", "k")}))
    at_j = Nac(with_elements(pair, nodes={"n": "A"}, edges={"ne": Edge("ab", "n", "j")}))
    assert not nac_sets_equivalent(pair, [at_k], [at_j])
    wider = Nac(with_elements(with_edge.forbidden, nodes={"x": "B"}))
    assert nac_sets_equivalent(root, [with_edge], [with_edge, wider])
    assert not nac_sets_equivalent(root, [wider], [with_edge, wider])
    with pytest.raises(ValueError, match="not rooted"):
        nac_sets_equivalent(root, [Nac(TypedGraph(CHAIN, {"n": "A"}, {}))], [])


def test_nac_equivalence_sees_nacs_larger_than_five_nodes():
    # A NAC of six nodes fires on hosts of six nodes or more; it is not
    # equivalent to having no NAC, and a rule gaining it is no subrule.
    tg = TypeGraph("star", frozenset({"A", "B"}), {"ab": EdgeType("A", "B")})
    root = TypedGraph(tg, {"a": "A"}, {})
    nac = Nac(
        with_elements(
            root, nodes={f"b{i}": "B" for i in range(5)},
            edges={f"e{i}": Edge("ab", "a", f"b{i}") for i in range(5)},
        )
    )
    assert not nac_sets_equivalent(root, [nac], [])
    assert not check_subrule_embedding(
        SubruleEmbedding.by_inclusion(
            Rule(root, root, root), Rule(root, root, root, (nac,))
        )
    )


LOOPY = TypeGraph(
    "loopy",
    frozenset({"A", "B"}),
    {"ab": EdgeType("A", "B"), "bb": EdgeType("B", "B")},
)


@functools.cache
def _loopy_hosts(max_nodes: int, max_parallel: int) -> tuple[TypedGraph, ...]:
    return tuple(enumerate_typed_graphs(LOOPY, max_nodes, max_parallel))


def _extend(
    rng: random.Random, g: TypedGraph, prefix: str, extra_nodes: int, parallel: bool
) -> TypedGraph:
    """``g`` plus ``extra_nodes`` fresh nodes and one or two fresh edges,
    which run parallel to other edges only if ``parallel``."""
    g = with_elements(
        g, nodes={f"{prefix}n{i}": rng.choice("AB") for i in range(extra_nodes)}
    )
    slots = [
        (name, u, v)
        for name, et in sorted(LOOPY.edge_types.items())
        for u in g.sorted_nodes
        for v in g.sorted_nodes
        if g.nodes[u] == et.source and g.nodes[v] == et.target
    ]
    edges: dict[str, Edge] = {}
    for i in range(rng.randint(1, 2)):
        if not parallel:
            occupied = set(g.edge_classes)
            occupied.update((e.type, e.src, e.tgt) for e in edges.values())
            slots = [s for s in slots if s not in occupied]
        if slots:
            edges[f"{prefix}e{i}"] = Edge(*rng.choice(slots))
    return with_elements(g, edges=edges)


def _renamed(nac: Nac, root: TypedGraph, prefix: str, swap: bool = False) -> Nac:
    """The same NAC with fresh ids outside the root; with ``swap``, and a
    root of two same-typed nodes and no edges, also hung off the root with
    those two nodes exchanged."""
    f = nac.forbidden
    names = {
        x: x if x in root.nodes or x in root.edges else prefix + x
        for x in (*f.nodes, *f.edges)
    }
    same_typed_pair = len(root.nodes) == 2 and len(set(root.nodes.values())) == 1
    if swap and same_typed_pair and not root.edges:
        u, v = root.sorted_nodes
        names[u], names[v] = v, u
    return Nac(
        TypedGraph(
            f.type_graph,
            {names[n]: t for n, t in f.nodes.items()},
            {
                names[e]: Edge(v.type, names[v.src], names[v.tgt])
                for e, v in f.edges.items()
            },
        )
    )


def _nac_set_pairs(seed: int, count: int):
    """Seeded pairs of NAC sets over one root: independent sets, a set and
    the set plus one NAC (fresh, or extending one of its NACs), and a set
    and a renamed, reordered or shortened copy, possibly hung off the root
    differently."""
    rng = random.Random(seed)
    for i in range(count):
        root = random_graph(rng, LOOPY, max_nodes=2, max_edges=1, prefix="r")
        # Parallel edges only over roots of at most one node, whose NACs have
        # at most two: the brute force then needs every host of three nodes,
        # or of two nodes with parallel edges, never both.
        parallel = len(root.nodes) < 2

        def fresh(tag: str) -> Nac:
            return Nac(_extend(rng, root, tag, rng.randint(0, 1), parallel))

        first = [fresh(f"s{j}_") for j in range(rng.randint(1, 2))]
        kind = i % 3
        if kind == 0:
            second = [fresh(f"t{j}_") for j in range(rng.randint(0, 2))]
        elif kind == 1:
            grown = Nac(_extend(rng, rng.choice(first).forbidden, "g_", 0, parallel))
            second = [*first, rng.choice([grown, fresh("u_")])]
        else:
            swap = rng.random() < 0.5
            second = [_renamed(n, root, "q_", swap) for n in reversed(first)]
            if len(second) > 1 and rng.random() < 0.5:
                second.pop()
        yield root, first, second


def test_nac_equivalence_agrees_with_the_bounded_oracle():
    """The exact test against brute force over every host as large as the
    largest NAC, with the inputs' worst parallel multiplicity: on those
    hosts the oracle is exact too, so the verdicts must agree."""
    verdicts = []
    for root, first, second in _nac_set_pairs(3030, 60):
        graphs = [root, *(n.forbidden for n in (*first, *second))]
        max_nodes = max(len(g.nodes) for g in graphs)
        max_parallel = max(
            (len(ids) for g in graphs for ids in g.edge_classes.values()), default=1
        )
        expected = bounded_nac_sets_equivalent(
            root, first, second, _loopy_hosts(max_nodes, max_parallel)
        )
        assert nac_sets_equivalent(root, first, second) == expected
        verdicts.append(expected)
    assert verdicts.count(True) >= 15 and verdicts.count(False) >= 15


def test_subrule_embedding_by_inclusion_checks_out():
    small = swap_rule()
    big_interface = small.interface
    big_lhs = with_elements(small.lhs, nodes={"extra": "A"})
    big_rhs = small.rhs
    big = Rule(big_lhs, big_interface, big_rhs)
    assert check_subrule_embedding(SubruleEmbedding.by_inclusion(small, big))


def test_subrule_embedding_rejects_nac_mismatch():
    small = swap_rule()
    forbidden = with_elements(small.lhs, nodes={"n": "A"})
    small_guarded = Rule(small.lhs, small.interface, small.rhs, (Nac(forbidden),))
    big = Rule(small.lhs, small.interface, small.rhs)  # drops the NAC
    assert not check_subrule_embedding(
        SubruleEmbedding.by_inclusion(small_guarded, big)
    )


def test_subrule_embedding_rejects_non_pullback_interface():
    # The large rule preserves the node that the small rule deletes; the
    # interface square then misses the shared element.
    tiny = empty_graph(CHAIN)
    node = TypedGraph(CHAIN, {"d": "A"}, {})
    small = Rule(node, tiny, tiny)
    big = Rule(node, node, node)
    embedding = SubruleEmbedding(
        small,
        big,
        Morphism.inclusion(small.lhs, big.lhs),
        Morphism.inclusion(small.interface, big.interface),
        Morphism.inclusion(small.rhs, big.rhs),
    )
    assert not check_subrule_embedding(embedding)
