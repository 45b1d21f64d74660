"""Effect-oriented rules: potential actions, selections, induced rules."""

from __future__ import annotations

import random
import time

import pytest

from effectgraph import (
    Diagnostic,
    Edge,
    EdgeType,
    EffectOrientedRule,
    ElementSet,
    InducedSelection,
    InvalidSelection,
    Morphism,
    Nac,
    Rule,
    TypeGraph,
    TypedGraph,
    build_induced_rule,
    count_bounds,
    enumerate_selections,
    validate_selection,
)
from effectgraph import effect
from effectgraph.documents import decode_rule, encode_rule
from effectgraph.fixtures import (
    banking_type_graph,
    builtin_type_graphs,
    ensure_account_rule,
    ensure_no_account_rule,
)
from effectgraph.rules import shift_nacs

from gen import (
    empty_graph,
    empty_selection,
    grow,
    random_effect_rule,
    random_graph,
    random_type_graph,
)
from oracles import (
    SubruleEmbedding,
    check_base_subrule,
    check_subrule_embedding,
    identity,
    is_plain,
    validate_effect_rule,
    validate_rule,
    with_elements,
)


def test_fixture_rules_have_the_expected_potential_actions():
    provision = ensure_account_rule()
    deletions, creations = provision.potential_deletions, provision.potential_creations
    assert deletions == ElementSet()
    assert creations.nodes == {"a", "p"}
    assert creations.edges == {"accounts_c_a", "portfolios_c_p", "portfolio_a_p"}

    teardown = ensure_no_account_rule()
    deletions, creations = teardown.potential_deletions, teardown.potential_creations
    assert creations == ElementSet()
    assert deletions.nodes == {"a", "p"}
    assert deletions.edges == {"accounts_c_a", "portfolios_c_p", "portfolio_a_p"}


def test_fixture_rules_validate_cleanly():
    for loader in (ensure_account_rule, ensure_no_account_rule):
        eor = loader()
        assert not validate_effect_rule(eor)
        assert not is_plain(eor)


def test_selection_counts_per_filter():
    # Node subsets contribute 4 choices; each node subset admits the
    # edge subsets closed over it: {} -> 1, {a} -> 2, {p} -> 2, {a,p} -> 8.
    provision = ensure_account_rule()
    teardown = ensure_no_account_rule()
    assert len(enumerate_selections(provision)) == 13
    assert len(enumerate_selections(teardown)) == 13
    # The connectedness filters act on the side that has potential elements
    # and leave the other side alone.
    assert len(enumerate_selections(provision, "weak_right")) == 4
    assert len(enumerate_selections(provision, "right")) == 2
    assert len(enumerate_selections(provision, "weak_left")) == 13
    assert len(enumerate_selections(provision, "left")) == 13
    assert len(enumerate_selections(teardown, "weak_left")) == 4
    assert len(enumerate_selections(teardown, "left")) == 2
    assert len(enumerate_selections(teardown, "weak_right")) == 13
    assert len(enumerate_selections(teardown, "right")) == 13


@pytest.mark.parametrize("seed", [5, 61, 808])
def test_selection_counts_equal_the_listing_for_every_filter(seed):
    """The closed-form count equals the length of the listing on random
    rules with up to three potential nodes a side, parallel edges and
    self-loops, under every filter."""
    rng = random.Random(seed)
    for _ in range(40):
        tg = random_type_graph(rng)
        interface = random_graph(rng, tg, max_nodes=2, max_edges=1, prefix="k")
        lhs = grow(rng, interface, rng.randint(0, 3), rng.randint(0, 5), "pd")
        rhs = grow(rng, interface, rng.randint(0, 3), rng.randint(0, 5), "pc")
        base = Rule(interface, interface, interface)
        eor = EffectOrientedRule(base, Rule(lhs, interface, rhs))
        for selection_filter in effect.SELECTION_FILTERS:
            want = len(enumerate_selections(eor, selection_filter))
            assert effect.count_selections(eor, selection_filter) == want


def test_sixteen_potential_edges_are_counted_without_listing():
    """2^16 selections of 16 parallel potential edges are counted, not
    built, in well under 10 ms."""
    tg = TypeGraph("pair", frozenset({"N"}), {"e": EdgeType("N", "N")})
    ends = TypedGraph(tg, {"u": "N", "v": "N"}, {})
    sixteen = {f"e{i:02}": Edge("e", "u", "v") for i in range(16)}
    parallel = with_elements(ends, {}, sixteen)
    eor = EffectOrientedRule(Rule(ends, ends, ends), Rule(ends, ends, parallel))
    for selection_filter in effect.SELECTION_FILTERS:
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            assert effect.count_selections(eor, selection_filter) == 2**16
            best = min(best, time.perf_counter() - t0)
        assert best < 0.010


def test_weak_right_selections_are_the_four_described_variants():
    provision = ensure_account_rule()
    got = {
        (tuple(sorted(s.preserve_extra.nodes)), tuple(sorted(s.preserve_extra.edges)))
        for s in enumerate_selections(provision, "weak_right")
    }
    assert got == {
        ((), ()),
        (("a",), ("accounts_c_a",)),
        (("p",), ("portfolios_c_p",)),
        (("a", "p"), ("accounts_c_a", "portfolio_a_p", "portfolios_c_p")),
    }


def test_enumerate_selections_rejects_unknown_filter():
    provision = ensure_account_rule()
    with pytest.raises(ValueError, match="unknown filter"):
        enumerate_selections(provision, "sideways")


def test_enumerate_selections_is_sorted_and_duplicate_free():
    rng = random.Random(3)
    for _ in range(15):
        tg = random_type_graph(rng)
        eor = random_effect_rule(rng, tg)
        sels = enumerate_selections(eor)
        keys = [s.sort_key() for s in sels]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)
        lower, upper = count_bounds(eor)
        assert lower <= len(sels) <= upper


def test_count_bounds_fixture_arithmetic():
    for loader in (ensure_account_rule, ensure_no_account_rule):
        eor = loader()
        assert count_bounds(eor) == (4, 32)


def test_validate_selection_reports_foreign_elements():
    provision = ensure_account_rule()
    bogus = InducedSelection(
        ElementSet(frozenset({"a"}), frozenset()),
        ElementSet(frozenset({"ghost"}), frozenset()),
    )
    codes = {(d.code, d.element) for d in validate_selection(provision, bogus)}
    # "a" is a potential creation, not a potential deletion.
    assert ("not-potential", "a") in codes
    assert ("not-potential", "ghost") in codes


def test_validate_selection_reports_foreign_edges():
    provision = ensure_account_rule()
    bogus = InducedSelection(
        ElementSet(frozenset(), frozenset({"accounts_c_a"})),
        ElementSet(frozenset(), frozenset({"ghost"})),
    )
    # "accounts_c_a" is a potential creation, not a potential deletion.
    assert validate_selection(provision, bogus) == [
        Diagnostic("not-potential", "accounts_c_a", "not a potential deletion edge"),
        Diagnostic("not-potential", "ghost", "not a potential creation edge"),
    ]


def test_validate_selection_requires_edge_closure():
    provision = ensure_account_rule()
    open_edge = InducedSelection(
        ElementSet(),
        ElementSet(frozenset(), frozenset({"accounts_c_a"})),
    )
    assert [d.code for d in validate_selection(provision, open_edge)] == ["not-closed"]
    closed = InducedSelection(
        ElementSet(),
        ElementSet(frozenset({"a"}), frozenset({"accounts_c_a"})),
    )
    assert not validate_selection(provision, closed)
    with pytest.raises(InvalidSelection):
        build_induced_rule(provision, open_edge)


def test_validate_selection_reports_every_clause_on_both_sides_in_order():
    """Every ``not-potential`` finding, deletion side first and nodes before
    edges, each by id; ``not-closed`` findings only when there is none."""
    tg = banking_type_graph()
    client = {"c": "Client"}
    lhs = TypedGraph(
        tg,
        {**client, "d": "Account", "f": "Account"},
        {"cd": Edge("accounts", "c", "d"), "cf": Edge("accounts", "c", "f")},
    )
    rhs = TypedGraph(tg, {**client, "a": "Account"}, {"ca": Edge("accounts", "c", "a")})
    base = TypedGraph(tg, client, {})
    eor = EffectOrientedRule(Rule(base, base, base), Rule(lhs, base, rhs))
    assert validate_effect_rule(eor) == []
    foreign = InducedSelection(
        ElementSet(frozenset({"zz", "a", "d"}), frozenset({"ca", "cd"})),
        ElementSet(frozenset({"d"}), frozenset({"cd", "ca"})),
    )
    assert validate_selection(eor, foreign) == [
        Diagnostic("not-potential", "a", "not a potential deletion node"),
        Diagnostic("not-potential", "zz", "not a potential deletion node"),
        Diagnostic("not-potential", "ca", "not a potential deletion edge"),
        Diagnostic("not-potential", "d", "not a potential creation node"),
        Diagnostic("not-potential", "cd", "not a potential creation edge"),
    ]
    unclosed = InducedSelection(
        ElementSet(frozenset(), frozenset({"cf", "cd"})),
        ElementSet(frozenset(), frozenset({"ca"})),
    )
    deletion = "selected deletion edge has an unselected potential endpoint"
    creation = (
        "preserved creation edge has an endpoint outside the interface and the "
        "preserved nodes"
    )
    assert validate_selection(eor, unclosed) == [
        Diagnostic("not-closed", "cd", deletion),
        Diagnostic("not-closed", "cf", deletion),
        Diagnostic("not-closed", "ca", creation),
    ]


def test_build_induced_rule_shapes_the_span():
    provision = ensure_account_rule()
    sel = InducedSelection(
        ElementSet(),
        ElementSet(frozenset({"a"}), frozenset({"accounts_c_a"})),
    )
    induced = build_induced_rule(provision, sel)
    assert induced.size == 2
    assert set(induced.rule.lhs.nodes) == {"c", "a"}
    assert set(induced.rule.lhs.edges) == {"accounts_c_a"}
    assert set(induced.rule.interface.nodes) == {"c", "a"}
    assert set(induced.rule.interface.edges) == {"accounts_c_a"}
    assert induced.rule.rhs == provision.maximal.rhs
    assert induced.rule.nacs == ()
    assert not validate_rule(induced.rule)


def test_an_induced_rule_adds_its_elements_in_id_order():
    """The induced lhs and interface list the base elements first, then the
    selected deletions and the preserved creations, each in id order: not in
    the order of the selection's sets, which follows the hash seed, so no
    walk over an induced side costs what the seed decides."""
    tg = TypeGraph("ring", frozenset({"N"}), {"e": EdgeType("N", "N")})
    base = TypedGraph(tg, {"k": "N"}, {})
    names = "zambycqd"
    gone = with_elements(
        base, {f"d{x}": "N" for x in names}, {f"f{x}": Edge("e", "k", f"d{x}") for x in names}
    )
    made = with_elements(
        base, {f"n{x}": "N" for x in names}, {f"g{x}": Edge("e", "k", f"n{x}") for x in names}
    )
    eor = EffectOrientedRule(Rule(base, base, base), Rule(gone, base, made))
    pd, pc = eor.potential_deletions, eor.potential_creations
    rule = build_induced_rule(eor, InducedSelection(pd, pc)).rule
    ordered = sorted(f"{p}{x}" for x in names for p in "dn")
    assert list(rule.lhs.nodes) == ["k", *ordered]
    assert list(rule.lhs.edges) == sorted(f"{p}{x}" for x in names for p in "fg")
    assert list(rule.interface.nodes) == ["k", *sorted(f"n{x}" for x in names)]
    assert list(rule.interface.edges) == sorted(f"g{x}" for x in names)


def test_empty_selection_reproduces_base_lhs_with_maximal_rhs():
    provision = ensure_account_rule()
    induced = build_induced_rule(provision, empty_selection())
    assert induced.size == 0
    assert dict(induced.rule.lhs.nodes) == dict(provision.base.lhs.nodes)
    assert dict(induced.rule.interface.nodes) == dict(provision.interface.nodes)
    assert induced.rule.rhs == provision.maximal.rhs


def test_every_fixture_selection_builds_a_valid_rule_embedding_the_base():
    for loader in (ensure_account_rule, ensure_no_account_rule):
        eor = loader()
        for sel in enumerate_selections(eor):
            induced = build_induced_rule(eor, sel)
            assert not validate_rule(induced.rule)
            assert check_base_subrule(eor, induced)


def test_random_selections_build_valid_rules_embedding_the_base():
    rng = random.Random(17)
    for _ in range(20):
        tg = random_type_graph(rng)
        eor = random_effect_rule(rng, tg)
        sels = enumerate_selections(eor)
        for sel in sels[:: max(1, len(sels) // 6)]:
            induced = build_induced_rule(eor, sel)
            assert not validate_rule(induced.rule)
            assert check_base_subrule(eor, induced)


def test_full_selection_recovers_the_maximal_rule():
    teardown = ensure_no_account_rule()
    deletions = teardown.potential_deletions
    induced = build_induced_rule(
        teardown, InducedSelection(deletions, ElementSet())
    )
    assert dict(induced.rule.lhs.nodes) == dict(teardown.maximal.lhs.nodes)
    assert dict(induced.rule.lhs.edges) == dict(teardown.maximal.lhs.edges)
    assert induced.size == 5


def test_effect_rule_validation_flags_interface_mismatch():
    provision = ensure_account_rule()
    client = provision.base.interface  # just the Client node
    empty = empty_graph(client.type_graph)
    deleting_base = Rule(client, empty, empty)
    preserving_maximal = Rule(client, client, client)
    skewed = EffectOrientedRule(deleting_base, preserving_maximal)
    assert any(
        d.code == "interface-mismatch" for d in validate_effect_rule(skewed)
    )


def test_effect_rule_validation_passes_on_an_ill_formed_rule():
    provision = ensure_account_rule()
    base, m = provision.base, provision.maximal
    crossed = with_elements(m.rhs, edges={"bad": Edge("portfolio", "c", "p")})
    eor = EffectOrientedRule(base, Rule(m.lhs, m.interface, crossed, m.nacs))
    assert [(d.code, d.element, d.message) for d in validate_effect_rule(eor)] == [
        (
            "endpoint-type-mismatch",
            "bad",
            "maximal: rhs: src node 'c' has type 'Client', "
            "edge type 'portfolio' requires 'Account'",
        )
    ]


def test_only_a_hand_built_rule_has_its_nac_equivalence_checked():
    """``decode_rule`` shifts the base NACs to the maximal lhs itself, so
    it does not check their equivalence again; ``validate_effect_rule``
    does, and refuses maximal NACs that are not equivalent."""
    provision = ensure_account_rule()
    base, m = provision.base, provision.maximal

    def nac(node: str, edge: str) -> Nac:
        grown = {"x": node}, {"h": Edge(edge, "c", "x")}
        return Nac(with_elements(base.lhs, *grown))

    guarded = Rule(base.lhs, base.interface, base.rhs, (nac("Account", "accounts"),))
    shifted = shift_nacs(Morphism.inclusion(base.lhs, m.lhs), guarded.nacs)
    good = EffectOrientedRule(guarded, Rule(m.lhs, m.interface, m.rhs, shifted))
    assert not validate_effect_rule(good)
    for nacs in ((), (nac("Portfolio", "portfolios"),)):
        bad = EffectOrientedRule(guarded, Rule(m.lhs, m.interface, m.rhs, nacs))
        assert [d.code for d in validate_effect_rule(bad)] == ["embedding-invalid"]

    _, decoded = decode_rule(encode_rule("guarded", good), builtin_type_graphs())
    assert decoded.maximal.nacs == shifted


def test_is_plain_for_degenerate_effect_rule():
    provision = ensure_account_rule()
    plain = EffectOrientedRule(provision.base, provision.base)
    assert is_plain(plain)
    assert enumerate_selections(plain) == [empty_selection()]
    assert count_bounds(plain) == (1, 1)


def _nac_variants(rng: random.Random, eor: EffectOrientedRule):
    """The rule itself, the rule with its first maximal NAC dropped, and the
    rule with one more maximal NAC grown from the maximal lhs."""
    yield eor
    m = eor.maximal
    if m.nacs:
        yield EffectOrientedRule(eor.base, Rule(m.lhs, m.interface, m.rhs, m.nacs[1:]))
    extra = Nac(grow(rng, m.lhs, 1, rng.randint(0, 2), "y_"))
    yield EffectOrientedRule(
        eor.base, Rule(m.lhs, m.interface, m.rhs, (*m.nacs, extra))
    )


def test_validation_agrees_with_the_subrule_embedding_oracle():
    """Deciding the embedding by id inclusion gives the verdict of the
    general check of its pullback squares and NACs."""
    rng = random.Random(909)
    verdicts = []
    for _ in range(400):
        eor = random_effect_rule(rng, random_type_graph(rng))
        for variant in _nac_variants(rng, eor):
            expected = check_subrule_embedding(
                SubruleEmbedding.by_inclusion(variant.base, variant.maximal)
            )
            assert (not validate_effect_rule(variant)) == expected
            verdicts.append(expected)
    assert len(verdicts) >= 800
    assert verdicts.count(True) >= 100 and verdicts.count(False) >= 100


def test_effect_rule_whose_base_is_not_included_by_id_cannot_be_built():
    # The base deletes x and the maximal rule deletes y.  An embedding that
    # sends x to y passes the general check, but the effect-oriented rule is
    # read by ids: the selection that performs y would delete both x and y.
    k = TypedGraph(banking_type_graph(), {"k": "Client"}, {})
    base = Rule(with_elements(k, {"x": "Client"}), k, k)
    maximal = Rule(with_elements(k, {"y": "Client"}), k, k)
    sent = SubruleEmbedding(
        base,
        maximal,
        Morphism(base.lhs, maximal.lhs, {"k": "k", "x": "y"}, {}),
        identity(k),
        identity(k),
    )
    assert check_subrule_embedding(sent)
    with pytest.raises(ValueError, match="not an id-subgraph"):
        EffectOrientedRule(base, maximal)
