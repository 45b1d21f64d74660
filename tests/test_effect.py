"""Effect-oriented rules: potential actions, selections, induced rules."""

from __future__ import annotations

import random

import pytest

from effectgraph import (
    EffectOrientedRule,
    ElementSet,
    InducedSelection,
    InvalidSelection,
    Morphism,
    Nac,
    Rule,
    TypedGraph,
    build_induced_rule,
    count_bounds,
    enumerate_selections,
    validate_rule,
    validate_selection,
)
from effectgraph.effect import validate_effect_rule
from effectgraph.fixtures import (
    banking_type_graph,
    ensure_account_rule,
    ensure_no_account_rule,
)

from gen import grow, random_effect_rule, random_type_graph
from oracles import (
    SubruleEmbedding,
    check_base_subrule,
    check_subrule_embedding,
    is_plain,
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


def test_validate_selection_requires_edge_closure():
    provision = ensure_account_rule()
    open_edge = InducedSelection(
        ElementSet.empty(),
        ElementSet(frozenset(), frozenset({"accounts_c_a"})),
    )
    assert [d.code for d in validate_selection(provision, open_edge)] == ["not-closed"]
    closed = InducedSelection(
        ElementSet.empty(),
        ElementSet(frozenset({"a"}), frozenset({"accounts_c_a"})),
    )
    assert not validate_selection(provision, closed)
    with pytest.raises(InvalidSelection):
        build_induced_rule(provision, open_edge)


def test_build_induced_rule_shapes_the_span():
    provision = ensure_account_rule()
    sel = InducedSelection(
        ElementSet.empty(),
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


def test_empty_selection_reproduces_base_lhs_with_maximal_rhs():
    provision = ensure_account_rule()
    induced = build_induced_rule(provision, InducedSelection.empty())
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
        teardown, InducedSelection(deletions, ElementSet.empty())
    )
    assert dict(induced.rule.lhs.nodes) == dict(teardown.maximal.lhs.nodes)
    assert dict(induced.rule.lhs.edges) == dict(teardown.maximal.lhs.edges)
    assert induced.size == 5


def test_effect_rule_validation_flags_interface_mismatch():
    provision = ensure_account_rule()
    client = provision.base.interface  # just the Client node
    empty = TypedGraph.empty(client.type_graph)
    deleting_base = Rule(client, empty, empty)
    preserving_maximal = Rule(client, client, client)
    skewed = EffectOrientedRule(deleting_base, preserving_maximal)
    assert any(
        d.code == "interface-mismatch" for d in validate_effect_rule(skewed)
    )


def test_is_plain_for_degenerate_effect_rule():
    provision = ensure_account_rule()
    plain = EffectOrientedRule(provision.base, provision.base)
    assert is_plain(plain)
    assert enumerate_selections(plain) == [InducedSelection.empty()]
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
    base = Rule(k.with_elements({"x": "Client"}), k, k)
    maximal = Rule(k.with_elements({"y": "Client"}), k, k)
    sent = SubruleEmbedding(
        base,
        maximal,
        Morphism(base.lhs, maximal.lhs, {"k": "k", "x": "y"}, {}),
        Morphism.identity(k),
        Morphism.identity(k),
    )
    assert check_subrule_embedding(sent)
    with pytest.raises(ValueError, match="not an id-subgraph"):
        EffectOrientedRule(base, maximal)
