"""End-to-end runs of the command-line front end, in process."""

from __future__ import annotations

import json

import pytest

from effectgraph import (
    EffectTransformation,
    InducedSelection,
    Morphism,
    PreMatch,
    TypedGraph,
    apply_rule,
    build_induced_rule,
    count_bounds,
    decode_audit_report,
    decode_graph,
    decode_trace,
    encode_graph,
    encode_trace,
    encode_type_graph,
    transform,
)
from effectgraph.cli import main
from effectgraph.fixtures import (
    BANK_GRAPH_FILE,
    ENSURE_ACCOUNT_FILE,
    ENSURE_NO_ACCOUNT_FILE,
    MATCH_C1_FILE,
    MATCH_C2_FILE,
    TYPE_GRAPH_FILE,
    bank_graph,
    banking_type_graph,
    builtin_type_graphs,
    ensure_account_rule,
)

pytestmark = pytest.mark.usefixtures("plain_output")


@pytest.fixture
def plain_output(monkeypatch):
    monkeypatch.delenv("NO_COLOR", raising=False)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_match_prints_the_locally_maximal_selection(capsys):
    code, out, _ = run(
        capsys,
        "match",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--strategy",
        "locally-maximal",
        "--base-match",
        MATCH_C2_FILE,
    )
    assert code == 0
    assert "selection (size 3)" in out
    assert "  a -> a2" in out
    assert "  preserve: a, p, portfolio_a_p" in out


def test_match_all_lists_every_complete_match(capsys):
    code, out, _ = run(
        capsys,
        "match",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--strategy",
        "locally-complete",
        "--all",
        "--base-match",
        MATCH_C1_FILE,
    )
    assert code == 0
    assert out.count("selection (size") == 2
    assert "selection (size 3)" in out
    assert "selection (size 4)" in out


def test_match_globally_maximal_needs_no_base_match(capsys):
    code, out, _ = run(
        capsys,
        "match",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--strategy",
        "globally-maximal",
    )
    assert code == 0
    assert "selection (size 4)" in out
    assert "  c -> c1" in out


def test_strategy_argument_mismatches_exit_1(capsys):
    code, _, err = run(
        capsys,
        "match",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--strategy",
        "globally-maximal",
        "--base-match",
        MATCH_C1_FILE,
    )
    assert code == 1
    assert "drop --base-match" in err

    code, _, err = run(
        capsys,
        "match",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--strategy",
        "locally-maximal",
    )
    assert code == 1
    assert "needs --base-match" in err


def test_no_match_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text(encode_graph(TypedGraph.empty(banking_type_graph())))
    code, out, _ = run(
        capsys,
        "match",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        str(empty),
        "--strategy",
        "globally-maximal",
    )
    assert code == 2
    assert "no match" in out


def test_missing_file_exits_1(capsys):
    code, _, err = run(
        capsys,
        "match",
        "--rule",
        "no_such_rule.json",
        "--graph",
        BANK_GRAPH_FILE,
        "--strategy",
        "globally-maximal",
    )
    assert code == 1
    assert "no such file" in err


def test_apply_writes_output_and_trace(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    trace_file = tmp_path / "trace.json"
    code, out, _ = run(
        capsys,
        "apply",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--strategy",
        "locally-maximal",
        "--base-match",
        MATCH_C2_FILE,
        "--out",
        str(out_file),
        "--trace",
        str(trace_file),
    )
    assert code == 0
    assert "created: accounts_c_a#1, portfolios_c_p#1" in out
    assert "deleted: -" in out
    assert "reused:  a2, p, portfolio_a2_p" in out

    written = decode_graph(out_file.read_text(), builtin_type_graphs())
    expected = transform(
        ensure_account_rule(),
        bank_graph(),
        "locally_maximal",
        PreMatch(
            Morphism(ensure_account_rule().base.lhs, bank_graph(), {"c": "c2"}, {}),
        ),
    )
    assert dict(written.edges) == dict(expected.result.output.edges)
    trace = decode_trace(trace_file.read_text())
    assert trace.rule == "ensure_account"
    assert trace.strategy == "locally_maximal"


def test_induced_listing_and_counts(capsys):
    code, out, _ = run(
        capsys, "induced", "--rule", ENSURE_ACCOUNT_FILE, "--count-only"
    )
    assert code == 0
    assert out.strip() == "13"

    code, out, _ = run(
        capsys, "induced", "--rule", ENSURE_ACCOUNT_FILE, "--filter", "weak-right"
    )
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("size ")]
    assert len(lines) == 4
    assert any("preserve: -" in line for line in lines)


def test_bounds_prints_the_selection_bounds(capsys):
    code, out, _ = run(capsys, "bounds", "--rule", ENSURE_ACCOUNT_FILE)
    assert code == 0
    assert out.strip() == "4 32"


def test_validate_accepts_the_whole_corpus(capsys):
    code, out, _ = run(
        capsys,
        "validate",
        TYPE_GRAPH_FILE,
        BANK_GRAPH_FILE,
        ENSURE_ACCOUNT_FILE,
        ENSURE_NO_ACCOUNT_FILE,
        MATCH_C1_FILE,
        MATCH_C2_FILE,
    )
    assert code == 0
    assert out.count("ok ") == 6
    assert "FAIL" not in out
    assert "\033[" not in out  # piped output stays plain


def test_validate_flags_broken_files(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"kind": "graph", "type_graph": "banking"}')
    code, out, _ = run(capsys, "validate", BANK_GRAPH_FILE, str(broken))
    assert code == 1
    assert "FAIL" in out
    assert f"ok {BANK_GRAPH_FILE}" in out


@pytest.mark.parametrize("kind", [["graph"], {"graph": "rule"}])
def test_validate_reports_a_kind_that_is_not_a_string(tmp_path, capsys, kind):
    odd = tmp_path / "odd.json"
    odd.write_text(json.dumps({"kind": kind}))
    code, out, _ = run(capsys, "validate", str(odd), ENSURE_ACCOUNT_FILE)
    assert code == 1
    assert out.splitlines() == [
        f"FAIL {odd}: unknown document kind {kind!r}",
        f"ok {ENSURE_ACCOUNT_FILE}",
    ]


def test_validate_registers_type_graph_files_first(tmp_path, capsys):
    tg_file = tmp_path / "tiny.json"
    graph_file = tmp_path / "g.json"
    from effectgraph import Edge, EdgeType, TypeGraph

    tiny = TypeGraph("tiny", frozenset({"N"}), {"e": EdgeType("N", "N")})
    tg_file.write_text(encode_type_graph(tiny))
    graph_file.write_text(
        encode_graph(
            TypedGraph(tiny, {"n1": "N", "n2": "N"}, {"x": Edge("e", "n1", "n2")})
        )
    )
    code, out, _ = run(capsys, "validate", str(tg_file), str(graph_file))
    assert code == 0
    assert out.count("ok ") == 2

    code, out, _ = run(capsys, "validate", str(graph_file))
    assert code == 1
    assert "unknown type graph" in out


def test_types_flag_extends_the_registry(tmp_path, capsys):
    from effectgraph import Edge, EdgeType, EffectOrientedRule, Rule, TypeGraph
    from effectgraph.documents import encode_rule

    tiny = TypeGraph("tiny2", frozenset({"N"}), {"e": EdgeType("N", "N")})
    interface = TypedGraph(tiny, {"k": "N"}, {})
    maximal_rhs = interface.with_elements(
        nodes={"m": "N"}, edges={"em": Edge("e", "k", "m")}
    )
    eor = EffectOrientedRule(
        Rule(interface, interface, interface),
        Rule(interface, interface, maximal_rhs),
    )
    tg_file = tmp_path / "tiny2.json"
    tg_file.write_text(encode_type_graph(tiny))
    rule_file = tmp_path / "grow.json"
    rule_file.write_text(encode_rule("grow", eor))

    code, out, _ = run(
        capsys, "bounds", "--types", str(tg_file), "--rule", str(rule_file)
    )
    assert code == 0
    lower, upper = count_bounds(eor)
    assert out.strip() == f"{lower} {upper}"

    code, _, err = run(capsys, "bounds", "--rule", str(rule_file))
    assert code == 1
    assert "unknown type graph" in err


def test_audit_round_trip_with_report(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    trace_file = tmp_path / "trace.json"
    report_file = tmp_path / "report.json"
    run(
        capsys,
        "apply",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--strategy",
        "locally-maximal",
        "--base-match",
        MATCH_C2_FILE,
        "--out",
        str(out_file),
        "--trace",
        str(trace_file),
    )
    code, out, _ = run(
        capsys,
        "audit",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--out",
        str(out_file),
        "--trace",
        str(trace_file),
        "--report",
        str(report_file),
    )
    assert code == 0
    assert "audit passed (2 entries)" in out
    assert "creation accounts_c_a: skipped:not-a-graph" in out
    report = decode_audit_report(report_file.read_text())
    assert len(report.entries) == 2


def test_audit_failure_exits_3(tmp_path, capsys):
    eor = ensure_account_rule()
    host = bank_graph()
    induced = build_induced_rule(eor, InducedSelection.empty())
    match = Morphism(induced.rule.lhs, host, {"c": "c1"}, {})
    record = apply_rule(induced.rule, host, match)
    t = EffectTransformation(
        eor=eor,
        strategy="locally_complete",
        result=record,
        selection=InducedSelection.empty(),
        base_prematch=PreMatch(match),
    )
    trace_file = tmp_path / "trace.json"
    trace_file.write_text(encode_trace(t, "ensure_account"))
    out_file = tmp_path / "out.json"
    out_file.write_text(encode_graph(record.output))

    code, _, err = run(
        capsys,
        "audit",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--out",
        str(out_file),
        "--trace",
        str(trace_file),
    )
    assert code == 3
    assert "audit failed" in err
    assert "could have been reused" in err


def test_audit_rejects_a_trace_for_another_rule(tmp_path, capsys):
    out_file = tmp_path / "out.json"
    trace_file = tmp_path / "trace.json"
    run(
        capsys,
        "apply",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--strategy",
        "locally-maximal",
        "--base-match",
        MATCH_C2_FILE,
        "--out",
        str(out_file),
        "--trace",
        str(trace_file),
    )
    code, _, err = run(
        capsys,
        "audit",
        "--rule",
        ENSURE_NO_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--out",
        str(out_file),
        "--trace",
        str(trace_file),
    )
    assert code == 1
    assert "recorded for rule 'ensure_account'" in err


def test_help_and_usage_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["match", "--rule", ENSURE_ACCOUNT_FILE]) == 1  # --graph missing
    capsys.readouterr()


def test_no_color_flag_is_accepted(capsys):
    code, out, _ = run(capsys, "--no-color", "validate", TYPE_GRAPH_FILE)
    assert code == 0
    assert "\033[" not in out
