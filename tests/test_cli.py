"""End-to-end runs of the command-line front end, in process, and the
imports it costs a fresh interpreter."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

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
from effectgraph import cli, matching
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

from gen import empty_graph, empty_selection
from oracles import with_elements

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


# The fixture bank under both rules: (rule, strategy, base-match flags).
_MATCH_RUNS = [
    (rule, *strategy)
    for rule in (ENSURE_ACCOUNT_FILE, ENSURE_NO_ACCOUNT_FILE)
    for strategy in (
        ("globally-maximal",),
        ("locally-complete", "--base-match", MATCH_C1_FILE),
        ("locally-complete", "--base-match", MATCH_C2_FILE),
        ("locally-maximal", "--base-match", MATCH_C1_FILE),
        ("locally-maximal", "--base-match", MATCH_C2_FILE),
    )
]


def _match(capsys, rule, strategy, *rest):
    argv = ("--rule", rule, "--graph", BANK_GRAPH_FILE, "--strategy", strategy)
    return run(capsys, "match", *argv, *rest)


def test_match_prints_the_first_block_of_match_all(capsys):
    """Without ``--all``, ``match`` prints the match ``transform`` applies.
    On the fixture bank that is the first result ``--all`` lists, under
    every strategy."""
    several = 0
    for argv in _MATCH_RUNS:
        code, one, _ = _match(capsys, *argv)
        every_code, every, _ = _match(capsys, *argv, "--all")
        assert code == every_code
        blocks = every.split("\n\n")
        assert one == blocks[0].rstrip("\n") + "\n"
        several += len(blocks) > 1
    assert several > 0


def test_match_builds_no_tie_under_the_maximal_strategies(capsys, monkeypatch):
    """``match`` without ``--all`` answers without the public maximal
    searches, which build every tie."""
    runs = [argv for argv in _MATCH_RUNS if argv[1] != "locally-complete"]
    expected = [_match(capsys, *argv) for argv in runs]

    def refuse(*args, **kwargs):
        raise AssertionError("built every tie")

    for module in (cli, matching):
        monkeypatch.setattr(module, "find_locally_maximal", refuse)
        monkeypatch.setattr(module, "find_globally_maximal", refuse)
    assert [_match(capsys, *argv) for argv in runs] == expected
    # Only the teardown rule finds no match on the bank.
    for argv, (code, _, _) in zip(runs, expected):
        assert code == (0 if argv[0] == ENSURE_ACCOUNT_FILE else 2)


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
    empty.write_text(encode_graph(empty_graph(banking_type_graph())))
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

    # c2 holds nothing, so the teardown rule finds no match there.
    out_file = tmp_path / "out.json"
    code, out, _ = run(
        capsys,
        "apply",
        "--rule",
        ENSURE_NO_ACCOUNT_FILE,
        "--graph",
        BANK_GRAPH_FILE,
        "--base-match",
        MATCH_C2_FILE,
        "--out",
        str(out_file),
    )
    assert (code, out) == (2, "no match\n")
    assert not out_file.exists()


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


def test_a_file_that_is_not_utf8_is_not_valid_json(tmp_path, capsys):
    """JSON text is UTF-8: other bytes are reported like any other text
    that does not parse, by ``validate`` and by a command that reads it."""
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe")
    problem = (
        "not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte"
    )
    code, out, _ = run(capsys, "validate", str(binary))
    assert code == 1
    assert out.splitlines() == [f"FAIL {binary}: {problem}"]
    code, out, err = run(
        capsys,
        "apply",
        "--rule",
        ENSURE_ACCOUNT_FILE,
        "--graph",
        str(binary),
        "--strategy",
        "globally-maximal",
        "--out",
        str(tmp_path / "out.json"),
    )
    assert code == 1
    assert (out, err) == ("", f"error: {problem}\n")
    assert not (tmp_path / "out.json").exists()


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

    # Text that is not a JSON object is reported as the decoders see it.
    texts = {"text": "not json", "array": "[1,2]", "truncated": '{"kind": '}
    paths = []
    for name, text in texts.items():
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(text)
    code, out, _ = run(capsys, "validate", *map(str, paths))
    assert code == 1
    assert out.splitlines() == [
        f"FAIL {paths[0]}: not valid JSON: Expecting value: line 1 column 1 (char 0)",
        f"FAIL {paths[1]}: the top level must be an object",
        f"FAIL {paths[2]}: not valid JSON: Expecting value: line 1 column 10 (char 9)",
    ]


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


def test_validate_reports_unreadable_files_and_type_graphs_first(
    tmp_path, monkeypatch, capsys
):
    """Unreadable files and type graphs are reported first, in the order
    given, and a type graph's own error is reported like any other."""
    monkeypatch.chdir(tmp_path)
    Path("broken.json").write_text("not json")
    bad_tg = {"kind": "type_graph", "name": "t", "node_types": ["A"]}
    bad_tg["edge_types"] = {"e": {"source": "C", "target": "A"}}
    Path("bad_tg.json").write_text(json.dumps(bad_tg))
    bad_graph = {"kind": "graph", "type_graph": "banking", "edges": []}
    bad_graph["nodes"] = [{"id": "n", "type": "Nope"}]
    Path("bad_graph.json").write_text(json.dumps(bad_graph))
    files = ["broken.json", BANK_GRAPH_FILE, "bad_tg.json", "bad_graph.json"]
    code, out, _ = run(capsys, "--no-color", "validate", *files, TYPE_GRAPH_FILE)
    assert code == 1
    assert out.splitlines() == [
        "FAIL broken.json: not valid JSON: Expecting value: line 1 column 1 (char 0)",
        "FAIL bad_tg.json: invalid: edge type 'e' has unknown source type 'C'",
        f"ok {TYPE_GRAPH_FILE}",
        f"ok {BANK_GRAPH_FILE}",
        "FAIL bad_graph.json: unknown-node-type [n]: node type 'Nope' not declared",
    ]


def test_types_flag_extends_the_registry(tmp_path, capsys):
    from effectgraph import Edge, EdgeType, EffectOrientedRule, Rule, TypeGraph
    from effectgraph.documents import encode_rule

    tiny = TypeGraph("tiny2", frozenset({"N"}), {"e": EdgeType("N", "N")})
    interface = TypedGraph(tiny, {"k": "N"}, {})
    maximal_rhs = with_elements(
        interface, nodes={"m": "N"}, edges={"em": Edge("e", "k", "m")}
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
    induced = build_induced_rule(eor, empty_selection())
    match = Morphism(induced.rule.lhs, host, {"c": "c1"}, {})
    record = apply_rule(induced.rule, host, match)
    t = EffectTransformation(
        eor=eor,
        strategy="locally_complete",
        result=record,
        selection=empty_selection(),
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


def _applied_at_c2(tmp_path, capsys):
    """The output and trace files of ``apply`` at ``c2``."""
    out_file, trace_file = tmp_path / "out.json", tmp_path / "trace.json"
    code, _, _ = run(
        capsys, "apply", "--rule", ENSURE_ACCOUNT_FILE, "--graph", BANK_GRAPH_FILE,
        "--strategy", "locally-maximal", "--base-match", MATCH_C2_FILE,
        "--out", str(out_file), "--trace", str(trace_file),
    )
    assert code == 0
    return out_file, trace_file


def _audit(capsys, rule, out_file, trace_file):
    return run(
        capsys, "audit", "--rule", rule, "--graph", BANK_GRAPH_FILE,
        "--out", str(out_file), "--trace", str(trace_file),
    )


def test_audit_rejects_an_output_with_one_element_changed(tmp_path, capsys):
    out_file, trace_file = _applied_at_c2(tmp_path, capsys)
    doc = json.loads(out_file.read_text())
    doc["edges"][0]["id"] += "_renamed"  # still a valid graph
    out_file.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    code, out, err = _audit(capsys, ENSURE_ACCOUNT_FILE, out_file, trace_file)
    assert code == 1
    assert err == "error: recorded output graph does not match the replay\n"
    assert "audit passed" not in out


def test_audit_accepts_the_output_in_other_text(tmp_path, capsys):
    """Equal graphs in other text pass: the output is decoded when its text
    is not the replay's canonical text."""
    out_file, trace_file = _applied_at_c2(tmp_path, capsys)

    def reordered(value):
        if isinstance(value, dict):
            return {k: reordered(value[k]) for k in reversed(list(value))}
        return [reordered(v) for v in value] if isinstance(value, list) else value

    text = json.dumps(reordered(json.loads(out_file.read_text())))
    assert "\n" not in text and text != out_file.read_text()
    out_file.write_text(text)
    code, out, _ = _audit(capsys, ENSURE_ACCOUNT_FILE, out_file, trace_file)
    assert code == 0
    assert "audit passed (2 entries)" in out


def test_audit_reports_a_malformed_output_before_the_trace(tmp_path, capsys):
    out_file, trace_file = _applied_at_c2(tmp_path, capsys)
    out_file.write_text('{"kind": "graph", ')
    code, _, err = _audit(capsys, ENSURE_NO_ACCOUNT_FILE, out_file, trace_file)
    assert code == 1
    assert err.startswith("error: not valid JSON")
    assert "recorded for rule" not in err


def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch):
    # The audit of a step that left reusable elements unused exits 3.
    eor, host, none = ensure_account_rule(), bank_graph(), empty_selection()
    rule = build_induced_rule(eor, none).rule
    match = Morphism(rule.lhs, host, {"c": "c1"}, {})
    record = apply_rule(rule, host, match)
    t = EffectTransformation(eor, "locally_complete", record, none, PreMatch(match))
    (tmp_path / "trace.json").write_text(encode_trace(t, "ensure_account"))
    (tmp_path / "out.json").write_text(encode_graph(record.output))
    paused = []
    monkeypatch.setattr(
        cli, "cmd_bounds", lambda args, registry: paused.append(not gc.isenabled()) or 0
    )
    cases = [
        (0, ["bounds", "--rule", ENSURE_ACCOUNT_FILE]),
        (0, ["--help"]),
        (1, ["match", "--rule", "no_such_rule.json", "--graph", BANK_GRAPH_FILE]),
        (2, ["apply", "--rule", ENSURE_NO_ACCOUNT_FILE, "--graph", BANK_GRAPH_FILE,
             "--base-match", MATCH_C2_FILE, "--out", str(tmp_path / "none.json")]),
        (3, ["audit", "--rule", ENSURE_ACCOUNT_FILE, "--graph", BANK_GRAPH_FILE,
             "--out", str(tmp_path / "out.json"), "--trace", str(tmp_path / "trace.json")]),
    ]
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            for code, argv in cases:
                assert main(argv) == code, argv
                assert gc.isenabled() is enabled, argv
                capsys.readouterr()
    finally:
        (gc.enable if was else gc.disable)()
    assert paused == [True, True]


def test_help_and_usage_exit_codes(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main([]) == 1
    capsys.readouterr()
    assert main(["match", "--rule", ENSURE_ACCOUNT_FILE]) == 1  # --graph missing
    capsys.readouterr()


# The help texts at 80 columns, pinned so that a change to how the parser
# is built cannot change what any subcommand documents.
_HELP = {
    "": (
        "usage: effectgraph [-h] [--no-color]\n"
        "                   {validate,match,apply,induced,bounds,audit} ...\n"
        "\n"
        "Typed-graph rewriting with effect-oriented rules.\n"
        "\n"
        "positional arguments:\n"
        "  {validate,match,apply,induced,bounds,audit}\n"
        "    validate            check document files\n"
        "    match               find matches under a strategy\n"
        "    apply               transform a graph and write the result\n"
        "    induced             list or count induced selections\n"
        "    bounds              print selection-count bounds\n"
        "    audit               verify a recorded transformation\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --no-color            disable colored output\n"
    ),
    "validate": (
        "usage: effectgraph validate [-h] [--types FILE] FILE [FILE ...]\n"
        "\n"
        "positional arguments:\n"
        "  FILE\n"
        "\n"
        "options:\n"
        "  -h, --help    show this help message and exit\n"
        "  --types FILE  additional type graph file (repeatable)\n"
    ),
    "match": (
        "usage: effectgraph match [-h] [--types FILE] --rule FILE --graph FILE\n"
        "                         [--strategy {locally-complete,locally-maximal,globally-maximal}]\n"
        "                         [--base-match FILE] [--all]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --types FILE          additional type graph file (repeatable)\n"
        "  --rule FILE\n"
        "  --graph FILE\n"
        "  --strategy {locally-complete,locally-maximal,globally-maximal}\n"
        "  --base-match FILE\n"
        "  --all                 print every result\n"
    ),
    "apply": (
        "usage: effectgraph apply [-h] [--types FILE] --rule FILE --graph FILE\n"
        "                         [--strategy {locally-complete,locally-maximal,globally-maximal}]\n"
        "                         [--base-match FILE] --out FILE [--trace FILE]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --types FILE          additional type graph file (repeatable)\n"
        "  --rule FILE\n"
        "  --graph FILE\n"
        "  --strategy {locally-complete,locally-maximal,globally-maximal}\n"
        "  --base-match FILE\n"
        "  --out FILE\n"
        "  --trace FILE          record the transformation\n"
    ),
    "induced": (
        "usage: effectgraph induced [-h] [--types FILE] --rule FILE\n"
        "                           [--filter {none,weak-left,left,weak-right,right}]\n"
        "                           [--count-only]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --types FILE          additional type graph file (repeatable)\n"
        "  --rule FILE\n"
        "  --filter {none,weak-left,left,weak-right,right}\n"
        "  --count-only\n"
    ),
    "bounds": (
        "usage: effectgraph bounds [-h] [--types FILE] --rule FILE\n"
        "\n"
        "options:\n"
        "  -h, --help    show this help message and exit\n"
        "  --types FILE  additional type graph file (repeatable)\n"
        "  --rule FILE\n"
    ),
    "audit": (
        "usage: effectgraph audit [-h] [--types FILE] --rule FILE --graph FILE --out\n"
        "                         FILE --trace FILE [--report FILE]\n"
        "\n"
        "options:\n"
        "  -h, --help     show this help message and exit\n"
        "  --types FILE   additional type graph file (repeatable)\n"
        "  --rule FILE\n"
        "  --graph FILE\n"
        "  --out FILE\n"
        "  --trace FILE\n"
        "  --report FILE  write the audit report\n"
    ),
}


@pytest.mark.parametrize("command", list(_HELP), ids=lambda c: c or "top-level")
def test_help_texts_are_unchanged(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert main([command, "--help"] if command else ["--help"]) == 0
    assert capsys.readouterr().out == _HELP[command]


def test_no_color_flag_is_accepted(capsys):
    code, out, _ = run(capsys, "--no-color", "validate", TYPE_GRAPH_FILE)
    assert code == 0
    assert "\033[" not in out


def test_importing_the_cli_leaves_out_importlib_resources():
    """The fixtures are found next to the package's source, so a process
    that ``site`` has not already given ``importlib.resources`` does not
    pay for importing it.  The value types are built without
    ``dataclasses``, so neither it nor the ``inspect`` it imports is
    loaded either."""
    src = Path(__file__).resolve().parents[1] / "src"
    names = ("importlib.resources", "dataclasses", "inspect")
    probe = f"import effectgraph.cli, sys; print([m in sys.modules for m in {names!r}])"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stdout.strip() == "[False, False, False]"
