"""Command-line front end.

Subcommands: ``validate`` checks document files, ``match`` finds matches
under a strategy, ``apply`` performs a transformation and writes the
result, ``induced`` lists or counts selections, ``bounds`` prints the
selection-count bounds, and ``audit`` replays a recorded transformation and
verifies its effect guarantees.

Exit codes: 0 success, 1 parse or validation failure, 2 no match under the
requested strategy, 3 audit failure.

A step decodes its input graph once and encodes one graph: ``audit``
compares the recorded output's text with the encoding of the replay, and
decodes the output only when the two differ, to report its fault or the
mismatch.  :func:`main` pauses the cyclic garbage collector for the call.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path

from .core import EffectGraphError, TypeGraph
from .documents import (
    ParseError,
    ValidationError,
    _check_output,
    _load,
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
    rebuild_transformation,
)
from .effect import (
    SELECTION_FILTERS,
    count_bounds,
    count_selections,
    enumerate_selections,
)
from .fixtures import builtin_type_graphs, fixture_path
from .matching import (
    MatchResult,
    find_all_locally_complete,
    find_locally_maximal,
    find_globally_maximal,
)
from .semantics import (
    GLOBALLY_MAXIMAL,
    LOCALLY_COMPLETE,
    STRATEGIES,
    AuditFailure,
    StrategyArgumentMismatch,
    audit_effect,
    find_match,
    transform,
)

_STRATEGY_CHOICES = tuple(s.replace("_", "-") for s in STRATEGIES)
_FILTER_CHOICES = tuple(f.replace("_", "-") for f in SELECTION_FILTERS)


def _color_enabled(args: argparse.Namespace) -> bool:
    if args.no_color or os.environ.get("NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str, enabled: bool) -> str:
    return f"\033[{code}m{text}\033[0m" if enabled else text


def _read(path: str) -> str:
    p = Path(path)
    try:
        return (p if p.is_file() else fixture_path(path)).read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ParseError(f"no such file: {path}") from None
    except UnicodeDecodeError as exc:  # JSON text is UTF-8 (RFC 8259)
        raise ParseError(f"not valid JSON: {exc}") from None


def _registry(args: argparse.Namespace) -> dict[str, TypeGraph]:
    registry = builtin_type_graphs()
    for path in args.types or []:
        tg = decode_type_graph(_read(path))
        registry[tg.name] = tg
    return registry


def _strategy(args: argparse.Namespace) -> str:
    return args.strategy.replace("-", "_")


def _base_prematch(args, eor, host):
    if _strategy(args) == GLOBALLY_MAXIMAL:
        if args.base_match:
            raise StrategyArgumentMismatch(
                "the globally-maximal strategy finds its own pre-matches; "
                "drop --base-match"
            )
        return None
    if not args.base_match:
        raise StrategyArgumentMismatch(
            f"strategy {args.strategy} needs --base-match"
        )
    node_map, edge_map = decode_match(_read(args.base_match))
    return prematch_from_maps(eor, host, node_map, edge_map)


def _format_ids(ids) -> str:
    return ", ".join(sorted(ids)) if ids else "-"


def _print_result(mr: MatchResult) -> None:
    sel = mr.induced.selection
    print(f"selection (size {mr.induced.size})")
    print(f"  delete:   {_format_ids(sel.del_extra.nodes | sel.del_extra.edges)}")
    print(
        "  preserve: "
        f"{_format_ids(sel.preserve_extra.nodes | sel.preserve_extra.edges)}"
    )
    print("nodes")
    for nid in sorted(mr.match.node_map):
        print(f"  {nid} -> {mr.match.node_map[nid]}")
    print("edges")
    for eid in sorted(mr.match.edge_map):
        print(f"  {eid} -> {mr.match.edge_map[eid]}")


def _find_results(strategy: str, eor, host, pm) -> list[MatchResult]:
    """Every result of ``match --all`` under ``strategy``."""
    if strategy == GLOBALLY_MAXIMAL:
        return find_globally_maximal(eor, host)
    if strategy == LOCALLY_COMPLETE:
        return find_all_locally_complete(eor, host, pm)
    return find_locally_maximal(eor, host, pm)


def cmd_match(args: argparse.Namespace, registry: dict[str, TypeGraph]) -> int:
    _, eor = decode_rule(_read(args.rule), registry)
    host = decode_graph(_read(args.graph), registry)
    strategy, pm = _strategy(args), _base_prematch(args, eor, host)
    if args.all:
        results = _find_results(strategy, eor, host, pm)
    else:
        mr = find_match(eor, host, strategy, pm)
        results = [mr] if mr else []
    if not results:
        print("no match")
        return 2
    for i, mr in enumerate(results):
        if i:
            print()
        _print_result(mr)
    return 0


def cmd_apply(args: argparse.Namespace, registry: dict[str, TypeGraph]) -> int:
    rule_name, eor = decode_rule(_read(args.rule), registry)
    host = decode_graph(_read(args.graph), registry)
    strategy = _strategy(args)
    pm = _base_prematch(args, eor, host)
    t = transform(eor, host, strategy, pm)
    if t is None:
        print("no match")
        return 2
    record = t.result
    Path(args.out).write_text(encode_graph(record.output), encoding="utf-8")
    if args.trace:
        Path(args.trace).write_text(
            encode_trace(t, rule_name), encoding="utf-8"
        )
    created = record.created.nodes | record.created.edges
    deleted = record.deleted.nodes | record.deleted.edges
    reused = {
        record.match.node_map[x] for x in t.selection.preserve_extra.nodes
    } | {record.match.edge_map[x] for x in t.selection.preserve_extra.edges}
    print(f"created: {_format_ids(created)}")
    print(f"deleted: {_format_ids(deleted)}")
    print(f"reused:  {_format_ids(reused)}")
    print(f"wrote {args.out}")
    return 0


def cmd_induced(args: argparse.Namespace, registry: dict[str, TypeGraph]) -> int:
    _, eor = decode_rule(_read(args.rule), registry)
    selection_filter = args.filter.replace("-", "_")
    if args.count_only:
        print(count_selections(eor, selection_filter))
        return 0
    for sel in enumerate_selections(eor, selection_filter):
        delete = _format_ids(sel.del_extra.nodes | sel.del_extra.edges)
        preserve = _format_ids(sel.preserve_extra.nodes | sel.preserve_extra.edges)
        print(f"size {sel.size}  delete: {delete}  preserve: {preserve}")
    return 0


def cmd_bounds(args: argparse.Namespace, registry: dict[str, TypeGraph]) -> int:
    _, eor = decode_rule(_read(args.rule), registry)
    lower, upper = count_bounds(eor)
    print(lower, upper)
    return 0


def cmd_validate(args: argparse.Namespace, registry: dict[str, TypeGraph]) -> int:
    color = _color_enabled(args)

    def register(doc: dict) -> None:
        tg = decode_type_graph(doc)
        registry[tg.name] = tg

    decoders = {
        "type_graph": register,
        "graph": lambda doc: decode_graph(doc, registry),
        "rule": lambda doc: decode_rule(doc, registry),
        "match": decode_match,
        "trace": decode_trace,
        "audit_report": decode_audit_report,
    }
    docs: list[tuple[str, dict | ParseError]] = []
    for path in args.files:
        try:
            docs.append((path, _load(_read(path))))
        except ParseError as exc:
            docs.append((path, exc))
    # Unreadable files and type graphs first, each in the order given, so
    # that a type graph registers before the files that refer to it.
    docs.sort(key=lambda d: isinstance(d[1], dict) and d[1].get("kind") != "type_graph")
    failures = 0
    for path, doc in docs:
        try:
            if isinstance(doc, ParseError):
                raise doc
            kind = doc.get("kind")
            decoder = decoders.get(kind) if isinstance(kind, str) else None
            if decoder is None:
                raise ParseError(f"unknown document kind {kind!r}")
            decoder(doc)
        except ValidationError as exc:
            problems = [str(d) for d in exc.diagnostics]
        except ParseError as exc:
            problems = [str(exc)]
        else:
            problems = []
        failures += bool(problems)
        for problem in problems:
            print(f"{_paint('FAIL', '31', color)} {path}: {problem}")
        if not problems:
            print(f"{_paint('ok', '32', color)} {path}")
    return 1 if failures else 0


def cmd_audit(args: argparse.Namespace, registry: dict[str, TypeGraph]) -> int:
    rule_name, eor = decode_rule(_read(args.rule), registry)
    host = decode_graph(_read(args.graph), registry)
    out_text = _read(args.out)
    try:
        trace = decode_trace(_read(args.trace))
        if trace.rule != rule_name:
            raise ValidationError(
                [f"trace was recorded for rule {trace.rule!r}, not {rule_name!r}"]
            )
        t = rebuild_transformation(eor, host, trace)
    except (EffectGraphError, OSError):
        # A fault of the recorded output's own document is reported first.
        decode_graph(out_text, registry)
        raise
    # The encoding is canonical: only other text can hold another graph.
    if out_text != encode_graph(t.result.output):
        _check_output(decode_graph(out_text, registry), t.result.output)
    color = _color_enabled(args)
    try:
        report = audit_effect(t)
    except AuditFailure as exc:
        print(f"{_paint('audit failed', '31', color)}: {exc}", file=sys.stderr)
        return 3
    for entry in report.entries:
        print(f"{entry.kind} {entry.element}: {entry.clause}")
    if args.report:
        Path(args.report).write_text(
            encode_audit_report(report), encoding="utf-8"
        )
    print(
        f"{_paint('audit passed', '32', color)} ({len(report.entries)} entries)"
    )
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="effectgraph",
        description="Typed-graph rewriting with effect-oriented rules.",
    )
    parser.add_argument(
        "--no-color", action="store_true", help="disable colored output"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    repeatable = "additional type graph file (repeatable)"
    types = ("--types", {"action": "append", "metavar": "FILE", "help": repeatable})
    file = {"required": True, "metavar": "FILE"}
    match = [
        ("--rule", file),
        ("--graph", file),
        ("--strategy", {"choices": _STRATEGY_CHOICES, "default": "locally-complete"}),
        ("--base-match", {"metavar": "FILE"}),
    ]
    # Each subcommand's name, help, handler and the arguments after --types.
    commands = (
        ("validate", "check document files", cmd_validate, [
            ("files", {"nargs": "+", "metavar": "FILE"}),
        ]),
        ("match", "find matches under a strategy", cmd_match, [
            *match,
            ("--all", {"action": "store_true", "help": "print every result"}),
        ]),
        ("apply", "transform a graph and write the result", cmd_apply, [
            *match,
            ("--out", file),
            ("--trace", {"metavar": "FILE", "help": "record the transformation"}),
        ]),
        ("induced", "list or count induced selections", cmd_induced, [
            ("--rule", file),
            ("--filter", {"choices": _FILTER_CHOICES, "default": "none"}),
            ("--count-only", {"action": "store_true"}),
        ]),
        ("bounds", "print selection-count bounds", cmd_bounds, [("--rule", file)]),
        ("audit", "verify a recorded transformation", cmd_audit, [
            *((flag, file) for flag in ("--rule", "--graph", "--out", "--trace")),
            ("--report", {"metavar": "FILE", "help": "write the audit report"}),
        ]),
    )
    for name, summary, handler, arguments in commands:
        p = sub.add_parser(name, help=summary)
        for flag, options in (types, *arguments):
            p.add_argument(flag, **options)
        p.set_defaults(func=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    # A call frees little before it returns, so collections during it would
    # only rescan live documents and graphs.  The collector is paused for
    # the call and left as it was found.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: list[str] | None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args, _registry(args))
    except ValidationError as exc:
        for d in exc.diagnostics:
            # Placeholder-coded diagnostics carry the whole story in their
            # message; echoing the code would just add noise.
            text = d.message if d.code == "invalid" and d.element is None else str(d)
            print(f"error: {text}", file=sys.stderr)
        return 1
    except (ParseError, EffectGraphError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
