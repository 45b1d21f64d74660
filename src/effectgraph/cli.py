"""Command-line front end.

Subcommands: ``validate`` checks document files, ``match`` finds matches
under a strategy, ``apply`` performs a transformation and writes the
result, ``induced`` lists or counts selections, ``bounds`` prints the
selection-count bounds, and ``audit`` replays a recorded transformation and
verifies its effect guarantees.

Exit codes: 0 success, 1 parse or validation failure, 2 no match under the
requested strategy, 3 audit failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path
from typing import Mapping

from .core import EffectGraphError, TypeGraph, TypedGraph
from .documents import (
    ParseError,
    ValidationError,
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
from .effect import SELECTION_FILTERS, count_bounds, enumerate_selections
from .fixtures import builtin_type_graphs, fixture_path
from .matching import (
    MatchResult,
    find_all_locally_complete,
    find_locally_complete,
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
    transform,
)

_STRATEGY_CHOICES = tuple(s.replace("_", "-") for s in STRATEGIES)
_FILTER_CHOICES = tuple(f.replace("_", "-") for f in SELECTION_FILTERS)


def _color_enabled(args: argparse.Namespace) -> bool:
    if getattr(args, "no_color", False) or os.environ.get("NO_COLOR"):
        return False
    return sys.stdout.isatty()


def _paint(text: str, code: str, enabled: bool) -> str:
    return f"\033[{code}m{text}\033[0m" if enabled else text


def _read(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        try:
            p = fixture_path(path)
        except FileNotFoundError:
            raise ParseError(f"no such file: {path}") from None
    return p.read_text(encoding="utf-8")


def _registry(args: argparse.Namespace) -> dict[str, TypeGraph]:
    registry = builtin_type_graphs()
    for path in getattr(args, "types", None) or []:
        tg = decode_type_graph(_read(path))
        registry[tg.name] = tg
    return registry


def _load_rule(args: argparse.Namespace, registry: Mapping[str, TypeGraph]):
    return decode_rule(_read(args.rule), registry)


def _load_graph(args: argparse.Namespace, registry: Mapping[str, TypeGraph]) -> TypedGraph:
    return decode_graph(_read(args.graph), registry)


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


def _find_results(args, eor, host) -> list[MatchResult]:
    strategy = _strategy(args)
    pm = _base_prematch(args, eor, host)
    if strategy == GLOBALLY_MAXIMAL:
        return find_globally_maximal(eor, host)
    if strategy == LOCALLY_COMPLETE:
        if getattr(args, "all", False):
            return find_all_locally_complete(eor, host, pm)
        mr = find_locally_complete(eor, host, pm)
        return [mr] if mr else []
    return find_locally_maximal(eor, host, pm)


def cmd_match(args: argparse.Namespace) -> int:
    registry = _registry(args)
    _, eor = _load_rule(args, registry)
    host = _load_graph(args, registry)
    results = _find_results(args, eor, host)
    if not results:
        print("no match")
        return 2
    if not getattr(args, "all", False):
        results = results[:1]
    for i, mr in enumerate(results):
        if i:
            print()
        _print_result(mr)
    return 0


def cmd_apply(args: argparse.Namespace) -> int:
    registry = _registry(args)
    rule_name, eor = _load_rule(args, registry)
    host = _load_graph(args, registry)
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


def cmd_induced(args: argparse.Namespace) -> int:
    registry = _registry(args)
    _, eor = _load_rule(args, registry)
    selections = enumerate_selections(eor, args.filter.replace("-", "_"))
    if args.count_only:
        print(len(selections))
        return 0
    for sel in selections:
        delete = _format_ids(sel.del_extra.nodes | sel.del_extra.edges)
        preserve = _format_ids(sel.preserve_extra.nodes | sel.preserve_extra.edges)
        print(f"size {sel.size}  delete: {delete}  preserve: {preserve}")
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    registry = _registry(args)
    _, eor = _load_rule(args, registry)
    lower, upper = count_bounds(eor)
    print(lower, upper)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    color = _color_enabled(args)
    registry = _registry(args)
    decoders = {
        "graph": lambda text: decode_graph(text, registry),
        "rule": lambda text: decode_rule(text, registry),
        "match": decode_match,
        "trace": decode_trace,
        "audit_report": decode_audit_report,
    }
    failures = 0

    def report(path: str, problems: list[str]) -> None:
        nonlocal failures
        if problems:
            failures += 1
            for problem in problems:
                print(f"{_paint('FAIL', '31', color)} {path}: {problem}")
        else:
            print(f"{_paint('ok', '32', color)} {path}")

    remaining: list[tuple[str, str, str]] = []
    for path in args.files:
        try:
            text = _read(path)
            kind = json.loads(text).get("kind") if text.lstrip().startswith("{") else None
        except (ParseError, json.JSONDecodeError) as exc:
            report(path, [str(exc)])
            continue
        if kind == "type_graph":
            # Register first so later files can refer to this type graph.
            try:
                tg = decode_type_graph(text)
                registry[tg.name] = tg
                report(path, [])
            except (ParseError, ValidationError) as exc:
                report(path, [str(exc)])
        else:
            remaining.append((path, text, kind))
    for path, text, kind in remaining:
        decoder = decoders.get(kind) if isinstance(kind, str) else None
        if decoder is None:
            report(path, [f"unknown document kind {kind!r}"])
            continue
        try:
            decoder(text)
        except ValidationError as exc:
            report(path, [str(d) for d in exc.diagnostics])
        except ParseError as exc:
            report(path, [str(exc)])
        else:
            report(path, [])
    return 1 if failures else 0


def cmd_audit(args: argparse.Namespace) -> int:
    registry = _registry(args)
    rule_name, eor = _load_rule(args, registry)
    host = _load_graph(args, registry)
    output = decode_graph(_read(args.out), registry)
    trace = decode_trace(_read(args.trace))
    if trace.rule != rule_name:
        raise ValidationError(
            [f"trace was recorded for rule {trace.rule!r}, not {rule_name!r}"]
        )
    t = rebuild_transformation(eor, host, trace, output)
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

    def add_types(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--types",
            action="append",
            metavar="FILE",
            help="additional type graph file (repeatable)",
        )

    p = sub.add_parser("validate", help="check document files")
    add_types(p)
    p.add_argument("files", nargs="+", metavar="FILE")
    p.set_defaults(func=cmd_validate)

    def add_match_args(p: argparse.ArgumentParser) -> None:
        add_types(p)
        p.add_argument("--rule", required=True, metavar="FILE")
        p.add_argument("--graph", required=True, metavar="FILE")
        p.add_argument(
            "--strategy",
            choices=_STRATEGY_CHOICES,
            default="locally-complete",
        )
        p.add_argument("--base-match", metavar="FILE")

    p = sub.add_parser("match", help="find matches under a strategy")
    add_match_args(p)
    p.add_argument("--all", action="store_true", help="print every result")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("apply", help="transform a graph and write the result")
    add_match_args(p)
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--trace", metavar="FILE", help="record the transformation")
    p.set_defaults(func=cmd_apply)

    p = sub.add_parser("induced", help="list or count induced selections")
    add_types(p)
    p.add_argument("--rule", required=True, metavar="FILE")
    p.add_argument("--filter", choices=_FILTER_CHOICES, default="none")
    p.add_argument("--count-only", action="store_true")
    p.set_defaults(func=cmd_induced)

    p = sub.add_parser("bounds", help="print selection-count bounds")
    add_types(p)
    p.add_argument("--rule", required=True, metavar="FILE")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("audit", help="verify a recorded transformation")
    add_types(p)
    p.add_argument("--rule", required=True, metavar="FILE")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--out", required=True, metavar="FILE")
    p.add_argument("--trace", required=True, metavar="FILE")
    p.add_argument("--report", metavar="FILE", help="write the audit report")
    p.set_defaults(func=cmd_audit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
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
