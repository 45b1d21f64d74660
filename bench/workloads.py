"""The three benchmark workloads: ``chain``, ``search`` and ``cli``.

Every workload is a closed loop driven by one caller: the next operation
starts when the previous one returns, and ``cli`` runs one subprocess at a
time.  Each workload offers

* ``setup(tracer)``: build fresh state (hosts, decoded rules, input files,
  warm lazy indexes the user keeps), leaving the position in the sequence
  of operations alone, so a run can repeat it between operations;
* ``op(checks)``: one operation as a user runs it, timed without its
  output checks;
* ``replay_op(checks, tracer)``: the same operation for the traced run,
  with a span around every call into a library layer;
* ``restart()``: go back to the first operation;
* ``mark()`` and ``rewind(mark)``: run one operation again from the same
  state, so the traced run can time each operation with and without spans.

Operations return ``(kind, seconds)``; output checks go through ``checks``
and never compare the engine with its own earlier output.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

from effectgraph.core import TypedGraph
from effectgraph.documents import (
    decode_graph,
    decode_match,
    decode_rule,
    decode_trace,
    decode_type_graph,
    encode_graph,
    encode_trace,
    prematch_from_maps,
    rebuild_transformation,
)
from effectgraph.fixtures import (
    ENSURE_ACCOUNT_FILE,
    ENSURE_NO_ACCOUNT_FILE,
    TYPE_GRAPH_FILE,
    builtin_type_graphs,
    fixture_text,
)
from effectgraph.matching import (
    MatchStats,
    find_globally_maximal,
    find_locally_complete,
    find_locally_maximal,
)
from effectgraph.rules import apply_rule
from effectgraph.semantics import (
    GLOBALLY_MAXIMAL,
    LOCALLY_COMPLETE,
    LOCALLY_MAXIMAL,
    EffectTransformation,
    audit_effect,
    transform,
)

from bank import Bank, bank, best_selection_size

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"


class Checks:
    """Named output checks; counts how often each ran and which failed."""

    def __init__(self) -> None:
        self.ran: dict[str, int] = {}
        self.failures: list[str] = []

    def expect(self, name: str, ok: bool, detail: str = "") -> bool:
        self.ran[name] = self.ran.get(name, 0) + 1
        if not ok:
            self.failures.append(f"{name}: {detail}" if detail else name)
        return ok


def _decode_rules(tracer, *files: str):
    """Decode the banking type graph and the named fixture rules."""
    tg = decode_type_graph(fixture_text(TYPE_GRAPH_FILE))
    registry = {tg.name: tg}
    rules = []
    for name in files:
        with tracer.span("documents.decode_rule"):
            rules.append(decode_rule(fixture_text(name), registry)[1])
    return tg, rules


def _prematch(tracer, eor, host, client):
    with tracer.span("documents.prematch_from_maps"):
        return prematch_from_maps(eor, host, {"c": client}, {})


def traced_transform(tracer, eor, host, strategy, pm):
    """``transform()`` split into the public calls it is made of."""
    with tracer.span(f"matching.{strategy}") as s:
        if strategy == LOCALLY_COMPLETE:
            stats = MatchStats()
            mr = find_locally_complete(eor, host, pm, stats)
        elif strategy == LOCALLY_MAXIMAL:
            mr = next(iter(find_locally_maximal(eor, host, pm)), None)
        else:
            mr = next(iter(find_globally_maximal(eor, host)), None)
    if strategy == LOCALLY_COMPLETE:
        s.counts["backtracks"] = stats.backtracks
    s.counts["no_match"] = int(mr is None)
    if mr is None:
        return None
    with tracer.span("rules.apply_rule") as s:
        record = apply_rule(mr.induced.rule, host, mr.match)
    kept = len(record.context.nodes) + len(record.context.edges)
    s.counts["created"] = len(record.output.nodes) + len(record.output.edges) - kept
    s.counts["deleted"] = len(host.nodes) + len(host.edges) - kept
    return EffectTransformation(
        eor=eor,
        strategy=strategy,
        result=record,
        selection=mr.induced.selection,
        base_prematch=mr.base_prematch,
    )


def traced_audit(tracer, t):
    with tracer.span("semantics.audit") as s:
        report = audit_effect(t)
    s.counts["entries"] = len(report.entries)
    return report


def _edge_tuples(g: TypedGraph) -> dict[str, tuple[str, str, str]]:
    return {eid: (e.type, e.src, e.tgt) for eid, e in g.edges.items()}


def check_provisioned(
    checks: Checks,
    prefix: str,
    before: tuple[dict, dict],
    after: tuple[dict, dict],
    client: str,
) -> None:
    """The output keeps every input element unchanged, adds only new ids,
    and gives ``client`` an ``accounts`` -> ``portfolio`` path."""
    (in_nodes, in_edges), (out_nodes, out_edges) = before, after
    kept = all(out_nodes.get(k) == v for k, v in in_nodes.items()) and all(
        out_edges.get(k) == v for k, v in in_edges.items()
    )
    checks.expect(f"{prefix}.output_extends_input", kept, f"client {client}")
    held = {
        tgt for (t, src, tgt) in out_edges.values() if t == "accounts" and src == client
    }
    path = any(t == "portfolio" and src in held for (t, src, _) in out_edges.values())
    checks.expect(f"{prefix}.client_has_backed_account", path, f"client {client}")


class Chain:
    """Chained ``ensure_account`` steps on bank(N): the write path.

    The chain restarts from a fresh copy of the generated host every
    ``SEGMENT`` steps, so the host stays within 3 * SEGMENT edges of bank(N)
    and the cost of a step does not depend on how many steps a run makes."""

    name = "chain"
    SEGMENT = 50

    def __init__(self, seed: int, size: int) -> None:
        self.seed, self.size = seed, size

    def setup(self, tracer) -> None:
        tg, (self.eor,) = _decode_rules(tracer, ENSURE_ACCOUNT_FILE)
        self.bank = bank(self.size, self.seed, tg)
        self.order = list(self.bank.clients)
        random.Random(f"chain-{self.seed}").shuffle(self.order)

    def restart(self) -> None:
        self.pos, self.host = 0, None

    def mark(self):
        return self.pos, self.host

    def rewind(self, mark) -> None:
        self.pos, host = mark
        # A fresh copy, so a repeated step builds the lazy indexes again.
        if host is not None:
            host = TypedGraph(host.type_graph, host.nodes, host.edges)
        self.host = host

    def _next(self) -> tuple[TypedGraph, str]:
        if self.pos % self.SEGMENT == 0:
            base = self.bank.graph
            self.host = TypedGraph(base.type_graph, base.nodes, base.edges)
        client = self.order[self.pos % len(self.order)]
        self.pos += 1
        return self.host, client

    def op(self, checks: Checks):
        host, client = self._next()
        t0 = perf_counter()
        pm = prematch_from_maps(self.eor, host, {"c": client}, {})
        t = transform(self.eor, host, LOCALLY_COMPLETE, pm)
        if t is not None:
            audit_effect(t)
        return self._finish(checks, host, client, t, perf_counter() - t0)

    def replay_op(self, checks: Checks, tracer):
        host, client = self._next()
        t0 = perf_counter()
        with tracer.span("chain.step") as root:
            pm = _prematch(tracer, self.eor, host, client)
            t = traced_transform(tracer, self.eor, host, LOCALLY_COMPLETE, pm)
            if t is not None:
                traced_audit(tracer, t)
        root.counts.update(host_nodes=len(host.nodes), host_edges=len(host.edges))
        return self._finish(checks, host, client, t, perf_counter() - t0)

    def _finish(self, checks, host, client, t, seconds):
        if checks.expect("chain.match_found", t is not None, f"client {client}"):
            checks.expect("chain.audit_passes", True)  # audit_effect raises otherwise
            out = t.result.output
            check_provisioned(
                checks,
                "chain",
                (dict(host.nodes), _edge_tuples(host)),
                (out.nodes, _edge_tuples(out)),
                client,
            )
            self.host = out
        return "step", seconds

    def close(self) -> None:
        pass


# Search hosts are always generated from this seed; the workload seed picks
# the clients and the order of the queries.  Search cost grows with the
# product of the account and portfolio counts, which for bank(100) and
# bank(20) vary between generator seeds by a factor of two and more.
SEARCH_HOST_SEED = 0
SEARCH_KINDS = ("teardown", "local_max", "global_max")


class Search:
    """Read-only queries on fixed hosts whose indexes stay warm."""

    name = "search"

    def __init__(self, seed: int, size: tuple[int, int]) -> None:
        self.seed, self.size = seed, size

    def setup(self, tracer) -> None:
        tg, (self.account, self.no_account) = _decode_rules(
            tracer, ENSURE_ACCOUNT_FILE, ENSURE_NO_ACCOUNT_FILE
        )
        self.big = bank(self.size[0], SEARCH_HOST_SEED, tg)
        self.small = bank(self.size[1], SEARCH_HOST_SEED, tg)
        for b in (self.big, self.small):
            g = b.graph  # build the lazy indexes every query reuses
            g.sorted_nodes, g.sorted_edges, g.nodes_by_type, g.edge_classes, g.incidence

    def restart(self) -> None:
        self.rng = random.Random(f"search-{self.seed}")
        self.queue: list[str] = []

    def mark(self):
        return self.rng.getstate(), tuple(self.queue)

    def rewind(self, mark) -> None:
        state, queue = mark
        self.rng.setstate(state)
        self.queue = list(queue)

    def _next(self):
        if not self.queue:
            self.queue = list(SEARCH_KINDS)
            self.rng.shuffle(self.queue)
        kind = self.queue.pop()
        client = self.rng.choice(self.big.clients)
        if kind == "teardown":
            return kind, self.no_account, self.big, LOCALLY_COMPLETE, client
        if kind == "local_max":
            return kind, self.account, self.big, LOCALLY_MAXIMAL, client
        return kind, self.account, self.small, GLOBALLY_MAXIMAL, None

    def op(self, checks: Checks):
        kind, eor, b, strategy, client = self._next()
        t0 = perf_counter()
        pm = None if client is None else prematch_from_maps(eor, b.graph, {"c": client}, {})
        t = transform(eor, b.graph, strategy, pm)
        seconds = perf_counter() - t0
        self._check(checks, kind, b, client, t, audit_effect)
        return kind, seconds

    def replay_op(self, checks: Checks, tracer):
        kind, eor, b, strategy, client = self._next()
        t0 = perf_counter()
        with tracer.span(f"search.{kind}") as root:
            pm = None if client is None else _prematch(tracer, eor, b.graph, client)
            t = traced_transform(tracer, eor, b.graph, strategy, pm)
        seconds = perf_counter() - t0
        g = b.graph
        root.counts.update(host_nodes=len(g.nodes), host_edges=len(g.edges))
        self._check(checks, kind, b, client, t, lambda t: traced_audit(tracer, t))
        return kind, seconds

    @staticmethod
    def _check(checks, kind, b: Bank, client, t, audit) -> None:
        if kind == "teardown":
            # Every account has an owns_account edge the rule cannot delete.
            expect_none = any(b.accounts.values())
            checks.expect("search.teardown_no_match", (t is None) == expect_none, client)
            return
        want = best_selection_size(b, client)
        got = None if t is None else t.selection.size
        checks.expect("search.selection_size", got == want, f"{kind}: {got} != {want}")
        if t is not None:
            audit(t)  # raises AuditFailure on a failed audit
            checks.expect("search.audit_passes", True)

    def close(self) -> None:
        pass


class Cli:
    """``effectgraph apply`` then ``effectgraph audit``, one process at a time."""

    name = "cli"

    def __init__(self, seed: int, size: int) -> None:
        self.seed, self.size = seed, size
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        OUT.mkdir(exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="cli-", dir=OUT))

    def setup(self, tracer) -> None:
        tg, _ = _decode_rules(tracer, ENSURE_ACCOUNT_FILE)
        self.bank = bank(self.size, self.seed, tg)
        g = self.bank.graph
        self.graph_file = self.dir / "host.json"
        self.graph_file.write_text(encode_graph(g), encoding="utf-8")
        self.input = (dict(g.nodes), _edge_tuples(g))

    def restart(self) -> None:
        self.rng = random.Random(f"cli-{self.seed}")
        self.applied = False
        self.client = None

    def mark(self):
        return self.rng.getstate(), self.applied, self.client

    def rewind(self, mark) -> None:
        state, self.applied, self.client = mark
        self.rng.setstate(state)

    def _files(self, tag: str) -> dict[str, Path]:
        return {k: self.dir / f"{tag}-{k}.json" for k in ("match", "out", "trace")}

    def _next(self, tag: str):
        """The next kind; before an apply, a fresh seeded client and match file."""
        files = self._files(tag)
        if self.applied:
            self.applied = False
            return "audit", files
        self.applied = True
        self.client = self.rng.choice(self.bank.clients)
        doc = {"kind": "match", "nodes": {"c": self.client}, "edges": {}}
        files["match"].write_text(json.dumps(doc), encoding="utf-8")
        for stale in (files["out"], files["trace"]):
            stale.unlink(missing_ok=True)
        return "apply", files

    def _cli(self, *argv: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "effectgraph.cli", *argv],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=120,
        )

    def op(self, checks: Checks):
        kind, f = self._next("proc")
        common = ["--rule", ENSURE_ACCOUNT_FILE, "--graph", str(self.graph_file)]
        t0 = perf_counter()
        if kind == "apply":
            proc = self._cli(
                "apply", *common, "--strategy", "locally-complete",
                "--base-match", str(f["match"]), "--out", str(f["out"]),
                "--trace", str(f["trace"]),
            )
        else:
            proc = self._cli(
                "audit", *common, "--out", str(f["out"]), "--trace", str(f["trace"])
            )
        seconds = perf_counter() - t0
        if kind == "apply":
            ok = checks.expect(
                "cli.apply_exit_0", proc.returncode == 0, proc.stderr.strip()
            )
            if ok:
                self._check_output(checks, f["out"].read_text(encoding="utf-8"))
        else:
            checks.expect(
                "cli.audit_passed",
                proc.returncode == 0 and "audit passed" in proc.stdout,
                proc.stderr.strip(),
            )
        return kind, seconds

    def _check_output(self, checks: Checks, text: str) -> None:
        try:
            doc = json.loads(text)
            nodes = {n["id"]: n["type"] for n in doc["nodes"]}
            edges = {e["id"]: (e["type"], e["src"], e["tgt"]) for e in doc["edges"]}
            decoded = doc["kind"] == "graph"
        except (ValueError, KeyError, TypeError):
            decoded = False
        if checks.expect("cli.output_decodes", decoded):
            check_provisioned(checks, "cli", self.input, (nodes, edges), self.client)

    def replay_op(self, checks: Checks, tracer):
        """The same apply/audit sequence in process, the way ``cli`` runs it."""
        kind, f = self._next("replay")
        registry = builtin_type_graphs()
        t0 = perf_counter()
        with tracer.span(f"cli.{kind}") as root:
            with tracer.span("documents.decode_rule"):
                name, eor = decode_rule(fixture_text(ENSURE_ACCOUNT_FILE), registry)
            with tracer.span("documents.decode_graph"):
                host = decode_graph(self.graph_file.read_text(encoding="utf-8"), registry)
            if kind == "apply":
                node_map, edge_map = decode_match(f["match"].read_text(encoding="utf-8"))
                with tracer.span("documents.prematch_from_maps"):
                    pm = prematch_from_maps(eor, host, node_map, edge_map)
                t = traced_transform(tracer, eor, host, LOCALLY_COMPLETE, pm)
                with tracer.span("documents.encode_graph") as s:
                    text = encode_graph(t.result.output)
                s.counts["bytes"] = len(text.encode("utf-8"))
                f["out"].write_text(text, encoding="utf-8")
                with tracer.span("documents.encode_trace"):
                    trace_text = encode_trace(t, name)
                f["trace"].write_text(trace_text, encoding="utf-8")
            else:
                with tracer.span("documents.decode_graph"):
                    out = decode_graph(f["out"].read_text(encoding="utf-8"), registry)
                with tracer.span("documents.decode_trace"):
                    trace = decode_trace(f["trace"].read_text(encoding="utf-8"))
                with tracer.span("documents.rebuild_transformation"):
                    t = rebuild_transformation(eor, host, trace, out)
                traced_audit(tracer, t)  # raises AuditFailure on a failed audit
        seconds = perf_counter() - t0
        root.counts.update(host_nodes=len(host.nodes), host_edges=len(host.edges))
        if kind == "apply":
            self._check_output(checks, text)
        else:
            checks.expect("cli.audit_passed", True)
        return kind, seconds

    def import_ms(self, repeats: int) -> float:
        """Wall time of ``import effectgraph.cli`` minus bare interpreter start-up."""
        bare, full = [], []
        for _ in range(repeats):
            for code, into in (("pass", bare), ("import effectgraph.cli", full)):
                t0 = perf_counter()
                subprocess.run(
                    [sys.executable, "-c", code],
                    cwd=ROOT,
                    env=self.env,
                    check=True,
                    timeout=60,
                )
                into.append(perf_counter() - t0)
        return (statistics.median(full) - statistics.median(bare)) * 1e3

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
