"""Benchmark of the effectgraph engine.

Run from the root of a checkout:

    python3 bench/run.py --workload {chain,search,cli} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

``--trace 0`` measures the workload as a user runs it and reports the
end-to-end metrics; ``--trace 1`` replays it with a span around every call
into a library layer and reports per-layer metrics and the tracing
overhead.  Human-readable ``name value unit`` lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Everything, spans included, is
also written to ``bench/out/``.  ``--smoke`` runs every workload on tiny
hosts, traced and untraced, and checks that every metric is printed with
its unit and every output check runs.

Every time the benchmark reports is rescaled to a fixed machine speed,
gauged by timing the fixed work of ``reference.py`` in between the
workload's operations; the untraced run prints the raw figures too.

The library is imported from ``src/`` of the checkout, never from an
installed copy.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from reference import Gauge
from spans import NoTracer, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Metrics the final JSON line carries, the same on every workload.  The
# times are rescaled to the reference speed of reference.py, operation by
# operation: the host's speed changes within seconds by up to 1.7 times,
# and rescaling cancels that (across 15 s windows of one run, the spread of
# the operation rate fell from 0.11-0.21 of the median to 0.02-0.03 on
# chain and search).  The untraced run also prints op_p50_ms, op_p90_ms,
# the per-kind medians of KIND_P50, failed_ratio and the raw figures.  They
# are not carried: a latency percentile is less steady than ops_per_s, a
# median over slices of the run; the per-kind medians exist on one workload
# each, and failed_ratio is 0 when nothing fails.
E2E = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics the final JSON line carries: those every workload's
# traced run measures and an optimisation is likely to move.  The traced
# run prints every metric of LAYER_UNITS that its workload exercises.
PER_LAYER = {
    "matching.locally_complete_ms": "ms",
    "matching.backtracks": "count",
    "rules.apply_rule_ms": "ms",
    "semantics.audit_ms": "ms",
    "documents.prematch_from_maps_ms": "ms",
    "documents.decode_rule_ms": "ms",
    "trace.overhead_pct": "%",
}

# Extra lines each workload prints on top of E2E, by kind of operation.
KIND_P50 = {
    "search": ("teardown", "local_max", "global_max"),
    "cli": ("apply", "audit"),
}

# Per-layer metric -> the end-to-end metric it should move, and where.
LAYER_TARGETS = {
    "matching.locally_complete_ms": "teardown_p50_ms on search; op_p50_ms on chain "
    "(absorbs the new host's lazy index build); nothing on cli",
    "matching.backtracks": "teardown_p50_ms on search",
    "matching.no_match_ratio": "teardown_p50_ms on search",
    "matching.locally_maximal_ms": "local_max_p50_ms on search",
    "matching.globally_maximal_ms": "global_max_p50_ms on search",
    "rules.apply_rule_ms": "op_p50_ms and ops_per_s on chain; under 1% of search; "
    "a few % of apply_p50_ms on cli",
    "rules.created": "op_p50_ms and ops_per_s on chain",
    "rules.deleted": "op_p50_ms and ops_per_s on chain",
    "semantics.audit_ms": "op_p50_ms on chain (small); audit_p50_ms on cli",
    "semantics.audit_entries": "op_p50_ms on chain (small); audit_p50_ms on cli",
    "documents.prematch_from_maps_ms": "op_p50_ms on chain",
    "documents.decode_rule_ms": "apply_p50_ms and audit_p50_ms on cli; setup_s everywhere",
    "documents.decode_graph_ms": "apply_p50_ms and audit_p50_ms on cli",
    "documents.encode_graph_ms": "apply_p50_ms on cli",
    "documents.encode_trace_ms": "apply_p50_ms on cli",
    "documents.decode_trace_ms": "audit_p50_ms on cli",
    "documents.rebuild_transformation_ms": "audit_p50_ms on cli",
    "documents.graph_bytes": "apply_p50_ms and audit_p50_ms on cli",
    "cli.import_ms": "apply_p50_ms and audit_p50_ms on cli",
    "core.host_nodes": "workload sanity",
    "core.host_edges": "workload sanity",
    "trace.overhead_pct": "traced minus untraced total, over untraced",
}
LAYER_UNITS = {
    **PER_LAYER,
    "matching.no_match_ratio": "ratio",
    "matching.locally_maximal_ms": "ms",
    "matching.globally_maximal_ms": "ms",
    "rules.created": "count",
    "rules.deleted": "count",
    "semantics.audit_entries": "count",
    "documents.decode_graph_ms": "ms",
    "documents.encode_graph_ms": "ms",
    "documents.encode_trace_ms": "ms",
    "documents.decode_trace_ms": "ms",
    "documents.rebuild_transformation_ms": "ms",
    "documents.graph_bytes": "bytes",
    "cli.import_ms": "ms",
    "core.host_nodes": "count",
    "core.host_edges": "count",
}
# The per-layer metrics each workload's traced run must report.
_MAXIMAL = {"matching.locally_maximal_ms", "matching.globally_maximal_ms"}
_CLI_ONLY = {
    k for k in LAYER_UNITS if k.startswith(("documents.", "cli."))
} - set(PER_LAYER)
LAYERS_OF = {
    "chain": set(LAYER_UNITS) - _MAXIMAL - _CLI_ONLY,
    "search": set(LAYER_UNITS) - _CLI_ONLY,
    "cli": set(LAYER_UNITS) - _MAXIMAL,
}

SIZES = {"chain": 1000, "search": (100, 20), "cli": 1000}
SMOKE_SIZES = {"chain": 30, "search": (12, 6), "cli": 30}
SLICES = 10
WARMUP_OPS = 2
IMPORT_REPEATS = 5


def load_library() -> None:
    """Put the checkout's ``src/`` first on the path and import from it."""
    if not (SRC / "effectgraph" / "__init__.py").is_file():
        sys.exit(f"error: no effectgraph sources under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import effectgraph

    if Path(effectgraph.__file__).resolve().parent != SRC / "effectgraph":
        sys.exit(f"error: effectgraph was imported from {effectgraph.__file__}")


def environment() -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def percentile(xs: list[float], q: int) -> float:
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def make_workload(name: str, seed: int, smoke: bool):
    import workloads

    cls = {"chain": workloads.Chain, "search": workloads.Search, "cli": workloads.Cli}[name]
    return cls(seed, (SMOKE_SIZES if smoke else SIZES)[name])


class Loop:
    """Runs operations in a closed loop and keeps what they measured."""

    def __init__(self, checks) -> None:
        self.checks = checks
        self.samples: list[tuple[str, float]] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def run(self, op, *, seconds: float | None = None, count: int | None = None) -> None:
        deadline = perf_counter() + (seconds or 0.0)
        done = 0
        while (
            done < count if count is not None else done == 0 or perf_counter() < deadline
        ):
            done += 1
            self.attempted += 1
            before = len(self.checks.failures)
            try:
                sample = op()
            except Exception as exc:  # an operation that raises is a failed operation
                self.failed += 1
                self.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            if len(self.checks.failures) > before:
                self.failed += 1
            else:
                self.samples.append(sample)


def run_untraced(wl, seconds: float, checks) -> tuple[Loop, dict]:
    """The workload as a user runs it.

    Every operation and every set-up is followed by one run of the
    reference work of ``reference.py``, which rescales its time to the
    reference speed.  The set-up is repeated at the start of each of
    ``SLICES`` slices of the timed phase; the carried figures are medians
    over the slices.  The raw figures are printed beside them."""
    gauge = Gauge()
    raw: list[float] = []

    def timed_setup() -> float:
        gc.collect()  # each set-up starts from the same collector state
        t0 = perf_counter()
        wl.setup(NoTracer())
        return perf_counter() - t0

    def op():
        kind, seconds = wl.op(checks)
        raw.append(seconds)
        return kind, gauge.rescale(seconds)

    timed_setup()
    wl.restart()
    Loop(checks).run(lambda: wl.op(checks), count=WARMUP_OPS)
    gauge.sample()  # warms the reference work too
    wl.restart()
    loop = Loop(checks)
    raw_setups, setups, rates = [], [], []
    for _ in range(SLICES):
        raw_setups.append(timed_setup())
        setups.append(gauge.rescale(raw_setups[-1]))
        gc.collect()
        done = len(loop.samples)
        loop.run(op, seconds=seconds / SLICES)
        in_slice = [s for _, s in loop.samples[done:]]
        if in_slice:
            rates.append(len(in_slice) / sum(in_slice))
    lat = [s for _, s in loop.samples]
    if wl.name == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": statistics.median(rates) if rates else 0.0,
        "peak_rss_mb": rss_kb / 1024,
        "op_p50_ms": percentile(lat, 50) * 1e3 if lat else 0.0,
        "op_p90_ms": percentile(lat, 90) * 1e3 if lat else 0.0,
    }
    units = dict(E2E, op_p50_ms="ms", op_p90_ms="ms")
    for kind in KIND_P50.get(wl.name, ()):
        of_kind = [s for k, s in loop.samples if k == kind]
        metrics[f"{kind}_p50_ms"] = statistics.median(of_kind) * 1e3 if of_kind else 0.0
        units[f"{kind}_p50_ms"] = "ms"
    metrics["failed_ratio"] = loop.failed / loop.attempted
    metrics["raw_setup_s"] = statistics.median(raw_setups)
    metrics["raw_ops_per_s"] = len(raw) / sum(raw) if raw else 0.0
    metrics["machine_slowdown"] = gauge.slowdown()
    units.update(failed_ratio="ratio", raw_setup_s="s", raw_ops_per_s="1/s",
                 machine_slowdown="ratio")
    extra = {
        "samples": len(lat),
        "latencies_s": lat,
        "raw_latencies_s": raw,
        "reference_s": gauge.samples,
        "slice_ops_per_s": rates,
        "setup_runs": setups,
        "raw_setup_runs": raw_setups,
        "units": units,
        "kinds": dict(Counter(k for k, _ in loop.samples)),
    }
    return loop, {"metrics": metrics, **extra}


def run_traced(wl, seconds: float, checks) -> tuple[Loop, dict]:
    """Each operation twice from the same state, untraced and traced.

    The two runs of a pair alternate in order, so drift in machine speed
    falls on both totals alike.  The reference work runs after each pair,
    and the times are rescaled to the reference speed by its median."""
    tracer = Tracer()
    gauge = Gauge()
    wl.setup(tracer)
    wl.restart()
    untraced = NoTracer()
    Loop(checks).run(lambda: wl.replay_op(checks, untraced), count=WARMUP_OPS)
    wl.restart()

    def traced_op():
        tracer.next_op()
        return wl.replay_op(checks, tracer)

    plain, traced = Loop(checks), Loop(checks)
    runs = ((plain, lambda: wl.replay_op(checks, untraced)), (traced, traced_op))
    deadline = perf_counter() + seconds
    pairs = 0
    while pairs == 0 or perf_counter() < deadline:
        mark = wl.mark()
        for loop, op in runs[:: 1 if pairs % 2 == 0 else -1]:
            wl.rewind(mark)
            loop.run(op, count=1)
        gauge.sample()
        pairs += 1

    own = self_times(tracer.spans)
    by_name: dict[str, list] = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)

    def self_ms(name):
        spans = by_name.get(name)
        return statistics.median(own[s.sid] for s in spans) * 1e3 if spans else None

    def mean_count(names, key):
        vals = [s.counts[key] for n in names for s in by_name.get(n, ()) if key in s.counts]
        return sum(vals) / len(vals) if vals else None

    roots = [s for s in tracer.spans if s.parent is None and "host_nodes" in s.counts]

    def median_count(spans, key):
        return statistics.median(s.counts[key] for s in spans) if spans else None
    matching = [n for n in by_name if n.startswith("matching.")]
    metrics = {
        "matching.locally_complete_ms": self_ms("matching.locally_complete"),
        "matching.locally_maximal_ms": self_ms("matching.locally_maximal"),
        "matching.globally_maximal_ms": self_ms("matching.globally_maximal"),
        "matching.backtracks": mean_count(["matching.locally_complete"], "backtracks"),
        "matching.no_match_ratio": mean_count(matching, "no_match"),
        "rules.apply_rule_ms": self_ms("rules.apply_rule"),
        "rules.created": mean_count(["rules.apply_rule"], "created"),
        "rules.deleted": mean_count(["rules.apply_rule"], "deleted"),
        "semantics.audit_ms": self_ms("semantics.audit"),
        "semantics.audit_entries": mean_count(["semantics.audit"], "entries"),
        "core.host_nodes": median_count(roots, "host_nodes"),
        "core.host_edges": median_count(roots, "host_edges"),
        "documents.graph_bytes": mean_count(["documents.encode_graph"], "bytes"),
    }
    for name in ("prematch_from_maps", "decode_rule", "decode_graph", "encode_graph",
                 "encode_trace", "decode_trace", "rebuild_transformation"):
        metrics[f"documents.{name}_ms"] = self_ms(f"documents.{name}")
    if wl.name == "cli":
        metrics["cli.import_ms"] = wl.import_ms(IMPORT_REPEATS)
    base = sum(s for _, s in plain.samples)
    with_spans = sum(s for _, s in traced.samples)
    metrics["trace.overhead_pct"] = 100 * (with_spans - base) / base if base else None
    slow = gauge.slowdown()
    metrics = {
        k: v / slow if k.endswith("_ms") else v for k, v in metrics.items() if v is not None
    }

    layers = {
        name: {
            "calls": len(spans),
            "self_ms_total": sum(own[s.sid] for s in spans) * 1e3,
            "self_ms_median": statistics.median(own[s.sid] for s in spans) * 1e3,
        }
        for name, spans in sorted(by_name.items())
    }
    loop = Loop(checks)
    for part in (plain, traced):
        loop.samples += part.samples
        loop.attempted += part.attempted
        loop.failed += part.failed
        loop.errors += part.errors
    result = {
        "metrics": metrics,
        "units": {k: LAYER_UNITS[k] for k in metrics},
        "targets": {k: LAYER_TARGETS[k] for k in metrics},
        "layers": layers,
        "untraced_total_s": base,
        "traced_total_s": with_spans,
        "spans": [s.record() for s in tracer.spans],
    }
    return loop, result


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False):
    """Run one workload; returns (report lines, final JSON object, checks)."""
    from workloads import Checks

    wl = make_workload(name, seed, smoke)
    checks = Checks()
    try:
        loop, result = (run_traced if trace else run_untraced)(wl, seconds, checks)
    finally:
        wl.close()
    env = environment()
    lines = [
        f"# workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
        + " ".join(f"{k}={v}" for k, v in env.items())
    ]
    for k, v in result["metrics"].items():
        target = f"  -> {LAYER_TARGETS[k]}" if trace else ""
        lines.append(f"{k} {v:.6g} {result['units'][k]}{target}")
    lines.append(f"# operations: {loop.attempted} attempted, {loop.failed} failed, "
                 f"{len(loop.samples)} timed samples")
    ran = sorted(checks.ran.items())
    lines.append("# checks: " + ", ".join(f"{k}={v}" for k, v in ran))
    for problem in (loop.errors + checks.failures)[:10]:
        lines.append(f"# failure: {problem}")
    wanted = PER_LAYER if trace else E2E
    final = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            k: {"value": result["metrics"].get(k, 0.0), "unit": u}
            for k, u in wanted.items()
        },
    }
    if not smoke:
        OUT.mkdir(exist_ok=True)
        record = {
            "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
            **env, **result, "checks": checks.ran,
            "failures": loop.errors + checks.failures,
            "result": final,
        }
        path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
        path.write_text(json.dumps(record, indent=1), encoding="utf-8")
        lines.append(f"# wrote {path.relative_to(ROOT)}")
    return lines, final, checks


# Output checks every workload must run at least once.
CHECKS_OF = {
    "chain": {"chain.match_found", "chain.audit_passes", "chain.output_extends_input",
              "chain.client_has_backed_account"},
    "search": {"search.teardown_no_match", "search.selection_size", "search.audit_passes"},
    "cli": {"cli.apply_exit_0", "cli.audit_passed", "cli.output_decodes",
            "cli.output_extends_input", "cli.client_has_backed_account"},
}


def smoke() -> int:
    """Every workload on tiny hosts, untraced and traced."""
    import bank
    from effectgraph.fixtures import banking_type_graph

    bank.self_check(banking_type_graph())
    problems = []
    for name in ("chain", "search", "cli"):
        for trace in (False, True):
            lines, final, checks = run_workload(name, 1, 0.5, trace, smoke=True)
            where = f"{name} trace={int(trace)}"
            print("\n".join(lines))
            printed = {
                (parts[0], parts[2])
                for parts in (line.split() for line in lines if not line.startswith("#"))
            }
            if trace:
                units = {k: LAYER_UNITS[k] for k in LAYERS_OF[name]}
            else:
                units = dict(E2E, op_p50_ms="ms", op_p90_ms="ms", failed_ratio="ratio")
                units.update({f"{k}_p50_ms": "ms" for k in KIND_P50.get(name, ())})
            for metric, unit in units.items():
                if (metric, unit) not in printed:
                    problems.append(f"{where}: {metric} [{unit}] not printed")
            missing = CHECKS_OF[name] - set(checks.ran)
            if trace:  # the traced cli run replays in process: no exit code
                missing.discard("cli.apply_exit_0")
            if missing:
                problems.append(f"{where}: checks never ran: {sorted(missing)}")
            if not final["correct"] or final["failed"]:
                problems.append(f"{where}: {final['failed']} operations failed")
    for p in problems:
        print(f"smoke FAIL: {p}")
    if problems:
        return 1
    print("smoke ok")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("chain", "search", "cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="fast self-test on tiny hosts")
    args = parser.parse_args(argv)
    load_library()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    import bank
    from effectgraph.fixtures import banking_type_graph

    bank.self_check(banking_type_graph())
    # One core for this process and the cli workload's children, so that
    # each operation and the reference run timed right after it share the
    # core's speed of the moment.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    lines, final, _ = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print("\n".join(lines))
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
