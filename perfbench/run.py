#!/usr/bin/env python3
"""The repository benchmark: end-to-end serving metrics and a per-layer ledger.

One run::

    python3 perfbench/run.py --workload reach-hot --seed 1 --seconds 10 --trace 0

builds its inputs from ``--seed``, sets the program up, serves closed-loop
traffic for ``--seconds``, re-derives a sample of the answers from G, and
prints as its last line a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer ledger with ``--trace 1``.  The line before it is a JSON
``record`` with the run's context (sizes, op mix, sample counts, host).

All workloads, untraced and traced, with every metric printed by name::

    python3 perfbench/run.py --all [--seed N] [--seconds S]

The smoke test runs every workload and the traced run at tiny sizes and
checks that every metric is present with its unit and no answer is wrong::

    python3 perfbench/run.py --smoke

Runs are hermetic: catalogs live in ``.perfbench/`` under the current
directory and are removed afterwards; only traced runs leave a file there
(their spans, as JSON lines).  See ``README.md`` beside this file for why
each workload exists and which layer metric should move which end-to-end
metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, List, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if not (SRC / "repro" / "__init__.py").is_file():
    print(f"perfbench: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
    sys.exit(2)
sys.path[:0] = [str(HERE), str(SRC)]

from repro import QueryExecutor  # noqa: E402
from repro.faults import current_plan  # noqa: E402
from repro.obs.metrics import current_registry  # noqa: E402
from repro.obs.trace import current_tracer  # noqa: E402

from drive import (  # noqa: E402
    Evolver,
    close,
    dir_bytes,
    Phase,
    Repeats,
    Writer,
    evolve,
    measure_setup,
    median,
    percentile,
    samples_beyond,
    serve,
)
from ledger import Ledger, layer_metrics, span_seconds  # noqa: E402
from verify import verify  # noqa: E402
from workloads import (  # noqa: E402
    FULL,
    TINY,
    WORKLOADS,
    Workload,
    client_streams,
    growth_batches,
    library_growth_batches,
    make_graph,
)

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "qps": "1/s",
    "reach_p50_us": "us",
    "reach_p99_us": "us",
    "pattern_p50_ms": "ms",
    "pattern_p95_ms": "ms",
    "rss_peak_mb": "MB",
    "store_bytes_per_edge": "B",
    "gr_size_ratio": "ratio",
    "gb_size_ratio": "ratio",
}

#: Per-layer ledger (``--trace 1``): name -> unit.
PER_LAYER = {
    "service.executor_wait_us": "us",
    "service.query_self_us": "us",
    "service.mean_batch": "count",
    "engine.dispatch_self_us": "us",
    "index.lookups": "count",
    "index.lookup_self_us": "us",
    "core.answer_r_self_us": "us",
    "queries.match_calls": "count",
    "queries.match_s": "s",
    "queries.match_ms_per_call": "ms",
    "queries.context_build_s": "s",
    "queries.memo_hit_ratio": "ratio",
    "core.answer_b_self_us": "us",
    "core.compress_calls": "count",
    "core.compress_r_s": "s",
    "core.compress_b_s": "s",
    "index.tol_builds": "count",
    "index.tol_build_s": "s",
    "engine.epoch_build_self_s": "s",
    "engine.build_wait_s": "s",
    "service.publish_self_ms": "ms",
    "store.put_calls": "count",
    "store.put_s": "s",
    "store.merge_s": "s",
    "store.bytes_per_update": "B",
    "core.inc_r_s": "s",
    "core.inc_b_s": "s",
    "engine.apply_self_s": "s",
    "index.tol_repair_ratio": "ratio",
    "graph.freeze_calls": "count",
    "graph.freeze_s": "s",
    "store.load_s": "s",
    "store.warm_hit_ratio": "ratio",
    "engine.fallbacks": "count",
    "service.failed_ops": "count",
    "trace.overhead_pct": "%",
}

#: Cold set-ups and warm restarts (``drive.Repeats``: at least, budget in
#: seconds, at most), once before the timed phase and once after it.  The
#: median set-up and the fastest restart of both batches are reported.  One
#: set-up varies by ±20% with the host's speed, so a run takes at least
#: sixteen; a restart is shorter than the episodes of outside load on a
#: shared host, so its fastest sample is one that ran undisturbed
#: (README.md has the spreads that decided this).
SETUPS = (8, 3.0, 30)
RESTARTS = (5, 0.5, 10)
#: Length of the windows whose median throughput and latency a run reports.
WINDOW_S = 2.0
#: Tail percentiles are taken per group of consecutive windows, each group
#: with at least this many samples beyond the percentile.
TAIL_BEYOND = 20
#: A traced run serves this long untraced, then this long traced (at most
#: half of ``--seconds`` each): enough for the ledger, and its spans stay
#: a few hundred thousand.
TRACED_S = 5.0
#: Client workers of the serving workloads (one per CPU of the reference host).
WORKERS = 2
WORK_DIR = Path(".perfbench")


def assert_hermetic() -> None:
    """Timed runs measure the program with its observability and fault
    injection off, exactly as an embedding application runs it."""
    if current_registry() is not None or current_tracer() is not None:
        raise RuntimeError("an obs registry or tracer is installed")
    if current_plan() is not None:
        raise RuntimeError("a fault plan is installed")


@contextmanager
def frozen_inputs() -> Iterator[None]:
    """Move the generated inputs (hundreds of thousands of query objects)
    out of the garbage collector's reach while the program runs, so the
    benchmark's own objects do not make the program's collections slower.
    The program's state is created afterwards and is collected as usual."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def _size(artifact: Any) -> int:
    g = artifact.compressed
    return g.order() + g.size()


def measure(w: Workload, graph: Any, seed: int, size: Any, seconds: float,
            setups: Repeats, restarts: Repeats, work: Path,
            ledger: Ledger = None, request_base: int = 0,
            again: bool = True) -> Dict[str, Any]:
    """Set up, restart, warm up and serve one workload, then set up and
    restart again when *again*; returns raw results."""
    streams, pool, hot = client_streams(w, graph, seed, size)
    with frozen_inputs():
        return _measure(w, graph, seed, size, seconds, setups, restarts, work, ledger,
                        request_base, again, streams, pool, hot)


def _measure(w: Workload, graph: Any, seed: int, size: Any, seconds: float,
             setups: Repeats, restarts: Repeats, work: Path,
             ledger: Ledger, request_base: int, again: bool, streams: List[Any],
             pool: List[Any], hot: set) -> Dict[str, Any]:
    # Set-up (with restarts) and the timed phase, for the traced ledger.
    periods: List[Tuple[float, float]] = []
    t_setup = time.perf_counter()
    setup_s, restart_s, target, store_bytes, probe_checks = measure_setup(
        w.api, graph, work / "catalog", setups, restarts)
    periods.append((t_setup, time.perf_counter()))
    out: Dict[str, Any] = {"setup_s": setup_s, "restart_s": restart_s,
                           "store_bytes": store_bytes, "hot": hot}
    cursors = [0] * len(streams)
    if w.api == "service":
        with target.pin() as epoch:
            out["gr"] = _size(epoch.artifact("reachability"))
            out["gb"] = _size(epoch.artifact("pattern"))
        executor = QueryExecutor(target, workers=WORKERS)
        try:
            for p in pool:
                executor.submit(p).result()
            serve(target, executor, streams, cursors, min(1.0, seconds / 4), None)
            writer = (Writer(target, executor,
                             growth_batches(graph, size.growth_batches), pool)
                      if w.write_share else None)
            before = executor.workload_stats()
            bytes_before = dir_bytes(work)
            assert_hermetic()
            phase = serve(target, executor, streams, cursors, seconds, writer,
                          ledger, request_base)
            after = executor.workload_stats()
            out["bytes_written"] = dir_bytes(work) - bytes_before
            dispatches = after["dispatches"] - before["dispatches"]
            phase.mean_batch = ((after["batched_queries"] - before["batched_queries"])
                                / dispatches if dispatches else 0.0)
            phase.fallbacks = sum(target.stats.fallbacks(k) for k in ("reachability", "pattern"))
            batches = writer.batches[:writer.applied] if writer else []
            out["updates"] = sum(len(b) for b in batches)
        finally:
            executor.shutdown(wait=True)
            close(target)
    else:
        out["gr"] = _size(target.reachability())
        out["gb"] = _size(target.bisimulation())
        evolver = Evolver(graph)
        evolve(target, evolver, streams[0], cursors, 0.0, w.reads_per_write, pool)
        counters = dict(target.counters)
        bytes_before = dir_bytes(work)
        assert_hermetic()
        phase = evolve(target, evolver, streams[0], cursors, seconds,
                       w.reads_per_write, pool, ledger, request_base)
        out["bytes_written"] = dir_bytes(work) - bytes_before
        repairs = target.counters["tol_repairs"] - counters["tol_repairs"]
        rebuilds = target.counters["tol_rebuilds"] - counters["tol_rebuilds"]
        out["tol_repair_ratio"] = repairs / (repairs + rebuilds) if repairs + rebuilds else 0.0
        phase.fallbacks = sum(target.stats.fallbacks(k) for k in ("reachability", "pattern"))
        batches = evolver.batches
        out["updates"] = sum(len(b) for b in batches[1:])  # the first is warm-up
    periods.append((phase.start, phase.end))
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if again:
        more_setup, more_restart, again_target, _, more_checks = measure_setup(
            w.api, graph, work / "again", setups, restarts)
        close(again_target)
        setup_s.extend(more_setup)
        restart_s.extend(more_restart)
        probe_checks.extend(more_checks)
    checks = [("setup", q, ans, 0) for q, ans in probe_checks]
    for k, (kind, q, ans, v) in enumerate(zip(phase.kind, phase.query, phase.answer,
                                              phase.version)):
        if k in phase.errors:
            continue
        if kind == "write":
            checks.extend(("write", pq, pa, pv) for pq, pa, pv in phase.probes[k])
        elif ans is not None:
            checks.append((kind, q, ans, v))
    out.update(phase=phase, checks=checks, batches=batches, periods=periods)
    return out


def summarize(w: Workload, graph: Any, raw: Dict[str, Any]) -> Tuple[Dict[str, float],
                                                                    Dict[str, Any], int, int]:
    """End-to-end metrics, the record, and (attempted, failed) of one run."""
    phase: Phase = raw["phase"]
    errors = list(phase.errors.values())
    lat: Dict[str, List[float]] = {"reach": [], "pattern": [], "write": []}
    for k, (kind, t) in enumerate(zip(phase.kind, phase.latency)):
        if k not in phase.errors:
            lat[kind].append(t)
    checked, bad = verify(graph, raw["batches"], raw["checks"])
    attempted = len(phase)
    failed = len(errors) + len(bad)
    g_size = graph.order() + graph.size()
    # Throughput and latencies are medians over consecutive windows of the
    # timed phase, so a burst of load from outside the benchmark moves one
    # window, not the run's figure.  A tail percentile needs more samples
    # than a window holds on the slower workloads, so it is taken over
    # groups of windows with TAIL_BEYOND samples beyond it each.
    windows = phase.windows(WINDOW_S)
    per_window: Dict[str, List[float]] = {"qps": [], "reach": [], "pattern": []}
    window_lat: Dict[str, List[List[float]]] = {"reach": [], "pattern": []}
    for pos, rate in windows:
        per_window["qps"].append(rate)
        for kind in ("reach", "pattern"):
            xs = [phase.latency[k] for k in pos
                  if phase.kind[k] == kind and k not in phase.errors]
            if xs:
                per_window[kind].append(percentile(xs, 50))
                window_lat[kind].append(xs)
    tails = {"reach": tail(window_lat["reach"], 99), "pattern": tail(window_lat["pattern"], 95)}
    metrics = {
        "setup_s": median(raw["setup_s"]),
        "qps": median(per_window["qps"]),
        "reach_p50_us": median(per_window["reach"]) * 1e6,
        "reach_p99_us": tails["reach"][0] * 1e6,
        "pattern_p50_ms": median(per_window["pattern"]) * 1e3,
        "pattern_p95_ms": tails["pattern"][0] * 1e3,
        "rss_peak_mb": raw["rss_mb"],
        "store_bytes_per_edge": raw["store_bytes"] / graph.size(),
        "gr_size_ratio": raw["gr"] / g_size,
        "gb_size_ratio": raw["gb"] / g_size,
    }
    reach_q = [q for kind, q in zip(phase.kind, phase.query) if kind == "reach"]
    pat_ops = [(v, q) for kind, q, v in zip(phase.kind, phase.query, phase.version)
               if kind == "pattern"]
    seen: set = set()
    repeats = 0
    for v, q in pat_ops:
        key = (v, frozenset(q.nodes.items()), frozenset(q.edges.items()))
        repeats += key in seen
        seen.add(key)
    n = max(attempted, 1)
    record = {
        "workload": w.name,
        "family": w.family,
        "V": graph.order(),
        "E": graph.size(),
        "Gr": raw["gr"],
        "Gb": raw["gb"],
        "mix": {"reach": w.reach_share, "pattern_pool": w.pattern_pool,
                "write_share": w.write_share, "reads_per_write": w.reads_per_write,
                "hot_share": w.hot_share, "clients": w.clients},
        "measured": {
            "reach_share": len(reach_q) / n,
            "pattern_share": len(pat_ops) / n,
            "write_share": phase.kind.count("write") / n,
            "hot_source_share": (sum(q.source in raw["hot"] for q in reach_q)
                                 / max(len(reach_q), 1)),
            "memo_repeat_share": repeats / max(len(pat_ops), 1),
        },
        "samples": {
            "reach": len(lat["reach"]), "pattern": len(lat["pattern"]),
            "write": len(lat["write"]),
            "qps_windows": [round(q) for q in per_window["qps"]],
            "beyond_reach_p99": samples_beyond(len(lat["reach"]), 99),
            "beyond_pattern_p95": samples_beyond(len(lat["pattern"]), 95),
            "tail_groups": {"reach_p99": tails["reach"][1], "pattern_p95": tails["pattern"][1]},
            "setups": len(raw["setup_s"]), "restarts": len(raw["restart_s"]),
        },
        # Reported, not gated: see README.md ("End-to-end metrics").
        "restart_s": min(raw["restart_s"]),
        "write_p50_ms": percentile(lat["write"], 50) * 1e3 if lat["write"] else None,
        "write_p90_ms": percentile(lat["write"], 90) * 1e3 if lat["write"] else None,
        "error_rate": failed / n,
        "errors": (errors + bad)[:5],
        "checked": checked,
        "busy_s": phase.busy,
        "mean_batch": phase.mean_batch,
        "setup_samples_s": [round(t, 4) for t in raw["setup_s"]],
        "cpus": os.cpu_count(),
        "cpu_set": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
    }
    return metrics, record, attempted, failed


def tail(windows: List[List[float]], q: float) -> Tuple[float, int]:
    """The median over groups of consecutive *windows* of each group's
    *q*-th percentile, with as many groups (at most one per window) as
    leave TAIL_BEYOND samples beyond the percentile in each; and the
    number of groups."""
    beyond = samples_beyond(sum(len(xs) for xs in windows), q)
    groups = max(1, min(len(windows), beyond // TAIL_BEYOND))
    cuts = [round(i * len(windows) / groups) for i in range(groups + 1)]
    return (median([percentile([x for xs in windows[a:b] for x in xs], q)
                    for a, b in zip(cuts, cuts[1:])]), groups)


def run_one(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    w = WORKLOADS[name]
    size = TINY if tiny else FULL
    work = WORK_DIR / f"run-{os.getpid()}"
    assert_hermetic()
    # One CPU for the whole run.  The GIL lets the process's threads compute
    # one at a time anyway; what a second CPU adds is cross-CPU wake-ups of
    # the client and worker threads, and on a shared two-CPU VM those make
    # a run fall into a slow mode at random (4.3k against 12.4k ops/s on
    # one seed, reach-hot), far beyond any bound a benchmark could hold.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        graph = make_graph(w.family, size)
        if not trace:
            raw = measure(w, graph, seed, size, seconds, SETUPS, RESTARTS, work)
            metrics, record, attempted, failed = summarize(w, graph, raw)
            result = {name: {"value": metrics[name], "unit": unit}
                      for name, unit in END_TO_END.items()}
        else:
            half = min(seconds / 2, TRACED_S)
            once = (1, 0.0, 1)
            plain = measure(w, graph, seed, size, half, once, once, work / "plain",
                            again=False)
            ledger = Ledger()
            ledger.install()
            try:
                raw = measure(w, graph, seed, size, half, once, once, work / "traced",
                              ledger, request_base=1 << 40, again=False)
            finally:
                ledger.uninstall()
            plain_m, _, plain_attempted, plain_failed = summarize(w, graph, plain)
            metrics, record, attempted, failed = summarize(w, graph, raw)
            attempted += plain_attempted
            failed += plain_failed
            layers = traced_layers(raw, ledger, record)
            layers["trace.overhead_pct"] = (plain_m["qps"] / metrics["qps"] - 1) * 100
            record["trace_overhead_pct"] = layers["trace.overhead_pct"]
            record["spans"] = len(ledger.spans)
            out = WORK_DIR / "spans" / f"{name}-{seed}.jsonl"
            ledger.write_jsonl(out)
            record["spans_file"] = str(out)
            result = {name: {"value": layers[name], "unit": unit}
                      for name, unit in PER_LAYER.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["seed"] = seed
    record["seconds"] = seconds
    record["trace"] = int(trace)
    return ({"correct": failed == 0, "attempted": attempted, "failed": failed,
             "metrics": result}, record)


def traced_layers(raw: Dict[str, Any], ledger: Ledger,
                  record: Dict[str, Any]) -> Dict[str, float]:
    """The per-layer ledger of a traced run; also records, for the rationale
    note, the executor hand-off share of a reachability request and the
    cost of maintaining Gr/Gb per batch against compressing G again."""
    phase: Phase = raw["phase"]
    reach = {rid: t for k, (kind, t, rid) in
             enumerate(zip(phase.kind, phase.latency, phase.request))
             if kind == "reach" and k not in phase.errors}
    npat = phase.kind.count("pattern")
    out = layer_metrics(ledger.spans, raw["periods"][-1], raw["periods"], reach,
                        len(reach), npat)
    out["service.mean_batch"] = phase.mean_batch
    out["store.bytes_per_update"] = (raw["bytes_written"] / raw["updates"]
                                     if raw["updates"] else 0.0)
    out["index.tol_repair_ratio"] = raw.get("tol_repair_ratio", 0.0)
    out["engine.fallbacks"] = phase.fallbacks
    out["service.failed_ops"] = len(phase.errors)
    mean_reach = sum(reach.values()) / len(reach) if reach else 0.0
    setup = raw["periods"][0]
    batches = phase.kind.count("write")
    record["ledger_notes"] = {
        "reach_mean_us": mean_reach * 1e6,
        "executor_handoff_share": (out["service.executor_wait_us"] / (mean_reach * 1e6)
                                   if mean_reach else 0.0),
        "inc_r_ms_per_batch": out["core.inc_r_s"] / batches * 1e3 if batches else 0.0,
        "inc_b_ms_per_batch": out["core.inc_b_s"] / batches * 1e3 if batches else 0.0,
        "recompress_ms": sum(span_seconds(ledger.spans, name, setup) for name in
                             ("graph.freeze", "core.compress_r", "core.compress_b")) * 1e3,
    }
    return out


# ----------------------------------------------------------------------
# --all and --smoke: every workload, untraced and traced, in subprocesses
# ----------------------------------------------------------------------
def run_all(seed: int, seconds: float, tiny: bool) -> bool:
    ok = True
    spec_path = HERE.parent / "BENCHMARK.json"
    if spec_path.is_file():
        spec = json.loads(spec_path.read_text())
        for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
            if {m["name"]: m["unit"] for m in spec[key]} != table:
                print(f"[FAIL] BENCHMARK.json {key} differs from the metrics run.py reports")
                ok = False
    graph = make_graph("social", TINY)
    if growth_batches(graph, 3) != library_growth_batches(graph, 3):
        print("[FAIL] growth_batches differs from repro.datasets.insertion_batch")
        ok = False
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            if tiny:
                cmd += ["--size", "tiny"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                print(f"[FAIL] {name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
                ok = False
                continue
            result = json.loads(lines[-1])
            record = json.loads(lines[-2])["record"]
            ok &= report(name, trace, result, record)
    return ok


def report(name: str, trace: int, result: Dict[str, Any], record: Dict[str, Any]) -> bool:
    """Print one run's metrics by name with units; check them; True if sound."""
    expected = PER_LAYER if trace else END_TO_END
    problems = []
    print(f"== {name} ({'traced' if trace else 'untraced'}) seed={record['seed']} "
          f"|V|={record['V']} |E|={record['E']} |Gr|={record['Gr']} |Gb|={record['Gb']}")
    for metric, unit in expected.items():
        got = result["metrics"].get(metric)
        if got is None or got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
            problems.append(f"metric {metric} missing or without unit {unit}")
            continue
        print(f"  {metric:28s} {got['value']:14.4f} {unit}")
    if not trace:
        for extra, unit in (("restart_s", "s"), ("write_p50_ms", "ms"), ("write_p90_ms", "ms")):
            if record.get(extra) is not None:
                print(f"  {extra:28s} {record[extra]:14.4f} {unit}")
    print(f"  {'error_rate':28s} {record['error_rate']:14.4f} ratio"
          f"   (attempted {result['attempted']}, failed {result['failed']}, "
          f"checked {record['checked']})")
    print(f"  measured mix {record['measured']}  samples {record['samples']}")
    if set(result["metrics"]) != set(expected):
        problems.append("unexpected metric set")
    if not result["correct"] or record["error_rate"] != 0:
        problems.append(f"error_rate {record['error_rate']}: {record['errors']}")
    for p in problems:
        print(f"  [FAIL] {p}")
    return not problems


def main(argv: List[str] = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    ap.add_argument("--smoke", action="store_true",
                    help="--all at tiny sizes for one second each; exit 1 on any problem")
    args = ap.parse_args(argv)
    if args.smoke:
        return 0 if run_all(args.seed, 1.0, tiny=True) else 1
    if args.all:
        return 0 if run_all(args.seed, args.seconds, tiny=args.size == "tiny") else 1
    if args.workload is None:
        ap.error("--workload is required (or --all / --smoke)")
    result, record = run_one(args.workload, args.seed, args.seconds, bool(args.trace),
                             args.size == "tiny")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
