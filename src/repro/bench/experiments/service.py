"""Service benchmark — concurrent front throughput and exactness (repo-internal).

Not a paper figure: this experiment tracks :mod:`repro.service`, the
thread-safe serving layer over the engine.  Two questions, each with a
hard identity gate and a trend number:

* **Throughput** — a serving-shaped workload (hot reachability sources,
  repeated patterns: the shape the adaptive micro-batching and the
  shared-traversal ``answer_batch`` paths exist for) is answered four
  ways on the largest generator graph: a serial single-thread
  ``GraphEngine.query`` loop (the PR-3 serving path — the baseline all
  speedups are relative to), the service's own single-thread loop
  (epoch serving: the per-epoch answer memo reaches single queries), and
  a :class:`~repro.service.executor.QueryExecutor` at several worker
  counts.  Every service answer must be byte-identical to the engine
  loop's (gate); the speedups are the trend.  Worker threads add no CPU
  parallelism under the GIL (per-epoch amortisation is the single-core
  lever; the recorded ``cpus`` field says what parallelism was even
  possible).
* **Readers during writes** — the randomized stress harness
  (:mod:`repro.service.epoch_stress`) runs reader threads *through* an
  executor while a writer publishes epoch after epoch; every recorded
  answer is re-derived from scratch on its epoch's reconstructed graph
  (gate), and retired epochs must free their state once readers drain
  (gate).

Timing checks stay informational on shared CI runners, mirroring the
kernels/store/engine benchmarks; ``python -m repro.bench check`` compares
the recorded ratios against committed baselines with a tolerance band.
"""

from __future__ import annotations

import json
import os
import platform
import random
import time
from typing import Any, Dict, List

from repro.bench.experiments.kernels import _default_graphs
from repro.bench.harness import ExperimentResult
from repro.datasets.patterns import random_pattern
from repro.graph.digraph import DiGraph
from repro.queries.pattern import STAR
from repro.queries.reachability import ReachabilityQuery
from repro.service import EngineService, QueryExecutor, freeze_answer, run_stress

JSON_PATH = "BENCH_service.json"
#: Folded-stack (flamegraph) artifact from the profiler-overhead section.
PROFILE_PATH = "PROFILE_service.folded"


def _warm_epoch(service: EngineService) -> None:
    """Build the current epoch's artifacts and evaluation caches.

    Every timed row starts from the same steady state: representations
    compressed, candidate/reachability bitsets prepared — measurements
    compare serving throughput, not who pays the first lazy build.
    """
    with service.pin() as epoch:
        for key in ("reachability", "pattern"):
            epoch.artifact(key)
        for key in ("pattern", "original"):
            ctx = epoch.context_for(key)
            if ctx is not None:
                ctx.prepare(bounds=(1, 2, STAR))


def _serving_workload(graph: DiGraph, n_reach: int, n_patterns: int,
                      seed: int) -> List[Any]:
    """A serving-shaped mix: zipf-ish hot sources, repeated patterns.

    Production reachability traffic concentrates on hot entities; the
    workload draws 80% of sources from a small hot set (and targets
    uniformly), plus pattern queries repeated from a small pool.
    """
    rng = random.Random(seed)
    nodes = graph.node_list()
    hot = rng.sample(nodes, max(4, len(nodes) // 800))
    queries: List[Any] = []
    for _ in range(n_reach):
        source = rng.choice(hot) if rng.random() < 0.8 else rng.choice(nodes)
        queries.append(ReachabilityQuery(source, rng.choice(nodes)))
    pool = [
        random_pattern(graph, 3, 3, max_bound=2, star_prob=0.2, seed=seed + i)
        for i in range(max(2, n_patterns // 4))
    ]
    for i in range(n_patterns):
        queries.append(pool[i % len(pool)])
    rng.shuffle(queries)
    return queries


def run(quick: bool = True) -> ExperimentResult:
    n_reach = 400 if quick else 1200
    n_patterns = 24 if quick else 60
    worker_counts = (1, 4) if quick else (1, 2, 4, 8)
    graphs = _default_graphs(quick)
    largest_name, largest = graphs[-1][0], graphs[-1][1]
    stress_name, stress_graph = graphs[0][0], graphs[0][1]
    cpus = os.cpu_count() or 1

    workload = _serving_workload(largest, n_reach, n_patterns, seed=19)
    rows: List[dict] = []

    # -- baseline: the PR-3 serving path — a single-threaded GraphEngine
    # loop (per-session context cache, no epochs, no memo, no batching).
    # This is what "one caller at a time" cost before the service existed.
    from repro.engine import GraphEngine

    engine = GraphEngine(largest.copy())
    engine.query(workload[0])
    engine.query(next(q for q in workload if not isinstance(q, ReachabilityQuery)))
    start = time.perf_counter()
    serial_answers = [engine.query(q) for q in workload]
    t_serial = time.perf_counter() - start
    frozen_serial = [freeze_answer(a) for a in serial_answers]
    rows.append({
        "graph": largest_name, "mode": "engine-loop", "workers": 1,
        "queries": len(workload), "wall ms": round(t_serial * 1e3, 1),
        "qps": round(len(workload) / t_serial, 1), "speedup": 1.0,
    })

    # -- the service's own single-thread loop: epoch serving gains (the
    # per-epoch answer memo reaches single queries too) without any pool.
    service = EngineService(largest.copy())
    _warm_epoch(service)
    start = time.perf_counter()
    svc_serial = [freeze_answer(service.query(q)) for q in workload]
    t_svc_serial = time.perf_counter() - start
    identical = svc_serial == frozen_serial
    rows.append({
        "graph": largest_name, "mode": "serial", "workers": 1,
        "queries": len(workload), "wall ms": round(t_svc_serial * 1e3, 1),
        "qps": round(len(workload) / t_svc_serial, 1),
        "speedup": round(t_serial / t_svc_serial, 2) if t_svc_serial else 0.0,
    })

    best_speedup = 0.0
    speedup_4 = 0.0
    for workers in worker_counts:
        # Fresh epoch per measurement: rows must not inherit the
        # previous pool's per-epoch answer memo.
        service.refreeze()
        _warm_epoch(service)
        ex = QueryExecutor(service, workers, max_batch=128)
        try:
            ex.map(workload[:8])  # warm the pool
            start = time.perf_counter()
            answers = ex.map(workload)
            elapsed = time.perf_counter() - start
        finally:
            ex.shutdown(wait=True)
        identical &= [freeze_answer(a) for a in answers] == frozen_serial
        speedup = t_serial / elapsed if elapsed else float("inf")
        best_speedup = max(best_speedup, speedup)
        if workers >= 4:
            speedup_4 = max(speedup_4, speedup)
        rows.append({
            "graph": largest_name, "mode": "thread", "workers": workers,
            "queries": len(workload), "wall ms": round(elapsed * 1e3, 1),
            "qps": round(len(workload) / elapsed, 1),
            "speedup": round(speedup, 2),
        })

    # -- fault-point instrumentation overhead ---------------------------
    # The robustness layer (repro.faults) compiles named fault points into
    # the serving hot paths; with no plan installed each costs one
    # module-global ``is None`` check.  Measure the same 1-worker executor
    # run bare vs with an installed never-firing plan (the *worst* case:
    # every point consults the plan and mismatches) — min-of-N to shave
    # scheduler noise.  The <5% gate keeps the instrumentation honest.
    from repro.faults.plan import FaultPlan, FaultRule, install_plan, uninstall_plan

    def _exec_run() -> tuple:
        service.refreeze()
        _warm_epoch(service)
        ex = QueryExecutor(service, 1, max_batch=128)
        try:
            ex.map(workload[:8])
            t0 = time.perf_counter()
            run_answers = ex.map(workload)
            return time.perf_counter() - t0, run_answers
        finally:
            ex.shutdown(wait=True)

    reps = 4 if quick else 6
    never_plan = FaultPlan(
        [FaultRule(point="bench.never.*", kind="error", times=None)], seed=0
    )
    bare_times: List[float] = []
    inst_times: List[float] = []
    # Interleave bare/installed samples so slow drift (thermal, noisy
    # neighbours) hits both sides equally.
    for _ in range(reps):
        bare_times.append(_exec_run()[0])
        install_plan(never_plan)
        try:
            t_run, run_answers = _exec_run()
        finally:
            uninstall_plan()
        inst_times.append(t_run)
        identical &= [freeze_answer(a) for a in run_answers] == frozen_serial
    t_plain = min(bare_times)
    t_inst = min(inst_times)
    overhead = t_inst / t_plain if t_plain else float("inf")
    assert never_plan.fired() == 0  # the plan must never actually fire
    rows.append({
        "graph": largest_name, "mode": "fault-instrumented", "workers": 1,
        "queries": len(workload), "wall ms": round(t_inst * 1e3, 1),
        "qps": round(len(workload) / t_inst, 1),
        "speedup": round(t_serial / t_inst, 2) if t_inst else 0.0,
    })

    # -- obs instrumentation overhead ------------------------------------
    # Same interleaved min-of-N methodology, for the observability layer
    # (repro.obs): bare vs a live registry *and* tracer installed — every
    # metric point records and every span allocates, the worst case.  The
    # amortisation lever is micro-batching: counters/histograms bump per
    # dispatched group, not per query.
    from repro.obs.metrics import MetricsRegistry, installed
    from repro.obs.trace import Tracer, tracing

    obs_registry = MetricsRegistry()
    obs_tracer = Tracer()
    obs_bare_times: List[float] = []
    obs_live_times: List[float] = []
    for _ in range(reps):
        obs_bare_times.append(_exec_run()[0])
        with installed(obs_registry), tracing(obs_tracer):
            t_run, run_answers = _exec_run()
        obs_live_times.append(t_run)
        identical &= [freeze_answer(a) for a in run_answers] == frozen_serial
    t_obs_bare = min(obs_bare_times)
    t_obs_live = min(obs_live_times)
    obs_overhead = t_obs_live / t_obs_bare if t_obs_bare else float("inf")
    rows.append({
        "graph": largest_name, "mode": "obs-instrumented", "workers": 1,
        "queries": len(workload), "wall ms": round(t_obs_live * 1e3, 1),
        "qps": round(len(workload) / t_obs_live, 1),
        "speedup": round(t_serial / t_obs_live, 2) if t_obs_live else 0.0,
    })
    # The obs run doubles as the TOL serving probe: epoch-served
    # reachability must have answered from the labels (counted per lookup
    # by ``tol_lookups_total``), not silently fallen back to BFS on Gr.
    def _metric_total(name: str) -> float:
        metric = obs_registry.get(name)
        return sum(metric.values().values()) if metric is not None else 0.0

    tol_lookups = _metric_total("tol_lookups_total")
    tol_fallbacks = _metric_total("tol_fallbacks_total")
    rows.append({
        "graph": largest_name, "mode": "tol-serving", "workers": 1,
        "queries": int(tol_lookups), "wall ms": float("nan"),
        "qps": float("nan"), "speedup": float("nan"),
    })

    # -- sampling-profiler overhead + folded-stack artifact --------------
    # The /profile endpoint's cost model: the same interleaved min-of-N
    # methodology, tracer installed on both sides (isolating the ticker's
    # cost from plain obs overhead), profiler sampling at its default
    # 5 ms on the live side.  The folded-stack output — span-attributed,
    # since the tracer is live — is written as a flamegraph artifact.
    from repro.obs.profile import SamplingProfiler

    profiler = SamplingProfiler(0.005, tracer=obs_tracer)
    prof_bare_times: List[float] = []
    prof_live_times: List[float] = []
    for _ in range(reps):
        with installed(obs_registry), tracing(obs_tracer):
            prof_bare_times.append(_exec_run()[0])
            with profiler:
                t_run, run_answers = _exec_run()
            prof_live_times.append(t_run)
        identical &= [freeze_answer(a) for a in run_answers] == frozen_serial
    t_prof_bare = min(prof_bare_times)
    t_prof_live = min(prof_live_times)
    prof_overhead = t_prof_live / t_prof_bare if t_prof_bare else float("inf")
    span_samples = sum(
        count for stack, count in profiler.samples().items()
        if any(part.startswith("span:") for part in stack)
    )
    with open(PROFILE_PATH, "w") as fh:
        fh.write(profiler.to_folded())
    rows.append({
        "graph": largest_name, "mode": "profiler-sampling", "workers": 1,
        "queries": len(workload), "wall ms": round(t_prof_live * 1e3, 1),
        "qps": round(len(workload) / t_prof_live, 1),
        "speedup": round(t_serial / t_prof_live, 2) if t_prof_live else 0.0,
    })
    service.close()

    # -- latency percentiles per query class -----------------------------
    # ``max_batch=1`` gives router_dispatch_seconds one sample per query
    # (micro-batching would fold them); the registry-backed RouterStats
    # estimates p50/p95/p99 from the histogram buckets.  The tracked trend
    # is the *tail ratio* p99/p50 — machine-relative like every other
    # gated ratio, and the number that collapses when a latency outlier
    # class sneaks in.
    pct_registry = MetricsRegistry()
    with installed(pct_registry):
        pct_service = EngineService(largest.copy())
        _warm_epoch(pct_service)
        ex = QueryExecutor(pct_service, 4, max_batch=1)
        try:
            ex.map(workload[:8])
            start = time.perf_counter()
            answers = ex.map(workload)
            t_pct = time.perf_counter() - start
        finally:
            ex.shutdown(wait=True)
        identical &= [freeze_answer(a) for a in answers] == frozen_serial
        percentile_stats = pct_service.stats.percentiles()
        pct_service.close()
    percentiles: Dict[str, Dict[str, Any]] = {}
    percentiles_ordered = True
    for cls, entry in sorted(percentile_stats.items()):
        p50, p95, p99 = entry["p50_ms"], entry["p95_ms"], entry["p99_ms"]
        percentiles_ordered &= p50 <= p95 <= p99
        percentiles[cls] = {
            **entry,
            "tail_ratio": round(p99 / p50, 3) if p50 else None,
        }
    rows.append({
        "graph": largest_name, "mode": "obs-percentiles", "workers": 4,
        "queries": len(workload), "wall ms": round(t_pct * 1e3, 1),
        "qps": round(len(workload) / t_pct, 1),
        "speedup": round(t_serial / t_pct, 2) if t_pct else 0.0,
    })

    # -- readers during writes (executor + publishing writer) ------------
    start = time.perf_counter()
    stress = run_stress(
        stress_graph, readers=4, writer_batches=6,
        batch_size=max(4, stress_graph.size() // 200),
        queries_per_reader=40, seed=31, executor_workers=4,
        writer_pause_s=0.002,
    )
    t_stress = time.perf_counter() - start
    rows.append({
        "graph": stress_name, "mode": "stress+writer", "workers": 4,
        "queries": stress["checked"],
        "wall ms": round(t_stress * 1e3, 1),
        "qps": round(stress["checked"] / t_stress, 1) if t_stress else 0.0,
        "speedup": float("nan"),
    })

    gated_checks = [
        (
            "service answers (single-thread loop and executor, all worker "
            "counts) byte-identical to the serial engine loop",
            identical,
            True,
        ),
        (
            "answers recorded during live publications match from-scratch "
            "evaluation on each epoch's reconstructed graph "
            f"({stress['checked']} checked, {len(stress['versions_seen'])} epochs seen)",
            stress["mismatches"] == 0 and stress["errors"] == [],
            True,
        ),
        (
            "retired epochs freed once readers drained (RCU grace period)",
            stress["draining_after_join"] == 0
            and stress["current_freed_after_close"] is True,
            True,
        ),
        (
            f"concurrent front >= 2x the single-thread engine-loop "
            f"throughput at 4+ workers on the largest generator graph "
            f"({largest_name}; {cpus} CPU(s) visible)",
            speedup_4 >= 2.0,
            False,
        ),
        (
            f"fault-point instrumentation fault-free overhead < 5% "
            f"(installed never-firing plan: {overhead:.3f}x the bare run)",
            overhead <= 1.05,
            False,
        ),
        (
            f"obs instrumentation overhead < 5% with a live registry and "
            f"tracer installed ({obs_overhead:.3f}x the bare run)",
            obs_overhead <= 1.05,
            False,
        ),
        (
            f"sampling-profiler overhead < 5% while sampling at 5ms "
            f"({prof_overhead:.3f}x the tracer-installed bare run)",
            prof_overhead <= 1.05,
            False,
        ),
        (
            f"profiler captured cross-thread samples during the serving "
            f"run ({profiler.sample_count} samples, {span_samples} "
            f"span-attributed, {profiler.dropped_stacks} dropped)",
            profiler.sample_count > 0,
            True,
        ),
        (
            "per-class latency percentiles are ordered "
            "(p50 <= p95 <= p99, non-empty)",
            percentiles_ordered and bool(percentiles),
            True,
        ),
        (
            f"epoch-served reachability answered from the TOL labels "
            f"({int(tol_lookups)} label lookups, "
            f"{int(tol_fallbacks)} fallbacks recorded)",
            tol_lookups > 0,
            True,
        ),
    ]
    checks = [(d, ok) for d, ok, _gate in gated_checks]

    payload: Dict[str, Any] = {
        "experiment": "service",
        "quick": quick,
        "python": platform.python_version(),
        "cpus": cpus,
        "timestamp": time.time(),
        "rows": [
            {k: (None if isinstance(v, float) and v != v else v)
             for k, v in row.items()}
            for row in rows
        ],
        "stress": {k: stress[k] for k in (
            "queries", "checked", "mismatches", "epochs_published",
            "versions_seen", "draining_after_join", "current_freed_after_close",
        )},
        "fault_instrumentation": {
            "bare_ms": round(t_plain * 1e3, 1),
            "instrumented_ms": round(t_inst * 1e3, 1),
            "overhead": round(overhead, 4),
            "reps": reps,
        },
        "obs_instrumentation": {
            "bare_ms": round(t_obs_bare * 1e3, 1),
            "instrumented_ms": round(t_obs_live * 1e3, 1),
            "overhead": round(obs_overhead, 4),
            "reps": reps,
        },
        "profiler": {
            "bare_ms": round(t_prof_bare * 1e3, 1),
            "sampling_ms": round(t_prof_live * 1e3, 1),
            "overhead": round(prof_overhead, 4),
            "interval_s": profiler.interval_s,
            "samples": profiler.sample_count,
            "span_attributed_samples": span_samples,
            "dropped_stacks": profiler.dropped_stacks,
            "reps": reps,
            "artifact": PROFILE_PATH,
        },
        "tol_serving": {
            "lookups": int(tol_lookups),
            "fallbacks": int(tol_fallbacks),
        },
        "percentiles": percentiles,
        "checks": [
            {"description": d, "passed": ok, "gate": gate}
            for d, ok, gate in gated_checks
        ],
    }
    with open(JSON_PATH, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")

    return ExperimentResult(
        experiment="service",
        title="Concurrent serving front: executor throughput vs serial, readers during writes",
        columns=["graph", "mode", "workers", "queries", "wall ms", "qps", "speedup"],
        rows=rows,
        checks=checks,
        notes=f"machine-readable copy written to {JSON_PATH}; cpus={cpus}",
    )
