"""Fig. 12(g) — ``incPCM`` vs ``compressB`` vs ``IncBsim`` (mixed updates).

Youtube, mixed insert/delete batches in increments.  ``IncBsim`` is the
single-update incremental bisimulation of [30], realised as ``incPCM``
restricted to singleton batches (no batch redundancy elimination — the very
thing the paper credits for incPCM's win).  Shape checks: ``incPCM`` always
beats ``IncBsim``, by more than 3x over the run, and one batch costs at most
~5x one recompression.
"""

from __future__ import annotations

import time

from repro.bench.harness import ExperimentResult
from repro.core.incremental_pattern import IncrementalPatternCompressor
from repro.core.pattern import compress_pattern
from repro.datasets.catalog import CATALOG
from repro.datasets.updates import mixed_batch


def run(quick: bool = True) -> ExperimentResult:
    g = CATALOG["youtube"].build(seed=1, scale=0.35 if quick else 0.8)
    steps = 4 if quick else 7
    step_size = max(1, int(g.size() * 0.01))

    inc = IncrementalPatternCompressor(g)
    unit = IncrementalPatternCompressor(g)  # IncBsim: one update at a time
    work = g.copy()
    rows = []
    inc_total = 0.0
    unit_total = 0.0
    seed = 40
    for i in range(1, steps + 1):
        batch = mixed_batch(work, step_size, insert_ratio=0.6, seed=seed + i)
        for op, u, v in batch:
            (work.add_edge if op == "+" else work.remove_edge)(u, v)

        start = time.perf_counter()
        inc.apply(batch)
        inc.compression()
        inc_batch = time.perf_counter() - start
        inc_total += inc_batch

        start = time.perf_counter()
        for update in batch:
            unit.apply([update])
        unit.compression()
        unit_total += time.perf_counter() - start

        start = time.perf_counter()
        compress_pattern(work)
        batch_time = time.perf_counter() - start

        rows.append(
            {
                "Δ|E|": i * step_size,
                "incPCM cumulative (s)": round(inc_total, 4),
                "IncBsim cumulative (s)": round(unit_total, 4),
                "incPCM per batch (s)": round(inc_batch, 4),
                "compressB from scratch (s)": round(batch_time, 4),
                "AFF": inc.last_affected_size,
                "winner": "incPCM" if inc_total < batch_time else "compressB",
            }
        )

    checks = [
        (
            "incPCM consistently outperforms unit-update IncBsim (the paper's "
            "robust finding)",
            all(r["incPCM cumulative (s)"] <= r["IncBsim cumulative (s)"] for r in rows),
        ),
        (
            "batch redundancy elimination pays off by >3x over unit updates",
            rows[-1]["IncBsim cumulative (s)"] > 3 * rows[-1]["incPCM cumulative (s)"],
        ),
        (
            "per-batch incPCM cost stays within ~5x of one recompression "
            "(no asymptotic blowup)",
            rows[0]["incPCM cumulative (s)"]
            <= 5 * max(r["compressB from scratch (s)"] for r in rows),
        ),
    ]
    return ExperimentResult(
        experiment="fig12g",
        title="incPCM vs compressB vs IncBsim under mixed updates (youtube)",
        notes=(
            "per batch, incPCM costs about one compressB run here: every "
            "batch reaches the giant SCC, so AFF holds ~40% of the nodes, and "
            "incPCM refines it with the same kernel compressB runs on all of "
            "G; the cumulative incPCM time passes one recompression after the "
            "first batch, so the paper's small-ΔG win shows only there; the "
            "incPCM-vs-IncBsim shape reproduces cleanly"
        ),
        columns=[
            "Δ|E|", "incPCM cumulative (s)", "IncBsim cumulative (s)",
            "incPCM per batch (s)", "compressB from scratch (s)", "AFF", "winner",
        ],
        rows=rows,
        checks=checks,
    )
