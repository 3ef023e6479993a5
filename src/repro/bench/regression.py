"""Benchmark-regression gate: compare ``BENCH_*.json`` against baselines.

The repo's benchmarks record *machine-relative ratios* (CSR-over-dict
speedup, warm-over-cold load, concurrent-over-serial throughput) precisely
so runs on different hardware stay comparable: a ratio that collapses
means the optimisation regressed, not that the runner was slow.  This
module turns that into CI enforcement:

* ``python -m repro.bench check --baseline benchmarks/baselines`` compares
  the current directory's ``BENCH_*.json`` files against the committed
  baselines, ratio by ratio, with a tolerance band (default 50% — shared
  runners are noisy; a real regression shows up far below the band);
* every *semantic gate* recorded in the current results must pass — the
  gate is not only about speed trends but about the identity checks that
  define correctness (byte-identical backends, exact routed answers,
  concurrent == serial).

Baselines are plain benchmark payloads: refresh one by running the
experiment and copying its ``BENCH_<id>.json`` into the baseline
directory.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

PathLike = Union[str, Path]

#: Per-experiment comparison spec: which row fields identify a row and
#: which fields are higher-is-better ratios to gate on.
EXPERIMENT_RATIOS: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "kernels": {"key": ("graph", "task"), "ratios": ("speedup",)},
    "store": {
        "key": ("graph",),
        "ratios": ("speedup", "v1/v2 size x", "eager/mmap mem x"),
    },
    "engine": {
        "key": ("graph",),
        "ratios": ("warm/direct x", "batch/one-shot x", "tol/bfs x"),
    },
    "service": {"key": ("graph", "mode", "workers"), "ratios": ("speedup",)},
}

def _is_gate(check: dict) -> bool:
    # Older payloads (kernels) predate the explicit flag; their only
    # semantic gate is the byte-identical backend check.
    if "gate" in check:
        return bool(check["gate"])
    return "byte-identical" in check.get("description", "")


def _row_key(row: dict, fields: Tuple[str, ...]) -> Tuple:
    return tuple(row.get(f) for f in fields)


def _numeric(value: object) -> Optional[float]:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return None
    if value != value:  # NaN
        return None
    return float(value)


def _trend(history: Optional[List[dict]], experiment: str, key: Tuple,
           field: str) -> str:
    """The trend column for one gate line: the ratio's recent history
    (oldest→newest) when a bench history is available, else empty."""
    if not history:
        return ""
    from repro.bench.history import ratio_series, trend_cell

    cell = trend_cell(
        ratio_series(history, experiment, "/".join(map(str, key)), field)
    )
    return f"  [trend {cell}]" if cell else ""


def compare_payloads(
    baseline: dict, current: dict, tolerance: float,
    history: Optional[List[dict]] = None,
) -> Tuple[bool, List[str]]:
    """Compare one experiment's payloads; returns ``(passed, report lines)``.

    *history* (a :func:`repro.bench.history.load_history` record list)
    adds a trend column to each ratio line.
    """
    experiment = baseline.get("experiment", "?")
    spec = EXPERIMENT_RATIOS.get(experiment)
    lines: List[str] = []
    ok = True

    for check in current.get("checks", []):
        if _is_gate(check) and not check.get("passed", False):
            ok = False
            lines.append(f"FAIL [{experiment}] semantic gate: {check['description']}")

    if spec is None:
        lines.append(f"note [{experiment}] no ratio spec; semantic gates only")
        return ok, lines

    current_rows = {
        _row_key(row, spec["key"]): row for row in current.get("rows", [])
    }
    floor_factor = 1.0 - tolerance
    for row in baseline.get("rows", []):
        key = _row_key(row, spec["key"])
        cur = current_rows.get(key)
        for field in spec["ratios"]:
            base_val = _numeric(row.get(field))
            if base_val is None:
                continue  # non-ratio row (e.g. the stress row)
            label = f"[{experiment}] {'/'.join(map(str, key))} {field}"
            if cur is None:
                ok = False
                lines.append(f"FAIL {label}: row missing from current results")
                break
            cur_val = _numeric(cur.get(field))
            if cur_val is None:
                ok = False
                lines.append(f"FAIL {label}: current value missing/non-numeric")
                continue
            trend = _trend(history, experiment, key, field)
            floor = base_val * floor_factor
            if cur_val < floor:
                ok = False
                lines.append(
                    f"FAIL {label}: {cur_val:.2f} < {floor:.2f} "
                    f"(baseline {base_val:.2f}, tolerance {tolerance:.0%})"
                    f"{trend}"
                )
            else:
                lines.append(
                    f"pass {label}: {cur_val:.2f} >= {floor:.2f} "
                    f"(baseline {base_val:.2f}){trend}"
                )

    # Latency-percentile tail ratios (service): *lower* is better, so the
    # band is a ceiling, and it is doubled — tails are noisier than
    # throughput medians on shared runners, and a real tail regression
    # (a class of queries suddenly 10x over its median) clears any band.
    base_pct = baseline.get("percentiles")
    if base_pct:
        cur_pct = current.get("percentiles", {})
        ceiling_factor = 1.0 + 2.0 * tolerance
        for cls, base_entry in sorted(base_pct.items()):
            base_tail = _numeric(base_entry.get("tail_ratio"))
            if base_tail is None:
                continue
            label = f"[{experiment}] {cls} tail_ratio(p99/p50)"
            base_count = _numeric(base_entry.get("count"))
            if base_count is not None and base_count < 50:
                lines.append(
                    f"note {label}: only {int(base_count)} baseline "
                    f"samples; not gated"
                )
                continue
            cur_entry = cur_pct.get(cls)
            cur_tail = (
                _numeric(cur_entry.get("tail_ratio"))
                if cur_entry is not None else None
            )
            if cur_tail is None:
                ok = False
                lines.append(f"FAIL {label}: missing from current results")
                continue
            ceiling = base_tail * ceiling_factor
            if cur_tail > ceiling:
                ok = False
                lines.append(
                    f"FAIL {label}: {cur_tail:.2f} > {ceiling:.2f} "
                    f"(baseline {base_tail:.2f}, tolerance {tolerance:.0%} doubled)"
                )
            else:
                lines.append(
                    f"pass {label}: {cur_tail:.2f} <= {ceiling:.2f} "
                    f"(baseline {base_tail:.2f})"
                )
    return ok, lines


def check_against_baselines(
    baseline_dir: PathLike,
    current_dir: PathLike = ".",
    tolerance: float = 0.5,
    history: Optional[List[dict]] = None,
) -> Tuple[bool, List[str]]:
    """Compare every ``BENCH_*.json`` baseline against the current copies.

    A baseline without a matching current file fails (the bench stopped
    producing it — that is itself a regression); current files without a
    baseline are reported but do not fail (new experiments land first,
    their baselines are committed with them).  *history* adds the trend
    column (see :func:`compare_payloads`).
    """
    if not 0.0 <= tolerance < 1.0:
        raise ValueError("tolerance must be in [0, 1)")
    baseline_dir = Path(baseline_dir)
    current_dir = Path(current_dir)
    baselines = sorted(baseline_dir.glob("BENCH_*.json"))
    if not baselines:
        return False, [f"FAIL no BENCH_*.json baselines under {baseline_dir}"]
    ok = True
    lines: List[str] = []
    for path in baselines:
        baseline = json.loads(path.read_text(encoding="utf-8"))
        current_path = current_dir / path.name
        if not current_path.exists():
            ok = False
            lines.append(f"FAIL {path.name}: not produced by the current run")
            continue
        current = json.loads(current_path.read_text(encoding="utf-8"))
        file_ok, file_lines = compare_payloads(
            baseline, current, tolerance, history=history
        )
        ok &= file_ok
        lines.extend(file_lines)
    for path in sorted(current_dir.glob("BENCH_*.json")):
        if not (baseline_dir / path.name).exists():
            lines.append(f"note {path.name}: no committed baseline yet")
    return ok, lines
