"""Drive the program the way an embedding application does.

Serving workloads run closed-loop client threads over ``QueryExecutor``
(thread mode) on an ``EngineService``; ``engine-evolve`` runs one client
over a ``GraphEngine`` session, its single writer.  Every service and
session sits on a ``SnapshotCatalog`` in a directory of its own, on the
``csr`` backend.  Each operation is recorded with its latency, the graph
version that answered it and, for a deterministic sample, its answer, so
:mod:`verify` can re-derive it from G afterwards, outside the timed phase.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro import (
    DiGraph,
    EngineService,
    GraphEngine,
    QueryExecutor,
    ReachabilityQuery,
    SnapshotCatalog,
)

from workloads import Op, apply_batch, evolve_batch, probe_pattern

#: Keep every n-th answer of each kind for verification, which re-derives
#: a few hundred of them: keeping all would only slow the run's end.
SAMPLE_EVERY = {"reach": 16, "pattern": 7, "write": 1}


class Phase:
    """Every operation of a timed phase, column-wise.

    Columns keep the per-operation cost of bookkeeping to a few appends,
    so the benchmark's own allocations barely touch the program's garbage
    collector.  The numeric ones are arrays, which hold no object per
    operation: otherwise the benchmark's memory, and so ``rss_peak_mb``,
    would grow with the program's throughput.  ``answer`` holds each
    reachability answer and a deterministic sample of pattern answers
    (``None`` elsewhere).
    """

    def __init__(self) -> None:
        self.kind: List[str] = []        # "reach", "pattern" or "write"
        self.latency = array("d")        # seconds, as the client saw it
        self.done = array("d")           # completion time (perf_counter)
        self.version: List[int] = []     # graph version that answered
        self.query: List[Any] = []
        self.answer: List[Any] = []
        self.request = array("q")
        #: operation position -> error text
        self.errors: Dict[int, str] = {}
        #: write position -> ((probe query, answer, version answered on), ...)
        self.probes: Dict[int, Tuple[Tuple[Any, Any, int], ...]] = {}
        self.start = 0.0
        self.end = 0.0
        self.busy = 0.0                  # seconds the clients were measuring
        self.mean_batch = 0.0
        self.fallbacks = 0
        #: One client in series: measured time is the sum of latencies
        #: (the clock pauses while the next batch is generated).
        self.serial = False

    def __len__(self) -> int:
        return len(self.kind)

    def windows(self, seconds: float) -> List[Tuple[List[int], float]]:
        """Operation positions split into consecutive windows of about
        *seconds* of measured time each (at least one), with each window's
        operation rate."""
        k = max(1, round(self.busy / seconds))
        if self.serial:
            clock, t = [], 0.0
            for lat in self.latency:
                t += lat
                clock.append(t)
        else:
            clock = [d - self.start for d in self.done]
        span = max(clock[-1] if self.serial else self.busy, 1e-9)
        out: List[List[int]] = [[] for _ in range(k)]
        for pos, c in enumerate(clock):
            out[min(k - 1, int(c / span * k))].append(pos)
        # In series the window's own latencies are its measured time; a
        # fixed window length would count whole write cycles in or out.
        return [(pos, len(pos) / (sum(self.latency[i] for i in pos) if self.serial
                                  else self.busy / k)) for pos in out if pos]

    def extend(self, other: "Phase") -> None:
        base = len(self)
        for name in ("kind", "latency", "done", "version", "query", "answer", "request"):
            getattr(self, name).extend(getattr(other, name))
        self.errors.update({base + i: e for i, e in other.errors.items()})
        self.probes.update({base + i: p for i, p in other.probes.items()})


def dir_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


# ----------------------------------------------------------------------
# Set-up and restart
# ----------------------------------------------------------------------
Target = Any  # an EngineService or a GraphEngine


def _open(api: str, source: Any, catalog: SnapshotCatalog) -> Target:
    if api == "service":
        return EngineService(source, catalog=catalog)
    return GraphEngine(source, catalog=catalog)


def close(target: Target) -> None:
    """Close a service; an engine session holds nothing to release."""
    if isinstance(target, EngineService):
        target.close()


def _probes(graph: DiGraph) -> List[Any]:
    nodes = graph.node_list()
    return [ReachabilityQuery(nodes[0], nodes[-1]), probe_pattern(graph)]


def cold_setup(api: str, graph: DiGraph, root: Path) -> Tuple[float, Target, List[Any]]:
    """Catalog put, Gr, Gb, TOL and the pattern context, all cold.

    Timed from the generated graph in memory (a private copy, made before
    the clock starts, because services adopt their graph) until one query
    of each class has answered.
    """
    own = graph.copy()
    probes = _probes(graph)
    gc.collect()
    t0 = time.perf_counter()
    target = _open(api, own, SnapshotCatalog(root))
    answers = [target.query(q) for q in probes]
    return time.perf_counter() - t0, target, list(zip(probes, answers))


def warm_restart(api: str, graph: DiGraph, root: Path) -> Tuple[float, Target, List[Any]]:
    """A fresh catalog handle and a fresh service over a filled catalog."""
    probes = _probes(graph)
    gc.collect()
    t0 = time.perf_counter()
    catalog = SnapshotCatalog(root)
    (digest,) = catalog.digests()
    target = _open(api, catalog.base(digest), catalog)
    answers = [target.query(q) for q in probes]
    return time.perf_counter() - t0, target, list(zip(probes, answers))


#: How often to repeat set-up or restart in one batch of them: at least
#: ``least`` times, then more while their total stays under ``budget``
#: seconds, and never more than ``most`` times.
Repeats = Tuple[int, float, int]


def _repeats(times: List[float], reps: Repeats) -> bool:
    least, budget, most = reps
    return len(times) < least or (sum(times) < budget and len(times) < most)


def measure_setup(api: str, graph: DiGraph, root: Path, setups: Repeats,
                  restarts: Repeats
                  ) -> Tuple[List[float], List[float], Target, int, list]:
    """Repeat cold set-up and warm restart over the catalog at *root*; keep
    the last restarted service (or engine) open.

    Returns (setup times, restart times, session, catalog bytes, probe answers).
    """
    setup_s: List[float] = []
    checks: list = []
    while _repeats(setup_s, setups):
        if root.exists():
            shutil.rmtree(root)
        dt, target, answers = cold_setup(api, graph, root)
        setup_s.append(dt)
        checks.extend(answers)
        close(target)
    store_bytes = dir_bytes(root)
    restart_s: List[float] = []
    target = None
    while _repeats(restart_s, restarts):
        if target is not None:
            close(target)
        dt, target, answers = warm_restart(api, graph, root)
        restart_s.append(dt)
        checks.extend(answers)
    return setup_s, restart_s, target, store_bytes, checks


# ----------------------------------------------------------------------
# Serving: EngineService + QueryExecutor, closed loop
# ----------------------------------------------------------------------
class Writer:
    """Applies the next growth batch and reads both classes on the result."""

    def __init__(self, service: EngineService, executor: QueryExecutor,
                 batches: List[list], pool: List[Any]) -> None:
        self.service = service
        self.executor = executor
        self.batches = batches
        self.pool = pool
        self.applied = 0
        self._lock = threading.Lock()

    def write(self) -> Tuple[int, Tuple[Tuple[Any, Any, int], ...]]:
        # The outer lock only pairs batch i with version i; EngineService
        # serialises writers on its own lock anyway.
        with self._lock:
            i = self.applied
            if i >= len(self.batches):
                raise RuntimeError("benchmark ran out of pre-generated batches")
            self.service.apply(self.batches[i])
            self.applied = i + 1
        version = i + 1
        _, u, v = self.batches[i][0]
        probes = [ReachabilityQuery(v, u), self.pool[i % len(self.pool)]]
        futures = [self.executor.submit(q) for q in probes]
        out = []
        for q, f in zip(probes, futures):
            ans = f.result()
            answered = f.epoch_version
            if answered < version:
                raise AssertionError(f"write {version} not visible: answered on {answered}")
            out.append((q, ans, answered))
        return version, tuple(out)


def serve(service: EngineService, executor: QueryExecutor, streams: List[List[Op]],
          cursors: List[int], seconds: float, writer: Optional[Writer],
          ledger: Any = None, request_base: int = 0) -> Phase:
    """Run every client stream closed-loop for *seconds*."""
    phase = Phase()
    lock = threading.Lock()
    start_gate = threading.Barrier(len(streams) + 1)
    deadline = [0.0]

    def client(c: int) -> None:
        ops = streams[c]
        i = cursors[c]
        log = Phase()
        seen = {"reach": 0, "pattern": 0, "write": 0}
        start_gate.wait()
        end = deadline[0]
        while time.perf_counter() < end:
            kind, q = ops[i % len(ops)]
            i += 1
            if kind == "write" and writer is None:
                continue
            rid = request_base + c * 10_000_000 + i
            seen[kind] += 1
            keep = seen[kind] % SAMPLE_EVERY[kind] == 0
            if ledger is not None:
                ledger.request = rid
                ledger.requests[id(q)] = rid
            ans = version = None
            t0 = time.perf_counter()
            try:
                if kind == "write":
                    version, log.probes[len(log)] = writer.write()
                else:
                    f = executor.submit(q)
                    ans = f.result()
                    version = f.epoch_version
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                log.errors[len(log)] = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            log.latency.append(t1 - t0)
            log.done.append(t1)
            log.kind.append(kind)
            log.version.append(version)
            log.query.append(q)
            log.answer.append(ans if keep else None)
            log.request.append(rid)
        cursors[c] = i
        with lock:
            phase.extend(log)

    threads = [threading.Thread(target=client, args=(c,), name=f"bench-client-{c}")
               for c in range(len(streams))]
    for t in threads:
        t.start()
    phase.start = time.perf_counter()
    deadline[0] = phase.start + seconds
    start_gate.wait()
    for t in threads:
        t.join()
    phase.end = time.perf_counter()
    phase.busy = phase.end - phase.start
    return phase


# ----------------------------------------------------------------------
# engine-evolve: one GraphEngine session, its single writer
# ----------------------------------------------------------------------
class Evolver:
    """The engine-evolve update log: each mixed batch, then its inverse.

    Undoing every batch keeps the graph at its initial size and shape
    however many batches a run gets through, so a faster program meets
    the same workload rather than a graph that has drifted further.
    Batches are drawn (off the clock) against the benchmark's shadow copy
    of G and remembered for the replay check.
    """

    def __init__(self, graph: DiGraph) -> None:
        self.shadow = graph.copy()
        self.batches: List[list] = []

    def next_batch(self) -> list:
        if len(self.batches) % 2:
            batch = [("-" if op == "+" else "+", u, v)
                     for op, u, v in reversed(self.batches[-1])]
        else:
            batch = evolve_batch(self.shadow, len(self.batches) // 2)
        apply_batch(self.shadow, batch)
        self.batches.append(batch)
        return batch


def evolve(engine: GraphEngine, evolver: Evolver, stream: List[Op], cursor: List[int],
           seconds: float, reads_per_write: int, pool: List[Any],
           ledger: Any = None, request_base: int = 0) -> Phase:
    """Alternate one write with *reads_per_write* reads for *seconds* of
    measured time (at least one cycle); generating the next batch is not
    measured."""
    log = Phase()
    log.start = time.perf_counter()
    busy = 0.0
    i = cursor[0]
    seen = {"reach": 0, "pattern": 0, "write": 0}
    while True:
        batch = evolver.next_batch()
        version = len(evolver.batches)
        t_cycle = time.perf_counter()
        _, u, v = batch[0]
        probes = [ReachabilityQuery(v, u), pool[version % len(pool)]]
        for n in range(reads_per_write + 1):
            if n == 0:
                kind, q = "write", None
            else:
                kind, q = stream[i % len(stream)]
                i += 1
            rid = request_base + i * (reads_per_write + 1) + n
            if ledger is not None:
                ledger.request = rid
            seen[kind] += 1
            keep = seen[kind] % SAMPLE_EVERY[kind] == 0
            ans = None
            t0 = time.perf_counter()
            try:
                if kind == "write":
                    engine.apply(batch)
                    log.probes[len(log)] = tuple(
                        (p, engine.query(p), version) for p in probes)
                else:
                    ans = engine.query(q)
            except Exception as exc:  # noqa: BLE001 - every failure is counted
                log.errors[len(log)] = f"{type(exc).__name__}: {exc}"
            t1 = time.perf_counter()
            log.latency.append(t1 - t0)
            log.done.append(t1)
            log.kind.append(kind)
            log.version.append(version)
            log.query.append(q)
            log.answer.append(ans if keep else None)
            log.request.append(rid)
        busy += time.perf_counter() - t_cycle
        if busy >= seconds:
            break
    cursor[0] = i
    log.end = time.perf_counter()
    log.busy = busy
    log.serial = True
    return log


def median(xs: List[float]) -> float:
    return statistics.median(xs) if xs else 0.0


def percentile(xs: List[float], q: float) -> float:
    """Linear-interpolated *q*-th percentile (0..100) of *xs*."""
    if not xs:
        return 0.0
    s = sorted(xs)
    pos = (len(s) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    return int(n * (100.0 - q) / 100.0)

