"""Per-layer span ledger for the traced run.

The program has its own tracer (``repro.obs``); the benchmark does not use
it, so that timed runs execute exactly the code users run, and so that the
layer boundaries are named by the benchmark, not by the program.  Instead,
:func:`install` wraps the public entry points of each layer with a
span-recording shim, and :func:`uninstall` restores the originals.

A span is ``(id, name, start, end, parent, thread, request)``.  Spans nest
per thread; ``request`` is the id of the client operation the span served
(a client thread sets it, the executor's dispatch inherits it from the
queries it answers).  Spans stay in memory and are written out as JSON
lines when the run ends.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import repro.core.pattern as core_pattern
import repro.core.reachability as core_reach
import repro.queries.matching as matching
import repro.store.delta as store_delta
from repro import (
    CSRGraph,
    EngineService,
    Epoch,
    GraphEngine,
    IncrementalPatternCompressor,
    IncrementalReachabilityCompressor,
    MatchContext,
    QueryRouter,
    SnapshotCatalog,
)
from repro.index.tol import TOLIndex

Span = Tuple[int, str, float, float, Optional[int], int, Any]

#: (owner class, attribute, span name) for every wrapped method.
METHODS = [
    (EngineService, "apply", "service.apply"),
    (QueryRouter, "dispatch", "engine.dispatch"),
    (QueryRouter, "dispatch_batch", "engine.dispatch"),
    (GraphEngine, "apply", "engine.apply"),
    (Epoch, "artifact", "engine.epoch"),
    (Epoch, "context_for", "engine.epoch"),
    (core_reach.ReachabilityCompression, "answer_batch", "core.answer_r"),
    (core_pattern.PatternCompression, "answer_batch", "core.answer_b"),
    (IncrementalReachabilityCompressor, "apply", "core.inc_r"),
    (IncrementalPatternCompressor, "apply", "core.inc_b"),
    (TOLIndex, "reachable", "index.lookup"),
    (TOLIndex, "__init__", "index.tol_build"),
    (MatchContext, "__init__", "queries.context"),
    (MatchContext, "label_candidates", "queries.context"),
    (MatchContext, "adjacency_bitsets", "queries.context"),
    (MatchContext, "bounded_reach", "queries.context"),
    (MatchContext, "star_reach", "queries.context"),
    (SnapshotCatalog, "put", "store.put"),
    (SnapshotCatalog, "base", "store.base"),
    (SnapshotCatalog, "reachability", "store.variant"),
    (SnapshotCatalog, "bisimulation", "store.variant"),
    (SnapshotCatalog, "tol", "store.variant"),
    (CSRGraph, "from_digraph", "graph.freeze"),
]

#: (defining module, function name, span name) for module-level functions;
#: every ``repro`` module that imported the function by name is patched too.
FUNCTIONS = [
    (core_reach, "compress_reachability_csr", "core.compress_r"),
    (core_pattern, "compress_pattern_csr", "core.compress_b"),
    (matching, "match", "queries.match"),
    (store_delta, "merge_deltas", "store.merge"),
]


class Ledger:
    """In-memory span store plus the thread-local nesting state."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: id(query object) -> client request id, for executor hand-offs.
        self.requests: Dict[int, int] = {}
        self._restore: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def request(self) -> Any:
        return getattr(self._local, "request", None)

    @request.setter
    def request(self, rid: Any) -> None:
        self._local.request = rid

    @contextmanager
    def span(self, name: str, request: Any = None) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        sid = next(self._ids)
        if request is not None:
            saved, self.request = self.request, request
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent,
                               threading.get_ident(), self.request))
            if request is not None:
                self.request = saved

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        ledger = self
        if name == "engine.dispatch":
            # Executor worker threads: tag the dispatch with the request ids
            # of the queries it answers (one id, or a tuple for a batch).
            @functools.wraps(fn)
            def dispatch(router: Any, queries: Any, *args: Any, **kwargs: Any) -> Any:
                batch = queries if isinstance(queries, list) else [queries]
                rids = tuple(ledger.requests.get(id(q), -1) for q in batch)
                with ledger.span(name, request=rids if ledger.request is None else None):
                    return fn(router, queries, *args, **kwargs)
            return dispatch

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with ledger.span(name):
                return fn(*args, **kwargs)
        return wrapper

    # -- install / uninstall --------------------------------------------
    def install(self) -> None:
        for owner, attr, name in METHODS:
            orig = owner.__dict__[attr]
            if isinstance(orig, classmethod):
                new: Any = classmethod(self._wrap(name, orig.__func__))
            else:
                new = self._wrap(name, orig)
            setattr(owner, attr, new)
            self._restore.append(functools.partial(setattr, owner, attr, orig))
        pin = EngineService.pin
        ledger = self

        @contextmanager
        def traced_pin(service: EngineService) -> Iterator[Epoch]:
            with ledger.span("service.pin"):
                with pin(service) as epoch:
                    yield epoch

        EngineService.pin = traced_pin  # type: ignore[method-assign]
        self._restore.append(functools.partial(setattr, EngineService, "pin", pin))
        for module, fname, name in FUNCTIONS:
            orig = getattr(module, fname)
            new = self._wrap(name, orig)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, new)
                        self._restore.append(functools.partial(setattr, mod, key, orig))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "thread", "request")
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


# ----------------------------------------------------------------------
# Reduction to per-layer metrics
# ----------------------------------------------------------------------
def span_seconds(spans: List[Span], name: str, window: Tuple[float, float]) -> float:
    """Total duration of the *name* spans that start inside *window*."""
    return sum(s[3] - s[2] for s in spans if s[1] == name and window[0] <= s[2] < window[1])


#: Spans that compute an artifact rather than load or look one up.
BUILDS = {"core.compress_r", "core.compress_b", "index.tol_build"}


def _self_times(spans: List[Span]) -> Tuple[Dict[int, float], Dict[int, int], set]:
    """Per span: duration minus its children's, its child count, and
    whether anything under it built an artifact."""
    child_time: Dict[int, float] = {}
    children: Dict[int, int] = {}
    built: set = set()
    # A span is recorded when it ends, so children precede their parents.
    for sid, name, start, end, parent, _, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
            children[parent] = children.get(parent, 0) + 1
            if name in BUILDS or sid in built:
                built.add(parent)
    selfs = {s[0]: (s[3] - s[2]) - child_time.get(s[0], 0.0) for s in spans}
    return selfs, children, built


def layer_metrics(
    spans: List[Span],
    timed: Tuple[float, float],
    builds: List[Tuple[float, float]],
    reach_latency: Dict[int, float],
    reach_ops: int,
    pattern_ops: int,
) -> Dict[str, float]:
    """Reduce the spans to the per-layer ledger.

    Query-path figures come from spans starting inside the *timed* window;
    build and store figures from spans inside any of the *builds* windows
    (set-up, restart and the timed phase).  *reach_latency* maps each timed
    reachability request id to its client-observed latency.
    """
    selfs, nchild, built = _self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for s in spans:
        by_name.setdefault(s[1], []).append(s)
    t0, t1 = timed

    def in_timed(s: Span) -> bool:
        return t0 <= s[2] < t1

    def in_builds(s: Span) -> bool:
        return any(a <= s[2] < b for a, b in builds)

    def total(name: str, window: Callable[[Span], bool],
              use_self: bool = False) -> Tuple[int, float]:
        chosen = [s for s in by_name.get(name, ()) if window(s)]
        secs = sum(selfs[s[0]] if use_self else s[3] - s[2] for s in chosen)
        return len(chosen), secs

    def per(n: float, d: float) -> float:
        return n / d if d else 0.0

    reach_q = max(reach_ops, 1)
    out: Dict[str, float] = {}

    # service: executor hand-off = client latency minus the request's share
    # of the dispatch that answered it.
    share: Dict[int, float] = {}
    dispatch_q = 0
    for s in by_name.get("engine.dispatch", ()):
        if in_timed(s) and isinstance(s[6], tuple):
            rids = s[6]
            dispatch_q += len(rids)
            for rid in rids:
                share[rid] = (s[3] - s[2]) / len(rids)
    waits = [lat - share[rid] for rid, lat in reach_latency.items() if rid in share]
    out["service.executor_wait_us"] = per(sum(waits), len(waits)) * 1e6
    _, pin_self = total("service.pin", in_timed, use_self=True)
    out["service.query_self_us"] = per(pin_self, dispatch_q) * 1e6
    _, disp_self = total("engine.dispatch", in_timed, use_self=True)
    all_q = max(reach_ops + pattern_ops, 1)
    out["engine.dispatch_self_us"] = disp_self / all_q * 1e6
    n_look, look_self = total("index.lookup", in_timed, use_self=True)
    out["index.lookups"] = n_look
    out["index.lookup_self_us"] = per(look_self, n_look) * 1e6
    _, ar_self = total("core.answer_r", in_timed, use_self=True)
    out["core.answer_r_self_us"] = ar_self / reach_q * 1e6

    # queries: matching and its evaluation caches.
    n_match, match_self = total("queries.match", in_timed, use_self=True)
    out["queries.match_calls"] = n_match
    out["queries.match_s"] = match_self
    out["queries.match_ms_per_call"] = per(match_self, n_match) * 1e3
    _, ctx_self = total("queries.context", in_builds, use_self=True)
    out["queries.context_build_s"] = ctx_self
    out["queries.memo_hit_ratio"] = (
        max(0.0, 1.0 - n_match / pattern_ops) if pattern_ops else 0.0
    )
    _, ab_self = total("core.answer_b", in_timed, use_self=True)
    out["core.answer_b_self_us"] = per(ab_self, pattern_ops) * 1e6

    # builds: compression, labels, epochs, publication, catalog.
    n_r, r_s = total("core.compress_r", in_builds)
    n_b, b_s = total("core.compress_b", in_builds)
    out["core.compress_calls"] = n_r + n_b
    out["core.compress_r_s"] = r_s
    out["core.compress_b_s"] = b_s
    n_tol, tol_s = total("index.tol_build", in_builds)
    out["index.tol_builds"] = n_tol
    out["index.tol_build_s"] = tol_s
    epoch_calls = [s for s in by_name.get("engine.epoch", ()) if in_builds(s)]
    building = [s for s in epoch_calls if nchild.get(s[0])]
    out["engine.epoch_build_self_s"] = sum(selfs[s[0]] for s in building)
    # A reader blocked on another thread's build: an epoch call that did no
    # work itself but overlapped a building call on another thread.
    wait = 0.0
    for s in epoch_calls:
        if nchild.get(s[0]):
            continue
        if any(b[5] != s[5] and b[2] < s[3] and s[2] < b[3] for b in building):
            wait += s[3] - s[2]
    out["engine.build_wait_s"] = wait
    n_pub, pub_self = total("service.apply", in_builds, use_self=True)
    out["service.publish_self_ms"] = per(pub_self, n_pub) * 1e3
    n_put, put_s = total("store.put", in_builds)
    out["store.put_calls"] = n_put
    out["store.put_s"] = put_s
    out["store.merge_s"] = total("store.merge", in_builds)[1]

    # incremental maintenance (GraphEngine sessions).
    out["core.inc_r_s"] = total("core.inc_r", in_builds)[1]
    out["core.inc_b_s"] = total("core.inc_b", in_builds)[1]
    out["engine.apply_self_s"] = total("engine.apply", in_builds, use_self=True)[1]
    n_freeze, freeze_s = total("graph.freeze", in_builds)
    out["graph.freeze_calls"] = n_freeze
    out["graph.freeze_s"] = freeze_s

    # restart: warm loads from the catalog (variant calls that built nothing).
    variants = [s for s in by_name.get("store.variant", ()) if in_builds(s)]
    warm = [s for s in variants if s[0] not in built]
    out["store.load_s"] = (sum(selfs[s[0]] for s in warm)
                           + total("store.base", in_builds)[1])
    out["store.warm_hit_ratio"] = per(len(warm), len(variants))
    return out
