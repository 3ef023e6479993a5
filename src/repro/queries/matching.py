"""``Match`` — graph pattern matching via bounded simulation [9].

A data graph ``G`` matches a pattern ``Qp`` iff there is a binary relation
``S ⊆ Vp × V`` such that every pattern node has a match, matched data nodes
carry the required label, and every pattern edge ``(u, u')`` with bound
``b`` is matched from every ``(u, v) ∈ S`` by a nonempty path of length
``<= b`` (any length for ``*``) to some ``v'`` with ``(u', v') ∈ S``.
Lemma 1 [9]: when a match exists, a unique *maximum* match ``SM`` exists;
the answer to ``Qp`` is ``SM``, or the empty relation otherwise.

Algorithm: greatest-fixpoint candidate refinement over per-bound
reachability bitsets.

* ``cand(u)`` starts as all data nodes with label ``fv(u)``;
* for every pattern edge ``(u, u')`` with bound ``b``, remove ``v`` from
  ``cand(u)`` if no node of ``cand(u')`` lies within ``b`` nonempty hops of
  ``v`` (one AND of ``v``'s bound-``b`` reachability bitset with
  ``cand(u')``);
* iterate until stable; if any candidate set empties, there is no match.

The per-bound reachability bitsets — ``reach_b(v)`` = nodes reachable from
``v`` via nonempty paths of length ``<= b`` — are the expensive part; they
depend only on the data graph, so :class:`MatchContext` caches them across
the many patterns of one benchmark run.  Correctness is cross-validated
against :func:`match_naive`, a direct depth-bounded-BFS implementation of
the definition.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Hashable, Iterable, List, Optional, Set, Union

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph, NodeIndexer
from repro.obs.metrics import inc as obs_inc
from repro.graph.scc import condensation
from repro.graph.traversal import bfs_distances, topological_order
from repro.queries.pattern import STAR, Bound, GraphPattern

Node = Hashable

MatchResult = Dict[Node, Set[Node]]


def _snapshot_matches(csr: CSRGraph, graph: DiGraph) -> bool:
    """Best-effort check that *csr* is a freeze of *graph*.

    O(n), no per-edge hashing (that cost is exactly what adopting a
    snapshot avoids): edge count, node list, every node's label and every
    node's out- *and* in-degree must agree.  This catches wrong-file
    confusion, relabeling, and any edge delta that shifts a degree in
    either direction (a single rewire ``u→a ⇒ u→b`` keeps u's out-degree
    but moves an in-degree); an adversarial rewire preserving all degrees
    is the caller's responsibility (compare ``csr.digest()`` when in
    doubt).
    """
    if csr.m != graph.size() or csr.node_order() != graph.node_list():
        return False
    indptr = csr.fwd()[0]
    rindptr = csr.rev()[0]
    successors = graph.successors
    predecessors = graph.predecessors
    label_names = csr.label_names
    codes = csr.label_codes()
    graph_label = graph.label
    return all(
        indptr[i + 1] - indptr[i] == len(successors(v))
        and rindptr[i + 1] - rindptr[i] == len(predecessors(v))
        and label_names[codes[i]] == graph_label(v)
        for i, v in enumerate(csr.node_order())
    )


class MatchContext:
    """Per-graph cache of candidate and reachability bitsets.

    Build one per data graph and pass it to repeated :func:`match` calls;
    the benchmarks rely on this to evaluate hundreds of patterns without
    recomputing closures.

    ``backend="csr"`` (default) freezes the graph once (lazily, or adopts a
    pre-frozen/snapshot-loaded *csr*) and builds candidate and adjacency
    bitsets from the frozen label/adjacency arrays — no per-node hashing.
    ``backend="dict"`` is the original dict-of-sets path, kept as the
    cross-validation reference; both produce identical bitsets because the
    frozen integer ids coincide with the indexer's insertion-order ids.

    A bare :class:`CSRGraph` may be passed as *graph* (no dict backend
    involved at all): the context then runs entirely over the frozen
    arrays — the entry point for snapshot consumers such as the engine's
    session cache, which matches patterns straight off a catalog-loaded
    snapshot.  Such a context has ``graph is None`` and cannot be
    ``invalidate``\\ d (snapshots are immutable; freeze a new one instead).

    Thread safety
    -------------
    All lazy cache builds run under an internal reentrant lock with a
    lock-free fast path for already-built entries, so one context can be
    shared by concurrent reader threads (the epoch snapshots of
    :mod:`repro.engine.epoch` rely on this): a cache entry is computed
    exactly once and never mutated after it is published.  :meth:`seal`
    additionally forbids :meth:`invalidate`, turning the context into a
    permanently read-only shared cache; :meth:`prepare` pre-builds the
    caches eagerly, so the first queries against it pay no build cost.
    """

    def __init__(
        self,
        graph: "Union[DiGraph, CSRGraph]",
        csr: Optional[CSRGraph] = None,
        backend: str = "csr",
    ) -> None:
        if backend not in ("csr", "dict"):
            raise ValueError(f"unknown backend: {backend!r} (expected 'csr' or 'dict')")
        if isinstance(graph, CSRGraph):
            if csr is not None and csr is not graph:
                raise ValueError("pass the snapshot once (as graph or csr, not both)")
            if backend != "csr":
                raise ValueError("a frozen snapshot requires backend='csr'")
            csr, graph = graph, None
        else:
            if csr is not None and backend != "csr":
                raise ValueError("a pre-frozen csr snapshot requires backend='csr'")
            if csr is not None and not _snapshot_matches(csr, graph):
                raise ValueError("csr snapshot does not match the graph")
        self.graph = graph
        self.backend = backend
        self.indexer = csr.indexer if csr is not None else NodeIndexer(graph.node_list())
        self._csr = csr
        self._adjacency: Optional[Dict[Node, int]] = None
        self._bounded: Dict[int, Dict[Node, int]] = {}
        self._star: Optional[Dict[Node, int]] = None
        self._label_bits: Dict[str, int] = {}
        self._label_masks: Optional[Dict[str, int]] = None
        # Reentrant: bounded_reach(k) builds bounded_reach(k-1) while held.
        self._cache_lock = threading.RLock()
        self._sealed = False
        self._answer_memo: Optional[Dict[Any, Any]] = None

    # -- frozen snapshot --------------------------------------------------
    def frozen(self) -> CSRGraph:
        """The freeze-once CSR snapshot backing the fast paths (lazy)."""
        if self._csr is None:
            with self._cache_lock:
                if self._csr is None:
                    self._csr = CSRGraph.from_digraph(self.graph)
        return self._csr

    # -- candidates ------------------------------------------------------
    def label_candidates(self, label: str) -> int:
        """Bitset of data nodes carrying *label*."""
        if self.backend == "csr":
            # One cache only: a single pass over the frozen label-code array
            # builds every label's candidate bitset at once; _label_bits
            # stays the dict backend's per-label cache.
            masks = self._label_masks
            if masks is None:
                with self._cache_lock:
                    masks = self._label_masks
                    if masks is None:
                        csr = self.frozen()
                        by_code = [0] * len(csr.label_names)
                        for i, code in enumerate(csr.label_codes()):
                            by_code[code] |= 1 << i
                        masks = dict(zip(csr.label_names, by_code))
                        self._label_masks = masks
            return masks.get(label, 0)
        cached = self._label_bits.get(label)
        if cached is None:
            with self._cache_lock:
                cached = self._label_bits.get(label)
                if cached is None:
                    cached = self.indexer.bitset(self.graph.nodes_with_label(label))
                    self._label_bits[label] = cached
        return cached

    # -- reachability ------------------------------------------------------
    def adjacency_bitsets(self) -> Dict[Node, int]:
        """``reach_1``: successor bitsets."""
        if self._adjacency is None:
            with self._cache_lock:
                if self._adjacency is None:
                    self._adjacency = self._build_adjacency()
        return self._adjacency

    def _build_adjacency(self) -> Dict[Node, int]:
        if self.backend == "csr":
            csr = self.frozen()
            indptr, indices = csr.fwd()
            bits = [1 << i for i in range(csr.n)]
            node_of = self.indexer.node
            adjacency: Dict[Node, int] = {}
            for i in range(csr.n):
                mask = 0
                for ei in range(indptr[i], indptr[i + 1]):
                    mask |= bits[indices[ei]]
                adjacency[node_of(i)] = mask
            return adjacency
        return {
            v: self.indexer.bitset(self.graph.successors(v))
            for v in self.graph.nodes()
        }

    def bounded_reach(self, bound: int) -> Dict[Node, int]:
        """``reach_bound``: nodes within 1..bound hops, as bitsets.

        ``reach_k(v) = reach_1(v) ∪ ⋃_{c ∈ succ(v)} reach_{k-1}(c)``,
        computed by ``bound - 1`` rounds of adjacency composition.
        """
        cached = self._bounded.get(bound)
        if cached is not None:
            return cached
        with self._cache_lock:
            cached = self._bounded.get(bound)
            if cached is not None:
                return cached
            adj = self.adjacency_bitsets()
            if bound == 1:
                self._bounded[1] = adj
                return adj
            prev = self.bounded_reach(bound - 1)
            current: Dict[Node, int] = {}
            if self.backend == "csr":
                csr = self.frozen()
                indptr, indices = csr.fwd()
                node_of = self.indexer.node
                for i in range(csr.n):
                    v = node_of(i)
                    mask = adj[v]
                    for ei in range(indptr[i], indptr[i + 1]):
                        mask |= prev[node_of(indices[ei])]
                    current[v] = mask
            else:
                for v in self.graph.nodes():
                    mask = adj[v]
                    for c in self.graph.successors(v):
                        mask |= prev[c]
                    current[v] = mask
            self._bounded[bound] = current
            return current

    def star_reach(self) -> Dict[Node, int]:
        """``reach_*``: strict descendants (nonempty paths), via condensation."""
        if self._star is not None:
            return self._star
        with self._cache_lock:
            if self._star is None:
                if self.backend == "csr":
                    self._star = self._star_reach_csr()
                else:
                    self._star = self._star_reach_dict()
            return self._star

    def _star_reach_dict(self) -> Dict[Node, int]:
        """Reference implementation over the mutable dict backend."""
        cond = condensation(self.graph)
        full: Dict[int, int] = {
            s: self.indexer.bitset(members) for s, members in cond.members.items()
        }
        below: Dict[int, int] = {}
        for s in reversed(topological_order(cond.dag)):
            mask = 0
            for c in cond.dag.successors(s):
                mask |= full[c] | below[c]
            below[s] = mask
        star: Dict[Node, int] = {}
        for s, members in cond.members.items():
            mask = below[s]
            if s in cond.cyclic:
                mask |= full[s]
            for v in members:
                star[v] = mask
        return star

    def _star_reach_csr(self) -> Dict[Node, int]:
        """Closure over the frozen condensation, exploiting that component
        ids come out in reverse topological order (children before parents —
        no explicit sort)."""
        from repro.graph.kernels import csr_condensation

        csr = self.frozen()
        cond = csr_condensation(csr)
        ncomp = cond.ncomp
        comp_ptr, comp_nodes = cond.comp_ptr, cond.comp_nodes
        indptr, indices = cond.indptr, cond.indices
        full = [0] * ncomp
        for c in range(ncomp):
            mask = 0
            for v in comp_nodes[comp_ptr[c] : comp_ptr[c + 1]]:
                mask |= 1 << v
            full[c] = mask
        below = [0] * ncomp
        for c in range(ncomp):  # ascending id = children already final
            mask = 0
            for ei in range(indptr[c], indptr[c + 1]):
                d = indices[ei]
                mask |= full[d] | below[d]
            below[c] = mask
        node_of = self.indexer.node
        cyclic = cond.cyclic
        star: Dict[Node, int] = {}
        for c in range(ncomp):
            mask = below[c]
            if cyclic[c]:
                mask |= full[c]
            for v in comp_nodes[comp_ptr[c] : comp_ptr[c + 1]]:
                star[node_of(v)] = mask
        return star

    def reach(self, bound: Bound) -> Dict[Node, int]:
        return self.star_reach() if bound == STAR else self.bounded_reach(bound)

    # -- sharing contract -------------------------------------------------
    @property
    def sealed(self) -> bool:
        return self._sealed

    def seal(self) -> "MatchContext":
        """Mark the context permanently read-only (no :meth:`invalidate`).

        Sealed contexts are the sharing contract of the epoch snapshots:
        caches may still build lazily (exactly once, under the internal
        lock) but the graph they describe can never be swapped out from
        under a concurrent reader.  Returns ``self`` for chaining.
        """
        self._sealed = True
        return self

    #: Soft cap on memoised answers per context (safety valve; a serving
    #: workload's hot-pattern pool is orders of magnitude smaller).
    MEMO_CAP = 4096

    def memo_compute(self, key: Any, compute: "Any") -> Any:
        """Compute-once answer memoisation with in-flight coalescing.

        Sealed contexts only (an immutable graph makes whole-answer
        caching always sound); unsealed contexts just call *compute*.
        Concurrent callers with the same *key* coalesce: one computes,
        the rest block on its completion instead of duplicating the work
        — the difference between N workers each evaluating a hot pattern
        and one evaluation serving all N.  The memoised object is the
        canonical copy; callers must not hand it out without copying.
        A failed computation is forgotten (the next caller retries).
        """
        if not self._sealed:
            return compute()
        with self._cache_lock:
            if self._answer_memo is None:
                self._answer_memo = {}
            memo = self._answer_memo
        event: Optional[threading.Event] = None
        waited = False
        while True:
            with self._cache_lock:
                entry = memo.get(key)
                if entry is None:
                    if len(memo) < self.MEMO_CAP:  # else: compute unmemoised
                        event = threading.Event()
                        memo[key] = ("pending", event)
                    break
                kind, payload = entry
                if kind == "done":
                    obs_inc("match_memo_lookups_total",
                            ("coalesced" if waited else "hit",))
                    return payload
                waiter = payload
            # Another thread is computing this key: block on it, then
            # re-read — done (return), vanished after a failure (retry),
            # or genuinely long-running (keep waiting).
            waited = True
            waiter.wait(timeout=300.0)
        obs_inc("match_memo_lookups_total", ("miss",))
        try:
            result = compute()
        except BaseException:
            if event is not None:
                with self._cache_lock:
                    if memo.get(key) == ("pending", event):
                        del memo[key]
                event.set()  # wake waiters; they will retry
            raise
        if event is not None:
            with self._cache_lock:
                if memo.get(key) == ("pending", event):
                    memo[key] = ("done", result)
            event.set()
        return result

    def prepare(self, bounds: Iterable[Bound] = ()) -> "MatchContext":
        """Eagerly build the caches (adjacency, *bounds*, label candidates).

        Pre-warming keeps cache builds off the query path, e.g. so a
        benchmark pays them before its timed phase.  Returns ``self`` for
        chaining.
        """
        with self._cache_lock:
            self.adjacency_bitsets()
            for bound in bounds:
                self.reach(bound)
            if self.backend == "csr":
                self.label_candidates("")  # builds every label's mask at once
            else:
                for label in self.graph.label_set():
                    self.label_candidates(label)
        return self

    def invalidate(self) -> None:
        """Drop caches after the underlying graph changed."""
        if self._sealed:
            raise ValueError(
                "this context is sealed (shared read-only across threads); "
                "build a new context for a changed graph"
            )
        if self.graph is None:
            raise ValueError(
                "a snapshot-backed context has no mutable graph to refresh; "
                "freeze a new snapshot and build a new context"
            )
        with self._cache_lock:
            self.indexer = NodeIndexer(self.graph.node_list())
            self._csr = None
            self._label_masks = None
            self._adjacency = None
            self._bounded.clear()
            self._star = None
            self._label_bits.clear()


def match(
    pattern: GraphPattern,
    graph: Union[DiGraph, CSRGraph],
    context: Optional[MatchContext] = None,
) -> MatchResult:
    """The maximum match of *pattern* in *graph* (empty dict if none).

    Runs the greatest-fixpoint refinement described in the module docstring.
    The same function evaluates patterns on original and compressed graphs —
    exactly the "any algorithm runs on Gr as is" property the paper claims —
    and accepts either backend: a mutable :class:`DiGraph` or a frozen
    :class:`CSRGraph` snapshot (the match result always names original
    nodes; the snapshot's indexer owns the translation).
    """
    if pattern.order() == 0:
        return {}
    ctx = context if context is not None else MatchContext(graph)
    if graph is not ctx.graph and graph is not ctx._csr:
        raise ValueError("context was built for a different graph")

    cand: Dict[Node, int] = {}
    for u in pattern.nodes:
        bits = ctx.label_candidates(pattern.label(u))
        if not bits:
            return {}
        cand[u] = bits

    edges = list(pattern.edges.items())
    changed = True
    while changed:
        changed = False
        for (u, u_child), bound in edges:
            reach = ctx.reach(bound)
            target = cand[u_child]
            survivors = 0
            mask = cand[u]
            while mask:
                low = mask & -mask
                mask ^= low
                v = ctx.indexer.node(low.bit_length() - 1)
                if reach[v] & target:
                    survivors |= low
            if survivors != cand[u]:
                if not survivors:
                    return {}
                cand[u] = survivors
                changed = True

    return {u: set(ctx.indexer.unpack(bits)) for u, bits in cand.items()}


def boolean_match(
    pattern: GraphPattern,
    graph: Union[DiGraph, CSRGraph],
    context: Optional[MatchContext] = None,
) -> bool:
    """Boolean pattern query: ``Qp ⊴ G``?"""
    return bool(match(pattern, graph, context))


def match_naive(pattern: GraphPattern, graph: DiGraph) -> MatchResult:
    """Reference implementation straight from the Section 2.1 definition.

    Candidate sets as Python sets; the bounded-path check is a depth-limited
    BFS per (data node, pattern edge) evaluation.  Quadratic and slow —
    tests only.
    """
    if pattern.order() == 0:
        return {}

    def reach_set(v: Node, bound: Bound) -> Set[Node]:
        if bound == STAR:
            out: Set[Node] = set()
            for c in graph.successors(v):
                out |= set(bfs_distances(graph, c))
            return out
        return bounded_reach_set(graph, v, bound)

    cand: Dict[Node, Set[Node]] = {}
    for u in pattern.nodes:
        cand[u] = set(graph.nodes_with_label(pattern.label(u)))
        if not cand[u]:
            return {}

    changed = True
    while changed:
        changed = False
        for (u, u_child), bound in pattern.edges.items():
            keep = {
                v for v in cand[u] if reach_set(v, bound) & cand[u_child]
            }
            if keep != cand[u]:
                if not keep:
                    return {}
                cand[u] = keep
                changed = True
    return cand


def bounded_reach_set(graph: DiGraph, v: Node, bound: int) -> Set[Node]:
    """Nodes reachable from *v* via nonempty paths of length <= *bound*.

    A plain BFS from *v* would mark *v* itself at distance 0 and never
    revisit it, silently missing cycle paths back to the start (e.g.
    ``v -> w -> v`` of length 2); a multi-source BFS from the successors
    with ``bound - 1`` remaining hops handles that correctly.
    """
    seen: Set[Node] = set(graph.successors(v))
    frontier = set(seen)
    for _ in range(bound - 1):
        if not frontier:
            break
        nxt: Set[Node] = set()
        for x in frontier:
            for y in graph.successors(x):
                if y not in seen:
                    seen.add(y)
                    nxt.add(y)
        frontier = nxt
    return seen


def match_relation(result: MatchResult) -> Set[tuple]:
    """Flatten a match result into the relation ``S = {(u, v)}`` of [9]."""
    return {(u, v) for u, vs in result.items() for v in vs}


def verify_match(
    pattern: GraphPattern, graph: DiGraph, result: MatchResult
) -> bool:
    """Check that *result* is a valid match relation (test helper).

    Verifies the three conditions of the Section 2.1 definition; does not
    check maximality.
    """
    if not result:
        return True
    if set(result) != set(pattern.nodes):
        return False

    def has_bounded_path(v: Node, bound: Bound, targets: Set[Node]) -> bool:
        if bound == STAR:
            seen: Set[Node] = set()
            stack: List[Node] = list(graph.successors(v))
            while stack:
                w = stack.pop()
                if w in targets:
                    return True
                if w not in seen:
                    seen.add(w)
                    stack.extend(graph.successors(w))
            return False
        return bool(bounded_reach_set(graph, v, bound) & targets)

    for u, matched in result.items():
        if not matched:
            return False
        for v in matched:
            if graph.label(v) != pattern.label(u):
                return False
            for u_child in pattern.successors(u):
                bound = pattern.bound(u, u_child)
                if not has_bounded_path(v, bound, result[u_child]):
                    return False
    return True
