"""2-hop reachability labeling (Cohen, Halperin, Kaplan, Zwick [6]).

Every node ``v`` gets two label sets: ``L_out(v)`` (hop nodes ``v`` can
reach) and ``L_in(v)`` (hop nodes that reach ``v``); then
``u ⇝ v  iff  L_out(u) ∩ L_in(v) ≠ ∅``.  The paper's Exp-2 (Fig. 12(d))
builds 2-hop indexes over both the original and the compressed graphs and
compares their memory cost — on ``Gr`` the index is tiny, on large ``G`` it
"may not be feasible ... due to its high cost".

Construction here is *pruned landmark labeling*: process nodes in
descending-degree order; each landmark BFSes forward/backward, skipping any
node whose reachability to/from the landmark is already covered by existing
labels.  This produces a correct (and in practice small) 2-hop cover without
the original set-cover machinery, which is exponential-ish to run exactly.
The cover differs from the paper's, but the answers and the Exp-2 memory
comparison do not depend on which cover is built.  Cyclic graphs are handled by indexing
the condensation and mapping queries through the SCC ids.

Two construction backends share the pruned-BFS logic:

* ``backend="csr"`` (default) freezes the graph once (or adopts a frozen
  :class:`~repro.graph.csr.CSRGraph` / pre-built condensation) and builds
  the labels over the condensation's frozen ``indptr``/``indices`` arrays
  — no per-node hashing in the BFS hot loop;
* ``backend="dict"`` walks the dict-of-sets condensation DAG, kept as the
  cross-validation reference.

The two backends may pick different landmark *orders* for equal-degree
ties (their component ids differ), so label sets — and hence
``entry_count()`` — are not guaranteed identical; every query answer is
(the tests cross-validate exactly that).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, List, Set, Tuple, Union

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.scc import condensation

Node = Hashable


class TwoHopIndex:
    """A queryable 2-hop reachability index over any directed graph.

    >>> g = DiGraph.from_edges([(1, 2), (2, 3)])
    >>> idx = TwoHopIndex(g)
    >>> idx.query(1, 3), idx.query(3, 1)
    (True, False)
    """

    def __init__(
        self,
        graph: Union[DiGraph, CSRGraph],
        backend: str = "csr",
    ) -> None:
        if backend not in ("csr", "dict"):
            raise ValueError(f"unknown backend: {backend!r} (expected 'csr' or 'dict')")
        if isinstance(graph, CSRGraph):
            if backend != "csr":
                raise ValueError("a frozen snapshot requires backend='csr'")
            self._build_csr(graph)
        elif backend == "csr":
            self._build_csr(CSRGraph.from_digraph(graph))
        else:
            self._build_dict(graph)

    # ------------------------------------------------------------------
    # dict backend (reference)
    # ------------------------------------------------------------------
    def _build_dict(self, graph: DiGraph) -> None:
        cond = condensation(graph)
        dag = cond.dag
        scc_of = cond.scc_of
        self._scc_id: Callable[[Node], int] = scc_of.__getitem__
        # Landmark order: descending total degree (classic heuristic).
        order: List[int] = sorted(
            dag.nodes(),
            key=lambda s: dag.out_degree(s) + dag.in_degree(s),
            reverse=True,
        )
        self._label_out: Dict[int, Set[int]] = {s: set() for s in dag.nodes()}
        self._label_in: Dict[int, Set[int]] = {s: set() for s in dag.nodes()}

        succ_of = dag.successors
        pred_of = dag.predecessors
        for landmark in order:
            self._pruned_bfs(landmark, succ_of, forward=True)
            self._pruned_bfs(landmark, pred_of, forward=False)

    # ------------------------------------------------------------------
    # CSR backend (frozen arrays)
    # ------------------------------------------------------------------
    def _build_csr(self, csr: CSRGraph) -> None:
        from repro.graph.csr import reverse_from_forward
        from repro.graph.kernels import csr_condensation

        cond = csr_condensation(csr)
        comp = cond.comp
        indexer = csr.indexer
        self._scc_id = lambda v: comp[indexer.index(v)]
        ncomp = cond.ncomp
        indptr, indices = cond.indptr, cond.indices
        rindptr, rindices = reverse_from_forward(ncomp, indptr, indices)
        # Landmark order: descending total degree, component id for ties —
        # fully deterministic over the frozen layout.
        degree = [
            indptr[c + 1] - indptr[c] + rindptr[c + 1] - rindptr[c]
            for c in range(ncomp)
        ]
        order = sorted(range(ncomp), key=lambda c: (-degree[c], c))
        self._label_out = {c: set() for c in range(ncomp)}
        self._label_in = {c: set() for c in range(ncomp)}

        def succ_of(c: int) -> List[int]:
            return indices[indptr[c] : indptr[c + 1]]

        def pred_of(c: int) -> List[int]:
            return rindices[rindptr[c] : rindptr[c + 1]]

        for landmark in order:
            self._pruned_bfs(landmark, succ_of, forward=True)
            self._pruned_bfs(landmark, pred_of, forward=False)

    # ------------------------------------------------------------------
    # Shared pruned-BFS core
    # ------------------------------------------------------------------
    def _covered(self, a: int, b: int) -> bool:
        """Is ``a ⇝ b`` already answerable from the current labels?"""
        la, lb = self._label_out[a], self._label_in[b]
        if len(la) > len(lb):
            la, lb = lb, la
        return any(h in lb for h in la)

    def _pruned_bfs(
        self, landmark: int, neighbors: Callable[[int], object], forward: bool
    ) -> None:
        seen: Set[int] = {landmark}
        queue: deque = deque((landmark,))
        while queue:
            s = queue.popleft()
            if s != landmark:
                if forward and self._covered(landmark, s):
                    continue  # prune: already covered, skip the subtree
                if not forward and self._covered(s, landmark):
                    continue
                if forward:
                    self._label_in[s].add(landmark)
                else:
                    self._label_out[s].add(landmark)
            for t in neighbors(s):
                if t not in seen:
                    seen.add(t)
                    queue.append(t)

    # ------------------------------------------------------------------
    def query(self, u: Node, v: Node) -> bool:
        """``u ⇝ v`` (reflexive), answered from labels only."""
        su, sv = self._scc_id(u), self._scc_id(v)
        if su == sv:
            return True
        lo = self._label_out[su] | {su}
        li = self._label_in[sv] | {sv}
        if len(lo) > len(li):
            lo, li = li, lo
        return any(h in li for h in lo)

    def entry_count(self) -> int:
        """Total number of label entries — the index-size metric."""
        return sum(len(s) for s in self._label_out.values()) + sum(
            len(s) for s in self._label_in.values()
        )

    def memory_cost(self) -> int:
        """Approximate bytes: entries + per-node bookkeeping (8B words)."""
        return 8 * (self.entry_count() + 2 * len(self._label_out))

    def stats(self) -> Tuple[int, float]:
        """(entries, average entries per node)."""
        n = max(1, len(self._label_out))
        return self.entry_count(), self.entry_count() / n
