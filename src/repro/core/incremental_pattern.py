"""``incPCM`` — incremental pattern preserving compression (Section 5.2).

Theorem 8: like RCM, the problem is unbounded; the paper's ``incPCM`` runs
in ``O(|AFF|^2 + |Gr|)`` time, independent of ``|G|``.  This implementation
realises the paper's phases with explicit invariants:

1. **minDelta** (redundant update reduction).  Bisimulation here is
   *forward*: a node's equivalence is determined by its label and the
   classes of its successors.  So an inserted edge ``(u, w)`` is redundant
   when ``u`` already has a child in ``[w]`` (``u``'s successor-class set is
   unchanged — exactly the paper's rule "w ∈ [u']Rb and ([u]Rb,[u']Rb) ∈
   Er"), and a deletion is redundant when another child in ``[w]`` remains.
   The cancellation rule falls out: an insert+delete pair hitting the same
   class with a surviving witness leaves both sides untouched.

2. **Affected area.**  Forward bisimilarity propagates along incoming edges
   only, so the affected area is ``AFF = anc*(D)`` — the dirty nodes ``D``
   and everything that can reach them.  (This also covers every rank
   change: a node's ``rb`` depends only on its descendants, and rank-change
   sources are non-redundant endpoints, which are in ``D`` —
   cf. the paper's ``incR`` and Lemma 9.)

3. **Refine the collapsed graph** (the paper's ``PT(AFFi)`` and
   ``SplitMerge`` in one pass).  The nodes of ``AFF`` leave the partition.
   The rest is collapsed onto its frozen blocks, giving a graph ``H`` with
   one node per surviving frozen block (its edges are the quotient edges
   the support counts still hold) and one node per ``AFF`` node (its edges
   go to ``AFF`` nodes, or to the frozen block of a non-``AFF`` target).
   One run of the CSR bisimulation kernel on ``H`` gives the new classes.
   This is exact: ``AFF`` is ancestor-closed, so no non-``AFF`` node has an
   edge into it, and the frozen blocks are classes of the previous maximum
   bisimulation whose out-structure is untouched (minDelta let through
   only updates that keep every successor-class set).  Mapping each non-``AFF``
   node to its block is therefore a functional bisimulation onto ``H``, and
   the maximum bisimulation of ``H`` pulls back to that of ``G ⊕ ΔG``.
   Distinct frozen classes are never bisimilar (they were distinct classes
   of a maximum bisimulation), so every ``H`` block holds at most one
   frozen node: its ``AFF`` members join that block (Lemma 10's merge), and
   a block with none becomes a fresh class.  The kernel does the rank
   stratification itself.  ``|H| = O(|AFF| + |E(AFF)| + |Gr|)``, inside
   the paper's ``O(|AFF|^2 + |Gr|)`` bound.

The maintained partition is therefore always the *maximum* bisimulation of
the updated graph, and the quotient equals ``compressB(G ⊕ ΔG)`` exactly;
tests assert this over randomized update sequences.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Hashable, Iterable, List, Optional, Set, Tuple

from repro.core.bisimulation import bisimulation_partition
from repro.core.pattern import PatternCompression
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.graph.kernels import csr_bisimulation_blocks
from repro.graph.partition import Partition

Node = Hashable
EdgeUpdate = Tuple[str, Node, Node]


class IncrementalPatternCompressor:
    """Maintains ``Gr = compressB(G)`` under batch edge updates."""

    def __init__(self, graph: DiGraph, copy: bool = True) -> None:
        """Compress *graph* and stand ready to maintain it under updates.

        ``copy=False`` adopts the caller's graph instead of deep-copying it
        (same aliasing contract as :class:`repro.queries.incremental_match
        .IncrementalMatcher`: all mutation must go through :meth:`apply`,
        the caller only reads) — the engine's update path uses this so a
        large ``G`` is held once, not once per maintainer.
        """
        self._g = graph.copy() if copy else graph
        self._partition: Partition = bisimulation_partition(self._g)
        #: quotient edge -> number of supporting original edges.
        self._q_support: Dict[Tuple[int, int], int] = {}
        for u, v in self._g.edges():
            key = (self._partition.block_of(u), self._partition.block_of(v))
            self._q_support[key] = self._q_support.get(key, 0) + 1
        self._compression_cache: Optional[PatternCompression] = None
        # -- diagnostics ---------------------------------------------------
        self.last_affected_size = 0
        self.last_redundant = 0

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> DiGraph:
        """The maintained copy of ``G ⊕ ΔG``."""
        return self._g

    def partition(self) -> Partition:
        return self._partition

    def compression(self) -> PatternCompression:
        """The current compression artifact (rebuilt lazily after updates)."""
        if self._compression_cache is None:
            self._compression_cache = self._build_artifact()
        return self._compression_cache

    def apply(self, updates: Iterable[EdgeUpdate]) -> None:
        """Apply batch updates ΔG and propagate ΔGr (see module docstring)."""
        self._compression_cache = None
        self.last_redundant = 0
        dirty: Set[Node] = set()

        for op, u, v in updates:
            if op == "+":
                self._apply_insert(u, v, dirty)
            elif op == "-":
                self._apply_delete(u, v, dirty)
            else:
                raise ValueError(f"unknown update op {op!r}")

        if not dirty:
            self.last_affected_size = 0
            return
        affected = self._ancestor_closure(dirty)
        self.last_affected_size = len(affected)
        self._rebuild_affected(affected)

    # ------------------------------------------------------------------
    # minDelta: per-update dirtiness classification
    # ------------------------------------------------------------------
    def _apply_insert(self, u: Node, v: Node, dirty: Set[Node]) -> None:
        new_nodes = [x for x in dict.fromkeys((u, v)) if x not in self._g]
        if not self._g.add_edge(u, v):
            self.last_redundant += 1
            return
        for x in new_nodes:
            # Fresh singleton block, refined with the affected area.
            self._partition.add_block([x])
            dirty.add(x)
        bv = self._partition.block_of(v)
        witness = any(
            w is not v and w != v and self._partition.block_of(w) == bv
            for w in self._g.successors(u)
        )
        self._q_support[(self._partition.block_of(u), bv)] = (
            self._q_support.get((self._partition.block_of(u), bv), 0) + 1
        )
        if witness:
            self.last_redundant += 1  # u's successor-class set is unchanged
        else:
            dirty.add(u)

    def _apply_delete(self, u: Node, v: Node, dirty: Set[Node]) -> None:
        if not self._g.remove_edge(u, v):
            self.last_redundant += 1
            return
        bu, bv = self._partition.block_of(u), self._partition.block_of(v)
        key = (bu, bv)
        remaining = self._q_support.get(key, 0) - 1
        if remaining <= 0:
            self._q_support.pop(key, None)
        else:
            self._q_support[key] = remaining
        witness = any(
            self._partition.block_of(w) == bv for w in self._g.successors(u)
        )
        if witness:
            self.last_redundant += 1
        else:
            dirty.add(u)

    # ------------------------------------------------------------------
    # Affected area
    # ------------------------------------------------------------------
    def _ancestor_closure(self, seeds: Set[Node]) -> Set[Node]:
        """``anc*(seeds)`` in the updated graph (reverse BFS), plus seeds."""
        seen = set(seeds)
        queue = deque(seeds)
        while queue:
            v = queue.popleft()
            for p in self._g.predecessors(v):
                if p not in seen:
                    seen.add(p)
                    queue.append(p)
        return seen

    # ------------------------------------------------------------------
    # Refinement of the collapsed graph
    # ------------------------------------------------------------------
    def _rebuild_affected(self, affected: Set[Node]) -> None:
        partition = self._partition
        block_of = partition.block_of
        successors = self._g.successors
        support = self._q_support

        # (a) Detach AFF and build the AFF rows of the collapsed graph H in
        # one pass.  AFF is ancestor-closed, so every edge touching it starts
        # in it: AFF's out-edges are all the support to drop.  H ids: AFF
        # nodes are 0..na-1, frozen blocks follow in order of first sight.
        aff = list(affected)
        na = len(aff)
        h_of_node = {v: i for i, v in enumerate(aff)}
        h_of_block: Dict[int, int] = {}
        rows: List[List[int]] = []
        for v in aff:
            bv = block_of(v)
            row: List[int] = []
            for w in successors(v):
                bw = block_of(w)
                key = (bv, bw)
                remaining = support[key] - 1
                if remaining:
                    support[key] = remaining
                else:
                    del support[key]
                h = h_of_node.get(w)
                if h is None:
                    h = h_of_block.get(bw)
                    if h is None:
                        h = h_of_block[bw] = na + len(h_of_block)
                row.append(h)
            rows.append(row)
        for v in aff:
            partition.remove_node(v)

        # (b) H's frozen nodes: every surviving block, with the quotient
        # edges the support still holds.
        for bid in partition.block_ids():
            if bid not in h_of_block:
                h_of_block[bid] = na + len(h_of_block)
        frozen = list(h_of_block)
        rows.extend([] for _ in frozen)
        for a, b in support:
            rows[h_of_block[a]].append(h_of_block[b])
        label = self._g.label
        labels = [label(v) for v in aff]
        labels += [label(next(iter(partition.members(bid)))) for bid in frozen]

        # (c) One kernel pass.  Block members come ascending, so a block's
        # frozen node (there is at most one) comes last.
        final = [0] * na + frozen  # H id -> block id
        for block in csr_bisimulation_blocks(CSRGraph.from_rows(rows, labels)):
            tail = block[-1]
            if tail < na:
                bid = partition.add_block([aff[h] for h in block])
            elif len(block) > 1 and block[-2] >= na:
                raise AssertionError(
                    "distinct frozen classes became bisimilar; invariant broken"
                )
            else:
                bid = frozen[tail - na]
                for h in block[:-1]:
                    partition.move_node(aff[h], bid)
            for h in block:
                final[h] = bid

        # (d) Re-attach AFF's out-edges (one row entry each) to the support.
        for h in range(na):
            bv = final[h]
            for t in rows[h]:
                key = (bv, final[t])
                support[key] = support.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Artifact construction
    # ------------------------------------------------------------------
    def _build_artifact(self) -> PatternCompression:
        partition = self._partition
        gr = DiGraph()
        class_members: Dict[int, List[Node]] = {}
        class_of: Dict[Node, int] = {}
        for bid in partition.block_ids():
            members = partition.members(bid)
            rep = next(iter(members))
            gr.add_node(bid, self._g.label(rep))
            class_members[bid] = list(members)
            for v in members:
                class_of[v] = bid
        for (a, b), count in self._q_support.items():
            if count > 0:
                gr.add_edge(a, b)
        return PatternCompression(
            compressed=gr,
            class_of=class_of,
            class_members=class_members,
            original_nodes=self._g.order(),
            original_edges=self._g.size(),
        )
