"""Tests for ``incPCM`` (Section 5.2): exact agreement with ``compressB``."""

import random

from repro.core.incremental_pattern import IncrementalPatternCompressor
from repro.core.pattern import compress_pattern
from repro.datasets import load, mixed_batch
from repro.graph.digraph import DiGraph
from repro.graph.generators import gnm_random_graph
from repro.graph.scc import strongly_connected_components_within
from repro.queries.matching import match, match_naive
from repro.datasets.patterns import random_pattern


def canon(pc):
    mem = {h: frozenset(pc.members(h)) for h in pc.compressed.nodes()}
    return (
        frozenset(mem.values()),
        frozenset((mem[a], mem[b]) for a, b in pc.compressed.edges()),
        frozenset((mem[h], pc.compressed.label(h)) for h in pc.compressed.nodes()),
    )


def assert_matches_batch(inc, work, context=""):
    assert canon(inc.compression()) == canon(compress_pattern(work)), context


def test_randomized_update_sequences_match_batch():
    rng = random.Random(3)
    for trial in range(25):
        n = rng.randrange(5, 22)
        m = rng.randrange(0, min(60, n * (n - 1)))
        g = gnm_random_graph(n, m, num_labels=rng.choice([1, 3]), seed=trial * 13)
        inc = IncrementalPatternCompressor(g)
        work = g.copy()
        for step in range(6):
            batch = []
            for _ in range(rng.randrange(1, 6)):
                if rng.random() < 0.55:
                    batch.append(("+", rng.randrange(n + 3), rng.randrange(n + 3)))
                else:
                    edges = work.edge_list()
                    if edges:
                        u, v = rng.choice(edges)
                        batch.append(("-", u, v))
            for op, u, v in batch:
                (work.add_edge if op == "+" else work.remove_edge)(u, v)
            inc.apply(batch)
            assert_matches_batch(inc, work, f"trial {trial} step {step}: {batch}")


def test_example7_flavour(recommendation_network):
    """The paper's Example 7: deleting an interaction splits C1 from C2,
    then FA1 regroups with FA3/FA4."""
    g = recommendation_network
    inc = IncrementalPatternCompressor(g)
    work = g.copy()
    # Remove C1's reply to FA1 (e1-style deletion): C1 stops being cyclic.
    batch = [("-", "C1", "FA1")]
    for op, u, v in batch:
        work.remove_edge(u, v)
    inc.apply(batch)
    assert_matches_batch(inc, work)
    part = inc.partition()
    assert not part.same_block("C1", "C2")  # C1 lost its cycle
    assert part.same_block("C1", "C3")  # ... and became a plain sink
    assert part.same_block("FA1", "FA3")  # FA1 now only points at sinks


def test_mindelta_redundant_insertion():
    # u already has a child in [w]: inserting another child of that class
    # must not dirty anything (paper's minDelta insertion rule).
    g = DiGraph.from_edges([("u", "w1"), ("x", "w2")])
    for v, lab in {"u": "U", "x": "U", "w1": "W", "w2": "W"}.items():
        g.set_label(v, lab)
    inc = IncrementalPatternCompressor(g)
    assert inc.partition().same_block("w1", "w2")
    inc.apply([("+", "u", "w2")])
    assert inc.last_affected_size == 0
    assert inc.last_redundant == 1
    work = g.copy()
    work.add_edge("u", "w2")
    assert_matches_batch(inc, work)


def test_mindelta_redundant_deletion():
    g = DiGraph.from_edges([("u", "w1"), ("u", "w2")])
    g.set_label("w1", "W")
    g.set_label("w2", "W")
    inc = IncrementalPatternCompressor(g)
    inc.apply([("-", "u", "w1")])
    assert inc.last_affected_size == 0  # w2 still witnesses the class
    work = g.copy()
    work.remove_edge("u", "w1")
    assert_matches_batch(inc, work)


def test_query_results_preserved_after_updates():
    rng = random.Random(9)
    g = gnm_random_graph(20, 70, num_labels=3, seed=21)
    inc = IncrementalPatternCompressor(g)
    work = g.copy()
    for step in range(5):
        batch = []
        for _ in range(4):
            if rng.random() < 0.6:
                batch.append(("+", rng.randrange(20), rng.randrange(20)))
            else:
                edges = work.edge_list()
                if edges:
                    u, v = rng.choice(edges)
                    batch.append(("-", u, v))
        for op, u, v in batch:
            (work.add_edge if op == "+" else work.remove_edge)(u, v)
        inc.apply(batch)
        q = random_pattern(work, 3, 3, max_bound=2, star_prob=0.2, seed=step)
        assert inc.compression().query(q, match) == match_naive(q, work)


def test_new_nodes_and_unknown_op():
    import pytest

    g = DiGraph.from_edges([(1, 2)])
    inc = IncrementalPatternCompressor(g)
    inc.apply([("+", 2, "fresh")])
    work = g.copy()
    work.add_edge(2, "fresh")
    assert_matches_batch(inc, work)
    with pytest.raises(ValueError):
        inc.apply([("*", 1, 2)])


def test_cycle_formation_updates_partition():
    g = DiGraph.from_edges([("a", "b"), ("c", "d")])
    inc = IncrementalPatternCompressor(g)
    assert inc.partition().same_block("a", "c")
    work = g.copy()
    inc.apply([("+", "b", "a")])  # a/b become a cycle, c/d stay a chain
    work.add_edge("b", "a")
    assert_matches_batch(inc, work)
    assert not inc.partition().same_block("a", "c")


class _RecordingCompressor(IncrementalPatternCompressor):
    """Keeps the affected area of the last batch for inspection."""

    last_area: frozenset = frozenset()

    def _rebuild_affected(self, affected):
        self.last_area = frozenset(affected)
        super()._rebuild_affected(affected)


def test_social_batches_through_the_giant_scc_match_batch():
    # The benchmark's evolving-engine shape at 1/10 scale: mixed batches on
    # the social stand-in, each undone by its exact inverse.  Every batch
    # reaches the giant SCC, so AFF holds a large cycle, unlike the tiny
    # random graphs above.
    g = load("youtube", seed=1, scale=0.1)
    inc = _RecordingCompressor(g)
    work = g.copy()
    for step in range(6):
        batch = mixed_batch(work, 12, insert_ratio=0.6, seed=100 + step)
        inverse = [("-" if op == "+" else "+", u, v) for op, u, v in reversed(batch)]
        for label, updates in (("batch", batch), ("inverse", inverse)):
            for op, u, v in updates:
                (work.add_edge if op == "+" else work.remove_edge)(u, v)
            inc.apply(updates)
            context = f"step {step} {label}"
            assert_matches_batch(inc, work, context)
            part = inc.partition()
            recount = {}
            for u, v in work.edges():
                key = (part.block_of(u), part.block_of(v))
                recount[key] = recount.get(key, 0) + 1
            assert inc._q_support == recount, context
            sccs = strongly_connected_components_within(work, set(inc.last_area))
            assert max(map(len, sccs)) > 1, context
