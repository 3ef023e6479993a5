"""Seeded inputs for the benchmark workloads.

Everything a run feeds the program is made here: each family's graph, its
hot-pattern pool and its update batches (ΔG) from a fixed seed, and each
client's operation stream from ``--seed``.  The program under test only
ever receives these generated objects.
"""

from __future__ import annotations

import bisect
import random
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Dict, Iterator, List, Tuple

import repro.datasets.patterns as pattern_gen
from repro import DiGraph, GraphPattern, ReachabilityQuery
from repro.datasets import insertion_batch, load, mixed_batch, random_pattern
from repro.graph.generators import random_dag

#: One operation of a client stream: ``("reach", query)``,
#: ``("pattern", query)`` or ``("write", None)``.
Op = Tuple[str, Any]
EdgeUpdate = Tuple[str, Any, Any]


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is what a timed run measures, ``TINY`` the smoke test."""

    dag_nodes: int
    dag_edges: int
    #: Scale of the catalog's ``youtube`` social stand-in (3100 nodes at 1.0).
    social_scale: float
    #: Operations pre-generated per client (streams wrap if a run outlasts them).
    ops_per_client: int
    #: Unique patterns pre-generated per client on ``pattern-scan``: about
    #: twice what a 25-second run uses today.  A stream that wrapped would
    #: repeat patterns into the answer memo (``memo_repeat_share`` in the
    #: record shows it): 12000 let every run's last seconds run 2x faster.
    unique_patterns: int
    #: Growth batches pre-generated for ``serve-rw``.
    growth_batches: int


FULL = Size(dag_nodes=2500, dag_edges=12000, social_scale=1.0,
            ops_per_client=80000, unique_patterns=30000, growth_batches=400)
TINY = Size(dag_nodes=200, dag_edges=800, social_scale=0.1,
            ops_per_client=2000, unique_patterns=200, growth_batches=40)

#: Edges per update batch (serve-rw growth and engine-evolve mixed batches).
BATCH_EDGES = 40


@dataclass(frozen=True)
class Workload:
    """One traffic mix; README.md says why each exists."""

    name: str
    family: str           # "dag" or "social"
    api: str              # "service" (EngineService + QueryExecutor) or "engine"
    clients: int
    reach_share: float    # share of reads that are reachability queries
    pattern_pool: int     # 0 = every pattern is fresh; >0 = drawn from a pool
    write_share: float    # share of service operations that are writes
    reads_per_write: int  # engine api: reads between two writes
    hot_share: float      # share of reachability sources drawn from the hot set


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("reach-hot", "dag", "service", 2, 0.98, 4, 0.0, 0, 0.8),
        Workload("pattern-scan", "social", "service", 2, 0.5, 0, 0.0, 0, 0.0),
        Workload("serve-rw", "social", "service", 2, 0.9, 4, 0.005, 0, 0.8),
        Workload("engine-evolve", "social", "engine", 1, 0.8, 4, 0.0, 50, 0.8),
    )
}


#: Generator seed of each family's graph, its hot-pattern pool and its
#: update log (ΔG).  They stay fixed, like a deployed dataset and a
#: recorded change log; ``--seed`` draws the traffic on top of them.
#: Drawing them from ``--seed`` too moved |Gb|/|G| between 0.54 and 0.61,
#: serve-rw's write latency by 1.7x and engine-evolve's pattern latency
#: by 0.21 (quartile spread over median) from run to run: wider than any
#: bound the end-to-end metrics can hold.
GRAPH_SEED = 1
#: Seed of the first serve-rw growth batch; batch i uses GROWTH_SEED + i.
GROWTH_SEED = GRAPH_SEED << 21


def make_graph(family: str, size: Size) -> DiGraph:
    """The workload graph: a uniform random DAG, or the social stand-in."""
    if family == "dag":
        return random_dag(size.dag_nodes, size.dag_edges, seed=GRAPH_SEED)
    return load("youtube", seed=GRAPH_SEED, scale=size.social_scale)


def probe_pattern(graph: DiGraph) -> GraphPattern:
    """A one-node pattern: answerable by the pattern route, almost free to
    match, so set-up timing is not dominated by one unlucky query."""
    first = next(iter(graph.nodes()))
    p = GraphPattern()
    p.add_node(0, graph.label(first))
    return p


@contextmanager
def _labels_counted_once(graph: DiGraph) -> Iterator[None]:
    """``random_pattern`` recounts the graph's labels on every call; for
    thousands of patterns over one graph, count once.  Same patterns."""
    counts = pattern_gen.label_frequencies(graph)
    count = pattern_gen.label_frequencies
    pattern_gen.label_frequencies = lambda g: dict(counts) if g is graph else count(g)
    try:
        yield
    finally:
        pattern_gen.label_frequencies = count


def _pattern(graph: DiGraph, seed: int) -> GraphPattern:
    # Section 6's generator at (Vp, Ep, k) = (4, 4, 3) with 20% '*' bounds.
    return random_pattern(graph, 4, 4, max_bound=3, star_prob=0.2, seed=seed)


def client_streams(w: Workload, graph: DiGraph, seed: int,
                   size: Size) -> Tuple[List[List[Op]], List[GraphPattern], set]:
    """One operation stream per client, deterministic in *seed*, plus the
    pattern pool and the hot source set the streams draw from."""
    with _labels_counted_once(graph):
        return _client_streams(w, graph, seed, size)


def _client_streams(w: Workload, graph: DiGraph, seed: int,
                    size: Size) -> Tuple[List[List[Op]], List[GraphPattern], set]:
    nodes = graph.node_list()
    rng = random.Random(f"{seed}/{w.name}/hot")
    hot = rng.sample(nodes, max(1, len(nodes) // 100))
    pool = [_pattern(graph, GRAPH_SEED * 1000 + i) for i in range(w.pattern_pool)]
    streams = []
    for c in range(w.clients):
        rng = random.Random(f"{seed}/{w.name}/client{c}")
        fresh = 0
        ops: List[Op] = []
        n_ops = size.ops_per_client
        if not w.pattern_pool:
            n_ops = min(n_ops, int(size.unique_patterns / (1 - w.reach_share)))
        # One client writes, on a fixed cadence, so that every window of a
        # run sees about the same number of publications.
        write_every = round(1 / (w.write_share * w.clients)) if w.write_share else 0
        for k in range(1, n_ops + 1):
            if write_every and c == 0 and k % write_every == 0:
                ops.append(("write", None))
            elif rng.random() < w.reach_share:
                src = rng.choice(hot) if rng.random() < w.hot_share else rng.choice(nodes)
                ops.append(("reach", ReachabilityQuery(src, rng.choice(nodes))))
            elif pool:
                ops.append(("pattern", rng.choice(pool)))
            else:
                fresh += 1
                ops.append(("pattern", _pattern(graph, (seed << 32) + (c << 24) + fresh)))
        streams.append(ops)
    return streams, pool, set(hot)


def growth_batches(graph: DiGraph, count: int) -> List[List[EdgeUpdate]]:
    """*count* insert-only batches of power-law growth (the paper's Exp-4 ΔG).

    The batches are exactly those of calling
    ``insertion_batch(shadow, BATCH_EDGES, seed=GROWTH_SEED + i)`` on a
    copy of *graph* and applying each batch before drawing the next one
    (``run.py --smoke`` checks that they agree).  The library recomputes
    every node's ``deg + 1`` weight for each endpoint it draws, about 50 ms
    a batch on the social graph, so 400 batches would add 20 s to every
    ``serve-rw`` run; here the weights are computed once a batch, and the
    draws consume the random stream as ``Random.choices`` does.
    """
    shadow = graph.copy()
    nodes = shadow.node_list()
    existing = set(shadow.edges())
    batches = []
    for i in range(count):
        rng = random.Random(GROWTH_SEED + i)
        cum = list(accumulate(shadow.out_degree(v) + shadow.in_degree(v) + 1 for v in nodes))
        total = cum[-1] + 0.0

        def endpoint() -> Any:
            if rng.random() < 0.8:
                return nodes[bisect.bisect_right(cum, rng.random() * total, 0, len(nodes) - 1)]
            return rng.choice(nodes)

        batch: List[EdgeUpdate] = []
        attempts = 0
        while len(batch) < BATCH_EDGES and attempts < 50 * BATCH_EDGES + 100:
            attempts += 1
            u, v = endpoint(), endpoint()
            if u != v and (u, v) not in existing:
                existing.add((u, v))
                batch.append(("+", u, v))
        apply_batch(shadow, batch)
        batches.append(batch)
    return batches


def library_growth_batches(graph: DiGraph, count: int) -> List[List[EdgeUpdate]]:
    """What :func:`growth_batches` must equal, by the library's own generator."""
    shadow = graph.copy()
    batches = []
    for i in range(count):
        batch = insertion_batch(shadow, BATCH_EDGES, seed=GROWTH_SEED + i)
        apply_batch(shadow, batch)
        batches.append(batch)
    return batches


def evolve_batch(graph: DiGraph, index: int) -> List[EdgeUpdate]:
    """The *index*-th engine-evolve batch: 60% inserts, 40% deletes (Exp-3),
    drawn against *graph* as it stands after the previous batches."""
    return mixed_batch(graph, BATCH_EDGES, insert_ratio=0.6,
                       seed=(GRAPH_SEED << 20) + index)


def apply_batch(graph: DiGraph, batch: List[EdgeUpdate]) -> None:
    """Replay *batch* on the benchmark's own shadow copy of G."""
    for op, u, v in batch:
        if op == "+":
            graph.add_edge(u, v)
        else:
            graph.remove_edge(u, v)
