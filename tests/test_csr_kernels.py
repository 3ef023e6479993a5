"""Randomized cross-validation of the CSR integer kernels.

Every kernel in :mod:`repro.graph.kernels` is checked against the dict
implementation it replaces, on a pool of ~50 seeded generator graphs
covering all the topology families the benchmarks use (G(n,m), DAGs,
layered DAGs, reciprocal preferential attachment, equivalent-leaf motifs,
self-loops).  The CSR fast path must be a pure speedup: same SCC
partition, same bitsets, same transitive reduction, same bisimulation,
and byte-identical ``compress_reachability`` output.
"""

from __future__ import annotations

import random

import pytest

from repro.core.bisimulation import bisimulation_partition
from repro.core.equivalence import reachability_partition
from repro.core.reachability import compress_reachability
from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph, NodeIndexer
from repro.graph.generators import (
    attach_equivalent_leaves,
    gnm_random_graph,
    layered_dag,
    preferential_attachment_graph,
    random_dag,
)
from repro.graph.kernels import (
    condensation_bitsets,
    csr_bfs,
    csr_bisimulation_blocks,
    csr_condensation,
    csr_dag_transitive_reduction,
    csr_path_exists,
    csr_scc,
    csr_topological_order,
    edges_to_csr,
)
from repro.graph.scc import condensation, strongly_connected_components
from repro.graph.transitive import (
    ancestor_bitsets,
    dag_transitive_reduction,
    descendant_bitsets,
)
from repro.graph.traversal import bfs_reachable, path_exists


def _graph_pool():
    """~50 seeded graphs across the generator families."""
    pool = []
    for seed in range(18):
        rng = random.Random(seed)
        n = rng.randrange(2, 40)
        m = rng.randrange(0, min(160, n * (n - 1)))
        pool.append(
            (f"gnm-{seed}", gnm_random_graph(
                n, m, num_labels=rng.choice([1, 2, 4]), seed=seed,
                allow_self_loops=bool(seed % 3 == 0),
            ))
        )
    for seed in range(10):
        rng = random.Random(100 + seed)
        n = rng.randrange(3, 35)
        m = rng.randrange(0, n * (n - 1) // 2)
        pool.append((f"dag-{seed}", random_dag(n, m, num_labels=2, seed=seed)))
    for seed in range(8):
        pool.append(
            (f"layered-{seed}",
             layered_dag([4, 6, 8, 6], forward_prob=0.35, num_labels=3, seed=seed))
        )
    for seed in range(8):
        g = preferential_attachment_graph(
            30, out_degree=3, reciprocity=0.4, num_labels=2, seed=seed
        )
        pool.append((f"pa-{seed}", g))
    for seed in range(8):
        g = preferential_attachment_graph(20, reciprocity=0.5, seed=seed)
        attach_equivalent_leaves(g, [4, 4, 3], parents_per_group=2, seed=seed)
        pool.append((f"fans-{seed}", g))
    return pool


POOL = _graph_pool()
POOL_IDS = [name for name, _ in POOL]
GRAPHS = [g for _, g in POOL]


def test_pool_is_about_fifty_graphs():
    assert 45 <= len(POOL) <= 60


@pytest.mark.parametrize("g", GRAPHS, ids=POOL_IDS)
def test_scc_partition_matches_dict(g):
    csr = CSRGraph.from_digraph(g)
    ncomp, comp = csr_scc(csr)
    dict_comps = strongly_connected_components(g)
    assert ncomp == len(dict_comps)
    node_of = csr.indexer.node
    csr_blocks = {}
    for i in range(csr.n):
        csr_blocks.setdefault(comp[i], set()).add(node_of(i))
    assert set(map(frozenset, csr_blocks.values())) == {
        frozenset(c) for c in dict_comps
    }
    # Reverse topological numbering: every cross edge points to a smaller id.
    for u, v in g.edges():
        cu, cv = comp[csr.id_of(u)], comp[csr.id_of(v)]
        assert cu == cv or cv < cu


@pytest.mark.parametrize("g", GRAPHS, ids=POOL_IDS)
def test_condensation_matches_dict(g):
    csr = CSRGraph.from_digraph(g)
    cond = csr_condensation(csr)
    dict_cond = condensation(g)
    assert cond.ncomp == dict_cond.scc_count()
    assert cond.graph_size() == dict_cond.graph_size()
    node_of = csr.indexer.node
    # Cyclic flags agree per original node.
    for i in range(csr.n):
        v = node_of(i)
        assert bool(cond.cyclic[cond.comp[i]]) == (
            dict_cond.scc_of[v] in dict_cond.cyclic
        )
    # Edge sets agree modulo the component-id bijection.
    to_dict_id = {}
    for i in range(csr.n):
        to_dict_id[cond.comp[i]] = dict_cond.scc_of[node_of(i)]
    csr_edges = {
        (to_dict_id[c], to_dict_id[d])
        for c in range(cond.ncomp)
        for d in cond.children(c)
    }
    assert csr_edges == set(dict_cond.dag.edges())


@pytest.mark.parametrize("g", GRAPHS, ids=POOL_IDS)
def test_condensation_bitsets_match_dict(g):
    csr = CSRGraph.from_digraph(g)
    cond = csr_condensation(csr)
    anc, desc = condensation_bitsets(cond)
    dict_cond = condensation(g)
    indexer = NodeIndexer(dict_cond.dag.node_list())
    danc = ancestor_bitsets(dict_cond.dag, indexer)
    ddesc = descendant_bitsets(dict_cond.dag, indexer)
    node_of = csr.indexer.node
    to_dict_id = {cond.comp[i]: dict_cond.scc_of[node_of(i)] for i in range(csr.n)}

    def translate(mask):
        out = 0
        c = 0
        while mask:
            if mask & 1:
                out |= 1 << indexer.index(to_dict_id[c])
            mask >>= 1
            c += 1
        return out

    for c in range(cond.ncomp):
        s = to_dict_id[c]
        assert translate(anc[c]) == danc[s]
        assert translate(desc[c]) == ddesc[s]


@pytest.mark.parametrize("g", GRAPHS, ids=POOL_IDS)
def test_bfs_and_path_exists_match_dict(g):
    csr = CSRGraph.from_digraph(g)
    node_of = csr.indexer.node
    rng = random.Random(7)
    scratch = bytearray(csr.n)
    for _ in range(10):
        s = rng.randrange(csr.n)
        fwd = {node_of(i) for i in csr_bfs(csr, s)}
        assert fwd == bfs_reachable(g, node_of(s))
        bwd = {node_of(i) for i in csr_bfs(csr, s, reverse=True)}
        assert bwd == bfs_reachable(g, node_of(s), reverse=True)
        t = rng.randrange(csr.n)
        assert csr_path_exists(csr, s, t, scratch) == path_exists(
            g, node_of(s), node_of(t)
        )
        assert not any(scratch)  # scratch map restored


@pytest.mark.parametrize("g", GRAPHS, ids=POOL_IDS)
def test_transitive_reduction_matches_dict(g):
    # Reduce the condensation DAG of each pool graph both ways.
    cond = condensation(g)
    dag = cond.dag
    reduced = dag_transitive_reduction(dag)
    n = dag.order()
    # The dict condensation already uses integer SCC ids 0..n-1.
    edges = sorted(dag.edges())
    kept = csr_dag_transitive_reduction(n, edges)
    assert sorted(reduced.edges()) == kept


def test_topological_order_kernel():
    g = random_dag(40, 150, seed=3)
    ids = sorted(g.nodes())
    edges = sorted(g.edges())
    indptr, indices = edges_to_csr(len(ids), edges)
    order = csr_topological_order(len(ids), indptr, indices)
    pos = {v: i for i, v in enumerate(order)}
    assert sorted(order) == ids
    for u, v in edges:
        assert pos[u] < pos[v]
    with pytest.raises(ValueError):
        csr_topological_order(2, [0, 1, 2], [1, 0])


@pytest.mark.parametrize("g", GRAPHS, ids=POOL_IDS)
def test_bisimulation_blocks_match_dict(g):
    fast = bisimulation_partition(g, backend="csr")
    ref = bisimulation_partition(g, backend="dict")
    assert fast.as_frozen() == ref.as_frozen()
    # Canonical numbering: identical ids, not just identical blocks.
    assert {v: fast.block_of(v) for v in g.nodes()} == {
        v: ref.block_of(v) for v in g.nodes()
    }


@pytest.mark.parametrize("g", GRAPHS, ids=POOL_IDS)
def test_reachability_partition_matches_dict(g):
    fast = reachability_partition(g, backend="csr")
    ref = reachability_partition(g, backend="dict")
    assert fast.as_frozen() == ref.as_frozen()
    assert {v: fast.block_of(v) for v in g.nodes()} == {
        v: ref.block_of(v) for v in g.nodes()
    }


@pytest.mark.parametrize("g", GRAPHS, ids=POOL_IDS)
def test_compress_reachability_byte_identical_between_backends(g):
    fast = compress_reachability(g, backend="csr")
    ref = compress_reachability(g, backend="dict")
    assert fast.canonical_form() == ref.canonical_form()


@pytest.mark.parametrize("g", GRAPHS[:12], ids=POOL_IDS[:12])
def test_csr_compression_preserves_queries(g):
    rc = compress_reachability(g, backend="csr")
    nodes = g.node_list()
    rng = random.Random(5)
    for _ in range(80):
        u, v = rng.choice(nodes), rng.choice(nodes)
        assert rc.query(u, v) == path_exists(g, u, v)


def test_unknown_backend_rejected():
    g = gnm_random_graph(5, 6, seed=0)
    with pytest.raises(ValueError):
        compress_reachability(g, backend="numpy")
    with pytest.raises(ValueError):
        bisimulation_partition(g, backend="numpy")
    with pytest.raises(ValueError):
        reachability_partition(g, backend="numpy")


def test_csr_graph_structure():
    g = DiGraph.from_edges([("a", "b"), ("a", "c"), ("b", "c"), ("c", "c")])
    g.set_label("a", "A")
    csr = CSRGraph.from_digraph(g)
    assert csr.n == 3 and csr.m == 4
    assert csr.graph_size() == 7
    a, b, c = csr.id_of("a"), csr.id_of("b"), csr.id_of("c")
    assert list(csr.successors(a)) == sorted([b, c])
    assert list(csr.predecessors(c)) == sorted([a, b, c])
    assert csr.out_degree(a) == 2 and csr.in_degree(c) == 3
    assert csr.label(a) == "A" and csr.label(b) == "σ"
    assert csr.node_of(a) == "a"
    # indptr/indices invariants
    assert csr.indptr[0] == 0 and csr.indptr[csr.n] == csr.m
    assert csr.rindptr[csr.n] == csr.m


def test_from_rows_freezes_like_from_digraph():
    # Repeated and unsorted successors collapse to the sorted, duplicate-free
    # rows a DiGraph over the ints 0..n-1 would freeze to.
    rows = [[2, 1, 2], [], [0, 2, 2], [3]]
    labels = ["A", "B", "A", "C"]
    g = DiGraph()
    for i, lab in enumerate(labels):
        g.add_node(i, lab)
    for i, row in enumerate(rows):
        for j in row:
            g.add_edge(i, j)
    assert CSRGraph.from_rows(rows, labels).buffers() == CSRGraph.from_digraph(g).buffers()


def test_empty_and_singleton():
    empty = DiGraph()
    csr = CSRGraph.from_digraph(empty)
    assert csr.n == 0 and csr.m == 0
    assert csr_scc(csr) == (0, [])
    assert csr_bisimulation_blocks(csr) == []
    rc = compress_reachability(empty, backend="csr")
    assert rc.stats().compressed_nodes == 0

    single = DiGraph()
    single.add_node("x")
    rc = compress_reachability(single, backend="csr")
    assert rc.compressed.order() == 1
    assert rc.query("x", "x") is True

    loop = DiGraph.from_edges([("x", "x")])
    rc = compress_reachability(loop, backend="csr")
    assert rc.query("x", "x") is True
