"""Fig. 12(d) — memory cost: ``G``, ``Gr``, 2-hop on ``G``, 2-hop on ``Gr``.

The paper's log-scale bar chart: the 2-hop index over the original graph
dwarfs everything (234MB vs 8.9MB graph on wikiVote), while the compressed
graph and its 2-hop index are tiny.  Shape checks: ``Gr`` saves >=90% of
``G``'s memory on social stand-ins, and 2-hop-on-``Gr`` is far smaller than
2-hop-on-``G``.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.bench.metrics import graph_memory_bytes
from repro.core.reachability import compress_reachability
from repro.datasets.catalog import CATALOG
from repro.index.twohop import TwoHopIndex

DATASETS = ["p2p", "wikiVote", "citHepTh", "socEpinions", "facebook", "notredame"]


def run(quick: bool = True) -> ExperimentResult:
    scale = 0.5 if quick else 1.0
    rows = []
    social_savings = []
    twohop_ratios = []
    for name in DATASETS:
        spec = CATALOG[name]
        g = spec.build(seed=1, scale=scale)
        rc = compress_reachability(g)
        gr = rc.compressed
        hop_g = TwoHopIndex(g)
        hop_gr = TwoHopIndex(gr)
        kb = lambda b: round(b / 1024.0, 1)
        g_mem = graph_memory_bytes(g)
        gr_mem = graph_memory_bytes(gr)
        rows.append(
            {
                "dataset": name,
                "G (KB)": kb(g_mem),
                "Gr (KB)": kb(gr_mem),
                "2-hop on G (KB)": kb(hop_g.memory_cost()),
                "2-hop on Gr (KB)": kb(hop_gr.memory_cost()),
            }
        )
        if spec.family == "social":
            social_savings.append(1 - gr_mem / g_mem)
        twohop_ratios.append(hop_gr.memory_cost() / max(1, hop_g.memory_cost()))

    checks = [
        (
            "Gr saves >=90% of G's memory on social stand-ins",
            all(s >= 0.9 for s in social_savings),
        ),
        (
            "2-hop over Gr is <20% the size of 2-hop over G (average)",
            sum(twohop_ratios) / len(twohop_ratios) < 0.2,
        ),
    ]
    return ExperimentResult(
        experiment="fig12d",
        title="Memory cost comparison (graphs and 2-hop indexes)",
        columns=["dataset", "G (KB)", "Gr (KB)", "2-hop on G (KB)", "2-hop on Gr (KB)"],
        rows=rows,
        checks=checks,
        notes="2-hop built with pruned landmark labeling (see repro.index.twohop)",
    )
