"""Check answers against direct evaluation on G, outside the timed phase.

The version that answered an operation names the graph it must agree
with: version ``v`` is the initial graph with the benchmark's own first
``v`` update batches replayed on a shadow ``DiGraph``.  Reachability is
re-evaluated by BFS on that graph, patterns by the stock matcher on that
graph; neither goes near the compressed representations, the catalog or
the serving stack.  Every operation type is checked; within a type the
check samples deterministically to keep a run short.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro import DiGraph, GraphPattern, MatchContext, evaluate_reachability, match

from workloads import apply_batch

#: Upper bounds on how much one run re-derives.
MAX_VERSIONS = 8
MAX_REACH = 400
MAX_PATTERNS = 24


def _spread(items: List[Any], k: int) -> List[Any]:
    if len(items) <= k:
        return items
    step = len(items) / k
    return [items[int(i * step)] for i in range(k)]


def _pattern_key(p: GraphPattern) -> Tuple[frozenset, frozenset]:
    return frozenset(p.nodes.items()), frozenset(p.edges.items())


Check = Tuple[str, Any, Any, int]   # (operation kind, query, answer, version)


def verify(graph: DiGraph, batches: List[list], checks: List[Check]
           ) -> Tuple[Dict[str, int], List[str]]:
    """Re-derive a sample of the ``(kind, query, answer, version)`` checks;
    return (checks made per operation kind, descriptions of mismatches)."""
    by_version: Dict[int, List[Tuple[str, Any, Any]]] = {}
    for kind, q, ans, version in checks:
        by_version.setdefault(version, []).append((kind, q, ans))
    versions = sorted(by_version)
    # The first and last version, one a write answered on, the rest spread.
    chosen = set(_spread(versions, MAX_VERSIONS - 2) + versions[-1:])
    written = [v for v in versions if any(k == "write" for k, _, _ in by_version[v])]
    if written and not chosen.intersection(written):
        chosen.add(written[0])
    chosen = sorted(chosen)
    reach_budget = max(1, MAX_REACH // len(chosen))
    shadow = graph.copy()
    replayed = 0
    checked: Dict[str, int] = {}
    bad: List[str] = []
    patterns_left = MAX_PATTERNS
    for version in chosen:
        while replayed < version:
            apply_batch(shadow, batches[replayed])
            replayed += 1
        items = by_version[version]
        # Write probes first, so a tight budget still covers them.
        items.sort(key=lambda item: item[0] != "write")
        reach = [i for i in items if not isinstance(i[1], GraphPattern)]
        pats = [i for i in items if isinstance(i[1], GraphPattern)]
        for kind, q, ans in reach[:1] + _spread(reach[1:], reach_budget):
            checked[kind] = checked.get(kind, 0) + 1
            want = evaluate_reachability(shadow, q.source, q.target, "bfs")
            if ans != want:
                bad.append(f"v{version} reach {q.source}->{q.target}: got {ans}, want {want}")
        if not pats:
            continue
        ctx = MatchContext(shadow)
        oracle: Dict[Any, Any] = {}
        # Distinct patterns first (each is one match on G), then every
        # sampled answer of an already-derived pattern (free to compare).
        distinct: Dict[Any, GraphPattern] = {}
        for _, q, _ in pats:
            distinct.setdefault(_pattern_key(q), q)
        budget = max(1, min(patterns_left, MAX_PATTERNS // len(chosen) + 1))
        for key, q in list(distinct.items())[:budget]:
            oracle[key] = match(q, shadow, ctx)
        patterns_left = max(0, patterns_left - len(oracle))
        for kind, q, ans in pats:
            want = oracle.get(_pattern_key(q))
            if want is None:
                continue
            checked[kind] = checked.get(kind, 0) + 1
            if ans != want:
                bad.append(f"v{version} pattern {q!r}: answer differs from match on G")
    return checked, bad
