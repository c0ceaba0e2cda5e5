"""Exact minimum-weight vertex cover and set cover.

Ground truth for the approximation-ratio experiments.  The primary
solver formulates the integer program and hands it to scipy's HiGHS
MILP solver; an independent brute-force enumerator (usable up to ~20
decision variables) cross-checks it in the test suite, so a regression
in either is caught by the other.
"""

from __future__ import annotations

from itertools import combinations
from typing import FrozenSet, Iterable, Sequence, Tuple

from repro.graphs.setcover import SetCoverInstance
from repro.graphs.topology import PortNumberedGraph

__all__ = [
    "exact_min_vertex_cover",
    "exact_min_set_cover",
    "brute_force_vertex_cover",
    "brute_force_set_cover",
]


def exact_min_vertex_cover(
    graph: PortNumberedGraph, weights: Sequence[int]
) -> Tuple[int, FrozenSet[int]]:
    """Optimal weighted vertex cover via MILP (HiGHS).

    minimise  w·x   s.t.  x_u + x_v >= 1 for every edge, x binary.
    """
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    n = graph.n
    if graph.m == 0:
        return 0, frozenset()
    a = np.zeros((graph.m, n))
    for e, (u, v) in enumerate(graph.edges):
        a[e, u] = 1.0
        a[e, v] = 1.0
    res = milp(
        c=np.asarray(weights, dtype=float),
        integrality=np.ones(n),
        bounds=_unit_box(n),
        constraints=LinearConstraint(a, lb=1.0, ub=np.inf),
    )
    if not res.success:
        raise RuntimeError(f"MILP solver failed: {res.message}")
    chosen = frozenset(v for v in range(n) if res.x[v] > 0.5)
    weight = sum(weights[v] for v in chosen)
    _assert_is_cover(graph, chosen)
    return weight, chosen


def exact_min_set_cover(instance: SetCoverInstance) -> Tuple[int, FrozenSet[int]]:
    """Optimal weighted set cover via MILP (HiGHS)."""
    import numpy as np
    from scipy.optimize import LinearConstraint, milp

    n = instance.n_subsets
    m = instance.n_elements
    if m == 0:
        return 0, frozenset()
    a = np.zeros((m, n))
    for s, members in enumerate(instance.subsets):
        for u in members:
            a[u, s] = 1.0
    res = milp(
        c=np.asarray(instance.weights, dtype=float),
        integrality=np.ones(n),
        bounds=_unit_box(n),
        constraints=LinearConstraint(a, lb=1.0, ub=np.inf),
    )
    if not res.success:
        raise RuntimeError(f"MILP solver failed: {res.message}")
    chosen = frozenset(s for s in range(n) if res.x[s] > 0.5)
    ok, uncovered = _set_cover_check(instance, chosen)
    if not ok:
        raise AssertionError(f"MILP returned a non-cover; uncovered: {uncovered}")
    return instance.cover_weight(chosen), chosen


def _unit_box(n: int):
    import numpy as np
    from scipy.optimize import Bounds

    return Bounds(lb=np.zeros(n), ub=np.ones(n))


def _assert_is_cover(graph: PortNumberedGraph, cover: Iterable[int]) -> None:
    cset = set(cover)
    for (u, v) in graph.edges:
        if u not in cset and v not in cset:
            raise AssertionError(f"edge {(u, v)} uncovered by claimed optimum")


def _set_cover_check(instance: SetCoverInstance, chosen) -> Tuple[bool, Tuple[int, ...]]:
    covered = set()
    for s in chosen:
        covered |= instance.subsets[s]
    uncovered = tuple(sorted(set(range(instance.n_elements)) - covered))
    return (not uncovered, uncovered)


# ----------------------------------------------------------------------
# Independent brute force (for cross-checking the MILP path in tests)
# ----------------------------------------------------------------------


def brute_force_vertex_cover(
    graph: PortNumberedGraph, weights: Sequence[int], max_n: int = 22
) -> Tuple[int, FrozenSet[int]]:
    """Enumerate covers by increasing size, track the best weight.

    Exponential; guarded by ``max_n``.
    """
    n = graph.n
    if n > max_n:
        raise ValueError(f"brute force limited to n <= {max_n}, got {n}")
    if graph.m == 0:
        return 0, frozenset()
    best_weight = sum(weights) + 1
    best: FrozenSet[int] = frozenset(range(n))
    edges = graph.edges
    for size in range(0, n + 1):
        for cand in combinations(range(n), size):
            cset = set(cand)
            w = sum(weights[v] for v in cand)
            if w >= best_weight:
                continue
            if all(u in cset or v in cset for (u, v) in edges):
                best_weight = w
                best = frozenset(cand)
    return best_weight, best


def brute_force_set_cover(
    instance: SetCoverInstance, max_subsets: int = 20
) -> Tuple[int, FrozenSet[int]]:
    """Enumerate all subset selections; exponential, test-sized only."""
    n = instance.n_subsets
    if n > max_subsets:
        raise ValueError(f"brute force limited to {max_subsets} subsets, got {n}")
    universe = set(range(instance.n_elements))
    best_weight = sum(instance.weights) + 1
    best: FrozenSet[int] = frozenset(range(n))
    for mask in range(1 << n):
        chosen = [s for s in range(n) if mask >> s & 1]
        w = sum(instance.weights[s] for s in chosen)
        if w >= best_weight:
            continue
        covered = set()
        for s in chosen:
            covered |= instance.subsets[s]
        if covered == universe:
            best_weight = w
            best = frozenset(chosen)
    return best_weight, best
