"""LP relaxation bounds for vertex cover and set cover.

The fractional optimum ``LP`` satisfies ``LP <= OPT``, and the paper's
dual packings satisfy ``Σ y <= LP`` (any feasible packing is a feasible
dual solution), so ``cover weight / LP`` upper-bounds the true
approximation ratio on instances too large for the exact solver.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.graphs.setcover import SetCoverInstance
from repro.graphs.topology import PortNumberedGraph

__all__ = ["vertex_cover_lp_bound", "set_cover_lp_bound"]


def vertex_cover_lp_bound(
    graph: PortNumberedGraph, weights: Sequence[int]
) -> float:
    """Optimal value of the VC LP relaxation (HiGHS)."""
    import numpy as np
    from scipy.optimize import linprog

    if graph.m == 0:
        return 0.0
    n = graph.n
    a = np.zeros((graph.m, n))
    for e, (u, v) in enumerate(graph.edges):
        a[e, u] = -1.0
        a[e, v] = -1.0
    res = linprog(
        c=np.asarray(weights, dtype=float),
        A_ub=a,
        b_ub=-np.ones(graph.m),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    return float(res.fun)


def set_cover_lp_bound(instance: SetCoverInstance) -> float:
    """Optimal value of the SC LP relaxation (HiGHS)."""
    import numpy as np
    from scipy.optimize import linprog

    if instance.n_elements == 0:
        return 0.0
    n = instance.n_subsets
    a = np.zeros((instance.n_elements, n))
    for s, members in enumerate(instance.subsets):
        for u in members:
            a[u, s] = -1.0
    res = linprog(
        c=np.asarray(instance.weights, dtype=float),
        A_ub=a,
        b_ub=-np.ones(instance.n_elements),
        bounds=[(0.0, 1.0)] * n,
        method="highs",
    )
    if not res.success:
        raise RuntimeError(f"LP solver failed: {res.message}")
    return float(res.fun)
