"""Exact verifiers for packings and covers.

All checks run on exact rationals — a verifier that used floating
point could silently accept an infeasible packing whose violation is
below the tolerance, defeating the point of the dual certificates.

A vectorised (numpy) feasibility check is provided as well; it is used
by the performance experiment to quantify the cost of exactness, and
as a redundant fast pre-check on large instances.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.graphs.setcover import SetCoverInstance
from repro.graphs.topology import PortNumberedGraph

__all__ = [
    "PackingCheck",
    "check_edge_packing",
    "check_vertex_cover",
    "check_fractional_packing",
    "check_set_cover",
    "edge_packing_from_result",
    "edge_packing_feasible_fast",
]


@dataclass(frozen=True)
class PackingCheck:
    """Outcome of a packing verification."""

    feasible: bool
    maximal: bool
    violations: Tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.feasible and self.maximal

    def require(self) -> None:
        if not self.ok:
            raise AssertionError(
                "packing verification failed:\n  " + "\n  ".join(self.violations)
            )


def check_edge_packing(
    graph: PortNumberedGraph,
    weights: Sequence[int],
    y: Mapping[int, Fraction],
) -> PackingCheck:
    """Verify feasibility (``y[v] <= w_v``) and maximality (Section 1.1).

    ``y`` maps edge ids to values.  An edge is saturated iff some
    endpoint ``v`` has ``y[v] = w_v``; the packing is maximal iff every
    edge is saturated.
    """
    violations: List[str] = []
    if set(y.keys()) != set(range(graph.m)):
        violations.append(
            f"y must assign a value to every edge id 0..{graph.m - 1}"
        )
        return PackingCheck(False, False, tuple(violations))

    node_load = [Fraction(0)] * graph.n
    for (u, v) in graph.edges:
        e = graph.edge_id(u, v)
        val = Fraction(y[e])
        if val < 0:
            violations.append(f"edge {(u, v)}: negative value {val}")
        node_load[u] += val
        node_load[v] += val

    feasible = not violations
    for v in graph.nodes():
        if node_load[v] > weights[v]:
            feasible = False
            violations.append(
                f"node {v}: load {node_load[v]} exceeds weight {weights[v]}"
            )

    saturated = [node_load[v] == weights[v] for v in graph.nodes()]
    maximal = True
    for (u, v) in graph.edges:
        if not (saturated[u] or saturated[v]):
            maximal = False
            violations.append(
                f"edge {(u, v)} unsaturated: loads "
                f"{node_load[u]}/{weights[u]} and {node_load[v]}/{weights[v]}"
            )
    return PackingCheck(feasible, maximal, tuple(violations))


def check_vertex_cover(
    graph: PortNumberedGraph, cover: Iterable[int]
) -> Tuple[bool, Tuple[Tuple[int, int], ...]]:
    """Return (is_cover, uncovered_edges)."""
    cset = set(cover)
    uncovered = tuple(
        (u, v) for (u, v) in graph.edges if u not in cset and v not in cset
    )
    return (not uncovered, uncovered)


def check_fractional_packing(
    instance: SetCoverInstance, y: Sequence[Fraction]
) -> PackingCheck:
    """Verify feasibility (``y[s] <= w_s``) and maximality (Section 1.2)."""
    violations: List[str] = []
    if len(y) != instance.n_elements:
        return PackingCheck(
            False, False, (f"need {instance.n_elements} element values",)
        )
    y = [Fraction(v) for v in y]
    for u, val in enumerate(y):
        if val < 0:
            violations.append(f"element {u}: negative value {val}")

    loads = []
    for s, members in enumerate(instance.subsets):
        load = sum((y[u] for u in members), Fraction(0))
        loads.append(load)
        if load > instance.weights[s]:
            violations.append(
                f"subset {s}: load {load} exceeds weight {instance.weights[s]}"
            )
    feasible = not violations

    saturated = [loads[s] == instance.weights[s] for s in range(instance.n_subsets)]
    maximal = True
    for u, owners in enumerate(instance.element_to_subsets()):
        if not any(saturated[s] for s in owners):
            maximal = False
            violations.append(f"element {u} not adjacent to a saturated subset")
    return PackingCheck(feasible, maximal, tuple(violations))


def check_set_cover(
    instance: SetCoverInstance, chosen: Iterable[int]
) -> Tuple[bool, Tuple[int, ...]]:
    """Return (is_cover, uncovered_elements)."""
    covered = set()
    for s in set(chosen):
        covered |= instance.subsets[s]
    uncovered = tuple(sorted(set(range(instance.n_elements)) - covered))
    return (not uncovered, uncovered)


def edge_packing_from_result(result) -> Dict[int, Fraction]:
    """Extract the edge map from an :class:`EdgePackingResult` (alias)."""
    return dict(result.y)


def edge_packing_feasible_fast(
    graph: PortNumberedGraph,
    weights: Sequence[int],
    y_values: Sequence[float],
    tol: float = 1e-9,
) -> bool:
    """Vectorised float feasibility check (numpy).

    Sound only up to ``tol``; the exact checker is authoritative.  Used
    by the performance experiment and as a cheap pre-filter.
    """
    if graph.m == 0:
        return True
    import numpy as np

    yv = np.asarray([float(v) for v in y_values], dtype=float)
    if (yv < -tol).any():
        return False
    ends = np.asarray(graph.edges, dtype=np.intp)
    load = np.zeros(graph.n, dtype=float)
    np.add.at(load, ends[:, 0], yv)
    np.add.at(load, ends[:, 1], yv)
    return bool((load <= np.asarray(weights, dtype=float) + tol).all())
