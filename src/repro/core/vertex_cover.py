"""2-approximate minimum-weight vertex cover (Sections 1.1, 3 and 5).

The classical Bar-Yehuda–Even argument: if ``y`` is a maximal edge
packing, the saturated nodes ``C(y)`` form a vertex cover of weight at
most ``2 Σ_e y(e) <= 2 · OPT``.  The packing value is therefore a
*certificate*: ``cover_weight / (2 · packing_value) <= 1`` proves the
ratio without knowing OPT.

Two distributed constructions are provided:

* :func:`vertex_cover_2approx` — the Section 3 algorithm in the
  port-numbering model, ``O(Δ + log* W)`` rounds;
* :func:`vertex_cover_broadcast` — the Section 5 simulation in the
  (strictly weaker) broadcast model, ``O(Δ² + Δ log* W)`` rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.core.broadcast_vc import BroadcastVertexCoverMachine, bvc_round_count
from repro.core.edge_packing import EdgePackingResult, maximal_edge_packing
from repro.graphs.topology import PortNumberedGraph
from repro.graphs.weights import max_weight, validate_weights
from repro.simulator.runtime import RunResult, run_broadcast

__all__ = [
    "VertexCoverResult",
    "vertex_cover_2approx",
    "vertex_cover_broadcast",
    "broadcast_vc_job",
    "broadcast_vc_from_run",
]


@dataclass(frozen=True)
class VertexCoverResult:
    """A vertex cover with its dual certificate.

    ``certificate_ratio`` is ``cover_weight / (2 · Σ y)``; values
    ``<= 1`` certify the 2-approximation without solving the instance.
    """

    graph: PortNumberedGraph
    weights: Tuple[int, ...]
    cover: frozenset
    rounds: int
    packing_value: Fraction
    model: str
    run: RunResult

    @property
    def cover_weight(self) -> int:
        return sum(self.weights[v] for v in self.cover)

    @property
    def certificate_ratio(self) -> Fraction:
        if self.packing_value == 0:
            # No edges -> empty cover is optimal; certificate trivially 1.
            return Fraction(0) if self.cover_weight == 0 else Fraction(1)
        return Fraction(self.cover_weight) / (2 * self.packing_value)

    def is_cover(self) -> bool:
        return all(u in self.cover or v in self.cover for (u, v) in self.graph.edges)


def vertex_cover_2approx(
    graph: PortNumberedGraph,
    weights: Sequence[int],
    delta: Optional[int] = None,
    W: Optional[int] = None,
    arithmetic: str = "scaled",
    engine: str = "auto",
    shards: int = 1,
) -> VertexCoverResult:
    """Section 3: 2-approximate weighted VC in the port-numbering model.

    ``engine`` selects the runtime's execution substrate (see
    :data:`repro.simulator.runtime.ENGINES`) and ``shards`` the
    intra-run partition width (see :mod:`repro.simulator.sharding`);
    results are bit-for-bit identical across engines and shard counts.
    """
    packing: EdgePackingResult = maximal_edge_packing(
        graph, weights, delta=delta, W=W, arithmetic=arithmetic,
        engine=engine, shards=shards,
    )
    return VertexCoverResult(
        graph=graph,
        weights=packing.weights,
        cover=packing.saturated,
        rounds=packing.rounds,
        packing_value=packing.packing_value(),
        model="port-numbering",
        run=packing.run,
    )


def broadcast_vc_job(
    graph: PortNumberedGraph,
    weights: Sequence[int],
    delta: Optional[int] = None,
    W: Optional[int] = None,
    arithmetic: str = "scaled",
    metering: Any = "bits",
    replay: str = "incremental",
) -> Dict[str, Any]:
    """A validated :func:`repro.simulator.runtime.run` kwargs mapping.

    Suitable as a :func:`repro.simulator.runtime.sweep` instance;
    assemble the resulting :class:`RunResult` with
    :func:`broadcast_vc_from_run`.  ``replay`` selects the history
    replay strategy of the simulation machine (``"incremental"`` /
    ``"scratch"``; identical results, see
    :mod:`repro.core.broadcast_vc`).
    """
    weights = tuple(int(w) for w in weights)
    if delta is None:
        delta = graph.max_degree
    if W is None:
        W = max_weight(weights)
    validate_weights(weights, graph.n, W)
    return {
        "graph": graph,
        "machine": BroadcastVertexCoverMachine(
            arithmetic=arithmetic, replay=replay
        ),
        "inputs": list(weights),
        "globals_map": {"delta": delta, "W": W},
        "max_rounds": bvc_round_count(delta, W),
        "metering": metering,
    }


def broadcast_vc_from_run(
    graph: PortNumberedGraph,
    weights: Sequence[int],
    result: RunResult,
) -> VertexCoverResult:
    """Assemble a :class:`VertexCoverResult` from a finished BVC run.

    Reconstructs the edge packing value from the per-node incident
    multisets (each edge's ``y`` is reported by both endpoints; summing
    all reports counts every edge twice).
    """
    weights = tuple(int(w) for w in weights)
    if not result.all_halted:
        raise RuntimeError(
            f"broadcast VC did not halt within {result.rounds} rounds"
        )
    cover = frozenset(
        v for v in graph.nodes() if result.outputs[v]["in_cover"]
    )
    double_total = sum(
        (y for v in graph.nodes() for (y, _sat) in result.outputs[v]["incident"]),
        Fraction(0),
    )
    return VertexCoverResult(
        graph=graph,
        weights=weights,
        cover=cover,
        rounds=result.rounds,
        packing_value=double_total / 2,
        model="broadcast",
        run=result,
    )


def vertex_cover_broadcast(
    graph: PortNumberedGraph,
    weights: Sequence[int],
    delta: Optional[int] = None,
    W: Optional[int] = None,
    arithmetic: str = "scaled",
    replay: str = "incremental",
) -> VertexCoverResult:
    """Section 5: 2-approximate weighted VC in the broadcast model."""
    job = broadcast_vc_job(
        graph, weights, delta=delta, W=W, arithmetic=arithmetic, replay=replay
    )
    job.pop("graph")
    machine = job.pop("machine")
    result = run_broadcast(graph, machine, **job)
    return broadcast_vc_from_run(graph, weights, result)
