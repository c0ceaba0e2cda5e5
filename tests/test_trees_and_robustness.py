"""Tree-specific properties and misuse/robustness tests."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, HealthCheck

from repro.analysis.verify import check_edge_packing, check_vertex_cover
from repro.baselines.exact import exact_min_vertex_cover
from repro.core.edge_packing import EdgePackingMachine, maximal_edge_packing
from repro.core.fractional_packing import FractionalPackingMachine
from repro.graphs import families
from repro.graphs.weights import uniform_weights, unit_weights
from repro.simulator.machine import LocalContext
from repro.simulator.runtime import run_port_numbering
from tests.conftest import needs_scipy, trees


class TestTrees:
    """Trees are the worst case for symmetry-free arguments (leaves and
    internal nodes look different) and the best case for optimality:
    VC is poly-time on trees, so ratios can be checked tightly."""

    @given(trees(max_n=12))
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_edge_packing_on_random_trees(self, g):
        w = unit_weights(g.n)
        res = maximal_edge_packing(g, w)
        check_edge_packing(g, w, res.y).require()
        ok, _ = check_vertex_cover(g, res.saturated)
        assert ok

    @needs_scipy
    @given(trees(max_n=10))
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_two_approx_on_trees(self, g):
        if g.m == 0:
            return
        w = uniform_weights(g.n, 6, seed=1)
        res = maximal_edge_packing(g, w)
        opt, _ = exact_min_vertex_cover(g, w)
        assert res.cover_weight() <= 2 * opt

    def test_deep_path_star_combination(self):
        # caterpillar: spine + legs; Δ larger than path's 2
        g = families.caterpillar(5, 3)
        w = uniform_weights(g.n, 9, seed=2)
        res = maximal_edge_packing(g, w)
        check_edge_packing(g, w, res.y).require()


class TestMachineMisuse:
    def test_edge_packing_requires_int_weight(self):
        ctx = LocalContext(degree=1, input="heavy", globals={"delta": 1, "W": 1})
        with pytest.raises(ValueError, match="positive int"):
            EdgePackingMachine().start(ctx)

    def test_edge_packing_rejects_bool_weight(self):
        ctx = LocalContext(degree=0, input=True, globals={"delta": 0, "W": 1})
        with pytest.raises(ValueError):
            EdgePackingMachine().start(ctx)

    def test_edge_packing_missing_globals(self):
        ctx = LocalContext(degree=0, input=1, globals={})
        with pytest.raises(KeyError, match="delta"):
            EdgePackingMachine().start(ctx)

    def test_fractional_packing_requires_role(self):
        ctx = LocalContext(degree=1, input={}, globals={"f": 1, "k": 1, "W": 1})
        with pytest.raises(ValueError, match="role"):
            FractionalPackingMachine().start(ctx)

    def test_fractional_packing_element_degree_zero(self):
        ctx = LocalContext(
            degree=0, input={"role": "element"}, globals={"f": 1, "k": 1, "W": 1}
        )
        with pytest.raises(ValueError, match="infeasible"):
            FractionalPackingMachine().start(ctx)

    def test_subset_weight_above_W_rejected(self):
        ctx = LocalContext(
            degree=0,
            input={"role": "subset", "weight": 9},
            globals={"f": 1, "k": 1, "W": 3},
        )
        with pytest.raises(ValueError, match="exceeds"):
            FractionalPackingMachine().start(ctx)


class TestRuntimeEdgeCases:
    def test_machine_error_propagates_with_context(self):
        """A machine raising inside step must surface, not be swallowed."""

        class Exploding(EdgePackingMachine):
            def step(self, ctx, state, inbox):
                raise RuntimeError("intentional")

        g = families.path_graph(2)
        with pytest.raises(RuntimeError, match="intentional"):
            run_port_numbering(
                g,
                Exploding(),
                inputs=[1, 1],
                globals_map={"delta": 1, "W": 1},
                max_rounds=5,
            )

    def test_single_node_graph(self):
        g = families.empty_graph(1)
        res = maximal_edge_packing(g, [5])
        assert res.saturated == frozenset()
        assert res.y == {}

    def test_two_disconnected_components_independent(self):
        """Strict locality: components cannot influence each other."""
        from repro.graphs.topology import PortNumberedGraph

        combined = PortNumberedGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
        w = [1, 5, 1, 2, 2, 2]
        res_combined = maximal_edge_packing(combined, w, delta=2, W=5)

        left = PortNumberedGraph.from_edges(3, [(0, 1), (1, 2)])
        res_left = maximal_edge_packing(left, [1, 5, 1], delta=2, W=5)
        right = PortNumberedGraph.from_edges(3, [(0, 1), (1, 2)])
        res_right = maximal_edge_packing(right, [2, 2, 2], delta=2, W=5)

        assert {v for v in res_combined.saturated if v < 3} == set(res_left.saturated)
        assert {v - 3 for v in res_combined.saturated if v >= 3} == set(
            res_right.saturated
        )

    def test_parallel_weight_scaling_scales_packing(self):
        """Scaling all weights by c scales the packing by c (the
        algorithm is scale-equivariant on exact rationals)."""
        g = families.gnp_random(8, 0.4, seed=1)
        w = uniform_weights(8, 4, seed=2)
        res1 = maximal_edge_packing(g, w, W=4)
        res2 = maximal_edge_packing(g, [3 * x for x in w], W=12)
        # Note: W changes the schedule length but not Phase I arithmetic;
        # the colour *sequences* scale, preserving order, so Phase II
        # makes the same decisions.
        for e in range(g.m):
            assert res2.y[e] == 3 * res1.y[e]
        assert res1.saturated == res2.saturated
