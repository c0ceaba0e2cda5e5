"""Integration and invariant tests for the Section 3 edge packing machine."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, HealthCheck

from repro.analysis.bounds import edge_packing_paper_bound, edge_packing_rounds_exact
from repro.analysis.verify import check_edge_packing, check_vertex_cover
from repro.baselines.exact import exact_min_vertex_cover
from repro.baselines.sequential import bar_yehuda_even_packing
from repro.core.edge_packing import (
    build_schedule,
    maximal_edge_packing,
    schedule_length,
)
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graphs import families, ports
from repro.graphs.weights import adversarial_weights, uniform_weights, unit_weights
from tests.conftest import needs_scipy, small_graph_suite, weighted_graphs


def _check_full(graph, weights, **kwargs):
    """Run the machine and verify every paper invariant."""
    res = maximal_edge_packing(graph, weights, **kwargs)
    check_edge_packing(graph, weights, res.y).require()
    ok, uncovered = check_vertex_cover(graph, res.saturated)
    assert ok, f"saturated nodes do not cover: {uncovered}"
    # Bar-Yehuda–Even accounting: w(C) <= 2 Σ y(e)
    assert res.cover_weight() <= 2 * res.packing_value()
    return res


class TestSmallInstances:
    def test_single_edge_unit(self):
        g = families.path_graph(2)
        res = _check_full(g, [1, 1])
        assert res.y[0] == 1
        assert res.saturated == frozenset({0, 1})

    def test_single_edge_weighted(self):
        g = families.path_graph(2)
        res = _check_full(g, [2, 5])
        assert res.y[0] == 2  # limited by the lighter endpoint
        assert res.saturated == frozenset({0})

    def test_path3_picks_middle(self):
        g = families.path_graph(3)
        res = _check_full(g, [1, 1, 1])
        assert res.saturated == frozenset({1})

    def test_star_prefers_cheap_leaves(self):
        g = families.star_graph(4)
        res = _check_full(g, [100, 1, 1, 1, 1])
        assert res.saturated == frozenset({1, 2, 3, 4})

    def test_star_prefers_cheap_centre(self):
        g = families.star_graph(4)
        res = _check_full(g, [1, 100, 100, 100, 100])
        assert 0 in res.saturated
        assert res.cover_weight() <= 2 * 1  # centre weight 1, OPT = 1

    def test_triangle(self):
        g = families.complete_graph(3)
        res = _check_full(g, [1, 1, 1])
        assert len(res.saturated) >= 2  # must cover all three edges

    def test_empty_graph(self):
        g = families.empty_graph(5)
        res = _check_full(g, unit_weights(5))
        assert res.saturated == frozenset()
        assert res.y == {}

    def test_isolated_plus_edge(self):
        from repro.graphs.topology import PortNumberedGraph

        g = PortNumberedGraph.from_edges(4, [(1, 3)])
        res = _check_full(g, [5, 2, 5, 2])
        assert 0 not in res.saturated and 2 not in res.saturated


class TestGraphSuite:
    @pytest.mark.parametrize(
        "name,graph", small_graph_suite(), ids=[n for n, _ in small_graph_suite()]
    )
    def test_unit_weights(self, name, graph):
        _check_full(graph, unit_weights(graph.n))

    @pytest.mark.parametrize(
        "name,graph", small_graph_suite(), ids=[n for n, _ in small_graph_suite()]
    )
    def test_uniform_weights(self, name, graph):
        _check_full(graph, uniform_weights(graph.n, 10, seed=1))

    @pytest.mark.parametrize(
        "name,graph", small_graph_suite(), ids=[n for n, _ in small_graph_suite()]
    )
    def test_adversarial_weights(self, name, graph):
        _check_full(graph, adversarial_weights(graph.n, 16))


class TestRoundCounts:
    def test_rounds_match_exact_formula(self):
        for name, g in small_graph_suite():
            w = uniform_weights(g.n, 5, seed=0)
            res = maximal_edge_packing(g, w)
            W = max(w)
            assert res.rounds == edge_packing_rounds_exact(g.max_degree, W), name

    def test_rounds_below_paper_bound(self):
        for delta in (0, 1, 2, 3, 5, 8, 16):
            for W in (1, 2, 16, 2**16, 2**64):
                assert edge_packing_rounds_exact(delta, W) <= edge_packing_paper_bound(
                    delta, W
                ) + 8 * delta  # paper bound uses the same Δ terms; slack absorbs constants

    def test_rounds_independent_of_n(self):
        """Strict locality: rounds depend on (Δ, W) only, never on n."""
        rounds = set()
        for n in (4, 8, 16, 64):
            g = families.cycle_graph(n)
            res = maximal_edge_packing(g, unit_weights(n))
            rounds.add(res.rounds)
        assert len(rounds) == 1

    def test_rounds_grow_with_delta_param(self):
        g = families.path_graph(2)
        r1 = maximal_edge_packing(g, [1, 1], delta=1).rounds
        r2 = maximal_edge_packing(g, [1, 1], delta=6).rounds
        assert r2 > r1

    def test_schedule_structure(self):
        sched = build_schedule(2, 1)
        kinds = [t[0] for t in sched]
        assert kinds.count("p1a") == 2
        assert kinds.count("p1b") == 2
        assert kinds.count("p1_settle") == 1
        assert kinds.count("announce") == 1
        assert kinds.count("sd") == 3 and kinds.count("elim") == 3
        assert kinds.count("star_req") == 6 and kinds.count("star_rep") == 6
        assert len(sched) == schedule_length(2, 1)


class TestDeterminismAndAnonymity:
    def test_deterministic(self):
        g = families.gnp_random(10, 0.4, seed=2)
        w = uniform_weights(10, 7, seed=3)
        a = maximal_edge_packing(g, w)
        b = maximal_edge_packing(g, w)
        assert a.y == b.y and a.saturated == b.saturated

    def test_relabelling_equivariance(self):
        """Outputs must depend on the port-numbered structure only: if we
        rename nodes (ports travelling along), outputs rename with them."""
        g = families.gnp_random(9, 0.4, seed=5)
        w = uniform_weights(9, 5, seed=6)
        rng = random.Random(11)
        perm = list(range(9))
        rng.shuffle(perm)
        h = g.relabel(perm)
        w2 = [0] * 9
        for v in range(9):
            w2[perm[v]] = w[v]
        res_g = maximal_edge_packing(g, w)
        res_h = maximal_edge_packing(h, w2)
        assert {perm[v] for v in res_g.saturated} == set(res_h.saturated)
        for (u, v) in g.edges:
            e_g = g.edge_id(u, v)
            e_h = h.edge_id(perm[u], perm[v])
            assert res_g.y[e_g] == res_h.y[e_h]

    def test_valid_under_any_port_numbering(self):
        g = families.grid_2d(3, 3)
        w = uniform_weights(9, 6, seed=7)
        for variant in (
            g,
            ports.reversed_ports(g),
            ports.random_ports(g, seed=1),
            ports.random_ports(g, seed=2),
        ):
            _check_full(variant, w)

    def test_port_numbering_may_change_output(self):
        """The *solution* may differ per port numbering (only validity is
        invariant).  On an even cycle some numbering breaks symmetry."""
        g = families.cycle_graph(4)
        w = [1, 1, 1, 1]
        covers = set()
        covers.add(maximal_edge_packing(g, w).saturated)
        covers.add(
            maximal_edge_packing(ports.random_ports(g, seed=3), w).saturated
        )
        # not asserting inequality (may coincide) — but all must be valid
        for c in covers:
            ok, _ = check_vertex_cover(g, c)
            assert ok


class TestDeltaWParameters:
    def test_loose_delta_bound_still_correct(self):
        g = families.cycle_graph(5)
        _check_full(g, unit_weights(5), delta=7)

    def test_loose_w_bound_still_correct(self):
        g = families.petersen_graph()
        _check_full(g, unit_weights(10), W=2**20)

    def test_degree_exceeding_delta_rejected(self):
        g = families.star_graph(5)
        with pytest.raises(ValueError, match="exceeds"):
            maximal_edge_packing(g, unit_weights(6), delta=3)

    def test_weight_exceeding_w_rejected(self):
        g = families.path_graph(2)
        with pytest.raises(ValueError):
            maximal_edge_packing(g, [5, 1], W=3)


class TestTwoApproximation:
    @needs_scipy
    @pytest.mark.parametrize(
        "name,graph",
        [(n, g) for n, g in small_graph_suite() if g.n <= 12],
        ids=[n for n, g in small_graph_suite() if g.n <= 12],
    )
    def test_ratio_at_most_two_vs_exact(self, name, graph):
        for seed in (0, 1):
            w = uniform_weights(graph.n, 8, seed=seed)
            res = maximal_edge_packing(graph, w)
            opt, _ = exact_min_vertex_cover(graph, w)
            assert res.cover_weight() <= 2 * opt, (
                f"{name}: cover {res.cover_weight()} > 2 x OPT {opt}"
            )

    @needs_scipy
    def test_matches_bar_yehuda_even_quality_class(self):
        """Both are maximal packings; both must 2-approximate."""
        g = families.gnp_random(10, 0.35, seed=9)
        w = uniform_weights(10, 9, seed=10)
        y_seq, saturated_seq = bar_yehuda_even_packing(g, w)
        check_edge_packing(g, w, y_seq).require()
        res = _check_full(g, w)
        opt, _ = exact_min_vertex_cover(g, w)
        assert sum(w[v] for v in saturated_seq) <= 2 * opt
        assert res.cover_weight() <= 2 * opt


class TestPropertyBased:
    @given(weighted_graphs())
    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_invariants_on_random_graphs(self, data):
        g, w, W = data
        res = maximal_edge_packing(g, w, W=W)
        check = check_edge_packing(g, w, res.y)
        assert check.feasible, check.violations
        assert check.maximal, check.violations
        ok, uncovered = check_vertex_cover(g, res.saturated)
        assert ok, uncovered
        assert res.rounds == edge_packing_rounds_exact(g.max_degree, W)
