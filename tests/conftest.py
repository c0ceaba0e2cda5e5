"""Shared fixtures, helpers and hypothesis strategies."""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List, Tuple

import pytest
from hypothesis import strategies as st

from repro.graphs import families
from repro.graphs.topology import PortNumberedGraph


def _importable(*modules: str) -> bool:
    try:
        for name in modules:
            __import__(name)
    except ImportError:
        return False
    return True


#: Marks a test that checks against the exact ILP baseline
#: (:mod:`repro.baselines.exact`, scipy's ``milp``): it skips where
#: numpy or scipy is not installed, as in the no-numpy CI job.
needs_scipy = pytest.mark.skipif(
    not _importable("numpy", "scipy"), reason="needs numpy and scipy"
)

# ----------------------------------------------------------------------
# Deterministic graph suites
# ----------------------------------------------------------------------


def small_graph_suite() -> List[Tuple[str, PortNumberedGraph]]:
    """A deterministic suite covering structurally diverse topologies."""
    return [
        ("empty4", families.empty_graph(4)),
        ("single_edge", families.path_graph(2)),
        ("path5", families.path_graph(5)),
        ("cycle4", families.cycle_graph(4)),
        ("cycle5", families.cycle_graph(5)),
        ("star5", families.star_graph(5)),
        ("k4", families.complete_graph(4)),
        ("k33", families.complete_bipartite(3, 3)),
        ("grid33", families.grid_2d(3, 3)),
        ("tree23", families.balanced_tree(2, 3)),
        ("caterpillar", families.caterpillar(4, 2)),
        ("petersen", families.petersen_graph()),
        ("frucht", families.frucht_graph()),
        ("hypercube3", families.hypercube(3)),
        ("gnp", families.gnp_random(12, 0.3, seed=7)),
        ("regular3", families.random_regular(3, 10, seed=3)),
    ]


@pytest.fixture(params=small_graph_suite(), ids=lambda p: p[0])
def named_graph(request):
    return request.param


# ----------------------------------------------------------------------
# Hypothesis strategies
# ----------------------------------------------------------------------


@st.composite
def gnp_graphs(draw, max_n: int = 12):
    """Random G(n, p) graphs as PortNumberedGraph."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    density = draw(st.sampled_from([0.15, 0.3, 0.5, 0.8]))
    rng = random.Random(f"hyp-gnp:{seed}")
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return PortNumberedGraph.from_edges(n, edges)


@st.composite
def weighted_graphs(draw, max_n: int = 10, max_w: int = 16):
    """(graph, weights, W) triples with integer weights in 1..W."""
    g = draw(gnp_graphs(max_n=max_n))
    W = draw(st.integers(min_value=1, max_value=max_w))
    weights = draw(
        st.lists(
            st.integers(min_value=1, max_value=W),
            min_size=g.n,
            max_size=g.n,
        )
    )
    return g, weights, W


@st.composite
def trees(draw, max_n: int = 12):
    """Random trees via random parent assignment."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    if n == 1:
        return PortNumberedGraph.from_edges(1, [])
    parents = [
        draw(st.integers(min_value=0, max_value=v - 1)) for v in range(1, n)
    ]
    edges = [(parents[v - 1], v) for v in range(1, n)]
    return PortNumberedGraph.from_edges(n, edges)


@st.composite
def setcover_instances(draw, max_subsets: int = 6, max_elements: int = 8,
                       max_k: int = 4, max_f: int = 3, max_w: int = 8):
    """Random feasible bounded-degree set cover instances."""
    from repro.graphs.setcover import random_instance

    n_subsets = draw(st.integers(min_value=1, max_value=max_subsets))
    k = draw(st.integers(min_value=1, max_value=max_k))
    n_elements = draw(
        st.integers(min_value=1, max_value=min(max_elements, n_subsets * k))
    )
    f = draw(st.integers(min_value=1, max_value=max_f))
    W = draw(st.integers(min_value=1, max_value=max_w))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_instance(n_subsets, n_elements, k=k, f=f, W=W, seed=seed)


# ----------------------------------------------------------------------
# Assertion helpers
# ----------------------------------------------------------------------


def assert_exact_fraction(value) -> Fraction:
    assert isinstance(value, (int, Fraction)), f"inexact value {value!r}"
    return Fraction(value)
