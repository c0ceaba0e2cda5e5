"""Columnar engine ≡ object engine ≡ reference engine, field for field.

The columnar engine (:func:`repro.simulator.runtime.run` with
``engine="columnar"``) executes the leading Phase I rounds of the
Section 3 edge-packing machine as vectorised whole-array kernels over a
:class:`~repro.simulator.state_layout.StateLayout`, then hands the
remainder to the object engine.  This suite is the contract: on
randomised instances and named families, across every metering mode and
both arithmetic modes, all three engines must produce identical
:class:`RunResult` fields — outputs, rounds, halting, exact message and
bit counts, per-round bit traces, and final states.

It also pins the engine's safety properties (read-only inbox columns,
automatic fallback whenever the kernels cannot reproduce the object
path exactly), the default ``engine="auto"`` (columnar whenever the run
qualifies, the object engine silently otherwise — also with numpy
blocked), the object engine's documented inbox-buffer-reuse trap,
degenerate topologies through every entry point, and the
``on_max_rounds="raise"`` / :class:`MaxRoundsExceeded` plumbing.
"""

from __future__ import annotations

import json
import os
import pathlib
import random
import subprocess
import sys

import pytest

import repro
from repro import obs
from repro.core.broadcast_vc import BroadcastVertexCoverMachine, bvc_round_count
from repro.core.edge_packing import (
    EdgePackingMachine,
    maximal_edge_packing,
    schedule_length,
)
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graphs import families
from repro.graphs.topology import PortNumberedGraph
from repro.graphs.weights import unit_weights
from repro.obs import EV_ENGINE_FALLBACK, EV_ENGINE_SELECTED, SPAN_PHASE
from repro.simulator.faults import FaultAdversary
from repro.simulator.machine import PORT_NUMBERING, Machine
from repro.simulator.runtime import (
    ENGINES,
    MaxRoundsExceeded,
    run,
    run_reference,
)
from repro.simulator.state_layout import HAVE_NUMPY

from helpers import assert_run_results_equal

METERING_MODES = ("none", "counts", "bits")
ARITHMETIC_MODES = ("scaled", "fraction")

needs_numpy = pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")


def assert_identical(a, b):
    """Every RunResult field, bit for bit."""
    assert_run_results_equal(a, b, label_a="columnar", label_b="object")


def random_weighted_graph(seed: int, max_n: int = 14):
    """Random instance; isolated vertices allowed on purpose."""
    rng = random.Random(f"columnar:{seed}")
    n = rng.randint(2, max_n)
    density = rng.choice([0.15, 0.3, 0.5, 0.8])
    edges = [
        (i, j)
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    g = PortNumberedGraph.from_edges(n, edges)
    W = rng.choice([1, 3, 8])
    weights = [rng.randint(1, W) for _ in range(n)]
    return g, weights, W


def ep_kwargs(g, weights, W, metering="bits"):
    return dict(
        inputs=list(weights),
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=schedule_length(g.max_degree, W),
        metering=metering,
    )


def run_three_ways(g, machine, **kwargs):
    col = run(g, machine, engine="columnar", **kwargs)
    obj = run(g, machine, engine="object", **kwargs)
    ref = run_reference(g, machine, **kwargs)
    assert_identical(col, obj)
    assert_identical(col, ref)
    return col


# ----------------------------------------------------------------------
# The differential suite: three engines, every observable field
# ----------------------------------------------------------------------


@pytest.mark.parametrize("metering", METERING_MODES)
@pytest.mark.parametrize("seed", range(8))
def test_differential_random_instances(seed, metering):
    g, weights, W = random_weighted_graph(seed)
    run_three_ways(
        g, EdgePackingMachine(), **ep_kwargs(g, weights, W, metering)
    )


_FAMILIES = [
    ("cycle", lambda: families.cycle_graph(9), 4),
    ("path", lambda: families.path_graph(7), 3),
    ("star", lambda: families.star_graph(5), 2),
    ("grid", lambda: families.grid_2d(3, 4), 3),
    ("complete", lambda: families.complete_graph(5), 5),
]


@pytest.mark.parametrize("arithmetic", ARITHMETIC_MODES)
@pytest.mark.parametrize("case", range(len(_FAMILIES)))
def test_differential_named_families(case, arithmetic):
    """Named families × both arithmetic modes.  Fraction mode cannot
    engage the kernels (the columnar run must *fall back*, silently and
    correctly); scaled mode must engage and still match."""
    _name, make, W = _FAMILIES[case]
    g = make()
    rng = random.Random(f"fam:{case}")
    weights = [rng.randint(1, W) for _ in range(g.n)]
    run_three_ways(
        g,
        EdgePackingMachine(arithmetic=arithmetic),
        **ep_kwargs(g, weights, W),
    )


@pytest.mark.parametrize("seed", range(4))
def test_differential_seeded_runtime_rng(seed):
    """A runtime seed attaches per-node RNGs; the deterministic machine
    ignores them, and both engines must thread them identically."""
    g, weights, W = random_weighted_graph(seed)
    col = run(
        g, EdgePackingMachine(), seed=seed, engine="columnar",
        **ep_kwargs(g, weights, W),
    )
    obj = run(
        g, EdgePackingMachine(), seed=seed, engine="object",
        **ep_kwargs(g, weights, W),
    )
    assert_identical(col, obj)


# ----------------------------------------------------------------------
# Engagement and fallback
# ----------------------------------------------------------------------


class _RecordingMachine(EdgePackingMachine):
    """Counts columnar kernel calls and records inbox writability.

    The mutation of ``self`` is test instrumentation only — the machine
    contract (purity) is about the simulated state, which this subclass
    leaves to the parent kernels.
    """

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self.step_calls = 0
        self.writable_flags = []

    def step_columnar(self, layout, r, inbox_vals, inbox_sent):
        self.step_calls += 1
        self.writable_flags.append(
            (bool(inbox_vals.flags.writeable), bool(inbox_sent.flags.writeable))
        )
        super().step_columnar(layout, r, inbox_vals, inbox_sent)


@needs_numpy
def test_columnar_actually_engages():
    """Canary: on a scaled-mode run the kernels must really cover all
    2Δ+1 Phase I rounds — a silent fallback would make the whole
    differential suite vacuous."""
    g = families.cycle_graph(8)
    machine = _RecordingMachine()
    run(g, machine, engine="columnar", **ep_kwargs(g, unit_weights(8), 1))
    assert machine.step_calls == 2 * g.max_degree + 1


@needs_numpy
def test_columnar_inboxes_are_read_only():
    """The columnar counterpart of the object engine's reused-buffer
    trap: kernels get read-only inbox columns, so aliasing cannot
    corrupt later rounds."""
    g = families.cycle_graph(6)
    machine = _RecordingMachine()
    run(g, machine, engine="columnar", **ep_kwargs(g, unit_weights(6), 1))
    assert machine.writable_flags  # engaged
    assert all(flags == (False, False) for flags in machine.writable_flags)


class _InboxWritingMachine(EdgePackingMachine):
    def step_columnar(self, layout, r, inbox_vals, inbox_sent):
        inbox_vals[0] = 0  # must be rejected by the runtime


@needs_numpy
def test_columnar_inbox_write_raises():
    g = families.cycle_graph(6)
    with pytest.raises(ValueError, match="read-only"):
        run(
            g, _InboxWritingMachine(), engine="columnar",
            **ep_kwargs(g, unit_weights(6), 1),
        )


def test_fraction_mode_declines_columnar_plan():
    g = families.cycle_graph(6)
    machine = _RecordingMachine(arithmetic="fraction")
    result = run(
        g, machine, engine="columnar", **ep_kwargs(g, unit_weights(6), 1)
    )
    assert machine.step_calls == 0  # fell back to the object engine
    assert result.all_halted


def test_bignum_radix_declines_columnar_plan():
    """Δ, W large enough that the colour accumulators would overflow
    int64: the machine must refuse the plan (and the object path still
    solves the instance)."""
    g = families.complete_graph(6)  # delta = 5, den = (5!)^5
    machine = _RecordingMachine()
    W = 3
    result = run(
        g, machine, engine="columnar",
        inputs=[1] * g.n,
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=schedule_length(g.max_degree, W),
        metering="bits",
    )
    assert machine.step_calls == 0
    assert result.all_halted
    # ... and the fallback run still matches the reference exactly.
    ref = run_reference(
        g, EdgePackingMachine(),
        inputs=[1] * g.n,
        globals_map={"delta": g.max_degree, "W": W},
        max_rounds=schedule_length(g.max_degree, W),
        metering="bits",
    )
    assert_identical(result, ref)


def test_broadcast_machine_falls_back():
    """engine="columnar" on a broadcast-model machine is a no-op knob."""
    g = families.path_graph(3)
    weights = [1, 1, 1]
    kwargs = dict(
        inputs=weights,
        globals_map={"delta": g.max_degree, "W": 1},
        max_rounds=bvc_round_count(g.max_degree, 1),
    )
    col = run(
        g, BroadcastVertexCoverMachine(), engine="columnar", **kwargs
    )
    obj = run(g, BroadcastVertexCoverMachine(), engine="object", **kwargs)
    assert_identical(col, obj)


def test_observer_forces_object_path():
    """An observer sees per-round outboxes, which the columnar prefix
    does not materialise — the run must take the object path and the
    observer must see every round."""
    g = families.cycle_graph(5)
    seen = []
    result = run(
        g, EdgePackingMachine(),
        observer=lambda r, states, outboxes: seen.append(r),
        engine="columnar",
        **ep_kwargs(g, unit_weights(5), 1),
    )
    assert len(seen) == result.rounds


def test_generic_machines_opt_out_by_default():
    """A machine that never heard of the columnar protocol runs
    unchanged under engine="columnar"."""

    class Plain(Machine):
        model = PORT_NUMBERING

        def start(self, ctx):
            return 0

        def emit(self, ctx, state):
            return [state] * ctx.degree

        def step(self, ctx, state, inbox):
            return state + 1

        def halted(self, ctx, state):
            return state >= 3

        def output(self, ctx, state):
            return state

    g = families.cycle_graph(4)
    assert_identical(
        run(g, Plain(), engine="columnar"), run(g, Plain(), engine="object")
    )


# ----------------------------------------------------------------------
# engine="auto" (the default): columnar when the run qualifies, else
# the object engine, silently
# ----------------------------------------------------------------------


def _traced(fn, *args, **kwargs):
    tracer = obs.Tracer("auto")
    with obs.tracing(tracer):
        value = fn(*args, **kwargs)
    return value, tracer


def _selected(tracer):
    (event,) = tracer.events(EV_ENGINE_SELECTED)
    return event["args"]["engine"]


def _auto_case():
    """A weighted Δ=3 instance whose Phase I fits the int64 grid."""
    g = families.petersen_graph()
    rng = random.Random("auto")
    weights = [rng.randint(1, 8) for _ in range(g.n)]
    return g, weights, 8


_DEFAULT_ENTRY_POINTS = {
    "run": lambda g, weights, W, **engine: run(
        g, EdgePackingMachine(), **ep_kwargs(g, weights, W), **engine
    ),
    "maximal_edge_packing": lambda g, weights, W, **engine: (
        maximal_edge_packing(g, weights, W=W, **engine).run
    ),
    "vertex_cover_2approx": lambda g, weights, W, **engine: (
        vertex_cover_2approx(g, weights, W=W, **engine).run
    ),
}


@needs_numpy
@pytest.mark.parametrize("entry", sorted(_DEFAULT_ENTRY_POINTS))
def test_default_engine_engages_columnar(entry):
    """With no ``engine=`` argument a qualifying §3 run takes the
    columnar plan for all 2Δ+1 Phase I rounds, and still equals the
    object and reference engines in every RunResult field."""
    call = _DEFAULT_ENTRY_POINTS[entry]
    g, weights, W = _auto_case()
    result, tracer = _traced(call, g, weights, W)
    assert _selected(tracer) == "columnar"
    assert not tracer.events(EV_ENGINE_FALLBACK)
    (phase,) = [e for e in tracer.events(SPAN_PHASE)
                if e["args"].get("phase") == "columnar rounds"]
    assert phase["args"]["rounds"] == 2 * g.max_degree + 1
    assert_identical(result, call(g, weights, W, engine="object"))
    assert_identical(
        result,
        run_reference(g, EdgePackingMachine(), **ep_kwargs(g, weights, W)),
    )


def _auto_declines():
    g, weights, W = _auto_case()
    kw = ep_kwargs(g, weights, W)
    empty = PortNumberedGraph.from_edges(0, [])
    return {
        "broadcast": (
            g, BroadcastVertexCoverMachine,
            dict(kw, max_rounds=bvc_round_count(g.max_degree, W)),
        ),
        "observer": (
            g, EdgePackingMachine,
            dict(kw, observer=lambda r, states, outboxes: None),
        ),
        "fault_adversary": (
            g, EdgePackingMachine, dict(kw, fault_adversary=FaultAdversary()),
        ),
        "fraction": (
            g, lambda: EdgePackingMachine(arithmetic="fraction"), kw,
        ),
        "max_rounds_below_plan": (
            g, EdgePackingMachine, dict(kw, max_rounds=2 * g.max_degree),
        ),
        "empty_graph": (
            empty, EdgePackingMachine,
            dict(ep_kwargs(empty, [], 1), globals_map={"delta": 1, "W": 1}),
        ),
    }


@pytest.mark.parametrize("case", sorted(_auto_declines()))
def test_auto_takes_object_engine_silently(case):
    """Runs the columnar plan cannot serve select the object engine
    under ``auto`` with no ``engine.fallback`` event — that event is
    reserved for an explicit ``engine="columnar"`` request."""
    g, make_machine, kw = _auto_declines()[case]
    result, tracer = _traced(run, g, make_machine(), **kw)
    assert _selected(tracer) == "object"
    assert not tracer.events(EV_ENGINE_FALLBACK)
    assert_identical(result, run(g, make_machine(), engine="object", **kw))


def test_auto_skips_subclass_overriding_per_node_hooks():
    """The kernels stand in for start/emit/step/halted during Phase I,
    so a subclass overriding one of them must keep its override."""

    class Counting(EdgePackingMachine):
        def step(self, ctx, state, inbox):
            return super().step(ctx, state, inbox)

    g, weights, W = _auto_case()
    assert Counting().columnar_fields(g, []) is None
    result, tracer = _traced(run, g, Counting(), **ep_kwargs(g, weights, W))
    assert _selected(tracer) == "object"
    assert_identical(
        result,
        run(g, EdgePackingMachine(), engine="object",
            **ep_kwargs(g, weights, W)),
    )


_NUMPY_BLOCKED = """
import json, sys
sys.modules["numpy"] = None
import repro.cli
from repro.core.vertex_cover import vertex_cover_2approx
from repro.graphs import families
from repro.simulator import state_layout

vc = vertex_cover_2approx(families.grid_2d(3, 4), json.loads(sys.argv[1]))
print(json.dumps({
    "have_numpy": state_layout.HAVE_NUMPY,
    "cover": sorted(vc.cover),
    "rounds": vc.rounds,
    "messages": vc.run.messages_sent,
    "bits": vc.run.message_bits,
}))
"""


def test_default_degrades_silently_without_numpy():
    """``import repro.cli`` and the default §3 call need no numpy; the
    auto engine then runs the object path with identical results."""
    g = families.grid_2d(3, 4)
    rng = random.Random("no-numpy")
    weights = [rng.randint(1, 5) for _ in range(g.n)]
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_BLOCKED, json.dumps(weights)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    got = json.loads(proc.stdout)
    assert got["have_numpy"] is False
    want = vertex_cover_2approx(g, weights, engine="object")
    assert got["cover"] == sorted(want.cover)
    assert got["rounds"] == want.rounds
    assert got["messages"] == want.run.messages_sent
    assert got["bits"] == want.run.message_bits


# ----------------------------------------------------------------------
# Degenerate topologies, every entry point
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine", ENGINES)
def test_empty_graph(engine):
    g = PortNumberedGraph.from_edges(0, [])
    result = vertex_cover_2approx(g, [], engine=engine)
    assert result.cover == frozenset()
    assert result.is_cover()


@pytest.mark.parametrize("engine", ENGINES)
def test_single_node(engine):
    g = PortNumberedGraph.from_edges(1, [])
    result = vertex_cover_2approx(g, [5], engine=engine)
    assert result.cover == frozenset()
    assert result.is_cover()


_ISOLATED = (
    (6, [(0, 1), (2, 3)], [2, 3, 1, 4, 7, 1]),
    # A degree-2 node right before a trailing isolated one: the last
    # non-empty CSR segment must not be cut short.
    (8, [(6, 2), (3, 6)], [2, 2, 2, 1, 1, 1, 1, 2]),
)


@pytest.mark.parametrize("metering", METERING_MODES)
def test_isolated_vertices(metering):
    """Degree-0 nodes exercise the empty-segment corner of the CSR
    reductions; all three engines must agree on them."""
    for n, edges, weights in _ISOLATED:
        g = PortNumberedGraph.from_edges(n, edges)
        W = max(weights)
        result = run_three_ways(
            g, EdgePackingMachine(), **ep_kwargs(g, weights, W, metering)
        )
        assert result.all_halted
        vc = vertex_cover_2approx(g, weights, engine="columnar")
        assert vc.is_cover()
        isolated = {v for v in g.nodes() if g.degree(v) == 0}
        assert isolated.isdisjoint(vc.cover)  # isolated nodes never enter


def test_self_loop_rejected():
    with pytest.raises(ValueError, match="self-loop"):
        PortNumberedGraph.from_edges(3, [(0, 0)])


# ----------------------------------------------------------------------
# The object engine's inbox-buffer-reuse trap (documented tripwire)
# ----------------------------------------------------------------------


class _InboxRetainer(Machine):
    """Deliberately breaks the documented contract: retains a live
    reference to its round-0 inbox next to a defensive snapshot."""

    model = PORT_NUMBERING

    def start(self, ctx):
        return {"ticks": 0, "alias": None, "snapshot": None}

    def emit(self, ctx, state):
        return [("t", state["ticks"])] * ctx.degree

    def step(self, ctx, state, inbox):
        new = dict(state)
        new["ticks"] = state["ticks"] + 1
        if state["alias"] is None:
            new["alias"] = inbox          # the trap
            new["snapshot"] = tuple(inbox)  # the documented fix
        return new

    def halted(self, ctx, state):
        return state["ticks"] >= ctx.input

    def output(self, ctx, state):
        return (tuple(state["alias"]), state["snapshot"])


def test_inbox_reuse_tripwire():
    """The fast engine reuses port-model inbox buffers across rounds —
    a machine aliasing its inbox reads *later* rounds through the
    alias.  This tripwire pins the behaviour both ways: the reference
    engine (fresh inbox per round) keeps alias == snapshot, the fast
    engine must show the trap actually exists.  If this test ever fails
    on the `run()` half, the engine stopped reusing buffers and the
    Machine.step docs must be updated."""
    g = families.cycle_graph(5)
    lifetimes = [2, 3, 4, 3, 2]  # staggered: silencing kicks in too

    ref = run_reference(g, _InboxRetainer(), inputs=lifetimes)
    assert all(alias == snap for alias, snap in ref.outputs)

    fast = run(g, _InboxRetainer(), inputs=lifetimes)
    assert any(alias != snap for alias, snap in fast.outputs)
    # The trap only affects the broken retainer's view — the actual
    # computation (rounds, metering) is unaffected.
    assert fast.rounds == ref.rounds
    assert fast.messages_sent == ref.messages_sent
    assert [snap for _, snap in fast.outputs] == [
        snap for _, snap in ref.outputs
    ]


# ----------------------------------------------------------------------
# max_rounds exhaustion: loud, with round count and node ids
# ----------------------------------------------------------------------


class _NeverHalts(Machine):
    model = PORT_NUMBERING

    def start(self, ctx):
        return 0

    def emit(self, ctx, state):
        return [None] * ctx.degree

    def step(self, ctx, state, inbox):
        return state + 1

    def halted(self, ctx, state):
        return False

    def output(self, ctx, state):
        return state


@pytest.mark.parametrize("runner", [run, run_reference])
def test_on_max_rounds_raise(runner):
    g = families.cycle_graph(4)
    with pytest.raises(MaxRoundsExceeded) as excinfo:
        runner(g, _NeverHalts(), max_rounds=7, on_max_rounds="raise")
    exc = excinfo.value
    assert exc.rounds == 7
    assert exc.non_halted == [0, 1, 2, 3]
    assert "max_rounds=7" in str(exc)
    assert "4 node(s)" in str(exc)


@pytest.mark.parametrize("runner", [run, run_reference])
def test_on_max_rounds_return_is_default(runner):
    g = families.cycle_graph(4)
    result = runner(g, _NeverHalts(), max_rounds=7)
    assert not result.all_halted
    assert result.rounds == 7


def test_invalid_knobs_rejected():
    g = families.cycle_graph(3)
    with pytest.raises(ValueError, match="engine"):
        run(g, _NeverHalts(), engine="simd")
    with pytest.raises(ValueError, match="on_max_rounds"):
        run(g, _NeverHalts(), on_max_rounds="explode")
    with pytest.raises(ValueError, match="on_max_rounds"):
        run_reference(g, _NeverHalts(), on_max_rounds="explode")


@pytest.mark.parametrize("engine", ENGINES)
def test_edge_packing_max_rounds_fails_loudly(engine):
    """A too-small budget must name the schedule's true length and the
    stuck nodes — never return a partial packing (and never the old
    'within None rounds' message)."""
    g = families.cycle_graph(6)
    weights = [1, 2, 1, 2, 1, 2]
    needed = schedule_length(g.max_degree, 2)
    with pytest.raises(MaxRoundsExceeded) as excinfo:
        maximal_edge_packing(g, weights, max_rounds=3, engine=engine)
    exc = excinfo.value
    assert exc.rounds == 3
    assert exc.non_halted  # the stuck nodes are named
    assert f"needs exactly {needed} rounds" in str(exc)
    assert "None" not in str(exc)


def test_max_rounds_truncation_still_matches():
    """A budget that truncates mid-schedule (columnar prefix cannot
    engage: plan.rounds > max_rounds) must still match the object
    engine on the partial run."""
    g = families.cycle_graph(6)
    kwargs = dict(
        inputs=unit_weights(6),
        globals_map={"delta": 2, "W": 1},
        max_rounds=3,  # < 2Δ+1 = 5
        metering="bits",
    )
    col = run(g, EdgePackingMachine(), engine="columnar", **kwargs)
    obj = run(g, EdgePackingMachine(), engine="object", **kwargs)
    ref = run_reference(g, EdgePackingMachine(), **kwargs)
    assert_identical(col, obj)
    assert_identical(col, ref)
    assert not col.all_halted
