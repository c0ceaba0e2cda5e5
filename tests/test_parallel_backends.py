"""Contracts for the process-parallel execution backend.

Two promises make ``backend="process"`` safe to flip on anywhere:

* **picklability** — every shipped machine class, the graph types and
  :class:`RunResult` round-trip through :mod:`pickle` unchanged (the
  process pool's transport);
* **determinism** — a sweep executed on the process backend returns
  results field-for-field identical to the serial (and thread) run.

These are the tests the CI docs/backends job runs explicitly; they are
also part of tier-1.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import subprocess
import sys

import pytest

import repro
from repro._util.parallel import (
    BACKENDS,
    FailureReport,
    JobResults,
    map_jobs,
    resolve_backend,
)
from repro.baselines.edge_colouring import EdgeColouringPackingMachine
from repro.baselines.kvy import KVYMachine
from repro.baselines.matching import (
    IdMaximalMatchingMachine,
    RandomisedMatchingMachine,
)
from repro.baselines.ps3approx import PolishchukSuomelaMachine
from repro.baselines.trivial import TrivialSetCoverMachine
from repro.core.broadcast_vc import BroadcastVertexCoverMachine
from repro.core.edge_packing import EdgePackingMachine, edge_packing_job
from repro.core.fractional_packing import FractionalPackingMachine
from repro.core.vertex_cover import broadcast_vc_job
from repro.graphs import families
from repro.graphs.setcover import random_instance, vc_to_setcover
from repro.graphs.weights import unit_weights
from repro.selfstab.transformer import SelfStabilisingMachine
from repro.simulator.faults import MessageLoss, RandomCrashes
from repro.simulator.runtime import run, run_many, sweep


def roundtrip(obj):
    return pickle.loads(pickle.dumps(obj))


MACHINE_FACTORIES = [
    EdgePackingMachine,
    lambda: EdgePackingMachine(arithmetic="fraction"),
    FractionalPackingMachine,
    BroadcastVertexCoverMachine,
    PolishchukSuomelaMachine,
    IdMaximalMatchingMachine,
    RandomisedMatchingMachine,
    EdgeColouringPackingMachine,
    KVYMachine,
    TrivialSetCoverMachine,
    lambda: SelfStabilisingMachine(EdgePackingMachine(), 10),
]


class TestPicklability:
    @pytest.mark.parametrize(
        "factory", MACHINE_FACTORIES, ids=lambda f: getattr(f, "__name__", "param")
    )
    def test_every_machine_roundtrips(self, factory):
        machine = factory()
        clone = roundtrip(machine)
        assert type(clone) is type(machine)
        assert clone.model == machine.model

    def test_machine_roundtrips_with_warm_caches(self):
        """Pickling a machine *after* a run (memos populated) works and
        the clone still computes the identical result."""
        g = families.cycle_graph(8)
        job = edge_packing_job(g, unit_weights(8))
        machine = job["machine"]
        job.pop("machine")
        before = run(machine=machine, **job)
        clone = roundtrip(machine)
        after = run(machine=clone, **job)
        assert before == after

    def test_graph_roundtrips_with_csr_built(self):
        g = families.random_regular(3, 24, seed=0)
        g.csr()  # warm the lazy CSR cache
        clone = roundtrip(g)
        assert clone.n == g.n
        assert clone.csr() == g.csr()
        assert [clone.degree(v) for v in clone.nodes()] == [
            g.degree(v) for v in g.nodes()
        ]

    def test_setcover_instance_roundtrips(self):
        inst = random_instance(5, 8, k=3, f=2, W=4, seed=0)
        clone = roundtrip(inst)
        assert clone.global_params() == inst.global_params()
        assert clone.node_inputs() == inst.node_inputs()

    @pytest.mark.parametrize("metering", ["none", "counts", "bits"])
    def test_run_result_roundtrips_field_for_field(self, metering):
        g = families.cycle_graph(10)
        res = run(**edge_packing_job(g, unit_weights(10), metering=metering))
        clone = roundtrip(res)
        assert clone == res  # dataclass eq covers every field
        assert clone.per_round_bits == res.per_round_bits
        assert clone.states == res.states

    def test_broadcast_run_result_roundtrips(self):
        g = families.path_graph(4)
        res = run(**broadcast_vc_job(g, [1, 3, 2, 1]))
        assert roundtrip(res) == res


def _double(x):  # module-level: picklable for the process backend
    return 2 * x


def _noop_observer(rounds, states, outboxes):  # module-level: picklable
    pass


class _StatefulAdversary:
    """Picklable adversary whose state the caller might read post-run."""

    corruptions = 0

    def is_active(self, rounds):
        return False

    def corrupt(self, rounds, graph, states):
        return states


class TestMapJobs:
    def test_serial_short_circuit(self):
        assert map_jobs(_double, [1, 2, 3], None) == [2, 4, 6]
        assert map_jobs(_double, [1, 2, 3], 0) == [2, 4, 6]
        assert map_jobs(_double, [1, 2, 3], 1) == [2, 4, 6]

    @pytest.mark.parametrize("backend", [None, "thread", "process", "auto"])
    def test_order_preserved_on_every_backend(self, backend):
        jobs = list(range(23))  # odd size: exercises uneven chunking
        assert map_jobs(_double, jobs, 3, backend=backend) == [
            2 * j for j in jobs
        ]

    def test_explicit_chunksize(self):
        jobs = list(range(10))
        assert map_jobs(_double, jobs, 2, backend="process", chunksize=4) == [
            2 * j for j in jobs
        ]

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            map_jobs(_double, [1, 2], 2, backend="greenlet")

    def test_auto_falls_back_to_thread_for_closures(self):
        marker = object()  # unpicklable free variable
        fn = lambda x: (x, marker)[0]  # noqa: E731
        assert resolve_backend("auto", fn, [1]) == "thread"
        assert map_jobs(fn, [1, 2, 3], 2, backend="auto") == [1, 2, 3]

    def test_auto_picks_process_for_picklable(self):
        assert resolve_backend("auto", _double, [1]) == "process"

    def test_none_keeps_thread_compat(self):
        assert resolve_backend(None, _double, [1]) == "thread"


class TestProcessBackendEquivalence:
    """backend="process" results equal the serial results field-for-field."""

    def test_sweep_mixed_instances(self):
        g1 = families.cycle_graph(12)
        g2 = families.path_graph(9)
        sc = random_instance(5, 8, k=3, f=2, W=4, seed=2)
        jobs = [
            edge_packing_job(g1, unit_weights(12)),
            edge_packing_job(g2, [2, 1, 3, 1, 2, 1, 3, 1, 2]),
            broadcast_vc_job(families.star_graph(3), [4, 1, 1, 1]),
            {
                "graph": vc_to_setcover(g1, unit_weights(12)).to_bipartite_graph(),
                "machine": FractionalPackingMachine(),
                "inputs": vc_to_setcover(g1, unit_weights(12)).node_inputs(),
                "globals_map": vc_to_setcover(g1, unit_weights(12)).global_params(),
            },
        ]
        serial = sweep(jobs)
        pooled = sweep(jobs, n_workers=2, backend="process")
        assert len(serial) == len(pooled)
        for a, b in zip(serial, pooled):
            assert a == b  # RunResult dataclass: every field compared

    def test_sweep_setcover_instance_routing(self):
        insts = [random_instance(4, 6, k=2, f=2, W=3, seed=s) for s in range(3)]
        serial = sweep(insts, FractionalPackingMachine())
        pooled = sweep(
            insts, FractionalPackingMachine(), n_workers=2, backend="process"
        )
        assert serial == pooled

    def test_run_many_seeded(self):
        g = families.random_regular(3, 12, seed=0)
        kwargs = dict(
            inputs=unit_weights(12), globals_map={"delta": 3, "W": 1}
        )
        serial = run_many(g, EdgePackingMachine(), seeds=[1, 2, 3, 4], **kwargs)
        pooled = run_many(
            g, EdgePackingMachine(), seeds=[1, 2, 3, 4],
            n_workers=2, backend="process", **kwargs,
        )
        assert serial == pooled

    def test_thread_and_process_agree(self):
        jobs = [
            edge_packing_job(families.cycle_graph(n), unit_weights(n))
            for n in (8, 12, 16, 20)
        ]
        threaded = sweep(jobs, n_workers=2, backend="thread")
        pooled = sweep(jobs, n_workers=2, backend="process")
        assert threaded == pooled

    def test_observer_rejected_on_process_backend(self):
        g = families.cycle_graph(6)
        with pytest.raises(ValueError, match="observer"):
            sweep(
                [edge_packing_job(g, unit_weights(6))],
                n_workers=2,
                backend="process",
                observer=lambda r, s, o: None,
            )

    def test_observer_in_mapping_instance_rejected(self):
        # per-instance mappings merge into run() kwargs in the worker,
        # so they must not smuggle process-unsafe options past the guard
        g = families.cycle_graph(6)
        job = edge_packing_job(g, unit_weights(6))
        job["observer"] = _noop_observer  # picklable: would slip through
        with pytest.raises(ValueError, match="observer"):
            sweep([job], n_workers=2, backend="process")

    def test_fault_adversary_rejected_on_process_backend(self):
        # adversaries may accumulate state (corruption logs) the caller
        # reads after the run; that state would stay in the child
        g = families.cycle_graph(6)
        with pytest.raises(ValueError, match="fault_adversary"):
            run_many(
                g, EdgePackingMachine(), seeds=[1, 2],
                inputs=unit_weights(6), globals_map={"delta": 2, "W": 1},
                n_workers=2, backend="process",
                fault_adversary=_StatefulAdversary(),
            )

    def test_backends_tuple_is_public_contract(self):
        # the CLIs build their --backend choices from this
        assert BACKENDS == ("thread", "process", "auto")

    def test_process_safe_adversary_accepted_on_process_backend(self):
        # the seeded message-fault adversaries declare process_safe:
        # their schedule is a pure hash of the seed, so nothing the run
        # outcome depends on stays behind in the worker
        g = families.cycle_graph(8)
        T = 10
        kwargs = dict(
            inputs=unit_weights(8), globals_map={"delta": 2, "W": 1},
            max_rounds=4 + T,
        )
        machine = SelfStabilisingMachine(EdgePackingMachine(), T)
        serial = run_many(
            g, machine, seeds=[1, 2, 3],
            fault_adversary=MessageLoss(4, rate=0.3, seed=7), **kwargs,
        )
        pooled = run_many(
            g, machine, seeds=[1, 2, 3],
            fault_adversary=MessageLoss(4, rate=0.3, seed=7),
            n_workers=2, backend="process", **kwargs,
        )
        assert serial == pooled

    def test_results_carry_failure_report(self):
        jobs = [
            edge_packing_job(families.cycle_graph(n), unit_weights(n))
            for n in (8, 10, 12)
        ]
        pooled = sweep(jobs, n_workers=2, backend="process")
        assert isinstance(pooled, JobResults)
        assert isinstance(pooled.failure_report, FailureReport)
        assert pooled.failure_report.clean


def _fault_schedule_run(seed):
    """Per-seed job building its adversary *inside* the job: determinism
    across backends then hinges purely on the hash schedule."""
    g = families.cycle_graph(10)
    T = 12
    job = edge_packing_job(g, unit_weights(10))
    job["machine"] = SelfStabilisingMachine(EdgePackingMachine(), T)
    job["max_rounds"] = 5 + T
    from repro.simulator.faults import ComposedAdversary

    adversary = ComposedAdversary(
        MessageLoss(5, rate=0.3, seed=seed),
        RandomCrashes(5, rate=0.1, seed=seed),
    )
    return run(fault_adversary=adversary, **job)


class TestFaultScheduleDeterminism:
    """Same seed ⇒ identical fault schedule on every backend."""

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_backends_agree_under_faults(self, backend):
        seeds = [1, 2, 3, 4]
        serial = map_jobs(_fault_schedule_run, seeds, None)
        pooled = map_jobs(_fault_schedule_run, seeds, 2, backend=backend)
        assert serial == pooled  # RunResult dataclass: every field


class TestJobResultsReportPlumbing:
    """The failure report must survive every list operation that
    returns a new object — list subclasses silently drop attributes on
    slicing, concatenation, copying and pickling by default, and the
    report is exactly what the chaos tests and monitoring read."""

    def _jr(self):
        report = FailureReport(backend="process", pool_restarts=2)
        return JobResults([10, 20, 30], report), report

    def test_pickle_roundtrip_keeps_report(self):
        jr, report = self._jr()
        back = roundtrip(jr)
        assert isinstance(back, JobResults)
        assert back == [10, 20, 30]
        assert back.failure_report == report

    def test_copy_keeps_report(self):
        import copy

        jr, report = self._jr()
        dup = copy.copy(jr)
        assert isinstance(dup, JobResults)
        assert dup == jr and dup is not jr
        assert dup.failure_report == report

    def test_slice_keeps_report(self):
        jr, report = self._jr()
        tail = jr[1:]
        assert isinstance(tail, JobResults)
        assert tail == [20, 30]
        assert tail.failure_report == report
        assert jr[0] == 10  # scalar indexing unchanged

    def test_concat_keeps_report(self):
        jr, report = self._jr()
        for combined in (jr + [40], [0] + jr):
            assert isinstance(combined, JobResults)
            assert combined.failure_report == report
        with pytest.raises(TypeError):
            jr + 1  # non-list operands still rejected

    def test_plain_list_equality_intact(self):
        jr, _ = self._jr()
        assert jr == [10, 20, 30]
        assert [10, 20, 30] == jr
        assert jr != [10, 20]

    def test_default_report_is_unknown_backend(self):
        jr = JobResults([1])
        assert jr.failure_report.backend == "unknown"
        assert jr.failure_report.clean


_POOLS_THEN_EXIT = """
from repro.core.edge_packing import edge_packing_job
from repro.dynamic import DynamicRun, RandomChurn, ServingHost
from repro.graphs import families
from repro.graphs.weights import unit_weights
from repro.simulator.runtime import sweep

jobs = [edge_packing_job(families.cycle_graph(n), unit_weights(n))
        for n in (16, 24)]
results = sweep(jobs, n_workers=2, backend="process")
assert all(r.all_halted for r in results)

host = ServingHost(workers=1)
graph = families.cycle_graph(16)
session = DynamicRun.vertex_cover(graph, [1] * graph.n, delta=4)
host.open_session("s", session)
stream = RandomChurn(edits_per_batch=2, seed=3, max_degree=4)
host.apply("s", stream.next_batch(session.graph, session.inputs))
host.close("s")
host.shutdown()
# No explicit pool teardown: the warm process and serve pools are left
# for the atexit shutdown_pools hook.
"""


def test_warm_pools_exit_cleanly_at_interpreter_exit():
    """A process that leaves warm process and serve pools behind exits
    with status 0 and nothing on stderr (no atexit traceback)."""
    src = str(pathlib.Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _POOLS_THEN_EXIT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stderr == ""
