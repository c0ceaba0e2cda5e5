"""The benchmark's three workloads: inputs, timed operations, oracles.

Each workload is built from a seed and exposes the same protocol:

* ``setup()`` — everything before the first timed operation: input
  generation, a small warm-up solve of the same shape and, for
  ``churn_serve``, session creation and ``ServingHost.open``;
* ``op(i)`` — one timed operation (a public solve call, or one
  ``ServingHost.apply``), returning its latency in seconds and the
  oracle's complaints about its result;
* ``finish()`` — end-of-run checks (the served sessions' final
  states), returning complaints;
* ``close()`` — stop every worker process and wait for it;
* ``traced_pass(tracer)`` — one pass over the workload's layers under
  the benchmark's own spans, returning per-layer metrics.

The workloads call public functions of ``repro.graphs``,
``repro.core``, ``repro.simulator.runtime``, ``repro.dynamic``,
``repro.analysis`` and ``repro.obs``.  Teardown also calls
``repro._util.parallel.retire_serve_pools``: the public API leaves the
warm serving pool running until the interpreter exits.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.analysis.verify import (
    check_edge_packing,
    check_fractional_packing,
    check_set_cover,
)
from repro.core.edge_packing import (
    edge_packing_from_run,
    edge_packing_job,
    schedule_length,
)
from repro.core.fractional_packing import (
    FractionalPackingMachine,
    fp_schedule_length,
)
from repro.core.set_cover import set_cover_f_approx
from repro.core.vertex_cover import vertex_cover_2approx
from repro.dynamic import (
    DynamicRun,
    GraphEdit,
    MutableTopology,
    RandomChurn,
    ServingHost,
    add_edge,
    remove_edge,
    reweight,
)
from repro.graphs import families, setcover
from repro.graphs.weights import uniform_weights
from repro.simulator import runtime

import measure

clock = time.perf_counter

#: Instance sizes.  ``full`` is what the benchmark measures; ``tiny``
#: exists for the smoke test of the benchmark itself.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "vc_n": 2000,
        "sc_subsets": 50,
        "sc_elements": 100,
        "churn_n": 1024,
        "churn_sessions": 4,
        "churn_forward": 24,
        "churn_traced": 24,
        "traced_reps": 3,
    },
    "tiny": {
        "vc_n": 64,
        "sc_subsets": 8,
        "sc_elements": 16,
        "churn_n": 32,
        "churn_sessions": 2,
        "churn_forward": 3,
        "churn_traced": 3,
        "traced_reps": 1,
    },
}

Problems = List[str]
Layers = Dict[str, float]


@dataclass
class Timed:
    """One call timed on the benchmark clock, with its span bounds."""

    value: Any
    seconds: float
    start_us: float = 0.0
    end_us: float = 0.0


def timed(tracer: Optional[obs.Tracer], name: str,
          fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Timed:
    """Call ``fn``; record a span ``name`` around it when tracing."""
    if tracer is None:
        t0 = clock()
        value = fn(*args, **kwargs)
        return Timed(value, clock() - t0)
    start_us = tracer.now()
    t0 = clock()
    value = fn(*args, **kwargs)
    seconds = clock() - t0
    tracer.complete(name, start_us)
    return Timed(value, seconds, start_us, tracer.now())


def untraced(tracer: obs.Tracer, fn: Callable[..., Any], *args: Any,
             **kwargs: Any) -> Timed:
    """Call ``fn`` with the program's tracing off, under a bench span."""
    start_us = tracer.now()
    with obs.tracing(None):
        t = timed(None, "", fn, *args, **kwargs)
    tracer.complete("bench.untraced", start_us)
    return t


def run_layer(tracer: obs.Tracer, call: Timed) -> Tuple[float, float]:
    """(round-span seconds, unspanned share) of one traced runtime call.

    Sums the program's own round and phase spans inside the program's
    ``run`` span that lies within the benchmark span ``call``.
    """
    events = measure.spans(tracer)
    runs = measure.within(events, call.start_us, call.end_us, (obs.SPAN_RUN,))
    if not runs:
        return 0.0, 1.0
    run_span = runs[-1]
    start, end = run_span["ts"], run_span["ts"] + run_span["dur"]
    inner = measure.within(events, start, end, (obs.SPAN_ROUND, obs.SPAN_PHASE))
    covered = measure.covered_us((e["ts"], e["ts"] + e["dur"]) for e in inner)
    return covered / 1e6, 1.0 - covered / run_span["dur"] if run_span["dur"] else 1.0


def runtime_layers(tracer: obs.Tracer, n: int, reps: int,
                   call: Callable[[str], runtime.RunResult]
                   ) -> Tuple[Layers, runtime.RunResult]:
    """The ``simulator.runtime.*`` metrics of one workload's job.

    ``call(metering)`` runs the job once; it is timed ``reps`` times
    with the library's default metering and ``reps`` times without.
    """
    metered, bare, spanned, unspanned = [], [], [], []
    for _ in range(reps):
        t = timed(tracer, "simulator.runtime.run", call, runtime.Metering.BITS)
        metered.append(t.seconds)
        s, u = run_layer(tracer, t)
        spanned.append(s)
        unspanned.append(u)
        bare.append(timed(tracer, "simulator.runtime.run_nometer", call,
                          runtime.Metering.NONE).seconds)
    result = t.value
    run_s = statistics.median(metered)
    layers = {
        "simulator.runtime.run_s": run_s,
        "simulator.runtime.run_nometer_s": statistics.median(bare),
        "simulator.runtime.node_rounds_per_s": n * result.rounds / run_s,
        "simulator.runtime.rounds": result.rounds,
        "simulator.runtime.messages": result.messages_sent,
        "simulator.runtime.message_bits": result.message_bits,
        "simulator.runtime.round_span_s": statistics.median(spanned),
        "simulator.runtime.unspanned_frac": statistics.median(unspanned),
        "simulator.runtime.columnar_rounds": columnar_rounds(tracer, t),
    }
    return layers, result


def columnar_rounds(tracer: obs.Tracer, call: Timed) -> int:
    """Rounds of one traced call that ran on the columnar engine.

    Read from the program's ``engine.selected`` event and the columnar
    ``phase`` span, which covers the leading rounds the columnar plan
    ran before handing over to the object engine.
    """
    chosen = [e for e in tracer.events(obs.EV_ENGINE_SELECTED)
              if call.start_us <= e["ts"] <= call.end_us]
    if not chosen or chosen[-1]["args"].get("engine") != "columnar":
        return 0
    phases = measure.within(measure.spans(tracer), call.start_us,
                            call.end_us, (obs.SPAN_PHASE,))
    return sum(int(e["args"].get("rounds", 0)) for e in phases
               if e["args"].get("phase") == "columnar rounds")


def overhead_frac(traced_s: Sequence[float], plain_s: Sequence[float]) -> float:
    """(traced − untraced) / untraced over paired operations."""
    return (sum(traced_s) - sum(plain_s)) / sum(plain_s)


def counts_of(result: runtime.RunResult, n: int) -> Dict[str, int]:
    """The exact work counts recorded with every result."""
    return {
        "n": n,
        "rounds": result.rounds,
        "messages": result.messages_sent,
        "message_bits": result.message_bits,
    }


# ----------------------------------------------------------------------
# Static workloads: repeated public solves of one instance
# ----------------------------------------------------------------------


class StaticWorkload:
    """Repeated public solve calls on one seeded instance."""

    name = ""
    warm_size: Any = None

    def __init__(self, seed: int, size: Dict[str, int]):
        self.seed = seed
        self.size = size
        self.instance: Any = None
        self.counts: Dict[str, int] = {}

    # Subclass hooks ----------------------------------------------------

    def build(self, size: Any) -> Any:
        raise NotImplementedError

    def full_size(self) -> Any:
        raise NotImplementedError

    def solve(self, instance: Any) -> Any:
        raise NotImplementedError

    def check(self, instance: Any, result: Any) -> Problems:
        raise NotImplementedError

    def result_counts(self, instance: Any, result: Any) -> Dict[str, int]:
        raise NotImplementedError

    # Protocol ----------------------------------------------------------

    def setup(self) -> None:
        self.instance = self.build(self.full_size())
        warm = self.build(self.warm_size)
        problems = self.check(warm, self.solve(warm))
        if problems:
            raise RuntimeError(f"warm-up solve failed its oracle: {problems}")

    def op(self, i: int) -> Tuple[float, Problems]:
        t0 = clock()
        result = self.solve(self.instance)
        latency = clock() - t0
        problems = self.check(self.instance, result)
        counts = self.result_counts(self.instance, result)
        if not self.counts:
            self.counts = counts
        elif counts != self.counts:
            problems.append(f"work counts {counts} differ from {self.counts}")
        return latency, problems

    def finish(self) -> Problems:
        return []

    def close(self) -> None:
        pass

    def traced_solves(self, tracer: obs.Tracer, instance: Any, reps: int,
                      span: str) -> Tuple[List[Timed], List[float], Problems]:
        """``reps`` traced solves, each paired with an untraced one."""
        traced, plain, problems = [], [], []
        for _ in range(reps):
            plain.append(untraced(tracer, self.solve, instance).seconds)
            t = timed(tracer, span, self.solve, instance)
            traced.append(t)
            problems += timed(tracer, "bench.oracle", self.check, instance,
                              t.value).value
        return traced, plain, problems


class VertexCoverPort(StaticWorkload):
    """§3: ``vertex_cover_2approx`` on a random 3-regular graph, W=8."""

    name = "vc_port"
    DELTA = 3
    W = 8
    warm_size = 64

    def full_size(self) -> int:
        return self.size["vc_n"]

    def build(self, n: int) -> Tuple[Any, List[int]]:
        graph = families.random_regular(self.DELTA, n, seed=self.seed)
        return graph, uniform_weights(n, self.W, seed=self.seed)

    def solve(self, instance: Any) -> Any:
        graph, weights = instance
        return vertex_cover_2approx(graph, weights, W=self.W)

    def check(self, instance: Any, result: Any) -> Problems:
        graph, weights = instance
        problems: Problems = []
        packing = edge_packing_from_run(graph, weights, result.run)
        verdict = check_edge_packing(graph, weights, packing.y)
        if not verdict.ok:
            problems.append("edge packing: " + "; ".join(verdict.violations[:3]))
        if packing.saturated != result.cover:
            problems.append("cover differs from the saturated nodes")
        if not result.is_cover():
            problems.append("result is not a vertex cover")
        if result.certificate_ratio > 1:
            problems.append(f"certificate ratio {result.certificate_ratio} > 1")
        expected = schedule_length(self.DELTA, self.W)
        if result.rounds != expected:
            problems.append(f"{result.rounds} rounds, schedule has {expected}")
        return problems

    def result_counts(self, instance: Any, result: Any) -> Dict[str, int]:
        return counts_of(result.run, instance[0].n)

    def traced_pass(self, tracer: obs.Tracer) -> Tuple[Layers, int, Problems]:
        reps = self.size["traced_reps"]
        build = timed(tracer, "graphs.build", self.build, self.full_size())
        graph, weights = instance = build.value
        timed(tracer, "bench.warmup", self.solve, self.build(self.warm_size))
        solves, plain, problems = self.traced_solves(
            tracer, instance, reps, "core.vertex_cover.solve")
        layers: Layers = {"graphs.build_s": build.seconds}

        def job(metering: str) -> runtime.RunResult:
            return runtime.run(
                **edge_packing_job(graph, weights, W=self.W, metering=metering))

        run_layers, result = runtime_layers(tracer, graph.n, reps, job)
        layers.update(run_layers)
        layers["core.edge_packing.assemble_s"] = statistics.median([
            timed(tracer, "core.edge_packing.assemble", edge_packing_from_run,
                  graph, weights, result).seconds
            for _ in range(reps)
        ])
        layers["obs.trace_overhead_frac"] = overhead_frac(
            [t.seconds for t in solves], plain)
        return layers, len(solves), problems


class SetCoverBroadcast(StaticWorkload):
    """§4: ``set_cover_f_approx`` on a random k=3, f=2, W=8 instance."""

    name = "sc_broadcast"
    K = 3
    F = 2
    W = 8
    warm_size = (10, 20)

    def full_size(self) -> Tuple[int, int]:
        return self.size["sc_subsets"], self.size["sc_elements"]

    def build(self, size: Tuple[int, int]) -> setcover.SetCoverInstance:
        subsets, elements = size
        return setcover.random_instance(
            subsets, elements, k=self.K, f=self.F, W=self.W, seed=self.seed)

    def solve(self, instance: setcover.SetCoverInstance) -> Any:
        return set_cover_f_approx(instance)

    def check(self, instance: setcover.SetCoverInstance, result: Any) -> Problems:
        problems: Problems = []
        verdict = check_fractional_packing(instance, result.y)
        if not verdict.ok:
            problems.append("fractional packing: "
                            + "; ".join(verdict.violations[:3]))
        covered, uncovered = check_set_cover(instance, result.cover)
        if not covered:
            problems.append(f"elements {uncovered[:5]} are not covered")
        if result.cover_weight > instance.f * result.packing_value:
            problems.append(
                f"cover weight {result.cover_weight} exceeds "
                f"f x packing value {instance.f * result.packing_value}")
        expected = fp_schedule_length(instance.f, instance.k, instance.W)
        if result.rounds != expected:
            problems.append(f"{result.rounds} rounds, schedule has {expected}")
        return problems

    def result_counts(self, instance: Any, result: Any) -> Dict[str, int]:
        return counts_of(result.run, instance.n_subsets + instance.n_elements)

    def traced_pass(self, tracer: obs.Tracer) -> Tuple[Layers, int, Problems]:
        reps = self.size["traced_reps"]
        build = timed(tracer, "graphs.build", self.build, self.full_size())
        instance = build.value
        timed(tracer, "bench.warmup", self.solve, self.build(self.warm_size))
        bipartite = [timed(tracer, "graphs.bipartite",
                           instance.to_bipartite_graph) for _ in range(reps)]
        graph = bipartite[-1].value
        bipartite_s = statistics.median([t.seconds for t in bipartite])
        solves, plain, problems = self.traced_solves(
            tracer, instance, reps, "core.set_cover.solve")
        # Solve time not spent inside runtime.run nor rebuilding the
        # bipartite graph: schedule lookups and packing assembly.
        events = measure.spans(tracer)
        assemble = []
        for t in solves:
            runs = measure.within(events, t.start_us, t.end_us, (obs.SPAN_RUN,))
            run_s = sum(e["dur"] for e in runs) / 1e6
            assemble.append(t.seconds - run_s - bipartite_s)
        layers: Layers = {
            "graphs.build_s": build.seconds,
            "graphs.bipartite_s": bipartite_s,
            "core.fractional_packing.assemble_s": statistics.median(assemble),
        }
        max_rounds = fp_schedule_length(instance.f, instance.k, instance.W)

        def job(metering: str) -> runtime.RunResult:
            return runtime.run(
                graph, FractionalPackingMachine(),
                inputs=instance.node_inputs(),
                globals_map=instance.global_params(),
                max_rounds=max_rounds, metering=metering)

        run_layers, _ = runtime_layers(tracer, graph.n, reps, job)
        layers.update(run_layers)
        layers["obs.trace_overhead_frac"] = overhead_frac(
            [t.seconds for t in solves], plain)
        return layers, len(solves), problems


# ----------------------------------------------------------------------
# churn_serve: a closed loop of scripted batches against a ServingHost
# ----------------------------------------------------------------------


def inverse(batch: Sequence[GraphEdit], inputs: Sequence[Any]) -> List[GraphEdit]:
    """The batch that undoes ``batch`` when applied right after it."""
    current: Dict[int, Any] = {}
    undo: List[GraphEdit] = []
    for edit in batch:
        if edit.kind == "add_edge":
            undo.append(remove_edge(edit.u, edit.v))
        elif edit.kind == "remove_edge":
            undo.append(add_edge(edit.u, edit.v))
        elif edit.kind == "reweight":
            undo.append(reweight(edit.v, current.get(edit.v, inputs[edit.v])))
            current[edit.v] = edit.input
        else:
            raise ValueError(f"cannot invert a {edit.kind} edit")
    return undo[::-1]


class ChurnServe:
    """Closed loop, one client: scripted churn batches to a ServingHost.

    Sessions are §3 vertex-cover sessions on a weighted cycle, with Δ
    and W pinned to the cycle's (the library default).  Each session's
    stream is ``forward`` RandomChurn batches followed by their undo
    batches in reverse order, so it returns to the initial instance and
    repeats: the batch mix stays the same however many batches a run
    gets through.
    """

    name = "churn_serve"
    DELTA = 2
    W = 4
    EDITS = 2
    WORKERS = 1

    def __init__(self, seed: int, size: Dict[str, int]):
        self.seed = seed
        self.size = size
        self.n = size["churn_n"]
        self.n_sessions = size["churn_sessions"]
        self.host: Optional[ServingHost] = None
        self.sessions: List[Dict[str, Any]] = []
        self.counts = {"batches": 0, "repaired_nodes": 0, "cone_node_rounds": 0}

    def session_seed(self, s: int) -> int:
        return self.seed * 1000 + s

    def instance(self, s: int, n: int) -> Tuple[Any, List[int]]:
        graph = families.cycle_graph(n)
        return graph, uniform_weights(n, self.W, seed=self.session_seed(s))

    def script(self, graph: Any, weights: Sequence[int], s: int,
               forward: int) -> List[List[GraphEdit]]:
        """One period of session ``s``'s stream, scripted on a mirror."""
        mirror = MutableTopology.from_graph(graph)
        inputs = list(weights)
        stream = RandomChurn(self.EDITS, seed=self.session_seed(s), W=self.W,
                             max_degree=self.DELTA)
        batches, undos = [], []
        for _ in range(forward):
            batch = stream.next_batch(mirror.materialise(), inputs)
            undos.append(inverse(batch, inputs))
            mirror.apply_batch(batch, inputs)
            batches.append(batch)
        return batches + undos[::-1]

    def new_session(self, graph: Any, weights: Sequence[int]) -> DynamicRun:
        return DynamicRun.vertex_cover(graph, weights, delta=self.DELTA, W=self.W)

    def warm_up(self, host: Optional[ServingHost]) -> None:
        """A small session of the same shape, through the host if given."""
        graph, weights = self.instance(0, 16)
        batch = self.script(graph, weights, 0, 1)[0]
        session = self.new_session(graph, weights)
        if host is None:
            session.apply(batch)
            return
        host.open("warm-up", session.snapshot())
        host.apply("warm-up", batch)
        host.close("warm-up")

    # Protocol ----------------------------------------------------------

    def setup(self) -> None:
        self.host = ServingHost(workers=self.WORKERS)
        self.warm_up(self.host)
        for s in range(self.n_sessions):
            graph, weights = self.instance(s, self.n)
            period = self.script(graph, weights, s, self.size["churn_forward"])
            sid = f"session-{s}"
            self.host.open(sid, self.new_session(graph, weights).snapshot())
            self.sessions.append({"sid": sid, "graph": graph, "weights": weights,
                                  "period": period, "committed": []})

    def op(self, i: int) -> Tuple[float, Problems]:
        session = self.sessions[i % self.n_sessions]
        period = session["period"]
        k = i // self.n_sessions
        t0 = clock()
        stats = self.host.apply(session["sid"], period[k % len(period)])
        latency = clock() - t0
        session["committed"].append(k)
        self.counts["batches"] += 1
        self.counts["repaired_nodes"] += stats.repaired_nodes
        self.counts["cone_node_rounds"] += stats.cone_node_rounds
        return latency, []

    def final_instance(self, session: Dict[str, Any]) -> Tuple[Any, List[Any]]:
        """Replay the committed batches on a mirror of the initial instance."""
        mirror = MutableTopology.from_graph(session["graph"])
        inputs = list(session["weights"])
        period = session["period"]
        for k in session["committed"]:
            mirror.apply_batch(period[k % len(period)], inputs)
        return mirror.materialise(), inputs

    def oracle(self, served: DynamicRun, graph: Any, inputs: List[Any]) -> Problems:
        """The served state is a cover equal to a static §3 solve."""
        problems: Problems = []
        if not served.is_cover():
            problems.append("served state is not a vertex cover")
        if served.certificate_ratio() > 1:
            problems.append(f"certificate ratio {served.certificate_ratio()} > 1")
        if served.graph.edges != graph.edges or served.inputs != inputs:
            problems.append("served instance differs from the scripted one")
            return problems
        static = vertex_cover_2approx(graph, inputs, delta=self.DELTA, W=self.W)
        if served.cover() != static.cover:
            problems.append("served cover differs from a static solve")
        return problems

    def finish(self) -> Problems:
        self.counts["checkpoints"] = (
            self.host.report().counters[obs.CTR_SERVING_CHECKPOINTS])
        problems: Problems = []
        for session in self.sessions:
            served = DynamicRun.restore(self.host.close(session["sid"]))
            graph, inputs = self.final_instance(session)
            problems += [f"{session['sid']}: {p}"
                         for p in self.oracle(served, graph, inputs)]
        return problems

    def close(self) -> None:
        if self.host is not None:
            self.host.shutdown()
            self.host = None
        stop_workers()

    def traced_pass(self, tracer: obs.Tracer) -> Tuple[Layers, int, Problems]:
        batches = self.size["churn_traced"]
        build = timed(tracer, "graphs.build", lambda: [
            self.instance(s, self.n) for s in range(self.n_sessions)])
        periods = [
            timed(tracer, "bench.script", self.script, graph, weights, s,
                  self.size["churn_forward"]).value
            for s, (graph, weights) in enumerate(build.value)
        ]
        timed(tracer, "bench.warmup", self.warm_up, None)
        host = ServingHost(workers=self.WORKERS)
        create, snap, restore, opened, blobs, local = [], [], [], [], [], []
        for s, (graph, weights) in enumerate(build.value):
            c = timed(tracer, "dynamic.session.create", self.new_session,
                      graph, weights)
            b = timed(tracer, "dynamic.session.snapshot", c.value.snapshot)
            r = timed(tracer, "dynamic.session.restore", DynamicRun.restore,
                      b.value)
            o = timed(tracer, "dynamic.serving.open", host.open,
                      f"session-{s}", b.value)
            create.append(c.seconds)
            snap.append(b.seconds)
            restore.append(r.seconds)
            opened.append(o.seconds)
            blobs.append(b.value)
            local.append(r.value)

        # Each batch goes to the host, to an in-process copy of the
        # session under the tracer, and to another copy untraced (the
        # tracer's price); then the overlay alone replays the batches.
        plain = [timed(tracer, "bench.restore", DynamicRun.restore, blob).value
                 for blob in blobs]
        served_ms, local_ms, plain_ms, overlay_ms = [], [], [], []
        repaired = cone = 0
        problems: Problems = []
        for k in range(batches):
            for s in range(self.n_sessions):
                batch = periods[s][k]
                h = timed(tracer, "dynamic.serving.apply", host.apply,
                          f"session-{s}", batch)
                served_ms.append(h.seconds * 1e3)
                d = timed(tracer, "dynamic.session.apply", local[s].apply, batch)
                local_ms.append(d.seconds * 1e3)
                plain_ms.append(
                    untraced(tracer, plain[s].apply, batch).seconds * 1e3)
                repaired += d.value.repaired_nodes
                cone += d.value.cone_node_rounds
                if h.value != d.value:
                    problems.append(f"session-{s} batch {k}: served stats "
                                    f"{h.value} differ from in-process")
        finals = []
        for s, (graph, weights) in enumerate(build.value):
            mirror = MutableTopology.from_graph(graph)
            inputs = list(weights)
            for k in range(batches):
                overlay_ms.append(timed(
                    tracer, "dynamic.overlay.apply_batch", mirror.apply_batch,
                    periods[s][k], inputs).seconds * 1e3)
            finals.append((mirror.materialise(), inputs))

        _, workers = measure.peak_rss_mb()
        worker_rss = [mb for name, mb in workers.items() if name != "self"]
        checkpoints = host.report().counters[obs.CTR_SERVING_CHECKPOINTS]
        for s, (graph, inputs) in enumerate(finals):
            blob = timed(tracer, "dynamic.serving.close", host.close,
                         f"session-{s}").value
            served = timed(tracer, "bench.restore", DynamicRun.restore, blob)
            found = timed(tracer, "bench.oracle", self.oracle, served.value,
                          graph, inputs).value
            problems += [f"session-{s}: {p}" for p in found]
        host.shutdown()

        # The static §3 job on one final served instance: the same
        # simulator layers at this workload's size.
        graph, inputs = finals[0]

        def job(metering: str) -> runtime.RunResult:
            return runtime.run(**edge_packing_job(
                graph, inputs, delta=self.DELTA, W=self.W, metering=metering))

        reps = self.size["traced_reps"]
        layers, result = runtime_layers(tracer, graph.n, reps, job)
        layers["core.edge_packing.assemble_s"] = statistics.median([
            timed(tracer, "core.edge_packing.assemble", edge_packing_from_run,
                  graph, inputs, result).seconds
            for _ in range(reps)
        ])
        # Served-vs-local difference per batch (both traced).
        overhead = [a - b for a, b in zip(served_ms, local_ms)]
        layers.update({
            "graphs.build_s": build.seconds,
            "dynamic.session.create_s": statistics.median(create),
            "dynamic.session.snapshot_s": statistics.median(snap),
            "dynamic.session.snapshot_bytes": statistics.median(
                [len(b) for b in blobs]),
            "dynamic.session.restore_s": statistics.median(restore),
            "dynamic.session.apply_p50_ms": measure.quantile(local_ms, 0.5),
            "dynamic.session.apply_p90_ms": measure.quantile(local_ms, 0.9),
            "dynamic.session.repaired_nodes": repaired,
            "dynamic.session.cone_node_rounds": cone,
            "dynamic.overlay.apply_p50_ms": measure.quantile(overlay_ms, 0.5),
            "dynamic.serving.open_s": sum(opened),
            "dynamic.serving.overhead_p50_ms": measure.quantile(overhead, 0.5),
            "dynamic.serving.checkpoints": checkpoints,
            "dynamic.serving.worker_peak_rss_mb": max(worker_rss, default=0.0),
            "obs.trace_overhead_frac": overhead_frac(local_ms, plain_ms),
        })
        return layers, len(served_ms), problems


def stop_workers(timeout_s: float = 30.0) -> None:
    """Shut the serving pools down and wait until every worker exited."""
    from repro._util.parallel import retire_serve_pools

    retire_serve_pools()
    deadline = clock() + timeout_s
    while measure.live_children() and clock() < deadline:
        time.sleep(0.05)
    if measure.live_children():
        raise RuntimeError(
            f"worker processes {measure.live_children()} did not exit")


WORKLOADS = {
    cls.name: cls for cls in (VertexCoverPort, SetCoverBroadcast, ChurnServe)
}
