#!/usr/bin/env python3
"""The repository benchmark: three workloads, end to end and per layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload vc_port --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off: it sets
the workload up, runs timed operations in a closed loop for
``--seconds`` seconds, checks every result against an oracle and
prints every metric by name and unit.  ``--trace 1`` instead runs one
traced pass over every workload (the named one first), wraps each
layer call in a benchmark span, collects the program's own round,
phase and batch spans through ``repro.obs``, writes a Chrome trace and
a per-layer self-time table under ``.perfbench-out/``, and prints the
per-layer metrics.  The last line of standard output is always one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SRC = ROOT / "src"

if not (SRC / "repro" / "__init__.py").is_file():
    sys.exit(f"perfbench: no program source at {SRC / 'repro'}; "
             f"run from the root of a full checkout")
sys.path.insert(0, str(SRC))

from repro import obs  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

#: Seed kept out of tuning, for checking performance claims.
HELD_OUT_SEED = 7919

DEFAULT_SECONDS = 30
#: Set-ups per run (one in-process, the rest in fresh processes);
#: ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Speed probes taken around each set-up; the interval between probes
#: while operations are timed; and how many probes around an operation
#: give its local host speed.
SETUP_PROBES = 3
PROBE_EVERY_S = 0.25
PROBE_WINDOW = 5

#: End-to-end metrics (tracing off): name -> unit.  An operation is
#: one public solve call (vc_port, sc_broadcast) or one
#: ``ServingHost.apply`` batch (churn_serve).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p95_ms": "ms",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics (traced run): name -> unit.
PER_LAYER = {
    "graphs.build_s": "s",
    "graphs.bipartite_s": "s",
    "simulator.runtime.run_s": "s",
    "simulator.runtime.run_nometer_s": "s",
    "simulator.runtime.node_rounds_per_s": "1/s",
    "simulator.runtime.rounds": "count",
    "simulator.runtime.messages": "count",
    "simulator.runtime.message_bits": "bit",
    "simulator.runtime.round_span_s": "s",
    "simulator.runtime.unspanned_frac": "frac",
    "simulator.runtime.columnar_rounds": "count",
    "core.edge_packing.assemble_s": "s",
    "core.fractional_packing.assemble_s": "s",
    "dynamic.session.create_s": "s",
    "dynamic.session.snapshot_s": "s",
    "dynamic.session.snapshot_bytes": "B",
    "dynamic.session.restore_s": "s",
    "dynamic.session.apply_p50_ms": "ms",
    "dynamic.session.apply_p90_ms": "ms",
    "dynamic.session.repaired_nodes": "count",
    "dynamic.session.cone_node_rounds": "count",
    "dynamic.overlay.apply_p50_ms": "ms",
    "dynamic.serving.open_s": "s",
    "dynamic.serving.overhead_p50_ms": "ms",
    "dynamic.serving.checkpoints": "count",
    "dynamic.serving.worker_peak_rss_mb": "MB",
    "obs.trace_overhead_frac": "frac",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                   help="instance sizes ('tiny' is for the smoke test)")
    p.add_argument("--setup-only", action="store_true",
                   help="set up once, print {'setup_s': ...} and exit")
    return p.parse_args(argv)


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict, units: dict) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    })


def save(name: str, record: dict) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(record, indent=1, default=str))
    return path


# ----------------------------------------------------------------------
# Set-up
# ----------------------------------------------------------------------


def set_up(args) -> tuple:
    """Set the workload up.

    Returns the workload, the seconds since process start, and the
    host-speed scale measured by probes on either side of the set-up.
    """
    probes = [measure.speed_probe() for _ in range(SETUP_PROBES)]
    wl = workloads.WORKLOADS[args.workload](args.seed, workloads.SIZES[args.size])
    t0 = time.perf_counter()
    try:
        wl.setup()
    except BaseException:
        wl.close()
        raise
    seconds = IMPORT_S + (time.perf_counter() - t0)
    probes += [measure.speed_probe() for _ in range(SETUP_PROBES)]
    return wl, seconds, measure.speed_scale(probes)


def setup_sample(args) -> tuple:
    """One more set-up, in a fresh process, measured the same way."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--size", args.size, "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"set-up sample failed:\n{done.stderr[-2000:]}")
    sample = json.loads(done.stdout.strip().splitlines()[-1])
    return sample["setup_s"], sample["scale"]


def setup_only(args) -> int:
    wl, seconds, scale = set_up(args)
    wl.close()
    print(json.dumps({"setup_s": seconds, "scale": scale}))
    return 0


# ----------------------------------------------------------------------
# End-to-end run (tracing off)
# ----------------------------------------------------------------------


def end_to_end(args) -> int:
    wl, *own_setup = set_up(args)
    # latencies[i] was timed right after probes[probe_of[i]].
    latencies, probe_of, problems, probes = [], [], [], []
    attempted = failed = 0
    try:
        start = time.perf_counter()
        deadline = start + args.seconds
        next_probe = start
        i = 0
        while True:
            if time.perf_counter() >= next_probe:
                probes.append(measure.speed_probe())
                next_probe = time.perf_counter() + PROBE_EVERY_S
            attempted += 1
            try:
                latency, complaints = wl.op(i)
            except Exception as exc:  # an operation that raised failed
                failed += 1
                problems.append(f"op {i}: {exc!r}")
            else:
                if complaints:
                    failed += 1
                    problems += [f"op {i}: {c}" for c in complaints]
                else:
                    latencies.append(latency)
                    probe_of.append(len(probes) - 1)
            i += 1
            if time.perf_counter() >= deadline:
                break
        peak, rss_parts = measure.peak_rss_mb()
        try:
            final = wl.finish()
        except Exception as exc:
            final = [f"final check raised {exc!r}"]
        failed += len(final)
        problems += final
    finally:
        wl.close()
    setups = [tuple(own_setup)] + [setup_sample(args)
                                   for _ in range(SETUP_SAMPLES - 1)]

    if not latencies:
        raise RuntimeError(f"no operation succeeded: {problems[:5]}")
    raw = {
        "setup_s": statistics.median(s for s, _ in setups),
        "op_p50_ms": measure.quantile(latencies, 0.5) * 1e3,
        "op_p95_ms": measure.quantile(latencies, 0.95) * 1e3,
        "ops_per_s": len(latencies) / sum(latencies),
        "peak_rss_mb": peak,
    }
    # Times scaled to the nominal host speed, each by the probes taken
    # in the same process around the same moment (measure.speed_probe).
    half = PROBE_WINDOW // 2
    scaled = [
        t * measure.speed_scale(probes[max(0, j - half):j + half + 1])
        for t, j in zip(latencies, probe_of)
    ]
    metrics = dict(
        raw,
        setup_s=statistics.median(s * k for s, k in setups),
        op_p50_ms=measure.quantile(scaled, 0.5) * 1e3,
        op_p95_ms=measure.quantile(scaled, 0.95) * 1e3,
        ops_per_s=len(scaled) / sum(scaled),
    )
    scale = measure.speed_scale(probes)
    fail_frac = failed / attempted
    host = measure.host_record()
    counts = dict(wl.counts)
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "seconds": args.seconds, "trace": 0, "host": host,
        "metrics": metrics, "raw_metrics": raw, "speed_scale": scale,
        "speed_probes_s": probes, "probe_of": probe_of, "fail_frac": fail_frac,
        "counts": counts, "setup_samples": setups, "import_s": IMPORT_S,
        "peak_rss_parts_mb": rss_parts, "latencies_ms": [x * 1e3 for x in latencies],
        "problems": problems,
    }
    path = save(f"{args.workload}-seed{args.seed}-e2e.json", record)

    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"seconds={args.seconds:g} (held-out seed: {HELD_OUT_SEED})")
    print(f"host: {json.dumps(host)}")
    print(f"work counts: {json.dumps(counts)}")
    print(f"operations: {attempted} attempted, {failed} failed, "
          f"{len(latencies)} timed samples, {len(probes)} speed probes "
          f"(scale {scale:.4f}); {len(setups)} set-ups")
    print(f"  {'metric':<14} {'scaled':>14} {'raw':>14}")
    for name, unit in END_TO_END.items():
        print(f"  {name:<14} {metrics[name]:>14.6g} {raw[name]:>14.6g} {unit}")
    print(f"  {'fail_frac':<14} {fail_frac:>14.6g} {fail_frac:>14.6g} frac")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(f"record: {path.relative_to(ROOT)}")
    print(result_line(failed == 0, attempted, failed, metrics, END_TO_END))
    return 0


# ----------------------------------------------------------------------
# Traced run
# ----------------------------------------------------------------------


def traced(args) -> int:
    """One traced pass per workload; shared layers come from --workload."""
    size = workloads.SIZES[args.size]
    order = [args.workload] + [w for w in sorted(workloads.WORKLOADS)
                               if w != args.workload]
    tracer = obs.Tracer(label=f"perfbench {args.workload} seed={args.seed}")
    layers, source, problems = {}, {}, []
    attempted = 0
    for name in order:
        wl = workloads.WORKLOADS[name](args.seed, size)
        try:
            with obs.tracing(tracer), tracer.span(f"bench.{name}"):
                got, ops, complaints = wl.traced_pass(tracer)
        finally:
            wl.close()
        attempted += ops
        problems += [f"{name}: {c}" for c in complaints]
        for key, value in got.items():
            if key not in layers:
                layers[key] = value
                source[key] = name
    missing = sorted(set(PER_LAYER) - set(layers))
    if missing:
        raise RuntimeError(f"traced passes did not measure {missing}")
    failed = min(attempted, len(problems))

    stem = f"{args.workload}-seed{args.seed}"
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{stem}-trace.json"
    tracer.dump(str(trace_path))
    table = measure.self_time_table(tracer.chrome())
    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": 1, "host": measure.host_record(), "metrics": layers,
        "measured_on": source, "self_time": table, "problems": problems,
    }
    path = save(f"{stem}-layers.json", record)

    print(f"perfbench traced pass, shared layers from {args.workload}, "
          f"seed={args.seed} size={args.size}")
    print(f"host: {json.dumps(record['host'])}")
    print(f"{'metric':<40} {'value':>14} {'unit':<6} measured on")
    for name, unit in PER_LAYER.items():
        print(f"{name:<40} {layers[name]:>14.6g} {unit:<6} {source[name]}")
    print()
    print(f"{'span (self time)':<40} {'count':>7} {'total s':>10} {'self s':>10}")
    for row in table:
        print(f"{row['span']:<40} {row['count']:>7} "
              f"{row['total_s']:>10.4f} {row['self_s']:>10.4f}")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(f"trace: {trace_path.relative_to(ROOT)}  record: {path.relative_to(ROOT)}")
    print(result_line(failed == 0, attempted, failed, layers, PER_LAYER))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        return setup_only(args)
    if args.trace:
        return traced(args)
    return end_to_end(args)


if __name__ == "__main__":
    sys.exit(main())
