"""Measurement helpers: quantiles, host speed, memory, host record, spans.

Nothing here imports ``repro``: these helpers only read clocks,
``/proc`` and Chrome trace-event dicts, so they work the same for every
workload and for the traced and untraced modes.
"""

from __future__ import annotations

import gc
import math
import multiprocessing
import os
import platform
import resource
import statistics
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple


def quantile(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile (``q`` in [0, 1]) of ``samples``."""
    if not samples:
        raise ValueError("quantile of an empty sample")
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# Host speed
# ----------------------------------------------------------------------

#: Median time of :func:`speed_probe` on the host the benchmark was
#: tuned on (2-vCPU Xeon, CPython 3.11.7).  Scaled times are expressed
#: as if every probe in the run had taken this long.
PROBE_NOMINAL_S = 0.015


def speed_probe() -> float:
    """Seconds one fixed integer loop takes right now (GC off).

    The host's speed drifts by a third over tens of seconds (other
    tenants share its cores), and this loop slows with it while
    touching no memory the program could disturb.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        s = 0
        for j in range(150_000):
            s += j * j & 1023
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def speed_scale(probes: Sequence[float]) -> float:
    """Factor that maps this run's times to the nominal host speed."""
    return PROBE_NOMINAL_S / statistics.median(probes)


# ----------------------------------------------------------------------
# Memory
# ----------------------------------------------------------------------


def vm_hwm_mb(pid: Any = "self") -> Optional[float]:
    """Peak resident set (``VmHWM``) of a live process, in MiB.

    ``None`` when ``/proc`` is unavailable or the process is gone.
    """
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        return None
    return None


def live_children() -> List[int]:
    """Pids of this process's live ``multiprocessing`` children."""
    return [p.pid for p in multiprocessing.active_children() if p.pid]


def peak_rss_mb() -> Tuple[float, Dict[str, float]]:
    """Peak RSS of this process plus every live worker it started.

    ``RUSAGE_CHILDREN`` only covers children that already exited, so
    live workers are read from their own ``/proc/<pid>/status``.
    Returns the total and the per-process breakdown.
    """
    own = vm_hwm_mb()
    if own is None:  # no /proc: ru_maxrss is KiB on Linux
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    parts = {"self": own}
    for pid in live_children():
        hwm = vm_hwm_mb(pid)
        if hwm is not None:
            parts[f"worker:{pid}"] = hwm
    return sum(parts.values()), parts


# ----------------------------------------------------------------------
# Host record
# ----------------------------------------------------------------------


def host_record() -> Dict[str, Any]:
    """What every result is recorded with: cores, Python and numpy.

    Whether numpy imports decides whether the columnar engine can run
    at all, so it is recorded separately from its version.
    """
    try:
        import numpy

        numpy_version: Optional[str] = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.system().lower(),
        "numpy": numpy_version,
        "numpy_imports": numpy_version is not None,
    }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


def spans(trace: Any) -> List[Dict[str, Any]]:
    """The complete ("X") span events of a tracer or a Chrome trace dict."""
    events = trace["traceEvents"] if isinstance(trace, dict) else trace.events()
    return [e for e in events if e.get("ph") == "X"]


def covered_us(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_s = cur_e = None
    for s, e in sorted(intervals):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def within(events: Iterable[Dict[str, Any]], start: float, end: float,
           names: Sequence[str]) -> List[Dict[str, Any]]:
    """Host-lane spans named in ``names`` lying inside [start, end]."""
    eps = 1.0  # µs: start/end stamps are taken by separate clock reads
    return [
        e for e in events
        if e.get("pid", 0) == 0 and e["name"] in names
        and e["ts"] >= start - eps and e["ts"] + e["dur"] <= end + eps
    ]


def self_time_table(trace: Dict[str, Any]) -> List[Dict[str, Any]]:
    """Per span name: count, total and self time, in seconds.

    A span's self time is its duration minus the part of it that its
    child spans cover.  Spans nest per (pid, tid) lane; worker lanes
    keep their own timebase, so their names are prefixed ``worker:``
    and they never count as children of host-side spans.
    """
    lanes: Dict[Tuple[int, int], List[Dict[str, Any]]] = {}
    for e in spans(trace):
        lanes.setdefault((e.get("pid", 0), e.get("tid", 0)), []).append(e)
    rows: Dict[str, Dict[str, float]] = {}

    def close(frame: List[Any]) -> None:
        name, dur, child = frame[1], frame[2], frame[3]
        row = rows.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += dur / 1e6
        row["self_s"] += max(0.0, dur - child) / 1e6

    for (pid, _tid), evs in lanes.items():
        evs.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[List[Any]] = []  # [end, name, dur, child_us]
        for e in evs:
            start, dur = e["ts"], e["dur"]
            end = start + dur
            name = e["name"] if pid == 0 else f"worker:{e['name']}"
            while stack and stack[-1][0] <= start:
                close(stack.pop())
            if stack:
                # Synchronous code: siblings never overlap, so summing
                # direct children is the union of their coverage.
                stack[-1][3] += min(end, stack[-1][0]) - start
            stack.append([end, name, dur, 0.0])
        while stack:
            close(stack.pop())
    return [
        {"span": name, **row}
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])
    ]
