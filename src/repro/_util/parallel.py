"""Order-preserving serial/thread/process-pooled mapping.

The shared seam under the batched execution APIs
(:func:`repro.simulator.runtime.run_many` / ``sweep``) and the
experiment drivers' :func:`repro.experiments.common.parallel_map`.
``n_workers`` of ``None``/``0``/``1`` runs serially (no pool overhead,
fully deterministic scheduling).  With workers, ``backend`` picks the
executor:

``"thread"`` (the default)
    a :class:`~concurrent.futures.ThreadPoolExecutor`.  Threads share
    the GIL, so pure-Python workloads gain mostly when they block or
    on free-threaded builds; no pickling is required, so any callable
    (closures, lambdas) and any job values work.
``"process"``
    a :class:`~concurrent.futures.ProcessPoolExecutor`.  True
    multi-core parallelism for the CPU-bound simulation kernels, at
    the price of pickling: the callable must be a module-level
    function (or a :func:`functools.partial` of one) and jobs/results
    must round-trip through :mod:`pickle`.  Machines, graphs and
    :class:`~repro.simulator.runtime.RunResult` all do — pinned by
    ``tests/test_parallel_backends.py``.
``"auto"``
    ``"process"`` when the callable and first job pickle, else
    ``"thread"``.  A safe default for callers that cannot know what
    they are handed.

Process pools are *warm*: one pool per distinct worker count is kept
alive for the life of the interpreter (shut down atexit), so a whole
experiment table of ``sweep`` calls amortises a single pool start-up.
Jobs are chunked (``chunksize``, default ``len(jobs)/(4·workers)``,
at least 1) so per-task IPC is amortised across a chunk of instances.

**Crash recovery.**  A worker that dies (OOM-kill, segfault, SIGKILL)
poisons its whole :class:`ProcessPoolExecutor`; every pending future
raises :class:`BrokenProcessPool`.  Instead of propagating that, the
process backend walks a degradation ladder, per chunk of jobs:

1. **re-dispatch** — the broken pool is retired, a fresh one is built,
   and only the chunks that failed are resubmitted (completed chunks
   keep their results), with exponential backoff
   (``_BACKOFF_BASE_S · 2^(attempt-1)``, capped at ``_BACKOFF_CAP_S``);
2. **per-chunk serial** — a chunk that failed ``_MAX_CHUNK_REDISPATCH``
   times is assumed to *cause* the crash and runs serially in the
   parent, where a genuine job exception surfaces normally;
3. **full serial** — after ``_MAX_POOL_FAILURES`` pool breakages the
   backend stops paying pool start-up and degrades every remaining
   chunk to the parent process.

Chunks are formed once, from job order, before the first dispatch —
their identity is deterministic, so results are placed by chunk index
and the output order (and content, for deterministic workloads) is
identical to a serial run no matter how many recoveries happened.
Every recovery is recorded as a :class:`RetryEvent` in the
:class:`FailureReport` attached to the returned list (a
:class:`JobResults`; plain-list equality is preserved).

Results are always returned in job order, and — because every backend
runs the *same* per-job callable — are bit-for-bit identical across
``backend`` choices for deterministic workloads (pinned by
``tests/test_parallel_backends.py`` and ``tests/test_chaos.py``).
"""

from __future__ import annotations

import atexit
import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro import obs
from repro.obs import CTR_POOL_RESTARTS, EV_POOL_RETRY

__all__ = [
    "BACKENDS",
    "FailureReport",
    "JobResults",
    "RetryEvent",
    "map_jobs",
    "resolve_backend",
    "retire_serve_pools",
    "serve_pool",
    "shutdown_pools",
]

#: Accepted ``backend=`` values (``None`` means ``"thread"``).
BACKENDS = ("thread", "process", "auto")

#: A chunk is re-dispatched onto fresh pools at most this many times
#: before it is assumed to be the crash's cause and runs serially.
_MAX_CHUNK_REDISPATCH = 3

#: After this many pool breakages in one map_jobs call, every remaining
#: chunk degrades to serial (no more pools are built).
_MAX_POOL_FAILURES = 5

#: Exponential backoff before re-dispatch: base · 2^(attempt-1), capped.
_BACKOFF_BASE_S = 0.05
_BACKOFF_CAP_S = 1.0

# Warm process pools, kept for the interpreter's lifetime (pool
# start-up is paid once) and shut down together atexit.  One registry,
# keyed by (kind, int):
#
# * ``(_MAP, n)`` — the ``map_jobs`` process backend's pool of ``n``
#   workers, shared by repeated calls (a whole experiment table).
#   Thread pools are cheap and stay per-call.
# * ``(_SERVE, i)`` — serving worker ``i``'s dedicated single-worker
#   pool (:mod:`repro.dynamic.serving`).  A serving worker keeps its
#   assigned DynamicRun sessions resident between batches, so every
#   batch for a session must land on the same process, which a shared
#   ``n``-worker pool cannot promise.
_MAP = "map"
_SERVE = "serve"
_POOLS: Dict[Tuple[str, int], ProcessPoolExecutor] = {}


@dataclass(frozen=True)
class RetryEvent:
    """One recovery action taken by the process backend."""

    chunk: int  #: chunk index (deterministic: formed before dispatch)
    jobs: int  #: number of jobs in the chunk
    attempt: int  #: how many times this chunk has failed so far
    error: str  #: repr of the triggering exception
    backoff_s: float  #: sleep before the retry (0 for serial fallback)
    action: str  #: "redispatch" (fresh pool) or "serial" (in parent)


@dataclass(frozen=True)
class FailureReport:
    """What the backend had to do to finish a ``map_jobs`` call.

    A clean run has no events and no pool restarts; callers that care
    (the chaos tests, monitoring) read it off the returned
    :class:`JobResults`, everyone else treats the result as a list.
    """

    backend: str
    events: Tuple[RetryEvent, ...] = ()
    pool_restarts: int = 0
    degraded_to_serial: bool = False

    @property
    def clean(self) -> bool:
        return not self.events and not self.pool_restarts


class JobResults(List[Any]):
    """A plain list of results plus the :class:`FailureReport`.

    Subclassing :class:`list` keeps every existing caller working —
    equality with plain lists, slicing, iteration — while the report
    rides along for those who ask.  The report survives the list
    operations that return a new ``JobResults`` — slicing,
    concatenation, ``copy.copy`` and pickling all preserve it (list
    subclasses silently lose attributes on each of those by default:
    ``list.__getitem__``/``__add__`` return plain lists, and pickle
    calls ``cls()`` with no arguments).
    """

    failure_report: FailureReport

    def __init__(self, results: Sequence[Any] = (),
                 report: Optional[FailureReport] = None):
        super().__init__(results)
        self.failure_report = (
            report if report is not None else FailureReport(backend="unknown")
        )

    def __reduce__(self):
        # The default list-subclass protocol would call JobResults()
        # and drop the report; rebuild from (items, report) instead.
        return (JobResults, (list(self), self.failure_report))

    def __copy__(self) -> "JobResults":
        return JobResults(list(self), self.failure_report)

    def __getitem__(self, index):
        item = super().__getitem__(index)
        if isinstance(index, slice):
            return JobResults(item, self.failure_report)
        return item

    def __add__(self, other) -> "JobResults":
        if not isinstance(other, list):
            return NotImplemented
        return JobResults(list(self) + list(other), self.failure_report)

    def __radd__(self, other) -> "JobResults":
        if not isinstance(other, list):
            return NotImplemented
        return JobResults(list(other) + list(self), self.failure_report)


def _warm_pool(key: Tuple[str, int], max_workers: int) -> ProcessPoolExecutor:
    pool = _POOLS.get(key)
    if pool is None:
        pool = _POOLS[key] = ProcessPoolExecutor(max_workers=max_workers)
    return pool


def _retire(key: Tuple[str, int]) -> None:
    pool = _POOLS.pop(key, None)
    if pool is not None:
        pool.shutdown(wait=False, cancel_futures=True)


def shutdown_pools() -> None:
    """Shut down every warm process pool (idempotent; runs atexit)."""
    for key in list(_POOLS):
        _retire(key)


def serve_pool(index: int) -> ProcessPoolExecutor:
    """The persistent single-worker pool for serving worker ``index``.

    Created on first use, then warm for the interpreter's lifetime:
    the serving host's worker-resident sessions always find their
    process again, and successive :class:`~repro.dynamic.serving.
    ServingHost` instances reuse the same warm fleet.
    """
    return _warm_pool((_SERVE, index), 1)


def retire_serve_pools(index: Optional[int] = None) -> None:
    """Shut down serving pools (idempotent).

    Crash recovery for the serving host: a dead worker strands its
    resident sessions, so the host retires that worker's pool and
    replays each stranded session from its last checkpoint onto a
    fresh one.  Serving workers are mutually independent — pass
    ``index`` to retire just the broken one; ``None`` retires them all
    (atexit / host shutdown).
    """
    if index is not None:
        _retire((_SERVE, index))
        return
    for key in [k for k in _POOLS if k[0] == _SERVE]:
        _retire(key)


atexit.register(shutdown_pools)


def _process_pool(n_workers: int) -> ProcessPoolExecutor:
    return _warm_pool((_MAP, n_workers), n_workers)


def _retire_pool(n_workers: int, pool: ProcessPoolExecutor) -> None:
    """Drop a broken pool so the next call starts fresh.

    Idempotent, and scoped to the one worker count that broke: healthy
    warm pools for *other* counts deliberately stay alive.
    """
    if _POOLS.get((_MAP, n_workers)) is pool:
        del _POOLS[(_MAP, n_workers)]
    pool.shutdown(wait=False, cancel_futures=True)


def _run_chunk(fn: Callable[[Any], Any], chunk: List[Any]) -> List[Any]:
    """Worker-side chunk body (module-level: picklable)."""
    return [fn(j) for j in chunk]


def _run_chunk_traced(
    fn: Callable[[Any], Any], chunk: List[Any]
) -> Tuple[List[Any], Dict[str, Any]]:
    """Worker-side chunk body under a worker-local tracer.

    The parent's tracer cannot cross the process boundary, so the
    chunk runs with its own and ships the drained buffers back with
    the results; the parent absorbs them into its trace.
    """
    tracer = obs.Tracer(f"pool worker pid {os.getpid()}")
    with obs.tracing(tracer):
        results = [fn(j) for j in chunk]
    return results, tracer.drain_remote()


def _note_retry(tr: Optional["obs.Tracer"], ev: RetryEvent) -> None:
    if tr is not None:
        tr.event(
            EV_POOL_RETRY,
            chunk=ev.chunk,
            jobs=ev.jobs,
            attempt=ev.attempt,
            action=ev.action,
            backoff_s=ev.backoff_s,
        )


def _picklable(*objs: Any) -> bool:
    try:
        for obj in objs:
            pickle.dumps(obj)
        return True
    except Exception:
        return False


def resolve_backend(
    backend: Optional[str], fn: Callable[[Any], Any], jobs: Sequence[Any]
) -> str:
    """Resolve a ``backend=`` argument to ``"thread"`` or ``"process"``.

    ``None`` keeps the historical thread default; ``"auto"`` probes
    whether ``fn`` and the first job pickle and falls back to threads
    when they do not (closures, open handles, ...).
    """
    if backend is None:
        return "thread"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; expected one of {BACKENDS} or None"
        )
    if backend == "auto":
        probe = (fn, jobs[0]) if jobs else (fn,)
        return "process" if _picklable(*probe) else "thread"
    return backend


def _map_process(
    fn: Callable[[Any], Any],
    jobs: List[Any],
    n_workers: int,
    chunksize: int,
) -> JobResults:
    """The crash-recovering process path (see the module docstring)."""
    chunks = [jobs[i : i + chunksize] for i in range(0, len(jobs), chunksize)]
    results: List[Any] = [None] * len(chunks)
    attempts = [0] * len(chunks)
    pending = list(range(len(chunks)))
    events: List[RetryEvent] = []
    pool_failures = 0
    degraded = False
    tr = obs.current()
    # Traced chunks run under a worker-local tracer and return
    # (results, trace payload); serial fallbacks run in the parent,
    # where the parent's tracer is already installed.
    runner = _run_chunk if tr is None else _run_chunk_traced

    while pending:
        if pool_failures >= _MAX_POOL_FAILURES:
            # Rung 3: stop building pools, finish in the parent.
            degraded = True
            for ci in pending:
                ev = RetryEvent(
                    chunk=ci,
                    jobs=len(chunks[ci]),
                    attempt=attempts[ci],
                    error="pool failure budget exhausted",
                    backoff_s=0.0,
                    action="serial",
                )
                events.append(ev)
                _note_retry(tr, ev)
                results[ci] = _run_chunk(fn, chunks[ci])
            pending = []
            break

        pool = _process_pool(n_workers)
        futures: Dict[int, Any] = {}
        for ci in pending:
            try:
                futures[ci] = pool.submit(runner, fn, chunks[ci])
            except BrokenProcessPool:
                break  # pool died before the work even left: retry all

        failed: List[int] = []
        err: Optional[BaseException] = None
        for ci in pending:
            fut = futures.get(ci)
            if fut is None:
                failed.append(ci)
                continue
            try:
                value = fut.result()
            except BrokenProcessPool as exc:
                err = exc
                failed.append(ci)
                continue
            # A genuine job exception (not a dead worker) propagates:
            # retrying deterministic code cannot fix it.
            if tr is not None:
                value, payload = value
                tr.absorb(payload)
            results[ci] = value

        if not failed:
            pending = []
            break

        pool_failures += 1
        if tr is not None:
            tr.count(CTR_POOL_RESTARTS)
        _retire_pool(n_workers, pool)
        err_text = repr(err) if err is not None else "BrokenProcessPool"
        next_pending: List[int] = []
        backoff = 0.0
        for ci in failed:
            attempts[ci] += 1
            if attempts[ci] >= _MAX_CHUNK_REDISPATCH:
                # Rung 2: the chunk itself is the likely killer — run
                # it in the parent so a real fault surfaces normally.
                ev = RetryEvent(
                    chunk=ci,
                    jobs=len(chunks[ci]),
                    attempt=attempts[ci],
                    error=err_text,
                    backoff_s=0.0,
                    action="serial",
                )
                events.append(ev)
                _note_retry(tr, ev)
                results[ci] = _run_chunk(fn, chunks[ci])
            else:
                # Rung 1: fresh pool, exponential backoff.
                wait = min(
                    _BACKOFF_CAP_S,
                    _BACKOFF_BASE_S * 2.0 ** (attempts[ci] - 1),
                )
                backoff = max(backoff, wait)
                ev = RetryEvent(
                    chunk=ci,
                    jobs=len(chunks[ci]),
                    attempt=attempts[ci],
                    error=err_text,
                    backoff_s=wait,
                    action="redispatch",
                )
                events.append(ev)
                _note_retry(tr, ev)
                next_pending.append(ci)
        if next_pending and backoff > 0.0:
            time.sleep(backoff)
        pending = next_pending

    flat: List[Any] = []
    for chunk_results in results:
        flat.extend(chunk_results)
    return JobResults(
        flat,
        FailureReport(
            backend="process",
            events=tuple(events),
            pool_restarts=pool_failures,
            degraded_to_serial=degraded,
        ),
    )


def map_jobs(
    fn: Callable[[Any], Any],
    jobs: Sequence[Any],
    n_workers: Optional[int],
    backend: Optional[str] = None,
    chunksize: Optional[int] = None,
) -> JobResults:
    """Map ``fn`` over ``jobs``, returning results in job order.

    ``n_workers`` of ``None``/``0``/``1`` (or a single job) runs
    serially regardless of ``backend``.  See the module docstring for
    the backend semantics; ``chunksize`` only affects the process
    backend (how many jobs ride one IPC round-trip, and the unit of
    crash recovery).  The returned :class:`JobResults` behaves as a
    plain list and carries a :class:`FailureReport` describing any
    crash recoveries the process backend performed.
    """
    jobs = list(jobs)
    if n_workers is None or n_workers <= 1 or len(jobs) <= 1:
        return JobResults(
            [fn(j) for j in jobs], FailureReport(backend="serial")
        )
    workers = min(n_workers, len(jobs))
    if resolve_backend(backend, fn, jobs) == "thread":
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return JobResults(
                list(pool.map(fn, jobs)), FailureReport(backend="thread")
            )
    if chunksize is None:
        chunksize = max(1, len(jobs) // (4 * workers))
    # Pools are keyed by the *requested* count so a warm 4-worker pool
    # is never silently used for an n_workers=2 call (that would skew
    # scaling measurements).
    return _map_process(fn, jobs, n_workers, chunksize)
