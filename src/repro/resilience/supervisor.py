"""Supervised process-pool execution: deadlines, backoff, pool reuse.

:class:`TaskSupervisor` owns the parallel execution loop the campaign
engine used to inline. It fixes the three failure modes the sharded
pool could not survive:

* **hung tasks** — with a :attr:`~repro.resilience.policies.RetryPolicy.
  deadline_s`, every submitted chunk carries a wall-clock budget; an
  overdue chunk's worker processes are killed, the pool is recycled,
  and the overdue tasks are requeued as ``timeout`` attempts (the old
  engine blocked on a hung shard forever);
* **pool churn** — one pool is created lazily and *reused* across
  retry rounds; it is recycled only after a worker crash or a deadline
  kill actually broke it (the old engine rebuilt the pool every retry
  round even when nothing crashed). A clean run creates exactly one
  pool (``stats.pools_created == 1``);
* **retry storms** — requeued tasks wait out a deterministic seeded
  backoff (see :meth:`RetryPolicy.backoff_s`) before resubmission, and
  a caller-supplied ``gate`` can quarantine tasks (circuit breaker)
  before they ever reach the pool.

The supervisor is deliberately generic: it moves opaque ``(key,
payload)`` pairs through a worker callable and reports outcomes via
callbacks, so the campaign engine, tests, and the chaos harness drive
the identical machinery.
"""

from __future__ import annotations

import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.resilience.policies import RetryPolicy

#: One unit of submitted work: ``(key, payload, attempt)`` rows.
ChunkRow = Tuple[str, tuple, int]
#: Worker return rows: ``(key, result, error_repr)``.
ResultRow = Tuple[str, object, Optional[str]]
#: ``on_failure(key, kind, detail) -> may_retry``
FailureFn = Callable[[str, str, str], bool]


@dataclass
class SupervisorStats:
    """Execution accounting one :meth:`TaskSupervisor.run` collects."""

    #: pools constructed over the run (1 == no churn)
    pools_created: int = 0
    #: pools torn down after a crash or deadline kill
    pool_recycles: int = 0
    #: tasks whose wall-clock deadline expired (worker reaped)
    deadline_kills: int = 0
    #: tasks charged an attempt because their worker process died
    worker_crashes: int = 0
    #: retries that waited out a non-zero backoff interval
    backoff_waits: int = 0
    #: total scheduled backoff seconds
    backoff_total_s: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """Plain-dict form for summaries and JSON export."""
        return {
            "pools_created": self.pools_created,
            "pool_recycles": self.pool_recycles,
            "deadline_kills": self.deadline_kills,
            "worker_crashes": self.worker_crashes,
            "backoff_waits": self.backoff_waits,
            "backoff_total_s": self.backoff_total_s,
        }


class _Chunk:
    """Bookkeeping for one submitted batch of tasks."""

    __slots__ = ("rows", "submitted_at", "budget_s")

    def __init__(self, rows: List[ChunkRow], submitted_at: float,
                 budget_s: Optional[float]) -> None:
        self.rows = rows
        self.submitted_at = submitted_at
        self.budget_s = budget_s

    @property
    def keys(self) -> List[str]:
        """Task keys riding in this chunk."""
        return [row[0] for row in self.rows]


class TaskSupervisor:
    """Drives opaque task payloads through a supervised process pool.

    Parameters
    ----------
    jobs:
        Worker process count (and the chunking fan-out when no
        deadline is set).
    policy:
        The :class:`RetryPolicy` supplying deadline, backoff, and poll
        cadence. Retry *budgets* stay with the caller: the
        ``on_failure`` callback decides whether a failed task may be
        requeued.
    worker:
        Module-level callable executed in the pool:
        ``worker(rows) -> [(key, result, error_repr), ...]`` where
        ``rows`` is a list of :data:`ChunkRow`.
    initializer / initargs:
        Forwarded to the pool so per-process tables are installed once
        per worker.
    pool_factory:
        Injectable pool constructor for tests; defaults to
        :class:`~concurrent.futures.ProcessPoolExecutor`.
    clock / sleep:
        Injectable time sources (wall-clock supervision is host-side
        orchestration, never simulated time).
    """

    def __init__(
        self,
        jobs: int,
        policy: RetryPolicy,
        worker: Callable[[List[ChunkRow]], List[ResultRow]],
        initializer: Optional[Callable] = None,
        initargs: tuple = (),
        pool_factory: Optional[Callable[..., ProcessPoolExecutor]] = None,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.jobs = max(1, jobs)
        self.policy = policy
        self.worker = worker
        self.initializer = initializer
        self.initargs = initargs
        self.pool_factory = pool_factory or ProcessPoolExecutor
        self.clock = clock
        self.sleep = sleep
        self.stats = SupervisorStats()
        self._pool: Optional[ProcessPoolExecutor] = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def _acquire_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            self._pool = self.pool_factory(
                max_workers=self.jobs, initializer=self.initializer,
                initargs=self.initargs)
            self.stats.pools_created += 1
        return self._pool

    def _recycle_pool(self, kill: bool = False) -> None:
        """Tear the pool down (optionally killing its workers first)."""
        pool = self._pool
        if pool is None:
            return
        self._pool = None
        self.stats.pool_recycles += 1
        if kill:
            processes = getattr(pool, "_processes", None) or {}
            for process in list(processes.values()):
                process.kill()
        try:
            pool.shutdown(wait=True, cancel_futures=True)
        except Exception as error:  # noqa: BLE001 - already broken
            # A broken pool may refuse a clean shutdown; its processes
            # are dead either way and the replacement pool is fresh.
            del error

    def close(self) -> None:
        """Shut the pool down cleanly (end of campaign)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        payloads: Dict[str, tuple],
        on_success: Callable[[str, object], None],
        on_failure: FailureFn,
        gate: Optional[Callable[[str], Optional[str]]] = None,
    ) -> SupervisorStats:
        """Execute every payload to success or terminal failure.

        ``on_success(key, result)`` records a finished task;
        ``on_failure(key, kind, detail)`` charges one attempt and
        returns ``True`` if the task may be requeued. ``gate(key)``
        (checked immediately before each submission) returns a detail
        string to fail the task as ``quarantined`` without running it,
        or ``None`` to let it through.
        """
        pending: Dict[str, tuple] = dict(payloads)
        eligible_at: Dict[str, float] = {key: 0.0 for key in pending}
        attempts: Dict[str, int] = {key: 0 for key in pending}
        stash: Dict[str, tuple] = {}  # payloads of in-flight tasks
        in_flight: Dict[Future, _Chunk] = {}
        policy = self.policy

        def requeue(key: str, attempt: int, charge_backoff: bool) -> None:
            delay = policy.backoff_s(key, attempt) if charge_backoff else 0.0
            pending[key] = stash.pop(key)
            eligible_at[key] = self.clock() + delay
            if delay > 0:
                self.stats.backoff_waits += 1
                self.stats.backoff_total_s += delay

        def fail_or_requeue(key: str, kind: str, detail: str) -> None:
            if on_failure(key, kind, detail):
                requeue(key, attempts[key], charge_backoff=True)
            else:
                stash.pop(key, None)

        def harvest(future: Future, chunk: _Chunk, overdue: bool) -> bool:
            """Fold one finished/doomed future into the queues; returns
            True if its worker crashed (pool needs recycling)."""
            try:
                rows = future.result(timeout=0)
            except CancelledError:
                # Never started: requeue without charging an attempt.
                for key in chunk.keys:
                    attempts[key] -= 1
                    requeue(key, attempts[key], charge_backoff=False)
                return False
            except Exception as error:  # noqa: BLE001 - charged per task
                if overdue:
                    budget = chunk.budget_s or 0.0
                    detail = f"deadline exceeded ({budget:.1f}s); worker killed"
                    for key in chunk.keys:
                        fail_or_requeue(key, "timeout", detail)
                else:
                    for key in chunk.keys:
                        self.stats.worker_crashes += 1
                        fail_or_requeue(key, "crash", repr(error))
                return True
            for key, result, err in rows:
                if err is None:
                    stash.pop(key, None)
                    on_success(key, result)
                else:
                    fail_or_requeue(key, "error", err)
            return False

        def submit(ready: List[str]) -> None:
            # With no deadline, the initial wave is round-robin sharded
            # into one chunk per worker (pickling amortised across the
            # shard, exactly the pre-resilience fan-out); with a
            # deadline every task travels alone so reaping is per-task
            # precise. Retries always travel alone.
            pool = self._acquire_pool()
            if policy.deadline_s is None and len(ready) > self.jobs:
                groups = [ready[i::self.jobs] for i in range(self.jobs)]
            else:
                groups = [[key] for key in ready]
            submitted_at = self.clock()
            for group in groups:
                if not group:
                    continue
                rows: List[ChunkRow] = []
                for key in group:
                    attempts[key] += 1
                    stash[key] = pending.pop(key)
                    rows.append((key, stash[key], attempts[key]))
                budget = None
                if policy.deadline_s is not None:
                    budget = policy.deadline_s * len(rows)
                try:
                    future = pool.submit(self.worker, rows)
                except BrokenProcessPool:
                    # A worker died after this wave began, so this group
                    # never started: requeue it uncharged. The dead
                    # worker's own future reports the crash and recycles
                    # the pool; with none in flight, recycle here.
                    for key in group:
                        attempts[key] -= 1
                        requeue(key, attempts[key], charge_backoff=False)
                    if not in_flight:
                        self._recycle_pool()
                    return
                in_flight[future] = _Chunk(rows, submitted_at, budget)

        try:
            while pending or in_flight:
                now = self.clock()
                ready = [key for key in pending
                         if eligible_at.get(key, 0.0) <= now]
                if gate is not None and ready:
                    passed = []
                    for key in ready:
                        detail = gate(key)
                        if detail is None:
                            passed.append(key)
                        else:
                            pending.pop(key)
                            on_failure(key, "quarantined", detail)
                    ready = passed
                if ready:
                    submit(ready)
                if not in_flight:
                    if not pending:
                        break
                    wake = min(eligible_at[key] for key in pending)
                    delay = max(0.0, wake - self.clock())
                    if delay > 0:
                        self.sleep(delay)
                    continue

                # Block until a future completes, a backoff expires, or
                # the deadline poll tick elapses.
                timeout = policy.poll_s if policy.deadline_s is not None \
                    else None
                if pending:
                    wake = min(eligible_at[key] for key in pending)
                    until_wake = max(0.0, wake - self.clock())
                    timeout = until_wake if timeout is None \
                        else min(timeout, until_wake)
                wait(set(in_flight), timeout=timeout,
                     return_when=FIRST_COMPLETED)

                crashed = False
                for future in [f for f in in_flight if f.done()]:
                    chunk = in_flight.pop(future)
                    crashed |= harvest(future, chunk, overdue=False)
                if crashed:
                    self._recycle_pool()

                if policy.deadline_s is not None and in_flight:
                    now = self.clock()
                    overdue = {future for future, chunk in in_flight.items()
                               if chunk.budget_s is not None
                               and now - chunk.submitted_at > chunk.budget_s}
                    if overdue:
                        self.stats.deadline_kills += sum(
                            len(in_flight[f].rows) for f in overdue)
                        self._recycle_pool(kill=True)
                        for future in list(in_flight):
                            chunk = in_flight.pop(future)
                            harvest(future, chunk,
                                    overdue=future in overdue)
        finally:
            self.close()
        return self.stats
