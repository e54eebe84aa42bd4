"""Parallel campaign engine with a content-addressed on-disk cache.

The paper's evaluation is a 28-workload x 7-design sweep (§IV); every
figure, sweep, and ablation is ultimately a batch of independent
``(design, workload, seed)`` simulations. This module turns such a
batch into a *campaign*:

* each run is a :class:`CampaignTask`, identified by a stable
  content-addressed :func:`cache_key` over everything that determines
  its outcome (design, workload spec, full :class:`SystemConfig`,
  work quantum, seed);
* :func:`run_campaign` fans tasks out over a supervised process pool
  (:class:`repro.resilience.supervisor.TaskSupervisor`): one pool,
  reused across retry rounds, with per-task wall-clock deadlines,
  seeded exponential backoff between attempts, and a circuit breaker
  that quarantines a ``(design, workload)`` combo after repeated
  distinct-seed failures — results are bit-identical to the serial
  path because every simulation is seeded explicitly per task;
* a :class:`ResultCache` persists each :class:`RunResult` as JSON
  under its key (atomic writes, corrupt entries quarantined and
  counted), and an optional
  :class:`~repro.resilience.journal.CampaignJournal` makes progress
  durable: ``--resume`` after SIGKILL replays completed tasks exactly
  and re-simulates only what was in flight;
* a campaign that exhausts retries degrades gracefully: partial
  results plus a structured error manifest
  (:class:`~repro.resilience.policies.TaskFailure` rows) instead of an
  exception, unless ``strict``.

The engine is deliberately dependency-free: tasks and results are
plain dataclasses, keys are SHA-256 hexdigests, and the cache is a
directory of small JSON files safe to rsync or commit to CI artifact
storage. Fault-tolerance semantics are specified in
``docs/resilience.md``.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.config.system import SystemConfig
from repro.errors import CampaignError
from repro.experiments.runner import RunResult, run_experiment
from repro.obs.campaign import CampaignSeries
from repro.resilience.chaos import ChaosConfig, maybe_fault
from repro.resilience.journal import CampaignJournal
from repro.resilience.policies import CircuitBreaker, RetryPolicy, TaskFailure
from repro.resilience.store import ResultStore, quarantine_entry
from repro.resilience.supervisor import TaskSupervisor
from repro.workloads.base import WorkloadSpec
from repro.workloads.suite import workload as lookup_workload

#: Bump to invalidate every existing cache entry (simulator behaviour
#: changes that alter results without touching any key ingredient).
CACHE_VERSION = 2

#: ``progress(done, total, label, source, eta_s)`` — ``source`` is one
#: of "cached", "simulated", "replayed", "retried", "failed", or
#: "quarantined"; ``eta_s`` is the estimated remaining wall-clock
#: (None until one simulation finished).
ProgressFn = Callable[[int, int, str, str, Optional[float]], None]


# ---------------------------------------------------------------------------
# Content-addressed keys
# ---------------------------------------------------------------------------
def _canonical(value):
    """Reduce any config/spec value to a canonical JSON-able form."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            spec.name: _canonical(getattr(value, spec.name))
            for spec in dataclasses.fields(value)
        }
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def cache_key(
    design: str,
    spec: Union[WorkloadSpec, str],
    config: SystemConfig,
    demands_per_core: int,
    seed: int,
) -> str:
    """Stable SHA-256 key over everything that determines a RunResult.

    Two invocations share a key iff they would produce bit-identical
    results: the key covers the design, the *full* workload spec (not
    just its name), every ``SystemConfig`` field (timings, energy
    model, RAS campaign, geometry), the work quantum, the seed, and
    :data:`CACHE_VERSION`.
    """
    if isinstance(spec, str):
        spec = lookup_workload(spec)
    payload = {
        "v": CACHE_VERSION,
        "design": design,
        "workload": _canonical(spec),
        "config": _canonical(config),
        "demands_per_core": demands_per_core,
        "seed": seed,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Tasks
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class CampaignTask:
    """One fully-specified simulation: ``(design, workload, seed)``
    under a given configuration and work quantum.

    ``trace_dir`` requests a per-run Chrome trace artifact written
    beside the cached result (``<trace_dir>/<key[:2]>/<key>.trace.json``)
    when ``config.obs.trace`` is on. It is a *destination*, not an
    outcome ingredient, so it is deliberately outside the cache key —
    the obs settings themselves (which do change the RunResult) are
    covered because the key canonicalises the full ``SystemConfig``.
    """

    design: str
    workload: WorkloadSpec
    config: SystemConfig
    demands_per_core: int = 600
    seed: int = 7
    trace_dir: Optional[str] = None

    @property
    def key(self) -> str:
        # Memoised: canonicalising the full SystemConfig and hashing it
        # is expensive, and a campaign touches every task's key several
        # times (dedupe, cache probe, result alignment). The fields are
        # frozen, so the key can never go stale.
        key = self.__dict__.get("_key")
        if key is None:
            key = cache_key(self.design, self.workload, self.config,
                            self.demands_per_core, self.seed)
            object.__setattr__(self, "_key", key)
        return key

    @property
    def label(self) -> str:
        return f"{self.design}/{self.workload.name}@{self.seed}"


def trace_artifact_path(root: Union[str, Path], key: str) -> Path:
    """Where a task's Chrome trace lands: sharded like the result cache
    (``<root>/<key[:2]>/<key>.trace.json``)."""
    return Path(root) / key[:2] / f"{key}.trace.json"


def tasks_for(
    designs: Sequence[str],
    specs: Sequence[Union[WorkloadSpec, str]],
    config: Optional[SystemConfig] = None,
    demands_per_core: int = 600,
    seeds: Sequence[int] = (7,),
    trace_dir: Optional[str] = None,
) -> List[CampaignTask]:
    """The deterministic task list of a designs x workloads x seeds
    campaign (iteration order: design-major, then workload, then seed).

    Seeding is explicit and per-task: each task carries its own seed
    drawn from ``seeds``, so results never depend on pool scheduling.
    """
    resolved = [lookup_workload(s) if isinstance(s, str) else s for s in specs]
    config = config or SystemConfig.small()
    return [
        CampaignTask(design=design, workload=spec, config=config,
                     demands_per_core=demands_per_core, seed=seed,
                     trace_dir=trace_dir)
        for design in designs
        for spec in resolved
        for seed in seeds
    ]


def _execute_task(task: CampaignTask) -> RunResult:
    """Worker entry point (module-level so it pickles under any start
    method); runs one simulation exactly as the serial path would."""
    trace_out = None
    if task.trace_dir is not None and task.config.obs.trace:
        path = trace_artifact_path(task.trace_dir, task.key)
        path.parent.mkdir(parents=True, exist_ok=True)
        trace_out = str(path)
    return run_experiment(task.design, task.workload, config=task.config,
                          demands_per_core=task.demands_per_core,
                          seed=task.seed, trace_out=trace_out)


#: Per-process tables installed by :func:`_pool_init`; task payloads
#: reference configs/specs by index so the (identical, often large)
#: objects are pickled once per worker instead of once per task.
_POOL_CONFIGS: List[SystemConfig] = []
_POOL_SPECS: List[WorkloadSpec] = []
_POOL_CHAOS: Optional[ChaosConfig] = None


def _pool_init(configs: List[SystemConfig], specs: List[WorkloadSpec],
               chaos: Optional[ChaosConfig] = None) -> None:
    """Worker initializer: install the campaign's shared config and
    workload-spec tables (and any chaos schedule) once per process."""
    global _POOL_CONFIGS, _POOL_SPECS, _POOL_CHAOS
    _POOL_CONFIGS = configs
    _POOL_SPECS = specs
    _POOL_CHAOS = chaos


def _execute_shard(runner: Callable[[CampaignTask], RunResult],
                   rows: List[tuple]) -> List[tuple]:
    """Worker entry for one chunk of ``(key, payload, attempt)`` rows.

    Rebuilds each task from the per-process tables and runs it; a
    per-task exception is caught and reported as a ``(key, None,
    repr)`` row so one bad task cannot poison the rest of its chunk.
    The chaos hook runs first so injected kills/hangs hit before any
    simulation work, exactly like a real crash would.
    """
    out: List[tuple] = []
    for key, payload, attempt in rows:
        design, config_idx, spec_idx, demands, seed, trace_dir = payload
        maybe_fault(_POOL_CHAOS, key, attempt)
        task = CampaignTask(
            design=design, workload=_POOL_SPECS[spec_idx],
            config=_POOL_CONFIGS[config_idx], demands_per_core=demands,
            seed=seed, trace_dir=trace_dir,
        )
        try:
            out.append((key, runner(task), None))
        except Exception as error:  # noqa: BLE001 - retried by the driver
            out.append((key, None, repr(error)))
    return out


# ---------------------------------------------------------------------------
# On-disk result cache
# ---------------------------------------------------------------------------
class ResultCache(ResultStore):
    """Content-addressed JSON store of :class:`RunResult`s.

    Layout: ``<root>/<key[:2]>/<key>.json`` — each file holds the task
    metadata (for human inspection) and the result fields. Writes are
    atomic (temp file + ``os.replace``), so a campaign killed mid-write
    never leaves a corrupt entry. An entry that nevertheless fails to
    decode (bit rot, torn copy, chaos injection) is **quarantined** to
    ``<key>.json.corrupt`` and counted in :attr:`corrupt` — visible in
    the campaign summary as ``cache_corrupt`` — never silently
    re-simulated; stale-schema entries are ordinary misses.
    """

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.corrupt = 0

    def path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def trace_path(self, key: str) -> Path:
        """Where a Chrome trace for ``key`` lands when a campaign runs
        with tracing on (see :func:`trace_artifact_path`)."""
        return trace_artifact_path(self.root, key)

    def get(self, key: str) -> Optional[RunResult]:
        path = self.path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
        except OSError:
            self.misses += 1
            return None
        except ValueError:
            # Undecodable bytes under a complete file: quarantine the
            # entry where an operator can inspect it and count it.
            self.corrupt += 1
            self.misses += 1
            quarantine_entry(path)
            return None
        if not isinstance(payload, dict):
            self.corrupt += 1
            self.misses += 1
            quarantine_entry(path)
            return None
        result = result_from_dict(payload.get("result", {}))
        if result is None:
            self.misses += 1
        else:
            self.hits += 1
        return result

    def put(self, key: str, result: RunResult,
            task: Optional[CampaignTask] = None) -> Path:
        path = self.path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "key": key,
            "version": CACHE_VERSION,
            "result": dataclasses.asdict(result),
        }
        if task is not None:
            payload["task"] = {
                "design": task.design,
                "workload": task.workload.name,
                "demands_per_core": task.demands_per_core,
                "seed": task.seed,
            }
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, sort_keys=True)
        os.replace(tmp, path)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))


def result_from_dict(data: Dict[str, object]) -> Optional[RunResult]:
    """Rebuild a :class:`RunResult` from its JSON dict, or ``None`` if
    the entry predates the current schema (missing required fields)."""
    if not isinstance(data, dict):
        return None
    names = {spec.name for spec in dataclasses.fields(RunResult)}
    kwargs = {k: v for k, v in data.items() if k in names}
    try:
        return RunResult(**kwargs)
    except TypeError:
        return None


# ---------------------------------------------------------------------------
# Campaign execution
# ---------------------------------------------------------------------------
@dataclass
class CampaignOutcome:
    """What a campaign did: results aligned with the input task list
    plus execution accounting and the structured error manifest."""

    results: List[Optional[RunResult]]
    by_key: Dict[str, RunResult]
    simulated: int = 0
    cached: int = 0
    #: tasks served from the campaign journal on resume
    replayed: int = 0
    retried: int = 0
    failures: Dict[str, str] = field(default_factory=dict)
    #: structured failure rows (kind, attempts, detail) behind
    #: ``failures`` — the error manifest of a degraded campaign
    manifest: List[TaskFailure] = field(default_factory=list)
    #: circuit-breaker state: ``{"design/workload": [failed seeds]}``
    quarantined: Dict[str, List[int]] = field(default_factory=dict)
    #: corrupt cache entries quarantined during this campaign
    cache_corrupt: int = 0
    #: result-store writes that failed (ENOSPC and friends); the
    #: in-memory results are unaffected
    store_errors: int = 0
    #: supervisor accounting (pools created/recycled, deadline kills,
    #: worker crashes, backoff totals); empty for serial runs
    stats: Dict[str, float] = field(default_factory=dict)
    #: campaign-level progress time series (see repro.obs.campaign)
    series: Dict[str, List[float]] = field(default_factory=dict)
    wall_s: float = 0.0
    #: worker count actually used (after the cpu_count clamp); 0 until
    #: run_campaign fills it in
    jobs: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self, jobs: Optional[int] = None) -> str:
        jobs = self.jobs if jobs is None else jobs
        return (f"campaign: tasks={len(self.results)} "
                f"simulated={self.simulated} cached={self.cached} "
                f"replayed={self.replayed} retried={self.retried} "
                f"failures={len(self.failures)} "
                f"quarantined={len(self.quarantined)} "
                f"cache_corrupt={self.cache_corrupt} "
                f"store_errors={self.store_errors} "
                f"wall={self.wall_s:.1f}s jobs={jobs}")


def run_campaign(
    tasks: Sequence[CampaignTask],
    jobs: int = 1,
    cache: Optional[ResultStore] = None,
    reuse_cache: bool = True,
    retries: int = 2,
    progress: Optional[ProgressFn] = None,
    strict: bool = True,
    runner: Callable[[CampaignTask], RunResult] = _execute_task,
    clamp_jobs: bool = True,
    policy: Optional[RetryPolicy] = None,
    journal: Optional[CampaignJournal] = None,
    chaos: Optional[ChaosConfig] = None,
    pool_factory=None,
    sleep: Callable[[float], None] = time.sleep,
) -> CampaignOutcome:
    """Execute a batch of simulations, in parallel, resumably.

    Parameters
    ----------
    jobs:
        Worker processes. ``1`` runs everything in-process (no pool,
        no pickling) and is bit-identical to calling
        :func:`~repro.experiments.runner.run_experiment` in a loop.
        Values above ``os.cpu_count()`` are clamped (see
        ``clamp_jobs``): oversubscribed workers only add pickling and
        context-switch cost, they cannot add parallelism.
    cache:
        Optional :class:`~repro.resilience.store.ResultStore` (usually
        a :class:`ResultCache`). Fresh results are always written to
        it; existing entries are only *read* when ``reuse_cache``. A
        failing write (disk full) is counted in
        ``outcome.store_errors`` and degrades gracefully.
    retries:
        Extra attempts per task after a worker crash or error
        (shorthand for ``policy.retries`` when no ``policy`` is
        given). Retries re-run the identical task (explicit seed), so
        a retried result is indistinguishable from a first-attempt one.
    progress:
        Optional callback, see :data:`ProgressFn`.
    strict:
        Raise :class:`~repro.errors.CampaignError` (carrying the error
        manifest) if any task exhausts its retries; otherwise its slot
        in ``results`` is ``None``, the error text lands in
        ``outcome.failures``, and the structured row in
        ``outcome.manifest``.
    runner:
        Task executor (module-level for process pools); injectable for
        tests.
    clamp_jobs:
        Clamp ``jobs`` to the host's CPU count (default). Pass
        ``False`` to force the pool path regardless — used by tests
        that must exercise the parallel machinery on small hosts.
    policy:
        Full :class:`~repro.resilience.policies.RetryPolicy` (deadline,
        backoff, circuit breaker). Defaults to
        ``RetryPolicy(retries=retries)`` — the historical behaviour.
    journal:
        Optional :class:`~repro.resilience.journal.CampaignJournal`.
        Completions are durably appended as they happen; when
        ``reuse_cache`` is on, tasks the cache cannot serve are
        recovered exactly from their journal records instead of
        re-simulating (``outcome.replayed``) — resume works even with
        the cache disabled or lost.
    chaos:
        Optional :class:`~repro.resilience.chaos.ChaosConfig` injected
        into pool workers (kills/hangs). Store-level chaos is applied
        by wrapping ``cache`` in a
        :class:`~repro.resilience.chaos.ChaosStore` instead. Worker
        faults need ``jobs > 1``; the serial path ignores them.
    pool_factory / sleep:
        Injectable pool constructor and sleep (supervisor plumbing,
        for tests).
    """
    tasks = list(tasks)
    if clamp_jobs:
        jobs = max(1, min(jobs, os.cpu_count() or 1))
    policy = policy if policy is not None else RetryPolicy(retries=retries)
    breaker = CircuitBreaker(policy.breaker_threshold)
    series = CampaignSeries()
    start = time.monotonic()
    outcome = CampaignOutcome(results=[None] * len(tasks), by_key={},
                              jobs=jobs)
    corrupt_before = getattr(cache, "corrupt", 0) if cache is not None else 0

    # Dedupe on key: figure batches repeat baselines; simulate once.
    unique: Dict[str, CampaignTask] = {}
    for task in tasks:
        unique.setdefault(task.key, task)

    done = 0
    total = len(unique)
    sim_done = 0

    def eta() -> Optional[float]:
        if sim_done == 0:
            return None
        per_task = (time.monotonic() - start) / sim_done
        return per_task * (total - done)

    def report(label: str, source: str) -> None:
        outcome.cache_corrupt = (getattr(cache, "corrupt", 0)
                                 - corrupt_before) if cache is not None else 0
        series.sample(
            time.monotonic() - start, done=done, simulated=outcome.simulated,
            cached=outcome.cached, replayed=outcome.replayed,
            retried=outcome.retried, failed=len(outcome.failures),
            quarantined=sum(1 for f in outcome.manifest
                            if f.kind == "quarantined"),
            cache_corrupt=outcome.cache_corrupt,
            store_errors=outcome.store_errors,
        )
        if progress is not None:
            progress(done, total, label, source, eta())

    # Pass 0: serve from the cache.
    maybe_pending: Dict[str, CampaignTask] = {}
    for key, task in unique.items():
        hit = cache.get(key) if (cache is not None and reuse_cache) else None
        if hit is not None:
            outcome.by_key[key] = hit
            outcome.cached += 1
            done += 1
            report(task.label, "cached")
        else:
            maybe_pending[key] = task

    # Pass 1: replay the journal — tasks the cache could not serve
    # (cache disabled, lost, or quarantined-corrupt) are recovered
    # exactly from their embedded journal records, without simulating.
    pending: Dict[str, CampaignTask] = {}
    replayed = journal.replay() if (journal is not None and reuse_cache) \
        else None
    for key, task in maybe_pending.items():
        data = replayed.results.get(key) if replayed is not None else None
        result = result_from_dict(data) if data is not None else None
        if result is not None:
            outcome.by_key[key] = result
            outcome.replayed += 1
            done += 1
            report(task.label, "replayed")
        else:
            pending[key] = task
    if journal is not None:
        journal.record_start(total)

    # Pass 2: simulate what's left, under the retry/deadline/breaker
    # policy, journaling every terminal outcome.
    attempts: Dict[str, int] = {key: 0 for key in pending}

    def record(key: str, task: CampaignTask, result: RunResult) -> None:
        nonlocal done, sim_done
        outcome.by_key[key] = result
        outcome.simulated += 1
        done += 1
        sim_done += 1
        if cache is not None:
            try:
                cache.put(key, result, task)
            except OSError:
                # Graceful degradation: the in-memory result stands,
                # the failed write is counted and visible.
                outcome.store_errors += 1
        if journal is not None:
            journal.record_done(key, task.label, dataclasses.asdict(result))
        report(task.label, "simulated")

    def record_failure(key: str, task: CampaignTask, kind: str,
                       detail: str) -> bool:
        """Consume one attempt; return True if the task may retry."""
        nonlocal done
        attempts[key] += 1
        if kind != "quarantined":
            breaker.record_failure(task.design, task.workload.name, task.seed)
        if kind != "quarantined" and attempts[key] <= policy.retries:
            outcome.retried += 1
            report(task.label, "retried")
            return True
        outcome.failures[key] = f"{task.label}: {detail}"
        outcome.manifest.append(TaskFailure(
            key=key, label=task.label, kind=kind,
            attempts=attempts[key], detail=detail))
        done += 1
        if journal is not None:
            journal.record_failed(key, task.label, kind, detail,
                                  attempts[key])
        report(task.label, "failed" if kind != "quarantined"
               else "quarantined")
        return False

    def gate(key: str) -> Optional[str]:
        task = unique[key]
        if breaker.is_open(task.design, task.workload.name):
            seeds = breaker.quarantined().get(
                f"{task.design}/{task.workload.name}", [])
            return (f"circuit breaker open for {task.design}/"
                    f"{task.workload.name} (failed seeds: {seeds})")
        return None

    if jobs <= 1:
        for key, task in pending.items():
            while key not in outcome.by_key and key not in outcome.failures:
                blocked = gate(key)
                if blocked is not None:
                    record_failure(key, task, "quarantined", blocked)
                    break
                try:
                    record(key, task, runner(task))
                except Exception as error:  # noqa: BLE001 - retried/reported
                    if not record_failure(key, task, "error", repr(error)):
                        break
                    delay = policy.backoff_s(key, attempts[key])
                    if delay > 0:
                        sleep(delay)
    elif pending:
        # Index the shared config/spec objects once: payloads reference
        # them by table position, the tables ride the pool initializer,
        # so each worker unpickles them once regardless of task count.
        configs: List[SystemConfig] = []
        config_index: Dict[int, int] = {}
        specs: List[WorkloadSpec] = []
        spec_index: Dict[int, int] = {}
        payloads: Dict[str, tuple] = {}
        for key, task in pending.items():
            ci = config_index.get(id(task.config))
            if ci is None:
                ci = config_index[id(task.config)] = len(configs)
                configs.append(task.config)
            si = spec_index.get(id(task.workload))
            if si is None:
                si = spec_index[id(task.workload)] = len(specs)
                specs.append(task.workload)
            payloads[key] = (task.design, ci, si, task.demands_per_core,
                             task.seed, task.trace_dir)
        supervisor = TaskSupervisor(
            jobs=min(jobs, len(pending)),
            policy=policy,
            worker=functools.partial(_execute_shard, runner),
            initializer=_pool_init,
            initargs=(configs, specs, chaos),
            pool_factory=(pool_factory if pool_factory is not None
                          else ProcessPoolExecutor),
            sleep=sleep,
        )
        supervisor.run(
            payloads,
            on_success=lambda key, result: record(key, pending[key], result),
            on_failure=lambda key, kind, detail: record_failure(
                key, pending[key], kind, detail),
            gate=gate,
        )
        outcome.stats = supervisor.stats.as_dict()

    outcome.results = [
        outcome.by_key.get(task.key) for task in tasks
    ]
    outcome.quarantined = breaker.quarantined()
    outcome.cache_corrupt = (getattr(cache, "corrupt", 0)
                             - corrupt_before) if cache is not None else 0
    outcome.series = series.as_dict()
    outcome.wall_s = time.monotonic() - start
    if strict and outcome.failures:
        raise CampaignError(
            "campaign failed for "
            + "; ".join(sorted(outcome.failures.values())),
            manifest=outcome.manifest,
        )
    return outcome


def execute_cached(
    task: CampaignTask,
    cache: Optional[ResultStore] = None,
    reuse_cache: bool = True,
) -> RunResult:
    """Run (or fetch) a single task through the cache — the one-task
    fast path :class:`~repro.experiments.figures.ExperimentContext`
    uses for lazy, serial figure generation."""
    key = task.key
    if cache is not None and reuse_cache:
        hit = cache.get(key)
        if hit is not None:
            return hit
    result = _execute_task(task)
    if cache is not None:
        cache.put(key, result, task)
    return result
