"""Tests for the resilience layer: journal, policies, supervisor, chaos.

Covers the CRC-framed journal (roundtrip, torn tail, corrupt lines),
deterministic backoff and the circuit breaker, the supervised pool
(reuse, crash recovery, deadline reaping) against real worker
processes, and the chaos harness's bit-identity guarantee.
"""

from __future__ import annotations

import dataclasses
import os
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.config.system import MIB, SystemConfig
from repro.errors import CampaignError
from repro.experiments.campaign import ResultCache, run_campaign, tasks_for
from repro.resilience import (
    CampaignJournal,
    ChaosConfig,
    ChaosStore,
    CircuitBreaker,
    RetryPolicy,
    TaskSupervisor,
    render_manifest,
)
from repro.resilience.chaos import maybe_fault
from repro.resilience.store import quarantine_entry

FAST = SystemConfig(cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
                    cores=2)
DEMANDS = 60
SEED = 13


def fast_tasks(designs=("tdram", "no_cache"), specs=("cg.C", "bfs.22"),
               seeds=(SEED,)):
    return tasks_for(designs, specs, config=FAST, demands_per_core=DEMANDS,
                     seeds=list(seeds))


# ----------------------------------------------------------------------
# Journal
# ----------------------------------------------------------------------
class TestJournal:
    def test_roundtrip(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.record_start(3)
        journal.record_done("k1", "a/b@1", {"design": "tdram", "x": 1})
        journal.record_done("k2", "a/c@1", {"design": "tdram", "x": 2})
        journal.record_failed("k3", "a/d@1", "error", "boom", 3)
        journal.close()
        replay = CampaignJournal(tmp_path / "j.jsonl").replay()
        assert replay.corrupt == 0 and replay.records == 4
        assert replay.results["k1"]["x"] == 1
        assert replay.results["k2"]["x"] == 2
        assert replay.failed == {"k3": "boom"}

    def test_torn_tail_is_counted_not_fatal(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, fsync=False)
        journal.record_done("k1", "a@1", {"x": 1})
        journal.record_done("k2", "a@2", {"x": 2})
        journal.close()
        # SIGKILL mid-append: the final line is cut short.
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        replay = CampaignJournal(path).replay()
        assert replay.results == {"k1": {"x": 1}}
        assert replay.corrupt == 1

    def test_crc_mismatch_skips_the_record(self, tmp_path):
        path = tmp_path / "j.jsonl"
        journal = CampaignJournal(path, fsync=False)
        journal.record_done("k1", "a@1", {"x": 1})
        journal.close()
        line = path.read_bytes()
        flipped = line.replace(b'"x":1', b'"x":9')  # payload edited, CRC not
        path.write_bytes(flipped)
        replay = CampaignJournal(path).replay()
        assert replay.results == {} and replay.corrupt == 1

    def test_missing_file_replays_empty(self, tmp_path):
        replay = CampaignJournal(tmp_path / "missing.jsonl").replay()
        assert replay.results == {} and replay.records == 0

    def test_done_after_failed_wins(self, tmp_path):
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        journal.record_failed("k1", "a@1", "crash", "died", 1)
        journal.record_done("k1", "a@1", {"x": 1})
        journal.close()
        replay = journal.replay()
        assert "k1" in replay.results and "k1" not in replay.failed


# ----------------------------------------------------------------------
# Policies
# ----------------------------------------------------------------------
class TestRetryPolicy:
    def test_backoff_disabled_by_default(self):
        assert RetryPolicy().backoff_s("k", 1) == 0.0

    def test_backoff_doubles_and_caps(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_cap_s=3.0,
                             backoff_jitter=0.0)
        assert policy.backoff_s("k", 1) == 1.0
        assert policy.backoff_s("k", 2) == 2.0
        assert policy.backoff_s("k", 3) == 3.0  # capped, not 4.0

    def test_jitter_is_deterministic_and_bounded(self):
        policy = RetryPolicy(backoff_base_s=1.0, backoff_jitter=0.25,
                             jitter_seed=42)
        first = policy.backoff_s("key", 1)
        assert first == RetryPolicy(backoff_base_s=1.0, backoff_jitter=0.25,
                                    jitter_seed=42).backoff_s("key", 1)
        assert 0.75 <= first <= 1.25
        assert first != policy.backoff_s("other", 1)

    def test_jitter_seed_changes_the_schedule(self):
        a = RetryPolicy(backoff_base_s=1.0, jitter_seed=1).backoff_s("k", 1)
        b = RetryPolicy(backoff_base_s=1.0, jitter_seed=2).backoff_s("k", 1)
        assert a != b


class TestCircuitBreaker:
    def test_opens_on_distinct_seeds_only(self):
        breaker = CircuitBreaker(threshold=2)
        breaker.record_failure("tdram", "cg.C", 1)
        breaker.record_failure("tdram", "cg.C", 1)  # same seed again
        assert not breaker.is_open("tdram", "cg.C")
        breaker.record_failure("tdram", "cg.C", 2)
        assert breaker.is_open("tdram", "cg.C")
        assert not breaker.is_open("tdram", "bfs.22")
        assert breaker.quarantined() == {"tdram/cg.C": [1, 2]}

    def test_disabled_at_zero_threshold(self):
        breaker = CircuitBreaker(threshold=0)
        for seed in range(10):
            breaker.record_failure("tdram", "cg.C", seed)
        assert not breaker.is_open("tdram", "cg.C")
        assert breaker.quarantined() == {}


class TestManifest:
    def test_render_empty(self):
        assert render_manifest([]) == "no failures"

    def test_render_aligns_and_truncates(self):
        from repro.resilience import TaskFailure

        rows = [TaskFailure("k" * 64, "tdram/cg.C@7", "crash", 3, "x" * 100),
                TaskFailure("a" * 64, "no_cache/bfs.22@7", "error", 1, "e")]
        text = render_manifest(rows)
        lines = text.splitlines()
        assert lines[0].startswith("TASK")
        assert len(lines) == 3
        assert "..." in lines[1] and len(lines[1]) < 150


# ----------------------------------------------------------------------
# Store quarantine
# ----------------------------------------------------------------------
class TestQuarantine:
    def test_quarantine_entry_moves_the_file(self, tmp_path):
        path = tmp_path / "entry.json"
        path.write_text("garbage")
        moved = quarantine_entry(path)
        assert moved == tmp_path / "entry.json.corrupt"
        assert moved.exists() and not path.exists()

    def test_quarantine_missing_file_is_none(self, tmp_path):
        assert quarantine_entry(tmp_path / "absent.json") is None


# ----------------------------------------------------------------------
# Supervisor (real process pool)
# ----------------------------------------------------------------------
def _double_worker(rows):
    return [(key, payload[0] * 2, None) for key, payload, _attempt in rows]


def _flaky_worker(rows):
    out = []
    for key, payload, attempt in rows:
        if attempt == 1:
            out.append((key, None, "ValueError('first attempt fails')"))
        else:
            out.append((key, payload[0] * 2, None))
    return out


def _dying_worker(rows):
    for _key, _payload, attempt in rows:
        if attempt == 1:
            os._exit(137)
    return [(key, payload[0] * 2, None) for key, payload, _attempt in rows]


def _sleepy_worker(rows):
    for _key, _payload, attempt in rows:
        if attempt == 1:
            time.sleep(60)
    return [(key, payload[0] * 2, None) for key, payload, _attempt in rows]


def _drive(worker, payloads, policy):
    results, failures = {}, {}
    attempts = {key: 0 for key in payloads}

    def on_success(key, value):
        results[key] = value

    def on_failure(key, kind, detail):
        attempts[key] += 1
        if attempts[key] <= policy.retries:
            return True
        failures[key] = (kind, detail)
        return False

    supervisor = TaskSupervisor(jobs=2, policy=policy, worker=worker)
    stats = supervisor.run(payloads, on_success, on_failure)
    return results, failures, stats


class TestSupervisor:
    PAYLOADS = {f"k{i}": (i,) for i in range(6)}

    def test_clean_run_uses_exactly_one_pool(self):
        results, failures, stats = _drive(_double_worker, self.PAYLOADS,
                                          RetryPolicy(retries=0))
        assert results == {f"k{i}": 2 * i for i in range(6)}
        assert not failures
        assert stats.pools_created == 1 and stats.pool_recycles == 0

    def test_error_retries_reuse_the_pool(self):
        """Worker *errors* (exceptions inside a healthy worker) retry
        on the same pool — recycling is only for crashes."""
        results, failures, stats = _drive(_flaky_worker, self.PAYLOADS,
                                          RetryPolicy(retries=2))
        assert results == {f"k{i}": 2 * i for i in range(6)}
        assert not failures
        assert stats.pools_created == 1 and stats.pool_recycles == 0

    def test_worker_death_recycles_and_retry_succeeds(self):
        """Satellite: a worker that dies on attempt 1 is detected, the
        pool recycled, and attempt 2 completes the task."""
        payloads = {"k0": (0,), "k1": (1,)}
        results, failures, stats = _drive(_dying_worker, payloads,
                                          RetryPolicy(retries=3))
        assert results == {"k0": 0, "k1": 2}
        assert not failures
        assert stats.worker_crashes >= 1
        assert stats.pool_recycles >= 1
        assert stats.pools_created == stats.pool_recycles + 1

    def test_pool_broken_between_submits_of_one_wave(self):
        """A worker that dies before the wave's next submit makes that
        submit raise: the unsent task is requeued without being charged,
        the dead task is charged as a crash, and a fresh pool runs both."""
        pools = []

        class PoolBrokenMidWave:
            def __init__(self, max_workers, initializer, initargs):
                self.breaks = not pools
                self.submits = 0
                pools.append(self)

            def submit(self, fn, rows):
                future = Future()
                self.submits += 1
                if self.breaks and self.submits > 1:
                    raise BrokenProcessPool("a child process died")
                if self.breaks:
                    future.set_exception(
                        BrokenProcessPool("a child process died"))
                else:
                    future.set_result(fn(rows))
                return future

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        charged = []

        def on_failure(key, kind, detail):
            charged.append((key, kind))
            return True

        results = {}
        supervisor = TaskSupervisor(jobs=2, policy=RetryPolicy(retries=3),
                                    worker=_double_worker,
                                    pool_factory=PoolBrokenMidWave)
        stats = supervisor.run({"k0": (0,), "k1": (1,)},
                               results.__setitem__, on_failure)
        assert results == {"k0": 0, "k1": 2}
        assert charged == [("k0", "crash")]
        assert stats.worker_crashes == 1
        assert stats.pools_created == 2 and stats.pool_recycles == 1

    def test_deadline_reaps_hung_worker(self):
        """A task sleeping 60s under a 0.5s deadline is killed and
        retried; the whole run finishes in seconds."""
        payloads = {"k0": (0,), "k1": (1,)}
        policy = RetryPolicy(retries=2, deadline_s=1.0, poll_s=0.05)
        start = time.monotonic()
        results, failures, stats = _drive(_sleepy_worker, payloads, policy)
        assert time.monotonic() - start < 30
        assert results == {"k0": 0, "k1": 2}
        assert not failures
        assert stats.deadline_kills >= 1

    def test_exhausted_failures_report_kind(self):
        def deny(key, kind, detail):
            failures[key] = kind
            return False

        failures = {}
        supervisor = TaskSupervisor(jobs=2, policy=RetryPolicy(retries=0),
                                    worker=_flaky_worker)
        supervisor.run({"k0": (0,)}, lambda *_: None, deny)
        assert failures == {"k0": "error"}

    def test_gate_quarantines_before_submission(self):
        seen = {}

        def gate(key):
            return "blocked" if key == "k1" else None

        def on_failure(key, kind, detail):
            seen[key] = (kind, detail)
            return False

        results = {}
        supervisor = TaskSupervisor(jobs=2, policy=RetryPolicy(retries=0),
                                    worker=_double_worker)
        supervisor.run({"k0": (5,), "k1": (6,)},
                       lambda key, value: results.update({key: value}),
                       on_failure, gate=gate)
        assert results == {"k0": 10}
        assert seen == {"k1": ("quarantined", "blocked")}


# ----------------------------------------------------------------------
# Chaos
# ----------------------------------------------------------------------
class TestChaosConfig:
    def test_schedule_is_deterministic(self):
        a = ChaosConfig(seed=7, kill_prob=0.5)
        b = ChaosConfig(seed=7, kill_prob=0.5)
        keys = [f"key{i}" for i in range(32)]
        assert [a.should_kill(k, 1) for k in keys] == \
            [b.should_kill(k, 1) for k in keys]
        assert any(a.should_kill(k, 1) for k in keys)
        assert not all(a.should_kill(k, 1) for k in keys)

    def test_faults_bounded_to_early_attempts(self):
        chaos = ChaosConfig(seed=1, kill_prob=1.0, hang_prob=1.0,
                            max_faulted_attempts=1)
        assert chaos.should_kill("k", 1) and chaos.should_hang("k", 1)
        assert not chaos.should_kill("k", 2)
        assert not chaos.should_hang("k", 2)

    def test_inactive_by_default(self):
        assert not ChaosConfig().active
        assert ChaosConfig(kill_prob=0.1).active

    def test_maybe_fault_none_is_noop(self):
        maybe_fault(None, "k", 1)  # must not raise (nor exit!)
        maybe_fault(ChaosConfig(), "k", 1)


class TestChaosStore:
    def _result(self):
        outcome = run_campaign(fast_tasks(("tdram",), ("cg.C",)), jobs=1)
        return outcome.results[0]

    def test_enospc_fails_first_put_only(self, tmp_path):
        store = ChaosStore(ResultCache(tmp_path), ChaosConfig(enospc_prob=1.0))
        result = self._result()
        with pytest.raises(OSError):
            store.put("ab" * 32, result)
        assert store.injected_enospc == 1
        store.put("ab" * 32, result)  # the retry lands
        assert "ab" * 32 in store

    def test_corruption_is_quarantined_on_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        store = ChaosStore(cache, ChaosConfig(corrupt_prob=1.0))
        key = "cd" * 32
        store.put(key, self._result())
        assert store.injected_corrupt == 1
        assert store.get(key) is None
        assert store.corrupt == 1
        assert cache.path(key).with_name(
            cache.path(key).name + ".corrupt").exists()


# ----------------------------------------------------------------------
# Campaign integration
# ----------------------------------------------------------------------
class TestResilientCampaign:
    def test_clean_parallel_campaign_has_no_pool_churn(self):
        """Satellite: one pool for the whole campaign, even though the
        engine supports retry rounds."""
        outcome = run_campaign(fast_tasks(), jobs=2, clamp_jobs=False)
        assert outcome.simulated == len(fast_tasks())
        assert outcome.stats["pools_created"] == 1
        assert outcome.stats["pool_recycles"] == 0

    def test_journal_resume_without_cache_replays_exactly(self, tmp_path):
        tasks = fast_tasks()
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        first = run_campaign(tasks, jobs=1, journal=journal)
        assert first.simulated == len(tasks)
        resumed = run_campaign(tasks, jobs=1,
                               journal=CampaignJournal(tmp_path / "j.jsonl"))
        assert resumed.simulated == 0 and resumed.cached == 0
        assert resumed.replayed == len(tasks)
        for left, right in zip(first.results, resumed.results):
            assert dataclasses.asdict(left) == dataclasses.asdict(right)

    def test_cache_beats_journal_on_resume(self, tmp_path):
        tasks = fast_tasks(("tdram",), ("cg.C",))
        cache = ResultCache(tmp_path / "cache")
        journal = CampaignJournal(tmp_path / "j.jsonl", fsync=False)
        run_campaign(tasks, jobs=1, cache=cache, journal=journal)
        resumed = run_campaign(tasks, jobs=1, cache=cache, journal=journal)
        assert resumed.cached == 1 and resumed.replayed == 0

    def test_exhausted_campaign_returns_partial_results_and_manifest(self):
        """Acceptance: retry exhaustion degrades to partial results
        plus a structured manifest, not an exception."""
        good = fast_tasks(("tdram",), ("cg.C",))[0]
        bad = fast_tasks(("not_a_design",), ("bfs.22",))[0]
        outcome = run_campaign([good, bad], jobs=1, retries=1, strict=False)
        assert outcome.results[0] is not None and outcome.results[1] is None
        assert len(outcome.manifest) == 1
        failure = outcome.manifest[0]
        assert failure.kind == "error" and failure.attempts == 2
        assert failure.label == bad.label
        assert "TASK" in render_manifest(outcome.manifest)

    def test_strict_campaign_error_carries_the_manifest(self):
        bad = fast_tasks(("not_a_design",), ("bfs.22",))[0]
        with pytest.raises(CampaignError) as exc:
            run_campaign([bad], jobs=1, retries=0)
        assert len(exc.value.manifest) == 1
        assert exc.value.manifest[0].kind == "error"

    def test_breaker_quarantines_remaining_seeds(self):
        """After two distinct seeds of a combo fail, the third seed is
        quarantined without burning retries on it."""
        tasks = fast_tasks(("not_a_design",), ("cg.C",), seeds=(1, 2, 3))
        policy = RetryPolicy(retries=0, breaker_threshold=2)
        outcome = run_campaign(tasks, jobs=1, policy=policy, strict=False)
        kinds = sorted(f.kind for f in outcome.manifest)
        assert kinds == ["error", "error", "quarantined"]
        assert outcome.quarantined == {"not_a_design/cg.C": [1, 2]}

    def test_serial_backoff_uses_the_policy_schedule(self):
        task = fast_tasks(("tdram",), ("cg.C",))[0]
        calls = {"n": 0}

        def flaky(t):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient")
            from repro.experiments.runner import run_experiment

            return run_experiment(t.design, t.workload, config=t.config,
                                  demands_per_core=t.demands_per_core,
                                  seed=t.seed)

        slept = []
        policy = RetryPolicy(retries=1, backoff_base_s=0.5, jitter_seed=9)
        outcome = run_campaign([task], jobs=1, policy=policy, runner=flaky,
                               sleep=slept.append)
        assert outcome.ok and outcome.retried == 1
        assert slept == [policy.backoff_s(task.key, 1)]

    def test_store_error_degrades_gracefully(self, tmp_path):
        task = fast_tasks(("tdram",), ("cg.C",))[0]
        store = ChaosStore(ResultCache(tmp_path), ChaosConfig(enospc_prob=1.0))
        outcome = run_campaign([task], jobs=1, cache=store)
        assert outcome.ok and outcome.results[0] is not None
        assert outcome.store_errors == 1
        assert "store_errors=1" in outcome.summary()

    def test_series_records_progress(self):
        outcome = run_campaign(fast_tasks(("tdram",), ("cg.C",)), jobs=1)
        assert outcome.series["simulated"][-1] == 1
        assert outcome.series["done"][-1] == 1
        assert len(outcome.series["t_s"]) == 1

    def test_chaos_campaign_bit_identical_to_clean(self):
        """Acceptance: injected worker kills change nothing about the
        final results."""
        tasks = fast_tasks()
        clean = run_campaign(tasks, jobs=2, clamp_jobs=False)
        chaos = ChaosConfig(seed=3, kill_prob=1.0, max_faulted_attempts=1)
        faulted = run_campaign(tasks, jobs=2, clamp_jobs=False, chaos=chaos,
                               retries=3)
        assert faulted.stats["worker_crashes"] >= 1
        for left, right in zip(clean.results, faulted.results):
            assert dataclasses.asdict(left) == dataclasses.asdict(right)
