"""Backend-tier seam tests: PCM/CXL mechanics, cache modes, registry.

These pin the hybrid backends' declared mechanisms in isolation (MSHR
coalescing and backpressure, read-priority write drain and wear,
store-to-load forwarding, CXL credits and link serialization), the
cache modes' accounting, and the registry/validation and observability
surfaces. Whole-run results of every backend and cache mode are locked
by the golden corpus (``tests/test_golden.py``).
"""

from __future__ import annotations

import pytest

from repro.config.system import MIB, SystemConfig
from repro.errors import ConfigError
from repro.experiments.runner import run_experiment
from repro.memory.backend import (
    BACKEND_COUNTERS,
    MEMORY_BACKENDS,
    build_backend,
)
from repro.memory.cxl import CxlBackend
from repro.memory.main_memory import MainMemory
from repro.memory.pcm import PcmBackend
from repro.sim.kernel import Simulator, ns


def small_config(**overrides) -> SystemConfig:
    config = SystemConfig(cache_capacity_bytes=1 * MIB,
                          mm_capacity_bytes=16 * MIB, cores=2)
    return config.with_(**overrides) if overrides else config


def make_pcm(**overrides):
    sim = Simulator()
    return sim, PcmBackend(sim, small_config(memory_backend="pcm_like",
                                             **overrides))


def make_cxl(**overrides):
    sim = Simulator()
    return sim, CxlBackend(sim, small_config(memory_backend="cxl_like",
                                             **overrides))


# ---------------------------------------------------------------------------
# Registry, validation, dispatch
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_backend_dispatch(self):
        sim = Simulator()
        expected = {"ddr5": MainMemory, "pcm_like": PcmBackend,
                    "cxl_like": CxlBackend}
        assert set(expected) == set(MEMORY_BACKENDS)
        for name, cls in expected.items():
            backend = build_backend(sim, small_config(memory_backend=name))
            assert type(backend) is cls
            assert backend.backend_name == name

    def test_unknown_backend_rejected(self):
        # The second name was once a registered backend: a stale config
        # that still names it must fail loudly, not fall back to ddr5.
        for name in ("optane", "ddr5_reference"):
            with pytest.raises(ConfigError):
                small_config(memory_backend=name)

    def test_unknown_cache_mode_rejected(self):
        with pytest.raises(ConfigError):
            small_config(cache_mode="write_through")

    @pytest.mark.parametrize("knob, bad", [
        ("pcm_read_ns", 0), ("pcm_write_ns", 0), ("pcm_drain_tick_ns", 0),
        ("pcm_mshr_entries", 0), ("pcm_write_queue_entries", 0),
        ("cxl_latency_ns", -1.0),   # zero is a legal idealized link
        ("cxl_bandwidth_gbps", 0), ("cxl_credits", 0),
    ])
    def test_bad_knobs_rejected(self, knob, bad):
        with pytest.raises(ConfigError):
            small_config(**{knob: bad})

    def test_counters_start_declared_and_zero(self):
        sim = Simulator()
        backend = PcmBackend(sim, small_config())
        for name in BACKEND_COUNTERS:
            assert backend.counters[name] == 0


# ---------------------------------------------------------------------------
# PCM mechanics
# ---------------------------------------------------------------------------
class TestPcmReads:
    def test_concurrent_reads_coalesce_into_one_array_access(self):
        sim, pcm = make_pcm()
        finishes = []
        pcm.read(5, finishes.append)
        pcm.read(5, finishes.append)
        pcm.read(5, finishes.append)
        sim.run(until=ns(1000))
        assert finishes == [ns(150.0)] * 3
        assert pcm.counters["mshr_inserts"] == 1
        assert pcm.counters["mshr_coalesced"] == 2

    def test_full_mshr_file_overflows_and_recovers(self):
        sim, pcm = make_pcm(pcm_mshr_entries=2)
        finishes = []
        for block in range(5):
            # distinct banks: no bank serialization, only MSHR pressure
            pcm.read(block, finishes.append)
        assert pcm.mshr_occupancy() == 2
        assert pcm.counters["mshr_stalls"] == 3
        sim.run(until=ns(5000))
        assert len(finishes) == 5
        assert pcm.pending() == 0
        assert pcm.counters["mshr_inserts"] == 5

    def test_overflowed_read_still_coalesces(self):
        sim, pcm = make_pcm(pcm_mshr_entries=1)
        finishes = []
        pcm.read(0, finishes.append)
        pcm.read(1, finishes.append)   # overflow
        pcm.read(1, finishes.append)   # coalesces into the overflow entry
        sim.run(until=ns(5000))
        assert len(finishes) == 3
        assert pcm.counters["mshr_coalesced"] == 1
        assert pcm.counters["mshr_inserts"] == 2


class TestPcmWrites:
    def test_write_defers_until_drain_tick(self):
        sim, pcm = make_pcm()   # tick = 50 ns, write = 500 ns
        pcm.write(3)
        assert pcm.pending_writes() == 1
        assert pcm.wear_summary()["wear_total"] == 0
        sim.run(until=ns(51))
        assert pcm.pending_writes() == 0
        assert pcm.counters["wq_drains"] == 1
        assert pcm.wear_summary() == {"wear_total": 1, "wear_max": 1}

    def test_read_preempts_deferred_write_on_same_bank(self):
        sim, pcm = make_pcm()
        banks = pcm._banks
        finishes = []
        pcm.write(0)
        pcm.read(banks, finishes.append)   # same bank 0, issues immediately
        sim.run(until=ns(5000))
        # The read reserved the bank at t=0, so the first drain ticks
        # (50 ns apart) found it busy; the write issued only after the
        # 150 ns array read released it.
        assert finishes == [ns(150.0)]
        assert pcm.counters["wq_drains"] == 1
        assert pcm.wear[0] == 1

    def test_one_write_per_bank_per_tick(self):
        sim, pcm = make_pcm()
        pcm.write(0)
        pcm.write(pcm._banks)   # same bank 0
        sim.run(until=ns(51))
        assert pcm.counters["wq_drains"] == 1
        sim.run(until=ns(5000))
        assert pcm.counters["wq_drains"] == 2
        assert pcm.wear[0] == 2

    def test_store_to_load_forward_skips_the_array(self):
        sim, pcm = make_pcm()
        finishes = []
        pcm.write(7)
        pcm.read(7, finishes.append)
        sim.run(until=ns(20))
        assert finishes == [ns(10.0)]   # SRAM forward, not the 150 ns array
        assert pcm.counters["wq_read_forwards"] == 1
        assert pcm.counters["mshr_inserts"] == 0

    def test_wq_stalls_counted_past_capacity(self):
        sim, pcm = make_pcm(pcm_write_queue_entries=2)
        for block in range(4):
            pcm.write(block)
        assert pcm.counters["wq_inserts"] == 4
        assert pcm.counters["wq_stalls"] == 2

    def test_wear_survives_measurement_reset(self):
        sim, pcm = make_pcm()
        pcm.write(3)
        sim.run(until=ns(51))
        pcm.reset_measurement()
        assert pcm.counters["wq_drains"] == 0
        assert pcm.wear_summary()["wear_total"] == 1


# ---------------------------------------------------------------------------
# CXL mechanics
# ---------------------------------------------------------------------------
class TestCxl:
    def test_unloaded_read_latency_is_occupancy_plus_latency(self):
        sim, cxl = make_cxl(cxl_latency_ns=100.0, cxl_bandwidth_gbps=64.0)
        finishes = []
        cxl.read(0, finishes.append)
        sim.run(until=ns(500))
        assert finishes == [8000 + ns(100.0)]   # 512 b / 64 Gbps = 8 ns

    def test_link_serializes_back_to_back_transfers(self):
        sim, cxl = make_cxl(cxl_latency_ns=100.0, cxl_bandwidth_gbps=64.0)
        finishes = []
        cxl.read(0, finishes.append)
        cxl.read(1, finishes.append)
        sim.run(until=ns(500))
        assert finishes[1] - finishes[0] == 8000   # one occupancy apart

    def test_credit_pool_bounds_inflight_and_counts_stalls(self):
        sim, cxl = make_cxl(cxl_credits=1)
        finishes = []
        for block in range(3):
            cxl.read(block, finishes.append)
        assert cxl.counters["credit_stalls"] == 2
        assert cxl.pending() == 3
        sim.run(until=ns(5000))
        assert len(finishes) == 3
        assert cxl.counters["link_grants"] == 3
        assert cxl.pending() == 0

    def test_writes_count_toward_pending_writes(self):
        sim, cxl = make_cxl()
        cxl.write(0)
        cxl.write(1)
        assert cxl.pending_writes() == 2
        sim.run(until=ns(5000))
        assert cxl.pending_writes() == 0


# ---------------------------------------------------------------------------
# Cache modes
# ---------------------------------------------------------------------------
class TestCacheModes:
    def test_write_around_bypasses_missing_writes(self, make_system):
        from repro.cache.tdram import TdramCache
        system = make_system(TdramCache, cache_mode="write_around")
        system.cache.tags.install(0, dirty=False)
        system.write(0)     # present: normal write-allocate path
        system.write(513)   # absent: goes straight to main memory
        system.run(50_000)
        assert system.cache.metrics.events["write_around_bypass"] == 1
        assert system.main_memory.writes_issued == 1
        assert not system.cache.tags.contains(513)

    def test_write_around_keeps_ledger_invariant(self, make_system):
        """Each demand still contributes exactly one useful 64 B payload."""
        from repro.cache.tdram import TdramCache
        system = make_system(TdramCache, cache_mode="write_around")
        blocks = (1, 65, 129, 513)
        for block in blocks:
            system.write(block)
        system.run(50_000)
        ledger = system.cache.metrics.ledger
        assert ledger.useful_bytes == len(blocks) * 64
        assert system.cache.metrics.outcomes["demands"] == len(blocks)

    def test_write_only_skips_read_miss_fills(self, make_system):
        from repro.cache.tdram import TdramCache
        system = make_system(TdramCache, cache_mode="write_only")
        system.read(7)
        system.run(50_000)
        assert len(system.completed) == 1
        assert system.cache.metrics.events["read_fill_bypassed"] == 1
        assert not system.cache.tags.contains(7)

    def test_write_only_still_installs_writes(self, make_system):
        from repro.cache.tdram import TdramCache
        system = make_system(TdramCache, cache_mode="write_only")
        system.write(7)
        system.run(50_000)
        assert system.cache.tags.contains(7)


# ---------------------------------------------------------------------------
# Observability: RunResult, epochs, dump
# ---------------------------------------------------------------------------
class TestObservability:
    def test_ddr5_backend_field_is_empty(self):
        result = run_experiment("tdram", "bfs.22",
                                config=SystemConfig.small(),
                                demands_per_core=100, seed=11)
        assert result.backend == {}

    def test_pcm_backend_counters_surface_in_result(self):
        config = SystemConfig.small().with_(memory_backend="pcm_like")
        result = run_experiment("no_cache", "mg.D", config=config,
                                demands_per_core=200, seed=11)
        # snapshot() is sparse (only touched counters), but every
        # exported name must come from the declared registry
        assert set(result.backend) <= set(BACKEND_COUNTERS)
        assert result.backend["mshr_inserts"] > 0
        assert result.backend["wear_total"] >= result.backend["wear_max"] > 0

    def test_epoch_series_has_backend_columns(self):
        from repro.obs import ObsConfig
        from repro.obs.epochs import COLUMNS
        config = SystemConfig.small().with_(
            memory_backend="pcm_like", obs=ObsConfig(epoch_us=1.0))
        result = run_experiment("tdram", "mg.D", config=config,
                                demands_per_core=200, seed=11)
        for column in ("backend_coalesced", "backend_wq_stalls",
                       "backend_wear", "backend_mshr", "backend_wq"):
            assert column in COLUMNS
            assert column in result.epochs

    def test_dump_stats_reports_backend(self, make_system):
        from repro.cache.tdram import TdramCache
        from repro.stats.dump import collect_stats
        system = make_system(TdramCache, memory_backend="pcm_like")
        system.read(3)
        system.write(65)
        system.run(50_000)
        stats = collect_stats(system.cache)
        assert stats["mm.backend"] == "pcm_like"
        assert "mm.backend.mshr_inserts" in stats

    def test_metrics_doc_covers_every_backend_counter(self):
        text = open("docs/metrics.md", encoding="utf-8").read()
        for name in BACKEND_COUNTERS:
            assert f"`{name}`" in text, f"{name} undocumented in metrics.md"


# ---------------------------------------------------------------------------
# Experiments layer
# ---------------------------------------------------------------------------
class TestExperiments:
    def test_backend_sweep_smoke(self):
        from repro.experiments.sweeps import backend_sweep
        from repro.workloads.suite import workload
        fig = backend_sweep(values=("ddr5", "pcm_like"),
                            specs=[workload("bfs.22")], demands_per_core=60)
        assert [row["memory_backend"] for row in fig.rows] == \
            ["ddr5", "pcm_like"]

    def test_backends_comparison_smoke(self):
        from repro.experiments.backends_figure import (
            COMPARED_BACKENDS,
            backends_comparison,
        )
        from repro.workloads.suite import workload
        fig = backends_comparison(specs=[workload("bfs.22")],
                                  demands_per_core=60)
        assert [row["backend"] for row in fig.rows] == list(COMPARED_BACKENDS)
        for row in fig.rows:
            assert row["tdram"] > 0
            assert "probe_delta" in row and "flush_delta" in row
