"""Tests for the per-bank refresh option and separate-die tag timing."""

import pytest

from repro.cache.tdram import TdramCache
from repro.config.system import MIB, SystemConfig
from repro.dram.device import DramChannel
from repro.dram.timing import (
    hbm3_cache_timing,
    rldram_like_tag_timing,
    separate_die_tag_timing,
)
from repro.errors import ProtocolError
from repro.experiments.runner import run_experiment
from repro.sim.kernel import Simulator
from repro.validation import run_selfcheck


class TestPerBankRefresh:
    def test_all_bank_blocks_everything(self):
        sim = Simulator()
        timing = hbm3_cache_timing()
        channel = DramChannel(sim, timing, 16, "r0",
                              refresh_policy="all_bank")
        sim.run(until=timing.tREFI + 1)
        assert all(b.ready_at == timing.tREFI + timing.tRFC
                   for b in channel.banks)

    def test_per_bank_blocks_one_bank_at_a_time(self):
        sim = Simulator()
        timing = hbm3_cache_timing()
        channel = DramChannel(sim, timing, 16, "r1",
                              refresh_policy="per_bank")
        sim.run(until=timing.tREFI // 16 + 1)
        blocked = [b.index for b in channel.banks if b.ready_at > 0]
        assert len(blocked) == 1

    def test_per_bank_rotates_through_banks(self):
        sim = Simulator()
        timing = hbm3_cache_timing()
        channel = DramChannel(sim, timing, 16, "r2",
                              refresh_policy="per_bank")
        sim.run(until=timing.tREFI + 1)  # 16 per-bank ticks
        assert channel.refreshes >= 16
        assert all(b.ready_at > 0 for b in channel.banks)

    def test_per_bank_never_fires_channel_wide_listeners(self):
        sim = Simulator()
        timing = hbm3_cache_timing()
        channel = DramChannel(sim, timing, 16, "r3",
                              refresh_policy="per_bank")
        windows = []
        channel.refresh_listeners.append(lambda s, e: windows.append((s, e)))
        sim.run(until=2 * timing.tREFI)
        assert windows == []

    def test_bad_policy_rejected(self):
        with pytest.raises(ProtocolError):
            DramChannel(Simulator(), hbm3_cache_timing(), 16, "x",
                        refresh_policy="sometimes")

    def test_tdram_runs_under_per_bank_refresh(self):
        """End-to-end: flush unloads fall back to read-miss-clean slots
        and forced drains when no refresh windows exist."""
        config = SystemConfig(cache_capacity_bytes=4 * MIB,
                              mm_capacity_bytes=64 * MIB, cores=4,
                              cache_refresh_policy="per_bank")
        result = run_experiment("tdram", "is.D", config,
                                demands_per_core=250, seed=5)
        assert result.runtime_ps > 0
        assert result.flush_unloads.get("unload_refresh", 0) == 0


class TestSeparateDieTags:
    def test_tsv_hop_slows_the_tag_path(self):
        same = rldram_like_tag_timing()
        separate = separate_die_tag_timing()
        assert separate.hm_result_delay > same.hm_result_delay

    def test_separate_die_breaks_the_latency_hiding(self):
        """§III-C2/C4: the same-die choice keeps the internal result
        under tRCD; a TSV hop forfeits that."""
        name = "internal tag result hides under tRCD (§III-C4)"
        same = {r.name: r for r in run_selfcheck()}[name]
        separate = {r.name: r for r in
                    run_selfcheck(tag=separate_die_tag_timing())}[name]
        assert same.passed
        assert not separate.passed
        assert separate.detail == ("tRCD_TAG + tHM_int = 13.0 ns vs "
                                   "tRCD = 12.0 ns")

    def test_tdram_still_functions_with_separate_die_tags(self):
        config = SystemConfig(
            cache_capacity_bytes=4 * MIB, mm_capacity_bytes=64 * MIB,
            cores=4, tag_timing=separate_die_tag_timing(),
        )
        result = run_experiment("tdram", "cg.C", config,
                                demands_per_core=200, seed=5)
        base = run_experiment("tdram", "cg.C",
                              config.with_(tag_timing=rldram_like_tag_timing()),
                              demands_per_core=200, seed=5)
        assert result.tag_check_ns > base.tag_check_ns
