"""Unit tests for TDRAM's device internals: flush buffer, the HM window
and probe on the simulated channel, the §III-C4 inequalities, and
area/signal/tag-width arithmetic. The other Figure 5/6 command timings
are tested on the device in test_device.py."""

import pytest
from hypothesis import given, strategies as st

from repro.core.area import (
    HBM3_TOTAL_SIGNALS,
    die_area_report,
    signal_report,
    tag_area_overhead,
    tag_bits_for,
)
from repro.core.flush_buffer import FlushBuffer
from repro.dram.device import HM_PACKET_TIME, DramChannel
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.errors import ConfigError
from repro.sim.kernel import Simulator, ns
from repro.validation import run_selfcheck


class TestFlushBuffer:
    def test_fifo_semantics(self):
        fb = FlushBuffer(4)
        for block in (1, 2, 3):
            assert fb.add(block)
        assert fb.pop() == 1
        assert fb.pop() == 2
        assert len(fb) == 1

    def test_full_buffer_stalls(self):
        fb = FlushBuffer(2)
        assert fb.add(1) and fb.add(2)
        assert fb.is_full
        assert not fb.add(3)
        assert fb.stalls == 1
        assert len(fb) == 2

    def test_remove_superseded_entry(self):
        """§III-D2: a newer write to a buffered address drops the entry."""
        fb = FlushBuffer(4)
        fb.add(7)
        assert fb.remove(7)
        assert not fb.remove(7)
        assert fb.events["superseded"] == 1

    def test_contains(self):
        fb = FlushBuffer(4)
        fb.add(9)
        assert fb.contains(9)
        assert not fb.contains(10)

    def test_pop_empty_returns_none(self):
        assert FlushBuffer(4).pop() is None

    def test_occupancy_sampled_on_add(self):
        fb = FlushBuffer(8)
        for block in range(5):
            fb.add(block)
        assert fb.occupancy.max_level == 4  # sampled before each insert

    def test_unload_reasons_counted(self):
        fb = FlushBuffer(4)
        fb.note_unload("refresh")
        fb.note_unload("read_miss_clean")
        fb.note_unload("read_miss_clean")
        assert fb.events["unload_refresh"] == 1
        assert fb.events["unload_read_miss_clean"] == 2

    def test_zero_capacity_rejected(self):
        with pytest.raises(ConfigError):
            FlushBuffer(0)

    @given(st.lists(st.integers(min_value=0, max_value=100), max_size=60))
    def test_property_never_exceeds_capacity(self, blocks):
        fb = FlushBuffer(16)
        for block in blocks:
            fb.add(block)
            assert len(fb) <= 16


class TestCommandWalks:
    """One command at t=0 on a fresh Table III channel with tag mats."""

    @staticmethod
    def channel():
        return DramChannel(Simulator(), hbm3_cache_timing(), 16,
                           tag_timing=rldram_like_tag_timing(),
                           enable_refresh=False)

    def test_hm_reaches_controller_before_data(self):
        """Fig. 5's central property: the conditional response window,
        tRCD + tCL - (tRCD_TAG + tHM) less the 0.75 ns HM packet."""
        assert HM_PACKET_TIME == ns(0.75)
        grant = self.channel().issue_access(0, 0, is_write=False,
                                            with_tag=True)
        assert grant.hm_at < grant.data_start
        assert grant.data_start - grant.hm_at == ns(14.25)

    def test_probe_walk_cycles_tag_bank(self):
        """Fig. 7: a probe busies only its tag bank, for tRC_TAG."""
        ch = self.channel()
        grant = ch.issue_probe(3, 0)
        assert grant.data_start is None
        assert ch.tag_banks[3].ready_at == ns(12)  # tRC_TAG
        assert all(bank.is_ready(0) for bank in ch.banks)  # data banks free
        assert ch.dq.free_at == 0


class TestTagMats:
    def test_paper_inequalities_hold(self):
        """§III-C4, as the selfcheck states them on Table III timing."""
        details = {r.name: (r.passed, r.detail) for r in run_selfcheck()}
        assert details["internal tag result hides under tRCD (§III-C4)"] == (
            True, "tRCD_TAG + tHM_int = 10.0 ns vs tRCD = 12.0 ns")
        assert details[
            "flush-buffer move beats incoming write data (§III-C4)"] == (
            True, "tRL_core = 2.0 ns vs 9.0 ns")


class TestAreaAndSignals:
    def test_die_area_overhead_is_8_24_percent(self):
        report = die_area_report()
        assert report.total_die_overhead == pytest.approx(0.0824, abs=0.0005)

    def test_area_formula_components(self):
        report = die_area_report()
        expected = 0.243 * 0.5 * 0.66 + report.routing_overhead
        assert report.total_die_overhead == pytest.approx(expected)

    def test_tag_area_overhead_default(self):
        assert tag_area_overhead() == pytest.approx(0.243)

    def test_signal_overhead_matches_fig4(self):
        report = signal_report()
        assert report.extra_per_channel == 6
        assert report.extra_channel_signals == 192
        assert report.total_signals == HBM3_TOTAL_SIGNALS + 192 == 2164
        assert report.overhead_fraction == pytest.approx(0.097, abs=0.002)

    def test_new_signals_fit_unused_bumps(self):
        assert signal_report().fits_in_unused_bumps

    def test_paper_tag_width_example(self):
        """§III-C3: 1 PB space on a 64 GiB direct-mapped cache -> 14 bits."""
        assert tag_bits_for(2 ** 50, 64 * 2 ** 30) == 14

    def test_tag_bits_zero_when_cache_covers_space(self):
        assert tag_bits_for(2 ** 20, 2 ** 20) == 0
