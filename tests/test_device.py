"""Unit tests for the DRAM channel device (close- and open-page)."""

import pytest

from repro.dram.bus import Direction
from repro.dram.device import HM_PACKET_TIME, DramChannel
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.errors import ProtocolError
from repro.sim.kernel import Simulator, ns


def make_channel(tag=False, refresh=False, page_policy="close"):
    sim = Simulator()
    channel = DramChannel(
        sim, hbm3_cache_timing(), 16, "t0",
        tag_timing=rldram_like_tag_timing() if tag else None,
        enable_refresh=refresh, page_policy=page_policy,
    )
    return sim, channel


class TestClosePageAccess:
    def test_read_grant_timings(self):
        _sim, ch = make_channel()
        t = hbm3_cache_timing()
        grant = ch.issue_access(0, 0, is_write=False)
        assert grant.issue == 0
        assert grant.data_start == t.tRCD + t.tCL
        assert grant.data_end == t.tRCD + t.tCL + t.tBURST
        assert grant.hm_at is None

    def test_write_grant_timings(self):
        _sim, ch = make_channel()
        t = hbm3_cache_timing()
        grant = ch.issue_access(0, 0, is_write=True)
        assert grant.data_start == t.tRCD_WR + t.tCWL

    def test_bank_busy_blocks_reissue(self):
        _sim, ch = make_channel()
        ch.issue_access(0, 0, is_write=False)
        t = hbm3_cache_timing()
        assert ch.earliest_issue(0, 0, is_write=False) >= t.tRC

    def test_other_bank_available_after_trrd(self):
        _sim, ch = make_channel()
        ch.issue_access(0, 0, is_write=False)
        earliest = ch.earliest_issue(1, 0, is_write=False)
        assert earliest == ns(2)  # tRRD (CA slot is 1 ns, tRRD binds)

    def test_dq_constraint_back_pressures_issue(self):
        """Issue spacing cannot exceed the data-burst rate on one channel."""
        _sim, ch = make_channel()
        t = 0
        data_starts = []
        for bank in range(8):
            t = ch.earliest_issue(bank, t, is_write=False)
            grant = ch.issue_access(bank, t, is_write=False)
            data_starts.append(grant.data_start)
        gaps = [b - a for a, b in zip(data_starts, data_starts[1:])]
        assert all(g >= hbm3_cache_timing().tBURST for g in gaps)

    def test_larger_burst_scales_dq_occupancy(self):
        _sim, ch = make_channel()
        grant = ch.issue_access(0, 0, is_write=False, data_bytes=80)
        assert grant.data_end - grant.data_start == ns(2.5)

    def test_transfer_flag_controls_byte_counters(self):
        _sim, ch = make_channel()
        ch.issue_access(0, 0, is_write=False, transfer=False)
        assert ch.bytes_read == 0
        t = ch.earliest_issue(1, 0, is_write=False)
        ch.issue_access(1, t, is_write=False, transfer=True)
        assert ch.bytes_read == 64


class TestTagPath:
    def test_hm_result_at_15ns_plus_packet(self):
        _sim, ch = make_channel(tag=True)
        grant = ch.issue_access(0, 0, is_write=False, with_tag=True)
        assert grant.hm_at == ns(15) + HM_PACKET_TIME

    def test_hm_result_precedes_read_data(self):
        """The conditional-response enabler: HM before the data slot."""
        _sim, ch = make_channel(tag=True)
        grant = ch.issue_access(0, 0, is_write=False, with_tag=True)
        assert grant.hm_at < grant.data_start

    def test_hm_packet_is_six_beats_at_data_rate(self):
        """§III-B: 3 B of metadata take 6 beats on the 4-bit HM bus."""
        beat = ns(1 / hbm3_cache_timing().data_rate_gbps)
        assert HM_PACKET_TIME == (3 * 8 // 4) * beat == ns(0.75)

    def test_hm_delay_override(self):
        _sim, ch = make_channel(tag=True)
        grant = ch.issue_access(0, 0, is_write=False, with_tag=True,
                                hm_result_delay=ns(16.5))
        assert grant.hm_at == ns(16.5) + HM_PACKET_TIME

    def test_tag_bank_busy_for_trc_tag(self):
        _sim, ch = make_channel(tag=True)
        ch.issue_access(0, 0, is_write=False, with_tag=True)
        assert ch.tag_banks[0].ready_at == rldram_like_tag_timing().tRC_TAG

    def test_probe_only_touches_tag_resources(self):
        _sim, ch = make_channel(tag=True)
        grant = ch.issue_probe(3, 0)
        assert grant.data_start is None
        assert grant.hm_at == ns(15) + HM_PACKET_TIME
        assert ch.banks[3].ready_at == 0          # data bank untouched
        assert ch.tag_banks[3].ready_at == ns(12)  # tRC_TAG

    def test_can_probe_requires_all_slots_free(self):
        _sim, ch = make_channel(tag=True)
        assert ch.can_probe(0, 0)
        ch.issue_probe(0, 0)
        assert not ch.can_probe(0, ns(1))   # tag bank busy
        assert not ch.can_probe(1, 0)       # CA slot taken at t=0
        assert ch.can_probe(1, ns(12))

    def test_probe_without_tag_path_rejected(self):
        _sim, ch = make_channel(tag=False)
        assert not ch.can_probe(0, 0)
        with pytest.raises(ProtocolError):
            ch.issue_probe(0, 0)


class TestFigureWalks:
    """Figures 5 and 6 as the simulated channel times them (Table III,
    one command at t=0 on a fresh channel; the HM window and Figure 7's
    probe are in test_core_components.TestCommandWalks)."""

    def test_actrd_hit_books_hm_packet_then_data_burst(self):
        _sim, ch = make_channel(tag=True)
        grant = ch.issue_access(0, 0, is_write=False, with_tag=True)
        assert grant.issue == 0
        assert grant.hm_at - HM_PACKET_TIME == ns(15)
        assert ch.hm.free_at == grant.hm_at == ns(15.75)
        assert ch.hm.busy_time == HM_PACKET_TIME
        assert (grant.data_start, grant.data_end) == (ns(30), ns(32))
        assert ch.bytes_read == 64

    def test_actrd_miss_clean_keeps_dq_slot_without_data(self):
        """§III-D1: the command timing is fixed, so the slot is reserved
        even though no data is driven."""
        _sim, ch = make_channel(tag=True)
        grant = ch.issue_access(0, 0, is_write=False, with_tag=True,
                                transfer=False)
        assert (grant.data_start, grant.data_end) == (ns(30), ns(32))
        assert ch.dq.free_at == ns(32)
        assert ch.bytes_read == 0

    def test_actwr_data_at_trcd_wr_plus_tcwl(self):
        _sim, ch = make_channel(tag=True)
        t = hbm3_cache_timing()
        grant = ch.issue_access(0, 0, is_write=True, with_tag=True)
        assert grant.data_start == t.tRCD_WR + t.tCWL == ns(13)
        assert grant.data_end == ns(15)
        assert grant.hm_at == ns(15.75)
        assert ch.banks[0].ready_at == t.write_bank_busy
        assert ch.bytes_written == 64


class TestRefresh:
    def test_refresh_blocks_banks_and_closes_rows(self):
        sim, ch = make_channel(tag=True, refresh=True)
        t = hbm3_cache_timing()
        ch.banks[0].open_row = 5
        sim.run(until=t.tREFI + 1)
        assert ch.refreshes == 1
        assert ch.banks[0].ready_at == t.tREFI + t.tRFC
        assert ch.tag_banks[0].ready_at == t.tREFI + t.tRFC
        assert ch.banks[0].open_row == -1

    def test_refresh_listeners_receive_window(self):
        sim, ch = make_channel(refresh=True)
        windows = []
        ch.refresh_listeners.append(lambda s, e: windows.append((s, e)))
        t = hbm3_cache_timing()
        sim.run(until=2 * t.tREFI + 1)
        assert windows == [(t.tREFI, t.tREFI + t.tRFC),
                           (2 * t.tREFI, 2 * t.tREFI + t.tRFC)]

    def test_refresh_reschedules_forever(self):
        sim, ch = make_channel(refresh=True)
        t = hbm3_cache_timing()
        sim.run(until=5 * t.tREFI + 1)
        assert ch.refreshes == 5


class TestOpenPage:
    def test_first_access_pays_act_plus_cas(self):
        _sim, ch = make_channel(page_policy="open")
        t = hbm3_cache_timing()
        grant = ch.issue_access_open(0, 0, row=7, is_write=False)
        assert grant.data_start == t.tRCD + t.tCL

    def test_row_hit_pays_cas_only(self):
        _sim, ch = make_channel(page_policy="open")
        t = hbm3_cache_timing()
        ch.issue_access_open(0, 0, row=7, is_write=False)
        at = ch.earliest_issue_open(0, 0, 7, is_write=False)
        grant = ch.issue_access_open(0, at, row=7, is_write=False)
        assert grant.data_start - grant.issue == t.tCL
        assert ch.is_row_hit(0, 7)

    def test_row_conflict_pays_precharge(self):
        _sim, ch = make_channel(page_policy="open")
        t = hbm3_cache_timing()
        ch.issue_access_open(0, 0, row=7, is_write=False)
        at = ch.earliest_issue_open(0, 0, 9, is_write=False)
        assert at >= t.tRAS  # implicit precharge waits for tRAS
        grant = ch.issue_access_open(0, at, row=9, is_write=False)
        assert grant.data_start - grant.issue == t.tRP + t.tRCD + t.tCL

    def test_write_recovery_delays_conflict(self):
        _sim, ch = make_channel(page_policy="open")
        t = hbm3_cache_timing()
        grant = ch.issue_access_open(0, 0, row=7, is_write=True)
        earliest = ch.earliest_issue_open(0, 0, 9, is_write=False)
        assert earliest >= grant.data_end + t.tWR

    def test_row_hits_stream_at_ccd_rate(self):
        _sim, ch = make_channel(page_policy="open")
        t = hbm3_cache_timing()
        at = 0
        starts = []
        for _ in range(4):
            at = ch.earliest_issue_open(0, at, 7, is_write=False)
            grant = ch.issue_access_open(0, at, row=7, is_write=False)
            starts.append(grant.data_start)
            at = grant.issue
        gaps = [b - a for a, b in zip(starts, starts[1:])]
        assert all(g <= t.tCCD_L + t.tCMD for g in gaps)

    def test_bad_page_policy_rejected(self):
        with pytest.raises(ProtocolError):
            make_channel(page_policy="adaptive")


class TestRawTransfers:
    def test_transfer_raw_counts_bytes_and_respects_direction(self):
        _sim, ch = make_channel()
        end = ch.transfer_raw(0, 64, Direction.READ)
        assert end == ns(2)
        assert ch.bytes_read == 64
        end2 = ch.transfer_raw(end, 64, Direction.WRITE)
        assert end2 >= end + ns(4) + ns(2)  # tRTW turnaround then burst
