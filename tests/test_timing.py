"""Unit tests for the Table III timing parameter sets."""

import pytest

from repro.dram.timing import (
    DramTiming,
    TagTiming,
    ddr5_timing,
    hbm3_cache_timing,
    ndc_tag_timing,
    rldram_like_tag_timing,
)
from repro.errors import ConfigError, TimingError
from repro.sim.kernel import ns


class TestTableIIIValues:
    """Pin the paper's published timing parameters."""

    def test_data_bank_timings_match_table3(self):
        t = hbm3_cache_timing()
        assert t.tBURST == ns(2)
        assert t.tRCD == ns(12)
        assert t.tRCD_WR == ns(6)
        assert t.tCCD_L == ns(2)
        assert t.tRP == ns(14)
        assert t.tRAS == ns(28)
        assert t.tCL == ns(18)
        assert t.tCWL == ns(7)
        assert t.tRRD == ns(2)
        assert t.tXAW == ns(16)
        assert t.tRL_core == ns(2)

    def test_tag_timings_match_table3(self):
        t = rldram_like_tag_timing()
        assert t.tHM == ns(7.5)
        assert t.tHM_int == ns(2.5)
        assert t.tRCD_TAG == ns(7.5)
        assert t.tRTP_TAG == ns(2.5)
        assert t.tRRD_TAG == ns(2)
        assert t.tWR_TAG == ns(1)
        assert t.tRTW_TAG == ns(1)
        assert t.tRC_TAG == ns(12)

    def test_hm_result_delay_is_15ns(self):
        """§III-C4: tRCD_TAG + tHM = 15 ns, matching RLDRAM's read latency."""
        assert rldram_like_tag_timing().hm_result_delay == ns(15)

    def test_internal_result_hides_under_trcd(self):
        """§III-C4: tRCD_TAG + tHM_int = 10 ns < tRCD = 12 ns."""
        tag = rldram_like_tag_timing()
        data = hbm3_cache_timing()
        assert tag.tRCD_TAG + tag.tHM_int < data.tRCD


class TestDerivedValues:
    def test_row_cycle_is_ras_plus_rp(self):
        t = hbm3_cache_timing()
        assert t.tRC == ns(42)

    def test_read_data_delay(self):
        t = hbm3_cache_timing()
        assert t.read_data_delay == t.tRCD + t.tCL == ns(30)

    def test_write_data_delay(self):
        t = hbm3_cache_timing()
        assert t.write_data_delay == t.tRCD_WR + t.tCWL == ns(13)

    def test_write_bank_busy_covers_recovery(self):
        t = hbm3_cache_timing()
        assert t.write_bank_busy >= t.tRC

    def test_scaled_burst_for_alloy_80b(self):
        t = hbm3_cache_timing().scaled_burst(80)
        assert t.tBURST == ns(2.5)

    def test_scaled_burst_identity(self):
        t = hbm3_cache_timing()
        assert t.scaled_burst(64).tBURST == t.tBURST

    def test_scaled_burst_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            hbm3_cache_timing().scaled_burst(0)


class TestDdr5AndValidation:
    def test_ddr5_has_64b_burst_at_2ns(self):
        assert ddr5_timing().tBURST == ns(2)

    def test_ddr5_is_slower_than_hbm_cache(self):
        ddr5 = ddr5_timing()
        hbm = hbm3_cache_timing()
        assert ddr5.tRCD >= hbm.tRCD

    def test_ndc_tag_timing_matches_fair_comparison_rule(self):
        """§IV-A: the same tag-mat timings are used for NDC."""
        assert ndc_tag_timing() == rldram_like_tag_timing()

    def test_invalid_timing_rejected(self):
        with pytest.raises(ConfigError):
            DramTiming(tRAS=0)
        with pytest.raises(ConfigError):
            DramTiming(tBURST=0)


class TestFullValidation:
    """`validate()` consistency checks run at SystemConfig construction."""

    def test_default_tables_validate(self):
        hbm3_cache_timing().validate()
        ddr5_timing().validate()
        rldram_like_tag_timing().validate()

    def test_trcd_exceeding_tras_rejected(self):
        bad = DramTiming(tRCD=ns(40), tRAS=ns(28))
        with pytest.raises(TimingError, match="tRCD"):
            bad.validate()

    def test_refresh_cycle_must_fit_interval(self):
        bad = DramTiming(tRFC=ns(4000), tREFI=ns(3900))
        with pytest.raises(TimingError, match="tRFC"):
            bad.validate()

    def test_nonpositive_parameter_named_in_error(self):
        bad = DramTiming(tCL=0)
        with pytest.raises(TimingError, match="tCL"):
            bad.validate()

    def test_tag_row_cycle_shorter_than_activate_rejected(self):
        bad = TagTiming(tRC_TAG=ns(5))
        with pytest.raises(TimingError, match="tRC_TAG"):
            bad.validate()

    def test_timing_error_is_config_error(self):
        assert issubclass(TimingError, ConfigError)

    def test_system_config_rejects_inconsistent_sweep_table(self):
        from repro.config.system import SystemConfig

        with pytest.raises(TimingError):
            SystemConfig.small().with_(
                cache_timing=DramTiming(tRCD=ns(40), tRAS=ns(28)))
