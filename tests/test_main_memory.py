"""Unit tests for the DDR5 backing store model."""

import pytest

from repro.config.system import MIB, SystemConfig
from repro.dram.address import DecodedAddress
from repro.experiments.runner import run_experiment
from repro.memory.main_memory import MainMemory
from repro.sim.kernel import Simulator, ns


def make_mm(channels=2):
    sim = Simulator()
    config = SystemConfig(cache_capacity_bytes=1 * MIB,
                          mm_capacity_bytes=16 * MIB,
                          mm_channels=channels)
    mm = MainMemory(sim, config.mm_timing, config.mm_geometry())
    return sim, mm


class TestReads:
    def test_unloaded_read_latency(self):
        sim, mm = make_mm()
        finishes = []
        mm.read(0, finishes.append)
        sim.run(until=ns(500))
        assert len(finishes) == 1
        # ACT + CAS + burst on an idle open-page channel: tRCD+tCL+tBURST.
        assert finishes[0] == ns(16 + 16 + 2)

    def test_row_hit_latency_is_cas_only(self):
        sim, mm = make_mm()
        finishes = []
        mm.read(0, finishes.append)
        sim.run(until=ns(200))
        mm.read(1, finishes.append)  # same row (RoRaBaChCo: column+1)
        start = sim.now
        sim.run(until=ns(500))
        assert finishes[1] - start == pytest.approx(ns(16 + 2) + 1000, abs=2000)

    def test_reads_complete_in_arrival_order_same_bank(self):
        sim, mm = make_mm()
        finishes = []
        for i in range(4):
            mm.read(i, lambda t, i=i: finishes.append((i, t)))
        sim.run(until=ns(2000))
        assert [i for i, _t in finishes] == [0, 1, 2, 3]

    def test_callbackless_read_allowed(self):
        sim, mm = make_mm()
        mm.read(0, None)
        sim.run(until=ns(500))
        assert mm.reads_issued == 1

    def test_channel_interleaving(self):
        _sim, mm = make_mm(channels=2)
        # RoRaBaChCo: a row's worth of blocks per channel, then switch.
        columns = mm.mapper.geometry.columns_per_row
        assert mm.mapper.decode(0).channel == 0
        assert mm.mapper.decode(columns).channel == 1


class TestWrites:
    def test_writes_drain_eventually(self):
        sim, mm = make_mm()
        for i in range(10):
            mm.write(i)
        sim.run(until=ns(5000))
        assert mm.pending() == 0
        assert mm.writes_issued == 10

    def test_reads_prioritised_over_small_write_backlog(self):
        sim, mm = make_mm()
        for i in range(4):
            mm.write(i * 64)
        finishes = []
        mm.read(4096, finishes.append)
        sim.run(until=ns(3000))
        assert finishes, "read never completed"
        # The read completed while writes were still allowed to linger.
        assert finishes[0] < ns(300)

    def test_write_drain_watermark_engages(self):
        sim, mm = make_mm(channels=2)
        scheduler = mm._schedulers[0]
        for i in range(scheduler.HIGH_WATERMARK + 4):
            # All to channel 0: RoRaBaChCo keeps a row per channel.
            mm.write(i * mm.mapper.geometry.columns_per_row * 2)
        sim.run(until=ns(200))
        assert scheduler.draining or len(scheduler.writes) < scheduler.HIGH_WATERMARK


class TestStats:
    def test_mean_read_latency_aggregates_channels(self):
        sim, mm = make_mm()
        done = []
        mm.read(0, done.append)
        mm.read(32, done.append)
        sim.run(until=ns(1000))
        assert mm.mean_read_latency_ns > 0

    def test_queue_occupancy_sampled(self):
        sim, mm = make_mm()
        mm.read(0, None)
        mm.write(64)
        assert mm.queue_occupancy.samples == 2
        assert mm.queue_occupancy.max_level >= 1


class TestOneWakePerChannel:
    """Each channel scheduler keeps exactly one pending wake.

    An arrival at the instant a wake was due used to leave that wake
    pending after deciding in its place; the wake then started a second
    chain of wakes, so events per demand grew with run length.
    """

    @staticmethod
    def _pending_wakes(sim, scheduler):
        return [handle[0] for handle in sim._heap
                if handle[2] is not None and handle[2] == scheduler._on_wake]

    def test_at_most_one_pending_wake_at_every_dispatch(self):
        sim, mm = make_mm(channels=2)
        geometry = mm.mapper.geometry
        # Channel 0, bank 0, a new row for every request: each one is a
        # row conflict. Arrivals on a 0.5 ns grid land on the instants
        # the scheduler's wakes are due.
        blocks = [mm.mapper.encode(DecodedAddress(
            channel=0, bank=0, row=row % geometry.rows_per_bank, column=0))
            for row in range(96)]
        for i, block in enumerate(blocks):
            if i % 3 == 2:
                sim.at(i * 500, mm.write, block)
            else:
                sim.at(i * 500, mm.read, block, None)
        dispatched = 0
        # Refresh keeps the queue alive forever, so bound the run.
        while sim.run(until=ns(20_000), max_events=1):
            dispatched += 1
            for scheduler in mm._schedulers:
                wake_at = scheduler._wake_at
                wakes = self._pending_wakes(sim, scheduler)
                assert wakes == ([] if wake_at is None else [wake_at]), (
                    sim.now, wakes, wake_at)
        assert mm.pending() == 0
        assert mm.reads_issued + mm.writes_issued == len(blocks)
        assert dispatched > len(blocks)

    def test_events_per_demand_do_not_grow_with_run_length(self):
        config = SystemConfig.small()

        def events_per_demand(demands_per_core):
            result = run_experiment("no_cache", "pr.25", config=config,
                                    demands_per_core=demands_per_core, seed=24)
            return result.sim_events / (demands_per_core * config.cores)

        short, long = events_per_demand(250), events_per_demand(1000)
        assert long == pytest.approx(short, rel=0.10)
