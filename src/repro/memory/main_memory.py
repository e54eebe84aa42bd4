"""DDR5 backing-store model — the default ``ddr5`` memory backend.

The backing store serves read-miss fetches and dirty writebacks from the
DRAM cache (or all demands in the no-cache baseline). This module holds
the default implementation of the :class:`~repro.memory.backend.
MemoryBackend` seam: Table III's 128 GiB / 2-channel DDR5, where each
channel runs an independent **open-page** FR-FCFS scheduler (row hits
first) with a write-drain watermark policy — the page policy gem5
defaults to for DDR5, which gives streaming writebacks realistic
row-buffer locality (the DRAM cache itself is close-page, per
Table III).

The paper bounds its main-memory buffers at 64 entries; this DDR5
model keeps its queues unbounded with occupancy tracked instead — the
DRAM-cache controller's own bounded buffers (where the paper locates
the contention effects, §II-B) provide the system back-pressure.
Bounded MSHRs and a bounded deferred write queue are properties of the
hybrid-media backends (:mod:`repro.memory.pcm`,
:mod:`repro.memory.cxl`); see ``docs/backends.md``.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.dram.address import AddressMapper, DramGeometry
from repro.dram.device import DramChannel
from repro.dram.timing import DramTiming
from repro.energy.power_model import EnergyMeter
from repro.memory.backend import MemoryBackend
from repro.sim.kernel import Simulator
from repro.stats.counters import LatencyStat


class _PendingRead:
    __slots__ = ("block", "bank", "row", "arrive", "order", "callback")

    def __init__(self, block: int, bank: int, row: int, arrive: int,
                 order: int, callback: Optional[Callable[[int], None]]) -> None:
        self.block = block
        self.bank = bank
        self.row = row
        self.arrive = arrive
        #: demand age (sequence number): FR-FCFS breaks ties by age so a
        #: fetch launched early (e.g. by TDRAM's probing) never overtakes
        #: an older demand's fetch at the backing store
        self.order = order
        self.callback = callback


class _PendingWrite:
    __slots__ = ("block", "bank", "row", "arrive")

    def __init__(self, block: int, bank: int, row: int, arrive: int) -> None:
        self.block = block
        self.bank = bank
        self.row = row
        self.arrive = arrive


class _ChannelScheduler:
    """FR-FCFS with write-drain hysteresis for one DDR5 channel."""

    HIGH_WATERMARK = 32
    LOW_WATERMARK = 8

    def __init__(self, sim: Simulator, channel: DramChannel,
                 meter: Optional[EnergyMeter]) -> None:
        self.sim = sim
        self.channel = channel
        self.meter = meter
        self.reads: List[_PendingRead] = []
        self.writes: List[_PendingWrite] = []
        self.draining = False
        self._wake_at: Optional[int] = None
        #: kernel handle of the one pending wake (``None`` with ``_wake_at``)
        self._wake: Optional[list] = None
        self.read_queue_delay = LatencyStat("mm_read_queue")
        self.read_latency = LatencyStat("mm_read_latency")

    def add_read(self, request: _PendingRead) -> None:
        """Enqueue a read and try to issue immediately."""
        self.reads.append(request)
        self._kick()

    def add_write(self, request: _PendingWrite) -> None:
        """Enqueue a posted write (drained by watermark policy)."""
        self.writes.append(request)
        self._kick()

    def _select(self, queue, at: int):
        """FR-FCFS: row hits first, then bank-ready, then the oldest.

        Age is the demand sequence number where provided (reads), so
        requests issued early out of demand order (probing) do not
        overtake older demands.
        """
        banks = self.channel.banks
        ready_hit = None
        ready = None
        for request in queue:
            if banks[request.bank].is_ready(at):
                key = getattr(request, "order", request.arrive)
                if self.channel.is_row_hit(request.bank, request.row):
                    if ready_hit is None or key < getattr(
                            ready_hit, "order", ready_hit.arrive):
                        ready_hit = request
                elif ready is None or key < getattr(ready, "order",
                                                    ready.arrive):
                    ready = request
        if ready_hit is not None:
            return ready_hit
        if ready is not None:
            return ready
        if not queue:
            return None
        return min(queue, key=lambda r: getattr(r, "order", r.arrive))

    def _update_drain_mode(self) -> None:
        if len(self.writes) >= self.HIGH_WATERMARK:
            self.draining = True
        elif len(self.writes) <= self.LOW_WATERMARK or not self.writes:
            if self.draining and (self.reads or not self.writes):
                self.draining = False

    def _kick(self) -> None:
        if self._wake_at is not None:
            if self._wake_at > self.sim.now:
                return  # the pending wake decides for this arrival too
            # The wake is due at this instant but not yet dispatched:
            # decide now and drop it, so it starts no second wake chain.
            self._cancel_wake()
        self._try_issue()

    def _schedule_wake(self, at: int) -> None:
        """Wake at ``at`` unless an earlier wake is already pending:
        a channel keeps exactly one pending wake."""
        at = max(at, self.sim.now + 1)
        if self._wake_at is not None:
            if self._wake_at <= at:
                return
            self._cancel_wake()
        self._wake_at = at
        self._wake = self.sim.at(at, self._on_wake)

    def _cancel_wake(self) -> None:
        assert self._wake is not None
        self.sim.cancel(self._wake)
        self._wake = None
        self._wake_at = None

    def _on_wake(self) -> None:
        self._wake = None
        self._wake_at = None
        self._try_issue()

    def _try_issue(self) -> None:
        now = self.sim.now
        self._update_drain_mode()
        do_write = self.writes and (self.draining or not self.reads)
        queue = self.writes if do_write else self.reads
        request = self._select(queue, now)
        if request is None:
            return
        is_write = do_write
        earliest = self.channel.earliest_issue_open(
            request.bank, now, request.row, is_write)
        if earliest > now:
            self._schedule_wake(earliest)
            return
        queue.remove(request)
        row_hit = self.channel.is_row_hit(request.bank, request.row)
        grant = self.channel.issue_access_open(
            request.bank, now, request.row, is_write)
        if self.meter is not None:
            self.meter.record("cmd")
            if not row_hit:
                self.meter.record("act_data")
            self.meter.record("col_op")
            self.meter.add_dq_bytes(64)
        if not is_write:
            read = request  # type: _PendingRead
            self.read_queue_delay.record(now - read.arrive)
            assert grant.data_end is not None
            self.read_latency.record(grant.data_end - read.arrive)
            if read.callback is not None:
                finish = grant.data_end
                callback = read.callback
                self.sim.at(finish, callback, finish)
        # More work may be issuable immediately after this command slot.
        if self.reads or self.writes:
            self._schedule_wake(self.channel.ca.free_at)


class MainMemory(MemoryBackend):
    """The DDR5 backing store: address-interleaved independent channels."""

    backend_name = "ddr5"

    def __init__(
        self,
        sim: Simulator,
        timing: DramTiming,
        geometry: DramGeometry,
        meter: Optional[EnergyMeter] = None,
        name: str = "mm",
    ) -> None:
        super().__init__(sim, meter)
        self.mapper = AddressMapper(geometry, scheme="RoRaBaChCo")
        self.channels = [
            DramChannel(sim, timing, geometry.banks_per_channel, f"{name}{i}",
                        page_policy="open")
            for i in range(geometry.channels)
        ]
        self._schedulers = [
            _ChannelScheduler(sim, channel, meter) for channel in self.channels
        ]

    def read(self, block_addr: int,
             callback: Optional[Callable[[int], None]],
             order: Optional[int] = None) -> None:
        """Fetch one 64 B block; ``callback(finish_time)`` fires on data.

        ``order`` carries the originating demand's age for age-aware
        scheduling; it defaults to the arrival time.
        """
        decoded = self.mapper.decode(block_addr)
        scheduler = self._schedulers[decoded.channel]
        scheduler.add_read(
            _PendingRead(block_addr, decoded.bank, decoded.row,
                         self.sim.now,
                         self.sim.now if order is None else order,
                         callback)
        )
        self.reads_issued += 1
        self._sample_occupancy()

    def write(self, block_addr: int) -> None:
        """Posted 64 B write (cache writeback or write-through demand)."""
        decoded = self.mapper.decode(block_addr)
        scheduler = self._schedulers[decoded.channel]
        scheduler.add_write(
            _PendingWrite(block_addr, decoded.bank, decoded.row, self.sim.now))
        self.writes_issued += 1
        self._sample_occupancy()

    @property
    def mean_read_latency_ns(self) -> float:
        """Mean read latency (arrival to data) across channels, ns."""
        stats = [s.read_latency for s in self._schedulers if s.read_latency.count]
        total = sum(s.total_ps for s in stats)
        count = sum(s.count for s in stats)
        return total / count / 1000.0 if count else 0.0

    @property
    def read_queue_delay_ns(self) -> float:
        """Mean read queueing delay (arrival to issue) across channels, ns."""
        stats = [s.read_queue_delay for s in self._schedulers]
        total = sum(s.total_ps for s in stats)
        count = sum(s.count for s in stats)
        return total / count / 1000.0 if count else 0.0

    def pending(self) -> int:
        """Requests waiting in any channel's read or write queue."""
        return sum(len(s.reads) + len(s.writes) for s in self._schedulers)

    def pending_writes(self) -> int:
        """Writes waiting in any channel's write queue (back-pressure)."""
        return sum(len(s.writes) for s in self._schedulers)

    def reset_measurement(self) -> None:
        """Drop warm-up latency statistics at the measurement boundary."""
        super().reset_measurement()
        for scheduler in self._schedulers:
            scheduler.read_queue_delay.reset()
            scheduler.read_latency.reset()
