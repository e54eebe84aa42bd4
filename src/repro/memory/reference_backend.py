"""Frozen pre-seam DDR5 model — the ``ddr5_reference`` backend.

A verbatim copy of the DDR5 scheduler logic as it stood before the
backend seam was introduced, kept **only** so the bit-identity tests
can A/B the seamed default against it: for every design,
``memory_backend="ddr5"`` and ``memory_backend="ddr5_reference"`` must
produce ``dataclasses.asdict``-identical ``RunResult``s. Mirrors the
``cache_organization="reference"`` pattern of the design zoo
(:mod:`repro.cache.reference_tagstore`).

Do not extend or "fix" this module: behavioural changes belong in
:mod:`repro.memory.main_memory`, and a divergence between the two is
exactly what the A/B tests exist to catch. The one exception is the
one-pending-wake rule of ``_kick``/``_schedule_wake``, which both copies
carry: the A/B tests compare ``sim_events`` too, so they keep testing
only the seam.
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


class _RefPendingRead:
    __slots__ = ("block", "bank", "row", "arrive", "order", "callback")

    def __init__(self, block: int, bank: int, row: int, arrive: int,
                 order: int, callback: Optional[Callable[[int], None]]) -> None:
        self.block = block
        self.bank = bank
        self.row = row
        self.arrive = arrive
        self.order = order
        self.callback = callback


class _RefPendingWrite:
    __slots__ = ("block", "bank", "row", "arrive")

    def __init__(self, block: int, bank: int, row: int, arrive: int) -> None:
        self.block = block
        self.bank = bank
        self.row = row
        self.arrive = arrive


class _RefChannelScheduler:
    """Frozen copy of the pre-seam FR-FCFS + write-drain scheduler."""

    HIGH_WATERMARK = 32
    LOW_WATERMARK = 8

    def __init__(self, sim: Simulator, channel: DramChannel,
                 meter: Optional[EnergyMeter]) -> None:
        self.sim = sim
        self.channel = channel
        self.meter = meter
        self.reads: List[_RefPendingRead] = []
        self.writes: List[_RefPendingWrite] = []
        self.draining = False
        self._wake_at: Optional[int] = None
        #: kernel handle of the one pending wake (``None`` with ``_wake_at``)
        self._wake: Optional[list] = None
        self.read_queue_delay = LatencyStat("mm_read_queue")
        self.read_latency = LatencyStat("mm_read_latency")

    def add_read(self, request: _RefPendingRead) -> None:
        """Enqueue a read and try to issue immediately."""
        self.reads.append(request)
        self._kick()

    def add_write(self, request: _RefPendingWrite) -> None:
        """Enqueue a posted write (drained by watermark policy)."""
        self.writes.append(request)
        self._kick()

    def _select(self, queue, at: int):
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
            read = request  # type: _RefPendingRead
            self.read_queue_delay.record(now - read.arrive)
            assert grant.data_end is not None
            self.read_latency.record(grant.data_end - read.arrive)
            if read.callback is not None:
                finish = grant.data_end
                callback = read.callback
                self.sim.at(finish, callback, finish)
        if self.reads or self.writes:
            self._schedule_wake(self.channel.ca.free_at)


class ReferenceMainMemory(MemoryBackend):
    """Frozen pre-seam DDR5 backing store (bit-identity A/B only)."""

    backend_name = "ddr5_reference"

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
            _RefChannelScheduler(sim, channel, meter)
            for channel in self.channels
        ]

    def read(self, block_addr: int,
             callback: Optional[Callable[[int], None]],
             order: Optional[int] = None) -> None:
        """Fetch one 64 B block; ``callback(finish_time)`` fires on data."""
        decoded = self.mapper.decode(block_addr)
        scheduler = self._schedulers[decoded.channel]
        scheduler.add_read(
            _RefPendingRead(block_addr, decoded.bank, decoded.row,
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
            _RefPendingWrite(block_addr, decoded.bank, decoded.row,
                             self.sim.now))
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
