"""Demand request and access-outcome types shared by all cache designs."""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional


class Op(enum.Enum):
    """Demand type as seen by the DRAM cache (post-LLC)."""

    READ = "read"      #: LLC fetch (on-chip miss) — latency critical
    WRITE = "write"    #: LLC writeback of a full 64 B line — posted


class Outcome(enum.Enum):
    """Architectural outcome of a cache access (Table II rows)."""

    HIT_CLEAN = "hit_clean"
    HIT_DIRTY = "hit_dirty"
    MISS_INVALID = "miss_invalid"   #: frame empty
    MISS_CLEAN = "miss_clean"       #: conflicting clean line present
    MISS_DIRTY = "miss_dirty"       #: conflicting dirty line present

    @property
    def is_hit(self) -> bool:
        return self in (Outcome.HIT_CLEAN, Outcome.HIT_DIRTY)

    @property
    def is_dirty_miss(self) -> bool:
        return self is Outcome.MISS_DIRTY


_sequence = itertools.count()


def next_sequence() -> int:
    """A fresh demand age: older than every later demand, younger than
    every earlier one. Only the relative order of two numbers means
    anything; their absolute values depend on what the process ran
    before."""
    return next(_sequence)


class DemandRequest:
    """One 64 B demand travelling through the memory system.

    A ``__slots__`` class: one instance is allocated per demand on the
    simulation hot path, so the per-object ``__dict__`` is worth
    avoiding.
    """

    __slots__ = ("op", "block_addr", "core_id", "pc", "seq", "arrive_time",
                 "on_complete", "tag_result_time", "issue_time", "probed",
                 "outcome", "victim_block", "completed")

    def __init__(self, op: Op, block_addr: int, core_id: int = 0,
                 pc: int = 0,
                 on_complete: Optional[Callable[[int], None]] = None) -> None:
        self.op = op
        self.block_addr = block_addr
        self.core_id = core_id
        #: synthetic instruction address (region id) for MAP-I prediction
        self.pc = pc
        self.seq = next_sequence()
        #: set by the controller when the demand enters its queues
        self.arrive_time = -1
        #: completion callback (front end wiring); receives finish time
        self.on_complete = on_complete
        # design bookkeeping
        self.tag_result_time = -1  #: when hit/miss became known at controller
        self.issue_time = -1       #: first DRAM-cache action for this demand
        self.probed = False        #: TDRAM early-probe already answered it
        self.outcome: Optional[Outcome] = None
        self.victim_block: Optional[int] = None
        self.completed = False

    @property
    def is_read(self) -> bool:
        return self.op is Op.READ

    def complete(self, time: int) -> None:
        """Deliver the response to the front end (idempotent)."""
        if self.completed:
            return
        self.completed = True
        if self.on_complete is not None:
            self.on_complete(time)

    def __repr__(self) -> str:
        return f"DemandRequest({self.op.value}, blk={self.block_addr:#x}, seq={self.seq})"
