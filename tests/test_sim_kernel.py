"""Unit tests for the event-driven simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import SimulationError
from repro.sim.kernel import PS_PER_NS, Simulator, ns, to_ns


class TestTimeConversion:
    def test_ns_converts_to_picoseconds(self):
        assert ns(1) == 1000
        assert ns(7.5) == 7500
        assert ns(0.5) == 500

    def test_to_ns_inverts_ns(self):
        assert to_ns(ns(12.5)) == 12.5

    def test_ps_per_ns_constant(self):
        assert PS_PER_NS == 1000

    @given(st.floats(min_value=0, max_value=1e6))
    def test_roundtrip_within_half_picosecond(self, value):
        assert abs(to_ns(ns(value)) - value) <= 0.0005


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(ns(30), lambda: fired.append("c"))
        sim.schedule(ns(10), lambda: fired.append("a"))
        sim.schedule(ns(20), lambda: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        sim = Simulator()
        fired = []
        for tag in ("first", "second", "third"):
            sim.schedule(ns(5), lambda tag=tag: fired.append(tag))
        sim.run()
        assert fired == ["first", "second", "third"]

    def test_now_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(ns(42), lambda: seen.append(sim.now))
        sim.run()
        assert seen == [ns(42)]
        assert sim.now == ns(42)

    def test_nested_scheduling_from_callback(self):
        sim = Simulator()
        fired = []
        def outer():
            fired.append(("outer", sim.now))
            sim.schedule(ns(5), lambda: fired.append(("inner", sim.now)))
        sim.schedule(ns(10), outer)
        sim.run()
        assert fired == [("outer", ns(10)), ("inner", ns(15))]

    def test_at_schedules_absolute_time(self):
        sim = Simulator()
        fired = []
        sim.at(ns(100), lambda: fired.append(sim.now))
        sim.run()
        assert fired == [ns(100)]

    def test_scheduling_in_past_raises(self):
        sim = Simulator()
        sim.schedule(ns(10), lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(ns(5), lambda: None)

    def test_negative_delay_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)


class TestRunControls:
    def test_run_until_leaves_later_events_queued(self):
        sim = Simulator()
        fired = []
        sim.schedule(ns(10), lambda: fired.append("early"))
        sim.schedule(ns(100), lambda: fired.append("late"))
        sim.run(until=ns(50))
        assert fired == ["early"]
        assert sim.pending() == 1
        sim.run()
        assert fired == ["early", "late"]

    def test_run_until_fast_forwards_empty_queue(self):
        sim = Simulator()
        sim.run(until=ns(500))
        assert sim.now == ns(500)

    def test_run_until_advances_clock_past_pending_event(self):
        """Chunked regression: a queued future event must not hold the
        clock below the bound (it used to, skewing stall accounting)."""
        sim = Simulator()
        fired = []
        sim.schedule(ns(1000), lambda: fired.append(sim.now))
        sim.run(until=ns(100))
        assert fired == []
        assert sim.pending() == 1
        assert sim.now == ns(100)

    def test_chunked_runs_reach_a_far_event_at_its_exact_time(self):
        """Watchdog-style chunking makes steady progress and dispatches
        the far event exactly when its time falls inside a chunk."""
        sim = Simulator()
        fired = []
        sim.schedule(ns(1000), lambda: fired.append(sim.now))
        chunk = ns(100)
        for _ in range(10):
            sim.run(until=sim.now + chunk)
        assert fired == [ns(1000)]
        assert sim.now == ns(1000)

    def test_run_until_advances_after_draining_early_events(self):
        """Drained regression: events before the bound fire, then the
        clock still lands on the bound itself."""
        sim = Simulator()
        fired = []
        sim.schedule(ns(10), lambda: fired.append(sim.now))
        sim.run(until=ns(50))
        assert fired == [ns(10)]
        assert sim.pending() == 0
        assert sim.now == ns(50)

    def test_stop_does_not_advance_clock_to_bound(self):
        sim = Simulator()
        sim.schedule(ns(1), sim.stop)
        sim.schedule(ns(100), lambda: None)
        sim.run(until=ns(50))
        assert sim.now == ns(1)

    def test_max_events_does_not_advance_clock_to_bound(self):
        sim = Simulator()
        sim.schedule(ns(1), lambda: None)
        sim.schedule(ns(2), lambda: None)
        sim.run(until=ns(50), max_events=1)
        assert sim.now == ns(1)

    def test_events_scheduled_relative_to_advanced_clock(self):
        """After a bounded run, schedule() is relative to the bound."""
        sim = Simulator()
        fired = []
        sim.run(until=ns(100))
        sim.schedule(ns(5), lambda: fired.append(sim.now))
        sim.run()
        assert fired == [ns(105)]

    def test_max_events_limits_dispatch(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(ns(i + 1), lambda i=i: fired.append(i))
        dispatched = sim.run(max_events=3)
        assert dispatched == 3
        assert fired == [0, 1, 2]

    def test_stop_breaks_run_loop(self):
        sim = Simulator()
        fired = []
        sim.schedule(ns(1), lambda: (fired.append(1), sim.stop()))
        sim.schedule(ns(2), lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        assert sim.pending() == 1

    def test_run_returns_dispatch_count(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(ns(i + 1), lambda: None)
        assert sim.run() == 5

    def test_reentrant_run_raises(self):
        sim = Simulator()
        def bad():
            sim.run()
        sim.schedule(ns(1), bad)
        with pytest.raises(SimulationError):
            sim.run()


class TestCancel:
    def test_cancel_prevents_dispatch(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(ns(10), lambda: fired.append("no"))
        sim.schedule(ns(20), lambda: fired.append("yes"))
        assert sim.cancel(handle) is True
        sim.run()
        assert fired == ["yes"]

    def test_cancel_is_idempotent(self):
        sim = Simulator()
        handle = sim.schedule(ns(10), lambda: None)
        assert sim.cancel(handle) is True
        assert sim.cancel(handle) is False

    def test_cancel_after_dispatch_returns_false(self):
        sim = Simulator()
        handle = sim.schedule(ns(10), lambda: None)
        sim.run()
        assert sim.cancel(handle) is False

    def test_cancel_updates_pending_immediately(self):
        sim = Simulator()
        handles = [sim.schedule(ns(i + 1), lambda: None) for i in range(4)]
        assert sim.pending() == 4
        sim.cancel(handles[2])
        assert sim.pending() == 3

    def test_cancel_far_future_event(self):
        """Events far beyond the near future cancel cleanly too."""
        sim = Simulator()
        fired = []
        handle = sim.schedule(ns(1_000_000), lambda: fired.append("far"))
        sim.schedule(ns(2_000_000), lambda: fired.append("farther"))
        sim.cancel(handle)
        sim.run()
        assert fired == ["farther"]

    def test_cancel_does_not_perturb_survivors(self):
        sim = Simulator()
        fired = []
        keep = []
        for i in range(20):
            handle = sim.schedule(ns(i + 1), lambda i=i: fired.append(i))
            if i % 3 != 0:
                keep.append(i)
            else:
                sim.cancel(handle)
        sim.run()
        assert fired == keep


def _run_script(seed: int, chunk: int | None = None):
    """Drive one simulator through a seeded random op stream.

    The RNG decides a mix of schedules with delays from 0 ps to several
    microseconds, mid-callback reschedules, and cancellations of handles
    that may be live or already dispatched. Returns the dispatch trace
    as ``(time, event_id)`` pairs, each id's scheduled time (ids count
    up in schedule order), and the ids whose cancel succeeded. With
    ``chunk`` set, the queue is drained in ``run(until=now + chunk)``
    windows, as the runner's watchdog does, instead of one ``run()``.
    """
    import random

    rng = random.Random(seed)
    sim = Simulator()
    trace = []
    due = {}
    cancelled = set()
    handles = []
    delay_choices = (0, 1, 512, 1024, 4096, 100_000, 2_000_000, 6_000_000)

    def fire(event_id):
        trace.append((sim.now, event_id))
        roll = rng.random()
        if roll < 0.5 and len(due) < 200:
            spawn(rng.choice(delay_choices))
        if roll > 0.7 and handles:
            victim, handle = handles.pop(rng.randrange(len(handles)))
            if sim.cancel(handle):
                cancelled.add(victim)

    def spawn(delay):
        event_id = len(due)
        due[event_id] = sim.now + delay
        handles.append((event_id, sim.schedule(delay, fire, event_id)))

    for _ in range(40):
        spawn(rng.choice(delay_choices))
    if chunk is None:
        sim.run()
    else:
        while sim.pending():
            sim.run(until=sim.now + chunk)
    return trace, due, cancelled


@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_op_stream_dispatches_in_time_then_schedule_order(seed):
    """Any randomized op stream dispatches in exact (time, seq) order:
    times never decrease, equal times fire in schedule order, no
    cancelled event fires and every other event fires exactly once, at
    its scheduled time."""
    trace, due, cancelled = _run_script(seed)
    assert trace == sorted(trace)
    assert all(time == due[event_id] for time, event_id in trace)
    fired = [event_id for _, event_id in trace]
    assert not cancelled.intersection(fired)
    assert sorted(fired) == sorted(set(due) - cancelled)


@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.sampled_from((4096, 100_000, 2_500_000)))
def test_random_op_stream_chunked_runs_match_one_run(seed, chunk):
    """Draining an op stream in bounded run(until=) windows dispatches
    the same events, at the same times, in the same order, and cancels
    the same ones as a single uninterrupted run."""
    assert _run_script(seed, chunk) == _run_script(seed)


@given(st.lists(st.integers(min_value=0, max_value=10**9), min_size=1, max_size=50))
def test_property_dispatch_order_is_sorted(delays):
    """Whatever the insertion order, dispatch times are nondecreasing."""
    sim = Simulator()
    seen = []
    for delay in delays:
        sim.schedule(delay, lambda: seen.append(sim.now))
    sim.run()
    assert seen == sorted(seen)
    assert len(seen) == len(delays)
