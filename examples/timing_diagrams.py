#!/usr/bin/env python
"""Print the paper's timing transactions (Figures 5, 6, 7) as text.

Drives one ActRd hit, one ActRd miss to a clean line, one ActWr and one
Probe through a fresh simulated TDRAM channel each (Table III timing,
refresh off) and prints the instants the device grants: command issue,
the HM packet on the HM bus, the DQ burst, and when the tag bank and
data bank are ready again. The HM result reaches the controller well
before the data banks deliver, which is the conditional-response window.

Usage::

    python examples/timing_diagrams.py
"""

from repro.dram.device import HM_PACKET_TIME, AccessGrant, DramChannel
from repro.dram.monitor import CommandLog
from repro.dram.timing import hbm3_cache_timing, rldram_like_tag_timing
from repro.sim.kernel import Simulator, to_ns


def drive(title: str, probe: bool = False, **access) -> AccessGrant:
    """Issue one command at t=0 on bank 0 of a fresh channel; print it."""
    channel = DramChannel(Simulator(), hbm3_cache_timing(), 16,
                          tag_timing=rldram_like_tag_timing(),
                          enable_refresh=False)
    log = CommandLog()
    channel.observers.append(log)
    if probe:
        grant = channel.issue_probe(0, 0)
    else:
        grant = channel.issue_access(0, 0, with_tag=True, **access)
    record = log.records[0]
    events = [
        (record.time_ps, f"{record.command} issued on the CA bus"),
        (grant.hm_at - HM_PACKET_TIME, "HM packet starts on the HM bus"),
        (grant.hm_at, "HM result at controller"),
        (channel.tag_banks[0].ready_at, "tag bank ready"),
        (channel.banks[0].ready_at, "data bank ready"),
    ]
    if grant.data_start is not None:
        if access.get("transfer", True):
            events.append((grant.data_start, "data burst starts on DQ"))
            events.append((grant.data_end, "data burst ends"))
        else:
            events.append((grant.data_start, "DQ slot starts, no data driven"))
            events.append((grant.data_end, "DQ slot ends"))
    print(f"== {title} ==")
    for time_ps, label in sorted(events, key=lambda event: event[0]):
        print(f"  t = {to_ns(time_ps):6.2f} ns  {label}")
    moved = channel.bytes_read + channel.bytes_written
    print(f"  bytes moved on DQ: {moved}")
    print()
    return grant


def main() -> None:
    hit = drive("Figure 5: ActRd, read hit", is_write=False)
    drive("Figure 5: ActRd, read miss to a clean line", is_write=False,
          transfer=False)
    drive("Figure 6: ActWr", is_write=True)
    drive("Figure 7: early tag probe (data banks untouched)", probe=True)
    print("The model does not time tag-mat sensing, the internal HM result "
          "at the data banks, or the internal victim read into the flush "
          "buffer.")
    print(f"The HM result precedes the first read-data beat by "
          f"{to_ns(hit.data_start - hit.hm_at):.2f} ns — the window that "
          f"makes the conditional column operation possible.")


if __name__ == "__main__":
    main()
