"""TDRAM device internals — the paper's primary contribution.

The flush buffer, tag ECC, the early-tag-probing policy, way-selection
costs, and the area/pin overhead models. The command timing itself
(ActRd/ActWr/Probe, the HM bus, tag banks) is simulated by
:class:`repro.dram.device.DramChannel`.
"""

from repro.core.area import (
    AreaReport,
    SignalReport,
    die_area_report,
    signal_report,
    tag_bits_for,
)
from repro.core.ecc import EccOutcome, EccResult, SecdedCode, tag_ecc_code
from repro.core.flush_buffer import FlushBuffer
from repro.core.probe import ProbeEngine
from repro.core.ways import (
    WaySelectModel,
    controller_way_select,
    in_dram_way_select,
    way_select_comparison,
)

__all__ = [
    "AreaReport",
    "SignalReport",
    "die_area_report",
    "signal_report",
    "tag_bits_for",
    "EccOutcome",
    "EccResult",
    "SecdedCode",
    "tag_ecc_code",
    "FlushBuffer",
    "ProbeEngine",
    "WaySelectModel",
    "controller_way_select",
    "in_dram_way_select",
    "way_select_comparison",
]
