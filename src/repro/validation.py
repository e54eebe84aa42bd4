"""Self-check: fast invariants anyone can run after an install.

Mirrors the base-die BIST the paper mentions (§III-C3) in spirit: a
battery of checks over the configured timing, area, ECC, and protocol
constants, returning human-readable pass/fail lines. Timing claims are
checked on the simulated device (:class:`~repro.dram.device.DramChannel`)
where it times them. The CLI exposes it as ``tdram-repro selfcheck``;
CI runs it as a test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Tuple

from repro.core.area import die_area_report, signal_report, tag_bits_for
from repro.core.ecc import EccOutcome, tag_ecc_code
from repro.dram.device import HM_PACKET_TIME, DramChannel
from repro.dram.timing import DramTiming, TagTiming, hbm3_cache_timing, \
    rldram_like_tag_timing
from repro.sim.kernel import Simulator, ns


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def run_selfcheck(
    timing: DramTiming = None,
    tag: TagTiming = None,
) -> List[CheckResult]:
    """Run every invariant check; returns one result per check."""
    timing = timing or hbm3_cache_timing()
    tag = tag or rldram_like_tag_timing()
    checks: List[Tuple[str, Callable[[], Tuple[bool, str]]]] = []

    def check(name: str):
        def wrap(fn):
            checks.append((name, fn))
            return fn
        return wrap

    @check("tag access + HM transfer = 15 ns (matches RLDRAM tRL)")
    def _rl():
        value = tag.hm_result_delay
        return value == ns(15), f"tRCD_TAG + tHM = {value / 1000:.1f} ns"

    @check("internal tag result hides under tRCD (§III-C4)")
    def _hidden():
        internal = tag.tRCD_TAG + tag.tHM_int
        return internal <= timing.tRCD, (
            f"tRCD_TAG + tHM_int = {internal / 1000:.1f} ns vs "
            f"tRCD = {timing.tRCD / 1000:.1f} ns")

    @check("flush-buffer move beats incoming write data (§III-C4)")
    def _flush():
        # The dirty line must reach the flush buffer within
        # t_intRD + tWR_data_delay + tBURST/2 (4 + 4 + 1 = 9 ns).
        bound = ns(4) + ns(4) + timing.tBURST // 2
        return timing.tRL_core <= bound, (
            f"tRL_core = {timing.tRL_core / 1000:.1f} ns vs "
            f"{bound / 1000:.1f} ns")

    @check("HM result precedes read data (conditional response window)")
    def _window():
        channel = DramChannel(Simulator(), timing, 16, tag_timing=tag,
                              enable_refresh=False)
        grant = channel.issue_access(0, 0, is_write=False, with_tag=True)
        gap = grant.data_start - grant.hm_at
        return grant.hm_at < grant.data_start, (
            f"device ActRd: HM at {grant.hm_at / 1000:.2f} ns, data at "
            f"{grant.data_start / 1000:.2f} ns, window = {gap / 1000:.2f} ns")

    @check("die-area overhead = 8.24 % (§III-C5)")
    def _area():
        value = die_area_report().total_die_overhead
        return abs(value - 0.0824) < 0.001, f"{value:.2%}"

    @check("signal overhead = 192 pins, ~9.7 %, fits unused bumps (Fig 4A)")
    def _signals():
        report = signal_report()
        ok = (report.extra_channel_signals == 192
              and abs(report.overhead_fraction - 0.097) < 0.005
              and report.fits_in_unused_bumps)
        return ok, (f"{report.extra_channel_signals} pins, "
                    f"{report.overhead_fraction:.1%}")

    @check("1 PB / 64 GiB direct-mapped needs a 14-bit tag (§III-C3)")
    def _tagbits():
        bits = tag_bits_for(2 ** 50, 64 * 2 ** 30)
        return bits == 14, f"{bits} bits"

    @check("3 B metadata = 6 beats on the 4-bit HM bus (§III-B)")
    def _beats():
        beats = 3 * 8 // 4
        beat = ns(1 / timing.data_rate_gbps)
        return beats == 6 and HM_PACKET_TIME == beats * beat, (
            f"{beats} beats x {beat} ps = {beats * beat} ps vs "
            f"device HM packet {HM_PACKET_TIME} ps")

    @check("tag SECDED corrects any single-bit error in 8-bit budget")
    def _ecc():
        code = tag_ecc_code()
        if code.parity_bits > 8:
            return False, f"needs {code.parity_bits} bits"
        word = code.encode(0x2A5C)
        for bit in range(code.codeword_bits):
            result = code.decode(code.inject(word, (bit,)))
            if result.outcome is not EccOutcome.CORRECTED or \
                    result.data != 0x2A5C:
                return False, f"bit {bit} not corrected"
        return True, f"{code.parity_bits} check bits, all flips corrected"

    @check("data-bank row cycle matches Table III (tRAS + tRP = 42 ns)")
    def _trc():
        return timing.tRC == ns(42), f"tRC = {timing.tRC / 1000:.0f} ns"

    @check("patrol scrub batch fits one refresh window (tag banks idle)")
    def _scrub():
        from repro.ras.config import RasConfig

        config = RasConfig()
        batch = config.scrub_lines_per_pass * tag.tRC_TAG
        return batch <= timing.tRFC, (
            f"{config.scrub_lines_per_pass} lines x "
            f"tRC_TAG = {batch / 1000:.0f} ns vs "
            f"tRFC = {timing.tRFC / 1000:.0f} ns")

    @check("RAS retry bound gives every DETECTED word a second read")
    def _retry():
        from repro.ras.config import RasConfig

        limits = [RasConfig().retry_limit]
        limits += [RasConfig.campaign(1, mode).retry_limit
                   for mode in ("random", "single", "double")]
        return min(limits) >= 1, f"retry limits = {limits}"

    @check("degraded-way capacity math consistent with way-select model")
    def _degraded():
        from repro.core.ways import in_dram_way_select
        from repro.ras.degrade import effective_capacity_fraction

        fraction = effective_capacity_fraction(4, 1)
        survivors = in_dram_way_select(3)
        ok = (abs(fraction - 0.75) < 1e-9
              and survivors.total_latency_overhead == 0)
        return ok, (f"3/4 ways -> {fraction:.0%} capacity, "
                    f"+{survivors.total_latency_overhead} ps latency")

    results = []
    for name, fn in checks:
        try:
            passed, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash
            passed, detail = False, f"raised {exc!r}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))
    return results


def run_determinism_check(demands_per_core: int = 150,
                          seed: int = 11) -> List[CheckResult]:
    """Dynamic determinism gate: the same seed must reproduce bit-identically.

    The static rules SIM001/SIM002 (no wall-clock, no unseeded
    randomness; see docs/static-analysis.md) make this property likely;
    this check *measures* it: one short synthetic workload is simulated
    twice with identical inputs and every deterministic output surface —
    counters, dispatched-event count, runtime, and the epoch time
    series — must match exactly. Exposed as ``tdram-repro selfcheck
    --determinism`` and relied on by the campaign result cache (a cache
    hit asserts a re-run would have produced the same bytes).
    """
    from dataclasses import asdict

    from repro.config.system import SystemConfig
    from repro.experiments.runner import run_experiment
    from repro.obs.config import ObsConfig
    from repro.workloads.suite import any_workload

    config = SystemConfig.small().with_(obs=ObsConfig(epoch_us=5.0))
    spec = any_workload("synthetic")

    def once():
        result = run_experiment("tdram", spec, config=config,
                                demands_per_core=demands_per_core, seed=seed)
        payload = asdict(result)
        payload.pop("profile", None)  # host wall time, legitimately varies
        return payload

    first, second = once(), once()
    results: List[CheckResult] = []

    def compare(name: str, key: str) -> None:
        a, b = first[key], second[key]
        passed = a == b
        detail = "bit-identical" if passed else f"run 1 {a!r} != run 2 {b!r}"
        results.append(CheckResult(name=name, passed=passed, detail=detail))

    compare("same seed reproduces every counter (events)", "events")
    compare("same seed dispatches the same kernel events", "sim_events")
    compare("same seed reaches the same runtime", "runtime_ps")
    compare("same seed reproduces the epoch time series", "epochs")
    leftover = {key for key in first
                if first[key] != second[key]}
    results.append(CheckResult(
        name="every remaining RunResult field is identical",
        passed=not leftover,
        detail="all fields match" if not leftover
        else f"diverging fields: {sorted(leftover)}"))
    return results


def render_selfcheck(results: List[CheckResult]) -> str:
    lines = []
    for result in results:
        mark = "PASS" if result.passed else "FAIL"
        lines.append(f"[{mark}] {result.name} — {result.detail}")
    failed = sum(1 for r in results if not r.passed)
    lines.append(f"{len(results) - failed}/{len(results)} checks passed")
    return "\n".join(lines)
