"""The Counter-based delay monitor (paper Section 4.1.2).

Each monitored endpoint gets a quantitative delay measurement instead
of Razor's binary detection:

* a counter clocked by the **high-frequency clock** ``HF_CLK`` (whose
  period is ``1/ratio`` of the main clock) counts periods elapsed
  since the launching main-clock rising edge;
* all transitions of the monitored *current path signal* (CPS) inside
  the **observability window** (one main-clock period here) are
  captured: register ``R1`` stores the count at the last rising
  transition, ``R2`` at the last falling transition;
* when the window closes, the count of the last transition, selected
  by the latched CPS value, becomes ``MEAS_VAL``; a look-up-table
  threshold comparison drives ``OUT_OK`` (1 = timing constraint met).

The CPS is a single critical bit extracted from the (multi-bit)
endpoint signal -- the paper's "intermediate variable used to extract
single critical bits".  Because the whole endpoint word commits with
one (delayed) transport event, *any* bit of it carries the full path
delay; what matters for observability is how often the chosen bit
toggles under the testbench.  The default extraction is therefore the
LSB (the most frequently toggling bit of typical datapath words);
``cps_bit`` selects another index or ``"parity"`` for a reduction-XOR
detector.

Measured value: a transition arriving ``d`` ps after the launching
edge is captured at the first HF rising edge at or after the arrival,
so ``MEAS_VAL == ceil(d / T_HF)`` -- resolution of one HF period and
maximum error of half a period, as the paper states.

``MEAS_VAL`` / ``OUT_OK`` update with the paper's three-cycle
measurement latency (measure window, transfer, output-stable cycle).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtl.build import red_xor
from repro.rtl.ir import Assign, Concat, Module, NativeProcess, Signal

__all__ = [
    "CounterTap",
    "CounterBank",
    "attach_counter_bank",
    "HF_RATIO_DEFAULT",
    "LUT_THRESHOLD_DEFAULT",
    "MEASUREMENT_LATENCY_CYCLES",
]

#: Counter area for 10 paths / 8-bit measurement is ~352 NAND2 in the
#: paper; per-path share used for area accounting.
COUNTER_AREA_NAND2_PER_PATH = 35.2
COUNTER_FF_BITS_PER_PATH = 18  # count share + R1 + R2 + latches (8b meas)

#: HF cycles per main-clock cycle (paper Fig. 8 wraps 10 HF cycles
#: into one TLM transaction).
HF_RATIO_DEFAULT = 10

#: Measurement resolution in bits (MEAS_VAL width; paper uses 8).
MEAS_WIDTH = 8

#: Global LUT threshold in HF periods (paper Section 8.5: delays above
#: 8 HF periods are notified as errors, below are tolerated).
LUT_THRESHOLD_DEFAULT = 8

#: Output latency in main-clock cycles (paper Section 4.1.2).
MEASUREMENT_LATENCY_CYCLES = 3

_MEAS_CAP = (1 << MEAS_WIDTH) - 1
_LATENCY_SLOTS = MEASUREMENT_LATENCY_CYCLES - 1


@dataclass(frozen=True)
class CounterTap:
    """One monitored endpoint with its measurement plumbing."""

    register: Signal
    endpoint: Signal        # q__d (multi-bit arrival signal)
    cps: Signal             # extracted single critical bit
    meas_val: Signal        # per-sensor 8-bit measurement output
    out_ok: Signal          # per-sensor threshold check
    nominal_delay_ps: int
    lut_threshold: int
    cps_index: "int | str" = 0  # bit index, or "parity"


@dataclass
class CounterBank:
    """All Counter-based monitors of one augmented IP."""

    module: Module
    clock: Signal
    hf_clock: Signal
    hf_ratio: int
    taps: "list[CounterTap]" = field(default_factory=list)
    metric_ok: "Signal | None" = None
    meas_bus: "Signal | None" = None  # concatenation of all MEAS_VALs

    def configure_simulation(self, sim) -> None:
        """Back-annotate nominal path delays on all endpoints."""
        for tap in self.taps:
            sim.set_transport_delay(tap.endpoint, tap.nominal_delay_ps)

    def tap_for(self, register_name: str) -> CounterTap:
        for tap in self.taps:
            if tap.register.name == register_name:
                return tap
        raise KeyError(register_name)


def _write_changed(ctx, values, sig: Signal, value: int) -> None:
    """``ctx.write(sig, value)`` unless ``sig`` already holds ``value``:
    committing an equal value to an undelayed signal changes nothing,
    so skipping it only saves the allocation."""
    current = values[sig]
    if current.unk or current.value != value:
        ctx.write(sig, value)


class _CounterMeasure:
    """The bank's native process, run at every HF rising edge.

    The CPS bit is sampled straight off the endpoint signal (the
    kernel applies delayed commits before edge processes run, so an
    arrival ``d`` ps after the launching edge is visible at the first
    HF tick >= d and recorded with count ``ceil(d/T_HF)``).  HF ticks
    coinciding with main-clock rising edges close the observability
    window: the last-transition count is selected by the latched CPS
    value (R1 for rising, R2 for falling), pushed through the
    three-cycle latency pipeline, compared against the LUT threshold,
    and the window state cleared.

    Sampling is change-driven: per-tap state lives in flat lists
    indexed by tap position, and a tap whose endpoint still holds the
    very ``LV`` object it held at the previous tick is skipped.  That
    is exact -- values are immutable and the kernel replaces a stored
    value only when it changes, so the same object means the same CPS
    bit and therefore no transition.

    A module-level callable holding its taps as immutable data, so an
    augmented design pickles; all mutable state lives in
    ``ctx.state``, which simulator snapshots copy.  ``lanes`` binds
    what each HF tick reads per tap -- its position, endpoint and CPS
    bit index (``None`` for the parity detector) -- into one tuple.
    """

    __slots__ = ("taps", "lanes", "main_period_ps")

    def __init__(self, taps: "tuple[CounterTap, ...]",
                 main_period_ps: int) -> None:
        self.taps = taps
        self.lanes = tuple(
            (k, tap.endpoint,
             None if tap.cps_index == "parity" else tap.cps_index)
            for k, tap in enumerate(taps)
        )
        self.main_period_ps = main_period_ps

    def __call__(self, ctx) -> None:
        state = ctx.state
        if not state:
            n = len(self.taps)
            state["count"] = 0
            state["seen_lv"] = [None] * n  # endpoint at last tick
            state["cps"] = [None] * n      # CPS bit at last tick
            state["r1"] = [0] * n
            state["r2"] = [0] * n
            state["seen"] = [False] * n
            state["pipe"] = [[0] * _LATENCY_SLOTS for _ in range(n)]

        count = state["count"] + 1
        state["count"] = count
        values = ctx.values
        seen_lv, cps = state["seen_lv"], state["cps"]
        for k, endpoint, bit in self.lanes:
            lv = values[endpoint]
            if lv is seen_lv[k]:
                continue
            seen_lv[k] = lv
            word = lv.to_int_or(0)
            if bit is None:
                cur = bin(word).count("1") & 1
            else:
                cur = (word >> bit) & 1
            prev = cps[k]
            if prev is not None and cur != prev:
                if cur == 1:
                    state["r1"][k] = count
                else:
                    state["r2"][k] = count
                state["seen"][k] = True
            cps[k] = cur

        if ctx.now % self.main_period_ps == 0:
            # Window boundary: emit this window's measurement and reopen.
            r1, r2, seen = state["r1"], state["r2"], state["seen"]
            for k, tap in enumerate(self.taps):
                if seen[k]:
                    meas = r1[k] if cps[k] == 1 else r2[k]
                else:
                    meas = 0
                queue = state["pipe"][k]
                queue.append(min(meas, _MEAS_CAP))
                out = queue.pop(0)
                _write_changed(ctx, values, tap.meas_val, out)
                _write_changed(
                    ctx, values, tap.out_ok,
                    1 if (out == 0 or out <= tap.lut_threshold) else 0,
                )
                r1[k] = r2[k] = 0
                seen[k] = False
            state["count"] = 0


def attach_counter_bank(
    module: Module,
    clock: Signal,
    hf_clock: Signal,
    monitored: "list[tuple[Signal, Signal, int]]",
    *,
    main_period_ps: int,
    hf_ratio: int = HF_RATIO_DEFAULT,
    lut_threshold: int = LUT_THRESHOLD_DEFAULT,
    cps_bit: "int | str" = 0,
    cps_bits: "dict[str, int | str] | None" = None,
) -> CounterBank:
    """Attach Counter-based monitors to pre-extracted endpoints.

    ``monitored`` holds ``(register, endpoint_signal,
    nominal_delay_ps)`` triples.  Adds per-sensor CPS extraction combs,
    one native HF-clocked measurement process (which also closes the
    observability window at main-edge boundaries, detected by count
    wrap-around), and the ``meas_val``/``metric_ok`` top-level ports.
    """
    bank = CounterBank(
        module=module, clock=clock, hf_clock=hf_clock, hf_ratio=hf_ratio
    )

    cps_bits = cps_bits or {}
    for register, endpoint, nominal in monitored:
        cps = module.signal(f"{register.name}__cps")
        chosen = cps_bits.get(register.name, cps_bit)
        if chosen == "parity":
            extraction = red_xor(endpoint)
        else:
            chosen = min(int(chosen), endpoint.width - 1)
            extraction = endpoint[chosen]
        module.comb(
            f"{register.name}__cps_p", [Assign(cps, extraction)]
        )
        meas = module.signal(f"{register.name}__meas", MEAS_WIDTH)
        ok = module.signal(f"{register.name}__ok", init=1)
        tap = CounterTap(
            register=register,
            endpoint=endpoint,
            cps=cps,
            meas_val=meas,
            out_ok=ok,
            nominal_delay_ps=nominal,
            lut_threshold=lut_threshold,
            cps_index=chosen,
        )
        bank.taps.append(tap)

    taps = tuple(bank.taps)
    module.native(
        NativeProcess(
            "counter_bank",
            "sync",
            _CounterMeasure(taps, main_period_ps),
            clock=hf_clock,
            edge="rise",
            reads=[t.endpoint for t in taps] + [t.cps for t in taps],
            writes=[t.meas_val for t in taps] + [t.out_ok for t in taps],
            meta={
                "sensor": "counter",
                "hf_ratio": hf_ratio,
                "area_nand2": COUNTER_AREA_NAND2_PER_PATH * len(taps),
                "ff_bits": COUNTER_FF_BITS_PER_PATH * len(taps),
                "vhdl_template": "counter",
                "instances": [
                    {
                        "clock": clock.name,
                        "hf_clock": hf_clock.name,
                        "meas": t.meas_val.name,
                        "ok": t.out_ok.name,
                    }
                    for t in taps
                ],
            },
        )
    )

    # ------------------------------------------------------------------
    # Top-level ports: aggregated METRIC_OK, concatenated MEAS bus.
    # ------------------------------------------------------------------

    bank.metric_ok = module.output("metric_ok")
    bank.meas_bus = module.output(
        "meas_val", MEAS_WIDTH * max(1, len(taps))
    )
    if taps:
        ok_bits = [t.out_ok for t in taps]
        all_ok = ok_bits[0]
        for bit in ok_bits[1:]:
            all_ok = all_ok & bit
        module.comb("counter_metric_ok", [Assign(bank.metric_ok, all_ok)])
        meas_parts = [t.meas_val for t in reversed(taps)]
        bus = meas_parts[0] if len(meas_parts) == 1 else Concat(*meas_parts)
        module.comb("counter_meas_bus", [Assign(bank.meas_bus, bus)])
    else:
        module.comb("counter_metric_ok", [Assign(bank.metric_ok, 1)])
        module.comb("counter_meas_bus", [Assign(bank.meas_bus, 0)])
    return bank
