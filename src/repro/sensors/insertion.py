"""Automatic sensor insertion at critical path endpoints (Section 4.2).

Given an IP and the critical-path bin produced by STA, this pass:

1. materialises each monitored register's D input as an explicit
   endpoint signal (:mod:`repro.sensors.endpoints`);
2. back-annotates the STA nominal path delay on that signal (applied
   to the simulator at configuration time) -- clamped into the window
   each sensor type requires:

   * **Razor**: ``(0.6 T, T)`` -- critical paths consume most of the
     period, and the lower clamp models the min-path padding real
     Razor deployments need so the shadow latch never captures
     next-cycle data;
   * **Counter**: ``(0.3 T, 0.7 T)`` -- the counter-augmented IP is
     operated with nominal arrivals comfortably inside the
     observability window so the LUT threshold (8 HF periods by
     default) flags only genuine degradation;

3. instantiates the sensor bank and the new top-level ports
   (``metric_ok`` plus ``razor_err``/``razor_r`` or ``meas_val`` and
   the ``hf_clk`` input).

The transform happens **in place**: callers that need a pristine IP
for golden comparisons must construct a fresh instance from its
factory (all case-study IPs are factory functions).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtl.ir import Module, Signal
from repro.rtl.kernel import Simulation
from repro.sta.critical import CriticalPathReport, MonitoredPath

# (calibration uses the event-driven kernel on the endpoint-extracted,
# sensor-free design)

from .counter import (
    HF_RATIO_DEFAULT,
    LUT_THRESHOLD_DEFAULT,
    CounterBank,
    attach_counter_bank,
)
from .endpoints import InsertionError, extract_endpoint_signals
from .razor import RazorBank, attach_razor_bank

__all__ = ["AugmentedIP", "insert_sensors", "InsertionError"]


@dataclass
class AugmentedIP:
    """An IP augmented with delay sensors, ready to simulate."""

    module: Module
    sensor_type: str                  # "razor" or "counter"
    clock: Signal
    main_period_ps: int
    monitored: "list[MonitoredPath]"
    endpoint_of: "dict[Signal, Signal]"
    nominal_delay_of: "dict[Signal, int]"  # endpoint signal -> ps
    bank: "RazorBank | CounterBank"
    hf_clock: "Signal | None" = None
    hf_ratio: int = HF_RATIO_DEFAULT

    @property
    def sensor_count(self) -> int:
        return len(self.monitored)

    def clocks(self) -> "dict[Signal, int]":
        """Clock map for :class:`~repro.rtl.kernel.Simulation`."""
        clock_map = {self.clock: self.main_period_ps}
        if self.hf_clock is not None:
            clock_map[self.hf_clock] = self.main_period_ps // self.hf_ratio
        return clock_map

    def make_simulation(self, **kw) -> Simulation:
        """A simulator with back-annotated nominal path delays."""
        sim = Simulation(self.module, self.clocks(), **kw)
        self.bank.configure_simulation(sim)
        return sim

    def endpoint_for(self, register_name: str) -> Signal:
        for reg, endpoint in self.endpoint_of.items():
            if reg.name == register_name:
                return endpoint
        raise KeyError(register_name)

    def hf_period_ps(self) -> int:
        return self.main_period_ps // self.hf_ratio


def _razor_nominal(path: MonitoredPath, period: int) -> int:
    low = int(0.6 * period) + 1
    high = period - 1
    return max(low, min(int(path.arrival_ps), high))


def _counter_nominal(path: MonitoredPath, period: int) -> int:
    low = int(0.3 * period)
    high = int(0.7 * period)
    return max(low, min(int(path.arrival_ps), high))


def calibrate_cps_bits(
    module: Module,
    clocks: "dict[Signal, int]",
    endpoints: "dict[Signal, Signal]",
    stimuli: "list[dict[str, int]]",
) -> "dict[str, int | str]":
    """Select each endpoint's critical bit from testbench activity.

    The Counter sensor observes a *single extracted bit* of the
    arriving word (paper Section 4.2: "an intermediate variable used
    to extract single critical bits").  A bit that never toggles under
    the testbench makes the sensor blind -- and such bits are real:
    CIC difference values, for instance, have structurally constant
    LSBs.  This calibration simulates the endpoint-extracted (but not
    yet sensor-attached) design under the shipped testbench, counts
    per-bit toggles of every endpoint, and picks the most active bit
    (falling back to the parity detector when nothing toggles).
    """
    sim = Simulation(module, clocks)
    inputs = {p.name: p for p in module.inputs()}
    watched = list(endpoints.items())
    toggles: dict[int, list[int]] = {
        id(ep): [0] * ep.width for _, ep in watched
    }
    previous: dict[int, int] = {
        id(ep): sim.peek_int(ep) for _, ep in watched
    }
    for vec in stimuli:
        sim.cycle({inputs[k]: v for k, v in vec.items() if k in inputs})
        for _, ep in watched:
            cur = sim.peek_int(ep)
            diff = cur ^ previous[id(ep)]
            previous[id(ep)] = cur
            if diff:
                counts = toggles[id(ep)]
                for bit in range(ep.width):
                    if (diff >> bit) & 1:
                        counts[bit] += 1
    chosen: dict[str, int | str] = {}
    for register, ep in watched:
        counts = toggles[id(ep)]
        best = max(range(ep.width), key=counts.__getitem__)
        chosen[register.name] = best if counts[best] else "parity"
    return chosen


def insert_sensors(
    module: Module,
    clock: Signal,
    critical: CriticalPathReport,
    *,
    sensor_type: str = "razor",
    hf_ratio: int = HF_RATIO_DEFAULT,
    lut_threshold: int = LUT_THRESHOLD_DEFAULT,
    calibration_stimuli: "list[dict[str, int]] | None" = None,
) -> AugmentedIP:
    """Insert one sensor per critical path endpoint (in place).

    For Counter sensors, ``calibration_stimuli`` (normally the IP's
    own testbench) drives the CPS-bit selection; without it the LSB is
    used.
    """
    if sensor_type not in ("razor", "counter"):
        raise InsertionError(f"unknown sensor type {sensor_type!r}")
    period = critical.clock_period_ps
    if sensor_type == "counter":
        if period % hf_ratio:
            raise InsertionError(
                f"main period {period} not divisible by HF ratio {hf_ratio}"
            )
        if (period // hf_ratio) % 2:
            raise InsertionError(
                "HF period must be even (kernel clock constraint); "
                f"got {period // hf_ratio}"
            )

    registers = [p.endpoint for p in critical.monitored]
    endpoint_of = extract_endpoint_signals(module, registers)

    nominal_fn = _razor_nominal if sensor_type == "razor" else _counter_nominal
    triples = []
    nominal_delay_of: dict[Signal, int] = {}
    for path in critical.monitored:
        endpoint = endpoint_of[path.endpoint]
        nominal = nominal_fn(path, period)
        nominal_delay_of[endpoint] = nominal
        triples.append((path.endpoint, endpoint, nominal))

    if sensor_type == "razor":
        bank = attach_razor_bank(module, clock, triples)
        hf_clock = None
    else:
        cps_bits = None
        if calibration_stimuli:
            cps_bits = calibrate_cps_bits(
                module,
                {clock: period},
                endpoint_of,
                calibration_stimuli,
            )
        hf_clock = module.input("hf_clk")
        bank = attach_counter_bank(
            module,
            clock,
            hf_clock,
            triples,
            main_period_ps=period,
            hf_ratio=hf_ratio,
            lut_threshold=lut_threshold,
            cps_bits=cps_bits,
        )

    return AugmentedIP(
        module=module,
        sensor_type=sensor_type,
        clock=clock,
        main_period_ps=period,
        monitored=list(critical.monitored),
        endpoint_of=endpoint_of,
        nominal_delay_of=nominal_delay_of,
        bank=bank,
        hf_clock=hf_clock,
        hf_ratio=hf_ratio,
    )
