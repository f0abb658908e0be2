"""Threshold-based critical path binning (paper Section 4.2).

All register endpoints whose worst setup slack falls below a threshold
are binned *critical* and receive one delay sensor each at their
endpoint; the rest are guaranteed (by the conservative derating built
into the STA) to have a violation probability close to zero.

The bin also records the **nominal path delay** of each monitored
endpoint, which the augmented-RTL simulation back-annotates as a
transport delay -- this is what makes Razor's detection window
physically meaningful at RTL (data launched at one edge arrives close
to, but before, the next edge).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtl.ir import Signal

from .analyzer import StaReport

__all__ = ["MonitoredPath", "CriticalPathReport", "bin_critical_paths"]


@dataclass(frozen=True)
class MonitoredPath:
    """One critical path endpoint selected for sensor insertion."""

    endpoint: Signal
    slack_ps: float
    arrival_ps: float
    nominal_delay_ps: int
    startpoint: "Signal | None"
    path: "tuple[Signal, ...]"

    @property
    def name(self) -> str:
        return self.endpoint.name


@dataclass
class CriticalPathReport:
    """Binning outcome: monitored endpoints plus summary statistics."""

    threshold_ps: float
    clock_period_ps: int
    monitored: "list[MonitoredPath]"
    total_register_endpoints: int

    @property
    def count(self) -> int:
        return len(self.monitored)

    @property
    def coverage(self) -> float:
        """Fraction of register endpoints that received a sensor."""
        if not self.total_register_endpoints:
            return 0.0
        return self.count / self.total_register_endpoints

    def names(self) -> "list[str]":
        return [m.endpoint.name for m in self.monitored]


def bin_critical_paths(
    report: StaReport,
    threshold_ps: float,
) -> CriticalPathReport:
    """Bin register endpoints with ``slack < threshold`` as critical.

    The nominal back-annotation delay is the derated arrival time,
    clamped to at least 60% of the clock period so the Razor shadow
    latch's short-path constraint holds (the paper notes sensor
    locations need min-path padding during implementation; the clamp
    models that padding).
    """
    monitored: list[MonitoredPath] = []
    registers = report.register_endpoints()
    min_delay = int(0.6 * report.clock_period_ps) + 1
    max_delay = report.clock_period_ps - 1
    for ep in registers:
        if ep.slack_ps < threshold_ps:
            nominal = int(ep.arrival_ps)
            nominal = max(min_delay, min(nominal, max_delay))
            monitored.append(
                MonitoredPath(
                    endpoint=ep.endpoint,
                    slack_ps=ep.slack_ps,
                    arrival_ps=ep.arrival_ps,
                    nominal_delay_ps=nominal,
                    startpoint=ep.startpoint,
                    path=ep.path,
                )
            )
    monitored.sort(key=lambda m: m.slack_ps)
    return CriticalPathReport(
        threshold_ps=threshold_ps,
        clock_period_ps=report.clock_period_ps,
        monitored=monitored,
        total_register_endpoints=len(registers),
    )
