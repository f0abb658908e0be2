"""Waveform recording and ASCII timing diagrams.

The recorder samples selected signals after every fully-settled
simulation time point and can render them as text timing diagrams, in
the style of the paper's Fig. 4.b (Razor mechanism) and Fig. 5.b
(Counter-based sensor mechanism).
"""

from __future__ import annotations

from .ir import Signal
from .kernel import Simulation
from .types import LV

__all__ = ["WaveRecorder"]

#: Column width of the signal names in :meth:`WaveRecorder.render`.
_NAME_WIDTH = 14


class WaveRecorder:
    """Records ``(time, value)`` changes for a set of signals."""

    def __init__(self, sim: Simulation, signals: "list[Signal]") -> None:
        self.signals = list(signals)
        self.history: dict[Signal, list[tuple[int, LV]]] = {
            sig: [(sim.time, sim.peek(sig))] for sig in self.signals
        }
        sim.watch(self._on_time_point)

    def _on_time_point(self, sim: Simulation, time: int) -> None:
        for sig in self.signals:
            value = sim.peek(sig)
            hist = self.history[sig]
            if hist[-1][1] != value:
                hist.append((time, value))

    def value_at(self, sig: Signal, time: int) -> LV:
        """Value a signal held at an absolute time."""
        result = self.history[sig][0][1]
        for t, value in self.history[sig]:
            if t > time:
                break
            result = value
        return result

    def changes(self, sig: Signal) -> "list[tuple[int, LV]]":
        """All recorded ``(time, value)`` change points of a signal."""
        return list(self.history[sig])

    def render(self, t_start: int, t_stop: int, step: int) -> str:
        """Render an ASCII timing diagram sampling every ``step`` ps.

        Single-bit signals render as ``_``/``#``/``X`` rails; multi-bit
        signals render their (hex) value at each change point.
        """
        times = list(range(t_start, t_stop + 1, step))
        lines = []
        header = " " * _NAME_WIDTH + "".join(
            f"{t // 1000:<6}" if (t % 5000 == 0) else " " * 6
            for t in times[:: max(1, len(times) // 12)]
        )
        lines.append(header.rstrip() + "  (ns)")
        for sig in self.signals:
            cells = []
            for t in times:
                value = self.value_at(sig, t)
                if sig.width == 1:
                    if value.unk:
                        cells.append("X")
                    else:
                        cells.append("#" if value.value else "_")
                else:
                    cells.append("?")
            if sig.width == 1:
                rail = "".join(cells)
            else:
                rail = self._multibit_rail(sig, times)
            lines.append(f"{sig.name:<{_NAME_WIDTH}}{rail}")
        return "\n".join(lines)

    def _multibit_rail(self, sig: Signal, times: "list[int]") -> str:
        cells = []
        previous = None
        for t in times:
            value = self.value_at(sig, t)
            if value != previous:
                text = "X" * 2 if value.unk == (1 << sig.width) - 1 else (
                    f"{value.to_int_or(0):x}"
                )
                cells.append(f"|{text}")
                previous = value
            else:
                cells.append(".")
        return "".join(cells)
