"""Loosely-timed and approximately-timed protocol drivers (Section 2.4).

Both drivers push per-cycle input dictionaries through a bound
initiator socket:

* the **loosely-timed** driver runs with temporal decoupling -- it
  fires transactions back-to-back and only reconciles its local time
  with the global quantum every ``quantum_cycles`` transactions
  (resource contention is not modelled, as the paper notes for LT);
* the **approximately-timed** driver uses the two-phase non-blocking
  interface, synchronising time at every transaction -- slower, but
  cycle-faithful arbitration hooks are possible.

Both produce identical functional results for a synchronous block;
they exist to reproduce the protocol layer of the TLM-2.0 stack and
to let the benchmarks quantify the protocol overhead difference.
"""

from __future__ import annotations

from dataclasses import dataclass

from .payload import GenericPayload, TlmCommand
from .sockets import InitiatorSocket, TlmPhase

__all__ = ["LooselyTimedDriver", "ApproximatelyTimedDriver"]


@dataclass
class _DriverStats:
    transactions: int = 0
    syncs: int = 0
    local_time_ps: int = 0


class LooselyTimedDriver:
    """Temporally-decoupled initiator (LT protocol)."""

    def __init__(self, quantum_cycles: int = 100) -> None:
        if quantum_cycles <= 0:
            raise ValueError("quantum must be positive")
        self.socket = InitiatorSocket(self)
        self.quantum_cycles = quantum_cycles
        self.stats = _DriverStats()
        self._since_sync = 0

    def cycle(self, inputs: "dict[str, int]") -> "dict[str, int]":
        """Run one cycle; returns the outputs observed."""
        payload = GenericPayload(command=TlmCommand.WRITE, data=dict(inputs))
        self.stats.local_time_ps = self.socket.b_transport(
            payload, self.stats.local_time_ps
        )
        if not payload.is_ok:
            raise RuntimeError(f"transaction failed: {payload.response}")
        self.stats.transactions += 1
        self._since_sync += 1
        if self._since_sync >= self.quantum_cycles:
            # Quantum boundary: reconcile with global time.
            self.stats.syncs += 1
            self._since_sync = 0
        return payload.data

    def run(self, stream) -> "list[dict[str, int]]":
        """Drive a sequence of input dicts; collect outputs."""
        return [self.cycle(inputs) for inputs in stream]


class ApproximatelyTimedDriver:
    """Per-cycle synchronising initiator (AT protocol, two-phase)."""

    def __init__(self) -> None:
        self.socket = InitiatorSocket(self)
        self.stats = _DriverStats()

    def cycle(self, inputs: "dict[str, int]") -> "dict[str, int]":
        payload = GenericPayload(command=TlmCommand.WRITE, data=dict(inputs))
        phase, new_time = self.socket.nb_transport_fw(
            payload, TlmPhase.BEGIN_REQ, self.stats.local_time_ps
        )
        if phase is not TlmPhase.BEGIN_RESP:
            raise RuntimeError(f"unexpected phase {phase}")
        # AT synchronises at every transaction boundary.
        self.stats.local_time_ps = new_time
        self.stats.syncs += 1
        self.socket.nb_transport_fw(
            payload, TlmPhase.END_RESP, self.stats.local_time_ps
        )
        self.stats.transactions += 1
        if not payload.is_ok:
            raise RuntimeError(f"transaction failed: {payload.response}")
        return payload.data

    def run(self, stream) -> "list[dict[str, int]]":
        return [self.cycle(inputs) for inputs in stream]
