"""Simulation-time measurement harness for Tables 3-5.

The paper's speed claims compare four executions of the same workload:

* **RTL**: the event-driven four-valued kernel (QuestaSim stand-in);
* **TLM**: the generated model with SystemC-style data types;
* **optimised TLM**: the generated model with HDTLib word types;
* **injected TLM**: the optimised model with mutant plumbing active.

These helpers run one workload through each level and return wall
times, so benchmarks and examples report consistent numbers.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.abstraction import GeneratedTlm
from repro.sensors import AugmentedIP

__all__ = ["LevelTiming", "time_rtl", "time_tlm", "speedup"]


@dataclass(frozen=True)
class LevelTiming:
    """One measured execution."""

    level: str
    seconds: float
    cycles: int

    @property
    def cycles_per_second(self) -> float:
        return self.cycles / self.seconds if self.seconds else float("inf")


def time_rtl(
    augmented: AugmentedIP,
    stimuli: "list[dict[str, int]]",
    *,
    repeats: int = 1,
    exec_mode: str = "compiled",
) -> LevelTiming:
    """Run the augmented RTL through the event-driven kernel.

    ``exec_mode`` selects the kernel execution mode (``"compiled"``
    closures by default; ``"interpreted"`` for the reference walker).
    """
    input_ports = {p.name: p for p in augmented.module.inputs()}
    best = float("inf")
    for _ in range(repeats):
        sim = augmented.make_simulation(exec_mode=exec_mode)
        started = time.perf_counter()
        for vec in stimuli:
            sim.cycle({input_ports[k]: v for k, v in vec.items()})
        best = min(best, time.perf_counter() - started)
    level = "rtl" if exec_mode == "compiled" else f"rtl-{exec_mode}"
    return LevelTiming(level, best, len(stimuli))


def time_tlm(
    generated: GeneratedTlm,
    stimuli: "list[dict[str, int]]",
    *,
    level: "str | None" = None,
    mutant_index: "int | None" = None,
    repeats: int = 1,
) -> LevelTiming:
    """Run a generated TLM model over the workload."""
    name = level or f"tlm-{generated.variant}"
    best = float("inf")
    for _ in range(repeats):
        model = generated.instantiate()
        if mutant_index is not None:
            model.activate_mutant(mutant_index)
        started = time.perf_counter()
        for vec in stimuli:
            model.b_transport(vec)
        best = min(best, time.perf_counter() - started)
    return LevelTiming(name, best, len(stimuli))


def speedup(reference: LevelTiming, candidate: LevelTiming) -> float:
    """How many times faster ``candidate`` is than ``reference``."""
    if candidate.seconds == 0:
        return float("inf")
    return reference.seconds / candidate.seconds
