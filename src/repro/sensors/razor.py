"""The modified Razor flip-flop (paper Section 4.1.1).

Each monitored register ``q`` is replaced by a Razor sensor:

* the **main FF** keeps the original synchronous behaviour
  (``q <= q__d`` at the rising edge);
* a **shadow latch** samples the same D input half a clock period
  later (the delayed-clock negative level of the paper, realised here
  as a falling-edge sample);
* an XOR of main and shadow drives the per-sensor **error output E**;
* when the recovery input ``R`` is high, a detected mismatch writes
  the shadow value back into the main FF and asserts a one-cycle
  **pipeline stall**, reproducing the paper's "normal operating mode
  delayed by one cycle" recovery strategy.

Timing correctness relies on two constraints the insertion pass
enforces:

* the monitored path's nominal (back-annotated) delay exceeds half the
  clock period, so the shadow latch never captures next-cycle data --
  the *short-path* constraint of real Razor deployments;
* arrivals between the rising edge and the following falling edge
  (the Razor detection window) reach the shadow latch but miss the
  main FF, which is precisely the situation the delay mutants create.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rtl.build import b_not, red_or
from repro.rtl.ir import (
    Assign,
    Concat,
    If,
    Module,
    NativeProcess,
    Signal,
    SyncProcess,
)

__all__ = ["RazorTap", "RazorBank", "attach_razor_bank"]

#: Area of one modified Razor FF in NAND2 equivalents ("about one
#: standard FF" per the paper: FF + shadow latch + XOR + mux).
RAZOR_AREA_NAND2 = 14.0
RAZOR_FF_BITS = 2  # main bit is counted with the IP; shadow + E here


@dataclass(frozen=True)
class RazorTap:
    """One monitored endpoint: register, its D signal and its E flag."""

    register: Signal
    endpoint: Signal  # q__d
    error: Signal     # per-sensor E output
    nominal_delay_ps: int


@dataclass
class RazorBank:
    """All Razor sensors of one augmented IP plus shared controls."""

    module: Module
    clock: Signal
    taps: "list[RazorTap]" = field(default_factory=list)
    recovery: "Signal | None" = None   # R input port
    stall: "Signal | None" = None      # pipeline-hold signal
    metric_ok: "Signal | None" = None  # top-level METRIC_OK output
    error_bus: "Signal | None" = None  # concatenated E bits

    def error_signals(self) -> "list[Signal]":
        return [t.error for t in self.taps]

    def configure_simulation(self, sim) -> None:
        """Back-annotate nominal path delays on all endpoints."""
        for tap in self.taps:
            sim.set_transport_delay(tap.endpoint, tap.nominal_delay_ps)


class _RazorShadowCompare:
    """The bank's native falling-edge process: shadow-latch sampling
    and compare for every tap.

    A module-level callable holding its taps and control signals as
    immutable data, so an augmented design pickles; the one piece of
    mutable state (``cooldown``) lives in ``ctx.state``, which
    simulator snapshots copy.

    After a recovery event the comparison is masked for one cycle
    (``cooldown``): the recovery write re-launches the monitored
    combinational cone mid-cycle, so the very next shadow sample
    would compare against freshly relaunched data.  Real Razor
    deployments re-arm error detection after the restore cycle for
    the same reason.
    """

    __slots__ = ("taps", "recovery", "stall")

    def __init__(self, taps: "tuple[RazorTap, ...]", recovery: Signal,
                 stall: Signal) -> None:
        self.taps = taps
        self.recovery = recovery
        self.stall = stall

    def __call__(self, ctx) -> None:
        taps, stall = self.taps, self.stall
        state = ctx.state
        if state.get("cooldown", 0):
            state["cooldown"] -= 1
            for tap in taps:
                ctx.write(tap.error, 0)
            ctx.write(stall, 0)
            return
        any_mismatch = False
        recover = ctx.read(self.recovery)
        recovery_on = not recover.unk and recover.value == 1
        for tap in taps:
            shadow = ctx.read(tap.endpoint)
            main = ctx.read(tap.register)
            diff = main ^ shadow
            mismatch = diff.reduce_or()
            ctx.write(tap.error, mismatch)
            is_error = not mismatch.unk and mismatch.value == 1
            if is_error:
                any_mismatch = True
                if recovery_on:
                    ctx.write(tap.register, shadow)
        if any_mismatch and recovery_on:
            ctx.write(stall, 1)
            state["cooldown"] = 1
        else:
            ctx.write(stall, 0)


def _gate_sync_processes_with_stall(module: Module, stall: Signal) -> None:
    """Wrap every synchronous IR process body in ``if stall = '0'``.

    This is the architectural recovery hook: during the stall cycle all
    pipeline state holds, giving the late data time to arrive (the
    paper's "interrupting the normal pipeline operation")."""

    def visit(mod: Module) -> None:
        for proc in mod.processes:
            if isinstance(proc, SyncProcess):
                proc.stmts = [If(stall.eq(0), proc.stmts)]
        for _, child in mod.submodules:
            visit(child)

    visit(module)


def attach_razor_bank(
    module: Module,
    clock: Signal,
    monitored: "list[tuple[Signal, Signal, int]]",
) -> RazorBank:
    """Attach Razor sensors to pre-extracted endpoints (in place).

    ``monitored`` is a list of ``(register, endpoint_signal,
    nominal_delay_ps)`` triples.  Adds to the module: an ``razor_r``
    input (recovery enable), per-sensor error signals, a
    ``razor_err`` output bus, a ``metric_ok`` output and the internal
    ``razor_stall`` hold signal.
    """
    bank = RazorBank(module=module, clock=clock)
    bank.recovery = module.input("razor_r")
    # The stall is exported: real Razor deployments feed it to upstream
    # pipeline control, and the verification driver uses it to hold the
    # stimulus during recovery cycles.
    bank.stall = module.output("razor_stall")

    # Stall gating must wrap the *original* processes before any other
    # additions; sensors themselves are native processes and unaffected.
    _gate_sync_processes_with_stall(module, bank.stall)

    for register, endpoint, nominal in monitored:
        error = module.signal(f"{register.name}__razor_e")
        bank.taps.append(
            RazorTap(
                register=register,
                endpoint=endpoint,
                error=error,
                nominal_delay_ps=nominal,
            )
        )

    taps = tuple(bank.taps)
    recovery = bank.recovery
    stall = bank.stall

    reads = (
        [t.endpoint for t in taps]
        + [t.register for t in taps]
        + [recovery]
    )
    writes = [t.error for t in taps] + [t.register for t in taps] + [stall]
    module.native(
        NativeProcess(
            "razor_bank",
            "sync",
            _RazorShadowCompare(taps, recovery, stall),
            clock=clock,
            edge="fall",
            reads=reads,
            writes=writes,
            meta={
                "sensor": "razor",
                "area_nand2": RAZOR_AREA_NAND2 * len(taps),
                "ff_bits": RAZOR_FF_BITS * len(taps),
                "vhdl_template": "razor",
                "instances": [
                    {
                        "clock": clock.name,
                        "d": t.endpoint.name,
                        "q": t.register.name,
                        "e": t.error.name,
                        "r": recovery.name,
                    }
                    for t in taps
                ],
            },
        )
    )

    # METRIC_OK / error bus aggregation (combinational IR).
    bank.error_bus = module.output("razor_err", max(1, len(taps)))
    bank.metric_ok = module.output("metric_ok")
    if taps:
        errors = [t.error for t in taps]
        bus_expr = errors[0] if len(errors) == 1 else Concat(
            *reversed(errors)
        )
        module.comb("razor_err_bus", [Assign(bank.error_bus, bus_expr)])
        module.comb(
            "razor_metric_ok",
            [Assign(bank.metric_ok, b_not(red_or(bank.error_bus)))],
        )
    else:
        module.comb("razor_metric_ok", [Assign(bank.metric_ok, 1)])
    return bank
