"""Event-driven RTL simulation kernel with delta cycles.

The kernel reproduces the HDL scheduler of the paper's Fig. 6.a:

1. at a clock edge, all synchronous processes sensitive to that edge
   run, reading pre-edge values; their writes are non-blocking;
2. committed writes that change a signal wake the combinational
   processes sensitive to it -- a *delta cycle*;
3. delta cycles repeat until no further event, then simulated time
   advances to the next scheduled event.

Time is in integer picoseconds.  Signals may carry a *transport
delay*: a write commits ``nominal_delay + injected_delay`` ps after
the process that produced it.  This models back-annotated path delays
(from STA) and RTL fault injection via delayed assignments (VHDL
``after``), which Section 8.5 of the paper uses to cross-validate the
TLM mutation results.

Any number of clocks is supported; the Counter-based sensor adds a
high-frequency clock whose period divides the main period.

Execution modes
---------------

``exec_mode="compiled"`` (the default) lowers every ``SyncProcess`` /
``CombProcess`` to a specialised Python closure at elaboration time
(:mod:`repro.rtl.compile`), eliminating the per-activation ``EvalEnv``
construction and recursive ``eval_expr`` dispatch of the interpreter.
``exec_mode="interpreted"`` keeps the accuracy-first IR walker of
:mod:`repro.rtl.eval` -- the semantic reference the compiled mode is
lockstep-tested against, and the mode to force when debugging a
suspected miscompile.  Native (Python-behaviour) processes run the
same way in both modes.

The scheduler itself is compiled too: at elaboration every signal and
array gets a precomputed *wake mask* (one bit per sensitive process),
so a delta cycle ORs a few ints and walks set bits instead of
allocating a seen-set and a woken-list per delta.
"""

from __future__ import annotations

import copy
import heapq

from .compile import compile_process
from .eval import EvalEnv, exec_stmts
from .ir import (
    Array,
    CombProcess,
    Module,
    NativeProcess,
    Process,
    Signal,
    SyncProcess,
    process_reads,
)
from .types import LV, ONEBIT

__all__ = ["Simulation", "SimulationError", "DeltaOverflowError", "NativeCtx"]

#: Safety bound on delta cycles within one time point.
MAX_DELTA_CYCLES = 1000

#: Shared empty result for commit calls with nothing pending (callers
#: only read it or ``|=`` it into a mutable set).
_EMPTY_SET: frozenset = frozenset()


class SimulationError(RuntimeError):
    """Raised on kernel-level failures (oscillation, bad configuration)."""


class DeltaOverflowError(SimulationError):
    """Raised when a combinational loop never settles."""


class NativeCtx:
    """Execution context handed to :class:`NativeProcess` callables."""

    __slots__ = ("_sim", "state", "now")

    def __init__(self, sim: "Simulation", state: dict, now: int) -> None:
        self._sim = sim
        self.state = state
        self.now = now

    def read(self, sig: Signal) -> LV:
        """Current value of a signal (pre-commit view)."""
        return self._sim._values[sig]

    @property
    def values(self) -> "dict[Signal, LV]":
        """The committed value store itself (read-only by contract): a
        process scanning many signals per activation indexes it once
        instead of paying one :meth:`read` call per signal."""
        return self._sim._values

    def write(self, sig: Signal, value: "LV | int") -> None:
        """Non-blocking write, committed with the surrounding delta."""
        if isinstance(value, int):
            value = LV.from_int(sig.width, value)
        self._sim._pending_native[sig] = value


class _Clock:
    """Book-keeping for one clock: value, period and next toggle time.
    ``rise_runners``/``fall_runners`` are filled at elaboration with
    the pre-bound activation closures of the synchronous processes on
    each edge."""

    __slots__ = (
        "signal", "period", "half", "next_toggle", "value",
        "rise_runners", "fall_runners",
    )

    def __init__(self, signal: Signal, period: int, first_rise: int) -> None:
        if period % 2:
            raise SimulationError(f"clock period must be even, got {period}")
        self.signal = signal
        self.period = period
        self.half = period // 2
        self.next_toggle = first_rise
        self.value = 0
        self.rise_runners: tuple = ()
        self.fall_runners: tuple = ()


class Simulation:
    """Event-driven simulator for an elaborated :class:`Module` tree.

    Parameters
    ----------
    top:
        The design to simulate (children are discovered automatically).
    clocks:
        Mapping of clock signals to periods in ps.  The first entry is
        the *main* clock that defines :meth:`cycle` boundaries.
    exec_mode:
        ``"compiled"`` (default) runs IR processes through closures
        generated once at elaboration; ``"interpreted"`` runs them
        through the reference IR walker of :mod:`repro.rtl.eval`.
    """

    def __init__(
        self,
        top: Module,
        clocks: "dict[Signal, int]",
        *,
        init_unknown: bool = False,
        input_launch_at_edge: bool = False,
        exec_mode: str = "compiled",
    ) -> None:
        if not clocks:
            raise SimulationError("at least one clock is required")
        if exec_mode not in ("compiled", "interpreted"):
            raise SimulationError(
                f"exec_mode must be 'compiled' or 'interpreted', "
                f"got {exec_mode!r}"
            )
        self.top = top
        self.exec_mode = exec_mode
        self.time = 0
        self._seq = 0
        #: When True, ``cycle()`` inputs take effect 1 ps after the next
        #: rising edge -- modelling inputs driven by upstream registers,
        #: which is required for designs carrying back-annotated path
        #: delays (an input changing just before the edge could never
        #: traverse a near-critical path in time, so testbench pokes
        #: must be launch-edge aligned there).
        self.input_launch_at_edge = input_launch_at_edge

        clock_items = list(clocks.items())
        self.main_clock = clock_items[0][0]
        self.main_period = clock_items[0][1]
        self._clocks: dict[Signal, _Clock] = {}
        for sig, period in clock_items:
            sig.is_clock = True
            # First rising edge lands one full period after t=0 so the
            # testbench can poke inputs at t=0 before any edge.
            self._clocks[sig] = _Clock(sig, period, first_rise=period)

        # -- value stores ------------------------------------------------
        self._values: dict[Signal, LV] = {}
        self._arrays: dict[Array, list[LV]] = {}
        for sig in top.all_signals():
            if init_unknown and sig.direction != "in" and not sig.is_clock:
                self._values[sig] = LV.all_x(sig.width)
            else:
                self._values[sig] = sig.init_lv
        for clk in self._clocks.values():
            self._values[clk.signal] = LV.from_int(1, 0)
        for arr in top.all_arrays():
            self._arrays[arr] = [LV.from_int(arr.width, w) for w in arr.init]

        # -- process maps -------------------------------------------------
        self._sync_map: dict[tuple[int, str], list[Process]] = {}
        self._sens_map: dict[Signal, list[Process]] = {}
        self._native_state: dict[int, dict] = {}
        self._comb_procs: list[Process] = []
        self._compiled: dict[int, object] = {}
        for _, proc in top.all_processes():
            self._register_process(proc)
            if exec_mode == "compiled" and isinstance(
                proc, (SyncProcess, CombProcess)
            ):
                self._compiled[id(proc)] = compile_process(proc)

        # -- scheduling --------------------------------------------------
        self._pending_nba: dict[Signal, LV] = {}
        self._pending_native: dict[Signal, LV] = {}
        self._pending_arrays: list[tuple] = []
        self._delayed: list[tuple[int, int, Signal, LV]] = []
        self._nominal_delay: dict[Signal, int] = {}
        self._injected_delay: dict[Signal, int] = {}
        self._delays_active = False
        #: Read-through cell for the compiled strict-commit flag
        #: (single mutable slot shared by every runner closure).
        self._strict_cell: list = [False]

        # -- instrumentation -----------------------------------------------
        self.stats = {
            "process_activations": 0,
            "delta_cycles": 0,
            "events": 0,
            "cycles": 0,
        }
        self._watchers: list = []

        self._finalize_scheduling()

        # VHDL semantics: every process executes once at time zero
        # (combinational processes with constant drivers would otherwise
        # never run -- they have empty sensitivity lists).
        self.stats["process_activations"] += len(self._comb_procs)
        for proc in self._comb_procs:
            self._run_process(proc, set())
        initial_changes = self._commit_pending()
        self._settle_deltas(
            set(self._values) | set(self._arrays) | initial_changes
        )

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def _register_process(self, proc: Process) -> None:
        if isinstance(proc, SyncProcess):
            key = (id(proc.clock), proc.edge)
            self._sync_map.setdefault(key, []).append(proc)
            if proc.reset is not None:
                # Asynchronous reset: also sensitive to the reset signal.
                self._sens_map.setdefault(proc.reset, []).append(proc)
        elif isinstance(proc, CombProcess):
            sens = proc.sensitivity or sorted(
                process_reads(proc), key=lambda s: s.name
            )
            for sig in sens:
                self._sens_map.setdefault(sig, []).append(proc)
            # Array reads make the process sensitive to array writes
            # (HDL array-typed signals generate events on update).
            from .ir import stmt_read_arrays

            for arr in stmt_read_arrays(proc.stmts):
                self._sens_map.setdefault(arr, []).append(proc)
            self._comb_procs.append(proc)
        elif isinstance(proc, NativeProcess):
            self._native_state[id(proc)] = {}
            if proc.kind == "sync":
                key = (id(proc.clock), proc.edge)
                self._sync_map.setdefault(key, []).append(proc)
            else:
                for sig in proc.sensitivity:
                    self._sens_map.setdefault(sig, []).append(proc)
                self._comb_procs.append(proc)
        else:
            raise TypeError(f"unknown process type {type(proc)!r}")

    def _make_runner(self, proc: Process):
        """One pre-bound activation closure per process: the per-call
        plan lookup, isinstance dispatch and store attribute loads are
        resolved once at elaboration.  ``self._strict_cell`` is read
        through on every compiled activation, so flipping transport
        delays on or off never rebuilds runners."""
        plan = self._compiled.get(id(proc))
        if plan is not None:
            R, A = self._values, self._arrays
            W, AW = self._pending_nba, self._pending_arrays
            cell = self._strict_cell
            body = plan.body
            if plan.reset is None:
                def runner(changed) -> None:
                    body(R, A, W, AW, cell[0])
                return runner
            reset_body = plan.reset_body
            return self._gated_runner(
                plan.reset, plan.reset_level,
                lambda: body(R, A, W, AW, cell[0]),
                lambda: reset_body(R, A, W, AW, cell[0]),
            )
        if isinstance(proc, NativeProcess):
            def native_runner(changed, _proc=proc) -> None:
                ctx = NativeCtx(
                    self, self._native_state[id(_proc)], self.time
                )
                _proc.fn(ctx)
            return native_runner
        if isinstance(proc, SyncProcess) and proc.reset is not None:
            return self._gated_runner(
                proc.reset, proc.reset_level,
                lambda: self._exec_stmts_interpreted(proc.stmts),
                lambda: self._exec_stmts_interpreted(proc.reset_stmts),
            )

        def interp_runner(changed, _proc=proc) -> None:
            self._exec_stmts_interpreted(_proc.stmts)
        return interp_runner

    def _gated_runner(self, reset_sig, level, body, reset_body):
        """The single home of the asynchronous-reset gating semantics,
        shared by both execution modes: active reset runs the reset
        statements; a wake caused only by reset release (no clock
        edge) does nothing; otherwise the synchronous body runs."""
        R = self._values

        def runner(changed) -> None:
            rst = R[reset_sig]
            if not rst.unk and rst.value == level:
                reset_body()
                return
            if reset_sig in changed:
                return
            body()
        return runner

    def _finalize_scheduling(self) -> None:
        """Freeze the registration maps into the hot-path structures:
        per-process runner closures, edge-runner tuples, and a wake
        *bitmask* per signal/array (one bit per sensitive process, in
        first-registration order) so a delta cycle ORs a few ints and
        walks set bits -- no per-delta seen-set or woken-list."""
        runner_of: dict[int, object] = {}

        def runner(proc: Process):
            r = runner_of.get(id(proc))
            if r is None:
                r = self._make_runner(proc)
                runner_of[id(proc)] = r
            return r

        for procs in self._sync_map.values():
            for proc in procs:
                runner(proc)
        for proc in self._comb_procs:
            runner(proc)

        self._sync_runners: dict = {
            key: tuple(runner(p) for p in procs)
            for key, procs in self._sync_map.items()
        }
        for clk in self._clocks.values():
            clk.rise_runners = self._sync_runners.get(
                (id(clk.signal), "rise"), ()
            )
            clk.fall_runners = self._sync_runners.get(
                (id(clk.signal), "fall"), ()
            )
        proc_bit: dict[int, int] = {}
        wake_runners: list = []
        self._wake_mask: dict = {}
        for key, procs in self._sens_map.items():
            mask = 0
            for proc in procs:
                bit = proc_bit.get(id(proc))
                if bit is None:
                    bit = 1 << len(wake_runners)
                    proc_bit[id(proc)] = bit
                    wake_runners.append(runner(proc))
                mask |= bit
            self._wake_mask[key] = mask
        self._wake_runners: tuple = tuple(wake_runners)
        self._runner_map: dict = runner_of
        self._clock_list: tuple = tuple(self._clocks.values())

    # ------------------------------------------------------------------
    # Delay configuration (STA back-annotation and fault injection)
    # ------------------------------------------------------------------

    def set_transport_delay(self, sig: Signal, delay_ps: int) -> None:
        """Back-annotate a nominal propagation delay on a signal's driver."""
        if delay_ps < 0:
            raise SimulationError("delay must be non-negative")
        self._nominal_delay[sig] = delay_ps
        self._set_delays_active(True)

    def inject_extra_delay(self, sig: Signal, delay_ps: int) -> None:
        """Add fault-injection delay on top of the nominal delay
        (the RTL equivalent of a delay mutant)."""
        if delay_ps < 0:
            raise SimulationError("delay must be non-negative")
        self._injected_delay[sig] = delay_ps
        self._set_delays_active(True)

    def clear_injection(self, sig: "Signal | None" = None) -> None:
        """Remove one or all injected delays."""
        if sig is None:
            self._injected_delay.clear()
        else:
            self._injected_delay.pop(sig, None)
        self._set_delays_active(
            bool(self._nominal_delay or self._injected_delay)
        )

    def _set_delays_active(self, active: bool) -> None:
        """Track whether any transport delay is configured; the shared
        strict cell switches compiled commits between the
        skip-unchanged fast path and interpreter-exact strict
        scheduling without rebuilding any runner."""
        self._delays_active = active
        self._strict_cell[0] = active

    def _total_delay(self, sig: Signal) -> int:
        return self._nominal_delay.get(sig, 0) + self._injected_delay.get(sig, 0)

    # ------------------------------------------------------------------
    # Value access
    # ------------------------------------------------------------------

    def peek(self, sig: Signal) -> LV:
        """Current value of a signal."""
        return self._values[sig]

    def peek_int(self, sig: Signal, default: int = 0) -> int:
        """Current value as an int with unknowns folded to ``default``."""
        return self._values[sig].to_int_or(default)

    def peek_array(self, arr: Array) -> "tuple[LV, ...]":
        """Snapshot of an array's words (immutable; use
        :meth:`peek_array_word` inside monitor loops to avoid the
        whole-array copy per call)."""
        return tuple(self._arrays[arr])

    def peek_array_word(self, arr: Array, index: int) -> LV:
        """Current value of one array word (no copy)."""
        return self._arrays[arr][index]

    def poke(self, sig: Signal, value: "LV | int") -> None:
        """Drive a primary input immediately and settle delta cycles."""
        if sig.direction != "in":
            raise SimulationError(
                f"poke is only allowed on input ports, not {sig.name!r}"
            )
        if isinstance(value, int):
            value = LV.from_int(sig.width, value)
        if value.width != sig.width:
            raise SimulationError(
                f"poke width mismatch on {sig.name}: {value.width} != {sig.width}"
            )
        if self._values[sig] != value:
            self._values[sig] = value
            self._settle_deltas({sig})

    def force(self, sig: Signal, value: "LV | int") -> None:
        """Set any signal's value directly (simulator-command style fault
        injection; bypasses drivers for one delta)."""
        if isinstance(value, int):
            value = LV.from_int(sig.width, value)
        if value.width != sig.width:
            raise SimulationError(
                f"force width mismatch on {sig.name}: "
                f"{value.width} != {sig.width}"
            )
        if self._values[sig] != value:
            self._values[sig] = value
            self._settle_deltas({sig})

    def watch(self, callback) -> None:
        """Register ``callback(sim, time)`` invoked after each fully
        settled time point (used by the waveform recorder)."""
        self._watchers.append(callback)

    def unwatch(self, callback) -> None:
        """Remove a callback registered with :meth:`watch`; a no-op if
        it was never registered (or already removed)."""
        try:
            self._watchers.remove(callback)
        except ValueError:
            pass

    # ------------------------------------------------------------------
    # Core engine
    # ------------------------------------------------------------------

    def _run_process(self, proc: Process, changed: "set[Signal]") -> None:
        """Execute one process activation, buffering its writes.
        Delegates to the pre-bound runner (the single home of the
        compiled-plan / reset-gating logic).  ``process_activations``
        is counted in bulk by the schedulers that decide to activate,
        not here."""
        self._runner_map[id(proc)](changed)

    def _exec_stmts_interpreted(self, stmts) -> None:
        """Reference execution of one statement list through the IR
        walker of :mod:`repro.rtl.eval`, flushing the collected writes
        into the kernel's non-blocking buffers."""
        env = EvalEnv(
            read=self._values.__getitem__,
            read_array=self._arrays.__getitem__,
        )
        exec_stmts(stmts, env)
        for sig, value in env.sig_writes.items():
            self._pending_nba[sig] = value
        self._pending_arrays.extend(env.array_writes)

    def _commit_pending(self) -> "set[Signal]":
        """Commit buffered writes; returns the set of changed signals.
        Writes to signals with a configured transport delay are moved
        to the delayed-event heap instead."""
        if not (
            self._pending_nba or self._pending_native
            or self._pending_arrays
        ):
            return _EMPTY_SET
        changed: set[Signal] = set()
        values = self._values
        delays = self._delays_active
        for store in (self._pending_nba, self._pending_native):
            if not store:
                continue
            if delays:
                for sig, value in store.items():
                    delay = self._total_delay(sig)
                    if delay:
                        self._seq += 1
                        heapq.heappush(
                            self._delayed,
                            (self.time + delay, self._seq, sig, value),
                        )
                        continue
                    cur = values[sig]
                    if (
                        cur is not value
                        and (cur.value != value.value
                             or cur.unk != value.unk)
                    ):
                        values[sig] = value
                        changed.add(sig)
            else:
                # Inline plane comparison: widths are equal by
                # construction, so "did it change" is two int compares
                # (or one identity hit for interned 1-bit values).
                for sig, value in store.items():
                    cur = values[sig]
                    if cur is not value and (
                        cur.value != value.value or cur.unk != value.unk
                    ):
                        values[sig] = value
                        changed.add(sig)
            store.clear()
        if self._pending_arrays:
            arrays = self._arrays
            for arr, index, value in self._pending_arrays:
                if not index.unk and index.value < arr.depth:
                    words = arrays[arr]
                    if words[index.value] != value:
                        words[index.value] = value
                        changed.add(arr)
            self._pending_arrays.clear()
        self.stats["events"] += len(changed)
        return changed

    def _settle_deltas(self, changed: "set[Signal]") -> None:
        """Run combinational processes to a fixpoint (delta cycles).

        Wake-up is mask-based: each changed signal/array contributes a
        precomputed bitmask of sensitive processes, so one delta costs
        a few int ORs plus a set-bit walk -- no per-delta seen-set or
        woken-list allocation."""
        wake_of = self._wake_mask.get
        runners = self._wake_runners
        stats = self.stats
        commit = self._commit_pending
        for _ in range(MAX_DELTA_CYCLES):
            if not changed:
                return
            mask = 0
            for sig in changed:
                bits = wake_of(sig)
                if bits:
                    mask |= bits
            if not mask:
                return
            stats["delta_cycles"] += 1
            stats["process_activations"] += mask.bit_count()
            while mask:
                low = mask & -mask
                mask ^= low
                runners[low.bit_length() - 1](changed)
            changed = commit()
        raise DeltaOverflowError(
            f"combinational logic did not settle at t={self.time} ps"
        )

    def _apply_delayed_at(self, t: int) -> "set[Signal]":
        """Pop and apply delayed commits scheduled exactly at ``t``."""
        changed: set[Signal] = set()
        while self._delayed and self._delayed[0][0] == t:
            _, _, sig, value = heapq.heappop(self._delayed)
            if self._values[sig] != value:
                self._values[sig] = value
                changed.add(sig)
        self.stats["events"] += len(changed)
        return changed

    def _process_time_point(self, t: int) -> None:
        """One full simulation cycle at absolute time ``t``:
        delayed commits first, then clock toggles, then delta loop."""
        self.time = t

        changed = self._apply_delayed_at(t)
        edge_runners: tuple = ()

        for clk in self._clock_list:
            if clk.next_toggle == t:
                clk.value ^= 1
                # ONEBIT[(v << 1)]: interned 1-bit values, no per-edge
                # allocation for clock toggles.
                self._values[clk.signal] = ONEBIT[clk.value << 1]
                changed.add(clk.signal)
                runners = (
                    clk.rise_runners if clk.value else clk.fall_runners
                )
                if runners:
                    edge_runners = (
                        runners if not edge_runners
                        else edge_runners + runners
                    )
                clk.next_toggle = t + clk.half

        if edge_runners:
            self.stats["process_activations"] += len(edge_runners)
            for runner in edge_runners:
                runner(changed)
            changed |= self._commit_pending()

        self._settle_deltas(changed)
        for callback in self._watchers:
            callback(self, t)

    def _next_event_time(self) -> "int | None":
        t = None
        for clk in self._clock_list:
            nt = clk.next_toggle
            if t is None or nt < t:
                t = nt
        if self._delayed:
            dt = self._delayed[0][0]
            if t is None or dt < t:
                t = dt
        return t

    def run_until(self, t_stop: int) -> None:
        """Process every event with time <= ``t_stop``."""
        while True:
            t = self._next_event_time()
            if t is None or t > t_stop:
                break
            self._process_time_point(t)
        self.time = max(self.time, t_stop)

    # ------------------------------------------------------------------
    # Cycle-level testbench interface
    # ------------------------------------------------------------------

    def next_rising_edge(self) -> int:
        """Absolute time of the next rising edge of the main clock."""
        clk = self._clocks[self.main_clock]
        return clk.next_toggle if clk.value == 0 else clk.next_toggle + clk.half

    def cycle(self, inputs: "dict[Signal, int | LV] | None" = None) -> None:
        """Apply ``inputs`` now, then advance one full main-clock cycle
        (through the next rising and falling edges).

        After the call, outputs reflect the clock edge that consumed
        the supplied inputs -- the same contract as one TLM
        ``b_transport`` transaction in the abstracted model.  (With
        ``input_launch_at_edge`` the inputs are instead launched just
        after this cycle's rising edge and are consumed by the *next*
        edge, as data from an upstream register would be.)
        """
        t_rise = self.next_rising_edge()
        # Align the poke instant with steady state: inputs always apply
        # just before the consuming edge (the first call would otherwise
        # poke a full period early, letting delayed comb commits from
        # back-annotated paths land one cycle ahead).
        if self.time < t_rise - 1:
            self.run_until(t_rise - 1)
        if inputs:
            if self.input_launch_at_edge:
                for sig, value in inputs.items():
                    if isinstance(value, int):
                        value = LV.from_int(sig.width, value)
                    self._seq += 1
                    heapq.heappush(
                        self._delayed, (t_rise + 1, self._seq, sig, value)
                    )
            else:
                for sig, value in inputs.items():
                    self.poke(sig, value)
        self.run_until(t_rise + self.main_period - 1)
        self.stats["cycles"] += 1

    def run_cycles(self, n: int) -> None:
        """Run ``n`` cycles without poking any input."""
        for _ in range(n):
            self.cycle()

    # ------------------------------------------------------------------
    # State snapshot / restore (batched mutant sweeps)
    # ------------------------------------------------------------------

    def snapshot_state(self) -> dict:
        """Cheap copy of the committed simulation state.

        Captures only the *data planes* -- signal values, array words,
        clock phases, time, pending/delayed write buffers and native
        process state -- never the elaborated structures (runner
        closures, wake masks, sensitivity maps), which are immutable
        after construction and shared by every fork.  ``LV`` values are
        immutable, so the planes shallow-copy; native process state may
        nest mutable containers, so it is deep-copied here and again on
        every :meth:`restore_state` -- one snapshot can seed any number
        of forks without the live run ever aliasing it.

        The returned dict feeds :meth:`restore_state` on *this*
        simulation; the pair is what lets a batched mutant sweep
        (:mod:`repro.mutation.batched`) rewind one kernel to a cycle
        boundary instead of re-simulating from reset.
        """
        return {
            "time": self.time,
            "seq": self._seq,
            "values": dict(self._values),
            "arrays": {arr: list(words) for arr, words in self._arrays.items()},
            "clocks": [
                (clk.next_toggle, clk.value) for clk in self._clock_list
            ],
            "pending_nba": dict(self._pending_nba),
            "pending_native": dict(self._pending_native),
            "pending_arrays": list(self._pending_arrays),
            "delayed": list(self._delayed),
            "native_state": copy.deepcopy(self._native_state),
            "cycles": self.stats["cycles"],
        }

    def restore_state(self, snapshot: dict) -> None:
        """Rewind this simulation to a :meth:`snapshot_state` capture.

        The value stores are mutated *in place* (``clear`` +
        ``update``): every compiled runner closure binds the
        ``_values`` / ``_arrays`` / pending containers by identity at
        elaboration, so rebinding the attributes would silently
        disconnect the runners from the restored state.
        """
        self.time = snapshot["time"]
        self._seq = snapshot["seq"]
        self._values.clear()
        self._values.update(snapshot["values"])
        for arr, words in snapshot["arrays"].items():
            self._arrays[arr][:] = words
        for clk, (next_toggle, value) in zip(
            self._clock_list, snapshot["clocks"]
        ):
            clk.next_toggle = next_toggle
            clk.value = value
        self._pending_nba.clear()
        self._pending_nba.update(snapshot["pending_nba"])
        self._pending_native.clear()
        self._pending_native.update(snapshot["pending_native"])
        self._pending_arrays[:] = snapshot["pending_arrays"]
        self._delayed[:] = snapshot["delayed"]
        for key, state in copy.deepcopy(snapshot["native_state"]).items():
            store = self._native_state[key]
            store.clear()
            store.update(state)
        self.stats["cycles"] = snapshot["cycles"]
