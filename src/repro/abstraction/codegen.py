"""RTL-to-TLM code generation (paper Section 5 + Fig. 6.b / Fig. 8.b).

The generator translates an elaborated RTL module tree into a
standalone Python class that reproduces the RTL scheduler:

* signals and ports become plain attributes; clocks disappear (TLM
  abstracts time away);
* each process becomes straight-line Python inside the rise/fall/delta
  phases;
* the ``scheduler()`` method reproduces one full simulation cycle --
  synchronous rise processes, delta loop, synchronous fall processes,
  delta loop (Fig. 6.b); one ``scheduler()`` call == one TLM
  transaction == one RTL clock cycle;
* for Counter-augmented IPs the **dual-clock scheduler** of Fig. 8.b
  is emitted instead: the high-frequency clock becomes an inner loop
  of ``hf_ratio`` iterations wrapped inside the same transaction;
* sensor banks (native processes at RTL) are emitted as dedicated
  scheduler phases preserving their semantics: the Razor main/shadow
  compare sits in the fall phase, the Counter transition capture in
  the HF tick loop.

When ``inject_mutants`` is set, the ADAM transformation of Section 6
is applied during generation: assignments to monitored signals are
split into ``tmp = value`` plus an ``_apply_mutant()`` call placed at
the scheduler synchronisation point of the active mutant class
(minimum delay -> first delta cycle, maximum delay -> just before the
falling edge, delta delay -> HF tick *k*).

Two data-type variants are produced by the backends of
:mod:`repro.abstraction.datatypes`: ``sctypes`` (standard abstraction,
Table 3) and ``hdtlib`` (optimised abstraction, Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtl.ir import (
    Array,
    ArrayWrite,
    Assign,
    Case,
    CombProcess,
    If,
    Module,
    NativeProcess,
    Signal,
    SliceAssign,
    Stmt,
    SyncProcess,
    process_reads,
    process_writes,
)
from repro.sensors.insertion import AugmentedIP

from .datatypes import BACKENDS

__all__ = ["GeneratedTlm", "generate_tlm", "MutantSpec"]


@dataclass(frozen=True)
class MutantSpec:
    """One delay mutant: class, monitored signal, HF tick (delta only)."""

    kind: str       # "min" | "max" | "delta"
    target: str     # signal name whose assignment is postponed
    hf_tick: int    # application tick for the dual-clock scheduler
    register: str   # the monitored register this mutant exercises


#: Process-wide cache of compiled generated-model classes, keyed by the
#: source text itself.  A mutation-campaign shard instantiates the same
#: generated model once per mutant; compiling the (large) source each
#: time would dominate the per-mutant cost.
_COMPILED_CLASSES: "dict[tuple[str, str], type]" = {}


@dataclass
class GeneratedTlm:
    """The outcome of one abstraction run."""

    source: str
    class_name: str
    variant: str
    scheduler_kind: str          # "single" | "dual"
    mutants: "list[MutantSpec]"
    loc: int

    def compiled_class(self) -> type:
        """Compile the generated source (once per process) and return
        the model class.  All class-level attributes of the generated
        model (MUTANTS, LUT_THRESHOLDS, ...) are read-only literals, so
        sharing the class across instances is safe."""
        key = (self.class_name, self.source)
        cls = _COMPILED_CLASSES.get(key)
        if cls is None:
            namespace: dict = {}
            exec(
                compile(self.source, f"<tlm:{self.class_name}>", "exec"),
                namespace,
            )
            cls = namespace[self.class_name]
            _COMPILED_CLASSES[key] = cls
        return cls

    def instantiate(self):
        """Construct a fresh instance of the generated model."""
        return self.compiled_class()()


class _Namer:
    """Unique, stable Python attribute names for signals and arrays."""

    def __init__(self) -> None:
        self._names: dict[int, str] = {}
        self._used: set[str] = set()

    def _unique(self, base: str) -> str:
        name = base
        counter = 2
        while name in self._used:
            name = f"{base}_{counter}"
            counter += 1
        self._used.add(name)
        return name

    def signal(self, sig: Signal) -> str:
        if id(sig) not in self._names:
            clean = "".join(c if c.isalnum() else "_" for c in sig.name)
            self._names[id(sig)] = self._unique(f"s_{clean}")
        return self._names[id(sig)]

    def array(self, arr: Array) -> str:
        if id(arr) not in self._names:
            clean = "".join(c if c.isalnum() else "_" for c in arr.name)
            self._names[id(arr)] = self._unique(f"m_{clean}")
        return self._names[id(arr)]

    def ref(self, obj) -> str:
        if isinstance(obj, Signal):
            return f"self.{self.signal(obj)}"
        if isinstance(obj, Array):
            return f"self.{self.array(obj)}"
        raise TypeError(type(obj))


class _Emitter:
    """Accumulates indented source lines."""

    def __init__(self) -> None:
        self.lines: list[str] = []

    def emit(self, text: str = "", indent: int = 0) -> None:
        self.lines.append(("    " * indent + text).rstrip())

    def block(self, lines: "list[str]", indent: int = 0) -> None:
        for line in lines:
            self.emit(line, indent)


def generate_tlm(
    module: Module,
    *,
    variant: str = "sctypes",
    augmented: "AugmentedIP | None" = None,
    inject_mutants: bool = False,
    delta_mutant_ticks: "dict[str, int] | None" = None,
    class_name: str = "TlmModel",
) -> GeneratedTlm:
    """Generate the TLM model source for a module tree.

    ``augmented`` carries the sensor structure when the module went
    through :func:`repro.sensors.insert_sensors`; it selects the
    scheduler flavour and enables sensor phase emission.
    ``delta_mutant_ticks`` optionally fixes the HF tick of each
    monitored register's delta mutant (keyed by register name).
    """
    if variant not in BACKENDS:
        raise ValueError(f"unknown data-type variant {variant!r}")
    if inject_mutants and augmented is None:
        raise ValueError("mutant injection requires an augmented IP")

    gen = _Generator(
        module,
        variant=variant,
        augmented=augmented,
        inject_mutants=inject_mutants,
        delta_mutant_ticks=delta_mutant_ticks or {},
        class_name=class_name,
    )
    source = gen.generate()
    return GeneratedTlm(
        source=source,
        class_name=class_name,
        variant=variant,
        scheduler_kind=gen.scheduler_kind,
        mutants=gen.mutants,
        loc=sum(1 for line in source.splitlines() if line.strip()),
    )


class _Generator:
    def __init__(
        self,
        module: Module,
        *,
        variant: str,
        augmented: "AugmentedIP | None",
        inject_mutants: bool,
        delta_mutant_ticks: "dict[str, int]",
        class_name: str,
    ) -> None:
        self.module = module
        self.augmented = augmented
        self.inject = inject_mutants
        self.class_name = class_name
        self.variant = variant
        self.namer = _Namer()
        self.backend = BACKENDS[variant](self.namer.ref)
        self.delta_ticks = delta_mutant_ticks
        self.sensor = augmented.sensor_type if augmented else None
        self.scheduler_kind = "dual" if self.sensor == "counter" else "single"
        self.hf_ratio = augmented.hf_ratio if augmented else 1
        self.mutants: list[MutantSpec] = []
        self._tmp_counter = 0

        # Clock pins never become attributes.
        self.clock_ids = {
            id(p.clock)
            for _, p in module.all_processes()
            if getattr(p, "clock", None) is not None
        }

        # Monitored structure (razor: registers; counter: endpoints).
        self.razor_taps = []
        self.counter_taps = []
        if augmented is not None:
            if self.sensor == "razor":
                self.razor_taps = list(augmented.bank.taps)
            else:
                self.counter_taps = list(augmented.bank.taps)
        self.mutant_reg_targets = {
            t.register.name for t in self.razor_taps
        } if self.inject else set()
        self.mutant_endpoint_targets = {
            t.endpoint.name for t in self.counter_taps
        } if self.inject else set()
        #: Change-mask bit of each mutant target, in the sorted order
        #: ``TARGET_ATTRS`` lists them; empty on non-injected models.
        self._change_bit = {
            name: 1 << i for i, name in enumerate(sorted(
                self.mutant_reg_targets | self.mutant_endpoint_targets
            ))
        }

        if self.inject:
            self._build_mutant_list()

        # Partition processes.
        self.rise_procs: list[SyncProcess] = []
        self.fall_procs: list[SyncProcess] = []
        self.comb_procs: list[CombProcess] = []
        for _, proc in module.all_processes():
            if isinstance(proc, SyncProcess):
                (self.rise_procs if proc.edge == "rise" else
                 self.fall_procs).append(proc)
            elif isinstance(proc, CombProcess):
                self.comb_procs.append(proc)
            elif isinstance(proc, NativeProcess):
                if not proc.meta.get("sensor"):
                    raise ValueError(
                        f"cannot abstract native process {proc.name!r} "
                        f"without sensor metadata"
                    )
                # Sensor banks are re-emitted as scheduler phases.
        self.comb_procs = self._topo_sort_combs(self.comb_procs)

        # Static sensitivity: which comb processes each signal or array
        # wakes.  The generated code ORs these masks at every commit
        # site, so the delta loop only re-executes processes whose
        # inputs actually produced an event -- the sensitivity-driven
        # semantics of the paper's Fig. 6.b scheduler, compiled.
        from repro.rtl.ir import stmt_read_arrays

        self._wake_mask: dict[int, int] = {}
        for index, proc in enumerate(self.comb_procs):
            bit = 1 << index
            for sig in process_reads(proc):
                self._wake_mask[id(sig)] = self._wake_mask.get(id(sig), 0) | bit
            for arr in stmt_read_arrays(proc.stmts):
                self._wake_mask[id(arr)] = self._wake_mask.get(id(arr), 0) | bit

    def _wake_of(self, obj) -> int:
        """Wake mask for a signal or array commit."""
        return self._wake_mask.get(id(obj), 0)

    # ------------------------------------------------------------------
    # Change mask and late endpoints (read by the batched sweep and the
    # static mutant pruner)
    # ------------------------------------------------------------------

    def _mark_changed(self, target: Signal) -> "list[str]":
        """The change-mask update for a commit that changes ``target``'s
        value: one line for a mutant target of an injected model, none
        otherwise.  The batched sweep (:mod:`repro.mutation.batched`)
        forks the attached mutants whose bit a base cycle set.  The
        Razor bank's restore write needs no bit: it only happens on a
        cycle whose outputs carry ``razor_stall``, which forks every
        attached mutant."""
        bit = self._change_bit.get(target.name)
        return [f"self._changed |= {bit}"] if bit else []

    def _late_wake_closure(self) -> int:
        """Bitmask of combinational processes that can (transitively)
        re-execute after the pre-HF delta loop of the dual-clock
        scheduler: processes woken by falling-edge commits or by the
        window-close sensor commits, plus everything those wake in
        turn."""
        from repro.rtl.ir import written_arrays

        seed = 0
        for proc in self.fall_procs:
            for sig in process_writes(proc):
                seed |= self._wake_of(sig)
            for arr in written_arrays(proc.stmts):
                seed |= self._wake_of(arr)
        for tap in self.counter_taps:
            seed |= self._wake_of(tap.meas_val)
            seed |= self._wake_of(tap.out_ok)
        closure = seed
        while True:
            grown = closure
            for index, proc in enumerate(self.comb_procs):
                if (closure >> index) & 1:
                    for sig in process_writes(proc):
                        grown |= self._wake_of(sig)
                    for arr in written_arrays(proc.stmts):
                        grown |= self._wake_of(arr)
            if grown == closure:
                return closure
            closure = grown

    def _late_endpoints(self) -> "list[str]":
        """Counter endpoints whose ``hf_tick == 1`` mutant is *not*
        equivalent to the golden model, sorted.

        That mutant commits the endpoint right after the pre-HF delta
        loop, before the first HF sample -- where the golden commit is
        first observable -- so it is equivalent only when every writer
        is a combinational process that settles in that loop.  A
        writer in the late-wake closure rewrites the endpoint after
        the first HF sample, and the mutant postpones that write past
        the next rising edge; a synchronous writer has no postponement
        branch, so the tick-1 commit reverts its write.
        :func:`repro.lint.mutants.plan_pruning` leaves the tick-1
        mutants of these endpoints to the sweep.
        """
        late = self._late_wake_closure()
        late_writes: "set[int]" = set()
        for index, proc in enumerate(self.comb_procs):
            if (late >> index) & 1:
                late_writes.update(id(s) for s in process_writes(proc))
        for proc in self.rise_procs + self.fall_procs:
            late_writes.update(id(s) for s in process_writes(proc))
        return [
            name for name in sorted(self.mutant_endpoint_targets)
            if id(self.module.find_signal(name)) in late_writes
        ]

    # ------------------------------------------------------------------
    # Mutant bookkeeping
    # ------------------------------------------------------------------

    def _build_mutant_list(self) -> None:
        ratio = self.hf_ratio
        if self.sensor == "razor":
            for tap in self.razor_taps:
                name = tap.register.name
                self.mutants.append(MutantSpec("min", name, 0, name))
                self.mutants.append(MutantSpec("max", name, 0, name))
        else:
            for tap in self.counter_taps:
                reg = tap.register.name
                target = tap.endpoint.name
                mid = self.delta_ticks.get(
                    reg, max(2, min(ratio - 1, ratio // 2 + 1))
                )
                self.mutants.append(MutantSpec("min", target, 1, reg))
                self.mutants.append(MutantSpec("max", target, ratio, reg))
                self.mutants.append(MutantSpec("delta", target, mid, reg))

    # ------------------------------------------------------------------
    # Topological ordering of combinational processes
    # ------------------------------------------------------------------

    def _topo_sort_combs(self, procs: "list[CombProcess]"):
        writes_of = {id(p): process_writes(p) for p in procs}
        reads_of = {id(p): process_reads(p) for p in procs}
        writer_of: dict[int, CombProcess] = {}
        for proc in procs:
            for sig in writes_of[id(proc)]:
                writer_of[id(sig)] = proc
        indegree = {id(p): 0 for p in procs}
        dependents: dict[int, list[CombProcess]] = {}
        for proc in procs:
            for sig in reads_of[id(proc)]:
                producer = writer_of.get(id(sig))
                if producer is not None and producer is not proc:
                    dependents.setdefault(id(producer), []).append(proc)
                    indegree[id(proc)] += 1
        ready = [p for p in procs if indegree[id(p)] == 0]
        order: list[CombProcess] = []
        while ready:
            proc = ready.pop(0)
            order.append(proc)
            for dep in dependents.get(id(proc), ()):
                indegree[id(dep)] -= 1
                if indegree[id(dep)] == 0:
                    ready.append(dep)
        # True combinational cycles keep source order for the remainder;
        # the bounded delta loop still reaches a fixpoint or raises.
        remaining = [p for p in procs if p not in order]
        return order + remaining

    # ------------------------------------------------------------------
    # Statement emission
    # ------------------------------------------------------------------

    def _tmp(self, base: str) -> str:
        self._tmp_counter += 1
        return f"_{base}{self._tmp_counter}"

    def _emit_stmts(
        self,
        stmts: "list[Stmt]",
        local_of: "dict[int, str]",
        out: _Emitter,
        indent: int,
    ) -> None:
        """Emit statements writing into per-target local variables."""
        backend = self.backend
        emitted_any = False
        for stmt in stmts:
            emitted_any = True
            if isinstance(stmt, Assign):
                local = local_of[id(stmt.target)]
                out.emit(f"{local} = {backend.emit(stmt.expr)}", indent)
            elif isinstance(stmt, SliceAssign):
                local = local_of[id(stmt.target)]
                out.emit(
                    f"{local} = {self._emit_slice_replace(stmt, local)}",
                    indent,
                )
            elif isinstance(stmt, ArrayWrite):
                arr_ref = self.namer.ref(stmt.array)
                idx = backend.emit(stmt.index)
                val = backend.emit(stmt.value)
                idx_int = (
                    idx if self.variant == "hdtlib"
                    else f"({idx}).to_int_or(0)"
                )
                out.emit(
                    f"_aw.append(({arr_ref}, {idx_int}, {val}, "
                    f"{stmt.array.depth}))",
                    indent,
                )
            elif isinstance(stmt, If):
                out.emit(f"if {backend.as_bool(stmt.cond)}:", indent)
                self._emit_stmts(stmt.then, local_of, out, indent + 1)
                if not stmt.then:
                    out.emit("pass", indent + 1)
                if stmt.orelse:
                    out.emit("else:", indent)
                    self._emit_stmts(stmt.orelse, local_of, out, indent + 1)
            elif isinstance(stmt, Case):
                sel = self.backend.emit(stmt.sel)
                if self.variant == "sctypes":
                    sel = f"({sel}).to_int_or(0)"
                sel_var = self._tmp("sel")
                out.emit(f"{sel_var} = {sel}", indent)
                first = True
                for label, body in stmt.cases:
                    key = "if" if first else "elif"
                    first = False
                    out.emit(f"{key} {sel_var} == {label}:", indent)
                    self._emit_stmts(body, local_of, out, indent + 1)
                    if not body:
                        out.emit("pass", indent + 1)
                if stmt.default:
                    out.emit("else:" if not first else "if True:", indent)
                    self._emit_stmts(stmt.default, local_of, out, indent + 1)
            else:
                raise TypeError(f"cannot emit statement {stmt!r}")
        if not emitted_any:
            out.emit("pass", indent)

    def _emit_slice_replace(self, stmt: SliceAssign, local: str) -> str:
        src = self.backend.emit(stmt.expr)
        if self.variant == "hdtlib":
            hole = ((1 << (stmt.hi - stmt.lo + 1)) - 1) << stmt.lo
            return (
                f"(({local} & {hex(~hole & ((1 << stmt.target.width) - 1))})"
                f" | (({src} << {stmt.lo}) & {hex(hole)}))"
            )
        width = stmt.target.width
        pieces = []
        if stmt.hi < width - 1:
            pieces.append(f"({local}).slice({width - 1}, {stmt.hi + 1})")
        pieces.append(f"({src})")
        if stmt.lo > 0:
            pieces.append(f"({local}).slice({stmt.lo - 1}, 0)")
        if len(pieces) == 1:
            return pieces[0]
        head, *rest = pieces
        return f"({head}).concat({', '.join(rest)})"

    # ------------------------------------------------------------------
    # Top-level generation
    # ------------------------------------------------------------------

    def generate(self) -> str:
        out = _Emitter()
        self._emit_header(out)
        self._emit_class_open(out)
        self._emit_init(out)
        self._emit_io_methods(out)
        if self.inject:
            self._emit_mutant_methods(out)
        self._emit_sync_phase(out, self.rise_procs, "_sync_rise")
        self._emit_fall_phase(out)
        self._emit_comb_methods(out)
        self._emit_delta(out)
        if self.sensor == "counter":
            self._emit_hf_tick(out)
            self._emit_window_close(out)
        self._emit_scheduler(out)
        self._emit_transport(out)
        return "\n".join(out.lines) + "\n"

    def _emit_header(self, out: _Emitter) -> None:
        mode = "injected with delay mutants (ADAM)" if self.inject else (
            "sensor-aware abstraction" if self.augmented else
            "functional abstraction"
        )
        out.emit('"""Generated TLM model -- do not edit.')
        out.emit("")
        out.emit(f"Source RTL module : {self.module.name}")
        out.emit(f"Abstraction mode  : {mode}")
        out.emit(f"Data types        : {self.variant}")
        out.emit(
            f"Scheduler         : {self.scheduler_kind}-clock "
            f"(one call == one main-clock cycle"
            + (f", {self.hf_ratio} HF ticks per cycle)"
              if self.scheduler_kind == "dual" else ")")
        )
        out.emit('"""')
        for line in self.backend.preamble:
            out.emit(line)
        out.emit("")
        out.emit("")

    def _attr_signals(self) -> "list[Signal]":
        return [
            sig for sig in self.module.all_signals()
            if id(sig) not in self.clock_ids
        ]

    def _emit_class_open(self, out: _Emitter) -> None:
        out.emit(f"class {self.class_name}:")
        module = self.module
        ports_in = {
            p.name: p.width for p in module.inputs()
            if id(p) not in self.clock_ids
        }
        ports_out = {p.name: p.width for p in module.outputs()}
        out.emit(f"MODULE_NAME = {module.name!r}", 1)
        out.emit(f"VARIANT = {self.variant!r}", 1)
        out.emit(f"SCHEDULER = {self.scheduler_kind!r}", 1)
        out.emit(f"HF_RATIO = {self.hf_ratio}", 1)
        out.emit(f"PORTS_IN = {ports_in!r}", 1)
        out.emit(f"PORTS_OUT = {ports_out!r}", 1)
        specs = [
            (m.kind, m.target, m.hf_tick, m.register) for m in self.mutants
        ]
        out.emit(f"MUTANTS = {specs!r}", 1)
        thresholds = {
            t.register.name: t.lut_threshold for t in self.counter_taps
        }
        out.emit(f"LUT_THRESHOLDS = {thresholds!r}", 1)
        tap_order = [t.register.name for t in self.counter_taps]
        out.emit(f"COUNTER_TAP_ORDER = {tap_order!r}", 1)
        if self.inject:
            attrs = {
                name: self.namer.signal(self.module.find_signal(name))
                for name in self._change_bit
            }
            out.emit(f"TARGET_ATTRS = {attrs!r}", 1)
            out.emit(f"LATE_ENDPOINTS = {self._late_endpoints()!r}", 1)
        out.emit("")

    def _emit_init(self, out: _Emitter) -> None:
        backend = self.backend
        out.emit("def __init__(self):", 1)
        for sig in self._attr_signals():
            attr = self.namer.signal(sig)
            out.emit(
                f"self.{attr} = {backend.init_value(sig.width, sig.init)}",
                2,
            )
        for arr in self.module.all_arrays():
            attr = self.namer.array(arr)
            if self.variant == "hdtlib":
                out.emit(f"self.{attr} = {arr.init!r}", 2)
                out.emit(f"self.{attr} = list(self.{attr})", 2)
            else:
                out.emit(
                    f"self.{attr} = [_LV.from_int({arr.width}, _v) "
                    f"for _v in {arr.init!r}]",
                    2,
                )
        # Sensor state.
        for tap in self.razor_taps:
            attr = self.namer.signal(tap.register)
            init = backend.init_value(tap.register.width, tap.register.init)
            out.emit(f"self._shadow_{attr} = {init}", 2)
            out.emit(f"self._main_{attr} = {init}", 2)
        if self.razor_taps:
            out.emit("self._razor_cooldown = 0", 2)
        for i, tap in enumerate(self.counter_taps):
            out.emit(f"self._ct_prev_{i} = None", 2)
            out.emit(f"self._ct_r1_{i} = 0", 2)
            out.emit(f"self._ct_r2_{i} = 0", 2)
            out.emit(f"self._ct_seen_{i} = 0", 2)
            out.emit(f"self._ct_pipe_{i} = [0, 0]", 2)
        out.emit("self._pending_inputs = None", 2)
        # Mutant state.
        if self.inject:
            out.emit("self._mutant_kind = None", 2)
            out.emit("self._mutant_target = None", 2)
            out.emit("self._mutant_hf = 0", 2)
            out.emit("self._changed = 0", 2)
            for name in self._change_bit:
                sig = self.module.find_signal(name)
                attr = self.namer.signal(sig)
                out.emit(
                    f"self._tmp_{attr} = "
                    f"{backend.init_value(sig.width, sig.init)}",
                    2,
                )
        if self.comb_procs:
            out.emit(
                "# initial settle: evaluate every combinational process",
                2,
            )
            out.emit(
                f"self._delta({(1 << len(self.comb_procs)) - 1})", 2
            )
        out.emit("")

    def _emit_io_methods(self, out: _Emitter) -> None:
        backend = self.backend
        out.emit("def set_input(self, name, value):", 1)
        out.emit('"""Drive a primary input (plain int)."""', 2)
        first = True
        for port in self.module.inputs():
            if id(port) in self.clock_ids:
                continue
            attr = self.namer.signal(port)
            key = "if" if first else "elif"
            first = False
            out.emit(f"{key} name == {port.name!r}:", 2)
            out.emit(
                f"self.{attr} = {backend.from_int('value', port.width)}", 3
            )
        if first:
            out.emit("pass", 2)
        else:
            out.emit("else:", 2)
            out.emit("raise KeyError(name)", 3)
        out.emit("")
        out.emit("def get_output(self, name):", 1)
        out.emit('"""Read a primary output as a plain int."""', 2)
        first = True
        for port in self.module.outputs():
            attr = self.namer.signal(port)
            key = "if" if first else "elif"
            first = False
            out.emit(f"{key} name == {port.name!r}:", 2)
            out.emit(
                f"return {backend.to_int(f'self.{attr}', port.width)}", 3
            )
        if first:
            out.emit("raise KeyError(name)", 2)
        else:
            out.emit("raise KeyError(name)", 2)
        out.emit("")
        out.emit("def outputs(self):", 1)
        out.emit('"""All primary outputs as plain ints."""', 2)
        pairs = ", ".join(
            f"{p.name!r}: "
            f"{backend.to_int('self.' + self.namer.signal(p), p.width)}"
            for p in self.module.outputs()
        )
        out.emit(f"return {{{pairs}}}", 2)
        out.emit("")

    def _emit_mutant_methods(self, out: _Emitter) -> None:
        out.emit("def activate_mutant(self, index):", 1)
        out.emit('"""Select the active delay mutant (None switches all', 2)
        out.emit('mutants off; the model then behaves like the', 2)
        out.emit('non-injected abstraction)."""', 2)
        out.emit("if index is None:", 2)
        out.emit("self._mutant_kind = None", 3)
        out.emit("self._mutant_target = None", 3)
        out.emit("self._mutant_hf = 0", 3)
        out.emit("return", 3)
        out.emit("kind, target, hf, _reg = self.MUTANTS[index]", 2)
        out.emit("self._mutant_kind = kind", 2)
        out.emit("self._mutant_target = target", 2)
        out.emit("self._mutant_hf = hf", 2)
        first = True
        for name in self._change_bit:
            sig = self.module.find_signal(name)
            attr = self.namer.signal(sig)
            key = "if" if first else "elif"
            first = False
            out.emit(f"{key} target == {name!r}:", 2)
            out.emit(f"self._tmp_{attr} = self.{attr}", 3)
        out.emit("")
        out.emit("def _apply_mutant(self):", 1)
        out.emit(
            '"""Commit the postponed assignment (Fig. 9.g-h); returns '
            'the wake mask of the updated signal."""',
            2,
        )
        out.emit("target = self._mutant_target", 2)
        first = True
        for name in self._change_bit:
            sig = self.module.find_signal(name)
            attr = self.namer.signal(sig)
            wake = self._wake_of(sig)
            key = "if" if first else "elif"
            first = False
            out.emit(f"{key} target == {name!r}:", 2)
            out.emit(f"if self.{attr} != self._tmp_{attr}:", 3)
            out.emit(f"self.{attr} = self._tmp_{attr}", 4)
            out.emit(f"return {wake}", 4)
        out.emit("return 0", 2)
        out.emit("")

    # ------------------------------------------------------------------
    # Synchronous phases
    # ------------------------------------------------------------------

    def _emit_sync_phase(
        self, out: _Emitter, procs: "list[SyncProcess]", method: str
    ) -> None:
        out.emit(f"def {method}(self):", 1)
        out.emit(
            '"""All synchronous processes of this edge; non-blocking '
            'semantics.  Returns the wake mask of combinational '
            'processes sensitive to the committed events."""',
            2,
        )
        if not procs and not self.razor_taps:
            out.emit("return 0", 2)
            out.emit("")
            return
        out.emit("_wake = 0", 2)
        out.emit("_aw = []", 2)
        commit_lines: list[str] = []
        array_wakes = set()
        for proc in procs:
            targets = sorted(
                process_writes(proc), key=lambda s: self.namer.signal(s)
            )
            from repro.rtl.ir import written_arrays

            for arr in written_arrays(proc.stmts):
                array_wakes.add(self._wake_of(arr))
            local_of = {}
            out.emit(f"# process {proc.name}", 2)
            for target in targets:
                attr = self.namer.signal(target)
                local_of[id(target)] = f"n_{attr}"
                out.emit(f"n_{attr} = self.{attr}", 2)
            if proc.reset is not None:
                rst_attr = self.namer.signal(proc.reset)
                level = proc.reset_level
                cond = (
                    f"self.{rst_attr} == {level}"
                    if self.variant == "hdtlib"
                    else f"(self.{rst_attr}).to_int_or(0) == {level}"
                )
                out.emit(f"if {cond}:", 2)
                self._emit_stmts(proc.reset_stmts, local_of, out, 3)
                out.emit("else:", 2)
                self._emit_stmts(proc.stmts, local_of, out, 3)
            else:
                self._emit_stmts(proc.stmts, local_of, out, 2)
            for target in targets:
                attr = self.namer.signal(target)
                commit_lines.extend(
                    self._commit_register(target, attr, f"n_{attr}")
                )
        out.emit("# non-blocking commit", 2)
        for line in commit_lines:
            out.emit(line, 2)
        out.emit("for _arr, _i, _v, _d in _aw:", 2)
        out.emit("if _i < _d and _arr[_i] != _v:", 3)
        out.emit("_arr[_i] = _v", 4)
        mask = 0
        for m in array_wakes:
            mask |= m
        if mask:
            out.emit(f"_wake |= {mask}", 4)
        if method == "_sync_rise":
            for tap in self.razor_taps:
                attr = self.namer.signal(tap.register)
                out.emit(
                    f"self._main_{attr} = self.{attr}  # main FF capture", 2
                )
        out.emit("return _wake", 2)
        out.emit("")

    def _commit_register(self, target: Signal, attr: str, local: str):
        """Commit lines for one register, honouring Razor bookkeeping,
        mutant postponement and sensitivity wake-up."""
        lines: list[str] = []
        wake = self._wake_of(target)
        is_razor = any(t.register is target for t in self.razor_taps)
        if is_razor:
            lines.append(f"self._shadow_{attr} = {local}  # shadow latch data")
        commit = [f"if self.{attr} != {local}:",
                  f"    self.{attr} = {local}"]
        if wake:
            commit.append(f"    _wake |= {wake}")
        commit.extend("    " + line for line in self._mark_changed(target))
        if self.inject and target.name in self.mutant_reg_targets:
            lines.append(f"if self._mutant_target == {target.name!r}:")
            lines.append(f"    self._tmp_{attr} = {local}  # postponed")
            lines.append("else:")
            lines.extend("    " + line for line in commit)
        else:
            lines.extend(commit)
        return lines

    def _emit_fall_phase(self, out: _Emitter) -> None:
        out.emit("def _sync_fall(self):", 1)
        out.emit(
            '"""Falling-edge phase: fall processes + Razor bank.  '
            'Returns the wake mask of the committed events."""',
            2,
        )
        if not self.fall_procs and not self.razor_taps:
            out.emit("return 0", 2)
            out.emit("")
            return
        out.emit("_wake = 0", 2)
        if self.fall_procs:
            self._emit_inline_sync(out, self.fall_procs)
        if self.razor_taps:
            self._emit_razor_bank(out)
        out.emit("return _wake", 2)
        out.emit("")

    def _emit_inline_sync(self, out: _Emitter, procs) -> None:
        out.emit("_aw = []", 2)
        commit_lines: list[str] = []
        array_wakes = 0
        for proc in procs:
            from repro.rtl.ir import written_arrays

            for arr in written_arrays(proc.stmts):
                array_wakes |= self._wake_of(arr)
            targets = sorted(
                process_writes(proc), key=lambda s: self.namer.signal(s)
            )
            local_of = {}
            out.emit(f"# process {proc.name}", 2)
            for target in targets:
                attr = self.namer.signal(target)
                local_of[id(target)] = f"n_{attr}"
                out.emit(f"n_{attr} = self.{attr}", 2)
            self._emit_stmts(proc.stmts, local_of, out, 2)
            for target in targets:
                attr = self.namer.signal(target)
                wake = self._wake_of(target)
                commit_lines.append(f"if self.{attr} != n_{attr}:")
                commit_lines.append(f"    self.{attr} = n_{attr}")
                if wake:
                    commit_lines.append(f"    _wake |= {wake}")
                commit_lines.extend(
                    "    " + line for line in self._mark_changed(target)
                )
        for line in commit_lines:
            out.emit(line, 2)
        out.emit("for _arr, _i, _v, _d in _aw:", 2)
        out.emit("if _i < _d and _arr[_i] != _v:", 3)
        out.emit("_arr[_i] = _v", 4)
        if array_wakes:
            out.emit(f"_wake |= {array_wakes}", 4)

    def _emit_razor_bank(self, out: _Emitter) -> None:
        backend = self.backend
        bank = self.augmented.bank
        r_attr = self.namer.signal(bank.recovery)
        stall_attr = self.namer.signal(bank.stall)
        stall_wake = self._wake_of(bank.stall)
        zero = backend.init_value(1, 0)
        one = backend.init_value(1, 1)

        def set_checked(attr, value_src, wake, indent):
            out.emit(f"if self.{attr} != {value_src}:", indent)
            out.emit(f"self.{attr} = {value_src}", indent + 1)
            if wake:
                out.emit(f"_wake |= {wake}", indent + 1)

        out.emit("# Razor bank: shadow compare, error flag, recovery", 2)
        out.emit("if self._razor_cooldown:", 2)
        out.emit("self._razor_cooldown = 0", 3)
        for tap in self.razor_taps:
            e_attr = self.namer.signal(tap.error)
            set_checked(e_attr, zero, self._wake_of(tap.error), 3)
        set_checked(stall_attr, zero, stall_wake, 3)
        out.emit("return _wake", 3)
        out.emit("_any = 0", 2)
        recovery = (
            f"self.{r_attr} == 1" if self.variant == "hdtlib"
            else f"(self.{r_attr}).to_int_or(0) == 1"
        )
        out.emit(f"_recover = {recovery}", 2)
        for tap in self.razor_taps:
            attr = self.namer.signal(tap.register)
            e_attr = self.namer.signal(tap.error)
            out.emit(
                f"_e = 1 if self._main_{attr} != self._shadow_{attr} else 0",
                2,
            )
            out.emit(f"_ev = {one} if _e else {zero}", 2)
            set_checked(e_attr, "_ev", self._wake_of(tap.error), 2)
            out.emit("if _e:", 2)
            out.emit("_any = 1", 3)
            out.emit("if _recover:", 3)
            set_checked(
                attr, f"self._shadow_{attr}", self._wake_of(tap.register), 4
            )
        out.emit("if _any and _recover:", 2)
        set_checked(stall_attr, one, stall_wake, 3)
        out.emit("self._razor_cooldown = 1", 3)
        out.emit("else:", 2)
        set_checked(stall_attr, zero, stall_wake, 3)

    # ------------------------------------------------------------------
    # Combinational processes and the delta loop
    # ------------------------------------------------------------------

    def _emit_comb_methods(self, out: _Emitter) -> None:
        for index, proc in enumerate(self.comb_procs):
            out.emit(f"def _comb_{index}(self):", 1)
            out.emit(
                f'"""{proc.name} -- returns the wake mask of processes '
                'sensitive to its changed outputs."""',
                2,
            )
            targets = sorted(
                process_writes(proc), key=lambda s: self.namer.signal(s)
            )
            local_of = {}
            for target in targets:
                attr = self.namer.signal(target)
                local_of[id(target)] = f"n_{attr}"
                out.emit(f"n_{attr} = self.{attr}", 2)
            out.emit("_wake = 0", 2)
            self._emit_stmts(proc.stmts, local_of, out, 2)
            for target in targets:
                attr = self.namer.signal(target)
                wake = self._wake_of(target)
                if (
                    self.inject
                    and target.name in self.mutant_endpoint_targets
                ):
                    out.emit(
                        f"if self._mutant_target == {target.name!r}:", 2
                    )
                    out.emit(f"self._tmp_{attr} = n_{attr}  # postponed", 3)
                    out.emit(f"elif self.{attr} != n_{attr}:", 2)
                else:
                    out.emit(f"if self.{attr} != n_{attr}:", 2)
                out.emit(f"self.{attr} = n_{attr}", 3)
                if wake:
                    out.emit(f"_wake |= {wake}", 3)
                out.block(self._mark_changed(target), 3)
            out.emit("return _wake", 2)
            out.emit("")

    def _emit_delta(self, out: _Emitter) -> None:
        out.emit("def _delta(self, wake):", 1)
        out.emit(
            '"""Delta-cycle loop (Fig. 6.b while-loop): run the '
            'combinational processes woken by events until no further '
            'event.  ``wake`` is a bitmask with one bit per process; '
            'sensitivity is compiled into the commit sites."""',
            2,
        )
        if not self.comb_procs:
            out.emit("return", 2)
            out.emit("")
            return
        out.emit("for _ in range(64):", 2)
        out.emit("if not wake:", 3)
        out.emit("return", 4)
        out.emit("_next = 0", 3)
        for i in range(len(self.comb_procs)):
            out.emit(f"if wake & {1 << i}:", 3)
            out.emit(f"_next |= self._comb_{i}()", 4)
        out.emit("wake = _next", 3)
        out.emit(
            "raise RuntimeError('TLM delta loop did not settle')", 2
        )
        out.emit("")

    # ------------------------------------------------------------------
    # Counter sensor phases (dual-clock scheduler)
    # ------------------------------------------------------------------

    def _emit_hf_tick(self, out: _Emitter) -> None:
        out.emit("def _hf_tick(self, count):", 1)
        out.emit(
            '"""One high-frequency clock cycle: sample each monitored '
            'endpoint, record transition counts (R1/R2)."""',
            2,
        )
        for i, tap in enumerate(self.counter_taps):
            ep_attr = self.namer.signal(tap.endpoint)
            value = (
                f"self.{ep_attr}" if self.variant == "hdtlib"
                else f"(self.{ep_attr}).to_int_or(0)"
            )
            index = getattr(tap, "cps_index", 0)
            if index == "parity":
                out.emit(f"_cur = bin({value}).count('1') & 1", 2)
            elif index:
                out.emit(f"_cur = (({value}) >> {index}) & 1", 2)
            else:
                out.emit(f"_cur = ({value}) & 1", 2)
            out.emit(f"_prev = self._ct_prev_{i}", 2)
            out.emit("if _prev is not None and _cur != _prev:", 2)
            out.emit("if _cur == 1:", 3)
            out.emit(f"self._ct_r1_{i} = count", 4)
            out.emit("else:", 3)
            out.emit(f"self._ct_r2_{i} = count", 4)
            out.emit(f"self._ct_seen_{i} = 1", 3)
            out.emit(f"self._ct_prev_{i} = _cur", 2)
        if not self.counter_taps:
            out.emit("pass", 2)
        out.emit("")

    def _emit_window_close(self, out: _Emitter) -> None:
        backend = self.backend
        out.emit("def _window_close(self):", 1)
        out.emit(
            '"""End of the observability window: select R1/R2 by the '
            'latched CPS value, push through the measurement-latency '
            'pipeline, compare against the LUT threshold."""',
            2,
        )
        out.emit("_wake = 0", 2)
        for i, tap in enumerate(self.counter_taps):
            meas_attr = self.namer.signal(tap.meas_val)
            ok_attr = self.namer.signal(tap.out_ok)
            out.emit(f"if self._ct_seen_{i}:", 2)
            out.emit(
                f"_meas = self._ct_r1_{i} if self._ct_prev_{i} == 1 "
                f"else self._ct_r2_{i}",
                3,
            )
            out.emit("else:", 2)
            out.emit("_meas = 0", 3)
            out.emit(f"self._ct_pipe_{i}.append(min(_meas, 255))", 2)
            out.emit(f"_out = self._ct_pipe_{i}.pop(0)", 2)
            out.emit(f"_mv = {backend.from_int('_out', 8)}", 2)
            out.emit(f"if self.{meas_attr} != _mv:", 2)
            out.emit(f"self.{meas_attr} = _mv", 3)
            if self._wake_of(tap.meas_val):
                out.emit(f"_wake |= {self._wake_of(tap.meas_val)}", 3)
            out.emit(
                f"_ok = 1 if (_out == 0 or _out <= {tap.lut_threshold}) "
                f"else 0",
                2,
            )
            out.emit(f"_okv = {backend.from_int('_ok', 1)}", 2)
            out.emit(f"if self.{ok_attr} != _okv:", 2)
            out.emit(f"self.{ok_attr} = _okv", 3)
            if self._wake_of(tap.out_ok):
                out.emit(f"_wake |= {self._wake_of(tap.out_ok)}", 3)
            out.emit(f"self._ct_r1_{i} = 0", 2)
            out.emit(f"self._ct_r2_{i} = 0", 2)
            out.emit(f"self._ct_seen_{i} = 0", 2)
        out.emit("return _wake", 2)
        out.emit("")

    # ------------------------------------------------------------------
    # Scheduler + transport
    # ------------------------------------------------------------------

    def _emit_scheduler(self, out: _Emitter) -> None:
        out.emit("def scheduler(self):", 1)
        if self.scheduler_kind == "single":
            out.emit(
                '"""One RTL clock cycle (Fig. 6.b): rising-edge '
                'processes, delta loop, falling-edge processes, delta '
                'loop.  Mutant hooks sit at the scheduler '
                'synchronisation points (Fig. 9)."""',
                2,
            )
            out.emit("_wake = self._sync_rise()", 2)
            out.emit("_wake |= self._apply_pending_inputs()", 2)
            if self.inject:
                out.emit("if self._mutant_kind == 'min':", 2)
                out.emit(
                    "_wake |= self._apply_mutant()  # first delta cycle", 3
                )
            out.emit("self._delta(_wake)", 2)
            if self.inject:
                out.emit("_wake = 0", 2)
                out.emit("if self._mutant_kind == 'max':", 2)
                out.emit(
                    "_wake = self._apply_mutant()"
                    "  # just before the falling edge",
                    3,
                )
                out.emit("_wake |= self._sync_fall()", 2)
            else:
                out.emit("_wake = self._sync_fall()", 2)
            out.emit("self._delta(_wake)", 2)
        else:
            out.emit(
                '"""One RTL main-clock cycle with the dual-clock '
                'scheduler (Fig. 8.b): the high-frequency clock is an '
                'inner loop wrapped into the same transaction; delta '
                'mutants commit at their HF tick (Fig. 9.d)."""',
                2,
            )
            out.emit("_wake = self._sync_rise()", 2)
            out.emit("_wake |= self._apply_pending_inputs()", 2)
            out.emit("self._delta(_wake)", 2)
            out.emit(f"for _hf in range(1, {self.hf_ratio} + 1):", 2)
            if self.inject:
                out.emit(
                    "if self._mutant_target is not None and "
                    "self._mutant_hf == _hf:",
                    3,
                )
                out.emit("self._delta(self._apply_mutant())", 4)
                out.emit("    ", 3)
            out.emit("self._hf_tick(_hf)", 3)
            out.emit("_wake = self._window_close()", 2)
            out.emit("_wake |= self._sync_fall()", 2)
            out.emit("self._delta(_wake)", 2)
        out.emit("")

    def _emit_transport(self, out: _Emitter) -> None:
        out.emit("def _apply_pending_inputs(self):", 1)
        out.emit(
            '"""Inputs become visible after the rising edge, as data '
            'launched by an upstream register would -- matching the '
            'edge-launch input convention of the RTL kernel (required '
            'for alignment once paths carry back-annotated delays).  '
            'Returns the wake mask of the changed inputs."""',
            2,
        )
        out.emit("_wake = 0", 2)
        out.emit("if self._pending_inputs:", 2)
        out.emit("for _name, _value in self._pending_inputs.items():", 3)
        first = True
        for port in self.module.inputs():
            if id(port) in self.clock_ids:
                continue
            attr = self.namer.signal(port)
            wake = self._wake_of(port)
            key = "if" if first else "elif"
            first = False
            out.emit(f"{key} _name == {port.name!r}:", 4)
            out.emit(
                f"_v = {self.backend.from_int('_value', port.width)}", 5
            )
            out.emit(f"if self.{attr} != _v:", 5)
            out.emit(f"self.{attr} = _v", 6)
            if wake:
                out.emit(f"_wake |= {wake}", 6)
        if first:
            out.emit("pass", 4)
        out.emit("self._pending_inputs = None", 3)
        out.emit("return _wake", 2)
        out.emit("")
        out.emit("def b_transport(self, inputs=None):", 1)
        out.emit(
            '"""Blocking transport: drive inputs, run one scheduler '
            'call (= one clock cycle), return the outputs.  This is '
            'the TLM-2.0 style entry point the runtime sockets '
            'wrap."""',
            2,
        )
        out.emit("self._pending_inputs = dict(inputs) if inputs else None", 2)
        out.emit("self.scheduler()", 2)
        out.emit("return self.outputs()", 2)
