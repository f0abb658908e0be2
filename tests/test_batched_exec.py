"""Execution-equivalence suite for batched sweeps and static pruning.

Every TLM campaign shard runs as one batched sweep
(:mod:`repro.mutation.batched`) -- attached mutants ride one base
simulation, fork on their first divergence, and Razor forks stop early
once their verdict is settled -- after
:func:`~repro.mutation.campaign.prepare_campaign` has pruned the
statically equivalent and duplicate mutants (:mod:`repro.lint.mutants`).
The contract is *field identity* with the serial, unpruned oracle
(``tests/serial_oracle.py``): for any shard size (which is also the
sweep width), worker count, cache state and fault plan, the merged
:class:`~repro.mutation.MutationReport` equals the one-simulation-per-
mutant report on every scored field -- same ``first_divergence``, same
``timed_out``, same cache write-back keys.

This module locks that contract down:

* field identity across all three case-study IPs x both sensor types
  x shard sizes {1, 3, default} x workers {1, 2} x cold/warm cache;
* a design with a falling-edge register, whose golden model stalls
  and whose Counter endpoint is rewritten after the HF window;
* randomized-design lockstep (Hypothesis-built datapaths with rising-
  and falling-edge registers, in the style of
  ``tests/test_compiled_kernel.py``);
* early-kill semantics: :func:`_drive_razor` stops at the settled
  judge with verdict fields identical to the oracle's full-length
  drive, and never misreports ``timed_out`` when the stall budget
  would only have been exhausted in skipped tail cycles;
* the change-mask target map emitted on injected models;
* fork isolation -- the shared :class:`~repro.mutation.GoldenTrace`
  is bit-identical before and after a batched sweep;
* interplay with pruning (deferred duplicate clones) and with a
  seeded worker-crash fault plan;
* the kernel-level :meth:`~repro.rtl.Simulation.snapshot_state` /
  ``restore_state`` pair the fork machinery builds on.
"""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.abstraction import MutantSpec, generate_tlm
from repro.faults import FaultPlan, active_plan
from repro.flow import build_augmented, run_flow
from repro.ips import CASE_STUDIES, case_study
from repro.mutation import (
    ResultCache,
    CampaignScheduler,
    compute_golden_trace,
    inject_mutants,
    run_campaign,
)
from repro.mutation.analysis import RazorMutantJudge, _drive_razor
from repro.mutation.cache import encode_golden_trace
from repro.mutation.campaign import prepare_campaign
from repro.rtl import Assign, If, Simulation, Module, const
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize
from serial_oracle import (
    assert_matches_oracle,
    drive_razor_full,
    serial_report,
)
from test_rtl_validation import augmented_fall_ip

#: Reduced testbench lengths: long enough to exercise forks and
#: re-joins on every IP, short enough for the full matrix.
REDUCED = {"plasma": 40, "dsp": 48, "filter": 96}

IPS = sorted(CASE_STUDIES)
SENSORS = ("razor", "counter")

#: Shard sizes of the identity matrix; the shard is also the width of
#: its batched sweep.  ``None`` is the default split (one shard per
#: worker: each worker's whole share, "all", in one sweep).
SHARD_SIZES = [1, 3, pytest.param(None, id="all")]

_case_cache: dict = {}


def case_campaign(ip, sensor):
    """(flow, stimuli, serial oracle report) for one IP x sensor,
    computed once per test session."""
    key = (ip, sensor)
    if key not in _case_cache:
        spec = case_study(ip)
        flow = run_flow(spec, sensor, run_mutation=False)
        stim = spec.stimulus(REDUCED[ip])
        oracle = serial_report(
            flow.tlm_optimized, flow.injected, stim,
            ip_name=ip, sensor_type=sensor,
        )
        _case_cache[key] = (flow, stim, oracle)
    return _case_cache[key]


@pytest.fixture(scope="module")
def sched2():
    """One persistent 2-worker pool shared by every workers=2 case."""
    with CampaignScheduler(workers=2) as scheduler:
        yield scheduler


# ----------------------------------------------------------------------
# Synthetic IP (fast fixtures for the judge/fork-level tests)
# ----------------------------------------------------------------------

def build_ip():
    m = Module("batch_ip")
    clk = m.input("clk")
    din = m.input("din", 8)
    en = m.input("en")
    acc = m.signal("acc", 8)
    scaled = m.signal("scaled", 8)
    out_acc = m.output("out_acc", 8)
    out_scaled = m.output("out_scaled", 8)
    m.sync("p_acc", clk, [If(en.eq(1), [Assign(acc, acc + din)])])
    m.sync("p_scaled", clk, [Assign(scaled, acc * const(5, 8))])
    m.comb("p_oa", [Assign(out_acc, acc)])
    m.comb("p_os", [Assign(out_scaled, scaled)])
    return m, clk


def augment(module_factory, sensor_type):
    m, clk = module_factory()
    report = analyze(synthesize(m), clock_period_ps=1000)
    critical = bin_critical_paths(report, threshold_ps=1e9)
    return insert_sensors(m, clk, critical, sensor_type=sensor_type)


def stimulus(n=24, seed=2):
    rng = random.Random(seed)
    return [{"din": rng.randrange(1, 256), "en": 1} for _ in range(n)]


def synthetic_campaign(sensor, module_factory=build_ip, stim=None):
    """(golden GeneratedTlm, injected GeneratedTlm, stimuli)."""
    aug = augment(module_factory, sensor)
    golden = generate_tlm(aug.module, variant="hdtlib", augmented=aug)
    injected = inject_mutants(aug, variant="hdtlib")
    return golden, injected, stim if stim is not None else stimulus()


# ----------------------------------------------------------------------
# Field identity: IPs x sensors x batch x workers x cache state
# ----------------------------------------------------------------------

class TestFieldIdentity:
    @staticmethod
    def _cold_then_warm(ip, sensor, cache_dir, **kw):
        flow, stim, oracle = case_campaign(ip, sensor)
        cache = ResultCache(cache_dir)
        cold = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name=ip, sensor_type=sensor, cache=cache, **kw
        )
        assert_matches_oracle(cold, oracle)
        assert cold.cache_misses == oracle.total
        warm = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name=ip, sensor_type=sensor, cache=cache, **kw
        )
        assert_matches_oracle(warm, oracle)
        # Batched write-back (pruned verdicts included) produced the
        # exact keys a warm rerun replays from: everything hits.
        assert warm.cache_hits == oracle.total
        assert warm.executed == 0

    @pytest.mark.parametrize("ip", IPS)
    @pytest.mark.parametrize("sensor", SENSORS)
    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_cold_then_warm_cache(self, ip, sensor, shard_size, tmp_path):
        self._cold_then_warm(ip, sensor, tmp_path, workers=1,
                             shard_size=shard_size)

    @pytest.mark.parametrize("ip", IPS)
    @pytest.mark.parametrize("sensor", SENSORS)
    @pytest.mark.parametrize("shard_size", SHARD_SIZES)
    def test_two_workers(self, ip, sensor, shard_size, sched2, tmp_path):
        self._cold_then_warm(ip, sensor, tmp_path, shard_size=shard_size,
                             scheduler=sched2)

    @pytest.mark.parametrize("sensor", SENSORS)
    def test_partial_cache_mixes_replay_and_batch(self, sensor, tmp_path):
        """A cache warmed by a *subset* shard leaves non-contiguous
        miss indices; batched sweeps over them stay identical."""
        flow, stim, oracle = case_campaign("dsp", sensor)
        # Seed every other mutant's verdict from a fully-warm cache,
        # leaving a non-contiguous miss set for the batched run.
        cache = ResultCache(tmp_path / "partial")
        full_cache = ResultCache(tmp_path / "full")
        run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type=sensor, cache=full_cache,
        )
        with_keys = prepare_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type=sensor, cache=full_cache,
        )
        assert with_keys.cache_keys is not None
        for i, key in enumerate(with_keys.cache_keys):
            if i % 2 == 0:
                payload = full_cache.get(key)
                assert payload is not None
                cache.put(key, payload)
        report = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type=sensor,
            cache=cache, shard_size=4,
        )
        assert_matches_oracle(report, oracle)
        assert report.cache_hits == (oracle.total + 1) // 2

    @pytest.mark.parametrize("sensor", SENSORS)
    def test_synthetic_ip_every_batch_size(self, sensor):
        """Exhaustive sweep-width (= shard size) scan on the fast
        synthetic IP."""
        golden, injected, stim = synthetic_campaign(sensor)
        oracle = serial_report(golden, injected, stim, sensor_type=sensor)
        for shard_size in range(1, len(injected.mutants) + 2):
            report = run_campaign(
                golden, injected, stim,
                sensor_type=sensor, shard_size=shard_size,
            )
            assert_matches_oracle(report, oracle)


#: 33 cycles of the falling-edge design: ``b`` keeps ``h`` moving, so
#: the golden Razor model stalls every third cycle and ``q__d`` is
#: rewritten at every falling edge.
FALL_STIMULI = [{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 0x20, "b": 2}] + [
    {"a": 0x20 * (i % 3), "b": (i * 37) % 256} for i in range(30)
]


@pytest.mark.parametrize("sensor", SENSORS)
def test_falling_edge_design_equals_serial(sensor, sched2):
    """A falling-edge register ``h`` breaks two shortcuts at once.  The
    golden Razor model stalls (its tap on ``h`` fires), so the sweep
    must fork every attached mutant on a stalled base cycle; and the
    falling edge rewrites the Counter endpoint ``q__d`` after the HF
    window, so its ``hf_tick == 1`` mutant is not equivalent and must
    execute."""
    aug = augmented_fall_ip(sensor, FALL_STIMULI)
    golden = generate_tlm(aug.module, variant="hdtlib", augmented=aug)
    injected = inject_mutants(aug, variant="hdtlib")
    oracle = serial_report(golden, injected, FALL_STIMULI,
                           sensor_type=sensor)
    for kw in ({"shard_size": 1}, {"shard_size": 2}, {},
               {"scheduler": sched2}):
        report = run_campaign(golden, injected, FALL_STIMULI,
                              sensor_type=sensor, **kw)
        assert_matches_oracle(report, oracle)


# ----------------------------------------------------------------------
# Randomized-design lockstep (test_compiled_kernel style)
# ----------------------------------------------------------------------

def _random_module_factory(shape, inits, consts, edges):
    def factory():
        m = Module("rand_batch_ip")
        clk = m.input("clk")
        din = m.input("din", 8)
        en = m.input("en")
        regs = [
            m.signal(f"r{k}", 8, init=inits[k])
            for k in range(len(inits))
        ]
        for k, reg in enumerate(regs):
            src = regs[k - 1] if k else din
            kind = shape[k]
            if kind == 0:
                body = [Assign(reg, reg + src)]
            elif kind == 1:
                body = [Assign(reg, reg ^ (src + const(consts[k], 8)))]
            elif kind == 2:
                body = [If(en.eq(1), [Assign(reg, src * const(consts[k], 8))])]
            else:
                body = [
                    If(src.eq(0), [Assign(reg, const(consts[k], 8))],
                       [Assign(reg, reg + const(1, 8))]),
                ]
            m.sync(f"p_r{k}", clk, body, edge=edges[k])
        for k, reg in enumerate(regs):
            out = m.output(f"o{k}", 8)
            m.comb(f"p_o{k}", [Assign(out, reg)])
        return m, clk
    return factory


@given(st.data())
@settings(max_examples=8, deadline=None)
def test_prop_random_design_batched_equals_serial(data):
    nregs = data.draw(st.integers(2, 3), label="nregs")
    shape = [data.draw(st.integers(0, 3), label=f"shape{k}")
             for k in range(nregs)]
    inits = [data.draw(st.integers(0, 255), label=f"init{k}")
             for k in range(nregs)]
    consts = [data.draw(st.integers(1, 255), label=f"const{k}")
              for k in range(nregs)]
    edges = [data.draw(st.sampled_from(("rise", "fall")), label=f"edge{k}")
             for k in range(nregs)]
    sensor = data.draw(st.sampled_from(SENSORS), label="sensor")
    stim = [
        {"din": data.draw(st.integers(0, 255), label=f"din{i}"),
         "en": data.draw(st.integers(0, 1), label=f"en{i}")}
        for i in range(data.draw(st.integers(6, 14), label="cycles"))
    ]
    factory = _random_module_factory(shape, inits, consts, edges)
    golden, injected, stim = synthetic_campaign(
        sensor, module_factory=factory, stim=stim
    )
    oracle = serial_report(golden, injected, stim, sensor_type=sensor)
    for shard_size in (2, None):
        report = run_campaign(
            golden, injected, stim, sensor_type=sensor,
            shard_size=shard_size,
        )
        assert_matches_oracle(report, oracle)


# ----------------------------------------------------------------------
# Early-kill semantics
# ----------------------------------------------------------------------

class _ScriptModel:
    """Fake TLM model emitting a scripted output per call; the script's
    last entry repeats forever."""

    PORTS_OUT = {"q": 8, "razor_err": 1, "razor_stall": 1}

    def __init__(self, script):
        self._script = script
        self._calls = 0

    def b_transport(self, inputs=None):
        out = self._script[min(self._calls, len(self._script) - 1)]
        self._calls += 1
        return dict(out)


SPEC = MutantSpec("min", "t", 0, "r")


def _drive_both(model_factory, stimuli, golden):
    """(oracle outcome + calls, early-kill outcome + calls)."""
    results = []
    for drive in (drive_razor_full, _drive_razor):
        model = model_factory()
        judge = RazorMutantJudge(0, SPEC, golden, True)
        timed_out = drive(model, stimuli, 1, judge)
        results.append((judge.finish(timed_out), model._calls))
    return results


class TestEarlyKill:
    def test_generated_mutants_identical_with_fewer_calls(self):
        """Seeded fixture: every generated Razor mutant produces the
        exact serial verdict under early-kill -- any changed field
        fails here."""
        golden_gen, injected, stim = synthetic_campaign("razor")
        golden = compute_golden_trace(
            golden_gen.instantiate(), stim,
            sensor_type="razor", recovery=True,
        )
        cut_calls = total_calls = 0
        for index, spec in enumerate(injected.mutants):
            calls = []
            outcomes = []
            for drive in (drive_razor_full, _drive_razor):
                judge = RazorMutantJudge(index, spec, golden, True)
                timed_out = drive(
                    _instantiate(injected, index), stim, 1, judge
                )
                outcomes.append(judge.finish(timed_out))
                calls.append(judge.calls)
            assert outcomes[1] == outcomes[0]
            total_calls += calls[0]
            cut_calls += calls[1]
        assert cut_calls <= total_calls

    def test_tail_only_budget_exhaustion_not_misreported(self):
        """A mutant whose stall budget would be exhausted only in
        cycles the early-kill skipped must not be reported
        ``timed_out``: the verdict was already settled."""
        n = 4
        stimuli = [{"d": i} for i in range(n)]
        golden = compute_golden_trace(
            _ScriptModel([{"q": 0, "razor_err": 0, "razor_stall": 0}]),
            stimuli, sensor_type="razor", recovery=True,
        )
        # Functional output matches the golden stream every call (so
        # recovery completes), the error flag diverges immediately, and
        # the stall never releases -- the serial drive burns its whole
        # budget re-presenting the first vector.
        factory = lambda: _ScriptModel(
            [{"q": 0, "razor_err": 1, "razor_stall": 1}]
        )
        (serial, serial_calls), (early, early_calls) = _drive_both(
            factory, stimuli, golden
        )
        assert serial.timed_out            # the skipped tail did time out
        assert not early.timed_out         # ... but the verdict was settled
        assert early.killed and serial.killed
        assert early.first_divergence == serial.first_divergence == 0
        assert early.detected and early.error_risen
        assert early_calls == n            # recovery needed n matches
        assert serial_calls == 3 * n + 8   # full budget burned

    def test_no_settle_without_error_flag(self):
        """A divergence without a risen error never settles the judge:
        early-kill must drive the full stream (fields identical)."""
        stimuli = [{"d": i} for i in range(5)]
        golden = compute_golden_trace(
            _ScriptModel([{"q": 0, "razor_err": 0, "razor_stall": 0}]),
            stimuli, sensor_type="razor", recovery=True,
        )
        factory = lambda: _ScriptModel(
            [{"q": 9, "razor_err": 0, "razor_stall": 0}]
        )
        (serial, serial_calls), (early, early_calls) = _drive_both(
            factory, stimuli, golden
        )
        assert early == serial
        assert early_calls == serial_calls == len(stimuli)

    def test_settled_run_cut_short_keeps_all_fields(self):
        """Diverge + error + instant recovery: early-kill stops as soon
        as the golden stream is recovered, with identical fields."""
        stimuli = [{"d": i} for i in range(6)]
        golden = compute_golden_trace(
            _ScriptModel([{"q": 0, "razor_err": 0, "razor_stall": 0}]),
            stimuli, sensor_type="razor", recovery=True,
        )
        factory = lambda: _ScriptModel(
            [{"q": 0, "razor_err": 1, "razor_stall": 1}]
            + [{"q": 0, "razor_err": 0, "razor_stall": 0}] * 20
        )
        (serial, serial_calls), (early, early_calls) = _drive_both(
            factory, stimuli, golden
        )
        assert early == serial
        assert not early.timed_out
        assert early_calls <= serial_calls


def _instantiate(injected, index):
    mutant = injected.instantiate()
    mutant.activate_mutant(index)
    return mutant


# ----------------------------------------------------------------------
# Fork isolation
# ----------------------------------------------------------------------

class TestForkIsolation:
    @pytest.mark.parametrize("sensor", SENSORS)
    def test_golden_trace_bit_identical_after_sweep(self, sensor):
        golden, injected, stim = synthetic_campaign(sensor)
        prepared = prepare_campaign(
            golden, injected, stim, sensor_type=sensor
        )
        (shard,) = prepared.shards
        before = json.dumps(
            encode_golden_trace(shard.golden), sort_keys=True
        )
        stim_before = tuple(dict(v) for v in shard.stimuli)
        outcomes = shard.run()
        after = json.dumps(
            encode_golden_trace(shard.golden), sort_keys=True
        )
        assert before == after
        assert tuple(dict(v) for v in shard.stimuli) == stim_before
        assert len(outcomes) == len(shard.indices)

    def test_sweep_outputs_do_not_alias_golden_dicts(self):
        """The full-output dicts the judges observe are the model's
        own; mutating an outcome path never writes into the trace."""
        golden, injected, stim = synthetic_campaign("razor")
        trace = compute_golden_trace(
            golden.instantiate(), stim,
            sensor_type="razor", recovery=True,
        )
        snapshot = [dict(o) for o in trace.full]
        prepared = prepare_campaign(
            golden, injected, stim, sensor_type="razor", shard_size=3
        )
        for shard in prepared.shards:
            shard.run()
        assert [dict(o) for o in trace.full] == snapshot


# ----------------------------------------------------------------------
# Interplay: pruning and fault plans
# ----------------------------------------------------------------------

class TestInterplay:
    @pytest.mark.parametrize("sensor", SENSORS)
    def test_batch_composed_with_lint_prune(self, sensor):
        flow, stim, oracle = case_campaign("dsp", sensor)
        report = run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type=sensor, shard_size=4,
        )
        assert_matches_oracle(report, oracle)
        # The hf-first-tick third of a Counter table is judged from
        # the golden trace; it never reaches a batched shard.
        pruned = oracle.total // 3 if sensor == "counter" else 0
        assert report.pruned_equivalent == pruned
        assert report.executed == oracle.total - pruned

    def test_batch_with_deferred_duplicate_clones(self):
        """An hf_ratio=2 Counter build collides max/delta mutants onto
        one HF tick: mutants the dual scheduler and the Counter judge
        cannot tell apart.  They ride the batched sweep like every
        other non-equivalent mutant."""
        from repro.lint import plan_pruning

        spec = case_study("dsp")
        module, clk = spec.factory()
        critical = bin_critical_paths(
            analyze(synthesize(module), clock_period_ps=spec.clock_period_ps),
            spec.slack_threshold_ps,
        )
        aug = insert_sensors(
            module, clk, critical, sensor_type="counter", hf_ratio=2,
            calibration_stimuli=spec.stimulus(
                min(spec.mutation_cycles, 128)
            ),
        )
        golden = generate_tlm(module, variant="hdtlib", augmented=aug)
        injected = inject_mutants(aug, variant="hdtlib")
        stim = spec.stimulus(spec.mutation_cycles)
        equivalent = plan_pruning(injected, "counter")
        executable = {
            (s.target, s.hf_tick, s.register)
            for i, s in enumerate(injected.mutants) if i not in equivalent
        }
        # The fixture must actually collide.
        assert len(executable) < len(injected.mutants) - len(equivalent)

        oracle = serial_report(golden, injected, stim,
                               sensor_type="counter")
        report = run_campaign(
            golden, injected, stim, sensor_type="counter", shard_size=4,
        )
        assert_matches_oracle(report, oracle)
        assert report.executed == oracle.total - len(equivalent)

    def test_batch_under_seeded_worker_crashes(self, sched2):
        """Self-healing re-dispatch of batched shards: a seeded
        worker-crash plan leaves the report field-identical."""
        flow, stim, oracle = case_campaign("dsp", "razor")
        plan = FaultPlan.from_spec("seed=11;pool.break_worker=p0.3x2")
        with active_plan(plan):
            with CampaignScheduler(workers=2) as scheduler:
                report = run_campaign(
                    flow.tlm_optimized, flow.injected, stim,
                    ip_name="dsp", sensor_type="razor",
                    shard_size=3, scheduler=scheduler,
                )
        assert_matches_oracle(report, oracle)


# ----------------------------------------------------------------------
# TARGET_ATTRS / LATE_ENDPOINTS emission
# ----------------------------------------------------------------------

class TestSafeTargets:
    """The change-mask target map (``TARGET_ATTRS``, whose order defines
    the mask bits) and the late-endpoint list the pruner reads."""

    def test_emitted_only_on_injected_models(self):
        golden, injected, stim = synthetic_campaign("razor")
        golden_cls = golden.compiled_class()
        assert not hasattr(golden_cls, "TARGET_ATTRS")
        assert not hasattr(golden_cls, "LATE_ENDPOINTS")
        assert not hasattr(golden.instantiate(), "_changed")
        cls = injected.compiled_class()
        targets = {spec.target for spec in injected.mutants}
        assert list(cls.TARGET_ATTRS) == sorted(targets)
        assert cls.LATE_ENDPOINTS == []

    @pytest.mark.parametrize("ip", IPS)
    @pytest.mark.parametrize("sensor", SENSORS)
    def test_safe_map_names_real_attributes(self, ip, sensor):
        flow, _, _ = case_campaign(ip, sensor)
        cls = flow.injected.compiled_class()
        instance = flow.injected.instantiate()
        targets = {spec.target for spec in flow.injected.mutants}
        assert set(cls.TARGET_ATTRS) == targets
        for attr in cls.TARGET_ATTRS.values():
            assert hasattr(instance, attr)
            assert hasattr(instance, "_tmp_" + attr)
        # Every registered endpoint settles before the first HF sample,
        # so the hf-first-tick prune covers a full third of the table.
        assert cls.LATE_ENDPOINTS == []

    def test_falling_edge_endpoint_is_late(self):
        aug = augmented_fall_ip("counter", FALL_STIMULI)
        cls = inject_mutants(aug, variant="hdtlib").compiled_class()
        assert cls.LATE_ENDPOINTS == ["q__d"]


# ----------------------------------------------------------------------
# Kernel snapshot / restore (the RTL fork primitive)
# ----------------------------------------------------------------------

class TestKernelSnapshot:
    def _sim(self, ip="dsp"):
        spec = case_study(ip)
        module, clk = spec.factory()
        sim = Simulation(module, {clk: spec.clock_period_ps})
        names = {s.name: s for s in module.all_signals()
                 if s.direction == "in"}
        outs = [s for s in module.all_signals() if s.direction == "out"]
        stim = spec.stimulus(24)

        def drive(n, start):
            observed = []
            for vec in stim[start:start + n]:
                sim.cycle({
                    names[k]: v for k, v in vec.items() if k in names
                })
                observed.append(
                    tuple(sim.peek_int(o) for o in outs)
                )
            return observed

        return sim, drive

    def test_restore_replays_identically(self):
        sim, drive = self._sim()
        drive(8, 0)
        snap = sim.snapshot_state()
        first = drive(8, 8)
        sim.restore_state(snap)
        assert drive(8, 8) == first

    def test_restore_rebinds_nothing(self):
        """Compiled runner closures capture the value stores by
        identity; restore must mutate them in place."""
        sim, drive = self._sim()
        values, arrays = sim._values, sim._arrays
        snap = sim.snapshot_state()
        drive(4, 0)
        sim.restore_state(snap)
        assert sim._values is values
        assert sim._arrays is arrays
        for arr, words in arrays.items():
            assert sim._arrays[arr] is words

    def test_snapshot_isolated_from_further_simulation(self):
        sim, drive = self._sim()
        drive(4, 0)
        snap = sim.snapshot_state()
        frozen = json.dumps(
            sorted((s.name, str(v)) for s, v in snap["values"].items())
        )
        drive(8, 4)
        assert json.dumps(
            sorted((s.name, str(v)) for s, v in snap["values"].items())
        ) == frozen

    def test_restore_twice_from_one_snapshot(self):
        sim, drive = self._sim()
        drive(6, 0)
        snap = sim.snapshot_state()
        a = drive(6, 6)
        sim.restore_state(snap)
        b = drive(6, 6)
        sim.restore_state(snap)
        c = drive(6, 6)
        assert a == b == c

    def test_restore_isolates_native_process_state(self):
        """The Counter bank's native process keeps nested per-tap
        state; neither the live run nor a restore may share it with
        the snapshot."""
        spec = case_study("dsp")
        aug = build_augmented(spec, "counter").augmented
        sim = aug.make_simulation(input_launch_at_edge=True)
        inputs = {p.name: p for p in aug.module.inputs()}
        stim = spec.stimulus(24)

        def drive(n, start):
            observed = []
            for vec in stim[start:start + n]:
                sim.cycle({inputs[k]: v for k, v in vec.items()})
                observed.append(
                    tuple(sim.peek_int(t.meas_val) for t in aug.bank.taps)
                )
            return observed

        drive(6, 0)
        snap = sim.snapshot_state()
        first = drive(18, 6)
        assert any(any(row) for row in first)
        sim.restore_state(snap)
        assert drive(18, 6) == first
        sim.restore_state(snap)
        assert drive(18, 6) == first
