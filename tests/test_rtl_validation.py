"""The forked RTL-validation sweep is field-identical to fresh simulation.

:class:`~repro.mutation.rtl_validation.RtlValidationShard` reproduces
its mutants as one forked sweep: a golden pass, forks restored from
golden snapshots, Razor runs stopped at the first raised error, and
mutants whose endpoint never changes judged from the golden pass
alone.  These tests hold it to the straightforward semantics it
replaced -- one fresh simulator per mutant, one delayed endpoint, every
testbench cycle (:func:`fresh_reference`) -- over the three case
studies, both sensors, two stimulus seeds, one worker and two (the
design pickled into worker processes), the default and a 5-mutant
shard size, and a warm result cache.  They
also cover caller-modified and ad-hoc designs on a pool, and the
per-mutant TLM/RTL agreement gate of ``repro bench --rtl-validation``.
"""

import dataclasses
import functools

import pytest

from repro.cli import main as cli_main
from repro.flow import build_augmented, run_flow
from repro.ips import case_study
from repro.mutation import (
    CampaignScheduler,
    ResultCache,
    RtlMutantOutcome,
    cross_level_disagreements,
    inject_mutants,
    run_benchmark_suite,
    validate_at_rtl,
)
from repro.mutation.rtl_validation import _rtl_delay_for, _stimulus_driver
from repro.rtl import Assign, Module, const
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

IPS = ("plasma", "dsp", "filter")
#: ``None`` is the registry testbench; 2 is one other stimulus seed.
SEEDS = (None, 2)
#: Testbench cap: three of the filter's 32-cycle decimation periods,
#: so its output registers fork late; the fresh reference stays cheap.
MAX_CYCLES = 96


@functools.lru_cache(maxsize=None)
def design(ip: str, sensor: str):
    """The registry augmentation of ``ip`` and its mutant table."""
    augmented = build_augmented(case_study(ip), sensor).augmented
    return augmented, tuple(inject_mutants(augmented).mutants)


def stimuli_for(ip: str, seed, cycles: int):
    spec = case_study(ip)
    if seed is None:
        return spec.stimulus(cycles)
    return spec.stimulus(cycles, seed=seed)


def fresh_reference(augmented, specs, drive, cycles):
    """One fresh simulator per mutant running the full testbench,
    with the sensor outputs read every cycle."""
    outcomes = []
    for index, spec in enumerate(specs):
        sim = augmented.make_simulation(input_launch_at_edge=True)
        sim.set_transport_delay(
            augmented.endpoint_for(spec.register),
            _rtl_delay_for(spec, augmented),
        )
        risen = False
        measured = None
        if augmented.sensor_type == "razor":
            tap = next(t for t in augmented.bank.taps
                       if t.register.name == spec.register)
            for i in range(cycles):
                drive(sim, i)
                if sim.peek_int(tap.error):
                    risen = True
        else:
            tap = augmented.bank.tap_for(spec.register)
            for i in range(cycles):
                drive(sim, i)
                meas = sim.peek_int(tap.meas_val)
                if meas:
                    measured = meas
                    if meas > tap.lut_threshold:
                        risen = True
        outcomes.append(RtlMutantOutcome(
            spec=spec, error_risen=risen, meas_val=measured, index=index
        ))
    return outcomes


@pytest.fixture(scope="module")
def pool():
    with CampaignScheduler(workers=2) as scheduler:
        yield scheduler


CASES = [
    (ip, sensor, seed)
    for ip in IPS
    for sensor in ("razor", "counter")
    for seed in SEEDS
]


@pytest.mark.parametrize(
    "ip,sensor,seed", CASES,
    # The trailing 0 is the Razor recovery enable the testbench holds.
    ids=[f"{ip}-{sensor}-{seed}-0" for ip, sensor, seed in CASES],
)
def test_forked_sweep_matches_fresh_reference(ip, sensor, seed, pool,
                                              tmp_path):
    augmented, specs = design(ip, sensor)
    cycles = min(case_study(ip).mutation_cycles, MAX_CYCLES)
    stimuli = stimuli_for(ip, seed, cycles)
    expected = fresh_reference(
        augmented, specs, _stimulus_driver(augmented, stimuli), cycles,
    )
    common = dict(stimuli=stimuli, ip_name=ip)
    for shard_size in (None, 5):
        inline = validate_at_rtl(augmented, specs, shard_size=shard_size,
                                 **common)
        assert inline.outcomes == expected, ("workers=1", shard_size)
        pooled = validate_at_rtl(augmented, specs, shard_size=shard_size,
                                 scheduler=pool, **common)
        assert pooled.outcomes == expected, ("workers=2", shard_size)
    cache = ResultCache(tmp_path / "cache")
    cold = validate_at_rtl(augmented, specs, cache=cache, **common)
    warm = validate_at_rtl(augmented, specs, cache=cache, **common)
    assert warm.cache_hits == len(specs)
    assert cold.outcomes == warm.outcomes == expected


def _first_error_cycles(augmented, specs, drive, cycles):
    """Per Razor mutant, the first cycle its error output is raised."""
    first = {}
    for index, spec in enumerate(specs):
        sim = augmented.make_simulation(input_launch_at_edge=True)
        sim.set_transport_delay(
            augmented.endpoint_for(spec.register),
            _rtl_delay_for(spec, augmented),
        )
        tap = next(t for t in augmented.bank.taps
                   if t.register.name == spec.register)
        for i in range(cycles):
            drive(sim, i)
            if sim.peek_int(tap.error):
                first[index] = i
                break
    return first


def test_razor_error_rising_on_the_last_cycle():
    """Cut the testbench so the latest-rising Razor error rises on its
    very last cycle, and one cycle earlier so it never does."""
    augmented, specs = design("dsp", "razor")
    stimuli = stimuli_for("dsp", None, 72)
    drive = _stimulus_driver(augmented, stimuli)
    first = _first_error_cycles(augmented, specs, drive, 72)
    latest = max(first, key=first.get)
    assert first[latest] > 0
    for cycles in (first[latest] + 1, first[latest]):
        report = validate_at_rtl(augmented, specs,
                                 stimuli=stimuli[:cycles], ip_name="dsp")
        assert report.outcomes == fresh_reference(
            augmented, specs, drive, cycles
        )
        assert report.outcomes[latest].error_risen == (
            cycles > first[latest]
        )


@pytest.mark.parametrize("sensor", ["razor", "counter"])
def test_endpoint_that_never_changes(sensor):
    """A 2-cycle testbench leaves some monitored endpoints at their
    reset value throughout: those mutants are judged from the golden
    pass, and must still equal the fresh reference."""
    augmented, specs = design("dsp", sensor)
    stimuli = stimuli_for("dsp", None, 2)
    drive = _stimulus_driver(augmented, stimuli)

    sim = augmented.make_simulation(input_launch_at_edge=True)
    endpoints = {augmented.endpoint_for(s.register) for s in specs}
    initial = {ep: sim.peek(ep) for ep in endpoints}
    moved = set()
    sim.watch(lambda sim, t: moved.update(
        ep for ep in endpoints if sim.peek(ep) != initial[ep]
    ))
    for i in range(2):
        drive(sim, i)
    # A change still in flight at the end would be visible to a mutant
    # with a shorter delay: count those endpoints as moving too.
    moved.update(sig for _, _, sig, value in sim.snapshot_state()["delayed"]
                 if sig in initial and value != initial[sig])
    assert endpoints - moved, "every endpoint changes within 2 cycles"

    report = validate_at_rtl(augmented, specs, stimuli=stimuli,
                             ip_name="dsp")
    assert report.outcomes == fresh_reference(augmented, specs, drive, 2)


#: Clock period of :func:`augmented_fall_ip`, in ps.
FALL_IP_PERIOD = 1000


def augmented_fall_ip(sensor_type: str, stimuli):
    """A design with one falling-edge register: ``r <- a`` at the
    rising edge, ``h <- b`` at the falling edge, ``q <- (r & 0xF0) +
    (h & 0xF0)`` at the rising edge and ``out = q``; ``sensor_type``
    sensors on every path, calibrated on ``stimuli``."""
    m = Module("fall_ip")
    clk = m.input("clk")
    a = m.input("a", 8)
    b = m.input("b", 8)
    r = m.signal("r", 8)
    h = m.signal("h", 8)
    q = m.signal("q", 8)
    m.sync("p_r", clk, [Assign(r, a)])
    m.sync("p_h", clk, [Assign(h, b)], edge="fall")
    m.sync("p_q", clk, [
        Assign(q, (r & const(0xF0, 8)) + (h & const(0xF0, 8))),
    ])
    m.comb("p_out", [Assign(m.output("out", 8), q)])
    critical = bin_critical_paths(
        analyze(synthesize(m), clock_period_ps=FALL_IP_PERIOD),
        threshold_ps=1e9,
    )
    return insert_sensors(m, clk, critical, sensor_type=sensor_type,
                          calibration_stimuli=stimuli)


def test_pending_no_op_write_at_the_fork_point():
    """A falling-edge register rewrites the endpoint mid-cycle with an
    unchanged value just before the fork point.  Under the late
    nominal arrival that write is still pending at the fork, and would
    land after a short-delay mutant's first change -- reverting it --
    unless the fork drops it, as the fresh run (where it lands early,
    as a no-op) demands."""
    # q__d first changes at the rising edge of cycle 3 (r = 0x20); the
    # low nibble of b rewrites it, unchanged, at every falling edge.
    stimuli = [{"a": 0, "b": 0}, {"a": 0, "b": 1}, {"a": 0x20, "b": 2}] + [
        {"a": 0x20, "b": i % 4} for i in range(9)
    ]
    augmented = augmented_fall_ip("counter", stimuli)
    # Arrivals at the top of the Counter window (0.7 T).
    late = 7 * FALL_IP_PERIOD // 10
    augmented.bank.taps[:] = [
        dataclasses.replace(t, nominal_delay_ps=late)
        for t in augmented.bank.taps
    ]
    augmented.nominal_delay_of.update(
        (t.endpoint, late) for t in augmented.bank.taps
    )
    specs = inject_mutants(augmented).mutants
    expected = fresh_reference(
        augmented, specs, _stimulus_driver(augmented, stimuli),
        len(stimuli),
    )
    report = validate_at_rtl(augmented, specs, stimuli=stimuli)
    assert report.outcomes == expected
    # The unregistered design runs on a pool too: its shards pickle it.
    assert len(specs) >= 2
    with CampaignScheduler(2) as scheduler:
        pooled = validate_at_rtl(augmented, specs, stimuli=stimuli,
                                 shard_size=1, scheduler=scheduler)
        assert scheduler.describe()["live"]
    assert pooled.outcomes == expected


def test_caller_modified_flow_validates_as_built_at_any_pool_width(
        tmp_path):
    """A suite handed a caller-built flow validates that flow's design,
    not the registry build, at any pool width -- here a dsp/counter
    flow whose LUT thresholds were lowered to 4.  The 2-worker suite
    runs first, so its pool forks before anything else in this test
    touches the design."""
    spec = case_study("dsp")
    key = ("dsp", "counter")
    flow = run_flow(spec, "counter", run_mutation=False)
    taps = flow.augmented.bank.taps
    taps[:] = [dataclasses.replace(t, lut_threshold=4) for t in taps]

    def rtl_report(workers, cache):
        with CampaignScheduler(workers) as scheduler:
            suite = run_benchmark_suite(
                ["dsp"], ("counter",), flows={key: flow},
                scheduler=scheduler, rtl_validation=True, cache=cache,
            )
        return suite.rtl_reports[key]

    cache = ResultCache(tmp_path / "cache")
    pooled = rtl_report(2, cache)
    inline = rtl_report(1, ResultCache(tmp_path / "inline"))
    warm = rtl_report(2, cache)
    stimuli = spec.stimulus(spec.mutation_cycles)
    expected = validate_at_rtl(flow.augmented, flow.injected.mutants,
                               stimuli=stimuli, ip_name="dsp")
    assert pooled == inline == expected
    assert warm.cache_hits == warm.total
    assert warm == expected


# ----------------------------------------------------------------------
# The per-mutant cross-level gate of `repro bench --rtl-validation`
# ----------------------------------------------------------------------

def _flip_rtl_verdict(suite, key, index):
    """``suite`` with one RTL ``error_risen`` inverted."""
    rtl = suite.rtl_reports[key]
    outcomes = list(rtl.outcomes)
    outcomes[index] = dataclasses.replace(
        outcomes[index], error_risen=not outcomes[index].error_risen
    )
    return dataclasses.replace(suite, rtl_reports={
        **suite.rtl_reports, key: dataclasses.replace(rtl, outcomes=outcomes)
    })


class TestCrossLevelGate:
    @pytest.fixture(scope="class")
    def suite(self):
        with CampaignScheduler(workers=1) as scheduler:
            return run_benchmark_suite(["dsp"], ("razor", "counter"),
                                       scheduler=scheduler,
                                       rtl_validation=True)

    def test_every_mutant_agrees(self, suite):
        assert suite.rtl_disagreements == {
            ("dsp", "razor"): [], ("dsp", "counter"): [],
        }
        assert suite.rtl_validation_ok

    def test_planted_flipped_rtl_verdict_is_listed(self, suite):
        planted = _flip_rtl_verdict(suite, ("dsp", "counter"), 3)
        assert planted.rtl_disagreements == {
            ("dsp", "razor"): [], ("dsp", "counter"): [3],
        }
        assert not planted.rtl_validation_ok

    def test_a_mutant_missing_at_one_level_disagrees(self, suite):
        tlm = suite.reports[("dsp", "razor")]
        rtl = suite.rtl_reports[("dsp", "razor")]
        short = dataclasses.replace(rtl, outcomes=rtl.outcomes[1:])
        assert cross_level_disagreements(tlm, short) == [0]

    @pytest.mark.parametrize("sensor", ["razor", "counter"])
    def test_run_flow_validates_over_the_campaign_stimuli(self, sensor):
        """A shortened flow validates at RTL over the same vectors as
        its TLM campaign, so the two levels compare mutant by mutant."""
        flow = run_flow(case_study("dsp"), sensor, mutation_cycles=24,
                        run_rtl_validation=True)
        assert flow.rtl_validation.cycles_per_run == 24
        assert flow.mutation.cycles_per_run == 24
        assert cross_level_disagreements(flow.mutation,
                                         flow.rtl_validation) == []

    def test_bench_exit_code_and_table(self, monkeypatch, capsys):
        import repro.mutation

        argv = ["bench", "--ips", "dsp", "--rtl-validation", "--workers",
                "1", "--no-progress"]
        assert cli_main(argv) == 0
        assert "TLM/RTL disagreements" in capsys.readouterr().out

        real = repro.mutation.run_benchmark_suite
        monkeypatch.setattr(
            repro.mutation, "run_benchmark_suite",
            lambda *a, **kw: _flip_rtl_verdict(real(*a, **kw),
                                               ("dsp", "counter"), 3),
        )
        assert cli_main(argv) == 1
        assert "| 1: 3 " in capsys.readouterr().out
