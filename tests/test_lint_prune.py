"""Tests for static mutant pruning (:mod:`repro.lint.mutants`).

Every campaign prunes.  The contract under test: every report stays
**field-identical** to the serial, unpruned oracle
(``tests/serial_oracle.py``) -- pruned mutants are counted and judged,
never dropped -- while the executed-mutant set measurably shrinks.
Coverage:

* plan-level classification (``hf-first-tick`` is exactly one third
  of every Counter table; Razor tables have no equivalents at the
  default HF ratio);
* pruned-vs-oracle report equality for all three IPs x both sensors,
  including the full outcome lists;
* shard accounting: pruned mutants leave the executable set, and
  throughput counts only the executed ones;
* cache interplay in both directions (a pruned run writes every
  verdict an unpruned reader looks up, and a cache an unpruned run
  filled replays in full) with identical prune counters on cold and
  warm runs;
* an ``hf_ratio=2`` Counter build whose table holds mutants that no
  scheduler or judge can tell apart: they execute like every other
  mutant and still match the oracle;
* multi-worker / shared-pool runs (:func:`run_benchmark_suite`).
"""

import pytest

from repro.flow import run_flow
from repro.ips import CASE_STUDIES, case_study
from repro.lint import plan_pruning
from repro.mutation import (
    AbortPolicy,
    CampaignScheduler,
    ResultCache,
    inject_mutants,
    prepare_campaign,
    run_benchmark_suite,
    run_campaign,
    stream_shard_batches,
)
from repro.mutation.cache import decode_outcome, encode_outcome
from repro.abstraction import generate_tlm
from serial_oracle import assert_matches_oracle, serial_report

IPS = sorted(CASE_STUDIES)
SENSORS = ("razor", "counter")


def _flow(ip, sensor, **kw):
    return run_flow(case_study(ip), sensor, **kw)


def _campaign_inputs(flow):
    stimuli = flow.spec.stimulus(flow.spec.mutation_cycles)
    return flow.tlm_optimized, flow.injected, stimuli


_oracles: dict = {}


def _oracle(ip, sensor):
    """The serial, unpruned report of one registry campaign at full
    testbench length (memoised for the whole test run)."""
    key = (ip, sensor)
    if key not in _oracles:
        flow = _flow(ip, sensor, run_mutation=False)
        _oracles[key] = serial_report(
            *_campaign_inputs(flow), ip_name=ip, sensor_type=sensor
        )
    return _oracles[key]


class TestPlan:
    @pytest.mark.parametrize("ip", IPS)
    def test_counter_equivalents_are_one_third(self, ip):
        flow = _flow(ip, "counter", run_mutation=False)
        equivalent = plan_pruning(flow.injected, "counter")
        total = len(flow.injected.mutants)
        assert len(equivalent) == total // 3
        assert set(equivalent.values()) == {"hf-first-tick"}
        assert all(
            flow.injected.mutants[i].hf_tick == 1 for i in equivalent
        )

    @pytest.mark.parametrize("ip", IPS)
    def test_razor_tables_have_no_equivalents(self, ip):
        flow = _flow(ip, "razor", run_mutation=False)
        assert plan_pruning(flow.injected, "razor") == {}


class TestReportEquality:
    @pytest.mark.parametrize("ip", IPS)
    @pytest.mark.parametrize("sensor", SENSORS)
    def test_prune_on_off_field_identical(self, ip, sensor):
        off = _oracle(ip, sensor)
        on = _flow(ip, sensor).mutation
        assert_matches_oracle(on, off)
        assert [o.index for o in on.outcomes] == list(range(off.total))
        # Accounting: the plan-level counters, and only the executed
        # rest counted as simulated.
        expected = off.total // 3 if sensor == "counter" else 0
        assert on.pruned_equivalent == expected
        assert on.executed == off.total - expected

    def test_pruned_mutants_leave_the_executable_set(self):
        flow = _flow("filter", "counter", run_mutation=False)
        golden, injected, stimuli = _campaign_inputs(flow)
        prepared = prepare_campaign(
            golden, injected, stimuli,
            ip_name="filter", sensor_type="counter",
        )
        total = len(injected.mutants)
        executed = sum(len(s.indices) for s in prepared.shards)
        assert len(prepared.pruned_outcomes) == total // 3
        assert executed == total - total // 3
        # The replayed batch counts as a shard of the campaign.
        assert prepared.total_shards == len(prepared.shards) + 1

    @pytest.mark.parametrize("sensor", SENSORS)
    def test_multi_worker_pruned_run_identical(self, sensor):
        on = _flow("dsp", sensor, workers=2, shard_size=5).mutation
        assert_matches_oracle(on, _oracle("dsp", sensor))


def _cache_keys(flow, cache):
    golden, injected, stimuli = _campaign_inputs(flow)
    return prepare_campaign(
        golden, injected, stimuli,
        ip_name="dsp", sensor_type="counter", cache=cache,
    ).cache_keys


class TestThroughput:
    """``mutants_per_second`` counts only mutants an executed shard
    simulated -- never cache replays or pruned verdicts."""

    def test_cold_counter_campaign_counts_executed_mutants(self):
        report = _flow("filter", "counter").mutation
        assert report.total == 81
        assert report.executed == report.obs["counters"]["mutants"] == 54
        assert report.mutants_per_second == pytest.approx(
            54 / report.seconds
        )

    def test_warm_counter_campaign_executes_nothing(self):
        cache = ResultCache(None)
        _flow("filter", "counter", cache=cache)
        warm = _flow("filter", "counter", cache=cache).mutation
        assert warm.cache_hits == warm.total
        assert warm.executed == 0
        assert warm.mutants_per_second == 0.0

    def test_aborted_run_counts_no_unrun_shard(self):
        # The abort triggers on the replayed (pruned) batch, before any
        # shard is submitted: nothing executed, although the plan-level
        # prune counters cover only a third of the table.
        flow = _flow("dsp", "counter", run_mutation=False)
        prepared = prepare_campaign(
            *_campaign_inputs(flow), ip_name="dsp",
            sensor_type="counter", shard_size=3,
        )
        with CampaignScheduler(workers=1) as scheduler:
            outcomes = [
                o for batch, _ in stream_shard_batches(
                    scheduler, prepared,
                    abort=AbortPolicy(score_threshold=0.0),
                )
                for o in batch
            ]
        report = prepared.build_report(outcomes, seconds=1.0)
        assert report.total == len(prepared.pruned_outcomes) == 9
        assert report.executed == 0
        assert report.mutants_per_second == 0.0

    def test_suite_throughput_counts_executed_mutants(self):
        with CampaignScheduler(workers=1) as scheduler:
            suite = run_benchmark_suite(["dsp"], ["counter"],
                                        scheduler=scheduler)
        report = suite.reports[("dsp", "counter")]
        assert report.executed == report.total - report.total // 3
        assert suite.mutants_per_second == pytest.approx(
            report.executed / suite.campaign_seconds
        )


class TestCacheInterplay:
    def test_cold_pruned_seeds_warm_unpruned(self):
        cache = ResultCache(None)
        flow = _flow("dsp", "counter", cache=cache)
        cold = flow.mutation
        oracle = _oracle("dsp", "counter")
        assert_matches_oracle(cold, oracle)
        # Synthesised verdicts were written back: a reader
        # that looks every mutant up by its entry key (an unpruned
        # replay) finds the oracle's verdict for each one.
        keys = _cache_keys(flow, cache)
        assert [decode_outcome(cache.get(key), i)
                for i, key in enumerate(keys)] == oracle.outcomes
        warm = _flow("dsp", "counter", cache=cache).mutation
        assert warm.cache_hits == warm.total
        assert warm.cache_misses == 0

    def test_cold_unpruned_seeds_warm_pruned(self):
        # A cache filled by an unpruned run -- every mutant executed
        # and stored under its unchanged entry key -- replays in full.
        cache = ResultCache(None)
        flow = _flow("dsp", "counter", run_mutation=False)
        cold = _oracle("dsp", "counter")
        for key, outcome in zip(_cache_keys(flow, cache), cold.outcomes):
            cache.put(key, encode_outcome(outcome))
        warm = _flow("dsp", "counter", cache=cache).mutation
        assert_matches_oracle(warm, cold)
        assert warm.cache_hits == warm.total
        assert warm.executed == 0
        # Plan-level counters: a fully-warm run still reports the
        # whole-table prune statistics, identical to a cold one.
        assert warm.pruned_equivalent == cold.total // 3


def _build_counter_hf2(ip="dsp"):
    """An off-registry Counter build at ``hf_ratio=2``: the coarser HF
    clock makes distinct delay mutants land on the same HF tick, which
    is the only way to get indistinguishable mutants out of the
    shipped IPs."""
    from repro.sensors import insert_sensors
    from repro.sta import analyze, bin_critical_paths
    from repro.synth import synthesize

    spec = case_study(ip)
    module, clk = spec.factory()
    synth = synthesize(module)
    sta = analyze(synth, clock_period_ps=spec.clock_period_ps)
    critical = bin_critical_paths(sta, spec.slack_threshold_ps)
    augmented = insert_sensors(
        module, clk, critical, sensor_type="counter", hf_ratio=2,
        calibration_stimuli=spec.stimulus(
            min(spec.mutation_cycles, 128)
        ),
    )
    golden = generate_tlm(module, variant="hdtlib", augmented=augmented)
    injected = inject_mutants(augmented, variant="hdtlib")
    stimuli = spec.stimulus(spec.mutation_cycles)
    return module, golden, injected, stimuli


class TestDeferredDuplicates:
    """Duplicate mutants -- entries that agree on every spec field the
    dual scheduler and the Counter judge read -- execute in the batched
    sweep like every other mutant."""

    def test_hf2_build_has_duplicates(self):
        _module, _golden, injected, _stimuli = _build_counter_hf2()
        equivalent = plan_pruning(injected, "counter")
        assert len(equivalent) == 9
        # Three mutants per target now span only hf_tick in {1, 2, 2}:
        # the max- and delta-tick entries collide pairwise on
        # (target, hf_tick, register).
        first, duplicate_of = {}, {}
        for i, spec in enumerate(injected.mutants):
            if i not in equivalent:
                key = (spec.target, spec.hf_tick, spec.register)
                if first.setdefault(key, i) != i:
                    duplicate_of[i] = first[key]
        assert duplicate_of == {
            2: 1, 5: 4, 8: 7, 11: 10, 14: 13, 17: 16, 20: 19, 23: 22,
            26: 25,
        }

    @pytest.mark.parametrize("workers,shard_size", [(1, None), (2, 3)])
    def test_duplicate_clones_match_execution(self, workers, shard_size):
        _module, golden, injected, stimuli = _build_counter_hf2()
        off = serial_report(golden, injected, stimuli,
                            ip_name="dsp-hf2", sensor_type="counter")
        on = run_campaign(
            golden, injected, stimuli,
            ip_name="dsp-hf2", sensor_type="counter",
            workers=workers, shard_size=shard_size,
        )
        assert_matches_oracle(on, off)
        assert on.pruned_equivalent == 9
        # Every mutant but the nine equivalents was simulated, the
        # nine duplicates included.
        assert on.executed == 18

    def test_deferred_clones_earn_cache_entries(self):
        _module, golden, injected, stimuli = _build_counter_hf2()
        cache = ResultCache(None)
        cold = run_campaign(
            golden, injected, stimuli,
            ip_name="dsp-hf2", sensor_type="counter", cache=cache,
        )
        # 27 mutants: the 9 equivalents are judged from the golden
        # trace, the other 18 (duplicates included) execute, and each
        # verdict is written back under its own entry.
        assert cold.cache_misses == 27  # probe ran before pruning
        assert cold.executed == 18
        warm = run_campaign(
            golden, injected, stimuli,
            ip_name="dsp-hf2", sensor_type="counter", cache=cache,
        )
        assert warm == cold
        assert warm.cache_hits == 27


class TestSuite:
    def test_benchmark_suite_prune_identical(self):
        with CampaignScheduler(workers=2) as scheduler:
            on = run_benchmark_suite(IPS, SENSORS, scheduler=scheduler)
        assert set(on.reports) == {(ip, s) for ip in IPS for s in SENSORS}
        for key, report in on.reports.items():
            oracle = _oracle(*key)
            assert_matches_oracle(report, oracle)
            expected = (
                oracle.total // 3 if key[1] == "counter" else 0
            )
            assert report.pruned_equivalent == expected

    def test_suite_prune_with_warm_cache(self):
        cache = ResultCache(None)
        with CampaignScheduler(workers=2) as scheduler:
            cold = run_benchmark_suite(
                ["dsp"], SENSORS, scheduler=scheduler, cache=cache,
            )
            warm = run_benchmark_suite(
                ["dsp"], SENSORS, scheduler=scheduler, cache=cache,
            )
        for key, report in cold.reports.items():
            assert warm.reports[key] == report
            assert warm.reports[key].cache_hits == report.total
            # Cold and warm prune accounting is identical (plan-level).
            assert (
                warm.reports[key].pruned_equivalent
                == report.pruned_equivalent
            )


class TestSummaryRow:
    def test_summary_pairs_show_prune_row_when_counted(self):
        from repro.reporting import mutation_summary_pairs

        report = _flow("dsp", "counter").mutation
        pairs = dict(mutation_summary_pairs(report))
        assert pairs["static prune"] == "9 equivalent (not simulated)"

    def test_summary_pairs_silent_without_pruning(self):
        # Every campaign run carries the prune counters now; a report
        # without them -- one decoded from the service wire, which
        # does not carry them -- stays silent.
        from repro.reporting import mutation_summary_pairs
        from repro.service.api import decode_report, encode_report

        report = decode_report(
            encode_report(_flow("dsp", "counter").mutation)
        )
        assert report.pruned_equivalent is None
        assert "static prune" not in dict(mutation_summary_pairs(report))
