"""Chaos suite: deterministic fault injection + the soak property.

Two halves:

* unit coverage of :mod:`repro.faults` -- the spec grammar, the
  seeded ``(seed, site, hit)`` decision function, ambient activation;
* the **chaos soak property** (PR 7's standing invariant): under any
  seeded fault schedule, a campaign either completes with a report
  field-identical to the fault-free baseline (the recovery layers
  healed every injected fault) or fails *loudly* with a structured
  diagnostic naming the injected fault -- never a silent truncation.

The soak tests here run in-process (``allow_exit=False`` plans);
``benchmarks/chaos_soak.py`` drives the same property against a real
``repro serve`` daemon -- crash, restart and warm resume included --
for the CI ``chaos`` job.
"""

import threading

import pytest

from repro import faults
from repro.faults import (
    FaultPlan,
    FaultRule,
    KNOWN_SITES,
    active_plan,
    fault_point,
)
from repro.flow import run_flow
from repro.ips import case_study
from repro.mutation import ResultCache, run_campaign
from repro.service import CampaignService, ServiceClient, ServiceServer

REDUCED_CYCLES = 24


@pytest.fixture(scope="module")
def dsp_flow():
    return run_flow(case_study("dsp"), "razor", run_mutation=False)


@pytest.fixture(scope="module")
def dsp_baseline(dsp_flow):
    """The fault-free reference report every soak must reproduce."""
    stim = case_study("dsp").stimulus(REDUCED_CYCLES)
    return run_campaign(
        dsp_flow.tlm_optimized, dsp_flow.injected, stim,
        ip_name="dsp", sensor_type="razor", workers=1,
    )


def _campaign_with(plan, flow, *, workers=2, shard_size=1, cache=None):
    """One dsp/razor campaign under *plan* (installed ambiently)."""
    stim = case_study("dsp").stimulus(REDUCED_CYCLES)
    with active_plan(plan):
        return run_campaign(
            flow.tlm_optimized, flow.injected, stim,
            ip_name="dsp", sensor_type="razor",
            workers=workers, shard_size=shard_size, cache=cache,
        )


# ----------------------------------------------------------------------
# The fault plan itself
# ----------------------------------------------------------------------

class TestFaultRuleGrammar:
    def test_parse_forms(self):
        assert FaultRule.parse("always").always
        assert FaultRule.parse("*").always
        assert FaultRule.parse("p0.25").rate == 0.25
        assert FaultRule.parse("2").hits == frozenset({2})
        assert FaultRule.parse("1+3").hits == frozenset({1, 3})
        assert FaultRule.parse("2-4").hits == frozenset({2, 3, 4})
        capped = FaultRule.parse("p0.5x3")
        assert capped.rate == 0.5 and capped.max_fires == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            FaultRule.parse("p1.5")  # rate out of [0, 1]
        with pytest.raises(ValueError):
            FaultRule.parse("0")  # hits are 1-based
        with pytest.raises(ValueError):
            FaultRule.parse("banana")

    def test_describe_parse_round_trip(self):
        for text in ("always", "p0.25", "2", "1+3", "2-4x1"):
            rule = FaultRule.parse(text)
            assert FaultRule.parse(rule.describe()) == rule

    def test_plan_spec_round_trip(self):
        spec = ("seed=7;cache.corrupt_entry=p0.5;"
                "pool.break_worker=1;hang=0.25")
        plan = FaultPlan.from_spec(spec)
        assert plan.seed == 7
        assert plan.hang_seconds == 0.25
        again = FaultPlan.from_spec(plan.describe())
        assert again.describe() == plan.describe()

    def test_spec_rejects_missing_equals(self):
        with pytest.raises(ValueError, match="needs '='"):
            FaultPlan.from_spec("seed=1;bogus")


class TestFaultPlanDecisions:
    def test_same_seed_same_schedule(self):
        a = FaultPlan(7, {"s": FaultRule.parse("p0.5")})
        b = FaultPlan(7, {"s": FaultRule.parse("p0.5")})
        fires_a = [a.should_fire("s") for _ in range(64)]
        fires_b = [b.should_fire("s") for _ in range(64)]
        assert fires_a == fires_b
        assert any(fires_a) and not all(fires_a)

    def test_different_seed_different_schedule(self):
        a = FaultPlan(1, {"s": FaultRule.parse("p0.5")})
        b = FaultPlan(2, {"s": FaultRule.parse("p0.5")})
        assert [a.should_fire("s") for _ in range(64)] != \
            [b.should_fire("s") for _ in range(64)]

    def test_explicit_hits_fire_exactly_there(self):
        plan = FaultPlan(0, {"s": FaultRule.parse("2+4")})
        assert [plan.should_fire("s") for _ in range(5)] == \
            [False, True, False, True, False]

    def test_max_fires_caps_a_rate_rule(self):
        plan = FaultPlan(3, {"s": FaultRule.parse("alwaysx2")})
        fires = [plan.should_fire("s") for _ in range(10)]
        assert fires == [True, True] + [False] * 8

    def test_unruled_site_counts_hits_but_never_fires(self):
        plan = FaultPlan(0, {"other": FaultRule.parse("always")})
        assert not plan.should_fire("s")
        assert plan.stats()["sites"]["s"] == \
            {"rule": None, "hits": 1, "fires": 0}

    def test_error_carries_structured_diagnostic(self):
        plan = FaultPlan(9, {"s": FaultRule.parse("always")})
        assert plan.should_fire("s")
        err = plan.error("s", "boom")
        assert err.diagnostic == \
            {"fault": "s", "seed": 9, "hit": 1, "detail": "boom"}
        assert "injected fault 's'" in str(err)

    def test_known_sites_is_the_documented_set(self):
        assert set(KNOWN_SITES) == {
            "pool.break_worker", "cache.corrupt_entry",
            "server.crash.mid_job", "job.hold",
        }


class TestJobHold:
    """``job.hold`` parks a thread until release, cancel or timeout."""

    @staticmethod
    def _park(plan, cancelled):
        thread = threading.Thread(
            target=plan.hold, args=("job.hold", cancelled)
        )
        thread.start()
        return thread

    def test_release_opens_the_site_for_good(self):
        plan = FaultPlan.from_spec("job.hold=always;hang=60")
        thread = self._park(plan, threading.Event())
        plan.release("job.hold")
        thread.join(timeout=30)
        assert not thread.is_alive()
        # Released sites no longer park.
        assert plan.should_fire("job.hold")
        plan.hold("job.hold", threading.Event())

    def test_cancel_plus_wake_unparks(self):
        plan = FaultPlan.from_spec("job.hold=always;hang=60")
        cancelled = threading.Event()
        thread = self._park(plan, cancelled)
        cancelled.set()
        plan.wake()
        thread.join(timeout=30)
        assert not thread.is_alive()

    def test_park_is_bounded_by_hang_seconds(self):
        plan = FaultPlan.from_spec("job.hold=always;hang=0.01")
        plan.hold("job.hold", threading.Event())


class TestAmbientActivation:
    def test_fault_point_is_none_without_a_plan(self):
        with active_plan(None):
            assert fault_point("pool.break_worker") is None

    def test_active_plan_scopes_and_restores(self):
        plan = FaultPlan(0, {"s": FaultRule.parse("always")})
        with active_plan(plan) as installed:
            assert installed is plan
            assert fault_point("s") is plan
        assert faults.get_fault_plan() is not plan

    def test_env_var_installs_a_plan_lazily(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT_PLAN",
                           "seed=5;job.hold=1;hang=0.1")
        previous = faults.set_fault_plan(None)
        faults._env_checked = False  # simulate a fresh process
        try:
            plan = faults.get_fault_plan()
            assert plan is not None
            assert plan.seed == 5
            assert plan.allow_exit  # daemon plans may os._exit
            assert plan.hang_seconds == 0.1
        finally:
            faults.set_fault_plan(previous)


# ----------------------------------------------------------------------
# The soak property
# ----------------------------------------------------------------------

class TestChaosSoak:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_pool_breaks_heal_to_identical_report(
            self, dsp_flow, dsp_baseline, seed):
        plan = FaultPlan.from_spec(
            f"seed={seed};pool.break_worker=p0.3x2"
        )
        report = _campaign_with(plan, dsp_flow)
        assert report == dsp_baseline
        assert report.outcomes == dsp_baseline.outcomes

    def test_corrupted_cache_entries_heal_to_identical_report(
            self, dsp_flow, dsp_baseline, tmp_path):
        cache = ResultCache(tmp_path / "c")
        plan = FaultPlan.from_spec("seed=11;cache.corrupt_entry=p0.5")
        cold = _campaign_with(plan, dsp_flow, workers=1, cache=cache)
        assert cold == dsp_baseline
        assert plan.stats()["sites"]["cache.corrupt_entry"]["fires"] > 0
        # The warm re-run survives the poisoned store: corrupt entries
        # quarantine to misses and re-execute; good ones replay.
        warm = _campaign_with(None, dsp_flow, workers=1, cache=cache)
        assert warm == dsp_baseline
        assert warm.outcomes == dsp_baseline.outcomes
        assert cache.stats()["corrupt_quarantined"] > 0

    def test_server_crash_in_process_fails_loudly(self, dsp_flow):
        """The OR branch of the property: an unhealable injected fault
        (the job runner itself dies) must fail the job loudly, naming
        the fault -- never truncate the report."""
        plan = FaultPlan.from_spec("seed=1;server.crash.mid_job=1")
        service = CampaignService(
            flows={("dsp", "razor"): dsp_flow}
        )
        with ServiceServer(service) as server:
            host, port = server.address
            client = ServiceClient(host, port, timeout=60.0)
            with active_plan(plan):
                record = client.submit({
                    "ip": "dsp", "sensor": "razor",
                    "cycles": REDUCED_CYCLES,
                })
                end = client.watch(record["id"])
            assert end["status"] == "failed"
            error = client.job(record["id"])["error"]
            assert "injected fault 'server.crash.mid_job'" in error
