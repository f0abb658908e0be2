"""Tests for the content-addressed campaign result cache.

The acceptance contract of :mod:`repro.mutation.cache`:

* a warm re-run of an identical campaign/suite replays every verdict
  (100% hits) and produces a report field-for-field identical to the
  cold (and to a cache-less) run;
* a changed mutant spec, stimulus sequence or model fingerprint
  invalidates exactly the affected entries -- nothing more;
* reordering the mutant table invalidates nothing (entries are keyed
  by spec content, not position);
* RTL validation shares the same store, both inline and on a
  multi-worker scheduler pool.
"""

import dataclasses
import random

import pytest

from repro.flow import run_flow
from repro.ips import case_study
from repro.mutation import (
    CampaignScheduler,
    ResultCache,
    inject_mutants,
    prepare_campaign,
    run_benchmark_suite,
    run_campaign,
    stream_shard_batches,
    validate_at_rtl,
)
from repro.mutation.cache import (
    golden_trace_hash,
    model_fingerprint,
    stimuli_hash,
)
from repro.rtl import Assign, If, Module, const
from repro.sensors import insert_sensors
from repro.sta import analyze, bin_critical_paths
from repro.synth import synthesize

PERIOD = 1000


def build_ip():
    """Small two-register datapath (mirrors tests/test_mutation.py)."""
    m = Module("cache_ip")
    clk = m.input("clk")
    din = m.input("din", 8)
    en = m.input("en")
    acc = m.signal("acc", 8)
    scaled = m.signal("scaled", 8)
    out_acc = m.output("out_acc", 8)
    out_scaled = m.output("out_scaled", 8)
    m.sync("p_acc", clk, [
        If(en.eq(1), [Assign(acc, acc + din)]),
    ])
    m.sync("p_scaled", clk, [Assign(scaled, acc * const(5, 8))])
    m.comb("p_oa", [Assign(out_acc, acc)])
    m.comb("p_os", [Assign(out_scaled, scaled)])
    return m, clk


def augment(sensor_type):
    m, clk = build_ip()
    report = analyze(synthesize(m), clock_period_ps=PERIOD)
    critical = bin_critical_paths(report, threshold_ps=1e9)
    return insert_sensors(m, clk, critical, sensor_type=sensor_type)


def stimulus(n=24, seed=2):
    rng = random.Random(seed)
    return [{"din": rng.randrange(1, 256), "en": 1} for _ in range(n)]


@pytest.fixture(scope="module")
def razor_campaign():
    """(golden model, injected model, stimuli) for a razor campaign."""
    from repro.abstraction import generate_tlm

    aug = augment("razor")
    golden = generate_tlm(aug.module, variant="hdtlib", augmented=aug)
    injected = inject_mutants(aug)
    return golden, injected, stimulus()


def _campaign(golden, injected, stimuli, **kw):
    return run_campaign(
        golden, injected, stimuli,
        ip_name="cache_ip", sensor_type="razor", **kw,
    )


def _with_mutant_table(gen, mutants):
    """A copy of ``gen`` with a rewritten mutant table (both the spec
    list and the generated ``MUTANTS`` source literal)."""
    specs = [(m.kind, m.target, m.hf_tick, m.register) for m in mutants]
    lines = []
    for line in gen.source.splitlines():
        if line.lstrip().startswith("MUTANTS ="):
            indent = line[:len(line) - len(line.lstrip())]
            lines.append(f"{indent}MUTANTS = {specs!r}")
        else:
            lines.append(line)
    return dataclasses.replace(
        gen, source="\n".join(lines), mutants=list(mutants)
    )


class TestKeyComponents:
    def test_model_fingerprint_masks_mutant_table(self, razor_campaign):
        _, injected, _ = razor_campaign
        mutants = list(injected.mutants)
        tweaked = _with_mutant_table(injected, [
            dataclasses.replace(mutants[0], hf_tick=mutants[0].hf_tick + 3),
            *mutants[1:],
        ])
        assert tweaked.source != injected.source
        assert model_fingerprint(tweaked) == model_fingerprint(injected)

    def test_model_fingerprint_sees_structural_change(self, razor_campaign):
        _, injected, _ = razor_campaign
        tweaked = dataclasses.replace(
            injected, source=injected.source + "\n# structural change"
        )
        assert model_fingerprint(tweaked) != model_fingerprint(injected)

    def test_stimuli_hash_canonicalises_key_order(self):
        a = [{"din": 1, "en": 1}, {"din": 2, "en": 0}]
        b = [{"en": 1, "din": 1}, {"en": 0, "din": 2}]
        assert stimuli_hash(a) == stimuli_hash(b)
        assert stimuli_hash(a) != stimuli_hash(list(reversed(a)))

    def test_store_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        assert cache.get("ab" * 32) is None
        cache.put("ab" * 32, {"x": 1})
        assert cache.get("ab" * 32) == {"x": 1}
        cache.put("ab" * 32, {"x": 2})  # overwrite is atomic
        assert cache.get("ab" * 32) == {"x": 2}
        assert len(cache) == 1
        assert (cache.hits, cache.misses) == (2, 1)

    def test_corrupt_entry_is_quarantined_not_fatal(self, tmp_path):
        """PR-7 regression: a truncated/garbled on-disk entry (torn
        write, disk error, fault injection) must read as a miss and be
        quarantined aside -- before the fix ``json.loads`` raised
        ``ValueError`` out of :meth:`ResultCache.get` and killed the
        campaign."""
        cache = ResultCache(tmp_path / "c")
        key = "ab" * 32
        cache.put(key, {"x": 1})
        path = cache._path(key)
        with open(path, "w") as fh:
            fh.write('{"x": 1')  # torn write: truncated JSON
        assert cache.get(key) is None  # a miss, not an exception
        # The bad bytes were moved aside for post-mortem, so a re-read
        # is an honest (cheap) miss rather than a re-parse failure ...
        import os as _os
        assert not _os.path.exists(path)
        assert _os.path.exists(path + ".corrupt")
        assert cache.stats()["corrupt_quarantined"] == 1
        # ... the quarantined file is invisible to housekeeping ...
        assert len(cache) == 0
        assert cache.stats()["entries"] == 0
        # ... and the slot is immediately rewritable.
        cache.put(key, {"x": 2})
        assert cache.get(key) == {"x": 2}


class TestCampaignCache:
    def test_cold_then_warm_replays_everything(self, razor_campaign,
                                               tmp_path):
        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        baseline = _campaign(golden, injected, stimuli)
        assert baseline.cache_hits is None and baseline.cache_misses is None

        cold = _campaign(golden, injected, stimuli, cache=cache)
        assert cold.cache_hits == 0
        assert cold.cache_misses == cold.total == len(injected.mutants)
        # One entry per mutant verdict, plus the memoised golden trace.
        assert len(cache) == cold.total + 1
        assert cold.golden_cache_hit is False

        warm = _campaign(golden, injected, stimuli, cache=cache)
        assert warm.cache_hits == warm.total
        assert warm.cache_misses == 0
        assert warm.golden_cache_hit is True
        # Field-for-field identical across uncached, cold and warm.
        assert baseline == cold == warm
        assert baseline.outcomes == warm.outcomes

    def test_warm_prepare_shards_nothing(self, razor_campaign, tmp_path):
        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        _campaign(golden, injected, stimuli, cache=cache)
        prepared = prepare_campaign(
            golden, injected, stimuli,
            ip_name="cache_ip", sensor_type="razor", cache=cache,
        )
        assert prepared.shards == ()
        assert len(prepared.cached_outcomes) == prepared.total
        # The replayed batch still counts as one (virtual) shard for
        # progress accounting.
        assert prepared.total_shards == 1

    def test_changed_stimuli_invalidates_everything(self, razor_campaign,
                                                    tmp_path):
        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        _campaign(golden, injected, stimuli, cache=cache)
        changed = _campaign(
            golden, injected, stimulus(seed=99), cache=cache
        )
        assert changed.cache_hits == 0
        assert changed.cache_misses == changed.total

    def test_changed_mutant_invalidates_only_itself(self, razor_campaign,
                                                    tmp_path):
        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        _campaign(golden, injected, stimuli, cache=cache)

        mutants = list(injected.mutants)
        mutants[1] = dataclasses.replace(
            mutants[1], hf_tick=mutants[1].hf_tick + 7
        )
        tweaked = _with_mutant_table(injected, mutants)
        report = _campaign(golden, tweaked, stimuli, cache=cache)
        assert report.cache_hits == report.total - 1
        assert report.cache_misses == 1
        executed = [
            o for o in report.outcomes if o.hf_tick == mutants[1].hf_tick
        ]
        assert [o.index for o in executed] == [1]

    def test_reordered_mutant_table_hits_fully(self, razor_campaign, tmp_path):
        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        baseline = _campaign(golden, injected, stimuli, cache=cache)

        mutants = list(injected.mutants)
        mutants[0], mutants[-1] = mutants[-1], mutants[0]
        reordered = _with_mutant_table(injected, mutants)
        report = _campaign(golden, reordered, stimuli, cache=cache)
        assert report.cache_hits == report.total
        # Replayed outcomes are re-indexed to the new table positions.
        assert report.outcomes[0].kind == baseline.outcomes[-1].kind
        assert [o.index for o in report.outcomes] == list(
            range(report.total)
        )

    def test_changed_model_invalidates_everything(self, razor_campaign,
                                                  tmp_path):
        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        _campaign(golden, injected, stimuli, cache=cache)
        tweaked = dataclasses.replace(
            injected, source=injected.source + "\n# structural change"
        )
        report = _campaign(golden, tweaked, stimuli, cache=cache)
        assert report.cache_hits == 0
        assert report.cache_misses == report.total

    def test_warm_stream_replays_cached_first(self, razor_campaign, tmp_path):
        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        cold = _campaign(golden, injected, stimuli, cache=cache).outcomes
        prepared = prepare_campaign(
            golden, injected, stimuli,
            ip_name="cache_ip", sensor_type="razor", cache=cache,
        )
        with CampaignScheduler(workers=1) as scheduler:
            batches = list(stream_shard_batches(
                scheduler, prepared, cache=cache,
            ))
        # Warm stream yields every verdict in one replay batch, in
        # index order, before (and without) any shard submission.
        assert not prepared.shards
        assert [warm for warm, _snapshot in batches] == [cold]
        snapshots = [snapshot for _warm, snapshot in batches]
        assert len(snapshots) == 1
        assert snapshots[0].done == snapshots[0].total == len(cold)
        assert snapshots[0].shards_done == snapshots[0].shards_total == 1


class TestRtlValidationCache:
    def test_cold_then_warm_inline(self, tmp_path):
        aug = augment("razor")
        injected = inject_mutants(aug)
        stim = stimulus(15)
        cache = ResultCache(tmp_path / "rtl")
        baseline = validate_at_rtl(aug, injected.mutants, stimuli=stim)
        cold = validate_at_rtl(
            aug, injected.mutants, stimuli=stim, cache=cache
        )
        warm = validate_at_rtl(
            aug, injected.mutants, stimuli=stim, cache=cache
        )
        assert cold.cache_misses == len(injected.mutants)
        assert warm.cache_hits == len(injected.mutants)
        assert baseline == cold == warm
        assert baseline.risen_pct == 100.0

    def test_cycle_count_is_part_of_the_key(self, tmp_path):
        aug = augment("razor")
        injected = inject_mutants(aug)
        stim = stimulus(15)
        cache = ResultCache(tmp_path / "cache")
        validate_at_rtl(
            aug, injected.mutants, stimuli=stim, cache=cache
        )
        other = validate_at_rtl(
            aug, injected.mutants, stimuli=stim[:10], cache=cache
        )
        assert other.cache_hits == 0


class TestSharedPoolAndSuite:
    def test_flow_with_pool_and_shipped_rtl_shards(self, tmp_path):
        """workers=2 pickles the augmented design into each RTL shard:
        worker processes simulate it and their verdicts land in the
        same cache."""
        spec = case_study("dsp")
        cache = ResultCache(tmp_path / "pool")
        cold = run_flow(
            spec, "razor", mutation_cycles=24, run_rtl_validation=True,
            workers=2, cache=cache,
        )
        warm = run_flow(
            spec, "razor", mutation_cycles=24, run_rtl_validation=True,
            workers=2, cache=cache,
        )
        assert cold.mutation.cache_misses == cold.mutation.total
        assert warm.mutation.cache_hits == warm.mutation.total
        assert warm.rtl_validation.cache_hits == \
            len(cold.rtl_validation.outcomes)
        assert cold.mutation == warm.mutation
        assert cold.rtl_validation == warm.rtl_validation

    def test_suite_warm_rerun_hits_at_least_95_pct(self, tmp_path):
        cache_dir = tmp_path / "suite"
        specs = ["dsp"]

        def run(cache):
            with CampaignScheduler(workers=1) as sched:
                return run_benchmark_suite(
                    specs, ("razor", "counter"), mutation_cycles=16,
                    scheduler=sched, cache=cache, rtl_validation=True,
                )

        reference = run(None)
        cold = run(ResultCache(cache_dir))
        warm = run(ResultCache(cache_dir))
        lookups = warm.cache_hits + warm.cache_misses
        assert lookups > 0
        assert warm.cache_hits / lookups >= 0.95
        for key in reference.reports:
            assert reference.reports[key] == cold.reports[key]
            assert cold.reports[key] == warm.reports[key]
            assert cold.rtl_reports[key] == warm.rtl_reports[key]
        assert reference.cache_hits is None


class TestGoldenTraceCache:
    """PR-5 satellite: the golden trace is itself cached, keyed by
    (golden-model fingerprint, stimuli hash, sensor type, recovery),
    so a warm preparation skips the golden simulation entirely."""

    def test_warm_prepare_skips_golden_simulation(self, razor_campaign,
                                                  monkeypatch, tmp_path):
        from repro.mutation import campaign as campaign_mod

        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        cold = _campaign(golden, injected, stimuli, cache=cache)
        assert cold.golden_cache_hit is False

        simulated = []
        real = campaign_mod.compute_golden_trace

        def spy(*args, **kwargs):
            simulated.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_mod, "compute_golden_trace", spy)
        warm = prepare_campaign(
            golden, injected, stimuli,
            ip_name="cache_ip", sensor_type="razor", cache=cache,
        )
        assert warm.golden_cached is True
        assert simulated == []          # no golden simulation at all
        # ... and the replayed trace indexes the same mutant entries:
        # every verdict hits.
        assert warm.cache_hits == warm.total

    def test_replayed_trace_hashes_identically(self, razor_campaign):
        from repro.mutation.analysis import compute_golden_trace
        from repro.mutation.cache import (
            decode_golden_trace,
            encode_golden_trace,
        )

        golden, _, stimuli = razor_campaign
        trace = compute_golden_trace(
            golden.instantiate(), stimuli,
            sensor_type="razor", recovery=True,
        )
        replayed = decode_golden_trace(encode_golden_trace(trace))
        assert replayed == trace
        assert golden_trace_hash(replayed) == golden_trace_hash(trace)

    def test_recovery_bit_is_part_of_the_golden_key(self, razor_campaign,
                                                    tmp_path):
        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        first = prepare_campaign(
            golden, injected, stimuli,
            ip_name="cache_ip", sensor_type="razor", recovery=True,
            cache=cache,
        )
        other = prepare_campaign(
            golden, injected, stimuli,
            ip_name="cache_ip", sensor_type="razor", recovery=False,
            cache=cache,
        )
        assert first.golden_cached is False
        assert other.golden_cached is False   # different key: no hit

    def test_summary_pairs_surface_the_golden_row(self, razor_campaign,
                                                  tmp_path):
        from repro.reporting import mutation_summary_pairs

        golden, injected, stimuli = razor_campaign
        cache = ResultCache(tmp_path / "cache")
        cold = _campaign(golden, injected, stimuli, cache=cache)
        warm = _campaign(golden, injected, stimuli, cache=cache)
        uncached = _campaign(golden, injected, stimuli)
        assert dict(mutation_summary_pairs(cold))["golden trace"] == \
            "simulated (stored)"
        assert dict(mutation_summary_pairs(warm))["golden trace"] == \
            "replayed from cache"
        assert "golden trace" not in dict(mutation_summary_pairs(uncached))


class TestCacheHousekeeping:
    """PR-5 satellite: `ResultCache.stats()` / `prune()` behind the
    `repro cache` CLI and the service's /healthz."""

    def _seed(self, cache):
        cache.put("aa" * 32, {"ip": "dsp", "x": 1})
        cache.put("bb" * 32, {"ip": "dsp", "x": 2})
        cache.put("cc" * 32, {"ip": "plasma", "x": 3})
        cache.put("dd" * 32, {"x": 4})           # untagged (legacy)

    def test_stats_counts_entries_and_per_ip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        self._seed(cache)
        stats = cache.stats()
        assert stats["root"] == cache.root
        assert stats["entries"] == 4
        assert stats["bytes"] > 0
        assert stats["per_ip"]["dsp"]["entries"] == 2
        assert stats["per_ip"]["plasma"]["entries"] == 1
        assert stats["per_ip"]["(untagged)"]["entries"] == 1
        assert sum(b["bytes"] for b in stats["per_ip"].values()) == \
            stats["bytes"]

    def test_prune_max_bytes_evicts_oldest_first(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "c")
        self._seed(cache)
        # Make the write order unambiguous.
        for offset, key in enumerate(("aa", "bb", "cc", "dd")):
            when = 1_000_000 + offset
            os.utime(cache._path(key * 32), (when, when))
        stats = cache.stats()
        keep = stats["bytes"] - 1    # forces out exactly the oldest
        result = cache.prune(max_bytes=keep)
        assert result["removed_entries"] == 1
        assert cache.get("aa" * 32) is None      # oldest gone
        assert cache.get("dd" * 32) == {"x": 4}  # newest kept
        assert result["kept_bytes"] <= keep

    def test_prune_older_than_removes_by_age(self, tmp_path):
        import os
        import time as _time

        cache = ResultCache(tmp_path / "c")
        self._seed(cache)
        ancient = _time.time() - 10_000
        for key in ("aa", "bb"):
            os.utime(cache._path(key * 32), (ancient, ancient))
        result = cache.prune(older_than_s=5_000)
        assert result["removed_entries"] == 2
        assert result["kept_entries"] == 2
        assert cache.get("cc" * 32) is not None
        assert cache.get("aa" * 32) is None

    def test_pruned_entry_is_a_plain_miss_and_restorable(self,
                                                         tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put("ee" * 32, {"ip": "dsp", "x": 9})
        cache.prune(max_bytes=0)
        assert len(cache) == 0
        assert cache.get("ee" * 32) is None
        cache.put("ee" * 32, {"ip": "dsp", "x": 9})
        assert cache.get("ee" * 32) == {"ip": "dsp", "x": 9}


class TestPruneConcurrency:
    """PR-6 satellite: ``prune`` vs concurrent writers/pruners.  A
    prune scans, then deletes -- anything can happen in between: a
    live campaign re-writes an entry the scan aged out, another prune
    (or process) deletes a file first.  Neither may crash the prune,
    and no entry written at or after the scan start is ever deleted."""

    def _seed(self, cache):
        for key in ("aa", "bb", "cc", "dd"):
            cache.put(key * 32, {"ip": "dsp", "k": key})

    def test_never_deletes_entries_newer_than_scan_start(self, tmp_path):
        import os
        import time as _time

        cache = ResultCache(tmp_path / "c")
        self._seed(cache)
        # Stamp one entry as written *after* the prune's scan start --
        # the deterministic stand-in for a campaign re-writing it in
        # the scan-to-delete window.
        fresh = "bb" * 32
        future = _time.time() + 3_600
        os.utime(cache._path(fresh), (future, future))
        result = cache.prune(max_bytes=0)   # wants everything gone
        assert result["removed_entries"] == 3
        assert result["kept_entries"] == 1
        assert cache.get(fresh) == {"ip": "dsp", "k": "bb"}

    def test_tolerates_entries_vanishing_mid_scan(self, tmp_path):
        import os

        cache = ResultCache(tmp_path / "c")
        self._seed(cache)
        # Freeze the scan, then yank one entry behind its back (a
        # concurrent pruner in another process got there first).
        scanned = list(cache._entries())
        os.unlink(scanned[0][0])
        cache._entries = lambda: iter(scanned)   # stale scan data
        result = cache.prune(max_bytes=0)
        # No crash; the vanished entry is simply not double-counted.
        assert result["removed_entries"] == 3
        assert cache.get("dd" * 32) is None

    def test_two_concurrent_pruners_remove_each_entry_once(self,
                                                           tmp_path):
        import threading

        cache_a = ResultCache(tmp_path / "c")
        cache_b = ResultCache(tmp_path / "c")    # same store
        for i in range(40):
            cache_a.put(f"{i:064x}", {"ip": "dsp", "i": i})
        results = {}
        errors = []
        barrier = threading.Barrier(2)

        def pruner(name, cache):
            try:
                barrier.wait(timeout=10)
                results[name] = cache.prune(max_bytes=0)
            except BaseException as exc:      # surfaced below
                errors.append((name, exc))

        threads = [
            threading.Thread(target=pruner, args=(name, cache))
            for name, cache in (("a", cache_a), ("b", cache_b))
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not errors, errors
        removed = sum(r["removed_entries"] for r in results.values())
        assert removed == 40                  # each entry exactly once
        assert len(cache_a) == 0

    def test_prune_hammer_against_live_writer(self, tmp_path):
        import threading

        cache = ResultCache(tmp_path / "c")
        stop = threading.Event()
        errors = []

        def writer():
            try:
                i = 0
                while not stop.is_set():
                    cache.put(f"{i % 64:064x}", {"ip": "dsp", "i": i})
                    i += 1
            except BaseException as exc:      # surfaced below
                errors.append(exc)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(25):
                cache.prune(max_bytes=0, older_than_s=0.0)
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not errors, errors
        # The store is fully functional afterwards.
        cache.put("ff" * 32, {"ip": "dsp", "x": 1})
        assert cache.get("ff" * 32) == {"ip": "dsp", "x": 1}
