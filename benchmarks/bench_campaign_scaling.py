"""Campaign scaling benchmark: serial vs sharded-parallel throughput.

Records mutants/second for each case-study IP under two executions
of the same mutation campaign:

* ``engine x1``   -- the sharded campaign engine with one worker
  (golden trace memoised once per campaign, generated class compiled
  once per shard);
* ``engine xN``   -- the engine with N worker processes
  (``--workers``, default 4).

Then measures the whole cross-IP *suite* (every benchmarked IP x both
sensor types) two ways with the same worker count:

* ``per-campaign pools`` -- the pre-scheduler lifecycle: each
  campaign spins up, uses, and tears down its own
  ``ProcessPoolExecutor`` in sequence;
* ``shared pool``       -- ``run_benchmark_suite`` on one persistent
  :class:`repro.mutation.CampaignScheduler`: the pool is created
  once, each campaign's shards enter the shared queue as soon as that
  campaign is prepared (prep overlaps execution), and small campaigns
  backfill slots the big ones leave idle.

Finally measures the **content-addressed result cache**
(:mod:`repro.mutation.cache`) on the same suite: a cold run against an
empty cache directory (every verdict executed and stored) followed by
a warm re-run of the identical suite (every verdict replayed), with
the hit rate and the cold/warm speedup recorded -- the incremental
re-verification claim, quantified.

The engine's outcome list is checked for byte-identity between the
serial, parallel, shared-pool, cold-cache and warm-cache runs (the
determinism guarantee).  ``--out FILE`` writes the measurements as
JSON (``BENCH_campaign.json`` in CI).

Usage::

    python benchmarks/bench_campaign_scaling.py [--quick] [--workers N]
        [--sensor razor|counter] [--ips plasma,dsp,filter] [--cycles C]
        [--out BENCH_campaign.json]

``--quick`` restricts the per-IP section to a short Plasma campaign
and the suite section to short testbenches (the CI smoke
configuration).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.flow import run_flow                              # noqa: E402
from repro.ips import CASE_STUDIES, case_study               # noqa: E402
from repro.mutation import (                                 # noqa: E402
    CampaignScheduler,
    ResultCache,
    run_benchmark_suite,
)
from repro.mutation.campaign import run_campaign             # noqa: E402
from repro.reporting import format_table                     # noqa: E402


def bench_ip(name, sensor, workers, cycles):
    spec = case_study(name)
    flow = run_flow(spec, sensor, run_mutation=False)
    stimuli = spec.stimulus(cycles or spec.mutation_cycles)
    total = len(flow.injected.mutants)

    serial = run_campaign(
        flow.golden_factory(), flow.injected, stimuli,
        ip_name=name, sensor_type=sensor, workers=1,
    )
    parallel = run_campaign(
        flow.golden_factory(), flow.injected, stimuli,
        ip_name=name, sensor_type=sensor, workers=workers,
    )
    return {
        "ip": spec.title,
        "mutants": total,
        "cycles": len(stimuli),
        "serial_s": serial.seconds,
        "serial_mps": serial.mutants_per_second,
        "parallel_s": parallel.seconds,
        "parallel_mps": parallel.mutants_per_second,
        "deterministic": serial.outcomes == parallel.outcomes,
    }


def bench_suite(ips, workers, cycles, sensors=("razor", "counter")):
    """Suite-level measurement: per-campaign pools vs one shared pool.

    Flow setup (characterise/insert/abstract/inject) is built once and
    reused by both strategies, so the comparison isolates the campaign
    scheduling: N sequential ``run_campaign`` calls that each own a
    fresh ``ProcessPoolExecutor`` against one ``run_benchmark_suite``
    on a persistent ``CampaignScheduler``.
    """
    specs = {name: case_study(name) for name in ips}
    flows = {
        (name, sensor): run_flow(specs[name], sensor, run_mutation=False)
        for name in ips
        for sensor in sensors
    }

    # Baseline: today's lifecycle -- one pool per campaign, campaigns
    # strictly in sequence.
    started = time.perf_counter()
    baseline = {}
    for (name, sensor), flow in flows.items():
        spec = specs[name]
        stimuli = spec.stimulus(cycles or spec.mutation_cycles)
        baseline[(name, sensor)] = run_campaign(
            flow.golden_factory(), flow.injected, stimuli,
            ip_name=name, sensor_type=sensor, workers=workers,
        )
    per_campaign_s = time.perf_counter() - started

    # Shared pool: one scheduler for the whole suite, shards
    # interleaved across campaigns.
    started = time.perf_counter()
    with CampaignScheduler(workers=workers) as scheduler:
        suite = run_benchmark_suite(
            list(specs.values()), sensors,
            workers=workers, mutation_cycles=cycles,
            scheduler=scheduler, flows=flows,
        )
    shared_s = time.perf_counter() - started

    deterministic = all(
        suite.reports[key].outcomes == baseline[key].outcomes
        for key in baseline
    )
    total = sum(r.total for r in baseline.values())
    return {
        "campaigns": len(baseline),
        "mutants": total,
        "workers": workers,
        "per_campaign_pools_s": per_campaign_s,
        "per_campaign_pools_mps": total / per_campaign_s
        if per_campaign_s else 0.0,
        "shared_pool_s": shared_s,
        "shared_pool_mps": total / shared_s if shared_s else 0.0,
        "speedup": per_campaign_s / shared_s if shared_s else 0.0,
        "deterministic": deterministic,
    }


def bench_cache(ips, workers, cycles, sensors=("razor", "counter")):
    """Cold-vs-warm result-cache measurement on the cross-IP suite.

    Flow setup is built once and shared by both runs (and by a
    cache-less reference run), so the comparison isolates campaign
    execution against replay: the *cold* run executes every mutant and
    stores its verdict in a fresh cache directory; the *warm* run
    re-prepares the identical suite and replays every verdict.  The
    warm hit rate must be 100% and all three suites' reports must be
    field-for-field identical.
    """
    specs = {name: case_study(name) for name in ips}
    flows = {
        (name, sensor): run_flow(specs[name], sensor, run_mutation=False)
        for name in ips
        for sensor in sensors
    }

    def run(cache):
        started = time.perf_counter()
        with CampaignScheduler(workers=workers) as scheduler:
            suite = run_benchmark_suite(
                list(specs.values()), sensors,
                workers=workers, mutation_cycles=cycles,
                scheduler=scheduler, flows=flows, cache=cache,
            )
        return time.perf_counter() - started, suite

    reference_s, reference = run(None)
    with tempfile.TemporaryDirectory(prefix="repro-cache-") as tmp:
        cold_s, cold = run(ResultCache(tmp))
        warm_s, warm = run(ResultCache(tmp))

    deterministic = all(
        reference.reports[key] == cold.reports[key] == warm.reports[key]
        for key in reference.reports
    )
    lookups = (warm.cache_hits or 0) + (warm.cache_misses or 0)
    return {
        "campaigns": len(reference.reports),
        "mutants": reference.total_mutants,
        "workers": workers,
        "uncached_s": reference_s,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_hits": cold.cache_hits,
        "cold_misses": cold.cache_misses,
        "warm_hits": warm.cache_hits,
        "warm_misses": warm.cache_misses,
        "warm_hit_rate": (warm.cache_hits or 0) / lookups if lookups
        else 0.0,
        "speedup": cold_s / warm_s if warm_s else 0.0,
        "deterministic": deterministic,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke: short Plasma per-IP campaign + "
                             "short-testbench suite")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--sensor", choices=["razor", "counter"],
                        default="razor")
    parser.add_argument("--ips", default=None,
                        help="comma-separated IP subset (default: all)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="testbench cycles (default: per-IP value)")
    parser.add_argument("--out", default=None,
                        help="write measurements to this JSON file "
                             "(e.g. BENCH_campaign.json)")
    args = parser.parse_args(argv)

    if args.quick:
        ips = ["plasma"]
        cycles = args.cycles or 32
        suite_ips = list(CASE_STUDIES)
        suite_cycles = args.cycles or 32
    else:
        ips = (args.ips.split(",") if args.ips else list(CASE_STUDIES))
        cycles = args.cycles
        suite_ips = ips
        suite_cycles = cycles

    rows = []
    per_ip = []
    for name in ips:
        r = bench_ip(name, args.sensor, args.workers, cycles)
        per_ip.append(r)
        rows.append([
            r["ip"], r["mutants"], r["cycles"],
            f"{r['serial_mps']:.1f}",
            f"{r['parallel_mps']:.1f}",
            "yes" if r["deterministic"] else "NO",
        ])
    print(format_table(
        ["Digital IP", "Mutants", "Cycles",
         "engine x1 (m/s)", f"engine x{args.workers} (m/s)",
         "deterministic"],
        rows,
        title=(
            f"Campaign scaling ({args.sensor} sensors): mutants/sec, "
            "sharded engine on 1 vs N workers"
        ),
    ))

    suite = bench_suite(suite_ips, args.workers, suite_cycles)
    print()
    print(format_table(
        ["Campaigns", "Mutants",
         "per-campaign pools (s)", "shared pool (s)",
         "suite speedup", "deterministic"],
        [[
            suite["campaigns"], suite["mutants"],
            f"{suite['per_campaign_pools_s']:.2f}",
            f"{suite['shared_pool_s']:.2f}",
            f"{suite['speedup']:.2f}x",
            "yes" if suite["deterministic"] else "NO",
        ]],
        title=(
            f"Cross-IP suite ({len(suite_ips)} IPs x razor+counter, "
            f"workers={args.workers}): one pool per campaign vs one "
            "shared scheduler pool"
        ),
    ))

    cached = bench_cache(suite_ips, args.workers, suite_cycles)
    print()
    print(format_table(
        ["Campaigns", "Mutants",
         "uncached (s)", "cold cache (s)", "warm cache (s)",
         "warm hits", "hit rate", "cold/warm speedup", "deterministic"],
        [[
            cached["campaigns"], cached["mutants"],
            f"{cached['uncached_s']:.2f}",
            f"{cached['cold_s']:.2f}",
            f"{cached['warm_s']:.2f}",
            f"{cached['warm_hits']}/{cached['warm_hits'] + cached['warm_misses']}",
            f"{100.0 * cached['warm_hit_rate']:.1f}%",
            f"{cached['speedup']:.2f}x",
            "yes" if cached["deterministic"] else "NO",
        ]],
        title=(
            "Content-addressed result cache: identical suite re-run "
            "replays verdicts instead of executing mutants"
        ),
    ))

    if args.out:
        payload = {
            "quick": args.quick,
            "workers": args.workers,
            "sensor": args.sensor,
            "per_ip": per_ip,
            "suite": suite,
            "cache": cached,
        }
        with open(args.out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.out}")

    per_ip_ok = all(r["deterministic"] for r in per_ip)
    suite_ok = suite["deterministic"]
    cache_ok = cached["deterministic"] and cached["warm_hit_rate"] >= 0.95
    if not per_ip_ok:
        print("ERROR: parallel report diverged from serial report",
              file=sys.stderr)
    if not suite_ok:
        print("ERROR: shared-pool suite report diverged from the "
              "per-campaign-pool reports", file=sys.stderr)
    if not cache_ok:
        print("ERROR: warm-cache suite run diverged from the uncached "
              "run or missed the >=95% hit-rate bar", file=sys.stderr)
    return 0 if per_ip_ok and suite_ok and cache_ok else 1


if __name__ == "__main__":
    sys.exit(main())
