"""perfbench: the repository's layer-attributed benchmark.

    python3 perfbench/run.py --workload methodology_rtl --seed 0 \\
        --seconds 20 --trace 0
    python3 perfbench/run.py          # every workload, one after another

One run sets the workload up three times in fresh interpreters (the
median is ``setup_s``), sets it up once more in this process, then
repeats the workload's unit until ``--seconds`` have passed.  It checks
every output, prints each metric with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics of untouched units; ``--trace 1``
cycles plain, probed and ``repro.obs``-traced units and reports the
per-layer metrics, writing the probed spans as Chrome trace JSON under
``.perfbench/``.  The exit code is non-zero when any operation failed.
See ``perfbench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import bootstrap

bootstrap.use_checkout_source()

import workloads  # noqa: E402
from probes import (  # noqa: E402
    FRONTEND_PATCHES,
    Recorder,
    patched,
    self_times,
)

#: Fresh-interpreter set-ups per run; their median is ``setup_s``.
SETUP_SAMPLES = 3

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "verdicts_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

#: Layers whose metrics are the time spent in spans of that name.
TIMED_LAYERS = (
    "rtl_validation.prepare",
    "campaign.prepare",
    "campaign.golden",
    "flow.augment",
    "abstraction.generate_tlm",
    "mutation.inject",
    "lint.module",
    "service.submit",
    "service.watch",
)


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def peak_rss_mb(who) -> float:
    """Peak RSS of this process (``RUSAGE_SELF``) or of its largest
    waited-for child (``RUSAGE_CHILDREN``)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds() -> float:
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def time_setup(workload, seed: int) -> "tuple[float | None, float | None]":
    """Interpreter start plus the workload's set-up, in a fresh child:
    from spawn until the child reports it is set up."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(workloads.HERE, "child.py"),
         "setup", json.dumps({"workload": workload.name, "seed": seed})],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=workloads.CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, None
    if proc.returncode != 0 or not ready.strip():
        return None, None
    return elapsed, json.loads(ready)["import_s"]


def measure(args) -> dict:
    """Set up, run units until the time is up, tear down."""
    workload = workloads.WORKLOADS[args.workload]
    recorder = Recorder()
    cpu_start = cpu_seconds()
    setups, imports, setup_failures = [], [], 0
    for _ in range(SETUP_SAMPLES):
        elapsed, import_s = time_setup(workload, args.seed)
        if elapsed is None:
            setup_failures += 1
        else:
            setups.append(elapsed)
            imports.append(import_s)

    traced = bool(args.trace)
    modes = ("plain", "bench", "obs") if traced else ("plain",)
    units: "list[tuple[str, workloads.Unit]]" = []
    rss = None
    direct_p50 = None
    with tempfile.TemporaryDirectory(dir=bootstrap.scratch_dir()) as tmp:
        ctx = workloads.Context(seed=args.seed, recorder=recorder, tmp=tmp,
                                traced=traced, inject=args.inject)
        try:
            with contextlib.ExitStack() as stack:
                if traced:
                    stack.enter_context(recorder.active("setup"))
                    stack.enter_context(patched(recorder, FRONTEND_PATCHES))
                workload.setup(ctx)
            deadline = time.perf_counter() + args.seconds
            while True:
                mode = modes[len(units) % len(modes)]
                units.append((mode, workload.unit(ctx, mode)))
                if len(units) == workload.min_units:
                    # Read after a fixed amount of work: a program that
                    # runs more units in the time must not look bigger.
                    rss = peak_rss_mb(resource.RUSAGE_SELF)
                if (len(units) >= max(workload.min_units, len(modes))
                        and time.perf_counter() >= deadline):
                    break
            if traced and isinstance(workload, workloads.ServiceWarm):
                direct_p50 = workload.direct_p50_s(ctx)
        finally:
            workload.teardown(ctx)
    rss = max(rss, peak_rss_mb(resource.RUSAGE_CHILDREN))
    imports += [u.import_s for _, u in units if u.import_s is not None]
    return {
        "workload": workload,
        "units": units,
        "setups": setups,
        "imports": imports,
        "setup_failures": setup_failures,
        "rss": rss,
        "cpu_s": cpu_seconds() - cpu_start,
        "recorder": recorder,
        "direct_p50": direct_p50,
    }


def end_to_end(run) -> dict:
    plain = [u for mode, u in run["units"] if mode == "plain"]
    jobs = [latency for u in plain for latency in u.jobs]
    return {
        "setup_s": statistics.median(run["setups"] or [math.nan]),
        "wall_s": statistics.median(u.wall_s for u in plain),
        "verdicts_per_s": statistics.median(u.verdicts / u.wall_s
                                            for u in plain),
        "job_p50_ms": 1e3 * statistics.median(jobs or [math.nan]),
        "job_p90_ms": 1e3 * p90(jobs or [math.nan]),
        "peak_rss_mb": run["rss"],
    }


def per_layer(run) -> dict:
    units = run["units"]
    recorder = run["recorder"]
    bench = [u for mode, u in units if mode == "bench"]
    n = max(1, len(bench))
    spans = recorder.spans

    def per_unit(name: str, value=lambda s: s["end"] - s["start"]) -> float:
        """Set-up spans count once, unit spans per probed unit."""
        total = {"setup": 0.0, "op": 0.0}
        for s in spans:
            if s["name"] == name:
                total[s["phase"]] += value(s)
        return total["setup"] + total["op"] / n

    def wall(mode: str) -> float:
        return statistics.median(u.wall_s for m, u in units if m == mode)

    metrics = {}
    for layer in ("rtl_validation", "campaign"):
        execute = per_unit(f"{layer}.execute")
        cycles = per_unit(f"{layer}.execute", lambda s: s["args"]["cycles"])
        metrics[f"{layer}.execute.s"] = execute
        metrics[f"{layer}.execute.mutants"] = per_unit(
            f"{layer}.execute", lambda s: s["args"]["mutants"]
        )
        metrics[f"{layer}.execute.cycles"] = cycles
        metrics[f"{layer}.execute.us_per_cycle"] = (
            1e6 * execute / cycles if cycles else 0.0
        )
    for layer in TIMED_LAYERS:
        metrics[f"{layer}.s"] = per_unit(layer)

    shards = [s for s in spans if s["name"].endswith(".execute")]
    busy = sum(s["end"] - s["start"] for s in shards)
    metrics["scheduler.shards"] = len(shards) / n
    metrics["scheduler.wait.s"] = sum(s["args"]["waited"]
                                      for s in shards) / n
    metrics["scheduler.busy_frac"] = busy / (
        run["workload"].workers * sum(u.wall_s for u in bench) or 1.0
    )

    gets = [s for s in spans if s["name"] == "cache.get"]
    unit_gets = [s for s in gets if s["phase"] == "op"] or gets
    metrics["cache.get.calls"] = per_unit("cache.get", lambda s: 1)
    metrics["cache.get.s"] = per_unit("cache.get")
    metrics["cache.hit_ratio"] = (
        sum(s["args"]["hit"] for s in unit_gets) / len(unit_gets)
        if unit_gets else 0.0
    )
    metrics["cache.put.calls"] = per_unit("cache.put", lambda s: 1)
    metrics["cache.put.s"] = per_unit("cache.put")

    plain_jobs = [x for m, u in units if m == "plain" for x in u.jobs]
    metrics["service.overhead_ms"] = (
        1e3 * (statistics.median(plain_jobs) - run["direct_p50"])
        if run["direct_p50"] is not None else 0.0
    )
    metrics["import.s"] = statistics.median(run["imports"] or [0.0])
    for ip in workloads.IPS:
        for sensor in workloads.SENSORS:
            name = workloads.cell_name(ip, sensor)
            values = [u.cells[name] for m, u in units
                      if m == "plain" and name in u.cells]
            metrics[f"cell.{name}.s"] = (statistics.median(values)
                                         if values else 0.0)
    metrics["obs.overhead_frac"] = wall("obs") / wall("plain") - 1.0
    metrics["bench.overhead_frac"] = wall("bench") / wall("plain") - 1.0
    metrics["unattributed.s"] = sum(
        own for span, own in self_times(spans)
        if span["name"] == "op" and span["phase"] == "op"
    ) / n
    metrics["xlevel.disagreements"] = max(u.disagreements for _, u in units)
    metrics["host.cpu_s"] = run["cpu_s"]
    return metrics


PER_LAYER_UNITS = {
    ".s": "s", ".mutants": "count", ".cycles": "count",
    ".us_per_cycle": "us", ".shards": "count", ".calls": "count",
    "_frac": "fraction", ".hit_ratio": "fraction", "_ms": "ms",
    ".disagreements": "count", "cpu_s": "s",
}


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    raise KeyError(name)


def print_self_time_table(run) -> None:
    """Self time per layer over the probed units: on the threads that
    drive the workload (their ``op`` spans' self time is the
    unattributed remainder) and on parallel tracks (pool workers,
    service job threads)."""
    spans = [s for s in run["recorder"].spans if s["phase"] == "op"]
    n = max(1, sum(1 for m, _ in run["units"] if m == "bench"))
    driving = {(s["pid"], s["tid"]) for s in spans if s["name"] == "op"}
    rows: "dict[str, list[float]]" = {}
    for span, own in self_times(spans):
        row = rows.setdefault(span["name"], [0, 0.0, 0.0])
        row[0] += 1
        row[1 if (span["pid"], span["tid"]) in driving else 2] += own
    traced_wall = sum(s["end"] - s["start"] for s in spans
                      if s["name"] == "op") / n
    print(f"self time per probed unit ({n} unit(s); driving-thread time "
          f"{traced_wall:.4f} s)")
    print(f"  {'layer':<28}{'calls':>8}{'driving s':>12}{'parallel s':>12}")
    accounted = 0.0
    for name, (calls, own, parallel) in sorted(
        rows.items(), key=lambda kv: -(kv[1][1] + kv[1][2])
    ):
        label = "unattributed" if name == "op" else name
        accounted += own / n
        print(f"  {label:<28}{calls / n:>8.1f}{own / n:>12.4f}"
              f"{parallel / n:>12.4f}")
    print(f"  {'sum of driving self times':<36}{accounted:>12.4f}")


def write_trace(run, args) -> str:
    from repro.obs import validate_chrome_trace

    trace = run["recorder"].chrome_trace()
    problems = validate_chrome_trace(trace)
    if problems:
        print(f"trace problems: {problems[:3]}", file=sys.stderr)
    path = os.path.join(bootstrap.scratch_dir(),
                        f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as handle:
        json.dump(trace, handle)
    return path


def run_one(args) -> int:
    run = measure(args)
    units = run["units"]
    attempted = sum(u.attempted for _, u in units) + SETUP_SAMPLES
    failed = sum(u.failed for _, u in units) + run["setup_failures"]
    if args.trace:
        metrics = per_layer(run)
        units_of = {name: layer_unit(name) for name in metrics}
    else:
        metrics = end_to_end(run)
        units_of = END_TO_END_UNITS
    modes = ", ".join(sorted({m for m, _ in units}))
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}: "
          f"{len(units)} unit(s) ({modes})")
    for note in dict.fromkeys(n for _, u in units for n in u.notes):
        print(f"  note: {note}")
    for name, value in metrics.items():
        print(f"  {name:<34}{value:>14.4f} {units_of[name]}")
    print(f"  {'failed_frac':<34}{failed / attempted:>14.4f} fraction "
          f"({failed}/{attempted} operations)")
    plain = sorted(u.wall_s for m, u in units if m == "plain")
    print(f"  plain units: {len(plain)}, wall_s min {plain[0]:.4f} "
          f"max {plain[-1]:.4f}; job samples: "
          f"{sum(len(u.jobs) for m, u in units if m == 'plain')}")
    if args.trace:
        print_self_time_table(run)
        print(f"  trace: {write_trace(run, args)}")
    # A value that could not be measured (every set-up failed, a child
    # timed out) is left out rather than written as a number that reads
    # like a valid -- even the best -- result.
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units_of[name]}
            for name, value in metrics.items() if math.isfinite(value)
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload, each in its own process."""
    status = 0
    for name in workloads.WORKLOADS:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        status |= subprocess.run(command).returncode
    return 1 if status else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS),
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject",
                        choices=("flip-rtl-verdict", "corrupt-cache-entry"),
                        help="plant a wrong result (self-test only)")
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
