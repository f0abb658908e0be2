"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the registered case studies and their operating points.
``flow <ip> <sensor> [--cache-dir DIR]``
    Run the full four-step methodology on one IP with ``razor`` or
    ``counter`` sensors and print the campaign summary.
``lint <ip> [<ip> ...] [--sensor razor|counter] [--format text|json]``
    Run the static IR linter (:mod:`repro.lint`) over one or more IPs
    -- the raw design by default, the sensor-augmented one with
    ``--sensor``.  Per-IP waivers
    (``src/repro/lint/waivers/<ip>.json``) are applied; the exit code
    is non-zero when any unwaived *error*-severity finding remains.
    ``--format json`` emits the machine-readable reports (findings,
    severity counts, waived entries) instead of the text listing.
``mutate <ip> <sensor> [--workers N] [--shard-size M] [--cycles C]
[--cache-dir DIR] [--trace FILE]``
    Run only the mutation campaign through the sharded engine
    (:mod:`repro.mutation.campaign`): statically equivalent mutants
    are pruned (:mod:`repro.lint.mutants`) and each shard runs as one
    batched sweep with fork-on-divergence and early-kill
    (:mod:`repro.mutation.batched`).  ``--workers``
    distributes the mutant shards across worker processes (the report
    is deterministic for any worker count); ``--shard-size`` overrides
    the automatic one-shard-per-worker split (and with it the sweep
    width); ``--cycles`` overrides the testbench length;
    ``--trace FILE`` records the run with the span tracer
    (:mod:`repro.obs`) and writes a Chrome/Perfetto ``trace.json``
    (load it at ``chrome://tracing`` or https://ui.perfetto.dev; the
    report stays field-identical).  Prints campaign throughput
    (mutants actually simulated per second) alongside the Table-5
    percentages.  Timed-out (stall-budget-truncated) runs are excluded
    from every percentage and called out separately in the summary.
``bench [--ips a,b] [--sensors razor,counter] [--workers N]
[--rtl-validation] [--cache-dir DIR] ...``
    Run the whole cross-IP campaign suite (every selected IP x sensor
    type) on one shared persistent worker pool through the streaming
    scheduler (:mod:`repro.mutation.scheduler`), with live per-shard
    progress lines.  Each campaign's shards enter the shared queue as
    soon as it is prepared, so small campaigns backfill pool slots
    left idle by big ones; the per-campaign reports stay deterministic
    (identical to standalone ``mutate`` runs).  Each table's
    ``prepare-to-done (s)`` column runs from a campaign's preparation
    to its last shard's completion, so a later campaign's figure
    includes the time its shards queued behind earlier campaigns'.
    ``--rtl-validation``
    interleaves each campaign's RTL-validation shards on the same
    pool -- they replay the campaign's own stimuli, ``--cycles``
    included -- and prints a second table with the RTL results,
    listing the mutants whose TLM and RTL verdicts disagree (any makes
    the exit code non-zero).
``timing <ip> <sensor> [cycles] [--rtl-exec compiled|interpreted]``
    Measure the RTL / TLM / optimised-TLM simulation times on the IP's
    testbench workload.  ``--rtl-exec both`` additionally times the
    interpreted RTL kernel next to the compiled one, showing the
    compile-once speedup in place.
``emit <ip> {vhdl|tlm} [--sensor razor|counter]``
    Print the generated VHDL of the (augmented) IP, or the generated
    TLM Python model.  ``--sensor`` emits the design the flow builds
    (:func:`repro.flow.build_augmented`: Counter taps calibrated on the
    IP's testbench).

Campaign service (see :mod:`repro.service` and ``docs/service.md``)
-------------------------------------------------------------------
``serve [--host H] [--port P] [--workers N] [--max-jobs M]
[--state-dir DIR] [--ready-file FILE] [--cache-dir DIR]
[--fault-plan SPEC] [--trace]``
    Run the long-lived campaign service: jobs submitted over HTTP
    queue onto one shared scheduler pool, every client streams
    per-shard progress (NDJSON).  ``--state-dir`` persists job records
    so finished reports survive restarts (a job caught running by a
    crash is re-queued and resumes warm from the result cache);
    ``--ready-file`` writes ``host port`` once listening (CI boots on
    ``--port 0``).  ``--fault-plan`` activates deterministic fault
    injection for chaos runs (``docs/chaos.md``; equivalently the
    ``REPRO_FAULT_PLAN`` env var).  ``--trace`` enables the span
    tracer server-side, so every job records spans exportable via
    ``repro trace`` (reports stay field-identical; see
    ``docs/observability.md``).
``submit <ip> <sensor> [--cycles C] [--shard-size M] [--no-recovery]
[--stop-on-survivor] [--score-threshold X] [--watch] [--host] [--port]``
    Submit one campaign job; prints the job id (``--watch`` then
    streams it to completion like ``repro watch``).
``status [job_id] [--server] [--host] [--port]``
    One job's record and report summary, or -- without an id -- a
    table of every job the service knows.  ``--server`` renders the
    daemon's ``/healthz`` instead: the shared pool (width, in-flight
    and finished shards, pool rebuilds, shard isolations), job counts,
    cache size and the compact metrics snapshot.
``trace [job_id] [--last] [--out FILE] [--host] [--port]``
    Export one job's span trace (``GET /jobs/<id>/trace``) as
    Chrome/Perfetto trace-event JSON -- ``--last`` picks the newest
    job, ``--out`` writes to a file instead of stdout.  Needs a
    server booted with ``repro serve --trace``.
``top [--interval S] [--once] [--host] [--port]``
    Live view of a running service: refreshes the ``status --server``
    view every ``--interval`` seconds (``--once`` prints one snapshot
    and exits; the counters are the ones Prometheus scrapes from
    ``GET /metrics``).
``watch <job_id> [--host] [--port]``
    Stream a job's events live: per-shard progress lines, then the
    final campaign summary.  Exit code mirrors ``repro mutate``.
``cancel <job_id> [--host] [--port]``
    Cancel a queued/running job (shard-granular; the partial report
    is kept).

Result caching
--------------
``flow``, ``mutate`` and ``bench`` accept ``--cache-dir DIR``: mutant
verdicts (TLM and RTL) and golden traces are stored content-addressed
under ``DIR`` (:class:`repro.mutation.ResultCache`), so a second
identical run replays instead of re-executing and the summaries report
the hit/miss split; without ``--cache-dir`` nothing is cached.
``repro serve`` accepts the same flag (one cache shared by every
job).

``cache {stats,prune} --cache-dir DIR [--max-bytes N] [--older-than S]``
    Inspect or garbage-collect a result cache: ``stats`` prints entry
    count, byte footprint and the per-IP breakdown; ``prune`` removes
    entries older than ``--older-than`` seconds and/or evicts oldest-
    first down to the ``--max-bytes`` budget.
"""

from __future__ import annotations

import argparse
import sys

from repro.flow import build_augmented, run_flow, speedup, time_rtl, time_tlm
from repro.ips import CASE_STUDIES, case_study
from repro.reporting import format_kv, format_table, mutation_summary_pairs

__all__ = ["build_parser", "main"]


def _resolve_cache(args):
    """The :class:`~repro.mutation.ResultCache` selected by
    ``--cache-dir`` (or ``None``)."""
    from repro.mutation import ResultCache

    return ResultCache(args.cache_dir) if args.cache_dir else None


def _cmd_list(_args) -> int:
    rows = [
        [spec.name, spec.title, f"{spec.fclk_ghz} GHz", spec.vdd,
         spec.slack_threshold_ps, spec.mutation_cycles]
        for spec in CASE_STUDIES.values()
    ]
    print(format_table(
        ["name", "title", "fclk", "VDD", "slack threshold (ps)",
         "testbench cycles"],
        rows,
        title="Registered case studies",
    ))
    return 0


def _cmd_flow(args) -> int:
    spec = case_study(args.ip)
    result = run_flow(spec, args.sensor, cache=_resolve_cache(args))
    report = result.mutation
    print(format_kv([
        ("IP", spec.title),
        ("sensor type", args.sensor),
        ("critical paths / sensors", result.sensors_inserted),
        ("original RTL (VHDL loc)", result.original_rtl_loc),
        ("augmented RTL (VHDL loc)", result.augmented_rtl_loc),
        ("TLM loc (sctypes / hdtlib / injected)",
         f"{result.tlm_standard.loc} / {result.tlm_optimized.loc} / "
         f"{result.injected.loc}"),
    ] + mutation_summary_pairs(report) + [
        ("campaign time", f"{report.seconds:.2f} s"),
    ]))
    # Success demands a clean campaign: every judged mutant killed
    # AND no run truncated by the stall budget (a timed-out mutant
    # was never fully driven, so it must not grant a green exit).
    return 0 if report.killed_pct == 100.0 and \
        report.timed_out_count == 0 else 1


def _cmd_lint(args) -> int:
    import json as _json

    from repro.lint import apply_waivers, lint_module, waivers_for_ip

    exit_code = 0
    payloads = []
    for ip in args.ips:
        spec = case_study(ip)
        if args.sensor:
            module = build_augmented(spec, args.sensor).augmented.module
        else:
            module, _clk = spec.factory()
        report = apply_waivers(
            lint_module(module), waivers_for_ip(spec.name)
        )
        if not report.ok:
            exit_code = 1
        if args.format == "json":
            payloads.append({
                "ip": ip,
                "sensor": args.sensor or "original",
                **report.to_dict(),
            })
            continue
        counts = report.counts()
        print(f"{ip} ({args.sensor or 'original'}) -- "
              f"module {report.module_name}: "
              f"{counts['error']} error(s), "
              f"{counts['warning']} warning(s), "
              f"{counts['info']} info, {len(report.waived)} waived")
        for finding in report.findings:
            print(f"  {finding.one_line()}")
        for finding, waiver in report.waived:
            print(f"  [waived] {finding.one_line()}"
                  f"  ({waiver.reason})")
    if args.format == "json":
        print(_json.dumps(payloads, indent=2, sort_keys=True))
    return exit_code


def _cmd_mutate(args) -> int:
    spec = case_study(args.ip)
    if args.trace:
        from repro.obs import TRACER

        TRACER.enable()
    result = run_flow(
        spec,
        args.sensor,
        mutation_cycles=args.cycles,
        workers=args.workers,
        shard_size=args.shard_size,
        cache=_resolve_cache(args),
    )
    report = result.mutation
    if args.trace:
        import json as _json

        from repro.obs import TRACER

        payload = TRACER.chrome_trace()
        with open(args.trace, "w") as handle:
            _json.dump(payload, handle, sort_keys=True)
        print(f"trace: {len(payload['traceEvents'])} events "
              f"-> {args.trace}")
    print(format_kv([
        ("IP", spec.title),
        ("sensor type", args.sensor),
        ("testbench cycles", report.cycles_per_run),
        ("workers", args.workers),
        ("shard size", args.shard_size if args.shard_size else "auto"),
    ] + mutation_summary_pairs(report) + [
        ("campaign time", f"{report.seconds:.2f} s"),
        ("throughput", f"{report.mutants_per_second:.2f} mutants/s"),
    ]))
    # Success demands a clean campaign: every judged mutant killed
    # AND no run truncated by the stall budget (a timed-out mutant
    # was never fully driven, so it must not grant a green exit).
    return 0 if report.killed_pct == 100.0 and \
        report.timed_out_count == 0 else 1


def _progress_printer(stream):
    """Live per-shard progress lines for the streaming scheduler."""

    def emit(p):
        flag = "  [aborted]" if p.aborted else ""
        print(
            f"  {p.ip_name}/{p.sensor_type}: "
            f"{p.done}/{p.total} mutants "
            f"(shard {p.shards_done}/{p.shards_total}) "
            f"killed={p.killed} survivors={p.survivors} "
            f"timed_out={p.timed_out}{flag}",
            file=stream,
            flush=True,
        )

    return emit


def _cache_cell(report) -> str:
    if report.cache_hits is None:
        return "n.a."
    return f"{report.cache_hits}/{report.cache_misses}"


def _disagreement_cell(indices) -> str:
    """The disagreeing mutant indices of one RTL-validated campaign."""
    if not indices:
        return "0"
    return f"{len(indices)}: " + ", ".join(map(str, indices))


def _cmd_bench(args) -> int:
    from repro.mutation import CampaignScheduler, run_benchmark_suite

    ips = args.ips.split(",") if args.ips else sorted(CASE_STUDIES)
    sensors = args.sensors.split(",")
    for ip in ips:
        if ip not in CASE_STUDIES:
            print(f"error: unknown IP {ip!r} (choose from "
                  f"{', '.join(sorted(CASE_STUDIES))})", file=sys.stderr)
            return 2
    for sensor in sensors:
        if sensor not in ("razor", "counter"):
            print(f"error: unknown sensor type {sensor!r} "
                  "(choose from razor, counter)", file=sys.stderr)
            return 2
    cache = _resolve_cache(args)
    progress = None if args.no_progress else _progress_printer(sys.stdout)
    with CampaignScheduler(workers=args.workers) as scheduler:
        suite = run_benchmark_suite(
            ips,
            sensors,
            workers=args.workers,
            shard_size=args.shard_size,
            mutation_cycles=args.cycles,
            scheduler=scheduler,
            progress=progress,
            cache=cache,
            rtl_validation=args.rtl_validation,
        )
    rows = []
    for (ip, sensor), report in sorted(suite.reports.items()):
        rows.append([
            ip, sensor, report.effective_total, report.total,
            f"{report.killed_pct:.1f}%",
            f"{report.corrected_pct:.1f}%"
            if report.corrected_pct is not None else "n.a.",
            f"{report.risen_pct:.1f}%",
            report.timed_out_count,
            _cache_cell(report),
            f"{report.seconds:.2f}",
        ])
    print(format_table(
        ["IP", "sensor", "judged", "mutants", "killed", "corrected",
         "errors risen", "timed out (excl.)", "cache (hit/miss)",
         "prepare-to-done (s)"],
        rows,
        title=(
            f"Cross-IP campaign suite: {len(suite.reports)} campaigns "
            f"on one shared pool (workers={suite.workers}); percentages "
            "exclude timed-out runs"
        ),
    ))
    if suite.rtl_reports:
        disagreements = suite.rtl_disagreements
        rtl_rows = [
            [ip, sensor, report.total, f"{report.risen_pct:.1f}%",
             _disagreement_cell(disagreements[(ip, sensor)]),
             _cache_cell(report), f"{report.seconds:.2f}"]
            for (ip, sensor), report in sorted(suite.rtl_reports.items())
        ]
        print()
        print(format_table(
            ["IP", "sensor", "mutants", "errors risen",
             "TLM/RTL disagreements", "cache (hit/miss)",
             "prepare-to-done (s)"],
            rtl_rows,
            title=(
                "RTL validation (same shared pool, interleaved with "
                "the TLM shards)"
            ),
        ))
    pairs = [
        ("campaigns", len(suite.reports)),
        ("mutants", suite.total_mutants),
    ]
    if suite.rtl_reports:
        pairs.append(("rtl mutants", suite.total_rtl_mutants))
    pairs += [
        ("suite time", f"{suite.seconds:.2f} s"),
        ("campaign time (shared pool)", f"{suite.campaign_seconds:.2f} s"),
        ("throughput", f"{suite.mutants_per_second:.2f} mutants/s"),
    ]
    if suite.cache_hits is not None:
        pairs.append((
            "result cache",
            f"{suite.cache_hits} hits / {suite.cache_misses} misses",
        ))
    print(format_kv(pairs))
    # Same gate as mutate/flow -- 100% of judged mutants killed in
    # every campaign AND no stall-budget truncations -- plus, when RTL
    # validation ran, cross-level agreement: every Razor RTL report
    # must have raised its error on every mutant, and every mutant's
    # TLM and RTL verdicts must agree.
    return 0 if suite.all_killed and suite.timed_out_count == 0 \
        and suite.rtl_validation_ok else 1


def _cmd_timing(args) -> int:
    spec = case_study(args.ip)
    result = run_flow(spec, args.sensor, run_mutation=False)
    stimuli = spec.stimulus(args.cycles or spec.mutation_cycles)
    mode = "compiled" if args.rtl_exec == "both" else args.rtl_exec
    rtl = time_rtl(result.augmented, stimuli, exec_mode=mode)
    rows = [
        [f"RTL (event-driven, {mode})", f"{rtl.seconds:.4f}",
         int(rtl.cycles_per_second), "1.00x"],
    ]
    if args.rtl_exec == "both":
        interp = time_rtl(
            result.augmented, stimuli, exec_mode="interpreted"
        )
        rows.append(
            ["RTL (event-driven, interpreted)", f"{interp.seconds:.4f}",
             int(interp.cycles_per_second),
             f"{speedup(rtl, interp):.2f}x"]
        )
    std = time_tlm(result.tlm_standard, stimuli)
    opt = time_tlm(result.tlm_optimized, stimuli)
    rows += [
        ["TLM (sctypes)", f"{std.seconds:.4f}",
         int(std.cycles_per_second), f"{speedup(rtl, std):.2f}x"],
        ["TLM (hdtlib)", f"{opt.seconds:.4f}",
         int(opt.cycles_per_second), f"{speedup(rtl, opt):.2f}x"],
    ]
    print(format_table(
        ["level", "time (s)", "cycles/s", "speedup vs RTL"],
        rows,
        title=f"{spec.title} / {args.sensor}: {len(stimuli)} cycles",
    ))
    return 0


def _cmd_emit(args) -> int:
    from repro.abstraction import generate_tlm
    from repro.rtl import emit_vhdl

    spec = case_study(args.ip)
    augmented = None
    if args.sensor:
        augmented = build_augmented(spec, args.sensor).augmented
        module = augmented.module
    else:
        module, _clk = spec.factory()
    if args.kind == "vhdl":
        print(emit_vhdl(module))
    else:
        gen = generate_tlm(
            module,
            variant=args.variant,
            augmented=augmented,
        )
        print(gen.source)
    return 0


# ---------------------------------------------------------------------------
# Campaign service commands
# ---------------------------------------------------------------------------

def _cmd_serve(args) -> int:
    import time as _time

    from repro.service import CampaignService, ServiceServer

    if args.fault_plan:
        from repro.faults import FaultPlan, set_fault_plan

        try:
            plan = FaultPlan.from_spec(args.fault_plan, allow_exit=True)
        except ValueError as exc:
            print(f"error: bad --fault-plan: {exc}", file=sys.stderr)
            return 2
        set_fault_plan(plan)
        print(f"fault injection ACTIVE: {plan.describe()}", flush=True)
    service = CampaignService(
        workers=args.workers,
        max_jobs=args.max_jobs,
        state_dir=args.state_dir,
        cache=_resolve_cache(args),
        trace=args.trace,
    )
    server = ServiceServer(service, host=args.host, port=args.port)
    host, port = server.start()
    print(f"repro service listening on http://{host}:{port} "
          f"(workers={args.workers}, max jobs={args.max_jobs})",
          flush=True)
    if args.state_dir:
        print(f"  job records : {args.state_dir}", flush=True)
    if args.trace:
        print("  tracing     : on (export with `repro trace`)",
              flush=True)
    if args.cache_dir:
        print(f"  result cache: {args.cache_dir}", flush=True)
    if args.ready_file:
        with open(args.ready_file, "w") as handle:
            handle.write(f"{host} {port}\n")
    try:
        while True:
            _time.sleep(1)
    except KeyboardInterrupt:
        print("shutting down ...", flush=True)
    finally:
        server.stop()
    return 0


def _service_client(args):
    from repro.service import ServiceClient

    return ServiceClient(args.host, args.port)


def _event_printer(stream):
    """Render service events as the familiar progress lines."""

    def emit(event):
        kind = event.get("type")
        if kind == "status":
            print(f"  job {event['job']}: {event['status']}",
                  file=stream, flush=True)
        elif kind == "progress":
            flag = "  [aborted]" if event["aborted"] else ""
            print(
                f"  {event['ip']}/{event['sensor']}: "
                f"{event['done']}/{event['total']} mutants "
                f"(shard {event['shards_done']}/{event['shards_total']}) "
                f"killed={event['killed']} "
                f"survivors={event['survivors']} "
                f"timed_out={event['timed_out']}{flag}",
                file=stream,
                flush=True,
            )

    return emit


def _print_end_event(end) -> int:
    """Final summary + the ``mutate``-style exit gate for one job's
    terminal event."""
    from repro.service import decode_report

    status = end.get("status")
    if status == "failed":
        print(f"job {end['job']} failed: {end.get('error')}",
              file=sys.stderr)
        return 1
    if end.get("report") is None:
        # A job cancelled before its first shard ends "aborted" with
        # no report at all -- nothing to summarise.
        print(format_kv([("job", end["job"]), ("status", status)]))
        return 1
    report = decode_report(end["report"])
    print(format_kv([
        ("job", end["job"]),
        ("status", status),
    ] + mutation_summary_pairs(report) + [
        ("campaign time", f"{report.seconds:.2f} s"),
    ]))
    return 0 if status == "done" and report.killed_pct == 100.0 \
        and report.timed_out_count == 0 else 1


def _cmd_submit(args) -> int:
    client = _service_client(args)
    spec = {
        "ip": args.ip,
        "sensor": args.sensor,
        "cycles": args.cycles,
        "shard_size": args.shard_size,
        "recovery": not args.no_recovery,
        "stop_on_survivor": args.stop_on_survivor,
        "score_threshold": args.score_threshold,
    }
    record = client.submit(spec)
    print(f"job {record['id']} submitted ({record['status']})",
          flush=True)
    if not args.watch:
        return 0
    end = client.watch(record["id"], on_event=_event_printer(sys.stdout))
    return _print_end_event(end)


def _cmd_watch(args) -> int:
    client = _service_client(args)
    end = client.watch(args.job_id, on_event=_event_printer(sys.stdout))
    return _print_end_event(end)


def _job_row(record) -> list:
    report = record.get("report") or {}
    outcomes = report.get("outcomes")
    return [
        record["id"],
        record["spec"]["ip"],
        record["spec"]["sensor"],
        record["status"],
        len(outcomes) if outcomes is not None else "n.a.",
        record.get("error") or "",
    ]


def _ratio_cell(value) -> str:
    return "n.a." if value is None else f"{value * 100:.1f}%"


def _metrics_pairs(metrics: dict) -> list:
    """Compact counter highlights (from
    ``health['metrics']['local']``)."""
    local = metrics.get("local") or {}
    counters = local.get("counters") or {}
    hist = (local.get("histograms") or {}).get("repro_shard_seconds")

    def count(name):
        return int(counters.get(name, 0))

    hits = count("repro_cache_hits_total")
    probed = hits + count("repro_cache_misses_total")
    pairs = [
        ("tracing", "on" if metrics.get("tracing") else "off"),
        ("shards executed", count("repro_shards_executed_total")),
        ("mutants executed", count("repro_mutants_executed_total")),
        ("cache hit ratio",
         _ratio_cell(hits / probed if probed else None)),
    ]
    if hist and hist.get("count"):
        pairs.append((
            "mean shard time",
            f"{hist['sum'] / hist['count']:.3f} s",
        ))
    return pairs


def _health_pairs(health: dict) -> list:
    """``GET /healthz`` as key/value rows -- the daemon view ``repro
    status --server`` prints once and ``repro top`` refreshes: the
    shared pool (the scheduler's ``describe()`` block), job counts,
    cache size and the compact metrics snapshot."""
    pool = health.get("pool") or {}
    jobs = health.get("jobs") or {}
    pairs = [
        ("status", health.get("status")),
        ("uptime", f"{health.get('uptime_s', 0.0):.1f} s"),
        ("pool workers", pool.get("workers")),
        ("pool live", pool.get("live")),
        ("max concurrent jobs", pool.get("max_jobs")),
        ("in-flight shards", pool.get("in_flight")),
        ("shards done", pool.get("shards_done")),
        ("pool rebuilds", pool.get("pool_rebuilds")),
        ("shard isolations", pool.get("shard_isolations")),
        ("jobs", ", ".join(
            f"{status}={count}" for status, count in sorted(jobs.items())
        ) or "none"),
    ]
    cache = health.get("cache")
    if cache is not None:
        pairs.append(("cache entries", cache.get("entries")))
    return pairs + _metrics_pairs(health.get("metrics") or {})


def _cmd_status(args) -> int:
    client = _service_client(args)
    if args.server:
        health = client.health()
        print(format_kv(_health_pairs(health)))
        return 0 if health.get("status") == "ok" else 1
    if not args.job_id:
        rows = [_job_row(record) for record in client.jobs()]
        print(format_table(
            ["job", "IP", "sensor", "status", "outcomes", "error"],
            rows,
            title="Campaign service jobs",
        ))
        return 0
    record = client.job(args.job_id)
    pairs = [
        ("job", record["id"]),
        ("IP", record["spec"]["ip"]),
        ("sensor", record["spec"]["sensor"]),
        ("status", record["status"]),
    ]
    if record.get("error"):
        pairs.append(("error", record["error"]))
    if record.get("report") is not None:
        from repro.service import decode_report

        report = decode_report(record["report"])
        pairs += mutation_summary_pairs(report)
        pairs.append(("campaign time", f"{report.seconds:.2f} s"))
    print(format_kv(pairs))
    return 0


def _cmd_cancel(args) -> int:
    client = _service_client(args)
    record = client.cancel(args.job_id)
    print(f"job {record['id']}: cancellation requested "
          f"(status {record['status']})")
    return 0


def _cmd_trace(args) -> int:
    import json as _json

    from repro.service import ServiceError

    client = _service_client(args)
    job_id = args.job_id
    if job_id is None:
        if not args.last:
            print("error: give a job id or --last", file=sys.stderr)
            return 2
        records = client.jobs()
        if not records:
            print("error: the service has no jobs", file=sys.stderr)
            return 1
        # jobs() is oldest-submission-first; --last means the newest.
        job_id = records[-1]["id"]
    try:
        payload = client.trace(job_id)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _json.dumps(payload, sort_keys=True)
    if args.out:
        with open(args.out, "w") as handle:
            handle.write(text + "\n")
        print(f"job {job_id}: {len(payload['traceEvents'])} events "
              f"-> {args.out}")
    else:
        print(text)
    return 0


def _cmd_top(args) -> int:
    import time as _time

    client = _service_client(args)
    try:
        while True:
            print(format_kv(_health_pairs(client.health())))
            if args.once:
                return 0
            print(flush=True)
            _time.sleep(args.interval)
    except KeyboardInterrupt:
        return 0


def _cmd_cache(args) -> int:
    from repro.mutation import ResultCache

    cache = ResultCache(args.cache_dir)
    if args.action == "stats":
        stats = cache.stats()
        print(format_kv([
            ("cache directory", stats["root"]),
            ("entries", stats["entries"]),
            ("bytes", stats["bytes"]),
        ]))
        if stats["per_ip"]:
            rows = [
                [ip, bucket["entries"], bucket["bytes"]]
                for ip, bucket in sorted(stats["per_ip"].items())
            ]
            print(format_table(
                ["IP", "entries", "bytes"], rows,
                title="Per-IP breakdown",
            ))
        return 0
    if args.max_bytes is None and args.older_than is None:
        print("error: prune needs --max-bytes and/or --older-than",
              file=sys.stderr)
        return 2
    result = cache.prune(
        max_bytes=args.max_bytes, older_than_s=args.older_than
    )
    print(format_kv([
        ("removed entries", result["removed_entries"]),
        ("removed bytes", result["removed_bytes"]),
        ("kept entries", result["kept_entries"]),
        ("kept bytes", result["kept_bytes"]),
    ]))
    return 0


def _add_service_options(parser: argparse.ArgumentParser) -> None:
    from repro.service import DEFAULT_PORT

    parser.add_argument("--host", default="127.0.0.1",
                        help="service host (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=DEFAULT_PORT,
                        help=f"service port (default: {DEFAULT_PORT})")


def _add_cache_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="persistent content-addressed result cache: "
                             "replay known mutant verdicts, store fresh "
                             "ones")


def build_parser() -> argparse.ArgumentParser:
    """The complete ``repro`` argument parser.

    Exposed separately from :func:`main` so tooling (and the doc-sync
    test in ``tests/test_docs.py``) can introspect every subcommand
    and flag without executing anything.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Cross-level verification of sensor-augmented IPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show registered case studies")

    p_lint = sub.add_parser(
        "lint",
        help="run the static IR linter over one or more IPs",
        description=(
            "Run the structural netlist checks (combinational loops, "
            "multi-drivers, width corruption, inferred latches, "
            "connectivity, X-sources) over the raw IP design, or over "
            "the sensor-augmented design with --sensor.  Per-IP "
            "waivers are applied; the exit code is non-zero when any "
            "unwaived error-severity finding remains."
        ),
    )
    p_lint.add_argument("ips", nargs="+", choices=sorted(CASE_STUDIES),
                        metavar="ip",
                        help="case studies to lint (one or more)")
    p_lint.add_argument("--sensor", choices=["razor", "counter"],
                        default=None,
                        help="lint the sensor-augmented design instead "
                             "of the raw IP")
    p_lint.add_argument("--format", choices=["text", "json"],
                        default="text",
                        help="output format (default: text)")

    p_flow = sub.add_parser("flow", help="run the full methodology")
    p_flow.add_argument("ip", choices=sorted(CASE_STUDIES))
    p_flow.add_argument("sensor", choices=["razor", "counter"])
    _add_cache_options(p_flow)

    p_mut = sub.add_parser(
        "mutate", help="run the sharded mutation campaign"
    )
    p_mut.add_argument("ip", choices=sorted(CASE_STUDIES))
    p_mut.add_argument("sensor", choices=["razor", "counter"])
    p_mut.add_argument("--workers", type=int, default=1,
                       help="worker processes for the campaign shards")
    p_mut.add_argument("--shard-size", type=int, default=None,
                       help="mutants per shard, i.e. per batched sweep "
                            "(default: auto)")
    p_mut.add_argument("--cycles", type=int, default=None,
                       help="testbench cycles (default: per-IP value)")
    p_mut.add_argument("--trace", default=None, metavar="FILE",
                       help="record the run with the span tracer and "
                            "write Chrome/Perfetto trace-event JSON "
                            "here (report unchanged)")
    _add_cache_options(p_mut)

    p_bench = sub.add_parser(
        "bench",
        help="run the cross-IP campaign suite on one shared worker pool",
        description=(
            "Run every selected IP x sensor-type mutation campaign as "
            "one suite through the streaming scheduler: all shards "
            "share a single persistent worker pool (small campaigns "
            "backfill idle slots, campaign preparation overlaps shard "
            "execution), with live per-shard progress lines.  Reported "
            "percentages exclude timed-out (stall-budget-truncated) "
            "runs.  With --cache-dir, verdicts are replayed from / "
            "stored into a content-addressed result cache; with "
            "--rtl-validation, each campaign's RTL-validation shards "
            "interleave on the same pool."
        ),
    )
    p_bench.add_argument("--ips", default=None,
                         help="comma-separated IP subset (default: all)")
    p_bench.add_argument("--sensors", default="razor,counter",
                         help="comma-separated sensor types "
                              "(default: razor,counter)")
    p_bench.add_argument("--workers", type=int, default=4,
                         help="shared-pool worker processes (default: 4)")
    p_bench.add_argument("--shard-size", type=int, default=None,
                         help="mutants per shard (default: auto)")
    p_bench.add_argument("--cycles", type=int, default=None,
                         help="testbench cycles (default: per-IP value)")
    p_bench.add_argument("--no-progress", action="store_true",
                         help="suppress the live per-shard progress lines")
    p_bench.add_argument("--rtl-validation", action="store_true",
                         help="also run each campaign's RTL validation, "
                              "over the campaign's own stimuli, as "
                              "shards on the same shared pool")
    _add_cache_options(p_bench)

    p_time = sub.add_parser("timing", help="RTL vs TLM simulation speed")
    p_time.add_argument("ip", choices=sorted(CASE_STUDIES))
    p_time.add_argument("sensor", choices=["razor", "counter"])
    p_time.add_argument("cycles", nargs="?", type=int, default=None)
    p_time.add_argument(
        "--rtl-exec",
        choices=["compiled", "interpreted", "both"],
        default="compiled",
        help="RTL kernel execution mode (both: time the two modes)",
    )

    p_emit = sub.add_parser("emit", help="print generated VHDL / TLM")
    p_emit.add_argument("ip", choices=sorted(CASE_STUDIES))
    p_emit.add_argument("kind", choices=["vhdl", "tlm"])
    p_emit.add_argument("--sensor", choices=["razor", "counter"],
                        default=None)
    p_emit.add_argument("--variant", choices=["sctypes", "hdtlib"],
                        default="hdtlib")

    p_serve = sub.add_parser(
        "serve",
        help="run the async campaign service (HTTP job queue)",
        description=(
            "Run the long-lived campaign service: POST /jobs queues "
            "campaigns onto one shared scheduler pool, GET "
            "/jobs/<id>/events streams per-shard progress as NDJSON, "
            "DELETE /jobs/<id> cancels shard-granularly, GET /healthz "
            "reports pool/queue/cache stats.  See docs/service.md."
        ),
    )
    _add_service_options(p_serve)
    p_serve.add_argument("--workers", type=int, default=2,
                         help="shared-pool worker processes for the "
                              "campaign shards (default: 2)")
    p_serve.add_argument("--max-jobs", type=int, default=4,
                         help="campaigns running concurrently; further "
                              "submissions queue (default: 4)")
    p_serve.add_argument("--state-dir", default=None, metavar="DIR",
                         help="persist job records here (finished "
                              "reports survive restarts); default: "
                              "in-memory only")
    p_serve.add_argument("--ready-file", default=None, metavar="FILE",
                         help="write 'host port' here once listening "
                              "(for scripts booting on --port 0)")
    p_serve.add_argument("--fault-plan", default=None, metavar="SPEC",
                         help="activate deterministic fault injection "
                              "for chaos runs, e.g. 'seed=7;"
                              "pool.break_worker=1' (also via the "
                              "REPRO_FAULT_PLAN env var; see "
                              "docs/chaos.md)")
    p_serve.add_argument("--trace", action="store_true",
                         help="enable the span tracer: every job "
                              "records spans exportable via `repro "
                              "trace` (reports unchanged; see "
                              "docs/observability.md)")
    _add_cache_options(p_serve)

    p_submit = sub.add_parser(
        "submit", help="submit a campaign job to the service"
    )
    p_submit.add_argument("ip", choices=sorted(CASE_STUDIES))
    p_submit.add_argument("sensor", choices=["razor", "counter"])
    p_submit.add_argument("--cycles", type=int, default=None,
                          help="testbench cycles (default: per-IP value)")
    p_submit.add_argument("--shard-size", type=int, default=None,
                          help="mutants per shard (default: auto)")
    p_submit.add_argument("--no-recovery", action="store_true",
                          help="disable Razor recovery in the campaign")
    p_submit.add_argument("--stop-on-survivor", action="store_true",
                          help="abort the job on the first surviving "
                               "mutant")
    p_submit.add_argument("--score-threshold", type=float, default=None,
                          help="abort once the running killed%% reaches "
                               "this threshold")
    p_submit.add_argument("--watch", action="store_true",
                          help="stream the job to completion (like "
                               "repro watch)")
    _add_service_options(p_submit)

    p_status = sub.add_parser(
        "status", help="one job's record, or a table of all jobs"
    )
    p_status.add_argument("job_id", nargs="?", default=None)
    p_status.add_argument("--server", action="store_true",
                          help="show the daemon's /healthz (pool, "
                               "jobs, cache, metrics) instead of job "
                               "records")
    _add_service_options(p_status)

    p_watch = sub.add_parser(
        "watch", help="stream a job's events live"
    )
    p_watch.add_argument("job_id")
    _add_service_options(p_watch)

    p_cancel = sub.add_parser(
        "cancel", help="cancel a queued/running job"
    )
    p_cancel.add_argument("job_id")
    _add_service_options(p_cancel)

    p_trace = sub.add_parser(
        "trace",
        help="export a job's span trace as Chrome trace-event JSON",
        description=(
            "Export one job's span trace (GET /jobs/<id>/trace) as "
            "Chrome/Perfetto trace-event JSON -- load it at "
            "chrome://tracing or https://ui.perfetto.dev.  Needs a "
            "server booted with `repro serve --trace`.  See "
            "docs/observability.md."
        ),
    )
    p_trace.add_argument("job_id", nargs="?", default=None)
    p_trace.add_argument("--last", action="store_true",
                         help="export the newest job instead of "
                              "naming one")
    p_trace.add_argument("--out", default=None, metavar="FILE",
                         help="write the trace JSON here instead of "
                              "stdout")
    _add_service_options(p_trace)

    p_top = sub.add_parser(
        "top",
        help="live metrics view of a running service",
        description=(
            "Refresh the daemon's /healthz view (pool, jobs, cache and "
            "the counters Prometheus scrapes from GET /metrics) until "
            "interrupted.  See docs/observability.md."
        ),
    )
    p_top.add_argument("--interval", type=float, default=2.0,
                       metavar="SECONDS",
                       help="refresh period (default: 2.0)")
    p_top.add_argument("--once", action="store_true",
                       help="print one snapshot and exit")
    _add_service_options(p_top)

    p_cache = sub.add_parser(
        "cache", help="inspect / garbage-collect a result cache"
    )
    p_cache.add_argument("action", choices=["stats", "prune"])
    p_cache.add_argument("--cache-dir", required=True, metavar="DIR",
                         help="the result cache directory")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="prune: evict oldest entries until the "
                              "store fits this many bytes")
    p_cache.add_argument("--older-than", type=float, default=None,
                         metavar="SECONDS",
                         help="prune: remove entries last written more "
                              "than this many seconds ago")
    return parser


def main(argv: "list[str] | None" = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "lint": _cmd_lint,
        "flow": _cmd_flow,
        "mutate": _cmd_mutate,
        "bench": _cmd_bench,
        "timing": _cmd_timing,
        "emit": _cmd_emit,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "watch": _cmd_watch,
        "cancel": _cmd_cancel,
        "trace": _cmd_trace,
        "top": _cmd_top,
        "cache": _cmd_cache,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
