"""Chaos soak: the fault-injection property against one real daemon.

For every seed in a fixed sweep, boots one ``repro serve --workers 2``
subprocess under a seed-derived ``--fault-plan`` covering every
injection site a daemon has:

* ``pool.break_worker`` -- a pool worker process dies mid-shard (the
  scheduler rebuilds the pool and re-runs the lost shard);
* ``cache.corrupt_entry`` -- poisoned result-cache writes (quarantined
  to a miss on the next read, then re-executed);
* ``server.crash.mid_job`` -- the daemon ``os._exit(70)``\\ s between
  shard batches, leaving the job record ``running`` on disk.

A dsp/razor job is submitted through :class:`repro.service.ServiceClient`
and watched.  When the daemon exits with status 70, it is restarted on
the same ``--state-dir`` and ``--cache-dir`` with the crash rule
removed, and the same job id is watched until it ends: the new daemon
re-queues the job and resumes it warm from the result cache.

The **soak property** checked per seed (see ``docs/chaos.md``): the job
either completes with a report field-identical to a direct fault-free
:func:`~repro.mutation.run_campaign`, or fails loudly with a
structured diagnostic naming the fault.  A silently wrong or truncated
report fails the run, and so does a seed whose crash never fired (the
soak exists to drive the crash-and-resume path).  Per-seed rows --
plan, restarts, outcome, diagnostics, and the daemon log on failure --
are written as JSON (``BENCH_chaos.json`` in CI) so a red chaos job
names the exact seed and fault to replay.

Usage::

    python benchmarks/chaos_soak.py [--seeds 1,2,3] [--cycles C]
        [--out BENCH_chaos.json]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.flow import run_flow                              # noqa: E402
from repro.ips import case_study                             # noqa: E402
from repro.mutation import run_campaign                      # noqa: E402
from repro.service import (                                  # noqa: E402
    ServiceClient,
    ServiceError,
    decode_report,
)

SRC_DIR = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "src"
)

#: Exit status of a daemon killed by the ``server.crash.mid_job`` site.
CRASH_STATUS = 70

#: Job errors that name their cause: an injected fault, a shard
#: quarantined after breaking its pool, or an exhausted restart budget.
LOUD_MARKERS = ("injected fault", "quarantined", "restart budget")


class Daemon:
    """One ``repro serve`` subprocess on an ephemeral port, its output
    appended to a log file next to its state.  It leads its own
    process group, so :meth:`stop` also reaps the pool workers a
    crashed daemon leaves behind."""

    def __init__(self, workdir: str, fault_plan: str) -> None:
        self.ready_file = os.path.join(workdir, "serve.addr")
        self.log_path = os.path.join(workdir, "serve.log")
        if os.path.exists(self.ready_file):
            os.remove(self.ready_file)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC_DIR] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        command = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--workers", "2",
            "--state-dir", os.path.join(workdir, "state"),
            "--cache-dir", os.path.join(workdir, "cache"),
            "--ready-file", self.ready_file,
            "--fault-plan", fault_plan,
        ]
        with open(self.log_path, "a") as log:
            self.process = subprocess.Popen(
                command, env=env, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        self.host, self.port = self._await_ready()

    def _await_ready(self, timeout_s: float = 60.0):
        deadline = time.monotonic() + timeout_s
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited early (rc={self.process.returncode})"
                )
            if os.path.exists(self.ready_file):
                text = open(self.ready_file).read().split()
                if len(text) == 2:
                    return text[0], int(text[1])
            time.sleep(0.1)
        raise RuntimeError("daemon never wrote its ready file")

    def client(self) -> ServiceClient:
        return ServiceClient(self.host, self.port, timeout=60.0)

    def exit_status(self, timeout_s: float = 30.0) -> "int | None":
        """The daemon's exit status, or ``None`` if it is still up."""
        try:
            return self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            return None

    def stop(self) -> None:
        """SIGINT (a graceful drain), then SIGKILL whatever is left of
        the process group."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()

    def log_tail(self, lines: int = 40) -> "list[str]":
        with open(self.log_path) as log:
            return log.read().splitlines()[-lines:]


def fault_plan(seed: int, crash: bool = True) -> str:
    """The seed-derived plan; the crash fires after batch 2, 3 or 4."""
    rules = [f"seed={seed}", "pool.break_worker=1x1",
             "cache.corrupt_entry=p0.3x5"]
    if crash:
        rules.append(f"server.crash.mid_job={2 + seed % 3}")
    return ";".join(rules)


def soak_one_seed(seed: int, baseline, cycles: int, workdir: str) -> dict:
    """Run one dsp/razor job under the seed's plan, restarting the
    daemon after each crash; returns the per-seed result row (never
    raises for property-level failures -- those land in the row)."""
    row: dict = {
        "seed": seed,
        "plan": fault_plan(seed),
        "restarts": 0,
        "ok": False,
        "outcome": None,
        "diagnostics": [],
    }
    seed_dir = os.path.join(workdir, f"seed{seed}")
    os.makedirs(seed_dir, exist_ok=True)
    daemon = None
    try:
        daemon = Daemon(seed_dir, row["plan"])
        job_id = daemon.client().submit({
            "ip": "dsp", "sensor": "razor", "cycles": cycles,
            "shard_size": 1,
        })["id"]
        while True:
            try:
                end = daemon.client().watch(job_id)
                break
            except (ServiceError, OSError) as exc:
                status = daemon.exit_status()
                if status != CRASH_STATUS or row["restarts"]:
                    raise RuntimeError(
                        f"stream lost ({exc}); daemon exit status "
                        f"{status}"
                    ) from exc
            row["restarts"] += 1
            daemon.stop()
            daemon = Daemon(seed_dir, fault_plan(seed, crash=False))
        row["end_status"] = end["status"]
        if end["status"] == "failed":
            error = end.get("error") or ""
            row["diagnostics"].append({"fault": "job.failed",
                                       "error": error})
            row["ok"] = any(marker in error for marker in LOUD_MARKERS)
            row["outcome"] = (f"loud failure: {error}" if row["ok"] else
                              f"VIOLATION: silent failure: {error}")
        elif end["status"] != "done" or end.get("report") is None:
            row["outcome"] = f"VIOLATION: job ended {end['status']}"
        else:
            report = decode_report(end["report"])
            if report != baseline:
                row["outcome"] = "VIOLATION: silently divergent report"
                row["diagnostics"].append({
                    "fault": "soak.divergent_report",
                    "expected_total": baseline.total,
                    "got_total": report.total,
                    "expected_score": baseline.mutation_score,
                    "got_score": report.mutation_score,
                })
            elif not row["restarts"]:
                row["outcome"] = ("VIOLATION: the crash never fired, so "
                                  "the resume path went unexercised")
            else:
                row["ok"] = True
                row["outcome"] = (
                    f"healed after {row['restarts']} restart(s): report "
                    "identical to baseline"
                )
    except Exception as exc:
        row["outcome"] = f"VIOLATION: harness error: {exc!r}"
    finally:
        if daemon is not None:
            daemon.stop()
            if not row["ok"]:
                row["daemon_log"] = daemon.log_tail()
    return row


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1,2,3",
                        help="comma-separated fault-plan seeds to sweep")
    parser.add_argument("--cycles", type=int, default=24,
                        help="testbench cycles per campaign")
    parser.add_argument("--out", default=None,
                        help="write per-seed results to this JSON file "
                             "(e.g. BENCH_chaos.json)")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]

    print("building the dsp/razor baseline ...", flush=True)
    flow = run_flow(case_study("dsp"), "razor", run_mutation=False)
    baseline = run_campaign(
        flow.tlm_optimized, flow.injected,
        case_study("dsp").stimulus(args.cycles),
        ip_name="dsp", sensor_type="razor", workers=1,
    )

    workdir = tempfile.mkdtemp(prefix="chaos-soak-")
    rows = []
    try:
        for seed in seeds:
            print(f"seed {seed}: booting the daemon under "
                  f"{fault_plan(seed)!r} ...", flush=True)
            row = soak_one_seed(seed, baseline, args.cycles, workdir)
            print(f"seed {seed}: {row['outcome']}", flush=True)
            rows.append(row)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ok = all(row["ok"] for row in rows)
    payload = {
        "benchmark": "chaos_soak",
        "seeds": seeds,
        "cycles": args.cycles,
        "property": ("report identical to fault-free baseline OR "
                     "loud structured failure naming the fault"),
        "ok": ok,
        "results": rows,
    }
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote {args.out}")
    if not ok:
        bad = [row["seed"] for row in rows if not row["ok"]]
        print(f"CHAOS PROPERTY VIOLATED for seeds {bad}", file=sys.stderr)
        return 1
    print(f"chaos property held for all {len(seeds)} seeds")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
