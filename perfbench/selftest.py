"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at minimum size (the fewest units the workload
allows), untraced and traced, and checks that each passes its own
correctness gate -- on ``campaign_sweep`` that includes the pinned
verdict digest of the default seed -- and reports exactly the metrics
``BENCHMARK.json`` declares.  Then plants two wrong results -- a
flipped RTL verdict and a corrupted cached verdict -- and checks that
each one raises ``failed`` and the exit code.  Finally it runs the
benchmark from a directory holding only ``BENCHMARK.json`` and the
benchmark itself, which must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("methodology_rtl", "campaign_sweep", "service_warm")


def run(*args, root=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--seed", "0", "--seconds", "0", *args],
        capture_output=True, text=True, timeout=600, cwd=root,
    )
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    names = {
        "0": {m["name"] for m in declared["end_to_end"]},
        "1": {m["name"] for m in declared["per_layer"]},
    }
    failures = []

    def check(label: str, ok: bool) -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            failures.append(label)

    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, result = run("--workload", workload, "--trace", trace)
            label = f"{workload} --trace {trace}"
            check(f"{label}: exit 0, correct, nothing failed",
                  code == 0 and result is not None and result["correct"]
                  and result["failed"] == 0 and result["attempted"] > 0)
            check(f"{label}: reports exactly the declared metrics",
                  result is not None and set(result["metrics"]) == names[trace])
        path = os.path.join(ROOT, ".perfbench",
                            f"trace-{workload}-seed0.json")
        with open(path) as handle:
            events = json.load(handle)["traceEvents"]
        check(f"{workload}: Chrome trace holds spans",
              any(e["ph"] == "X" for e in events))

    code, result = run("--workload", "methodology_rtl",
                       "--inject", "flip-rtl-verdict")
    check("a flipped RTL verdict fails its cell",
          code != 0 and result is not None and result["failed"] > 0)
    code, result = run("--workload", "service_warm",
                       "--inject", "corrupt-cache-entry")
    check("a corrupted cached verdict fails the jobs that replay it",
          code != 0 and result is not None and result["failed"] > 0)

    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    bare = tempfile.mkdtemp(dir=scratch)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, result = run("--workload", "methodology_rtl", root=bare)
        check("without the source tree: non-zero exit, no result",
              code != 0 and result is None)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
