"""Fresh-interpreter child of the benchmark.

    python3 perfbench/child.py setup '{"workload": ..., "seed": ...}'
    python3 perfbench/child.py methodology '{"seed": ..., "mode": ...}'

Both tasks time ``import repro`` and print one JSON line as soon as
they are set up, so the parent can time interpreter start plus set-up
from outside.  ``setup`` then tears down and exits; ``methodology``
runs one ``methodology_rtl`` unit and prints its result as the last
line.
"""

import json
import sys
import tempfile
import time

import bootstrap

bootstrap.use_checkout_source()

started = time.perf_counter()
import repro  # noqa: E402,F401
import repro.flow  # noqa: E402,F401
import repro.ips  # noqa: E402,F401
import repro.mutation  # noqa: E402,F401

import_s = time.perf_counter() - started

import workloads  # noqa: E402
from probes import Recorder  # noqa: E402


def main(task: str, request: dict) -> int:
    if task == "methodology":
        print(json.dumps({"import_s": import_s}), flush=True)
        result = workloads.methodology_unit(
            request["seed"], request["mode"], request.get("inject"),
        )
        print(json.dumps(result))
        return 0
    if task == "setup":
        workload = workloads.WORKLOADS[request["workload"]]
        with tempfile.TemporaryDirectory(dir=bootstrap.scratch_dir()) as tmp:
            ctx = workloads.Context(seed=request["seed"],
                                    recorder=Recorder(), tmp=tmp)
            try:
                workload.setup(ctx)
                print(json.dumps({"import_s": import_s}), flush=True)
            finally:
                workload.teardown(ctx)
        return 0
    print(f"unknown task {task!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], json.loads(sys.argv[2])))
