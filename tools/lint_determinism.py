#!/usr/bin/env python3
"""Determinism lint for worker-side code.

Mutation campaigns promise byte-identical reports for any worker
count, shard size, placement and cache state.  That promise dies the
moment worker-side code consults a nondeterministic source, so this
lint walks the AST of every module that runs inside campaign workers
(``src/repro/mutation/``, ``src/repro/obs/``, ``src/repro/rtl/``,
``src/repro/faults.py``) or decides what they run: the TLM code
generator (``src/repro/abstraction/``), whose source every TLM cache
key hashes, and the static mutant pruner (``src/repro/lint/``), which
decides verdicts.  It rejects:

* wall-clock reads used as data: ``time.time`` / ``time.time_ns`` /
  ``time.monotonic`` / ``time.monotonic_ns``
  (``time.perf_counter`` is allowed -- it only ever feeds the
  ``compare=False`` timing metadata of reports);
* ``datetime.now`` / ``datetime.utcnow`` / ``datetime.today`` /
  ``date.today``;
* module-level ``random.*`` calls (``random.random``,
  ``random.randint``, ...).  Seeded ``random.Random(...)`` instances
  are fine -- the hazard is the shared, implicitly-seeded module
  state;
* ``uuid.uuid1`` / ``uuid.uuid4`` and ``os.urandom``;
* iterating directly over a set: ``for x in {...}``, ``for x in
  set(...)``/``frozenset(...)`` or a set comprehension.  Set iteration
  order is hash-seed dependent across processes; sort first.

Intentional exceptions carry the pragma comment ``# det-lint: allow``
on the offending line (append a reason after the pragma).  A module
whose *header* (docstring / first ~40 lines) declares
``det-lint: wall-clock-boundary`` is a sanctioned wall-clock boundary:
plain wall-clock reads (``time.time`` / ``time.time_ns``) pass there
without per-line pragmas, while every *other* rule still applies.
Exactly one such boundary exists (:mod:`repro.obs.clock`); worker-side
call sites use its ``metadata_wall_clock()`` instead of pragma lines.
Exit code is 1 when any unwaived finding remains, 0 otherwise;
``--format json`` emits machine-readable findings for CI artifacts.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Modules that execute inside campaign worker processes (or feed
#: them data that must be reproducible).
DEFAULT_TARGETS = (
    "src/repro/abstraction",
    "src/repro/lint",
    "src/repro/mutation",
    "src/repro/obs",
    "src/repro/rtl",
    "src/repro/faults.py",
)

PRAGMA = "det-lint: allow"

#: Module-header declaration marking the one sanctioned wall-clock
#: boundary (see :mod:`repro.obs.clock`).  Scoped narrowly: it only
#: waives plain wall-clock reads, and only when declared in the first
#: :data:`BOUNDARY_HEADER_LINES` lines (the docstring), so a stray
#: comment deep in a module cannot silently widen the waiver.
WALL_CLOCK_BOUNDARY = "det-lint: wall-clock-boundary"
BOUNDARY_HEADER_LINES = 40

#: The only findings a wall-clock-boundary module is excused from.
BOUNDARY_WAIVED_CALLS = {("time", "time"), ("time", "time_ns")}

#: ``module.attr`` call targets that read nondeterministic sources.
FORBIDDEN_CALLS = {
    ("time", "time"): "wall-clock read (time.time)",
    ("time", "time_ns"): "wall-clock read (time.time_ns)",
    ("time", "monotonic"): "clock read used as data (time.monotonic)",
    ("time", "monotonic_ns"): "clock read used as data "
                              "(time.monotonic_ns)",
    ("datetime", "now"): "wall-clock read (datetime.now)",
    ("datetime", "utcnow"): "wall-clock read (datetime.utcnow)",
    ("datetime", "today"): "wall-clock read (datetime.today)",
    ("date", "today"): "wall-clock read (date.today)",
    ("uuid", "uuid1"): "nondeterministic id (uuid.uuid1)",
    ("uuid", "uuid4"): "nondeterministic id (uuid.uuid4)",
    ("os", "urandom"): "entropy read (os.urandom)",
}

#: ``random.<fn>`` module-level functions sharing implicit global
#: state.  ``random.Random`` is deliberately absent: an explicitly
#: constructed (and therefore seedable) generator is the sanctioned
#: way to get reproducible pseudo-randomness.
RANDOM_MODULE_FUNCTIONS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "expovariate",
    "getrandbits", "triangular", "seed",
}


def _call_target(node: ast.Call) -> "tuple[str, str] | None":
    """``module.attr`` of a call like ``time.time()`` (best-effort:
    only plain ``Name.attr`` shapes; aliased imports are out of scope
    for a style gate)."""
    fn = node.func
    if isinstance(fn, ast.Attribute) and isinstance(fn.value, ast.Name):
        return fn.value.id, fn.attr
    return None


def _is_set_expression(node: ast.AST) -> bool:
    """Expressions whose iteration order is hash-seed dependent."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def scan_source(source: str, path: str) -> "list[dict]":
    """All determinism findings of one module's source text (pragma
    suppression already applied)."""
    tree = ast.parse(source, filename=path)
    lines = source.splitlines()
    findings: "list[dict]" = []
    boundary = any(
        WALL_CLOCK_BOUNDARY in line
        for line in lines[:BOUNDARY_HEADER_LINES]
    )

    def allowed(lineno: int) -> bool:
        return (
            0 < lineno <= len(lines) and PRAGMA in lines[lineno - 1]
        )

    def report(node: ast.AST, problem: str) -> None:
        if allowed(node.lineno):
            return
        findings.append({
            "file": path,
            "line": node.lineno,
            "problem": problem,
            "source": lines[node.lineno - 1].strip()
            if node.lineno <= len(lines) else "",
        })

    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            target = _call_target(node)
            if target in FORBIDDEN_CALLS:
                if not (boundary and target in BOUNDARY_WAIVED_CALLS):
                    report(node, FORBIDDEN_CALLS[target])
            elif target is not None and target[0] == "random" and \
                    target[1] in RANDOM_MODULE_FUNCTIONS:
                report(
                    node,
                    f"module-level random.{target[1]} (use a seeded "
                    "random.Random instance)",
                )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if _is_set_expression(node.iter):
                report(node, "iteration over a set (order is "
                             "hash-seed dependent; sort first)")
        elif isinstance(node, (ast.ListComp, ast.SetComp,
                               ast.GeneratorExp, ast.DictComp)):
            for gen in node.generators:
                if _is_set_expression(gen.iter):
                    report(node, "comprehension over a set (order is "
                                 "hash-seed dependent; sort first)")

    return findings


def scan_paths(targets: "list[Path]") -> "list[dict]":
    findings: "list[dict]" = []
    for target in targets:
        files = (
            sorted(target.rglob("*.py")) if target.is_dir() else [target]
        )
        for file in files:
            rel = file.resolve()
            try:
                rel = rel.relative_to(REPO_ROOT)
            except ValueError:
                pass
            findings.extend(
                scan_source(file.read_text(), str(rel))
            )
    return findings


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Reject nondeterministic constructs in worker-side "
                    "modules (see module docstring).",
    )
    parser.add_argument(
        "paths", nargs="*", default=None,
        help=f"files/directories to scan (default: "
             f"{', '.join(DEFAULT_TARGETS)})",
    )
    parser.add_argument("--format", choices=["text", "json"],
                        default="text")
    args = parser.parse_args(argv)

    targets = [
        Path(p) if Path(p).is_absolute() else REPO_ROOT / p
        for p in (args.paths or DEFAULT_TARGETS)
    ]
    missing = [t for t in targets if not t.exists()]
    if missing:
        print(f"error: no such path: "
              f"{', '.join(str(m) for m in missing)}", file=sys.stderr)
        return 2

    findings = scan_paths(targets)
    if args.format == "json":
        print(json.dumps(findings, indent=2, sort_keys=True))
    else:
        for f in findings:
            print(f"{f['file']}:{f['line']}: {f['problem']}\n"
                  f"    {f['source']}")
        print(f"determinism lint: {len(findings)} finding(s) in "
              f"{len(targets)} target(s)")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
