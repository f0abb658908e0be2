"""The campaign surface's knob count is pinned.

Every independently settable value of the campaign surface is a knob:
each parameter of the campaign entry points (``inspect.signature``),
each field of the work units and of a service job
(``dataclasses.fields``), and each long flag but ``--help`` of the
campaign subcommands of ``repro`` (from ``build_parser``).  Each knob
multiplies the configurations a verification plan must cover, so the
total may only move with a deliberate edit of :data:`EXPECTED`.
"""

import argparse
import dataclasses
import inspect

from repro.cli import build_parser
from repro.flow import build_augmented, run_flow
from repro.lint.mutants import plan_pruning
from repro.mutation import (
    CampaignShard,
    RtlValidationShard,
    prepare_campaign,
    prepare_rtl_validation,
    run_benchmark_suite,
    run_campaign,
    stream_shard_batches,
    validate_at_rtl,
)
from repro.sensors import insert_sensors
from repro.service.jobs import JobSpec

EXPECTED = 110

FUNCTIONS = (
    prepare_campaign, run_campaign, run_benchmark_suite, run_flow,
    build_augmented, insert_sensors, prepare_rtl_validation,
    validate_at_rtl, stream_shard_batches, plan_pruning,
)
DATACLASSES = (CampaignShard, RtlValidationShard, JobSpec)
SUBCOMMANDS = ("flow", "mutate", "bench", "submit")


def knob_counts() -> "dict[str, int]":
    """Knobs per entry of the campaign surface."""
    counts = {
        fn.__name__: len(inspect.signature(fn).parameters)
        for fn in FUNCTIONS
    }
    counts.update(
        (cls.__name__, len(dataclasses.fields(cls))) for cls in DATACLASSES
    )
    subparsers = next(
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    for name in SUBCOMMANDS:
        counts[f"repro {name}"] = sum(
            any(opt.startswith("--") for opt in action.option_strings)
            and "--help" not in action.option_strings
            for action in subparsers.choices[name]._actions
        )
    return counts


def test_knob_count_is_pinned():
    counts = knob_counts()
    total = sum(counts.values())
    table = "\n".join(f"  {name}: {n}" for name, n in counts.items())
    assert total == EXPECTED, (
        f"campaign-surface knob count is {total}, pinned at {EXPECTED}:"
        f"\n{table}"
    )
