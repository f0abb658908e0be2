"""Delay mutants: ADAM injection, TLM campaign, RTL cross-validation.

Campaign execution goes through the sharded engine in
:mod:`repro.mutation.campaign` and the streaming cross-IP scheduler in
:mod:`repro.mutation.scheduler`: the golden stimulus run is memoised
once per campaign (it is mutant-independent), mutants are batched into
shards so the generated-model source is compiled once per shard, and
shards execute on a persistent :class:`CampaignScheduler` worker pool
-- ``workers=1`` runs inline, ``workers=N`` shards across ``N``
processes with a deterministic merge (byte-identical
:class:`MutationReport` for any worker count, any shard size, and
shared or ephemeral pools).

Three consumption styles share that machinery:

* :func:`run_campaign` / :func:`run_mutation_analysis` -- blocking,
  one merged report per campaign (the historical signatures, now with
  ``scheduler=`` / ``progress=``);
* :func:`iter_campaign` -- streaming: yields each
  :class:`MutantOutcome` as its shard completes, with
  :class:`CampaignProgress` callbacks and :class:`AbortPolicy`
  early-abort (first survivor / score threshold);
* :func:`run_benchmark_suite` -- cross-IP batching: every
  ``IP x sensor type`` campaign prepared up front, shards interleaved
  round-robin on one shared pool so small campaigns backfill idle
  slots (``rtl_validation=True`` interleaves
  :class:`RtlValidationShard` units on the same pool).

All four styles accept ``cache=`` (a :class:`ResultCache` from
:mod:`repro.mutation.cache`): verdicts are content-addressed by
(model fingerprint, stimuli/golden hash, mutant spec, sensor type,
judgement parameters), so re-running an unchanged campaign replays
instantly and only mutants invalidated by a real change execute.

Score accounting excludes timed-out (stall-budget-truncated) runs from
every aggregate percentage -- see
:class:`repro.mutation.analysis.MutationReport.effective_total`.
"""

from .adam import delta_tick_plan, inject_mutants
from .analysis import (
    SENSOR_PORTS,
    GoldenTrace,
    MutantOutcome,
    MutationReport,
    compute_golden_trace,
    run_mutation_analysis,
)
from .cache import ResultCache, shard_entry_keys
from .campaign import (
    CampaignShard,
    PreparedCampaign,
    ShardResult,
    prepare_campaign,
    resolve_tap_order,
    run_campaign,
    shard_indices,
)
from .placement import (
    LocalPoolPlacement,
    PlacementLostError,
    PoisonShardError,
    ShardPlacement,
    SupervisedFuture,
)
from .rtl_validation import (
    PreparedRtlValidation,
    RtlMutantOutcome,
    RtlValidationReport,
    RtlValidationShard,
    cross_level_disagreements,
    prepare_rtl_validation,
    validate_at_rtl,
)
from .saboteurs import Saboteur, insert_saboteur
from .scheduler import (
    AbortPolicy,
    CampaignProgress,
    CampaignScheduler,
    SuiteResult,
    iter_campaign,
    run_benchmark_suite,
    stream_shard_batches,
)

__all__ = [
    "Saboteur",
    "insert_saboteur",
    "delta_tick_plan",
    "inject_mutants",
    "SENSOR_PORTS",
    "GoldenTrace",
    "MutantOutcome",
    "MutationReport",
    "compute_golden_trace",
    "run_mutation_analysis",
    "CampaignShard",
    "PreparedCampaign",
    "ShardResult",
    "prepare_campaign",
    "resolve_tap_order",
    "run_campaign",
    "shard_indices",
    "AbortPolicy",
    "CampaignProgress",
    "CampaignScheduler",
    "SuiteResult",
    "iter_campaign",
    "run_benchmark_suite",
    "stream_shard_batches",
    "ResultCache",
    "shard_entry_keys",
    "ShardPlacement",
    "LocalPoolPlacement",
    "PlacementLostError",
    "PoisonShardError",
    "SupervisedFuture",
    "PreparedRtlValidation",
    "RtlMutantOutcome",
    "RtlValidationReport",
    "RtlValidationShard",
    "cross_level_disagreements",
    "prepare_rtl_validation",
    "validate_at_rtl",
]
