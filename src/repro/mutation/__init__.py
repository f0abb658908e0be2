"""Delay mutants: ADAM injection, TLM campaign, RTL cross-validation.

Campaign execution goes through the sharded engine in
:mod:`repro.mutation.campaign` and the streaming cross-IP scheduler in
:mod:`repro.mutation.scheduler`: the golden stimulus run is memoised
once per campaign (it is mutant-independent), statically equivalent
mutants are pruned (:mod:`repro.lint.mutants`), the rest are grouped
into shards that each run as one batched sweep
(:mod:`repro.mutation.batched`), and shards execute on a persistent
:class:`CampaignScheduler` worker pool -- ``workers=1`` runs inline,
``workers=N`` shards across ``N`` processes with a deterministic merge
(a :class:`MutationReport` equal to the serial, unpruned oracle for any
worker count, any shard size, and shared or ephemeral pools).

Three consumption styles share that machinery:

* :func:`run_campaign` -- blocking, one merged report per campaign
  (``scheduler=`` / ``progress=`` optional);
* :func:`stream_shard_batches` -- streaming a :func:`prepare_campaign`
  result on a :class:`CampaignScheduler`: yields each shard's outcomes
  as it completes, with a :class:`CampaignProgress` snapshot and
  :class:`AbortPolicy` early-abort (first survivor / score threshold);
  the campaign service's ``/events`` feed;
* :func:`run_benchmark_suite` -- cross-IP batching: each
  ``IP x sensor type`` campaign's shards are submitted to one shared
  pool as soon as that campaign is prepared, so later campaigns
  prepare while earlier ones execute and small campaigns backfill
  idle slots (``rtl_validation=True`` submits
  :class:`RtlValidationShard` units, which replay the campaign's own
  stimuli, to the same pool).

RTL validation (:func:`validate_at_rtl`, paper Section 8.5) is
prepared the same way: :func:`prepare_rtl_validation` returns a
:class:`PreparedRtlValidation` with the interface of a
:class:`PreparedCampaign` (replayed outcomes, shard count, cache keys,
outcome encoder, ``build_report``), so one absorption path -- obs
counters and spans, then cache write-back -- serves every executed
shard of both levels, and both reports carry their shards' counters
in a ``compare=False`` ``obs`` field.  A campaign's golden is the
generated model itself (a :class:`~repro.abstraction.GeneratedTlm`),
so its golden trace is always cacheable.

All three styles accept ``cache=`` (a :class:`ResultCache` from
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
)
from .cache import ResultCache
from .campaign import (
    CampaignShard,
    PreparedCampaign,
    ShardResult,
    prepare_campaign,
    run_campaign,
)
from .placement import PoisonShardError, SupervisedFuture
from .rtl_validation import (
    PreparedRtlValidation,
    RtlMutantOutcome,
    RtlValidationReport,
    RtlValidationShard,
    cross_level_disagreements,
    prepare_rtl_validation,
    validate_at_rtl,
)
from .scheduler import (
    AbortPolicy,
    CampaignProgress,
    CampaignScheduler,
    SuiteResult,
    run_benchmark_suite,
    stream_shard_batches,
)

__all__ = [
    "delta_tick_plan",
    "inject_mutants",
    "SENSOR_PORTS",
    "GoldenTrace",
    "MutantOutcome",
    "MutationReport",
    "compute_golden_trace",
    "CampaignShard",
    "PreparedCampaign",
    "ShardResult",
    "prepare_campaign",
    "run_campaign",
    "AbortPolicy",
    "CampaignProgress",
    "CampaignScheduler",
    "SuiteResult",
    "run_benchmark_suite",
    "stream_shard_batches",
    "ResultCache",
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
