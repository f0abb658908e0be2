"""Batched multi-mutant execution: one simulation sweep per shard.

A one-simulation-per-mutant loop re-runs the full stimulus once per
mutant, yet mutants of one generated model differ only at the
``MUTANTS``-table postponement site: until the postponed target
actually changes value, a mutant's committed state is provably
identical to the base (no active mutant) simulation.  Every TLM
campaign shard therefore runs as one batched sweep over all of its
mutants:

* one **base** instance runs the stimulus; every mutant of the shard
  starts *attached* to it, its judge fed the shared base outputs
  (stimulus decode and golden comparison paid once per sweep);
* before each cycle the sweep snapshots the base state and the
  attached targets' committed values; a mutant whose target changed
  during the cycle **forks** -- a fresh instance rebuilt from the
  pre-cycle snapshot with the mutant activated, which replays the
  cycle and continues solo (fork-on-first-divergence);
* forked Razor mutants run to completion immediately with
  **early-kill**: the drive stops once the judge is settled
  (:meth:`~repro.mutation.analysis.RazorMutantJudge.settled`);
* forked Counter mutants step in lockstep with the base and
  **re-join** (re-attach) once their committed state converges back
  to the base's -- on the slowly-toggling decimated endpoints of the
  filter IP this recovers most of the sweep sharing.  (Counter
  mutants applying at HF tick 1 never reach a sweep: they are
  state-identical to the base at every observation point, so
  :func:`~repro.mutation.campaign.prepare_campaign` judges them from
  the golden trace.)

The cycle-boundary value compare is an exact divergence detector only
for targets the generator proved immune to change-and-revert within a
cycle (``BATCH_SAFE_TARGETS``, emitted by
:meth:`repro.abstraction.codegen._Generator._batch_safe_targets`);
mutants on any other target fall back to the plain per-mutant runner
(:func:`~repro.mutation.analysis._run_razor_mutant` /
``_run_counter_mutant``).  Reports are therefore **field-identical**
to the serial, one-simulation-per-mutant oracle -- same
``first_divergence``, same ``timed_out``, same cache write-back keys
-- for any shard size, which ``tests/test_batched_exec.py`` locks down.
"""

from __future__ import annotations

from repro.obs import shard_count, shard_instant, shard_span

from .analysis import (
    CounterMutantJudge,
    RazorMutantJudge,
    _drive_razor,
    _functional,
    _run_counter_mutant,
    _run_razor_mutant,
)

__all__ = ["run_batched_shard"]


def _copy_state(state: dict) -> dict:
    """Copy a generated model's ``__dict__``: values are immutable
    (ints / logic vectors) except the in-place-mutated lists (memory
    arrays, measurement pipelines), which are copied shallowly.  Called
    once per snapshot *and* once per fork so no two instances ever
    alias a list."""
    return {
        k: (
            list(v) if v.__class__ is list
            else dict(v) if v.__class__ is dict
            else v
        )
        for k, v in state.items()
    }


def _fork(cls, snapshot: dict, index: int):
    """Rebuild a solo mutant from a pre-cycle base snapshot.  At an
    undiverged cycle boundary the solo mutant's committed state equals
    the base's, and ``activate_mutant`` re-seeds its postponement
    buffer from the committed value -- so the fork is exactly the state
    the solo run would have carried into this cycle."""
    mutant = cls.__new__(cls)
    mutant.__dict__.update(_copy_state(snapshot))
    mutant.activate_mutant(index)
    return mutant


#: Instance attributes excluded from the re-join state compare: the
#: active-mutant bookkeeping always differs from the base, and the
#: ``_tmp_`` postponement buffers are judged separately (the mutant's
#: own buffer must equal its committed target -- coherence; foreign
#: buffers are never written by either side).
_MUTANT_BOOKKEEPING = ("_mutant_kind", "_mutant_target", "_mutant_hf")


def _rejoined(mutant, base, target_attr: str) -> bool:
    """Whether a forked mutant's committed state has converged back to
    the base's, making it safe to re-attach: every non-bookkeeping
    attribute equal and the postponement buffer coherent with the
    committed target value."""
    md = mutant.__dict__
    for k, v in base.__dict__.items():
        if k in _MUTANT_BOOKKEEPING or k.startswith("_tmp_"):
            continue
        if md[k] != v:
            return False
    return md["_tmp_" + target_attr] == md[target_attr]


def _sweep_razor(cls, group, specs, stimuli, recovery, golden, safe):
    """One Razor sweep: attached mutants ride the base simulation; a
    mutant forks the cycle its register first changes at the rising
    edge (the only cycle its postponed commit can make the main/shadow
    compare fire) and then runs to completion solo with early-kill."""
    recovery_bit = 1 if recovery else 0
    judges = {
        i: RazorMutantJudge(i, specs[i], golden, recovery) for i in group
    }
    outcomes = {}
    attached = list(group)
    base = cls()
    budget_total = 3 * len(stimuli) + 8
    for cyc, inputs in enumerate(stimuli):
        if not attached:
            break
        snapshot = _copy_state(base.__dict__)
        pre = [
            (i, getattr(base, safe[specs[i].target])) for i in attached
        ]
        outs = base.b_transport({**inputs, "razor_r": recovery_bit})
        functional = _functional(outs, golden.functional_ports)
        still = []
        for i, pre_value in pre:
            if getattr(base, safe[specs[i].target]) != pre_value:
                # The shared prefix was stall-free (the base never
                # raises an error), so the solo run enters this cycle
                # with exactly ``cyc`` budget units spent.
                shard_count("batch_forks")
                mutant = _fork(cls, snapshot, i)
                with shard_span("batch.fork", index=i, cycle=cyc):
                    timed_out = _drive_razor(
                        mutant, stimuli, recovery_bit, judges[i],
                        position=cyc, budget=budget_total - cyc,
                        early_kill=True,
                    )
                if not timed_out and judges[i].settled():
                    # The drive stopped before consuming every
                    # stimulus: the early-kill saving this sweep
                    # exists for.
                    shard_count("batch_early_kills")
                    shard_instant("batch.early_kill", index=i)
                outcomes[i] = judges[i].finish(timed_out)
            else:
                judges[i].observe(outs, functional=functional)
                still.append(i)
        attached = still
    for i in attached:
        outcomes[i] = judges[i].finish(False)
    return outcomes


def _sweep_counter(cls, group, specs, stimuli, tap_order, golden, safe):
    """One Counter sweep: attached mutants ride the base simulation,
    fork the cycle their endpoint changes (their HF samples then lag
    the base's) and re-attach once their state converges back."""
    thresholds = getattr(cls, "LUT_THRESHOLDS", {}) or {}
    judges = {}
    for i in group:
        spec = specs[i]
        judges[i] = CounterMutantJudge(
            i, spec, golden,
            lo=8 * tap_order.index(spec.register),
            threshold=thresholds.get(spec.register, 8),
        )
    base = cls()
    attached = list(group)
    forked = []
    for cyc, inputs in enumerate(stimuli):
        snapshot = _copy_state(base.__dict__) if attached else None
        pre = [(i, getattr(base, safe[specs[i].target])) for i in attached]
        outs = base.b_transport(dict(inputs))
        functional = _functional(outs, golden.functional_ports)
        newly_forked = []
        for i, pre_value in pre:
            if getattr(base, safe[specs[i].target]) != pre_value:
                attached.remove(i)
                shard_count("batch_forks")
                shard_instant("batch.fork", index=i, cycle=cyc)
                newly_forked.append((i, _fork(cls, snapshot, i)))
        for i in attached:
            judges[i].observe(outs, functional=functional)
        still = []
        for i, mutant in forked + newly_forked:
            m_outs = mutant.b_transport(dict(inputs))
            judges[i].observe(m_outs)
            if m_outs == outs and _rejoined(
                mutant, base, safe[specs[i].target]
            ):
                shard_count("batch_rejoins")
                shard_instant("batch.rejoin", index=i, cycle=cyc)
                attached.append(i)
            else:
                still.append((i, mutant))
        forked = still
    return {i: judges[i].finish() for i in group}


def run_batched_shard(shard) -> "list":
    """Evaluate a shard's mutants in one batched sweep.  Mutants whose
    target is not in the generated model's ``BATCH_SAFE_TARGETS`` map
    (or any mutant of a model generated without one) run the plain
    per-mutant path; outcomes are returned in ``shard.indices`` order
    either way."""
    stimuli = list(shard.stimuli)
    tap_order = list(shard.tap_order)
    specs = shard.injected.mutants
    cls = shard.injected.compiled_class()
    safe = getattr(cls, "BATCH_SAFE_TARGETS", None) or {}
    razor = shard.sensor_type == "razor"

    outcomes: "dict[int, object]" = {}
    group = []
    for index in shard.indices:
        if specs[index].target in safe:
            group.append(index)
            continue
        mutant = shard.injected.instantiate()
        mutant.activate_mutant(index)
        if razor:
            outcomes[index] = _run_razor_mutant(
                index, specs[index], mutant, stimuli,
                shard.recovery, shard.golden,
            )
        else:
            outcomes[index] = _run_counter_mutant(
                index, specs[index], mutant, stimuli, tap_order,
                shard.golden,
            )
    if group:
        with shard_span("batch.sweep", mutants=len(group),
                        sensor=shard.sensor_type):
            if razor:
                outcomes.update(_sweep_razor(
                    cls, group, specs, stimuli, shard.recovery,
                    shard.golden, safe,
                ))
            else:
                outcomes.update(_sweep_counter(
                    cls, group, specs, stimuli, tap_order, shard.golden,
                    safe,
                ))
    return [outcomes[i] for i in shard.indices]
