"""Batched multi-mutant execution: one simulation sweep per shard.

A one-simulation-per-mutant loop re-runs the full stimulus once per
mutant, yet mutants of one generated model differ only at the
``MUTANTS``-table postponement site: until the base (no active mutant)
simulation commits a new value to a mutant's target, that mutant's
committed state is provably identical to the base's.  Every TLM
campaign shard therefore runs as one batched sweep over all of its
mutants:

* one **base** instance runs the stimulus; every mutant of the shard
  starts *attached* to it, its judge fed the shared base outputs
  (stimulus decode and golden comparison paid once per sweep);
* injected models keep a per-cycle **change mask**: every commit that
  changes a mutant target's value sets that target's bit (the bit
  order is the generated ``TARGET_ATTRS`` map).  The sweep clears the
  mask and snapshots the base before each cycle; a mutant whose bit is
  set afterwards **forks** -- a fresh instance rebuilt from the
  pre-cycle snapshot with the mutant activated, which replays the
  cycle and continues solo (fork-on-first-divergence).  The mask sees
  a value that changes and reverts within one cycle, so the detector
  is exact on every design;
* a Razor base cycle whose outputs carry ``razor_stall`` forks every
  attached mutant: the solo stall handshake re-presents the stalled
  vector where the base feeds the next one;
* forked Razor mutants run to completion immediately and stop once
  the judge is settled (early-kill,
  :meth:`~repro.mutation.analysis.RazorMutantJudge.settled`);
* forked Counter mutants step in lockstep with the base and
  **re-join** (re-attach) once their committed state converges back
  to the base's -- on the slowly-toggling decimated endpoints of the
  filter IP this recovers most of the sweep sharing.

Reports are therefore **field-identical** to the serial,
one-simulation-per-mutant oracle -- same ``first_divergence``, same
``timed_out``, same cache write-back keys -- for any shard size, which
``tests/test_batched_exec.py`` locks down.
"""

from __future__ import annotations

from repro.obs import shard_count, shard_instant, shard_span

from .analysis import (
    CounterMutantJudge,
    RazorMutantJudge,
    _drive_razor,
    _functional,
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


def _change_bits(cls, group, specs) -> "dict[int, int]":
    """Each mutant's change-mask bit: its target's position in the
    generated ``TARGET_ATTRS`` map."""
    position = {name: k for k, name in enumerate(cls.TARGET_ATTRS)}
    return {i: 1 << position[specs[i].target] for i in group}


#: Instance attributes excluded from the re-join state compare: the
#: active-mutant bookkeeping always differs from the base, the change
#: mask only describes the current cycle, and the ``_tmp_``
#: postponement buffers are judged separately (the mutant's own
#: buffer must equal its committed target -- coherence; foreign
#: buffers are never written by either side).
_MUTANT_BOOKKEEPING = (
    "_mutant_kind", "_mutant_target", "_mutant_hf", "_changed",
)


def _compared_keys(base) -> "list[str]":
    """The attributes the re-join compare reads: every one but the
    bookkeeping and the ``_tmp_`` buffers.  Generated models create
    all their attributes in ``__init__``, so one list serves a whole
    sweep."""
    return [
        k for k in base.__dict__
        if k not in _MUTANT_BOOKKEEPING and not k.startswith("_tmp_")
    ]


def _rejoined(mutant, base, keys, target_attr: str) -> bool:
    """Whether a forked mutant's committed state has converged back to
    the base's, making it safe to re-attach: every compared attribute
    (``keys``) equal and the postponement buffer coherent with the
    committed target value."""
    md, bd = mutant.__dict__, base.__dict__
    for k in keys:
        if md[k] != bd[k]:
            return False
    return md["_tmp_" + target_attr] == md[target_attr]


def _sweep_razor(cls, group, specs, stimuli, recovery, golden):
    """One Razor sweep: attached mutants ride the base simulation; a
    mutant forks the cycle the base changes its register or stalls,
    and then runs to completion solo with early-kill."""
    recovery_bit = 1 if recovery else 0
    bits = _change_bits(cls, group, specs)
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
        base._changed = 0
        snapshot = _copy_state(base.__dict__)
        outs = base.b_transport({**inputs, "razor_r": recovery_bit})
        functional = _functional(outs, golden.functional_ports)
        # -1 has every bit set: a stall forks every attached mutant.
        changed = -1 if outs.get("razor_stall", 0) else base._changed
        still = []
        for i in attached:
            if changed & bits[i]:
                # Every earlier cycle was stall-free (a stall forks
                # all attached mutants), so the solo run enters this
                # cycle with exactly ``cyc`` budget units spent.
                shard_count("batch_forks")
                mutant = _fork(cls, snapshot, i)
                with shard_span("batch.fork", index=i, cycle=cyc):
                    timed_out = _drive_razor(
                        mutant, stimuli, recovery_bit, judges[i],
                        position=cyc, budget=budget_total - cyc,
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


def _sweep_counter(cls, group, specs, stimuli, golden):
    """One Counter sweep: attached mutants ride the base simulation,
    fork the cycle the base changes their endpoint (their HF samples
    then lag the base's) and re-attach once their state converges
    back.  Each mutant is judged on the ``meas_val`` lane of its
    register in the generated ``COUNTER_TAP_ORDER``."""
    thresholds = getattr(cls, "LUT_THRESHOLDS", {}) or {}
    tap_order = cls.COUNTER_TAP_ORDER
    attrs = cls.TARGET_ATTRS
    bits = _change_bits(cls, group, specs)
    judges = {}
    for i in group:
        spec = specs[i]
        judges[i] = CounterMutantJudge(
            i, spec, golden,
            lo=8 * tap_order.index(spec.register),
            threshold=thresholds.get(spec.register, 8),
        )
    base = cls()
    keys = _compared_keys(base)
    attached = list(group)
    forked = []
    for cyc, inputs in enumerate(stimuli):
        base._changed = 0
        snapshot = _copy_state(base.__dict__) if attached else None
        outs = base.b_transport(dict(inputs))
        functional = _functional(outs, golden.functional_ports)
        changed = base._changed
        still_attached = []
        for i in attached:
            if changed & bits[i]:
                shard_count("batch_forks")
                shard_instant("batch.fork", index=i, cycle=cyc)
                forked.append((i, _fork(cls, snapshot, i)))
            else:
                judges[i].observe(outs, functional=functional)
                still_attached.append(i)
        attached = still_attached
        still = []
        for i, mutant in forked:
            m_outs = mutant.b_transport(dict(inputs))
            judges[i].observe(m_outs)
            if m_outs == outs and _rejoined(
                mutant, base, keys, attrs[specs[i].target]
            ):
                shard_count("batch_rejoins")
                shard_instant("batch.rejoin", index=i, cycle=cyc)
                attached.append(i)
            else:
                still.append((i, mutant))
        forked = still
    return {i: judges[i].finish() for i in group}


def run_batched_shard(shard) -> "list":
    """Evaluate a shard's mutants in one batched sweep; outcomes are
    returned in ``shard.indices`` order."""
    cls = shard.injected.compiled_class()
    specs = shard.injected.mutants
    stimuli = list(shard.stimuli)
    with shard_span("batch.sweep", mutants=len(shard.indices),
                    sensor=shard.sensor_type):
        if shard.sensor_type == "razor":
            outcomes = _sweep_razor(
                cls, shard.indices, specs, stimuli, shard.recovery,
                shard.golden,
            )
        else:
            outcomes = _sweep_counter(
                cls, shard.indices, specs, stimuli, shard.golden,
            )
    return [outcomes[i] for i in shard.indices]
