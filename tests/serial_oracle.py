"""The serial, unpruned campaign oracle shared by the equivalence tests.

Every TLM campaign now prunes statically equivalent and duplicate
mutants and runs each shard as one batched sweep.  The reference those
paths must reproduce is the plain loop they replaced: one fresh model
instance per mutant, driven through the per-mutant runners
(:func:`~repro.mutation.analysis._run_razor_mutant` /
``_run_counter_mutant``) against one golden trace from
:func:`~repro.mutation.analysis.compute_golden_trace`.  Import it as
``from serial_oracle import ...`` (pytest puts ``tests/`` on the path).
"""

from repro.abstraction import GeneratedTlm
from repro.mutation import MutationReport, compute_golden_trace
from repro.mutation.analysis import _run_counter_mutant, _run_razor_mutant


def _tap_order(injected):
    order = getattr(injected.compiled_class(), "COUNTER_TAP_ORDER", ())
    if order:
        return list(order)
    return list(dict.fromkeys(spec.register for spec in injected.mutants))


def serial_report(golden, injected, stimuli, *, ip_name="ip",
                  sensor_type="razor", recovery=True) -> MutationReport:
    """The oracle report: every mutant simulated on its own fresh
    instance, none pruned, none batched.  ``golden`` is a
    :class:`GeneratedTlm` or a factory of fresh golden models."""
    model = (golden.instantiate() if isinstance(golden, GeneratedTlm)
             else golden())
    trace = compute_golden_trace(model, stimuli, sensor_type=sensor_type,
                                 recovery=recovery)
    tap_order = _tap_order(injected) if sensor_type == "counter" else []
    outcomes = []
    for index, spec in enumerate(injected.mutants):
        mutant = injected.instantiate()
        mutant.activate_mutant(index)
        if sensor_type == "razor":
            outcomes.append(_run_razor_mutant(
                index, spec, mutant, stimuli, recovery, trace
            ))
        else:
            outcomes.append(_run_counter_mutant(
                index, spec, mutant, stimuli, tap_order, trace
            ))
    return MutationReport(
        ip_name=ip_name,
        sensor_type=sensor_type,
        variant=injected.variant,
        outcomes=outcomes,
        cycles_per_run=len(stimuli),
    )


def assert_matches_oracle(report, oracle) -> None:
    """Field identity with the oracle: the scored report plus every
    verdict field of every mutant (``first_divergence`` and
    ``timed_out`` included)."""
    assert report == oracle
    assert report.outcomes == oracle.outcomes
    assert report.cycles_per_run == oracle.cycles_per_run
