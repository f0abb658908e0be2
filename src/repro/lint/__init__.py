"""Static analysis tier: IR linting and pre-execution mutant pruning.

Two halves, both decidable from the IR / generated model alone -- no
simulation:

* :mod:`repro.lint.ir_lint` -- structural netlist checks
  (combinational loops, multi-drivers, width corruption, inferred
  latches, connectivity, X-sources) producing structured
  :class:`~repro.lint.findings.LintFinding` records with a severity
  model and per-IP waivers;
* :mod:`repro.lint.mutants` -- static classification of a ``MUTANTS``
  table into equivalent / duplicate / must-execute entries, applied
  by :func:`repro.mutation.campaign.prepare_campaign` to every
  campaign to cut executed-mutant counts without changing a single
  verdict.

Exposed on the CLI as ``repro lint`` and run automatically in front of
every :func:`repro.flow.run_flow` mutation campaign.
"""

from .findings import (
    SEVERITIES,
    LintFinding,
    LintGateError,
    LintReport,
    Waiver,
    apply_waivers,
    load_waiver_file,
    waivers_for_ip,
)
from .ir_lint import CHECKS, lint_module
from .mutants import (
    PrunePlan,
    clone_outcome,
    judge_equivalent,
    plan_pruning,
)

__all__ = [
    "SEVERITIES",
    "CHECKS",
    "LintFinding",
    "LintGateError",
    "LintReport",
    "Waiver",
    "apply_waivers",
    "load_waiver_file",
    "waivers_for_ip",
    "lint_module",
    "PrunePlan",
    "plan_pruning",
    "judge_equivalent",
    "clone_outcome",
]
