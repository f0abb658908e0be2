"""ADAM -- Automatic Delay Analysis and Mutation (paper Section 8.4).

The paper's ADAM tool takes the names of the RTL signals connected to
the delay monitors plus the mutant classes to inject, and applies the
code modifications automatically.  This reproduction drives the TLM
code generator in injection mode:

* for **Razor** versions, every monitored register receives a
  *minimum delay* and a *maximum delay* mutant (2 per sensor; the
  paper's Table 5 has 29 paths -> 58 mutants);
* for **Counter** versions, every monitored endpoint receives the two
  window-extreme mutants plus a *delta delay* mutant whose HF tick is
  drawn, deterministically per register, between the path's nominal
  delay and the window end (3 per sensor; the paper has 29 paths ->
  87 mutants).

Here plasma / dsp / filter have 4 / 9 / 27 monitored paths, so the
three IPs get 80 Razor and 120 Counter mutants (pinned in
``tests/test_paper_tables.py``).  Counter *errors risen* is
33.3 / 40.7 / 39.5 % against the paper's 66.7 / 88.4 / 50.1 %: most
monitored endpoints arrive at nominal HF tick 3 (4-7 on the dsp), and
only ticks above the LUT threshold of 8 raise an error, so besides the
max mutants only the delta ticks drawn at 9 raise one (0 on plasma,
2 on dsp, 5 on filter).
"""

from __future__ import annotations

import hashlib

from repro.abstraction import GeneratedTlm, generate_tlm
from repro.sensors.insertion import AugmentedIP

__all__ = ["inject_mutants", "delta_tick_plan"]


def _stable_hash(text: str) -> int:
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big")


def delta_tick_plan(augmented: AugmentedIP) -> "dict[str, int]":
    """HF tick for each monitored register's delta mutant.

    The tick is drawn from ``(nominal_hf, ratio]`` -- a genuine
    degradation beyond the path's nominal arrival but still inside the
    observability window -- deterministically per register name.
    """
    if augmented.sensor_type != "counter":
        return {}
    ratio = augmented.hf_ratio
    hf_period = augmented.hf_period_ps()
    plan: dict[str, int] = {}
    for path in augmented.monitored:
        endpoint = augmented.endpoint_of[path.endpoint]
        nominal = augmented.nominal_delay_of[endpoint]
        nominal_hf = -(-nominal // hf_period)  # ceil
        low = min(nominal_hf + 1, ratio)
        span = max(1, ratio - low)
        tick = low + _stable_hash(path.endpoint.name) % span
        plan[path.endpoint.name] = min(tick, ratio - 1) if ratio > low else low
    return plan


def inject_mutants(
    augmented: AugmentedIP,
    *,
    variant: str = "hdtlib",
) -> GeneratedTlm:
    """Generate the mutant-injected TLM model of an augmented IP."""
    return generate_tlm(
        augmented.module,
        variant=variant,
        augmented=augmented,
        inject_mutants=True,
        delta_mutant_ticks=delta_tick_plan(augmented),
    )
