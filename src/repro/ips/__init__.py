"""Case-study IPs and their registry.

Each case study exposes a *factory* (fresh module per call -- sensor
insertion mutates the tree in place) plus its testbench stimulus and
operating point.  :data:`CASE_STUDIES` is the registry the end-to-end
flow and the benchmark harness iterate over; the entries correspond
one-to-one to the rows of the paper's Tables 1-5.
"""

from __future__ import annotations

from dataclasses import dataclass

from .dsp import DSP_FCLK_GHZ, DSP_PERIOD_PS, DSP_VDD, build_dsp, flow_stimulus
from .filter import (
    FILTER_FCLK_GHZ,
    FILTER_PERIOD_PS,
    FILTER_VDD,
    build_filter,
    pdm_stimulus,
)
from .plasma import (
    PLASMA_FCLK_GHZ,
    PLASMA_PERIOD_PS,
    PLASMA_VDD,
    build_plasma,
    fibonacci_program,
    plasma_stimulus,
)

__all__ = ["IpSpec", "CASE_STUDIES", "case_study"]


@dataclass(frozen=True)
class IpSpec:
    """One case study: factory, operating point, testbench."""

    name: str
    title: str
    factory: "callable"            # () -> (Module, clk)
    stimulus: "callable"           # (n) -> list[dict[str, int]]
    clock_period_ps: int
    vdd: float
    fclk_ghz: float
    #: slack threshold (ps) used for critical-path binning; chosen per
    #: IP so the monitored-path count is a realistic fraction of the
    #: register endpoints, as in the paper's Table 2.
    slack_threshold_ps: float
    #: testbench length (cycles) needed to stimulate every monitored
    #: endpoint at least a few times (the filter decimates by 32, so
    #: its output registers move only every 32 cycles).
    mutation_cycles: int = 64
    description: str = ""


def _plasma_factory():
    return build_plasma(fibonacci_program())


CASE_STUDIES: "dict[str, IpSpec]" = {
    "plasma": IpSpec(
        name="plasma",
        title="Plasma (MIPS R3000A subset)",
        factory=_plasma_factory,
        stimulus=plasma_stimulus,
        clock_period_ps=PLASMA_PERIOD_PS,
        vdd=PLASMA_VDD,
        fclk_ghz=PLASMA_FCLK_GHZ,
        slack_threshold_ps=4300.0,
        # long enough for the Fibonacci program to reach its halt store,
        # so the 'halted' register endpoint toggles under the testbench
        mutation_cycles=110,
        description="open-source MIPS I core running a Fibonacci workload",
    ),
    "dsp": IpSpec(
        name="dsp",
        title="Heart-rate DSP",
        factory=build_dsp,
        stimulus=flow_stimulus,
        clock_period_ps=DSP_PERIOD_PS,
        vdd=DSP_VDD,
        fclk_ghz=DSP_FCLK_GHZ,
        slack_threshold_ps=300.0,
        mutation_cycles=72,
        description="blood-flow filtering and pulse detection pipeline",
    ),
    "filter": IpSpec(
        name="filter",
        title="MEMS decimation filter",
        factory=build_filter,
        stimulus=pdm_stimulus,
        clock_period_ps=FILTER_PERIOD_PS,
        vdd=FILTER_VDD,
        fclk_ghz=FILTER_FCLK_GHZ,
        slack_threshold_ps=830.0,
        mutation_cycles=384,
        description="PDM-to-PCM decimation chain of a smart microphone",
    ),
}


def case_study(name: str) -> IpSpec:
    try:
        return CASE_STUDIES[name]
    except KeyError:
        raise KeyError(
            f"unknown case study {name!r}; have {sorted(CASE_STUDIES)}"
        ) from None

