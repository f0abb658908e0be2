"""MEMS-microphone decimation filter (case study 3, paper Table 1).

Chain: 1-bit PDM input -> 3rd-order CIC decimator (/16) ->
compensation FIR (droop correction) -> half-band FIR (/2) -> 16-bit
PCM output.  Total decimation 32.

The paper's Filter IP was produced with Matlab HDL Coder from exactly
this kind of chain; structure and process granularity here follow the
same one-process-per-stage style.  Operating point (Table 1):
1.05 V / 1 GHz.
"""

from __future__ import annotations

from repro.rtl import Assign, If, Module

from .cic import add_cic
from .fir import add_fir

__all__ = [
    "build_filter",
    "FILTER_PERIOD_PS",
    "FILTER_VDD",
    "FILTER_FCLK_GHZ",
]

FILTER_PERIOD_PS = 1000  # 1 GHz
FILTER_VDD = 1.05
FILTER_FCLK_GHZ = 1.0

#: Compensation FIR: mild inverse-sinc shape.
COMP_COEFFS = [-1, 4, 26, 4, -1]
#: Half-band decimator: zeros at odd taps except the centre.
HALFBAND_COEFFS = [-3, 0, 19, 32, 19, 0, -3]

PCM_WIDTH = 16


def build_filter() -> "tuple[Module, object]":
    """Construct a fresh decimation-filter IP.

    Returns ``(module, clk)``; every call builds an independent
    instance (required because sensor insertion mutates the tree).
    """
    m = Module("filter_ip")
    clk = m.input("clk")
    pdm_in = m.input("pdm_in")
    pcm_out = m.output("pcm_out", PCM_WIDTH)
    pcm_valid = m.output("pcm_valid")
    peak_hold = m.output("peak_hold", PCM_WIDTH)

    cic_out, cic_valid = add_cic(m, clk, pdm_in)

    comp_out, comp_valid = add_fir(
        m, clk, cic_out, cic_valid, COMP_COEFFS,
        prefix="comp", out_width=PCM_WIDTH, shift=5,
    )

    # Half-band stage consumes every other compensation sample.
    hb_toggle = m.signal("hb_toggle")
    hb_strobe = m.signal("hb_strobe")
    m.sync("hb_toggle_p", clk, [
        If(comp_valid.eq(1), [Assign(hb_toggle, ~hb_toggle)]),
        Assign(hb_strobe, comp_valid & hb_toggle),
    ])
    hb_out, hb_valid = add_fir(
        m, clk, comp_out, hb_strobe, HALFBAND_COEFFS,
        prefix="hb", out_width=PCM_WIDTH, shift=6,
    )

    m.comb("drive_out", [Assign(pcm_out, hb_out)])
    m.comb("drive_valid", [Assign(pcm_valid, hb_valid)])

    # Peak-hold register: a small post-processing feature microphones
    # expose for AGC; also a useful observable register endpoint.
    peak = m.signal("peak", PCM_WIDTH)
    m.sync("peak_p", clk, [
        If(hb_valid.eq(1) & hb_out.gt_s(peak), [Assign(peak, hb_out)]),
    ])
    m.comb("drive_peak", [Assign(peak_hold, peak)])
    return m, clk
