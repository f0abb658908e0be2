"""Heart-rate detection DSP (case study 2, paper Table 1).

The paper's DSP is the digital subsystem of a laser-Doppler blood-flow
imager: digital filters and integrators extracting the pulse rate from
the flow waveform.  This implementation follows the classic
Pan-Tompkins-style pipeline used by such front ends:

``sample -> band-pass FIR -> derivative -> squaring ->
moving-window integrator -> adaptive-threshold peak detector ->
inter-beat-interval counter -> rate register``

Operating point (Table 1): 1.05 V / 2 GHz.  The datapath is modest in
width but deep in registers, which is what makes its multiplier/MAC
stages the STA-critical paths.
"""

from __future__ import annotations

from repro.rtl import (
    Assign,
    If,
    Module,
    const,
    resize,
    sar,
)

__all__ = ["build_dsp", "DSP_PERIOD_PS", "DSP_VDD", "DSP_FCLK_GHZ"]

DSP_PERIOD_PS = 500  # 2 GHz
DSP_VDD = 1.05
DSP_FCLK_GHZ = 2.0

SAMPLE_WIDTH = 12
#: Band-pass FIR (8 taps): passes the pulsatile band, rejects DC.
BP_COEFFS = [-2, -1, 5, 12, 12, 5, -1, -2]
#: Moving-window integrator length (power of two for cheap division).
MWI_LEN = 8
#: Refractory period after a detected beat, in samples.
REFRACTORY = 12


def build_dsp() -> "tuple[Module, object]":
    """Construct a fresh heart-rate DSP instance."""
    m = Module("dsp_ip")
    clk = m.input("clk")
    sample_in = m.input("sample_in", SAMPLE_WIDTH)
    sample_valid = m.input("sample_valid")
    beat = m.output("beat")
    rate = m.output("rate", 8)
    energy_out = m.output("energy", 16)

    w = 16  # internal width

    # ---- band-pass FIR --------------------------------------------------
    taps = []
    previous = sample_in
    shift_stmts = []
    for i in range(len(BP_COEFFS)):
        tap = m.signal(f"bp_tap{i}", SAMPLE_WIDTH)
        shift_stmts.append(Assign(tap, previous))
        taps.append(tap)
        previous = tap
    m.sync("bp_taps_p", clk, [If(sample_valid.eq(1), shift_stmts)])

    acc = None
    for tap, coeff in zip(taps, BP_COEFFS):
        term = resize(tap, w, signed=True) * const(coeff, w)
        acc = term if acc is None else acc + term
    bp_mac = m.signal("bp_mac", w)
    m.comb("bp_mac_p", [Assign(bp_mac, acc)])
    bp_out = m.signal("bp_out", w)
    m.sync("bp_out_p", clk, [
        If(sample_valid.eq(1), [Assign(bp_out, sar(bp_mac, 4))]),
    ])

    # ---- derivative ------------------------------------------------------
    prev_bp = m.signal("deriv_prev", w)
    deriv = m.signal("deriv", w)
    m.sync("deriv_p", clk, [
        If(sample_valid.eq(1), [
            Assign(deriv, bp_out - prev_bp),
            Assign(prev_bp, bp_out),
        ]),
    ])

    # ---- squaring (energy) -----------------------------------------------
    squared = m.signal("squared", w)
    m.sync("square_p", clk, [
        If(sample_valid.eq(1), [Assign(squared, deriv * deriv)]),
    ])

    # ---- moving-window integrator ------------------------------------------
    window = []
    previous = squared
    window_stmts = []
    for i in range(MWI_LEN):
        slot = m.signal(f"mwi{i}", w)
        window_stmts.append(Assign(slot, previous))
        window.append(slot)
        previous = slot
    m.sync("mwi_shift_p", clk, [If(sample_valid.eq(1), window_stmts)])

    mwi_sum = None
    for slot in window:
        mwi_sum = slot if mwi_sum is None else mwi_sum + slot
    energy = m.signal("energy_r", w)
    m.sync("mwi_sum_p", clk, [
        If(sample_valid.eq(1), [Assign(energy, mwi_sum >> 3)]),
    ])
    m.comb("drive_energy", [Assign(energy_out, energy)])

    # ---- adaptive threshold + peak detection --------------------------------
    threshold = m.signal("threshold", w, init=200)
    refractory = m.signal("refractory", 5)
    beat_r = m.signal("beat_r")
    m.sync("detect_p", clk, [
        Assign(beat_r, 0),
        If(sample_valid.eq(1), [
            If(refractory.eq(0), [
                If(energy.gt(threshold), [
                    Assign(beat_r, 1),
                    Assign(refractory, const(REFRACTORY, 5)),
                    # Threshold climbs toward the detected peak:
                    # thr += (energy - thr) / 4
                    Assign(
                        threshold,
                        threshold + resize(
                            sar(energy - threshold, 2), w
                        ),
                    ),
                ]),
            ], [
                Assign(refractory, refractory - const(1, 5)),
                # Slow exponential decay keeps sensitivity.
                Assign(threshold, threshold - resize(sar(threshold, 6), w)),
            ]),
        ]),
    ])
    m.comb("drive_beat", [Assign(beat, beat_r)])

    # ---- inter-beat interval -> rate -----------------------------------------
    ibi_count = m.signal("ibi_count", 10)
    rate_r = m.signal("rate_r", 8)
    m.sync("rate_p", clk, [
        If(sample_valid.eq(1), [
            If(beat_r.eq(1), [
                Assign(rate_r, resize(ibi_count, 8)),
                Assign(ibi_count, 0),
            ], [
                If(ibi_count.ne(1023), [
                    Assign(ibi_count, ibi_count + const(1, 10)),
                ]),
            ]),
        ]),
    ])
    m.comb("drive_rate", [Assign(rate, rate_r)])
    return m, clk
