"""Cross-level verification of digital IPs with embedded timing monitors.

A reproduction of Guarnieri et al., *A cross-level verification
methodology for digital IPs augmented with embedded timing monitors*
(DATE 2014), in its extended TODAES 2019 form (Vinco et al.).

Subpackages
-----------
``repro.rtl``
    RTL substrate: four-valued logic, IR, event-driven delta-cycle
    simulator, VHDL backend.
``repro.sctypes`` / ``repro.hdtlib``
    The value types of the two TLM code-generation variants: the
    heavyweight ``sc_lv``-like ``ScLogicVector`` and HDTLib-like word
    operations on plain ints.
``repro.synth`` / ``repro.sta``
    Operator-level synthesis and static timing analysis used to locate
    critical path endpoints.
``repro.sensors``
    The modified Razor flip-flop, the Counter-based delay monitor and
    the automatic insertion strategy.
``repro.abstraction``
    RTL-to-TLM code generation (single- and dual-clock schedulers).
``repro.tlm``
    TLM-2.0-style payloads, sockets and LT/AT protocol drivers that
    wrap a generated model; generated models do not import it.  The
    ablation benchmarks measure the protocol overhead with it.
``repro.mutation``
    Delay mutants (minimum/maximum/delta), the ADAM injection tool and
    the mutation-analysis engine.
``repro.ips``
    The three case studies: Plasma (MIPS I subset), heart-rate DSP,
    MEMS decimation filter.
``repro.flow``
    End-to-end orchestration of the four methodology steps.
"""

__version__ = "1.0.0"
