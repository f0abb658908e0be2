"""LFSR pseudo-random stimuli for designs that ship no testbench.

The registered IPs carry their own testbenches (``repro.ips.*``); this
package generates vectors for ad-hoc designs such as the ablation
benchmarks'.
"""

from .generators import Lfsr, lfsr_vectors

__all__ = ["Lfsr", "lfsr_vectors"]
