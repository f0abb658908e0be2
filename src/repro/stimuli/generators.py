"""Stimuli generation (the "automatic stimuli generator" of Fig. 3).

The mutation analysis normally reuses the testbench shipped with the
IP (Section 7).  When no testbench is available, LFSR-based
pseudo-random vectors (the hardware-friendly classic) stand in.
"""

from __future__ import annotations

__all__ = ["Lfsr", "lfsr_vectors"]


class Lfsr:
    """Galois LFSR over 32 bits (taps of the x^32 maximal polynomial)."""

    TAPS = 0xA3000000

    def __init__(self, seed: int = 0xACE1) -> None:
        if not seed:
            raise ValueError("LFSR seed must be non-zero")
        self.state = seed & 0xFFFFFFFF

    def next(self, bits: int) -> int:
        out = 0
        for _ in range(bits):
            lsb = self.state & 1
            self.state >>= 1
            if lsb:
                self.state ^= self.TAPS
            out = (out << 1) | lsb
        return out


def lfsr_vectors(
    ports: "dict[str, int]", n: int, *, seed: int = 0xACE1
) -> "list[dict[str, int]]":
    """Pseudo-random vectors from a shared LFSR stream."""
    lfsr = Lfsr(seed)
    return [
        {name: lfsr.next(width) for name, width in sorted(ports.items())}
        for _ in range(n)
    ]
