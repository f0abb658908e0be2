"""Process/voltage/temperature corners, OCV and aging derating.

Industrial STA signs off across corners with on-chip-variation (OCV)
margins and aging models (paper Section 4.2 notes the threshold used
for critical-path binning comes from exactly these).  This module
provides a compact multiplicative derating model:

``total_factor = process * voltage * temperature * ocv_late * aging``

The numbers are representative for a 45 nm node: slow-slow silicon is
~25% slower than typical, delay grows roughly linearly with
temperature, and super-linearly as VDD drops toward threshold.
:func:`repro.sta.analyze` signs off at one view, ``WORST_CASE`` margins
on the ``TT`` corner.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Corner", "DeratingModel", "TT", "WORST_CASE"]

_PROCESS_FACTOR = {"ss": 1.25, "tt": 1.00, "ff": 0.85}

#: Reference conditions the nominal library is characterised at.
_VDD_NOM = 1.05
_TEMP_NOM = 25.0


@dataclass(frozen=True)
class Corner:
    """One analysis corner: process letter pair, supply and temperature."""

    name: str
    process: str = "tt"
    vdd: float = _VDD_NOM
    temp_c: float = _TEMP_NOM

    def delay_factor(self) -> float:
        """Multiplicative delay derate of this corner vs. nominal."""
        try:
            process = _PROCESS_FACTOR[self.process]
        except KeyError:
            raise ValueError(f"unknown process corner {self.process!r}") from None
        # Alpha-power-law flavoured voltage dependence.
        voltage = (_VDD_NOM / self.vdd) ** 1.3
        temperature = 1.0 + 0.0012 * (self.temp_c - _TEMP_NOM)
        return process * voltage * temperature


TT = Corner("tt_1.05v_25c")


@dataclass(frozen=True)
class DeratingModel:
    """OCV and aging margins stacked on top of the corner factor.

    ``ocv_late`` derates data-path delays upward (late arrival);
    ``aging_years`` adds an NBTI/HCI drift of ``aging_pct_per_year``
    percent per year (saturating model would be more accurate; linear
    is conservative for the few-year horizons used here).
    """

    ocv_late: float = 1.08
    aging_years: float = 5.0
    aging_pct_per_year: float = 0.6

    def aging_factor(self) -> float:
        return 1.0 + self.aging_years * self.aging_pct_per_year / 100.0

    def total_factor(self, corner: Corner) -> float:
        return corner.delay_factor() * self.ocv_late * self.aging_factor()


#: The conservative sign-off view used to bin critical paths.
WORST_CASE = DeratingModel()
