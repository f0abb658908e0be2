"""SystemC-style data types (the *slow, accurate* library).

The paper's standard RTL-to-TLM abstraction maps HDL data types onto
SystemC types, whose generality costs simulation speed; Table 4 then
shows the gain from swapping them for HDTLib.  This package is the
stand-in for the SystemC side: :class:`ScLogicVector`, the value type
of every signal in the standard TLM variant, an ``sc_lv``-style
four-valued vector that

* allocates a fresh object per operation,
* validates widths and normalises ``Z`` states on every operation,
* dispatches through a method layer instead of inlined integer
  expressions.

It is semantically equivalent to :class:`repro.rtl.types.LV` (property
tests enforce this) but mirrors the costs that make SystemC data types
dominate TLM simulation time.
"""

from .logic_vector import ScLogicVector

__all__ = ["ScLogicVector"]
