"""HDTLib: efficient HDL-oriented data types (paper Section 5.3).

The paper speeds up abstracted TLM models by replacing SystemC data
types with HDTLib, which maps vectors onto statically allocated machine
words, implements operations on whole words instead of single bits,
and folds multi-valued logic (``X``/``Z``) to ``0``, trading accuracy
for speed at TLM.

Here that library is :mod:`repro.hdtlib.ops`: word operations on plain
Python ints.  The optimised TLM code generator emits most operations
as inline integer expressions and calls ``ops`` for the shifts and
signed compares (see ``repro.abstraction.datatypes.IntBackend``).
"""

from . import ops

__all__ = ["ops"]
