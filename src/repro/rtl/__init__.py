"""RTL substrate: four-valued types, IR, event-driven kernel, backends."""

from .types import LV, Logic, L0, L1, LX, LZ, resolve
from .ir import (
    Array,
    ArrayRead,
    ArrayWrite,
    Assign,
    Binop,
    Case,
    CombProcess,
    Concat,
    Const,
    Expr,
    If,
    Module,
    Mux,
    NativeProcess,
    Signal,
    Slice,
    SliceAssign,
    SyncProcess,
    Unop,
    WidthError,
    registers_of,
)
from .build import (
    array_read,
    b_not,
    cat,
    const,
    mux,
    red_and,
    red_or,
    red_xor,
    resize,
    sar,
    sign_extend,
    truncate,
    zero_extend,
)
from .compile import CompiledProcess, compile_process, compile_stmts
from .kernel import DeltaOverflowError, Simulation, SimulationError
from .nextstate import next_state_exprs
from .trace import WaveRecorder
from .vcd import VcdWriter
from .vhdl import count_loc, emit_vhdl

__all__ = [
    "LV", "Logic", "L0", "L1", "LX", "LZ", "resolve",
    "Array", "ArrayRead", "ArrayWrite", "Assign", "Binop", "Case",
    "CombProcess", "Concat", "Const", "Expr", "If", "Module", "Mux",
    "NativeProcess", "Signal", "Slice", "SliceAssign", "SyncProcess",
    "Unop", "WidthError", "registers_of",
    "array_read", "b_not", "cat", "const", "mux", "red_and", "red_or",
    "red_xor", "resize", "sar", "sign_extend", "truncate",
    "zero_extend",
    "CompiledProcess", "compile_process", "compile_stmts",
    "DeltaOverflowError", "Simulation", "SimulationError",
    "next_state_exprs",
    "WaveRecorder",
    "VcdWriter",
    "count_loc", "emit_vhdl",
]
