"""Permission-dependent information-flow analysis toolkit.

Security types map permission sets to lattice levels, so what a function
reveals can depend on the permissions of its caller. The package bundles a
type checker for annotated systems, a constraint-based inference engine
with a worklist solver checked against the paper's symbolic one, a
reference interpreter, and an executable noninterference test harness, all
behind the ``permflow`` CLI.
"""

from .basetypes import (
    BaseType,
    FunctionType,
    PermUniverse,
    UniverseMismatch,
    UnknownPermission,
    embed,
    format_function_type,
    format_type,
    merge,
)
from .inference import InferResult, InferUnsat, infer_system
from .interp import DEFAULT_FUEL, FuelExhausted, call_function, exec_cmd
from .lattice import (
    CycleInOrder,
    Lattice,
    LatticeError,
    NotALattice,
    UnknownLevelName,
    load_lattice,
)
from .nitest import NIReport, Violation, nitest_system
from .parser import ParseError, parse_system
from .solver import (
    UnsatError,
    decompose,
    saturate,
    solve,
    symbolic_solve,
)
from .system import (
    CheckedSystem,
    RecursiveCall,
    System,
    ValidationError,
    to_source,
    validate_system,
)
from .traces import EPSILON, InconsistentTrace, Trace, apply_trace, trace_of_set
from .typecheck import CheckReport, TypeViolation, check_system

__all__ = [
    "BaseType", "FunctionType", "PermUniverse", "UniverseMismatch",
    "UnknownPermission", "embed", "merge", "format_type", "format_function_type",
    "InferResult", "InferUnsat", "infer_system",
    "DEFAULT_FUEL", "FuelExhausted", "call_function", "exec_cmd",
    "CycleInOrder", "Lattice", "LatticeError", "NotALattice",
    "UnknownLevelName", "load_lattice",
    "NIReport", "Violation", "nitest_system",
    "ParseError", "parse_system",
    "UnsatError", "decompose", "saturate",
    "solve", "symbolic_solve",
    "CheckedSystem", "RecursiveCall", "System", "ValidationError",
    "to_source", "validate_system",
    "EPSILON", "InconsistentTrace", "Trace", "apply_trace",
    "trace_of_set",
    "CheckReport", "TypeViolation", "check_system",
]

__version__ = "0.1.0"
