"""Toolchain for value-dependent global session descriptions.

Parse `.ssn` protocol files, statically check that no role ever builds,
sends, or inspects a value it has not learned (the knowledge index), and
execute checked protocols against concrete value traces.
"""

from .checker import CheckResult, KindError, check_file, kind_of_ref, resolve_entry
from .diagnostics import Diagnostic, CODES
from .model import (
    EMPTY_INDEX,
    DuplicateVar,
    KnowledgeIndex,
    KnowledgeItem,
    RoleId,
    Span,
    UnknownVar,
    VarId,
    all_know,
    free_vars,
    introduce,
    knows,
    learn,
    overlapping,
)
from .parser import ParseFailure, parse, parse_trace
from .printer import format_ref, format_source, format_type, format_value
from .simulator import EvalError, RunReport, eval_ref, run_trace

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "KindError",
    "check_file",
    "kind_of_ref",
    "resolve_entry",
    "Diagnostic",
    "CODES",
    "EMPTY_INDEX",
    "DuplicateVar",
    "KnowledgeIndex",
    "KnowledgeItem",
    "RoleId",
    "Span",
    "UnknownVar",
    "VarId",
    "all_know",
    "free_vars",
    "introduce",
    "knows",
    "learn",
    "overlapping",
    "ParseFailure",
    "parse",
    "parse_trace",
    "format_ref",
    "format_source",
    "format_type",
    "format_value",
    "EvalError",
    "RunReport",
    "eval_ref",
    "run_trace",
    "__version__",
]
