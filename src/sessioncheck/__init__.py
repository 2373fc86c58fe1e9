"""Toolchain for value-dependent global session descriptions.

Parse `.ssn` protocol files, statically check that no role ever builds,
sends, or inspects a value it has not learned (the knowledge index), and
execute checked protocols against concrete value traces.

The package loads no submodule until one of its names is first used
(PEP 562), so ``python -m sessioncheck`` compiles only the modules the
command runs; each name is then the object of its home module.
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_HOMES = {
    **dict.fromkeys(["CheckResult", "KindError", "check_file", "kind_of_ref", "resolve_entry"], "checker"),
    **dict.fromkeys(["Diagnostic", "CODES"], "diagnostics"),
    **dict.fromkeys(
        ["EMPTY_INDEX", "DuplicateVar", "KnowledgeIndex", "KnowledgeItem", "RoleId", "Span", "UnknownVar", "VarId",
         "all_know", "free_vars", "introduce", "knows", "learn", "overlapping"],
        "model",
    ),
    **dict.fromkeys(["ParseFailure", "parse"], "parser"),
    **dict.fromkeys(["format_source"], "printer"),
    **dict.fromkeys(["EvalError", "RunReport", "eval_ref", "run_trace"], "simulator"),
    **dict.fromkeys(["format_ref", "format_type", "format_value"], "syntax"),
    **dict.fromkeys(["parse_trace"], "traces"),
}

__all__ = [*_HOMES, "__version__"]


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{home}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
