"""The package's public names, which ``sessioncheck/__init__.py`` loads on first use."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil

import pytest

import sessioncheck
from conftest import fresh_python

# Every public name, by the submodule that defines it.
HOMES = {
    "checker": ["CheckResult", "KindError", "check_file", "kind_of_ref", "resolve_entry"],
    "diagnostics": ["Diagnostic", "CODES"],
    "model": ["EMPTY_INDEX", "DuplicateVar", "KnowledgeIndex", "KnowledgeItem", "RoleId", "Span", "UnknownVar",
              "VarId", "all_know", "free_vars", "introduce", "knows", "learn", "overlapping"],
    "parser": ["ParseFailure", "parse"],
    "printer": ["format_source"],
    "simulator": ["EvalError", "RunReport", "eval_ref", "run_trace"],
    "syntax": ["format_ref", "format_type", "format_value"],
    "traces": ["parse_trace"],
}
PUBLIC = [(module, name) for module, names in HOMES.items() for name in names]


def test_all_names_every_public_name():
    assert sessioncheck.__all__ == [name for _, name in PUBLIC] + ["__version__"]
    assert sessioncheck.__version__ == "0.1.0"


@pytest.mark.parametrize("module, name", PUBLIC, ids=[name for _, name in PUBLIC])
def test_a_public_name_is_the_object_of_its_home_module(module, name):
    assert getattr(sessioncheck, name) is getattr(importlib.import_module(f"sessioncheck.{module}"), name)


def test_star_import_and_dir_give_every_public_name():
    namespace: dict = {}
    exec("from sessioncheck import *", namespace)
    assert set(sessioncheck.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(sessioncheck, name) for name in sessioncheck.__all__)
    assert set(sessioncheck.__all__) <= set(dir(sessioncheck))


SUBMODULES = [module.name for module in pkgutil.iter_modules(sessioncheck.__path__)]


def imported_names(module) -> set[str]:
    """The names that a module's top level, ``if`` blocks included, binds by import."""
    names, nodes = set(), ast.parse(inspect.getsource(module)).body
    while nodes:
        node = nodes.pop()
        if isinstance(node, ast.If):
            nodes += node.body + node.orelse
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


# One home per name: a submodule exports only what it defines, and no
# submodule forwards another's names, but for the ``json`` that ``cli``
# resolves for perfbench/tracing.py.
@pytest.mark.parametrize("module", SUBMODULES)
def test_a_submodule_exports_only_what_it_defines(module):
    mod = importlib.import_module(f"sessioncheck.{module}")
    exported = set(getattr(mod, "__all__", ()))
    assert exported <= set(vars(mod))
    assert exported & imported_names(mod) == set()
    assert ("__getattr__" in vars(mod)) == (module == "cli")


# Module paths that resolved a name defined elsewhere; each name is now
# found only at its home and at ``sessioncheck``.
RETIRED = ["import sessioncheck.terms", "from sessioncheck.parser import parse_trace",
           "from sessioncheck.printer import format_value", "from sessioncheck.lexer import position"]


@pytest.mark.parametrize("statement", RETIRED)
def test_a_retired_module_path_is_an_import_error(statement):
    with pytest.raises(ImportError):
        exec(statement, {})


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        sessioncheck.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from sessioncheck import no_such_name", {})
    with pytest.raises(ImportError):
        exec("from sessioncheck.parser import no_such_name", {})


def test_the_package_loads_a_submodule_only_when_a_name_needs_it():
    out = fresh_python(
        "import sys\n"
        "def loaded(): return sorted(m for m in sys.modules if m.startswith('sessioncheck.'))\n"
        "import sessioncheck\n"
        "print(*loaded())\n"
        "from sessioncheck import check_file, parse, parse_trace\n"  # as perfbench/run.py does, with run_trace
        "print('sessioncheck.simulator' in sys.modules)\n"
        "from sessioncheck import run_trace\n"
        "from sessioncheck.simulator import run_trace as home\n"
        "print(run_trace is home)\n"
    )
    assert out.splitlines() == ["", "False", "True"]
