"""The package's public names, which ``sessioncheck/__init__.py`` loads on first use."""

from __future__ import annotations

import importlib

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
    "terms": ["format_ref", "format_type", "format_value"],
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


# Names that left a module for one that fewer commands load, and the
# module paths they keep resolving at.
MOVED = [("parser", "parse_trace", "traces")] + [
    ("printer", name, "terms") for name in ["binder_name", "format_pattern", "format_ref", "format_type", "format_value"]
]


@pytest.mark.parametrize("module, name, home", MOVED, ids=[f"{m}.{n}" for m, n, _ in MOVED])
def test_a_moved_name_still_resolves_at_its_old_module_path(module, name, home):
    old = importlib.import_module(f"sessioncheck.{module}")
    assert name in old.__all__
    assert getattr(old, name) is getattr(importlib.import_module(f"sessioncheck.{home}"), name)
    namespace: dict = {}
    exec(f"from sessioncheck.{module} import {name}", namespace)
    assert namespace[name] is getattr(old, name)


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
