"""``@record``: the class decorator behind every AST, model and report record.

It reads a class's annotated fields in order and rebuilds the class with
``__slots__`` equal to them, so an instance has no ``__dict__``. It then
gives the class an ``__init__`` (ending in ``__post_init__`` when the class
has one), a class-aware ``__eq__`` and a ``__hash__``, each a copy of a
template compiled by one ``exec`` per shape: the number of fields and, for
``__init__``, whether it calls ``__post_init__``. The copy renames the
template's parameters to the class's fields (``co_varnames``) and its
attribute reads to the shown fields (``co_names``), so the package's 56
record classes share 18 templates: an ``exec`` per class costs 7-12 ms of
every start of the command-line tool. The ``__init__`` stores each field
through its slot's descriptor (``cls.<field>.__set__``), which builds a
``Span`` in ~410 ns against ~650 ns through ``object.__setattr__`` into an
instance ``__dict__`` (timeit, Python 3.11); one parse of the
``deep_path`` benchmark's protocol builds 14,022 records. Writing into
``self.__dict__`` directly builds as fast, but a prototype that did so ran
the ``long_trace`` benchmark's ``simulate`` 1.12x slower, as attribute
reads of such instances lose their specialised fast path. A field whose
default is ``quiet(...)`` takes no part in ``==``, ``hash`` or ``repr``.
Fields cannot be reassigned or deleted, so ``copy``, ``deepcopy`` and
``pickle`` rebuild a record through its constructor, quiet fields
included. ``dataclasses`` is not used: its import and code generation
are the largest part of starting the command-line tool.
"""

from types import FunctionType


class quiet:
    """Default of a field left out of ``==``, ``hash`` and ``repr``, such as a source span."""

    __slots__ = ("default",)

    def __init__(self, default=None):
        self.default = default


def _repr(self):
    return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._shown)})"


def _no_assign(self, name, value):
    raise AttributeError(f"cannot assign to field {name!r}")


def _no_delete(self, name):
    raise AttributeError(f"cannot delete field {name!r}")


def _reduce(self):
    return type(self), tuple(getattr(self, n) for n in self.__slots__)


# Compiled templates by source text. Field i is ``_f{i}`` in a template, and
# ``_s{i}`` is its setter in the globals of each class's ``__init__``.
_TEMPLATES: dict[str, dict] = {}


def _template(src: str) -> dict:
    """The functions ``src`` defines, compiled by one ``exec`` per distinct text."""
    made = _TEMPLATES.get(src)
    if made is None:
        made = _TEMPLATES[src] = {}
        exec(src, made)
    return made


def record(cls):
    own = dict(cls.__dict__)
    names = list(own.get("__annotations__", ()))
    defaults = {n: own[n].default if isinstance(own[n], quiet) else own[n] for n in names if n in own}
    shown = tuple(n for n in names if not isinstance(own.get(n), quiet))
    if any(n not in defaults for n in names[len(names) - len(defaults):]):
        raise TypeError(f"{cls.__name__}: a field without a default follows one with a default")
    for n in (*names, "__dict__", "__weakref__"):
        own.pop(n, None)
    fields = [f"_f{i}" for i in range(len(names))]
    sets = [f"_s{i}(self, {f})" for i, f in enumerate(fields)]
    if "__post_init__" in own:
        sets.append("self.__post_init__()")
    init = _template(f"def __init__(self, {', '.join(fields)}):\n    " + "\n    ".join(sets or ["pass"]))["__init__"].__code__
    setters: dict = {}  # the globals of __init__, filled once the class has its slots
    own["__init__"] = FunctionType(init.replace(co_varnames=("self", *names)), setters, "__init__",
                                   tuple(defaults[n] for n in names if n in defaults))
    mine = "".join(f"self._f{i}, " for i in range(len(shown)))
    compare = _template("\n".join(["def __eq__(self, other):",
                                   "    if other.__class__ is not self.__class__: return NotImplemented",
                                   f"    return ({mine}) == ({mine.replace('self.', 'other.')})",
                                   f"def __hash__(self): return hash(({mine}))"]))
    rename = dict(zip(fields, shown))
    for method in ("__eq__", "__hash__"):
        code = compare[method].__code__
        own[method] = FunctionType(code.replace(co_names=tuple(rename.get(n, n) for n in code.co_names)), compare, method)
    own.update(__slots__=tuple(names), _shown=shown, __repr__=_repr, __reduce__=_reduce,
               __setattr__=_no_assign, __delattr__=_no_delete)
    cls = type(cls)(cls.__name__, cls.__bases__, own)
    setters.update((f"_s{i}", getattr(cls, n).__set__) for i, n in enumerate(names))
    return cls
