"""``@record``: the class decorator behind every AST, model and report record.

It reads a class's annotated fields in order and rebuilds the class with
``__slots__`` equal to them, so an instance has no ``__dict__``. It then
compiles, in one ``exec``, an ``__init__`` (ending in ``__post_init__`` when
the class has one), a class-aware ``__eq__`` and a ``__hash__``. The
``__init__`` stores each field through its slot's descriptor
(``cls.<field>.__set__``). A ``Span`` then takes ~410 ns to build instead of
~650 ns through ``object.__setattr__`` into an instance ``__dict__``
(timeit, Python 3.11), and a field reads as fast as before; one parse of
the ``deep_path`` benchmark's protocol builds 14,022 records. Writing into
``self.__dict__`` directly builds as fast, but a prototype that did so ran
the ``long_trace`` benchmark's ``simulate`` 1.12x slower, as attribute
reads of such instances lose their specialised fast path. A field whose
default is ``quiet(...)`` takes no part in ``==``, ``hash`` or ``repr``.
Fields cannot be reassigned or deleted, so ``copy``, ``deepcopy`` and
``pickle`` rebuild a record through its constructor, quiet fields
included. It replaces ``dataclasses``, whose import and code generation
were the largest part of starting the command-line tool.
"""


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


def record(cls):
    own = dict(cls.__dict__)
    names = list(own.get("__annotations__", ()))
    defaults = {n: own[n].default if isinstance(own[n], quiet) else own[n] for n in names if n in own}
    shown = tuple(n for n in names if not isinstance(own.get(n), quiet))
    for n in (*names, "__dict__", "__weakref__"):
        own.pop(n, None)
    own["__slots__"], own["_shown"] = tuple(names), shown
    cls = type(cls)(cls.__name__, cls.__bases__, own)
    params = [f"{n}=_d[{n!r}]" if n in defaults else n for n in names]
    sets = [f"_set_{n}(self, {n})" for n in names]
    if "__post_init__" in own:
        sets.append("self.__post_init__()")
    mine = "".join(f"self.{n}, " for n in shown)
    src = [f"def __init__(self, {', '.join(params)}):", *(f"    {s}" for s in sets or ["pass"]),
           "def __eq__(self, other):",
           "    if other.__class__ is not self.__class__: return NotImplemented",
           f"    return ({mine}) == ({mine.replace('self.', 'other.')})",
           f"def __hash__(self): return hash(({mine}))"]
    # The functions' globals: the defaults and each slot's setter.
    made = {"_d": defaults, **{f"_set_{n}": getattr(cls, n).__set__ for n in names}}
    exec("\n".join(src), made)
    cls.__init__, cls.__eq__, cls.__hash__ = made["__init__"], made["__eq__"], made["__hash__"]
    cls.__repr__, cls.__reduce__ = _repr, _reduce
    cls.__setattr__, cls.__delattr__ = _no_assign, _no_delete
    return cls
