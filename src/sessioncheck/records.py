"""``@record``: the class decorator behind every AST, model and report record.

It reads a class's annotated fields in order and compiles, in one ``exec``,
an ``__init__`` (ending in ``__post_init__`` when the class has one), a
class-aware ``__eq__`` and a ``__hash__``. A field whose default is
``quiet(...)`` takes no part in ``==``, ``hash`` or ``repr``. Fields cannot
be reassigned or deleted, except under ``@record(frozen=False)``, whose
records are unhashable. It replaces ``dataclasses``, whose import and code
generation were the largest part of starting the command-line tool.
"""

_setattr = object.__setattr__


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


def record(cls=None, *, frozen=True):
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    own = cls.__dict__
    names = list(own.get("__annotations__", ()))
    defaults = {n: own[n].default if isinstance(own[n], quiet) else own[n] for n in names if n in own}
    cls._shown = tuple(n for n in names if not isinstance(own.get(n), quiet))
    params, sets = [], []
    for n in names:
        params.append(f"{n}=_d[{n!r}]" if n in defaults else n)
        sets.append(f"_setattr(self, {n!r}, {n})" if frozen else f"self.{n} = {n}")
    if "__post_init__" in own:
        sets.append("self.__post_init__()")
    mine = "".join(f"self.{n}, " for n in cls._shown)
    src = [f"def __init__(self, {', '.join(params)}):", *(f"    {s}" for s in sets or ["pass"]),
           "def __eq__(self, other):",
           "    if other.__class__ is not self.__class__: return NotImplemented",
           f"    return ({mine}) == ({mine.replace('self.', 'other.')})",
           f"def __hash__(self): return hash(({mine}))" if frozen else "__hash__ = None"]
    # The defaults are the only locals; the functions share this module's globals.
    made = {"_d": defaults}
    exec("\n".join(src), globals(), made)
    cls.__init__, cls.__eq__, cls.__hash__ = made["__init__"], made["__eq__"], made["__hash__"]
    cls.__repr__ = _repr
    if frozen:
        cls.__setattr__, cls.__delattr__ = _no_assign, _no_delete
    return cls
