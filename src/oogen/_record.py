"""Frozen records: the value classes of the IR, the renderers and verify.

`@record` turns a class with annotated fields into an immutable value, as
`@dataclass(frozen=True, slots=True)` would, but generates only `__init__`.
Equality, hashing, `repr`, pickling and the frozen guards are shared
functions that read the fields through a per-class `operator.attrgetter`.
Generating six methods per class used to be most of the time `import oogen`
spent in `oogen.ir`.

`__init__` is compiled once per process for each (field count, has
`__post_init__`) pair, as a template over positional names `a0…aN` that
stores field i through a global setter `s<i>`. Each class gets its own
function from that code, with the parameters renamed to its fields and its
own globals and defaults, so it runs the bytecode one `exec` per class
would give, without the compile.

The decorator rebuilds the class with `__slots__` holding the fields no
base record slots already, so an instance has no `__dict__`. Defaults leave
the class namespace and live in `__init__` only, which stores each field
through its slot's pre-bound setter (`member_descriptor.__set__`), past the
frozen `__setattr__`. `__reduce__` returns the class and the field values,
so `pickle` and `copy` rebuild a record through `__init__` (`__post_init__`
runs again). A method using `super()` or `__class__` would keep the class
from before the rebuild, so the decorator rejects it with `TypeError`.

What a record keeps of the dataclass contract:

* fields in declaration order, base records' fields first; a field
  re-declared in a subclass keeps its base position; defaults as written;
* `__eq__` compares field tuples of instances of the same class only;
  `hash(x) == hash(tuple_of_fields)`; `repr` is `Cls(a=1, b='x')`;
* assigning or deleting an attribute raises `dataclasses.FrozenInstanceError`;
* `__post_init__` runs after `__init__` when the class defines one;
* the record's own fields are its slots; an unknown attribute cannot be set;
* `__dataclass_fields__` holds `dataclasses.Field` objects, so
  `dataclasses.fields`, `replace`, `is_dataclass` and `astuple` accept
  records, and `dataclasses.MISSING` marks a field without a default.

`dataclasses` (which imports `inspect`, `ast` and `dis`) is not imported
with this module. It is imported the first time a record's
`__dataclass_fields__` is read, which only `dataclasses` functions do, or
when a frozen guard raises `FrozenInstanceError`. oogen itself copies
records with `replace` below, which needs neither.

Every annotation in the class body is a field (no `ClassVar`, no
`field(default_factory=...)`).
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from types import CodeType, FunctionType

_MISSING = object()  # default of a field that has none
_WRAPPERS = (classmethod, staticmethod)


def _eq(self, other):
    if other.__class__ is self.__class__:
        values = self.__class__.__record_values__
        return values(self) == values(other)
    return NotImplemented


def _hash(self):
    return hash(self.__class__.__record_values__(self))


def _repr(self):
    cls = self.__class__
    inner = ", ".join(f"{name}={getattr(self, name)!r}" for name in cls.__match_args__)
    return f"{cls.__qualname__}({inner})"


def _setattr(self, name, value):
    import dataclasses
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
    import dataclasses
    raise dataclasses.FrozenInstanceError(f"cannot delete field {name!r}")


def _reduce(self):
    return self.__class__, self.__class__.__record_values__(self)


def _values_getter(names: tuple[str, ...]):
    """Instance -> tuple of its field values (attrgetter alone returns a
    bare value for one name and refuses none)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


@cache
def _init_template(count: int, post_init: bool) -> CodeType:
    """The code of `def __init__(self, a0, ..., aN)` storing each `a<i>`
    through global `s<i>`, then calling `__post_init__` if asked."""
    lines = [f"    s{i}(self, a{i})" for i in range(count)]
    if post_init:
        lines.append("    self.__post_init__()")
    params = "".join(f", a{i}" for i in range(count))
    env: dict = {}
    exec(f"def __init__(self{params}):\n" + ("\n".join(lines) or "    pass"), env)
    return env["__init__"].__code__


class _DataclassFields:
    """A record's `__dataclass_fields__`: its `dataclasses.Field` objects,
    built from the record's field specs when first read."""

    def __init__(self, specs: dict[str, tuple[object, object]]):
        self.specs = specs
        self.fields = None

    def __get__(self, instance, owner):
        if self.fields is None:
            import dataclasses

            fields = {}
            for name, (annotation, default) in self.specs.items():
                if default is _MISSING:
                    default = dataclasses.MISSING
                f = dataclasses.field(default=default, kw_only=False)
                f.name, f.type, f._field_type = name, annotation, dataclasses._FIELD
                fields[name] = f
            self.fields = fields
        return self.fields


def replace(obj, **changes):
    """A copy of record `obj` with `changes` applied, built through its
    `__init__` (so `__post_init__` runs), like `dataclasses.replace`. An
    unknown field name raises `TypeError`."""
    cls = obj.__class__
    values = dict(zip(cls.__match_args__, cls.__record_values__(obj)))
    values.update(changes)
    return cls(**values)


def record(cls):
    """Class decorator: make `cls` a frozen record (see the module docstring).
    It runs for every record class on each `import oogen`, so it keeps to
    statements where a function call would do the same."""
    specs: dict[str, tuple[object, object]] = {}  # name -> (annotation, default)
    for base in cls.__mro__[-1:0:-1]:
        specs.update(getattr(base, "__record_specs__", {}))
    namespace = dict(cls.__dict__)
    slots = ()  # the fields no base record slots already
    for name, annotation in namespace.get("__annotations__", {}).items():
        if name not in specs:
            slots += (name,)
        specs[name] = (annotation, namespace.pop(name, _MISSING))
    for name in namespace:  # a method's `__class__` cell would keep the old class
        f = namespace[name]
        f = f.fget if type(f) is property else f.__func__ if type(f) in _WRAPPERS else f
        if type(f) is FunctionType and "__class__" in f.__code__.co_freevars:
            raise TypeError(f"record {cls.__qualname__}: {name} uses super() or __class__")
    for name in ("__dict__", "__weakref__"):
        if name in namespace:
            del namespace[name]
    namespace["__slots__"] = slots
    qualname = cls.__qualname__
    cls = type(cls)(cls.__name__, cls.__bases__, namespace)
    cls.__qualname__ = qualname

    env, defaults = {"__name__": cls.__module__}, []
    for i, (name, (_, default)) in enumerate(specs.items()):
        if default is not _MISSING:
            defaults.append(default)
        elif defaults:
            raise TypeError(f"non-default argument {name!r} follows default argument")
        slot = cls.__dict__[name] if name in slots else getattr(cls, name)
        env[f"s{i}"] = slot.__set__
    code = _init_template(len(specs), hasattr(cls, "__post_init__"))
    init = FunctionType(code.replace(co_varnames=("self", *specs)), env, "__init__",
                        tuple(defaults) or None)
    init.__qualname__ = f"{qualname}.__init__"

    names = tuple(specs)
    cls.__init__ = init
    cls.__record_specs__ = specs
    cls.__dataclass_fields__ = _DataclassFields(specs)
    cls.__match_args__ = names
    cls.__record_values__ = _values_getter(names)
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__, cls.__reduce__ = _setattr, _delattr, _reduce
    return cls
