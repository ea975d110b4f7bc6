"""Frozen records: the value classes of the IR, the renderers and verify.

`class Lit(ExprRepr, metaclass=record)` makes a class with annotated fields
an immutable value, as `@dataclass(frozen=True, slots=True)` would, but
generates only `__init__`. Equality, hashing, `repr`, pickling and the
frozen guards are shared functions that read the fields through a per-class
`operator.attrgetter`.

`record` is a metaclass *function*: it turns the class body's annotations
into `__slots__` holding the fields no base record slots already, and makes
the class with one `type(...)` call, so the record's type is plain `type`
and a method may use zero-argument `super()`. An instance has no
`__dict__`. Defaults leave the class namespace and live in `__init__` only,
which stores each field through its slot's pre-bound setter
(`member_descriptor.__set__`), past the frozen `__setattr__`. `__reduce__`
returns the class and the field values, so `pickle` and `copy` rebuild a
record through `__init__` (`__post_init__` runs again).

`__init__` is compiled once per process for each (field count, has
`__post_init__`) pair, as a template over positional names `a0…aN` that
stores field i through a global setter `s<i>`. Each class gets its own
function from that code, with the parameters renamed to its fields and its
own globals and defaults, so it runs the bytecode one `exec` per class
would give, without the compile.

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
`field(default_factory=...)`). A subclass of a record is a record only if
it names `metaclass=record` too.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter
from types import CodeType, FunctionType

_MISSING = object()  # default of a field that has none


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


def record(name, bases, namespace, **kwds):
    """Metaclass of a frozen record (see the module docstring). It runs for
    every record class on each `import oogen`, so it keeps to statements
    where a function call would do the same."""
    specs: dict[str, tuple[object, object]] = {}  # name -> (annotation, default)
    for base in reversed(bases):
        specs.update(getattr(base, "__record_specs__", {}))
    slots = ()  # the fields no base record slots already
    for field, annotation in namespace.get("__annotations__", {}).items():
        if field not in specs:
            slots += (field,)
        specs[field] = (annotation, namespace.pop(field, _MISSING))
    names = tuple(specs)
    namespace.update(
        __slots__=slots, __record_specs__=specs, __match_args__=names,
        __dataclass_fields__=_DataclassFields(specs), __record_values__=_values_getter(names),
        __eq__=_eq, __hash__=_hash, __repr__=_repr,
        __setattr__=_setattr, __delattr__=_delattr, __reduce__=_reduce)
    cls = type(name, bases, namespace, **kwds)

    env, defaults = {"__name__": cls.__module__}, []
    for i, (field, (_, default)) in enumerate(specs.items()):
        if default is not _MISSING:
            defaults.append(default)
        elif defaults:
            raise TypeError(f"non-default argument {field!r} follows default argument")
        slot = cls.__dict__[field] if field in slots else getattr(cls, field)
        env[f"s{i}"] = slot.__set__
    code = _init_template(len(specs), hasattr(cls, "__post_init__"))
    init = FunctionType(code.replace(co_varnames=("self", *specs)), env, "__init__",
                        tuple(defaults) or None)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    cls.__init__ = init
    return cls
