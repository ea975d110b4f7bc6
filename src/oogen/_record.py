"""Frozen records: the value classes of the IR, the renderers and verify.

`@record` turns a class with annotated fields into an immutable value, as
`@dataclass(frozen=True)` would, but generates only `__init__` (one `exec`
per class). Equality, hashing, `repr` and the frozen guards are shared
functions that read the fields through a per-class `operator.attrgetter`.
Generating six methods per class used to be most of the time `import oogen`
spent in `oogen.ir`.

What a record keeps of the dataclass contract:

* fields in declaration order, base records' fields first; a field
  re-declared in a subclass keeps its base position; defaults as written;
* `__eq__` compares field tuples of instances of the same class only;
  `hash(x) == hash(tuple_of_fields)`; `repr` is `Cls(a=1, b='x')`;
* assigning or deleting an attribute raises `dataclasses.FrozenInstanceError`;
* `__post_init__` runs after `__init__` when the class defines one;
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

from operator import attrgetter

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


def _values_getter(names: tuple[str, ...]):
    """Instance -> tuple of its field values (attrgetter alone returns a
    bare value for one name and refuses none)."""
    if len(names) > 1:
        return attrgetter(*names)
    if names:
        get = attrgetter(names[0])
        return lambda self: (get(self),)
    return lambda self: ()


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
    """Class decorator: make `cls` a frozen record (see the module docstring)."""
    specs: dict[str, tuple[object, object]] = {}  # name -> (annotation, default)
    for base in cls.__mro__[-1:0:-1]:
        specs.update(getattr(base, "__record_specs__", {}))
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        specs[name] = (annotation, cls.__dict__.get(name, _MISSING))

    params, lines = ["self"], []
    env = {"__name__": cls.__module__, "_set": object.__setattr__}
    for name, (_, default) in specs.items():
        if default is _MISSING:
            if "=" in params[-1]:
                raise TypeError(f"non-default argument {name!r} follows default argument")
            params.append(name)
        else:
            env[f"_dflt_{name}"] = default
            params.append(f"{name}=_dflt_{name}")
        lines.append(f"    _set(self, {name!r}, {name})")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n" + ("\n".join(lines) or "    pass"), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    names = tuple(specs)
    cls.__init__ = init
    cls.__record_specs__ = specs
    cls.__dataclass_fields__ = _DataclassFields(specs)
    cls.__match_args__ = names
    cls.__record_values__ = _values_getter(names)
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls
