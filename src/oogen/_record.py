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
  `dataclasses.fields`, `replace` and `is_dataclass` accept records.

Every annotation in the class body is a field (no `ClassVar`, no
`field(default_factory=...)`).
"""

from __future__ import annotations

import dataclasses
from operator import attrgetter

_MISSING = dataclasses.MISSING


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
    raise dataclasses.FrozenInstanceError(f"cannot assign to field {name!r}")


def _delattr(self, name):
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


def record(cls):
    """Class decorator: make `cls` a frozen record (see the module docstring)."""
    fields: dict[str, dataclasses.Field] = {}
    for base in cls.__mro__[-1:0:-1]:
        fields.update(getattr(base, "__dataclass_fields__", {}))
    for name, annotation in cls.__dict__.get("__annotations__", {}).items():
        f = dataclasses.field(default=cls.__dict__.get(name, _MISSING), kw_only=False)
        f.name, f.type, f._field_type = name, annotation, dataclasses._FIELD
        fields[name] = f

    params, lines = ["self"], []
    env = {"__name__": cls.__module__, "_set": object.__setattr__}
    for f in fields.values():
        if f.default is _MISSING:
            if "=" in params[-1]:
                raise TypeError(f"non-default argument {f.name!r} follows default argument")
            params.append(f.name)
        else:
            env[f"_dflt_{f.name}"] = f.default
            params.append(f"{f.name}=_dflt_{f.name}")
        lines.append(f"    _set(self, {f.name!r}, {f.name})")
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    exec(f"def __init__({', '.join(params)}):\n" + ("\n".join(lines) or "    pass"), env)
    init = env["__init__"]
    init.__qualname__ = f"{cls.__qualname__}.__init__"

    names = tuple(fields)
    cls.__init__ = init
    cls.__dataclass_fields__ = fields
    cls.__match_args__ = names
    cls.__record_values__ = _values_getter(names)
    cls.__eq__, cls.__hash__, cls.__repr__ = _eq, _hash, _repr
    cls.__setattr__, cls.__delattr__ = _setattr, _delattr
    return cls
