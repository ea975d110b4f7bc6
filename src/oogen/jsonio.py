"""Versioned JSON interchange format for package trees.

The document shape is {"version": 5, "program": {"name", "modules": [...]},
"aux": [...]}. Expressions are tagged objects {"op": ..., fields}, statements
{"stmt": ..., fields}; bodies are lists of blocks, blocks lists of
statements, and a block used as a statement is {"stmt": "block",
"statements": [...]}. A type is its kind's name ("int"), or an object
tagged by "kind" for a list or object type; a method's parameters are
written as the variables they are, once: an in/out procedure's "inout",
{"inouts": n, "ins": m}, says the first n are in-outs, the next m ins and
the rest outs. GOOL's `#|`, `#/^` and `#^` are "math" calls (abs, sqrt, pow).

The table at the end of this module is the schema: one row per IR class
(and per pair inside `if` and `switch`), holding its tag and its fields as
(json key, attribute, field kind). A field's default is its IR record's (or
a function row's own, such as the document's `aux=()`), and a record field
no row lists is its default: a method's class, which the class rule sets
to the class that lists it, and a program's aux files. One generic encoder
(`_encode`) and one generic decoder (`_decode`) walk the table. A field with
a default is left out of the encoding when it equals that default, and may
be absent when decoding; where the default is None, null reads as absent too.

On the valid path neither walker makes a builtin or Python call per field
for bookkeeping: a field costs a call only where its kind has work to do
(a nested object or array, a name's check, an encoder). `_decode` tests a
key with `in` and reads it by subscript, hands a nested object straight to
itself, and reads a field of a lookup kind by subscript of its table: a
scalar type's name, calling `_decode_type` only on a miss (a list or
object type, or to raise), or an enumerated value, keeping a miss as given
for its rule. A literal's value and an in/out count are read as given.
`_encode` makes no bookkeeping call per node either: it finds a record's
row by subscript, starts the object from the row's tag by a dict display
(not `dict.copy`), reads the field values of a record with fields by one
`attrgetter` (a one-field record's too), and leaves out a value whose
default is None by identity alone.

decode_package(encode_package(pkg)) == pkg for every tree the builders can
produce. Decoding checks shape: objects, arrays, fields, tags, the strings
and booleans a field must hold, scalar type names and the version, each
failure reported with the JSON path of the offending node. Every name
must also pass the builders' `check_identifier` (program, module, class
and parent class, method, variable and its owner, call and library, in/out
call, object type), and every import
their `check_dotted_name`, so none can become a path outside the output
directory or code. The rules judge every other value: each node, a method,
class, module and package too, must pass its class's rule in
`builders.RULES`, which the builders run (a scope, an operator's name, a
literal's kind and payload): a failure is a DecodeError at the node with the
builder's message. Only the checks of `patterns.in_out_call` (against its
callee) and `patterns.run_strategy` (its chosen name) are not run on decode.

A decoded package shares equal variables, as a built one does: within one
decode_package call, each distinct variable object is decoded and checked
once, and every later object with the same content is that same immutable
VariableRepr. So is each distinct int, bool, string or char literal (a
float is not shared: -0.0 == 0.0). The sharing table belongs to the call:
decode_package makes it as a local dict and passes it down as an argument
of `_decode` and of each field kind's `dec`, so nothing is shared between
calls, nested or on other threads, and the module keeps no state. Neither
does encode_package: it is a function of the tree alone, and every place
that holds a variable gets its own dict, so its output has no aliasing.
"""

from __future__ import annotations

import json
from operator import attrgetter

from . import ir
from .builders import ENUMERATED, RULES, check_dotted_name, check_identifier, package
from .errors import BuildError, DecodeError, InvalidIdentifier, NestingTooDeep

SCHEMA_VERSION = 5

_REQUIRED = object()
_ROW_OF: dict[type, _Row] = {}  # record class -> its row, for the encoder


# ---------------------------------------------------------------------------
# Field kinds: how a field's value is encoded (`enc`, None to keep it as it
# is) and decoded (`dec(raw, path of the owning object, key, decoded)`, where
# `decoded` is the running decode_package call's sharing table, which only
# the kinds that hold objects use). A path is "$" or (parent path, key or
# index); it is spelled out only for an error.


def _where(path) -> str:
    steps = []
    while type(path) is tuple:
        path, step = path
        steps.append(f"[{step}]" if type(step) is int else f".{step}")
    return path + "".join(reversed(steps))


def _fail(message: str, path):
    raise DecodeError(message, _where(path))


def _array(data, path) -> list:
    if not isinstance(data, list):
        _fail(f"expected an array, got {type(data).__name__}", path)
    return data


class _Kind:
    """`table`, if given, maps each valid raw value to what it decodes to:
    `_decode` reads a field of this kind by subscript, and `dec` handles
    only what the table lacks (a list or object type), or raises; with no
    `dec`, what the table lacks is kept as the JSON gives it."""

    def __init__(self, enc, dec, table=None):
        self.enc, self.dec, self.table = enc, dec, table


def _leaf(cls: type, what: str) -> _Kind:
    def dec(raw, path, key, decoded):
        return raw if isinstance(raw, cls) else _fail(f"field {key!r} must be {what}", path)
    return _Kind(None, dec)


_STR = _leaf(str, "a string")
_BOOL = _leaf(bool, "a boolean")
# Values the rules judge: an enumerated one (a scope, an operator's name)
# decodes to the builders' own string, shared, and the rest as given.
_ENUM, _AS_GIVEN = _Kind(None, None, {v: v for v in ENUMERATED}), _Kind(None, None)


def _name(check, not_a_string) -> _Kind:
    """A string that passes the builders' `check`."""
    def dec(raw, path, key, decoded):
        if type(raw) is not str:
            not_a_string(raw, path, key, None)
        try:
            return check(raw)
        except InvalidIdentifier as exc:
            _fail(str(exc), (path, key))
    return _Kind(None, dec)


_NAME = _name(check_identifier, _STR.dec)
_IMPORT = _name(check_dotted_name,
                lambda raw, path, i, decoded: _fail("imports must be strings", (path, i)))


def _list(item: _Kind, wrap=None) -> _Kind:
    """A JSON array of `item`s <-> a tuple, or the one-field record `wrap`
    holding that tuple (a block's statements, a body's blocks). Both ways
    copy the array and replace each item in the copy by a plain loop: a
    comprehension would cost a Python frame per array level, and
    `list.append` a builtin call per item. The walkers' rule holds here
    too: no call per item but the one that decodes or encodes it. An object
    item goes straight to `_decode`, and an item of one row straight to
    `_encode` with that row, so an item costs one call and one frame either
    way."""
    unwrap = attrgetter(wrap.__match_args__[0]) if wrap else None
    item_enc, item_dec = item.enc, item.dec
    shape = item if isinstance(item, _Shape) else None
    row = item if type(item) is _Row else None

    def dec(raw, path, key, decoded):
        here = (path, key)
        values = list(raw if type(raw) is list else _array(raw, here))
        if shape is not None:
            for i, x in enumerate(values):
                values[i] = _decode(shape, x, (here, i), decoded)
        else:
            for i, x in enumerate(values):
                values[i] = item_dec(x, here, i, decoded)
        return wrap(tuple(values)) if wrap else tuple(values)

    def enc(value):
        out = list(unwrap(value) if wrap else value)
        if row is not None:
            for i, x in enumerate(out):
                out[i] = _encode(x, row)
        elif item_enc is not None:
            for i, x in enumerate(out):
                out[i] = item_enc(x)
        return out
    return _Kind(enc, dec)


def _param_doc(raw, path, index, decoded):
    pair = _array(raw, (path, index))
    if len(pair) != 2 or not all(isinstance(x, str) for x in pair):
        _fail("param doc must be a [name, description] pair", (path, index))
    return (pair[0], pair[1])


def _encode_type(t: ir.TypeRepr) -> object:
    if t.kind == "list":
        return {"kind": "list", "elem": _encode_type(t.elem)}
    if t.kind == "object":
        return {"kind": "object", "class": t.class_name}
    return t.kind


def _decode_type(raw, path, key, decoded) -> ir.TypeRepr:
    """A list or object type, as an object tagged by "kind" (see the table);
    a scalar kind's name is read from `ir.SCALAR_TYPES`."""
    if type(raw) is not dict and isinstance(raw, str):  # a dict skips the builtin call
        _fail(f"unknown type kind {raw!r}", (path, key))
    return _decode(_TYPE_OBJECT, raw, (path, key), decoded)


_TYPE = _Kind(_encode_type, _decode_type, ir.SCALAR_TYPES)


# ---------------------------------------------------------------------------
# Rows, and the generic encoder and decoder that walk them


class _Shape(_Kind):
    """A JSON object: one row, or a union of rows told apart by a tag."""

    def __init__(self):
        super().__init__(_encode, None)  # decoded by `_decode`, never by `dec`


def _field(key: str, kind: _Kind, attr: str | int | None = None):
    return (key, key if attr is None else attr, kind)


class _Row(_Shape):
    """One IR record class <-> one JSON object. `cls` may instead be a
    function of the field values in order (the attributes are then indices),
    or `tuple` for a pair in `if` and `switch`; a record class's rule runs
    on each node, and the node is what it returns. A pair's row is encoded
    only as a list item, which `_list` hands to `_encode` with its row. A
    field's default is the one `cls` gives it (a record's `__init__`'s).
    `share(data)` gives an exact key for an object whose node is immutable
    and used in many places, or None: one decode_package call decodes each
    such object once, and keeps it in the sharing table it hands down."""

    def __init__(self, cls, *fields, share=None):
        super().__init__()
        self.make = (lambda *values: values) if cls is tuple else cls
        self.share, self.head, self.rule = share, {}, RULES.get(cls)
        names, count = None, len(fields)  # a function's fields are its parameters
        if hasattr(cls, "__record_values__"):
            # A one-field record's values are read as a pair of that field:
            # its `__record_values__` makes the 1-tuple by a Python call.
            names = cls.__match_args__
            self.values = (attrgetter(names[0], names[0]) if len(names) == 1
                           else cls.__record_values__)
            _ROW_OF[cls] = self
            init, count = cls.__init__, len(names)
        else:
            self.values, init = tuple, self.make  # a pair is its own values
        given = init.__defaults__ or ()  # the last parameters' defaults
        self.defaults = [_REQUIRED] * (count - len(given)) + [*given]
        # Plain statements, not comprehensions: every import builds each row.
        self.keys, self.encoders, self.decoders = (), [], []
        for key, attr, kind in fields:
            pos, sub = attr if names is None else names.index(attr), None
            if kind.enc is _encode:  # a shape, which `_decode` decodes
                sub = kind
            self.keys += (key,)
            self.encoders += ((key, pos, kind.enc, self.defaults[pos]),)
            self.decoders += ((key, pos, sub, kind.table, kind.dec, self.defaults[pos]),)


class _Union(_Shape):
    def __init__(self, key: str, noun: str):
        super().__init__()
        self.key, self.noun, self.rows = key, noun, {}

    def define(self, rows: dict[str, _Row]) -> None:
        for tag, row in rows.items():
            row.head = {self.key: tag}
            row.keys += (self.key,)
        self.rows.update(rows)


def _encode(node, row: _Row | None = None) -> dict:
    if row is None:
        try:
            row = _ROW_OF[type(node)]
        except KeyError:
            raise TypeError(f"cannot encode {type(node).__name__}") from None
    out = {**row.head}
    values = row.values(node)
    for key, pos, enc, default in row.encoders:
        value = values[pos]
        # Against a None default identity decides: `==` would call a record's `__eq__`.
        if default is _REQUIRED or value is not default and (default is None or value != default):
            out[key] = value if enc is None else enc(value)
    return out


def _decode(shape: _Shape, data, path, decoded: dict):
    if type(data) is not dict and not isinstance(data, dict):
        _fail(f"expected an object, got {type(data).__name__}", path)
    row, seen = shape, 0
    if type(shape) is _Union:
        key = shape.key
        if key not in data:
            _fail(f"missing required field {key!r}", path)
        tag = data[key]
        try:
            row = shape.rows[tag]
        except (KeyError, TypeError):  # an unknown tag, or one that cannot be hashed
            _STR.dec(tag, path, key, None)  # raises, unless it is a string
            _fail(f"unknown {shape.noun} {tag!r}", path)
        seen = 1
    share = row.share
    if share is not None:
        share = share(data)
        try:
            return decoded[share]
        except KeyError:
            pass
        except TypeError:  # content that cannot be hashed
            share = None
    args = list(row.defaults)
    # No bookkeeping call per field (see the module docstring); a nested
    # object costs one call per level, not two.
    for key, pos, sub, table, dec, default in row.decoders:
        if key not in data:
            if default is _REQUIRED:
                _fail(f"missing required field {key!r}", path)
            continue
        raw = data[key]
        seen += 1
        if raw is None and default is None:
            continue
        if sub is not None:
            args[pos] = _decode(sub, raw, (path, key), decoded)
            continue
        if table is not None:
            try:
                args[pos] = table[raw]
                continue
            except (KeyError, TypeError):  # `dec` decodes what the table lacks, or raises
                pass
        args[pos] = raw if dec is None else dec(raw, path, key, decoded)
    if seen != len(data):
        extra = sorted(set(data).difference(row.keys))
        _fail(f"unknown field(s) {', '.join(map(repr, extra))}", path)
    try:
        node = row.make(*args)
        if row.rule is not None:
            node = row.rule(node)
    except BuildError as exc:
        _fail(str(exc), path)
    if share is not None:  # only an object that decoded without error
        decoded[share] = node
    return node


# ---------------------------------------------------------------------------
# The table. A field is F(json key, kind[, attribute]); the attribute is the
# json key unless given, and the default is the row constructor's.


# Keys of the objects decoded once per document. JSON `true`, `1` and `1.0`
# are equal in Python, and so are `-0.0` and `0.0`.
_OBJECT = object()  # marks a nested object in a key


def _items(data: dict) -> tuple:
    """data's items, each nested object as (_OBJECT, its items)."""
    return tuple([(k, (_OBJECT, _items(v)) if type(v) is dict else v) for k, v in data.items()])


def _var_key(data: dict) -> tuple:
    """A valid variable object holds only strings, nulls and a list or
    object type's nested object, so its items are an exact key."""
    return _items(data) if "type" in data and type(data["type"]) is dict else tuple(data.items())


def _lit_key(data: dict) -> tuple | None:
    """A literal's items and its value's type; a float is not shared."""
    kind = type(data["value"]) if "value" in data else None
    return (kind, *data.items()) if kind is int or kind is str or kind is bool else None


F = _field
_TYPE_OBJECT = _Union("kind", "type kind")
_TYPE_OBJECT.define({
    "list": _Row(lambda elem: ir.TypeRepr("list", elem=elem), F("elem", _TYPE, 0)),
    "object": _Row(lambda name: ir.TypeRepr("object", class_name=name), F("class", _NAME, 0)),
})
_EXPR = _Union("op", "expression tag")
_STMT = _Union("stmt", "statement tag")
_EXPRS = _list(_EXPR)
_BODY = _list(_list(_STMT, ir.BlockRepr), ir.BodyRepr)
_VAR = _Row(ir.VariableRepr, F("name", _NAME), F("type", _TYPE), F("form", _ENUM),
            F("owner", _NAME), share=_var_key)
_VARS = _list(_VAR)

_EXPR.define({
    "lit": _Row(ir.Lit, F("kind", _ENUM), F("value", _AS_GIVEN), share=_lit_key),
    "var": _Row(ir.ValueOf, F("var", _VAR)),
    "unary": _Row(ir.Unary, F("name", _ENUM, "op"), F("operand", _EXPR), F("type", _TYPE)),
    "binary": _Row(ir.Binary, F("name", _ENUM, "op"), F("left", _EXPR), F("right", _EXPR),
                   F("type", _TYPE)),
    "inlineIf": _Row(ir.InlineIf, F("cond", _EXPR), F("then", _EXPR), F("else", _EXPR, "other")),
    "call": _Row(ir.Call, F("form", _ENUM), F("name", _NAME), F("args", _EXPRS),
                 F("returnType", _TYPE, "type"), F("receiver", _EXPR), F("library", _NAME)),
    "math": _Row(ir.MathCall, F("fn", _STR), F("args", _EXPRS), F("type", _TYPE)),
    "argsList": _Row(ir.ArgsList),
    "argAt": _Row(ir.ArgAt, F("index", _EXPR)),
    "argExists": _Row(ir.ArgExists, F("index", _EXPR)),
    "listAccess": _Row(ir.ListAccess, F("list", _EXPR, "lst"), F("index", _EXPR)),
    "listSize": _Row(ir.ListSize, F("list", _EXPR, "lst")),
    "listAppend": _Row(ir.ListAppend, F("list", _EXPR, "lst"), F("value", _EXPR)),
    "listIndexOf": _Row(ir.ListIndexOf, F("list", _EXPR, "lst"), F("value", _EXPR)),
})

_STMT.define({
    "varDec": _Row(ir.VarDec, F("var", _VAR)),
    "varDecDef": _Row(ir.VarDecDef, F("var", _VAR), F("value", _EXPR)),
    "assign": _Row(ir.Assign, F("mode", _ENUM), F("var", _VAR), F("value", _EXPR)),
    "listSet": _Row(ir.ListSet, F("list", _EXPR, "lst"), F("index", _EXPR), F("value", _EXPR)),
    "return": _Row(ir.Return, F("value", _EXPR)),
    "throw": _Row(ir.Throw, F("message", _STR)),
    "comment": _Row(ir.CommentStmt, F("text", _STR)),
    "break": _Row(ir.Break),
    "continue": _Row(ir.Continue),
    "expr": _Row(ir.ExprStmt, F("expr", _EXPR)),
    "block": _Row(ir.BlockRepr, F("statements", _list(_STMT))),
    "if": _Row(ir.If, F("branches", _list(_Row(tuple, F("cond", _EXPR, 0), F("body", _BODY, 1)))),
               F("else", _BODY, "else_body")),
    "switch": _Row(ir.Switch, F("value", _EXPR),
                   F("cases", _list(_Row(tuple, F("match", _EXPR, 0), F("body", _BODY, 1)))),
                   F("default", _BODY)),
    "for": _Row(ir.For, F("init", _STMT), F("cond", _EXPR), F("update", _STMT),
                F("body", _BODY)),
    "forRange": _Row(ir.ForRange, F("var", _VAR), F("start", _EXPR), F("end", _EXPR),
                     F("step", _EXPR), F("body", _BODY)),
    "forEach": _Row(ir.ForEach, F("var", _VAR), F("iterable", _EXPR), F("body", _BODY)),
    "while": _Row(ir.While, F("cond", _EXPR), F("body", _BODY)),
    "tryCatch": _Row(ir.TryCatch, F("try", _BODY, "try_body"), F("catch", _BODY, "catch_body")),
    "print": _Row(ir.Print, F("expr", _EXPR), F("newline", _BOOL)),
    "read": _Row(ir.Read, F("var", _VAR), F("parseInt", _BOOL, "parse_int")),
    "listSlice": _Row(ir.ListSlice, F("target", _VAR), F("source", _EXPR), F("start", _EXPR),
                      F("end", _EXPR), F("step", _EXPR)),
    "inOutCall": _Row(ir.InOutCall, F("name", _NAME), F("ins", _EXPRS), F("outs", _VARS),
                      F("inouts", _VARS)),
})

_DOC = _Row(ir.DocSpec, F("description", _STR),
            F("params", _list(_Kind(list, _param_doc)), "param_descs"),
            F("returns", _STR, "return_desc"))
_METHOD = _Row(ir.MethodRepr, F("name", _NAME), F("scope", _ENUM), F("binding", _ENUM),
               F("returnType", _TYPE, "return_type"), F("params", _VARS), F("body", _BODY),
               F("main", _BOOL, "is_main"), F("doc", _DOC),
               F("inout", _Row(ir.InOutSpec, F("inouts", _AS_GIVEN), F("ins", _AS_GIVEN))))
_STATE_VAR = _Row(ir.StateVarRepr, F("scope", _ENUM), F("binding", _ENUM),
                  F("var", _VAR, "variable"))
_CLASS = _Row(ir.ClassDeclRepr, F("name", _NAME), F("scope", _ENUM),
              F("stateVars", _list(_STATE_VAR), "state_vars"), F("methods", _list(_METHOD)),
              F("parent", _NAME), F("doc", _DOC))
_MODULE = _Row(ir.ModuleRepr, F("name", _NAME), F("imports", _list(_IMPORT)),
               F("functions", _list(_METHOD)), F("classes", _list(_CLASS)), F("doc", _DOC))
_PROGRAM = _Row(ir.PackageTree, F("name", _NAME), F("modules", _list(_MODULE)))
_AUXES = _list(_Row(ir.AuxFileSpec, F("kind", _ENUM), F("docRule", _BOOL, "with_doc_rule")))


def _version(raw, path, key, decoded):
    """Exactly the integer SCHEMA_VERSION: `3.0` equals 3 in Python."""
    if type(raw) is int and raw == SCHEMA_VERSION:
        return raw
    _fail(f"unsupported version {raw!r}; this reader handles version {SCHEMA_VERSION}",
          (path, key))


_VERSION = _Kind(None, _version)
# The document itself; encode_package writes "aux" even when it is empty. Its
# program decodes as `builders.prog` builds one, then gets its aux files.
_DOCUMENT = _Row(lambda version, program, aux=(): package(program, aux),
                 F("version", _VERSION, 0), F("program", _PROGRAM, 1), F("aux", _AUXES, 2))
del F


# ---------------------------------------------------------------------------
# Documents


# Depth is not counted per node: a tree or document that nests deeper than
# the recursion limit allows is caught as a RecursionError at these entry
# points, and reported without the path to the deep node.
_TOO_DEEP_TO_ENCODE = "package nests too deeply to encode"
_TOO_DEEP_TO_DECODE = "document nests too deeply to decode"


def encode_package(pkg: ir.PackageTree) -> dict:
    try:
        return {
            "version": SCHEMA_VERSION,
            "program": _encode(pkg, _PROGRAM),
            "aux": [_encode(a) for a in pkg.aux],
        }
    except RecursionError:
        raise NestingTooDeep(_TOO_DEEP_TO_ENCODE) from None


def dumps(pkg: ir.PackageTree, indent: int | None = None) -> str:
    """Compact by default; indent=2 gives the listing meant to be read."""
    data = encode_package(pkg)
    try:
        # encode_package builds a fresh tree, which has no cycles to look for.
        return json.dumps(data, indent=indent, check_circular=False) + "\n"
    except RecursionError:
        raise NestingTooDeep(_TOO_DEEP_TO_ENCODE) from None


def decode_package(data: object) -> ir.PackageTree:
    try:
        return _decode(_DOCUMENT, data, "$", {})  # the call's own sharing table
    except RecursionError:
        raise DecodeError(_TOO_DEEP_TO_DECODE, "$") from None


def loads(text: str) -> ir.PackageTree:
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or a number of too many digits
        raise DecodeError(f"invalid JSON: {exc}", "$") from None
    except RecursionError:
        raise DecodeError(_TOO_DEEP_TO_DECODE, "$") from None
    return decode_package(data)
