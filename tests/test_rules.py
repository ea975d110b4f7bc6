"""`builders.RULES` is the one statement of what a well-formed node is. For
each IR class it has a rule for, a JSON document that breaks the rule is
refused on decode at that node's path, with the message the builders raise
for the same mistake."""

import json

import pytest

from oogen import builders as bd, ir, jsonio, patterns as pt
from oogen.backends import TARGETS, get_backend
from oogen.errors import (
    BuildError, DecodeError, DuplicateStateLabel, InvalidIdentifier, SignatureMismatch,
    TypeMismatch,
)

_MODULE = "$.program.modules[0]"
_MAIN = _MODULE + ".functions[0]"
_STMT = _MAIN + ".body[0][0]"


def _lit(kind, value):
    return {"op": "lit", "kind": kind, "value": value}


ONE, TEXT = _lit("int", 1), _lit("string", "s")
INT_LIST = {"kind": "list", "elem": "int"}
XS = {"op": "var", "var": {"name": "xs", "type": INT_LIST}}
FUNCTION = {"name": "f", "scope": "public", "binding": "static", "returnType": "void",
            "params": [], "body": []}


def _xs():
    return bd.value_of(bd.var("xs", ir.list_of(ir.INT)))


def _f():
    return bd.function("f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [], bd.body([]))


def _base() -> dict:
    """A package whose main prints 0: body[0][0] is the print."""
    main = bd.main_function(bd.one_liner(pt.print_ln(bd.lit_int(0))))
    return jsonio.encode_package(bd.prog("p", [bd.build_module("Main", [], [main], [])]))


def _expr(node):
    """Print `node` instead of 0."""
    def put(doc):
        doc["program"]["modules"][0]["functions"][0]["body"][0][0]["expr"] = node
        return _STMT + ".expr"
    return put


def _stmt(node, at=""):
    """Replace the print with `node`; the rule's node is at `at` inside it."""
    def put(doc):
        doc["program"]["modules"][0]["functions"][0]["body"][0][0] = node
        return _STMT + at
    return put


def _module(**fields):
    def put(doc):
        doc["program"]["modules"][0].update(fields)
        return _MODULE
    return put


def _function(**fields):
    """Add a function `f` with `fields` after main."""
    def put(doc):
        doc["program"]["modules"][0]["functions"].append(dict(FUNCTION, **fields))
        return _MODULE + ".functions[1]"
    return put


def _duplicate_module(doc):
    modules = doc["program"]["modules"]
    modules.append(json.loads(json.dumps(modules[0])))
    return "$.program"


def _duplicate_params(doc):
    doc["program"]["modules"][0]["functions"][0]["params"] = [
        {"name": "x", "type": "int"}, {"name": "x", "type": "int"}]
    return _MAIN


def _print_of(expr):
    return {"stmt": "print", "expr": expr, "newline": True}


BOX_TYPE = {"kind": "object", "class": "Box"}
BOX = {"op": "newObj", "name": "Box", "args": []}
_METHOD = dict(FUNCTION, name="m", binding="dynamic")
_X = bd.var("x", ir.INT)
_EMPTY = bd.body([])

# IR class -> (a change that breaks its rule in the base document and gives
# the broken node's path, the builder call that breaks it the same way).
CASES = {
    # The variable constructors take the owner a form needs as an argument,
    # so no builder can leave it out: the rule runs on an IR node here.
    ir.VariableRepr: (
        _stmt({"stmt": "varDec", "var": {"name": "x", "type": "int", "form": "objectMember"}},
              ".var"),
        lambda: bd.RULES[ir.VariableRepr](
            ir.VariableRepr("x", ir.INT, form=ir.VarForm.OBJECT_MEMBER))),
    ir.Lit: (_expr(_lit("int", 2**31)), lambda: bd.lit_int(2**31)),
    ir.Unary: (_expr({"op": "unary", "name": "?!", "operand": ONE, "type": "bool"}),
               lambda: bd.apply_unary("?!", bd.lit_int(1))),
    # `x = True + "s"` fails in Python and in javac.
    ir.Binary: (_expr({"op": "binary", "name": "#+", "left": _lit("bool", True),
                       "right": TEXT, "type": "int"}),
                lambda: bd.apply_binary("#+", bd.lit_bool(True), bd.lit_string("s"))),
    ir.InlineIf: (_expr({"op": "inlineIf", "cond": ONE, "then": ONE, "else": ONE}),
                  lambda: bd.inline_if(bd.lit_int(1), bd.lit_int(1), bd.lit_int(1))),
    ir.Call: (_expr({"op": "call", "name": "2x", "args": [], "returnType": "int"}),
              lambda: bd.func_app("2x", ir.INT, [])),
    ir.ExtCall: (_expr({"op": "extCall", "name": "f", "args": [], "returnType": "int",
                        "library": "class"}),
                 lambda: bd.ext_func_app("class", "f", ir.INT, [])),
    ir.MethodCall: (_expr({"op": "methodCall", "name": "f", "args": [], "returnType": "int",
                           "receiver": TEXT}),
                    lambda: bd.method_call(bd.lit_string("s"), "f", ir.INT, [])),
    ir.NewObj: (_expr({"op": "newObj", "name": "", "args": []}), lambda: bd.new_obj("", [])),
    ir.MathCall: (_expr({"op": "math", "fn": "sin", "args": [TEXT], "type": "float"}),
                  lambda: pt.math_fn("sin", bd.lit_string("s"))),
    ir.ArgAt: (_expr({"op": "argAt", "index": TEXT}), lambda: pt.arg_at(bd.lit_string("s"))),
    ir.ArgExists: (_expr({"op": "argExists", "index": TEXT}),
                   lambda: pt.arg_exists(bd.lit_string("s"))),
    ir.ListAccess: (_expr({"op": "listAccess", "list": ONE, "index": ONE}),
                    lambda: pt.list_access(bd.lit_int(1), bd.lit_int(1))),
    ir.ListSize: (_expr({"op": "listSize", "list": ONE}), lambda: pt.list_size(bd.lit_int(1))),
    ir.ListAppend: (_expr({"op": "listAppend", "list": XS, "value": TEXT}),
                    lambda: pt.list_append(_xs(), bd.lit_string("s"))),
    ir.ListIndexOf: (_expr({"op": "listIndexOf", "list": XS, "value": TEXT}),
                     lambda: pt.index_of(_xs(), bd.lit_string("s"))),
    ir.Assign: (_stmt({"stmt": "assign", "mode": "set", "var": {"name": "x", "type": "int"}}),
                lambda: bd.assign(_X, None)),
    # javac: "incompatible types: String cannot be converted to int".
    ir.VarDecDef: (_stmt({"stmt": "varDecDef", "var": {"name": "x", "type": "int"},
                          "value": TEXT}),
                   lambda: bd.var_dec_def(_X, bd.lit_string("s"))),
    ir.ListSet: (_stmt({"stmt": "listSet", "list": XS, "index": TEXT, "value": ONE}),
                 lambda: pt.list_set(_xs(), bd.lit_string("s"), bd.lit_int(1))),
    ir.If: (_stmt({"stmt": "if", "branches": []}), lambda: bd.if_cond([])),
    ir.Switch: (_stmt({"stmt": "switch", "value": ONE, "cases": [
                    {"match": ONE, "body": []}, {"match": ONE, "body": []}]}),
                lambda: bd.switch(bd.lit_int(1), [(bd.lit_int(1), _EMPTY)] * 2)),
    ir.For: (_stmt({"stmt": "for", "init": {"stmt": "break"}, "cond": ONE,
                    "update": {"stmt": "break"}, "body": []}),
             lambda: bd.for_loop(bd.break_stmt(), bd.lit_int(1), bd.break_stmt(), _EMPTY)),
    ir.ForRange: (_stmt({"stmt": "forRange", "var": {"name": "i", "type": "float"},
                         "start": ONE, "end": ONE, "step": ONE, "body": []}),
                  lambda: bd.for_range(bd.var("i", ir.FLOAT), bd.lit_int(1), bd.lit_int(1),
                                       bd.lit_int(1), _EMPTY)),
    ir.ForEach: (_stmt({"stmt": "forEach", "var": {"name": "x", "type": "int"},
                        "iterable": ONE, "body": []}),
                 lambda: bd.for_each(_X, bd.lit_int(1), _EMPTY)),
    ir.While: (_stmt({"stmt": "while", "cond": ONE, "body": []}),
               lambda: bd.while_loop(bd.lit_int(1), _EMPTY)),
    ir.Read: (_stmt({"stmt": "read", "var": {"name": "s", "type": "string"}, "parseInt": True}),
              lambda: pt.read_int(bd.var("s", ir.STRING))),
    ir.ListSlice: (_stmt({"stmt": "listSlice", "target": {"name": "xs", "type": INT_LIST},
                          "source": ONE}),
                   lambda: pt.list_slice(bd.var("xs", ir.list_of(ir.INT)), bd.lit_int(1))),
    ir.ExprStmt: (_stmt({"stmt": "expr", "expr": ONE}), lambda: bd.call_stmt(bd.lit_int(1))),
    ir.Throw: (_stmt({"stmt": "throw", "message": 5}), lambda: bd.throw(5)),
    ir.CommentStmt: (_stmt({"stmt": "comment", "text": None}), lambda: bd.comment(None)),
    # `patterns.in_out_call` takes its callee's name: no builder takes a call's.
    ir.InOutCall: (_stmt({"stmt": "inOutCall", "name": "class", "ins": [], "outs": [],
                          "inouts": []}),
                   lambda: bd.RULES[ir.InOutCall](ir.InOutCall("class", (), (), ()))),
    ir.DocSpec: (lambda doc: _module(doc={"description": "d", "returns": 5})(doc) + ".doc",
                 lambda: bd.doc_func("d", [], 5, _fx())),
    # Python prints an object's address and Java its hash code; g++ finds no `<<`.
    ir.Print: (_stmt(_print_of(BOX)), lambda: pt.print_ln(bd.new_obj("Box", []))),
    # `patterns.in_out_func` counts the lists it is given: no builder takes a split.
    ir.InOutSpec: (lambda doc: _function(inout={"inouts": 0, "ins": -1})(doc) + ".inout",
                   lambda: bd.RULES[ir.InOutSpec](ir.InOutSpec(0, -1))),
    ir.StateVarRepr: (lambda doc: _state_var(scope="prv")(doc),
                      lambda: bd.state_var("prv", ir.Binding.DYNAMIC, _N)),
    ir.MethodRepr: (_duplicate_params,
                    lambda: bd.function("f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID,
                                        [bd.param(_X), bd.param(_X)], _EMPTY)),
    ir.ClassDeclRepr: (
        lambda doc: _module(classes=[{"name": "C", "scope": "public", "stateVars": [],
                                      "methods": [_METHOD, _METHOD]}])(doc) + ".classes[0]",
        lambda: bd.build_class("C", None, ir.Scope.PUBLIC, [], [
            bd.method("m", "C", ir.Scope.PUBLIC, ir.Binding.DYNAMIC, ir.VOID, [], _EMPTY)] * 2)),
    ir.ModuleRepr: (_module(functions=[FUNCTION, FUNCTION]),
                    lambda: bd.build_module("Main", [], [_f(), _f()], [])),
    ir.PackageTree: (_duplicate_module,
                     lambda: bd.prog("p", [bd.build_module("Main", [], [], [])] * 2)),
}


def test_every_rule_has_a_case():
    assert set(CASES) == set(bd.RULES)


@pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)
def test_decode_refuses_what_the_builder_refuses(cls):
    _refused_alike(*CASES[cls])


# More refusals, each with the builder call that is refused the same way.
# A literal builder hands its value to the rule as given, as the decoder
# does: `lit_int(2.5)` once built 2, and `lit_bool("false")` True.
MORE_CASES = {
    **{f"lit_{kind}({value!r})": (_expr(_lit(kind, value)),
                                  lambda build=build, value=value: build(value))
       for kind, build, value in [("int", bd.lit_int, 2.5), ("int", bd.lit_int, "7"),
                                  ("int", bd.lit_int, True), ("bool", bd.lit_bool, "false"),
                                  ("float", bd.lit_float, "1.5"),
                                  ("float", bd.lit_float, True),
                                  # A C++ char is one byte: g++ printed 'é' as 50089.
                                  ("char", bd.lit_char, "é")]},
    # Python prints None; javac says "'void' type not allowed here".
    "print of void": (_stmt(_print_of({"op": "call", "name": "f", "args": [],
                                       "returnType": "void"})),
                      lambda: pt.print_expr(bd.func_app("f", ir.VOID, []))),
    "print of a list of lists of objects": (
        _stmt(_print_of({"op": "var", "var": {"name": "bs", "type": {
            "kind": "list", "elem": {"kind": "list", "elem": BOX_TYPE}}}})),
        lambda: pt.print_ln(bd.value_of(bd.var("bs", ir.list_of(ir.list_of(ir.obj_of("Box"))))))),
    # Java, C# and C++ read it as a constructor: javac says "missing return
    # statement", and g++ "return type specification for constructor invalid".
    "method named after its class": (
        lambda doc: _module(classes=[{"name": "Box", "scope": "public", "stateVars": [],
                                      "methods": [dict(_METHOD, name="Box")]}])(doc)
        + ".classes[0]",
        lambda: bd.build_class("Box", None, ir.Scope.PUBLIC, [], [bd.method(
            "Box", "Box", ir.Scope.PUBLIC, ir.Binding.DYNAMIC, ir.VOID, [], _EMPTY)])),
}


@pytest.mark.parametrize("case", list(MORE_CASES))
def test_decode_refuses_what_the_builder_refuses_beyond_one_case_per_rule(case):
    _refused_alike(*MORE_CASES[case])


def _refused_alike(put, build):
    """`build()` raises a BuildError, and the base document changed by `put`
    is refused with its message at the path `put` gives."""
    doc = _base()
    path = put(doc)
    with pytest.raises(BuildError) as built:
        build()
    with pytest.raises(DecodeError) as decoded:
        jsonio.loads(json.dumps(doc))
    assert decoded.value.path == path
    assert str(decoded.value) == f"{path}: {built.value}"


# Each enumerated field's value is judged by its node's rule alone, which the
# builders run and the decoder runs on the value as the JSON gives it: any
# value outside the field's set is refused, a string that is code, a null,
# a number, an array or an object alike, with one message. A scope or binding
# once rendered verbatim (`bd.function("f", "public static void evil() {}
# public", ...)`), and an unknown aux kind failed only at render.

def _class(scope="public", state_scope="public", state_binding="dynamic"):
    """A module class `C` holding the state variable `n`."""
    return _module(classes=[{"name": "C", "scope": scope, "methods": [], "stateVars": [
        {"scope": state_scope, "binding": state_binding, "var": {"name": "n", "type": "int"}}]}])


def _state_var(scope="public", binding="dynamic"):
    put = _class(state_scope=scope, state_binding=binding)
    return lambda doc: put(doc) + ".classes[0].stateVars[0]"


_N = bd.var("n", ir.INT)


def _build_class(scope=ir.Scope.PUBLIC, state_scope=ir.Scope.PUBLIC,
                 state_binding=ir.Binding.DYNAMIC):
    return bd.build_class("C", None, scope, [
        bd.state_var(state_scope, state_binding, _N)], [])


def _aux(kind, **fields):
    def put(doc):
        doc["aux"] = [{"kind": kind, **fields}]
        return "$"
    return put


TRUE = _lit("bool", True)
_MAIN_MODULE = bd.build_module("Main", [], [bd.main_function(_EMPTY)], [])
# field -> (a document change that gives it value v and the path of the node
# refusing it, the builder call, or the rule on a node, that gives it v)
ENUMERATED = {
    "method scope": (lambda v: _function(scope=v), lambda v: bd.function(
        "f", v, ir.Binding.STATIC, ir.VOID, [], _EMPTY)),
    "method binding": (lambda v: _function(binding=v), lambda v: bd.function(
        "f", ir.Scope.PUBLIC, v, ir.VOID, [], _EMPTY)),
    "class scope": (lambda v: lambda doc: _class(scope=v)(doc) + ".classes[0]",
                    lambda v: _build_class(scope=v)),
    "state variable scope": (lambda v: _state_var(scope=v),
                             lambda v: bd.state_var(v, ir.Binding.DYNAMIC, _N)),
    "state variable binding": (lambda v: _state_var(binding=v),
                               lambda v: bd.state_var(ir.Scope.PUBLIC, v, _N)),
    "variable form": (
        lambda v: _stmt({"stmt": "varDec", "var": {"name": "x", "type": "int", "form": v}},
                        ".var"),
        lambda v: bd.RULES[ir.VariableRepr](ir.VariableRepr("x", ir.INT, v))),
    "assign mode": (
        lambda v: _stmt({"stmt": "assign", "mode": v, "var": {"name": "x", "type": "int"},
                         "value": ONE}),
        lambda v: bd.RULES[ir.Assign](ir.Assign(v, _X, bd.lit_int(1)))),
    "literal kind": (lambda v: _expr(_lit(v, 1)), lambda v: bd.RULES[ir.Lit](ir.Lit(v, 1))),
    "unary operator": (
        lambda v: _expr({"op": "unary", "name": v, "operand": TRUE, "type": "bool"}),
        lambda v: bd.RULES[ir.Unary](ir.Unary(v, bd.lit_bool(True), ir.BOOL))),
    "binary operator": (
        lambda v: _expr({"op": "binary", "name": v, "left": ONE, "right": ONE, "type": "int"}),
        lambda v: bd.RULES[ir.Binary](ir.Binary(v, bd.lit_int(1), bd.lit_int(1), ir.INT))),
    "aux kind": (_aux, lambda v: bd.package(bd.prog("p", [_MAIN_MODULE]), [ir.AuxFileSpec(v)])),
    "in-out count": (
        lambda v: lambda doc: _function(inout={"inouts": v, "ins": 0})(doc) + ".inout",
        lambda v: bd.RULES[ir.InOutSpec](ir.InOutSpec(v, 0))),
    "in count": (
        lambda v: lambda doc: _function(inout={"inouts": 0, "ins": v})(doc) + ".inout",
        lambda v: bd.RULES[ir.InOutSpec](ir.InOutSpec(0, v))),
}


@pytest.mark.parametrize("value", ["prv", None, -1, True, [], {"a": 1}],
                         ids=["a string", "null", "-1", "true", "an array", "an object"])
@pytest.mark.parametrize("field", list(ENUMERATED))
def test_an_enumerated_value_outside_its_set_is_refused_built_and_decoded(field, value):
    put, build = ENUMERATED[field]
    with pytest.raises(BuildError) as built:
        build(value)
    doc = _base()
    path = put(value)(doc)
    with pytest.raises(DecodeError) as decoded:
        jsonio.decode_package(doc)
    assert str(decoded.value) == f"{path}: {built.value}"


def test_every_valid_enumerated_value_builds_and_decodes():
    for scope in ir.names(ir.Scope):
        for binding in ir.names(ir.Binding):
            _build_class(scope, scope, binding)
            for put in (_function(scope=scope, binding=binding),
                        _class(scope, scope, binding)):
                doc = _base()
                put(doc)
                jsonio.decode_package(doc)
    for kind in ("makefile", "doxygen"):
        doc = _base()
        _aux(kind)(doc)
        assert jsonio.decode_package(doc).aux == (ir.AuxFileSpec(kind),)


# Each string and boolean field is judged by its node's rule too, on the
# value as the JSON gives it. `bd.throw(5)`, `bd.comment(None)` and
# `bd.doc_func(5, ...)` once built, and then every renderer raised.

def _documented_f(**fields):
    """A function f(int x) with a doc of `fields`."""
    put = _function(params=[{"name": "x", "type": "int"}],
                    doc={"description": "d", **fields})
    return lambda doc: put(doc) + ".doc"


def _fx():
    return bd.function("f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [_X], _EMPTY)


_PAIR = "param doc must be a [name, description] pair"
_A_STRING, _A_BOOLEAN = [5, True, ["s"], {"a": "s"}], [1, "true", None, ["s"]]
# field -> (the message, with {v!r} for the value, the values of the wrong
# type, a document change that gives the field v and the path of the node
# refusing it, and each builder call, or rule on a node, that gives it v)
STRINGS_AND_BOOLEANS = {
    "throw message": ("field 'message' must be a string", _A_STRING,
                      lambda v: _stmt({"stmt": "throw", "message": v}), [bd.throw]),
    "comment text": ("field 'text' must be a string", _A_STRING,
                     lambda v: _stmt({"stmt": "comment", "text": v}), [bd.comment]),
    "doc description": (
        "field 'description' must be a string", _A_STRING,
        lambda v: _documented_f(description=v),
        [lambda v: bd.doc_func(v, [], None, _fx()),
         lambda v: bd.doc_class(v, bd.build_class("C", None, ir.Scope.PUBLIC, [], [])),
         lambda v: bd.doc_mod(v, _MAIN_MODULE)]),
    "doc returns": ("field 'returns' must be a string", _A_STRING,
                    lambda v: _documented_f(returns=v),
                    [lambda v: bd.doc_func("d", [], v, _fx())]),
    "doc param name": (_PAIR, _A_STRING, lambda v: _documented_f(params=[[v, "t"]]),
                       [lambda v: bd.doc_func("d", [(v, "t")], None, _fx())]),
    "doc param text": (_PAIR, _A_STRING, lambda v: _documented_f(params=[["x", v]]),
                       [lambda v: bd.doc_func("d", [("x", v)], None, _fx())]),
    "doc param pair": (_PAIR, [[], ["x"], ["x", "t", "u"]],
                       lambda v: _documented_f(params=[v]),
                       [lambda v: bd.doc_func("d", [v], None, _fx())]),
    "math function": (
        "unknown math function {v!r}", _A_STRING,
        lambda v: _expr({"op": "math", "fn": v, "args": [_lit("float", 1.5)], "type": "float"}),
        [lambda v: pt.math_fn(v, bd.lit_float(1.5))]),
    "print newline": ("field 'newline' must be a boolean", _A_BOOLEAN,
                      lambda v: _stmt({"stmt": "print", "expr": ONE, "newline": v}),
                      [lambda v: bd.RULES[ir.Print](ir.Print(bd.lit_int(1), v))]),
    "read parseInt": (
        "field 'parseInt' must be a boolean", _A_BOOLEAN,
        lambda v: _stmt({"stmt": "read", "var": {"name": "n", "type": "int"}, "parseInt": v}),
        [lambda v: bd.RULES[ir.Read](ir.Read(_N, v))]),
    "method main": ("field 'main' must be a boolean", _A_BOOLEAN, lambda v: _function(main=v),
                    [lambda v: bd.RULES[ir.MethodRepr](ir.MethodRepr(
                        "f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, (), _EMPTY,
                        is_main=v))]),
    "aux docRule": ("field 'docRule' must be a boolean", _A_BOOLEAN,
                    lambda v: _aux("makefile", docRule=v),
                    [lambda v: bd.package(bd.prog("p", [_MAIN_MODULE]),
                                          [ir.AuxFileSpec("makefile", v)])]),
}


@pytest.mark.parametrize("field, value", [
    (field, value) for field, (_, values, _, _) in STRINGS_AND_BOOLEANS.items()
    for value in values])
def test_a_string_or_boolean_of_another_type_is_refused_built_and_decoded(field, value):
    message, _, put, builds = STRINGS_AND_BOOLEANS[field]
    message = message.format(v=value)
    for build in builds:
        with pytest.raises(BuildError) as built:
            build(value)
        assert str(built.value) == message
    doc = _base()
    path = put(value)(doc)
    with pytest.raises(DecodeError) as decoded:
        jsonio.decode_package(doc)
    assert str(decoded.value) == f"{path}: {message}"


class _Text(str):
    pass


def test_a_text_may_be_a_str_subclass():
    # As the decoder takes one (see test_json_roundtrip); a name may not.
    t = _Text("t")
    assert bd.throw(t).message is t and bd.comment(t).text is t
    assert bd.doc_func(t, [(_Text("x"), t)], t, _fx()).doc == ir.DocSpec("t", (("x", "t"),), "t")
    assert bd.doc_class(t, bd.build_class("C", None, ir.Scope.PUBLIC, [], [])).doc.description is t
    assert bd.doc_mod(t, _MAIN_MODULE).doc.description is t


def test_apply_unary_and_apply_binary_leave_an_unknown_name_to_the_rule():
    with pytest.raises(TypeMismatch, match=r"^unknown unary operator '#\+'$"):
        bd.apply_unary("#+", bd.lit_int(1))
    with pytest.raises(TypeMismatch, match=r"^unknown binary operator '\?!'$"):
        bd.apply_binary("?!", bd.lit_bool(True), bd.lit_bool(True))


# The literal rule checks the payload's type: `bd.lit_string(5)` used to
# build and then fail at render, and `bd.lit_char(5)` raised a bare TypeError.

@pytest.mark.parametrize("build, kind, value", [
    (bd.lit_string, "string", 5), (bd.lit_char, "char", 5), (bd.lit_string, "string", None),
], ids=["string-5", "char-5", "string-None"])
def test_a_literal_payload_of_the_wrong_type_is_refused_built_and_decoded(build, kind, value):
    with pytest.raises(TypeMismatch) as built:
        build(value)
    assert str(built.value) == f"value does not fit literal kind {kind!r}"
    doc = _base()
    path = _expr(_lit(kind, value))(doc)
    with pytest.raises(DecodeError) as decoded:
        jsonio.decode_package(doc)
    assert str(decoded.value) == f"{path}: {built.value}"


# A value fills a variable only of exactly its type (see the table test
# below for every slot). Python took `int x = "s"`.

@pytest.mark.parametrize("build, node, message", [
    (lambda: bd.assign(_X, bd.lit_string("s")),
     {"stmt": "assign", "mode": "set", "var": {"name": "x", "type": "int"}, "value": TEXT},
     "assign x: variable type int, value type string"),
    (lambda: bd.var_dec_def(bd.var("ys", ir.list_of(ir.FLOAT)), _xs()),
     {"stmt": "varDecDef", "var": {"name": "ys", "type": {"kind": "list", "elem": "float"}},
      "value": XS},
     "varDecDef ys: variable type list of float, value type list of int"),
    (lambda: bd.var_dec_def(bd.var("n", ir.INT), bd.lit_float(1.5)),
     {"stmt": "varDecDef", "var": {"name": "n", "type": "int"}, "value": _lit("float", 1.5)},
     "varDecDef n: variable type int, value type float"),
], ids=["assign-string-to-int", "int-list-to-float-list", "float-to-int"])
def test_a_value_that_does_not_fit_its_variable_is_refused_built_and_decoded(
        build, node, message):
    with pytest.raises(TypeMismatch, match=message):
        build()
    doc = _base()
    _stmt(node)(doc)
    with pytest.raises(DecodeError) as err:
        jsonio.decode_package(doc)
    assert str(err.value) == f"{_STMT}: {message}"


# An int once widened to a float, and an object of any class filled an
# object variable. Python printed `double x = 3` as `3` and Java as `3.0`;
# for two unrelated classes javac said "B cannot be converted to A" and g++
# "conversion from 'B' to non-scalar type 'A'", while Python ran.

_F, _SHAPE, _THREE = bd.var("f", ir.FLOAT), bd.var("s", ir.obj_of("Shape")), bd.lit_int(3)


def _set(variable, value) -> ir.Assign:
    return ir.Assign(ir.AssignMode.SET, variable, value)


@pytest.mark.parametrize("build, make, var, value, message", [
    (bd.var_dec_def, ir.VarDecDef, _F, _THREE, "varDecDef f: variable type float, value type int"),
    (bd.assign, _set, _F, _THREE, "assign f: variable type float, value type int"),
    (bd.var_dec_def, ir.VarDecDef, _SHAPE, bd.new_obj("Circle", []),
     "varDecDef s: variable type Shape, value type Circle"),
    (bd.assign, _set, _SHAPE, bd.new_obj("Square", []),
     "assign s: variable type Shape, value type Square"),
], ids=["varDecDef-int-into-float", "assign-int-into-float", "varDecDef-another-class",
        "assign-another-class"])
def test_an_int_does_not_widen_to_a_float_nor_an_object_fill_another_class(
        build, make, var, value, message):
    with pytest.raises(TypeMismatch, match=f"^{message}$"):
        build(var, value)
    with pytest.raises(DecodeError) as decoded:
        jsonio.decode_package(_main_doc(make(var, value)))
    assert str(decoded.value) == f"{_STMT}: {message}"


# Every target tests `i <= end` whatever the step's sign: a literal step of
# 0, or a negative one from a literal start at or below a literal end, would
# loop forever (Python printed `0` until killed).

def _range_node(start, end, step) -> dict:
    return {"stmt": "forRange", "var": {"name": "i", "type": "int"}, "start": _lit("int", start),
            "end": _lit("int", end), "step": _lit("int", step), "body": []}


@pytest.mark.parametrize("start, end, step, message", [
    (0, 3, 0, "forRange step must not be 0"),
    (0, 3, -1, "forRange from 0 to 3 by -1 never ends"),
    (2, 2, -1, "forRange from 2 to 2 by -1 never ends"),
], ids=["zero-step", "down-from-below", "down-from-the-end"])
def test_a_range_that_never_ends_is_refused_built_and_decoded(start, end, step, message):
    with pytest.raises(BuildError, match=message):
        bd.for_range(bd.var("i", ir.INT), bd.lit_int(start), bd.lit_int(end),
                     bd.lit_int(step), _EMPTY)
    doc = _base()
    _stmt(_range_node(start, end, step))(doc)
    with pytest.raises(DecodeError) as err:
        jsonio.decode_package(doc)
    assert str(err.value) == f"{_STMT}: {message}"


def test_a_descending_range_from_above_its_end_builds_and_decodes():
    doc = _base()
    _stmt(_range_node(3, 0, -1))(doc)
    loop = bd.for_range(bd.var("i", ir.INT), bd.lit_int(3), bd.lit_int(0), bd.lit_int(-1), _EMPTY)
    assert jsonio.decode_package(doc).modules[0].functions[0].body.blocks[0].statements[0] == loop


# javac: "duplicate case label"; g++: "duplicate case value".

def test_a_repeated_switch_case_is_refused_built_and_decoded():
    one, two = bd.lit_int(1), bd.lit_int(2)
    with pytest.raises(DuplicateStateLabel, match="switch case 1 listed twice"):
        bd.switch(bd.lit_int(1), [(one, _EMPTY), (two, _EMPTY), (one, _EMPTY)])
    with pytest.raises(DuplicateStateLabel, match="switch case 'On' listed twice"):
        pt.check_state("s", [(bd.lit_string("On"), _EMPTY)] * 2, _EMPTY)
    doc = _base()
    _stmt({"stmt": "switch", "value": ONE, "cases": [
        {"match": ONE, "body": []}, {"match": _lit("int", 2), "body": []},
        {"match": ONE, "body": []}]})(doc)
    with pytest.raises(DecodeError) as err:
        jsonio.decode_package(doc)
    assert str(err.value) == f"{_STMT}: switch case 1 listed twice"


# An in/out procedure lists its parameters once, in `params`: `inout` says
# how many of them lead as in-outs and how many ins follow, and the rest are
# outs. `patterns.in_out_func` builds them so.

def _in_out_doc() -> dict:
    a, b, c = bd.var("a", ir.INT), bd.var("b", ir.INT), bd.var("c", ir.INT)
    swap = pt.in_out_func("swap", ir.Scope.PUBLIC, ir.Binding.STATIC, [a], [b], [c], _EMPTY)
    assert [p.name for p in swap.params] == ["c", "a", "b"]
    return jsonio.encode_package(bd.prog("p", [bd.build_module("M", [], [swap], [])]))


_COUNT = "must be a count: an integer, 0 or more"
# Fields of an in/out method that its rule refuses, and where each is refused:
# a split the parameters cannot take, and a return type other than void,
# which C++ alone would declare (`int swap(...)` with no return statement).
_IN_OUT_BREAKS = {
    "in-outs past the parameters": ({"inout": {"inouts": 4, "ins": 0}}, "",
                                    "inOutFunc 'swap' splits more parameters than it has"),
    "ins past the parameters": ({"inout": {"inouts": 1, "ins": 3}}, "",
                                "inOutFunc 'swap' splits more parameters than it has"),
    "no output": ({"inout": {"inouts": 0, "ins": 3}}, "", "inOutFunc 'swap' declares no outputs"),
    "a negative count": ({"inout": {"inouts": 1, "ins": -1}}, ".inout", f"field 'ins' {_COUNT}"),
    "a boolean count": ({"inout": {"inouts": True, "ins": 1}}, ".inout",
                        f"field 'inouts' {_COUNT}"),
    "a float count": ({"inout": {"inouts": 1.0, "ins": 1}}, ".inout", f"field 'inouts' {_COUNT}"),
    "an int return": ({"returnType": "int"}, "", "inOutFunc 'swap' must return void"),
}


def test_in_out_params_as_built_decode():
    doc = _in_out_doc()
    swap = doc["program"]["modules"][0]["functions"][0]
    assert swap["inout"] == {"inouts": 1, "ins": 1}
    assert jsonio.encode_package(jsonio.decode_package(doc)) == doc


@pytest.mark.parametrize("case", list(_IN_OUT_BREAKS))
def test_an_in_out_method_breaking_its_rule_is_refused(case):
    fields, where, message = _IN_OUT_BREAKS[case]
    doc = _in_out_doc()
    doc["program"]["modules"][0]["functions"][0].update(fields)
    with pytest.raises(DecodeError) as err:
        jsonio.decode_package(doc)
    assert str(err.value) == f"{_MODULE}.functions[0]{where}: {message}"


# Statements each target but Python refuses to compile, or runs otherwise,
# that the rules once let through: built, each raises; decoded, each is a
# DecodeError at its node with the builder's message.

def _main_doc(*statements) -> dict:
    """A package whose main holds `statements`, made without the rules."""
    main = ir.MethodRepr("main", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, (),
                         bd.body_statements(list(statements)), is_main=True)
    return jsonio.encode_package(ir.PackageTree("p", (ir.ModuleRepr("Main", (), (main,), ()),)))


_I = bd.var("i", ir.INT)
_BELOW_3 = bd.apply_binary("?<", bd.value_of(_I), bd.lit_int(3))
_START, _STEP = bd.var_dec_def(_I, bd.lit_int(0)), bd.inc(_I)

# (builder, IR class, arguments both take)
_REFUSED_STATEMENTS = {
    # javac and g++ refuse a comment, a return or a block in a for header;
    # an if there used to fail only at render, in the C family.
    "for init comment": (bd.for_loop, ir.For, (bd.comment("start"), _BELOW_3, _STEP, _EMPTY)),
    "for init return": (bd.for_loop, ir.For,
                        (bd.return_stmt(bd.lit_int(0)), _BELOW_3, _STEP, _EMPTY)),
    "for init if": (bd.for_loop, ir.For,
                    (bd.if_cond([(bd.lit_bool(True), _EMPTY)]), _BELOW_3, _STEP, _EMPTY)),
    "for init block": (bd.for_loop, ir.For, (bd.block([_START]), _BELOW_3, _STEP, _EMPTY)),
    # javac: "might not have been initialized"; Python: NameError.
    "for init varDec": (bd.for_loop, ir.For, (bd.var_dec(_I), _BELOW_3, _STEP, _EMPTY)),
    # javac and g++ refuse it; Python resets i on every pass and never ends.
    "for update varDecDef": (bd.for_loop, ir.For,
                             (_START, _BELOW_3, bd.var_dec_def(_I, bd.lit_int(1)), _EMPTY)),
    "for update print": (bd.for_loop, ir.For,
                         (_START, _BELOW_3, pt.print_ln(bd.lit_int(1)), _EMPTY)),
    # javac: "patterns in switch statements are a preview feature"; g++:
    # "switch quantity not an integer".
    "switch on float": (bd.switch, ir.Switch, (bd.value_of(bd.var("x", ir.FLOAT)),
                                               ((bd.lit_float(1.0), _EMPTY),), None)),
    "switch on bool": (bd.switch, ir.Switch, (bd.value_of(bd.var("b", ir.BOOL)),
                                              ((bd.lit_bool(True), _EMPTY),), None)),
    "switch on a list": (bd.switch, ir.Switch, (_xs(), (), _EMPTY)),
    # javac: "not a statement".
    "expr binary": (bd.call_stmt, ir.ExprStmt,
                    (bd.apply_binary("#+", bd.lit_int(1), bd.lit_int(2)),)),
    "expr variable": (bd.call_stmt, ir.ExprStmt, (bd.value_of(_I),)),
}


@pytest.mark.parametrize("case", list(_REFUSED_STATEMENTS))
def test_a_statement_no_compiler_takes_is_refused_built_and_decoded(case):
    build, cls, args = _REFUSED_STATEMENTS[case]
    with pytest.raises(BuildError) as built:
        build(*args)
    with pytest.raises(DecodeError) as decoded:
        jsonio.decode_package(_main_doc(cls(*args)))
    assert str(decoded.value) == f"{_STMT}: {built.value}"


def test_every_allowed_for_header_builds_and_decodes():
    xs = bd.var("xs", ir.list_of(ir.INT))
    grow = bd.call_stmt(pt.list_append(bd.value_of(xs), bd.lit_int(1)))
    call = bd.call_stmt(bd.func_app("f", ir.VOID, []))
    loops = [bd.for_loop(init, _BELOW_3, update, _EMPTY)
             for init in (_START, bd.assign(_I, bd.lit_int(0)), grow, call)
             for update in (_STEP, bd.add_eq(_I, bd.lit_int(2)), grow, call)]
    doc = _main_doc(*loops)
    assert jsonio.encode_package(jsonio.decode_package(doc)) == doc


@pytest.mark.parametrize("use", [lambda t: pt.init_observer_list(t, []),
                                 lambda t: pt.notify_observers("update", t)],
                         ids=["init", "notify"])
def test_an_observer_class_name_is_checked_as_built(use):
    # The decoder refuses the same name in any type; Java rendered `x y`.
    with pytest.raises(InvalidIdentifier, match="not a legal identifier: 'x y'"):
        use(ir.obj_of("x y"))


def test_a_loop_over_the_observer_list_before_its_declaration_does_not_decode():
    a = ir.obj_of("A")
    doc = _main_doc(pt.notify_observers("update", a), pt.init_observer_list(a, []))
    with pytest.raises(DecodeError) as decoded:
        jsonio.decode_package(doc)
    assert str(decoded.value) == (
        f"{_MAIN}: observer list used before initObserverList in this body")


# Only the local list of that name is the observer list, declared by a
# parameter or in the body: a member list of that name is another variable.

def test_a_list_of_the_observer_list_name_needs_no_init_where_it_is_declared_otherwise():
    ints = ir.list_of(ir.INT)
    xs, member = bd.var(ir.OBSERVER_LIST_NAME, ints), bd.self_var(ir.OBSERVER_LIST_NAME, ints)

    def grow(lst):
        return bd.call_stmt(pt.list_append(bd.value_of(lst), bd.lit_int(1)))

    param = bd.function("f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [bd.param(xs)],
                        bd.one_liner(grow(xs)))
    local = bd.function("g", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [], bd.body_statements(
        [bd.var_dec_def(xs, bd.func_app("make", ints, [])), grow(xs)]))
    cls = bd.build_class("C", None, ir.Scope.PUBLIC,
                         [bd.state_var(ir.Scope.PRIVATE, ir.Binding.DYNAMIC, xs)],
                         [bd.method("h", "C", ir.Scope.PUBLIC, ir.Binding.DYNAMIC, ir.VOID, [],
                                    bd.one_liner(grow(member)))])
    pkg = bd.prog("p", [bd.build_module("M", [], [param, local], [cls])])
    assert jsonio.decode_package(jsonio.encode_package(pkg)) == pkg


# One fit rule: wherever a value fills a slot, the value has exactly the
# slot's type, by `TypeRepr` equality. Each site below takes every pair of
# its types, and accepts exactly the equal pairs, built and decoded; every
# other pair is refused with one message, naming the operation, the slot and
# both types. Rows of note, each once built and run:
# - an int into a float (`varDecDef`, `assign`, `return`): Python printed
#   `3`, Java `3.0`;
# - `int x = 1; x += 1.5` (`addEq`): Python printed 2.5, Java and C++ 2;
# - an object of another class (`varDecDef`): javac "B cannot be converted
#   to A", g++ "conversion from 'B' to non-scalar type 'A'";
# - `b ? xs : ys` of lists of ints and of strings (`inlineIf`): g++ "operands
#   to '?:' have different types";
# - a list of strings as an in-out list of ints (`inOutCall`): javac
#   "incompatible types", g++ "invalid initialization of reference";
# - a slice of a list of ints into a list of strings (`listSlice`): javac
#   "Integer cannot be converted to String", g++ "no matching function";
# - an int appended to, set in or looked up in a list of floats
#   (`listAppend`, `listSet`, `listIndexOf`): javac refuses `xs.add(2)` on
#   an ArrayList<Double>, and `xs.indexOf(3)` finds nothing; a float
#   appended to a list of ints printed `[2.5]` in Python and `[2]` in C++.
# A decoded in/out call is not checked against its callee, so only built.

_FIT_TYPES = {"int": ir.INT, "float": ir.FLOAT, "string": ir.STRING,
              "list of int": ir.list_of(ir.INT), "list of float": ir.list_of(ir.FLOAT),
              "list of string": ir.list_of(ir.STRING), "A": ir.obj_of("A"), "B": ir.obj_of("B")}
_NUMBERS = ("int", "float")
_LISTS = ("list of int", "list of float", "list of string")
_TRUE = bd.lit_bool(True)


def _v(type_, name="v"):
    return ir.ValueOf(ir.VariableRepr(name, type_))


def _x(type_):
    return ir.VariableRepr("x", type_)


def _observers(type_):
    return _v(ir.list_of(type_), ir.OBSERVER_LIST_NAME)


def _returning(type_, value) -> ir.MethodRepr:
    return ir.MethodRepr("f", ir.Scope.PUBLIC, ir.Binding.STATIC, type_, (),
                         bd.one_liner(ir.Return(value)))


def _in_out(group):
    """The call of an in/out procedure `g` whose one parameter `a`, in
    `group`, has the slot's type, given one argument there of the value's."""
    out = [bd.var("o", ir.INT)] if group == "ins" else []  # an in/out procedure has an output

    def call(want, got):
        func = pt.in_out_func("g", ir.Scope.PUBLIC, ir.Binding.STATIC, body_=_EMPTY, **{
            "inouts": [], "ins": [], "outs": out, group: [bd.var("a", want)]})
        arg = _v(got) if group == "ins" else bd.var("v", got)
        return pt.in_out_call(func, **{"inouts": [], "ins": [], "outs": out, group: [arg]})
    return call


# site -> (its types; the slot's and the value's types -> the node or
# method the builders make, and the same made without the rules, or None
# where it does not decode; the path of the refused node; the message's
# operation and slot)
_FIT_SITES = {
    "varDecDef": (_FIT_TYPES, lambda w, g: bd.var_dec_def(_x(w), _v(g)),
                  lambda w, g: ir.VarDecDef(_x(w), _v(g)), _STMT, "varDecDef x", "variable"),
    "assign": (_FIT_TYPES, lambda w, g: bd.assign(_x(w), _v(g)),
               lambda w, g: _set(_x(w), _v(g)), _STMT, "assign x", "variable"),
    "addEq": (_NUMBERS, lambda w, g: bd.add_eq(_x(w), _v(g)),
              lambda w, g: ir.Assign("addEq", _x(w), _v(g)), _STMT, "&-=/&+= x", "variable"),
    "subEq": (_NUMBERS, lambda w, g: bd.sub_eq(_x(w), _v(g)),
              lambda w, g: ir.Assign("subEq", _x(w), _v(g)), _STMT, "&-=/&+= x", "variable"),
    "return": (_FIT_TYPES, lambda w, g: bd.RULES[ir.MethodRepr](_returning(w, _v(g))),
               lambda w, g: _returning(w, _v(g)), _MODULE + ".functions[1]", "return from f",
               "return"),
    "listAppend": (_FIT_TYPES, lambda w, g: bd.call_stmt(pt.list_append(_v(ir.list_of(w)), _v(g))),
                   lambda w, g: ir.ExprStmt(ir.ListAppend(_v(ir.list_of(w)), _v(g))),
                   _STMT + ".expr", "listAppend", "element"),
    "listIndexOf": (_FIT_TYPES, lambda w, g: pt.print_ln(pt.index_of(_v(ir.list_of(w)), _v(g))),
                    lambda w, g: ir.Print(ir.ListIndexOf(_v(ir.list_of(w)), _v(g)), True),
                    _STMT + ".expr", "indexOf", "element"),
    "listSet": (_FIT_TYPES, lambda w, g: pt.list_set(_v(ir.list_of(w)), bd.lit_int(0), _v(g)),
                lambda w, g: ir.ListSet(_v(ir.list_of(w)), bd.lit_int(0), _v(g)), _STMT,
                "listSet", "element"),
    "forEach": (_FIT_TYPES, lambda w, g: bd.for_each(_x(w), _v(ir.list_of(g)), _EMPTY),
                lambda w, g: ir.ForEach(_x(w), _v(ir.list_of(g)), _EMPTY), _STMT, "forEach x",
                "variable"),
    # In a definition, as a print takes no object.
    "inlineIf": (_FIT_TYPES,
                 lambda w, g: bd.var_dec_def(_x(w), bd.inline_if(_TRUE, _v(w), _v(g))),
                 lambda w, g: ir.VarDecDef(_x(w), ir.InlineIf(_TRUE, _v(w), _v(g))),
                 _STMT + ".value", "inlineIf else", "then"),
    "listSlice": (_LISTS, lambda w, g: pt.list_slice(_x(w), _v(g)),
                  lambda w, g: ir.ListSlice(_x(w), _v(g), None, None, None), _STMT,
                  "listSlice x", "variable"),
    # The observer list's uses, as `pt.add_observer` and `pt.notify_observers`
    # make them for objects, after `pt.init_observer_list`.
    "addObserver": (_FIT_TYPES, lambda w, g: bd.main_function(bd.body_statements([
        pt.init_observer_list(w, []), bd.call_stmt(pt.list_append(_observers(g), _v(g)))])),
                    lambda w, g: _observed(w, ir.ExprStmt(ir.ListAppend(_observers(g), _v(g)))),
                    _MAIN, "addObserver", "element"),
    "notifyObservers": (_FIT_TYPES, lambda w, g: bd.main_function(bd.body_statements([
        pt.init_observer_list(w, []), bd.for_each(_x(g), _observers(g), _EMPTY)])),
                        lambda w, g: _observed(w, ir.ForEach(_x(g), _observers(g), _EMPTY)),
                        _MAIN, "notifyObservers", "element"),
    "inOutCall in-out": (_FIT_TYPES, _in_out("inouts"), None, None, "g in-out argument a",
                         "parameter"),
    "inOutCall in": (_FIT_TYPES, _in_out("ins"), None, None, "g in argument a", "parameter"),
    "inOutCall out": (_FIT_TYPES, _in_out("outs"), None, None, "g out argument a", "parameter"),
}


def _observed(elem, use) -> ir.MethodRepr:
    """A main that declares the observer list of `elem`s, then does `use`."""
    return ir.MethodRepr("main", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, (),
                         bd.body_statements([*pt.init_observer_list(elem, []).statements, use]),
                         is_main=True)


def _fit_doc(node) -> dict:
    """A package whose main holds `node`, or, if `node` is a method, whose
    main or second function it is."""
    if type(node) is not ir.MethodRepr:
        return _main_doc(node)
    main = bd.main_function(_EMPTY)
    methods = (node,) if node.is_main else (main, node)
    return jsonio.encode_package(ir.PackageTree("p", (ir.ModuleRepr("Main", (), methods, ()),)))


@pytest.mark.parametrize("site", list(_FIT_SITES))
def test_a_value_fills_a_slot_only_of_exactly_its_type_built_and_decoded(site):
    types, build, make, path, op, slot = _FIT_SITES[site]
    error = TypeMismatch if make is not None else SignatureMismatch
    for want in types:
        for got in types:
            w, g = _FIT_TYPES[want], _FIT_TYPES[got]
            if want == got:
                build(w, g)
                if make is not None:
                    doc = _fit_doc(make(w, g))
                    assert jsonio.encode_package(jsonio.decode_package(doc)) == doc
                continue
            with pytest.raises(error) as built:
                build(w, g)
            assert type(built.value) is error
            assert str(built.value) == f"{op}: {slot} type {want}, value type {got}"
            if make is not None:
                with pytest.raises(DecodeError) as decoded:
                    jsonio.decode_package(_fit_doc(make(w, g)))
                assert str(decoded.value) == f"{path}: {built.value}"


# Refusals that no case above reaches. (the builder call, or None where the
# builders compute the refused type themselves; the document, made without
# the rules; the refused node's path; the message)

_S = bd.var("s", ir.STRING)
_ONE_INT = bd.lit_int(1)
# A field on a form that never reads it: an owner on a plain or self variable.
_OWNED = ir.VariableRepr("x", ir.INT, owner="o")
_SELF_OWNED = ir.VariableRepr("x", ir.INT, ir.VarForm.SELF, "o")


def _print(expr) -> ir.Print:
    return ir.Print(expr, True)


def _two_mains() -> list:
    main = bd.main_function(_EMPTY)
    return [bd.build_module("Main", [], [main], []), bd.build_module("Other", [], [main], [])]


_MORE_REFUSALS = {
    "inc a string": (lambda: bd.inc(_S), lambda: _main_doc(ir.Assign("inc", _S, None)), _STMT,
                     "&++ requires numeric operands, got string"),
    "addEq a string": (lambda: bd.add_eq(_S, _ONE_INT),
                       lambda: _main_doc(ir.Assign("addEq", _S, _ONE_INT)), _STMT,
                       "&-=/&+= requires numeric operands, got string"),
    "if on an int": (lambda: bd.if_cond([(_ONE_INT, _EMPTY)]),
                     lambda: _main_doc(ir.If(((_ONE_INT, _EMPTY),), None)), _STMT,
                     "ifCond requires boolean operands, got int"),
    "switch case not a literal": (
        lambda: bd.switch(_ONE_INT, [(bd.value_of(_I), _EMPTY)]),
        lambda: _main_doc(ir.Switch(_ONE_INT, ((bd.value_of(_I), _EMPTY),), None)), _STMT,
        "switch case 'match' must be a literal"),
    "readLine into an int": (lambda: pt.read_line(_I), lambda: _main_doc(ir.Read(_I, False)),
                             _STMT, "readLine target must be a string variable"),
    "listSlice by a float": (
        lambda: pt.list_slice(bd.var("ys", ir.list_of(ir.INT)), _xs(), bd.lit_float(1.0)),
        lambda: _main_doc(ir.ListSlice(bd.var("ys", ir.list_of(ir.INT)), _xs(),
                                       bd.lit_float(1.0), None, None)), _STMT,
        "listSlice bounds must be int"),
    # Python: "slice step cannot be zero"; the C family's loop `i_temp += 0`
    # appends without end.
    "listSlice by 0": (
        lambda: pt.list_slice(bd.var("ys", ir.list_of(ir.INT)), _xs(), bd.lit_int(0),
                              bd.lit_int(2), bd.lit_int(0)),
        lambda: _main_doc(ir.ListSlice(bd.var("ys", ir.list_of(ir.INT)), _xs(), bd.lit_int(0),
                                       bd.lit_int(2), bd.lit_int(0))), _STMT,
        "listSlice step must not be 0"),
    # `1.f()`: Python "invalid decimal literal", javac "not a statement", g++
    # "expression cannot be used as a function".
    "a method of an int": (
        lambda: bd.method_call(_ONE_INT, "f", ir.INT, []),
        lambda: _main_doc(ir.Print(ir.MethodCall("f", (), ir.INT, _ONE_INT), True)),
        _STMT + ".expr", "method call receiver must be an object, got int"),
    # Each once decoded, rendered without the field, and compared unequal
    # to the tree the builders make.
    "an owner on a plain variable": (
        lambda: bd.RULES[ir.VariableRepr](_OWNED), lambda: _main_doc(_print(ir.ValueOf(_OWNED))),
        _STMT + ".expr.var", "form 'plain' takes no 'owner'"),
    "an owner on a self variable": (
        lambda: bd.RULES[ir.VariableRepr](_SELF_OWNED),
        lambda: _main_doc(_print(ir.ValueOf(_SELF_OWNED))), _STMT + ".expr.var",
        "form 'self' takes no 'owner'"),
    "a main in two modules": (
        lambda: bd.prog("p", _two_mains()),
        lambda: jsonio.encode_package(ir.PackageTree("p", tuple(_two_mains()))), "$.program",
        "program declares more than one main function"),
    "int sum typed float": (
        None, lambda: _main_doc(ir.Print(ir.Binary("#+", _ONE_INT, _ONE_INT, ir.FLOAT), True)),
        _STMT + ".expr", "#+ gives int, not float"),
    "sin typed int": (
        None, lambda: _main_doc(ir.Print(ir.MathCall("sin", (_ONE_INT,), ir.INT), True)),
        _STMT + ".expr", "sin gives float, not int"),
    "pow of one argument": (
        lambda: pt.math_fn("pow", _ONE_INT),
        lambda: _main_doc(ir.Print(ir.MathCall("pow", (_ONE_INT,), ir.FLOAT), True)),
        _STMT + ".expr", "pow takes 2 argument(s), got 1"),
    "sqrt of two arguments": (
        lambda: pt.math_fn("sqrt", _ONE_INT, _ONE_INT),
        lambda: _main_doc(ir.Print(ir.MathCall("sqrt", (_ONE_INT, _ONE_INT), ir.FLOAT), True)),
        _STMT + ".expr", "sqrt takes 1 argument(s), got 2"),
    "pow typed int": (
        None, lambda: _main_doc(ir.Print(ir.MathCall("pow", (_ONE_INT, _ONE_INT), ir.INT), True)),
        _STMT + ".expr", "pow gives float, not int"),
}


@pytest.mark.parametrize("case", list(_MORE_REFUSALS))
def test_a_refusal_no_other_case_reaches_is_refused_built_and_decoded(case):
    build, doc, path, message = _MORE_REFUSALS[case]
    if build is not None:
        with pytest.raises(BuildError) as built:
            build()
        assert str(built.value) == message
    with pytest.raises(DecodeError) as decoded:
        jsonio.decode_package(doc())
    assert str(decoded.value) == f"{path}: {message}"


def test_the_builders_type_a_sum_and_a_sine_as_the_rules_ask():
    assert bd.apply_binary("#+", _ONE_INT, _ONE_INT).type == ir.INT
    assert pt.math_fn("sin", _ONE_INT).type == ir.FLOAT


# A block holds statements and a body blocks. `bd.block([5])` once built,
# and then every render raised `KeyError: <class 'int'>`, and `bd.body([5])`
# an `AttributeError`.

@pytest.mark.parametrize("build, message", [
    (lambda: bd.block([bd.break_stmt(), 5]), "a block holds statements, not int"),
    (lambda: bd.body_statements([bd.lit_int(1)]), "a block holds statements, not Lit"),
    (lambda: bd.body([5]), "a body holds blocks, not int"),
    (lambda: bd.body([bd.break_stmt()]), "a body holds blocks, not Break"),
], ids=["int in a block", "expression in a block", "int in a body", "statement in a body"])
def test_a_block_of_non_statements_or_a_body_of_non_blocks_does_not_build(build, message):
    with pytest.raises(BuildError, match=f"^{message}$"):
        build()


# A constructor's type is its own class. Decoded, `int o = new Foo();` and
# `new Bar()` typed Foo once rendered on every target; a `newObj` now holds
# no type to get wrong, so a document that gives it one is refused.

def _main_holding(statement: dict) -> dict:
    doc = _main_doc()
    doc["program"]["modules"][0]["functions"][0]["body"] = [[statement]]
    return doc


_FOO = {"kind": "object", "class": "Foo"}


@pytest.mark.parametrize("name, type_", [("Foo", "int"), ("Bar", _FOO)],
                         ids=["int", "another-class"])
def test_a_constructor_typed_other_than_its_class_does_not_decode(name, type_):
    new = {"op": "newObj", "name": name, "args": [], "returnType": type_}
    with pytest.raises(DecodeError) as err:
        jsonio.decode_package(_main_holding(
            {"stmt": "varDecDef", "var": {"name": "o", "type": type_}, "value": new}))
    assert str(err.value) == f"{_STMT}.value: unknown field(s) 'returnType'"


# Each kind of call holds only the fields it renders. Decoded, a receiver on
# a function call and a library on a constructor call were once dropped
# unseen; a field of another kind of call is now an unknown field.

_NEW_A = {"op": "newObj", "name": "A", "args": []}
_CALLS = {"call": {"op": "call", "name": "f", "args": [], "returnType": "void"},
          "extCall": {"op": "extCall", "name": "f", "args": [], "returnType": "void",
                      "library": "lib"},
          "methodCall": {"op": "methodCall", "name": "f", "args": [], "returnType": "void",
                         "receiver": _NEW_A},
          "newObj": _NEW_A}


@pytest.mark.parametrize("tag, key", [("call", "receiver"), ("call", "library"),
                                      ("extCall", "receiver"), ("methodCall", "library"),
                                      ("newObj", "library")])
def test_a_call_holding_another_kind_of_call_s_field_does_not_decode(tag, key):
    jsonio.decode_package(_main_holding({"stmt": "expr", "expr": _CALLS[tag]}))
    value = _CALLS["extCall"]["library"] if key == "library" else _NEW_A
    with pytest.raises(DecodeError) as err:
        jsonio.decode_package(_main_holding(
            {"stmt": "expr", "expr": dict(_CALLS[tag], **{key: value})}))
    assert str(err.value) == f"{_STMT}.expr: unknown field(s) {key!r}"


# No IR class declares a constructor, so a `new` takes no argument. Built
# and rendered, `new Box(5)` failed on every target: Python said "Box()
# takes no arguments", javac "constructor Box in class Box cannot be applied
# to given types" and g++ "no matching function for call to 'Box::Box(int)'".

def test_a_new_with_arguments_is_refused_built_and_decoded():
    with pytest.raises(SignatureMismatch, match="^constructor Box takes no arguments$"):
        bd.new_obj("Box", [bd.lit_int(5)])
    _refused_alike(_stmt({"stmt": "varDecDef", "var": {"name": "b", "type": BOX_TYPE},
                          "value": dict(BOX, args=[ONE])}, ".value"),
                   lambda: bd.new_obj("Box", [bd.lit_int(5)]))
    assert bd.new_obj("Box", []).args == ()


# A main is `public static void main()` in a module. Decoded, a main that
# returned 1 rendered `return 1;` inside Java's `void main` and at the top
# level of the Python module, and a main's parameter was silently dropped.

_BAD_MAINS = {
    "returns int": {"returnType": "int", "body": [[{"stmt": "return", "value": ONE}]]},
    "takes a parameter": {"params": [{"name": "x", "type": "int"}]},
    "named x": {"name": "x"},
    "private": {"scope": "private"},
    "dynamic": {"binding": "dynamic"},
}


@pytest.mark.parametrize("case", list(_BAD_MAINS))
def test_a_main_that_is_not_public_static_void_main_does_not_decode(case):
    doc = _base()
    main = doc["program"]["modules"][0]["functions"][0]
    main.update(_BAD_MAINS[case])
    with pytest.raises(DecodeError) as err:
        jsonio.decode_package(doc)
    assert str(err.value) == (
        f"{_MAIN}: main function {main['name']!r} must be public static void main()")


def test_a_main_in_a_class_is_refused_built_and_decoded():
    with pytest.raises(SignatureMismatch, match="class C declares main function 'main'"):
        bd.build_class("C", None, ir.Scope.PUBLIC, [], [bd.main_function(_EMPTY)])
    doc = _base()
    module = doc["program"]["modules"][0]
    module["classes"] = [{"name": "C", "scope": "public", "stateVars": [],
                          "methods": [module["functions"].pop()]}]
    with pytest.raises(DecodeError) as err:
        jsonio.decode_package(doc)
    assert str(err.value) == f"{_MODULE}.classes[0]: class C declares main function 'main'"


# A method's class is the class that lists it, built or decoded: neither the
# method nor the document says it.

def test_a_method_decodes_into_the_class_that_lists_it():
    m = bd.function("m", ir.Scope.PUBLIC, ir.Binding.DYNAMIC, ir.VOID, [], _EMPTY)
    assert bd.method("m", "C", ir.Scope.PUBLIC, ir.Binding.DYNAMIC, ir.VOID, [], _EMPTY) == m
    built = bd.build_class("C", None, ir.Scope.PUBLIC, [], [m])
    doc = _base()
    _module(classes=[{"name": "C", "scope": "public", "stateVars": [], "methods": [_METHOD]}])(doc)
    assert jsonio.decode_package(doc).modules[0].classes[0] == built
    assert jsonio.encode_package(jsonio.decode_package(doc)) == doc


def test_a_method_that_names_its_class_does_not_decode():
    doc = _base()
    method = dict(_METHOD, **{"class": "C"})
    _module(classes=[{"name": "C", "scope": "public", "stateVars": [], "methods": [method]}])(doc)
    with pytest.raises(DecodeError) as err:
        jsonio.decode_package(doc)
    assert str(err.value) == f"{_MODULE}.classes[0].methods[0]: unknown field(s) 'class'"


@pytest.mark.parametrize("target", TARGETS)
def test_a_method_listed_among_a_modules_functions_is_a_free_function(target):
    """Built with `bd.method` or decoded alike, it renders as `bd.function`
    does: static in Java and C#, outside any class in C++, and without
    `self` in Python."""
    def render(m):
        main = bd.main_function(bd.one_liner(pt.print_ln(bd.lit_int(0))))
        pkg = bd.prog("p", [bd.build_module("Main", [], [m, main], [])])
        return get_backend(target).render_package(pkg)

    args = ("m", ir.Scope.PUBLIC, ir.Binding.DYNAMIC, ir.VOID, [], _EMPTY)
    built = bd.method(args[0], "C", *args[1:])
    decoded = jsonio.decode_package(jsonio.encode_package(bd.prog("p", [
        bd.build_module("Main", [], [built], [])]))).modules[0].functions[0]
    free = render(bd.function(*args))
    assert render(built) == render(decoded) == free
    header = {"python": "def m():", "java": "public static void m() throws Exception {",
              "csharp": "public static void m() {", "cpp": "void m() {"}[target]
    assert header in [line.strip() for line in free[0].text.splitlines()]
