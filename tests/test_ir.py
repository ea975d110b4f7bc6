"""Builder validation: anything that builds must be renderable everywhere,
so the checks all fire at construction time."""

import copy
import dataclasses
import inspect
import pickle
import re
import types

import pytest
from hypothesis import given, settings, strategies as st

import all_tags
from oogen import builders as bd, gallery, ir, jsonio, layout, patterns as pt, verify
from oogen.backends import TARGETS, assemble_package, get_backend
from oogen.backends.base import ATOMIC_PRECEDENCE
from oogen._record import record, replace
from oogen.errors import (
    BuildError,
    DuplicateMethod,
    DuplicateModule,
    DuplicateParam,
    DuplicateStateLabel,
    EmptyConditional,
    InvalidIdentifier,
    ObserverNotInitialized,
    SignatureMismatch,
    TypeMismatch,
    UnknownParamDoc,
    UnknownStrategy,
)


@pytest.mark.parametrize("name", ["", "2start", "has space", "hy-phen", "a.b"])
def test_bad_identifiers_rejected(name):
    with pytest.raises(InvalidIdentifier):
        bd.var(name, ir.INT)


# One reserved word of each target, and words only a few targets reserve.
@pytest.mark.parametrize("name", ["class", "lambda", "None", "boolean", "instanceof",
                                  "string", "out", "delete", "nullptr", "and"])
def test_reserved_words_are_not_identifiers(name):
    with pytest.raises(InvalidIdentifier, match="not a legal identifier"):
        bd.var(name, ir.INT)
    with pytest.raises(InvalidIdentifier):
        bd.function(name, ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [], bd.body([]))
    assert bd.var(name + "_", ir.INT).name == name + "_"
    assert bd.check_dotted_name(f"lib.{name}") == f"lib.{name}"  # imports stay as they are


# The patterns the name checks used to be, kept as their reference.
_OLD_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_OLD_DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(?:\.[A-Za-z_][A-Za-z0-9_]*)*")


def _accepts(check, name):
    try:
        check(name)
    except InvalidIdentifier:
        return False
    return True


def _check_names_like_old_patterns(name):
    old_ident = _OLD_IDENT.fullmatch(name) is not None and name not in bd._RESERVED
    assert _accepts(bd.check_identifier, name) == old_ident
    assert _accepts(bd.check_dotted_name, name) == (_OLD_DOTTED.fullmatch(name) is not None)


@pytest.mark.parametrize("name", ["", "x\n", "é", "ǅ", "a..b", ".a", "1a", "_", "a.",
                                  "java.util.ArrayList", "a.class", "x_1.Y2"])
def test_name_checks_accept_what_the_old_patterns_did(name):
    _check_names_like_old_patterns(name)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.text(), st.text(alphabet="aZ_09.\n é\u01c5\u0663-")))
def test_name_checks_accept_what_the_old_patterns_did_on_any_text(name):
    _check_names_like_old_patterns(name)


def test_name_checks_reject_none():
    with pytest.raises(InvalidIdentifier):
        bd.check_identifier(None)
    with pytest.raises(InvalidIdentifier):
        bd.check_dotted_name(None)


class _Str(str):
    pass


# A name that is no string once raised a bare AttributeError from the
# builders. A str subclass is no name either: the rules hash a name.
@pytest.mark.parametrize("build", [
    lambda: bd.var(5, ir.INT),
    lambda: bd.func_app(5, ir.VOID, []),
    lambda: bd.var("o", ir.obj_of(5)),
    lambda: bd.build_module("M", [5], [], []),
    lambda: bd.check_identifier(["x"]),
    lambda: bd.check_dotted_name(b"java.util"),
    lambda: bd.var(_Str("x"), ir.INT),
], ids=["var", "func_app", "object type", "import", "a list", "bytes", "a str subclass"])
def test_a_name_that_is_no_string_is_an_invalid_identifier(build):
    with pytest.raises(InvalidIdentifier):
        build()


_VAR_MAKERS = {
    "var": lambda t: bd.var("o", t),
    "self_var": lambda t: bd.self_var("o", t),
    "class_var": lambda t: bd.class_var("C", "o", t),
    "obj_var": lambda t: bd.obj_var("c", "o", t),
    "ext_var": lambda t: bd.ext_var("lib", "o", t),
}


@pytest.mark.parametrize("make", _VAR_MAKERS.values(), ids=_VAR_MAKERS.keys())
@pytest.mark.parametrize("wrap", [lambda t: t, ir.list_of, lambda t: ir.list_of(ir.list_of(t))],
                         ids=["direct", "in_list", "in_list_of_list"])
def test_variable_types_check_their_class_names(make, wrap):
    assert make(wrap(ir.obj_of("Foo"))).type == wrap(ir.obj_of("Foo"))
    for bad in ("Foo o; int x", "a b", "class"):
        with pytest.raises(InvalidIdentifier):
            make(wrap(ir.obj_of(bad)))


_RETURN_TYPE_MAKERS = {
    "function": lambda t: bd.function("make", ir.Scope.PUBLIC, ir.Binding.STATIC, t, [],
                                      bd.body([])),
    "method": lambda t: bd.method("make", "C", ir.Scope.PUBLIC, ir.Binding.DYNAMIC, t, [],
                                  bd.body([])),
    "func_app": lambda t: bd.func_app("make", t, []),
    "ext_func_app": lambda t: bd.ext_func_app("lib", "make", t, []),
    "method_call": lambda t: bd.method_call(bd.value_of(bd.var("c", ir.obj_of("C"))),
                                            "make", t, []),
}


@pytest.mark.parametrize("make", _RETURN_TYPE_MAKERS.values(), ids=_RETURN_TYPE_MAKERS.keys())
def test_return_types_check_their_class_names(make):
    made = make(ir.list_of(ir.obj_of("Foo")))
    made_type = made.return_type if isinstance(made, ir.MethodRepr) else made.type
    assert made_type == ir.list_of(ir.obj_of("Foo"))
    for bad in ("Foo f; int x", "a b", "class"):
        with pytest.raises(InvalidIdentifier):
            make(ir.obj_of(bad))
        with pytest.raises(InvalidIdentifier):
            make(ir.list_of(ir.obj_of(bad)))


def _returning(return_type, value):
    body_ = bd.one_liner(bd.if_cond([(bd.lit_bool(True), bd.one_liner(bd.return_stmt(value)))]))
    return bd.function("make", ir.Scope.PUBLIC, ir.Binding.STATIC, return_type, [], body_)


@pytest.mark.parametrize("return_type,value", [
    (ir.INT, bd.lit_string("x")),
    (ir.INT, bd.lit_float(1.5)),
    (ir.VOID, bd.lit_int(1)),
    (ir.list_of(ir.INT), bd.value_of(bd.var("xs", ir.list_of(ir.FLOAT)))),
    (ir.obj_of("Foo"), bd.value_of(bd.var("b", ir.obj_of("Bar")))),
], ids=["string-for-int", "float-for-int", "int-for-void", "list-elements", "classes"])
def test_returned_value_must_have_the_return_type(return_type, value):
    with pytest.raises(TypeMismatch):
        _returning(return_type, value)
    with pytest.raises(TypeMismatch):
        bd.main_function(bd.one_liner(bd.return_stmt(value)))


# Python printed a float function's `return 2` as `2`, and Java as `2.0`.
def test_returned_int_does_not_widen_to_float():
    with pytest.raises(TypeMismatch, match="^return from make: return type float, value type int$"):
        _returning(ir.FLOAT, bd.lit_int(1))
    assert _returning(ir.FLOAT, bd.lit_float(1.0)).return_type == ir.FLOAT
    assert _returning(ir.obj_of("Foo"), bd.value_of(bd.var("f", ir.obj_of("Foo")))).body


def test_char_literal_is_one_character():
    assert bd.lit_char("c").value == "c"
    with pytest.raises(TypeMismatch):
        bd.lit_char("cc")


def test_variable_forms_carry_owner():
    assert bd.var("x", ir.INT).form == ir.VarForm.PLAIN
    assert bd.self_var("foo", ir.INT).form == ir.VarForm.SELF
    cv = bd.class_var("Cls", "n", ir.INT)
    assert (cv.form, cv.owner) == (ir.VarForm.CLASS_MEMBER, "Cls")
    ov = bd.obj_var("fc", "foo", ir.INT)
    assert (ov.form, ov.owner) == (ir.VarForm.OBJECT_MEMBER, "fc")
    xv = bd.ext_var("math", "pi", ir.FLOAT)
    assert (xv.form, xv.owner) == (ir.VarForm.EXTERNAL, "math")


# -- expression typing --------------------------------------------------------


def _i(n=1):
    return bd.lit_int(n)


def _b():
    return bd.lit_bool(True)


def test_not_requires_bool():
    assert bd.apply_unary("?!", _b()).type == ir.BOOL
    with pytest.raises(TypeMismatch):
        bd.apply_unary("?!", _i())


def test_negate_requires_numeric():
    assert bd.apply_unary("#~", _i()).type == ir.INT
    with pytest.raises(TypeMismatch):
        bd.apply_unary("#~", _b())


def test_sqrt_yields_float():
    assert bd.apply_unary("#/^", _i()).type == ir.FLOAT


def test_abs_keeps_operand_type():
    assert bd.apply_unary("#|", _i()).type == ir.INT
    assert bd.apply_unary("#|", bd.lit_float(1.5)).type == ir.FLOAT


def test_arith_requires_numeric_and_joins():
    assert bd.apply_binary("#+", _i(), _i()).type == ir.INT
    assert bd.apply_binary("#+", _i(), bd.lit_float(2.0)).type == ir.FLOAT
    with pytest.raises(TypeMismatch):
        bd.apply_binary("#+", bd.lit_string("a"), bd.lit_string("b"))


def test_power_always_joins_to_float():
    assert bd.apply_binary("#^", _i(), _i()).type == ir.FLOAT


def test_logical_requires_bool():
    assert bd.apply_binary("?&&", _b(), _b()).type == ir.BOOL
    with pytest.raises(TypeMismatch):
        bd.apply_binary("?||", _i(), _b())


def test_comparison_requires_numeric():
    assert bd.apply_binary("?<", _i(), _i()).type == ir.BOOL
    with pytest.raises(TypeMismatch):
        bd.apply_binary("?<", bd.lit_string("a"), bd.lit_string("b"))


def test_equality_requires_matching_kinds():
    assert bd.apply_binary("?==", bd.lit_string("a"), bd.lit_string("b")).type == ir.BOOL
    assert bd.apply_binary("?!=", _i(), bd.lit_float(1.0)).type == ir.BOOL
    with pytest.raises(TypeMismatch):
        bd.apply_binary("?==", _i(), bd.lit_string("1"))


def test_unknown_operators_rejected():
    with pytest.raises(TypeMismatch):
        bd.apply_binary("#%", _i(), _i())
    with pytest.raises(TypeMismatch):
        bd.apply_unary("#+", _i())  # binary name in unary position


def test_inline_if_branches_must_agree():
    assert bd.inline_if(_b(), _i(), _i(2)).type == ir.INT
    with pytest.raises(TypeMismatch):
        bd.inline_if(_b(), _i(), bd.lit_string("x"))
    with pytest.raises(TypeMismatch):
        bd.inline_if(_i(), _i(), _i())


def test_atomic_nodes_have_max_precedence():
    for target in TARGETS:
        prec_of = get_backend(target).prec_of
        assert prec_of(_i()) == ATOMIC_PRECEDENCE
        assert prec_of(bd.value_of(bd.var("x", ir.INT))) == ATOMIC_PRECEDENCE
        assert prec_of(bd.func_app("f", ir.INT, [])) == ATOMIC_PRECEDENCE


def test_operator_nodes_take_table_precedence():
    for target in TARGETS:
        prec_of = get_backend(target).prec_of
        assert prec_of(bd.apply_binary("#+", _i(), _i())) == 6
        assert prec_of(bd.apply_binary("#*", _i(), _i())) == 7
        # Python's `not` binds looser than its comparisons
        assert prec_of(bd.apply_unary("?!", _b())) == (3.5 if target == "python" else 9)
        # every target renders an exists test as a `>` comparison
        assert prec_of(pt.arg_exists(_i())) == 5
        assert prec_of(pt.list_index_exists(bd.value_of(bd.var("xs", ir.list_of(ir.INT))),
                                            _i())) == 5
        # power is a library call on every target
        assert prec_of(bd.apply_binary("#^", _i(), _i())) == ATOMIC_PRECEDENCE


def test_math_fn_typing():
    assert pt.math_fn("sin", bd.lit_float(1.0)).type == ir.FLOAT
    assert pt.math_fn("pow", _i(), _i()).type == ir.FLOAT
    with pytest.raises(TypeMismatch):
        pt.math_fn("frob", bd.lit_float(1.0))
    with pytest.raises(TypeMismatch, match="pow requires numeric arguments, got string"):
        pt.math_fn("pow", _i(), bd.lit_string("2"))
    with pytest.raises(SignatureMismatch, match="sin takes 1 argument"):
        pt.math_fn("sin", _i(), _i())


def test_gool_library_operators_build_math_calls():
    x, y = _i(), bd.lit_float(2.0)
    assert bd.apply_unary("#|", x) == pt.math_fn("abs", x) == ir.MathCall("abs", (x,), ir.INT)
    assert bd.apply_unary("#/^", x) == pt.math_fn("sqrt", x)
    assert bd.apply_binary("#^", x, y) == pt.math_fn("pow", x, y)
    with pytest.raises(SignatureMismatch, match="pow takes 2 argument"):
        bd.apply_unary("#^", x)
    with pytest.raises(SignatureMismatch, match="abs takes 1 argument"):
        bd.apply_binary("#|", x, y)


# -- list operation typing ------------------------------------------------------


def _float_list_var():
    return bd.var("ages", ir.list_of(ir.FLOAT))


def test_list_ops_type_check():
    lst = bd.value_of(_float_list_var())
    assert pt.list_access(lst, _i()).type == ir.FLOAT
    assert pt.list_size(lst).type == ir.INT
    assert pt.list_append(lst, bd.lit_float(1.5)).type == ir.list_of(ir.FLOAT)
    assert pt.list_index_exists(lst, _i()).type == ir.BOOL
    assert pt.args_list().type == ir.list_of(ir.STRING)
    with pytest.raises(TypeMismatch):
        pt.list_append(lst, bd.lit_string("old"))
    with pytest.raises(TypeMismatch):
        pt.list_size(_i())


def test_an_expression_type_is_a_field_or_one_shared_constant():
    for cls in (ir.Unary, ir.Binary, ir.MathCall, ir.Call, ir.ExtCall, ir.MethodCall):
        assert "type" in cls.__match_args__, cls
    # A constructor's type follows from its class name.
    assert "type" not in ir.NewObj.__match_args__
    assert bd.new_obj("Box", []).type == ir.obj_of("Box")
    lst, i = bd.value_of(_float_list_var()), _i()
    made = [(ir.ArgsList, ()), (ir.ArgAt, (i,)), (ir.ArgExists, (i,)), (ir.ListSize, (lst,)),
            (ir.ListIndexOf, (lst, bd.lit_float(1.5)))]
    for cls, parts in made:
        assert "type" not in cls.__match_args__, cls
        assert cls(*parts).type is cls(*parts).type is cls.type, cls
    assert ir.ArgsList.type == ir.list_of(ir.STRING) and ir.ListIndexOf.type is ir.INT


def test_list_slice_requires_list_target():
    src = bd.value_of(_float_list_var())
    target = bd.var("someAges", ir.list_of(ir.FLOAT))
    sliced = pt.list_slice(target, src, start=_i(1), end=_i(3))
    assert (sliced.start.value, sliced.end.value, sliced.step) == (1, 3, None)
    with pytest.raises(TypeMismatch):
        pt.list_slice(bd.var("x", ir.INT), src)


# -- statement and declaration checks -----------------------------------------


def test_if_cond_needs_a_branch():
    with pytest.raises(EmptyConditional):
        bd.if_cond([], bd.one_liner(pt.print_str("x")))


@pytest.mark.parametrize("part", ["variable", "start", "end", "step"])
def test_for_range_counts_in_ints_only(part):
    # a float start would render `int i = 0.5` in Java and `range(0.5, ...)` in Python
    parts = {"variable": bd.var("i", ir.INT), "start": _i(0), "end": _i(3), "step": _i(1)}
    assert bd.for_range(*parts.values(), bd.one_liner(pt.print_str("x"))).end == _i(3)
    parts[part] = bd.var("i", ir.FLOAT) if part == "variable" else bd.lit_float(0.5)
    with pytest.raises(TypeMismatch, match=f"forRange {part} must be int, got float"):
        bd.for_range(*parts.values(), bd.one_liner(pt.print_str("x")))


def test_duplicate_params_rejected():
    p = bd.param(bd.var("x", ir.INT))
    with pytest.raises(DuplicateParam):
        bd.function("f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.INT,
                    [p, p], bd.one_liner(bd.return_stmt(_i())))


def test_duplicate_methods_rejected():
    m = pt.get_method("C", bd.var("foo", ir.INT))
    with pytest.raises(DuplicateMethod):
        bd.build_class("C", None, ir.Scope.PUBLIC, [], [m, m])


def test_duplicate_modules_rejected():
    mod = bd.build_module("M", [], [bd.main_function(
        bd.one_liner(pt.print_str_ln("hi")))], [])
    with pytest.raises(DuplicateModule):
        bd.prog("p", [mod, mod])


def test_observer_calls_must_follow_init():
    obs_t = ir.obj_of("Observer")
    add = pt.add_observer(bd.value_of(bd.var("o", obs_t)))
    with pytest.raises(ObserverNotInitialized):
        bd.main_function(bd.one_liner(add))
    ordered = bd.main_function(bd.body_statements(
        [pt.init_observer_list(obs_t, []), add]))
    assert ordered.is_main


# The builders' checks see every statement: in blocks used as statements
# and in a for loop's init and update too.

def test_return_type_is_checked_inside_a_block_statement():
    body = bd.one_liner(bd.block([bd.return_stmt(bd.lit_string("x"))]))
    with pytest.raises(TypeMismatch, match="return from f: return type int, value type string"):
        bd.function("f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.INT, [], body)


def test_observer_order_is_checked_inside_a_block_statement():
    obs_t = ir.obj_of("Observer")
    with pytest.raises(ObserverNotInitialized):
        bd.main_function(bd.body_statements([
            bd.block([pt.notify_observers("update", obs_t)]),
            pt.init_observer_list(obs_t, []),
        ]))


def test_observer_order_is_checked_in_a_for_loop_update():
    i, obs_t = bd.var("i", ir.INT), ir.obj_of("Observer")
    loop = bd.for_loop(bd.var_dec_def(i, _i(0)), bd.apply_binary("?<", bd.value_of(i), _i(3)),
                       pt.add_observer(bd.value_of(bd.var("o", obs_t))), bd.one_liner(bd.inc(i)))
    with pytest.raises(ObserverNotInitialized):
        bd.main_function(bd.one_liner(loop))


def test_doc_func_rejects_unknown_param():
    func = bd.function("add", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.INT,
                       [bd.param(bd.var("a", ir.INT))],
                       bd.one_liner(bd.return_stmt(_i())))
    with pytest.raises(UnknownParamDoc):
        bd.doc_func("adds", [("b", "not a param")], "sum", func)


def test_doc_func_orders_params_by_declaration():
    func = bd.function(
        "add", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.INT,
        [bd.param(bd.var("a", ir.INT)), bd.param(bd.var("b", ir.INT))],
        bd.one_liner(bd.return_stmt(_i())))
    documented = bd.doc_func("adds", [("b", "second"), ("a", "first")], "sum", func)
    assert [name for name, _ in documented.doc.param_descs] == ["a", "b"]


def test_duplicate_state_labels_rejected():
    branch = bd.one_liner(pt.print_str("x"))
    with pytest.raises(DuplicateStateLabel):
        pt.check_state("fsm", [(bd.lit_string("On"), branch),
                               (bd.lit_string("On"), branch)], branch)


def test_check_state_labels_must_be_strings():
    branch = bd.one_liner(pt.print_str("x"))
    with pytest.raises(TypeMismatch):
        pt.check_state("fsm", [(bd.lit_int(1), branch)], branch)


def test_unknown_strategy_rejected():
    with pytest.raises(UnknownStrategy):
        pt.run_strategy("missing", {"a": bd.one_liner(pt.print_str("a"))})


def test_strategy_result_needs_var_and_value_together():
    with pytest.raises(SignatureMismatch):
        pt.run_strategy("a", {"a": bd.one_liner(pt.print_str("a"))},
                        result_var=bd.var("r", ir.INT))


def test_in_out_func_needs_an_output():
    with pytest.raises(SignatureMismatch):
        pt.in_out_func("f", ir.Scope.PUBLIC, ir.Binding.STATIC,
                       ins=[bd.var("x", ir.INT)], outs=[], inouts=[],
                       body_=bd.one_liner(pt.print_str("x")))


def test_in_out_call_checks_arity_and_types():
    func = pt.in_out_func(
        "f", ir.Scope.PUBLIC, ir.Binding.STATIC,
        ins=[bd.var("d", ir.INT)], outs=[bd.var("ok", ir.BOOL)],
        inouts=[bd.var("p", ir.INT)],
        body_=bd.one_liner(bd.assign(bd.var("ok", ir.BOOL), _b())))
    with pytest.raises(SignatureMismatch):
        pt.in_out_call(func, ins=[], outs=[bd.var("ok", ir.BOOL)],
                       inouts=[bd.var("p", ir.INT)])
    with pytest.raises(SignatureMismatch):
        pt.in_out_call(func, ins=[bd.lit_string("10")],
                       outs=[bd.var("ok", ir.BOOL)], inouts=[bd.var("p", ir.INT)])
    plain = bd.function("g", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [],
                        bd.one_liner(pt.print_str("x")))
    with pytest.raises(SignatureMismatch):
        pt.in_out_call(plain, ins=[], outs=[], inouts=[])


def test_package_rejects_duplicate_aux_kinds():
    program = bd.prog("p", [bd.build_module(
        "M", [], [bd.main_function(bd.one_liner(pt.print_str_ln("hi")))], [])])
    with pytest.raises(BuildError):
        bd.package(program, [ir.AuxFileSpec("makefile"), ir.AuxFileSpec("makefile")])


# -- a binding, scope, form or mode is its name ----------------------------------

NAMESPACES = (ir.Binding, ir.Scope, ir.VarForm, ir.AssignMode)


def _records(value):
    """Every record in `value`, a record or tuple, and below it."""
    if isinstance(value, tuple):
        for x in value:
            yield from _records(x)
    elif hasattr(type(value), "__record_specs__"):
        yield value
        for field in type(value).__match_args__:
            yield from _records(getattr(value, field))


def _named_fields(node) -> dict:
    """field -> namespace, for each field of `node` annotated with one."""
    return {field: getattr(ir, annotation)
            for field, (annotation, _) in type(node).__record_specs__.items()
            if getattr(ir, annotation, None) in NAMESPACES}


def _names_made_at_run_time(value):
    """`value` rebuilt with each name field holding a new string, equal to
    the constant but not that object."""
    if isinstance(value, tuple):
        return tuple(_names_made_at_run_time(x) for x in value)
    if not hasattr(type(value), "__record_specs__"):
        return value
    fields = {f: _names_made_at_run_time(getattr(value, f)) for f in type(value).__match_args__}
    for field in _named_fields(value):
        fields[field] = "".join(list(fields[field]))
    return type(value)(**fields)


def test_names_are_the_strings_the_json_writes():
    assert [ir.names(ns) for ns in NAMESPACES] == [
        ("static", "dynamic"), ("public", "private"),
        ("plain", "self", "classMember", "objectMember", "external"),
        ("set", "addEq", "subEq", "inc", "dec")]
    assert (ir.Binding.STATIC, ir.Scope.PUBLIC, ir.VarForm.SELF, ir.AssignMode.INC) == (
        "static", "public", "self", "inc")


def test_names_made_at_run_time_render_as_the_constants():
    built = all_tags.package()
    made = _names_made_at_run_time(built)
    for target in TARGETS:
        assert assemble_package(made, target) == assemble_package(built, target)
    assert jsonio.dumps(made) == jsonio.dumps(built)
    # Every name of every namespace occurs, and none is the constant itself.
    names = [(ns, getattr(node, field)) for node in _records(made)
             for field, ns in _named_fields(node).items()]
    assert {(ns, v) for ns, v in names} == {(ns, v) for ns in NAMESPACES for v in ir.names(ns)}
    assert not any(v is c for _, v in names for ns in NAMESPACES for c in ir.names(ns))


def test_every_decoded_name_equals_its_constant():
    for pkg in [all_tags.package(), *(entry.package for entry in gallery.ENTRIES)]:
        decoded = jsonio.loads(jsonio.dumps(pkg))
        for node in _records(decoded):
            for field, ns in _named_fields(node).items():
                assert getattr(node, field) in ir.names(ns), (node, field)


# -- the record contract: what @dataclass(frozen=True) gave the IR ------------


def test_every_ir_class_is_a_record():
    classes = [c for c in vars(ir).values()
               if isinstance(c, type) and c.__module__ == ir.__name__
               and c not in NAMESPACES]
    assert len(classes) == 52
    others = [layout.RenderedFile, layout.FileSet,
              verify.ToolReport, verify.VerifyReport, gallery.GalleryEntry]
    for cls in classes + others:
        assert dataclasses.is_dataclass(cls), cls


def test_records_are_frozen():
    t = ir.TypeRepr("int")
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.kind = "float"
    with pytest.raises(dataclasses.FrozenInstanceError):
        del t.kind
    with pytest.raises(dataclasses.FrozenInstanceError):
        t.extra = 1
    assert t == ir.INT


def test_record_equality_is_structural_within_one_class():
    xs = bd.var("xs", ir.list_of(ir.INT))
    assert ir.TypeRepr("int") == ir.INT and ir.TypeRepr("int") is not ir.INT
    assert ir.TypeRepr("int") != ir.FLOAT
    assert ir.Break() == ir.Break()
    assert ir.Break() != ir.Continue()
    # the same field names and values, another class
    assert ir.ArgAt(_i()) != ir.ArgExists(_i())
    assert ir.ListAccess(bd.value_of(xs), _i()) != ir.ListIndexOf(bd.value_of(xs), _i())
    assert ir.INT != ("int", None, None)


def test_record_hash_is_the_hash_of_its_field_tuple():
    x = bd.var("x", ir.INT)
    assert hash(ir.INT) == hash(("int", None, None))
    assert hash(x) == hash(("x", ir.INT, ir.VarForm.PLAIN, None))
    assert hash(ir.Return(_i())) == hash((_i(),))
    assert hash(ir.Break()) == hash(())
    assert len({ir.INT, ir.TypeRepr("int"), ir.FLOAT}) == 2


def test_record_defaults():
    assert ir.TypeRepr("list", ir.INT) == ir.TypeRepr("list", elem=ir.INT, class_name=None)
    assert ir.AuxFileSpec("makefile").with_doc_rule is False
    assert ir.DocSpec("d") == ir.DocSpec("d", (), None)
    with pytest.raises(TypeError):
        ir.TypeRepr()
    with pytest.raises(TypeError):
        ir.TypeRepr("int", nosuch=1)


def test_record_field_order_with_inheritance():
    class Base(metaclass=record):
        a: int
        b: int = 2

    class Sub(Base, metaclass=record):
        c: int = 3
        a: int = 1  # re-declared: keeps its place, gains a default

    assert [f.name for f in dataclasses.fields(Sub)] == ["a", "b", "c"]
    assert Sub() == Sub(1, 2, 3)
    assert Sub(5, c=7) == Sub(a=5, b=2, c=7)
    assert Sub(1, 2, 3) != Base(1, 2)
    assert [f.name for f in dataclasses.fields(ir.Lit)] == ["kind", "value"]
    assert [f.name for f in dataclasses.fields(ir.MethodRepr)] == [
        "name", "scope", "binding", "return_type", "params", "body",
        "is_main", "doc", "inout"]
    with pytest.raises(TypeError, match="non-default argument 'c'"):
        class Bad(Base, metaclass=record):
            c: int


def test_records_work_with_dataclasses_functions():
    assert dataclasses.is_dataclass(ir.INT) and dataclasses.is_dataclass(ir.TypeRepr)
    assert not dataclasses.is_dataclass(ir.Binding)
    fields = dataclasses.fields(ir.TypeRepr)
    assert [(f.name, f.default) for f in fields] == [
        ("kind", dataclasses.MISSING), ("elem", None), ("class_name", None)]
    assert dataclasses.replace(ir.INT, kind="float") == ir.FLOAT
    assert dataclasses.replace(ir.list_of(ir.INT), elem=ir.FLOAT) == ir.list_of(ir.FLOAT)
    assert dataclasses.astuple(ir.INT) == ("int", None, None)


def test_record_repr_of_a_nested_node():
    e = bd.value_of(bd.var("xs", ir.list_of(ir.INT)))
    assert repr(e) == (
        "ValueOf(var=VariableRepr(name='xs', type=TypeRepr(kind='list', "
        "elem=TypeRepr(kind='int', elem=None, class_name=None), class_name=None), "
        "form='plain', owner=None))")
    assert repr(ir.Break()) == "Break()"


# -- _record.replace: dataclasses.replace without importing dataclasses -------


def _method():
    return bd.function("f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.INT, [],
                       bd.one_liner(bd.return_stmt(_i())))


@pytest.mark.parametrize("node,changes", [
    (ir.INT, {"kind": "float"}),
    (ir.list_of(ir.INT), {"elem": ir.FLOAT}),
    (bd.var("x", ir.INT), {"name": "y", "owner": "Obs"}),
    (_method(), {"is_main": True, "doc": ir.DocSpec("d")}),
    (ir.Break(), {}),
])
def test_record_replace_matches_dataclasses_replace(node, changes):
    replaced = replace(node, **changes)
    assert replaced == dataclasses.replace(node, **changes)
    assert type(replaced) is type(node) and replaced is not node


def test_record_replace_rejects_an_unknown_field():
    with pytest.raises(TypeError):
        replace(ir.INT, nosuch=1)


# -- the slotted layout ---------------------------------------------------------


def _record_classes():
    return [c for m in (ir, layout, verify, gallery) for c in vars(m).values()
            if isinstance(c, type) and "__record_specs__" in vars(c)]


def test_every_record_builds_by_keyword():
    classes = _record_classes()
    assert len(classes) == 57
    for cls in classes:
        values = [object() for _ in cls.__match_args__]
        made = cls(**dict(zip(cls.__match_args__, values)))
        assert [getattr(made, name) for name in cls.__match_args__] == values, cls
        assert made == cls(*values)


def test_records_sharing_an_init_template_keep_their_own_fields():
    class Pair(metaclass=record):
        left: int
        right: str = "r"

    class Other(metaclass=record):
        first: list
        second: tuple = ()

    class Plain(metaclass=record):
        x: int
        y: int

    assert Pair.__init__.__code__.co_code == Plain.__init__.__code__.co_code
    assert (Pair(1).left, Pair(1).right, Pair(right="s", left=2).right) == (1, "r", "s")
    assert (Other([3]).first, Other([3]).second) == ([3], ())
    assert Plain(y=5, x=4) == Plain(4, 5) and (Plain(4, 5).x, Plain(4, 5).y) == (4, 5)
    assert Pair.__init__.__defaults__ == ("r",) and Plain.__init__.__defaults__ is None
    with pytest.raises(TypeError):
        Plain(1)
    with pytest.raises(TypeError):
        Pair(1, left=2)


def test_record_signature_shows_the_fields():
    params = inspect.signature(ir.TypeRepr).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        ("kind", inspect.Parameter.empty), ("elem", None), ("class_name", None)]
    assert list(inspect.signature(layout.FileSet).parameters) == ["files"]
    assert ir.TypeRepr.__init__.__qualname__ == "TypeRepr.__init__"


def test_records_have_no_instance_dict():
    for node in (ir.INT, bd.var("x", ir.INT), ir.Break(), _method(),
                 layout.RenderedFile("a.py", "pass\n")):
        assert not hasattr(node, "__dict__"), type(node)


def test_record_slots_hold_only_their_own_fields():
    for cls in _record_classes():
        inherited = {name for base in cls.__mro__[1:] for name in getattr(base, "__slots__", ())}
        assert set(cls.__slots__) == set(cls.__match_args__) - inherited, cls
    assert ir.ExprRepr.__slots__ == () and ir.Lit.__slots__ == ("kind", "value")


def test_redeclared_field_keeps_its_base_slot():
    class Base(metaclass=record):
        a: int
        b: int = 2

    class Sub(Base, metaclass=record):
        c: int = 3
        a: int = 1

    assert Base.__slots__ == ("a", "b") and Sub.__slots__ == ("c",)
    assert not hasattr(Sub(), "__dict__")
    assert (Sub().a, Sub(4).a) == (1, 4)
    # defaults live in __init__ only: the class holds slots, not values
    assert "a" not in vars(Sub) and isinstance(vars(Base)["b"], types.MemberDescriptorType)


@pytest.mark.parametrize("copier", [
    lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy,
], ids=["pickle", "copy", "deepcopy"])
def test_records_pickle_and_copy(copier):
    tree = gallery.get("patternTest").package
    assert copier(tree) == tree
    assert copier(ir.Break()) == ir.Break()
    files = layout.FileSet((layout.RenderedFile("a.py", "pass\n"),))
    assert copier(files) == files


@pytest.mark.parametrize("node", [ir.INT, ir.Break(), layout.RenderedFile("a.py", "pass\n")],
                         ids=repr)
def test_unknown_attributes_stay_frozen(node):
    with pytest.raises(dataclasses.FrozenInstanceError):
        node.nosuch = 1
    with pytest.raises(AttributeError):
        object.__setattr__(node, "nosuch", 1)  # past the guard: no __dict__ to hold it


def test_record_methods_may_use_zero_argument_super():
    class Child(ir.Lit, metaclass=record):
        note: str = ""

        def describe(self):
            return f"{super().type.kind} {self.note}"

        @property
        def me(self):
            return __class__

    child = Child("int", 3, "n")
    assert child.describe() == "int n" and child == Child("int", 3, "n")
    assert child.me is Child and type(Child) is type
    assert child.type == ir.INT and not hasattr(child, "__dict__")


def test_every_record_is_a_plain_type():
    assert {type(cls) for cls in _record_classes()} == {type}
