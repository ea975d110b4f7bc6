"""Task-level builders: the recurring idioms above raw statements.

Math/argument/list/print helpers return core IR, and so do the design
patterns (getters/setters, Strategy, Observer, State) except in/out
procedures, whose node each target spells its own way. A node whose value
comes from the caller passes its rule in `builders.RULES` as it is built.
"""

from __future__ import annotations

from itertools import zip_longest

from . import builders as bd
from . import ir
from .builders import RULES as _RULES
from .errors import SignatureMismatch, TypeMismatch, UnknownStrategy


math_fn = bd.math_fn  # a library function's call: `math_fn("pow", x, y)`


# ---------------------------------------------------------------------------
# Command-line arguments


def args_list() -> ir.ArgsList:
    return ir.ArgsList()


def arg_at(index: ir.ExprRepr) -> ir.ArgAt:
    return _RULES[ir.ArgAt](ir.ArgAt(index))


def arg_exists(index: ir.ExprRepr) -> ir.ArgExists:
    return _RULES[ir.ArgExists](ir.ArgExists(index))


# ---------------------------------------------------------------------------
# Lists


def list_access(lst: ir.ExprRepr, index: ir.ExprRepr) -> ir.ListAccess:
    return _RULES[ir.ListAccess](ir.ListAccess(lst, index))


def list_size(lst: ir.ExprRepr) -> ir.ListSize:
    return _RULES[ir.ListSize](ir.ListSize(lst))


def list_append(lst: ir.ExprRepr, value: ir.ExprRepr) -> ir.ListAppend:
    return _RULES[ir.ListAppend](ir.ListAppend(lst, value))


def list_set(lst: ir.ExprRepr, index: ir.ExprRepr, value: ir.ExprRepr) -> ir.ListSet:
    return _RULES[ir.ListSet](ir.ListSet(lst, index, value))


def list_index_exists(lst: ir.ExprRepr, index: ir.ExprRepr) -> ir.Binary:
    if index.type.kind != "int":
        raise TypeMismatch("listIndexExists index must be int")
    return ir.Binary("?>", list_size(lst), index, ir.BOOL)


def index_of(lst: ir.ExprRepr, value: ir.ExprRepr) -> ir.ListIndexOf:
    return _RULES[ir.ListIndexOf](ir.ListIndexOf(lst, value))


def list_slice(target: ir.VariableRepr, source: ir.ExprRepr,
               start: ir.ExprRepr | None = None, end: ir.ExprRepr | None = None,
               step: ir.ExprRepr | None = None) -> ir.ListSlice:
    return _RULES[ir.ListSlice](ir.ListSlice(target, source, start, end, step))


# ---------------------------------------------------------------------------
# Console I/O


def print_expr(value: ir.ExprRepr) -> ir.Print:
    return _RULES[ir.Print](ir.Print(value, newline=False))


def print_ln(value: ir.ExprRepr) -> ir.Print:
    return _RULES[ir.Print](ir.Print(value, newline=True))


def print_str(text: str) -> ir.Print:
    return ir.Print(bd.lit_string(text), newline=False)


def print_str_ln(text: str) -> ir.Print:
    return ir.Print(bd.lit_string(text), newline=True)


def read_line(variable: ir.VariableRepr) -> ir.Read:
    return _RULES[ir.Read](ir.Read(variable, parse_int=False))


def read_int(variable: ir.VariableRepr) -> ir.Read:
    return _RULES[ir.Read](ir.Read(variable, parse_int=True))


# ---------------------------------------------------------------------------
# In/out/in-out procedures


def in_out_func(name: str, scope: ir.Scope, binding: ir.Binding,
                ins: list[ir.VariableRepr], outs: list[ir.VariableRepr],
                inouts: list[ir.VariableRepr], body_: ir.BodyRepr) -> ir.MethodRepr:
    """A procedure with input, output, and input-output parameters.

    Every target renders a different signature from the same spec; the
    declared parameter order everywhere is in-outs, ins, outs.
    """
    return _RULES[ir.MethodRepr](ir.MethodRepr(
        name, scope, binding, ir.VOID, (*inouts, *ins, *outs), body_,
        inout=ir.InOutSpec(len(inouts), len(ins))))


def in_out_call(func: ir.MethodRepr, ins: list[ir.ExprRepr],
                outs: list[ir.VariableRepr], inouts: list[ir.VariableRepr]) -> ir.InOutCall:
    """Checked against `func`, which a decoded in/out call does not hold."""
    if func.inout is None:
        raise SignatureMismatch(f"{func.name!r} is not an inOutFunc")
    groups = zip(("in-out", "in", "out"), func.in_out_params, (inouts, ins, outs))
    for label, declared, actual in groups:
        for decl, act in zip_longest(declared, actual):  # a missing one is None
            if decl is None or act is None:
                raise SignatureMismatch(
                    f"{func.name}: {len(actual)} {label} arguments, expected {len(declared)}"
                )
            if decl.type is not act.type and not decl.type == act.type:
                bd.refuse_misfit(f"{func.name} {label} argument {decl.name}", "parameter",
                                 decl.type, act.type, SignatureMismatch)
    return ir.InOutCall(func.name, tuple(ins), tuple(outs), tuple(inouts))


# ---------------------------------------------------------------------------
# Getters and setters


def _accessor_suffix(variable: ir.VariableRepr) -> str:
    return variable.name[0].upper() + variable.name[1:]


def get_method(class_name: str, variable: ir.VariableRepr) -> ir.MethodRepr:
    """getFoo: returns the state variable."""
    member = bd.self_var(variable.name, variable.type)
    body_ = bd.one_liner(bd.return_stmt(bd.value_of(member)))
    return bd.method(
        "get" + _accessor_suffix(variable), class_name, ir.Scope.PUBLIC,
        ir.Binding.DYNAMIC, variable.type, [], body_,
    )


def set_method(class_name: str, variable: ir.VariableRepr) -> ir.MethodRepr:
    """setFoo: assigns the state variable from a same-named parameter."""
    member = bd.self_var(variable.name, variable.type)
    fresh = bd.var(variable.name, variable.type)
    body_ = bd.one_liner(bd.assign(member, bd.value_of(fresh)))
    return bd.method(
        "set" + _accessor_suffix(variable), class_name, ir.Scope.PUBLIC,
        ir.Binding.DYNAMIC, ir.VOID, [bd.param(fresh)], body_,
    )


def get(obj: ir.ExprRepr, variable: ir.VariableRepr) -> ir.Call:
    return bd.method_call(obj, "get" + _accessor_suffix(variable), variable.type, [])


def set_(obj: ir.ExprRepr, variable: ir.VariableRepr, value: ir.ExprRepr) -> ir.ExprStmt:
    call = bd.method_call(obj, "set" + _accessor_suffix(variable), ir.VOID, [value])
    return bd.call_stmt(call)


# ---------------------------------------------------------------------------
# Strategy


def run_strategy(chosen: str, strategies: dict[str, ir.BodyRepr],
                 result_var: ir.VariableRepr | None = None,
                 result_value: ir.ExprRepr | None = None) -> ir.BlockRepr:
    """Generation-time Strategy: the chosen body is selected now, so unchosen
    strategies never reach the rendered program."""
    if (result_var is None) != (result_value is None):
        raise SignatureMismatch("runStrategy needs both result variable and value, or neither")
    if chosen not in strategies:
        raise UnknownStrategy(f"no strategy named {chosen!r}")
    statements = [s for blk in strategies[chosen].blocks for s in blk.statements]
    if result_var is not None:
        statements.append(bd.assign(result_var, result_value))
    return bd.block(statements)


# ---------------------------------------------------------------------------
# Observer


def _observer_list(elem_type: ir.TypeRepr) -> ir.ValueOf:
    return ir.ValueOf(ir.VariableRepr(ir.OBSERVER_LIST_NAME, ir.list_of(elem_type)))


def init_observer_list(elem_type: ir.TypeRepr, init_values: list[ir.ExprRepr]) -> ir.BlockRepr:
    """The list declared, then each value appended to it."""
    lst = _observer_list(bd.check_type(elem_type))
    return ir.BlockRepr((ir.VarDec(lst.var),
                         *[ir.ExprStmt(list_append(lst, value)) for value in init_values]))


def add_observer(value: ir.ExprRepr) -> ir.ExprStmt:
    if value.type.kind != "object":
        raise TypeMismatch("addObserver takes an object value")
    return ir.ExprStmt(ir.ListAppend(_observer_list(value.type), value))


def notify_observers(method: str, elem_type: ir.TypeRepr) -> ir.ForEach:
    if elem_type.kind != "object":
        raise TypeMismatch("notifyObservers element type must be an object type")
    each = ir.VariableRepr("observer", bd.check_type(elem_type))
    call = bd.method_call(ir.ValueOf(each), method, ir.VOID, [])
    return ir.ForEach(each, _observer_list(elem_type), bd.one_liner(ir.ExprStmt(call)))


# ---------------------------------------------------------------------------
# State machine (string-labelled)


def _state_var(name: str) -> ir.VariableRepr:
    return bd.var(name, ir.STRING)


def init_state(name: str, initial_label: str) -> ir.VarDecDef:
    return bd.var_dec_def(_state_var(name), bd.lit_string(initial_label))


def change_state(name: str, new_label: str) -> ir.Assign:
    return bd.assign(_state_var(name), bd.lit_string(new_label))


def check_state(name: str, branches: list[tuple[ir.Lit, ir.BodyRepr]],
                fallback: ir.BodyRepr) -> ir.Switch:
    return bd.switch(bd.value_of(_state_var(name)), branches, fallback)
