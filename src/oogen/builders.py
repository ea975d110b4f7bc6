"""Validated constructors for the IR.

Everything user-facing goes through here (or `oogen.patterns`); a tree that
builds without raising is renderable on all four targets. Validation errors
are the `oogen.errors` taxonomy, raised at construction, never at render.
"""

from __future__ import annotations

import keyword
import math

from . import ir
from ._record import replace
from .errors import (
    BuildError,
    ConstAssignment,
    DuplicateMethod,
    DuplicateModule,
    DuplicateParam,
    EmptyConditional,
    InvalidIdentifier,
    ObserverNotInitialized,
    TypeMismatch,
    UnknownParamDoc,
)

# Enum members the constructors use, loaded once: on Python 3.11 every
# `ir.VarForm.SELF` at call time goes through `EnumType.__getattr__`.
_STATIC, _DYNAMIC = ir.Binding.STATIC, ir.Binding.DYNAMIC
_PUBLIC, _PRIVATE = ir.Scope.PUBLIC, ir.Scope.PRIVATE
_SELF, _CLASS_MEMBER, _OBJECT_MEMBER, _EXTERNAL = (
    ir.VarForm.SELF, ir.VarForm.CLASS_MEMBER, ir.VarForm.OBJECT_MEMBER, ir.VarForm.EXTERNAL)
_FUNCTION, _EXTERNAL_CALL, _CONSTRUCTOR, _METHOD = (
    ir.CallForm.FUNCTION, ir.CallForm.EXTERNAL, ir.CallForm.CONSTRUCTOR, ir.CallForm.METHOD)
_SET, _ADD_EQ, _SUB_EQ, _INC, _DEC = (
    ir.AssignMode.SET, ir.AssignMode.ADD_EQ, ir.AssignMode.SUB_EQ, ir.AssignMode.INC,
    ir.AssignMode.DEC)

# Reserved words of the targets: Python, then Java, C# and C++ keywords
# (contextual keywords such as C#'s `value` or Java's `var` stay legal).
_RESERVED = frozenset(keyword.kwlist) | frozenset("""
    _ abstract assert boolean break byte case catch char class const continue default do
    double else enum extends false final finally float for goto if implements import
    instanceof int interface long native new null package private protected public return
    short static strictfp super switch synchronized this throw throws transient true try void
    volatile while
    as base bool checked decimal delegate event explicit extern fixed foreach implicit in
    internal is lock namespace object operator out override params readonly ref sbyte sealed
    sizeof stackalloc string struct typeof uint ulong unchecked unsafe ushort using virtual
    alignas alignof and and_eq asm auto bitand bitor char8_t char16_t char32_t compl concept
    consteval constexpr constinit const_cast co_await co_return co_yield decltype delete
    dynamic_cast export friend inline mutable noexcept not not_eq nullptr or or_eq register
    reinterpret_cast requires signed static_assert static_cast template thread_local typedef
    typeid typename union unsigned wchar_t xor xor_eq
""".split())


def check_identifier(name: str) -> str:
    """`name`, if it is an identifier and no target's reserved word. An
    ASCII Python identifier is exactly `[A-Za-z_][A-Za-z0-9_]*`."""
    if not (name and name.isascii() and name.isidentifier()) or name in _RESERVED:
        raise InvalidIdentifier(f"not a legal identifier: {name!r}")
    return name


def check_type(type_: ir.TypeRepr) -> ir.TypeRepr:
    """`type_`, once every object class name in it (through list element
    types too) has passed `check_identifier`."""
    t = type_
    while t is not None:
        if t.class_name is not None:
            check_identifier(t.class_name)
        t = t.elem
    return type_


def check_dotted_name(name: str) -> str:
    """An import: identifiers joined by '.' (`java.util.ArrayList`)."""
    if not all(part.isascii() and part.isidentifier() for part in (name or "").split(".")):
        raise InvalidIdentifier(f"not a legal dotted name: {name!r}")
    return name


# ---------------------------------------------------------------------------
# Variables


def var(name: str, type_: ir.TypeRepr, binding: ir.Binding = ir.Binding.DYNAMIC) -> ir.VariableRepr:
    return ir.VariableRepr(check_identifier(name), check_type(type_), binding)


def self_var(name: str, type_: ir.TypeRepr) -> ir.VariableRepr:
    return ir.VariableRepr(check_identifier(name), check_type(type_), _DYNAMIC, _SELF)


def class_var(class_name: str, name: str, type_: ir.TypeRepr) -> ir.VariableRepr:
    return ir.VariableRepr(
        check_identifier(name), check_type(type_), _STATIC, _CLASS_MEMBER,
        owner=check_identifier(class_name),
    )


def obj_var(owner: str, name: str, type_: ir.TypeRepr) -> ir.VariableRepr:
    return ir.VariableRepr(
        check_identifier(name), check_type(type_), _DYNAMIC, _OBJECT_MEMBER,
        owner=check_identifier(owner),
    )


def ext_var(library: str, name: str, type_: ir.TypeRepr) -> ir.VariableRepr:
    return ir.VariableRepr(
        check_identifier(name), check_type(type_), _STATIC, _EXTERNAL,
        owner=check_identifier(library),
    )


def param(variable: ir.VariableRepr) -> ir.ParamRepr:
    return ir.ParamRepr(variable)


# ---------------------------------------------------------------------------
# Literals and expressions


def lit_bool(value: bool) -> ir.Lit:
    return ir.Lit("bool", bool(value))


# Every target's int is 32 bits (Java's and C#'s `int`, C++'s on its platforms).
INT_MIN, INT_MAX = -2**31, 2**31 - 1


def check_int_literal(value: int) -> int:
    """An int every target can spell as a literal; javac refuses a larger one."""
    if not INT_MIN <= value <= INT_MAX:
        raise TypeMismatch(f"int literal out of range: targets' ints are 32 bits "
                           f"({INT_MIN}..{INT_MAX})")
    return value


def check_float_literal(value: float) -> float:
    """A finite double: no target spells NaN or an infinity as a literal."""
    try:
        value = float(value)
    except OverflowError:
        raise TypeMismatch("float literal too large for a double") from None
    if not math.isfinite(value):
        raise TypeMismatch(f"float literal must be finite, got {value!r}")
    return value


def lit_int(value: int) -> ir.Lit:
    return ir.Lit("int", check_int_literal(int(value)))


def lit_float(value: float) -> ir.Lit:
    return ir.Lit("float", check_float_literal(value))


def lit_char(value: str) -> ir.Lit:
    if len(value) != 1:
        raise TypeMismatch(f"char literal must be one character: {value!r}")
    return ir.Lit("char", value)


def lit_string(value: str) -> ir.Lit:
    return ir.Lit("string", value)


def value_of(variable: ir.VariableRepr) -> ir.ValueOf:
    return ir.ValueOf(variable)


def _require_numeric(op: str, *exprs: ir.ExprRepr) -> None:
    for e in exprs:
        if not e.type.is_numeric:
            raise TypeMismatch(f"{op} requires numeric operands, got {e.type.kind}")


def _require_bool(op: str, *exprs: ir.ExprRepr) -> None:
    for e in exprs:
        if e.type.kind != "bool":
            raise TypeMismatch(f"{op} requires boolean operands, got {e.type.kind}")


def _numeric_join(a: ir.TypeRepr, b: ir.TypeRepr) -> ir.TypeRepr:
    return ir.FLOAT if "float" in (a.kind, b.kind) else ir.INT


def apply_unary(op_name: str, operand: ir.ExprRepr) -> ir.ExprRepr:
    op = ir.OPERATORS.get(op_name)
    if op is None or op.arity != 1:
        raise TypeMismatch(f"unknown unary operator {op_name!r}")
    if op_name == "?!":
        _require_bool(op_name, operand)
        return ir.Unary(op, operand, ir.BOOL)
    _require_numeric(op_name, operand)
    if op_name == "#/^":
        return ir.Unary(op, operand, ir.FLOAT)
    return ir.Unary(op, operand, operand.type)


_COMPARISONS = ("?<", "?<=", "?>", "?>=")
_EQUALITY = ("?==", "?!=")
_LOGICAL = ("?&&", "?||")


def apply_binary(op_name: str, left: ir.ExprRepr, right: ir.ExprRepr) -> ir.ExprRepr:
    op = ir.OPERATORS.get(op_name)
    if op is None or op.arity != 2:
        raise TypeMismatch(f"unknown binary operator {op_name!r}")
    if op_name in _LOGICAL:
        _require_bool(op_name, left, right)
        return ir.Binary(op, left, right, ir.BOOL)
    if op_name in _COMPARISONS:
        _require_numeric(op_name, left, right)
        return ir.Binary(op, left, right, ir.BOOL)
    if op_name in _EQUALITY:
        same_kind = left.type.kind == right.type.kind
        both_numeric = left.type.is_numeric and right.type.is_numeric
        if not (same_kind or both_numeric):
            raise TypeMismatch(
                f"{op_name} requires matching types, got {left.type.kind} and {right.type.kind}"
            )
        return ir.Binary(op, left, right, ir.BOOL)
    _require_numeric(op_name, left, right)
    # Power always joins to float: three of four targets lower it to a
    # double-returning library call.
    result = ir.FLOAT if op_name == "#^" else _numeric_join(left.type, right.type)
    return ir.Binary(op, left, right, result)


def inline_if(cond: ir.ExprRepr, then: ir.ExprRepr, other: ir.ExprRepr) -> ir.InlineIf:
    _require_bool("inlineIf", cond)
    if then.type.kind != other.type.kind:
        raise TypeMismatch(
            f"inlineIf branches must agree, got {then.type.kind} and {other.type.kind}"
        )
    return ir.InlineIf(cond, then, other)


def func_app(name: str, return_type: ir.TypeRepr, args: list[ir.ExprRepr]) -> ir.Call:
    return ir.Call(_FUNCTION, check_identifier(name), tuple(args),
                   check_type(return_type))


def ext_func_app(library: str, name: str, return_type: ir.TypeRepr, args: list[ir.ExprRepr]) -> ir.Call:
    return ir.Call(
        _EXTERNAL_CALL, check_identifier(name), tuple(args), check_type(return_type),
        library=check_identifier(library),
    )


def new_obj(class_name: str, args: list[ir.ExprRepr]) -> ir.Call:
    return ir.Call(
        _CONSTRUCTOR, check_identifier(class_name), tuple(args),
        ir.obj_of(class_name),
    )


def method_call(receiver: ir.ExprRepr, name: str, return_type: ir.TypeRepr,
                args: list[ir.ExprRepr]) -> ir.Call:
    return ir.Call(
        _METHOD, check_identifier(name), tuple(args), check_type(return_type),
        receiver=receiver,
    )


# ---------------------------------------------------------------------------
# Statements


def var_dec(variable: ir.VariableRepr) -> ir.VarDec:
    return ir.VarDec(variable)


def var_dec_def(variable: ir.VariableRepr, value: ir.ExprRepr) -> ir.VarDecDef:
    return ir.VarDecDef(variable, value)


def assign(variable: ir.VariableRepr, value: ir.ExprRepr) -> ir.Assign:
    return ir.Assign(_SET, variable, value)


def add_eq(variable: ir.VariableRepr, value: ir.ExprRepr) -> ir.Assign:
    _require_numeric("&-=/&+=", ir.ValueOf(variable), value)
    return ir.Assign(_ADD_EQ, variable, value)


def sub_eq(variable: ir.VariableRepr, value: ir.ExprRepr) -> ir.Assign:
    _require_numeric("&-=/&+=", ir.ValueOf(variable), value)
    return ir.Assign(_SUB_EQ, variable, value)


def inc(variable: ir.VariableRepr) -> ir.Assign:
    _require_numeric("&++", ir.ValueOf(variable))
    return ir.Assign(_INC, variable, None)


def dec(variable: ir.VariableRepr) -> ir.Assign:
    _require_numeric("&~-", ir.ValueOf(variable))
    return ir.Assign(_DEC, variable, None)


def return_stmt(value: ir.ExprRepr) -> ir.Return:
    return ir.Return(value)


def throw(message: str) -> ir.Throw:
    return ir.Throw(message)


def free(variable: ir.VariableRepr) -> ir.Free:
    return ir.Free(variable)


def comment(text: str) -> ir.CommentStmt:
    return ir.CommentStmt(text)


def break_stmt() -> ir.Break:
    return ir.Break()


def continue_stmt() -> ir.Continue:
    return ir.Continue()


def call_stmt(expr: ir.ExprRepr) -> ir.ExprStmt:
    return ir.ExprStmt(expr)


def if_cond(branches: list[tuple[ir.ExprRepr, ir.BodyRepr]],
            else_body: ir.BodyRepr | None = None) -> ir.If:
    if not branches:
        raise EmptyConditional("ifCond requires at least one branch")
    for cond, _ in branches:
        _require_bool("ifCond", cond)
    return ir.If(tuple(branches), else_body)


def switch(value: ir.ExprRepr, cases: list[tuple[ir.Lit, ir.BodyRepr]],
           default: ir.BodyRepr | None = None) -> ir.Switch:
    for case_lit, _ in cases:
        if case_lit.kind != value.type.kind:
            raise TypeMismatch(
                f"switch case {case_lit.value!r} is {case_lit.kind}, scrutinee is {value.type.kind}"
            )
    return ir.Switch(value, tuple(cases), default)


def for_loop(init: ir.StatementRepr, cond: ir.ExprRepr, update: ir.StatementRepr,
             body_: ir.BodyRepr) -> ir.For:
    _require_bool("for", cond)
    return ir.For(init, cond, update, body_)


def for_range(variable: ir.VariableRepr, start: ir.ExprRepr, end: ir.ExprRepr,
              step: ir.ExprRepr, body_: ir.BodyRepr) -> ir.ForRange:
    for what, part in (("variable", variable), ("start", start), ("end", end), ("step", step)):
        if part.type.kind != "int":
            raise TypeMismatch(f"forRange {what} must be int, got {part.type.kind}")
    return ir.ForRange(variable, start, end, step, body_)


def for_each(variable: ir.VariableRepr, iterable: ir.ExprRepr, body_: ir.BodyRepr) -> ir.ForEach:
    if not iterable.type.is_list:
        raise TypeMismatch("forEach iterates a list")
    if variable.type != iterable.type.elem:
        raise TypeMismatch(
            f"forEach variable is {variable.type.kind}, elements are {iterable.type.elem.kind}"
        )
    return ir.ForEach(variable, iterable, body_)


def while_loop(cond: ir.ExprRepr, body_: ir.BodyRepr) -> ir.While:
    _require_bool("while", cond)
    return ir.While(cond, body_)


def try_catch(try_body: ir.BodyRepr, catch_body: ir.BodyRepr) -> ir.TryCatch:
    return ir.TryCatch(try_body, catch_body)


# ---------------------------------------------------------------------------
# Blocks and bodies


def block(statements: list[ir.StatementRepr]) -> ir.BlockRepr:
    return ir.BlockRepr(tuple(statements))


def body(blocks: list[ir.BlockRepr]) -> ir.BodyRepr:
    return ir.BodyRepr(tuple(blocks))


def body_statements(statements: list[ir.StatementRepr]) -> ir.BodyRepr:
    return body([block(statements)])


def one_liner(statement: ir.StatementRepr) -> ir.BodyRepr:
    return body_statements([statement])


# ---------------------------------------------------------------------------
# Methods, classes, modules


def _check_params(params: list[ir.ParamRepr]) -> tuple[ir.ParamRepr, ...]:
    seen: set[str] = set()
    for p in params:
        if p.variable.name in seen:
            raise DuplicateParam(f"parameter {p.variable.name!r} declared twice")
        seen.add(p.variable.name)
    return tuple(params)


def _check_body(body_: ir.BodyRepr, return_type: ir.TypeRepr) -> None:
    """One walk of a method body: observer calls follow initObserverList,
    and each returned value has the method's return type (an int may be
    returned as a float)."""
    initialized = False
    for stmt in ir.walk(body_):
        kind = type(stmt)
        if kind is ir.ObserverInit:
            initialized = True
        elif (kind is ir.ObserverAdd or kind is ir.ObserverNotify) and not initialized:
            raise ObserverNotInitialized(
                "observer list used before initObserverList in this body"
            )
        elif kind is ir.Return:
            value = stmt.value.type
            if value != return_type and (value.kind, return_type.kind) != ("int", "float"):
                raise TypeMismatch(
                    f"return of {_type_name(value)} from a method returning"
                    f" {_type_name(return_type)}"
                )


def _type_name(t: ir.TypeRepr) -> str:
    if t.kind == "list":
        return f"list of {_type_name(t.elem)}"
    return t.class_name or t.kind


def function(name: str, scope: ir.Scope, binding: ir.Binding, return_type: ir.TypeRepr,
             params: list[ir.ParamRepr], body_: ir.BodyRepr) -> ir.MethodRepr:
    check_identifier(name)
    _check_body(body_, check_type(return_type))
    return ir.MethodRepr(name, scope, binding, return_type, _check_params(params), body_)


def main_function(body_: ir.BodyRepr) -> ir.MethodRepr:
    _check_body(body_, ir.VOID)
    return ir.MethodRepr(
        "main", _PUBLIC, _STATIC, ir.VOID, (), body_, is_main=True,
    )


def method(name: str, class_name: str, scope: ir.Scope, binding: ir.Binding,
           return_type: ir.TypeRepr, params: list[ir.ParamRepr],
           body_: ir.BodyRepr) -> ir.MethodRepr:
    check_identifier(name)
    _check_body(body_, check_type(return_type))
    return ir.MethodRepr(
        name, scope, binding, return_type, _check_params(params), body_,
        containing_class=check_identifier(class_name),
    )


def state_var(scope: ir.Scope, binding: ir.Binding, variable: ir.VariableRepr,
              is_const: bool = False) -> ir.StateVarRepr:
    return ir.StateVarRepr(scope, binding, variable, is_const)


def pub_m_var(variable: ir.VariableRepr) -> ir.StateVarRepr:
    return state_var(_PUBLIC, _DYNAMIC, variable)


def priv_m_var(variable: ir.VariableRepr) -> ir.StateVarRepr:
    return state_var(_PRIVATE, _DYNAMIC, variable)


def pub_g_var(variable: ir.VariableRepr) -> ir.StateVarRepr:
    return state_var(_PUBLIC, _STATIC, variable)


def const_var(scope: ir.Scope, variable: ir.VariableRepr) -> ir.StateVarRepr:
    return state_var(scope, _STATIC, variable, is_const=True)


# The variables a statement assigns, by statement class.
_WRITES = {ir.Assign: lambda s: (s.var,), ir.Read: lambda s: (s.var,),
           ir.InOutCall: lambda s: s.outs + s.inouts, ir.ListSlice: lambda s: (s.target,)}


def _check_const_assignments(cls_name: str, const_names: set[str],
                             methods: tuple[ir.MethodRepr, ...]) -> None:
    for m in methods:
        for stmt in ir.walk(m.body):
            writes = _WRITES.get(type(stmt))
            for v in writes(stmt) if writes else ():
                if v.name in const_names:
                    raise ConstAssignment(f"{cls_name}.{v.name} is const but assigned in {m.name}")


def build_class(name: str, parent: str | None, scope: ir.Scope,
                state_vars: list[ir.StateVarRepr], methods: list[ir.MethodRepr],
                doc: ir.DocSpec | None = None) -> ir.ClassDeclRepr:
    check_identifier(name)
    if parent is not None:
        check_identifier(parent)
    seen: set[str] = set()
    for m in methods:
        if m.name in seen:
            raise DuplicateMethod(f"class {name} declares {m.name!r} twice")
        seen.add(m.name)
    # Methods built standalone adopt the class; a mismatch is a build bug.
    placed = tuple(
        m if m.containing_class == name
        else replace(m, containing_class=name)
        for m in methods
    )
    const_names = {sv.variable.name for sv in state_vars if sv.is_const}
    if const_names:
        _check_const_assignments(name, const_names, placed)
    return ir.ClassDeclRepr(name, parent, scope, tuple(state_vars), placed, doc)


def build_module(name: str, imports: list[str], functions: list[ir.MethodRepr],
                 classes: list[ir.ClassDeclRepr], doc: ir.DocSpec | None = None) -> ir.ModuleRepr:
    check_identifier(name)
    for imp in imports:
        check_dotted_name(imp)
    seen: set[str] = set()
    for f in functions:
        if f.name in seen:
            raise DuplicateMethod(f"module {name} declares function {f.name!r} twice")
        seen.add(f.name)
    return ir.ModuleRepr(name, tuple(imports), tuple(functions), tuple(classes), doc)


def prog(name: str, modules: list[ir.ModuleRepr]) -> ir.PackageTree:
    check_identifier(name)
    seen: set[str] = set()
    mains = 0
    for m in modules:
        if m.name in seen:
            raise DuplicateModule(f"module {m.name!r} appears twice")
        seen.add(m.name)
        mains += sum(1 for f in m.functions if f.is_main)
    if mains > 1:
        raise DuplicateMethod("program declares more than one main function")
    return ir.PackageTree(name, tuple(modules))


def package(program: ir.PackageTree, aux: list[ir.AuxFileSpec]) -> ir.PackageTree:
    kinds = [spec.kind for spec in aux]
    if len(kinds) != len(set(kinds)):
        raise BuildError("package lists an auxiliary file kind twice")
    return replace(program, aux=tuple(aux))


# ---------------------------------------------------------------------------
# Documentation


def doc_spec(description: str, param_descs: list[tuple[str, str]] | None = None,
             return_desc: str | None = None) -> ir.DocSpec:
    return ir.DocSpec(description, tuple(param_descs or ()), return_desc)


def doc_func(description: str, param_descs: list[tuple[str, str]],
             return_desc: str | None, method_: ir.MethodRepr) -> ir.MethodRepr:
    order = {p.variable.name: i for i, p in enumerate(method_.params)}
    for name, _ in param_descs:
        if name not in order:
            raise UnknownParamDoc(f"{method_.name} has no parameter {name!r}")
    # \param lines come out in declaration order no matter how they were given.
    ordered = tuple(sorted(param_descs, key=lambda nd: order[nd[0]]))
    return replace(method_, doc=ir.DocSpec(description, ordered, return_desc))


def doc_class(description: str, class_: ir.ClassDeclRepr) -> ir.ClassDeclRepr:
    return replace(class_, doc=ir.DocSpec(description))


def doc_mod(description: str, module: ir.ModuleRepr) -> ir.ModuleRepr:
    return replace(module, doc=ir.DocSpec(description))
