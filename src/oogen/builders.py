"""Validated constructors for the IR, and the rules of well-formed trees.

Everything user-facing goes through here (or `oogen.patterns`); a tree that
builds without raising is renderable on all four targets. Validation errors
are the `oogen.errors` taxonomy, raised at construction, never at render.

`RULES` maps an IR class to the rule its nodes obey: it takes the finished
node and returns it, or raises a `BuildError`. The constructors here and in
`oogen.patterns` call it as they build, and `oogen.jsonio` on each node it
decodes. The rules judge every value but a name, an enumerated field's by
`in` on a tuple, which never hashes, so they refuse any JSON value outside
its set. Names are checked per field (`check_identifier`, `check_type`,
`check_dotted_name`). A value fills a slot only of exactly its type (see
`refuse_misfit`). Only `patterns.in_out_call` (against its callee) and
`patterns.run_strategy` (its chosen name) check what their node does not hold.
"""

from __future__ import annotations

import keyword
import math

from . import ir
from ._record import replace
from .errors import (
    BuildError, DuplicateMethod, DuplicateModule, DuplicateParam, DuplicateStateLabel,
    EmptyConditional, InvalidIdentifier, ObserverNotInitialized, SignatureMismatch,
    TypeMismatch, UnknownParamDoc,
)

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
# Rules: `RULES`, at the end of this section, holds one for each IR class
# that has one. They read `kind` off each TypeRepr, compare whole types only
# where a value fills a slot, and build no nodes.


# Every target's int is 32 bits (Java's and C#'s `int`, C++'s on its platforms).
INT_MIN, INT_MAX = -2**31, 2**31 - 1
_NUMERIC = ("int", "float")
_COMPARISONS = ("?<", "?<=", "?>", "?>=")
_EQUALITY = ("?==", "?!=")
_LOGICAL = ("?&&", "?||")
_STEP_NAMES = {ir.AssignMode.INC: "&++", ir.AssignMode.DEC: "&~-"}
_SCOPES, _BINDINGS = ir.names(ir.Scope), ir.names(ir.Binding)
_VAR_FORMS, _CALL_FORMS = ir.names(ir.VarForm), ir.names(ir.CallForm)
_OWNERLESS = (ir.VarForm.PLAIN, ir.VarForm.SELF)
_ASSIGN_MODES, _AUX_KINDS = ir.names(ir.AssignMode), ("makefile", "doxygen")
_UNARY, _BINARY = (tuple(op for op, n in ir.OPERATORS.items() if n == arity) for arity in (1, 2))
# The statements a for header takes as its update and its init, and the
# expressions a statement may be.
_FOR_UPDATES, _FOR_INITS = (ir.Assign, ir.ExprStmt), (ir.VarDecDef, ir.Assign, ir.ExprStmt)
_STATEMENT_EXPRS = (ir.Call, ir.ListAppend)
# Functions every target's math namespace provides under some spelling, by arity.
MATH_FNS = {"sin": 1, "cos": 1, "tan": 1, "sqrt": 1, "abs": 1, "floor": 1, "ceil": 1,
            "log": 1, "exp": 1, "pow": 2}
# GOOL's operators that are library functions: each builds a `MathCall`.
_MATH_OPERATORS = {"#|": "abs", "#/^": "sqrt", "#^": "pow"}


def _refuse(message: str, error: type[BuildError] = TypeMismatch):
    raise error(message)


# The rules test a valid kind inline and call these only to raise the
# message for the first kind that fails: a valid node costs no call here.

def _one_of(key: str, values: tuple[str, ...]):
    _refuse(f"field {key!r} must be one of: {', '.join(values)}", BuildError)


def _require_numeric(op: str, *kinds: str) -> None:
    for kind in kinds:
        if kind not in _NUMERIC:
            _refuse(f"{op} requires numeric operands, got {kind}")


def _require_bool(op: str, *kinds: str) -> None:
    for kind in kinds:
        if kind != "bool":
            _refuse(f"{op} requires boolean operands, got {kind}")


def _bool_cond(op: str, node):
    kind = node.cond.type.kind
    if kind != "bool":
        _require_bool(op, kind)
    return node


def _first_repeat(names: list):
    """The first of `names` that an earlier one equals, or None."""
    seen = set()
    for name in names:
        if name in seen:
            return name
        seen.add(name)


def _type_name(t: ir.TypeRepr) -> str:
    return f"list of {_type_name(t.elem)}" if t.kind == "list" else t.class_name or t.kind


def _unary_kind(name: str, operand: str) -> str:
    """The kind unary `name` gives on an operand of kind `operand`."""
    if name not in _UNARY:
        _refuse(f"unknown unary operator {name!r}")
    if name == "?!":
        if operand != "bool":
            _require_bool(name, operand)
    elif operand not in _NUMERIC:
        _require_numeric(name, operand)
    return operand


def _binary_kind(name: str, left: str, right: str) -> str:
    """The kind binary `name` gives on operands of kinds `left` and `right`."""
    if name in _LOGICAL:
        if left != "bool" or right != "bool":
            _require_bool(name, left, right)
        return "bool"
    if name in _EQUALITY:
        if left != right and not (left in _NUMERIC and right in _NUMERIC):
            _refuse(f"{name} requires matching types, got {left} and {right}")
        return "bool"
    if name not in _BINARY:
        _refuse(f"unknown binary operator {name!r}")
    if left not in _NUMERIC or right not in _NUMERIC:
        _require_numeric(name, left, right)
    if name in _COMPARISONS:
        return "bool"
    return "float" if "float" in (left, right) else "int"


def refuse_misfit(op: str, slot: str, want: ir.TypeRepr, got: ir.TypeRepr, error=TypeMismatch):
    """Raise `error`: `op` puts a value of type `got` in its `slot` of type
    `want`. A value fills a slot (a variable, a list element, a return, an
    inline if's other branch, an in/out parameter) only of exactly its type,
    by `TypeRepr` equality: an int is no float, and an object of one class
    none of another. Each rule tests `want is got or want == got` inline, so
    a value that fits costs no call: scalar types are shared objects."""
    _refuse(f"{op}: {slot} type {_type_name(want)}, value type {_type_name(got)}", error)


def _elem(op: str, lst: ir.ExprRepr) -> ir.TypeRepr:
    t = lst.type
    return t.elem if t.kind == "list" else _refuse(f"{op} requires a list, got {t.kind}")


def _fits(op: str, node):
    """`node`, if its list is a list whose element type its value has (a
    scalar's `elem` is None, which no type equals): javac refuses an int for
    a list of doubles, and C++ truncates a double stored in a list of ints."""
    elem, t = node.lst.type.elem, node.value.type
    return node if elem is t or elem == t else refuse_misfit(op, "element", _elem(op, node.lst), t)


def _listed(op: str, node):
    _elem(op, node.lst)
    return node


def _int_index(op: str, node):
    return node if node.index.type.kind == "int" else _refuse(f"{op} index must be int")


# The payload each literal kind takes, as `isinstance` tests it; a bool is
# an int to Python, so no other kind takes one.
LIT_PAYLOADS = {"bool": bool, "int": int, "float": (int, float), "char": str, "string": str}
_LIT_KINDS = tuple(LIT_PAYLOADS)
ENUMERATED = (*_SCOPES, *_BINDINGS, *_VAR_FORMS, *_CALL_FORMS, *_ASSIGN_MODES, *_AUX_KINDS,
              *_LIT_KINDS, *ir.OPERATORS)  # every enumerated field's values, for `oogen.jsonio`


def _check_lit(lit: ir.Lit) -> ir.Lit:
    """A payload of its kind's type, where a float's int becomes a double;
    numbers every target spells (32-bit ints, finite doubles); one-letter
    chars."""
    kind, value = lit.kind, lit.value
    if kind not in _LIT_KINDS:
        _refuse(f"unknown literal kind {kind!r}", BuildError)
    if not isinstance(value, LIT_PAYLOADS[kind]) or type(value) is bool and kind != "bool":
        _refuse(f"value does not fit literal kind {kind!r}")
    if kind == "float" and type(value) is not float:
        try:
            value = float(value)
        except OverflowError:
            _refuse("float literal too large for a double")
        lit = ir.Lit(kind, value)
    if kind == "int" and not INT_MIN <= value <= INT_MAX:
        _refuse(f"int literal out of range: targets' ints are 32 bits ({INT_MIN}..{INT_MAX})")
    if kind == "float" and not math.isfinite(value):
        _refuse(f"float literal must be finite, got {value!r}")
    if kind == "char" and len(value) != 1:
        _refuse(f"char literal must be one character: {value!r}")
    return lit


def _check_operator(node: ir.Unary | ir.Binary):
    name = node.op
    kind = (_unary_kind(name, node.operand.type.kind) if type(node) is ir.Unary
            else _binary_kind(name, node.left.type.kind, node.right.type.kind))
    return node if node.type.kind == kind else _refuse(
        f"{name} gives {kind}, not {_type_name(node.type)}")


def _check_inline_if(node: ir.InlineIf) -> ir.InlineIf:
    _bool_cond("inlineIf", node)
    then, other = node.then.type, node.other.type  # g++ gives `?:` one type
    return node if then is other or then == other else refuse_misfit(
        "inlineIf else", "then", then, other)


def _form_field(form: str, key: str, needed: bool):
    _refuse(f"{form} call {'requires a' if needed else 'takes no'} {key!r}", BuildError)


def _check_call(node: ir.Call) -> ir.Call:
    """A receiver on a method call only, and a library on an external call only."""
    form = node.form
    if form not in _CALL_FORMS:
        _one_of("form", _CALL_FORMS)
    method, external = form == ir.CallForm.METHOD, form == ir.CallForm.EXTERNAL
    if (node.receiver is None) == method:
        _form_field(form, "receiver", method)
    if method and node.receiver.type.kind != "object":  # `1.f()` compiles nowhere
        _refuse(f"method call receiver must be an object, got {_type_name(node.receiver.type)}")
    if (node.library is None) == external:
        _form_field(form, "library", external)
    if form == ir.CallForm.CONSTRUCTOR and node.type.class_name != node.name:
        _refuse(f"constructor {node.name} gives {node.name}, not {_type_name(node.type)}")
    return node


def _check_math(node: ir.MathCall) -> ir.MathCall:
    fn, args = node.fn, node.args
    if fn not in MATH_FNS:
        _refuse(f"unknown math function {fn!r}")
    arity = MATH_FNS[fn]
    if args[arity:] or not args[arity - 1:]:  # slices, not `len`: no call on the valid path
        _refuse(f"{fn} takes {arity} argument(s), got {len(args)}", SignatureMismatch)
    for arg in args:
        if arg.type.kind not in _NUMERIC:
            _refuse(f"{fn} requires numeric arguments, got {arg.type.kind}")
    kind = args[0].type.kind if fn == "abs" else "float"  # abs keeps its argument's type
    return node if node.type.kind == kind else _refuse(
        f"{fn} gives {kind}, not {_type_name(node.type)}")


def _check_var_dec_def(node: ir.VarDecDef) -> ir.VarDecDef:
    t, v = node.var.type, node.value.type
    return node if t is v or t == v else refuse_misfit(
        f"varDecDef {node.var.name}", "variable", t, v)


def _check_assign(node: ir.Assign) -> ir.Assign:
    mode, value = node.mode, node.value
    if mode not in _ASSIGN_MODES:
        _one_of("mode", _ASSIGN_MODES)
    step = _STEP_NAMES[mode] if mode in _STEP_NAMES else None
    if (value is None) != (step is not None):
        _refuse(f"assign mode {mode!r} "
                + ("takes no 'value'" if step else "requires a 'value'"), BuildError)
    t = node.var.type
    if step is not None:
        if t.kind not in _NUMERIC:
            _require_numeric(step, t.kind)
        return node
    v, op = value.type, "assign" if mode == ir.AssignMode.SET else "&-=/&+="
    if op != "assign" and (t.kind not in _NUMERIC or v.kind not in _NUMERIC):
        _require_numeric(op, t.kind, v.kind)
    return node if t is v or t == v else refuse_misfit(f"{op} {node.var.name}", "variable", t, v)


def _check_if(node: ir.If) -> ir.If:
    if not node.branches:
        _refuse("ifCond requires at least one branch", EmptyConditional)
    for cond, _ in node.branches:
        if cond.type.kind != "bool":
            _require_bool("ifCond", cond.type.kind)
    return node


def _check_switch(node: ir.Switch) -> ir.Switch:
    """Cases are literals of the scrutinee's kind, each once (javac, g++ refuse
    repeats), of a kind they switch on: not a float, nor for javac a bool."""
    kind = node.value.type.kind
    for label, _ in node.cases:
        if type(label) is not ir.Lit:
            _refuse("switch case 'match' must be a literal")
        if label.kind != kind:
            _refuse(f"switch case {label.value!r} is {label.kind}, scrutinee is {kind}")
    value = _first_repeat([label.value for label, _ in node.cases])
    if value is not None:
        _refuse(f"switch case {value!r} listed twice", DuplicateStateLabel)
    return node if kind in ("int", "char", "string") else _refuse(
        f"switch scrutinee must be an int, char or string, got {_type_name(node.value.type)}")


def _check_for(node: ir.For) -> ir.For:
    """A header javac and g++ compile and Python runs alike (javac finds a
    bare declaration unassigned; Python reruns a declaring update)."""
    init, update = type(_bool_cond("for", node).init), type(node.update)
    return node if init in _FOR_INITS and update in _FOR_UPDATES else _refuse(
        "for takes a varDecDef, assign or expr statement as its init and an assign or expr"
        f" statement as its update, got {init.__name__} and {update.__name__}", BuildError)


def _check_for_range(node: ir.ForRange) -> ir.ForRange:
    for what, part in (("variable", node.var), ("start", node.start), ("end", node.end),
                       ("step", node.step)):
        if part.type.kind != "int":
            _refuse(f"forRange {what} must be int, got {part.type.kind}")
    # Every target tests `var <= end` whatever the step's sign, so a step of
    # 0, or below 0 from a start at or below the end, never ends. A step that
    # is not a literal goes unchecked.
    step, start, end = node.step, node.start, node.end
    if type(step) is ir.Lit and (step.value == 0 or step.value < 0 and type(start) is ir.Lit
                                 and type(end) is ir.Lit and start.value <= end.value):
        _refuse(f"forRange from {start.value} to {end.value} by {step.value} never ends"
                if step.value else "forRange step must not be 0", BuildError)
    return node


def _check_for_each(node: ir.ForEach) -> ir.ForEach:
    t, v = node.iterable.type, node.var.type
    if t.kind != "list":
        _refuse("forEach iterates a list")
    return node if v is t.elem or v == t.elem else refuse_misfit(
        f"forEach {node.var.name}", "variable", v, t.elem)


def _check_read(node: ir.Read) -> ir.Read:
    if node.var.type.kind != ("int" if node.parse_int else "string"):
        _refuse("readInt target must be an int variable" if node.parse_int
                else "readLine target must be a string variable")
    return node


def _check_list_slice(node: ir.ListSlice) -> ir.ListSlice:
    t, v = node.target.type, node.source.type
    if v.kind != "list":
        _elem("listSlice", node.source)
    if t is not v and not t == v:
        refuse_misfit(f"listSlice {node.target.name}", "variable", t, v)
    if any(b is not None and b.type.kind != "int" for b in (node.start, node.end, node.step)):
        _refuse("listSlice bounds must be int")
    # Python refuses a step of 0, and the C family's loop never ends; a step
    # that is not a literal goes unchecked.
    return node if type(node.step) is not ir.Lit or node.step.value != 0 else _refuse(
        "listSlice step must not be 0", BuildError)


def _check_print(node: ir.Print) -> ir.Print:
    """A value every target prints alike: no object (Python prints its
    address, Java its hash code, and g++ finds no `<<`) and no void, alone
    or as the elements of a list at any depth."""
    t = node.expr.type
    while t.kind == "list":
        t = t.elem
    return node if t.kind != "object" and t.kind != "void" else _refuse(
        f"print of {_type_name(node.expr.type)}: no two targets print it alike")


def _check_scoped(node: ir.MethodRepr | ir.StateVarRepr):
    if node.scope not in _SCOPES:
        _one_of("scope", _SCOPES)
    if node.binding not in _BINDINGS:
        _one_of("binding", _BINDINGS)
    return node


def _check_method(m: ir.MethodRepr, body: bool = True) -> ir.MethodRepr:
    """Parameters unique and documented ones declared, an in/out procedure
    void, its split within its parameters and leaving it an output (an
    in-out or an out), a main `public static void main()`; then, unless
    `body` is False, one walk of the body: a returned value has the
    method's return type, and an append to or a loop over the local
    observer list follows its declaration and names its element type (the
    rules make the value appended or the loop variable of it)."""
    if m.scope not in _SCOPES or m.binding not in _BINDINGS:
        _check_scoped(m)  # raises
    names = [p.name for p in m.params]
    name = _first_repeat(names)
    if name is not None:
        _refuse(f"parameter {name!r} declared twice", DuplicateParam)
    for name, _ in m.doc.param_descs if m.doc is not None else ():
        if name not in names:
            _refuse(f"{m.name} has no parameter {name!r}", UnknownParamDoc)
    spec = m.inout
    split = spec.inouts + spec.ins if spec is not None else 0
    if split and not m.params[split - 1:]:
        _refuse(f"inOutFunc {m.name!r} splits more parameters than it has", SignatureMismatch)
    if spec is not None and not (spec.inouts or m.params[split:]):
        _refuse(f"inOutFunc {m.name!r} declares no outputs", SignatureMismatch)
    if spec is not None and m.return_type.kind != "void":
        _refuse(f"inOutFunc {m.name!r} must return void", SignatureMismatch)
    if m.is_main and (m.name != "main" or m.scope != ir.Scope.PUBLIC or m.params
                      or m.binding != ir.Binding.STATIC or m.return_type.kind != "void"):
        _refuse(f"main function {m.name!r} must be public static void main()", SignatureMismatch)
    returns, observers = m.return_type, ir.OBSERVER_LIST_NAME
    elem = m.params[names.index(observers)].type.elem if observers in names else None
    for stmt in ir.walk(m.body) if body else ():
        kind = type(stmt)
        if kind is ir.Return:
            value = stmt.value.type
            if value is not returns and not value == returns:
                refuse_misfit(f"return from {m.name}", "return", returns, value)
        elif (kind is ir.VarDec or kind is ir.VarDecDef) and stmt.var.name == observers:
            elem = stmt.var.type.elem
        elif kind is ir.ForEach or kind is ir.ExprStmt and type(stmt.expr) is ir.ListAppend:
            lst = stmt.iterable if kind is ir.ForEach else stmt.expr.lst
            if type(lst) is ir.ValueOf and lst.var.name == observers and (
                    lst.var.form == ir.VarForm.PLAIN):  # not a member of that name
                if elem is None:
                    _refuse("observer list used before initObserverList in this body",
                            ObserverNotInitialized)
                t = lst.var.type.elem
                if t is not elem and not t == elem:
                    refuse_misfit("notifyObservers" if kind is ir.ForEach else "addObserver",
                                  "element", elem, t)
    return m


def _check_class(c: ir.ClassDeclRepr) -> ir.ClassDeclRepr:
    if c.scope not in _SCOPES:
        _one_of("scope", _SCOPES)
    name = _first_repeat([m.name for m in c.methods])
    if name is not None:
        _refuse(f"class {c.name} declares {name!r} twice", DuplicateMethod)
    placed = ()  # each method placed in the class, built standalone or decoded
    for m in c.methods:
        if m.is_main:
            _refuse(f"class {c.name} declares main function {m.name!r}", SignatureMismatch)
        if m.name == c.name:  # a constructor's name in Java, C# and C++
            _refuse(f"class {c.name} declares a method named after itself", InvalidIdentifier)
        placed += (m if m.containing_class == c.name else replace(m, containing_class=c.name),)
    return c if placed == c.methods else replace(c, methods=placed)


def _check_module(module: ir.ModuleRepr) -> ir.ModuleRepr:
    for f in module.functions:
        if f.containing_class is not None:
            _refuse(f"module {module.name} lists method {f.containing_class}.{f.name}"
                    " as a function", BuildError)
    name = _first_repeat([f.name for f in module.functions])
    return module if name is None else _refuse(
        f"module {module.name} declares function {name!r} twice", DuplicateMethod)


def _check_package(pkg: ir.PackageTree) -> ir.PackageTree:
    name = _first_repeat([m.name for m in pkg.modules])
    if name is not None:
        _refuse(f"module {name!r} appears twice", DuplicateModule)
    if sum(f.is_main for m in pkg.modules for f in m.functions) > 1:
        _refuse("program declares more than one main function", DuplicateMethod)
    for spec in pkg.aux:  # no builder makes an aux file's spec
        if spec.kind not in _AUX_KINDS:
            _refuse(f"unknown aux file kind {spec.kind!r}", BuildError)
    kind = _first_repeat([spec.kind for spec in pkg.aux])
    return pkg if kind is None else _refuse(
        f"package lists the auxiliary file kind {kind!r} twice", BuildError)


def _check_var(v: ir.VariableRepr) -> ir.VariableRepr:
    """An owner on each form that renders one, and on no other."""
    if v.form not in _VAR_FORMS:
        _one_of("form", _VAR_FORMS)
    ownerless = v.form in _OWNERLESS
    return v if (v.owner is None) == ownerless else _refuse(
        f"form {v.form!r} " + ("takes no 'owner'" if ownerless else "requires an 'owner'"),
        BuildError)


def _check_split(spec: ir.InOutSpec) -> ir.InOutSpec:
    for key, count in (("inouts", spec.inouts), ("ins", spec.ins)):
        if type(count) is not int or count < 0:  # a bool is no count
            _refuse(f"field {key!r} must be a count: an integer, 0 or more", BuildError)
    return spec


RULES = {
    ir.VariableRepr: _check_var,
    ir.Lit: _check_lit, ir.Unary: _check_operator, ir.Binary: _check_operator,
    ir.InlineIf: _check_inline_if, ir.Call: _check_call, ir.MathCall: _check_math,
    # One lambda a line: cProfile labels a function by its line, and keeps
    # one of the functions that share a label.
    ir.ArgAt: lambda n: _int_index("argAt", n),
    ir.ArgExists: lambda n: _int_index("argExists", n),
    ir.ListAccess: lambda n: _int_index("listAccess", _listed("listAccess", n)),
    ir.ListSize: lambda n: _listed("listSize", n),
    ir.ListAppend: lambda n: _fits("listAppend", n),
    ir.ListIndexOf: lambda n: _fits("indexOf", n), ir.Assign: _check_assign,
    ir.VarDecDef: _check_var_dec_def,
    ir.ListSet: lambda n: _int_index("listSet", _fits("listSet", n)),
    ir.If: _check_if, ir.Switch: _check_switch, ir.For: _check_for,
    ir.ForRange: _check_for_range, ir.ForEach: _check_for_each,
    ir.While: lambda n: _bool_cond("while", n), ir.Read: _check_read,
    ir.ListSlice: _check_list_slice, ir.Print: _check_print,
    # javac refuses any other expression as a statement ("not a statement").
    ir.ExprStmt: lambda n: n if type(n.expr) in _STATEMENT_EXPRS else _refuse(
        f"an expression statement must be a call or a listAppend,"
        f" got {type(n.expr).__name__}", BuildError),
    ir.InOutSpec: _check_split, ir.StateVarRepr: _check_scoped,
    ir.MethodRepr: _check_method, ir.ClassDeclRepr: _check_class,
    ir.ModuleRepr: _check_module, ir.PackageTree: _check_package,
}


# ---------------------------------------------------------------------------
# Variables: a form that needs an owner takes it as an argument.


def var(name: str, type_: ir.TypeRepr) -> ir.VariableRepr:
    return ir.VariableRepr(check_identifier(name), check_type(type_))


def self_var(name: str, type_: ir.TypeRepr) -> ir.VariableRepr:
    return ir.VariableRepr(check_identifier(name), check_type(type_), ir.VarForm.SELF)


def class_var(class_name: str, name: str, type_: ir.TypeRepr) -> ir.VariableRepr:
    return ir.VariableRepr(check_identifier(name), check_type(type_), ir.VarForm.CLASS_MEMBER,
                           check_identifier(class_name))


def obj_var(owner: str, name: str, type_: ir.TypeRepr) -> ir.VariableRepr:
    return ir.VariableRepr(check_identifier(name), check_type(type_), ir.VarForm.OBJECT_MEMBER,
                           check_identifier(owner))


def ext_var(library: str, name: str, type_: ir.TypeRepr) -> ir.VariableRepr:
    return ir.VariableRepr(check_identifier(name), check_type(type_), ir.VarForm.EXTERNAL,
                           check_identifier(library))


def param(variable: ir.VariableRepr) -> ir.VariableRepr:
    """A parameter is its variable."""
    return variable


# ---------------------------------------------------------------------------
# Literals and expressions


# Each literal builder hands its value to the rule as given, as the decoder
# does: the rule refuses a payload of another type, and widens a float's int.

def lit_bool(value: bool) -> ir.Lit:
    return RULES[ir.Lit](ir.Lit("bool", value))


def lit_int(value: int) -> ir.Lit:
    return RULES[ir.Lit](ir.Lit("int", value))


def lit_float(value: float) -> ir.Lit:
    return RULES[ir.Lit](ir.Lit("float", value))


def lit_char(value: str) -> ir.Lit:
    return RULES[ir.Lit](ir.Lit("char", value))


def lit_string(value: str) -> ir.Lit:
    return RULES[ir.Lit](ir.Lit("string", value))


def value_of(variable: ir.VariableRepr) -> ir.ValueOf:
    return ir.ValueOf(variable)


def math_fn(name: str, *args: ir.ExprRepr) -> ir.MathCall:
    """A call of library function `name`, a key of `MATH_FNS`."""
    return _check_math(ir.MathCall(name, args, args[0].type if name == "abs" and args
                                   else ir.FLOAT))


# apply_unary and apply_binary type their result as their rule checks it.


def apply_unary(op_name: str, operand: ir.ExprRepr) -> ir.ExprRepr:
    if op_name in _MATH_OPERATORS:
        return math_fn(_MATH_OPERATORS[op_name], operand)
    return ir.Unary(op_name, operand, ir.SCALAR_TYPES[_unary_kind(op_name, operand.type.kind)])


def apply_binary(op_name: str, left: ir.ExprRepr, right: ir.ExprRepr) -> ir.ExprRepr:
    if op_name in _MATH_OPERATORS:
        return math_fn(_MATH_OPERATORS[op_name], left, right)
    kind = _binary_kind(op_name, left.type.kind, right.type.kind)
    return ir.Binary(op_name, left, right, ir.SCALAR_TYPES[kind])


def inline_if(cond: ir.ExprRepr, then: ir.ExprRepr, other: ir.ExprRepr) -> ir.InlineIf:
    return RULES[ir.InlineIf](ir.InlineIf(cond, then, other))


def func_app(name: str, return_type: ir.TypeRepr, args: list[ir.ExprRepr]) -> ir.Call:
    return ir.Call(ir.CallForm.FUNCTION, check_identifier(name), tuple(args),
                   check_type(return_type))


def ext_func_app(library: str, name: str, return_type: ir.TypeRepr, args: list[ir.ExprRepr]) -> ir.Call:
    return ir.Call(ir.CallForm.EXTERNAL, check_identifier(name), tuple(args),
                   check_type(return_type), library=check_identifier(library))


def new_obj(class_name: str, args: list[ir.ExprRepr]) -> ir.Call:
    return ir.Call(ir.CallForm.CONSTRUCTOR, check_identifier(class_name), tuple(args),
                   ir.obj_of(class_name))


def method_call(receiver: ir.ExprRepr, name: str, return_type: ir.TypeRepr,
                args: list[ir.ExprRepr]) -> ir.Call:
    return RULES[ir.Call](ir.Call(ir.CallForm.METHOD, check_identifier(name), tuple(args),
                                  check_type(return_type), receiver=receiver))


# ---------------------------------------------------------------------------
# Statements


def var_dec(variable: ir.VariableRepr) -> ir.VarDec:
    return ir.VarDec(variable)


def var_dec_def(variable: ir.VariableRepr, value: ir.ExprRepr) -> ir.VarDecDef:
    return RULES[ir.VarDecDef](ir.VarDecDef(variable, value))


def assign(variable: ir.VariableRepr, value: ir.ExprRepr) -> ir.Assign:
    return RULES[ir.Assign](ir.Assign(ir.AssignMode.SET, variable, value))


def add_eq(variable: ir.VariableRepr, value: ir.ExprRepr) -> ir.Assign:
    return RULES[ir.Assign](ir.Assign(ir.AssignMode.ADD_EQ, variable, value))


def sub_eq(variable: ir.VariableRepr, value: ir.ExprRepr) -> ir.Assign:
    return RULES[ir.Assign](ir.Assign(ir.AssignMode.SUB_EQ, variable, value))


def inc(variable: ir.VariableRepr) -> ir.Assign:
    return RULES[ir.Assign](ir.Assign(ir.AssignMode.INC, variable, None))


def dec(variable: ir.VariableRepr) -> ir.Assign:
    return RULES[ir.Assign](ir.Assign(ir.AssignMode.DEC, variable, None))


def return_stmt(value: ir.ExprRepr) -> ir.Return:
    return ir.Return(value)


def throw(message: str) -> ir.Throw:
    return ir.Throw(message)


def comment(text: str) -> ir.CommentStmt:
    return ir.CommentStmt(text)


def break_stmt() -> ir.Break:
    return ir.Break()


def continue_stmt() -> ir.Continue:
    return ir.Continue()


def call_stmt(expr: ir.ExprRepr) -> ir.ExprStmt:
    return RULES[ir.ExprStmt](ir.ExprStmt(expr))


def if_cond(branches: list[tuple[ir.ExprRepr, ir.BodyRepr]],
            else_body: ir.BodyRepr | None = None) -> ir.If:
    return RULES[ir.If](ir.If(tuple(branches), else_body))


def switch(value: ir.ExprRepr, cases: list[tuple[ir.Lit, ir.BodyRepr]],
           default: ir.BodyRepr | None = None) -> ir.Switch:
    return RULES[ir.Switch](ir.Switch(value, tuple(cases), default))


def for_loop(init: ir.StatementRepr, cond: ir.ExprRepr, update: ir.StatementRepr,
             body_: ir.BodyRepr) -> ir.For:
    return RULES[ir.For](ir.For(init, cond, update, body_))


def for_range(variable: ir.VariableRepr, start: ir.ExprRepr, end: ir.ExprRepr,
              step: ir.ExprRepr, body_: ir.BodyRepr) -> ir.ForRange:
    return RULES[ir.ForRange](ir.ForRange(variable, start, end, step, body_))


def for_each(variable: ir.VariableRepr, iterable: ir.ExprRepr, body_: ir.BodyRepr) -> ir.ForEach:
    return RULES[ir.ForEach](ir.ForEach(variable, iterable, body_))


def while_loop(cond: ir.ExprRepr, body_: ir.BodyRepr) -> ir.While:
    return RULES[ir.While](ir.While(cond, body_))


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


def function(name: str, scope: ir.Scope, binding: ir.Binding, return_type: ir.TypeRepr,
             params: list[ir.VariableRepr], body_: ir.BodyRepr) -> ir.MethodRepr:
    return RULES[ir.MethodRepr](ir.MethodRepr(
        check_identifier(name), scope, binding, check_type(return_type), tuple(params), body_))


def main_function(body_: ir.BodyRepr) -> ir.MethodRepr:
    return RULES[ir.MethodRepr](ir.MethodRepr(
        "main", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, (), body_, is_main=True))


def method(name: str, class_name: str, scope: ir.Scope, binding: ir.Binding,
           return_type: ir.TypeRepr, params: list[ir.VariableRepr],
           body_: ir.BodyRepr) -> ir.MethodRepr:
    return RULES[ir.MethodRepr](ir.MethodRepr(
        check_identifier(name), scope, binding, check_type(return_type), tuple(params), body_,
        containing_class=check_identifier(class_name)))


def state_var(scope: ir.Scope, binding: ir.Binding, variable: ir.VariableRepr) -> ir.StateVarRepr:
    return RULES[ir.StateVarRepr](ir.StateVarRepr(scope, binding, variable))


def pub_m_var(variable: ir.VariableRepr) -> ir.StateVarRepr:
    return RULES[ir.StateVarRepr](ir.StateVarRepr(ir.Scope.PUBLIC, ir.Binding.DYNAMIC, variable))


def priv_m_var(variable: ir.VariableRepr) -> ir.StateVarRepr:
    return RULES[ir.StateVarRepr](ir.StateVarRepr(ir.Scope.PRIVATE, ir.Binding.DYNAMIC, variable))


def pub_g_var(variable: ir.VariableRepr) -> ir.StateVarRepr:
    return RULES[ir.StateVarRepr](ir.StateVarRepr(ir.Scope.PUBLIC, ir.Binding.STATIC, variable))


def build_class(name: str, parent: str | None, scope: ir.Scope,
                state_vars: list[ir.StateVarRepr], methods: list[ir.MethodRepr],
                doc: ir.DocSpec | None = None) -> ir.ClassDeclRepr:
    check_identifier(name)
    if parent is not None:
        check_identifier(parent)
    return RULES[ir.ClassDeclRepr](
        ir.ClassDeclRepr(name, scope, tuple(state_vars), tuple(methods), parent, doc))


def build_module(name: str, imports: list[str], functions: list[ir.MethodRepr],
                 classes: list[ir.ClassDeclRepr], doc: ir.DocSpec | None = None) -> ir.ModuleRepr:
    check_identifier(name)
    for imp in imports:
        check_dotted_name(imp)
    return RULES[ir.ModuleRepr](
        ir.ModuleRepr(name, tuple(imports), tuple(functions), tuple(classes), doc))


def prog(name: str, modules: list[ir.ModuleRepr]) -> ir.PackageTree:
    return RULES[ir.PackageTree](ir.PackageTree(check_identifier(name), tuple(modules)))


def package(program: ir.PackageTree, aux: list[ir.AuxFileSpec]) -> ir.PackageTree:
    return RULES[ir.PackageTree](replace(program, aux=tuple(aux)))


# ---------------------------------------------------------------------------
# Documentation


def doc_spec(description: str, param_descs: list[tuple[str, str]] | None = None,
             return_desc: str | None = None) -> ir.DocSpec:
    return ir.DocSpec(description, tuple(param_descs or ()), return_desc)


def doc_func(description: str, param_descs: list[tuple[str, str]],
             return_desc: str | None, method_: ir.MethodRepr) -> ir.MethodRepr:
    order = {p.name: i for i, p in enumerate(method_.params)}
    # \param lines come out in declaration order no matter how they were given.
    ordered = tuple(sorted(param_descs, key=lambda nd: order.get(nd[0], -1)))
    # Only the doc changes: the body was checked when method_ was built.
    documented = replace(method_, doc=ir.DocSpec(description, ordered, return_desc))
    return _check_method(documented, body=False)


def doc_class(description: str, class_: ir.ClassDeclRepr) -> ir.ClassDeclRepr:
    return replace(class_, doc=ir.DocSpec(description))


def doc_mod(description: str, module: ir.ModuleRepr) -> ir.ModuleRepr:
    return replace(module, doc=ir.DocSpec(description))
