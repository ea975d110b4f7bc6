"""Language-agnostic IR for object-oriented programs.

Values are immutable records over tuples (`oogen._record.record`: a
frozen-dataclass contract with only `__init__` generated per class), so
sharing subtrees between programs is safe and structural equality is the
equality. Construction goes through `oogen.builders` / `oogen.patterns`,
which validate; the classes here deliberately do not.

Shape of a program:

    PackageTree > ModuleRepr > {MethodRepr, ClassDeclRepr > MethodRepr}
    MethodRepr > BodyRepr > BlockRepr > StatementRepr > ExprRepr

An operator node (`Unary`, `Binary`) holds its operator's name, a key of
`OPERATORS`, which gives only its arity: how each target spells it and
where it needs parentheses is that target's renderer's. So a binding,
scope, variable form, call form or assignment mode is its name too, the
string the JSON writes: `Binding`, `Scope`, `VarForm`, `CallForm` and
`AssignMode` are plain namespaces of those strings (`Binding.STATIC` is
"static"), listed in order by `names`. A field annotated with one holds
one of its strings; compare it with `==`.

An expression's type is said once, as its `type`: a field, a class
constant or a property of its parts (see `ExprRepr`).

Blocks matter to rendering: one blank line separates adjacent non-empty
blocks in every target. `walk` lists every statement of a tree.

A construct has a node class only where some target spells it its own
way; `oogen.patterns` builds the rest, Observer too, from core nodes.
"""

from __future__ import annotations

from functools import cache
from operator import attrgetter

from ._record import record


class Binding:
    STATIC, DYNAMIC = "static", "dynamic"


class Scope:
    PUBLIC, PRIVATE = "public", "private"


class VarForm:
    """How a variable reference is qualified when rendered.

    PLAIN         x
    SELF          self.x / this.x / this->x
    CLASS_MEMBER  Owner.x / Owner::x    (owner = class name)
    OBJECT_MEMBER obj.x                 (owner = object variable name)
    EXTERNAL      lib.x                 (owner = library name)
    """

    PLAIN = "plain"
    SELF = "self"
    CLASS_MEMBER = "classMember"
    OBJECT_MEMBER = "objectMember"
    EXTERNAL = "external"


def names(namespace: type) -> tuple[str, ...]:
    """The strings one of the namespaces here holds, in the order written."""
    return tuple(v for k, v in vars(namespace).items() if k.isupper())


# ---------------------------------------------------------------------------
# Types


class TypeRepr(metaclass=record):
    """A common-subset type. kind is one of bool, int, float, char, string,
    void, list, object. `elem` is set only for lists, `class_name` only for
    objects."""

    kind: str
    elem: TypeRepr | None = None
    class_name: str | None = None


BOOL = TypeRepr("bool")
INT = TypeRepr("int")
FLOAT = TypeRepr("float")
CHAR = TypeRepr("char")
STRING = TypeRepr("string")
VOID = TypeRepr("void")
# Each scalar kind's type, shared rather than built on each use.
SCALAR_TYPES = {t.kind: t for t in (BOOL, INT, FLOAT, CHAR, STRING, VOID)}


def list_of(elem: TypeRepr) -> TypeRepr:
    return TypeRepr("list", elem=elem)


def obj_of(class_name: str) -> TypeRepr:
    return TypeRepr("object", class_name=class_name)


# ---------------------------------------------------------------------------
# Operators

# Each operator's name and arity; GOOL's `#|`, `#/^` and `#^` build a `MathCall`.
OPERATORS: dict[str, int] = {
    "?!": 1, "#~": 1, "#*": 2, "#/": 2, "#+": 2, "#-": 2,
    "?<": 2, "?<=": 2, "?>": 2, "?>=": 2, "?==": 2, "?!=": 2, "?&&": 2, "?||": 2,
}


# ---------------------------------------------------------------------------
# Variables and expressions


class VariableRepr(metaclass=record):
    name: str
    type: TypeRepr
    form: VarForm = VarForm.PLAIN
    owner: str | None = None  # class / object / library per form


class ExprRepr(metaclass=record):
    """Base expression node. Every node has an IR `type`: a field where the
    builder states it (an operator, math or call node), a class constant
    where it never varies (`ListSize.type` is `INT`), and a property only
    where it follows from the node's parts. How tightly a node binds is the
    renderer's (`Renderer.prec_of`)."""


class Lit(ExprRepr, metaclass=record):
    kind: str  # bool int float char string
    value: object

    @property
    def type(self) -> TypeRepr:
        return SCALAR_TYPES[self.kind]


class ValueOf(ExprRepr, metaclass=record):
    var: VariableRepr

    @property
    def type(self) -> TypeRepr:
        return self.var.type


class Unary(ExprRepr, metaclass=record):
    op: str  # a name in OPERATORS
    operand: ExprRepr
    type: TypeRepr


class Binary(ExprRepr, metaclass=record):
    op: str  # a name in OPERATORS
    left: ExprRepr
    right: ExprRepr
    type: TypeRepr


class InlineIf(ExprRepr, metaclass=record):
    cond: ExprRepr
    then: ExprRepr
    other: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return self.then.type


class CallForm:
    FUNCTION, EXTERNAL, CONSTRUCTOR, METHOD = "function", "external", "constructor", "method"


class Call(ExprRepr, metaclass=record):
    """Any kind of application. `receiver` is set for METHOD calls,
    `library` for EXTERNAL ones. Constructors type as the built object."""

    form: CallForm
    name: str
    args: tuple[ExprRepr, ...]
    type: TypeRepr  # the return type; JSON "returnType"
    receiver: ExprRepr | None = None
    library: str | None = None


class MathCall(ExprRepr, metaclass=record):
    """A library function, a key of `builders.MATH_FNS`, in the target's math namespace."""

    fn: str
    args: tuple[ExprRepr, ...]
    type: TypeRepr


class ArgsList(ExprRepr, metaclass=record):
    type = list_of(STRING)


class ArgAt(ExprRepr, metaclass=record):
    """Index 0 is the first user argument in every target; backends add
    the program-name offset where the native vector includes it."""

    index: ExprRepr
    type = STRING


class ArgExists(ExprRepr, metaclass=record):
    index: ExprRepr
    type = BOOL


class ListAccess(ExprRepr, metaclass=record):
    lst: ExprRepr
    index: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return self.lst.type.elem


class ListSize(ExprRepr, metaclass=record):
    lst: ExprRepr
    type = INT


class ListAppend(ExprRepr, metaclass=record):
    lst: ExprRepr
    value: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return self.lst.type


class ListIndexOf(ExprRepr, metaclass=record):
    lst: ExprRepr
    value: ExprRepr
    type = INT


# ---------------------------------------------------------------------------
# Statements


class StatementRepr(metaclass=record):
    pass


class AssignMode:
    SET, ADD_EQ, SUB_EQ, INC, DEC = "set", "addEq", "subEq", "inc", "dec"


class VarDec(StatementRepr, metaclass=record):
    var: VariableRepr


class VarDecDef(StatementRepr, metaclass=record):
    var: VariableRepr
    value: ExprRepr


class Assign(StatementRepr, metaclass=record):
    mode: AssignMode
    var: VariableRepr
    value: ExprRepr | None = None  # None for INC/DEC


class ListSet(StatementRepr, metaclass=record):
    lst: ExprRepr
    index: ExprRepr
    value: ExprRepr


class Return(StatementRepr, metaclass=record):
    value: ExprRepr


class Throw(StatementRepr, metaclass=record):
    message: str


class CommentStmt(StatementRepr, metaclass=record):
    text: str


class Break(StatementRepr, metaclass=record):
    pass


class Continue(StatementRepr, metaclass=record):
    pass


class ExprStmt(StatementRepr, metaclass=record):
    """Evaluate for effect; result discarded."""

    expr: ExprRepr


class BlockRepr(StatementRepr, metaclass=record):
    statements: tuple[StatementRepr, ...]


class BodyRepr(metaclass=record):
    blocks: tuple[BlockRepr, ...]


class If(StatementRepr, metaclass=record):
    branches: tuple[tuple[ExprRepr, BodyRepr], ...]
    else_body: BodyRepr | None = None


class Switch(StatementRepr, metaclass=record):
    value: ExprRepr
    cases: tuple[tuple[Lit, BodyRepr], ...]
    default: BodyRepr | None = None


class For(StatementRepr, metaclass=record):
    init: StatementRepr
    cond: ExprRepr
    update: StatementRepr
    body: BodyRepr


class ForRange(StatementRepr, metaclass=record):
    """Counted loop; `end` is inclusive in every target."""

    var: VariableRepr
    start: ExprRepr
    end: ExprRepr
    step: ExprRepr
    body: BodyRepr


class ForEach(StatementRepr, metaclass=record):
    var: VariableRepr
    iterable: ExprRepr
    body: BodyRepr


class While(StatementRepr, metaclass=record):
    cond: ExprRepr
    body: BodyRepr


class TryCatch(StatementRepr, metaclass=record):
    try_body: BodyRepr
    catch_body: BodyRepr


class Print(StatementRepr, metaclass=record):
    """List-typed payloads lower to the bracket/loop idiom on targets
    without native list printing."""

    expr: ExprRepr
    newline: bool


class Read(StatementRepr, metaclass=record):
    var: VariableRepr
    parse_int: bool


class ListSlice(StatementRepr, metaclass=record):
    """target = source[start:end:step]; missing bounds default to the ends,
    missing step to 1. `end` is exclusive."""

    target: VariableRepr
    source: ExprRepr
    start: ExprRepr | None = None
    end: ExprRepr | None = None
    step: ExprRepr | None = None


class InOutSpec(metaclass=record):
    """An in/out method's `params`: `inouts` in-outs, then `ins` ins, then outs."""

    inouts: int
    ins: int


class InOutCall(StatementRepr, metaclass=record):
    name: str
    ins: tuple[ExprRepr, ...]
    outs: tuple[VariableRepr, ...]
    inouts: tuple[VariableRepr, ...]


# The list the Observer pattern declares, appends to and loops over.
OBSERVER_LIST_NAME = "observerList"


# ---------------------------------------------------------------------------
# Statement walk, derived from the records' own field declarations


_SPACES = str.maketrans("[],|.", "     ")


@cache
def statement_fields(cls: type) -> tuple[str, ...]:
    """The fields of `cls`, in declared order, whose declared type names a
    statement class or a record with such fields (a `BodyRepr`). The
    annotations in `__record_specs__` are strings naming classes of this
    module; naming itself (`TypeRepr.elem`) does not count."""
    return tuple(name for name, (annotation, _) in getattr(cls, "__record_specs__", {}).items()
                 if any(isinstance(named, type) and named is not cls
                        and (issubclass(named, StatementRepr) or statement_fields(named))
                        for named in map(globals().get, annotation.translate(_SPACES).split())))


# Class -> (whether it is a statement class, one `attrgetter` of its nesting
# fields or None), filled by `walk` on a class's first node.
_WALK: dict[type, tuple] = {}


def walk(node) -> list:
    """Every statement inside record `node` (a body, statement, method or
    package), as a list in pre-order, fields in declared order, a body's
    blocks included. One loop over an explicit stack: nesting does not
    recurse. A record class's nesting fields are read by its one
    `attrgetter`, made on the class's first node; what that returns (the
    field's value, or a tuple of the fields' values) goes on the stack as
    one item, and a tuple popped goes back on as its items, last first. So
    the loop calls no Python function or builtin per statement: the getter
    is a C object, the stack is popped by `del` and grown by `+=`."""
    found, stack = [], [node]
    while stack:
        value = stack[-1]
        del stack[-1]
        cls = type(value)
        if cls is tuple:
            stack += value[::-1]
            continue
        try:
            statement, nesting = _WALK[cls]
        except KeyError:
            names = statement_fields(cls)
            statement, nesting = _WALK[cls] = (
                issubclass(cls, StatementRepr), attrgetter(*names) if names else None)
        if statement and value is not node:
            found += (value,)
        if nesting is not None:
            stack += (nesting(value),)
    return found


# ---------------------------------------------------------------------------
# Declarations


class DocSpec(metaclass=record):
    """Doxygen-style documentation attached to a module/class/function."""

    description: str
    param_descs: tuple[tuple[str, str], ...] = ()
    return_desc: str | None = None


class MethodRepr(metaclass=record):
    """A free function (containing_class None) or a method of the class that
    lists it, as the class rule sets it (the JSON does not write it).

    `params` lists every parameter once; an in/out procedure's `inout` says how
    they split into in-outs, ins and outs (`in_out_params`).
    """

    name: str
    scope: Scope
    binding: Binding
    return_type: TypeRepr
    params: tuple[VariableRepr, ...]
    body: BodyRepr
    containing_class: str | None = None
    is_main: bool = False
    doc: DocSpec | None = None
    inout: InOutSpec | None = None

    @property
    def in_out_params(self) -> tuple[tuple[VariableRepr, ...], ...]:
        """(in-outs, ins, outs): `params` split as `inout` says."""
        inouts, ins = self.inout.inouts, self.inout.inouts + self.inout.ins
        return self.params[:inouts], self.params[inouts:ins], self.params[ins:]


class StateVarRepr(metaclass=record):
    scope: Scope
    binding: Binding
    variable: VariableRepr


class ClassDeclRepr(metaclass=record):
    name: str
    scope: Scope
    state_vars: tuple[StateVarRepr, ...]
    methods: tuple[MethodRepr, ...]
    parent: str | None = None
    doc: DocSpec | None = None


class ModuleRepr(metaclass=record):
    name: str
    imports: tuple[str, ...]
    functions: tuple[MethodRepr, ...]
    classes: tuple[ClassDeclRepr, ...]
    doc: DocSpec | None = None

    @property
    def is_main_module(self) -> bool:
        return any(f.is_main for f in self.functions)

    @property
    def is_empty(self) -> bool:
        return not self.functions and not self.classes


class AuxFileSpec(metaclass=record):
    kind: str  # "makefile" | "doxygen"
    with_doc_rule: bool = False


class PackageTree(metaclass=record):
    name: str
    modules: tuple[ModuleRepr, ...]
    aux: tuple[AuxFileSpec, ...] = ()

    @property
    def main_module(self) -> ModuleRepr | None:
        for module in self.modules:
            if module.is_main_module:
                return module
        return None
