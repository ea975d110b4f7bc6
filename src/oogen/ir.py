"""Language-agnostic IR for object-oriented programs.

Values are immutable records over tuples (`oogen._record.record`: a
frozen-dataclass contract with only `__init__` generated per class), so
sharing subtrees between programs is safe and structural equality is the
equality. Construction goes through `oogen.builders` / `oogen.patterns`,
which validate; the classes here deliberately do not.

Shape of a program:

    PackageTree > ModuleRepr > {MethodRepr, ClassDeclRepr > MethodRepr}
    MethodRepr > BodyRepr > BlockRepr > StatementRepr > ExprRepr

Blocks matter to rendering: one blank line separates adjacent non-empty
blocks in every target.
"""

from __future__ import annotations

from enum import Enum

from ._record import record

ATOMIC_PRECEDENCE = 100


class Binding(str, Enum):
    STATIC = "static"
    DYNAMIC = "dynamic"


class Scope(str, Enum):
    PUBLIC = "public"
    PRIVATE = "private"


class VarForm(str, Enum):
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


# ---------------------------------------------------------------------------
# Types


@record
class TypeRepr:
    """A common-subset type. kind is one of bool, int, float, char, string,
    infile, outfile, list, object. `elem` is set only for lists, `class_name`
    only for objects."""

    kind: str
    elem: TypeRepr | None = None
    class_name: str | None = None

    @property
    def is_numeric(self) -> bool:
        return self.kind in ("int", "float")

    @property
    def is_list(self) -> bool:
        return self.kind == "list"


BOOL = TypeRepr("bool")
INT = TypeRepr("int")
FLOAT = TypeRepr("float")
CHAR = TypeRepr("char")
STRING = TypeRepr("string")
INFILE = TypeRepr("infile")
OUTFILE = TypeRepr("outfile")
VOID = TypeRepr("void")
# A literal's type by its kind, shared rather than built on each read.
_LIT_TYPES = {"bool": BOOL, "int": INT, "float": FLOAT, "char": CHAR, "string": STRING}


def list_of(elem: TypeRepr) -> TypeRepr:
    return TypeRepr("list", elem=elem)


def obj_of(class_name: str) -> TypeRepr:
    return TypeRepr("object", class_name=class_name)


# ---------------------------------------------------------------------------
# Operators


@record
class OperatorSpec:
    """Catalog entry for a unary/binary operator.

    precedence drives parenthesis elision: a child is wrapped iff its
    precedence is lower than its parent's, or equal on the associativity-
    breaking side. Literals and calls are ATOMIC_PRECEDENCE.
    """

    name: str
    precedence: int
    arity: int
    assoc: str = "left"  # "left" | "right"


_OPS = [
    OperatorSpec("?!", 9, 1),
    OperatorSpec("#~", 9, 1),
    OperatorSpec("#/^", 9, 1),
    OperatorSpec("#|", 9, 1),
    OperatorSpec("#^", 8, 2, "right"),
    OperatorSpec("#*", 7, 2),
    OperatorSpec("#/", 7, 2),
    OperatorSpec("#+", 6, 2),
    OperatorSpec("#-", 6, 2),
    OperatorSpec("?<", 5, 2),
    OperatorSpec("?<=", 5, 2),
    OperatorSpec("?>", 5, 2),
    OperatorSpec("?>=", 5, 2),
    OperatorSpec("?==", 4, 2),
    OperatorSpec("?!=", 4, 2),
    OperatorSpec("?&&", 3, 2),
    OperatorSpec("?||", 2, 2),
]

OPERATORS: dict[str, OperatorSpec] = {op.name: op for op in _OPS}

INLINE_IF_PRECEDENCE = 1


# ---------------------------------------------------------------------------
# Variables and expressions


@record
class VariableRepr:
    name: str
    type: TypeRepr
    binding: Binding = Binding.DYNAMIC
    form: VarForm = VarForm.PLAIN
    owner: str | None = None  # class / object / library per form


@record
class ExprRepr:
    """Base expression node. Every node knows its IR type and its
    precedence; parenthesization never re-inspects children."""

    @property
    def type(self) -> TypeRepr:  # pragma: no cover - overridden
        raise NotImplementedError

    @property
    def precedence(self) -> int:
        return ATOMIC_PRECEDENCE


@record
class Lit(ExprRepr):
    kind: str  # bool int float char string
    value: object

    @property
    def type(self) -> TypeRepr:
        return _LIT_TYPES[self.kind]


@record
class ValueOf(ExprRepr):
    var: VariableRepr

    @property
    def type(self) -> TypeRepr:
        return self.var.type


@record
class Unary(ExprRepr):
    op: OperatorSpec
    operand: ExprRepr
    result: TypeRepr

    @property
    def type(self) -> TypeRepr:
        return self.result

    @property
    def precedence(self) -> int:
        return self.op.precedence


@record
class Binary(ExprRepr):
    op: OperatorSpec
    left: ExprRepr
    right: ExprRepr
    result: TypeRepr

    @property
    def type(self) -> TypeRepr:
        return self.result

    @property
    def precedence(self) -> int:
        return self.op.precedence


@record
class InlineIf(ExprRepr):
    cond: ExprRepr
    then: ExprRepr
    other: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return self.then.type

    @property
    def precedence(self) -> int:
        return INLINE_IF_PRECEDENCE


class CallForm(str, Enum):
    FUNCTION = "function"
    EXTERNAL = "external"
    CONSTRUCTOR = "constructor"
    METHOD = "method"


@record
class Call(ExprRepr):
    """Any kind of application. `receiver` is set for METHOD calls,
    `library` for EXTERNAL ones. Constructors type as the built object."""

    form: CallForm
    name: str
    args: tuple[ExprRepr, ...]
    return_type: TypeRepr
    receiver: ExprRepr | None = None
    library: str | None = None

    @property
    def type(self) -> TypeRepr:
        return self.return_type


@record
class MathCall(ExprRepr):
    """sin/cos/... lowered to the target's math namespace."""

    fn: str
    arg: ExprRepr
    result: TypeRepr

    @property
    def type(self) -> TypeRepr:
        return self.result


@record
class ArgsList(ExprRepr):
    @property
    def type(self) -> TypeRepr:
        return list_of(STRING)


@record
class ArgAt(ExprRepr):
    """Index 0 is the first user argument in every target; backends add
    the program-name offset where the native vector includes it."""

    index: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return STRING


@record
class ArgExists(ExprRepr):
    index: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return BOOL


@record
class ListAccess(ExprRepr):
    lst: ExprRepr
    index: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return self.lst.type.elem


@record
class ListSize(ExprRepr):
    lst: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return INT


@record
class ListAppend(ExprRepr):
    lst: ExprRepr
    value: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return self.lst.type


@record
class ListIndexExists(ExprRepr):
    lst: ExprRepr
    index: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return BOOL


@record
class ListIndexOf(ExprRepr):
    lst: ExprRepr
    value: ExprRepr

    @property
    def type(self) -> TypeRepr:
        return INT


# ---------------------------------------------------------------------------
# Statements


@record
class StatementRepr:
    pass


class AssignMode(str, Enum):
    SET = "set"
    ADD_EQ = "addEq"
    SUB_EQ = "subEq"
    INC = "inc"
    DEC = "dec"


@record
class VarDec(StatementRepr):
    var: VariableRepr


@record
class VarDecDef(StatementRepr):
    var: VariableRepr
    value: ExprRepr


@record
class Assign(StatementRepr):
    mode: AssignMode
    var: VariableRepr
    value: ExprRepr | None  # None for INC/DEC


@record
class ListSet(StatementRepr):
    lst: ExprRepr
    index: ExprRepr
    value: ExprRepr


@record
class Return(StatementRepr):
    value: ExprRepr


@record
class Throw(StatementRepr):
    message: str


@record
class Free(StatementRepr):
    """del / delete on manual-memory targets; nothing on GC targets."""

    var: VariableRepr


@record
class CommentStmt(StatementRepr):
    text: str


@record
class Break(StatementRepr):
    pass


@record
class Continue(StatementRepr):
    pass


@record
class ExprStmt(StatementRepr):
    """Evaluate for effect; result discarded."""

    expr: ExprRepr


@record
class BlockRepr(StatementRepr):
    statements: tuple[StatementRepr, ...]


@record
class BodyRepr:
    blocks: tuple[BlockRepr, ...]


@record
class If(StatementRepr):
    branches: tuple[tuple[ExprRepr, BodyRepr], ...]
    else_body: BodyRepr | None


@record
class Switch(StatementRepr):
    value: ExprRepr
    cases: tuple[tuple[Lit, BodyRepr], ...]
    default: BodyRepr | None


@record
class For(StatementRepr):
    init: StatementRepr
    cond: ExprRepr
    update: StatementRepr
    body: BodyRepr


@record
class ForRange(StatementRepr):
    """Counted loop; `end` is inclusive in every target."""

    var: VariableRepr
    start: ExprRepr
    end: ExprRepr
    step: ExprRepr
    body: BodyRepr


@record
class ForEach(StatementRepr):
    var: VariableRepr
    iterable: ExprRepr
    body: BodyRepr


@record
class While(StatementRepr):
    cond: ExprRepr
    body: BodyRepr


@record
class TryCatch(StatementRepr):
    try_body: BodyRepr
    catch_body: BodyRepr


@record
class Print(StatementRepr):
    """List-typed payloads lower to the bracket/loop idiom on targets
    without native list printing."""

    expr: ExprRepr
    newline: bool


@record
class Read(StatementRepr):
    var: VariableRepr
    parse_int: bool


@record
class ListSlice(StatementRepr):
    """target = source[start:end:step]; missing bounds default to the ends,
    missing step to 1. `end` is exclusive."""

    target: VariableRepr
    source: ExprRepr
    start: ExprRepr | None
    end: ExprRepr | None
    step: ExprRepr | None


@record
class InOutSpec:
    ins: tuple[VariableRepr, ...]
    outs: tuple[VariableRepr, ...]
    inouts: tuple[VariableRepr, ...]


@record
class InOutCall(StatementRepr):
    name: str
    ins: tuple[ExprRepr, ...]
    outs: tuple[VariableRepr, ...]
    inouts: tuple[VariableRepr, ...]


OBSERVER_LIST_NAME = "observerList"


@record
class ObserverInit(StatementRepr):
    elem_type: TypeRepr
    init_values: tuple[ExprRepr, ...]


@record
class ObserverAdd(StatementRepr):
    value: ExprRepr
    elem_type: TypeRepr


@record
class ObserverNotify(StatementRepr):
    method: str
    elem_type: TypeRepr


# ---------------------------------------------------------------------------
# Declarations


@record
class DocSpec:
    """Doxygen-style documentation attached to a module/class/function."""

    description: str
    param_descs: tuple[tuple[str, str], ...] = ()
    return_desc: str | None = None


@record
class ParamRepr:
    variable: VariableRepr


@record
class MethodRepr:
    """A free function (containing_class None) or a method.

    For in/out/in-out procedures `inout` is set and `params` still lists
    every declared name (in-outs, ins, outs) for documentation purposes;
    backends compute the real signature from `inout`.
    """

    name: str
    scope: Scope
    binding: Binding
    return_type: TypeRepr
    params: tuple[ParamRepr, ...]
    body: BodyRepr
    containing_class: str | None = None
    is_main: bool = False
    doc: DocSpec | None = None
    inout: InOutSpec | None = None


@record
class StateVarRepr:
    scope: Scope
    binding: Binding
    variable: VariableRepr
    is_const: bool = False


@record
class ClassDeclRepr:
    name: str
    parent: str | None
    scope: Scope
    state_vars: tuple[StateVarRepr, ...]
    methods: tuple[MethodRepr, ...]
    doc: DocSpec | None = None


@record
class ModuleRepr:
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


@record
class AuxFileSpec:
    kind: str  # "makefile" | "doxygen"
    with_doc_rule: bool = False


@record
class PackageTree:
    name: str
    modules: tuple[ModuleRepr, ...]
    aux: tuple[AuxFileSpec, ...] = ()

    @property
    def main_module(self) -> ModuleRepr | None:
        for module in self.modules:
            if module.is_main_module:
                return module
        return None
