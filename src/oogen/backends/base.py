"""Shared rendering machinery: dispatch by table.

One renderer instance is created per module render; it owns the mutable
accumulators (imports needed, C++ iterator variables), so concurrent
renders of different modules never share state.

Every IR node is rendered by one dict lookup on its class. A renderer
class lists its handlers in `expr_handlers` (here, for every target) and
`stmt_handlers` (here those every target shares, the rest in
`CFamilyRenderer` and `PythonRenderer`): each maps a node class to the
name of the method that renders it, or to a function `(renderer, node)`
for a one-line rendering. `__init_subclass__` resolves the names against
each class, so a target overrides a handler by defining the method. A
target defines every method its tables name, so it renders every node
class; a name a class does not define is left out of its tables, which
only the abstract `CFamilyRenderer` relies on. The tables are plain
dicts. `expr` and `stmt` are the entry points, one table lookup each.
Inside a render, the operator, inline-if, call, math, list-access and
argument handlers and `atom` look each operand up themselves,
`self._expr_table[type(x)](self, x)`, as `body` and `block` do each
statement; so an operator, math or inline-if level costs one Python
frame, and such a chain renders as deep as it decodes; a call renders its
own arguments so, with no helper. Variable forms dispatch the same way,
through `var_forms` keyed by the form's name, after an `==` test for the
commonest form. A variable reference is one frame too: `value_of` reads a
plain variable's name itself, and calls `var_ref` only in C++, whose
`var_ref` holds its one rule for a plain name (a for-each variable is an
iterator there).

A node some target spells natively is lowered once, here, to core IR for
the targets that do not, so every target accepts or refuses the same
trees. Each renderer's `lowerings` table says which nodes it lowers and
how; `__init_subclass__` folds it into the statement table, so a node is
lowered as it is rendered. `switch_as_if` gives an if-chain, `for_as_while`
a `while`, and `range_as_for`, `slice_as_loop` and `list_print` a counted
loop, each built with the `ir` constructors (the parts are already typed).

Expression rendering is string-based and precedence-driven, using the
*target's* view of precedence. This module's tables rank each node
class and each operator (an operator node holds its operator's name),
except where `op_precedence` (operator name -> precedence) overrides it
because the target's grammar differs. `__init_subclass__` folds both into
`_prec`, keyed by node class and, for an operator node (whose class maps
to None), by operator name. `prec_of` reads a node's precedence by
subscript of `_prec` (its callers render the node first, so its class is
there). Only the chain handlers `binary`, `unary` and `inline_if` repeat
that lookup inline, `prec[type(x)] or prec[x.op]` (every precedence is
positive), to save a call per level. `binary` holds the one parenthesis
rule of every target: it wraps a child that binds looser than its parent,
a child that binds equally on the right, and one that binds equally on
the left only under a comparison, since comparisons never chain.
`op_tokens` maps each operator name to its spelling in the target. A
library function (`MathCall`, which GOOL's `#|`, `#/^` and `#^` build)
is atomic, and the target's `math_text` spells it.
"""

from __future__ import annotations

from .. import ir
from .._record import replace
from ..errors import NestingTooDeep
from ..layout import EMPTY, Doc, RenderedFile, text, vcat, wrap

# Precedence: higher binds tighter. A literal, variable or call binds
# tightest of all, and an inline if loosest.
ATOMIC_PRECEDENCE = 100
INLINE_IF_PRECEDENCE = 1
# Each operator's precedence, as a target ranks it unless its
# `op_precedence` says otherwise.
_OP_PRECEDENCE = {
    "?!": 9, "#~": 9, "#*": 7, "#/": 7, "#+": 6, "#-": 6,
    "?<": 5, "?<=": 5, "?>": 5, "?>=": 5, "?==": 4, "?!=": 4, "?&&": 3, "?||": 2,
}
# The operators whose equal-precedence left child is wrapped too: a chain
# of comparisons means something else in each target, or warns.
_COMPARISONS = frozenset(("?<", "?<=", "?>", "?>=", "?==", "?!="))
# Precedence of a node by class, where it is not ATOMIC_PRECEDENCE; None
# for an operator node, which takes its operator's precedence.
_NODE_PRECEDENCE: dict[type, float | None] = {
    ir.Unary: None,
    ir.Binary: None,
    ir.InlineIf: INLINE_IF_PRECEDENCE,
    ir.ArgExists: 5,  # every target renders it as a > comparison
}
# The operator of an assignment that takes a value, and the sign of a step.
_ASSIGN_TOKENS = {ir.AssignMode.SET: "=", ir.AssignMode.ADD_EQ: "+=", ir.AssignMode.SUB_EQ: "-="}
_STEP_SIGNS = {ir.AssignMode.INC: "+", ir.AssignMode.DEC: "-"}


def escape_string(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def comment_doc(marker: str, value: str) -> Doc:
    """One comment line per line of `value`, so none of it escapes the comment."""
    return tuple([f"{marker} {line}" for line in value.splitlines() or [""]])


def escape_char(value: str) -> str:
    out = value.replace("\\", "\\\\").replace("'", "\\'")
    return out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def doc_fields(doc: ir.DocSpec) -> list[tuple[str, str]]:
    """(Doxygen tag, text) for each line of a doc comment, in order."""
    fields = [("\\brief", doc.description)]
    fields += [("\\param", f"{name} {desc}") for name, desc in doc.param_descs]
    if doc.return_desc is not None:
        fields.append(("\\return", doc.return_desc))
    return fields


_ZERO, _ONE = ir.Lit("int", 0), ir.Lit("int", 1)
_OPEN, _COMMA = ir.Print(ir.Lit("string", "["), False), ir.Print(ir.Lit("string", ", "), False)


def _one_block(*statements: ir.StatementRepr) -> ir.BodyRepr:
    return ir.BodyRepr((ir.BlockRepr(statements),))


def switch_as_if(s: ir.Switch) -> ir.If:
    """The switch as an if/else-if chain of `==` tests, for targets (or
    scrutinee types) without a native switch."""
    return ir.If(tuple((ir.Binary("?==", s.value, label, ir.BOOL), branch)
                       for label, branch in s.cases), s.default)


def _counted(counter: ir.VariableRepr, start: ir.ExprRepr, test: str, end: ir.ExprRepr,
             step: ir.ExprRepr | None, body: ir.BodyRepr) -> ir.For:
    """`for (int counter = start; counter <test> end; ...)`, stepping by
    `step`: `++` for none or a literal 1, `+=` otherwise."""
    if step is None or type(step) is ir.Lit and step.value == 1:
        update = ir.Assign(ir.AssignMode.INC, counter, None)
    else:
        update = ir.Assign(ir.AssignMode.ADD_EQ, counter, step)
    cond = ir.Binary(test, ir.ValueOf(counter), end, ir.BOOL)
    return ir.For(ir.VarDecDef(counter, start), cond, update, body)


def range_as_for(s: ir.ForRange) -> ir.For:
    """The range as a counted loop; its end is inclusive."""
    return _counted(s.var, s.start, "?<=", s.end, s.step, s.body)


def slice_as_loop(s: ir.ListSlice) -> ir.BlockRepr:
    """The slice as a loop appending to a fresh `temp` list, which is then
    assigned to the target; the bounds default to the ends of the source."""
    temp, counter = ir.VariableRepr("temp", s.target.type), ir.VariableRepr("i_temp", ir.INT)
    take = ir.ListAppend(ir.ValueOf(temp), ir.ListAccess(s.source, ir.ValueOf(counter)))
    loop = _counted(counter, _ZERO if s.start is None else s.start, "?<",
                    ir.ListSize(s.source) if s.end is None else s.end, s.step,
                    _one_block(ir.ExprStmt(take)))
    assign = ir.Assign(ir.AssignMode.SET, s.target, ir.ValueOf(temp))
    return ir.BlockRepr((ir.VarDec(temp), loop, assign))


def list_print(s: ir.Print, depth: int = 1) -> ir.BlockRepr:
    """The list printed as `[`, each element but the last followed by `, `,
    the last if there is one, then `]`, for targets without list printing.
    A list element prints the same way one level deeper, so each level
    counts with its own `list_i<depth>`."""
    lst = s.expr
    counter, size = ir.VariableRepr(f"list_i{depth}", ir.INT), ir.ListSize(lst)
    last = ir.Binary("#-", size, _ONE, ir.INT)

    def element(index: ir.ExprRepr) -> ir.StatementRepr:
        each = ir.Print(ir.ListAccess(lst, index), False)
        return list_print(each, depth + 1) if lst.type.elem.kind == "list" else each

    loop = _counted(counter, _ZERO, "?<", last, None,
                    _one_block(element(ir.ValueOf(counter)), _COMMA))
    guard = ir.If(((ir.Binary("?>", size, _ZERO, ir.BOOL), _one_block(element(last))),),
                  None)
    return ir.BlockRepr((_OPEN, loop, guard, ir.Print(ir.Lit("string", "]"), s.newline)))


def for_as_while(s: ir.For) -> ir.BlockRepr:
    """The loop as its init, then a `while` whose last block ends with the
    update, for targets without a three-part loop. A `continue` of the loop
    would skip that update, so the update runs before each one too; a
    nested loop's `continue` is its own."""

    def placed(value):  # a statement, a body, a tuple of them, or any other field
        cls = type(value)
        if cls is ir.Continue:
            return ir.BlockRepr((s.update, value))
        if cls is tuple:
            return tuple([placed(part) for part in value])
        fields = ir.statement_fields(cls)
        if not fields or cls in (ir.For, ir.ForRange, ir.ForEach, ir.While):
            return value
        return replace(value, **{name: placed(getattr(value, name)) for name in fields})

    blocks = placed(s.body).blocks or (ir.BlockRepr(()),)
    last = ir.BlockRepr((*blocks[-1].statements, s.update))
    return ir.BlockRepr((s.init, ir.While(s.cond, ir.BodyRepr((*blocks[:-1], last)))))


def _resolve(cls, handlers: dict) -> dict:
    """`handlers` with each method name replaced by `cls`'s method. A name
    `cls` does not define (or sets to None) is left out, as the abstract
    `CFamilyRenderer` leaves out what each C-family target defines."""
    table = {}
    for key, h in handlers.items():
        h = getattr(cls, h, None) if type(h) is str else h
        if h is not None:
            table[key] = h
    return table


def qualified(renderer, v: ir.VariableRepr) -> str:
    """`owner.name`: a member or external variable in most targets."""
    return f"{v.owner}.{v.name}"


class Renderer:
    """Base renderer. A target's subclass renders every IR node class: it
    defines every method its tables name, and `math_text`, `method_doc`,
    `module_files` and `build_commands`, which are called by name.
    `math_text(e, *rendered)` spells `MathCall` `e` on its rendered arguments."""

    target = "?"
    extension = "?"
    # The tools a target needs, in the order `build_commands` takes them:
    # (Makefile variable, environment variable that overrides it in verify,
    # commands verify probes on PATH; the Makefile defaults to the first).
    # `build_commands(tools, sources, main, package)` says how to build and
    # run a package, for the Makefile and for verify: (compile argv or None,
    # run argv), given one command per tool, the source paths, the main
    # module's name and the package's name. Run argv is relative to the
    # sources' directory.
    tools: tuple[tuple[str, str, tuple[str, ...]], ...] = ()
    statement_end = ";"
    true_token, false_token = "true", "false"
    comment_marker = "//"
    list_access_text = "{}[{}]"  # a list's element: the list, then the index
    op_precedence: dict[str, float] = {}
    op_tokens = {
        "?!": "!", "#~": "-", "?&&": "&&", "?||": "||",
        "#+": "+", "#-": "-", "#*": "*", "#/": "/",
        "?<": "<", "?<=": "<=", "?>": ">", "?>=": ">=", "?==": "==", "?!=": "!=",
    }
    expr_handlers = {
        ir.Lit: "lit", ir.ValueOf: "value_of", ir.Unary: "unary", ir.Binary: "binary",
        ir.InlineIf: "inline_if", ir.Call: "call", ir.ExtCall: "external_call",
        ir.MethodCall: "method_call", ir.NewObj: "constructor_call", ir.MathCall: "math_call",
        ir.ArgsList: "args_list", ir.ArgAt: "arg_at", ir.ArgExists: "arg_exists",
        ir.ListAccess: "list_access", ir.ListSize: "list_size", ir.ListAppend: "list_append",
        ir.ListIndexOf: "list_index_of",
    }
    # Statements every target spells alike but for `statement_end`, and the
    # names of the methods that spell the others; each family merges these
    # into its own table.
    stmt_handlers: dict = {
        ir.Assign: "assign_doc",
        ir.ListSet: lambda self, s: text(self.list_set_text(s) + self.statement_end),
        ir.Return: lambda self, s: text(f"return {self.expr(s.value)}{self.statement_end}"),
        ir.CommentStmt: lambda self, s: comment_doc(
            self.comment_marker, self.comment_text(s.text)),
        ir.Break: lambda self, s: text("break" + self.statement_end),
        ir.Continue: lambda self, s: text("continue" + self.statement_end),
        ir.ExprStmt: lambda self, s: text(self.expr(s.expr) + self.statement_end),
        ir.BlockRepr: "block",
        ir.If: "if_doc",
        ir.Switch: "switch_doc",
        ir.For: "for_doc",
        ir.InOutCall: "in_out_call_doc",
    }
    # Node class -> function from a node to the core IR this target renders
    # in its place, or to the node itself where the target spells it.
    lowerings: dict = {}

    # How each variable form but PLAIN (a bare name) is referred to:
    # resolved like the handlers, each maps a form to a method name or a
    # function `(renderer, variable)`.
    var_forms: dict = {
        ir.VarForm.CLASS_MEMBER: qualified,
        ir.VarForm.OBJECT_MEMBER: qualified,
        ir.VarForm.EXTERNAL: qualified,
    }

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._expr_table = _resolve(cls, cls.expr_handlers)
        stmts = _resolve(cls, cls.stmt_handlers)
        for node_class, lower in cls.lowerings.items():  # each renders as what it lowers to
            def lowered(self, s, lower=lower, native=stmts.get(node_class)):
                low = lower(s)
                return native(self, s) if low is s else self._stmt_table[type(low)](self, low)
            stmts[node_class] = lowered
        cls._stmt_table = stmts
        cls._var_table = _resolve(cls, cls.var_forms)
        # Precedence by node class (None for an operator node) and by
        # operator name, for this target.
        cls._prec = {**dict.fromkeys(cls._expr_table, ATOMIC_PRECEDENCE),
                     **_NODE_PRECEDENCE, **_OP_PRECEDENCE, **cls.op_precedence}

    def __init__(self) -> None:
        self.needs: set[str] = set()  # target-level imports discovered while rendering

    # -- dispatch -------------------------------------------------------------

    def expr(self, e: ir.ExprRepr) -> str:
        return self._expr_table[type(e)](self, e)

    def stmt(self, s: ir.StatementRepr) -> Doc:
        return self._stmt_table[type(s)](self, s)

    # -- precedence -------------------------------------------------------

    def prec_of(self, e: ir.ExprRepr) -> float:
        prec = self._prec
        return prec[type(e)] or prec[e.op]

    def atom(self, e: ir.ExprRepr) -> str:
        """Render as a call/index receiver: wrapped unless already atomic."""
        return wrap(self._expr_table[type(e)](self, e), self.prec_of(e) < ATOMIC_PRECEDENCE)

    # -- expressions ----------------------------------------------------------

    def lit(self, e: ir.Lit) -> str:
        if e.kind == "bool":
            return self.true_token if e.value else self.false_token
        if e.kind == "int":
            return str(e.value)
        if e.kind == "float":
            # shortest faithful spelling that stays a float literal in every
            # target: `7.0` keeps its point (`7` divides as an int in Java
            # and C++), `1e16` is `1e+16`
            return repr(e.value)
        if e.kind == "char":
            return self.char_lit(e.value)
        return self.string_lit(e.value)

    def char_lit(self, value: str) -> str:
        return f"'{escape_char(value)}'"

    def string_lit(self, value: str) -> str:
        return f'"{escape_string(value)}"'

    def value_of(self, e: ir.ValueOf) -> str:
        v = e.var  # a plain variable is its name, read here: one frame
        return v.name if v.form == ir.VarForm.PLAIN else self._var_table[v.form](self, v)

    def math_call(self, e: ir.MathCall) -> str:
        render, rendered = self._expr_table, []
        for a in e.args:  # no comprehension: a level costs one frame
            rendered += (render[type(a)](self, a),)
        return self.math_text(e, *rendered)

    def unary(self, e: ir.Unary) -> str:
        name, prec, x = e.op, self._prec, e.operand
        operand = self._expr_table[type(x)](self, x)
        parent = prec[name]
        # Equal precedence wraps too, as does a leading minus: `--a`, `not not a`, `--8`.
        if (prec[type(x)] or prec[x.op]) <= parent or operand[0] == "-":
            operand = f"({operand})"
        token = self.op_tokens[name]
        sep = " " if token[-1].isalpha() else ""
        return f"{token}{sep}{operand}"

    def binary(self, e: ir.Binary) -> str:
        name = e.op
        render, prec = self._expr_table, self._prec
        a, b = e.left, e.right
        left, right = render[type(a)](self, a), render[type(b)](self, b)
        parent = prec[name]
        child = prec[type(a)] or prec[a.op]
        if child < parent or child == parent and name in _COMPARISONS:
            left = f"({left})"
        if (prec[type(b)] or prec[b.op]) <= parent:
            right = f"({right})"
        out = f"{left} {self.op_tokens[name]} {right}"
        if name == "#/" and e.type.kind == "int":
            return self.int_quotient(out)
        return out

    def int_quotient(self, quotient: str) -> str:
        """`quotient`, an int `/`, made to truncate toward zero; the C
        family's `/` on two ints already does."""
        return quotient

    def inline_if(self, e: ir.InlineIf) -> str:
        render, prec, p = self._expr_table, self._prec, INLINE_IF_PRECEDENCE
        c, t, o = e.cond, e.then, e.other
        cond = render[type(c)](self, c)
        if (prec[type(c)] or prec[c.op]) <= p:
            cond = f"({cond})"
        then = render[type(t)](self, t)
        if (prec[type(t)] or prec[t.op]) <= p:
            then = f"({then})"
        # Nothing binds looser than an inline if, so the else branch is never wrapped.
        return self.ternary_text(cond, then, render[type(o)](self, o))

    def ternary_text(self, cond: str, then: str, other: str) -> str:
        return f"{cond} ? {then} : {other}"

    def call(self, e: ir.Call | ir.NewObj) -> str:
        render = self._expr_table
        args = ", ".join([render[type(a)](self, a) for a in e.args])
        return f"{e.name}({args})"

    def external_call(self, e: ir.ExtCall) -> str:
        render = self._expr_table
        args = ", ".join([render[type(a)](self, a) for a in e.args])
        return f"{e.library}.{e.name}({args})"

    def method_call(self, e: ir.MethodCall) -> str:
        render = self._expr_table
        args = ", ".join([render[type(a)](self, a) for a in e.args])
        return f"{self.atom(e.receiver)}.{e.name}({args})"

    def constructor_call(self, e: ir.NewObj) -> str:
        render = self._expr_table
        args = ", ".join([render[type(a)](self, a) for a in e.args])
        return f"new {e.name}({args})"

    def list_access(self, e: ir.ListAccess) -> str:
        i = e.index
        return self.list_access_text.format(self.atom(e.lst), self._expr_table[type(i)](self, i))

    def var_ref(self, v: ir.VariableRepr) -> str:
        if v.form == ir.VarForm.PLAIN:
            return v.name
        return self._var_table[v.form](self, v)

    # -- statements and helpers shared by all targets -----------------------

    def assign_doc(self, s: ir.Assign) -> Doc:
        target = self.var_ref(s.var)
        mode = s.mode
        if mode in _STEP_SIGNS:
            line = self.step_text(target, _STEP_SIGNS[mode])
        else:
            line = f"{target} {_ASSIGN_TOKENS[mode]} {self.expr(s.value)}"
        return text(line + self.statement_end)

    def step_text(self, target: str, sign: str) -> str:
        """`target` incremented (`sign` "+") or decremented ("-")."""
        return f"{target}{sign}{sign}"

    def list_set_text(self, s: ir.ListSet) -> str:
        return f"{self.atom(s.lst)}[{self.expr(s.index)}] = {self.expr(s.value)}"

    def comment_text(self, text: str) -> str:
        """Comment text that the target's lexer cannot read past; Python's
        and C#'s lexers have no such trap, so it is returned as it is."""
        return text

    def literal_plus_one(self, index: ir.ExprRepr) -> str:
        """index+1, constant-folded (argv counts the program; range() excludes its end)."""
        if type(index) is ir.Lit and index.kind == "int":
            return str(index.value + 1)
        return self.binary(ir.Binary("#+", index, _ONE, ir.INT))

    def body(self, b: ir.BodyRepr) -> Doc:
        """The blocks' lines, non-empty blocks separated by one blank line."""
        render, lines = self._stmt_table, []
        for blk in b.blocks:
            block: list[str] = []
            for s in blk.statements:
                block += render[type(s)](self, s)
            if block:
                if lines:
                    lines.append("")
                lines += block
        return tuple(lines)

    def block(self, blk: ir.BlockRepr) -> Doc:
        render, lines = self._stmt_table, []
        for s in blk.statements:
            lines += render[type(s)](self, s)
        return tuple(lines)

    # -- files ----------------------------------------------------------------

    def source_files(self, pkg: ir.PackageTree) -> list[tuple[ir.ModuleRepr, str]]:
        """(module, source path) for each module that renders to a file, in
        render order. Empty modules (no functions, no classes) get no file;
        C++ headers are not listed. The Makefile and verify both name their
        sources from here, in this order."""
        return [(m, f"{m.name}{self.extension}") for m in pkg.modules if not m.is_empty]

    def render_package(self, pkg: ir.PackageTree) -> list[RenderedFile]:
        files: list[RenderedFile] = []
        try:
            for module, path in self.source_files(pkg):
                files.extend(type(self)().module_files(module, path))
        except RecursionError:
            # Caught here, not counted per node: the walk recurses once per level.
            raise NestingTooDeep(f"package nests too deeply to render to {self.target}") from None
        return files

    # -- documentation comments ---------------------------------------------

    def doc_comment(self, doc: ir.DocSpec | None) -> Doc:
        """Doxygen-style `/** */` block, one line per field."""
        if doc is None:
            return EMPTY
        # "*/" in a text would end the block early; "*\/" reads the same.
        fields = [(tag, self.doc_text(value).replace("*/", "*\\/"))
                  for tag, value in doc_fields(doc)]
        tag, value = fields[0]
        lines = [f"/** {tag} {value}"]
        lines += [f"    {tag} {value}" for tag, value in fields[1:]]
        lines.append("*/")
        return vcat([text(line) for line in lines])

    def doc_text(self, text: str) -> str:
        """A doc comment's text as the target's lexer must see it."""
        return text
