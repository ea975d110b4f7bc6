"""Shared rendering machinery.

One renderer instance is created per module render; it owns the mutable
accumulators (imports needed, list-print nesting depth, C++ iterator
variables), so concurrent renders of different modules never share state.

Expression rendering is string-based and precedence-driven: a child is
parenthesized exactly when `layout.needs_parens` says so, using the
*target's* view of precedence (`prec_of`), which defaults to the catalog
values and deviates only where a target's grammar genuinely differs.
"""

from __future__ import annotations

import math as _math

from .. import builders as bd
from .. import ir
from ..errors import UnsupportedConstruct
from ..layout import EMPTY, Doc, RenderedFile, join_blocks, needs_parens, vcat, wrap

BIN_TOKENS = {
    "#+": "+", "#-": "-", "#*": "*", "#/": "/",
    "?<": "<", "?<=": "<=", "?>": ">", "?>=": ">=",
    "?==": "==", "?!=": "!=",
}


def fmt_float(value: float) -> str:
    """Shortest faithful spelling; integral floats print without the point
    (a literal 20.0 appears as 20 in every target)."""
    if _math.isfinite(value) and value == int(value):
        return str(int(value))
    return repr(value)


def escape_string(value: str) -> str:
    out = value.replace("\\", "\\\\").replace('"', '\\"')
    return out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


def comment_doc(marker: str, value: str) -> Doc:
    """One comment line per line of `value`, so none of it escapes the comment."""
    return Doc(tuple(f"{marker} {line}" for line in value.splitlines() or [""]))


def escape_char(value: str) -> str:
    out = value.replace("\\", "\\\\").replace("'", "\\'")
    return out.replace("\n", "\\n").replace("\t", "\\t").replace("\r", "\\r")


class Renderer:
    """Base renderer; subclasses fill in the per-target hooks."""

    target = "?"
    extension = "?"

    def __init__(self) -> None:
        self.needs: set[str] = set()  # target-level imports discovered while rendering
        self._list_depth = 0

    # -- precedence -------------------------------------------------------

    def prec_of(self, e: ir.ExprRepr) -> float:
        if isinstance(e, (ir.ArgExists, ir.ListIndexExists)):
            return 5.0  # every target renders these as a > comparison
        return e.precedence

    def assoc_of(self, op: ir.OperatorSpec) -> str:
        return op.assoc

    def child(self, e: ir.ExprRepr, parent_prec: float, assoc: str, side: str) -> str:
        return wrap(self.expr(e), needs_parens(parent_prec, assoc, side, self.prec_of(e)))

    # -- expression dispatch ----------------------------------------------

    def expr(self, e: ir.ExprRepr) -> str:
        if isinstance(e, ir.Lit):
            return self.lit(e)
        if isinstance(e, ir.ValueOf):
            return self.var_ref(e.var)
        if isinstance(e, ir.Unary):
            return self.unary(e)
        if isinstance(e, ir.Binary):
            return self.binary(e)
        if isinstance(e, ir.InlineIf):
            return self.inline_if(e)
        if isinstance(e, ir.Call):
            return self.call(e)
        if isinstance(e, ir.MathCall):
            return self.math_call(e.fn, e.arg)
        if isinstance(e, ir.ArgsList):
            return self.args_list()
        if isinstance(e, ir.ArgAt):
            return self.arg_at(e.index)
        if isinstance(e, ir.ArgExists):
            return self.arg_exists(e.index)
        if isinstance(e, ir.ListAccess):
            return self.list_access(e.lst, e.index)
        if isinstance(e, ir.ListSize):
            return self.list_size(e.lst)
        if isinstance(e, ir.ListAppend):
            return self.list_append(e.lst, e.value)
        if isinstance(e, ir.ListIndexExists):
            return self.list_index_exists(e.lst, e.index)
        if isinstance(e, ir.ListIndexOf):
            return self.list_index_of(e.lst, e.value)
        raise UnsupportedConstruct(
            f"{self.target} backend cannot render expression {type(e).__name__}"
        )

    def atom(self, e: ir.ExprRepr) -> str:
        """Render as a call/index receiver: wrapped unless already atomic."""
        return wrap(self.expr(e), self.prec_of(e) < ir.ATOMIC_PRECEDENCE)

    def lit(self, e: ir.Lit) -> str:
        if e.kind == "bool":
            return self.true_token() if e.value else self.false_token()
        if e.kind == "int":
            return str(e.value)
        if e.kind == "float":
            return fmt_float(e.value)
        if e.kind == "char":
            return self.char_lit(e.value)
        return self.string_lit(e.value)

    def true_token(self) -> str:
        return "true"

    def false_token(self) -> str:
        return "false"

    def char_lit(self, value: str) -> str:
        return f"'{escape_char(value)}'"

    def string_lit(self, value: str) -> str:
        return f'"{escape_string(value)}"'

    def unary(self, e: ir.Unary) -> str:
        if e.op.name == "#/^":
            return self.math_call("sqrt", e.operand)
        if e.op.name == "#|":
            return self.math_call("abs", e.operand)
        token = self.not_token() if e.op.name == "?!" else "-"
        parent = self.prec_of(e)
        # Equal precedence wraps too: `--a` and `not not a` read as other tokens.
        operand = wrap(self.expr(e.operand), self.prec_of(e.operand) <= parent)
        sep = " " if token[-1].isalpha() else ""
        return f"{token}{sep}{operand}"

    def not_token(self) -> str:
        return "!"

    def binary(self, e: ir.Binary) -> str:
        if e.op.name == "#^":
            return self.power(e)
        if e.op.name in ("?&&", "?||"):
            token = self.and_token() if e.op.name == "?&&" else self.or_token()
        else:
            token = BIN_TOKENS[e.op.name]
        parent = self.prec_of(e)
        assoc = self.assoc_of(e.op)
        left = self.child(e.left, parent, assoc, "left")
        right = self.child(e.right, parent, assoc, "right")
        return f"{left} {token} {right}"

    def and_token(self) -> str:
        return "&&"

    def or_token(self) -> str:
        return "||"

    def power(self, e: ir.Binary) -> str:  # pragma: no cover - overridden
        raise NotImplementedError

    def inline_if(self, e: ir.InlineIf) -> str:
        p = ir.INLINE_IF_PRECEDENCE
        cond = wrap(self.expr(e.cond), self.prec_of(e.cond) <= p)
        then = wrap(self.expr(e.then), self.prec_of(e.then) <= p)
        other = wrap(self.expr(e.other), self.prec_of(e.other) < p)
        return self.ternary_text(cond, then, other)

    def ternary_text(self, cond: str, then: str, other: str) -> str:
        return f"{cond} ? {then} : {other}"

    def call_args(self, args: tuple[ir.ExprRepr, ...]) -> str:
        return ", ".join(self.expr(a) for a in args)

    def call(self, e: ir.Call) -> str:
        args = self.call_args(e.args)
        if e.form == ir.CallForm.FUNCTION:
            return f"{e.name}({args})"
        if e.form == ir.CallForm.EXTERNAL:
            return self.external_call(e.library, e.name, args)
        if e.form == ir.CallForm.CONSTRUCTOR:
            return self.constructor_call(e.name, args)
        return self.method_call_text(e.receiver, e.name, args)

    def external_call(self, library: str, name: str, args: str) -> str:
        return f"{library}.{name}({args})"

    def constructor_call(self, class_name: str, args: str) -> str:  # pragma: no cover
        raise NotImplementedError

    def method_call_text(self, receiver: ir.ExprRepr, name: str, args: str) -> str:
        return f"{self.atom(receiver)}.{name}({args})"

    # -- hooks subclasses must provide --------------------------------------

    def var_ref(self, v: ir.VariableRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def math_call(self, fn: str, arg: ir.ExprRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def args_list(self) -> str:  # pragma: no cover
        raise NotImplementedError

    def arg_at(self, index: ir.ExprRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def arg_exists(self, index: ir.ExprRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def list_access(self, lst: ir.ExprRepr, index: ir.ExprRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def list_size(self, lst: ir.ExprRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def list_append(self, lst: ir.ExprRepr, value: ir.ExprRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def list_index_exists(self, lst: ir.ExprRepr, index: ir.ExprRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def list_index_of(self, lst: ir.ExprRepr, value: ir.ExprRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    # -- helpers shared by all statement renderers --------------------------

    def literal_plus_one(self, index: ir.ExprRepr) -> str:
        """index+1 with constant folding, for arg vectors led by the program name."""
        if isinstance(index, ir.Lit) and index.kind == "int":
            return str(index.value + 1)
        return self.expr(bd.apply_binary("#+", index, bd.lit_int(1)))

    def body(self, b: ir.BodyRepr) -> Doc:
        return join_blocks([self.block(blk) for blk in b.blocks])

    def block(self, blk: ir.BlockRepr) -> Doc:
        return vcat([self.stmt(s) for s in blk.statements])

    def stmt(self, s: ir.StatementRepr) -> Doc:  # pragma: no cover
        raise NotImplementedError

    # -- fragment APIs used by tests and documentation ----------------------

    def render_expr(self, e: ir.ExprRepr) -> str:
        return self.expr(e)

    def render_stmt(self, s: ir.StatementRepr) -> str:
        return "\n".join(self.stmt(s).lines)

    def render_method(self, m: ir.MethodRepr) -> str:
        return "\n".join(self.method_doc(m).lines)

    def method_doc(self, m: ir.MethodRepr) -> Doc:  # pragma: no cover
        raise NotImplementedError

    def source_files(self, pkg: ir.PackageTree) -> list[tuple[ir.ModuleRepr, str]]:
        """(module, source path) for each module that renders to a file, in
        render order. Empty modules (no functions, no classes) get no file;
        C++ headers are not listed. The Makefile names its sources from here
        without rendering."""
        return [(m, f"{m.name}{self.extension}") for m in pkg.modules if not m.is_empty]

    def render_package(self, pkg: ir.PackageTree) -> list[RenderedFile]:
        files: list[RenderedFile] = []
        for module, path in self.source_files(pkg):
            files.extend(type(self)().module_files(module, path))
        return files

    def module_files(self, module: ir.ModuleRepr,
                     path: str) -> list[RenderedFile]:  # pragma: no cover
        raise NotImplementedError

    # -- documentation comments ---------------------------------------------

    def doc_comment(self, doc: ir.DocSpec | None) -> Doc:
        if doc is None:
            return EMPTY
        from .. import auxfiles

        return auxfiles.doc_comment_doc(doc, self.target)
