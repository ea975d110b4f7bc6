"""Python backend.

Python output is untyped and indentation-structured: declarations mostly
vanish (names bind at first assignment; list declarations become `x = []`
so appends work), main-module statements run at top level as a plain
script, and list printing is native.
"""

from __future__ import annotations

from .. import builders as bd
from .. import ir
from .. import patterns as pt
from ..errors import UnsupportedConstruct
from ..layout import EMPTY, Doc, FileType, RenderedFile, extract, indent, join_blocks, text, vcat
from .base import Renderer, comment_doc, escape_string


def _indented(rendered: Doc) -> Doc:
    """`rendered` as an indented suite, with an explicit pass when no line
    is code (the suite is empty or holds only comments)."""
    for line in rendered.lines:
        if line.lstrip()[:1] not in ("", "#"):
            return indent(rendered)
    return indent(vcat([rendered, text("pass")]))


def _update_before_continue(b: ir.BodyRepr, update: ir.StatementRepr) -> ir.BodyRepr:
    """Loop body `b` with `update` placed before each of its `continue`s.
    A nested loop's `continue` belongs to that loop and is left alone."""

    def stmt(s: ir.StatementRepr) -> ir.StatementRepr:
        if isinstance(s, ir.Continue):
            return ir.BlockRepr((update, s))
        if isinstance(s, ir.BlockRepr):
            return ir.BlockRepr(tuple(map(stmt, s.statements)))
        if isinstance(s, ir.If):
            return ir.If(tuple((cond, body(branch)) for cond, branch in s.branches),
                         None if s.else_body is None else body(s.else_body))
        if isinstance(s, ir.Switch):
            return ir.Switch(s.value, tuple((label, body(case)) for label, case in s.cases),
                             None if s.default is None else body(s.default))
        if isinstance(s, ir.TryCatch):
            return ir.TryCatch(body(s.try_body), body(s.catch_body))
        return s

    def body(b: ir.BodyRepr) -> ir.BodyRepr:
        return ir.BodyRepr(tuple(stmt(blk) for blk in b.blocks))

    return body(b)


class PythonRenderer(Renderer):
    target = "python"
    extension = ".py"

    # Target grammar deviations from the catalog: `not` binds between `and`
    # and the comparisons, and ==/!= sit *at* comparison level and chain,
    # so equal-precedence comparison children get wrapped on both sides.
    def prec_of(self, e: ir.ExprRepr) -> float:
        if isinstance(e, ir.Unary) and e.op.name == "?!":
            return 3.5
        if isinstance(e, ir.Binary) and e.op.name in ("?==", "?!="):
            return 5
        return super().prec_of(e)

    def assoc_of(self, op: ir.OperatorSpec) -> str:
        if op.precedence in (4, 5):  # comparisons and equality: never chain
            return "none"
        return op.assoc

    def true_token(self) -> str:
        return "True"

    def false_token(self) -> str:
        return "False"

    def not_token(self) -> str:
        return "not"

    def and_token(self) -> str:
        return "and"

    def or_token(self) -> str:
        return "or"

    def char_lit(self, value: str) -> str:
        return self.string_lit(value)  # no char type; one-character string

    def ternary_text(self, cond: str, then: str, other: str) -> str:
        return f"{then} if {cond} else {other}"

    def power(self, e: ir.Binary) -> str:
        # ** binds tighter than a leading unary minus, so a unary left
        # operand is wrapped even though the catalog ranks unary higher.
        left_wrap = self.prec_of(e.left) <= 8 or isinstance(e.left, ir.Unary)
        left = f"({self.expr(e.left)})" if left_wrap else self.expr(e.left)
        right = f"({self.expr(e.right)})" if self.prec_of(e.right) < 8 else self.expr(e.right)
        return f"{left} ** {right}"

    def var_ref(self, v: ir.VariableRepr) -> str:
        if v.form == ir.VarForm.SELF:
            return f"self.{v.name}"
        if v.form in (ir.VarForm.CLASS_MEMBER, ir.VarForm.OBJECT_MEMBER):
            return f"{v.owner}.{v.name}"
        if v.form == ir.VarForm.EXTERNAL:
            self.needs.add(v.owner)
            return f"{v.owner}.{v.name}"
        return v.name

    def math_call(self, fn: str, arg: ir.ExprRepr) -> str:
        if fn == "abs":
            return f"abs({self.expr(arg)})"
        self.needs.add("math")
        return f"math.{fn}({self.expr(arg)})"

    def external_call(self, library: str, name: str, args: str) -> str:
        self.needs.add(library)
        return f"{library}.{name}({args})"

    def constructor_call(self, class_name: str, args: str) -> str:
        return f"{class_name}({args})"

    def args_list(self) -> str:
        self.needs.add("sys")
        return "sys.argv"

    def arg_at(self, index: ir.ExprRepr) -> str:
        self.needs.add("sys")
        return f"sys.argv[{self.literal_plus_one(index)}]"

    def arg_exists(self, index: ir.ExprRepr) -> str:
        self.needs.add("sys")
        return f"len(sys.argv) > {self.literal_plus_one(index)}"

    def list_access(self, lst: ir.ExprRepr, index: ir.ExprRepr) -> str:
        return f"{self.atom(lst)}[{self.expr(index)}]"

    def list_size(self, lst: ir.ExprRepr) -> str:
        return f"len({self.expr(lst)})"

    def list_append(self, lst: ir.ExprRepr, value: ir.ExprRepr) -> str:
        return f"{self.atom(lst)}.append({self.expr(value)})"

    def list_index_exists(self, lst: ir.ExprRepr, index: ir.ExprRepr) -> str:
        return f"len({self.expr(lst)}) > {self.expr(index)}"

    def list_index_of(self, lst: ir.ExprRepr, value: ir.ExprRepr) -> str:
        return f"{self.atom(lst)}.index({self.expr(value)})"

    # -- statements -----------------------------------------------------------

    def suite(self, b: ir.BodyRepr) -> Doc:
        return _indented(self.body(b))

    def stmt(self, s: ir.StatementRepr) -> Doc:
        if isinstance(s, ir.VarDec):
            # Scalars and objects bind at first assignment; lists must exist
            # before an append can run.
            if s.var.type.is_list:
                return text(f"{s.var.name} = []")
            return EMPTY
        if isinstance(s, ir.VarDecDef):
            return text(f"{s.var.name} = {self.expr(s.value)}")
        if isinstance(s, ir.Assign):
            return self.assign_doc(s)
        if isinstance(s, ir.ListSet):
            return text(f"{self.atom(s.lst)}[{self.expr(s.index)}] = {self.expr(s.value)}")
        if isinstance(s, ir.Return):
            return text(f"return {self.expr(s.value)}")
        if isinstance(s, ir.Throw):
            return text(f'raise Exception("{escape_string(s.message)}")')
        if isinstance(s, ir.Free):
            return text(f"del {self.var_ref(s.var)}")
        if isinstance(s, ir.CommentStmt):
            return comment_doc("#", s.text)
        if isinstance(s, ir.Break):
            return text("break")
        if isinstance(s, ir.Continue):
            return text("continue")
        if isinstance(s, ir.ExprStmt):
            return text(self.expr(s.expr))
        if isinstance(s, ir.BlockRepr):
            return self.block(s)
        if isinstance(s, ir.If):
            return self.if_doc(s)
        if isinstance(s, ir.Switch):
            return self.switch_doc(s)
        if isinstance(s, ir.For):
            # No three-part loop in the grammar: init, then a while whose
            # body ends with the update, which also runs before a continue.
            body = _update_before_continue(s.body, s.update)
            return vcat([
                self.stmt(s.init),
                text(f"while {self.expr(s.cond)}:"),
                _indented(vcat([self.body(body), self.stmt(s.update)])),
            ])
        if isinstance(s, ir.ForRange):
            return self.for_range_doc(s)
        if isinstance(s, ir.ForEach):
            return vcat([
                text(f"for {s.var.name} in {self.expr(s.iterable)}:"),
                self.suite(s.body),
            ])
        if isinstance(s, ir.While):
            return vcat([text(f"while {self.expr(s.cond)}:"), self.suite(s.body)])
        if isinstance(s, ir.TryCatch):
            return vcat([
                text("try:"), self.suite(s.try_body),
                text("except Exception:"), self.suite(s.catch_body),
            ])
        if isinstance(s, ir.Print):
            if s.newline:
                return text(f"print({self.expr(s.expr)})")
            return text(f'print({self.expr(s.expr)}, end="")')
        if isinstance(s, ir.Read):
            reader = "int(input())" if s.parse_int else "input()"
            return text(f"{self.var_ref(s.var)} = {reader}")
        if isinstance(s, ir.ListSlice):
            start = self.expr(s.start) if s.start is not None else ""
            end = self.expr(s.end) if s.end is not None else ""
            step = self.expr(s.step) if s.step is not None else ""
            return text(f"{s.target.name} = {self.atom(s.source)}[{start}:{end}:{step}]")
        if isinstance(s, ir.InOutCall):
            targets = ", ".join(v.name for v in s.inouts + s.outs)
            args = [self.var_ref(v) for v in s.inouts] + [self.expr(e) for e in s.ins]
            return text(f"{targets} = {s.name}({', '.join(args)})")
        if isinstance(s, ir.ObserverInit):
            lst = pt.observer_list_var(s.elem_type)
            docs = [text(f"{lst.name} = []")]
            for value in s.init_values:
                docs.append(text(f"{lst.name}.append({self.expr(value)})"))
            return vcat(docs)
        if isinstance(s, ir.ObserverAdd):
            lst = pt.observer_list_var(s.elem_type)
            return text(f"{lst.name}.append({self.expr(s.value)})")
        if isinstance(s, ir.ObserverNotify):
            lst = pt.observer_list_var(s.elem_type)
            return vcat([
                text(f"for observer in {lst.name}:"),
                indent(text(f"observer.{s.method}()")),
            ])
        raise UnsupportedConstruct(
            f"python backend cannot render statement {type(s).__name__}"
        )

    def assign_doc(self, s: ir.Assign) -> Doc:
        target = self.var_ref(s.var)
        if s.mode == ir.AssignMode.SET:
            return text(f"{target} = {self.expr(s.value)}")
        if s.mode == ir.AssignMode.ADD_EQ:
            return text(f"{target} += {self.expr(s.value)}")
        if s.mode == ir.AssignMode.SUB_EQ:
            return text(f"{target} -= {self.expr(s.value)}")
        # No ++/--: spelled out as assignment.
        op = "+" if s.mode == ir.AssignMode.INC else "-"
        return text(f"{target} = {target} {op} 1")

    def if_doc(self, s: ir.If) -> Doc:
        docs: list[Doc] = []
        for i, (cond, branch) in enumerate(s.branches):
            keyword = "if" if i == 0 else "elif"
            docs.append(text(f"{keyword} {self.expr(cond)}:"))
            docs.append(self.suite(branch))
        if s.else_body is not None:
            docs.append(text("else:"))
            docs.append(self.suite(s.else_body))
        return vcat(docs)

    def switch_doc(self, s: ir.Switch) -> Doc:
        branches = tuple(
            (bd.apply_binary("?==", s.value, label), branch) for label, branch in s.cases
        )
        return self.if_doc(ir.If(branches, s.default))

    def for_range_doc(self, s: ir.ForRange) -> Doc:
        start = self.expr(s.start)
        if isinstance(s.end, ir.Lit) and s.end.kind == "int":
            stop = str(s.end.value + 1)  # inclusive end folded into the bound
        else:
            stop = self.expr(bd.apply_binary("#+", s.end, bd.lit_int(1)))
        if isinstance(s.step, ir.Lit) and s.step.value == 1:
            header = f"for {s.var.name} in range({start}, {stop}):"
        else:
            header = f"for {s.var.name} in range({start}, {stop}, {self.expr(s.step)}):"
        return vcat([text(header), self.suite(s.body)])

    # -- declarations -----------------------------------------------------------

    def method_doc(self, m: ir.MethodRepr) -> Doc:
        if m.is_main:
            return self.body(m.body)  # top-level script statements
        comment = self.doc_comment(m.doc)
        if m.inout is not None:
            spec = m.inout
            names = [v.name for v in spec.inouts] + [v.name for v in spec.ins]
            header = f"def {m.name}({', '.join(names)}):"
            returns = ", ".join(v.name for v in spec.inouts + spec.outs)
            suite = join_blocks([self.body(m.body), text(f"return {returns}")])
            return vcat([comment, text(header), indent(suite)])
        params = [p.variable.name for p in m.params]
        decorators: list[Doc] = []
        if m.containing_class is not None:
            if m.binding == ir.Binding.STATIC:
                decorators.append(text("@staticmethod"))
            else:
                params = ["self"] + params
        header = f"def {m.name}({', '.join(params)}):"
        return vcat([comment, *decorators, text(header), self.suite(m.body)])

    def class_doc(self, c: ir.ClassDeclRepr) -> Doc:
        comment = self.doc_comment(c.doc)
        parent = f"({c.parent})" if c.parent else ""
        header = text(f"class {c.name}{parent}:")
        # State variables bind at first instance assignment; only methods render.
        methods = join_blocks([self.method_doc(m) for m in c.methods])
        if methods.is_empty:
            methods = text("pass")
        return vcat([comment, header, indent(methods)])

    def module_files(self, module: ir.ModuleRepr, path: str) -> list[RenderedFile]:
        functions = [self.method_doc(f) for f in module.functions if not f.is_main]
        classes = [self.class_doc(c) for c in module.classes]
        mains = [self.method_doc(f) for f in module.functions if f.is_main]
        imports = sorted(set(module.imports) | self.needs)
        import_doc = vcat([text(f"import {name}") for name in imports])
        pieces = join_blocks([
            self.doc_comment(module.doc), import_doc, *functions, *classes, *mains,
        ])
        return [RenderedFile(path, FileType.COMBINED, extract(pieces))]
