"""Python backend.

Python output is untyped and indentation-structured: declarations mostly
vanish (names bind at first assignment; list declarations become `x = []`
so appends work), main-module statements run at top level as a plain
script, and `lowerings` stands in for the switch and three-part `for` it lacks.
"""

from __future__ import annotations

from .. import ir
from ..layout import EMPTY, Doc, RenderedFile, extract, hang, join_blocks, text, vcat
from .base import (Renderer, comment_doc, doc_fields, escape_string, for_as_while, list_print,
                   qualified, range_as_for, switch_as_if)


def _innermost(t: ir.TypeRepr) -> str:
    """The kind of the elements of list type `t`'s innermost list."""
    while t.kind == "list":
        t = t.elem
    return t.kind


class PythonRenderer(Renderer):
    target = "python"
    extension = ".py"
    tools = (("PYTHON", "OOGEN_PYTHON", ("python3",)),)
    statement_end = ""
    true_token, false_token = "True", "False"
    comment_marker = "#"

    # Target grammar deviations from base.py's tables: `not` binds between `and`
    # and the comparisons, and ==/!= sit *at* comparison level.
    op_precedence = {"?!": 3.5, "?==": 5, "?!=": 5}
    op_tokens = {**Renderer.op_tokens, "?!": "not", "?&&": "and", "?||": "or"}

    def char_lit(self, value: str) -> str:
        return self.string_lit(value)  # no char type; one-character string

    def ternary_text(self, cond: str, then: str, other: str) -> str:
        return f"{then} if {cond} else {other}"

    def int_quotient(self, quotient: str) -> str:
        # `/` gives a float here; int() truncates toward zero as the other
        # targets' int division does (`//` would floor).
        return f"int({quotient})"

    var_forms = {
        **Renderer.var_forms,
        ir.VarForm.SELF: lambda self, v: f"self.{v.name}",
        ir.VarForm.EXTERNAL: "external_ref",
    }

    def external_ref(self, v: ir.VariableRepr) -> str:
        self.needs.add(v.owner)
        return qualified(self, v)

    def math_text(self, e: ir.MathCall, *rendered: str) -> str:
        if e.fn == "abs":
            return f"abs({rendered[0]})"
        self.needs.add("math")
        call = f"math.{e.fn}({', '.join(rendered)})"
        # Python's floor and ceil give an int; the IR and the other targets a double.
        return f"float({call})" if e.fn == "floor" or e.fn == "ceil" else call

    def external_call(self, e: ir.Call, args: str) -> str:
        self.needs.add(e.library)
        return f"{e.library}.{e.name}({args})"

    def constructor_call(self, e: ir.Call, args: str) -> str:
        return f"{e.name}({args})"

    def args_list(self, e: ir.ArgsList) -> str:
        self.needs.add("sys")
        return "sys.argv[1:]"

    def arg_at(self, e: ir.ArgAt) -> str:
        self.needs.add("sys")
        return f"sys.argv[{self.literal_plus_one(e.index)}]"

    def arg_exists(self, e: ir.ArgExists) -> str:
        self.needs.add("sys")
        return f"len(sys.argv) > {self.literal_plus_one(e.index)}"

    def list_size(self, e: ir.ListSize) -> str:
        return f"len({self.expr(e.lst)})"

    def list_append(self, e: ir.ListAppend) -> str:
        return f"{self.atom(e.lst)}.append({self.expr(e.value)})"

    def list_index_of(self, e: ir.ListIndexOf) -> str:
        return f"{self.atom(e.lst)}.index({self.expr(e.value)})"

    # -- statements -----------------------------------------------------------

    def suite(self, header: str, b: ir.BodyRepr) -> Doc:
        """`header` over `b` as an indented suite, with an explicit pass
        when no line is code (the suite is empty or holds only comments)."""
        rendered = self.body(b)
        for line in rendered:
            if line.lstrip()[:1] not in ("", "#"):
                return hang(header, rendered)
        return hang(header, rendered + ("pass",))

    stmt_handlers = {
        **Renderer.stmt_handlers,
        # Scalars and objects bind at first assignment; lists must exist
        # before an append can run.
        ir.VarDec: lambda self, s: (
            text(f"{s.var.name} = []") if s.var.type.kind == "list" else EMPTY),
        ir.VarDecDef: lambda self, s: text(f"{s.var.name} = {self.expr(s.value)}"),
        ir.Throw: lambda self, s: text(f'raise Exception("{escape_string(s.message)}")'),
        ir.ForEach: lambda self, s: self.suite(
            f"for {s.var.name} in {self.expr(s.iterable)}:", s.body),
        ir.While: lambda self, s: self.suite(f"while {self.expr(s.cond)}:", s.body),
        ir.TryCatch: lambda self, s: vcat([
            self.suite("try:", s.try_body), self.suite("except Exception:", s.catch_body)]),
        ir.Print: lambda self, s: text(
            f"print({self.expr(s.expr)})" if s.newline else f'print({self.expr(s.expr)}, end="")'),
        ir.Read: lambda self, s: text(
            f"{self.var_ref(s.var)} = {'int(input())' if s.parse_int else 'input()'}"),
        ir.ForRange: "range_doc",
        ir.ListSlice: "slice_assign_doc",
    }
    # No switch and no three-part loop in the grammar. range() keeps the C
    # family's `<=` test only for a step known to be positive; any other
    # step loops as they do.
    lowerings = {
        ir.Switch: switch_as_if,
        ir.For: for_as_while,
        ir.ForRange: lambda s: (
            s if type(s.step) is ir.Lit and s.step.kind == "int" and s.step.value >= 1
            else range_as_for(s)),
        # print() quotes each string in a list; `list_print` prints it bare,
        # as the other targets do.
        ir.Print: lambda s: (
            list_print(s) if s.expr.type.kind == "list"
            and _innermost(s.expr.type) in ("string", "char") else s),
    }

    def slice_assign_doc(self, s: ir.ListSlice) -> Doc:
        start = self.expr(s.start) if s.start is not None else ""
        end = self.expr(s.end) if s.end is not None else ""
        step = self.expr(s.step) if s.step is not None else ""
        return text(f"{s.target.name} = {self.atom(s.source)}[{start}:{end}:{step}]")

    def in_out_call_doc(self, s: ir.InOutCall) -> Doc:
        inouts = [self.var_ref(v) for v in s.inouts]
        targets = inouts + [self.var_ref(v) for v in s.outs]
        args = inouts + [self.expr(e) for e in s.ins]
        return text(f"{', '.join(targets)} = {s.name}({', '.join(args)})")

    def step_text(self, target: str, sign: str) -> str:
        return f"{target} = {target} {sign} 1"  # no ++/--

    def if_doc(self, s: ir.If) -> Doc:
        docs: list[Doc] = []
        for i, (cond, branch) in enumerate(s.branches):
            keyword = "if" if i == 0 else "elif"
            docs.append(self.suite(f"{keyword} {self.expr(cond)}:", branch))
        if s.else_body is not None:
            docs.append(self.suite("else:", s.else_body))
        return vcat(docs)

    def range_doc(self, s: ir.ForRange) -> Doc:
        stop = self.literal_plus_one(s.end)  # range() excludes its end
        steps = "" if s.step.value == 1 else f", {s.step.value}"
        return self.suite(
            f"for {s.var.name} in range({self.expr(s.start)}, {stop}{steps}):", s.body)

    # -- declarations -----------------------------------------------------------

    def method_doc(self, m: ir.MethodRepr) -> Doc:
        if m.is_main:
            return self.body(m.body)  # top-level script statements
        comment = self.doc_comment(m.doc)
        if m.inout is not None:
            inouts, ins, outs = m.in_out_params
            header = f"def {m.name}({', '.join([v.name for v in inouts + ins])}):"
            returns = ", ".join([v.name for v in inouts + outs])
            suite = join_blocks([self.body(m.body), text(f"return {returns}")])
            return vcat([comment, hang(header, suite)])
        params = [p.name for p in m.params]
        decorators: list[Doc] = []
        if m.containing_class is not None:
            if m.binding == ir.Binding.STATIC:
                decorators.append(text("@staticmethod"))
            else:
                params = ["self"] + params
        header = f"def {m.name}({', '.join(params)}):"
        return vcat([comment, *decorators, self.suite(header, m.body)])

    def class_doc(self, c: ir.ClassDeclRepr) -> Doc:
        comment = self.doc_comment(c.doc)
        parent = f"({c.parent})" if c.parent else ""
        header = f"class {c.name}{parent}:"
        # State variables bind at first instance assignment; only methods render.
        methods = join_blocks([self.method_doc(m) for m in c.methods])
        if not methods:
            methods = text("pass")
        return vcat([comment, hang(header, methods)])

    def doc_comment(self, doc: ir.DocSpec | None) -> Doc:
        """The doc comment's fields behind `#`, every line of each, so no
        text becomes code."""
        if doc is None:
            return EMPTY
        return vcat([comment_doc(self.comment_marker, f"{tag} {value}")
                     for tag, value in doc_fields(doc)])

    def build_commands(self, tools, sources, main, package):
        return None, [tools[0], f"{main}.py"]

    def module_files(self, module: ir.ModuleRepr, path: str) -> list[RenderedFile]:
        functions = [self.method_doc(f) for f in module.functions if not f.is_main]
        classes = [self.class_doc(c) for c in module.classes]
        mains = [self.method_doc(f) for f in module.functions if f.is_main]
        imports = sorted(set(module.imports) | self.needs)
        import_doc = vcat([text(f"import {name}") for name in imports])
        pieces = join_blocks([
            self.doc_comment(module.doc), import_doc, *functions, *classes, *mains,
        ])
        return [RenderedFile(path, extract(pieces))]
