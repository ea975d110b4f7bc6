"""C# backend.

Mirrors the Java layout (module wrapper class holding static free functions
plus Main) with C# spellings: `using` directives, `List<T>`, Console I/O,
ref/out parameters instead of an output array, and no checked exceptions.
The bool type renders as `Boolean` (under `using System;`).
"""

from __future__ import annotations

from .. import ir
from ..layout import (
    Doc,
    FileType,
    RenderedFile,
    extract,
    join_blocks,
    text,
    vcat,
)
from .base import escape_string
from .cfamily import CFamilyRenderer

_MATH = {"sin": "Sin", "cos": "Cos", "tan": "Tan", "sqrt": "Sqrt", "abs": "Abs",
         "floor": "Floor", "ceil": "Ceiling", "log": "Log", "exp": "Exp"}


class CSharpRenderer(CFamilyRenderer):
    target = "csharp"
    extension = ".cs"

    def type_text(self, t: ir.TypeRepr) -> str:
        if t.kind == "bool":
            self.needs.add("System")
            return "Boolean"
        if t.kind == "int":
            return "int"
        if t.kind == "float":
            return "double"
        if t.kind == "char":
            return "char"
        if t.kind == "string":
            return "string"
        if t.kind == "void":
            return "void"
        if t.kind == "infile":
            return "System.IO.StreamReader"
        if t.kind == "outfile":
            return "System.IO.StreamWriter"
        if t.kind == "list":
            self.needs.add("System.Collections.Generic")
            return f"List<{self.type_text(t.elem)}>"
        return t.class_name

    def var_ref(self, v: ir.VariableRepr) -> str:
        if v.form == ir.VarForm.SELF:
            return f"this.{v.name}"
        if v.form in (ir.VarForm.CLASS_MEMBER, ir.VarForm.OBJECT_MEMBER, ir.VarForm.EXTERNAL):
            return f"{v.owner}.{v.name}"
        return v.name

    def math_call(self, e: ir.MathCall) -> str:
        self.needs.add("System")
        return f"Math.{_MATH[e.fn]}({self.expr(e.arg)})"

    def power(self, e: ir.Binary) -> str:
        self.needs.add("System")
        return f"Math.Pow({self.expr(e.left)}, {self.expr(e.right)})"

    def constructor_call(self, class_name: str, args: str) -> str:
        return f"new {class_name}({args})"

    def args_list(self, e: ir.ArgsList) -> str:
        return "args"

    def arg_at(self, e: ir.ArgAt) -> str:
        return f"args[{self.expr(e.index)}]"

    def arg_exists(self, e: ir.ArgExists) -> str:
        return f"args.Length > {self.expr(e.index)}"

    def list_access(self, e: ir.ListAccess) -> str:
        return f"{self.atom(e.lst)}[{self.expr(e.index)}]"

    def list_size(self, e: ir.ListSize) -> str:
        return f"{self.atom(e.lst)}.Count"

    def list_append(self, e: ir.ListAppend) -> str:
        return f"{self.atom(e.lst)}.Add({self.expr(e.value)})"

    def list_index_exists(self, e: ir.ListIndexExists) -> str:
        return f"{self.atom(e.lst)}.Count > {self.expr(e.index)}"

    def list_index_of(self, e: ir.ListIndexOf) -> str:
        return f"{self.atom(e.lst)}.IndexOf({self.expr(e.value)})"

    def empty_list_decl(self, name: str, elem: ir.TypeRepr) -> str:
        t = self.type_text(ir.list_of(elem))
        return f"{t} {name} = new {t}(0);"

    def throw_text(self, message: str) -> str:
        self.needs.add("System")
        return f'throw new Exception("{escape_string(message)}");'

    def catch_header(self) -> str:
        self.needs.add("System")
        return "catch (Exception exc) {"

    def for_each_header(self, s: ir.ForEach) -> str:
        return (
            f"foreach ({self.type_text(s.var.type)} {s.var.name}"
            f" in {self.expr(s.iterable)}) {{"
        )

    def print_scalar_doc(self, s: ir.Print) -> Doc:
        self.needs.add("System")
        fn = "WriteLine" if s.newline else "Write"
        return text(f"Console.{fn}({self.expr(s.expr)});")

    def read_doc(self, s: ir.Read) -> Doc:
        self.needs.add("System")
        source = "Console.ReadLine()"
        if s.parse_int:
            source = f"int.Parse({source})"
        return text(f"{self.var_ref(s.var)} = {source};")

    def in_out_call_doc(self, s: ir.InOutCall) -> Doc:
        args = (
            [f"ref {self.var_ref(v)}" for v in s.inouts]
            + [self.expr(e) for e in s.ins]
            + [f"out {self.var_ref(v)}" for v in s.outs]
        )
        return text(f"{s.name}({', '.join(args)});")

    # -- declarations -----------------------------------------------------------

    def method_doc(self, m: ir.MethodRepr) -> Doc:
        comment = self.doc_comment(m.doc)
        if m.is_main:
            header = "static void Main(string[] args) {"
            return vcat([comment, self.braced(header, self.body(m.body))])
        modifiers = m.scope.value
        if m.binding == ir.Binding.STATIC or m.containing_class is None:
            modifiers += " static"
        if m.inout is not None:
            spec = m.inout
            params = (
                [f"ref {self.type_text(v.type)} {v.name}" for v in spec.inouts]
                + [f"{self.type_text(v.type)} {v.name}" for v in spec.ins]
                + [f"out {self.type_text(v.type)} {v.name}" for v in spec.outs]
            )
            header = f"{modifiers} void {m.name}({', '.join(params)}) {{"
            return vcat([comment, self.braced(header, self.body(m.body))])
        params = ", ".join(
            f"{self.type_text(p.variable.type)} {p.variable.name}" for p in m.params
        )
        header = f"{modifiers} {self.type_text(m.return_type)} {m.name}({params}) {{"
        return vcat([comment, self.braced(header, self.body(m.body))])

    def state_var_doc(self, sv: ir.StateVarRepr) -> Doc:
        parts = [sv.scope.value]
        if sv.binding == ir.Binding.STATIC:
            parts.append("static")
        if sv.is_const:
            parts.append("readonly")
        parts += [self.type_text(sv.variable.type), sv.variable.name]
        return text(" ".join(parts) + ";")

    def class_doc(self, c: ir.ClassDeclRepr) -> Doc:
        comment = self.doc_comment(c.doc)
        # Top-level classes cannot be private in C#; they fall back to the
        # default (internal) visibility.
        prefix = "public " if c.scope == ir.Scope.PUBLIC else ""
        parent = f" : {c.parent}" if c.parent else ""
        header = f"{prefix}class {c.name}{parent} {{"
        members = join_blocks([
            vcat([self.state_var_doc(sv) for sv in c.state_vars]),
            *[self.method_doc(m) for m in c.methods],
        ])
        return vcat([comment, self.braced(header, members)])

    def module_files(self, module: ir.ModuleRepr, path: str) -> list[RenderedFile]:
        pieces: list[Doc] = []
        if module.functions:
            plain = [self.method_doc(f) for f in module.functions if not f.is_main]
            mains = [self.method_doc(f) for f in module.functions if f.is_main]
            wrapper = self.braced(
                f"public class {module.name} {{", join_blocks(plain + mains)
            )
            pieces.append(wrapper)
        pieces.extend(self.class_doc(c) for c in module.classes)
        usings = sorted(set(module.imports) | self.needs)
        using_doc = vcat([text(f"using {name};") for name in usings])
        content = join_blocks([self.doc_comment(module.doc), using_doc, *pieces])
        return [RenderedFile(path, FileType.COMBINED, extract(content))]
