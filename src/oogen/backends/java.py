"""Java backend.

A module's free functions (main included) live in a public static wrapper
class named after the module, so the file compiles under javac's one-public-
class rule; extra classes render package-private unless they share the
module's name. Every method declares `throws Exception`. Multi-output
procedures return an Object[] that call sites unpack with boxed casts.
"""

from __future__ import annotations

from .. import ir
from ..layout import Doc, FileType, RenderedFile, extract, join_blocks, text, vcat
from .base import escape_string
from .cfamily import CFamilyRenderer

_BOXED = {"bool": "Boolean", "int": "Integer", "float": "Double",
          "char": "Character", "string": "String"}


class JavaRenderer(CFamilyRenderer):
    target = "java"
    extension = ".java"

    def type_text(self, t: ir.TypeRepr) -> str:
        if t.kind == "bool":
            return "boolean"
        if t.kind == "int":
            return "int"
        if t.kind == "float":
            return "double"
        if t.kind == "char":
            return "char"
        if t.kind == "string":
            return "String"
        if t.kind == "void":
            return "void"
        if t.kind == "infile":
            return "java.util.Scanner"
        if t.kind == "outfile":
            return "java.io.PrintWriter"
        if t.kind == "list":
            self.needs.add("java.util.ArrayList")
            return f"ArrayList<{self.boxed_text(t.elem)}>"
        return t.class_name

    def boxed_text(self, t: ir.TypeRepr) -> str:
        """Generic positions take the boxed spelling."""
        return _BOXED.get(t.kind) or self.type_text(t)

    def var_ref(self, v: ir.VariableRepr) -> str:
        if v.form == ir.VarForm.SELF:
            return f"this.{v.name}"
        if v.form in (ir.VarForm.CLASS_MEMBER, ir.VarForm.OBJECT_MEMBER, ir.VarForm.EXTERNAL):
            return f"{v.owner}.{v.name}"
        return v.name

    def math_call(self, e: ir.MathCall) -> str:
        return f"Math.{e.fn}({self.expr(e.arg)})"

    def power(self, e: ir.Binary) -> str:
        return f"Math.pow({self.expr(e.left)}, {self.expr(e.right)})"

    def constructor_call(self, class_name: str, args: str) -> str:
        return f"new {class_name}({args})"

    def args_list(self, e: ir.ArgsList) -> str:
        return "args"

    def arg_at(self, e: ir.ArgAt) -> str:
        return f"args[{self.expr(e.index)}]"

    def arg_exists(self, e: ir.ArgExists) -> str:
        return f"args.length > {self.expr(e.index)}"

    def list_access(self, e: ir.ListAccess) -> str:
        return f"{self.atom(e.lst)}.get({self.expr(e.index)})"

    def list_size(self, e: ir.ListSize) -> str:
        return f"{self.atom(e.lst)}.size()"

    def list_append(self, e: ir.ListAppend) -> str:
        return f"{self.atom(e.lst)}.add({self.expr(e.value)})"

    def list_index_exists(self, e: ir.ListIndexExists) -> str:
        return f"{self.atom(e.lst)}.size() > {self.expr(e.index)}"

    def list_index_of(self, e: ir.ListIndexOf) -> str:
        return f"{self.atom(e.lst)}.indexOf({self.expr(e.value)})"

    def list_set_text(self, s: ir.ListSet) -> str:
        return f"{self.atom(s.lst)}.set({self.expr(s.index)}, {self.expr(s.value)})"

    def empty_list_decl(self, name: str, elem: ir.TypeRepr) -> str:
        t = self.type_text(ir.list_of(elem))
        return f"{t} {name} = new {t}(0);"

    def throw_text(self, message: str) -> str:
        return f'throw new Exception("{escape_string(message)}");'

    def comment_text(self, text: str) -> str:
        # javac decodes \uXXXX escapes before it finds comments; a doubled
        # backslash cannot start one.
        return text.replace("\\", "\\\\")

    def for_each_header(self, s: ir.ForEach) -> str:
        return f"for ({self.type_text(s.var.type)} {s.var.name} : {self.expr(s.iterable)}) {{"

    def print_scalar_doc(self, s: ir.Print) -> Doc:
        fn = "println" if s.newline else "print"
        return text(f"System.out.{fn}({self.expr(s.expr)});")

    def read_doc(self, s: ir.Read) -> Doc:
        source = "new java.util.Scanner(System.in).nextLine()"
        if s.parse_int:
            source = f"Integer.parseInt({source})"
        return text(f"{self.var_ref(s.var)} = {source};")

    def in_out_call_doc(self, s: ir.InOutCall) -> Doc:
        args = [self.var_ref(v) for v in s.inouts] + [self.expr(e) for e in s.ins]
        lines = [f"Object[] outputs = {s.name}({', '.join(args)});"]
        for k, v in enumerate(s.inouts + s.outs):
            lines.append(f"{self.var_ref(v)} = ({self.boxed_text(v.type)}) outputs[{k}];")
        return vcat([text(line) for line in lines])

    # -- declarations -----------------------------------------------------------

    def method_doc(self, m: ir.MethodRepr) -> Doc:
        comment = self.doc_comment(m.doc)
        if m.is_main:
            header = "public static void main(String[] args) throws Exception {"
            return vcat([comment, self.braced(header, self.body(m.body))])
        modifiers = m.scope.value
        if m.binding == ir.Binding.STATIC or m.containing_class is None:
            modifiers += " static"
        if m.inout is not None:
            return vcat([comment, self._in_out_method(m, modifiers)])
        params = ", ".join(
            f"{self.type_text(p.variable.type)} {p.variable.name}" for p in m.params
        )
        header = (
            f"{modifiers} {self.type_text(m.return_type)} {m.name}({params})"
            " throws Exception {"
        )
        return vcat([comment, self.braced(header, self.body(m.body))])

    def _in_out_method(self, m: ir.MethodRepr, modifiers: str) -> Doc:
        spec = m.inout
        params = ", ".join(
            f"{self.type_text(v.type)} {v.name}" for v in spec.inouts + spec.ins
        )
        header = f"{modifiers} Object[] {m.name}({params}) throws Exception {{"
        declared = vcat([text(f"{self.boxed_text(v.type)} {v.name};") for v in spec.outs])
        returned = spec.inouts + spec.outs
        packing = [text(f"Object[] outputs = new Object[{len(returned)}];")]
        packing += [text(f"outputs[{k}] = {v.name};") for k, v in enumerate(returned)]
        packing.append(text("return outputs;"))
        inner = join_blocks([declared, self.body(m.body), vcat(packing)])
        return self.braced(header, inner)

    def state_var_doc(self, sv: ir.StateVarRepr) -> Doc:
        parts = [sv.scope.value]
        if sv.binding == ir.Binding.STATIC:
            parts.append("static")
        if sv.is_const:
            parts.append("final")
        parts += [self.type_text(sv.variable.type), sv.variable.name]
        return text(" ".join(parts) + ";")

    def class_doc(self, c: ir.ClassDeclRepr, public: bool) -> Doc:
        comment = self.doc_comment(c.doc)
        prefix = "public " if public else ""
        parent = f" extends {c.parent}" if c.parent else ""
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
        for c in module.classes:
            # javac allows one public top-level class: the one matching the file.
            public = c.scope == ir.Scope.PUBLIC and c.name == module.name and not module.functions
            pieces.append(self.class_doc(c, public))
        imports = sorted(set(module.imports) | self.needs)
        import_doc = vcat([text(f"import {name};") for name in imports])
        content = join_blocks([self.doc_comment(module.doc), import_doc, *pieces])
        return [RenderedFile(path, FileType.COMBINED, extract(content))]
