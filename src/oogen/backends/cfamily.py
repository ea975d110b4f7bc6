"""Statement rendering shared by the brace-and-semicolon targets.

Java, C#, and C++ differ in types, I/O, and signatures but share the
block structure: this class owns that shape and defers the rest to hooks.
It also holds the Java/C# module layout (a public wrapper class of static
free functions and the entry point, then the module's classes), with each
spelling the two differ in as a class constant; C++ overrides it whole.
"""

from __future__ import annotations

from .. import ir
from ..layout import Doc, RenderedFile, extract, hang, join_blocks, text, vcat, wrap
from .base import Renderer, escape_string, list_print, range_as_for, slice_as_loop


class CFamilyRenderer(Renderer):
    # Spellings the Java/C# layout below takes from each of the two targets.
    import_keyword: str
    extends_text: str
    throws_suffix: str
    main_header: str
    args_length: str
    empty_list_decl = "{t} {name} = new {t}(0);"
    # Each scalar kind's spelling, one per key of `ir.SCALAR_TYPES` (an
    # object type is spelled by its class name), the import or header a
    # kind needs, and the list type around its element's spelling
    # (`elem_text`).
    type_names: dict[str, str]
    type_needs: dict[str, str]
    list_type: str

    # -- small helpers -------------------------------------------------------

    def braced(self, header: str, body_doc: Doc) -> Doc:
        return hang(header, body_doc, "}")

    def type_text(self, t: ir.TypeRepr) -> str:
        kind = t.kind
        if kind in self.type_needs:
            self.needs.add(self.type_needs[kind])
        if kind == "list":
            return self.list_type.format(self.elem_text(t.elem))
        return self.type_names.get(kind) or t.class_name

    def elem_text(self, t: ir.TypeRepr) -> str:
        return self.type_text(t)

    # -- statement dispatch ---------------------------------------------------

    stmt_handlers = {
        **Renderer.stmt_handlers,
        ir.VarDec: "var_dec_doc",
        ir.VarDecDef: lambda self, s: text(
            f"{self.type_text(s.var.type)} {s.var.name} = {self.expr(s.value)};"),
        ir.Throw: lambda self, s: text(self.throw_text(s.message)),
        ir.ForEach: "for_each_doc",
        ir.While: lambda self, s: self.braced(
            f"while ({self.expr(s.cond)}) {{", self.body(s.body)),
        ir.TryCatch: lambda self, s: vcat([
            self.braced("try {", self.body(s.try_body)),
            self.braced(self.catch_header(), self.body(s.catch_body)),
        ]),
        ir.Print: "print_scalar_doc",
        ir.Read: "read_doc",
    }
    lowerings = {ir.ForRange: range_as_for, ir.ListSlice: slice_as_loop,
                 ir.Print: lambda s: list_print(s) if s.expr.type.kind == "list" else s}

    # -- expressions shared by Java and C# ---------------------------------------

    var_forms = {**Renderer.var_forms, ir.VarForm.SELF: lambda self, v: f"this.{v.name}"}

    def constructor_call(self, e: ir.Call, args: str) -> str:
        return f"new {e.name}({args})"

    def arg_at(self, e: ir.ArgAt) -> str:
        i = e.index
        return f"args[{self._expr_table[type(i)](self, i)}]"

    def arg_exists(self, e: ir.ArgExists) -> str:
        i = e.index
        index = wrap(self._expr_table[type(i)](self, i), self.prec_of(i) <= self.prec_of(e))
        return f"{self.args_length} > {index}"

    # -- declarations ---------------------------------------------------------

    def var_dec_doc(self, s: ir.VarDec) -> Doc:
        t, name = self.type_text(s.var.type), s.var.name
        if s.var.type.kind == "list":  # starts empty, so appends are always valid
            return text(self.empty_list_decl.format(t=t, name=name))
        return text(f"{t} {name};")

    def throw_text(self, message: str) -> str:
        return f'throw new Exception("{escape_string(message)}");'

    def catch_header(self) -> str:
        return "catch (Exception exc) {"

    # -- control flow -----------------------------------------------------------

    def if_doc(self, s: ir.If) -> Doc:
        docs: list[Doc] = []
        for i, (cond, branch) in enumerate(s.branches):
            keyword = "if" if i == 0 else "else if"
            docs.append(self.braced(f"{keyword} ({self.expr(cond)}) {{", self.body(branch)))
        if s.else_body is not None:
            docs.append(self.braced("else {", self.body(s.else_body)))
        return vcat(docs)

    def switch_doc(self, s: ir.Switch) -> Doc:
        cases = [hang(f"case {self.lit(label)}:", vcat([self.body(branch), text("break;")]))
                 for label, branch in s.cases]
        if s.default is not None:
            cases.append(hang("default:", self.body(s.default)))
        return hang(f"switch ({self.expr(s.value)}) {{", vcat(cases), "}")

    def for_doc(self, s: ir.For) -> Doc:
        # The for rule admits only one-line statements to the header.
        header = (f"for ({self.stmt(s.init)[0].rstrip(';')}; {self.expr(s.cond)};"
                  f" {self.stmt(s.update)[0].rstrip(';')}) {{")
        return self.braced(header, self.body(s.body))

    def for_each_doc(self, s: ir.ForEach) -> Doc:
        return self.braced(self.for_each_header(s), self.body(s.body))

    # -- declarations (the Java/C# layout) ----------------------------------------

    def method_doc(self, m: ir.MethodRepr) -> Doc:
        comment = self.doc_comment(m.doc)
        if m.is_main:
            return vcat([comment, self.braced(self.main_header, self.body(m.body))])
        modifiers = m.scope
        if m.binding == ir.Binding.STATIC or m.containing_class is None:
            modifiers += " static"
        if m.inout is not None:
            return vcat([comment, self.in_out_method_doc(m, modifiers)])
        params = ", ".join(f"{self.type_text(p.type)} {p.name}" for p in m.params)
        header = (
            f"{modifiers} {self.type_text(m.return_type)} {m.name}({params})"
            f"{self.throws_suffix} {{"
        )
        return vcat([comment, self.braced(header, self.body(m.body))])

    def state_var_doc(self, sv: ir.StateVarRepr) -> Doc:
        parts = [sv.scope]
        if sv.binding == ir.Binding.STATIC:
            parts.append("static")
        parts += [self.type_text(sv.variable.type), sv.variable.name]
        return text(" ".join(parts) + ";")

    def class_is_public(self, c: ir.ClassDeclRepr, module: ir.ModuleRepr) -> bool:
        # Top-level classes cannot be private in C#; they fall back to the
        # default (internal) visibility.
        return c.scope == ir.Scope.PUBLIC

    def class_doc(self, c: ir.ClassDeclRepr, public: bool) -> Doc:
        comment = self.doc_comment(c.doc)
        prefix = "public " if public else ""
        parent = f"{self.extends_text}{c.parent}" if c.parent else ""
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
        pieces.extend(self.class_doc(c, self.class_is_public(c, module)) for c in module.classes)
        imports = sorted(set(module.imports) | self.needs)
        import_doc = vcat([text(f"{self.import_keyword} {name};") for name in imports])
        content = join_blocks([self.doc_comment(module.doc), import_doc, *pieces])
        return [RenderedFile(path, extract(content))]
