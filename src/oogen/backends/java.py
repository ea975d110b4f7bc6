"""Java backend.

A module's free functions (main included) live in a public static wrapper
class named after the module (the layout `CFamilyRenderer` shares with C#),
so the file compiles under javac's one-public-class rule; extra classes
render package-private unless they share the module's name. Every method
declares `throws Exception`. Multi-output procedures return an Object[]
that call sites unpack with boxed casts.
"""

from __future__ import annotations

from .. import ir
from ..layout import Doc, join_blocks, text, vcat
from .cfamily import CFamilyRenderer

_BOXED = {"bool": "Boolean", "int": "Integer", "float": "Double",
          "char": "Character", "string": "String"}


class JavaRenderer(CFamilyRenderer):
    target = "java"
    extension = ".java"
    tools = (("JC", "OOGEN_JAVAC", ("javac",)), ("JVM", "OOGEN_JAVA", ("java",)))
    import_keyword = "import"
    extends_text = " extends "
    throws_suffix = " throws Exception"
    main_header = "public static void main(String[] args) throws Exception {"
    type_names = {"bool": "boolean", "int": "int", "float": "double", "char": "char",
                  "string": "String", "void": "void"}
    type_needs = {"list": "java.util.ArrayList"}
    list_type = "ArrayList<{}>"
    args_length = "args.length"
    list_access_text = "{}.get({})"

    def build_commands(self, tools, sources, main, package):
        javac, java = tools  # unless told, javac reads and java prints in the locale's charset
        return [javac, "-encoding", "UTF-8", *sources], [java, "-Dfile.encoding=UTF-8", main]

    def boxed_text(self, t: ir.TypeRepr) -> str:
        """Generic positions take the boxed spelling."""
        return _BOXED.get(t.kind) or self.type_text(t)

    elem_text = boxed_text

    def math_text(self, e: ir.MathCall, *rendered: str) -> str:
        return f"Math.{e.fn}({', '.join(rendered)})"

    def args_list(self, e: ir.ArgsList) -> str:
        return "new java.util.ArrayList<String>(java.util.Arrays.asList(args))"

    def list_size(self, e: ir.ListSize) -> str:
        return f"{self.atom(e.lst)}.size()"

    def list_append(self, e: ir.ListAppend) -> str:
        return f"{self.atom(e.lst)}.add({self.expr(e.value)})"

    def list_index_of(self, e: ir.ListIndexOf) -> str:
        return f"{self.atom(e.lst)}.indexOf({self.expr(e.value)})"

    def list_set_text(self, s: ir.ListSet) -> str:
        return f"{self.atom(s.lst)}.set({self.expr(s.index)}, {self.expr(s.value)})"

    def comment_text(self, text: str) -> str:
        # javac decodes \uXXXX escapes before it finds comments; a doubled
        # backslash cannot start one.
        return text.replace("\\", "\\\\")

    doc_text = comment_text  # a \u002a/ would end the doc block

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

    def in_out_method_doc(self, m: ir.MethodRepr, modifiers: str) -> Doc:
        inouts, ins, outs = m.in_out_params
        params = ", ".join([f"{self.type_text(v.type)} {v.name}" for v in inouts + ins])
        header = f"{modifiers} Object[] {m.name}({params}){self.throws_suffix} {{"
        declared = vcat([text(f"{self.boxed_text(v.type)} {v.name};") for v in outs])
        returned = inouts + outs
        packing = [text(f"Object[] outputs = new Object[{len(returned)}];")]
        packing += [text(f"outputs[{k}] = {v.name};") for k, v in enumerate(returned)]
        packing.append(text("return outputs;"))
        inner = join_blocks([declared, self.body(m.body), vcat(packing)])
        return self.braced(header, inner)

    def class_is_public(self, c: ir.ClassDeclRepr, module: ir.ModuleRepr) -> bool:
        # javac allows one public top-level class: the one matching the file.
        return c.scope == ir.Scope.PUBLIC and c.name == module.name and not module.functions
