"""C# backend.

Renders the Java layout of `CFamilyRenderer` (module wrapper class holding
static free functions plus Main) with C# spellings: `using` directives, `List<T>`, Console I/O,
ref/out parameters instead of an output array, and no checked exceptions.
The bool type renders as `Boolean` (under `using System;`).
"""

from __future__ import annotations

from .. import ir
from ..layout import Doc, text
from .cfamily import CFamilyRenderer

_MATH = {"sin": "Sin", "cos": "Cos", "tan": "Tan", "sqrt": "Sqrt", "abs": "Abs",
         "floor": "Floor", "ceil": "Ceiling", "log": "Log", "exp": "Exp", "pow": "Pow"}


class CSharpRenderer(CFamilyRenderer):
    target = "csharp"
    extension = ".cs"
    tools = (("CSC", "OOGEN_CSC", ("mcs", "csc")), ("RUNNER", "OOGEN_MONO", ("mono",)))
    import_keyword = "using"
    extends_text = " : "
    throws_suffix = ""  # no checked exceptions
    main_header = "static void Main(string[] args) {"
    type_names = {"bool": "Boolean", "int": "int", "float": "double", "char": "char",
                  "string": "string", "void": "void"}
    type_needs = {"bool": "System", "list": "System.Collections.Generic"}
    list_type = "List<{}>"
    args_length = "args.Length"

    def build_commands(self, tools, sources, main, package):
        csc, mono = tools
        exe = f"{package}.exe"
        return [csc, f"-out:{exe}", *sources], [mono, exe]

    def math_text(self, e: ir.MathCall, *rendered: str) -> str:
        self.needs.add("System")
        return f"Math.{_MATH[e.fn]}({', '.join(rendered)})"

    def args_list(self, e: ir.ArgsList) -> str:
        return "new System.Collections.Generic.List<string>(args)"

    def list_size(self, e: ir.ListSize) -> str:
        return f"{self.atom(e.lst)}.Count"

    def list_append(self, e: ir.ListAppend) -> str:
        return f"{self.atom(e.lst)}.Add({self.expr(e.value)})"

    def list_index_of(self, e: ir.ListIndexOf) -> str:
        return f"{self.atom(e.lst)}.IndexOf({self.expr(e.value)})"

    def throw_text(self, message: str) -> str:
        self.needs.add("System")
        return super().throw_text(message)

    def catch_header(self) -> str:
        self.needs.add("System")
        return super().catch_header()

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

    def in_out_method_doc(self, m: ir.MethodRepr, modifiers: str) -> Doc:
        inouts, ins, outs = m.in_out_params
        params = [f"{mode}{self.type_text(v.type)} {v.name}"
                  for mode, group in (("ref ", inouts), ("", ins), ("out ", outs)) for v in group]
        header = f"{modifiers} void {m.name}({', '.join(params)}) {{"
        return self.braced(header, self.body(m.body))
