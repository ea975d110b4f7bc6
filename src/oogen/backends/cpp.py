"""C++ backend.

Each module renders as a source/header pair: declarations (class shells,
free-function prototypes) go to the .hpp under an include guard, definitions
go to the .cpp, which includes its own header first. A module whose only
content is the entry point collapses to a single source file with no header.

Objects use value semantics, list loops use explicit iterators (reads through
the iterator deref, method calls through ->), and bool printing switches the
stream to boolalpha so `true`/`false` come out as words.
"""

from __future__ import annotations

from .. import ir
from ..layout import EMPTY, Doc, RenderedFile, extract, hang, join_blocks, text, vcat
from .base import escape_string, switch_as_if
from .cfamily import CFamilyRenderer

_SECTIONS = ((ir.Scope.PUBLIC, "public:"), (ir.Scope.PRIVATE, "private:"))
_HEADER = ".hpp"
_ARGS = "std::vector<std::string>(argv + 1, argv + argc)"  # argv[0] is the program


def _scoped(renderer, v: ir.VariableRepr) -> str:
    return f"{v.owner}::{v.name}"


class CppRenderer(CFamilyRenderer):
    target = "cpp"
    extension = ".cpp"
    tools = (("CXX", "OOGEN_CXX", ("g++", "c++", "clang++")),)
    type_names = {"bool": "bool", "int": "int", "float": "double", "char": "char",
                  "string": "std::string", "void": "void"}
    type_needs = {"string": "string", "list": "vector"}
    list_type = "std::vector<{}>"
    empty_list_decl = "{t} {name}(0);"
    list_access_text = "{}.at({})"
    expr_handlers = {**CFamilyRenderer.expr_handlers, ir.NewObj: "call"}  # `Foo()` makes a Foo

    # no switch on std::string
    lowerings = {**CFamilyRenderer.lowerings,
                 ir.Switch: lambda s: switch_as_if(s) if s.value.type.kind == "string" else s}

    def __init__(self) -> None:
        super().__init__()
        self._iter_vars: set[str] = set()

    def build_commands(self, tools, sources, main, package):
        return [tools[0], "-o", package, *sources], [f"./{package}"]

    var_forms = {
        **CFamilyRenderer.var_forms,
        ir.VarForm.SELF: lambda self, v: f"this->{v.name}",
        ir.VarForm.CLASS_MEMBER: _scoped,
        ir.VarForm.EXTERNAL: _scoped,
    }

    def value_of(self, e: ir.ValueOf) -> str:
        return self.var_ref(e.var)

    def var_ref(self, v: ir.VariableRepr) -> str:
        if v.form == ir.VarForm.PLAIN:
            # a for-each variable is an iterator here
            return f"(*{v.name})" if v.name in self._iter_vars else v.name
        return self._var_table[v.form](self, v)

    def math_text(self, e: ir.MathCall, *rendered: str) -> str:
        # C's abs truncates; doubles need fabs, ints keep abs from stdlib.h.
        if e.fn == "abs" and e.type.kind == "int":
            self.needs.add("stdlib.h")
            return f"abs({rendered[0]})"
        self.needs.add("math.h")
        return f"{'fabs' if e.fn == 'abs' else e.fn}({', '.join(rendered)})"

    def method_call(self, e: ir.MethodCall) -> str:
        render, receiver = self._expr_table, e.receiver
        args = ", ".join([render[type(a)](self, a) for a in e.args])
        var = receiver.var if type(receiver) is ir.ValueOf else None
        if var is not None and var.form == ir.VarForm.PLAIN and var.name in self._iter_vars:
            return f"{var.name}->{e.name}({args})"  # an iterator
        return f"{self.atom(receiver)}.{e.name}({args})"

    def args_list(self, e: ir.ArgsList) -> str:
        self.needs.update(("vector", "string"))
        return _ARGS

    def arg_at(self, e: ir.ArgAt) -> str:
        self.needs.update(("vector", "string"))
        return f"{_ARGS}.at({self.expr(e.index)})"  # throws past the count, as the others do

    def arg_exists(self, e: ir.ArgExists) -> str:
        return f"argc > {self.literal_plus_one(e.index)}"

    def list_size(self, e: ir.ListSize) -> str:
        return f"(int)({self.atom(e.lst)}.size())"

    def list_set_text(self, s: ir.ListSet) -> str:
        return f"{self.atom(s.lst)}.at({self.expr(s.index)}) = {self.expr(s.value)}"

    def list_append(self, e: ir.ListAppend) -> str:
        return f"{self.atom(e.lst)}.push_back({self.expr(e.value)})"

    def list_index_of(self, e: ir.ListIndexOf) -> str:
        self.needs.add("algorithm")
        seq = self.atom(e.lst)
        return (
            f"(int)(std::find({seq}.begin(), {seq}.end(),"
            f" {self.expr(e.value)}) - {seq}.begin())"
        )

    def throw_text(self, message: str) -> str:
        self.needs.add("stdexcept")
        return f'throw std::runtime_error("{escape_string(message)}");'

    def comment_text(self, text: str) -> str:
        # A backslash at the end of a line (blanks after it included) splices
        # the next source line into the comment; end such a line with a ".".
        return "\n".join(line.rstrip() + "." if line.rstrip().endswith("\\") else line
                         for line in text.splitlines())

    def catch_header(self) -> str:
        return "catch (...) {"

    def for_each_doc(self, s: ir.ForEach) -> Doc:
        # A loop over a variable runs an iterator over it. Any other iterable
        # is a temporary, whose `begin()` and `end()` would belong to two
        # lists: it is looped over by value, and its variable is no iterator.
        name, outer = s.var.name, self._iter_vars
        if type(s.iterable) is ir.ValueOf:
            header, self._iter_vars = self.for_each_header(s), outer | {name}
        else:
            header = f"for ({self.type_text(s.var.type)} {name} : {self.expr(s.iterable)}) {{"
            self._iter_vars = outer - {name}
        try:
            return self.braced(header, self.body(s.body))
        finally:
            self._iter_vars = outer

    def for_each_header(self, s: ir.ForEach) -> str:
        seq = self.atom(s.iterable)
        it_type = f"{self.type_text(ir.list_of(s.var.type))}::iterator"
        name = s.var.name
        return (
            f"for ({it_type} {name} = {seq}.begin();"
            f" {name} != {seq}.end(); {name}++) {{"
        )

    def print_scalar_doc(self, s: ir.Print) -> Doc:
        self.needs.add("iostream")
        value = self.expr(s.expr)
        if self.prec_of(s.expr) < 6:
            value = f"({value})"  # << binds tighter than comparisons
        chain = "std::cout"
        if s.expr.type.kind == "bool":
            chain += " << std::boolalpha"
        chain += f" << {value}"
        if s.newline:
            chain += " << std::endl"
        return text(chain + ";")

    def read_doc(self, s: ir.Read) -> Doc:
        if s.parse_int:  # and the rest of its line, as a later getline must not read it
            self.needs.update(("iostream", "limits"))
            return text(f"(std::cin >> {self.var_ref(s.var)})"
                        ".ignore(std::numeric_limits<std::streamsize>::max(), '\\n');")
        self.needs.add("iostream")
        return text(f"std::getline(std::cin, {self.var_ref(s.var)});")

    def in_out_call_doc(self, s: ir.InOutCall) -> Doc:
        args = (
            [self.var_ref(v) for v in s.inouts]
            + [self.expr(e) for e in s.ins]
            + [self.var_ref(v) for v in s.outs]
        )
        return text(f"{s.name}({', '.join(args)});")

    # -- declarations -----------------------------------------------------------

    def _param_text(self, v: ir.VariableRepr, by_ref: bool = False) -> str:
        ref = "&" if by_ref else ""
        return f"{self.type_text(v.type)} {ref}{v.name}"

    def _sig_params(self, m: ir.MethodRepr) -> str:
        if m.inout is not None:
            inouts, ins, outs = m.in_out_params
            return ", ".join([self._param_text(v, by_ref)
                              for by_ref, group in ((True, inouts), (False, ins), (True, outs))
                              for v in group])
        return ", ".join(self._param_text(p) for p in m.params)

    def _sig_head(self, m: ir.MethodRepr, owner: str | None) -> str:
        scope = f"{owner}::" if owner else ""
        return f"{self.type_text(m.return_type)} {scope}{m.name}({self._sig_params(m)})"

    def method_doc(self, m: ir.MethodRepr, owner: str | None = None) -> Doc:
        """Definition, for the source file. Doc comments stay on the header
        prototypes; only main (which has no prototype) keeps its own."""
        if m.is_main:
            inner = join_blocks([self.body(m.body), text("return 0;")])
            header = "int main(int argc, const char *argv[]) {"
            return vcat([self.doc_comment(m.doc), self.braced(header, inner)])
        return self.braced(self._sig_head(m, owner) + " {", self.body(m.body))

    def prototype_doc(self, m: ir.MethodRepr, owner: str | None = None) -> Doc:
        """Declaration, for the header: a free function's, or a method's
        inside its class `owner`."""
        static = "static " if owner and m.binding == ir.Binding.STATIC else ""
        return vcat([
            self.doc_comment(m.doc),
            text(static + self._sig_head(m, None) + ";"),
        ])

    def state_var_decl(self, sv: ir.StateVarRepr) -> Doc:
        static = "static " if sv.binding == ir.Binding.STATIC else ""
        return text(f"{static}{self.type_text(sv.variable.type)} {sv.variable.name};")

    def class_decl_doc(self, c: ir.ClassDeclRepr) -> Doc:
        parent = f" : public {c.parent}" if c.parent else ""
        sections: list[Doc] = []
        for scope, label in _SECTIONS:
            members = [self.prototype_doc(m, c.name) for m in c.methods if m.scope == scope]
            members.extend(
                self.state_var_decl(sv) for sv in c.state_vars if sv.scope == scope
            )
            if members:
                sections.append(hang(label, vcat(members)))
        header = f"class {c.name}{parent} {{"
        return vcat([self.doc_comment(c.doc), hang(header, vcat(sections), "};")])

    def class_defs_doc(self, c: ir.ClassDeclRepr) -> Doc:
        # static members declared in the class still need one definition
        # at namespace scope or the program fails to link
        defs = vcat([
            text(f"{self.type_text(sv.variable.type)} {c.name}::{sv.variable.name};")
            for sv in c.state_vars if sv.binding == ir.Binding.STATIC
        ])
        return join_blocks([defs] + [self.method_doc(m, c.name) for m in c.methods])

    def module_files(self, module: ir.ModuleRepr, path: str) -> list[RenderedFile]:
        plain = [f for f in module.functions if not f.is_main]
        mains = [f for f in module.functions if f.is_main]
        has_header = bool(module.classes) or bool(plain)
        name = module.name

        src_docs = [self.class_defs_doc(c) for c in module.classes]
        src_docs += [self.method_doc(f) for f in plain]
        src_docs += [self.method_doc(f) for f in mains]
        src_needs = set(self.needs)

        self.needs = set()
        hdr_docs = [self.prototype_doc(f) for f in plain]
        hdr_docs += [self.class_decl_doc(c) for c in module.classes]
        hdr_needs = set(self.needs)

        own = text(f'#include "{name}{_HEADER}"') if has_header else EMPTY
        other = (*[f'#include "{imp}{_HEADER}"' for imp in sorted(module.imports)],
                 *[f"#include <{inc}>" for inc in sorted(src_needs)])
        src_content = join_blocks([self.doc_comment(module.doc), own, other, *src_docs])
        files = [RenderedFile(path, extract(src_content))]

        if has_header:
            guard = f"{name}_HPP"
            hdr_content = join_blocks([
                (f"#ifndef {guard}", f"#define {guard}"),
                tuple([f"#include <{inc}>" for inc in sorted(hdr_needs)]),
                *hdr_docs,
                text("#endif"),
            ])
            files.append(RenderedFile(f"{name}{_HEADER}", extract(hdr_content)))
        return files
