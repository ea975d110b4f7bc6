"""Statement rendering shared by the brace-and-semicolon targets.

Java, C#, and C++ differ in types, I/O, and signatures but share the
block structure: this class owns that shape and defers the rest to hooks.
"""

from __future__ import annotations

from .. import builders as bd
from .. import ir
from .. import patterns as pt
from ..errors import UnsupportedConstruct
from ..layout import Doc, EMPTY, hang, text, vcat
from .base import Renderer, comment_doc


class CFamilyRenderer(Renderer):
    switch_strings_as_chain = False
    op_precedence = {"#^": ir.ATOMIC_PRECEDENCE}  # every target renders it as a call

    # -- small helpers -------------------------------------------------------

    def braced(self, header: str, body_doc: Doc) -> Doc:
        return hang(header, body_doc, "}")

    def type_text(self, t: ir.TypeRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def inline_stmt(self, s: ir.StatementRepr) -> str:
        """Statement text without the trailing semicolon, for for-headers."""
        rendered = self.render_stmt(s)
        if "\n" in rendered:
            raise UnsupportedConstruct("for-loop header parts must be single statements")
        return rendered.rstrip(";")

    # -- statement dispatch ---------------------------------------------------

    stmt_handlers = {
        ir.VarDec: lambda self, s: self.var_dec_doc(s.var),
        ir.VarDecDef: lambda self, s: text(
            f"{self.type_text(s.var.type)} {s.var.name} = {self.expr(s.value)};"),
        ir.Assign: "assign_doc",
        ir.ListSet: lambda self, s: text(self.list_set_text(s) + ";"),
        ir.Return: lambda self, s: text(f"return {self.expr(s.value)};"),
        ir.Throw: lambda self, s: text(self.throw_text(s.message)),
        ir.Free: lambda self, s: self.free_doc(s.var),
        ir.CommentStmt: lambda self, s: comment_doc("//", self.comment_text(s.text)),
        ir.Break: lambda self, s: text("break;"),
        ir.Continue: lambda self, s: text("continue;"),
        ir.ExprStmt: lambda self, s: text(f"{self.expr(s.expr)};"),
        ir.BlockRepr: "block",
        ir.If: "if_doc",
        ir.Switch: "switch_doc",
        ir.For: "for_doc",
        ir.ForRange: "for_range_doc",
        ir.ForEach: "for_each_doc",
        ir.While: lambda self, s: self.braced(
            f"while ({self.expr(s.cond)}) {{", self.body(s.body)),
        ir.TryCatch: lambda self, s: vcat([
            self.braced("try {", self.body(s.try_body)),
            self.braced(self.catch_header(), self.body(s.catch_body)),
        ]),
        ir.Print: lambda self, s: (
            self.print_list_doc(s) if s.expr.type.is_list else self.print_scalar_doc(s)),
        ir.Read: "read_doc",
        ir.ListSlice: "slice_doc",
        ir.InOutCall: "in_out_call_doc",
        ir.ObserverInit: "observer_init_doc",
        ir.ObserverAdd: lambda self, s: self.stmt(self._observer_add_stmt(s)),
        ir.ObserverNotify: lambda self, s: self.stmt(self._observer_notify_stmt(s)),
    }

    # -- declarations ---------------------------------------------------------

    def var_dec_doc(self, v: ir.VariableRepr) -> Doc:
        if v.type.is_list:
            # Initialize to empty so appends are always valid.
            return text(self.empty_list_decl(v.name, v.type.elem))
        return text(f"{self.type_text(v.type)} {v.name};")

    def empty_list_decl(self, name: str, elem: ir.TypeRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def assign_doc(self, s: ir.Assign) -> Doc:
        target = self.var_ref(s.var)
        mode = s.mode
        if mode == ir.AssignMode.SET:
            return text(f"{target} = {self.expr(s.value)};")
        if mode == ir.AssignMode.ADD_EQ:
            return text(f"{target} += {self.expr(s.value)};")
        if mode == ir.AssignMode.SUB_EQ:
            return text(f"{target} -= {self.expr(s.value)};")
        if mode == ir.AssignMode.INC:
            return text(f"{target}++;")
        return text(f"{target}--;")

    def list_set_text(self, s: ir.ListSet) -> str:
        return f"{self.atom(s.lst)}[{self.expr(s.index)}] = {self.expr(s.value)}"

    def throw_text(self, message: str) -> str:  # pragma: no cover
        raise NotImplementedError

    def comment_text(self, text: str) -> str:
        """Comment text that the target's lexer cannot read past; C#'s lexer
        has no such trap, so it is returned as it is."""
        return text

    def free_doc(self, v: ir.VariableRepr) -> Doc:
        return EMPTY  # garbage-collected targets drop Free entirely

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
        if self.switch_strings_as_chain and s.value.type.kind == "string":
            branches = tuple(
                (bd.apply_binary("?==", s.value, label), branch) for label, branch in s.cases
            )
            return self.if_doc(ir.If(branches, s.default))
        cases = [hang(f"case {self.lit(label)}:", vcat([self.body(branch), text("break;")]))
                 for label, branch in s.cases]
        if s.default is not None:
            cases.append(hang("default:", self.body(s.default)))
        return hang(f"switch ({self.expr(s.value)}) {{", vcat(cases), "}")

    def for_doc(self, s: ir.For) -> Doc:
        header = (
            f"for ({self.inline_stmt(s.init)}; {self.expr(s.cond)};"
            f" {self.inline_stmt(s.update)}) {{"
        )
        return self.braced(header, self.body(s.body))

    def for_range_doc(self, s: ir.ForRange) -> Doc:
        name = s.var.name
        if isinstance(s.step, ir.Lit) and s.step.value == 1:
            update = f"{name}++"
        else:
            update = f"{name} += {self.expr(s.step)}"
        header = (
            f"for ({self.type_text(ir.INT)} {name} = {self.expr(s.start)};"
            f" {name} <= {self.expr(s.end)}; {update}) {{"
        )
        return self.braced(header, self.body(s.body))

    def for_each_doc(self, s: ir.ForEach) -> Doc:
        return self.braced(self.for_each_header(s), self.body(s.body))

    def for_each_header(self, s: ir.ForEach) -> str:  # pragma: no cover
        raise NotImplementedError

    # -- printing ----------------------------------------------------------------

    def print_scalar_doc(self, s: ir.Print) -> Doc:  # pragma: no cover
        raise NotImplementedError

    def print_list_doc(self, s: ir.Print) -> Doc:
        """The bracket/loop/guard idiom shared by targets without native
        list printing; recursion through the element print handles nesting."""
        lst = s.expr
        self._list_depth += 1
        counter = bd.var(f"list_i{self._list_depth}", ir.INT)
        try:
            upper = bd.apply_binary("#-", pt.list_size(lst), bd.lit_int(1))
            loop_cond = bd.apply_binary("?<", bd.value_of(counter), upper)
            guard = bd.apply_binary("?>", pt.list_size(lst), bd.lit_int(0))
            elem_at_counter = pt.list_access(lst, bd.value_of(counter))
            last_elem = pt.list_access(lst, upper)
            loop_header = (
                f"for ({self.type_text(ir.INT)} {counter.name} = 0;"
                f" {self.expr(loop_cond)}; {counter.name}++) {{"
            )
            return vcat([
                self.stmt(pt.print_str("[")),
                self.braced(loop_header, vcat([
                    self.stmt(ir.Print(elem_at_counter, newline=False)),
                    self.stmt(pt.print_str(", ")),
                ])),
                self.braced(f"if ({self.expr(guard)}) {{",
                            self.stmt(ir.Print(last_elem, newline=False))),
                self.stmt(ir.Print(bd.lit_string("]"), newline=s.newline)),
            ])
        finally:
            self._list_depth -= 1

    def read_doc(self, s: ir.Read) -> Doc:  # pragma: no cover
        raise NotImplementedError

    # -- list slicing --------------------------------------------------------------

    def slice_doc(self, s: ir.ListSlice) -> Doc:
        elem = s.target.type.elem
        start = s.start if s.start is not None else bd.lit_int(0)
        end_text = self.expr(s.end if s.end is not None else ir.ListSize(s.source))
        if s.step is None or (isinstance(s.step, ir.Lit) and s.step.value == 1):
            update = "i_temp++"
        else:
            update = f"i_temp += {self.expr(s.step)}"
        temp = bd.var("temp", ir.list_of(elem))
        counter = bd.var("i_temp", ir.INT)
        take = pt.list_append(bd.value_of(temp), pt.list_access(s.source, bd.value_of(counter)))
        header = (
            f"for ({self.type_text(ir.INT)} i_temp = {self.expr(start)};"
            f" i_temp < {end_text}; {update}) {{"
        )
        return vcat([
            text(self.empty_list_decl("temp", elem)),
            self.braced(header, text(f"{self.expr(take)};")),
            text(f"{self.var_ref(s.target)} = temp;"),
        ])

    # -- in/out calls ----------------------------------------------------------------

    def in_out_call_doc(self, s: ir.InOutCall) -> Doc:  # pragma: no cover
        raise NotImplementedError

    # -- observer lowering --------------------------------------------------------------

    def observer_init_doc(self, s: ir.ObserverInit) -> Doc:
        lst = pt.observer_list_var(s.elem_type)
        docs = [self.var_dec_doc(lst)]
        for value in s.init_values:
            docs.append(self.stmt(bd.call_stmt(pt.list_append(bd.value_of(lst), value))))
        return vcat(docs)

    def _observer_add_stmt(self, s: ir.ObserverAdd) -> ir.StatementRepr:
        lst = pt.observer_list_var(s.elem_type)
        return bd.call_stmt(pt.list_append(bd.value_of(lst), s.value))

    def _observer_notify_stmt(self, s: ir.ObserverNotify) -> ir.StatementRepr:
        lst = pt.observer_list_var(s.elem_type)
        each = bd.var("observer", s.elem_type)
        call = bd.method_call(bd.value_of(each), s.method, ir.VOID, [])
        return bd.for_each(each, bd.value_of(lst), bd.one_liner(bd.call_stmt(call)))
