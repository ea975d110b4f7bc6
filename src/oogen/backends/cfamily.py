"""Statement rendering shared by the brace-and-semicolon targets.

Java, C#, and C++ differ in types, I/O, and signatures but share the
block structure: this class owns that shape and defers the rest to hooks.
"""

from __future__ import annotations

from .. import builders as bd
from .. import ir
from .. import patterns as pt
from ..errors import UnsupportedConstruct
from ..layout import Doc, EMPTY, indent, text, vcat
from .base import Renderer, comment_doc


class CFamilyRenderer(Renderer):
    switch_strings_as_chain = False

    # -- small helpers -------------------------------------------------------

    def braced(self, header: str, body_doc: Doc) -> Doc:
        return vcat([text(header), indent(body_doc), text("}")])

    def type_text(self, t: ir.TypeRepr) -> str:  # pragma: no cover
        raise NotImplementedError

    def inline_stmt(self, s: ir.StatementRepr) -> str:
        """Statement text without the trailing semicolon, for for-headers."""
        rendered = self.render_stmt(s)
        if "\n" in rendered:
            raise UnsupportedConstruct("for-loop header parts must be single statements")
        return rendered.rstrip(";")

    # -- statement dispatch ---------------------------------------------------

    def stmt(self, s: ir.StatementRepr) -> Doc:
        if isinstance(s, ir.VarDec):
            return self.var_dec_doc(s.var)
        if isinstance(s, ir.VarDecDef):
            return text(f"{self.type_text(s.var.type)} {s.var.name} = {self.expr(s.value)};")
        if isinstance(s, ir.Assign):
            return self.assign_doc(s)
        if isinstance(s, ir.ListSet):
            return text(self.list_set_text(s) + ";")
        if isinstance(s, ir.Return):
            return text(f"return {self.expr(s.value)};")
        if isinstance(s, ir.Throw):
            return text(self.throw_text(s.message))
        if isinstance(s, ir.Free):
            return self.free_doc(s.var)
        if isinstance(s, ir.CommentStmt):
            return comment_doc("//", self.comment_text(s.text))
        if isinstance(s, ir.Break):
            return text("break;")
        if isinstance(s, ir.Continue):
            return text("continue;")
        if isinstance(s, ir.ExprStmt):
            return text(f"{self.expr(s.expr)};")
        if isinstance(s, ir.BlockRepr):
            return self.block(s)
        if isinstance(s, ir.If):
            return self.if_doc(s)
        if isinstance(s, ir.Switch):
            return self.switch_doc(s)
        if isinstance(s, ir.For):
            header = (
                f"for ({self.inline_stmt(s.init)}; {self.expr(s.cond)};"
                f" {self.inline_stmt(s.update)}) {{"
            )
            return self.braced(header, self.body(s.body))
        if isinstance(s, ir.ForRange):
            return self.for_range_doc(s)
        if isinstance(s, ir.ForEach):
            return self.for_each_doc(s)
        if isinstance(s, ir.While):
            return self.braced(f"while ({self.expr(s.cond)}) {{", self.body(s.body))
        if isinstance(s, ir.TryCatch):
            return vcat([
                self.braced("try {", self.body(s.try_body)),
                self.braced(self.catch_header(), self.body(s.catch_body)),
            ])
        if isinstance(s, ir.Print):
            if s.expr.type.is_list:
                return self.print_list_doc(s)
            return self.print_scalar_doc(s)
        if isinstance(s, ir.Read):
            return self.read_doc(s)
        if isinstance(s, ir.ListSlice):
            return self.slice_doc(s)
        if isinstance(s, ir.InOutCall):
            return self.in_out_call_doc(s)
        if isinstance(s, ir.ObserverInit):
            return self.observer_init_doc(s)
        if isinstance(s, ir.ObserverAdd):
            return self.stmt(self._observer_add_stmt(s))
        if isinstance(s, ir.ObserverNotify):
            return self.stmt(self._observer_notify_stmt(s))
        raise UnsupportedConstruct(
            f"{self.target} backend cannot render statement {type(s).__name__}"
        )

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
        pieces: list[Doc] = [text(f"switch ({self.expr(s.value)}) {{")]
        for label, branch in s.cases:
            pieces.append(indent(text(f"case {self.lit(label)}:")))
            pieces.append(indent(indent(vcat([self.body(branch), text("break;")]))))
        if s.default is not None:
            pieces.append(indent(text("default:")))
            pieces.append(indent(indent(self.body(s.default))))
        pieces.append(text("}"))
        return vcat(pieces)

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
        end_text = self.expr(s.end) if s.end is not None else self.list_size(s.source)
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
