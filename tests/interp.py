"""Reference interpreter over the IR, independent of every backend.

Executes a package tree directly and returns what it prints, formatted in
the same normalized shape verify.normalize_stdout produces (booleans
lowercase, floats in shortest round-trip form). Pattern-semantics tests
compare rendered-and-executed target output against this.

Deliberately partial: it covers what well-formed trees from the builders
can contain. Int `#/` truncates toward zero, as every target renders it.
An index at or past the end of a list or of the arguments is a runtime
error that a `TryCatch` catches, as a `Throw` is. Constructs whose
behavior differs between targets (division by zero, indexOf on a missing
element, a negative index) raise instead of guessing.
"""

from __future__ import annotations

import math

from oogen import ir


class InterpError(Exception):
    """The interpreter cannot give a single cross-target answer."""


class ProgramThrow(Exception):
    """A Throw statement, or an index past the end, fired and was not caught."""


class _Return(Exception):
    def __init__(self, value):
        self.value = value


class _Break(Exception):
    pass


class _Continue(Exception):
    pass


class Instance:
    def __init__(self, class_name: str):
        self.class_name = class_name
        self.fields: dict[str, object] = {}


def format_value(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "[" + ", ".join(format_value(v) for v in value) + "]"
    return str(value)


def _checked(items: list, index: int) -> int:
    """`index`, if it is one of `items`'. Past the end, Python and Java throw,
    as C++'s `.at` does, so it is a runtime error a catch catches; below 0,
    Python counts from the end, so no single answer exists."""
    if index < 0:
        raise InterpError(f"negative index {index} diverges across targets")
    if index >= len(items):
        raise ProgramThrow(f"index {index} out of range for size {len(items)}")
    return index


_DEFAULTS = {"bool": False, "int": 0, "float": 0.0, "char": " ", "string": ""}


def _default_value(t: ir.TypeRepr) -> object:
    if t.kind == "list":
        return []
    return _DEFAULTS.get(t.kind)


class Interpreter:
    def __init__(self, pkg: ir.PackageTree, args: tuple[str, ...] = (),
                 stdin: str = ""):
        self.functions: dict[str, ir.MethodRepr] = {}
        self.classes: dict[str, ir.ClassDeclRepr] = {}
        for module in pkg.modules:
            for f in module.functions:
                self.functions[f.name] = f
            for c in module.classes:
                self.classes[c.name] = c
        self.args = list(args)
        self.stdin_lines = stdin.splitlines()
        self.out: list[str] = []
        self.statics: dict[tuple[str, str], object] = {}

    # -- entry ---------------------------------------------------------------

    def run(self) -> str:
        main = next((f for f in self.functions.values() if f.is_main), None)
        if main is None:
            raise InterpError("package has no main function")
        self._exec_body(main.body, {}, None)
        return "".join(self.out)

    # -- variables -------------------------------------------------------------

    def _read_var(self, v: ir.VariableRepr, frame: dict, self_obj: Instance | None):
        if v.form == ir.VarForm.PLAIN:
            if v.name not in frame:
                raise InterpError(f"read of unassigned variable {v.name!r}")
            return frame[v.name]
        if v.form == ir.VarForm.SELF:
            return self_obj.fields.get(v.name)
        if v.form == ir.VarForm.OBJECT_MEMBER:
            owner = frame[v.owner]
            return owner.fields.get(v.name)
        if v.form == ir.VarForm.CLASS_MEMBER:
            key = (v.owner, v.name)
            if key not in self.statics:
                # default values differ by target; only assigned statics count
                raise InterpError(f"read of unassigned static {v.owner}.{v.name}")
            return self.statics[key]
        raise InterpError(f"cannot read {v.form} variable {v.name!r}")

    def _write_var(self, v: ir.VariableRepr, value, frame: dict,
                   self_obj: Instance | None) -> None:
        if v.form == ir.VarForm.PLAIN:
            frame[v.name] = value
        elif v.form == ir.VarForm.SELF:
            self_obj.fields[v.name] = value
        elif v.form == ir.VarForm.OBJECT_MEMBER:
            frame[v.owner].fields[v.name] = value
        elif v.form == ir.VarForm.CLASS_MEMBER:
            self.statics[(v.owner, v.name)] = value
        else:
            raise InterpError(f"cannot write {v.form} variable {v.name!r}")

    # -- expressions -----------------------------------------------------------

    def _eval(self, e: ir.ExprRepr, frame: dict, self_obj: Instance | None):
        ev = lambda x: self._eval(x, frame, self_obj)
        if isinstance(e, ir.Lit):
            return e.value
        if isinstance(e, ir.ValueOf):
            return self._read_var(e.var, frame, self_obj)
        if isinstance(e, ir.Unary):
            operand = ev(e.operand)
            if e.op == "?!":
                return not operand
            if e.op == "#~":
                return -operand
            raise InterpError(f"unary operator {e.op}")
        if isinstance(e, ir.Binary):
            op = e.op
            if op == "?&&":
                return ev(e.left) and ev(e.right)
            if op == "?||":
                return ev(e.left) or ev(e.right)
            left, right = ev(e.left), ev(e.right)
            if op == "#+":
                return left + right
            if op == "#-":
                return left - right
            if op == "#*":
                return left * right
            if op == "#/":
                if right == 0:
                    raise InterpError("division by zero diverges across targets")
                if isinstance(left, int) and isinstance(right, int):
                    quotient = abs(left) // abs(right)  # truncated toward zero
                    return quotient if (left < 0) == (right < 0) else -quotient
                return left / right
            if op == "?<":
                return left < right
            if op == "?<=":
                return left <= right
            if op == "?>":
                return left > right
            if op == "?>=":
                return left >= right
            if op == "?==":
                return left == right
            if op == "?!=":
                return left != right
            raise InterpError(f"binary operator {op}")
        if isinstance(e, ir.InlineIf):
            return ev(e.then) if ev(e.cond) else ev(e.other)
        if isinstance(e, ir.MathCall):
            args = [ev(a) for a in e.args]
            if e.fn == "abs":
                return abs(args[0])
            # a float, as the IR types each but abs (Python's floor and ceil give an int)
            return float(getattr(math, e.fn)(*args))
        if isinstance(e, ir.Call):
            return self._call_function(self.functions[e.name], [ev(a) for a in e.args])
        if isinstance(e, ir.NewObj):
            return self._construct(e.name, [ev(a) for a in e.args])
        if isinstance(e, ir.MethodCall):
            receiver = ev(e.receiver)
            return self._call_method(receiver, e.name, [ev(a) for a in e.args])
        if isinstance(e, ir.ArgsList):
            return list(self.args)  # a new list each time, as on every target
        if isinstance(e, ir.ArgAt):
            return self.args[_checked(self.args, ev(e.index))]
        if isinstance(e, ir.ArgExists):
            return len(self.args) > ev(e.index)
        if isinstance(e, ir.ListAccess):
            lst = ev(e.lst)
            return lst[_checked(lst, ev(e.index))]
        if isinstance(e, ir.ListSize):
            return len(ev(e.lst))
        if isinstance(e, ir.ListAppend):
            lst = ev(e.lst)
            lst.append(ev(e.value))
            return lst
        if isinstance(e, ir.ListIndexOf):
            lst, value = ev(e.lst), ev(e.value)
            if value not in lst:
                raise InterpError("indexOf on a missing element diverges across targets")
            return lst.index(value)
        raise InterpError(f"expression {type(e).__name__}")

    # -- calls -----------------------------------------------------------------

    def _call_function(self, func: ir.MethodRepr, values: list):
        frame = {p.name: v for p, v in zip(func.params, values)}
        try:
            self._exec_body(func.body, frame, None)
        except _Return as r:
            return r.value
        return None

    def _construct(self, class_name: str, values: list) -> Instance:
        # No class declares a constructor: no method may be named after its class.
        if values:
            raise InterpError(f"{class_name} has no constructor taking arguments")
        obj = Instance(class_name)
        for sv in self.classes[class_name].state_vars:
            obj.fields[sv.variable.name] = _default_value(sv.variable.type)
        return obj

    def _call_method(self, receiver: Instance, name: str, values: list):
        cls = self.classes[receiver.class_name]
        method = next((m for m in cls.methods if m.name == name), None)
        if method is None:
            raise InterpError(f"{receiver.class_name} has no method {name!r}")
        return self._invoke(receiver, method, values)

    def _invoke(self, obj: Instance, method: ir.MethodRepr, values: list):
        frame = {p.name: v for p, v in zip(method.params, values)}
        try:
            self._exec_body(method.body, frame, obj)
        except _Return as r:
            return r.value
        return None

    # -- statements --------------------------------------------------------------

    def _exec_body(self, body: ir.BodyRepr, frame: dict,
                   self_obj: Instance | None) -> None:
        for block in body.blocks:
            for stmt in block.statements:
                self._exec(stmt, frame, self_obj)

    def _exec(self, s: ir.StatementRepr, frame: dict,
              self_obj: Instance | None) -> None:
        ev = lambda x: self._eval(x, frame, self_obj)
        if isinstance(s, ir.VarDec):
            if s.var.type.kind == "list":  # every target starts a declared list empty
                frame[s.var.name] = []
            else:  # Python renders no scalar declaration: a loop's keeps its value
                frame.setdefault(s.var.name, _default_value(s.var.type))
        elif isinstance(s, ir.VarDecDef):
            self._write_var(s.var, ev(s.value), frame, self_obj)
        elif isinstance(s, ir.Assign):
            if s.mode == ir.AssignMode.SET:
                self._write_var(s.var, ev(s.value), frame, self_obj)
            else:
                current = self._read_var(s.var, frame, self_obj)
                if s.mode == ir.AssignMode.ADD_EQ:
                    current += ev(s.value)
                elif s.mode == ir.AssignMode.SUB_EQ:
                    current -= ev(s.value)
                elif s.mode == ir.AssignMode.INC:
                    current += 1
                else:
                    current -= 1
                self._write_var(s.var, current, frame, self_obj)
        elif isinstance(s, ir.ListSet):
            value, lst = ev(s.value), ev(s.lst)  # in the order Python assigns
            lst[_checked(lst, ev(s.index))] = value
        elif isinstance(s, ir.Return):
            raise _Return(ev(s.value))
        elif isinstance(s, ir.Throw):
            raise ProgramThrow(s.message)
        elif isinstance(s, ir.CommentStmt):
            pass
        elif isinstance(s, ir.Break):
            raise _Break()
        elif isinstance(s, ir.Continue):
            raise _Continue()
        elif isinstance(s, ir.ExprStmt):
            ev(s.expr)
        elif isinstance(s, ir.If):
            for cond, body in s.branches:
                if ev(cond):
                    self._exec_body(body, frame, self_obj)
                    return
            if s.else_body is not None:
                self._exec_body(s.else_body, frame, self_obj)
        elif isinstance(s, ir.Switch):
            for lit, body in s.cases:
                if ev(s.value) == lit.value:
                    self._exec_body(body, frame, self_obj)
                    return
            if s.default is not None:
                self._exec_body(s.default, frame, self_obj)
        elif isinstance(s, ir.For):
            self._exec(s.init, frame, self_obj)
            while ev(s.cond):
                try:
                    self._exec_body(s.body, frame, self_obj)
                except _Break:
                    break
                except _Continue:
                    pass
                self._exec(s.update, frame, self_obj)
        elif isinstance(s, ir.ForRange):
            value = ev(s.start)
            end, step = ev(s.end), ev(s.step)
            while value <= end:  # inclusive bound, same as every backend
                frame[s.var.name] = value
                try:
                    self._exec_body(s.body, frame, self_obj)
                except _Break:
                    break
                except _Continue:
                    pass
                value += step
        elif isinstance(s, ir.ForEach):
            for value in ev(s.iterable):
                frame[s.var.name] = value
                try:
                    self._exec_body(s.body, frame, self_obj)
                except _Break:
                    break
                except _Continue:
                    pass
        elif isinstance(s, ir.While):
            while ev(s.cond):
                try:
                    self._exec_body(s.body, frame, self_obj)
                except _Break:
                    break
                except _Continue:
                    pass
        elif isinstance(s, ir.TryCatch):
            try:
                self._exec_body(s.try_body, frame, self_obj)
            except ProgramThrow:
                self._exec_body(s.catch_body, frame, self_obj)
        elif isinstance(s, ir.Print):
            self.out.append(format_value(ev(s.expr)))
            if s.newline:
                self.out.append("\n")
        elif isinstance(s, ir.Read):
            # targets differ on EOF behaviour (exception vs empty string), so
            # a program that reads past its input has no reference answer
            if not self.stdin_lines:
                raise InterpError("read past end of provided stdin")
            line = self.stdin_lines.pop(0)
            try:
                value = int(line) if s.parse_int else line
            except ValueError:
                raise InterpError(f"read expected an integer line, got {line!r}")
            self._write_var(s.var, value, frame, self_obj)
        elif isinstance(s, ir.ListSlice):
            source = ev(s.source)
            bounds = [None if b is None else ev(b)
                      for b in (s.start, s.end, s.step)]
            frame[s.target.name] = list(source[slice(*bounds)])
        elif isinstance(s, ir.InOutCall):
            self._in_out_call(s, frame, self_obj)
        elif isinstance(s, ir.BlockRepr):
            for inner in s.statements:
                self._exec(inner, frame, self_obj)
        else:
            raise InterpError(f"statement {type(s).__name__}")

    def _in_out_call(self, s: ir.InOutCall, frame: dict,
                     self_obj: Instance | None) -> None:
        func = self.functions[s.name]
        inouts, ins, outs = func.in_out_params
        callee: dict[str, object] = {}
        for decl, actual in zip(ins, s.ins):
            callee[decl.name] = self._eval(actual, frame, self_obj)
        for decl, actual in zip(inouts, s.inouts):
            callee[decl.name] = self._read_var(actual, frame, self_obj)
        try:
            self._exec_body(func.body, callee, None)
        except _Return:
            pass
        # outs and in-outs flow back to the caller's variables
        for decl, actual in zip(outs, s.outs):
            self._write_var(actual, callee.get(decl.name), frame, self_obj)
        for decl, actual in zip(inouts, s.inouts):
            self._write_var(actual, callee.get(decl.name), frame, self_obj)


def run_package(pkg: ir.PackageTree, args: tuple[str, ...] = (),
                stdin: str = "") -> str:
    return Interpreter(pkg, args=args, stdin=stdin).run()
