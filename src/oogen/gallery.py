"""Built-in example programs.

Each entry is a complete package plus the run configuration (argv, stdin)
and the stdout it must produce on every target. Comparisons go through the
verify module's output normalization, so the expected text here is written
in normalized form (booleans lowercase).
"""

from __future__ import annotations

from functools import cache

from . import builders as bd
from . import ir
from . import patterns as pt
from ._record import record


class GalleryEntry(metaclass=record):
    name: str
    description: str
    package: ir.PackageTree
    args: tuple[str, ...] = ()
    stdin: str = ""
    expected_stdout: str = ""


def _single_module(name: str, main_body: ir.BodyRepr,
                   functions: list[ir.MethodRepr] | None = None,
                   classes: list[ir.ClassDeclRepr] | None = None) -> ir.PackageTree:
    module = bd.build_module(
        name, [], (functions or []) + [bd.main_function(main_body)], classes or []
    )
    return bd.prog(name, [module])


def _hello_world() -> GalleryEntry:
    body = bd.body_statements([pt.print_str_ln("Hello, world!")])
    return GalleryEntry(
        "helloWorld", "smallest possible program: print one line",
        _single_module("HelloWorld", body),
        expected_stdout="Hello, world!\n",
    )


def _add_function() -> GalleryEntry:
    num1 = bd.var("num1", ir.INT)
    num2 = bd.var("num2", ir.INT)
    add = bd.function(
        "add", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.INT,
        [bd.param(num1), bd.param(num2)],
        bd.one_liner(bd.return_stmt(
            bd.apply_binary("#+", bd.value_of(num1), bd.value_of(num2))
        )),
    )
    add = bd.doc_func(
        "Adds two numbers",
        [("num1", "first addend"), ("num2", "second addend")],
        "the sum", add,
    )
    result = bd.var("result", ir.INT)
    body = bd.body_statements([
        bd.var_dec_def(result, bd.func_app("add", ir.INT, [bd.lit_int(2), bd.lit_int(3)])),
        pt.print_ln(bd.value_of(result)),
    ])
    return GalleryEntry(
        "addFunction", "documented free function returning a sum",
        _single_module("AddFunction", body, functions=[add]),
        expected_stdout="5\n",
    )


def _sign_test() -> GalleryEntry:
    foo = bd.var("foo", ir.INT)
    body = bd.body_statements([
        bd.var_dec(foo),
        pt.read_int(foo),
        bd.if_cond(
            [
                (bd.apply_binary("?>", bd.value_of(foo), bd.lit_int(0)),
                 bd.one_liner(pt.print_str_ln("foo is positive"))),
                (bd.apply_binary("?<", bd.value_of(foo), bd.lit_int(0)),
                 bd.one_liner(pt.print_str_ln("foo is negative"))),
            ],
            bd.one_liner(pt.print_str_ln("foo is zero")),
        ),
    ])
    return GalleryEntry(
        "signTest", "read an int from stdin and classify its sign",
        _single_module("SignTest", body),
        stdin="-7\n",
        expected_stdout="foo is negative\n",
    )


def _slice_demo() -> GalleryEntry:
    ages = bd.var("ages", ir.list_of(ir.FLOAT))
    some_ages = bd.var("someAges", ir.list_of(ir.FLOAT))
    fill = [
        bd.call_stmt(pt.list_append(bd.value_of(ages), bd.lit_float(v)))
        for v in (18.5, 20.25, 21.75, 19.5)
    ]
    body = bd.body([
        bd.block([bd.var_dec(ages)] + fill),
        bd.block([
            bd.var_dec(some_ages),
            pt.list_slice(some_ages, bd.value_of(ages),
                          start=bd.lit_int(1), end=bd.lit_int(3)),
        ]),
        bd.block([pt.print_ln(bd.value_of(some_ages))]),
    ])
    return GalleryEntry(
        "sliceDemo", "take elements 1..2 of a float list and print them",
        _single_module("SliceDemo", body),
        expected_stdout="[20.25, 21.75]\n",
    )


def _list_print_demo() -> GalleryEntry:
    my_name = bd.var("myName", ir.list_of(ir.INT))
    fill = [
        bd.call_stmt(pt.list_append(bd.value_of(my_name), bd.lit_int(v)))
        for v in (1, 2, 3)
    ]
    body = bd.body([
        bd.block([bd.var_dec(my_name)] + fill),
        bd.block([pt.print_ln(bd.value_of(my_name))]),
    ])
    return GalleryEntry(
        "listPrintDemo", "print a whole list in bracketed form",
        _single_module("ListPrintDemo", body),
        expected_stdout="[1, 2, 3]\n",
    )


def _apply_discount() -> GalleryEntry:
    price = bd.var("price", ir.INT)
    discount = bd.var("discount", ir.INT)
    is_affordable = bd.var("isAffordable", ir.BOOL)
    func_body = bd.body_statements([
        bd.assign(price, bd.apply_binary("#-", bd.value_of(price), bd.value_of(discount))),
        bd.assign(is_affordable, bd.apply_binary("?<", bd.value_of(price), bd.lit_int(20))),
    ])
    apply_discount = pt.in_out_func(
        "applyDiscount", ir.Scope.PUBLIC, ir.Binding.STATIC,
        ins=[discount], outs=[is_affordable], inouts=[price], body_=func_body,
    )
    body = bd.body_statements([
        bd.var_dec_def(price, bd.lit_int(25)),
        bd.var_dec(is_affordable),
        pt.in_out_call(apply_discount, ins=[bd.lit_int(10)],
                       outs=[is_affordable], inouts=[price]),
        pt.print_ln(bd.value_of(price)),
        pt.print_ln(bd.value_of(is_affordable)),
    ])
    return GalleryEntry(
        "applyDiscount", "procedure with in, out, and in-out parameters",
        _single_module("ApplyDiscount", body, functions=[apply_discount]),
        expected_stdout="15\ntrue\n",
    )


def _foo_class_get_set() -> GalleryEntry:
    foo = bd.var("foo", ir.INT)
    foo_class = bd.build_class(
        "FooClass", None, ir.Scope.PUBLIC,
        [bd.priv_m_var(foo)],
        [pt.get_method("FooClass", foo), pt.set_method("FooClass", foo)],
    )
    fc = bd.var("fc", ir.obj_of("FooClass"))
    body = bd.body_statements([
        bd.var_dec_def(fc, bd.new_obj("FooClass", [])),
        pt.set_(bd.value_of(fc), foo, bd.lit_int(5)),
        pt.print_ln(pt.get(bd.value_of(fc), foo)),
    ])
    return GalleryEntry(
        "fooClassGetSet", "class with generated getter and setter",
        _single_module("FooClassGetSet", body, classes=[foo_class]),
        expected_stdout="5\n",
    )


def _pattern_test() -> GalleryEntry:
    n = bd.var("n", ir.INT)
    obs_type = ir.obj_of("Observer")
    obs1 = bd.var("obs1", obs_type)
    obs2 = bd.var("obs2", obs_type)
    print_num = bd.method(
        "printNum", "Observer", ir.Scope.PUBLIC, ir.Binding.DYNAMIC,
        ir.VOID, [], bd.one_liner(pt.print_str_ln("printNum")),
    )
    observer_class = bd.build_class("Observer", None, ir.Scope.PUBLIC, [], [print_num])
    state_block = bd.block([
        bd.var_dec(n),
        pt.init_state("myFSM", "Off"),
        pt.change_state("myFSM", "On"),
        pt.check_state(
            "myFSM",
            [
                (bd.lit_string("Off"), bd.one_liner(pt.print_str_ln("Off"))),
                (bd.lit_string("On"), bd.one_liner(pt.print_str_ln("On"))),
            ],
            bd.one_liner(pt.print_str_ln("Neither")),
        ),
    ])
    obs_decls = bd.block([
        bd.var_dec_def(obs1, bd.new_obj("Observer", [])),
        bd.var_dec_def(obs2, bd.new_obj("Observer", [])),
    ])
    obs_use = bd.block([
        pt.init_observer_list(obs_type, [bd.value_of(obs1)]),
        pt.add_observer(bd.value_of(obs2)),
        pt.notify_observers("printNum", obs_type),
    ])
    body = bd.body([state_block, obs_decls, obs_use])
    return GalleryEntry(
        "patternTest", "state machine plus observer list in one main",
        _single_module("PatternTest", body, classes=[observer_class]),
        expected_stdout="On\nprintNum\nprintNum\n",
    )


def _args_echo() -> GalleryEntry:
    body = bd.body_statements([
        bd.if_cond(
            [(pt.arg_exists(bd.lit_int(0)),
              bd.one_liner(pt.print_ln(pt.arg_at(bd.lit_int(0)))))],
            bd.one_liner(pt.print_str_ln("none")),
        ),
    ])
    return GalleryEntry(
        "argsEcho", "echo the first command-line argument",
        _single_module("ArgsEcho", body),
        args=("hello",),
        expected_stdout="hello\n",
    )


# `ENTRIES`, the nine entries in listing order, is built when first read
# (through the module `__getattr__`), so importing the gallery builds nothing:
# `oogen render` of a JSON file never uses it.
ENTRIES: tuple[GalleryEntry, ...]


@cache
def _entries() -> tuple[GalleryEntry, ...]:
    return (
        _hello_world(),
        _add_function(),
        _sign_test(),
        _slice_demo(),
        _list_print_demo(),
        _apply_discount(),
        _foo_class_get_set(),
        _pattern_test(),
        _args_echo(),
    )


def __getattr__(name: str):
    if name == "ENTRIES":
        return _entries()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def names() -> list[str]:
    return [entry.name for entry in _entries()]


def get(name: str) -> GalleryEntry:
    for entry in _entries():
        if entry.name == name:
            return entry
    raise KeyError(f"no example named {name!r}; known examples: {', '.join(names())}")
