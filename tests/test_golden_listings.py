"""Byte-exact golden tests for every frozen listing in golden_listings.py.

The IR fixtures mirror the snippets' surrounding programs: applyDiscount and
setFoo are pulled from the example gallery so the test pins the exact trees
that ship, the smaller fragments are rebuilt inline.
"""

import pytest

import golden_listings as gold
from fragment import fragment
from oogen import builders as bd, gallery, ir, patterns as pt
from oogen.backends import TARGETS, get_backend


def _gallery_function(entry: str, name: str) -> ir.MethodRepr:
    module = gallery.get(entry).package.modules[0]
    for f in module.functions:
        if f.name == name:
            return f
    for c in module.classes:
        for m in c.methods:
            if m.name == name:
                return m
    raise AssertionError(f"{name} not found in {entry}")


@pytest.mark.parametrize("target", TARGETS)
def test_for_each_header(target):
    ages = bd.value_of(bd.var("ages", ir.list_of(ir.INT)))
    stmt = bd.for_each(bd.var("age", ir.INT), ages,
                       bd.one_liner(pt.print_ln(bd.value_of(bd.var("age", ir.INT)))))
    rendered = fragment(get_backend(target), stmt)
    assert rendered.splitlines()[0] == gold.FOREACH_FIRST_LINE[target]


@pytest.mark.parametrize("target", TARGETS)
def test_sine_expression(target):
    foo = bd.value_of(bd.var("foo", ir.FLOAT))
    assert get_backend(target).expr(pt.math_fn("sin", foo)) == gold.SINE_EXPR[target]


def test_arg_at_python():
    # program-argument index 0; the renderer folds in Python's script slot
    assert get_backend("python").expr(pt.arg_at(bd.lit_int(0))) == gold.ARG_AT_PYTHON


def _slice_stmt() -> ir.ListSlice:
    ages = bd.value_of(bd.var("ages", ir.list_of(ir.FLOAT)))
    some_ages = bd.var("someAges", ir.list_of(ir.FLOAT))
    return pt.list_slice(some_ages, ages, start=bd.lit_int(1), end=bd.lit_int(3))


def test_slice_python():
    assert fragment(get_backend("python"), _slice_stmt()) == gold.SLICE_PYTHON


def test_slice_java():
    assert fragment(get_backend("java"), _slice_stmt()) == gold.SLICE_JAVA


def test_list_print_cpp():
    my_name = bd.value_of(bd.var("myName", ir.list_of(ir.INT)))
    assert fragment(get_backend("cpp"), pt.print_ln(my_name)) == gold.LIST_PRINT_CPP


@pytest.mark.parametrize("target", TARGETS)
def test_apply_discount(target):
    func = _gallery_function("applyDiscount", "applyDiscount")
    assert fragment(get_backend(target), func) == gold.APPLY_DISCOUNT[target]


@pytest.mark.parametrize("target", TARGETS)
def test_set_foo(target):
    method = _gallery_function("fooClassGetSet", "setFoo")
    assert fragment(get_backend(target), method) == gold.SET_FOO[target]


@pytest.mark.parametrize("target", TARGETS)
def test_add_return_line(target):
    num1 = bd.value_of(bd.var("num1", ir.INT))
    num2 = bd.value_of(bd.var("num2", ir.INT))
    stmt = bd.return_stmt(bd.apply_binary("#+", num1, num2))
    assert fragment(get_backend(target), stmt) == gold.ADD_RETURN_LINE[target]
