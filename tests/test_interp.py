"""Sanity checks for the reference interpreter itself.

The interpreter is the oracle other suites lean on, so it gets its own desk
checks: frozen gallery outputs, control-flow corners, and the cases where it
must refuse to guess (no single cross-target answer exists).
"""

import pytest

from oogen import builders as bd, gallery, ir, patterns as pt

from interp import InterpError, ProgramThrow, format_value, run_package


def _main_package(statements, classes=(), functions=()):
    main = bd.main_function(bd.body([bd.block(statements)]))
    module = bd.build_module("Main", [], [*functions, main], list(classes))
    return bd.prog("demo", [module])


@pytest.mark.parametrize("entry", gallery.ENTRIES, ids=lambda e: e.name)
def test_gallery_entries_reproduce_frozen_output(entry):
    out = run_package(entry.package, entry.args, entry.stdin)
    assert out == entry.expected_stdout


def test_for_range_is_end_inclusive():
    i = bd.var("i", ir.INT)
    loop = bd.for_range(i, bd.lit_int(1), bd.lit_int(3), bd.lit_int(1),
                        bd.one_liner(pt.print_ln(bd.value_of(i))))
    assert run_package(_main_package([loop])) == "1\n2\n3\n"


def test_a_list_declared_in_a_loop_starts_empty_each_pass():
    # The oracle kept the last pass's elements: [1] then [1, 2]; every target
    # prints [1] then [2].
    i, xs = bd.var("i", ir.INT), bd.var("xs", ir.list_of(ir.INT))
    loop = bd.for_range(i, bd.lit_int(1), bd.lit_int(2), bd.lit_int(1), bd.body_statements([
        bd.var_dec(xs),
        bd.call_stmt(pt.list_append(bd.value_of(xs), bd.value_of(i))),
        pt.print_ln(bd.value_of(xs))]))
    assert run_package(_main_package([loop])) == "[1]\n[2]\n"


def test_for_range_respects_step():
    i = bd.var("i", ir.INT)
    loop = bd.for_range(i, bd.lit_int(0), bd.lit_int(6), bd.lit_int(3),
                        bd.one_liner(pt.print_ln(bd.value_of(i))))
    assert run_package(_main_package([loop])) == "0\n3\n6\n"


def test_while_and_break():
    i = bd.var("i", ir.INT)
    body = bd.body_statements([
        bd.if_cond([(bd.apply_binary("?>", bd.value_of(i), bd.lit_int(2)),
                     bd.one_liner(bd.break_stmt()))], None),
        pt.print_ln(bd.value_of(i)),
        bd.inc(i),
    ])
    loop = bd.while_loop(bd.lit_bool(True), body)
    stmts = [bd.var_dec_def(i, bd.lit_int(0)), loop]
    assert run_package(_main_package(stmts)) == "0\n1\n2\n"


def test_continue_skips_rest_of_iteration():
    i = bd.var("i", ir.INT)
    body = bd.body_statements([
        bd.if_cond([(bd.apply_binary("?==", bd.value_of(i), bd.lit_int(1)),
                     bd.one_liner(bd.continue_stmt()))], None),
        pt.print_ln(bd.value_of(i)),
    ])
    loop = bd.for_range(i, bd.lit_int(0), bd.lit_int(2), bd.lit_int(1), body)
    assert run_package(_main_package([loop])) == "0\n2\n"


def test_short_circuit_and_skips_unsafe_right_side():
    # arg_at(0) would fail with no arguments; ?&& must not reach it
    cond = bd.apply_binary(
        "?&&", pt.arg_exists(bd.lit_int(0)),
        bd.apply_binary("?==", pt.arg_at(bd.lit_int(0)), bd.lit_string("x")))
    branch = bd.if_cond([(cond, bd.one_liner(pt.print_str_ln("got x")))],
                        bd.one_liner(pt.print_str_ln("no args")))
    assert run_package(_main_package([branch]), args=()) == "no args\n"


def test_try_catch_catches_thrown_error():
    body = bd.body_statements([
        pt.print_str_ln("before"),
        bd.throw("boom"),
        pt.print_str_ln("unreached"),
    ])
    handler = bd.one_liner(pt.print_str_ln("caught"))
    assert run_package(_main_package([bd.try_catch(body, handler)])) == "before\ncaught\n"


def test_uncaught_throw_escapes_as_program_throw():
    with pytest.raises(ProgramThrow):
        run_package(_main_package([bd.throw("boom")]))


_XS = bd.var("xs", ir.list_of(ir.INT))
# An index each way a program can take one: a list's element, an element
# set, and an argument.
INDEXED = {
    "list access": lambda i: pt.print_ln(pt.list_access(bd.value_of(_XS), i)),
    "list set": lambda i: pt.list_set(bd.value_of(_XS), i, bd.lit_int(7)),
    "argument": lambda i: pt.print_ln(pt.arg_at(i)),
}


def _one_element_list_and(statement):
    return [bd.var_dec(_XS), bd.call_stmt(pt.list_append(bd.value_of(_XS), bd.lit_int(5))),
            statement]


@pytest.mark.parametrize("place", INDEXED)
def test_an_index_past_the_end_is_caught_as_a_throw_is(place):
    # Python, Java and C++ print `caught` for an element past a list's end.
    past = INDEXED[place](bd.lit_int(1))
    caught = bd.try_catch(bd.one_liner(past), bd.one_liner(pt.print_str_ln("caught")))
    assert run_package(_main_package(_one_element_list_and(caught)), args=("a",)) == "caught\n"
    with pytest.raises(ProgramThrow):
        run_package(_main_package(_one_element_list_and(past)), args=("a",))


def test_switch_matches_and_falls_back():
    label = bd.var("label", ir.STRING)
    sw = bd.switch(
        bd.value_of(label),
        [(bd.lit_string("a"), bd.one_liner(pt.print_str_ln("first"))),
         (bd.lit_string("b"), bd.one_liner(pt.print_str_ln("second")))],
        bd.one_liner(pt.print_str_ln("other")),
    )
    base = [bd.var_dec_def(label, bd.lit_string("b")), sw]
    assert run_package(_main_package(base)) == "second\n"
    other = [bd.var_dec_def(label, bd.lit_string("zzz")), sw]
    assert run_package(_main_package(other)) == "other\n"


def test_static_state_var_shared_between_instances():
    count = bd.var("count", ir.INT)
    member = bd.class_var("Counter", "count", ir.INT)
    bump = bd.method("bump", "Counter", ir.Scope.PUBLIC, ir.Binding.DYNAMIC,
                     ir.VOID, [],
                     bd.one_liner(bd.assign(member, bd.apply_binary(
                         "#+", bd.value_of(member), bd.lit_int(1)))))
    cls = bd.build_class(
        "Counter", None, ir.Scope.PUBLIC,
        [bd.state_var(ir.Scope.PUBLIC, ir.Binding.STATIC, count)], [bump])
    a, b = bd.var("a", ir.obj_of("Counter")), bd.var("b", ir.obj_of("Counter"))
    stmts = [
        bd.assign(member, bd.lit_int(0)),
        bd.var_dec_def(a, bd.new_obj("Counter", [])),
        bd.var_dec_def(b, bd.new_obj("Counter", [])),
        bd.call_stmt(bd.method_call(bd.value_of(a), "bump", ir.VOID, [])),
        bd.call_stmt(bd.method_call(bd.value_of(b), "bump", ir.VOID, [])),
        pt.print_ln(bd.value_of(member)),
    ]
    assert run_package(_main_package(stmts, classes=[cls])) == "2\n"


# -- refusals: places with no single cross-target answer ----------------------------


@pytest.mark.parametrize("left,right,quotient", [
    (7, 2, 3), (-7, 2, -3), (7, -2, -3), (-7, -2, 3), (6, 3, 2), (0, -5, 0), (1, 2, 0),
])
def test_int_division_truncates_toward_zero(left, right, quotient):
    e = bd.apply_binary("#/", bd.lit_int(left), bd.lit_int(right))
    assert run_package(_main_package([pt.print_ln(e)])) == f"{quotient}\n"


@pytest.mark.parametrize("left", [bd.lit_int(7), bd.lit_float(7.0)], ids=["int", "float"])
def test_division_by_zero_refused(left):
    e = bd.apply_binary("#/", left, bd.lit_int(0))
    with pytest.raises(InterpError, match="division by zero"):
        run_package(_main_package([pt.print_ln(e)]))


def test_index_of_missing_element_refused():
    xs = bd.var("xs", ir.list_of(ir.INT))
    stmts = [
        bd.var_dec(xs),
        bd.call_stmt(pt.list_append(bd.value_of(xs), bd.lit_int(1))),
        pt.print_ln(pt.index_of(bd.value_of(xs), bd.lit_int(9))),
    ]
    with pytest.raises(InterpError):
        run_package(_main_package(stmts))


@pytest.mark.parametrize("place", INDEXED)
def test_a_negative_index_refused(place):
    # Python counts from the end; Java and C++ throw.
    negative = INDEXED[place](bd.apply_unary("#~", bd.lit_int(1)))
    with pytest.raises(InterpError, match="negative index -1"):
        run_package(_main_package(_one_element_list_and(negative)), args=("a",))


def test_read_past_end_of_stdin_refused():
    n = bd.var("n", ir.INT)
    stmts = [bd.var_dec(n), pt.read_int(n)]
    with pytest.raises(InterpError):
        run_package(_main_package(stmts), stdin="")


# -- value formatting ---------------------------------------------------------------


@pytest.mark.parametrize("value,expected", [
    (True, "true"),
    (False, "false"),
    (3, "3"),
    (2.5, "2.5"),
    ("hi", "hi"),
    ([20.25, 21.75], "[20.25, 21.75]"),
])
def test_format_value_matches_canonical_spelling(value, expected):
    assert format_value(value) == expected
