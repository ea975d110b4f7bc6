"""Each target's lowering, checked by what it means and by what it renders.

`tests/interp.py` prints the same for a package and for `lower(pkg, t)`,
on every target, over the gallery (with each entry's arguments and stdin),
the benchmark's `synth` seeds 1-3 and probes of each lowering: so C#'s
lowered trees run too, though no C# toolchain does here. And each renderer
lowers as `lower` does: rendering `lower(pkg, t)` gives the bytes that
rendering `pkg` gives, and leaves no statement that `t`'s table would still
change. That second check also covers all-tags, which the oracle cannot
run (it calls a library function the package does not define).
"""

import pytest

from oogen import builders as bd, gallery, ir, patterns as pt
from oogen.backends import TARGETS, assemble_package, get_backend

from interp import run_package
from lowering import lower
from test_python_output import PACKAGES, synth_package

I, J = bd.var("i", ir.INT), bd.var("j", ir.INT)


def _main(statements: list) -> ir.PackageTree:
    main = bd.main_function(bd.body([bd.block(statements)]))
    return bd.prog("probe", [bd.build_module("Main", [], [main], [])])


def _list(name: str, elem: ir.TypeRepr, values: list) -> tuple:
    """A list variable, and the statements that declare it and append `values`."""
    xs = bd.var(name, ir.list_of(elem))
    return xs, [bd.var_dec(xs), *[bd.call_stmt(pt.list_append(bd.value_of(xs), v))
                                  for v in values]]


def _op(name: str, left: ir.ExprRepr, right: int) -> ir.ExprRepr:
    return bd.apply_binary(name, left, bd.lit_int(right))


def _show(v: ir.VariableRepr) -> ir.Print:
    return pt.print_ln(bd.value_of(v))


def _reversed_slice():
    xs, declare = _list("xs", ir.INT, [bd.lit_int(v) for v in (10, 20, 30, 40)])
    ys = bd.var("ys", ir.list_of(ir.INT))
    return _main([*declare, bd.var_dec(ys), pt.list_slice(
        ys, bd.value_of(xs), bd.lit_int(3), bd.lit_int(0), bd.lit_int(-1)), _show(ys)])


def _range(start: ir.ExprRepr, end: int, step: ir.ExprRepr, *guard) -> list:
    return [bd.for_range(I, start, bd.lit_int(end), step, bd.body_statements([_show(I), *guard]))]


def _range_down_by_2():
    n = bd.var("n", ir.INT)  # not a literal, so the builders let a step below 0 start low
    stop = bd.if_cond([(_op("?<", bd.value_of(I), -4), bd.one_liner(bd.break_stmt()))])
    return _main([bd.var_dec_def(n, bd.lit_int(0)),
                  *_range(bd.value_of(n), 4, bd.lit_int(-2), stop)])


def _range_by_a_variable():
    k = bd.var("k", ir.INT)
    return _main([bd.var_dec_def(k, bd.lit_int(3)), *_range(bd.lit_int(0), 9, bd.value_of(k))])


def _for_with_continues():
    def skip_at(at):
        return bd.if_cond([(_op("?==", bd.value_of(I), at), bd.one_liner(bd.continue_stmt()))])

    inner = bd.while_loop(_op("?<", bd.value_of(J), 3), bd.body_statements([
        bd.inc(J),
        bd.if_cond([(_op("?==", bd.value_of(J), 2), bd.one_liner(bd.continue_stmt()))]),
        _show(J),
    ]))
    # A lowering that let a `continue` skip the update would loop for ever;
    # `n` stops it, with output that differs.
    n = bd.var("n", ir.INT)
    stop = bd.if_cond([(_op("?>", bd.value_of(n), 9), bd.one_liner(bd.break_stmt()))])
    body = bd.body([
        bd.block([bd.inc(n), stop, skip_at(1)]),
        bd.block([bd.switch(bd.value_of(I), [(bd.lit_int(2), bd.one_liner(skip_at(2)))])]),
        bd.block([bd.try_catch(bd.one_liner(skip_at(3)), bd.one_liner(pt.print_str_ln("no")))]),
        bd.block([bd.var_dec_def(J, bd.lit_int(0)), inner, _show(I)]),
    ])
    return _main([bd.var_dec_def(n, bd.lit_int(0)), bd.for_loop(
        bd.var_dec_def(I, bd.lit_int(0)), _op("?<", bd.value_of(I), 5), bd.inc(I), body)])


def _string_switch():
    s = bd.var("s", ir.STRING)
    cases = [(bd.lit_string(label), bd.one_liner(pt.print_str_ln(f"got {label}")))
             for label in ("a", "b")]
    return _main([bd.var_dec_def(s, bd.lit_string("b")),
                  bd.switch(bd.value_of(s), cases, bd.one_liner(pt.print_str_ln("other")))])


def _nested_lists():
    ones, declare_ones = _list("ones", ir.INT, [bd.lit_int(1), bd.lit_int(2)])
    none, declare_none = _list("none", ir.INT, [])
    words, declare_words = _list("words", ir.STRING, [bd.lit_string("a"), bd.lit_string("b")])
    chars, declare_chars = _list("chars", ir.CHAR, [bd.lit_char("c")])
    both, declare_both = _list("both", ir.list_of(ir.INT),
                               [bd.value_of(ones), bd.value_of(none)])
    nested, declare_nested = _list("nested", ir.list_of(ir.STRING), [bd.value_of(words)])
    return _main([*declare_ones, *declare_none, *declare_words, *declare_chars, *declare_both,
                  *declare_nested, *map(_show, (ones, none, words, chars, both, nested))])


# name -> (package, what the IR's own run prints)
PROBES = {
    "reversed slice": (_reversed_slice, "[40, 30, 20]\n"),
    "range by 2": (lambda: _main(_range(bd.lit_int(0), 6, bd.lit_int(2))), "0\n2\n4\n6\n"),
    "range down by 2": (_range_down_by_2, "0\n-2\n-4\n-6\n"),
    "range by a variable": (_range_by_a_variable, "0\n3\n6\n9\n"),
    "for with continues": (_for_with_continues, "1\n3\n0\n1\n3\n4\n"),
    "string switch": (_string_switch, "got b\n"),
    "nested lists": (_nested_lists, "[1, 2]\n[]\n[a, b]\n[c]\n[[1, 2], []]\n[[a, b]]\n"),
}


@pytest.mark.parametrize("name", PROBES)
def test_each_probe_prints_what_it_means_on_the_ir(name):
    make, expected = PROBES[name]
    assert run_package(make()) == expected


# The C family's slice loop tests `i_temp < end` whatever the step's sign,
# so a slice with a step below 0 takes nothing: CHANGES.md's FOUND line "a
# slice with a negative step differs across targets" (ROADMAP item 11).
_KNOWN = {("reversed slice", target): "slice_as_loop ignores a negative step (FOUND)"
          for target in ("java", "csharp", "cpp")}
_RUNS = [*((e.name, lambda e=e: e.package, e.args, e.stdin) for e in gallery.ENTRIES),
         *((f"synth{seed}", lambda seed=seed: synth_package(seed), (), "") for seed in (1, 2, 3)),
         *((name, make, (), "") for name, (make, _) in PROBES.items())]


def _oracle_params():
    for name, make, args, stdin in _RUNS:
        for target in TARGETS:
            reason = _KNOWN.get((name, target))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(make, args, stdin, target, id=f"{name}-{target}", marks=marks)


@pytest.mark.parametrize("make,args,stdin,target", _oracle_params())
def test_the_oracle_prints_the_same_for_each_lowered_tree(make, args, stdin, target):
    pkg = make()
    assert run_package(lower(pkg, target), args, stdin) == run_package(pkg, args, stdin)


_TREES = [*PACKAGES, *((name, make) for name, (make, _) in PROBES.items())]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("make", [make for _, make in _TREES], ids=[name for name, _ in _TREES])
def test_the_renderer_lowers_as_lower_does(make, target):
    pkg = make()
    lowered, table = lower(pkg, target), type(get_backend(target)).lowerings
    assert assemble_package(lowered, target) == assemble_package(pkg, target)
    assert [s for s in ir.walk(lowered) if type(s) in table and table[type(s)](s) is not s] == []
