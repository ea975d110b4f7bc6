"""Design-pattern semantics checked two ways: against the reference
interpreter and against rendered Python actually executed."""

import pytest

from oogen import builders as bd, gallery, ir, patterns as pt, verify
from oogen.errors import UnknownStrategy
from oogen.backends import TARGETS, get_backend

from interp import run_package


def _run_python(pkg, args=(), stdin=""):
    report = verify.run_target(pkg, "python", str(_run_python.tmp), args, stdin)
    assert report.status == "ok", report.detail
    return report.stdout


@pytest.fixture(autouse=True)
def _tmp_workdir(tmp_path):
    _run_python.tmp = tmp_path


def _both_ways(pkg, args=(), stdin=""):
    """Interpreter output and executed-Python output, normalized."""
    interpreted = verify.normalize_stdout(run_package(pkg, args, stdin))
    executed = verify.normalize_stdout(_run_python(pkg, args, stdin))
    assert interpreted == executed
    return interpreted


def _main_package(statements, classes=(), functions=()):
    main = bd.main_function(bd.body([bd.block(statements)]))
    module = bd.build_module("Main", [], [*functions, main], list(classes))
    return bd.prog("demo", [module])


# -- getters / setters ----------------------------------------------------------


def test_get_set_roundtrip():
    foo = bd.var("foo", ir.INT)
    cls = bd.build_class("Box", None, ir.Scope.PUBLIC,
                         [bd.priv_m_var(foo)],
                         [pt.get_method("Box", foo), pt.set_method("Box", foo)])
    box = bd.var("box", ir.obj_of("Box"))
    stmts = [
        bd.var_dec_def(box, bd.new_obj("Box", [])),
        pt.set_(bd.value_of(box), foo, bd.lit_int(41)),
        pt.print_ln(pt.get(bd.value_of(box), foo)),
    ]
    assert _both_ways(_main_package(stmts, classes=[cls])) == "41"


# -- in-out procedures ----------------------------------------------------------


def _discount_package():
    return gallery.get("applyDiscount").package


def test_apply_discount_values():
    # price 25, discount 10 -> remaining 15, affordable under budget 20
    out = _both_ways(_discount_package())
    assert out.splitlines() == ["15", "true"]


def test_in_out_param_order_is_inouts_ins_outs():
    entry = _discount_package()
    fn = next(f for m in entry.modules for f in m.functions
              if f.name == "applyDiscount")
    assert [p.name for p in fn.params] == ["price", "discount", "isAffordable"]
    assert fn.inout == ir.InOutSpec(inouts=1, ins=1)
    assert [[v.name for v in group] for group in fn.in_out_params] == [
        ["price"], ["discount"], ["isAffordable"]]


def test_in_out_caller_sees_all_outputs():
    # one of each kind: inout doubled, out derived from in
    a = bd.var("a", ir.INT)
    b = bd.var("b", ir.INT)
    c = bd.var("c", ir.INT)
    body = bd.body_statements([
        bd.assign(a, bd.apply_binary("#*", bd.value_of(a), bd.lit_int(2))),
        bd.assign(c, bd.apply_binary("#+", bd.value_of(b), bd.lit_int(1))),
    ])
    fn = pt.in_out_func("bump", ir.Scope.PUBLIC, ir.Binding.STATIC,
                        ins=[b], outs=[c], inouts=[a], body_=body)
    x = bd.var("x", ir.INT)
    y = bd.var("y", ir.INT)
    stmts = [
        bd.var_dec_def(x, bd.lit_int(5)),
        bd.var_dec(y),
        pt.in_out_call(fn, ins=[bd.lit_int(10)], outs=[y], inouts=[x]),
        pt.print_ln(bd.value_of(x)),
        pt.print_ln(bd.value_of(y)),
    ]
    out = _both_ways(_main_package(stmts, functions=[fn]))
    assert out.splitlines() == ["10", "11"]


# -- state machine ---------------------------------------------------------------


def _fsm_package(labels_to_print, initial="Off", flip_to=None):
    stmts = [pt.init_state("myFSM", initial)]
    if flip_to is not None:
        stmts.append(pt.change_state("myFSM", flip_to))
    branches = [(bd.lit_string(label), bd.one_liner(pt.print_str_ln(msg)))
                for label, msg in labels_to_print]
    stmts.append(pt.check_state("myFSM", branches,
                                bd.one_liner(pt.print_str_ln("Neither"))))
    return _main_package(stmts)


BRANCHES = [("Off", "Off"), ("On", "On")]


def test_state_machine_takes_changed_branch():
    pkg = _fsm_package(BRANCHES, initial="Off", flip_to="On")
    assert _both_ways(pkg) == "On"


def test_state_machine_initial_branch():
    assert _both_ways(_fsm_package(BRANCHES, initial="Off")) == "Off"


def test_state_machine_unknown_label_falls_through():
    pkg = _fsm_package(BRANCHES, initial="Off", flip_to="Loading")
    assert _both_ways(pkg) == "Neither"


def test_gallery_pattern_entry_hits_on_branch():
    out = _both_ways(gallery.get("patternTest").package)
    lines = out.splitlines()
    assert "On" in lines
    assert "Neither" not in lines


# -- observer --------------------------------------------------------------------


def _observer_package(count):
    num = bd.var("num", ir.INT)
    printer = bd.method("printNum", "Observer", ir.Scope.PUBLIC, ir.Binding.DYNAMIC,
                        ir.VOID, [],
                        bd.one_liner(pt.print_ln(bd.value_of(bd.self_var("num", ir.INT)))))
    cls = bd.build_class("Observer", None, ir.Scope.PUBLIC,
                         [bd.priv_m_var(num)],
                         [pt.set_method("Observer", num), printer])
    obs_t = ir.obj_of("Observer")
    stmts = [pt.init_observer_list(obs_t, [])]
    for i in range(count):
        obs = bd.var(f"obs{i}", obs_t)
        stmts.append(bd.var_dec_def(obs, bd.new_obj("Observer", [])))
        stmts.append(pt.set_(bd.value_of(obs), num, bd.lit_int(i)))
        stmts.append(pt.add_observer(bd.value_of(obs)))
    stmts.append(pt.notify_observers("printNum", obs_t))
    return _main_package(stmts, classes=[cls])


@pytest.mark.parametrize("count", [0, 1, 3])
def test_notify_reaches_every_observer_exactly_once(count):
    out = _both_ways(_observer_package(count))
    lines = out.splitlines() if out else []
    assert lines == [str(i) for i in range(count)]


def test_observer_list_uses_fixed_name():
    text = get_backend("python").render_package(_observer_package(1))[0].text
    assert f"{ir.OBSERVER_LIST_NAME} = []" in text
    assert f"{ir.OBSERVER_LIST_NAME}.append(obs0)" in text


# -- strategy --------------------------------------------------------------------


def _strategy_package(chosen):
    result = bd.var("result", ir.INT)
    strategies = {
        "double": bd.one_liner(bd.comment("strategyDouble marker")),
        "triple": bd.one_liner(bd.comment("strategyTriple marker")),
    }
    values = {"double": bd.lit_int(2 * 7), "triple": bd.lit_int(3 * 7)}
    block = pt.run_strategy(chosen, strategies,
                            result_var=result, result_value=values[chosen])
    stmts = [bd.var_dec(result),
             *block.statements,
             pt.print_ln(bd.value_of(result))]
    return _main_package(stmts)


def test_strategy_runs_only_chosen_body():
    assert _both_ways(_strategy_package("double")) == "14"
    assert _both_ways(_strategy_package("triple")) == "21"


@pytest.mark.parametrize("target", TARGETS)
def test_unchosen_strategy_leaves_no_tokens(target):
    files = get_backend(target).render_package(_strategy_package("double"))
    blob = "\n".join(f.text for f in files)
    assert "strategyDouble" in blob
    assert "strategyTriple" not in blob
    assert "triple" not in blob


def test_unknown_strategy_rejected():
    with pytest.raises(UnknownStrategy):
        pt.run_strategy("halve", {"double": bd.one_liner(bd.comment("x"))})


# -- argument access -------------------------------------------------------------


def test_args_echo_reads_program_arguments():
    pkg = gallery.get("argsEcho").package
    out = _both_ways(pkg, args=("first", "second"))
    assert "first" in out


def test_arg_exists_guards_missing_argument():
    pkg = gallery.get("argsEcho").package
    out = _both_ways(pkg, args=())
    assert out  # fallback branch still prints
    assert "first" not in out


# -- console input ---------------------------------------------------------------


def test_read_int_consumes_stdin():
    n = bd.var("n", ir.INT)
    stmts = [bd.var_dec(n), pt.read_int(n),
             pt.print_ln(bd.apply_binary("#+", bd.value_of(n), bd.lit_int(1)))]
    assert _both_ways(_main_package(stmts), stdin="41\n") == "42"


def test_read_line_consumes_stdin():
    s = bd.var("s", ir.STRING)
    stmts = [bd.var_dec(s), pt.read_line(s), pt.print_ln(bd.value_of(s))]
    assert _both_ways(_main_package(stmts), stdin="hello\n") == "hello"
