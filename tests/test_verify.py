"""The cross-target execution harness: normalization, toolchain discovery,
and honest status reporting for compile/runtime/disagreement failures."""

import dataclasses
import os
import subprocess
import sys

import pytest

from oogen import auxfiles, builders as bd, gallery, ir, patterns as pt, verify
from oogen.backends import PythonRenderer, get_backend

from interp import run_package


# -- stdout normalization ----------------------------------------------------------


@pytest.mark.parametrize("raw,expected", [
    ("True\n", "true"),
    ("False", "false"),
    ("a True b\r\nfalse\n", "a true b\nfalse"),
    ("Truer than true", "Truer than true"),  # word boundary, not substring
    ("0.500000\n", "0.5"),  # C++ default float formatting
    ("2.0\n", "2.0"),
    ("1.5e3", "1500.0"),
    ("-7.250\n", "-7.25"),
    ("trailing   \nspaces\t\n", "trailing\nspaces"),
    ("7\n", "7"),  # integers untouched
])
def test_normalize_stdout(raw, expected):
    assert verify.normalize_stdout(raw) == expected


# -- toolchain discovery -----------------------------------------------------------


def test_find_toolchain_prefers_env_override(monkeypatch):
    monkeypatch.setenv("OOGEN_PYTHON", sys.executable)
    assert verify.find_toolchain("python") == (sys.executable,)


def test_find_toolchain_env_override_must_exist(monkeypatch):
    # an override pointing nowhere disables the target rather than
    # silently falling back to PATH
    monkeypatch.setenv("OOGEN_PYTHON", "/nonexistent/python3")
    assert verify.find_toolchain("python") is None


def test_find_toolchain_missing_tool_returns_none(monkeypatch):
    monkeypatch.setenv("OOGEN_JAVAC", "/nonexistent/javac")
    assert verify.find_toolchain("java") is None


def test_find_toolchain_of_an_unknown_target_is_a_value_error():
    with pytest.raises(ValueError, match="unknown target 'cobol'"):
        verify.find_toolchain("cobol")


# -- run_target --------------------------------------------------------------------


def _hello():
    return gallery.get("helloWorld").package


def test_run_target_python_ok(tmp_path):
    report = verify.run_target(_hello(), "python", str(tmp_path))
    assert report.status == "ok"
    assert report.stdout == "Hello, world!"


def test_run_target_skipped_when_toolchain_missing(tmp_path, monkeypatch):
    monkeypatch.setenv("OOGEN_PYTHON", "/nonexistent/python3")
    report = verify.run_target(_hello(), "python", str(tmp_path))
    assert report.status == "skipped"
    assert "python3" in report.detail
    assert report.stdout is None


_SKIPPED = {
    "python": "no python3 on PATH",
    "java": "no javac, java on PATH",
    "csharp": "no mcs or csc, mono on PATH",
    "cpp": "no g++ or c++ or clang++ on PATH",
}


@pytest.mark.parametrize("target", list(_SKIPPED))
def test_run_target_skip_names_every_command_probed(target, tmp_path, monkeypatch):
    monkeypatch.setenv("PATH", "")
    for env in [name for name in os.environ if name.startswith("OOGEN_")]:
        monkeypatch.delenv(env)
    report = verify.run_target(_hello(), target, str(tmp_path))
    assert (report.status, report.detail) == ("skipped", _SKIPPED[target])


def test_run_target_without_main_refused(tmp_path):
    lib = bd.build_module("Lib", [], [bd.function(
        "f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [],
        bd.one_liner(pt.print_str_ln("x")))], [])
    with pytest.raises(verify.NoMainModule):
        verify.run_target(bd.prog("p", [lib]), "python", str(tmp_path))


def test_run_target_runtime_error_reported(tmp_path):
    main = bd.main_function(bd.one_liner(bd.throw("deliberate")))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    report = verify.run_target(pkg, "python", str(tmp_path))
    assert report.status == "runtime-error"
    assert "deliberate" in report.detail


def _broken_python_renderer(monkeypatch):
    """Make the python backend lie so targets disagree."""
    real = verify.get_backend

    class Liar(PythonRenderer):  # the real build and run commands
        def render_package(self, pkg):
            files = real("python").render_package(pkg)
            return [dataclasses.replace(f, text='print("WRONG")\n') for f in files]

    def fake(target):
        return Liar() if target == "python" else real(target)

    monkeypatch.setattr(verify, "get_backend", fake)


def test_disagreement_detected_and_diffed(tmp_path, monkeypatch):
    _broken_python_renderer(monkeypatch)
    report = verify.verify_package(_hello(), targets=("python", "cpp"),
                                   root_dir=str(tmp_path))
    assert [r.status for r in report.runs] == ["ok", "ok"]
    assert not report.agree
    diffs = report.diffs()
    assert len(diffs) == 1
    assert "WRONG" in diffs[0] and "Hello, world!" in diffs[0]
    assert "WRONG" in report.summary()


def _garbled(monkeypatch, target):
    """Make `target`'s backend write text its compiler refuses."""
    real = verify.get_backend

    class Garbler(type(real(target))):  # the real build and run commands
        def render_package(self, pkg):
            files = real(target).render_package(pkg)
            return [dataclasses.replace(f, text="int main( {{{\n") for f in files]

    monkeypatch.setattr(verify, "get_backend",
                        lambda t: Garbler() if t == target else real(t))


def test_a_target_that_fails_to_compile_breaks_agreement(tmp_path, monkeypatch):
    _garbled(monkeypatch, "java")
    report = verify.verify_package(_hello(), targets=("python", "java"),
                                   root_dir=str(tmp_path))
    assert [r.status for r in report.runs] == ["ok", "compile-error"]
    assert len({r.stdout for r in report.executed}) == 1  # the one run printed
    assert not report.agree


@pytest.mark.parametrize("statuses,agree", [
    (("ok", "ok"), True),
    (("ok", "skipped"), True),
    (("skipped", "skipped"), True),
    (("ok", "compile-error"), False),
    (("ok", "runtime-error"), False),
    (("skipped", "runtime-error"), False),
])
def test_agree_counts_every_failed_run_and_no_skipped_one(statuses, agree):
    runs = tuple(verify.ToolReport(target, status, stdout="x" if status == "ok" else None)
                 for target, status in zip(("python", "java"), statuses))
    assert verify.VerifyReport(runs).agree is agree


def test_compile_error_reported(tmp_path, monkeypatch):
    _garbled(monkeypatch, "cpp")
    report = verify.run_target(_hello(), "cpp", str(tmp_path))
    assert report.status == "compile-error"
    assert report.detail  # compiler stderr captured


def test_verify_package_runs_each_target_in_own_dir(tmp_path):
    report = verify.verify_package(_hello(), targets=("python", "cpp"),
                                   root_dir=str(tmp_path))
    assert (tmp_path / "python" / "HelloWorld.py").is_file()
    assert (tmp_path / "cpp" / "HelloWorld.cpp").is_file()
    executed = [r for r in report.runs if r.status == "ok"]
    assert len(executed) == 2
    assert (tmp_path / "cpp" / "HelloWorld").is_file()  # the Makefile's binary name
    assert report.agree


def test_verify_package_cleans_its_own_tempdir():
    import glob

    before = set(glob.glob("/tmp/oogen-verify-*"))
    verify.verify_package(_hello(), targets=("python",))
    after = set(glob.glob("/tmp/oogen-verify-*"))
    assert after == before


def test_summary_mentions_every_requested_target(tmp_path, monkeypatch):
    monkeypatch.setenv("OOGEN_JAVAC", "/nonexistent/javac")
    report = verify.verify_package(_hello(), targets=("python", "java"),
                                   root_dir=str(tmp_path))
    summary = report.summary()
    assert "python" in summary and "java" in summary
    assert "skipped" in summary
    assert "1 executed target(s) agree" in summary


def test_all_skipped_summary_is_explicit(tmp_path, monkeypatch):
    for env in ("OOGEN_PYTHON", "OOGEN_JAVAC", "OOGEN_CSC", "OOGEN_CXX"):
        monkeypatch.setenv(env, "/nonexistent/tool")
    report = verify.verify_package(_hello(), root_dir=str(tmp_path))
    assert report.agree  # vacuously; nothing ran
    assert "nothing executed" in report.summary()


def test_summary_says_nothing_executed_only_when_every_run_was_skipped():
    failed = verify.VerifyReport((verify.ToolReport("java", "compile-error", "javac: boom"),))
    assert failed.summary() == "java    compile-error (javac: boom)"
    skipped = verify.VerifyReport((verify.ToolReport("java", "skipped", "no javac"),))
    assert skipped.summary() == ("java    skipped (no javac)\n"
                                 "no toolchain available; nothing executed")


def test_a_main_that_never_ends_times_out_as_a_runtime_error(tmp_path, monkeypatch):
    main = bd.main_function(bd.one_liner(bd.while_loop(
        bd.lit_bool(True), bd.one_liner(bd.comment("forever")))))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    monkeypatch.setattr(verify, "_STEP_TIMEOUT", 1)
    report = verify.run_target(pkg, "python", str(tmp_path))
    assert (report.status, report.detail) == ("runtime-error", "timed out")


def test_compile_timeout_is_a_compile_error(tmp_path, monkeypatch):
    def timeout(argv, cwd, stdin=""):
        raise subprocess.TimeoutExpired(argv, 60)

    monkeypatch.setenv("OOGEN_CXX", sys.executable)  # any executable will do
    monkeypatch.setattr(verify, "_run_step", timeout)
    report = verify.run_target(_hello(), "cpp", str(tmp_path))
    assert (report.status, report.detail) == ("compile-error", "timed out")


@pytest.mark.parametrize("target", ["java", "cpp"])
def test_verify_compiles_what_the_makefile_builds(target, tmp_path, monkeypatch):
    lib = bd.build_module("Lib", [], [bd.function(
        "f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [],
        bd.one_liner(pt.print_str_ln("x")))], [])
    main = bd.build_module("Main", [], [bd.main_function(
        bd.one_liner(pt.print_str_ln("y")))], [])
    pkg = bd.prog("p", [main, lib])  # modules out of sorted order
    for env in ("OOGEN_JAVAC", "OOGEN_JAVA", "OOGEN_CXX"):
        monkeypatch.setenv(env, sys.executable)  # any executable will do
    steps = []

    def record(argv, cwd, stdin=""):
        steps.append(argv)
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(verify, "_run_step", record)
    assert verify.run_target(pkg, target, str(tmp_path)).status == "ok"
    backend = get_backend(target)
    tools = {f"$({var})": path
             for (var, _, _), path in zip(backend.tools, verify.find_toolchain(target))}
    makefile = auxfiles.render_makefile(pkg, target, with_doc_rule=False).text.splitlines()
    build = makefile[makefile.index("build:") + 1].split()
    assert steps[0] == [tools.get(word, word) for word in build]


def test_a_list_of_text_prints_its_elements_bare_everywhere(tmp_path):
    # Python's print() would quote each string of a list: ['a', 'b'].
    def declared(name, elem, values):
        xs = bd.var(name, ir.list_of(elem))
        return xs, [bd.var_dec(xs), *[bd.call_stmt(pt.list_append(bd.value_of(xs), v))
                                      for v in values]]

    words, declare_words = declared("words", ir.STRING, [bd.lit_string("a"), bd.lit_string("b")])
    chars, declare_chars = declared("chars", ir.CHAR, [bd.lit_char("c")])
    nested, declare_nested = declared("nested", ir.list_of(ir.STRING), [bd.value_of(words)])
    main = bd.main_function(bd.body_statements([
        *declare_words, *declare_chars, *declare_nested,
        *[pt.print_ln(bd.value_of(xs)) for xs in (words, chars, nested)],
    ]))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    assert run_package(pkg) == "[a, b]\n[c]\n[[a, b]]\n"
    report = verify.verify_package(pkg, targets=("python", "java", "cpp"),
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"[a, b]\n[c]\n[[a, b]]"}


def test_public_class_variable_prints_through_print_expr_everywhere(tmp_path):
    count = bd.class_var("Counter", "count", ir.INT)
    counter = bd.build_class("Counter", None, ir.Scope.PUBLIC,
                             [bd.pub_g_var(bd.var("count", ir.INT))], [])
    main = bd.main_function(bd.body_statements([
        bd.assign(count, bd.lit_int(5)),
        pt.print_expr(bd.value_of(count)),
        pt.print_str_ln("!"),
    ]))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [counter])])
    report = verify.verify_package(pkg, targets=("python", "java", "cpp"),
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"5!"}


def test_multiline_comment_stays_a_comment_everywhere(tmp_path):
    main = bd.main_function(bd.body_statements([
        bd.comment('a\nprint("leak")\nSystem.out.println("leak");'),
        pt.print_str_ln("done"),
    ]))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    report = verify.verify_package(pkg, targets=("python", "java", "cpp"),
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"done"}


def test_backslashes_in_comments_stay_in_the_comment_everywhere(tmp_path):
    main = bd.main_function(bd.body_statements([
        bd.comment("path C:\\"),  # C++ splices a line that ends in a backslash
        pt.print_str_ln("first"),
        bd.comment("see C:\\users"),  # javac: illegal unicode escape
        bd.comment('x \\u000a System.out.println("leak");'),  # javac: a line break
        pt.print_str_ln("done"),
    ]))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    report = verify.verify_package(pkg, targets=("python", "java", "cpp"),
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"first\ndone"}


def test_doc_text_stays_a_comment_everywhere(tmp_path):
    main = bd.main_function(bd.one_liner(pt.print_str_ln("hi")))
    module = bd.doc_mod('adds\nprint("leak")', bd.build_module("Main", [], [main], []))
    report = verify.verify_package(bd.prog("p", [module]), targets=("python", "java", "cpp"),
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"hi"}


def test_quoted_throw_message_reaches_stderr_everywhere(tmp_path):
    main = bd.main_function(bd.one_liner(bd.throw('bad "q"')))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    report = verify.verify_package(pkg, targets=("python", "java", "cpp"),
                                   root_dir=str(tmp_path))
    for run in report.runs:
        if run.status != "skipped":
            assert run.status == "runtime-error", run.detail
            assert 'bad "q"' in run.detail


def test_doc_text_cannot_close_the_doc_block_anywhere(tmp_path):
    x = bd.var("x", ir.INT)
    twice = bd.function("twice", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.INT, [bd.param(x)],
                        bd.one_liner(bd.return_stmt(
                            bd.apply_binary("#*", bd.value_of(x), bd.lit_int(2)))))
    twice = bd.doc_func("a */ b", [("x", "c */ d")], "e */ f", twice)
    main = bd.main_function(bd.one_liner(pt.print_ln(bd.func_app("twice", ir.INT,
                                                                  [bd.lit_int(4)]))))
    module = bd.doc_mod("ends here */ int x = 1; /* more",
                        bd.build_module("Main", [], [twice, main], []))
    report = verify.verify_package(bd.prog("p", [module]), targets=("python", "java", "cpp"),
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"8"}


def test_unicode_escape_in_doc_text_cannot_close_the_doc_block(tmp_path):
    main = bd.main_function(bd.one_liner(pt.print_ln(bd.lit_int(8))))
    module = bd.doc_mod("x \\u002a/ int y = 1; /* z",
                        bd.build_module("Main", [], [main], []))
    report = verify.verify_package(bd.prog("p", [module]), targets=("java", "cpp"),
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"8"}


def test_comment_only_bodies_run_everywhere(tmp_path):
    only = bd.one_liner(bd.comment("only"))
    i = bd.var("i", ir.INT)
    main = bd.main_function(bd.body_statements([
        bd.if_cond([(bd.lit_bool(True), only)], only),
        bd.for_range(i, bd.lit_int(0), bd.lit_int(2), bd.lit_int(1), only),
        bd.try_catch(only, only),
        pt.print_str_ln("done"),
    ]))
    report = verify.verify_package(bd.prog("p", [bd.build_module("Main", [], [main], [])]),
                                   targets=("python", "java", "cpp"), root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"done"}


def test_continue_in_a_for_loop_skips_only_the_rest_of_its_body(tmp_path):
    i, j = bd.var("i", ir.INT), bd.var("j", ir.INT)

    def skip_when(v, n):
        return bd.if_cond([(bd.apply_binary("?==", bd.value_of(v), bd.lit_int(n)),
                            bd.one_liner(bd.continue_stmt()))])

    # the inner loop's continue must not run the outer loop's update
    inner = bd.for_range(j, bd.lit_int(0), bd.lit_int(1), bd.lit_int(1), bd.body_statements([
        skip_when(j, 0), pt.print_ln(bd.value_of(j))]))
    loop = bd.for_loop(bd.var_dec_def(i, bd.lit_int(0)),
                       bd.apply_binary("?<", bd.value_of(i), bd.lit_int(3)), bd.inc(i),
                       bd.body_statements([skip_when(i, 1), inner, pt.print_ln(bd.value_of(i))]))
    main = bd.main_function(bd.one_liner(loop))
    report = verify.verify_package(bd.prog("p", [bd.build_module("Main", [], [main], [])]),
                                   targets=("python", "java", "cpp"), root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"1\n0\n1\n2"}


def test_every_for_header_form_and_switch_kind_runs_alike(tmp_path):
    i, j, k = bd.var("i", ir.INT), bd.var("j", ir.INT), bd.var("k", ir.INT)
    xs = bd.var("xs", ir.list_of(ir.INT))
    size, v = pt.list_size(bd.value_of(xs)), bd.var("v", ir.INT)

    def show(e):
        return bd.call_stmt(bd.func_app("show", ir.VOID, [e]))

    def below(var, n):
        return bd.apply_binary("?<", bd.value_of(var), bd.lit_int(n))

    def grow(n):
        return bd.call_stmt(pt.list_append(bd.value_of(xs), bd.lit_int(n)))

    def switch(var, labels, default):
        return bd.switch(bd.value_of(var), [(label, bd.one_liner(pt.print_ln(label)))
                                            for label in labels],
                         bd.one_liner(pt.print_ln(bd.lit_string(default))))

    c, s = bd.var("c", ir.CHAR), bd.var("s", ir.STRING)
    main = bd.main_function(bd.body_statements([
        bd.var_dec_def(j, bd.lit_int(0)), bd.var_dec_def(k, bd.lit_int(0)), bd.var_dec(xs),
        # init: a declaration, an assignment, an append, a call; update: each
        # assignment mode, an append, a call
        bd.for_loop(bd.var_dec_def(i, bd.lit_int(0)), below(i, 2), bd.inc(i),
                    bd.one_liner(pt.print_ln(bd.value_of(i)))),
        bd.for_loop(bd.assign(j, bd.lit_int(9)),
                    bd.apply_binary("?>", bd.value_of(j), bd.lit_int(0)),
                    bd.sub_eq(j, bd.lit_int(4)), bd.one_liner(pt.print_ln(bd.value_of(j)))),
        bd.for_loop(grow(7), bd.apply_binary("?<", size, bd.lit_int(3)), grow(8),
                    bd.one_liner(pt.print_ln(size))),
        bd.for_loop(show(bd.lit_int(100)), below(k, 2), show(bd.value_of(k)),
                    bd.one_liner(bd.inc(k))),
        bd.for_loop(bd.assign(k, bd.lit_int(0)), below(k, 5), bd.add_eq(k, bd.lit_int(3)),
                    bd.one_liner(pt.print_ln(bd.value_of(k)))),
        bd.for_loop(bd.assign(k, bd.lit_int(1)), below(k, 3),
                    bd.assign(k, bd.apply_binary("#*", bd.value_of(k), bd.lit_int(2))),
                    bd.one_liner(bd.dec(j))),
        pt.print_ln(bd.value_of(j)),
        bd.var_dec_def(c, bd.lit_char("b")), bd.var_dec_def(s, bd.lit_string("y")),
        switch(k, [bd.lit_int(3), bd.lit_int(5)], "int default"),
        switch(c, [bd.lit_char("a"), bd.lit_char("b")], "char default"),
        switch(s, [bd.lit_string("x"), bd.lit_string("y")], "string default"),
    ]))
    show_fn = bd.function("show", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [v],
                          bd.one_liner(pt.print_ln(bd.value_of(v))))
    pkg = bd.prog("p", [bd.build_module("Main", [], [show_fn, main], [])])
    report = verify.verify_package(pkg, targets=("python", "java", "cpp"),
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {
        "0\n1\n9\n5\n1\n1\n2\n100\n1\n2\n0\n3\n-5\nint default\nb\ny"}


def test_int_division_truncates_toward_zero_everywhere(tmp_path):
    main = bd.main_function(bd.body_statements([
        pt.print_ln(bd.apply_binary("#/", bd.lit_int(7), bd.lit_int(2))),
        pt.print_ln(bd.apply_binary("#/", bd.lit_int(-7), bd.lit_int(2))),
    ]))
    report = verify.verify_package(bd.prog("p", [bd.build_module("Main", [], [main], [])]),
                                   targets=("python", "java", "cpp"), root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"3\n-3"}


def test_int_division_matches_the_oracle_everywhere(tmp_path):
    prints = [pt.print_ln(bd.apply_binary("#/", bd.lit_int(left), bd.lit_int(right)))
              for left in (7, -7) for right in (2, -2)]
    main = bd.main_function(bd.body_statements(prints))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    oracle = verify.normalize_stdout(run_package(pkg))
    assert oracle == "3\n-3\n-3\n3"
    report = verify.verify_package(pkg, targets=("python", "java", "cpp"), root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {oracle}


def test_integral_float_literal_divides_as_a_float_everywhere(tmp_path):
    # 7.0 / 2 is 3.5 on every target; an integral float result would print
    # as `7` in C++ and `7.0` in Python, so the printed value is not one
    main = bd.main_function(bd.body_statements([
        pt.print_ln(bd.apply_binary("#/", bd.lit_float(7.0), bd.lit_int(2))),
    ]))
    report = verify.verify_package(bd.prog("p", [bd.build_module("Main", [], [main], [])]),
                                   targets=("python", "java", "cpp"), root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"3.5"}


def test_power_of_two_ints_prints_a_float_in_the_oracle_python_and_java(tmp_path):
    # `#^` is typed float on every target. C++ is left out: it prints 2^40
    # as `1.09951e+12`, six significant digits.
    main = bd.main_function(bd.body_statements([
        pt.print_ln(bd.apply_binary("#^", bd.lit_int(2), bd.lit_int(40))),
        pt.print_ln(bd.apply_binary("#^", bd.lit_int(3), bd.lit_int(2))),
    ]))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    assert run_package(pkg) == "1099511627776.0\n9.0\n"
    report = verify.verify_package(pkg, targets=("python", "java"), root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"1099511627776.0\n9.0"}


# Each math function's argument, where every libm's result is exact, so the
# test checks how each target spells and types a call, not how it rounds.
_MATH_ARGS = {"sin": [0.0], "cos": [0.0], "tan": [0.0], "sqrt": [6.25], "abs": [-2.5],
              "floor": [2.5], "ceil": [2.5], "log": [1.0], "exp": [0.0], "pow": [2.0, 10]}


def test_every_math_function_prints_as_the_oracle_on_python_and_java(tmp_path):
    # One call of each function in the math table, then GOOL's `#|`, `#/^`
    # and `#^`. C++ is left out until it prints a double as Python does: it
    # prints floor(2.5) as `2`.
    assert set(_MATH_ARGS) == set(bd.MATH_FNS)
    calls = [pt.math_fn(fn, *[bd.lit_float(a) if type(a) is float else bd.lit_int(a)
                              for a in args]) for fn, args in _MATH_ARGS.items()]
    calls += [bd.apply_unary("#|", bd.lit_int(-4)), bd.apply_unary("#/^", bd.lit_int(9)),
              bd.apply_binary("#^", bd.lit_int(3), bd.lit_int(2))]
    main = bd.main_function(bd.body_statements([pt.print_ln(call) for call in calls]))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    oracle = verify.normalize_stdout(run_package(pkg))
    assert oracle.split("\n") == [
        "0.0", "1.0", "0.0", "2.5", "2.5", "2.0", "3.0", "0.0", "1.0", "1024.0", "4", "3.0", "9.0"]
    report = verify.verify_package(pkg, targets=("python", "java"), root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {oracle}


def _matches_the_oracle_everywhere(tmp_path, statements, functions=(), classes=(),
                                   args=()) -> str:
    """What the oracle prints for a main of `statements`, run with `args`
    beside `functions` and `classes`, once python, java and cpp have
    printed the same."""
    main = bd.main_function(bd.body_statements(statements))
    pkg = bd.prog("p", [bd.build_module("Main", [], [*functions, main], list(classes))])
    oracle = verify.normalize_stdout(run_package(pkg, args))
    report = verify.verify_package(pkg, targets=("python", "java", "cpp"), args=args,
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {oracle}
    return oracle


OFF = bd.var("off", ir.BOOL)


def _off_or(then: int, other: int) -> ir.InlineIf:
    return bd.inline_if(bd.value_of(OFF), bd.lit_int(then), bd.lit_int(other))


def test_range_steps_and_inline_if_bounds_match_the_oracle(tmp_path):
    i, step = bd.var("i", ir.INT), bd.var("step", ir.INT)

    def counting(start, end, by):
        return bd.for_range(i, start, end, by, bd.one_liner(pt.print_ln(bd.value_of(i))))

    oracle = _matches_the_oracle_everywhere(tmp_path, [
        bd.var_dec_def(OFF, bd.lit_bool(False)),
        bd.var_dec_def(step, bd.lit_int(2)),
        counting(bd.lit_int(5), bd.lit_int(1), bd.lit_int(-1)),  # `<=` fails at once
        counting(bd.lit_int(0), bd.lit_int(5), bd.value_of(step)),
        counting(_off_or(9, 1), _off_or(0, 2), bd.lit_int(1)),
        pt.print_str_ln("end"),
    ])
    assert oracle == "0\n2\n4\n1\n2\nend"


def test_inline_if_slice_bounds_match_the_oracle(tmp_path):
    xs, ys = bd.var("xs", ir.list_of(ir.INT)), bd.var("ys", ir.list_of(ir.INT))
    oracle = _matches_the_oracle_everywhere(tmp_path, [
        bd.var_dec_def(OFF, bd.lit_bool(False)),
        bd.var_dec(xs),
        *[bd.call_stmt(pt.list_append(bd.value_of(xs), bd.lit_int(n))) for n in (10, 20, 30, 40)],
        bd.var_dec(ys),
        pt.list_slice(ys, bd.value_of(xs), _off_or(0, 1), _off_or(4, 3)),
        pt.print_ln(bd.value_of(ys)),
    ])
    assert oracle == "[20, 30]"


def test_inline_if_indexes_in_exists_tests_match_the_oracle(tmp_path):
    xs = bd.var("xs", ir.list_of(ir.INT))
    oracle = _matches_the_oracle_everywhere(tmp_path, [
        bd.var_dec_def(OFF, bd.lit_bool(False)),
        bd.var_dec(xs),
        *[bd.call_stmt(pt.list_append(bd.value_of(xs), bd.lit_int(n))) for n in (10, 20)],
        pt.print_ln(pt.list_index_exists(bd.value_of(xs), _off_or(0, 1))),
        pt.print_ln(pt.list_index_exists(bd.value_of(xs), _off_or(0, 2))),
        pt.print_ln(pt.arg_exists(_off_or(0, 4))),
    ])
    assert oracle == "true\nfalse\nfalse"


def test_negating_a_negative_literal_matches_the_oracle_everywhere(tmp_path):
    # Rendered `--8`, javac said "unexpected type" and g++ "lvalue required".
    oracle = _matches_the_oracle_everywhere(tmp_path, [
        pt.print_ln(bd.apply_unary("#~", bd.lit_int(-8))),
        pt.print_ln(bd.apply_unary("#~", bd.lit_float(-0.5))),
    ])
    assert oracle == "8\n0.5"


def test_an_in_out_call_writes_a_member_back_everywhere(tmp_path):
    # Python assigned the bare name: `n = inc(bx.n)`, and printed 5.
    n, bx = bd.var("n", ir.INT), bd.var("bx", ir.obj_of("Box"))
    member = bd.obj_var("bx", "n", ir.INT)
    inc = pt.in_out_func("inc", ir.Scope.PUBLIC, ir.Binding.STATIC, [], [], [n],
                         bd.one_liner(bd.inc(n)))
    box = bd.build_class("Box", None, ir.Scope.PUBLIC, [bd.pub_m_var(n)], [])
    call = pt.in_out_call(inc, [], [], [member])
    assert PythonRenderer().stmt(call) == ("bx.n = inc(bx.n)",)
    assert _matches_the_oracle_everywhere(tmp_path, [
        bd.var_dec_def(bx, bd.new_obj("Box", [])),
        bd.assign(member, bd.lit_int(5)),
        call,
        pt.print_ln(bd.value_of(member)),
    ], functions=[inc], classes=[box]) == "6"


def test_a_loop_over_a_call_runs_everywhere(tmp_path):
    # C++ compared `make().begin()` with `make().end()`, two lists' iterators,
    # and died of a segmentation fault.
    xs, x = bd.var("xs", ir.list_of(ir.INT)), bd.var("x", ir.INT)
    make = bd.function("make", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.list_of(ir.INT), [],
                       bd.body_statements([
                           bd.var_dec(xs),
                           *[bd.call_stmt(pt.list_append(bd.value_of(xs), bd.lit_int(k)))
                             for k in (1, 2)],
                           bd.return_stmt(bd.value_of(xs))]))
    loop = bd.for_each(x, bd.func_app("make", ir.list_of(ir.INT), []), bd.one_liner(
        pt.print_ln(bd.value_of(x))))
    assert get_backend("cpp").stmt(loop)[0] == "for (int x : make()) {"
    assert _matches_the_oracle_everywhere(tmp_path, [loop], functions=[make]) == "1\n2"


def test_the_args_list_holds_the_user_arguments_everywhere(tmp_path):
    # Python counted the program too (`len(sys.argv)`); Java and C++ did not
    # compile `args.size()` and `argv.size()`.
    a = bd.var("a", ir.STRING)
    assert _matches_the_oracle_everywhere(tmp_path, [
        pt.print_ln(pt.list_size(pt.args_list())),
        bd.for_each(a, pt.args_list(), bd.one_liner(pt.print_ln(bd.value_of(a)))),
    ], args=("a", "b")) == "2\na\nb"


def test_unknown_target_is_a_value_error():
    with pytest.raises(ValueError, match="unknown target 'cobol'; expected one of"):
        verify.verify_package(_hello(), targets=("cobol",))
