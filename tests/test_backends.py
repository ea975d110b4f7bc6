"""Per-target rendering: idiom spellings, module assembly, file pairing."""

import subprocess
import sys
from functools import partial

import pytest

import all_tags
from fragment import fragment
from oogen import builders as bd, gallery, ir, patterns as pt
from oogen.backends import TARGETS, get_backend


def _render(entry_name: str, target: str):
    return get_backend(target).render_package(gallery.get(entry_name).package)


def _only(files, suffix):
    matches = [f for f in files if f.path.endswith(suffix)]
    assert len(matches) == 1, [f.path for f in files]
    return matches[0]


# -- expression spellings -------------------------------------------------------


FOO = bd.var("foo", ir.INT)


@pytest.mark.parametrize("target,expected", [
    ("python", "True and not False"),
    ("java", "true && !false"),
    ("csharp", "true && !false"),
    ("cpp", "true && !false"),
])
def test_logical_spelling(target, expected):
    e = bd.apply_binary("?&&", bd.lit_bool(True), bd.apply_unary("?!", bd.lit_bool(False)))
    assert get_backend(target).expr(e) == expected


@pytest.mark.parametrize("target,expected", [
    ("python", "math.pow(foo, 2)"),
    ("java", "Math.pow(foo, 2)"),
    ("csharp", "Math.Pow(foo, 2)"),
    ("cpp", "pow(foo, 2)"),
])
def test_power_spelling(target, expected):
    e = bd.apply_binary("#^", bd.value_of(FOO), bd.lit_int(2))
    assert get_backend(target).expr(e) == expected


F = bd.var("f", ir.FLOAT)


# `#|` and `#/^` are spelled as library calls on every target, so they bind
# as atoms: a negation or a power around one adds no parentheses.
@pytest.mark.parametrize("target,int_abs,float_abs,sqrt,needs", [
    ("python", "abs(foo)", "abs(f)", "math.sqrt(f)", (set(), set(), {"math"})),
    ("java", "Math.abs(foo)", "Math.abs(f)", "Math.sqrt(f)", (set(), set(), set())),
    ("csharp", "Math.Abs(foo)", "Math.Abs(f)", "Math.Sqrt(f)", ({"System"},) * 3),
    ("cpp", "abs(foo)", "fabs(f)", "sqrt(f)", ({"stdlib.h"}, {"math.h"}, {"math.h"})),
])
def test_abs_and_sqrt_operator_spelling(target, int_abs, float_abs, sqrt, needs):
    foo, f = bd.value_of(FOO), bd.value_of(F)
    trees = (bd.apply_unary("#|", foo), bd.apply_unary("#|", f), bd.apply_unary("#/^", f))
    for tree, expected, needed in zip(trees, (int_abs, float_abs, sqrt), needs):
        backend = get_backend(target)
        assert backend.expr(tree) == expected
        assert backend.needs == needed
        assert get_backend(target).expr(bd.apply_unary("#~", tree)) == f"-{expected}"


def test_python_power_of_an_abs_takes_no_parentheses():
    f = bd.value_of(F)
    e = bd.apply_binary("#^", bd.apply_unary("#|", f), f)
    assert get_backend("python").expr(e) == "math.pow(abs(f), f)"


@pytest.mark.parametrize("target,expected", [
    ("python", "1 if True else 2"),
    ("java", "true ? 1 : 2"),
    ("csharp", "true ? 1 : 2"),
    ("cpp", "true ? 1 : 2"),
])
def test_inline_if_spelling(target, expected):
    e = bd.inline_if(bd.lit_bool(True), bd.lit_int(1), bd.lit_int(2))
    assert get_backend(target).expr(e) == expected


_C = bd.value_of(bd.var("c", ir.BOOL))
_NESTED_INLINE_IFS = (
    bd.inline_if(bd.inline_if(_C, bd.lit_bool(True), bd.lit_bool(False)),
                 bd.lit_int(3), bd.lit_int(4)),
    bd.inline_if(_C, bd.inline_if(_C, bd.lit_int(1), bd.lit_int(2)), bd.lit_int(4)),
    bd.inline_if(_C, bd.lit_int(4), bd.inline_if(_C, bd.lit_int(1), bd.lit_int(2))),
)
_C_FAMILY_NESTED = ("(c ? true : false) ? 3 : 4", "c ? (c ? 1 : 2) : 4", "c ? 4 : c ? 1 : 2")


@pytest.mark.parametrize("target,expected", [
    ("python", ("3 if (True if c else False) else 4", "(1 if c else 2) if c else 4",
                "4 if c else 1 if c else 2")),
    ("java", _C_FAMILY_NESTED),
    ("csharp", _C_FAMILY_NESTED),
    ("cpp", _C_FAMILY_NESTED),
])
def test_an_inline_if_in_an_inline_if_is_wrapped_only_as_condition_or_then(target, expected):
    assert tuple(get_backend(target).expr(e) for e in _NESTED_INLINE_IFS) == expected


@pytest.mark.parametrize("target,expected", [
    ("python", 'fc = FooClass()'),
    ("java", 'FooClass fc = new FooClass();'),
    ("csharp", 'FooClass fc = new FooClass();'),
    ("cpp", 'FooClass fc = FooClass();'),  # value semantics, no new
])
def test_constructor_spelling(target, expected):
    fc = bd.var("fc", ir.obj_of("FooClass"))
    stmt = bd.var_dec_def(fc, bd.new_obj("FooClass", []))
    assert fragment(get_backend(target), stmt) == expected


@pytest.mark.parametrize("target,expected", [
    ("python", 'raise Exception("oops")'),
    ("java", 'throw new Exception("oops");'),
    ("csharp", 'throw new Exception("oops");'),
    ("cpp", 'throw std::runtime_error("oops");'),
])
def test_throw_spelling(target, expected):
    assert fragment(get_backend(target), bd.throw("oops")) == expected


@pytest.mark.parametrize("target,expected", [
    ("python", "foo = int(input())"),
    ("java", "foo = Integer.parseInt(new java.util.Scanner(System.in).nextLine());"),
    ("csharp", "foo = int.Parse(Console.ReadLine());"),
    ("cpp", "std::cin >> foo;"),
])
def test_read_int_spelling(target, expected):
    assert fragment(get_backend(target), pt.read_int(FOO)) == expected


@pytest.mark.parametrize("target,expected", [
    ("python", "foo = foo + 1"),  # no ++ in the language
    ("java", "foo++;"),
    ("csharp", "foo++;"),
    ("cpp", "foo++;"),
])
def test_increment_spelling(target, expected):
    assert fragment(get_backend(target), bd.inc(FOO)) == expected


# One variable of each form: (form, variable).
FORM_VARS = [
    (ir.VarForm.PLAIN, bd.var("x", ir.INT)),
    (ir.VarForm.SELF, bd.self_var("x", ir.INT)),
    (ir.VarForm.CLASS_MEMBER, bd.class_var("Owner", "x", ir.INT)),
    (ir.VarForm.OBJECT_MEMBER, bd.obj_var("obj", "x", ir.INT)),
    (ir.VarForm.EXTERNAL, bd.ext_var("lib", "x", ir.INT)),
]
# Each target's reference to FORM_VARS, in order.
FORM_SPELLINGS = {
    "python": ["x", "self.x", "Owner.x", "obj.x", "lib.x"],
    "java": ["x", "this.x", "Owner.x", "obj.x", "lib.x"],
    "csharp": ["x", "this.x", "Owner.x", "obj.x", "lib.x"],
    "cpp": ["x", "this->x", "Owner::x", "obj.x", "lib::x"],
}


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("index", range(len(FORM_VARS)),
                         ids=[form for form, _ in FORM_VARS])
def test_variable_form_spelling(target, index):
    form, variable = FORM_VARS[index]
    assert variable.form == form
    ref = FORM_SPELLINGS[target][index]
    end = "" if target == "python" else ";"
    backend = get_backend(target)
    assert backend.expr(bd.value_of(variable)) == ref
    assert fragment(backend, bd.assign(variable, bd.lit_int(1))) == f"{ref} = 1{end}"
    assert fragment(backend, bd.add_eq(variable, bd.lit_int(1))) == f"{ref} += 1{end}"
    assert fragment(backend, bd.sub_eq(variable, bd.lit_int(1))) == f"{ref} -= 1{end}"
    step = f"{ref} = {ref} - 1" if target == "python" else f"{ref}--;"
    assert fragment(backend, bd.dec(variable)) == step


def test_python_external_variable_imports_its_module():
    lib_x = bd.ext_var("lib", "x", ir.INT)
    main = bd.main_function(bd.one_liner(pt.print_ln(bd.value_of(lib_x))))
    pkg = bd.prog("P", [bd.build_module("P", [], [main], [])])
    [file] = get_backend("python").render_package(pkg)
    assert file.text == "import lib\n\nprint(lib.x)\n"


def test_cpp_for_each_variable_reads_through_its_iterator():
    x = bd.var("x", ir.INT)
    xs = bd.var("xs", ir.list_of(ir.INT))
    loop = bd.for_each(x, bd.value_of(xs), bd.body_statements(
        [pt.print_ln(bd.value_of(x)), bd.assign(x, bd.lit_int(1))]))
    assert fragment(get_backend("cpp"), loop) == (
        "for (std::vector<int>::iterator x = xs.begin(); x != xs.end(); x++) {\n"
        "    std::cout << (*x) << std::endl;\n"
        "    (*x) = 1;\n"
        "}")


@pytest.mark.parametrize("target,expected", [
    ("python", "len(sys.argv) > 1"),
    ("java", "args.length > 0"),
    ("csharp", "args.Length > 0"),
    ("cpp", "argc > 1"),
])
def test_arg_exists_spelling(target, expected):
    e = pt.arg_exists(bd.lit_int(0))
    assert get_backend(target).expr(e) == expected


OFF = bd.value_of(bd.var("off", ir.BOOL))
OFF_INDEX = bd.inline_if(OFF, bd.lit_int(0), bd.lit_int(4))


@pytest.mark.parametrize("target,index_exists,arg_exists", [
    ("python", "len(xs) > (0 if off else 4)", "len(sys.argv) > (0 if off else 4) + 1"),
    ("java", "xs.size() > (off ? 0 : 4)", "args.length > (off ? 0 : 4)"),
    ("csharp", "xs.Count > (off ? 0 : 4)", "args.Length > (off ? 0 : 4)"),
    ("cpp", "(int)(xs.size()) > (off ? 0 : 4)", "argc > (off ? 0 : 4) + 1"),
])
def test_an_inline_if_index_is_wrapped_in_exists_tests(target, index_exists, arg_exists):
    backend = get_backend(target)
    xs = bd.value_of(bd.var("xs", ir.list_of(ir.INT)))
    assert backend.expr(pt.list_index_exists(xs, OFF_INDEX)) == index_exists
    assert backend.expr(pt.arg_exists(OFF_INDEX)) == arg_exists


def test_csharp_wraps_inline_if_range_and_slice_bounds():
    # C# has no toolchain here; the other targets run these bounds in test_verify
    cs = get_backend("csharp")
    i, xs = bd.var("i", ir.INT), bd.var("xs", ir.list_of(ir.INT))
    loop = bd.for_range(i, bd.lit_int(0), OFF_INDEX, bd.lit_int(-1),
                        bd.one_liner(pt.print_ln(bd.value_of(i))))
    assert fragment(cs, loop).splitlines()[0] == "for (int i = 0; i <= (off ? 0 : 4); i += -1) {"
    sliced = fragment(cs, pt.list_slice(xs, bd.value_of(xs), OFF_INDEX, OFF_INDEX))
    assert sliced.splitlines()[1] == (
        "for (int i_temp = off ? 0 : 4; i_temp < (off ? 0 : 4); i_temp++) {")


@pytest.mark.parametrize("target,expected", [
    ("python", "int(-7 / 2)"),  # `/` alone gives -3.5, `//` floors to -4
    ("java", "-7 / 2"),
    ("csharp", "-7 / 2"),
    ("cpp", "-7 / 2"),
])
def test_int_division_truncates_toward_zero(target, expected):
    e = bd.apply_binary("#/", bd.lit_int(-7), bd.lit_int(2))
    assert get_backend(target).expr(e) == expected


@pytest.mark.parametrize("target", ["python", "java", "csharp", "cpp"])
def test_integral_float_literals_keep_their_point(target):
    # `7 / 2` would divide as ints in Java, C# and C++
    e = bd.apply_binary("#/", bd.lit_float(7.0), bd.lit_int(2))
    assert get_backend(target).expr(e) == "7.0 / 2"
    assert get_backend(target).expr(bd.lit_float(1e16)) == "1e+16"


@pytest.mark.parametrize("target", ["python", "java", "csharp", "cpp"])
def test_a_negated_negative_literal_is_wrapped(target):
    # `--8` is a decrement to javac and g++
    back = get_backend(target)
    assert back.expr(bd.apply_unary("#~", bd.lit_int(-8))) == "-(-8)"
    assert back.expr(bd.apply_unary("#~", bd.lit_float(-0.5))) == "-(-0.5)"
    assert back.expr(bd.apply_unary("#~", bd.lit_int(8))) == "-8"


def test_cpp_print_wraps_only_what_binds_looser_than_its_shift():
    cpp = get_backend("cpp")
    less = bd.apply_binary("?<", bd.lit_int(1), bd.lit_int(2))
    plus = bd.apply_binary("#+", bd.lit_int(1), bd.lit_int(2))
    assert fragment(cpp, pt.print_ln(less)) == (
        "std::cout << std::boolalpha << (1 < 2) << std::endl;")
    assert fragment(cpp, pt.print_ln(plus)) == "std::cout << 1 + 2 << std::endl;"


def test_python_int_division_nests_and_float_division_stays_true():
    py = get_backend("python")
    quotient = bd.apply_binary("#/", bd.value_of(FOO), bd.lit_int(2))
    assert py.expr(bd.apply_binary("#/", quotient, bd.lit_int(3))) == (
        "int(int(foo / 2) / 3)")
    assert py.expr(bd.apply_binary("#*", bd.lit_int(3), quotient)) == (
        "3 * (int(foo / 2))")  # redundant, but harmless
    ratio = bd.apply_binary("#/", bd.value_of(bd.var("r", ir.FLOAT)), bd.lit_int(2))
    assert py.expr(ratio) == "r / 2"


def test_arg_exists_negation_keeps_parens():
    # ArgExists renders as a comparison; a ! parent must wrap it
    e = bd.apply_unary("?!", pt.arg_exists(bd.lit_int(0)))
    assert get_backend("cpp").expr(e) == "!(argc > 1)"
    assert get_backend("python").expr(e) == "not len(sys.argv) > 1"


@pytest.mark.parametrize("target,expected", [
    ("python", "ages[0]"),
    ("java", "ages.get(0)"),
    ("csharp", "ages[0]"),
    ("cpp", "ages.at(0)"),
])
def test_list_access_spelling(target, expected):
    ages = bd.value_of(bd.var("ages", ir.list_of(ir.FLOAT)))
    assert get_backend(target).expr(pt.list_access(ages, bd.lit_int(0))) == expected


@pytest.mark.parametrize("target,expected", [
    ("python", "len(ages)"),
    ("java", "ages.size()"),
    ("csharp", "ages.Count"),
    ("cpp", "(int)(ages.size())"),
])
def test_list_size_spelling(target, expected):
    ages = bd.value_of(bd.var("ages", ir.list_of(ir.FLOAT)))
    assert get_backend(target).expr(pt.list_size(ages)) == expected


@pytest.mark.parametrize("target,expected", [
    ("python", "ages.index(21.75)"),
    ("java", "ages.indexOf(21.75)"),
    ("csharp", "ages.IndexOf(21.75)"),
    ("cpp", "(int)(std::find(ages.begin(), ages.end(), 21.75) - ages.begin())"),
])
def test_index_of_spelling(target, expected):
    ages = bd.value_of(bd.var("ages", ir.list_of(ir.FLOAT)))
    assert get_backend(target).expr(pt.index_of(ages, bd.lit_float(21.75))) == expected


@pytest.mark.parametrize("target,literal,expected", [
    ("python", True, "True"),
    ("java", True, "true"),
    ("csharp", False, "false"),
    ("cpp", False, "false"),
])
def test_bool_literal_spelling(target, literal, expected):
    assert get_backend(target).expr(bd.lit_bool(literal)) == expected


# -- abs splits on operand type in C++ -------------------------------------------


def test_cpp_abs_picks_int_or_float_form():
    b = get_backend("cpp")
    assert b.expr(pt.math_fn("abs", bd.lit_int(-3))) == "abs(-3)"
    assert b.expr(pt.math_fn("abs", bd.lit_float(-3.5))) == "fabs(-3.5)"


# -- module assembly ---------------------------------------------------------------


def test_python_module_imports_are_sorted_and_deduced():
    files = _render("argsEcho", "python")
    text = _only(files, ".py").text
    assert text.startswith("import sys\n\n")
    assert text.count("import sys") == 1


def test_java_module_shape():
    text = _only(_render("applyDiscount", "java"), ".java").text
    assert "public class ApplyDiscount {" in text
    assert "public static void main(String[] args) throws Exception {" in text
    # methods live inside the wrapper class at one indent level
    assert "\n    public static Object[] applyDiscount(int price, int discount) throws Exception {" in text


def test_csharp_module_shape():
    text = _only(_render("applyDiscount", "csharp"), ".cs").text
    assert text.startswith("using System;\n")
    assert "public class ApplyDiscount {" in text
    assert "static void Main(string[] args) {" in text
    assert "out Boolean isAffordable" in text


def test_csharp_list_needs_collections_using():
    text = _only(_render("sliceDemo", "csharp"), ".cs").text
    assert "using System.Collections.Generic;" in text
    assert "List<double> ages = new List<double>(0);" in text


def test_cpp_source_header_pair():
    files = _render("fooClassGetSet", "cpp")
    source = _only(files, ".cpp")
    header = _only(files, ".hpp")
    pkg = gallery.get("fooClassGetSet").package
    assert [path for _, path in get_backend("cpp").source_files(pkg)] == [source.path]
    assert source.text.startswith('#include "FooClassGetSet.hpp"\n')
    assert header.text.startswith("#ifndef FooClassGetSet_HPP\n#define FooClassGetSet_HPP\n")
    assert header.text.rstrip().endswith("#endif")
    assert "class FooClass {" in header.text
    assert "    public:\n        int getFoo();\n        void setFoo(int foo);\n" in header.text
    assert "    private:\n        int foo;\n" in header.text
    # definitions in the source are class-qualified
    assert "int FooClass::getFoo() {" in source.text


def test_cpp_main_only_module_has_no_header():
    files = _render("helloWorld", "cpp")
    assert [f.path for f in files] == ["HelloWorld.cpp"]
    assert "int main(int argc, const char *argv[]) {" in files[0].text
    assert "return 0;" in files[0].text


def test_cpp_system_includes_sorted_after_own_header():
    # class-bearing module: source pulls in its own header first, then system ones
    text = _only(_render("patternTest", "cpp"), ".cpp").text
    include_lines = [l for l in text.splitlines() if l.startswith("#include")]
    assert include_lines[0] == '#include "PatternTest.hpp"'
    system = include_lines[1:]
    assert system == sorted(system)
    # main-only module: system includes only, still sorted
    text = _only(_render("sliceDemo", "cpp"), ".cpp").text
    system = [l for l in text.splitlines() if l.startswith("#include")]
    assert system == sorted(system)
    assert "#include <vector>" in system
    assert "#include <iostream>" in system


def test_empty_module_renders_no_file_anywhere():
    empty = bd.build_module("Empty", [], [], [])
    main = bd.build_module(
        "Main", [], [bd.main_function(bd.one_liner(pt.print_str_ln("hi")))], [])
    package = bd.prog("p", [empty, main])
    for target in TARGETS:
        files = get_backend(target).render_package(package)
        assert all("Empty" not in f.path for f in files), target


def test_every_rendered_file_ends_with_single_newline():
    for entry in gallery.ENTRIES:
        for target in TARGETS:
            for f in get_backend(target).render_package(entry.package):
                assert f.text.endswith("\n") and not f.text.endswith("\n\n"), (
                    entry.name, target, f.path)


def test_blocks_render_with_exactly_one_blank_line():
    first = bd.block([bd.var_dec_def(FOO, bd.lit_int(1))])
    second = bd.block([pt.print_ln(bd.value_of(FOO))])
    main = bd.main_function(bd.body([first, second]))
    module = bd.build_module("Two", [], [main], [])
    text = get_backend("python").render_package(bd.prog("p", [module]))[0].text
    assert "foo = 1\n\nprint(foo)\n" in text
    java = get_backend("java").render_package(bd.prog("p", [module]))[0].text
    assert "        int foo = 1;\n\n        System.out.println(foo);\n" in java


def test_java_switch_on_string_uses_native_switch():
    text = _only(_render("patternTest", "java"), ".java").text
    assert 'switch (myFSM) {' in text
    assert 'case "Off":' in text


def test_cpp_switch_on_string_lowers_to_if_chain():
    text = _only(_render("patternTest", "cpp"), ".cpp").text
    assert 'switch' not in text
    assert 'if (myFSM == "Off") {' in text
    assert "else {" in text


def test_cpp_for_each_over_objects_uses_iterator_calls():
    text = _only(_render("patternTest", "cpp"), ".cpp").text
    assert ("for (std::vector<Observer>::iterator observer = observerList.begin(); "
            "observer != observerList.end(); observer++) {") in text
    assert "observer->printNum();" in text


def test_python_observer_loop_reads_naturally():
    text = _only(_render("patternTest", "python"), ".py").text
    assert "for observer in observerList:\n    observer.printNum()" in text


def test_csharp_private_class_has_no_access_modifier():
    cls = bd.build_class("Helper", None, ir.Scope.PRIVATE, [], [
        bd.method("poke", "Helper", ir.Scope.PUBLIC, ir.Binding.DYNAMIC,
                  ir.VOID, [], bd.one_liner(pt.print_str_ln("hi")))])
    module = bd.build_module("M", [], [], [cls])
    text = get_backend("csharp").render_package(bd.prog("p", [module]))[0].text
    assert "\nclass Helper {" in text
    assert "private class" not in text


def test_java_class_with_parent_extends():
    cls = bd.build_class("Child", "Parent", ir.Scope.PUBLIC, [], [
        bd.method("poke", "Child", ir.Scope.PUBLIC, ir.Binding.DYNAMIC,
                  ir.VOID, [], bd.one_liner(pt.print_str_ln("hi")))])
    module = bd.build_module("M", [], [], [cls])
    text = get_backend("java").render_package(bd.prog("p", [module]))[0].text
    assert "class Child extends Parent {" in text


# A static method takes no receiver: Python gives it `@staticmethod` and no
# `self`, the C family the `static` keyword (in C++, on the prototype).

@pytest.mark.parametrize("target,suffix,expected", [
    ("python", ".py", "    @staticmethod\n    def twice(a):\n        return a + a\n"),
    ("java", ".java", "    public static int twice(int a) throws Exception {\n"),
    ("csharp", ".cs", "    public static int twice(int a) {\n"),
    ("cpp", ".hpp", "        static int twice(int a);\n"),
])
def test_a_static_method_renders_static(target, suffix, expected):
    a = bd.var("a", ir.INT)
    twice = bd.method("twice", "C", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.INT, [bd.param(a)],
                      bd.one_liner(bd.return_stmt(
                          bd.apply_binary("#+", bd.value_of(a), bd.value_of(a)))))
    module = bd.build_module("M", [], [], [bd.build_class("C", None, ir.Scope.PUBLIC, [], [twice])])
    text = _only(get_backend(target).render_package(bd.prog("p", [module])), suffix).text
    assert expected in text
    assert "self" not in text


def test_state_vars_render_before_methods():
    files = _render("fooClassGetSet", "java")
    text = _only(files, ".java").text
    assert text.index("private int foo;") < text.index("public int getFoo()")


# -- text that must stay inside its literal or comment ---------------------------


@pytest.mark.parametrize("target,expected", [
    ("python", 'raise Exception("bad \\"q\\"")'),
    ("java", 'throw new Exception("bad \\"q\\"");'),
    ("csharp", 'throw new Exception("bad \\"q\\"");'),
    ("cpp", 'throw std::runtime_error("bad \\"q\\"");'),
])
def test_throw_message_is_escaped(target, expected):
    assert fragment(get_backend(target), bd.throw('bad "q"')) == expected


@pytest.mark.parametrize("target,marker", [
    ("python", "#"), ("java", "//"), ("csharp", "//"), ("cpp", "//"),
])
def test_multiline_comment_comments_every_line(target, marker):
    render = partial(fragment, get_backend(target))
    assert render(bd.comment("a\nb = 1")) == f"{marker} a\n{marker} b = 1"
    assert render(bd.comment("a\r\nb\rc")) == f"{marker} a\n{marker} b\n{marker} c"
    assert render(bd.comment("one line")) == f"{marker} one line"


@pytest.mark.parametrize("target,expected", [
    ("python", ["# path C:\\", "# see C:\\users"]),
    # javac would read \u as the start of a unicode escape
    ("java", ["// path C:\\\\", "// see C:\\\\users"]),
    ("csharp", ["// path C:\\", "// see C:\\users"]),
    # a line ending in a backslash would splice the next line into the comment
    ("cpp", ["// path C:\\.", "// see C:\\users"]),
])
def test_comment_backslashes_stay_inside_the_comment(target, expected):
    render = partial(fragment, get_backend(target))
    assert [render(bd.comment(t)) for t in ("path C:\\", "see C:\\users")] == expected


# -- Python suites: comment-only bodies, continue in a lowered for loop -----------


I_VAR = bd.var("i", ir.INT)


def _count_to_3(body_: ir.BodyRepr) -> ir.For:
    return bd.for_loop(bd.var_dec_def(I_VAR, bd.lit_int(0)),
                       bd.apply_binary("?<", bd.value_of(I_VAR), bd.lit_int(3)),
                       bd.inc(I_VAR), body_)


def test_python_suite_of_only_comments_gets_pass():
    only = bd.one_liner(bd.comment("only"))
    rendered = fragment(get_backend("python"), bd.if_cond([(bd.lit_bool(True), only)], only))
    assert rendered == "if True:\n    # only\n    pass\nelse:\n    # only\n    pass"
    compile(rendered, "<if>", "exec")


def test_python_continue_in_a_for_loop_runs_the_update_first():
    render = partial(fragment, get_backend("python"))
    assert render(_count_to_3(bd.one_liner(bd.continue_stmt()))) == (
        "i = 0\nwhile i < 3:\n    i = i + 1\n    continue\n    i = i + 1")
    # a nested loop's continue belongs to that loop
    ok = bd.var("ok", ir.BOOL)
    loop = _count_to_3(bd.body_statements([
        bd.while_loop(bd.value_of(ok), bd.one_liner(bd.continue_stmt())),
        bd.if_cond([(bd.value_of(ok), bd.one_liner(bd.continue_stmt()))]),
    ]))
    assert render(loop) == (
        "i = 0\nwhile i < 3:\n"
        "    while ok:\n        continue\n"
        "    if ok:\n        i = i + 1\n        continue\n"
        "    i = i + 1")


def test_python_update_is_placed_before_continue_in_blocks_but_not_in_nested_loops():
    # the update runs before a continue in a block or a switch case, not in
    # any nested loop but a lowered one, which runs its own update
    render, ok = partial(fragment, get_backend("python")), bd.var("ok", ir.BOOL)
    skip, j = bd.one_liner(bd.continue_stmt()), bd.var("j", ir.INT)
    cases = [
        (pt.run_strategy("a", {"a": skip}),
         "    i = i + 1\n    continue\n"),
        (bd.switch(bd.value_of(I_VAR), [(bd.lit_int(1), skip)],
                   bd.one_liner(bd.while_loop(bd.value_of(ok), skip))),
         "    if i == 1:\n        i = i + 1\n        continue\n"
         "    else:\n        while ok:\n            continue\n"),
        (bd.for_each(j, bd.value_of(bd.var("xs", ir.list_of(ir.INT))), skip),
         "    for j in xs:\n        continue\n"),
        (bd.for_range(j, bd.lit_int(0), bd.lit_int(2), bd.lit_int(1), skip),  # native range
         "    for j in range(0, 3):\n        continue\n"),
        (bd.for_range(j, bd.lit_int(2), bd.lit_int(0), bd.lit_int(-1), skip),  # lowered
         "    j = 2\n    while j <= 0:\n        j += -1\n        continue\n        j += -1\n"),
        (bd.for_loop(bd.var_dec_def(j, bd.lit_int(0)), bd.value_of(ok), bd.inc(j), skip),
         "    j = 0\n    while ok:\n        j = j + 1\n        continue\n        j = j + 1\n"),
    ]
    for inner, rendered in cases:
        assert render(_count_to_3(bd.one_liner(inner))) == (
            f"i = 0\nwhile i < 3:\n{rendered}    i = i + 1")


def test_python_update_ends_the_last_block_even_one_that_renders_nothing():
    # A last block that renders nothing (it is empty, or holds only scalar
    # declarations, which Python drops) still holds the update, so the
    # blank line between blocks comes before it.
    render, k = partial(fragment, get_backend("python")), bd.var("k", ir.INT)
    show = bd.block([pt.print_ln(bd.value_of(I_VAR))])
    for last in (bd.block([]), bd.block([bd.var_dec(k)])):
        assert render(_count_to_3(bd.body([show, last]))) == (
            "i = 0\nwhile i < 3:\n    print(i)\n\n    i = i + 1")


def test_all_tags_python_compiles_and_its_for_loop_ends():
    pkg = all_tags.package()
    python = get_backend("python")
    for f in python.render_package(pkg):
        compile(f.text, f.path, "exec")
    main = next(m for m in pkg.modules[0].functions if m.is_main)
    loop = next(s for blk in main.body.blocks for s in blk.statements if isinstance(s, ir.For))
    subprocess.run([sys.executable, "-c", fragment(python, loop)], check=True, timeout=30)
