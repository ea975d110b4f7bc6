"""Acceptance gate: one test per published claim, one pass/fail line each.

Each criterion runs at its stated tolerance and prints an `ACCEPTANCE ...
PASS` line on success (failures surface as ordinary pytest failures). The
cross-toolchain criterion executes whatever compilers exist locally and
reports the rest skipped; nothing here fakes a pass.
"""

import dataclasses
import shutil
import subprocess
import time

import pytest

import golden_listings as gold
import oracle
from interp import run_package
from oogen import auxfiles, builders as bd, gallery, ir, jsonio, patterns as pt, verify
from oogen.backends import TARGETS, assemble_package, get_backend


@pytest.fixture
def passed(capsys):
    def _report(name: str, detail: str = ""):
        with capsys.disabled():
            print(f"\nACCEPTANCE {name}: PASS {detail}".rstrip())
    return _report


# -- 1. golden listings, byte-exact, < 1 s -------------------------------------------


def _golden_cases():
    ages_int = bd.value_of(bd.var("ages", ir.list_of(ir.INT)))
    age = bd.var("age", ir.INT)
    for_each = bd.for_each(age, ages_int, bd.one_liner(pt.print_ln(bd.value_of(age))))
    sine = pt.math_fn("sin", bd.value_of(bd.var("foo", ir.FLOAT)))
    ages_f = bd.value_of(bd.var("ages", ir.list_of(ir.FLOAT)))
    slice_stmt = pt.list_slice(bd.var("someAges", ir.list_of(ir.FLOAT)), ages_f,
                               start=bd.lit_int(1), end=bd.lit_int(3))
    my_name = bd.value_of(bd.var("myName", ir.list_of(ir.INT)))
    add_return = bd.return_stmt(bd.apply_binary(
        "#+", bd.value_of(bd.var("num1", ir.INT)), bd.value_of(bd.var("num2", ir.INT))))

    def fn(entry, name):
        module = gallery.get(entry).package.modules[0]
        candidates = list(module.functions)
        for c in module.classes:
            candidates.extend(c.methods)
        return next(f for f in candidates if f.name == name)

    cases = []
    for target in TARGETS:
        back = get_backend(target)
        cases.append((f"forEach-{target}",
                      back.render_stmt(for_each).splitlines()[0],
                      gold.FOREACH_FIRST_LINE[target]))
        cases.append((f"sine-{target}", back.expr(sine), gold.SINE_EXPR[target]))
        cases.append((f"applyDiscount-{target}",
                      back.render_method(fn("applyDiscount", "applyDiscount")),
                      gold.APPLY_DISCOUNT[target]))
        cases.append((f"setFoo-{target}",
                      back.render_method(fn("fooClassGetSet", "setFoo")),
                      gold.SET_FOO[target]))
        cases.append((f"addReturn-{target}",
                      back.render_stmt(add_return), gold.ADD_RETURN_LINE[target]))
    cases.append(("argAt-python",
                  get_backend("python").expr(pt.arg_at(bd.lit_int(0))),
                  gold.ARG_AT_PYTHON))
    cases.append(("slice-python",
                  get_backend("python").render_stmt(slice_stmt), gold.SLICE_PYTHON))
    cases.append(("slice-java",
                  get_backend("java").render_stmt(slice_stmt), gold.SLICE_JAVA))
    cases.append(("listPrint-cpp",
                  get_backend("cpp").render_stmt(pt.print_ln(my_name)),
                  gold.LIST_PRINT_CPP))
    return cases


def test_c1_golden_listings_byte_exact(passed):
    start = time.perf_counter()
    cases = _golden_cases()
    for name, rendered, expected in cases:
        assert rendered == expected, name
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"golden sweep took {elapsed:.2f}s, budget 1s"
    passed("1 golden-listings", f"({len(cases)} listings byte-exact in {elapsed * 1000:.0f}ms)")


# -- 2. structural file-set claims ----------------------------------------------------


def test_c2_structural_file_claims(passed):
    # a module whose only function is main yields no C++ header
    hello = gallery.get("helloWorld").package
    assert [f.path for f in assemble_package(hello, "cpp")] == ["HelloWorld.cpp"]

    # an empty module yields no file in any target
    empty = bd.build_module("Empty", [], [], [])
    main = bd.build_module(
        "Main", [], [bd.main_function(bd.one_liner(pt.print_str_ln("hi")))], [])
    pkg = bd.prog("p", [empty, main])
    expected = {
        "python": ["Main.py"],
        "java": ["Main.java"],
        "csharp": ["Main.cs"],
        "cpp": ["Main.cpp"],
    }
    for target in TARGETS:
        assert [f.path for f in assemble_package(pkg, target)] == expected[target], target
    passed("2 structural-claims", "(main-only: no C++ header; empty module: no files)")


# -- 3. parenthesization against the reference oracle, < 30 s --------------------------


def _oracle_to_ir(tree) -> ir.ExprRepr:
    if tree[0] == "lit":
        return bd.lit_int(tree[1])
    op, left, right = tree
    return bd.apply_binary(f"#{op}", _oracle_to_ir(left), _oracle_to_ir(right))


def test_c3_parens_exactly_necessary(passed):
    import random

    start = time.perf_counter()
    py = get_backend("python")

    trees = oracle.enumerate_trees(4)
    assert len(trees) == 1291  # catalan(0..4) x 3 ops per node
    for tree in trees:
        rendered = py.expr(_oracle_to_ir(tree))
        assert oracle.parse(rendered) == tree, rendered
        for pair in oracle.paren_pairs(rendered):
            stripped = oracle.drop_pair(rendered, pair)
            try:
                reparsed = oracle.parse(stripped)
            except oracle.ParseError:
                continue
            assert reparsed != tree, f"redundant parens: {rendered!r} -> {stripped!r}"

    rng = random.Random(1291)
    for _ in range(1000):
        tree = oracle.random_tree(rng, depth=5)
        rendered = py.expr(_oracle_to_ir(tree))
        # CPython is the locally present interpreter for rendered Python
        assert eval(rendered, {"__builtins__": {}}) == oracle.evaluate(tree)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"paren sweep took {elapsed:.2f}s, budget 30s"
    passed("3 parenthesization",
           f"(1291 exhaustive + 1000 random trees in {elapsed:.2f}s)")


# -- 4. pattern semantics, interpreter and rendered Python -----------------------------


def _python_stdout(pkg, args=(), stdin=""):
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        report = verify.run_target(pkg, "python", workdir, args, stdin)
    assert report.status == "ok", report.detail
    return report.stdout


def _agreed_output(pkg, args=(), stdin=""):
    interpreted = verify.normalize_stdout(run_package(pkg, args, stdin))
    if verify.find_toolchain("python"):
        assert _python_stdout(pkg, args, stdin) == interpreted
    return interpreted


def test_c4_pattern_semantics(passed):
    # applyDiscount(25, 10): price 15, isAffordable true
    assert _agreed_output(gallery.get("applyDiscount").package).splitlines() == ["15", "true"]

    # patternTest takes the "On" branch after the state change
    pattern_out = _agreed_output(gallery.get("patternTest").package).splitlines()
    assert pattern_out[0] == "On"

    # fallback fires for a label no branch covers
    fsm = [pt.init_state("s", "Off"), pt.change_state("s", "Loading"),
           pt.check_state("s",
                          [(bd.lit_string("Off"), bd.one_liner(pt.print_str_ln("Off"))),
                           (bd.lit_string("On"), bd.one_liner(pt.print_str_ln("On")))],
                          bd.one_liner(pt.print_str_ln("Neither")))]
    fsm_pkg = bd.prog("p", [bd.build_module(
        "Main", [], [bd.main_function(bd.body([bd.block(fsm)]))], [])])
    assert _agreed_output(fsm_pkg) == "Neither"

    # notify reaches exactly len(observerList) observers
    assert pattern_out.count("printNum") == 2

    # strategy: no token of the unchosen body survives rendering
    chosen = bd.one_liner(pt.print_str_ln("chosenBody"))
    unchosen = bd.one_liner(pt.print_str_ln("unchosenBody"))
    block = pt.run_strategy("a", {"a": chosen, "b": unchosen})
    strat_pkg = bd.prog("p", [bd.build_module(
        "Main", [], [bd.main_function(bd.body([block]))], [])])
    for target in TARGETS:
        blob = "\n".join(f.text for f in get_backend(target).render_package(strat_pkg))
        assert "chosenBody" in blob and "unchosenBody" not in blob, target
    assert _agreed_output(strat_pkg) == "chosenBody"

    passed("4 pattern-semantics",
           "(discount, state branch + fallback, observer count, strategy purity)")


# -- 5. JSON round-trip identity --------------------------------------------------------


def test_c5_json_roundtrip_identity(passed):
    for entry in gallery.ENTRIES:
        assert jsonio.loads(jsonio.dumps(entry.package)) == entry.package, entry.name
    passed("5 json-roundtrip", f"(decode after encode is identity on {len(gallery.ENTRIES)} packages)")


# -- 6. documentation generation ---------------------------------------------------------


def test_c6_doc_generation(passed):
    pkg = gallery.get("applyDiscount").package
    module = pkg.modules[0]
    documented = []
    for f in module.functions:
        if f.name == "applyDiscount":
            f = bd.doc_func("Discount a price.",
                            [("price", "price before discount"),
                             ("discount", "amount to subtract")],
                            "price and the affordability flag", f)
        documented.append(f)
    doc_pkg = dataclasses.replace(
        pkg, modules=(dataclasses.replace(module, functions=tuple(documented)),))

    for target in ("java", "csharp", "cpp"):
        blob = "\n".join(f.text for f in get_backend(target).render_package(doc_pkg))
        assert blob.count("\\param") == 2, target
        assert blob.count("\\return") == 1, target

    makefile = auxfiles.render_makefile(pkg, "java", with_doc_rule=True).text
    assert "doc:" in makefile.splitlines()
    passed("6 doc-generation", "(2 param + 1 return lines x3 targets; Makefile doc: rule)")


# -- 7. cross-language equivalence on whatever toolchains exist, < 2 min -------------------


def test_c7_cross_language_equivalence(passed, tmp_path):
    start = time.perf_counter()
    available = [t for t in TARGETS if verify.find_toolchain(t)]
    skipped = [t for t in TARGETS if t not in available]
    if not available:
        pytest.skip("no target toolchain installed")

    for entry in gallery.ENTRIES:
        report = verify.verify_package(
            entry.package, targets=tuple(available),
            args=entry.args, stdin=entry.stdin,
            root_dir=str(tmp_path / entry.name))
        assert not report.compile_failed, (entry.name, report.summary())
        assert not report.run_failed, (entry.name, report.summary())
        assert report.agree, (entry.name, report.summary())
        expected = verify.normalize_stdout(entry.expected_stdout)
        for run in report.executed:
            assert run.stdout == expected, (entry.name, run.target)

    dox_note = "doxygen skipped"
    if shutil.which("doxygen"):
        workdir = tmp_path / "dox"
        workdir.mkdir()
        config = auxfiles.render_dox_config(gallery.get("applyDiscount").package)
        (workdir / config.path).write_text(config.text)
        done = subprocess.run(["doxygen", config.path], cwd=workdir,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        dox_note = "doxygen config accepted"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"equivalence sweep took {elapsed:.1f}s, budget 120s"
    passed("7 cross-language",
           f"({len(gallery.ENTRIES)} programs on {'+'.join(available)}; "
           f"{'+'.join(skipped) or 'none'} skipped; {dox_note}; {elapsed:.1f}s)")
