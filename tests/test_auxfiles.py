"""Makefiles, Doxygen config, and structured doc comments."""

import pytest

from oogen import auxfiles, builders as bd, gallery, ir, patterns as pt
from oogen.backends import assemble_package, get_backend
from oogen.errors import BuildError, NoMainModule
from oogen.layout import extract


def _pkg():
    return gallery.get("applyDiscount").package


@pytest.mark.parametrize("target,build_line", [
    ("java", "\t$(JC) -encoding UTF-8 ApplyDiscount.java"),
    ("csharp", "\t$(CSC) -out:ApplyDiscount.exe ApplyDiscount.cs"),
    ("cpp", "\t$(CXX) -o ApplyDiscount ApplyDiscount.cpp"),
])
def test_makefile_build_rule_per_target(target, build_line):
    made = auxfiles.render_makefile(_pkg(), target, with_doc_rule=False)
    assert made.path == "Makefile"
    lines = made.text.splitlines()
    assert "build:" in lines
    assert build_line in lines


def test_python_makefile_runs_directly():
    text = auxfiles.render_makefile(_pkg(), "python", with_doc_rule=False).text
    assert "run:\n\t$(PYTHON) ApplyDiscount.py" in text
    assert "build:" not in text  # nothing to compile


def test_run_rule_depends_on_build():
    text = auxfiles.render_makefile(_pkg(), "cpp", with_doc_rule=False).text
    assert "run: build\n\t./ApplyDiscount" in text


def test_cpp_makefile_compiles_sources_not_headers():
    pkg = gallery.get("fooClassGetSet").package
    text = auxfiles.render_makefile(pkg, "cpp", with_doc_rule=False).text
    assert "FooClassGetSet.cpp" in text
    assert ".hpp" not in text


def test_rule_bodies_use_hard_tabs():
    # every recipe line must start with a tab, never spaces
    for target in ("python", "java", "csharp", "cpp"):
        text = auxfiles.render_makefile(_pkg(), target, with_doc_rule=True).text
        recipes = [l for l in text.splitlines() if l and not l[0].isalpha()]
        assert recipes, target
        assert all(l.startswith("\t") for l in recipes), (target, recipes)
        assert "    " not in text, target


def test_doc_flag_adds_doc_rule():
    with_doc = auxfiles.render_makefile(_pkg(), "java", with_doc_rule=True).text
    without = auxfiles.render_makefile(_pkg(), "java", with_doc_rule=False).text
    assert "doc:\n\tdoxygen doxConfig" in with_doc
    assert "doc:" not in without


def test_makefile_without_main_module_refused():
    lonely = bd.build_module("Lib", [], [bd.function(
        "f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [],
        bd.one_liner(pt.print_str_ln("x")))], [])
    with pytest.raises(NoMainModule):
        auxfiles.render_makefile(bd.prog("p", [lonely]), "python", False)


def test_unknown_aux_kind_refused():
    with pytest.raises(BuildError, match="^unknown aux file kind 'changelog'$"):
        bd.package(_pkg(), [ir.AuxFileSpec("changelog")])


def test_dox_config_is_three_settings():
    made = auxfiles.render_dox_config(_pkg())
    assert made.path == "doxConfig"
    assert made.text == (
        'PROJECT_NAME = "ApplyDiscount"\n'
        "INPUT = .\n"
        "EXTRACT_ALL = YES\n"
    )


def test_render_aux_honours_spec_order():
    pkg = bd.package(_pkg(), [ir.AuxFileSpec("doxygen"),
                              ir.AuxFileSpec("makefile", with_doc_rule=True)])
    out = auxfiles.render_aux(pkg, "cpp")
    assert [f.path for f in out] == ["doxConfig", "Makefile"]


# -- doc comments ---------------------------------------------------------------


def _doc_spec():
    return ir.DocSpec(
        "Apply a discount to a price.",
        (("price", "the price before discount"),
         ("discount", "amount to subtract")),
        "whether the result stays affordable",
    )


def test_doc_comment_c_family_shape():
    doc = extract(get_backend("java").doc_comment(_doc_spec()))
    assert doc == (
        "/** \\brief Apply a discount to a price.\n"
        "    \\param price the price before discount\n"
        "    \\param discount amount to subtract\n"
        "    \\return whether the result stays affordable\n"
        "*/\n"
    )


def test_doc_comment_python_uses_hash_lines():
    doc = extract(get_backend("python").doc_comment(_doc_spec()))
    assert doc == (
        "# \\brief Apply a discount to a price.\n"
        "# \\param price the price before discount\n"
        "# \\param discount amount to subtract\n"
        "# \\return whether the result stays affordable\n"
    )


def test_doc_comment_python_keeps_every_line_behind_hash():
    doc = extract(get_backend("python").doc_comment(ir.DocSpec('adds\nprint("leak")')))
    assert doc == '# \\brief adds\n# print("leak")\n'


@pytest.mark.parametrize("target", ["java", "csharp", "cpp"])
def test_doc_comment_text_cannot_close_the_block(target):
    spec = ir.DocSpec("ends here */ int x = 1; /* more", (("x", "a*/"),), "**/")
    doc = extract(get_backend(target).doc_comment(spec))
    assert doc == ("/** \\brief ends here *\\/ int x = 1; /* more\n"
                   "    \\param x a*\\/\n    \\return **\\/\n*/\n")


def test_java_doc_comment_doubles_backslashes_before_escaping_the_end():
    spec = ir.DocSpec("x \\u002a/ y */ z \\")
    assert extract(get_backend("java").doc_comment(spec)) == (
        "/** \\brief x \\\\u002a/ y *\\/ z \\\\\n*/\n")
    assert extract(get_backend("cpp").doc_comment(spec)) == (
        "/** \\brief x \\u002a/ y *\\/ z \\\n*/\n")


def test_doc_comment_absent_renders_nothing():
    assert get_backend("java").doc_comment(None) == ()


def _documented_discount_package():
    import dataclasses

    pkg = gallery.get("applyDiscount").package
    module = pkg.modules[0]
    redone = []
    for fn in module.functions:
        if fn.name == "applyDiscount":
            fn = bd.doc_func(
                "Lower a price and check it stays affordable.",
                [("price", "the price before discounting"),
                 ("discount", "how much to take off")],
                "nothing; price and isAffordable come back through parameters",
                fn,
            )
        redone.append(fn)
    return dataclasses.replace(
        pkg, modules=(dataclasses.replace(module, functions=tuple(redone)),))


def test_documented_function_counts_in_rendered_output():
    # a documented two-param function: exactly 2 \param and 1 \return
    pkg = _documented_discount_package()
    for target in ("java", "csharp", "cpp"):
        blob = "\n".join(f.text for f in get_backend(target).render_package(pkg))
        assert blob.count("\\param") == 2, target
        assert blob.count("\\return") == 1, target
        assert blob.count("\\brief") == 1, target


def _lib_empty_main_package():
    lib = bd.build_module("Lib", [], [bd.function(
        "f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [],
        bd.one_liner(pt.print_str_ln("x")))], [])
    empty = bd.build_module("Empty", [], [], [])
    main = bd.build_module("Main", [], [bd.main_function(
        bd.one_liner(pt.print_str_ln("y")))], [])
    return bd.package(bd.prog("p", [lib, empty, main]), [ir.AuxFileSpec("makefile")])


@pytest.mark.parametrize("target", ["java", "csharp", "cpp"])
def test_makefile_lists_the_rendered_sources(target):
    pkg = _lib_empty_main_package()
    rendered = [f.path for f in get_backend(target).render_package(pkg)
                if not f.path.endswith(".hpp")]
    ext = get_backend(target).extension
    assert rendered == [f"Lib{ext}", f"Main{ext}"]
    text = auxfiles.render_makefile(pkg, target, with_doc_rule=False).text
    assert " ".join(rendered) + "\n" in text


@pytest.mark.parametrize("target", ["python", "java", "csharp", "cpp"])
def test_assemble_with_makefile_renders_once(target, monkeypatch):
    renderer = type(get_backend(target))
    real = renderer.render_package
    calls = []

    def counted(self, pkg):
        calls.append(pkg.name)
        return real(self, pkg)

    monkeypatch.setattr(renderer, "render_package", counted)
    files = assemble_package(_lib_empty_main_package(), target)
    assert "Makefile" in files.paths()
    assert calls == ["p"]
