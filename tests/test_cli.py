"""CLI behaviour, driven through main() so exit codes are the real ones."""

import json
import os
import subprocess
import sys

import pytest

import oogen
from oogen import builders as bd, cli, gallery, ir, jsonio, patterns as pt, verify
from oogen.errors import UnsupportedConstruct


def test_render_writes_files_and_prints_manifest(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["render", "--input", "example:helloWorld",
                   "--target", "python", "--target", "cpp",
                   "--out", "build"])
    assert rc == 0
    manifest = capsys.readouterr().out.splitlines()
    assert manifest == [
        os.path.join("build", "python", "HelloWorld.py"),
        os.path.join("build", "cpp", "HelloWorld.cpp"),
    ]
    for rel in manifest:
        assert (tmp_path / rel).is_file()


def test_render_repeated_target_writes_once(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["render", "--input", "example:helloWorld",
                   "--target", "python", "--target", "python",
                   "--out", "build"])
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 1


def test_render_aux_flags_add_makefile_and_doxconfig(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["render", "--input", "example:helloWorld",
                   "--target", "java", "--out", "build",
                   "--makefile", "--doc"])
    assert rc == 0
    makefile = (tmp_path / "build" / "java" / "Makefile").read_text()
    assert "doc:\n\tdoxygen doxConfig" in makefile
    assert (tmp_path / "build" / "java" / "doxConfig").is_file()


def test_render_accepts_package_json_file(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pkg_file = tmp_path / "pkg.json"
    pkg_file.write_text(jsonio.dumps(gallery.get("addFunction").package))
    rc = cli.main(["render", "--input", str(pkg_file),
                   "--target", "csharp", "--out", "build"])
    assert rc == 0
    assert (tmp_path / "build" / "csharp" / "AddFunction.cs").is_file()


def test_examples_lists_all_gallery_names(capsys):
    assert cli.main(["examples"]) == 0
    names = capsys.readouterr().out.split()
    assert names == [e.name for e in gallery.ENTRIES]
    assert len(names) == 9


def test_examples_emit_produces_loadable_json(capsys):
    assert cli.main(["examples", "--emit", "patternTest"]) == 0
    out = capsys.readouterr().out
    assert jsonio.loads(out) == gallery.get("patternTest").package
    json.loads(out)  # plain JSON, no trailing junk


@pytest.mark.parametrize("entry", gallery.ENTRIES, ids=lambda e: e.name)
def test_examples_emit_is_the_indented_listing(entry, capsys):
    # dumps is compact by default; --emit stays the listing a person reads
    assert cli.main(["examples", "--emit", entry.name]) == 0
    indented = json.dumps(jsonio.encode_package(entry.package), indent=2) + "\n"
    assert capsys.readouterr().out == indented
    assert jsonio.dumps(entry.package) == json.dumps(jsonio.encode_package(entry.package)) + "\n"


def test_examples_emit_unknown_name_exits_2(capsys):
    assert cli.main(["examples", "--emit", "nosuch"]) == 2
    assert "nosuch" in capsys.readouterr().err


def test_render_unknown_example_exits_2(tmp_path, capsys):
    rc = cli.main(["render", "--input", "example:nosuch",
                   "--target", "python", "--out", str(tmp_path)])
    assert rc == 2
    assert "nosuch" in capsys.readouterr().err


def test_render_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{this is not json")
    rc = cli.main(["render", "--input", str(bad),
                   "--target", "python", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "invalid JSON" in capsys.readouterr().err


def test_render_missing_file_exits_2(tmp_path, capsys):
    rc = cli.main(["render", "--input", str(tmp_path / "absent.json"),
                   "--target", "python", "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "cannot read" in capsys.readouterr().err


def test_unsupported_construct_exits_3(tmp_path, capsys, monkeypatch):
    def boom(pkg, target):
        raise UnsupportedConstruct("no makefile shape for target 'brainfuck'")

    monkeypatch.setattr(cli, "assemble_package", boom)
    rc = cli.main(["render", "--input", "example:helloWorld",
                   "--target", "python", "--out", str(tmp_path)])
    assert rc == 3
    assert "unsupported construct" in capsys.readouterr().err


def test_verify_agreeing_targets_exit_0(tmp_path, capsys):
    rc = cli.main(["verify", "--input", "example:addFunction",
                   "--target", "python", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "python" in out and "ok" in out


def test_verify_all_toolchains_missing_is_clean_skip(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("OOGEN_PYTHON", "/nonexistent/python3")
    rc = cli.main(["verify", "--input", "example:helloWorld",
                   "--target", "python", "--out", str(tmp_path)])
    assert rc == 0
    assert "skipped" in capsys.readouterr().out


def test_verify_reads_stdin_file(tmp_path, capsys):
    stdin_file = tmp_path / "in.txt"
    stdin_file.write_text("-7\n")
    rc = cli.main(["verify", "--input", "example:signTest",
                   "--target", "python",
                   "--stdin", str(stdin_file), "--out", str(tmp_path / "w")])
    assert rc == 0


def test_verify_missing_stdin_file_exits_2(tmp_path, capsys):
    rc = cli.main(["verify", "--input", "example:signTest",
                   "--target", "python",
                   "--stdin", str(tmp_path / "absent.txt")])
    assert rc == 2


def test_verify_passes_program_args(tmp_path, capsys):
    rc = cli.main(["verify", "--input", "example:argsEcho",
                   "--target", "python", "--args", "hello",
                   "--out", str(tmp_path)])
    assert rc == 0


def test_build_error_exits_2_without_traceback(tmp_path, capsys):
    lib = bd.build_module("Lib", [], [bd.function(
        "f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID, [],
        bd.one_liner(pt.print_str_ln("x")))], [])
    src = tmp_path / "lib.json"
    src.write_text(jsonio.dumps(bd.prog("p", [lib])))
    rc = cli.main(["render", "--input", str(src), "--target", "java",
                   "--makefile", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("oogen: ") and "main" in err
    assert "Traceback" not in err


def test_verify_compile_timeout_exits_4(tmp_path, capsys, monkeypatch):
    def timeout(argv, cwd, stdin=""):
        raise subprocess.TimeoutExpired(argv, 60)

    monkeypatch.setenv("OOGEN_CXX", sys.executable)  # any executable will do
    monkeypatch.setattr(verify, "_run_step", timeout)
    rc = cli.main(["verify", "--input", "example:helloWorld", "--target", "cpp",
                   "--out", str(tmp_path)])
    assert rc == 4
    assert "compile-error (timed out)" in capsys.readouterr().out


def test_cli_import_loads_the_benchmarked_modules():
    """`bench/run.py` reports the import self time of these modules from a
    fresh `import oogen.cli`; a module loaded lazily would read as zero."""
    src = os.path.dirname(os.path.dirname(oogen.__file__))
    code = "import sys, oogen.cli; print(*sorted(sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, env=dict(os.environ, PYTHONPATH=src))
    loaded = set(done.stdout.split())
    for name in ("ir", "builders", "jsonio", "verify", "gallery", "backends"):
        assert f"oogen.{name}" in loaded


# What `import oogen.cli` left behind: oogen modules holding a compiled
# pattern, whether the gallery was built, and the `__init__` templates
# compiled against the (field count, post-init) pairs of the record classes.
_STARTUP_PROBE = """
import json, re, sys
import oogen.cli
from oogen import _record
mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "oogen"]
records = [c for m in mods for c in vars(m).values()
           if isinstance(c, type) and "__record_specs__" in vars(c)]
print(json.dumps({
    "patterns": [m.__name__ for m in mods
                 if any(isinstance(v, re.Pattern) for v in vars(m).values())],
    "gallery_built": "ENTRIES" in vars(sys.modules["oogen.gallery"]),
    "templates": _record._init_template.cache_info().misses,
    "shapes": len({(len(c.__match_args__), hasattr(c, "__post_init__")) for c in records}),
}))
"""


def test_cli_import_leaves_out_what_render_never_runs():
    """`import oogen.cli` is most of an `oogen render` run: it must not load
    dataclasses (and with it inspect) or verify's subprocess and difflib,
    compile a regex, build the gallery, or compile more than one `__init__`
    per record shape. `site` loads different modules on different machines,
    so a bare interpreter in the same environment is the baseline."""
    src = os.path.dirname(os.path.dirname(oogen.__file__))
    env = dict(os.environ, PYTHONPATH=src)

    def modules(code: str) -> set[str]:
        done = subprocess.run([sys.executable, "-c", f"import sys{code}; print(*sys.modules)"],
                              capture_output=True, text=True, check=True, env=env)
        return set(done.stdout.split())

    loaded = modules(", oogen.cli") - modules("")
    assert "oogen.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "subprocess", "difflib"}), loaded

    done = subprocess.run([sys.executable, "-c", _STARTUP_PROBE],
                          capture_output=True, text=True, check=True, env=env)
    probe = json.loads(done.stdout)
    assert probe["patterns"] == [] and not probe["gallery_built"], probe
    assert probe["templates"] == probe["shapes"], probe


def test_render_rejects_a_module_name_that_leaves_the_output_directory(tmp_path, capsys):
    doc = jsonio.encode_package(gallery.get("helloWorld").package)
    doc["program"]["modules"][0]["name"] = "../../evil"
    src = tmp_path / "evil.json"
    src.write_text(json.dumps(doc))
    rc = cli.main(["render", "--input", str(src), "--target", "python",
                   "--out", str(tmp_path / "a" / "b")])
    assert rc == 2
    assert "$.program.modules[0].name: not a legal identifier: '../../evil'" in (
        capsys.readouterr().err)
    assert [p.name for p in tmp_path.rglob("*")] == ["evil.json"]
