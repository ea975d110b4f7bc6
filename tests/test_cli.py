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


def test_render_doc_flag_adds_the_doc_rule_to_a_listed_makefile(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    data = jsonio.encode_package(gallery.get("helloWorld").package)
    data["aux"] = [{"kind": "makefile"}]
    (tmp_path / "pkg.json").write_text(json.dumps(data))
    rc = cli.main(["render", "--input", "pkg.json", "--target", "java", "--out", "build",
                   "--makefile", "--doc"])
    assert rc == 0
    makefile = (tmp_path / "build" / "java" / "Makefile").read_text()
    assert makefile.endswith("doc:\n\tdoxygen doxConfig\n")
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


def test_verify_of_a_main_that_throws_exits_1(tmp_path, capsys):
    main = bd.main_function(bd.one_liner(bd.throw("deliberate")))
    src = tmp_path / "throws.json"
    src.write_text(jsonio.dumps(bd.prog("p", [bd.build_module("Main", [], [main], [])])))
    rc = cli.main(["verify", "--input", str(src), "--target", "python",
                   "--out", str(tmp_path / "w")])
    assert rc == 1
    assert "python  runtime-error" in capsys.readouterr().out


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


def _src_env() -> dict:
    return dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(oogen.__file__)))


def _modules(code: str, env: dict) -> set[str]:
    """`sys.modules` of a fresh interpreter after `code` runs."""
    done = subprocess.run([sys.executable, "-c", f"import sys\n{code}\nprint(*sys.modules)"],
                          capture_output=True, text=True, check=True, env=env)
    return set(done.stdout.split())


def test_cli_import_loads_the_benchmarked_modules():
    """`bench/run.py` reports the import self time of these modules from a
    fresh `import oogen.cli`; a module loaded lazily would read as zero."""
    loaded = _modules("import oogen.cli", _src_env())
    for name in ("ir", "builders", "jsonio", "verify", "gallery", "backends"):
        assert f"oogen.{name}" in loaded


def test_package_names_load_on_first_use():
    env = _src_env()
    loaded = _modules("import oogen.ir", env)
    assert "oogen.ir" in loaded
    assert loaded.isdisjoint({"oogen.backends", "oogen.jsonio", "oogen.gallery",
                              "oogen.verify"}), loaded
    loaded = _modules(f"from oogen import {', '.join(oogen.__all__)}\n"
                      "from oogen import backends, errors\n"
                      "assert TARGETS is backends.TARGETS and get_backend is backends.get_backend\n"
                      "assert DecodeError is errors.DecodeError", env)
    for name in ("builders", "gallery", "ir", "jsonio", "patterns", "verify"):
        assert f"oogen.{name}" in loaded
    with pytest.raises(AttributeError, match="nosuch"):
        oogen.nosuch


# What `import oogen.cli` left behind: oogen modules holding a compiled
# pattern, whether the gallery was built, and the `__init__` templates
# compiled against the (field count, post-init) pairs of the record classes.
_STARTUP_PROBE = """
import json, re, sys
import oogen.cli, oogen.gallery, oogen.verify
from oogen import _record
mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "oogen"]
records = [c for m in mods for c in vars(m).values()
           if isinstance(c, type) and "__record_specs__" in vars(c)]
print(json.dumps({
    "patterns": [m.__name__ for m in mods
                 if any(isinstance(v, re.Pattern) for v in vars(m).values())],
    "gallery_built": "ENTRIES" in vars(oogen.gallery),
    "templates": _record._init_template.cache_info().misses,
    "shapes": len({(len(c.__match_args__), hasattr(c, "__post_init__")) for c in records}),
}))
"""


def test_cli_import_leaves_out_what_render_never_runs(tmp_path):
    """`import oogen.cli` is most of an `oogen render` run: it must not load
    dataclasses (and with it inspect) or verify's subprocess and difflib,
    compile a regex, build the gallery, or compile more than one `__init__`
    per record shape. A whole render must not load argparse, getopt or
    gettext (and with it locale). `site` loads different modules on
    different machines, so a bare interpreter in the same environment is
    the baseline."""
    env = _src_env()
    bare = _modules("", env)
    loaded = _modules("import oogen.cli", env) - bare
    assert "oogen.cli" in loaded
    assert loaded.isdisjoint({"dataclasses", "inspect", "subprocess", "difflib"}), loaded

    src = tmp_path / "pkg.json"
    src.write_text(jsonio.dumps(gallery.get("patternTest").package))
    argv = ["render", "--input", str(src), *(f"--target={t}" for t in oogen.TARGETS),
            "--makefile", "--doc", "--out", str(tmp_path / "out")]
    rendered = _modules(f"from oogen.cli import main\nassert main({argv!r}) == 0", env) - bare
    assert "oogen.backends.cpp" in rendered and (tmp_path / "out" / "cpp" / "Makefile").is_file()
    never = {"argparse", "getopt", "gettext", "locale", "dataclasses", "inspect", "subprocess",
             "difflib"}
    assert rendered.isdisjoint(never), rendered & never

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


# -- the command-line grammar --------------------------------------------------

_RENDER = ["render", "--input", "example:helloWorld", "--target", "python", "--out", "o"]


@pytest.mark.parametrize("argv,named", [
    ([], "command"),
    (["--bogus"], "oogen: error: unrecognized arguments: --bogus"),
    (["bogus"], "'bogus'"),
    (["render", "--target", "python", "--out", "o"], "--input"),
    (["render", "--input", "example:helloWorld", "--target", "cobol", "--out", "o"], "'cobol'"),
    ([*_RENDER, "--bogus"], "--bogus"),
    ([*_RENDER, "stray"], "stray"),
    ([*_RENDER, "--doc=yes"], "--doc"),
    (["examples", "--emit"], "--emit"),
    (["verify", "--target", "python"], "--input"),
    (["verify", "--input", "example:argsEcho", "--target", "python", "--args=a", "b"], ": b"),
    (["verify", "--input", "example:helloWorld", "--target", "python", "--makefile"],
     "unrecognized arguments: --makefile"),
], ids=["none", "top-level-unknown", "bogus", "no-input", "cobol", "unknown", "stray",
        "flag-value", "no-value", "verify-no-input", "args-equals-then-stray", "verify-makefile"])
def test_usage_error_exits_2_naming_the_option(argv, named, capsys):
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    usage, reason = err.splitlines()
    assert out == "" and usage.startswith("usage: oogen")
    assert reason.startswith("oogen") and ": error: " in reason and named in reason


_HELP_LISTS = {
    "top": ["-h, --help", "render", "examples", "verify"],
    "render": ["-h, --help", "--input FILE|example:NAME", "--target {python,java,csharp,cpp}",
               "--makefile", "--doc", "--out DIR"],
    "examples": ["-h, --help", "--emit NAME"],
    "verify": ["-h, --help", "--input FILE|example:NAME", "--target {python,java,csharp,cpp}",
               "--out DIR", "--args [ARG ...]", "--stdin FILE"],
}


@pytest.mark.parametrize("argv", [
    ["--help"], ["-h"], ["render", "--help"], ["render", "--input", "x", "-h"],
    ["examples", "--he"], ["verify", "-h"], ["render", "--bogus", "-h"],
], ids=" ".join)
def test_help_exits_0_and_lists_every_option(argv, capsys):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    command = argv[0] if argv[0] in _HELP_LISTS else "top"
    assert err == "" and out.startswith("usage: oogen")
    lines = out.splitlines()
    for item in _HELP_LISTS[command]:
        assert any(line.strip().startswith(item) for line in lines), (item, out)
    assert ("OOGEN_CXX" in out) == (command == "verify")  # the toolchain epilog


def test_option_values_after_equals_and_unique_prefixes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc = cli.main(["render", "--inp=example:helloWorld", "--target=java", "--ta", "cpp",
                   "--target=java", "--o", "build", "--make"])
    assert rc == 0
    assert capsys.readouterr().out.splitlines() == [
        os.path.join("build", "java", "HelloWorld.java"),
        os.path.join("build", "java", "Makefile"),
        os.path.join("build", "cpp", "HelloWorld.cpp"),
        os.path.join("build", "cpp", "Makefile"),
    ]


def test_main_reads_sys_argv_when_given_none(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["oogen", "examples"])
    assert cli.main() == 0
    assert capsys.readouterr().out.split() == gallery.names()


@pytest.mark.parametrize("argv,args", [
    (["--args", "a", "b", "--target", "python"], ("a", "b")),
    (["--target", "python", "--args", "-5", "-", "x"], ("-5", "-", "x")),
    (["--args", "--target", "python"], ()),
    (["--args=a", "--target", "python"], ("a",)),
    (["--target", "python"], ()),
])
def test_verify_args_run_up_to_the_next_option(argv, args, capsys, monkeypatch):
    seen = {}

    def fake(pkg, targets, args, stdin, root_dir):
        seen.update(targets=targets, args=args, root_dir=root_dir)
        return verify.VerifyReport(())

    monkeypatch.setattr(verify, "verify_package", fake)
    assert cli.main(["verify", "--input", "example:argsEcho", *argv]) == 0
    assert seen == {"targets": ("python",), "args": args, "root_dir": None}


# -- files are UTF-8 whatever the locale -----------------------------------------


@pytest.mark.parametrize("ensure_ascii", [False, True], ids=["raw", "escaped"])
def test_render_reads_and_writes_utf8_under_an_ascii_locale(tmp_path, ensure_ascii):
    main = bd.main_function(bd.one_liner(pt.print_str_ln("grüß")))
    pkg = bd.prog("umlaut", [bd.build_module("Main", [], [main], [])])
    src = tmp_path / "pkg.json"
    src.write_bytes(json.dumps(jsonio.encode_package(pkg), ensure_ascii=ensure_ascii).encode())
    assert src.read_bytes().isascii() == ensure_ascii
    env = {k: v for k, v in _src_env().items() if k not in ("PYTHONUTF8", "PYTHONIOENCODING")}
    targets = [f"--target={t}" for t in oogen.TARGETS]
    done = subprocess.run(
        [sys.executable, "-X", "utf8=0", "-m", "oogen.cli", "render", "--input", str(src),
         *targets, "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=dict(env, LC_ALL="C"))
    assert done.returncode == 0, done.stderr
    for target in oogen.TARGETS:
        (listing,) = (tmp_path / "out" / target).iterdir()
        assert "grüß" in listing.read_text(encoding="utf-8"), target
