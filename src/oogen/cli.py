"""Command-line front end.

    oogen render --input example:applyDiscount --target python --target cpp --out build/
    oogen render --input pkg.json --target java --out build/ --makefile --doc
    oogen examples
    oogen examples --emit patternTest
    oogen verify --input example:signTest --target python --target cpp --stdin in.txt

render writes each target's files under OUT/<target>/ and prints the paths
it wrote. examples lists the built-in gallery, or emits one entry as JSON.
verify renders, compiles, and runs the package on every requested target
whose toolchain is installed, then diffs normalized stdout across targets.

Exit codes: 0 success; 1 verify disagreement or runtime failure; 2 bad
input (malformed JSON, unknown example, an unreadable or non-UTF-8 input
file, a package the request cannot use, such as --makefile without a main
module, or one nested too deeply to decode or render), an unwritable output
path or text that is not UTF-8, or a bad command line; 4 compile failure
(or compile timeout) during verify. 3 is not used: every backend renders
every node.

`main` reads the command line against `_COMMANDS`, one table of options
that also writes the usage and `--help` text, instead of argparse, whose
import and message catalogues cost more than a render.

`main(argv)` is the in-process entry: it returns the exit code, and tests
and other callers use it. `run()` is the process entry, for `python -m
oogen.cli` and the installed `oogen` command. Once `main` returns, `run`
runs the `atexit` handlers, flushes stdout and stderr and ends the process
with `os._exit`. That skips only interpreter teardown, clearing every module
and the collector's last passes, which took longer than the render itself.
Under a profiler or tracer `run` exits through `sys.exit`, so cProfile and
coverage still write their results. If stdout's reader has gone, `run`
exits 1 and prints no `BrokenPipeError` traceback.
"""

from __future__ import annotations

import atexit
import os
import sys
from types import SimpleNamespace

from . import builders, gallery, ir, jsonio, verify
from .backends import TARGETS, assemble_package
from .errors import BuildError, DecodeError, FileAccessError

_VERIFY_HELP = """\
toolchains are probed on PATH and can be overridden by environment
variables: OOGEN_PYTHON (python3), OOGEN_JAVAC/OOGEN_JAVA (javac/java),
OOGEN_CSC/OOGEN_MONO (mcs or csc/mono), OOGEN_CXX (g++, c++, or clang++).
Targets without a toolchain are reported skipped, never failed."""

# An option is (kind, required, choices, metavar, help); choices, if any, are
# its metavar. Kinds: "value" takes one argument, "append" one per use, "flag"
# none, "rest" every argument up to the next option. As in argparse,
# `--opt=value` and unique prefixes work.
_HELP = ("flag", False, None, None, "show this help message and exit")
_INPUT_OPTIONS = {
    "--input": ("value", True, None, "FILE|example:NAME",
                "package JSON file, or a built-in example (see `oogen examples`)"),
    "--target": ("append", True, TARGETS, None, "repeat for several targets"),
}


class _UsageError(Exception):
    """A command line the table refuses: (command or None, reason)."""


def _label(name: str, spec: tuple) -> str:
    metavar = "{" + ",".join(spec[2]) + "}" if spec[2] else spec[3]
    return name if metavar is None else f"{name} {metavar}"


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: oogen [-h] {{{','.join(_COMMANDS)}}} ..."
    parts = (_label(name, spec) if spec[1] else f"[{_label(name, spec)}]"
             for name, spec in _COMMANDS[command][2].items())
    return f"usage: oogen {command} [-h] {' '.join(parts)}"


def _rows(rows: list[tuple[str, str]]) -> str:
    return "\n".join((f"  {label:<22}" if len(label) <= 20 else f"  {label}\n{'':24}")
                     + text.replace("\n", "\n" + " " * 24) for label, text in rows)


def _help(command: str | None) -> str:
    options = _rows([("-h, --help", _HELP[4])])
    if command is None:
        commands = _rows([(name, summary) for name, (_, summary, _, _) in _COMMANDS.items()])
        return (f"{_usage(None)}\n\nRender object-oriented programs from a language-agnostic "
                f"IR to Python, Java, C#, and C++.\n\ncommands:\n{commands}\n\n"
                f"options:\n{options}\n")
    _, summary, table, epilog = _COMMANDS[command]
    options += "\n" + _rows([(_label(name, spec), spec[4]) for name, spec in table.items()])
    text = f"{_usage(command)}\n\n{summary}\n\noptions:\n{options}\n"
    return f"{text}\n{epilog}\n" if epilog else text


def _is_option(arg: str) -> bool:
    """Whether `arg` names an option: as in argparse, `-` and `-5` are values."""
    return arg[:1] == "-" and arg != "-" and not arg[1:].replace(".", "", 1).isdigit()


def _option(arg: str, options: dict) -> str | None:
    """The name in `options` that `arg` gives in full or as a unique prefix."""
    arg = "--help" if arg == "-h" else arg
    if arg in options:
        return arg
    matches = [name for name in options if name.startswith(arg)]
    return matches[0] if len(matches) == 1 and arg != "--" else None


def _parse(argv: list[str]) -> tuple[str | None, SimpleNamespace | None]:
    """(command, option values by name without `--`), values None on `--help`."""
    if not argv:
        raise _UsageError(None, "the following arguments are required: command")
    command = argv[0]
    if _is_option(command):
        if _option(command, {"--help": _HELP}) is None:
            raise _UsageError(None, f"unrecognized arguments: {command}")
        return None, None
    if command not in _COMMANDS:
        raise _UsageError(None, f"argument command: invalid choice: {command!r} "
                                f"(choose from {', '.join(map(repr, _COMMANDS))})")
    table = _COMMANDS[command][2]
    options = {**table, "--help": _HELP}
    opts = {name[2:]: False if kind == "flag" else [] if kind in ("append", "rest") else None
            for name, (kind, *_) in table.items()}
    # As in argparse, -h beats unknown arguments, reported after missing ones.
    unknown = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        i += 1
        name, given, value = arg.partition("=")
        name = _option(name, options) if _is_option(arg) else None
        if name is None:
            unknown.append(arg)
            continue
        kind, _, choices, _, _ = options[name]
        if kind == "flag":
            if given:
                raise _UsageError(command, f"argument {name}: ignored explicit argument {value!r}")
            if name == "--help":
                return command, None
            opts[name[2:]] = True
        elif kind == "rest" and given:
            opts[name[2:]] = [value]
        elif kind == "rest":
            start = i
            while i < len(argv) and not _is_option(argv[i]):
                i += 1
            opts[name[2:]] = argv[start:i]
        else:
            if not given:
                if i == len(argv) or _is_option(argv[i]):
                    raise _UsageError(command, f"argument {name}: expected one argument")
                value, i = argv[i], i + 1
            if choices and value not in choices:
                raise _UsageError(command, f"argument {name}: invalid choice: {value!r} "
                                           f"(choose from {', '.join(map(repr, choices))})")
            opts[name[2:]] = [*opts[name[2:]], value] if kind == "append" else value
    missing = [name for name, spec in table.items() if spec[1] and opts[name[2:]] in (None, [])]
    if missing:
        raise _UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    if unknown:
        raise _UsageError(command, f"unrecognized arguments: {' '.join(unknown)}")
    return command, SimpleNamespace(**opts)


def _load_package(spec: str) -> ir.PackageTree:
    if spec.startswith("example:"):
        name = spec[len("example:"):]
        try:
            return gallery.get(name).package
        except KeyError as exc:
            raise DecodeError(str(exc.args[0]), "$") from None
    return jsonio.loads(_read(spec))


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FileAccessError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FileAccessError(f"cannot read {path}: not UTF-8") from None


def _with_aux_flags(pkg: ir.PackageTree, makefile: bool, doc: bool) -> ir.PackageTree:
    """`pkg` with the aux files the flags ask for; `--doc` gives a Makefile
    the package already lists a doc rule too."""
    aux = [ir.AuxFileSpec("makefile", with_doc_rule=True) if doc and a.kind == "makefile" else a
           for a in pkg.aux]
    kinds = {a.kind for a in aux}
    if makefile and "makefile" not in kinds:
        aux.append(ir.AuxFileSpec("makefile", with_doc_rule=doc))
    if doc and "doxygen" not in kinds:
        aux.append(ir.AuxFileSpec("doxygen"))
    return pkg if tuple(aux) == pkg.aux else builders.package(pkg, aux)


def _cmd_render(opts: SimpleNamespace) -> int:
    pkg = _with_aux_flags(_load_package(opts.input), opts.makefile, opts.doc)
    for target in dict.fromkeys(opts.target):
        files = assemble_package(pkg, target)
        for path in verify.write_files(files, os.path.join(opts.out, target)):
            print(os.path.relpath(path))
    return 0


def _cmd_examples(opts: SimpleNamespace) -> int:
    if opts.emit is None:
        for name in gallery.names():
            print(name)
        return 0
    try:
        entry = gallery.get(opts.emit)
    except KeyError as exc:
        print(f"oogen: {exc.args[0]}", file=sys.stderr)
        return 2
    sys.stdout.write(jsonio.dumps(entry.package, indent=2))
    return 0


def _cmd_verify(opts: SimpleNamespace) -> int:
    pkg = _load_package(opts.input)
    stdin = "" if opts.stdin is None else _read(opts.stdin)
    report = verify.verify_package(
        pkg, targets=tuple(dict.fromkeys(opts.target)),
        args=tuple(opts.args), stdin=stdin, root_dir=opts.out)
    print(report.summary())
    if report.compile_failed:
        return 4
    if not report.agree:
        return 1
    return 0


# command -> (handler, summary, options, epilog)
_COMMANDS = {
    "render": (_cmd_render, "write rendered source files", {
        **_INPUT_OPTIONS,
        "--makefile": ("flag", False, None, None, "also emit a Makefile per target"),
        "--doc": ("flag", False, None, None, "also emit a Doxygen config (adds a doc: rule\n"
                  "to the Makefile when combined with --makefile)"),
        "--out": ("value", True, None, "DIR", "output directory; files go to DIR/<target>/"),
    }, ""),
    "examples": (_cmd_examples, "list or emit built-in examples", {
        "--emit": ("value", False, None, "NAME", "write this example's package JSON to stdout"),
    }, ""),
    "verify": (_cmd_verify, "compile and run on local toolchains", {
        **_INPUT_OPTIONS,
        "--out": ("value", False, None, "DIR", "workdir for renders and binaries (default: temp)"),
        "--args": ("rest", False, None, "[ARG ...]", "argv passed to the program on every target"),
        "--stdin": ("value", False, None, "FILE", "file whose contents feed the program's stdin"),
    }, _VERIFY_HELP),
}


def main(argv: list[str] | None = None) -> int:
    try:
        command, opts = _parse(sys.argv[1:] if argv is None else argv)
    except _UsageError as exc:
        command, reason = exc.args
        prog = "oogen" if command is None else f"oogen {command}"
        print(f"{_usage(command)}\n{prog}: error: {reason}", file=sys.stderr)
        return 2
    if opts is None:
        print(_help(command), end="")
        return 0
    try:
        return _COMMANDS[command][0](opts)
    except (DecodeError, BuildError, FileAccessError) as exc:
        print(f"oogen: {exc}", file=sys.stderr)
        return 2


def _observed() -> bool:
    """Whether a profiler or tracer is on, which writes its results at exit."""
    # From Python 3.12, cProfile and coverage may register a sys.monitoring
    # tool (ids 0-5) instead of a profile or trace function.
    monitoring = getattr(sys, "monitoring", None)
    return (sys.getprofile() is not None or sys.gettrace() is not None
            or monitoring is not None and any(monitoring.get_tool(i) is not None
                                              for i in range(6)))


def run() -> None:
    """Run `main` on `sys.argv` and end the process without tearing down the
    interpreter (see the module docstring)."""
    try:
        code = main()
    except BrokenPipeError:  # stdout's reader has gone; the flush below sees it too
        code = 1
    observed = _observed()
    if not observed:
        atexit._run_exitfuncs()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # As the `signal` docs advise, point fd 1 at os.devnull so that no
        # later flush raises, and exit 1 quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    if observed:
        sys.exit(code)
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
