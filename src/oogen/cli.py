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
input (malformed JSON, unknown example, a package the request cannot use,
such as --makefile without a main module, or one nested too deeply to
decode or render); 3 construct unsupported by a backend; 4 compile failure
(or compile timeout) during verify.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import gallery, ir, jsonio, verify
from .backends import TARGETS, assemble_package
from .errors import BuildError, DecodeError, UnsupportedConstruct

_VERIFY_HELP = """\
toolchains are probed on PATH and can be overridden by environment
variables: OOGEN_PYTHON (python3), OOGEN_JAVAC/OOGEN_JAVA (javac/java),
OOGEN_CSC/OOGEN_MONO (mcs or csc/mono), OOGEN_CXX (g++, c++, or clang++).
Targets without a toolchain are reported skipped, never failed."""


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oogen",
        description="Render object-oriented programs from a language-agnostic "
                    "IR to Python, Java, C#, and C++.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_render_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, metavar="FILE|example:NAME",
                       help="package JSON file, or a built-in example "
                            "(see `oogen examples`)")
        p.add_argument("--target", action="append", choices=TARGETS,
                       required=True, help="repeat for several targets")
        p.add_argument("--makefile", action="store_true",
                       help="also emit a Makefile per target")
        p.add_argument("--doc", action="store_true",
                       help="also emit a Doxygen config (adds a doc: rule "
                            "to the Makefile when combined with --makefile)")

    render = sub.add_parser("render", help="write rendered source files")
    add_render_args(render)
    render.add_argument("--out", required=True, metavar="DIR",
                        help="output directory; files go to DIR/<target>/")

    examples = sub.add_parser("examples", help="list or emit built-in examples")
    examples.add_argument("--emit", metavar="NAME",
                          help="write this example's package JSON to stdout")

    vrfy = sub.add_parser("verify", help="compile and run on local toolchains",
                          epilog=_VERIFY_HELP)
    add_render_args(vrfy)
    vrfy.add_argument("--out", metavar="DIR",
                      help="workdir for renders and binaries (default: temp)")
    vrfy.add_argument("--args", nargs="*", default=[], metavar="ARG",
                      help="argv passed to the program on every target")
    vrfy.add_argument("--stdin", metavar="FILE",
                      help="file whose contents feed the program's stdin")
    return parser


def _load_package(spec: str) -> ir.PackageTree:
    if spec.startswith("example:"):
        name = spec[len("example:"):]
        try:
            return gallery.get(name).package
        except KeyError as exc:
            raise DecodeError(str(exc.args[0]), "$") from None
    try:
        with open(spec) as fh:
            text = fh.read()
    except OSError as exc:
        raise DecodeError(f"cannot read {spec}: {exc.strerror}", "$") from None
    return jsonio.loads(text)


def _with_aux_flags(pkg: ir.PackageTree, makefile: bool, doc: bool) -> ir.PackageTree:
    kinds = {a.kind for a in pkg.aux}
    aux = list(pkg.aux)
    if makefile and "makefile" not in kinds:
        aux.append(ir.AuxFileSpec("makefile", with_doc_rule=doc))
    if doc and "doxygen" not in kinds:
        aux.append(ir.AuxFileSpec("doxygen"))
    if len(aux) == len(pkg.aux):
        return pkg
    return ir.PackageTree(pkg.name, pkg.modules, tuple(aux))


def _cmd_render(opts: argparse.Namespace) -> int:
    pkg = _with_aux_flags(_load_package(opts.input), opts.makefile, opts.doc)
    for target in dict.fromkeys(opts.target):
        files = assemble_package(pkg, target)
        target_dir = os.path.join(opts.out, target)
        os.makedirs(target_dir, exist_ok=True)
        for f in files:
            path = os.path.join(target_dir, f.path)
            with open(path, "w") as fh:
                fh.write(f.text)
            print(os.path.relpath(path))
    return 0


def _cmd_examples(opts: argparse.Namespace) -> int:
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


def _cmd_verify(opts: argparse.Namespace) -> int:
    pkg = _with_aux_flags(_load_package(opts.input), opts.makefile, opts.doc)
    stdin = ""
    if opts.stdin is not None:
        try:
            with open(opts.stdin) as fh:
                stdin = fh.read()
        except OSError as exc:
            print(f"oogen: cannot read {opts.stdin}: {exc.strerror}", file=sys.stderr)
            return 2
    if opts.out is not None:
        os.makedirs(opts.out, exist_ok=True)
    report = verify.verify_package(
        pkg, targets=tuple(dict.fromkeys(opts.target)),
        args=tuple(opts.args), stdin=stdin, root_dir=opts.out)
    print(report.summary())
    if report.compile_failed:
        return 4
    if report.run_failed or not report.agree:
        return 1
    return 0


_COMMANDS = {"render": _cmd_render, "examples": _cmd_examples, "verify": _cmd_verify}


def main(argv: list[str] | None = None) -> int:
    opts = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[opts.command](opts)
    except (DecodeError, BuildError) as exc:
        print(f"oogen: {exc}", file=sys.stderr)
        return 2
    except UnsupportedConstruct as exc:
        print(f"oogen: unsupported construct: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
