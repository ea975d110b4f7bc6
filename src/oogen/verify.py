"""Cross-language execution checks for rendered packages.

For every requested target whose toolchain is installed, render the package
into a scratch directory, compile it if the target needs compiling, run it
with scripted argv/stdin, and compare normalized stdout across targets.
Targets without a local toolchain are reported "skipped" and never count as
failures, so a machine with only python3 still gets a meaningful (if
one-sided) report.

The tools a target needs come from its renderer's `tools`, the table its
Makefile is written from: for each, verify takes the command named by its
environment variable (`OOGEN_JAVAC`, ...) when that is set, and otherwise
the first of its conventional commands found on PATH.

Stdout normalization (targets legitimately differ in formatting): line
endings become \\n, per-line trailing whitespace is stripped, True/False
word tokens are lowercased, and numeric tokens containing a decimal point
are rewritten to Python's shortest round-trip form.
"""

from __future__ import annotations

import os
import re

from . import ir
from ._record import record
from .backends import TARGETS, get_backend
from .errors import FileAccessError, NoMainModule

_STEP_TIMEOUT = 60  # seconds per compile or run step

# Patterns, compiled (and cached by `re`) on first use, not at import.
_BOOL_WORD = r"\b(True|False|true|false)\b"
_FLOAT_TOKEN = r"-?\d+\.\d+(?:[eE][+-]?\d+)?"


def normalize_stdout(text: str) -> str:
    lines = text.replace("\r\n", "\n").splitlines()
    out = []
    for line in lines:
        line = line.rstrip()
        line = re.sub(_BOOL_WORD, lambda m: m.group(0).lower(), line)
        line = re.sub(_FLOAT_TOKEN, lambda m: repr(float(m.group(0))), line)
        out.append(line)
    return "\n".join(out)


def find_toolchain(target: str) -> tuple[str, ...] | None:
    """Resolved executable paths for `target`'s tools, in order, or None if
    any tool is absent. An unknown `target` raises `ValueError`."""
    import shutil

    resolved = []
    for _, env, defaults in get_backend(target).tools:
        candidates = (os.environ[env],) if os.environ.get(env) else defaults
        path = next((w for c in candidates if (w := shutil.which(c))), None)
        if path is None:
            return None
        resolved.append(path)
    return tuple(resolved)


class ToolReport(metaclass=record):
    """Outcome of one target's render/compile/run attempt."""

    target: str
    status: str  # "ok" | "skipped" | "compile-error" | "runtime-error"
    detail: str = ""
    stdout: str | None = None  # normalized; only for status "ok"


class VerifyReport(metaclass=record):
    runs: tuple[ToolReport, ...]

    @property
    def executed(self) -> tuple[ToolReport, ...]:
        return tuple(r for r in self.runs if r.status == "ok")

    @property
    def agree(self) -> bool:
        """No target failed to compile or run, and every target that ran
        printed the same; a skipped target counts neither way."""
        return (not self.compile_failed and not self.run_failed
                and len({r.stdout for r in self.executed}) <= 1)

    @property
    def compile_failed(self) -> bool:
        return any(r.status == "compile-error" for r in self.runs)

    @property
    def run_failed(self) -> bool:
        return any(r.status == "runtime-error" for r in self.runs)

    def diffs(self) -> list[str]:
        import difflib

        texts = []
        baseline = None
        for report in self.executed:
            if baseline is None:
                baseline = report
                continue
            if report.stdout != baseline.stdout:
                diff = difflib.unified_diff(
                    (baseline.stdout or "").splitlines(keepends=True),
                    (report.stdout or "").splitlines(keepends=True),
                    fromfile=baseline.target, tofile=report.target)
                texts.append("".join(diff))
        return texts

    def summary(self) -> str:
        lines = []
        for r in self.runs:
            note = f" ({r.detail})" if r.detail and r.status != "ok" else ""
            lines.append(f"{r.target:7s} {r.status}{note}")
        if all(r.status == "skipped" for r in self.runs):
            lines.append("no toolchain available; nothing executed")
        elif self.agree:
            lines.append(f"{len(self.executed)} executed target(s) agree")
        else:
            lines.extend(self.diffs())
        return "\n".join(lines)


def write_files(files, directory: str) -> tuple[str, ...]:
    """Write rendered `files` into `directory`, made if it is missing, and
    return their paths. What cannot be made, written or encoded as UTF-8 is
    a FileAccessError; each text is encoded before its file is opened."""
    paths = ()
    try:
        os.makedirs(directory, exist_ok=True)
        for f in files:
            path = os.path.join(directory, f.path)
            data = f.text.encode("utf-8")
            with open(path, "wb") as fh:
                fh.write(data)
            paths += (path,)
    except OSError as exc:  # a failed write or close names no file
        raise FileAccessError(f"cannot write {exc.filename or path}: {exc.strerror}") from None
    except UnicodeEncodeError:
        raise FileAccessError(f"cannot write {path}: not UTF-8") from None
    return paths


def _run_step(argv: list[str], cwd: str, stdin: str = "") -> subprocess.CompletedProcess:
    import subprocess

    return subprocess.run(argv, cwd=cwd, input=stdin, capture_output=True, encoding="utf-8",
                          errors="backslashreplace", timeout=_STEP_TIMEOUT)


def run_target(pkg: ir.PackageTree, target: str, workdir: str,
               args: tuple[str, ...] = (), stdin: str = "") -> ToolReport:
    """Render `pkg` for one target into `workdir`, compile, and execute.
    An unknown `target` raises `ValueError`, as `get_backend` does."""
    import subprocess

    backend = get_backend(target)
    tools = find_toolchain(target)
    if tools is None:
        names = ", ".join(" or ".join(defaults) for _, _, defaults in backend.tools)
        return ToolReport(target, "skipped", detail=f"no {names} on PATH")
    main = pkg.main_module
    if main is None:
        raise NoMainModule(f"package {pkg.name!r} has no main module to execute")

    write_files(backend.render_package(pkg), workdir)
    sources = [path for _, path in backend.source_files(pkg)]  # as the Makefile names them
    compile_argv, run_argv = backend.build_commands(list(tools), sources, main.name, pkg.name)
    run_argv += args

    if compile_argv is not None:
        try:
            compiled = _run_step(compile_argv, workdir)
        except subprocess.TimeoutExpired:
            return ToolReport(target, "compile-error", detail="timed out")
        if compiled.returncode != 0:
            # mcs reports errors on stdout, javac and g++ on stderr
            return ToolReport(target, "compile-error",
                              detail=compiled.stdout + compiled.stderr)

    try:
        ran = _run_step(run_argv, workdir, stdin=stdin)
    except subprocess.TimeoutExpired:
        return ToolReport(target, "runtime-error", detail="timed out")
    if ran.returncode != 0:
        return ToolReport(target, "runtime-error",
                          detail=f"exit {ran.returncode}: {ran.stderr}")
    return ToolReport(target, "ok", stdout=normalize_stdout(ran.stdout))


def verify_package(pkg: ir.PackageTree, targets: tuple[str, ...] = TARGETS,
                   args: tuple[str, ...] = (), stdin: str = "",
                   root_dir: str | None = None) -> VerifyReport:
    """Run `pkg` on every available target toolchain and compare stdout.

    Each target gets its own subdirectory of `root_dir` (a fresh temp dir
    when None), so renders never collide.
    """
    import shutil
    import tempfile

    own_root = root_dir is None
    root = tempfile.mkdtemp(prefix="oogen-verify-") if own_root else root_dir
    try:
        runs = []
        for target in targets:
            workdir = os.path.join(root, target)
            runs.append(run_target(pkg, target, workdir, args=args, stdin=stdin))
        return VerifyReport(tuple(runs))
    finally:
        if own_root:
            shutil.rmtree(root, ignore_errors=True)
