"""Smoke mode (`run.py --smoke`): the benchmark's own test.

Runs every workload once, untraced and traced, on tiny inputs, then feeds
each correctness check a corrupted output and requires it to fail.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys
from pathlib import Path

import layers
import workloads as w
from oogen import jsonio, verify
from oogen.backends import assemble_package


def _must_fail(label: str, fn, problems: list[str]) -> None:
    try:
        fn()
    except w.CheckFailed:
        print(f"smoke: {label}: rejected as it should be")
        return
    problems.append(f"{label}: corrupted output was accepted")


def _runs(work_root: Path, problems: list[str]) -> None:
    for name in w.WORKLOADS:
        for trace, expected in ((False, w.END_TO_END), (True, layers.PER_LAYER)):
            result, _ = w.run_workload(name, 1, 0, trace, work_root, tiny=True)
            bad = [k for k, m in result["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or m["value"] <= 0]
            if (not result["correct"] or result["failed"] or set(result["metrics"]) != set(expected)
                    or bad):
                problems.append(f"{name} trace={int(trace)}: {result} (not positive: {bad})")
            else:
                print(f"smoke: {name} trace={int(trace)}: {result['attempted']} operations ok")


def _corruptions(work: Path, problems: list[str]) -> None:
    item = w.gallery_items(tiny=True)[0]

    # File sets written by `oogen render`.
    out = work / "render"
    files = assemble_package(item.package, "cpp")
    w.write_files(files, out)
    expected = w.expected_files(item.package, "cpp")
    w.check_file_set("cpp", out, expected)
    (out / "stray.txt").write_text("")
    _must_fail("file set with a stray file", lambda: w.check_file_set("cpp", out, expected), problems)
    (out / "stray.txt").unlink()
    os.remove(out / files.paths()[0])
    _must_fail("file set with a missing file", lambda: w.check_file_set("cpp", out, expected),
               problems)

    # Printed output against the hand-written reference.
    py = work / "python"
    w.write_files(assemble_package(item.package, "python"), py)
    script = py / f"{item.package.main_module.name}.py"
    printed = w.run_python(script, item.args, item.stdin)
    w.check_stdout("python", printed, item.expected_stdout)
    _must_fail("stdout with a changed line",
               lambda: w.check_stdout("python", printed + "extra\n", item.expected_stdout), problems)
    script.write_text("import sys\nsys.exit(3)\n")
    _must_fail("a rendered program that exits non-zero",
               lambda: w.run_python(script, item.args, item.stdin), problems)

    # Decoded packages against the built one.
    decoded = jsonio.loads(item.text)
    w.check_equal("decoded", decoded, item.package)
    changed = dataclasses.replace(decoded, name=decoded.name + "X")
    _must_fail("decoded package with another name",
               lambda: w.check_equal("decoded", changed, item.package), problems)

    # The synthetic workload: stable byte counts, round trip, generator's stdout.
    syn = w.Synth(3, work / "synth", tiny=True)
    syn.setup(0)
    syn.sizes = dict(syn.sizes, python=syn.sizes["python"] + 1)
    _must_fail("byte counts that change between passes", syn.op, problems)
    syn.sizes = None
    syn.op()
    syn.finish_checks()
    good = syn.encoded
    syn.encoded = good.replace('"value": 1', '"value": 2', 1)
    if syn.encoded == good:
        syn.encoded = good.replace('"name": "kernel000"', '"name": "kernel999"', 1)
    _must_fail("encoder output that decodes to another package", syn.finish_checks, problems)
    syn.encoded = good
    syn.items[0].expected_stdout += "0\n"
    _must_fail("synthetic stdout against the generator's", syn.finish_checks, problems)

    # verify reports.
    os.environ.update(w.resolve_toolchains())
    root = work / "verify"
    root.mkdir()
    report = verify.verify_package(item.package, targets=w.VERIFY_TARGETS, args=item.args,
                                   stdin=item.stdin, root_dir=str(root))
    w.check_report(item.name, report, item.expected_stdout)
    runs = list(report.runs)
    broken = dataclasses.replace(runs[1], status="compile-error", stdout=None)
    _must_fail("a target that did not compile", lambda: w.check_report(
        item.name, verify.VerifyReport((runs[0], broken, runs[2])), item.expected_stdout),
        problems)
    wrong = dataclasses.replace(runs[2], stdout=runs[2].stdout + "x")
    _must_fail("a target that printed something else", lambda: w.check_report(
        item.name, verify.VerifyReport((runs[0], runs[1], wrong)), item.expected_stdout),
        problems)
    _must_fail("a missing target", lambda: w.check_report(
        item.name, verify.VerifyReport(tuple(runs[:2])), item.expected_stdout), problems)


def main(work_root: Path) -> int:
    problems: list[str] = []
    _runs(work_root, problems)
    work = work_root / f"smoke-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        _corruptions(work, problems)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for p in problems:
        print(f"smoke: FAILED: {p}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0
