"""The benchmark's workloads, their correctness checks and the untraced run.

Every workload has a set-up, a round of operations that are timed one by
one, a reference step run beside each operation, checks made after the
timed rounds, a call count and a peak-memory reading. References are made apart from the renderers: the gallery's
hand-written expected_stdout, the synthetic generator's own evaluator, and
file names derived from module names.
"""

from __future__ import annotations

import cProfile
import dataclasses
import gc
import os
import pstats
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import synth
from oogen import gallery, ir, jsonio
from oogen.backends import TARGETS, assemble_package

SETUPS = 5  # set-ups per run; setup_s is their median
VERIFY_TARGETS = ("python", "java", "cpp")  # traced runs; no C# toolchain on the reference host
CALLS_EXAMPLE = "patternTest"  # the gallery entry whose calls are counted
SYNTH_SIZE = {"functions": 12, "groups": 6, "depth": 3}
TINY_SYNTH_SIZE = {"functions": 2, "groups": 1, "depth": 2}
TINY_GALLERY = 2  # gallery entries in smoke mode

END_TO_END = {"setup_s": "s", "peak_rss_mb": "MB", "op_ref": "ref", "op_calls": "count"}


class SetupError(Exception):
    pass


class CheckFailed(Exception):
    """An output differs from its reference."""


class OpFailed(Exception):
    """An operation did not complete (non-zero exit, exception)."""


def child_env(pycache: Path) -> dict[str, str]:
    """Environment of the oogen and toolchain child processes: the pinned
    environment this process runs in, plus a bytecode cache that set-up
    fills, so every timed child reads the same bytecode and writes none."""
    return dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))


def resolve_toolchains() -> dict[str, str]:
    tools = {
        "OOGEN_PYTHON": sys.executable,
        "OOGEN_JAVAC": shutil.which("javac"),
        "OOGEN_JAVA": shutil.which("java"),
        "OOGEN_CXX": shutil.which("g++"),
    }
    missing = [k for k, v in tools.items() if not v]
    if missing:
        raise SetupError(f"toolchains not found: {', '.join(missing)}")
    # No JVM perf-data files under /tmp: every write stays in the checkout.
    tools["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={os.environ['TMPDIR']}"
    return tools


# ---------------------------------------------------------------------------
# Checks

_BOOL_WORD = re.compile(r"\b(True|False)\b")
_EXTENSIONS = {"python": ".py", "java": ".java", "csharp": ".cs", "cpp": ".cpp"}


def normalize(text: str) -> str:
    lines = text.replace("\r\n", "\n").splitlines()
    return "\n".join(_BOOL_WORD.sub(lambda m: m.group(0).lower(), line.rstrip())
                     for line in lines)


def check_stdout(what: str, actual: str, expected: str) -> None:
    if normalize(actual) != normalize(expected):
        raise CheckFailed(f"{what}: printed {actual!r}, expected {expected!r}")


def expected_files(pkg, target: str) -> set[str]:
    """Files `oogen render --makefile --doc` writes for one target: one per
    non-empty module, plus a C++ header for a module with more than main."""
    names = {"Makefile", "doxConfig"}
    for m in pkg.modules:
        if m.functions or m.classes:
            names.add(m.name + _EXTENSIONS[target])
        if target == "cpp" and (m.classes or any(not f.is_main for f in m.functions)):
            names.add(m.name + ".hpp")
    return names


def check_file_set(what: str, directory: Path, expected: set[str]) -> None:
    actual = set(os.listdir(directory)) if directory.is_dir() else set()
    if actual != expected:
        raise CheckFailed(f"{what}: wrote {sorted(actual)}, expected {sorted(expected)}")


def check_equal(what: str, actual, expected) -> None:
    if actual != expected:
        raise CheckFailed(f"{what}: differs from its reference")


def check_report(what: str, report, expected_stdout: str) -> None:
    want = normalize(expected_stdout)
    for run in report.runs:
        if run.status != "ok":
            raise CheckFailed(f"{what}: {run.target} {run.status}: {run.detail[:400]}")
        if run.stdout != want:
            raise CheckFailed(f"{what}: {run.target} printed {run.stdout!r}, expected {want!r}")
    if tuple(r.target for r in report.runs) != VERIFY_TARGETS or not report.agree:
        raise CheckFailed(f"{what}: targets missing or disagreeing")


def run_python(script: Path, args=(), stdin: str = "", env=None) -> str:
    done = subprocess.run([sys.executable, script.name, *args], cwd=script.parent,
                          input=stdin, capture_output=True, text=True, env=env, timeout=120)
    if done.returncode != 0:
        raise CheckFailed(f"{script.name} exited {done.returncode}: {done.stderr[-400:]}")
    return done.stdout


# ---------------------------------------------------------------------------
# Shared pieces


def write_files(files, directory: Path) -> None:
    """Write a FileSet the way `oogen render` does."""
    os.makedirs(directory, exist_ok=True)
    for f in files:
        with open(os.path.join(directory, f.path), "w") as fh:
            fh.write(f.text)


def ref_loop() -> float:
    """A fixed pure-Python loop: the reference step of `synth`, and the
    host's speed in the traced run."""
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def profile(fn) -> pstats.Stats:
    """Run fn() under cProfile, after a collection, and return its stats."""
    prof = cProfile.Profile()
    gc.collect()
    prof.enable()
    try:
        fn()
    finally:
        prof.disable()
    return pstats.Stats(prof)


@dataclasses.dataclass
class Item:
    """One input package with its JSON text and its reference run."""

    name: str
    package: object
    text: str
    args: tuple = ()
    stdin: str = ""
    expected_stdout: str = ""


def gallery_items(tiny: bool) -> list[Item]:
    """The gallery packages with the aux files `--makefile --doc` asks for,
    so the library path renders what `oogen render` renders."""
    entries = gallery.ENTRIES[:TINY_GALLERY] if tiny else gallery.ENTRIES
    aux = (ir.AuxFileSpec("makefile", with_doc_rule=True), ir.AuxFileSpec("doxygen"))
    items = []
    for e in entries:
        pkg = dataclasses.replace(e.package, aux=aux)
        items.append(Item(e.name, pkg, jsonio.dumps(pkg), e.args, e.stdin, e.expected_stdout))
    return items


def library_pass(build, items: list[Item], out: Path, spans=None):
    """Build, then per item: decode its JSON, render and write every target,
    encode. Returns what was built and (decoded, byte counts, encoded) per item."""

    def call(name, fn, *args):
        return spans.span(name, fn, *args) if spans else fn(*args)

    built = call("builders.build", build)
    results = []
    for item in items:
        decoded = jsonio.loads(item.text)
        sizes = {}
        for target in TARGETS:
            files = assemble_package(decoded, target)
            call("write.files", write_files, files, out / item.name / target)
            sizes[target] = sum(len(f.text) for f in files)
        results.append((decoded, sizes, jsonio.dumps(decoded)))
    return built, results


# ---------------------------------------------------------------------------
# Workloads


class CliRender:
    """Fresh `oogen render` processes, one per gallery package, to all four
    targets with --makefile --doc; a closed loop with one client."""

    name = "cli-render"

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.rng = random.Random(seed)
        self.work = work
        self.items = gallery_items(tiny)
        self.max_rss_kb = 0

    def setup(self, k: int) -> None:
        d = self.work / f"setup{k}"
        d.mkdir(parents=True)
        self.inputs = {}
        for item in self.items:
            path = d / f"{item.name}.json"
            path.write_text(item.text)
            self.inputs[item.name] = path
        self.out = d / "out"
        self.env = child_env(d / "pycache")
        warm = dict(self.env)
        del warm["PYTHONDONTWRITEBYTECODE"]
        self.spawn(self.argv(self.items[0]), warm)  # fills the bytecode cache

    def argv(self, item: Item, prefix: tuple = ()) -> list[str]:
        argv = [sys.executable, *prefix, "-m", "oogen.cli", "render",
                "--input", str(self.inputs[item.name])]
        for target in TARGETS:
            argv += ["--target", target]
        return argv + ["--makefile", "--doc", "--out", str(self.out / item.name)]

    def spawn(self, argv: list[str], env: dict) -> tuple[float, int]:
        """Run one child; returns (seconds, peak RSS in KiB)."""
        err_path = self.work / "stderr.txt"
        with open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, env=env, cwd=self.work,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            raise OpFailed(f"{' '.join(argv[-8:])}: exit {proc.returncode}: "
                           f"{err_path.read_text()[-400:]}")
        return elapsed, usage.ru_maxrss

    def op(self, item: Item, prefix: tuple = ()) -> float:
        shutil.rmtree(self.out / item.name, ignore_errors=True)
        elapsed, rss_kb = self.spawn(self.argv(item, prefix), self.env)
        self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        for target in TARGETS:
            check_file_set(f"{item.name}/{target}", self.out / item.name / target,
                           expected_files(item.package, target))
        return elapsed

    def round(self):
        order = list(self.items)
        self.rng.shuffle(order)
        return [lambda item=item: self.op(item) for item in order]

    def finish_checks(self) -> None:
        for item in self.items:
            script = self.out / item.name / "python" / f"{item.package.main_module.name}.py"
            check_stdout(f"{item.name} rendered Python",
                         run_python(script, item.args, item.stdin, self.env),
                         item.expected_stdout)

    def reference(self) -> float:
        """A bare interpreter start, `python -c pass`, in the same environment."""
        return self.spawn([sys.executable, "-c", "pass"], self.env)[0]

    def count_calls(self) -> int:
        item = next((i for i in self.items if i.name == CALLS_EXAMPLE), self.items[0])
        prof = self.work / "calls.prof"
        self.spawn(self.argv(item, ("-m", "cProfile", "-o", str(prof))), self.env)
        return pstats.Stats(str(prof)).total_calls

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024


class Synth:
    """The library path on one seeded synthetic package: build, decode the
    compact JSON, render and write all four targets, encode."""

    name = "synth"

    def __init__(self, seed: int, work: Path, tiny: bool):
        self.seed = seed
        self.work = work
        self.size = TINY_SYNTH_SIZE if tiny else SYNTH_SIZE

    def setup(self, k: int) -> None:
        self.plan = synth.make_plan(self.seed, **self.size)
        pkg = synth.build(self.plan)
        self.items = [Item(self.plan.name, pkg, jsonio.dumps(pkg, indent=None),
                           expected_stdout=synth.expected_stdout(self.plan))]
        self.out = self.work / f"setup{k}" / "out"
        self.sizes = None
        self.op()  # warm-up pass: first writes, lazy imports

    def build(self):
        return synth.build(self.plan)

    def op(self, spans=None) -> float:
        gc.collect()
        start = time.perf_counter()
        built, results = library_pass(self.build, self.items, self.out, spans)
        elapsed = time.perf_counter() - start
        decoded, sizes, encoded = results[0]
        check_equal("decoded package vs built package", decoded, built)
        sizes = dict(sizes, json=len(encoded))
        if self.sizes is None:
            self.sizes = sizes
        check_equal("output bytes across passes", sizes, self.sizes)
        self.built, self.encoded = built, encoded
        return elapsed

    def round(self):
        return [self.op]

    def reference(self) -> float:
        return ref_loop()

    def finish_checks(self) -> None:
        check_equal("decode(encode(pkg))", jsonio.loads(self.encoded), self.built)
        item = self.items[0]
        script = self.out / item.name / "python" / f"{item.package.main_module.name}.py"
        check_stdout("synthetic rendered Python", run_python(script), item.expected_stdout)

    def count_calls(self) -> int:
        return profile(lambda: library_pass(self.build, self.items, self.out)).total_calls

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


WORKLOADS = {w.name: w for w in (CliRender, Synth)}


# ---------------------------------------------------------------------------
# Runs


@dataclasses.dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    correct: bool = True

    def run(self, op):
        """Run one operation; returns its result, or None if it failed."""
        self.attempted += 1
        try:
            return op()
        except CheckFailed as exc:
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)
        except (OpFailed, OSError, subprocess.SubprocessError) as exc:
            self.failed += 1
            print(f"operation failed: {exc}", file=sys.stderr)
        return None

    def check(self, fn) -> None:
        try:
            fn()
        except CheckFailed as exc:
            self.correct = False
            print(f"check failed: {exc}", file=sys.stderr)


def rounds(make_round, reference, seconds: float, tally: Tally, before_round=None):
    """Whole rounds until `seconds` have passed, at least one.

    The workload's reference step runs before the first operation and after
    each one. Returns the operations' wall times each divided by the mean of
    the two reference times around it, the wall times themselves and the
    reference times. The host's speed drifts by 20% and more within minutes
    here; dividing by a reference of the same kind taken beside each
    operation cancels most of it (README.md, "Steadiness").
    """
    ratios, times, refs = [], [], [reference()]
    start = time.perf_counter()
    while True:
        if before_round is not None:
            before_round()
        for op in make_round():
            elapsed = tally.run(op)
            refs.append(reference())
            if elapsed is not None:
                times.append(elapsed)
                ratios.append(elapsed / ((refs[-2] + refs[-1]) / 2))
        if time.perf_counter() - start >= seconds:
            return ratios, times, refs


def measure(workload, seconds: float, tally: Tally, setup_times: list[float]):
    """End-to-end metrics of one untraced run, and the raw samples."""
    ratios, times, refs = rounds(workload.round, workload.reference, seconds, tally)
    values = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": workload.peak_rss_mb(),
        "op_ref": statistics.median(ratios) if ratios else 0.0,
    }
    tally.check(workload.finish_checks)
    values["op_calls"] = workload.count_calls()
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, {"op_ref": ratios, "op_s": times, "reference_s": refs,
                     "setup_s": setup_times}


def run_workload(name: str, seed: int, seconds: float, trace: bool, work_root: Path,
                 tiny: bool = False):
    """One run; returns the result object, and the spans of a traced run or
    the raw samples of an untraced one."""
    import layers

    work = work_root / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = WORKLOADS[name](seed, work, tiny)
        setup_times = []
        for k in range(SETUPS):
            start = time.perf_counter()
            workload.setup(k)
            setup_times.append(time.perf_counter() - start)
        tally = Tally()
        if trace:
            metrics, extra = layers.traced_run(workload, seconds, tally)
        else:
            metrics, extra = measure(workload, seconds, tally, setup_times)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result = {"correct": tally.correct, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    return result, extra
