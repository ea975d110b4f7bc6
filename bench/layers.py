"""The traced run (--trace 1): per-layer metrics on a workload's packages.

Spans wrap the public calls into each layer (see spans.Spans); the
benchmark's own files place them, oogen is not changed. Every workload
reports every per-layer metric, measured on its own package set (the nine
gallery packages, or the synthetic one):

* startup.*: child interpreters, `-c pass` and `-X importtime -c "import
  oogen.cli"`, five of each;
* trace.op_ref: the workload's own operation with tracing on (for
  cli-render the tracing is `-X importtime` in the child); over op_ref of
  an untraced run, it gives the tracing overhead;
* builders, jsonio, backends, auxfiles, layout, write: library passes over
  the package set (for synth these are the traced operations themselves);
* verify.*: one verify_package pass over the package set for python, java
  and cpp;
* host.ref_loop_s: a fixed pure-Python loop, median of eleven runs.

Times are per pass over the package set, medians over the passes made.
"""

from __future__ import annotations

import importlib
import json
import os
import re
import statistics
import subprocess
import sys
import time

from oogen import auxfiles, gallery, jsonio, verify
from oogen.backends import TARGETS, get_backend
from spans import Spans
from workloads import (
    VERIFY_TARGETS,
    CliRender,
    Synth,
    check_equal,
    check_report,
    child_env,
    library_pass,
    profile,
    ref_loop,
    resolve_toolchains,
    rounds,
)

STARTUP_MODULES = ("ir", "builders", "jsonio", "verify", "gallery", "backends")
STARTUP_SAMPLES = 5
GALLERY_PASSES = 5
_COMPILERS = {"javac", "g++", "c++", "clang++", "mcs", "csc"}

PER_LAYER = {
    "host.ref_loop_s": "s",
    "trace.op_ref": "ref",
    "startup.python_s": "s",
    "startup.import_oogen_s": "s",
    **{f"startup.import.{m}_self_s": "s" for m in STARTUP_MODULES},
    "builders.build_s": "s",
    "jsonio.json_bytes": "bytes",
    "jsonio.json_loads_s": "s",
    "jsonio.decode_package_s": "s",
    "jsonio.encode_package_s": "s",
    "jsonio.json_dumps_s": "s",
    **{f"backends.{t}.render_package_s": "s" for t in TARGETS},
    **{f"backends.{t}.bytes": "bytes" for t in TARGETS},
    "backends.render_package_calls": "count",
    **{f"auxfiles.{t}.render_aux_s": "s" for t in TARGETS},
    "layout.calls": "count",
    "write.files_s": "s",
    "verify.java.compile_s": "s",
    "verify.cpp.compile_s": "s",
    **{f"verify.{t}.run_s": "s" for t in VERIFY_TARGETS},
    "verify.subprocesses": "count",
    "verify.own_s": "s",
}


def install(spans: Spans) -> None:
    """Wrap the layer boundaries. jsonio reaches json.loads/json.dumps
    through the json module, so those are wrapped there, for this process."""

    def named(name):
        return lambda *args, **kwargs: name

    def subprocess_name(argv, *args, **kwargs):
        target = next((n.split(".")[1] for n in reversed(spans.open_names())
                       if n.endswith(".run_target")), "other")
        step = "compile" if os.path.basename(argv[0]) in _COMPILERS else "run"
        return f"verify.{target}.{step}"

    spans.patch(json, "loads", named("jsonio.json_loads"))
    spans.patch(jsonio, "decode_package", named("jsonio.decode_package"))
    spans.patch(jsonio, "encode_package", named("jsonio.encode_package"))
    spans.patch(json, "dumps", named("jsonio.json_dumps"))
    for target in TARGETS:
        spans.patch(type(get_backend(target)), "render_package",
                    named(f"backends.{target}.render_package"))
    spans.patch(auxfiles, "render_aux", lambda pkg, target: f"auxfiles.{target}.render_aux")
    spans.patch(verify, "verify_package", named("verify.verify_package"))
    spans.patch(verify, "run_target",
                lambda pkg, target, *args, **kwargs: f"verify.{target}.run_target")
    spans.patch(subprocess, "run", subprocess_name)


def library_metrics(spans: Spans, since: int, until: int, items, sizes) -> dict[str, float]:
    """One library pass, from the spans in records[since:until]; `sizes`
    gives the bytes rendered per target for each item."""
    total = spans.totals(since, until)
    own = spans.totals(since, until, self_time=True)
    out = {
        "builders.build_s": total["builders.build"],
        "jsonio.json_bytes": sum(len(item.text) for item in items),
        "jsonio.json_loads_s": total["jsonio.json_loads"],
        "jsonio.decode_package_s": total["jsonio.decode_package"],
        "jsonio.encode_package_s": total["jsonio.encode_package"],
        "jsonio.json_dumps_s": total["jsonio.json_dumps"],
        "backends.render_package_calls": sum(
            spans.count(f"backends.{t}.render_package", since, until)
            for t in TARGETS) / len(items),
        "write.files_s": total["write.files"],
    }
    for t in TARGETS:
        out[f"backends.{t}.render_package_s"] = total[f"backends.{t}.render_package"]
        out[f"backends.{t}.bytes"] = sum(s[t] for s in sizes)
        # Self time: the Makefile's own render_package call is counted above.
        out[f"auxfiles.{t}.render_aux_s"] = own[f"auxfiles.{t}.render_aux"]
    return out


def verify_metrics(spans: Spans, since: int, until: int) -> dict[str, float]:
    """One verify pass, from the spans in records[since:until]."""
    steps = [r for r in spans.records[since:until]
             if r["name"].startswith("verify.") and r["name"].endswith((".compile", ".run"))]
    total = spans.totals(since, until)
    out = {"verify.java.compile_s": total["verify.java.compile"],
           "verify.cpp.compile_s": total["verify.cpp.compile"],
           "verify.subprocesses": len(steps),
           "verify.own_s": total["verify.verify_package"]
           - sum(r["end"] - r["start"] for r in steps)}
    for t in VERIFY_TARGETS:
        out[f"verify.{t}.run_s"] = total[f"verify.{t}.run"]
    return out


def startup_metrics(work) -> dict[str, float]:
    env = child_env(work / "startup-pycache")
    warm = dict(env)
    del warm["PYTHONDONTWRITEBYTECODE"]
    subprocess.run([sys.executable, "-c", "import oogen.cli"], env=warm, check=True)
    bare, imports = [], []
    selfs = {m: [] for m in STARTUP_MODULES}
    line_re = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)")
    for _ in range(STARTUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        bare.append(time.perf_counter() - start)
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import oogen.cli"],
                              env=env, check=True, capture_output=True, text=True)
        cumulative = 0
        own = dict.fromkeys(STARTUP_MODULES, 0)
        for match in map(line_re.match, done.stderr.splitlines()):
            if match is None:
                continue
            name = match.group(4)
            if not match.group(3) and name in ("oogen", "oogen.cli"):
                cumulative += int(match.group(2))
            for m in STARTUP_MODULES:
                if name == f"oogen.{m}" or name.startswith(f"oogen.{m}."):
                    own[m] += int(match.group(1))
        imports.append(cumulative / 1e6)
        for m in STARTUP_MODULES:
            selfs[m].append(own[m] / 1e6)
    out = {"startup.python_s": statistics.median(bare),
           "startup.import_oogen_s": statistics.median(imports)}
    for m in STARTUP_MODULES:
        out[f"startup.import.{m}_self_s"] = statistics.median(selfs[m])
    return out


def layout_calls(build, items, out) -> int:
    """Calls into functions defined in oogen/layout.py during one library pass."""
    stats = profile(lambda: library_pass(build, items, out)).stats
    return sum(nc for (filename, _, _), (_, nc, _, _, _) in stats.items()
               if filename.endswith(os.path.join("oogen", "layout.py")))


def _medians(per_pass: list[dict]) -> dict[str, float]:
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}


def traced_run(workload, seconds: float, tally):
    """Per-layer metrics for one workload; returns (metrics, spans)."""
    spans = Spans()
    values = startup_metrics(workload.work)
    values["host.ref_loop_s"] = statistics.median(ref_loop() for _ in range(11))
    items = workload.items
    out = workload.work / "traced-out"
    if isinstance(workload, Synth):
        build = workload.build
    else:
        def build():
            return importlib.reload(gallery)

    def traced_ops():
        if isinstance(workload, CliRender):
            return [lambda item=item: workload.op(item, ("-X", "importtime"))
                    for item in items]
        return [lambda: workload.op(spans)]

    install(spans)
    try:
        # The workload's own operation with tracing on, in whole rounds.
        marks = []
        ratios, _, _ = rounds(traced_ops, workload.reference, seconds, tally,
                              lambda: marks.append(spans.mark()))
        marks.append(spans.mark())
        values["trace.op_ref"] = statistics.median(ratios)

        # Library passes over the package set: for synth, the rounds above.
        if isinstance(workload, Synth):
            library = [library_metrics(spans, a, b, items, [workload.sizes])
                       for a, b in zip(marks, marks[1:])]
        else:
            library = []
            for _ in range(GALLERY_PASSES):
                mark = spans.mark()
                _, results = library_pass(build, items, out, spans)
                library.append(library_metrics(spans, mark, spans.mark(), items,
                                               [sizes for _, sizes, _ in results]))
                for item, (decoded, _, _) in zip(items, results):
                    tally.check(lambda: check_equal(f"{item.name} decoded", decoded,
                                                    item.package))

        # One verify_package pass over the package set.
        os.environ.update(resolve_toolchains())
        mark = spans.mark()
        for item in items:
            root = workload.work / "traced-verify" / item.name
            root.mkdir(parents=True)
            report = tally.run(lambda: verify.verify_package(
                item.package, targets=VERIFY_TARGETS, args=item.args,
                stdin=item.stdin, root_dir=str(root)))
            if report is not None:
                tally.check(lambda: check_report(item.name, report, item.expected_stdout))
        values.update(verify_metrics(spans, mark, spans.mark()))
    finally:
        spans.close()

    values.update(_medians(library))
    values["layout.calls"] = layout_calls(build, items, out)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    return metrics, spans
