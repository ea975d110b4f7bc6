"""Rendered Python is warning-free: every module compiles with each warning
an error, which catches Python's own `SyntaxWarning`s (an invalid escape in
a string, `is` against a literal) without a linter."""

import importlib.util
import sys
import warnings
from pathlib import Path

import pytest

import all_tags
from oogen import gallery
from oogen.backends import assemble_package

_SYNTH_PATH = Path(__file__).resolve().parent.parent / "bench" / "synth.py"


def _synth(seed: int):
    """The benchmark's synthetic package for `seed`, at its default size."""
    synth = sys.modules.get("bench_synth")
    if synth is None:  # its dataclasses look their module up in sys.modules
        spec = importlib.util.spec_from_file_location("bench_synth", _SYNTH_PATH)
        synth = sys.modules["bench_synth"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(synth)
    return synth.build(synth.make_plan(seed))


_PACKAGES = [*((e.name, lambda e=e: e.package) for e in gallery.ENTRIES),
             ("all_tags", all_tags.package),
             *((f"synth{seed}", lambda seed=seed: _synth(seed)) for seed in (1, 2, 3))]


@pytest.mark.parametrize("make", [make for _, make in _PACKAGES],
                         ids=[name for name, _ in _PACKAGES])
def test_rendered_python_compiles_without_a_warning(make):
    modules = [f for f in assemble_package(make(), "python") if f.path.endswith(".py")]
    assert modules
    for f in modules:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(f.text, f.path, "exec")
