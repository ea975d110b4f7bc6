"""The library path's call budgets. Building the all-tags package,
`jsonio.loads` and `encode_package` of it, and `render_package` of it for
each target make no more function calls, counted by cProfile, than the
budgets below: a builtin or Python call per field or node on the valid
path (bookkeeping, not a node's work) fails here, not only in the
benchmark. Entries labelled `<string>` (every record's `__init__` shares
that label, so cProfile keeps only one of them) are left out. A change that
lowers a count should lower its budget to match."""

import cProfile
import pstats

import pytest

import all_tags
from oogen import jsonio
from oogen.backends import TARGETS, get_backend

LOADS_BUDGET = 1189
ENCODE_BUDGET = 369
BUILD_BUDGET = 728
RENDER_BUDGETS = {"python": 635, "java": 892, "csharp": 857, "cpp": 1052}


def _calls(fn, *args) -> int:
    fn(*args)  # fills the caches a first call fills
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn(*args)
    finally:
        prof.disable()
    return sum(calls for (file, _, _), (_, calls, *_) in pstats.Stats(prof).stats.items()
               if file != "<string>")


def test_loads_stays_within_its_call_budget():
    assert _calls(jsonio.loads, jsonio.dumps(all_tags.package())) <= LOADS_BUDGET


def test_encode_package_stays_within_its_call_budget():
    assert _calls(jsonio.encode_package, all_tags.package()) <= ENCODE_BUDGET


def test_building_stays_within_its_call_budget():
    assert _calls(all_tags.package) <= BUILD_BUDGET


def test_every_target_names_a_render_budget():
    assert set(RENDER_BUDGETS) == set(TARGETS)


@pytest.mark.parametrize("target", TARGETS)
def test_render_package_stays_within_its_call_budget(target):
    assert _calls(get_backend(target).render_package, all_tags.package()) <= RENDER_BUDGETS[target]
