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
from oogen import builders, ir, jsonio
from oogen.backends import TARGETS, get_backend

LOADS_BUDGET = 1165
ENCODE_BUDGET = 367
BUILD_BUDGET = 717
RENDER_BUDGETS = {"python": 617, "java": 880, "csharp": 842, "cpp": 1017}


def _stats(fn, *args) -> dict:
    fn(*args)  # fills the caches a first call fills
    prof = cProfile.Profile()
    prof.enable()
    try:
        fn(*args)
    finally:
        prof.disable()
    return pstats.Stats(prof).stats


def _calls(fn, *args) -> int:
    return sum(calls for (file, _, _), (_, calls, *_) in _stats(fn, *args).items()
               if file != "<string>")


def _label(code) -> tuple:
    """The key cProfile and pstats file a function's calls under."""
    return code.co_filename, code.co_firstlineno, code.co_name


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


def test_the_package_rule_runs_once_per_package():
    label = _label(builders.RULES[ir.PackageTree].__code__)
    assert _stats(all_tags.package)[label][1] == 1
    assert _stats(jsonio.loads, jsonio.dumps(all_tags.package()))[label][1] == 1


def test_no_two_rules_or_handlers_share_a_profile_label():
    # pstats keeps one entry per label, so two functions that shared one
    # would be counted as one and a budget above would undercount.
    tables = [builders.RULES]
    for target in TARGETS:
        cls = type(get_backend(target))
        tables += [cls._expr_table, cls._stmt_table, cls.lowerings, cls._var_table]
    # By identity: two functions' code objects may compare equal.
    codes = {id(f.__code__): f.__code__ for table in tables for f in table.values()}
    labels = [_label(code) for code in codes.values()]
    assert len(set(labels)) == len(labels)
