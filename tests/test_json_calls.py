"""The codec's call budget. `jsonio.loads` and `encode_package` of the
all-tags package make no more function calls, counted by cProfile, than
the budgets below: a builtin or Python call per field on the codec's
valid path fails here, not only in the benchmark. Entries labelled
`<string>` (every record's `__init__` shares that label, so cProfile
keeps only one of them) are left out. A change that lowers a count
should lower its budget to match."""

import cProfile
import pstats

import all_tags
from oogen import jsonio

LOADS_BUDGET = 1542
ENCODE_BUDGET = 584


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
