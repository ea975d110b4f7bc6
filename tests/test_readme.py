"""README's JSON listings are documents this version reads: each fenced
`json` block decodes with `jsonio.loads`, so a schema change cannot leave
one stale."""

import re
from pathlib import Path

import pytest

from oogen import jsonio

README = Path(__file__).parent.parent / "README.md"
BLOCKS = re.findall(r"^```json\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_holds_the_json_listings():
    assert len(BLOCKS) == 2


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_every_json_listing_in_the_readme_decodes(index):
    jsonio.loads(BLOCKS[index])
