"""The encoder's bytes are pinned: all_tags.json holds the compact
`jsonio.dumps` of the all-tags package, and the indented listing is the
same data indented. After a deliberate change to the JSON format, rewrite
it with

    PYTHONPATH=src python tests/test_json_bytes.py

and review its diff.
"""

import json
from pathlib import Path

import all_tags
from oogen import jsonio

FIXTURE = Path(__file__).with_name("all_tags.json")


def test_compact_json_is_byte_identical_to_the_fixture():
    assert jsonio.dumps(all_tags.package()) == FIXTURE.read_text()


def test_indented_json_is_the_fixture_indented():
    expected = json.dumps(json.loads(FIXTURE.read_text()), indent=2) + "\n"
    assert jsonio.dumps(all_tags.package(), indent=2) == expected


if __name__ == "__main__":
    FIXTURE.write_text(jsonio.dumps(all_tags.package()))
