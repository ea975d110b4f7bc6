"""Single mutations of package JSON: every one decodes or raises DecodeError.

The mutations are: delete each key; add an unknown key to each object; set
each value to null, 1, "x", [], {}, true and 2.5; replace the first element
of each array with {}. The outcome of every mutation of the all-tags
package is recorded in decode_corpus.txt, one `mutation<TAB>outcome` line
each, values with the same outcome at one place sharing a line, and every
one that decodes renders on all four targets. After a deliberate change to
the decoder's messages or rules, rewrite it with

    PYTHONPATH=src python tests/test_json_corpus.py

and review its diff.
"""

import json
from pathlib import Path

import pytest

import all_tags
from oogen import builders as bd, gallery, jsonio
from oogen.backends import TARGETS, get_backend
from oogen.errors import DecodeError, InvalidIdentifier

FIXTURE = Path(__file__).with_name("decode_corpus.txt")
VALUES = (None, 1, "x", [], {}, True, 2.5)
_DELETE = object()


def _where(steps) -> str:
    return "$" + "".join(f"[{s}]" if isinstance(s, int) else f".{s}" for s in steps)


def mutations(doc):
    """(steps, value) for every single mutation of `doc`: set the item at
    `steps` to `value`, or delete it when `value` is _DELETE."""
    def walk(node, steps):
        if isinstance(node, dict):
            yield steps + ["extra"], 1
            for key, value in node.items():
                here = steps + [key]
                yield here, _DELETE
                for v in VALUES:
                    yield here, v
                yield from walk(value, here)
        elif isinstance(node, list):
            if node:
                yield steps + [0], {}
            for i, item in enumerate(node):
                yield from walk(item, steps + [i])

    return list(walk(doc, []))


def decoded(text: str, steps, value):
    """The package the document in `text` decodes to after one mutation, or
    the DecodeError text. Any other exception propagates."""
    doc = json.loads(text)
    node = doc
    for step in steps[:-1]:
        node = node[step]
    if value is _DELETE:
        del node[steps[-1]]
    else:
        node[steps[-1]] = value
    try:
        return jsonio.decode_package(doc)
    except DecodeError as exc:
        return str(exc)


def outcome(text: str, steps, value) -> str:
    """"ok" or the DecodeError text."""
    result = decoded(text, steps, value)
    return result if isinstance(result, str) else "ok"


def corpus_lines(pkg) -> list[str]:
    """One line per deletion, and one per set of values that give the same
    outcome at one place: `$.a.b = null|1<TAB>outcome`."""
    text = json.dumps(jsonio.encode_package(pkg))
    groups: dict[tuple[str, str], list[str]] = {}
    for steps, value in mutations(json.loads(text)):
        result = outcome(text, steps, value)
        if value is _DELETE:
            groups[(f"del {_where(steps)}", result)] = []
        else:
            groups.setdefault((f"{_where(steps)} =", result), []).append(json.dumps(value))
    return [f"{label}{' ' + '|'.join(values) if values else ''}\t{result}"
            for (label, result), values in groups.items()]


def test_all_tags_mutations_match_recorded_outcomes():
    assert corpus_lines(all_tags.package()) == FIXTURE.read_text().splitlines()


def test_all_tags_mutations_that_decode_render_on_every_target():
    text = json.dumps(jsonio.encode_package(all_tags.package()))
    rendered = 0
    for steps, value in mutations(json.loads(text)):
        pkg = decoded(text, steps, value)
        if not isinstance(pkg, str):
            for target in TARGETS:
                get_backend(target).render_package(pkg)
            rendered += 1
    ok = 0
    for line in FIXTURE.read_text().splitlines():
        label, result = line.split("\t")
        if result == "ok":  # a deletion has its own line; the values set at one place share one
            ok += 1 if label.startswith("del ") else label.count("|") + 1
    assert rendered == ok


@pytest.mark.parametrize("entry", gallery.ENTRIES, ids=lambda e: e.name)
def test_gallery_mutations_raise_only_decode_error(entry):
    text = json.dumps(jsonio.encode_package(entry.package))
    for steps, value in mutations(json.loads(text)):
        outcome(text, steps, value)


_MAIN = ["program", "modules", 0, "functions", 2]
_USE = _MAIN + ["body", 0, 1, "expr"]  # the call use(...) in all_tags
_OBS = _MAIN + ["body", 0, 0, "var", "type", "class"]  # `Obs o = new Obs()`
_NEW_OBS = _MAIN + ["body", 0, 0, "value", "name"]
_OBSERVERS = _MAIN + ["body", 1, 14, "statements", 0, "var", "type", "elem", "class"]
_UPDATE = ["program", "modules", 0, "classes", 0, "methods", 0]  # Obs.update
NAME_STEPS = [
    ["program", "name"],
    ["program", "modules", 0, "name"],
    ["program", "modules", 0, "classes", 0, "name"],
    ["program", "modules", 0, "classes", 0, "parent"],
    ["program", "modules", 0, "functions", 0, "name"],
    ["program", "modules", 0, "functions", 0, "params", 0, "name"],
    ["program", "modules", 0, "classes", 0, "stateVars", 0, "var", "name"],
    _USE + ["name"],
    _USE + ["args", 6, "library"],
    _USE + ["args", 10, "list", "var", "owner"],
    _OBS,
    _NEW_OBS,
    _OBSERVERS,
    _UPDATE + ["returnType", "class"],
    _MAIN + ["body", 1, 13, "name"],
    _MAIN + ["body", 1, 16, "body", 0, 0, "expr", "name"],
]
BAD_NAMES = ["../../evil", "x = 1\nimport os", "", "2x", "x\n",
             '__import__("os").getcwd', "os; import sys", 5, ["x"]]
# The keys that lead from a name to the node whose rule judges it.
_NAME_KEYS = ("name", "parent", "library", "owner", "class", "elem", "type", "returnType")
# What the legal class name y gives where a class Obs is expected.
_MISFITS = {
    tuple(_OBS): f"{_where(_OBS[:-3])}: varDecDef o: variable type y, value type Obs",
    tuple(_NEW_OBS): f"{_where(_NEW_OBS[:-2])}: varDecDef o: variable type Obs, value type y",
    tuple(_OBSERVERS): f"{_where(_MAIN)}: addObserver: element type y, value type Obs",
}


def _holder(steps):
    while steps[-1] in _NAME_KEYS:
        steps = steps[:-1]
    return steps


def _names_text() -> str:
    """all_tags, where Obs.update returns an Obs: no method of all_tags
    returns an object, and update's body returns nothing."""
    doc = jsonio.encode_package(all_tags.package())
    doc["program"]["modules"][0]["classes"][0]["methods"][0]["returnType"] = {
        "kind": "object", "class": "Obs"}
    return json.dumps(doc)


@pytest.mark.parametrize("steps", NAME_STEPS, ids=_where)
@pytest.mark.parametrize("name", BAD_NAMES + ["class"])  # a reserved word is no name
def test_names_the_builders_reject_do_not_decode(steps, name):
    text = _names_text()
    assert outcome(text, steps, "y") == _MISFITS.get(tuple(steps), "ok")
    # The rule of the node that holds the name refuses it, at that node.
    assert outcome(text, steps, name) == (
        f"{_where(_holder(steps))}: not a legal identifier: {name!r}")


@pytest.mark.parametrize("name", BAD_NAMES + ["a..b", "a.", ".a", "a.2b"])
def test_imports_must_be_dotted_names(name):
    text = json.dumps(jsonio.encode_package(all_tags.package()))
    steps = ["program", "modules", 0, "imports", 0]
    assert outcome(text, steps, "java.util.ArrayList") == "ok"
    assert outcome(text, steps, name) == f"{_where(steps[:-2])}: not a legal dotted name: {name!r}"
    with pytest.raises(InvalidIdentifier):
        bd.build_module("M", [name], [], [])


if __name__ == "__main__":
    FIXTURE.write_text("\n".join(corpus_lines(all_tags.package())) + "\n")
