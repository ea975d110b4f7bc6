"""A tree or document nested past Python's recursion limit fails with a
typed error at the entry point it was handed to, never a RecursionError.
The error names no path deeper than "$". Below that limit, every target
renders the deepest chain the decoder accepts."""

import json

import pytest

from oogen import builders as bd, cli, ir, jsonio, patterns as pt
from oogen.backends import TARGETS, get_backend
from oogen.errors import BuildError, DecodeError, NestingTooDeep

DEPTH = 3000  # well past the default recursion limit of 1000


def _deep_package(depth: int):
    """A program printing `1 + 1 + ... + 1`, `depth` additions nested to the left."""
    e = bd.lit_int(1)
    for _ in range(depth):
        e = bd.apply_binary("#+", e, bd.lit_int(1))
    main = bd.main_function(bd.one_liner(pt.print_ln(e)))
    return bd.prog("Deep", [bd.build_module("Deep", [], [main], [])])


_LIT = '{"op": "lit", "kind": "int", "value": 1}'
_TRUE = '{"op": "lit", "kind": "bool", "value": true}'
# One level of each chain shape, around the JSON `e` of the level below.
CHAINS = {
    "left-plus": lambda e: f'{{"op": "binary", "name": "#+", "left": {e}, "right": {_LIT}, '
                           f'"type": "int"}}',
    "right-plus": lambda e: f'{{"op": "binary", "name": "#+", "left": {_LIT}, "right": {e}, '
                            f'"type": "int"}}',
    "negate": lambda e: f'{{"op": "unary", "name": "#~", "operand": {e}, "type": "int"}}',
    "inline-if-else": lambda e: f'{{"op": "inlineIf", "cond": {_TRUE}, "then": {_LIT}, '
                                f'"else": {e}}}',
    # A library function's arguments are an array: a level costs the decoder
    # one frame more than an operator's.
    "abs": lambda e: f'{{"op": "math", "fn": "abs", "args": [{e}], "type": "int"}}',
    "sqrt": lambda e: f'{{"op": "math", "fn": "sqrt", "args": [{e}], "type": "float"}}',
    "sin": lambda e: f'{{"op": "math", "fn": "sin", "args": [{e}], "type": "float"}}',
    "left-power": lambda e: f'{{"op": "math", "fn": "pow", "args": [{e}, {_LIT}], '
                            f'"type": "float"}}',
    "right-power": lambda e: f'{{"op": "math", "fn": "pow", "args": [{_LIT}, {e}], '
                             f'"type": "float"}}',
}


def _deep_document(depth: int, level=CHAINS["left-plus"]) -> str:
    """The JSON of a package printing `depth` levels of a chain shape
    (`_deep_package(depth)` by default), built as text: json.dumps itself
    cannot write a document this deep."""
    shallow = jsonio.dumps(_deep_package(1))
    printed = json.loads(shallow)["program"]["modules"][0]["functions"][0]["body"][0][0]["expr"]
    e = _LIT
    for _ in range(depth):
        e = level(e)
    return shallow.replace(json.dumps(printed), e, 1)


def test_nesting_too_deep_is_a_build_error():
    assert issubclass(NestingTooDeep, BuildError)


@pytest.mark.parametrize("target", TARGETS)
def test_render_of_a_too_deep_tree_raises_nesting_too_deep(target):
    with pytest.raises(NestingTooDeep, match=f"too deeply to render to {target}"):
        get_backend(target).render_package(_deep_package(DEPTH))


def test_encode_of_a_too_deep_tree_raises_nesting_too_deep():
    pkg = _deep_package(DEPTH)
    with pytest.raises(NestingTooDeep, match="too deeply to encode"):
        jsonio.encode_package(pkg)
    with pytest.raises(NestingTooDeep, match="too deeply to encode"):
        jsonio.dumps(pkg)


def test_decode_of_a_too_deep_document_raises_decode_error_at_the_root():
    text = _deep_document(DEPTH)
    with pytest.raises(DecodeError, match="too deeply to decode") as from_text:
        jsonio.loads(text)
    assert from_text.value.path == "$"
    lit = {"op": "lit", "kind": "int", "value": 1}
    data = lit
    for _ in range(DEPTH):  # parsed already: the decoder's own walk is too deep
        data = {"op": "binary", "name": "#+", "left": data, "right": lit, "type": "int"}
    doc = json.loads(jsonio.dumps(_deep_package(1)))
    doc["program"]["modules"][0]["functions"][0]["body"][0][0]["expr"] = data
    with pytest.raises(DecodeError, match="too deeply to decode") as from_data:
        jsonio.decode_package(doc)
    assert from_data.value.path == "$"


def test_a_shallower_document_still_decodes_and_renders():
    pkg = jsonio.loads(_deep_document(100))
    assert pkg == _deep_package(100)
    assert get_backend("python").render_package(pkg)[0].text.count("+ 1") == 100


def _decodes(text: str) -> bool:
    try:
        jsonio.loads(text)
    except DecodeError:
        return False
    return True


@pytest.mark.parametrize("shape", CHAINS)
def test_the_deepest_document_that_decodes_renders_on_every_target(shape):
    """Render takes no more stack per level than decode does: the deepest
    chain `jsonio.loads` accepts, found by binary search, renders."""
    level = CHAINS[shape]
    low, high = 1, DEPTH  # decodes at low, not at high
    assert _decodes(_deep_document(low, level)) and not _decodes(_deep_document(high, level))
    while high - low > 1:
        mid = (low + high) // 2
        if _decodes(_deep_document(mid, level)):
            low = mid
        else:
            high = mid
    pkg = jsonio.loads(_deep_document(low, level))
    for target in TARGETS:
        assert get_backend(target).render_package(pkg), target


def test_cli_render_of_a_too_deep_document_exits_2(tmp_path, capsys):
    src = tmp_path / "deep.json"
    src.write_text(_deep_document(DEPTH))
    rc = cli.main(["render", "--input", str(src), "--target", "python",
                   "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "oogen: $: document nests too deeply to decode\n"


IF_DEPTH = 1200  # past the recursion limit, so the builders' walk must not recurse


def _deep_ifs(depth: int):
    """A main of `depth` nested `if`s around one print."""
    body = bd.one_liner(pt.print_str_ln("deep"))
    for _ in range(depth):
        body = bd.one_liner(bd.if_cond([(bd.lit_bool(True), body)]))
    main = bd.main_function(body)
    return bd.prog("DeepIfs", [bd.build_module("DeepIfs", [], [main], [])])


def test_deeply_nested_statements_build_and_fail_typed_downstream():
    pkg = _deep_ifs(IF_DEPTH)
    for target in TARGETS:
        with pytest.raises(NestingTooDeep, match=f"too deeply to render to {target}"):
            get_backend(target).render_package(pkg)
    with pytest.raises(NestingTooDeep, match="too deeply to encode"):
        jsonio.encode_package(pkg)


def _if_depth(pkg) -> tuple[int, object]:
    """How many `if`s nest in main, and the statement inside the last."""
    s, depth = pkg.modules[0].functions[0].body.blocks[0].statements[0], 0
    while type(s) is ir.If:
        s, depth = s.branches[0][1].blocks[0].statements[0], depth + 1
    return depth, s


def test_statements_150_deep_encode_and_decode():
    """The codec spends no comprehension frame on an array, so an `if`
    (an object, its branches, a branch, its body and a block per level)
    nests 150 deep both ways."""
    pkg = jsonio.decode_package(jsonio.encode_package(_deep_ifs(150)))
    assert _if_depth(pkg) == (150, pt.print_str_ln("deep"))


def _deep_ifs_document(depth: int) -> dict:
    """The document of `_deep_ifs(depth)`, nested by hand: encode_package
    is what the test below checks."""
    doc = jsonio.encode_package(_deep_ifs(0))
    main = doc["program"]["modules"][0]["functions"][0]
    true = {"op": "lit", "kind": "bool", "value": True}
    for _ in range(depth):
        main["body"] = [[{"stmt": "if", "branches": [{"cond": true, "body": main["body"]}]}]]
    return doc


def test_the_deepest_if_chain_that_decodes_encodes():
    """Encode spends no more stack per level than decode: an `if`'s
    `(cond, body)` pairs go straight to `_encode`, as they go straight to
    `_decode`."""
    low, high = 1, IF_DEPTH  # decodes at low, not at high
    while high - low > 1:
        mid = (low + high) // 2
        try:
            jsonio.decode_package(_deep_ifs_document(mid))
        except DecodeError:
            high = mid
        else:
            low = mid
    pkg = jsonio.decode_package(_deep_ifs_document(low))
    assert _if_depth(pkg) == (low, pt.print_str_ln("deep"))
    doc = jsonio.encode_package(pkg)
    assert _if_depth(jsonio.decode_package(doc)) == (low, pt.print_str_ln("deep"))
