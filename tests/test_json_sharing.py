"""Decoding shares each distinct variable object within one document, as the
builders share a variable across its uses; encoding writes each shared
variable once but hands every use its own dict."""

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import all_tags
from oogen import builders as bd, gallery, ir, jsonio, patterns as pt
from oogen.errors import DecodeError


def _variables(node) -> list:
    """Every VariableRepr in the tree, once per place it is held."""
    found, stack = [], [node]
    while stack:
        node = stack.pop()
        if isinstance(node, ir.VariableRepr):
            found.append(node)
        elif isinstance(node, tuple):
            stack.extend(node)
        elif hasattr(type(node), "__record_values__"):
            stack.extend(type(node).__record_values__(node))
    return found


def _list_package():
    """A package whose variables have list, nested list and object types,
    each used several times."""
    xs = bd.var("xs", ir.list_of(ir.INT))
    grid = bd.var("grid", ir.list_of(ir.list_of(ir.INT)))
    c = bd.var("c", ir.obj_of("Counter"))
    main = bd.main_function(bd.body_statements([
        bd.var_dec(xs),
        bd.var_dec(grid),
        bd.var_dec_def(c, bd.new_obj("Counter", [])),
        bd.call_stmt(pt.list_append(bd.value_of(xs), bd.lit_int(1))),
        bd.call_stmt(pt.list_append(bd.value_of(grid), bd.value_of(xs))),
        pt.print_ln(pt.list_size(pt.list_access(bd.value_of(grid), bd.lit_int(0)))),
        pt.print_ln(pt.list_size(bd.value_of(grid))),
        bd.assign(c, bd.new_obj("Counter", [])),
    ]))
    counter = bd.build_class("Counter", None, ir.Scope.PUBLIC, [], [])
    return bd.prog("lists", [bd.build_module("Main", [], [main], [counter])])


_PACKAGES = [(e.name, lambda e=e: e.package) for e in gallery.ENTRIES] + [
    ("all_tags", all_tags.package), ("lists", _list_package)]


@pytest.mark.parametrize("make", [m for _, m in _PACKAGES], ids=[n for n, _ in _PACKAGES])
def test_decoded_package_equals_built_and_shares_equal_variables(make):
    pkg = make()
    decoded = jsonio.loads(jsonio.dumps(pkg))
    assert decoded == pkg
    ids: dict[ir.VariableRepr, set[int]] = {}
    for v in _variables(decoded):
        ids.setdefault(v, set()).add(id(v))
    assert all(len(same) == 1 for same in ids.values())


def test_list_and_object_typed_variables_are_shared():
    variables = _variables(jsonio.loads(jsonio.dumps(_list_package())))
    kinds = {v.type.kind for v in variables}
    assert {"list", "object"} <= kinds
    assert len(variables) > len({id(v) for v in variables}) == 3


def test_differently_ordered_keys_decode_equal():
    doc = jsonio.encode_package(_list_package())
    text = json.dumps(doc)
    reordered = text.replace('{"name": "xs", "type": {"kind": "list", "elem": "int"}}',
                             '{"type": {"elem": "int", "kind": "list"}, "name": "xs"}', 1)
    assert reordered != text
    assert jsonio.loads(reordered) == jsonio.loads(text)


def test_documents_decoded_in_turn_share_no_variable():
    texts = [jsonio.dumps(p) for p in (all_tags.package(), _list_package(),
                                       gallery.get("patternTest").package)]
    first = [jsonio.loads(t) for t in texts]
    again = jsonio.loads(texts[0])  # the same document once more
    seen: set[int] = set()
    for pkg in (*first, again):
        mine = {id(v) for v in _variables(pkg)}
        assert mine and not mine & seen
        seen |= mine
    assert again == first[0]


def test_concurrent_decodes_equal_sequential_ones():
    texts = [jsonio.dumps(p()) for _, p in _PACKAGES]
    expected = [jsonio.loads(t) for t in texts]
    start = threading.Barrier(4)

    def decode_all(_):
        start.wait()
        return [jsonio.loads(t) for t in texts]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside each decode
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(decode_all, range(4)))
    finally:
        sys.setswitchinterval(interval)
    seen: set[int] = set()
    for got in results:
        assert got == expected
        for pkg in got:
            mine = {id(v) for v in _variables(pkg)}
            assert not mine & seen
            seen |= mine


class _Pausing(dict):
    """A JSON object that, when the decoder first asks whether it holds a
    key, runs `pause` to its end; `paused` tells whether it did."""

    def __init__(self, data, pause):
        super().__init__(data)
        self.pause, self.paused = pause, False

    def __contains__(self, key):
        pause, self.pause = self.pause, None
        if pause is not None:
            pause()
            self.paused = True
        return super().__contains__(key)


def test_a_decode_in_another_thread_leaves_this_ones_variables_alone():
    pkg = _list_package()
    doc = jsonio.encode_package(pkg)
    other = {}

    def decode_in_another_thread():
        worker = threading.Thread(target=lambda: other.update(pkg=jsonio.loads(jsonio.dumps(pkg))))
        worker.start()
        worker.join()

    body = doc["program"]["modules"][0]["functions"][0]["body"][0]
    # The pause comes after some uses of each variable.
    body[4] = paused = _Pausing(body[4], decode_in_another_thread)
    mine = jsonio.decode_package(doc)
    assert paused.paused  # the other thread decoded in the middle of this decode
    assert mine == pkg == other["pkg"]
    variables = _variables(mine)
    assert len({id(v) for v in variables}) == len(set(variables)) == 3
    assert not {id(v) for v in variables} & {id(v) for v in _variables(other["pkg"])}


def _containers(data, found):
    if isinstance(data, (dict, list)):
        found.append(data)
        for x in data.values() if isinstance(data, dict) else data:
            _containers(x, found)
    return found


@pytest.mark.parametrize("make", [all_tags.package, _list_package], ids=["all_tags", "lists"])
def test_encoded_output_has_no_aliasing(make):
    found = _containers(jsonio.encode_package(make()), [])
    assert len(found) == len({id(x) for x in found})


def test_mutating_one_variable_dict_leaves_the_others_unchanged():
    doc = jsonio.encode_package(_list_package())
    uses = [d for d in _containers(doc, [])
            if isinstance(d, dict) and d.get("name") == "grid" and "type" in d]
    assert len(uses) >= 3
    uses[0]["name"] = "renamed"
    uses[0]["type"]["elem"]["elem"] = "bool"
    for other in uses[1:]:
        assert other == {"name": "grid",
                         "type": {"kind": "list", "elem": {"kind": "list", "elem": "int"}}}


def test_a_bad_later_use_of_a_variable_is_still_refused():
    doc = jsonio.encode_package(_list_package())
    uses = [d for d in _containers(doc, [])
            if isinstance(d, dict) and d.get("name") == "xs" and "type" in d]
    uses[-1]["form"] = "objectMember"  # a form that needs an owner
    with pytest.raises(DecodeError, match="requires an 'owner'"):
        jsonio.decode_package(doc)


def _distinct_variables(pkg) -> int:
    """How many variable objects the tree holds; equal ones must be one."""
    variables = _variables(pkg)
    ids = {id(v) for v in variables}
    assert len(ids) == len(set(variables))
    return len(ids)


def test_a_decode_nested_in_another_leaves_the_outer_ones_sharing_alone():
    pkg = _list_package()
    doc = jsonio.encode_package(pkg)
    inner = {}

    def decode_inside():
        with pytest.raises(DecodeError):
            jsonio.loads('{"version": 2}')
        inner.update(pkg=jsonio.decode_package(jsonio.encode_package(pkg)))

    body = doc["program"]["modules"][0]["functions"][0]["body"][0]
    # The pause comes after some uses of each variable, on this same thread.
    body[4] = paused = _Pausing(body[4], decode_inside)
    outer = jsonio.decode_package(doc)
    assert paused.paused  # the inner decodes ran in the middle of this one
    assert outer == pkg == inner["pkg"]
    assert _distinct_variables(outer) == _distinct_variables(inner["pkg"]) == 3
    assert not {id(v) for v in _variables(outer)} & {id(v) for v in _variables(inner["pkg"])}
    # A decode after a refused one shares too.
    with pytest.raises(DecodeError):
        jsonio.loads('{"version": 2}')
    assert _distinct_variables(jsonio.loads(jsonio.dumps(pkg))) == 3


def _prints(*exprs) -> dict:
    """A document whose main prints each of these expression objects."""
    main = bd.main_function(bd.body_statements([pt.print_ln(bd.lit_int(0))] * len(exprs)))
    doc = jsonio.encode_package(bd.prog("p", [bd.build_module("Main", [], [main], [])]))
    block = doc["program"]["modules"][0]["functions"][0]["body"][0]
    for stmt, expr in zip(block, exprs):
        stmt["expr"] = expr
    return doc


def _printed(pkg) -> list:
    return [s.expr for s in pkg.modules[0].functions[0].body.blocks[0].statements]


def test_equal_int_string_and_bool_literals_are_shared():
    exprs = [{"op": "lit", "kind": k, "value": v}
             for k, v in (("int", 1), ("string", "a"), ("bool", True), ("char", "c"))]
    first, second = (_printed(jsonio.decode_package(_prints(*exprs, *exprs))) for _ in range(2))
    for a, b in zip(first[:4], first[4:]):
        assert a is b
    assert not {id(x) for x in first} & {id(x) for x in second}


def test_a_decoded_operator_is_the_operator_tables_own_name():
    """An operator node holds its name: a decoded one holds `ir.OPERATORS`'
    own string, not a string per node from the JSON text."""
    table = {name: name for name in ir.OPERATORS}
    doc = json.loads(json.dumps(_prints(
        {"op": "unary", "name": "#~", "operand": {"op": "lit", "kind": "int", "value": 1},
         "type": "int"},
        {"op": "binary", "name": "?&&", "left": {"op": "lit", "kind": "bool", "value": True},
         "right": {"op": "lit", "kind": "bool", "value": False}, "type": "bool"})))
    negate, both = _printed(jsonio.decode_package(doc))
    assert negate.op is table["#~"] and both.op is table["?&&"]


def _enumerated(node, found):
    """Add (class name, field) -> values of every enumerated field in `node`."""
    if isinstance(node, tuple):
        for x in node:
            _enumerated(x, found)
    elif hasattr(type(node), "__record_values__"):
        cls = type(node)
        for name, value in zip(cls.__match_args__, cls.__record_values__(node)):
            if name in ("scope", "binding", "form", "mode", "op") or (
                    name == "kind" and cls in (ir.Lit, ir.AuxFileSpec)):
                found.setdefault((cls.__name__, name), []).append(value)
            else:
                _enumerated(value, found)
    return found


def test_every_decoded_enumerated_value_is_the_builders_own_string():
    """A scope, binding, form, mode, operator, literal kind or aux kind
    decodes to `builders.ENUMERATED`'s string, not a string per node."""
    table = {v: v for v in bd.ENUMERATED}
    found = _enumerated(jsonio.loads(jsonio.dumps(all_tags.package())), {})
    assert {("MethodRepr", "scope"), ("StateVarRepr", "binding"), ("ClassDeclRepr", "scope"),
            ("VariableRepr", "form"), ("Call", "form"), ("Assign", "mode"), ("Binary", "op"),
            ("Lit", "kind"), ("AuxFileSpec", "kind")} <= set(found)
    for field, values in found.items():
        assert all(v is table[v] for v in values), field


@pytest.mark.parametrize("value", [True, 1.0], ids=["true", "1.0"])
def test_a_shared_int_literal_does_not_admit_equal_values_of_other_types(value):
    one = {"op": "lit", "kind": "int", "value": 1}
    with pytest.raises(DecodeError, match="does not fit literal kind 'int'") as err:
        jsonio.decode_package(_prints(one, {"op": "lit", "kind": "int", "value": value}))
    assert err.value.path.endswith("body[0][1].expr")


def test_negative_zero_after_zero_still_renders_negative_zero():
    from oogen.backends import get_backend
    zero, negative = ({"op": "lit", "kind": "float", "value": v} for v in (0.0, -0.0))
    pkg = jsonio.loads(json.dumps(_prints(zero, negative)))
    assert [repr(e.value) for e in _printed(pkg)] == ["0.0", "-0.0"]
    text = get_backend("python").render_package(pkg)[0].text
    assert "print(0.0)" in text and "print(-0.0)" in text
