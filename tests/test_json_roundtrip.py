"""JSON interchange: decode(encode(pkg)) must be the identity, and decode
must reject malformed documents with a JSON path pointing at the problem."""

import json

import pytest

import all_tags
from oogen import builders as bd, gallery, ir, jsonio, patterns as pt
from oogen.errors import DecodeError


@pytest.mark.parametrize("entry", gallery.ENTRIES, ids=lambda e: e.name)
def test_roundtrip_is_identity(entry):
    assert jsonio.loads(jsonio.dumps(entry.package)) == entry.package


@pytest.mark.parametrize("entry", gallery.ENTRIES, ids=lambda e: e.name)
def test_dumps_is_stable(entry):
    once = jsonio.dumps(entry.package)
    again = jsonio.dumps(jsonio.loads(once))
    assert once == again


def _concrete_nodes():
    bases = (ir.ExprRepr, ir.StatementRepr)
    return [cls for cls in vars(ir).values()
            if isinstance(cls, type) and issubclass(cls, bases) and cls not in bases]


@pytest.mark.parametrize("cls", _concrete_nodes(), ids=lambda c: c.__name__)
def test_every_node_class_has_exactly_one_row(cls):
    rows = [row for union in (jsonio._EXPR, jsonio._STMT) for row in union.rows.values()
            if row.make is cls]
    assert len(rows) == 1


def test_every_field_of_an_encoded_record_is_in_its_row():
    # A field left out of its row would decode to its default unseen. A
    # program's aux files are the document's.
    unlisted = {(cls.__name__, name) for cls, row in jsonio._ROW_OF.items()
                for pos, name in enumerate(cls.__match_args__)
                if pos not in {field_pos for _, field_pos, _, _ in row.encoders}}
    assert unlisted == {("PackageTree", "aux")}


def test_all_tags_package_uses_every_tag_and_roundtrips():
    pkg = all_tags.package()
    assert all_tags.tags(jsonio.encode_package(pkg)) == (
        set(jsonio._EXPR.rows) | set(jsonio._STMT.rows))
    assert len(set(jsonio._EXPR.rows) | set(jsonio._STMT.rows)) == 39
    for indent in (None, 2):
        assert jsonio.loads(jsonio.dumps(pkg, indent=indent)) == pkg


def test_nested_block_statement_roundtrips_and_renders_the_same():
    from oogen.backends import TARGETS, get_backend
    n = bd.var("n", ir.INT)
    strategy = pt.run_strategy("fast", {"fast": bd.one_liner(bd.inc(n)),
                                        "slow": bd.one_liner(bd.dec(n))})
    main = bd.main_function(bd.body_statements([
        bd.var_dec_def(n, bd.lit_int(1)), strategy, pt.print_ln(bd.value_of(n))]))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    text = jsonio.dumps(pkg)
    assert '{"stmt": "block", "statements": [' in text
    decoded = jsonio.loads(text)
    assert decoded == pkg
    for target in TARGETS:
        backend = get_backend(target)
        assert ([(f.path, f.text) for f in backend.render_package(decoded)]
                == [(f.path, f.text) for f in backend.render_package(pkg)])


def test_roundtrip_keeps_aux_specs():
    pkg = bd.package(bd.prog("p", [_tiny_module()]),
                     [ir.AuxFileSpec("makefile", with_doc_rule=True),
                      ir.AuxFileSpec("doxygen")])
    assert jsonio.loads(jsonio.dumps(pkg)) == pkg


def _tiny_module():
    return bd.build_module(
        "Main", [], [bd.main_function(bd.one_liner(pt.print_str_ln("hi")))], [])


def _doc():
    return json.loads(jsonio.dumps(bd.prog("p", [_tiny_module()])))


def _expect_error(doc, path_fragment, message_fragment=None):
    with pytest.raises(DecodeError) as err:
        jsonio.loads(json.dumps(doc))
    assert path_fragment in err.value.path, err.value
    if message_fragment is not None:
        assert message_fragment in str(err.value)


def test_version_field_checked():
    # Every earlier version is refused at `$.version`, as README says.
    doc = _doc()
    for old in range(1, jsonio.SCHEMA_VERSION):
        doc["version"] = old
        _expect_error(doc, "$.version", f"unsupported version {old}; this reader handles"
                                        f" version {jsonio.SCHEMA_VERSION}")


@pytest.mark.parametrize("version", [float(jsonio.SCHEMA_VERSION), str(jsonio.SCHEMA_VERSION),
                                     True, 0])
def test_version_must_be_the_integer_schema_version(version):
    doc = _doc()
    doc["version"] = version
    _expect_error(doc, "$.version", f"unsupported version {version!r}")


class _Dict(dict):
    pass


class _List(list):
    pass


class _Str(str):
    pass


# Fields whose strings may be a str subclass: tags, type kinds and enumerated
# values, which decode to the builders' own strings, and texts. A name or a
# math function's name must be exactly a str: the rules look it up in a set
# or a dict, which hashes it.
_STR_KEYS = {"op", "stmt", "kind", "form", "mode", "scope", "binding", "text", "message",
             "description", "returns"}


def _subclassed(node):
    """The same JSON value with every object and array a subclass, and
    every key and every string under _STR_KEYS a str subclass."""
    if isinstance(node, dict):
        return _Dict({_Str(k): _Str(v) if k in _STR_KEYS and isinstance(v, str)
                      else _subclassed(v) for k, v in node.items()})
    if isinstance(node, list):
        return _List(_subclassed(x) for x in node)
    return node


def test_decode_accepts_dict_list_and_str_subclasses():
    pkg = all_tags.package()
    assert jsonio.decode_package(_subclassed(jsonio.encode_package(pkg))) == pkg


def test_a_doc_pair_built_as_a_list_round_trips():
    # It once stayed a list, which the decoded tuple never equals.
    f = bd.function("f", ir.Scope.PUBLIC, ir.Binding.STATIC, ir.VOID,
                    [bd.var("x", ir.INT), bd.var("y", ir.INT)], bd.body([]))
    f = bd.doc_func("d", [["y", "t"], ("x", "u")], None, f)
    assert f.doc.param_descs == (("x", "u"), ("y", "t"))
    pkg = bd.prog("p", [bd.build_module("Main", [], [f, bd.main_function(bd.body([]))], [])])
    assert jsonio.loads(jsonio.dumps(pkg)) == pkg


def test_unknown_top_level_key_rejected():
    doc = _doc()
    doc["extra"] = 1
    _expect_error(doc, "$", "extra")


@pytest.mark.parametrize("kind", ["void", "int", "string"])
def test_a_scalar_type_is_written_only_as_its_name(kind):
    doc = _doc()
    doc["program"]["modules"][0]["functions"][0]["returnType"] = {"kind": kind}
    with pytest.raises(DecodeError) as err:
        jsonio.loads(json.dumps(doc))
    assert str(err.value) == (
        f"$.program.modules[0].functions[0].returnType: unknown type kind {kind!r}")


_BODY = "$.program.modules[0].functions[0].body[0][0]"


def _put_statement(stmt):
    def put(doc):
        doc["program"]["modules"][0]["functions"][0]["body"][0][0] = stmt
    return put


def _put_const_state_var(doc):
    doc["program"]["modules"][0]["classes"] = [{
        "name": "C", "scope": "public", "methods": [], "stateVars": [{
            "scope": "public", "binding": "static", "var": {"name": "n", "type": "int"},
            "const": True}]}]


# Version 5 deleted what no target could run: the `free` statement (g++
# refuses `delete` on a value), a const state variable (nothing gave it a
# value) and the file types (no node opens, reads or writes one).
@pytest.mark.parametrize("put,message", [
    (_put_statement({"stmt": "free", "var": {"name": "x", "type": "int"}}),
     f"{_BODY}: unknown statement tag 'free'"),
    (_put_const_state_var,
     "$.program.modules[0].classes[0].stateVars[0]: unknown field(s) 'const'"),
    *[(_put_statement({"stmt": "varDec", "var": {"name": "f", "type": kind}}),
       f"{_BODY}.var.type: unknown type kind {kind!r}") for kind in ("infile", "outfile")],
], ids=["free", "const", "infile", "outfile"])
def test_deleted_constructs_are_refused(put, message):
    doc = _doc()
    put(doc)
    with pytest.raises(DecodeError) as err:
        jsonio.loads(json.dumps(doc))
    assert str(err.value) == message


def test_unknown_statement_tag_rejected_with_path():
    doc = _doc()
    doc["program"]["modules"][0]["functions"][0]["body"][0][0]["stmt"] = "goto"
    _expect_error(doc, "$.program.modules[0].functions[0].body[0][0]", "goto")


def test_unknown_expr_tag_rejected_with_path():
    doc = _doc()
    stmt = doc["program"]["modules"][0]["functions"][0]["body"][0][0]
    stmt["expr"]["op"] = "teleport"
    _expect_error(doc, ".expr", "teleport")


def test_unknown_operator_name_rejected():
    pkg = bd.prog("p", [bd.build_module("Main", [], [bd.main_function(
        bd.one_liner(pt.print_ln(bd.apply_binary(
            "#+", bd.lit_int(1), bd.lit_int(2)))))], [])])
    doc = json.loads(jsonio.dumps(pkg))
    expr = doc["program"]["modules"][0]["functions"][0]["body"][0][0]["expr"]
    expr["name"] = "#@"
    _expect_error(doc, ".expr", "#@")


def test_bad_enum_value_rejected():
    doc = _doc()
    doc["program"]["modules"][0]["functions"][0]["scope"] = "protected"
    _expect_error(doc, "functions[0]", "scope")


def test_literal_type_mismatch_rejected():
    doc = {"version": jsonio.SCHEMA_VERSION, "program": {"name": "p", "modules": [{
        "name": "Main", "imports": [],
        "functions": [{
            "name": "main", "scope": "public", "binding": "static",
            "returnType": "void", "params": [], "main": True,
            "body": [[{"stmt": "print", "newline": True,
                       "expr": {"op": "lit", "kind": "int", "value": "7"}}]],
        }],
        "classes": [],
    }]}}
    _expect_error(doc, ".expr", "does not fit literal kind")


def test_duplicate_aux_kind_rejected():
    doc = _doc()
    doc["aux"] = [{"kind": "makefile"}, {"kind": "makefile"}]
    with pytest.raises(DecodeError) as err:  # refused by the package's rule, at the package
        jsonio.loads(json.dumps(doc))
    assert str(err.value) == "$: package lists the auxiliary file kind 'makefile' twice"


def test_malformed_json_reports_invalid():
    with pytest.raises(DecodeError) as err:
        jsonio.loads("{not json")
    assert "invalid JSON" in str(err.value)


def test_library_operators_are_written_as_math_calls():
    two = bd.lit_int(2)
    pkg = bd.prog("p", [bd.build_module("Main", [], [bd.main_function(bd.one_liner(
        pt.print_ln(bd.apply_binary("#^", two, bd.apply_unary("#|", two)))))], [])])
    doc = jsonio.encode_package(pkg)
    expr = doc["program"]["modules"][0]["functions"][0]["body"][0][0]["expr"]
    lit = {"op": "lit", "kind": "int", "value": 2}
    assert expr == {"op": "math", "fn": "pow", "type": "float", "args": [
        lit, {"op": "math", "fn": "abs", "args": [lit], "type": "int"}]}
    assert jsonio.decode_package(doc) == pkg
    # GOOL's operator names are not operators of the document
    for old in ({"op": "unary", "name": "#|", "operand": lit, "type": "int"},
                {"op": "binary", "name": "#^", "left": lit, "right": lit, "type": "float"}):
        expr.clear()
        expr.update(old)
        _expect_error(doc, ".expr", f"unknown {old['op']} operator {old['name']!r}")


def test_decode_rebuilds_real_packages():
    # decoded trees are not just equal, they render identically
    from oogen.backends import get_backend
    entry = gallery.get("applyDiscount")
    decoded = jsonio.loads(jsonio.dumps(entry.package))
    for target in ("python", "java"):
        original = [(f.path, f.text) for f in get_backend(target).render_package(entry.package)]
        redone = [(f.path, f.text) for f in get_backend(target).render_package(decoded)]
        assert original == redone


def test_defaults_are_omitted_from_encoding():
    doc = _doc()
    fn = doc["program"]["modules"][0]["functions"][0]
    assert "doc" not in fn
    assert "inout" not in fn
    stmt = fn["body"][0][0]
    assert stmt["stmt"] == "print"
    lit = stmt["expr"]
    assert lit == {"op": "lit", "kind": "string", "value": "hi"}
