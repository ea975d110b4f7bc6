"""Number literals every target can spell: 32-bit ints and finite doubles.
The builders refuse others with TypeMismatch, decoding with a DecodeError at
the literal, and `oogen render` exits 2 naming the problem."""

import json

import pytest

from oogen import builders as bd, cli, jsonio, patterns as pt, verify
from oogen.errors import DecodeError, TypeMismatch

_LIT_PATH = "$.program.modules[0].functions[0].body[0][0].expr"


def _doc(kind: str, value) -> dict:
    main = bd.main_function(bd.one_liner(pt.print_ln(bd.lit_int(0))))
    doc = jsonio.encode_package(bd.prog("p", [bd.build_module("Main", [], [main], [])]))
    doc["program"]["modules"][0]["functions"][0]["body"][0][0]["expr"] = {
        "op": "lit", "kind": kind, "value": value}
    return doc


@pytest.mark.parametrize("value", [2**31, -2**31 - 1, 3000000000, 10**400],
                         ids=["2^31", "-2^31-1", "3e9", "10^400"])
def test_int_literal_outside_32_bits_is_refused(value):
    with pytest.raises(TypeMismatch, match="32 bits"):
        bd.lit_int(value)
    with pytest.raises(DecodeError, match="32 bits") as err:
        jsonio.loads(json.dumps(_doc("int", value)))
    assert err.value.path == _LIT_PATH


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf"), 10**400],
                         ids=["nan", "inf", "-inf", "int-10^400"])
def test_float_literal_that_is_not_a_finite_double_is_refused(value):
    with pytest.raises(TypeMismatch, match="float literal"):
        bd.lit_float(value)
    with pytest.raises(DecodeError, match="float literal") as err:
        jsonio.decode_package(_doc("float", value))
    assert err.value.path == _LIT_PATH


@pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "1" * 400],
                         ids=["NaN", "Infinity", "-Infinity", "1e400", "-1e400", "400-digits"])
def test_float_literal_json_spellings_are_refused(text):
    doc = json.dumps(_doc("float", 0.5)).replace("0.5", text)
    with pytest.raises(DecodeError, match="float literal") as err:
        jsonio.loads(doc)
    assert err.value.path == _LIT_PATH


def test_only_finite_doubles_build_and_decode_as_floats():
    for value in (1.7976931348623157e308, -0.0, 5e-324, 2**63):
        assert bd.lit_float(value).value == value
        lit = jsonio.decode_package(_doc("float", value)).modules[0].functions[0].body
        assert lit.blocks[0].statements[0].expr.value == value
    with pytest.raises(TypeMismatch):
        bd.lit_float(1.7976931348623157e308 * 2)


def test_exactly_the_32_bit_ints_build_and_print_the_same_everywhere(tmp_path):
    for value in (2**31, -2**31 - 1):
        with pytest.raises(TypeMismatch):
            bd.lit_int(value)
    main = bd.main_function(bd.body_statements([
        pt.print_ln(bd.lit_int(2**31 - 1)),
        pt.print_ln(bd.lit_int(-2**31)),
    ]))
    pkg = bd.prog("p", [bd.build_module("Main", [], [main], [])])
    assert jsonio.loads(jsonio.dumps(pkg)) == pkg
    report = verify.verify_package(pkg, targets=("python", "java", "cpp"),
                                   root_dir=str(tmp_path))
    assert {r.status for r in report.runs} <= {"ok", "skipped"}, report.summary()
    assert {r.stdout for r in report.executed} == {"2147483647\n-2147483648"}


def _render(tmp_path, text: str) -> int:
    source = tmp_path / "pkg.json"
    source.write_text(text)
    return cli.main(["render", "--input", str(source), "--target", "python",
                     "--out", str(tmp_path / "out")])


def test_render_of_a_float_literal_too_large_for_a_double_exits_2(tmp_path, capsys):
    assert _render(tmp_path, json.dumps(_doc("float", 10**400))) == 2
    err = capsys.readouterr().err
    assert err.startswith("oogen: ") and "float literal too large" in err
    assert "Traceback" not in err


def test_render_of_a_number_with_too_many_digits_exits_2(tmp_path, capsys):
    text = json.dumps(_doc("int", 0)).replace('"value": 0', '"value": ' + "7" * 4301)
    assert _render(tmp_path, text) == 2
    err = capsys.readouterr().err
    assert err.startswith("oogen: ") and "invalid JSON" in err and "digits" in err
