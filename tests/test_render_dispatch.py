"""Rendering by table: every IR node class, variable form and call form
has one handler per target, a handler a class does not define leaves its
node unsupported, no function is a `raise NotImplementedError` stub, the
all-tags package renders byte for byte as recorded, and no backend module
but base.py lowers a pattern to IR.

all_tags_rendered.txt holds every file that `assemble_package` makes from
`tests/all_tags.py` for each target, Makefile and Doxygen config included,
each behind a `==> target/path <==` line. After a deliberate change to
rendered output, rewrite it with

    PYTHONPATH=src python tests/test_render_dispatch.py

and review its diff.
"""

import ast
from pathlib import Path

import pytest

import all_tags
import oogen
from oogen import ir
from oogen import builders as bd, patterns as pt
from oogen.backends import TARGETS, PythonRenderer, assemble_package, csharp, get_backend
from oogen.backends.base import ATOMIC_PRECEDENCE
from oogen.errors import UnsupportedConstruct

FIXTURE = Path(__file__).with_name("all_tags_rendered.txt")
SRC = Path(oogen.__file__).parent
NODE_BASES = (ir.ExprRepr, ir.StatementRepr)


def rendered_listing(pkg) -> str:
    return "".join(f"==> {target}/{f.path} <==\n{f.text}"
                   for target in TARGETS for f in assemble_package(pkg, target))


def test_all_tags_renders_as_recorded():
    assert rendered_listing(all_tags.package()) == FIXTURE.read_text()


def _concrete_nodes():
    return [cls for cls in vars(ir).values()
            if isinstance(cls, type) and issubclass(cls, NODE_BASES) and cls not in NODE_BASES]


def _tables(target):
    renderer = type(get_backend(target))
    return renderer._expr_table, renderer._stmt_table


@pytest.mark.parametrize("cls", _concrete_nodes(), ids=lambda c: c.__name__)
def test_every_node_class_has_exactly_one_handler(cls):
    table_index = 0 if issubclass(cls, ir.ExprRepr) else 1
    for target in TARGETS:
        tables = _tables(target)
        assert [cls in table for table in tables].count(True) == 1, target
        assert cls in tables[table_index], target
        assert callable(tables[table_index][cls])


@pytest.mark.parametrize("target", TARGETS)
def test_handler_tables_hold_only_node_classes(target):
    expr_table, stmt_table = _tables(target)
    assert set(expr_table) | set(stmt_table) == set(_concrete_nodes())


class Strange(ir.ExprRepr):
    pass


class Odd(ir.StatementRepr):
    pass


@pytest.mark.parametrize("target", TARGETS)
def test_unknown_node_names_the_target_and_the_class(target):
    backend = get_backend(target)
    with pytest.raises(UnsupportedConstruct) as expr_error:
        backend.expr(Strange())
    assert str(expr_error.value) == f"{target} backend cannot render expression Strange"
    with pytest.raises(UnsupportedConstruct) as stmt_error:
        backend.render_stmt(Odd())
    assert str(stmt_error.value) == f"{target} backend cannot render statement Odd"


_ONE, _XS = ir.Lit("int", 1), ir.ValueOf(ir.VariableRepr("xs", ir.list_of(ir.INT)))
# An unknown class as each kind of operand a handler dispatches itself.
OPERAND_PLACES = {
    "binary left": lambda x: ir.Binary("#+", x, _ONE, ir.INT),
    "binary right": lambda x: ir.Binary("#+", _ONE, x, ir.INT),
    "unary": lambda x: ir.Unary("#~", x, ir.INT),
    "inline-if else": lambda x: ir.InlineIf(ir.Lit("bool", True), _ONE, x),
    "call argument": lambda x: ir.Call(ir.CallForm.FUNCTION, "f", (x,), ir.INT),
    "math argument": lambda x: ir.MathCall("sin", (x,), ir.FLOAT),
    "power left": lambda x: ir.MathCall("pow", (x, _ONE), ir.FLOAT),
    "power right": lambda x: ir.MathCall("pow", (_ONE, x), ir.FLOAT),
    "list index": lambda x: ir.ListAccess(_XS, x),
    "list receiver": lambda x: ir.ListAccess(x, _ONE),
}


@pytest.mark.parametrize("place", OPERAND_PLACES)
@pytest.mark.parametrize("target", TARGETS)
def test_an_unknown_operand_names_the_target_and_the_class(target, place):
    with pytest.raises(UnsupportedConstruct) as error:
        get_backend(target).expr(OPERAND_PLACES[place](Strange()))
    assert str(error.value) == f"{target} backend cannot render expression Strange"


@pytest.mark.parametrize("target", TARGETS)
def test_an_unknown_statement_in_a_body_or_block_names_the_target_and_the_class(target):
    block = ir.BlockRepr((ir.Break(), Odd()))
    for tree in (ir.If(((ir.Lit("bool", True), ir.BodyRepr((block,))),), None), block):
        with pytest.raises(UnsupportedConstruct) as error:
            get_backend(target).render_stmt(tree)
        assert str(error.value) == f"{target} backend cannot render statement Odd"


# A handler name a class does not define is left out of its tables, so a
# misspelt name would drop its node or form without a sound; these tests
# would hear it.
@pytest.mark.parametrize("target", TARGETS)
def test_every_variable_and_call_form_has_a_handler(target):
    renderer = type(get_backend(target))
    assert set(renderer._var_table) == set(ir.names(ir.VarForm)) - {ir.VarForm.PLAIN}
    assert set(renderer._call_table) == set(ir.names(ir.CallForm)) - {ir.CallForm.FUNCTION}
    assert all(callable(h) for h in [*renderer._var_table.values(),
                                     *renderer._call_table.values()])


# The IR names each operator and gives its arity; the renderer ranks and
# spells it. A name in one table but not the others would fail at render,
# and a token no operator has is dead. A library function is a `MathCall`,
# which binds as tightly as a call.
@pytest.mark.parametrize("target", TARGETS)
def test_every_operator_is_ranked_and_spelled(target):
    renderer = type(get_backend(target))
    assert set(renderer.op_tokens) == set(ir.OPERATORS)
    for name in ir.OPERATORS:
        assert renderer._prec[name] < ATOMIC_PRECEDENCE, name
    assert renderer._prec[ir.MathCall] == ATOMIC_PRECEDENCE


# Each C-family target spells every scalar type kind and no other (a list
# or object type is spelled from its parts), and needs an import or header
# only for a kind that exists: a kind cannot outlive its spellings, nor a
# spelling its kind.
@pytest.mark.parametrize("target", [t for t in TARGETS if t != "python"])
def test_every_scalar_type_kind_is_spelled(target):
    renderer = type(get_backend(target))
    assert set(renderer.type_names) == set(ir.SCALAR_TYPES)
    assert set(renderer.type_needs) <= {*ir.SCALAR_TYPES, "list", "object"}


def test_csharp_spells_every_math_function_and_no_other():
    assert set(csharp._MATH) == set(bd.MATH_FNS)


class PythonWithoutListSize(PythonRenderer):
    list_size = None


def test_a_handler_the_class_does_not_define_leaves_its_node_unsupported():
    size = pt.list_size(bd.value_of(bd.var("xs", ir.list_of(ir.INT))))
    assert get_backend("python").expr(size) == "len(xs)"
    with pytest.raises(UnsupportedConstruct) as error:
        PythonWithoutListSize().expr(size)
    assert str(error.value) == "python backend cannot render expression ListSize"


# A target is one renderer class: its tables say what it renders, so no
# method is a stub that only raises NotImplementedError.
def _stubs(source: str, name: str) -> list[str]:
    """`name:line function` for each function in `source` whose body, past
    an optional docstring, is only `raise NotImplementedError`."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        body = func.body
        if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
            body = body[1:]
        if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
            continue
        exc = body[0].exc.func if isinstance(body[0].exc, ast.Call) else body[0].exc
        if getattr(exc, "id", None) == "NotImplementedError":
            found.append(f"{name}:{func.lineno} {func.name}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.rglob("*.py")),
                         ids=lambda p: str(p.relative_to(SRC)))
def test_no_function_is_a_not_implemented_stub(path):
    assert _stubs(path.read_text(), str(path.relative_to(SRC))) == []


def test_the_stub_guard_sees_bare_and_called_raises():
    source = (
        "class R:\n"
        "    def a(self):\n"
        "        raise NotImplementedError\n"
        "    def b(self):\n"
        "        \"\"\"Doc.\"\"\"\n"
        "        raise NotImplementedError('b')\n"
        "    def c(self):\n"
        "        raise ValueError\n"
        "    def d(self, x):\n"
        "        if x:\n"
        "            raise NotImplementedError\n"
        "        return x\n"
    )
    assert _stubs(source, "probe.py") == ["probe.py:2 a", "probe.py:4 b"]


# Patterns are lowered to core IR once, in backends/base.py; the target
# modules only spell syntax, so none of them builds a statement.
STATEMENT_RECORDS = {cls.__name__ for cls in _concrete_nodes() if issubclass(cls, ir.StatementRepr)}
TARGET_MODULES = [p for p in sorted(SRC.glob("backends/*.py")) if p.name != "base.py"]


def _statements_built(source: str) -> list[str]:
    """`line ir.Name` for each statement record constructed in `source`,
    and `line name` for each import of the builders or patterns."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            owner, name = node.func.value, node.func.attr
            if getattr(owner, "id", None) == "ir" and name in STATEMENT_RECORDS | {"BodyRepr"}:
                found.append(f"{node.lineno} ir.{name}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"{node.lineno} {a.name}" for a in node.names
                      if a.name in ("builders", "patterns")
                      or (node.module or "").split(".")[-1] in ("builders", "patterns")]
    return found


@pytest.mark.parametrize("path", TARGET_MODULES, ids=lambda p: p.name)
def test_only_base_lowers_patterns(path):
    assert _statements_built(path.read_text()) == []


def test_the_lowering_guard_sees_statements_and_builders():
    source = (
        "from .. import builders as bd\n"
        "from ..patterns import print_str\n"
        "x = ir.ListSize(lst)\n"
        "def f(s):\n"
        "    return ir.BlockRepr((ir.Print(s, False),))\n"
    )
    assert _statements_built(source) == [
        "1 builders", "2 print_str", "5 ir.BlockRepr", "5 ir.Print"]


if __name__ == "__main__":
    FIXTURE.write_text(rendered_listing(all_tags.package()))
