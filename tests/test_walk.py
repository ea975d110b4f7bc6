"""`ir.walk` finds a tree's statements from the records' own field
declarations, so no list of statement fields can fall behind."""

import pytest

import all_tags
from oogen import builders as bd, gallery, ir


def _reference(node) -> list:
    """Every statement record inside `node`, in pre-order and field order,
    by brute force: through every field of every record and every tuple."""
    found = []

    def visit(value):
        if isinstance(value, tuple):
            for item in value:
                visit(item)
        elif hasattr(type(value), "__record_specs__"):
            if isinstance(value, ir.StatementRepr):
                found.append(value)
            for name in type(value).__match_args__:
                visit(getattr(value, name))

    for name in type(node).__match_args__:
        visit(getattr(node, name))
    return found


def _same(a: list, b: list) -> bool:
    return len(a) == len(b) and all(x is y for x, y in zip(a, b))


def _methods(pkg: ir.PackageTree) -> list[ir.MethodRepr]:
    return [m for module in pkg.modules for m in module.functions] + [
        m for module in pkg.modules for c in module.classes for m in c.methods]


def test_walk_finds_what_a_brute_force_search_finds_over_every_tag():
    pkg = all_tags.package()
    assert _same(list(ir.walk(pkg)), _reference(pkg))
    methods = _methods(pkg)
    assert len(methods) == 5
    for m in methods:
        assert _same(list(ir.walk(m.body)), _reference(m.body))
        for s in ir.walk(m.body):
            assert _same(list(ir.walk(s)), _reference(s))


@pytest.mark.parametrize("name", gallery.names())
def test_walk_finds_what_a_brute_force_search_finds_in_every_gallery_package(name):
    pkg = gallery.get(name).package
    assert _same(list(ir.walk(pkg)), _reference(pkg))
    for m in _methods(pkg):
        assert _same(list(ir.walk(m)), _reference(m))
        for s in ir.walk(m.body):
            assert _same(list(ir.walk(s)), _reference(s))


def _mark(n: int) -> ir.CommentStmt:
    return bd.comment(f"m{n}")


def _marks(node) -> list[str]:
    """The comments' texts, and the names that the statements of a for-loop
    header (which takes no comment) assign."""
    return [s.text if isinstance(s, ir.CommentStmt) else s.var.name for s in ir.walk(node)
            if isinstance(s, (ir.CommentStmt, ir.VarDecDef, ir.Assign))]


def test_walk_reaches_every_place_a_statement_can_sit():
    i, ok = bd.var("i", ir.INT), bd.value_of(bd.var("ok", ir.BOOL))
    body = bd.body([bd.block([
        bd.if_cond([(ok, bd.one_liner(_mark(1))), (ok, bd.one_liner(_mark(2)))],
                   bd.one_liner(_mark(3))),
        bd.switch(bd.value_of(i), [(bd.lit_int(1), bd.one_liner(_mark(4)))],
                  bd.one_liner(_mark(5))),
        bd.try_catch(bd.one_liner(_mark(6)), bd.one_liner(_mark(7))),
        bd.for_loop(bd.var_dec_def(bd.var("m8", ir.INT), bd.lit_int(0)), ok,
                    bd.inc(bd.var("m9", ir.INT)), bd.one_liner(_mark(10))),
        bd.for_range(i, bd.lit_int(0), bd.lit_int(1), bd.lit_int(1), bd.one_liner(_mark(11))),
        bd.for_each(i, bd.value_of(bd.var("xs", ir.list_of(ir.INT))), bd.one_liner(_mark(12))),
        bd.while_loop(ok, bd.one_liner(_mark(13))),
        bd.block([_mark(14), bd.block([_mark(15)])]),
    ]), bd.block([_mark(16)])])
    assert _marks(body) == [f"m{n}" for n in range(1, 17)]
    assert _same(list(ir.walk(body)), _reference(body))


def test_walk_does_not_recurse_per_level():
    stmt = _mark(0)
    for _ in range(5000):  # five times the default recursion limit
        stmt = ir.BlockRepr((stmt,))
    assert len(list(ir.walk(ir.BodyRepr((stmt,))))) == 5001
