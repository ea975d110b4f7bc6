"""Parenthesization properties.

Two independent oracles, both phrased against Python's own `ast` module so
they share nothing with the renderer:

* structure: parsing the rendered expression must give back exactly the tree
  we built, and deleting any single matched paren pair must change (or break)
  that parse, i.e. every emitted paren is necessary;
* value: rendered Python evaluates to the same number a direct recursive
  evaluation of the tree produces.
"""

import ast
import itertools
import random

from hypothesis import given, settings, strategies as st

from oogen import builders as bd, ir
from oogen.backends import get_backend

ARITH_OPS = ("#+", "#-", "#*")
_AST_OPS = {"#+": ast.Add, "#-": ast.Sub, "#*": ast.Mult}

PY = get_backend("python")


# -- reference side ---------------------------------------------------------------


def reference_ast(expr: ir.ExprRepr) -> ast.AST:
    if isinstance(expr, ir.Lit):
        if expr.value < 0:
            return ast.UnaryOp(op=ast.USub(), operand=ast.Constant(-expr.value))
        return ast.Constant(expr.value)
    if isinstance(expr, ir.Unary):
        assert expr.op == "#~"
        return ast.UnaryOp(op=ast.USub(), operand=reference_ast(expr.operand))
    assert isinstance(expr, ir.Binary)
    return ast.BinOp(left=reference_ast(expr.left),
                     op=_AST_OPS[expr.op](),
                     right=reference_ast(expr.right))


def reference_eval(expr: ir.ExprRepr) -> int:
    if isinstance(expr, ir.Lit):
        return expr.value
    if isinstance(expr, ir.Unary):
        return -reference_eval(expr.operand)
    left, right = reference_eval(expr.left), reference_eval(expr.right)
    return {"#+": left + right, "#-": left - right, "#*": left * right}[expr.op]


def _dump(node: ast.AST) -> str:
    return ast.dump(ast.Expression(body=node) if not isinstance(node, ast.Expression) else node)


def parse_dump(source: str) -> str:
    return ast.dump(ast.parse(source, mode="eval"))


def matched_pairs(source: str) -> list[tuple[int, int]]:
    stack, pairs = [], []
    for i, ch in enumerate(source):
        if ch == "(":
            stack.append(i)
        elif ch == ")":
            pairs.append((stack.pop(), i))
    assert not stack, source
    return pairs


def assert_parens_minimal(expr: ir.ExprRepr) -> None:
    rendered = PY.expr(expr)
    want = _dump(reference_ast(expr))
    assert parse_dump(rendered) == want, rendered
    for i, j in matched_pairs(rendered):
        stripped = rendered[:i] + rendered[i + 1:j] + rendered[j + 1:]
        try:
            got = parse_dump(stripped)
        except SyntaxError:
            continue
        assert got != want, f"redundant parens in {rendered!r}: {stripped!r} parses the same"


# -- exhaustive enumeration: every shape, every operator labelling -------------------


def shapes(n_ops: int):
    """All binary tree shapes with exactly `n_ops` internal nodes."""
    if n_ops == 0:
        yield None
        return
    for left_ops in range(n_ops):
        for left in shapes(left_ops):
            for right in shapes(n_ops - 1 - left_ops):
                yield (left, right)


def count_internal(shape) -> int:
    if shape is None:
        return 0
    return 1 + count_internal(shape[0]) + count_internal(shape[1])


def all_trees(max_ops: int):
    for n in range(max_ops + 1):
        for shape in shapes(n):
            for ops in itertools.product(ARITH_OPS, repeat=n):
                counter = itertools.count(1)
                labels = iter(ops)

                def build(s):
                    if s is None:
                        return bd.lit_int(next(counter))
                    op = next(labels)
                    left = build(s[0])
                    right = build(s[1])
                    return bd.apply_binary(op, left, right)

                yield build(shape)


def test_enumeration_size_is_complete():
    # Catalan(0..4) = 1,1,2,5,14 shapes; 3 operator choices per internal node
    per_n = [sum(1 for _ in shapes(n)) for n in range(5)]
    assert per_n == [1, 1, 2, 5, 14]
    total = sum(c * 3 ** n for n, c in enumerate(per_n))
    assert total == 1291
    assert sum(1 for _ in all_trees(4)) == total


def test_exhaustive_parens_exactly_necessary():
    for tree in all_trees(4):
        assert_parens_minimal(tree)


# -- random deep trees: value agreement ---------------------------------------------


def random_tree(rng: random.Random, depth: int) -> ir.ExprRepr:
    if depth == 0 or rng.random() < 0.25:
        return bd.lit_int(rng.randint(-9, 9))
    op = rng.choice(ARITH_OPS)
    return bd.apply_binary(op, random_tree(rng, depth - 1), random_tree(rng, depth - 1))


def test_thousand_random_trees_evaluate_like_reference():
    rng = random.Random(20260815)
    for _ in range(1000):
        tree = random_tree(rng, depth=5)
        rendered = PY.expr(tree)
        assert eval(rendered, {"__builtins__": {}}) == reference_eval(tree)
        assert parse_dump(rendered) == _dump(reference_ast(tree))


# -- hypothesis: unary minus mixed in, same structural law ---------------------------


@st.composite
def arith_exprs(draw, depth=4):
    if depth == 0 or draw(st.booleans()) and draw(st.booleans()):
        return bd.lit_int(draw(st.integers(min_value=0, max_value=99)))
    kind = draw(st.sampled_from(["bin", "bin", "neg"]))
    if kind == "neg":
        return bd.apply_unary("#~", draw(arith_exprs(depth=depth - 1)))
    op = draw(st.sampled_from(ARITH_OPS))
    return bd.apply_binary(op, draw(arith_exprs(depth=depth - 1)),
                           draw(arith_exprs(depth=depth - 1)))


@settings(max_examples=300, deadline=None)
@given(arith_exprs())
def test_render_parse_roundtrip_with_negation(expr):
    rendered = PY.expr(expr)
    assert parse_dump(rendered) == _dump(reference_ast(expr))
