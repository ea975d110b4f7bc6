"""Layout algebra: the invariants every rendered file leans on."""

import pytest
from hypothesis import given, strategies as st

from oogen import builders as bd, ir
from oogen.backends import TARGETS, get_backend
from oogen.layout import (
    EMPTY, FileSet, RenderedFile, extract, hang, join_blocks, text, vcat, wrap,
)

docs = st.lists(st.text(alphabet="ab \n", max_size=8), max_size=4).map(tuple)


def test_text_splits_embedded_newlines():
    assert text("a\nb") == ("a", "b")
    assert text("a") == ("a",)


def test_hang_prefixes_nonempty_body_lines_with_four_spaces():
    doc = ("x", "", "y")
    assert hang("h", doc) == ("h", "    x", "", "    y")
    assert hang("h {", doc, "}") == ("h {", "    x", "", "    y", "}")


@given(docs, docs, docs)
def test_vcat_is_associative(a, b, c):
    assert vcat([vcat([a, b]), c]) == vcat([a, vcat([b, c])])


@given(docs)
def test_empty_is_vcat_identity(d):
    assert vcat([EMPTY, d]) == d == vcat([d, EMPTY])


def test_join_blocks_single_blank_line_separator():
    joined = join_blocks([text("a"), text("b\nc")])
    assert joined == ("a", "", "b", "c")


def test_join_blocks_drops_empty_docs_entirely():
    joined = join_blocks([text("a"), EMPTY, text("b")])
    assert joined == ("a", "", "b")
    assert join_blocks([EMPTY, EMPTY]) == EMPTY


def test_extract_single_trailing_newline():
    assert extract(text("x")) == "x\n"
    assert extract(vcat([text("x"), ("",), ("",)])) == "x\n"


def _v(name, type_=ir.INT):
    return bd.value_of(bd.var(name, type_))


def _op(name, left, right):
    return bd.apply_binary(name, left, right)


_A, _B, _C, _P = _v("a"), _v("b"), _v("c"), _v("p", ir.BOOL)
_POW = {"python": "math.pow", "java": "Math.pow", "csharp": "Math.Pow", "cpp": "pow"}


# Parenthesis elision, one row per case of the rule: (tree, its Python
# rendering, its C-family rendering where that differs; {pow} stands for
# the target's power function).
_PARENS = [
    (_op("#*", _op("#+", _A, _B), _C), "(a + b) * c", None),  # looser child
    (_op("#+", _op("#*", _A, _B), _C), "a * b + c", None),  # tighter child
    (_op("#-", _A, _op("#+", _B, _C)), "a - (b + c)", None),  # equal, on the right
    (_op("#-", _op("#+", _A, _B), _C), "a + b - c", None),  # equal, on the left
    # a power is a library call on every target, so it binds as an atom
    (_op("#^", _op("#^", _A, _B), _C), "{pow}({pow}(a, b), c)", None),
    (_op("#^", _A, _op("#^", _B, _C)), "{pow}(a, {pow}(b, c))", None),
    (_op("#^", bd.apply_unary("#~", _A), _B), "{pow}(-a, b)", None),
    (_op("#^", _A, bd.apply_unary("#~", _B)), "{pow}(a, -b)", None),
    (bd.apply_unary("#~", _op("#^", _A, _B)), "-{pow}(a, b)", None),
    # comparisons never chain: equal precedence wraps on both sides
    (_op("?==", _op("?<", _A, _B), _P), "(a < b) == p", "a < b == p"),
    (_op("?==", _P, _op("?<", _A, _B)), "p == (a < b)", "p == a < b"),
    (_op("?==", _op("?==", _A, _B), _v("c", ir.BOOL)), "(a == b) == c", None),
    (bd.apply_unary("#~", _op("#+", _A, _B)), "-(a + b)", None),
    (bd.apply_unary("#~", _A), "-a", None),
]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("tree,python,cfamily", _PARENS, ids=[row[1] for row in _PARENS])
def test_parens_table(tree, python, cfamily, target):
    wanted = (python if target == "python" else cfamily or python).format(pow=_POW[target])
    assert get_backend(target).expr(tree) == wanted


def test_wrap():
    assert wrap("x", True) == "(x)"
    assert wrap("x", False) == "x"


def test_file_set_rejects_duplicate_paths():
    f = RenderedFile("A.py", "pass\n")
    with pytest.raises(ValueError, match="duplicate path"):
        FileSet((f, f))


@pytest.mark.parametrize("path", ["", "../x.py", "sub/x.py", "sub\\x.py", "..", "a..py", "/x.py"])
def test_file_set_rejects_paths_that_are_not_plain_file_names(path):
    with pytest.raises(ValueError, match="plain file name"):
        FileSet((RenderedFile(path, "pass\n"),))


def test_file_set_iterates_in_order():
    a = RenderedFile("A.py", "pass\n")
    b = RenderedFile("B.py", "pass\n")
    fs = FileSet((a, b))
    assert list(fs) == [a, b]
    assert len(fs) == 2
    assert fs.paths() == ["A.py", "B.py"]
