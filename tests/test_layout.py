"""Layout algebra: the invariants every rendered file leans on."""

import pytest
from hypothesis import given, strategies as st

from oogen.layout import (
    BLANK, EMPTY, Doc, FileSet, FileType, RenderedFile, extract, hang,
    join_blocks, needs_parens, text, vcat, wrap,
)

docs = st.lists(st.text(alphabet="ab \n", max_size=8), max_size=4).map(
    lambda lines: Doc(tuple(lines)))


def test_text_splits_embedded_newlines():
    assert text("a\nb").lines == ("a", "b")
    assert text("a").lines == ("a",)


def test_hang_prefixes_nonempty_body_lines_with_four_spaces():
    doc = Doc(("x", "", "y"))
    assert hang("h", doc).lines == ("h", "    x", "", "    y")
    assert hang("h {", doc, "}").lines == ("h {", "    x", "", "    y", "}")


@given(docs, docs, docs)
def test_vcat_is_associative(a, b, c):
    assert vcat([vcat([a, b]), c]) == vcat([a, vcat([b, c])])


@given(docs)
def test_empty_is_vcat_identity(d):
    assert vcat([EMPTY, d]) == d == vcat([d, EMPTY])


def test_join_blocks_single_blank_line_separator():
    joined = join_blocks([text("a"), text("b\nc")])
    assert joined.lines == ("a", "", "b", "c")


def test_join_blocks_drops_empty_docs_entirely():
    joined = join_blocks([text("a"), EMPTY, text("b")])
    assert joined.lines == ("a", "", "b")
    assert join_blocks([EMPTY, EMPTY]) == EMPTY


def test_extract_single_trailing_newline():
    assert extract(text("x")) == "x\n"
    assert extract(vcat([text("x"), BLANK, BLANK])) == "x\n"


def test_blank_is_one_empty_line():
    assert BLANK.lines == ("",)


# precedence: (parent, assoc, side, child) -> wrap?
@pytest.mark.parametrize(
    "parent,assoc,side,child,wanted",
    [
        (7, "left", "left", 6, True),    # (a + b) * c
        (6, "left", "left", 7, False),   # a * b + c
        (6, "left", "right", 6, True),   # a - (b + c)
        (6, "left", "left", 6, False),   # a + b - c
        (8, "right", "left", 8, True),   # (a ^ b) ^ c
        (8, "right", "right", 8, False),  # a ^ b ^ c
        (5, "none", "left", 5, True),    # non-associative comparisons chain never
        (5, "none", "right", 5, True),
        (9, "left", "unary", 6, True),   # !(a + b)
        (9, "left", "unary", 100, False),
    ],
)
def test_needs_parens_table(parent, assoc, side, child, wanted):
    assert needs_parens(parent, assoc, side, child) is wanted


def test_wrap():
    assert wrap("x", True) == "(x)"
    assert wrap("x", False) == "x"


def test_file_set_rejects_duplicate_paths():
    f = RenderedFile("A.py", FileType.COMBINED, "pass\n")
    with pytest.raises(ValueError, match="duplicate path"):
        FileSet((f, f))


def test_file_set_iterates_in_order():
    a = RenderedFile("A.py", FileType.COMBINED, "pass\n")
    b = RenderedFile("B.py", FileType.COMBINED, "pass\n")
    fs = FileSet((a, b))
    assert list(fs) == [a, b]
    assert len(fs) == 2
    assert fs.paths() == ["A.py", "B.py"]
