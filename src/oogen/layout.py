"""Layout primitives shared by every backend.

A Doc is a plain tuple of lines; the operations are vertical
concatenation, one-level (4-space) indentation of a body under its header
line (`hang`, one Doc per braced block or suite), and blank-line
separation.
Bodies render as their blocks joined by exactly one blank line; empty
blocks vanish without leaving a separator behind.
"""

from __future__ import annotations

from ._record import record

INDENT = "    "

Doc = tuple[str, ...]
EMPTY: Doc = ()


def text(s: str) -> Doc:
    """One or more literal lines (embedded newlines split)."""
    return tuple(s.split("\n"))


def vcat(docs: list[Doc]) -> Doc:
    lines: list[str] = []
    for d in docs:
        lines.extend(d)
    return tuple(lines)


def hang(head: str, body: Doc, tail: str | None = None) -> Doc:
    """`head`, then `body` indented one level, then `tail` if given, built
    as one Doc: a braced block, or a Python suite under its header."""
    lines = [head]
    lines += [INDENT + line if line else line for line in body]
    if tail is not None:
        lines.append(tail)
    return tuple(lines)


def join_blocks(docs: list[Doc]) -> Doc:
    """Non-empty docs separated by exactly one blank line."""
    lines: list[str] = []
    for d in docs:
        if d:
            if lines:
                lines.append("")
            lines.extend(d)
    return tuple(lines)


def extract(doc: Doc) -> str:
    """Final text: no trailing blank lines, single trailing newline."""
    lines = list(doc)
    while lines and not lines[-1].strip():
        lines.pop()
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parenthesis elision


def wrap(child_text: str, wanted: bool) -> str:
    return f"({child_text})" if wanted else child_text


# ---------------------------------------------------------------------------
# Rendered output


class RenderedFile(metaclass=record):
    path: str
    text: str


class FileSet(metaclass=record):
    files: tuple[RenderedFile, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for f in self.files:
            if not f.path or "/" in f.path or "\\" in f.path or ".." in f.path:
                raise ValueError(f"file set path must be a plain file name: {f.path!r}")
            if f.path in seen:
                raise ValueError(f"duplicate path in file set: {f.path}")
            seen.add(f.path)

    def __iter__(self):
        return iter(self.files)

    def __len__(self) -> int:
        return len(self.files)

    def paths(self) -> list[str]:
        return [f.path for f in self.files]
