"""`fragment(backend, node)`: one statement or method rendered as text, for
the tests that compare a fragment with a listing."""

from oogen import ir


def fragment(backend, node) -> str:
    """`node`'s lines joined by newlines: a method's through the backend's
    `method_doc`, a statement's through its `stmt`."""
    doc = backend.method_doc(node) if type(node) is ir.MethodRepr else backend.stmt(node)
    return "\n".join(doc)
