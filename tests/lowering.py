"""`lower(pkg, target)`: the package with every statement the target's
renderer lowers replaced by the core IR it lowers to.

A renderer lowers a node as it renders it, by its `lowerings` table. This
applies the same table to the whole tree at once, to a fixpoint (what a
node lowers to is lowered again), walking statement fields only
(`ir.statement_fields`). So `tests/interp.py` can run what each target's
lowering means, and rendering the result gives the target's bytes again.
"""

from oogen import ir
from oogen._record import replace
from oogen.backends import get_backend


def lower(pkg: ir.PackageTree, target: str) -> ir.PackageTree:
    table = type(get_backend(target)).lowerings

    def rewrite(value):
        cls = type(value)
        if cls is tuple:
            return tuple([rewrite(part) for part in value])
        if cls in table:
            lowered = table[cls](value)
            if lowered is not value:
                return rewrite(lowered)
        changes = {name: rewrite(getattr(value, name)) for name in ir.statement_fields(cls)}
        return replace(value, **changes) if changes else value

    return rewrite(pkg)
