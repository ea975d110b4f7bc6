"""Non-code package artifacts: Makefile and Doxygen config.

The Makefile shape is one canonical compiler invocation per target, from the
renderer's `source_files` and `build_commands` (which verify runs too), with
the command names lifted into the variables of the renderer's `tools` so
callers can override them the usual way (`make CXX=clang++`). Rule bodies
use hard tabs; that is a format requirement, not a style choice.
"""

from __future__ import annotations

from . import ir
from .errors import NoMainModule
from .layout import Doc, RenderedFile, extract, join_blocks, text, vcat

DOX_CONFIG_NAME = "doxConfig"


def _rule(name: str, commands: list[str], dep: str = "") -> Doc:
    return vcat([text(f"{name}:{dep}")] + [text("\t" + c) for c in commands])


def render_makefile(pkg: ir.PackageTree, target: str, with_doc_rule: bool) -> RenderedFile:
    from . import backends

    main = pkg.main_module
    if main is None:
        raise NoMainModule(f"a {target} makefile needs a module with a main function")
    backend = backends.get_backend(target)
    sources = [path for _, path in backend.source_files(pkg)]
    compile_argv, run_argv = backend.build_commands(
        [f"$({var})" for var, _, _ in backend.tools], sources, main.name, pkg.name)
    blocks = [vcat([text(f"{var} = {commands[0]}") for var, _, commands in backend.tools])]
    if compile_argv is not None:
        blocks.append(_rule("build", [" ".join(compile_argv)]))
    blocks.append(_rule("run", [" ".join(run_argv)], dep="" if compile_argv is None else " build"))

    if with_doc_rule:
        blocks.append(_rule("doc", [f"doxygen {DOX_CONFIG_NAME}"]))
    return RenderedFile("Makefile", extract(join_blocks(blocks)))


def render_dox_config(pkg: ir.PackageTree) -> RenderedFile:
    content = extract(vcat([
        text(f'PROJECT_NAME = "{pkg.name}"'),
        text("INPUT = ."),
        text("EXTRACT_ALL = YES"),
    ]))
    return RenderedFile(DOX_CONFIG_NAME, content)


def render_aux(pkg: ir.PackageTree, target: str) -> list[RenderedFile]:
    out: list[RenderedFile] = []
    for spec in pkg.aux:
        if spec.kind == "makefile":
            out.append(render_makefile(pkg, target, spec.with_doc_rule))
        else:  # "doxygen", the package rule's one other kind
            out.append(render_dox_config(pkg))
    return out
