"""Language-agnostic OO program representation with per-target renderers.

Programs are built once as immutable trees (builders module), then rendered
to idiomatic, documented Python, Java, C#, or C++ source (backends), with
optional Makefile and Doxygen-config generation (auxfiles), JSON interchange
(jsonio), and compile-and-run cross-checking on whatever toolchains the
machine has (verify). The gallery module holds runnable example programs,
and cli exposes all of it as the `oogen` command.

Each name below is imported on first use, so `import oogen.ir` loads the
IR alone and not the backends, the gallery or verify.
"""

# each public name -> the submodule that holds it (a submodule holds itself)
_FROM = {"BuildError": "errors", "DecodeError": "errors", "TARGETS": "backends",
         "assemble_package": "backends", "get_backend": "backends",
         **{m: m for m in ("builders", "gallery", "ir", "jsonio", "patterns", "verify")}}
__all__ = sorted(_FROM)


def __getattr__(name: str):
    if name not in _FROM:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _FROM[name]
    __import__(f"{__name__}.{module}")  # binds the submodule in this module's globals
    return globals()[name] if module == name else getattr(globals()[module], name)
