"""Errors raised while building IR or rendering it.

Build-time errors (all but UnsupportedConstruct and DecodeError) fire as a
program is built, and as a DecodeError at the node as it is decoded, so a
tree that builds *or decodes* is renderable by every backend, unless it
nests deeper than Python's recursion limit lets a renderer or the JSON
encoder walk: that raises NestingTooDeep at render or encode time.
"""

from __future__ import annotations


class BuildError(ValueError):
    """Base for IR construction failures."""


class InvalidIdentifier(BuildError):
    """Name is not a legal identifier in the common subset."""


class TypeMismatch(BuildError):
    """Operands or arguments disagree with an operation's typing rule."""


class DuplicateParam(BuildError):
    """Two parameters of one function share a name."""


class DuplicateMethod(BuildError):
    """A class (or the program's main slot) declares a name twice."""


class DuplicateModule(BuildError):
    """Two modules in one program share a name."""


class EmptyConditional(BuildError):
    """ifCond called with no branches."""


class SignatureMismatch(BuildError):
    """inOutCall argument lists disagree with the callee's declaration."""


class UnknownStrategy(BuildError):
    """runStrategy's chosen name is not in the strategy table."""


class ObserverNotInitialized(BuildError):
    """addObserver/notifyObservers precede initObserverList in a body."""


class DuplicateStateLabel(BuildError):
    """A switch, checkState's too, lists one case label twice."""


class UnknownParamDoc(BuildError):
    """docFunc documents a parameter the function does not declare."""


class NoMainModule(BuildError):
    """An operation needed the program's main module and none exists."""


class NestingTooDeep(BuildError):
    """A tree nests too deeply to render or encode."""


class UnsupportedConstruct(Exception):
    """A backend cannot express the given IR node; the message names the
    target and the node's class."""


class DecodeError(ValueError):
    """Package JSON rejected; `path` points at the offending node."""

    def __init__(self, message: str, path: str = "$"):
        self.path = path
        super().__init__(f"{path}: {message}")
