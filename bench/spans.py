"""Spans around the calls into oogen's layers, for the traced run.

`Spans.patch` replaces a public function or method with a wrapper that
records (name, start, end, parent) for every call and restores the original
on `close`. Nothing inside oogen is changed: the wrappers sit at the layer
boundaries the benchmark calls through. Spans are kept in memory and
written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
import time


class Spans:
    def __init__(self) -> None:
        self.records: list[dict] = []
        self._stack: list[int] = []
        self._undo: list = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        rec = {"name": name, "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.records.append(rec)
        self._stack.append(len(self.records) - 1)
        try:
            return fn(*args, **kwargs)
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def patch(self, owner, attr: str, namer) -> None:
        """Wrap owner.attr; `namer(*args, **kwargs)` names each span."""
        had_own = attr in vars(owner)
        original = getattr(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return self.span(namer(*args, **kwargs), original, *args, **kwargs)

        setattr(owner, attr, wrapper)
        if had_own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            self._undo.append(lambda: delattr(owner, attr))

    def close(self) -> None:
        while self._undo:
            self._undo.pop()()

    def open_names(self) -> list[str]:
        """Names of the spans now open, outermost first."""
        return [self.records[i]["name"] for i in self._stack]

    def mark(self) -> int:
        return len(self.records)

    def totals(self, since: int = 0, until: int | None = None,
               self_time: bool = False) -> dict[str, float]:
        """Summed duration per span name over records[since:until]; with
        self_time, each span minus its child spans."""
        out: dict[str, float] = {}
        child: dict[int, float] = {}
        for rec in self.records[since:until]:
            if rec["parent"] is not None:
                child[rec["parent"]] = (child.get(rec["parent"], 0.0)
                                        + rec["end"] - rec["start"])
        for i, rec in enumerate(self.records[since:until], since):
            dur = rec["end"] - rec["start"]
            if self_time:
                dur -= child.get(i, 0.0)
            out[rec["name"]] = out.get(rec["name"], 0.0) + dur
        return out

    def count(self, name: str, since: int = 0, until: int | None = None) -> int:
        return sum(1 for rec in self.records[since:until] if rec["name"] == name)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.records, fh)
