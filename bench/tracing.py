"""Span recorder for the traced run.

Every public function of every finposet module is replaced, in the
globals of each finposet module that references it, by a wrapper that
records one span: name, start, end, parent span and request id.  The
entries of census.CHECKS are wrapped too, as ``census.check.<name>``.
Spans live in flat typed arrays while the pass runs and are written out
when it ends; self times (span time minus the time covered by child
spans) are computed from them afterwards.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array
from pathlib import Path

FINPOSET_MODULES = ("cli", "io", "core", "homotopy", "dimension", "census", "constructions", "family")
FAILED, SUCCEEDED = 1, 2


class Recorder:
    """Spans of one traced pass, and the wrappers that record them."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.tag = array("b")
        self._stack: list[int] = []
        self.current_request = -1
        # down_rows of every poset census passes to two_dimension
        self.census_dim_rows: set[tuple[int, ...]] = set()
        self.census_dim_calls = 0

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def span(self, name: str, fn, tag_of=None, on_call=None):
        """fn wrapped so that each call records a span called name."""
        nid = self._id(name)
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.tag.append(0)
            self.end.append(0.0)
            if on_call is not None:
                on_call(args)
            stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                stack.pop()
            if tag_of is not None:
                self.tag[sid] = tag_of(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _note_census_dim(self, args) -> None:
        self.census_dim_calls += 1
        self.census_dim_rows.add(tuple(args[0].down_rows))

    def install(self) -> list[tuple[dict, str, object]]:
        """Wrap every public finposet function wherever a module refers to it.

        Returns (namespace, name, original) for every replacement made.
        """
        mods = {m: sys.modules[f"finposet.{m}"] for m in FINPOSET_MODULES}
        spaces = [vars(m) for m in mods.values()] + [vars(sys.modules["finposet"])]
        replaced = []
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                tag_of = None
                if name == "dimension.exists_embedding":
                    tag_of = lambda r: FAILED if r is None else SUCCEEDED  # noqa: E731
                plain = self.span(name, fn, tag_of)
                for space in spaces:
                    if space.get(attr) is fn:
                        replaced.append((space, attr, fn))
                        space[attr] = plain
                if name == "dimension.two_dimension":
                    vars(mods["census"])[attr] = self.span(name, fn, on_call=self._note_census_dim)
        checks = mods["census"].CHECKS
        for check, fn in list(checks.items()):
            replaced.append((checks, check, fn))
            checks[check] = self.span(f"census.check.{check}", fn)
        return replaced

    @staticmethod
    def uninstall(replaced: list[tuple[dict, str, object]]) -> None:
        for space, name, fn in replaced:
            space[name] = fn

    def request_span(self, rid: int, fn, *args):
        """Run fn(*args) as the root span of request rid."""
        self.current_request = rid
        try:
            return self.span("request", fn)(*args)
        finally:
            self.current_request = -1

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header and one flat binary array per field."""
        fields = {"name": self.name, "parent": self.parent, "request": self.request,
                  "start": self.start, "end": self.end, "tag": self.tag}
        header = {"names": self.names, "count": len(self.start),
                  "fields": {k: v.typecode for k, v in fields.items()}}
        path.with_suffix(".json").write_text(json.dumps(header) + "\n")
        with open(path.with_suffix(".bin"), "wb") as fh:
            for arr in fields.values():
                arr.tofile(fh)

    def self_times(self) -> array:
        """Duration of each span minus the time its direct children cover."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for sid, parent in enumerate(self.parent):
            if parent >= 0:
                own[parent] -= self.end[sid] - self.start[sid]
        return own
