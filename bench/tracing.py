"""Spans around the package's public functions, installed at run time.

``Tracer.install()`` replaces every public function of the traced modules,
wherever the package holds a reference to it (``cli`` and ``alpha`` import
them by name), with a wrapper that records a span: name, start, end, parent
span and the operation it belongs to.  Nothing under ``src/`` changes.
``uninstall()`` puts the originals back.

Inner-loop helpers are left alone, since a span per call would cost more
than the work they do.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

MODULES = ("family", "dimensions", "alpha", "constructions", "geometry", "fileio")
UNTRACED = {"mask_of", "member_of", "squared_distance", "point2", "point3"}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.extremal_nodes = 0  # summed ExtremalResult.nodes
        self.op = None
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (sid, parent, self.op, name, start, end)

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = self.span(name, fn, *args, **kwargs)
            if name == "constructions.extremal_search":
                self.extremal_nodes += out.nodes
            return out

        return traced

    # -- patching ------------------------------------------------------------

    def install(self, *callers) -> None:
        """Wrap the traced functions in the package and in ``callers``,
        modules outside it that imported them by name."""
        pkg = "sunflower_lab"
        wrappers = {}
        for short in MODULES:
            mod = sys.modules[f"{pkg}.{short}"]
            for name, fn in vars(mod).items():
                if (
                    inspect.isfunction(fn)
                    and fn.__module__ == mod.__name__
                    and not name.startswith("_")
                    and name not in UNTRACED
                ):
                    wrappers[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        holders = [
            mod for name, mod in sys.modules.items()
            if mod is not None and (name == pkg or name.startswith(pkg + "."))
        ]
        for mod in holders + list(callers):
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    # -- summaries -----------------------------------------------------------

    def summary(self, first: int = 0) -> dict[str, float]:
        """Per-name inclusive time, self time and call count of the spans
        recorded since index ``first``."""
        spans = self.spans[first:]
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _op, _name, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for sid, _parent, _op, name, start, end in spans:
            out[f"{name}_s"] += end - start
            out[f"{name}_self_s"] += end - start - child_time[sid]
            out[f"{name}_calls"] += 1
        return out

    def dump(self) -> list[dict]:
        return [
            {"id": s[0], "parent": s[1], "op": s[2], "name": s[3], "start": s[4], "end": s[5]}
            for s in self.spans
        ]
