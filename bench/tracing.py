"""In-memory span tracing of the dlbac library, installed from outside it.

`install` replaces every module-level public function of the traced modules
with a wrapper that records a span (id, name, start, end, parent, thread),
in every `dlbac` namespace that holds the function, so callers inside the
library that look the name up at call time (`engine.handle_line` calling
`decide`, `neuralnet.train` calling `adam_step`) are traced too.  Spans stay
in memory until `dump` writes them out.  Times are `time.perf_counter`
seconds, which on Linux is CLOCK_MONOTONIC and so comparable between the
benchmark and its `dlbac serve` child.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager

LAYERS = ("dataset", "encoding", "neuralnet", "metrics", "engine", "interpret", "distill", "cli")

# span tuple fields
SID, NAME, START, END, PARENT, TID = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the interpreter lock
            self.spans.append((sid, name, start, end, parent, threading.get_ident()))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans]


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every traced module, named `module.function`."""
    originals = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"dlbac.{layer}")
        for attr, obj in vars(mod).items():
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                originals[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "dlbac" or modname.startswith("dlbac.")):
            continue
        for attr, obj in list(vars(mod).items()):
            hit = originals.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])


def write(path, payload: dict) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload, separators=(",", ":")))
    tmp.replace(path)


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


class Spans:
    """Queries over a list of span tuples."""

    def __init__(self, spans):
        self.spans = [tuple(s) for s in spans]
        self.by_id = {s[SID]: s for s in self.spans}
        self.children: dict[int, list[tuple]] = {}
        self.by_name: dict[str, list[tuple]] = {}
        for s in self.spans:
            self.children.setdefault(s[PARENT], []).append(s)
            self.by_name.setdefault(s[NAME], []).append(s)

    def named(self, name, within=None, parent=None):
        out = self.by_name.get(name, [])
        if within is not None:
            lo, hi = within
            out = [s for s in out if lo <= s[START] and s[END] <= hi]
        if parent is not None:
            out = [s for s in out if self.by_id.get(s[PARENT], (0, ""))[NAME] == parent]
        return out

    @staticmethod
    def total(spans) -> float:
        return sum(s[END] - s[START] for s in spans)

    def self_time(self, spans) -> float:
        """Summed duration minus the part covered by direct children."""
        own = 0.0
        for s in spans:
            kids = self.children.get(s[SID], [])
            own += (s[END] - s[START]) - self.total(kids)
        return own
