"""Span tracer that wraps the public functions of the gsetbench modules.

The tracer is installed from the benchmark's own files: it replaces every
public module-level function of each gsetbench module, in every module
namespace that holds a reference to it, with a wrapper that records one
span per call. A span is (op, span, parent, name, start_ns, end_ns); all
spans of one program operation share the op id. Spans stay in memory and
are written out once, when the run ends.

Only calls made on the thread that installed the tracer are recorded, so
the parent of a span is always the span open below it on that thread.
"""

from __future__ import annotations

import csv
import functools
import inspect
import threading
import time
from collections import defaultdict

MODULES = (
    "instances", "codec", "evaluate", "oracle", "solvers",
    "metrics", "campaign", "registry", "cli",
)

# flip_delta_cut runs once per Gray-code step of the oracle (2^19 calls on
# a 4x5 torus); a span per call would multiply oracle time several-fold
# and hold millions of spans. Its time shows as oracle self time.
UNTRACED = {"evaluate.flip_delta_cut"}


class Tracer:
    """Records spans while installed (``with tracer:``).

    ``hooks`` maps a span name to ``fn(args, result)``; the dict it returns
    is kept in ``attrs`` under the span id, for counts taken at the boundary.
    """

    def __init__(self, package, hooks=None):
        self._modules = [getattr(package, name) for name in MODULES]
        self._hooks = hooks or {}
        self._thread = threading.get_ident()
        self._stack: list[int] = []
        self._next_span = 1
        self._patches: list[tuple[object, str, object]] = []
        self.op = 0
        self.ops: dict[int, str] = {}
        self.spans: list[tuple[int, int, int, str, int, int]] = []
        self.attrs: dict[int, dict] = {}

    def begin_op(self, label: str) -> None:
        """Start a new program operation; later spans carry its id."""
        self.op += 1
        self.ops[self.op] = label

    def install(self) -> None:
        wrappers = {}
        for module in self._modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for name, obj in vars(module).items():
                label = f"{short}.{name}"
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not name.startswith("_") and label not in UNTRACED):
                    wrappers[obj] = self._wrap(obj, label)
        for module in self._modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._patches.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        for module, name, original in reversed(self._patches):
            setattr(module, name, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _wrap(self, fn, label):
        hook = self._hooks.get(label)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            sid = self._next_span
            self._next_span += 1
            parent = self._stack[-1] if self._stack else 0
            self._stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                self.spans.append((self.op, sid, parent, label, start, end))
            if hook is not None:
                self.attrs[sid] = hook(args, result)
            return result

        return traced

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["op", "op_label", "span", "parent", "name", "start_ns", "end_ns"])
            for op, sid, parent, name, start, end in self.spans:
                out.writerow([op, self.ops.get(op, ""), sid, parent, name, start, end])


class SpanIndex:
    """Durations, self times and ancestry derived from recorded spans."""

    def __init__(self, spans):
        self.spans = spans
        self.parent = {sid: parent for _, sid, parent, _, _, _ in spans}
        self.name = {sid: name for _, sid, _, name, _, _ in spans}
        self.duration = {sid: (end - start) * 1e-9 for _, sid, _, _, start, end in spans}
        child_time = defaultdict(float)
        for _, sid, parent, _, _, _ in spans:
            if parent:
                child_time[parent] += self.duration[sid]
        # children run one after another on one thread, so the part of the
        # parent's interval they cover is the sum of their durations
        self.self_time = {sid: d - child_time[sid] for sid, d in self.duration.items()}

    def by_name(self, name, ops=None):
        return [sid for op, sid, _, n, _, _ in self.spans
                if n == name and (ops is None or op in ops)]

    def mean_duration(self, name) -> float:
        sids = self.by_name(name)
        return sum(self.duration[s] for s in sids) / len(sids) if sids else 0.0

    def module_self_time(self, ops) -> dict[str, float]:
        totals = dict.fromkeys(MODULES, 0.0)
        for op, sid, _, name, _, _ in self.spans:
            if op in ops:
                totals[name.split(".", 1)[0]] += self.self_time[sid]
        return totals

    def ancestor_named(self, sid, name):
        sid = self.parent.get(sid, 0)
        while sid:
            if self.name[sid] == name:
                return sid
            sid = self.parent.get(sid, 0)
        return 0
