"""Span recorder for the traced benchmark run.

The recorder wraps functions of the ``subfault`` package from outside: it
rebinds each chosen function, in every package namespace that holds it, to a
wrapper that records one span per call. Nothing under ``src/`` is edited, and
``uninstall`` puts every original object back. A name imported with
``from .matstack import block_toeplitz`` lives in several module namespaces;
each of them is rebound, otherwise calls made through that copy would escape
the trace.

Spans are kept in memory as tuples and written out once, when the run ends.
Calls are synchronous on one thread, so child spans nest strictly inside
their parent and a span's self time is its duration minus the summed
durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# span tuple layout
SPAN_ID, NAME, START, END, PARENT, PASS_ID, NBYTES = range(7)

PACKAGE = "subfault"
# private helpers that the per-layer metrics need as spans of their own
EXTRA_PRIVATE = {"harness._write_json"}


def package_namespaces() -> list:
    """The package and every imported submodule, in a stable order."""
    names = sorted(n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + "."))
    return [sys.modules[n] for n in names]


def traced_functions() -> dict:
    """Map each function to trace onto its span name (``module.function``).

    Public functions are taken where they are defined, so a function is
    traced once under its home module whatever re-exports it.
    """
    chosen = {}
    for mod in package_namespaces():
        short = mod.__name__.rsplit(".", 1)[-1]
        for name, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            span_name = f"{short}.{name}"
            if not name.startswith("_") or span_name in EXTRA_PRIVATE:
                chosen[obj] = span_name
    return chosen


class Tracer:
    """Records spans for the functions it wraps while installed."""

    def __init__(self, byte_counters: dict | None = None):
        # span name -> callable(args, kwargs, result) giving a computed byte count
        self.byte_counters = byte_counters or {}
        self.spans: list = []
        self.pass_id = None
        self._stack: list = []
        self._next_id = 0
        self._rebound: list = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._rebound:
            raise RuntimeError("tracer already installed")
        wrappers = {fn: self._wrap(fn, name) for fn, name in traced_functions().items()}
        for mod in package_namespaces():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
                    self._rebound.append((mod, attr, obj))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._rebound):
            setattr(mod, attr, original)
        self._rebound = []

    # -- recording --------------------------------------------------------

    def _wrap(self, fn, name: str):
        tracer = self
        counter = self.byte_counters.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            result = ok = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                nbytes = counter(args, kwargs, result) if counter and ok else 0
                tracer.spans.append((span_id, name, start, end, parent, tracer.pass_id, nbytes))

        return span

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "id": s[SPAN_ID],
                            "name": s[NAME],
                            "start": s[START],
                            "end": s[END],
                            "parent": s[PARENT],
                            "pass": s[PASS_ID],
                            "bytes": s[NBYTES],
                        }
                    )
                    + "\n"
                )


def self_times(spans) -> list:
    """(span, self time) pairs: duration minus the time child spans cover."""
    child_time = defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            child_time[s[PARENT]] += s[END] - s[START]
    return [(s, (s[END] - s[START]) - child_time[s[SPAN_ID]]) for s in spans]


class PassStats:
    """Per-function totals of one pass, plus the time its root spans cover."""

    def __init__(self):
        self.by_name: dict = {}
        self.root_s = 0.0
        self.spans = 0

    def get(self, name: str) -> dict:
        return self.by_name.get(name, _EMPTY)


_EMPTY = {"self_s": 0.0, "calls": 0, "bytes_sum": 0, "bytes_max": 0}


def per_pass_stats(spans) -> dict:
    """pass id -> PassStats, from the recorded spans."""
    out: dict = {}
    for s, self_s in self_times(spans):
        stats = out.setdefault(s[PASS_ID], PassStats())
        entry = stats.by_name.setdefault(s[NAME], dict(_EMPTY))
        entry["self_s"] += self_s
        entry["calls"] += 1
        entry["bytes_sum"] += s[NBYTES]
        entry["bytes_max"] = max(entry["bytes_max"], s[NBYTES])
        stats.spans += 1
        if s[PARENT] is None:
            stats.root_s += s[END] - s[START]
    return out
