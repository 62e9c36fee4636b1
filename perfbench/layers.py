"""Layer spans recorded from outside the program.

The benchmark times each pipeline layer by wrapping the public function
that enters it, so nothing in ``src/`` changes.  A :class:`Recorder`
patches the module attributes callers look the functions up through
and keeps every span in memory (name, parent, start, end, rows,
bytes).  Each span knows its parent, so a layer's *self* time is its
duration minus the time its child spans cover.

Span names are ``<layer>.<function>``; the layers are named after the
modules (``compiler``, ``cpu``, ``trace``, ``predictor``, ``timing``,
``eval``, ``api``).  The ``serve`` layer is timed on the client side
(``serveload.ladder``).
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import defaultdict


def _trace_rows(args, kwargs, result):
    return len(args[0])


def _result_rows(args, kwargs, result):
    return len(result)


def _cell_count(args, kwargs, result):
    return len(args[1])


def _saved_bytes(args, kwargs, result):
    return os.path.getsize(args[1])


def _loaded_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


#: ``(module, class or None, attribute, span name, rows, bytes)``: the
#: layer entry points, patched where their callers look them up.
ENTRY_POINTS = (
    ("repro.workloads.suite", None, "compile_source", "compiler.compile",
     None, None),
    ("repro.workloads.suite", None, "run_program", "cpu.run_program",
     _result_rows, None),
    ("repro.trace.cache", None, "save_trace", "trace.cache.store",
     None, _saved_bytes),
    ("repro.trace.cache", "TraceCache", "fetch", "trace.cache.fetch",
     None, None),
    ("repro.trace.cache", None, "load_trace", "trace.cache.load",
     None, _loaded_bytes),
    ("repro.trace.columns", "ColumnarTrace", "from_rows", "trace.columns",
     None, None),
    ("repro.trace.columns", "ColumnarTrace", "from_records",
     "trace.columns", None, None),
    ("repro.trace.columns", "ColumnarTrace", "memory_mask",
     "trace.columns", None, None),
    ("repro.trace.columns", "ColumnarTrace", "to_records", "trace.records",
     _result_rows, None),
    ("repro.api.session", None, "region_breakdown", "trace.regions",
     _trace_rows, None),
    ("repro.api.session", None, "window_stats", "trace.windows",
     _trace_rows, None),
    ("repro.api.session", None, "evaluate_scheme", "predictor.evaluate",
     _trace_rows, None),
    ("repro.api.session", None, "simulate", "timing.simulate",
     _trace_rows, None),
    ("repro.eval.engine", None, "run_cells", "eval.engine.run_cells",
     _cell_count, None),
    ("repro.api.session", "Session", "predict", "api.predict",
     None, None),
    ("repro.api.session", "Session", "regions", "api.regions",
     None, None),
    ("repro.api.session", "Session", "timing", "api.timing", None, None),
)


class Recorder:
    """An in-memory span journal plus the patches that feed it.

    Spans are ``[name, parent, start, end, rows, bytes]`` lists, with
    ``parent`` the enclosing span's list (or None) on the same thread
    and times from ``time.monotonic``.
    """

    def __init__(self) -> None:
        self.spans = []
        self._local = threading.local()
        self._patches = []

    def span(self, name: str, fn, *args, rows=None, nbytes=None,
             **kwargs):
        """Call ``fn(*args, **kwargs)`` inside one span; return its result.

        ``rows``/``nbytes`` are ``f(args, kwargs, result)`` callables
        measuring the work done, recorded on the span.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        record = [name, stack[-1] if stack else None, 0.0, 0.0, 0, 0]
        self.spans.append(record)
        stack.append(record)
        record[2] = time.monotonic()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[3] = time.monotonic()
            stack.pop()
        if rows is not None:
            record[4] = rows(args, kwargs, result)
        if nbytes is not None:
            record[5] = nbytes(args, kwargs, result)
        return result

    def _wrap(self, name: str, fn, rows, nbytes):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, *args, rows=rows, nbytes=nbytes,
                             **kwargs)
        return wrapper

    def install(self) -> None:
        """Patch every layer entry point to record spans here."""
        for module, cls, attr, name, rows, nbytes in ENTRY_POINTS:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
                original = owner.__dict__[attr]
            else:
                original = getattr(owner, attr)
            if isinstance(original, classmethod):
                patched = classmethod(self._wrap(name, original.__func__,
                                                 rows, nbytes))
            else:
                patched = self._wrap(name, original, rows, nbytes)
            setattr(owner, attr, patched)
            self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every patched entry point."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


class LayerTotals:
    """Per-span-name totals: calls, inclusive and self seconds, rows,
    bytes."""

    def __init__(self, spans: list) -> None:
        children = defaultdict(float)
        for span in spans:
            if span[1] is not None:
                children[id(span[1])] += span[3] - span[2]
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.rows = defaultdict(int)
        self.bytes = defaultdict(int)
        for span in spans:
            name, duration = span[0], span[3] - span[2]
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration - children[id(span)]
            self.rows[name] += span[4]
            self.bytes[name] += span[5]
        self.self_sum_s = sum(self.self_s.values())

    def per_call(self, name: str) -> float:
        """Mean self seconds per call of ``name``."""
        return self.self_s[name] / self.calls[name]

    def rate(self, name: str, unit: float) -> float:
        """Rows per self-second of ``name``, in ``unit`` rows."""
        return self.rows[name] / self.self_s[name] / unit

    def mib_per_s(self, name: str) -> float:
        return self.bytes[name] / self.self_s[name] / 2 ** 20


def setup_layers(totals: LayerTotals) -> dict:
    """The per-layer metrics every workload's set-up yields."""
    return {
        "compiler.compile_s": totals.per_call("compiler.compile"),
        "cpu.run_program_s": totals.per_call("cpu.run_program"),
        "cpu.kinsn_per_s": totals.rate("cpu.run_program", 1e3),
        "trace.cache.store_s": totals.per_call("trace.cache.store"),
        "trace.cache.store_mib_per_s":
            totals.mib_per_s("trace.cache.store"),
    }
