"""Outside-in tracing of ``srgauss``: spans around calls into each module's
public functions, recorded from the benchmark's own files.

``install`` replaces each traced function at every place a module of the
package binds it (``montecarlo`` holds its own ``run_trial``, ``cli`` its own
``estimate`` and so on), so no call escapes through a stale name.  Spans are
kept in memory, one list and one stack per thread, and written out once at
the end; ``summarize`` turns them into per-function calls, self time and
latency percentiles.

A span opened on a worker thread whose stack is empty takes as its parent
the innermost open span of the main thread: ``montecarlo.estimate`` runs
trials on worker threads while it waits on the main thread.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict

import numpy as np


def _codebook_counts(counts, args, kwargs) -> None:
    m, center = args[1], args[2]
    dtype = args[5] if len(args) > 5 else kwargs.get("dtype", np.float64)
    cells = int(m) * int(center.shape[-1])
    counts["draws"] += cells
    counts["bytes_computed"] += cells * np.dtype(dtype).itemsize


def _encode_counts(counts, args, kwargs) -> None:
    codebook = args[1]
    counts["madds"] += int(codebook.size)
    counts["bytes_computed"] += int(codebook.nbytes)


def _write_counts(counts, args, kwargs) -> None:
    out = args[3] if len(args) > 3 else kwargs.get("out")
    if out is not None:
        counts["bytes"] += os.path.getsize(out)


# (module, attribute, span name, counter).  Counts are computed from each
# call's arguments (m, n, dtype), not measured.
TARGETS = [
    ("srgauss.cli", "main", "cli.main", None),
    ("srgauss.report", "write", "report.write", _write_counts),
    ("srgauss.montecarlo", "estimate", "montecarlo.estimate", None),
    ("srgauss.montecarlo", "trial_stream", "montecarlo.trial_stream", None),
    ("srgauss.codec", "run_trial", "codec.run_trial", None),
    ("srgauss.codec", "gen_codebook", "codec.gen_codebook", _codebook_counts),
    ("srgauss.codec", "encode_layer", "codec.encode_layer", _encode_counts),
    ("srgauss.sources", "SourceSpec.sample", "sources.sample", None),
    ("srgauss.sources", "SourceSpec.log_mgf_x2", "sources.log_mgf_x2", None),
    ("srgauss.core", "rate_function_x2", "core.rate_function_x2", None),
    ("srgauss.core", "invert_iid_exponent", "core.invert_iid_exponent", None),
    ("srgauss.core", "iid_nonexcess_exponent", "core.iid_nonexcess_exponent", None),
    ("srgauss.asymptotics", "jep_exponent", "asymptotics.jep_exponent", None),
    ("srgauss.asymptotics", "jep_exponent_lambda1", "asymptotics.jep_exponent_lambda1", None),
    ("srgauss.asymptotics", "sep_exponents", "asymptotics.sep_exponents", None),
    ("srgauss.asymptotics", "region_contains", "asymptotics.region_contains", None),
    ("srgauss.asymptotics", "second_order_plan", "asymptotics.second_order_plan", None),
]

SPAN_NAMES = [t[2] for t in TARGETS]


class _ThreadState(threading.local):
    def __init__(self):
        self.stack: list[int] = []
        self.spans: list[tuple] = []
        self.counts = defaultdict(lambda: defaultdict(int))
        self.registered = False


class Tracer:
    """Records (id, parent, name index, start ns, end ns) per traced call."""

    def __init__(self):
        self._state = _ThreadState()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads: list[dict] = []  # each thread's _ThreadState attributes
        self._main = threading.main_thread()
        self._main_stack: list[int] | None = None

    def _local(self):
        st = self._state
        if not st.registered:
            with self._lock:
                self._threads.append(st.__dict__)
            st.registered = True
            if threading.current_thread() is self._main:
                self._main_stack = st.stack
        return st

    def wrap(self, index: int, fn, counter=None):
        ids = self._ids
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            st = self._local()
            stack = st.stack
            if stack:
                parent = stack[-1]
            elif self._main_stack and stack is not self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = 0
            sid = next(ids)
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                st.spans.append((sid, parent, index, t0, t1))
            if counter is not None:
                counter(st.counts[index], args, kwargs)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Patch every binding site of every target in the loaded package."""
        package = [m for name, m in sys.modules.items()
                   if m is not None and (name == "srgauss" or name.startswith("srgauss."))]
        for index, (modname, attr, _, counter) in enumerate(TARGETS):
            owner = sys.modules[modname]
            if "." in attr:  # a method: patch the class attribute
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self.wrap(index, vars(cls)[meth], counter))
                continue
            original = getattr(owner, attr)
            traced = self.wrap(index, original, counter)
            for mod in package:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)

    def dump(self, path: str) -> None:
        """Write spans (.npy) and counts (.json beside it)."""
        with self._lock:
            states = list(self._threads)
        rows = [s for st in states for s in st["spans"]]
        np.save(path, np.array(rows, dtype=np.int64).reshape(-1, 5))
        counts = defaultdict(lambda: defaultdict(int))
        for st in states:
            for index, c in st["counts"].items():
                for key, v in c.items():
                    counts[SPAN_NAMES[index]][key] += v
        with open(path + ".counts.json", "w", encoding="utf-8") as fh:
            json.dump(counts, fh)


def _covered(intervals: list[tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def summarize(spans: np.ndarray) -> dict[str, dict]:
    """Per span name: calls, self_s, total_s and per-call p50/p99 in us.

    Self time is the span's duration minus the part of it that child spans
    cover; children on different threads may overlap, so their union is used.
    """
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for sid, parent, _, t0, t1 in spans.tolist():
        if parent:
            children[parent].append((t0, t1))
    self_ns = defaultdict(int)
    durations = defaultdict(list)
    for sid, _, index, t0, t1 in spans.tolist():
        kids = children.get(sid)
        self_ns[index] += (t1 - t0) - (_covered(kids, t0, t1) if kids else 0)
        durations[index].append(t1 - t0)
    out = {}
    for index, name in enumerate(SPAN_NAMES):
        d = np.asarray(durations.get(index, [0]), dtype=np.float64)
        out[name] = {
            "calls": len(durations.get(index, [])),
            "self_s": self_ns[index] / 1e9,
            "total_s": float(d.sum()) / 1e9,
            "p50_us": float(np.percentile(d, 50)) / 1e3,
            "p99_us": float(np.percentile(d, 99)) / 1e3,
        }
    return out
