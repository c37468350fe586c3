"""Spans around the public functions of the mhdes layers, and the per-layer
figures computed from them.

Recording runs inside a traced child process.  ``install`` wraps each
function named in ``TRACED`` once and rebinds the wrapper in every mhdes
module namespace that holds the original, so calls made through a name
imported with ``from .orr_evp import solve_max_m`` (as ``critical`` and
``cli`` do) are traced as well.  Each span records its name, start, end,
parent, thread id and the calling thread's CPU time.

The aggregation half of this module is pure and runs in the harness.
"""

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

TRACED = {
    "spectral": ("build_operator", "clamped_restrict"),
    "baseflow": ("profile_for",),
    "orr_evp": ("assemble_pencil", "solve_max_m", "reynolds_curve"),
    "critical": ("minimize_over_a",),
    "verify": ("random_trial_bound", "energy_ratio", "make_trial_field",
               "decay_check", "poincare_check", "fd_oracle"),
    "cli": ("main",),
}


class Recorder:
    """Thread-safe store of finished spans.

    A span opened in a thread with no open span of its own (a worker of
    the CLI pool) takes the innermost open span of the main thread as its
    parent, so work handed to a pool is charged to the span that waits
    for it.
    """

    def __init__(self):
        self.spans = []
        self._open = defaultdict(list)
        self._lock = threading.Lock()
        self._next_id = 0
        self._main = threading.main_thread().ident

    def begin(self):
        tid = threading.get_ident()
        with self._lock:
            sid = self._next_id
            self._next_id += 1
            stack = self._open[tid]
            if stack:
                parent = stack[-1]
            else:
                main = self._open.get(self._main)
                parent = main[-1] if main else None
            stack.append(sid)
        return sid, parent, tid

    def end(self, sid, parent, tid, name, start, end, cpu, error, converged):
        with self._lock:
            self._open[tid].pop()
            self.spans.append({"id": sid, "parent": parent, "name": name,
                               "start": start, "end": end, "tid": tid,
                               "cpu": cpu, "error": error,
                               "converged": converged})


def _wrap(recorder, name, fn, numerical_error):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        sid, parent, tid = recorder.begin()
        result = error = None
        c0 = time.thread_time()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = ("numerical" if isinstance(exc, numerical_error)
                     else type(exc).__name__)
            raise
        finally:
            t1 = time.perf_counter()
            c1 = time.thread_time()
            recorder.end(sid, parent, tid, name, t0, t1, c1 - c0, error,
                         getattr(result, "converged", None))
    return traced


def install(recorder):
    """Wrap every function in TRACED wherever mhdes holds it by name."""
    import mhdes
    from mhdes.errors import NumericalError

    layers = {layer: importlib.import_module(f"mhdes.{layer}")
              for layer in TRACED}
    namespaces = [m for n, m in list(sys.modules.items())
                  if n == mhdes.__name__ or n.startswith(mhdes.__name__ + ".")]
    for layer, names in TRACED.items():
        module = layers[layer]
        for fname in names:
            original = getattr(module, fname)
            wrapped = _wrap(recorder, f"{layer}.{fname}", original,
                            NumericalError)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, attr, wrapped)


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def covered(lo, hi, intervals):
    """Length of [lo, hi] covered by the union of the given intervals."""
    total = 0.0
    run_lo = run_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if run_hi is None or a > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = a, b
        else:
            run_hi = max(run_hi, b)
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def self_times(spans):
    """Span id -> duration minus the union of its children's intervals.

    Children in other threads may overlap each other; the union counts
    the time they cover once.
    """
    kids = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            kids[s["parent"]].append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - covered(s["start"], s["end"], kids.get(s["id"], ()))
            for s in spans}


def _has_ancestor(span, name, by_id):
    parent = span["parent"]
    while parent is not None:
        p = by_id[parent]
        if p["name"] == name:
            return True
        parent = p["parent"]
    return False


def layer_metrics(processes):
    """Per-layer figures summed over the span lists of several processes.

    For every traced function: ``calls``, ``self_s``, ``wait_s`` (span
    wall time minus the calling thread's CPU time) and ``failed`` (calls
    that raised NumericalError).  Also ``critical.solves_per_minimum``,
    ``critical.unconverged`` and ``cli.concurrency`` (summed duration of
    the children of ``cli.main`` over its own duration).
    """
    out = {}
    for layer, names in TRACED.items():
        for fname in names:
            key = f"{layer}.{fname}"
            out.update({f"{key}.calls": 0, f"{key}.self_s": 0.0,
                        f"{key}.wait_s": 0.0, f"{key}.failed": 0})
    minima = solves_in_minima = unconverged = 0
    main_s = main_children_s = 0.0
    for spans in processes:
        by_id = {s["id"]: s for s in spans}
        own = self_times(spans)
        child_s = defaultdict(float)
        for s in spans:
            if s["parent"] is not None:
                child_s[s["parent"]] += s["end"] - s["start"]
        for s in spans:
            name = s["name"]
            dur = s["end"] - s["start"]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += own[s["id"]]
            out[f"{name}.wait_s"] += dur - s["cpu"]
            if s["error"] == "numerical":
                out[f"{name}.failed"] += 1
            if name == "critical.minimize_over_a":
                minima += 1
                unconverged += s["converged"] is False
            elif name == "orr_evp.solve_max_m":
                solves_in_minima += _has_ancestor(
                    s, "critical.minimize_over_a", by_id)
            elif name == "cli.main":
                main_s += dur
                main_children_s += child_s[s["id"]]
    out["critical.solves_per_minimum"] = (solves_in_minima / minima
                                          if minima else 0.0)
    out["critical.unconverged"] = unconverged
    out["cli.concurrency"] = main_children_s / main_s if main_s else 0.0
    return out
