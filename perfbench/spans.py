"""Span tracing around airelm's public functions, from outside the program.

`Tracer.install` replaces each traced function under the name its caller
looks it up by (`airelm.experiments.fit`, `airelm.elm.min_norm_lstsq`,
`airelm.numkernel.svd`, `airelm.rng.RngStream.split`, ...) with a wrapper
that records a span: layer name, start and end in nanoseconds, the index of
the enclosing span in the same thread, and a few work counts taken from the
arguments.  Spans stay in memory, one list and one stack per thread, and are
read out once at the end with `Tracer.spans`.

Only calls made in the traced process are seen: work moved into worker
processes would vanish from the trace and needs tracing inside the program.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time

ROOT = "experiments"


def _svd_counts(args, kwargs):
    m, n = args[0].shape[-2:]
    return {"mnk": m * n * min(m, n)}


def _hidden_counts(args, kwargs):
    return {"rows": len(args[1])}


# (module, attribute, layer, counts).  The module is where the caller looks
# the name up, so the wrapper is seen even after `from x import name`.
TRACE_POINTS = (
    ("airelm.cli", "parse_config", "config.parse", None),
    ("airelm.experiments", "load_wbcd", "data.load", None),
    ("airelm.experiments", "synth_two_gaussians", "data.synth", None),
    ("airelm.experiments", "split_standardize", "data.prep", None),
    ("airelm.experiments", "sample_ricean", "channel.sample", None),
    ("airelm.experiments", "sigma2_for_snr", "channel.sigma2", None),
    ("airelm.experiments", "evolve_ar", "channel.evolve", None),
    ("airelm.experiments", "fit", "elm.fit", None),
    ("airelm.experiments", "predict", "elm.predict", None),
    ("airelm.experiments", "online_update", "elm.online_update", None),
    ("airelm.experiments", "digital_elm_hidden", "elm.digital_hidden", None),
    ("airelm.experiments", "emit_csv", "experiments.emit", None),
    ("airelm.experiments", "write_manifest", "experiments.emit", None),
    ("airelm.elm", "hidden_matrix", "elm.hidden_matrix", _hidden_counts),
    ("airelm.elm", "train", "elm.train", None),
    ("airelm.elm", "min_norm_lstsq", "numkernel.lstsq", None),
    ("airelm.elm", "rapp_vec", "activation.rapp", None),
    ("airelm.elm", "sigmoid", "activation.sigmoid", None),
    ("airelm.numkernel", "svd", "numkernel.svd", _svd_counts),
    ("airelm.rng", "RngStream.split", "rng.split", None),
)


class Tracer:
    """Collects spans from every thread that calls a traced function."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []          # (thread id, span list), one per thread
        self._restore = []

    def _state(self):
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.stack = [], []
            with self._lock:
                self._threads.append((threading.get_ident(), local.spans))
        return local

    def call(self, layer, fn, args, kwargs, counts=None):
        """Run fn(*args, **kwargs) inside a span named `layer`."""
        local = self._state()
        index = len(local.spans)
        parent = local.stack[-1] if local.stack else None
        local.spans.append(None)
        local.stack.append(index)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            local.stack.pop()
            local.spans[index] = (layer, start, end, parent,
                                  counts(args, kwargs) if counts else None)

    def wrap(self, layer, fn, counts=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs, counts)
        return traced

    def install(self):
        """Wrap every trace point in place; `uninstall` puts the originals back."""
        for module, attr, layer, counts in TRACE_POINTS:
            owner = importlib.import_module(module)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, name)
            self._restore.append((owner, name, original))
            setattr(owner, name, self.wrap(layer, original, counts))

    def uninstall(self):
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    def spans(self):
        """All spans as (thread id, layer, start_ns, end_ns, parent, counts).

        `parent` indexes this list: the enclosing span in the same thread,
        or None for a span at the top of its thread.
        """
        with self._lock:
            threads = list(self._threads)
        out = []
        for tid, spans in threads:
            base = len(out)
            out.extend((tid, layer, start, end,
                        None if parent is None else base + parent, counts)
                       for layer, start, end, parent, counts in spans)
        return out


def _covered(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def layer_totals(spans, root_thread):
    """Per-layer self time (ns), call count and summed work counts.

    A span's self time is its duration minus the part of it that its child
    spans cover.  Top-level spans of other threads (the pool workers) count
    as children of the root span, so the root's self time is the run's wall
    time not covered by any traced call in any thread; the sum of the other
    layers' self times can then exceed the wall time.
    """
    root = next((i for i, (tid, layer, _, _, parent, _) in enumerate(spans)
                 if tid == root_thread and parent is None and layer == ROOT),
                None)
    children = {}
    for i, (tid, _, start, end, parent, _) in enumerate(spans):
        if parent is None and tid != root_thread:
            parent = root
        if parent is not None and i != root:
            children.setdefault(parent, []).append((start, end))
    totals = {}
    for i, (tid, layer, start, end, parent, counts) in enumerate(spans):
        entry = totals.setdefault(layer, {"self_ns": 0, "calls": 0})
        kids = [(max(s, start), min(e, end)) for s, e in children.get(i, ())]
        entry["self_ns"] += (end - start) - _covered(
            [(s, e) for s, e in kids if e > s])
        entry["calls"] += 1
        for key, value in (counts or {}).items():
            entry[key] = entry.get(key, 0) + value
    return totals
