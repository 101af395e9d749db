"""Span tracer for relanom's layers, installed from outside the package.

``Tracer.installed()`` replaces every public function of the traced
modules (the names in each module's ``__all__``, plus
``ModelBundle.score_model``) with a wrapper, at every name a relanom
module looks it up under: the defining module and each module that
imported it with ``from .x import name``.  Each call records a span
(name, start, end, parent span, command id) and the counts that can be
read from its arguments and result.  Spans stay in memory; the caller
writes them out when the run ends.

``PER_LAYER`` turns the spans of one pass into the per-layer metrics.
Per-function times are inclusive; ``<module>.self_s`` is each module's
self time (span time minus the time of its direct child spans and of the
tracer's own work around them).
"""

from __future__ import annotations

import contextlib
import importlib
import inspect
import math
import os
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

LAYERS = (
    "dataset", "preprocess", "graph", "degree", "popularity",
    "shortest_path", "scoring", "model_io", "cli",
)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    command: int | None
    counts: dict = field(default_factory=dict)
    # Tracer work done inside the parent span but outside this one
    # (tracemalloc, counters); the parent's self time excludes it.
    overhead: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _matrix_bytes(m) -> int:
    if isinstance(m, np.ndarray):
        return m.nbytes
    return m.data.nbytes + m.indices.nbytes + m.indptr.nbytes


def _kernel_counts(args, kwargs, graph):
    m = graph.matrix
    # Computed, not measured: the n*n float64 entries the kernel writes.
    return {"bytes": m.size * m.itemsize, "zeros": int(m.size - np.count_nonzero(m))}


def _knn_counts(args, kwargs, graph):
    return {"edges": int(graph.matrix.nnz)}


def _threshold_counts(args, kwargs, graph):
    # threshold_sparsify drops floor(f * pairs) pairs, then restores dropped
    # pairs until the graph is connected; the kept pairs beyond the planned
    # count are the restored ones.  Every kept pair is stored twice, plus
    # the diagonal.
    n, nnz = graph.n, int(graph.matrix.nnz)
    pairs = n * (n - 1) // 2
    planned = pairs - int(math.floor(_arg(args, kwargs, 1, "drop_fraction") * pairs + 1e-9))
    return {"edges": nnz, "restored": (nnz - n) // 2 - planned}


def _power_counts(args, kwargs, result):
    # Computed: each iteration reads the whole matrix once.
    nbytes = _matrix_bytes(_arg(args, kwargs, 0, "s_matrix"))
    return {"iters": result.iterations, "bytes": result.iterations * nbytes}


def _popularity_counts(args, kwargs, model):
    return {"min_entry": float(np.min(model.s_vec))}


def _preprocess_counts(args, kwargs, transforms):
    return {"boundary": sum(1 for tf in transforms if tf.boundary)}


def _normal_counts(args, kwargs, result):
    return {"normal": int(result[1].size)}


def _dijkstra_counts(args, kwargs, dist):
    return {"rows": int(dist.size), "unreachable": int(np.count_nonzero(np.isinf(dist)))}


def _file_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


COUNTERS = {
    "graph.rbf_similarity_matrix": _kernel_counts,
    "graph.knn_truncate": _knn_counts,
    "graph.threshold_sparsify": _threshold_counts,
    "popularity.power_iteration": _power_counts,
    "popularity.fit_popularity": _popularity_counts,
    "preprocess.fit_preprocessor": _preprocess_counts,
    "shortest_path.select_normal_set": _normal_counts,
    "shortest_path.multi_source_shortest_paths": _dijkstra_counts,
    "model_io.save_model": _file_counts,
    "model_io.load_model": _file_counts,
}

SCORE_MODEL = "model_io.ModelBundle.score_model"


class Tracer:
    """Records spans for calls into relanom while installed."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[Span] = []
        self.command: int | None = None
        self._stack: list[int] = []
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._undo):
                setattr(owner, attr, original)
            self._undo.clear()

    def _install(self) -> None:
        prefix = self.package.__name__
        modules = [self.package] + [
            importlib.import_module(f"{prefix}.{name}") for name in LAYERS
        ]
        for layer, module in zip(LAYERS, modules[1:]):
            for name in module.__all__:
                fn = getattr(module, name)
                if not (inspect.isfunction(fn) and fn.__module__ == module.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{name}", fn)
                for owner in modules:
                    for attr, value in list(vars(owner).items()):
                        if value is fn:
                            self._patch(owner, attr, wrapper)
        bundle = modules[LAYERS.index("model_io") + 1].ModelBundle
        self._patch(
            bundle, "score_model",
            self._wrap(SCORE_MODEL, bundle.score_model, peak_memory=True),
        )

    def _patch(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn, peak_memory=False):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            if self.command is None:  # outside a measured command
                return fn(*args, **kwargs)
            entered = perf_counter()
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            if peak_memory:
                tracemalloc.start()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                span = Span(span_id, name, start, end, parent, self.command)
                self.spans.append(span)
                if peak_memory:
                    span.counts["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                span.overhead = start - entered
            if counter is not None:
                span.counts.update(counter(args, kwargs, result))
            span.overhead += perf_counter() - end
            return result

        traced.__wrapped__ = fn
        return traced


# --- per-layer metrics ------------------------------------------------------
#
# Each entry: (name, unit, better, fn(spans, by_id) -> value), where
# ``spans`` are the spans of one traced pass.  A layer that no command of
# the workload reaches reads 0.

def _selected(spans, by_id, names, outside=None):
    names = (names,) if isinstance(names, str) else names
    for s in spans:
        if s.name not in names:
            continue
        if outside is not None and s.parent is not None and by_id[s.parent].name == outside:
            continue
        yield s


def _time(names, outside=None):
    return lambda spans, by_id: sum(s.seconds for s in _selected(spans, by_id, names, outside))


def _count(names, key, scale=1.0, outside=None):
    return lambda spans, by_id: scale * sum(
        s.counts.get(key, 0) for s in _selected(spans, by_id, names, outside))


def _min_entry(spans, by_id):
    values = [s.counts["min_entry"] for s in spans if "min_entry" in s.counts]
    return min(values) if values else 0.0


def _reachable_ratio(spans, by_id):
    rows = sum(s.counts.get("rows", 0) for s in spans)
    unreachable = sum(s.counts.get("unreachable", 0) for s in spans)
    return (rows - unreachable) / rows if rows else 0.0


def _score_peak_mb(spans, by_id):
    return max((s.counts.get("peak_bytes", 0) for s in spans), default=0) / 1e6


def _self_time(module):
    def self_time(spans, by_id):
        child = {}
        for s in spans:
            if s.parent is not None:
                child[s.parent] = child.get(s.parent, 0.0) + s.seconds + s.overhead
        return sum(s.seconds - child.get(s.id, 0.0) for s in spans if s.module == module)
    return self_time


_RFF = "popularity.rff_warm_start"
_POWER = "popularity.power_iteration"

PER_LAYER = [
    ("dataset.load_csv_s", "s", "lower", _time("dataset.load_csv")),
    ("dataset.write_csv_s", "s", "lower", _time("dataset.write_csv")),
    ("preprocess.fit_s", "s", "lower", _time("preprocess.fit_preprocessor")),
    ("preprocess.apply_s", "s", "lower", _time("preprocess.apply_preprocessor")),
    ("preprocess.boundary_columns", "count", "lower",
     _count("preprocess.fit_preprocessor", "boundary")),
    ("graph.kernel_s", "s", "lower", _time("graph.rbf_similarity_matrix")),
    ("graph.kernel_mb", "MB", "lower", _count("graph.rbf_similarity_matrix", "bytes", 1e-6)),
    ("graph.kernel_zeros", "count", "lower", _count("graph.rbf_similarity_matrix", "zeros")),
    ("graph.knn_s", "s", "lower", _time("graph.knn_truncate")),
    ("graph.knn_edges", "count", "lower", _count("graph.knn_truncate", "edges")),
    ("graph.threshold_s", "s", "lower", _time("graph.threshold_sparsify")),
    ("graph.threshold_restored", "count", "lower", _count("graph.threshold_sparsify", "restored")),
    ("graph.threshold_edges", "count", "lower", _count("graph.threshold_sparsify", "edges")),
    ("graph.symmetrize_s", "s", "lower", _time("graph.max_symmetrize")),
    ("degree.vertex_degrees_s", "s", "lower", _time("degree.vertex_degrees")),
    # The RFF warm start runs its own small power iteration; that one is
    # part of popularity.rff_s, not of the n x n iteration below.
    ("popularity.power_s", "s", "lower", _time(_POWER, outside=_RFF)),
    ("popularity.power_iters", "count", "lower", _count(_POWER, "iters", outside=_RFF)),
    ("popularity.power_gb", "GB", "lower", _count(_POWER, "bytes", 1e-9, outside=_RFF)),
    ("popularity.rff_s", "s", "lower", _time(_RFF)),
    ("popularity.min_entry", "1", "higher", _min_entry),
    ("shortest_path.dijkstra_s", "s", "lower",
     _time("shortest_path.multi_source_shortest_paths")),
    ("shortest_path.path_weights_s", "s", "lower", _time("shortest_path.path_weights")),
    ("shortest_path.select_normal_s", "s", "lower", _time("shortest_path.select_normal_set")),
    ("shortest_path.normal_size", "count", "higher",
     _count("shortest_path.select_normal_set", "normal")),
    ("shortest_path.unreachable", "count", "lower",
     _count("shortest_path.multi_source_shortest_paths", "unreachable")),
    ("shortest_path.reachable_ratio", "ratio", "higher", _reachable_ratio),
    ("scoring.dora_s", "s", "lower", _time("scoring.dora_batch")),
    ("scoring.label_s", "s", "lower", _time("scoring.label_top_fraction")),
    ("model_io.save_s", "s", "lower", _time("model_io.save_model")),
    ("model_io.load_s", "s", "lower", _time("model_io.load_model")),
    ("model_io.model_mb", "MB", "lower",
     _count(("model_io.save_model", "model_io.load_model"), "bytes", 1e-6)),
    ("model_io.score_s", "s", "lower", _time(SCORE_MODEL)),
    ("model_io.score_peak_mb", "MB", "lower", _score_peak_mb),
] + [(f"{layer}.self_s", "s", "lower", _self_time(layer)) for layer in LAYERS]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass's spans."""
    by_id = {s.id: s for s in spans}
    return {name: float(fn(spans, by_id)) for name, _, _, fn in PER_LAYER}
