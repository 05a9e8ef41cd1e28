"""Span tracer that wraps the program's public functions from outside.

Each target is a name as its caller looks it up (``episode.py`` imports
``build_weight_graph`` into its own namespace, so the wrapper goes on
``poissonprop.episode.build_weight_graph``). ``install`` swaps in the
wrappers for one episode and ``restore`` puts every original back, so the
untraced episodes run the program untouched. A target that no longer
exists is recorded as absent; the layer metrics that depend on it read 0.
"""

from __future__ import annotations

import functools
import importlib
import os
import statistics
import tracemalloc
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np
from scipy.sparse.csgraph import connected_components

from poissonprop.graph import laplacian_apply

# (module, attribute, span name); the span name is "<layer>.<function>"
TARGETS = (
    ("poissonprop.cli", "main", "cli.main"),
    ("poissonprop.cli", "load_episode_manifest", "manifest.load_episode_manifest"),
    ("poissonprop.manifest", "load_tensor", "tensorfile.load_tensor"),
    ("poissonprop.cli", "save_tensor", "tensorfile.save_tensor"),
    ("poissonprop.cli", "run_episode", "episode.run_episode"),
    ("poissonprop.episode", "run_episode", "episode.run_episode"),
    ("poissonprop.prototype", "local_prototype_pool", "prototype.local_prototype_pool"),
    ("poissonprop.prototype", "assign_prototype_labels", "prototype.assign_prototype_labels"),
    ("poissonprop.prototype", "masked_average_pool", "prototype.masked_average_pool"),
    ("poissonprop.prototype", "avg_pool", "tensor.avg_pool"),
    ("poissonprop.episode", "downsample_mask", "tensor.downsample_mask"),
    ("poissonprop.episode", "build_weight_graph", "graph.build_weight_graph"),
    ("poissonprop.poisson", "component_count", "graph.component_count"),
    ("poissonprop.poisson", "build_source", "poisson.build_source"),
    ("poissonprop.poisson", "solve_iterative", "poisson.solve_iterative"),
    ("poissonprop.poisson", "extract_confidence_map", "poisson.extract_confidence_map"),
    ("poissonprop.scc", "similarity_map", "scc.similarity_map"),
    ("poissonprop.scc", "fuse_confidence", "scc.fuse_confidence"),
    ("poissonprop.scc", "spatial_consistency_calibrate", "scc.spatial_consistency_calibrate"),
)

# spans whose allocation high-water mark is measured (tracemalloc runs only inside them)
PEAK_SPANS = {"graph.build_weight_graph", "scc.spatial_consistency_calibrate"}


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    episode: int
    start: float = 0.0
    end: float = 0.0
    peak_bytes: int | None = None
    call: tuple | None = field(default=None, repr=False)  # (args, kwargs, result) until counted

    @property
    def duration(self) -> float:
        return self.end - self.start

    def record(self) -> dict:
        out = {k: getattr(self, k) for k in ("id", "name", "parent", "episode", "start", "end")}
        if self.peak_bytes is not None:
            out["peak_bytes"] = self.peak_bytes
        return out


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._saved: list[tuple[object, str, object]] = []
        self._originals: dict[str, tuple[object, str, object]] = {}
        self._stack: list[int] = []
        self._episode = -1

    def install(self, episode: int) -> None:
        self._episode = episode
        for module_name, attr, span_name in TARGETS:
            label = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                if label not in self.absent:
                    self.absent.append(label)
                continue
            self._saved.append((module, attr, original))
            self._originals.setdefault(label, (module, attr, original))
            setattr(module, attr, self._wrap(span_name, original))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def all_restored(self) -> bool:
        """Whether every name ever wrapped holds its original function again."""
        return all(getattr(m, attr) is fn for m, attr, fn in self._originals.values())

    def _wrap(self, name: str, fn):
        measure_peak = name in PEAK_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, parent, self._episode)
            self.spans.append(span)
            self._stack.append(span.id)
            peak = measure_peak and not tracemalloc.is_tracing()
            if peak:
                tracemalloc.start()
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                if peak:
                    span.peak_bytes = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                self._stack.pop()
            span.call = (args, kwargs, result)
            return result

        return traced

    def episode_spans(self, episode: int) -> list[Span]:
        return [s for s in self.spans if s.episode == episode]


# Per-layer metrics: name -> (unit, better). Times are per episode, summed
# over the calls one episode makes; "self" times exclude child spans.
LAYER_METRICS = {
    "graph.build_s": ("s", "lower"),
    "graph.peak_mb": ("MB", "lower"),
    "graph.dist_table_bytes": ("bytes", "lower"),
    "graph.edges": ("count", "lower"),
    "graph.degree_min": ("count", "higher"),
    "graph.degree_max": ("count", "lower"),
    "graph.components": ("count", "lower"),
    "poisson.solve_s": ("s", "lower"),
    "poisson.iterations": ("count", "lower"),
    "poisson.converged_frac": ("frac", "higher"),
    "poisson.final_step": ("1", "lower"),
    "poisson.residual_inf": ("1", "lower"),
    "poisson.spmv_flops": ("flop", "lower"),
    "poisson.source_s": ("s", "lower"),
    "poisson.confidence_s": ("s", "lower"),
    "scc.calibrate_s": ("s", "lower"),
    "scc.calibrate_ops": ("op", "lower"),
    "scc.peak_mb": ("MB", "lower"),
    "scc.similarity_s": ("s", "lower"),
    "scc.fuse_s": ("s", "lower"),
    "prototype.local_pool_s": ("s", "lower"),
    "prototype.label_s": ("s", "lower"),
    "prototype.global_pool_s": ("s", "lower"),
    "prototype.count": ("count", "lower"),
    "tensor.downsample_s": ("s", "lower"),
    "episode.self_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "manifest.load_s": ("s", "lower"),
    "tensorfile.load_s": ("s", "lower"),
    "tensorfile.save_s": ("s", "lower"),
    "tensorfile.bytes_read": ("bytes", "lower"),
    "tensorfile.bytes_written": ("bytes", "lower"),
    "trace.overhead_frac": ("frac", "lower"),
}

_TOTAL_TIMES = {
    "graph.build_s": "graph.build_weight_graph",
    "poisson.solve_s": "poisson.solve_iterative",
    "poisson.source_s": "poisson.build_source",
    "poisson.confidence_s": "poisson.extract_confidence_map",
    "scc.calibrate_s": "scc.spatial_consistency_calibrate",
    "scc.similarity_s": "scc.similarity_map",
    "scc.fuse_s": "scc.fuse_confidence",
    "prototype.local_pool_s": "prototype.local_prototype_pool",
    "prototype.label_s": "prototype.assign_prototype_labels",
    "prototype.global_pool_s": "prototype.masked_average_pool",
    "tensor.downsample_s": "tensor.downsample_mask",
    "tensorfile.load_s": "tensorfile.load_tensor",
    "tensorfile.save_s": "tensorfile.save_tensor",
}
_SELF_TIMES = {
    "episode.self_s": "episode.run_episode",
    "cli.self_s": "cli.main",
    "manifest.load_s": "manifest.load_episode_manifest",
}


def episode_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer values for one traced episode.

    Counts are computed here, after the episode's timing has ended, from
    the arguments and results each span kept.
    """
    values = {name: 0.0 for name in LAYER_METRICS if name != "trace.overhead_frac"}
    child_time: dict[int, float] = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    for metric, span_name in _TOTAL_TIMES.items():
        values[metric] = sum((s.duration for s in spans if s.name == span_name), 0.0)
    for metric, span_name in _SELF_TIMES.items():
        values[metric] = sum(
            (s.duration - child_time.get(s.id, 0.0) for s in spans if s.name == span_name), 0.0
        )
    for s in spans:
        if s.call is None:  # the call raised
            continue
        args, _, result = s.call
        if s.name == "graph.build_weight_graph":
            degree = np.diff(result.weights.indptr)
            values["graph.peak_mb"] = max(values["graph.peak_mb"], s.peak_bytes / 2**20)
            values["graph.dist_table_bytes"] += 8.0 * result.n**2
            values["graph.edges"] += result.weights.nnz / 2
            values["graph.degree_min"] = float(degree.min())
            values["graph.degree_max"] = float(degree.max())
            values["graph.components"] = float(
                connected_components(result.weights, directed=False)[0]
            )
        elif s.name == "poisson.solve_iterative":
            graph, source = args[0], args[1]
            residual = source.values.T - laplacian_apply(graph, result.scores)
            values["poisson.iterations"] += result.iterations
            values["poisson.converged_frac"] = float(result.converged)
            values["poisson.final_step"] = result.final_step
            values["poisson.residual_inf"] = float(np.abs(residual).max())
            values["poisson.spmv_flops"] += result.iterations * 2.0 * graph.weights.nnz * source.k
        elif s.name == "scc.spatial_consistency_calibrate":
            channels, height, width = args[0].data.shape
            c_out = result.data.shape[0]
            values["scc.peak_mb"] = max(values["scc.peak_mb"], s.peak_bytes / 2**20)
            values["scc.calibrate_ops"] += (height * width) ** 2 * (channels + c_out) * 2.0
        elif s.name == "prototype.local_prototype_pool":
            values["prototype.count"] += len(result)
        elif s.name == "tensorfile.load_tensor":
            values["tensorfile.bytes_read"] += os.path.getsize(args[0])
        elif s.name == "tensorfile.save_tensor":
            values["tensorfile.bytes_written"] += os.path.getsize(args[0])
    return values


def layer_metrics(per_episode: list[dict[str, float]], overhead_frac: float) -> dict[str, float]:
    """Median over traced episodes of each per-episode value."""
    out = {}
    for name in LAYER_METRICS:
        if name == "trace.overhead_frac":
            out[name] = overhead_frac
        elif name == "poisson.converged_frac":
            out[name] = statistics.fmean(v[name] for v in per_episode)
        else:
            out[name] = statistics.median(v[name] for v in per_episode)
    return out
