"""Spans and counts around the package's public functions, for one traced op.

A Tracer replaces functions at the names their callers look them up (for
example ``segmat.pipeline.simplify``, not ``segmat.mat_simplify.simplify``)
with wrappers that record a span (name, start, end, parent) and counts, all
kept in memory.  ``restore`` puts every original back.  The package itself
is not edited; all timing and counting happens in these wrappers.

A layer's self time is its span's duration minus its child spans, so the
self times of one op add up to the op's traced wall time.
"""

from __future__ import annotations

import functools
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

MB = 1024.0 * 1024.0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []       # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.peaks_mb: dict[str, float] = {}
        self.missing: list[str] = []      # names that could not be wrapped
        self._open: list[int] = []
        self._saved: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._open.pop()

    def wrap(self, owner, attr: str, name: str, *, span: bool = True,
             peak: bool = False, prepare=None, record=None) -> None:
        """Replace owner.attr with a recording wrapper.

        prepare(args, kwargs) runs before the span and may add keyword
        arguments; its return value reaches record(result, args, state),
        which runs after the span ends, so neither is timed.  With peak the
        call's peak traced allocation is kept under name.
        """
        original = vars(owner).get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = prepare(args, kwargs) if prepare else None
            tracer.counts[name + ".calls"] += 1
            if span:
                with tracer.span(name):
                    result = tracer._call(name, peak, original, args, kwargs)
            else:
                result = tracer._call(name, peak, original, args, kwargs)
            if record:
                record(result, args, state)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _call(self, name, peak, fn, args, kwargs):
        if not peak or tracemalloc.is_tracing():
            return fn(*args, **kwargs)
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak_bytes = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            self.peaks_mb[name] = max(self.peaks_mb.get(name, 0.0),
                                      peak_bytes / MB)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self) -> Counter:
        """Seconds per span name, children's time excluded."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        out: Counter = Counter()
        for (name, start, end, _), inner in zip(self.spans, children):
            out[name] += (end - start) - inner
        return out

    def inclusive_times(self) -> Counter:
        out: Counter = Counter()
        for name, start, end, _ in self.spans:
            out[name] += end - start
        return out


def _inject_trace(args, kwargs, position):
    """The list the function's own ``trace=`` hook fills; a fresh one unless
    the caller passed its own."""
    if len(args) > position:
        return args[position]
    if kwargs.get("trace") is None:
        kwargs["trace"] = []
    return kwargs["trace"]


def instrument(tracer: Tracer) -> None:
    """Wrap the layers one ``segmat segment`` op passes through."""
    from segmat import cli, growing, merging, pipeline, transfer
    from segmat.mesh_io import SurfaceMesh

    counts = tracer.counts

    def elements(mm):
        return len(mm.spheres) + len(mm.edges) + len(mm.faces)

    def simplify_record(result, args, trace):
        counts["mat_simplify.elements_in"] += elements(args[0])
        counts["mat_simplify.elements_out"] += elements(result)
        counts["mat_simplify.collapses_accepted"] += len(trace or ())

    def graph_record(graph, args, state):
        counts["mat_graph.nodes"] += len(graph)
        counts["mat_graph.adjacency"] += sum(map(len, graph.adjacency)) // 2

    def joints_record(joints, args, state):
        counts["structure.joints"] += len(joints)

    def components_record(comps, args, state):
        for comp in comps:
            counts[f"structure.components_{comp.kind.value}"] += 1

    def assign_record(result, args, state):
        graph, comps = args[0], args[1]
        counts["structure.distance_pairs"] += len(graph) * sum(
            len(comp.elements) for comp in comps)

    def grow_record(regions, args, state):
        counts["growing.regions"] += len(regions)

    def swallow_prepare(args, kwargs):
        counts["growing.swallow_candidates"] += len(args[2])
        return len(args[1].nodes)

    def swallow_record(region, args, before):
        counts["growing.swallowed_nodes"] += len(region.nodes) - before

    def merge_record(regions, args, state):
        counts["merging.merges"] += len(args[1]) - len(regions)

    def data_record(table, args, state):
        mesh, graph, regions = args[0], args[1], args[2]
        spheres = sum(len(graph.sphere_arrays(r.nodes)[1]) for r in regions)
        counts["transfer.data_pairs"] += len(mesh.faces) * spheres

    def flow_record(result, args, state):
        counts["transfer.cut_arcs"] += int(args[0].nnz)

    def moves_record(labels, args, trace):
        counts["transfer.moves_accepted"] += len(trace or ())

    wrap = tracer.wrap
    wrap(cli, "load_surface", "mesh_io.load_surface")
    wrap(cli, "load_medial_mesh", "mesh_io.load_medial_mesh")
    wrap(cli, "save_labels", "mesh_io.save_labels")
    wrap(cli, "save_colored_mesh", "mesh_io.save_colored_mesh")
    wrap(cli, "resolve_params", "cli.resolve_params")
    wrap(cli, "_write_json", "cli.write_report")
    wrap(cli, "boundary_length", "pipeline.boundary_length")
    wrap(cli, "run_pipeline", "pipeline.run_pipeline")
    wrap(pipeline, "simplify", "mat_simplify.simplify",
         prepare=lambda a, k: _inject_trace(a, k, 2), record=simplify_record)
    wrap(pipeline, "build_graph", "mat_graph.build_graph", record=graph_record)
    wrap(pipeline, "detect_joints", "structure.detect_joints",
         record=joints_record)
    wrap(pipeline, "split_components", "structure.split_components",
         record=components_record)
    wrap(pipeline, "assign_base_nodes", "structure.assign_base_nodes",
         peak=True, record=assign_record)
    wrap(pipeline, "grow", "growing.grow", record=grow_record)
    wrap(growing, "swallow", "growing.swallow",
         prepare=swallow_prepare, record=swallow_record)
    wrap(pipeline, "merge_matching", "merging.merge_matching",
         record=merge_record)
    wrap(merging, "emd_1d", "merging.emd_1d", span=False)
    wrap(pipeline, "transfer_labels", "transfer.transfer_labels", span=False,
         prepare=lambda a, k: _inject_trace(a, k, 4), record=moves_record)
    wrap(transfer, "data_table", "transfer.data_table", peak=True,
         record=data_record)
    wrap(transfer, "optimize_labels", "transfer.optimize_labels")
    wrap(transfer, "maximum_flow", "transfer.maximum_flow", record=flow_record)
    wrap(transfer, "labeling_energy", "transfer.labeling_energy", span=False)
    wrap(transfer, "exterior_dihedrals", "transfer.exterior_dihedrals",
         span=False)
    wrap(SurfaceMesh, "dual_edges", "mesh_io.dual_edges", span=False)


# Per-layer metric -> (unit, source).  A source is a span name (its self
# time), "peak:<span>", "count:<key>", or a tuple of span names to sum.
LAYER_METRICS = {
    "mesh_io.load_surface_s": ("s", "mesh_io.load_surface"),
    "mesh_io.load_medial_mesh_s": ("s", "mesh_io.load_medial_mesh"),
    "mesh_io.save_s": ("s", ("mesh_io.save_labels",
                             "mesh_io.save_colored_mesh")),
    "mat_simplify.simplify_s": ("s", "mat_simplify.simplify"),
    "mat_simplify.elements_in": ("count", "count:mat_simplify.elements_in"),
    "mat_simplify.elements_out": ("count", "count:mat_simplify.elements_out"),
    "mat_simplify.collapses_accepted": (
        "count", "count:mat_simplify.collapses_accepted"),
    "mat_graph.build_graph_s": ("s", "mat_graph.build_graph"),
    "mat_graph.nodes": ("count", "count:mat_graph.nodes"),
    "mat_graph.adjacency": ("count", "count:mat_graph.adjacency"),
    "structure.detect_joints_s": ("s", "structure.detect_joints"),
    "structure.split_components_s": ("s", "structure.split_components"),
    "structure.assign_base_nodes_s": ("s", "structure.assign_base_nodes"),
    "structure.assign_base_nodes_peak_mb": (
        "MB", "peak:structure.assign_base_nodes"),
    "structure.distance_pairs": ("count", "count:structure.distance_pairs"),
    "structure.joints": ("count", "count:structure.joints"),
    "structure.components_curve": (
        "count", "count:structure.components_curve"),
    "structure.components_sheet": (
        "count", "count:structure.components_sheet"),
    "growing.grow_s": ("s", "growing.grow"),
    "growing.swallow_s": ("s", "growing.swallow"),
    "growing.swallow_calls": ("count", "count:growing.swallow.calls"),
    "growing.swallow_candidates": (
        "count", "count:growing.swallow_candidates"),
    "growing.swallowed_nodes": ("count", "count:growing.swallowed_nodes"),
    "growing.regions": ("count", "count:growing.regions"),
    "merging.merge_matching_s": ("s", "merging.merge_matching"),
    "merging.emd_evals": ("count", "count:merging.emd_1d.calls"),
    "merging.merges": ("count", "count:merging.merges"),
    "transfer.data_table_s": ("s", "transfer.data_table"),
    "transfer.data_pairs": ("count", "count:transfer.data_pairs"),
    "transfer.data_table_peak_mb": ("MB", "peak:transfer.data_table"),
    "transfer.optimize_labels_s": ("s", "transfer.optimize_labels"),
    "transfer.maxflow_s": ("s", "transfer.maximum_flow"),
    "transfer.cuts": ("count", "count:transfer.maximum_flow.calls"),
    "transfer.cut_arcs": ("count", "count:transfer.cut_arcs"),
    "transfer.energy_evals": (
        "count", "count:transfer.labeling_energy.calls"),
    "transfer.moves_accepted": ("count", "count:transfer.moves_accepted"),
    "transfer.exterior_dihedrals_calls": (
        "count", "count:transfer.exterior_dihedrals.calls"),
    "transfer.dual_edges_calls": ("count", "count:mesh_io.dual_edges.calls"),
    "pipeline.self_s": ("s", "pipeline.run_pipeline"),
    "pipeline.boundary_length_s": ("s", "pipeline.boundary_length"),
    "cli.config_s": ("s", "cli.resolve_params"),
    "cli.report_s": ("s", "cli.write_report"),
    "cli.self_s": ("s", "cli.main"),
}


def layer_metrics(tracer: Tracer) -> dict[str, dict]:
    """Every LAYER_METRICS entry as {"value", "unit"}; absent layers read 0."""
    self_s = tracer.self_times()
    out = {}
    for metric, (unit, source) in LAYER_METRICS.items():
        if isinstance(source, tuple):
            value = sum(self_s[name] for name in source)
        elif source.startswith("count:"):
            value = int(tracer.counts[source[len("count:"):]])
        elif source.startswith("peak:"):
            value = tracer.peaks_mb.get(source[len("peak:"):], 0.0)
        else:
            value = self_s[source]
        out[metric] = {"value": value, "unit": unit}
    return out
