"""The benchmark tracer must find and count what the package calls.

perfbench/tracer.py replaces public functions at the names their callers
look them up, and some of its counters read the wrapped call's arguments.
A rename, a deletion or a changed call site in the package would otherwise
fail only the benchmark's own tests, which this suite does not collect.
"""

import importlib.util
from pathlib import Path

import numpy as np
from test_benchmark_labels import segment
from test_cli import bent_l_assets, chain_mat
from test_pipeline import bent_l_mat
from test_simplify import chain, plate
from test_transfer import octahedron

from segmat import cli, growing, pipeline, transfer
from segmat.mat_graph import build_graph
from segmat.mat_simplify import SimplifyParams, simplify
from segmat.mesh_io import MedialMesh
from segmat.structure import assign_base_nodes, detect_joints, split_components
from segmat.transfer import TransferParams

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    saved = list(tracer._saved)
    try:
        assert tracer.missing == []
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original
               for owner, attr, original in saved)


def test_swallow_counters_match_what_grow_passes(monkeypatch):
    mat = bent_l_mat()
    graph = build_graph(mat)
    comps = split_components(mat, detect_joints(mat))
    assign_base_nodes(graph, comps)
    calls = []
    original = growing.swallow

    def spy(g, region, unclaimed):
        before = len(region.nodes)
        result = original(g, region, unclaimed)
        calls.append((len(unclaimed), len(result.nodes) - before))
        return result

    monkeypatch.setattr(growing, "swallow", spy)
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        growing.grow(graph, comps)
    finally:
        tracer.restore()
    assert growing.swallow is spy
    assert sum(absorbed for _, absorbed in calls) > 0
    counts = tracer.counts
    assert counts["growing.swallow.calls"] == len(calls)
    assert counts["growing.swallow_candidates"] == sum(n for n, _ in calls)
    assert counts["growing.swallowed_nodes"] == sum(a for _, a in calls)


def test_graph_counters_read_the_node_table():
    mat = bent_l_mat()
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        graph = pipeline.build_graph(mat)
    finally:
        tracer.restore()
    pairs = {(min(i, j), max(i, j))
             for i, row in enumerate(graph.adjacency) for j in row}
    assert len(pairs) > 0
    assert tracer.counts["mat_graph.nodes"] == len(graph) == graph.incidence.shape[0]
    assert tracer.counts["mat_graph.adjacency"] == len(pairs)


def test_structure_counters_read_the_component_rows():
    mat = bent_l_mat()
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        graph = pipeline.build_graph(mat)
        comps = pipeline.split_components(mat, pipeline.detect_joints(mat))
        pipeline.assign_base_nodes(graph, comps)
    finally:
        tracer.restore()
    widths = [comp.elements.shape[1] for comp in comps]
    rows = sum(comp.elements.shape[0] for comp in comps)
    counts = tracer.counts
    # 25 standalone edges, cut at the roots of the two stubs into 5 curves
    assert counts["structure.distance_pairs"] == graph.incidence.shape[0] * rows == 625
    assert counts["structure.components_sheet"] == widths.count(3) == 0
    assert counts["structure.components_curve"] == widths.count(2) == 5


def test_collapse_count_is_the_length_of_the_simplify_trace():
    mat = chain_mat(count=111, spacing=0.1)
    params = SimplifyParams()
    trace = []
    simplify(mat, params, trace)
    assert trace
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        pipeline.simplify(mat, params)
    finally:
        tracer.restore()
    assert tracer.counts["mat_simplify.collapses_accepted"] == len(trace)


def test_element_counters_read_the_sphere_edge_and_face_rows():
    # a 6 x 6 plate with a 12-sphere tail hung off its corner (5)
    sheet, tail = plate(), chain([0.3] * 12, spacing=0.5)
    mat = MedialMesh.build(
        np.concatenate([sheet.spheres, tail.spheres + (5.5, 0.0, 0.0, 0.0)]),
        np.concatenate([sheet.edges, tail.edges + 36, [(5, 36)]]), sheet.faces)
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        out = pipeline.simplify(mat, SimplifyParams(target_error=0.1))
    finally:
        tracer.restore()
    sizes = [(len(m.spheres), len(m.edges), len(m.faces)) for m in (mat, out)]
    # 48 spheres, 85 plate edges + 12 tail edges, 50 triangles
    assert sizes[0] == (48, 97, 50)
    assert all(len(m.faces) > 0 and len(m.standalone) > 0 for m in (mat, out))
    assert tracer.counts["mat_simplify.elements_in"] == sum(sizes[0]) == 195
    assert tracer.counts["mat_simplify.elements_out"] == sum(sizes[1])
    assert sum(sizes[1]) < sum(sizes[0])


def test_cut_counters_read_one_graph_per_move_with_a_positive_arc(
        monkeypatch):
    # transfer.cuts counts maximum_flow calls and transfer.cut_arcs the
    # entries of the graph each one gets: one call per expansion move that
    # has a positive arc, on a graph with one entry per positive arc
    positive, entries = [], []
    min_cut_side, maximum_flow = transfer._min_cut_side, transfer.maximum_flow

    def arcs_spy(num_nodes, source, sink, tails, heads, caps):
        positive.append(int((np.asarray(caps) > 0.0).sum()))
        return min_cut_side(num_nodes, source, sink, tails, heads, caps)

    def flow_spy(graph, source, sink):
        entries.append(graph.nnz)
        return maximum_flow(graph, source, sink)

    monkeypatch.setattr(transfer, "_min_cut_side", arcs_spy)
    monkeypatch.setattr(transfer, "maximum_flow", flow_spy)
    mesh = octahedron()
    costs = np.random.default_rng(13).uniform(size=(8, 4))
    # in the second run label 3 ties every face's cheapest cost, so with
    # omega 0 its move has no positive arc and makes no cut
    tied = costs.copy()
    tied[:, 3] = costs[:, :3].min(axis=1)
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        labels = [transfer.optimize_labels(mesh, table, TransferParams(omega))
                  for table, omega in ((costs, 0.2), (tied, 0.0))]
    finally:
        tracer.restore()
    assert transfer.maximum_flow is flow_spy
    assert all(len(set(run.tolist())) > 1 for run in labels)
    assert 0 in positive and len(entries) > 1
    assert entries == [k for k in positive if k > 0]
    assert tracer.counts["transfer.maximum_flow.calls"] == len(entries)
    assert tracer.counts["transfer.cut_arcs"] == sum(entries)


def test_traced_banded_op_solves_the_recorded_cuts(tmp_path, capsys,
                                                   monkeypatch):
    # banded-chain seed 0 makes 64 expansion moves that each cut a graph,
    # 3,104,500 arcs in all, and accepts 19 of them; a change to how the
    # moves are built must solve the same graphs
    monkeypatch.delenv("SEGMAT_CONFIG", raising=False)
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        segment(tmp_path, capsys, "banded-chain", 0)
    finally:
        tracer.restore()
    metrics = tracing.layer_metrics(tracer)
    counts = {name: metrics[f"transfer.{name}"]["value"]
              for name in ("cuts", "cut_arcs", "moves_accepted")}
    assert counts == {"cuts": 64, "cut_arcs": 3104500, "moves_accepted": 19}


def test_one_traced_segment_op_fills_every_layer_metric(tmp_path, monkeypatch):
    monkeypatch.delenv("SEGMAT_CONFIG", raising=False)
    mesh_path, mat_path = bent_l_assets(tmp_path)
    tracing = load_tracer()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        with tracer.span("cli.main"):
            code = cli.main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                             "--out", str(tmp_path / "run")])
    finally:
        tracer.restore()
    assert code == 0
    metrics = tracing.layer_metrics(tracer)
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["transfer.data_pairs"]["value"] > 0


def test_one_segment_op_reads_and_writes_each_file_once(tmp_path, monkeypatch):
    # the tracer's mesh_io.*_s metrics time these calls, one each per op,
    # and one medial mesh load per distinct path
    monkeypatch.delenv("SEGMAT_CONFIG", raising=False)
    mesh_path, mat_path = bent_l_assets(tmp_path)
    other = tmp_path / "other.ma"
    other.write_bytes(Path(mat_path).read_bytes())
    for structured, loads in ((mat_path, 1), (str(other), 2)):
        tracing = load_tracer()
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            with tracer.span("cli.main"):
                code = cli.main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                                 "--structured", structured,
                                 "--out", str(tmp_path / "run")])
        finally:
            tracer.restore()
        assert code == 0
        calls = {name: tracer.counts.get(f"mesh_io.{name}.calls") for name in (
            "load_surface", "load_medial_mesh", "save_labels", "save_colored_mesh")}
        assert calls == {"load_surface": 1, "load_medial_mesh": loads,
                         "save_labels": 1, "save_colored_mesh": 1}
