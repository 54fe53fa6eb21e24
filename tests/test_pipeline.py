"""End-to-end pipeline tests on synthetic medial meshes and grid surfaces."""

import re

import numpy as np
import pytest

from segmat.mesh_io import MedialMesh, SurfaceMesh
from segmat.pipeline import (
    PipelineConfig,
    boundary_length,
    run_pipeline,
)
from segmat.transfer import data_table


def grid_mesh(x0, x1, y0, y1, step=1.0):
    """Flat triangulated rectangle in the z = 0 plane."""
    xs = np.arange(x0, x1 + step / 2, step)
    ys = np.arange(y0, y1 + step / 2, step)
    nx = len(xs)
    verts = [(x, y, 0.0) for y in ys for x in xs]
    faces = []
    for r in range(len(ys) - 1):
        for c in range(nx - 1):
            a = r * nx + c
            faces.append((a, a + 1, a + nx + 1))
            faces.append((a, a + nx + 1, a + nx))
    return SurfaceMesh(np.array(verts, dtype=float), np.array(faces, dtype=int))


def bent_l_mat():
    """Thin L-shaped arm, a 1:4 radius jump, then a thick arm with spikes.

    The bend splits growth inside one structural component, the jump splits
    parts, the two stub branches sit inside thick spheres (swallow fodder),
    and the two halves of the L have identical radius histograms (merge
    fodder).
    """
    spheres = []
    edges = []

    def add(center, radius):
        spheres.append((*center, radius))
        return len(spheres) - 1

    prev = add((0.0, 0.0, 0.0), 1.0)
    for x in range(1, 8):
        cur = add((float(x), 0.0, 0.0), 1.0)
        edges.append((prev, cur))
        prev = cur
    for y in range(1, 8):
        cur = add((7.0, float(y), 0.0), 1.0)
        edges.append((prev, cur))
        prev = cur
    thick = []
    for k in range(9):
        cur = add((7.0, 12.0 + 4.0 * k, 0.0), 4.0)
        edges.append((prev, cur))
        thick.append(cur)
        prev = cur
    s1 = add((10.8, 16.0, 0.0), 0.4)
    edges.append((thick[1], s1))
    s2 = add((3.2, 40.0, 0.0), 0.4)
    edges.append((thick[7], s2))
    return MedialMesh.build(spheres, edges, [])


def l_mesh():
    return grid_mesh(-2.0, 10.0, -2.0, 46.0)


def uniform_chain_mat(count=12):
    spheres = [(float(i), 0.0, 0.0, 1.0) for i in range(count)]
    edges = [(i, i + 1) for i in range(count - 1)]
    return MedialMesh.build(spheres, edges, [])


def scaled_medial(mm, s):
    return MedialMesh.build(s * mm.spheres, mm.edges, mm.faces)


def test_uniform_chain_gives_one_region_and_one_label():
    mesh = grid_mesh(-2.0, 13.0, -2.0, 2.0)
    res = run_pipeline(mesh, None, structured=uniform_chain_mat())
    assert len(res.regions) == 1
    assert len(res.labels) == len(mesh.faces)
    assert len(np.unique(res.labels)) == 1
    assert (res.node_labels >= 0).all()


def test_l_fixture_full_config_yields_two_parts():
    res = run_pipeline(l_mesh(), None, structured=bent_l_mat())
    assert len(res.regions) == 2
    assert set(np.unique(res.labels)) == {r.id for r in res.regions}
    # Every node ends up claimed by one of the surviving regions.
    claimed = sorted(v for r in res.regions for v in r.nodes)
    assert claimed == list(range(len(res.graph)))


def test_disabling_swallowing_strictly_increases_region_count():
    mesh, mat = l_mesh(), bent_l_mat()
    full = run_pipeline(mesh, None, structured=mat)
    bare = run_pipeline(mesh, None, structured=mat,
                        config=PipelineConfig(swallowing=False))
    assert "swallowing" in bare.skipped
    assert len(bare.regions) > len(full.regions)


def test_disabling_merging_strictly_increases_region_count():
    mesh, mat = l_mesh(), bent_l_mat()
    full = run_pipeline(mesh, None, structured=mat)
    split = run_pipeline(mesh, None, structured=mat,
                         config=PipelineConfig(merging=False))
    assert "merging" in split.skipped
    assert len(split.regions) > len(full.regions)


def test_disabling_graphcut_strictly_increases_boundary_length():
    mesh, mat = l_mesh(), bent_l_mat()
    full = run_pipeline(mesh, None, structured=mat)
    rough = run_pipeline(mesh, None, structured=mat,
                         config=PipelineConfig(graphcut=False))
    assert "graphcut" in rough.skipped
    smooth_len = boundary_length(mesh, full.labels)
    rough_len = boundary_length(mesh, rough.labels)
    assert 0.0 < smooth_len < rough_len


def test_graphcut_off_equals_cheapest_region_per_face():
    mesh, mat = l_mesh(), bent_l_mat()
    res = run_pipeline(mesh, None, structured=mat,
                       config=PipelineConfig(graphcut=False))
    costs = data_table(mesh, res.graph, res.regions)
    ids = np.array([r.id for r in res.regions])
    assert np.array_equal(res.labels, ids[np.argmin(costs, axis=1)])


def test_pipeline_is_deterministic():
    mesh, mat = l_mesh(), bent_l_mat()
    a = run_pipeline(mesh, None, structured=mat)
    b = run_pipeline(l_mesh(), None, structured=bent_l_mat())
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.node_labels, b.node_labels)
    assert [r.nodes for r in a.regions] == [r.nodes for r in b.regions]


def test_pipeline_is_scale_invariant():
    mesh, mat = l_mesh(), bent_l_mat()
    big_mesh = SurfaceMesh(10.0 * mesh.vertices, mesh.faces)
    a = run_pipeline(mesh, None, structured=mat)
    b = run_pipeline(big_mesh, None, structured=scaled_medial(mat, 10.0))
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.node_labels, b.node_labels)


def test_simplify_stage_runs_when_no_structured_mat_is_given():
    # A dense chain collapses to a short one before decomposition.
    mesh = grid_mesh(-2.0, 13.0, -2.0, 2.0)
    spheres = [(0.1 * i, 0.0, 0.0, 1.0) for i in range(111)]
    edges = [(i, i + 1) for i in range(110)]
    raw = MedialMesh.build(spheres, edges, [])
    res = run_pipeline(mesh, raw)
    assert "simplify" in res.timings
    assert "simplify" not in res.skipped
    assert len(res.structured.spheres) < len(raw.spheres)
    assert len(res.regions) >= 1
    assert len(res.labels) == len(mesh.faces)


def test_structured_input_skips_simplify():
    res = run_pipeline(grid_mesh(-2.0, 13.0, -2.0, 2.0), None,
                       structured=uniform_chain_mat())
    assert "simplify" in res.skipped
    assert "simplify" not in res.timings


def test_timings_cover_every_stage_that_ran():
    res = run_pipeline(l_mesh(), None, structured=bent_l_mat())
    assert set(res.timings) == {"graph", "decompose", "grow", "merge",
                                "transfer"}
    assert all(t >= 0.0 for t in res.timings.values())
    bare = run_pipeline(l_mesh(), None, structured=bent_l_mat(),
                        config=PipelineConfig(merging=False))
    assert "merge" not in bare.timings


def test_skipped_stages_are_reported_together():
    cfg = PipelineConfig(swallowing=False, merging=False, graphcut=False)
    res = run_pipeline(l_mesh(), None, structured=bent_l_mat(), config=cfg)
    assert set(res.skipped) == {"simplify", "swallowing", "merging",
                                "graphcut"}


def test_boundary_length_hand_oracle():
    # Two unit quads side by side: the single crossing edge has length 1.
    mesh = grid_mesh(0.0, 2.0, 0.0, 1.0)
    assert boundary_length(mesh, [0, 0, 1, 1]) == pytest.approx(1.0)
    assert boundary_length(mesh, [0, 0, 0, 0]) == 0.0
    # Alternating labels cross both quad diagonals and the shared vertical
    # edge: 2 * sqrt(2) + 1.
    assert boundary_length(mesh, [0, 1, 0, 1]) == pytest.approx(
        2.0 * np.sqrt(2.0) + 1.0)


def test_boundary_length_empty_mesh_edge_cases():
    lonely = SurfaceMesh(np.array([[0.0, 0.0, 0.0],
                                   [1.0, 0.0, 0.0],
                                   [0.0, 1.0, 0.0]]),
                         np.array([[0, 1, 2]]))
    assert boundary_length(lonely, [0]) == 0.0


@pytest.mark.parametrize("count", [7, 1])
def test_boundary_length_needs_one_label_per_face(count):
    mesh = grid_mesh(0.0, 2.0, 0.0, 1.0)
    with pytest.raises(ValueError, match=re.escape(
            f"4 faces need as many labels, got labels of shape ({count},)")):
        boundary_length(mesh, [0] * count)
