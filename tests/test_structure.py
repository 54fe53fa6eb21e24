import math
from dataclasses import replace

import numpy as np
import pytest

from oracles import elements, faces_of, standalone_of
from segmat.mat_graph import build_graph
from segmat.mesh_io import MedialMesh
from segmat.structure import (
    ComponentKind,
    JointKind,
    ZeroRadius,
    assign_base_nodes,
    detect_joints,
    split_components,
    thinness,
)


def medial(points, radii, edges=(), faces=()):
    spheres = [(*map(float, p), float(r)) for p, r in zip(points, radii)]
    return MedialMesh.build(spheres, list(edges), list(faces))


def y_shape():
    pts = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (0, 0, 2)]
    return medial(pts, [0.5] * 4, edges=[(0, 1), (0, 2), (0, 3)])


def disk():
    """Hexagon fan: every interior edge has exactly two faces."""
    pts = [(0, 0, 0)]
    for k in range(6):
        a = 2 * math.pi * k / 6
        pts.append((math.cos(a), math.sin(a), 0.0))
    faces = [(0, 1 + k, 1 + (k + 1) % 6) for k in range(6)]
    return medial(pts, [0.3] * 7, faces=faces)


def triangle_plus_edge():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (-1, -1, 0)]
    return medial(pts, [0.2] * 4, edges=[(0, 3)], faces=[(0, 1, 2)])


def three_fan():
    """Three triangles sharing one edge: a seam."""
    pts = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0), (-1, 0, 0)]
    faces = [(0, 1, 2), (0, 1, 3), (0, 1, 4)]
    return medial(pts, [0.2] * 5, faces=faces)


def bowtie():
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (-1, 0, 0), (-1, -1, 0)]
    return medial(pts, [0.2] * 5, faces=[(0, 1, 2), (0, 3, 4)])


def plate_with_tail():
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0),
           (2, 0, 0), (3, 0, 0)]
    return medial(pts, [0.4] * 6,
                  edges=[(1, 4), (4, 5)],
                  faces=[(0, 1, 2), (0, 2, 3)])


def test_y_shape_gives_one_seam_vertex():
    joints = detect_joints(y_shape())
    assert len(joints) == 1
    assert joints[0].kind is JointKind.SEAM_VERTEX
    assert joints[0].element == 0


def test_disk_has_no_joints():
    assert detect_joints(disk()) == []


def test_triangle_plus_edge_gives_edge_triangle_vertex():
    joints = detect_joints(triangle_plus_edge())
    assert len(joints) == 1
    assert joints[0].kind is JointKind.EDGE_TRIANGLE_VERTEX
    assert joints[0].element == 0


def test_three_triangle_fan_gives_one_seam_edge():
    joints = detect_joints(three_fan())
    assert len(joints) == 1
    assert joints[0].kind is JointKind.SEAM_EDGE
    assert joints[0].element == (0, 1)


def test_bowtie_gives_triangle_triangle_vertex():
    joints = detect_joints(bowtie())
    assert len(joints) == 1
    assert joints[0].kind is JointKind.TRIANGLE_TRIANGLE_VERTEX
    assert joints[0].element == 0


def brute_force_joints(mm):
    """Incidence-counter re-derivation of all four joint definitions."""
    edge_faces = {}
    for f in faces_of(mm):
        a, b, c = f
        for e in ((a, b), (b, c), (a, c)):
            edge_faces.setdefault(e, []).append(f)
    vertex_edges = {}
    for e in standalone_of(mm):
        for v in e:
            vertex_edges.setdefault(v, []).append(e)
    vertex_faces = {}
    for f in faces_of(mm):
        for v in f:
            vertex_faces.setdefault(v, []).append(f)

    seam_edges = {e for e, fs in edge_faces.items() if len(fs) >= 3}
    seam_vertices = {v for v, es in vertex_edges.items() if len(es) >= 3}
    et_vertices = {v for v in vertex_edges if v in vertex_faces}
    tt_vertices = set()
    for v, fs in vertex_faces.items():
        if len(fs) < 2:
            continue
        # umbrella components: faces linked iff they share an edge through v
        remaining = [tuple(f) for f in fs]
        groups = 0
        while remaining:
            groups += 1
            stack = [remaining.pop()]
            while stack:
                f = stack.pop()
                hooked = []
                for g in remaining:
                    shared = set(f) & set(g)
                    if v in shared and len(shared) >= 2:
                        hooked.append(g)
                for g in hooked:
                    remaining.remove(g)
                    stack.extend([g])
        if groups >= 2:
            tt_vertices.add(v)
    return seam_edges, seam_vertices, et_vertices, tt_vertices


def test_detected_joints_match_incidence_counter_on_random_complexes():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(4, 10))
        pts = rng.uniform(-1, 1, (n, 3))
        radii = rng.uniform(0.1, 0.5, n)
        faces = set()
        for _ in range(int(rng.integers(0, 5))):
            f = tuple(sorted(rng.choice(n, 3, replace=False)))
            faces.add(f)
        edges = set()
        for _ in range(int(rng.integers(0, 6))):
            e = tuple(sorted(rng.choice(n, 2, replace=False)))
            edges.add(e)
        mm = medial(pts, radii, edges=sorted(edges), faces=sorted(faces))
        if not len(mm.faces) and not len(mm.standalone):
            continue
        got = detect_joints(mm)
        se, sv, et, tt = brute_force_joints(mm)
        assert {j.element for j in got if j.kind is JointKind.SEAM_EDGE} == se
        assert {j.element for j in got if j.kind is JointKind.SEAM_VERTEX} == sv
        assert {j.element for j in got
                if j.kind is JointKind.EDGE_TRIANGLE_VERTEX} == et
        assert {j.element for j in got
                if j.kind is JointKind.TRIANGLE_TRIANGLE_VERTEX} == tt


def split(mm):
    return split_components(mm, detect_joints(mm))


def test_y_shape_splits_into_three_curves():
    comps = split(y_shape())
    assert len(comps) == 3
    assert all(c.kind is ComponentKind.CURVE for c in comps)
    assert all(len(c.elements) == 1 for c in comps)


def test_plate_with_tail_splits_into_sheet_and_curve():
    comps = split(plate_with_tail())
    kinds = [c.kind for c in comps]
    assert kinds == [ComponentKind.SHEET, ComponentKind.CURVE]
    assert len(comps[0].elements) == 2
    assert len(comps[1].elements) == 2  # the joint vertex is not a curve cut


def test_closed_loop_is_one_curve():
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0)]
    mm = medial(pts, [0.1] * 4, edges=[(0, 1), (1, 2), (2, 3), (0, 3)])
    comps = split(mm)
    assert len(comps) == 1
    assert comps[0].kind is ComponentKind.CURVE
    assert comps[0].extent == pytest.approx(4.0)


def test_seam_fan_splits_into_three_sheets():
    comps = split(three_fan())
    assert len(comps) == 3
    assert all(c.kind is ComponentKind.SHEET for c in comps)
    # components hold arrays, so they compare by identity
    assert comps[0] == comps[0] and comps[0] != comps[1]


def test_thinness_of_curve_and_sheet():
    pts = [(float(i), 0, 0) for i in range(11)]
    mm = medial(pts, [1.0] * 11, edges=[(i, i + 1) for i in range(10)])
    (curve,) = split(mm)
    assert curve.extent == pytest.approx(10.0)
    assert curve.max_radius == 1.0
    assert thinness(curve) == pytest.approx(10.0)

    # two right triangles with legs 3: total area 9
    pts = [(0, 0, 0), (3, 0, 0), (3, 3, 0), (0, 3, 0)]
    mm = medial(pts, [3.0, 1.0, 1.0, 1.0], faces=[(0, 1, 2), (0, 2, 3)])
    (sheet,) = split(mm)
    assert sheet.extent == pytest.approx(3.0)  # sqrt(9)
    assert thinness(sheet) == pytest.approx(1.0)


def test_zero_max_radius_raises():
    pts = [(0, 0, 0), (1, 0, 0)]
    mm = medial(pts, [0.0, 0.0], edges=[(0, 1)])
    (curve,) = split(mm)
    with pytest.raises(ZeroRadius):
        thinness(curve)


def test_thinness_is_scale_invariant():
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1, 1, (6, 3))
    radii = rng.uniform(0.2, 0.6, 6)
    edges = [(0, 1), (1, 2), (2, 3)]
    faces = [(3, 4, 5)]
    base = split(medial(pts, radii, edges=edges, faces=faces))
    scaled = split(medial(pts * 7.5, radii * 7.5, edges=edges, faces=faces))
    for c0, c1 in zip(base, scaled):
        assert thinness(c1) == pytest.approx(thinness(c0), rel=1e-12)


def test_node_on_a_curve_segment_is_assigned_to_it():
    mm = plate_with_tail()
    g = build_graph(mm)
    comps = split(mm)
    assign_base_nodes(g, comps)
    # node for edge (1,4) sits on the curve component
    tail_node = elements(g).index((1, 4))
    assert g.component_id[tail_node] == 1
    assert [1, 4] in comps[1].elements.tolist()
    assert tail_node in comps[1].nodes


def test_foreign_graph_raises():
    smat = medial([(0, 0, 0), (1, 0, 0), (4, 0, 0), (5, 0, 0)], [0.1] * 4,
                  edges=[(0, 1), (2, 3)])
    comps = split(smat)
    assert len(comps) == 2
    # Its one edge reuses the vertex ids (0, 1), so only the element count
    # tells it apart from the mesh the components came from.
    base = medial([(2, 0, 0), (3, 0, 0)], [0.1] * 2, edges=[(0, 1)])
    with pytest.raises(ValueError, match="2 elements"):
        assign_base_nodes(build_graph(base), comps)
    other = medial([(2, 0, 0), (3, 0, 0), (4, 0, 0)], [0.1] * 3,
                   edges=[(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="no component"):
        assign_base_nodes(build_graph(other), comps)


def test_components_whose_nodes_miss_their_elements_raise():
    # hand-built components: each element is held, but at another node
    mm = plate_with_tail()
    comps = split(mm)
    swapped = [replace(comps[0], nodes=comps[0].nodes[::-1]), comps[1]]
    with pytest.raises(ValueError, match="nodes do not match their elements"):
        assign_base_nodes(build_graph(mm), swapped)
    outside = [replace(comps[0], nodes=comps[0].nodes + 10), comps[1]]
    with pytest.raises(ValueError, match="node 10 is outside the graph's 4 nodes"):
        assign_base_nodes(build_graph(mm), outside)


def test_member_nodes_partition_all_nodes():
    mm = plate_with_tail()
    g = build_graph(mm)
    comps = split(mm)
    assign_base_nodes(g, comps)
    members = [np.flatnonzero(g.component_id == k) for k in range(len(comps))]
    assert sorted(np.concatenate(members).tolist()) == list(range(len(g)))
    assert all(len(m) == len(c.elements) for m, c in zip(members, comps))
