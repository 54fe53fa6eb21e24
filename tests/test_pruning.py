"""The k-d tree pruned searches against their full-scan oracles.

assign_base_nodes and data_table prune with the bound |p - c| - s; these
properties check that the labels and the cost tables they produce equal
the dense scans of tests/oracles.py exactly, ties included.
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import oracles
from segmat import geometry
from segmat.geometry import Sphere, _bounded_nearest
from segmat.growing import Region
from segmat.mat_graph import build_graph
from segmat.mesh_io import MedialMesh, SurfaceMesh
from segmat.structure import assign_base_nodes, detect_joints, split_components
from segmat.transfer import data_table


def grid_points(draw, count, span=6, step=0.5):
    """Distinct points on a coarse grid, so equal distances are common."""
    cells = draw(st.lists(
        st.tuples(*[st.integers(-span, span)] * 3),
        min_size=count, max_size=count, unique=True))
    return [tuple(step * v for v in cell) for cell in cells]


@st.composite
def medial_meshes(draw, min_spheres=3, max_spheres=9, mirror=False):
    """A random medial mesh of curves and sheets on grid coordinates.

    With mirror every element gets a copy reflected in the plane x = 0,
    which puts each point of that plane at exactly equal distances from an
    element and its image.
    """
    n = draw(st.integers(min_spheres, max_spheres))
    pts = grid_points(draw, n)
    radii = draw(st.lists(st.sampled_from([0.25, 0.5, 2.0]),
                          min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    faces = draw(st.lists(st.tuples(index, index, index).filter(
        lambda f: len(set(f)) == 3), max_size=4))
    edges = draw(st.lists(st.tuples(index, index).filter(
        lambda e: e[0] != e[1]), min_size=0 if faces else 1, max_size=5))
    if mirror:
        pts = pts + [(-x, y, z) for x, y, z in pts]
        radii = radii + radii
        faces = faces + [tuple(v + n for v in f) for f in faces]
        edges = edges + [tuple(v + n for v in e) for e in edges]
    spheres = [Sphere(p, r) for p, r in zip(pts, radii)]
    return MedialMesh.build(spheres, edges, faces)


def components(smat):
    return split_components(smat, detect_joints(smat))


def assert_matches_oracle(graph, comps):
    expected = oracles.nearest_components(graph, comps)
    assign_base_nodes(graph, comps)
    assert np.array_equal(graph.component_id, expected)
    for k, comp in enumerate(comps):
        assert comp.member_nodes == np.flatnonzero(expected == k).tolist()


@given(medial_meshes(), medial_meshes(min_spheres=2, max_spheres=12))
def test_foreign_base_nodes_match_the_full_scan(smat, base):
    comps = components(smat)
    if comps:
        assert_matches_oracle(build_graph(base), comps)


@given(medial_meshes(mirror=True), st.data())
def test_equidistant_base_nodes_match_the_full_scan(smat, data):
    comps = components(smat)
    if not comps:
        return
    # Base elements in the mirror plane are equidistant from an element and
    # its reflection, so their nodes land on exact ties.
    pts = [(0.0, y, z) for _, y, z in grid_points(data.draw, 4)]
    base = MedialMesh.build([Sphere(p, 0.1) for p in pts],
                            [(0, 1), (1, 2), (2, 3)], [(0, 1, 3)])
    assert_matches_oracle(build_graph(base), comps)


@given(medial_meshes(min_spheres=6, max_spheres=14))
def test_own_nodes_match_the_full_scan(smat):
    comps = components(smat)
    if comps:
        assert_matches_oracle(build_graph(smat), comps)


def random_surface(rng, centers, faces):
    """Triangles scattered around the spheres; some centroids fall inside."""
    jitter = rng.choice([0.0, 0.3, 3.0], size=(3 * faces, 1))
    vertices = (centers[rng.integers(len(centers), size=3 * faces)]
                + jitter * rng.normal(size=(3 * faces, 3)))
    return SurfaceMesh(vertices, np.arange(3 * faces).reshape(-1, 3))


@given(medial_meshes(min_spheres=2, max_spheres=14), st.integers(0, 2**32 - 1),
       st.integers(1, 60))
def test_data_table_matches_the_full_scan(mat, seed, faces):
    graph = build_graph(mat)
    rng = np.random.default_rng(seed)
    mesh = random_surface(rng, mat.centers(), faces)
    owner = rng.integers(0, 3, size=len(graph))
    regions = [Region(k, np.flatnonzero(owner == k).tolist(), 0, 0)
               for k in range(3) if (owner == k).any()]
    assert np.array_equal(data_table(mesh, graph, regions),
                          oracles.data_table(mesh, graph, regions))


def chain(radii, spacing=1.0):
    spheres = [Sphere((spacing * i, 0.0, 0.0), r) for i, r in enumerate(radii)]
    return MedialMesh.build(spheres, [(i, i + 1) for i in range(len(radii) - 1)],
                            [])


class CountingTree(geometry.cKDTree):
    balls = 0

    def query_ball_point(self, *args, **kwargs):
        CountingTree.balls += 1
        return super().query_ball_point(*args, **kwargs)


def test_mixed_radii_take_the_ball_query_and_match(monkeypatch):
    monkeypatch.setattr(geometry, "cKDTree", CountingTree)
    CountingTree.balls = 0
    # A thick sphere behind thin ones: the eight nearest centers cannot
    # rule it out, so the ball query must find it.
    radii = [0.2] * 30 + [6.0] + [0.2] * 30
    mat = chain(radii, spacing=0.5)
    graph = build_graph(mat)
    rng = np.random.default_rng(3)
    mesh = random_surface(rng, mat.centers(), 80)
    regions = [Region(0, list(range(len(graph))), 0, 0)]
    table = data_table(mesh, graph, regions)
    assert CountingTree.balls > 0
    assert np.array_equal(table, oracles.data_table(mesh, graph, regions))


def test_regions_smaller_than_k_and_inside_spheres_match():
    mat = chain([1.0, 3.0, 0.5, 2.0], spacing=10.0)
    graph = build_graph(mat)
    centers = mat.centers()
    # Faces centered on the sphere centers cost 0 for the regions holding them.
    vertices = np.concatenate([centers + offset for offset in
                               ((0.1, 0, 0), (0, 0.1, 0), (0, 0, 0.1))])
    faces = np.arange(len(vertices)).reshape(3, -1).T
    mesh = SurfaceMesh(vertices, faces)
    regions = [Region(0, [0], 0, 0), Region(1, [1, 2], 1, 0)]
    table = data_table(mesh, graph, regions)
    assert np.array_equal(table, oracles.data_table(mesh, graph, regions))
    assert table[0, 0] == 0.0 and table[3, 1] == 0.0
    assert (table > 0.0).any()


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40))
def test_bounded_nearest_is_the_lowest_score_with_lowest_index(seed, n, m):
    rng = np.random.default_rng(seed)
    # Half-integer coordinates and a few radii make exact ties frequent.
    points = rng.integers(-4, 5, size=(n, 3)) / 2.0
    centers = rng.integers(-4, 5, size=(m, 3)) / 2.0
    radii = rng.choice([0.0, 0.5, 1.0, 4.0], size=m)

    def gap(rows, items):
        return np.linalg.norm(points[rows] - centers[items], axis=1) - radii[items]

    best, index = _bounded_nearest(points, centers, radii, gap, shift=radii)
    dense = (np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
             - radii[None, :])
    assert np.array_equal(best, dense.min(axis=1))
    assert np.array_equal(index, dense.argmin(axis=1))
