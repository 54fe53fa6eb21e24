"""Node-to-component lookup and the pruned sphere searches.

assign_base_nodes gives every node the component holding its own element.
data_table prunes its faces x spheres scan with a k-d tree, and swallow
tests only the sphere pairs a ball query finds; these properties check
that both equal the dense scans of tests/oracles.py exactly.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from segmat import geometry
from segmat.geometry import _sphere_gaps
from segmat.growing import Region, swallow
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
    spheres = [(*p, r) for p, r in zip(pts, radii)]
    return MedialMesh.build(spheres, edges, faces)


def components(smat):
    return split_components(smat, detect_joints(smat))


@given(medial_meshes(min_spheres=6, max_spheres=14))
def test_own_nodes_take_their_elements_component(smat):
    comps = components(smat)
    if not comps:
        return
    graph = build_graph(smat)
    assign_base_nodes(graph, comps)
    for element, k in zip(oracles.elements(graph), graph.component_id):
        assert list(element) in comps[k].elements.tolist()
    assert sorted(set(graph.component_id)) == list(range(len(comps)))


# Nodes whose centroids lie at distance 0 from an element of a lower
# component: the edge (3, 4) has its midpoint on the sheet (3, 6, 7), and
# the edge (0, 2) has its midpoint on the sheet edge (0, 3) because spheres
# 2 and 3 coincide.  Each node keeps its own element's component.
ZERO_DISTANCE_TIES = [
    (MedialMesh.build(
        [(*c, r) for c, r in zip(
            [(0.5, 1.5, 0.5), (-1.5, -1.5, -2.0), (-2.0, 2.0, 1.5),
             (-1.0, -2.0, 1.0), (0.0, 0.0, 0.5), (1.0, 0.0, 1.0),
             (-0.5, 1.5, -0.5), (1.5, 1.5, 0.5)],
            [0.0, 2.5, 0.0, 0.25, 0.0, 1.0, 2.5, 0.25])],
        [(0, 7), (1, 3), (2, 3), (3, 4), (3, 6), (3, 7), (4, 5), (5, 7),
         (6, 7)],
        [(3, 6, 7)]),
     (3, 4), [0, 1, 2, 3, 4, 4, 4]),
    (MedialMesh.build(
        [(*c, r) for c, r in zip(
            [(0.0, 1.0, -1.0), (2.0, -1.5, -0.5), (-1.0, 0.0, -1.5),
             (-1.0, 0.0, -1.5)],
            [2.5, 1.0, 0.5, 0.0])],
        [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)],
        [(0, 1, 3), (1, 2, 3)]),
     (0, 2), [0, 0, 1]),
]


@pytest.mark.parametrize("smat,edge,expected", ZERO_DISTANCE_TIES)
def test_zero_distance_ties_keep_their_own_component(smat, edge, expected):
    comps = components(smat)
    graph = build_graph(smat)
    assign_base_nodes(graph, comps)
    assert graph.component_id.tolist() == expected
    node = oracles.elements(graph).index(edge)
    assert list(edge) in comps[expected[node]].elements.tolist()


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
    table = data_table(mesh, graph, regions)
    assert table.flags.f_contiguous
    assert np.array_equal(table, oracles.data_table(mesh, graph, regions))


def chain(radii, spacing=1.0):
    spheres = [(spacing * i, 0.0, 0.0, r) for i, r in enumerate(radii)]
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


def dense_gaps(points, centers, radii):
    """The lowest gap of every point, from the full points x spheres table."""
    return (np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2)
            - radii[None, :]).min(axis=1)


@given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 40))
def test_sphere_gaps_are_the_dense_minimum(seed, n, m):
    rng = np.random.default_rng(seed)
    # Half-integer coordinates and a few radii make exact ties frequent.
    points = rng.integers(-4, 5, size=(n, 3)) / 2.0
    centers = rng.integers(-4, 5, size=(m, 3)) / 2.0
    radii = rng.choice([0.0, 0.5, 1.0, 4.0], size=m)
    assert np.array_equal(_sphere_gaps(points, centers, radii),
                          dense_gaps(points, centers, radii))


def test_sphere_gaps_exact_ties_match():
    # each point lies midway between two equal spheres, so its two
    # lowest tree gaps are equal; nine spheres leave a ninth unqueried
    centers = np.array([(x, y, 0.0) for x in (-1.0, 1.0)
                        for y in (0.0, 4.0, 8.0, 12.0)] + [(0.0, 30.0, 0.0)])
    radii = np.array([0.5] * 8 + [1.0])
    points = np.array([(0.0, y, z) for y in (0.0, 4.0, 8.0, 12.0)
                       for z in (0.0, 0.25)])
    gaps = _sphere_gaps(points, centers, radii)
    assert np.array_equal(gaps, dense_gaps(points, centers, radii))
    assert np.array_equal(gaps[::2], np.full(4, 0.5))


class RoundingTree(geometry.cKDTree):
    """A tree that reports sphere 0 a rounding error farther than it is.

    Tree distances may differ from the exact ones by rounding; the margin
    of _sphere_gaps is there for that.  Here the lowest tree gap is not
    the lowest exact gap.
    """

    def query(self, *args, **kwargs):
        dist, near = super().query(*args, **kwargs)
        return dist * np.where(near == 0, 1.0 + 1e-15, 1.0), near


def test_sphere_gaps_near_tie_scores_every_sphere_inside_the_margin(
        monkeypatch):
    monkeypatch.setattr(geometry, "cKDTree", RoundingTree)
    centers = np.array([(1.0, 0.0, 0.0), (0.0, 1.0 + 2**-52, 0.0)])
    radii = np.array([0.5, 0.5])
    points = np.zeros((1, 3))
    dist, near = RoundingTree(centers).query(points, k=2)
    bound = dist - radii[near]
    assert near[0, bound[0].argmin()] == 1  # the lower tree gap is sphere 1's
    gaps = _sphere_gaps(points, centers, radii)
    assert np.array_equal(gaps, dense_gaps(points, centers, radii))
    assert gaps[0] == 0.5  # sphere 0's exact gap


def test_sphere_gaps_open_rows_take_the_ball_query(monkeypatch):
    monkeypatch.setattr(geometry, "cKDTree", CountingTree)
    CountingTree.balls = 0
    # thin spheres in front of a thick one: the eight nearest centers
    # leave rows open, and the ball query finds the thick sphere
    centers = np.array([(0.5 * i, 0.0, 0.0) for i in range(21)])
    radii = np.array([0.2] * 10 + [6.0] + [0.2] * 10)
    points = np.array([(0.0, 1.0, 0.0), (10.0, -1.0, 0.5), (5.0, 7.0, 0.0)])
    gaps = _sphere_gaps(points, centers, radii)
    assert CountingTree.balls == 1
    assert np.array_equal(gaps, dense_gaps(points, centers, radii))


def test_sphere_gaps_with_k_equal_to_the_sphere_count(monkeypatch):
    monkeypatch.setattr(geometry, "cKDTree", CountingTree)
    CountingTree.balls = 0
    rng = np.random.default_rng(4)
    for count in (1, 5, 8):
        centers = rng.normal(size=(count, 3))
        radii = rng.choice([0.0, 0.5, 3.0], size=count)
        points = rng.normal(size=(30, 3)) * 3.0
        assert np.array_equal(_sphere_gaps(points, centers, radii),
                              dense_gaps(points, centers, radii))
    assert CountingTree.balls == 0


def test_sphere_gaps_overflowing_distances_raise():
    centers = np.array([(-1e200, 0.0, 0.0), (-1.1e200, 0.0, 0.0)])
    points = np.array([(1e200, 0.0, 0.0)])
    with pytest.raises(ValueError, match="distances between points and "
                                         "sphere centers overflow"):
        _sphere_gaps(points, centers, np.array([1.0, 1.0]))


@st.composite
def swallow_cases(draw):
    """A lattice MAT, a region's nodes and candidate nodes in drawn order.

    Centers on a half-unit lattice and radii in half units make exact
    tangencies (d == r + R) and exact enclosures (d + r == R) common, and
    zero radii put points exactly on sphere surfaces.
    """
    n = draw(st.integers(3, 10))
    cells = draw(st.lists(st.tuples(st.integers(-8, 8), st.integers(-2, 2),
                                    st.integers(-1, 1)),
                          min_size=n, max_size=n, unique=True))
    radii = draw(st.lists(st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),
                          min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    faces = draw(st.lists(st.tuples(index, index, index).filter(
        lambda f: len(set(f)) == 3), max_size=3))
    edges = draw(st.lists(st.tuples(index, index).filter(
        lambda e: e[0] != e[1]), min_size=2, max_size=8))
    mat = MedialMesh.build(
        [(*(0.5 * v for v in cell), r) for cell, r in zip(cells, radii)],
        edges, faces)
    graph = build_graph(mat)
    order = draw(st.permutations(range(len(graph))))
    split = draw(st.integers(1, len(order)))
    candidates = order[split:]
    if draw(st.booleans()):
        candidates = np.array(candidates, dtype=int)
    return graph, order[:split], candidates


def swallow_both(graph, nodes, candidates):
    fast = swallow(graph, Region(0, list(nodes), nodes[0], 0), candidates)
    dense = oracles.swallow(graph, Region(0, list(nodes), nodes[0], 0),
                            candidates)
    return fast.nodes, dense.nodes


# Node 0 is the region; node 1 touches it, and the 39 nodes of a chain 100
# units away are candidates that no region sphere reaches.
FAR = build_graph(MedialMesh.build(
    [(0, 0, 0, 1.0), (0.5, 0, 0, 1.0), (1.9, 0, 0, 0.5), (2.5, 0, 0, 0.5)]
    + [(100.0 + i, 0.5 * (i % 3), 0, 0.5) for i in range(40)],
    [(0, 1), (2, 3)] + [(4 + i, 5 + i) for i in range(39)], []))


@settings(max_examples=200)
@given(swallow_cases())
@example((FAR, [0], list(range(40, 0, -1))))
def test_swallow_equals_the_dense_test(case):
    graph, nodes, candidates = case
    fast, dense = swallow_both(graph, nodes, candidates)
    assert fast == dense


# Node 1 lies inside node 0's spheres with d + r == R; node 2 is out of
# reach.
INSIDE = build_graph(MedialMesh.build(
    [(*c, r) for c, r in zip(
        [(0, 0, 0), (0, 0, 0), (0.5, 0, 0), (-1, 0, 0), (5, 0, 0), (5, 1, 0)],
        [2.0, 2.0, 1.5, 1.0, 0.5, 0.5])],
    [(0, 1), (2, 3), (4, 5)], []))


@pytest.mark.parametrize("candidates,absorbed", [
    ([1, 2], [1]),
    ([2, 1], [1]),
    (np.array([2, 1]), [1]),
    ([], []),
    (np.array([], dtype=int), []),
])
def test_swallow_candidate_forms(candidates, absorbed):
    fast, dense = swallow_both(INSIDE, [0], candidates)
    assert fast == dense == [0] + absorbed
