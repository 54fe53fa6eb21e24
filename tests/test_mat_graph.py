import math

import numpy as np
import pytest

import oracles

from segmat.mat_graph import (
    EmptyInput,
    MatGraph,
    build_graph,
    pair_angles,
)
from segmat.mesh_io import MedialMesh


def mm_from(spheres, edges=(), faces=()):
    return MedialMesh.build([(*c, r) for c, r in spheres], list(edges), list(faces))


def angles(g, i, j):
    """(bend, plus, minus) of the adjacent nodes i and j, from the pair table."""
    k = g.pair_index[0].tolist().index(sorted([i, j]))
    return tuple(float(a[k]) for a in pair_angles(g))


def node_angle(g, i, j):
    return angles(g, i, j)[0]


def primitive_angles(g, i, j):
    return angles(g, i, j)[1:]


def test_triangle_plus_edge_two_nodes_one_adjacency():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0),
         ((0.0, 2.0, 0.0), 1.0), ((-2.0, 0.0, 0.0), 1.0)],
        edges=[(0, 3)],
        faces=[(0, 1, 2)],
    )
    g = build_graph(mm)
    assert len(g) == 2
    assert np.diff(g.incidence.indptr).tolist() == [3, 2]
    assert g.adjacency == [[1], [0]]


def test_single_face_no_adjacency_and_not_adjacent_error():
    mm = mm_from([((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0), ((0.0, 2.0, 0.0), 1.0)],
                 faces=[(0, 1, 2)])
    g = build_graph(mm)
    assert len(g) == 1
    assert g.adjacency == [[]]
    # no pair, so no angle to ask for
    assert g.pair_index[0].shape == (0, 2)
    assert [len(a) for a in pair_angles(g)] == [0, 0, 0]


def test_vertices_only_mesh_is_empty_input():
    mm = mm_from([((0.0, 0.0, 0.0), 1.0)])
    with pytest.raises(EmptyInput):
        build_graph(mm)


@pytest.mark.parametrize("sphere,message", [
    (((0.0, 0.0, 0.0), math.nan), "radius"),
    (((math.inf, 0.0, 0.0), 1.0), "center"),
])
def test_non_finite_sphere_raises(sphere, message):
    mm = mm_from([sphere, ((1.0, 0.0, 0.0), 1.0)], edges=[(0, 1)])
    with pytest.raises(ValueError, match=f"non-finite sphere {message}"):
        build_graph(mm)


def test_mean_radius_is_unweighted_vertex_mean():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 2.0), ((0.0, 2.0, 0.0), 4.0),
         ((-2.0, 0.0, 0.0), 8.0)],
        edges=[(0, 3)],
        faces=[(0, 1, 2)],
    )
    g = build_graph(mm)
    assert g.mean_radii[0] == pytest.approx((1.0 + 2.0 + 4.0) / 3.0)
    assert g.mean_radii[1] == pytest.approx((1.0 + 8.0) / 2.0)


def test_vertex_incidence_count_invariant():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0), ((0.0, 2.0, 0.0), 1.0),
         ((2.0, 2.0, 0.0), 1.0), ((4.0, 0.0, 0.0), 1.0), ((6.0, 0.0, 0.0), 1.0)],
        edges=[(3, 4), (4, 5)],
        faces=[(0, 1, 2), (1, 2, 3)],
    )
    g = build_graph(mm)
    assert g.incidence.nnz == 3 * len(mm.faces) + 2 * len(mm.standalone)


def test_coplanar_faces_sharing_an_edge_have_angle_pi():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0),
         ((1.0, 2.0, 0.0), 1.0), ((1.0, -2.0, 0.0), 1.0)],
        faces=[(0, 1, 2), (0, 1, 3)],
    )
    g = build_graph(mm)
    assert node_angle(g, 0, 1) == pytest.approx(math.pi)


def test_right_angle_hinge_faces_have_angle_half_pi():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0),
         ((0.0, 2.0, 0.0), 1.0), ((0.0, 0.0, 2.0), 1.0)],
        faces=[(0, 1, 2), (0, 1, 3)],
    )
    g = build_graph(mm)
    assert node_angle(g, 0, 1) == pytest.approx(math.pi / 2)


def test_collinear_edges_at_shared_vertex_have_angle_pi():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0), ((4.0, 0.0, 0.0), 1.0)],
        edges=[(0, 1), (1, 2)],
    )
    g = build_graph(mm)
    assert node_angle(g, 0, 1) == pytest.approx(math.pi)


def test_mixed_pair_angle_is_zero():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0),
         ((0.0, 2.0, 0.0), 1.0), ((-2.0, 0.0, 0.0), 1.0)],
        edges=[(0, 3)],
        faces=[(0, 1, 2)],
    )
    g = build_graph(mm)
    assert node_angle(g, 0, 1) == 0.0


def test_coplanar_equal_radius_slabs_have_primitive_angles_zero():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0),
         ((1.0, 2.0, 0.0), 1.0), ((1.0, -2.0, 0.0), 1.0)],
        faces=[(0, 1, 2), (0, 1, 3)],
    )
    g = build_graph(mm)
    a_plus, a_minus = primitive_angles(g, 0, 1)
    assert a_plus == pytest.approx(0.0, abs=1e-12)
    assert a_minus == pytest.approx(0.0, abs=1e-12)


def test_right_angle_hinge_primitive_angles_are_half_pi():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0),
         ((0.0, 2.0, 0.0), 1.0), ((0.0, 0.0, 2.0), 1.0)],
        faces=[(0, 1, 2), (0, 1, 3)],
    )
    g = build_graph(mm)
    a_plus, a_minus = primitive_angles(g, 0, 1)
    assert a_plus == pytest.approx(math.pi / 2, abs=1e-12)
    assert a_minus == pytest.approx(math.pi / 2, abs=1e-12)


def test_cylinder_flush_with_plate_has_primitive_angles_zero():
    # Slab of thickness 2 in the z=0 plane plus a constant-radius cone
    # hanging off one vertex along -x: the envelopes continue smoothly.
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0),
         ((0.0, 2.0, 0.0), 1.0), ((-2.0, 0.0, 0.0), 1.0)],
        edges=[(0, 3)],
        faces=[(0, 1, 2)],
    )
    g = build_graph(mm)
    a_plus, a_minus = primitive_angles(g, 0, 1)
    assert a_plus == pytest.approx(0.0, abs=1e-12)
    assert a_minus == pytest.approx(0.0, abs=1e-12)


def test_straight_chain_with_matching_slants_is_continuous():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.2), ((4.0, 0.0, 0.0), 1.4)],
        edges=[(0, 1), (1, 2)],
    )
    g = build_graph(mm)
    a_plus, a_minus = primitive_angles(g, 0, 1)
    assert a_plus == pytest.approx(0.0, abs=1e-9)
    assert a_minus == pytest.approx(0.0, abs=1e-9)
    assert node_angle(g, 0, 1) == pytest.approx(math.pi)


def test_right_angle_cylinders_have_half_pi_primitive_angles():
    mm = mm_from(
        [((2.0, 0.0, 0.0), 1.0), ((0.0, 0.0, 0.0), 1.0), ((0.0, 2.0, 0.0), 1.0)],
        edges=[(0, 1), (1, 2)],
    )
    g = build_graph(mm)
    a_plus, a_minus = primitive_angles(g, 0, 1)
    assert a_plus == pytest.approx(math.pi / 2, abs=1e-12)
    assert a_minus == pytest.approx(math.pi / 2, abs=1e-12)


def test_angles_are_symmetric_in_arguments():
    rng = np.random.default_rng(3)
    spheres = [(tuple(rng.uniform(-3, 3, 3)), float(r))
               for r in rng.uniform(0.2, 1.0, 6)]
    mm = mm_from(spheres, edges=[(3, 4), (4, 5)], faces=[(0, 1, 2), (1, 2, 3)])
    g = build_graph(mm)
    pairs, entry_pair = g.pair_index
    bend, plus, minus = pair_angles(g)
    entries = [(i, j) for i in range(len(g)) for j in g.adjacency[i]]
    assert len(entries) == len(entry_pair) == 2 * len(pairs)
    for (i, j), k in zip(entries, entry_pair.tolist()):
        # both orders of a pair read one row, which is the scalar value
        # in either argument order
        assert sorted([i, j]) == pairs[k].tolist()
        assert bend[k] == oracles.node_angle(g, i, j) == oracles.node_angle(g, j, i)
        assert ((plus[k], minus[k]) == oracles.primitive_angles(g, i, j)
                == oracles.primitive_angles(g, j, i))


def test_adjacency_requires_shared_vertex():
    mm = mm_from(
        [((0.0, 0.0, 0.0), 1.0), ((2.0, 0.0, 0.0), 1.0),
         ((5.0, 0.0, 0.0), 1.0), ((7.0, 0.0, 0.0), 1.0)],
        edges=[(0, 1), (2, 3)],
    )
    g = build_graph(mm)
    assert g.adjacency == [[], []]
    assert g.pair_index[0].shape == (0, 2)


def test_one_empty_input_class_across_modules():
    import segmat
    from segmat import mat_graph, mat_simplify, mesh_io

    assert mat_graph.EmptyInput is mat_simplify.EmptyInput
    assert segmat.EmptyInput is mesh_io.EmptyInput is mat_graph.EmptyInput
    with pytest.raises(segmat.EmptyInput):
        build_graph(MedialMesh.build([(0, 0, 0, 1.0)], [], []))
