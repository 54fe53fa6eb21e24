"""The node geometry and the pair table against the code they replaced.

mat_graph.pair_angles takes every node's slab normals or cone axis and
slant from the row-wise geometry kernels; they must equal the per-node
loop over the scalar primitives bit for bit, and raise where it raises.
From them pair_angles computes the bend and envelope angles of every
adjacent pair as arrays, growing.cost_terms turns those into the two cost
terms, and grow reads one cost per pair.  These properties check each
against the scalar code in tests/oracles.py, whose pair angles read the
per-node loop's envelope data, not the kernels': the angles bit for bit, a
fault exactly where the scalar code raises (with its message), and grow's
regions, or its exception class and message, against the lazy loop that
computed and cached each cost on first read.  Scaled copies push the
geometry into underflow and overflow, where zero vectors and NaN cosines
appear.  Under all of them lies the row norm, which rescales only the rows
whose squares leave the normal range; it must equal the norm that took
every row's largest magnitude first, bit for bit, on rows that mix zeros,
subnormals, huge and tiny values, infinities and NaN.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from test_grouping import complexes
from test_mesh_io_properties import medial_meshes

from segmat.extensions import SkeletonCloud, _skeleton_pair_costs, _skeleton_graph
from segmat.geometry import DegenerateGeometry, _norm, cone_axes, slab_normals
from segmat.growing import GrowingParams, cost_terms, grow
from segmat.mat_graph import _angle, build_graph, pair_angles
from segmat.mesh_io import MedialMesh
from segmat.structure import assign_base_nodes, detect_joints, split_components

SCALES = (1.0, 1e-300, 1e-200, 1e-162, 1e-150, 1e-100, 1e-20, 1e20, 1e77,
          1e100, 1e150)


def scaled(mm, factor):
    return MedialMesh.build(mm.spheres * factor, mm.edges, mm.faces)


def nan_slabs():
    """Two slabs whose first has NaN tangent normals: its Gram determinant
    is subnormal, so the in-plane solve gives inf * 0.  It takes the
    normals of its centers' plane instead."""
    return MedialMesh.build(
        [(0, 0, 0, 0), (1e-80, 0, 0, 1e150), (0, 1e-80, 0, 1e150),
         (1e-80, 1e-80, 1e-80, 1)], [], [(0, 1, 2), (1, 2, 3)])


def right_angle_slabs():
    """Two slabs of equal radii folded at a right angle on one edge."""
    return MedialMesh.build(
        [(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (0, 0, 2, 1)], [],
        [(0, 1, 2), (0, 2, 3)])


def chain_at(coordinate):
    """Two edges bent at a right angle, with coordinates this large."""
    x = coordinate
    return MedialMesh.build([(0, 0, 0, 1), (x, 0, 0, 1), (x, x, 0, 1)],
                            [(0, 1), (1, 2)], [])


meshes = st.builds(scaled, st.one_of(complexes(), medial_meshes()),
                   st.sampled_from(SCALES))


def graph_of(mm):
    try:
        return build_graph(mm)
    except ValueError:  # no nodes, or a non-finite span
        assume(False)


def kernel_geometry(mm):
    """(normals, axes, slants) of mm's slabs and cones from the kernels."""
    xyz, r = mm.centers(), mm.radii()
    ends = mm.edges[mm.standalone]
    return (slab_normals(xyz[mm.faces], r[mm.faces]),
            *cone_axes(xyz[ends], r[ends]))


def bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


MAGNITUDES = (0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-170, 1e-155,
              1.0, 3.0, 1e154, 1e160, 1e308, math.inf, math.nan)
entries = st.one_of(
    st.sampled_from(MAGNITUDES).flatmap(lambda m: st.sampled_from([m, -m])),
    st.floats())


@given(st.lists(st.tuples(entries, entries, entries), max_size=12),
       st.booleans())
@example([(0.0, 0.0, 0.0), (5e-324, 0.0, -1e-310), (1e-170, 1e-170, 0.0),
          (1e160, -1e160, 1.0), (1e308, 1e308, 1e308), (math.inf, 1.0, 0.0),
          (math.nan, 1e-170, 0.0), (math.inf, math.nan, 0.0), (3.0, 4.0, 0.0)],
         True)
def test_norm_equals_the_eager_rescale_bit_for_bit(rows, strided):
    a = np.array(rows, dtype=float).reshape(-1, 3)
    if strided:  # the kernels measure column slices of wider arrays too
        wide = np.zeros((len(a), 2, 3))
        wide[:, 1] = a
        a = wide[:, 1]
    assert bits(_norm(a)) == bits(oracles.row_norms(a))


def outcome(fn, *args):
    try:
        return fn(*args), None
    except ValueError as exc:
        return None, (type(exc), str(exc))


@given(meshes)
@example(nan_slabs())         # non-finite tangent normals
@example(chain_at(1e-161))   # |d|^2 is subnormal: the norm rescales
@example(scaled(right_angle_slabs(), 1e100))  # |cross|^2 overflows
def test_node_geometry_equals_the_per_node_loop(mm):
    # pair_angles reads a built graph: no nodes, or a non-finite span,
    # stop build_graph first
    assume(len(mm.faces) or len(mm.standalone))
    assume(outcome(mm.validate)[1] is None)
    want, raised = outcome(oracles.node_geometry, mm)
    try:
        got = kernel_geometry(mm)
    except DegenerateGeometry as exc:
        assert (type(exc), str(exc)) == raised
        return
    assert raised is None
    assert list(map(bits, got)) == list(map(bits, want))


@given(meshes)
@example(nan_slabs())
@example(chain_at(1e-161))   # |d|^2 is subnormal: the norm rescales
@example(chain_at(1e-300))   # |d_i| |d_j| underflows to 0
@example(MedialMesh.build(    # |cross|^2 overflows: the norm rescales
    [(0, 0, 0, 1), (1e100, 0, 0, 1), (0, 1e100, 0, 1), (0, 0, 1e100, 1)],
    [], [(0, 1, 2), (0, 2, 3)]))
def test_pair_angles_equal_the_scalar_code_bit_for_bit(mm):
    g = graph_of(mm)
    try:
        bend, plus, minus = pair_angles(g)
    except DegenerateGeometry:  # a slab with no fallback plane
        assume(False)
    pairs = g.pair_index[0]
    assert len(bend) == len(plus) == len(minus) == len(pairs)
    for k, (i, j) in enumerate(pairs.tolist()):
        theta, theta_raised = outcome(oracles.node_angle, g, i, j)
        sides, sides_raised = outcome(oracles.primitive_angles, g, i, j)
        # NaN marks exactly the one error the scalar code can raise here
        for raised in (theta_raised, sides_raised):
            assert raised in (None, (DegenerateGeometry,
                                     "angle with a zero vector"))
        assert bits(bend[k]) == bits(math.nan if theta_raised else theta)
        want = (math.nan, math.nan) if sides_raised else sides
        assert bits([plus[k], minus[k]]) == bits(want)


def test_a_nan_cosine_clamps_to_one():
    # min(1, c) first turns NaN into 1 (angle 0); max(-1, .) first would
    # turn it into -1 (angle pi)
    u, v = np.array([[math.inf, 0.0, 0.0]]), np.array([[1.0, 0.0, 0.0]])
    assert oracles.angle_between(u[0].tolist(), v[0].tolist()) == 0.0
    with np.errstate(invalid="ignore"):
        assert _angle(u, v).tolist() == [0.0]


def test_non_finite_tangent_normals_take_the_center_plane():
    normals, _, _ = kernel_geometry(nan_slabs())
    assert normals[0].tolist() == [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]
    assert np.isfinite(normals).all()
    assert np.abs(np.linalg.norm(normals, axis=2) - 1.0).max() < 1e-12


def prepared(mm):
    g = graph_of(mm)
    comps = split_components(mm, detect_joints(mm))
    assign_base_nodes(g, comps)
    return g, comps


def regions_or_error(fn, *args):
    try:
        return [(r.id, r.nodes, r.seed, r.component_id) for r in fn(*args)]
    except Exception as exc:  # noqa: BLE001 -- also overflow warnings
        return type(exc), str(exc)


def test_slabs_at_1e77_have_unit_normals_and_grow_as_at_scale_one():
    # |cross|^2 overflows at this scale, in the normals and sheet areas
    g, comps = prepared(scaled(right_angle_slabs(), 1e77))
    normals, _, _ = kernel_geometry(g.mm)
    assert np.abs(np.linalg.norm(normals, axis=2) - 1.0).max() < 1e-12
    unit_g, unit_comps = prepared(right_angle_slabs())
    assert [c.extent / 1e77 for c in comps] == pytest.approx(
        [c.extent for c in unit_comps], rel=1e-12)
    want = regions_or_error(grow, unit_g, unit_comps)
    assert isinstance(want, list)
    assert regions_or_error(grow, g, comps) == want


params = st.builds(GrowingParams,
                   alpha=st.sampled_from([0.0, 0.05, 1.0]),
                   lam=st.sampled_from([0.0, 1.5, 10.0]),
                   delta0=st.sampled_from([0.015, 0.3, 2.0]),
                   eta=st.sampled_from([0.0, 0.002, 0.3]))


@given(meshes, params, st.booleans())
@example(MedialMesh.build([(0, 0, 0, 1), (2, 0, 0, 0), (4, 0, 0, 0),
                           (6, 0, 0, 1)], [(0, 1), (1, 2), (2, 3)], []),
         GrowingParams(), True)
@example(nan_slabs(), GrowingParams(), True)
def test_grow_equals_the_lazy_per_pair_loop(mm, p, swallowing):
    g, comps = prepared(mm)
    want = regions_or_error(oracles.grow, g, comps, p, None, swallowing)
    assert regions_or_error(grow, g, comps, p, None, swallowing) == want


@given(complexes(), st.sampled_from([0.0, 0.05, 1.0]))
def test_cost_terms_equal_the_scalar_costs(mm, alpha):
    g, _ = prepared(mm)
    ma, mp, faults = cost_terms(g, alpha)
    for k, (i, j) in enumerate(g.pair_index[0].tolist()):
        got, raised = outcome(oracles.ma_cost, g, i, j, alpha)
        if raised is None:
            got_mp, raised = outcome(oracles.mp_cost, g, i, j)
        if raised is not None:
            assert (type(faults[k]), str(faults[k])) == raised
            continue
        assert k not in faults
        assert bits([ma[k], mp[k]]) == bits([got, got_mp])


@given(st.lists(st.tuples(*[st.integers(-6, 6)] * 3), min_size=2,
                max_size=12, unique=True),
       st.lists(st.sampled_from([0.0, 0.3, 1.0, 2.5]), min_size=12,
                max_size=12),
       st.integers(1, 4), st.sampled_from([0.0, 0.05, 1.0]))
def test_skeleton_pair_costs_equal_the_scalar_closure(points, radii, k, alpha):
    sc = SkeletonCloud.build(np.array(points, dtype=float),
                             np.array(radii[:len(points)]), k=k)
    graph = _skeleton_graph(sc)
    pairs = graph.pair_index[0]
    cost = oracles.skeleton_cost(sc, alpha)
    want = [cost(i, j) for i, j in pairs.tolist()]
    assert bits(_skeleton_pair_costs(sc, pairs, alpha)) == bits(want)


def test_pair_index_lists_each_adjacency_once():
    mm = MedialMesh.build(
        [(0, 0, 0, 1), (2, 0, 0, 1), (0, 2, 0, 1), (-2, 0, 0, 1),
         (-4, 0, 0, 1)], [(0, 3), (3, 4)], [(0, 1, 2)])
    g = build_graph(mm)
    assert g.adjacency == [[1], [0, 2], [1]]
    pairs, entry_pair = g.pair_index
    assert pairs.tolist() == [[0, 1], [1, 2]]
    assert entry_pair.tolist() == [0, 0, 1, 1]


def test_a_graph_not_built_from_its_medial_mesh_needs_costs():
    # a skeleton graph's medial mesh holds its points, with no faces or edges
    sc = SkeletonCloud.build(np.array([(0, 0, 0), (1, 0, 0), (2, 0, 0)], float),
                             np.ones(3), k=2)
    g = _skeleton_graph(sc)
    with pytest.raises(ValueError, match="the graph has 3 nodes but its medial "
                       "mesh 0 faces and 0 standalone edges; grow such a graph "
                       "with costs="):
        grow(g, [])
    costs = _skeleton_pair_costs(sc, g.pair_index[0], 0.05)
    assert [r.nodes for r in grow(g, [], costs=costs)] == [[0, 1, 2]]
