"""Tests for surface label transfer: data/smooth terms, min cut, expansion."""

import itertools
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from segmat import transfer
from segmat.growing import Region
from segmat.mat_graph import build_graph
from segmat.mesh_io import MedialMesh, SurfaceMesh
from segmat.pipeline import boundary_length
from segmat.transfer import (
    NoSegments,
    TransferParams,
    _boundary_costs,
    _ExpansionMoves,
    _min_cut_side,
    data_table,
    exterior_dihedrals,
    labeling_energy,
    optimize_labels,
    transfer_labels,
)

from oracles import data_term


# --- fixtures ---------------------------------------------------------------


def hinge(d):
    """Two triangles sharing edge (0, 1); face 0 lies in z=0 with normal +z."""
    verts = np.array([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), d])
    faces = np.array([(0, 1, 2), (1, 0, 3)])
    return SurfaceMesh(verts, faces)


def folded(t):
    """Hinge whose second face is folded by t toward the normal side.

    Folding toward the normals closes the wedge they point into, so the
    exterior dihedral angle is pi - t.
    """
    return hinge((0.0, -math.cos(t), math.sin(t)))


def octahedron():
    vs = np.array(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        dtype=float,
    )
    faces = []
    for x in (0, 1):
        for y in (2, 3):
            for z in (4, 5):
                tri = [x, y, z]
                n = np.cross(vs[tri[1]] - vs[tri[0]], vs[tri[2]] - vs[tri[0]])
                if np.dot(n, vs[tri].mean(axis=0)) < 0:
                    tri[1], tri[2] = tri[2], tri[1]
                faces.append(tuple(tri))
    return SurfaceMesh(vs, np.array(faces))


def quad_plate(x0, base_vertex):
    """Unit quad in the plane x = x0 as two triangles."""
    b = base_vertex
    verts = [(x0, 0.0, 0.0), (x0, 1.0, 0.0), (x0, 1.0, 1.0), (x0, 0.0, 1.0)]
    faces = [(b, b + 1, b + 2), (b, b + 2, b + 3)]
    return verts, faces


# --- oracles ----------------------------------------------------------------


def brute_force_min_cut(num_nodes, source, sink, arcs):
    """Minimum s-t cut by enumerating every source-side subset."""
    rest = [v for v in range(num_nodes) if v not in (source, sink)]
    best_val = math.inf
    best_side = None
    for mask in range(1 << len(rest)):
        side = {source}
        for k, v in enumerate(rest):
            if mask >> k & 1:
                side.add(v)
        val = sum(c for u, v, c in arcs if u in side and v not in side)
        if val < best_val:
            best_val = val
            best_side = side
    return best_val, best_side


def brute_force_labeling(mesh, costs, omega):
    """Exhaustive search over every labeling; returns the minimum energy."""
    pairs, _ = mesh.dual_edges()
    nf, nk = costs.shape
    boundary = [min(phi / math.pi, 1.0) for phi in exterior_dihedrals(mesh)]
    best = math.inf
    for combo in itertools.product(range(nk), repeat=nf):
        e = sum(costs[f, combo[f]] for f in range(nf))
        e += omega * sum(
            w for (f, g), w in zip(pairs, boundary) if combo[f] != combo[g]
        )
        best = min(best, e)
    return best


def cut_capacity(arcs, side):
    return sum(c for u, v, c in arcs if u in side and v not in side)


# --- min cut ---------------------------------------------------------------


def columns(arcs):
    """(tails, heads, caps) of (u, v, c) arcs."""
    return ([u for u, _, _ in arcs], [v for _, v, _ in arcs],
            [c for _, _, c in arcs])


def min_cut(num_nodes, source, sink, arcs):
    """Cut value and source side that _min_cut_side finds for (u, v, c) arcs."""
    side = _min_cut_side(num_nodes, source, sink, *columns(arcs))
    side = {int(v) for v in np.flatnonzero(side)}
    return cut_capacity(arcs, side), side


def test_single_arc_flow():
    value, side = min_cut(2, 0, 1, [(0, 1, 5.0)])
    assert value == 5.0
    assert side == {0}


def test_diamond_flow():
    arcs = [(0, 1, 3.0), (1, 3, 3.0), (0, 2, 2.0), (2, 3, 2.0)]
    value, _ = min_cut(4, 0, 3, arcs)
    assert value == 5.0


def test_bottleneck_chain():
    value, side = min_cut(3, 0, 2, [(0, 1, 2.0), (1, 2, 7.0)])
    assert value == 2.0
    assert 2 not in side


def test_parallel_arcs_accumulate():
    value, _ = min_cut(2, 0, 1, [(0, 1, 2.0), (0, 1, 3.0)])
    assert value == 5.0


def test_flow_equals_min_cut_on_random_networks():
    # The recovered cut must be minimum: compare with subset enumeration.
    # Capacities are dyadic so every cut sum is exact in floats.
    rng = np.random.default_rng(11)
    for _ in range(30):
        n = 6
        source, sink = 0, n - 1
        arcs = [
            (u, v, float(rng.integers(1, 30)) / 8.0)
            for u in range(n)
            for v in range(n)
            if u != v and rng.random() < 0.45
        ]
        value, side = min_cut(n, source, sink, arcs)
        best_val, _ = brute_force_min_cut(n, source, sink, arcs)
        assert value == pytest.approx(best_val, abs=1e-9)
        assert source in side and sink not in side


def test_empty_network_flow_is_zero():
    value, side = min_cut(3, 0, 2, [])
    assert value == 0.0
    assert side == {0}


# zero, negative and tied capacities, and positive ones from 1e-12 to 1e3
capacities = st.one_of(
    st.sampled_from([0.0, -0.5, 1.0]),
    st.floats(-1e3, -1e-12),
    st.builds(lambda m, e: m * 10.0**e, st.floats(1.0, 9.99),
              st.integers(-12, 2)),
)


@st.composite
def flow_networks(draw):
    """(nodes, source, sink, arcs) with isolated nodes and parallel arcs.

    A parallel pair splits one drawn capacity in two, so no pair of arcs
    sums past the largest one and the scaled graph stays in int32.
    """
    n = draw(st.integers(2, 9))
    source, sink = draw(st.permutations(range(n)))[:2]
    node = st.integers(0, n - 1)
    ends = draw(st.lists(st.tuples(node, node).filter(lambda e: e[0] != e[1]),
                         unique=True, max_size=20))
    bare = draw(st.sampled_from([None, source, sink]))
    arcs = []
    for u, v in ends:
        if bare in (u, v):
            continue
        c = draw(capacities)
        if draw(st.booleans()):
            share = c * draw(st.sampled_from([0.0, 0.25, 0.5]))
            arcs += [(u, v, share), (u, v, c - share)]
        else:
            arcs.append((u, v, c))
    order = draw(st.permutations(range(len(arcs))))
    return n, source, sink, [arcs[i] for i in order]


@settings(max_examples=300)
@given(network=flow_networks())
@example(network=(3, 0, 2, []))
@example(network=(4, 1, 3, [(0, 2, 1.0)]))
@example(network=(3, 0, 2, [(0, 1, 1.0), (1, 2, 1.0)]))
@example(network=(4, 0, 3, [(0, 1, 1e-12), (0, 2, 1e3), (1, 3, 1e3),
                            (2, 3, 1e-12), (1, 2, 0.0), (2, 1, -1.0)]))
def test_min_cut_side_equals_the_forward_solve(network):
    n, source, sink, arcs = network
    got = _min_cut_side(n, source, sink, *columns(arcs))
    want = oracles.min_cut_side(n, source, sink, *columns(arcs))
    assert np.array_equal(got, want)


@st.composite
def exact_networks(draw):
    """(nodes, source, sink, arcs) on up to 7 nodes, exact after scaling.

    Integer capacities; the arcs out of the source sum to 16, the arcs
    into the sink to at least 16, and every other arc is at most 8.  The
    solver's scale is then 2**26 and every scaled capacity an integer, so
    its cut values equal the sums below exactly.
    """
    n = draw(st.integers(3, 7))
    source, sink = draw(st.permutations(range(n)))[:2]
    inner = [v for v in range(n) if v not in (source, sink)]

    def sixteen(ends):
        cuts = sorted(draw(st.lists(st.integers(1, 15), unique=True,
                                    max_size=len(ends) - 1)))
        parts = np.diff([0, *cuts, 16]).tolist()
        return [(u, v, c) for (u, v), c in zip(ends, parts)]

    heads = draw(st.lists(st.sampled_from(inner + [sink]), min_size=5,
                          max_size=5))
    tails = draw(st.lists(st.sampled_from(inner), min_size=5, max_size=5))
    arcs = sixteen([(source, v) for v in heads])
    arcs += sixteen([(u, sink) for u in tails])
    node = st.integers(0, n - 1)
    arcs += draw(st.lists(st.tuples(node, node, st.integers(-1, 8)).filter(
        lambda a: a[0] != a[1] and a[0] != source and a[1] != sink),
        max_size=12))
    return n, source, sink, arcs


@settings(max_examples=200)
@given(network=exact_networks())
def test_min_cut_side_is_the_smallest_minimum_cut_side(network):
    # the intersection of the source sides of every minimum cut
    n, source, sink, arcs = network
    rest = [v for v in range(n) if v not in (source, sink)]
    best, smallest = math.inf, None
    for mask in range(1 << len(rest)):
        side = {source} | {v for k, v in enumerate(rest) if mask >> k & 1}
        value = sum(c for u, v, c in arcs
                    if c > 0 and u in side and v not in side)
        if value < best:
            best, smallest = value, side
        elif value == best:
            smallest &= side
    got = _min_cut_side(n, source, sink, *columns(arcs))
    assert set(np.flatnonzero(got).tolist()) == smallest


@pytest.mark.parametrize("solve", [_min_cut_side, oracles.min_cut_side],
                         ids=["sink-side", "forward"])
def test_parallel_arcs_are_summed_before_scaling(solve):
    # each 0 -> 1 arc alone scales to 2**30, so summed after scaling the
    # pair passes int32 in the solver and the cut put the sink on the
    # source side
    side = solve(3, 0, 2, [0, 0, 1], [1, 1, 2], [5.0, 5.0, 1.0])
    assert side.tolist() == [True, True, False]


def test_a_duplicated_face_reaches_the_exhaustive_minimum():
    # face 1 repeats face 0, so the two share all three sides and every
    # expansion move has three parallel arcs between them
    mesh = SurfaceMesh(np.array([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], float),
                       [(0, 1, 2), (0, 1, 2), (1, 3, 2)])
    mesh.validate()
    assert mesh.dual_edges()[0].tolist().count([0, 1]) == 3
    costs = np.array([[0.83, 0.26], [0.15, 0.2], [0.43, 0.51]])
    labels = optimize_labels(mesh, costs, TransferParams(omega=0.3))
    best = min(itertools.product(range(2), repeat=3),
               key=lambda lab: labeling_energy(mesh, lab, costs, 0.3))
    assert labels.tolist() == list(best) == [1, 1, 1]


# --- data term --------------------------------------------------------------


def test_data_term_inside_sphere_is_zero():
    term = data_term((0.0, 0.0, 0.0), [(0.1, 0.0, 0.0)], [0.5], 3.0)
    assert term == 0.0


def test_data_term_at_twice_radius():
    # distance 2r from a sphere of radius r leaves a gap of r
    r = 0.7
    term = data_term((2.0 * r, 0.0, 0.0), [(0.0, 0.0, 0.0)], [r], 3.0)
    assert term == pytest.approx(r / 3.0, rel=1e-12)


def test_data_term_takes_nearest_sphere():
    centers = [(0.0, 0.0, 0.0), (5.0, 0.0, 0.0)]
    term = data_term((4.0, 0.0, 0.0), centers, [0.5, 0.5], 1.0)
    assert term == pytest.approx(0.5, rel=1e-12)


def test_data_term_monotone_radially():
    rng = np.random.default_rng(5)
    for _ in range(25):
        centers = rng.normal(size=(6, 3))
        radii = rng.uniform(0.1, 0.8, size=6)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        base = rng.normal(size=3)
        values = [
            data_term(base + t * direction * 10.0, centers, radii, 2.0)
            for t in np.linspace(1.0, 3.0, 8)
        ]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def test_data_term_rejects_empty_segment():
    with pytest.raises(ValueError):
        data_term((0.0, 0.0, 0.0), np.zeros((0, 3)), [], 1.0)


# --- smooth term ------------------------------------------------------------
#
# The boundary cost of a label change across a dual edge is the exterior
# dihedral over pi clamped at 1; labeling_energy charges it omega-weighted.


def boundary_cost(mesh):
    """The hinge's cost for labels (0, 1), read through labeling_energy."""
    return labeling_energy(mesh, [0, 1], np.zeros((2, 2)), 1.0)


@pytest.mark.parametrize("labels, costs, message", [
    ([0, -1], np.zeros((2, 2)), "label -1 has no cost column of 2"),
    ([0, 5], np.zeros((2, 2)), "label 5 has no cost column of 2"),
    ([0, 1], np.zeros((3, 2)), "costs of shape (3, 2)"),
    ([0, 1], np.zeros(2), "costs of shape (2,)"),
    ([0], np.zeros((2, 2)), "labels of shape (1,)"),
])
def test_labeling_energy_rejects_labels_without_costs(labels, costs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        labeling_energy(folded(0.4), labels, costs, 1.0)


def test_smooth_term_same_label_is_zero():
    mesh = folded(0.4)
    costs = np.zeros((2, 3))
    assert labeling_energy(mesh, [2, 2], costs, 1.0) == 0.0


def test_smooth_term_coplanar_is_one():
    mesh = folded(0.0)
    assert exterior_dihedrals(mesh)[0] == pytest.approx(math.pi, abs=1e-12)
    assert boundary_cost(mesh) == pytest.approx(1.0, abs=1e-12)


def test_smooth_term_concave_crease_is_cheap():
    # fold by 9pi/10 leaves an exterior wedge of pi/10
    mesh = folded(9.0 * math.pi / 10.0)
    assert boundary_cost(mesh) == pytest.approx(0.1, rel=1e-9)


def test_smooth_term_convex_crease_clamps_to_one():
    mesh = folded(-math.pi / 4.0)
    assert exterior_dihedrals(mesh)[0] > math.pi
    assert boundary_cost(mesh) == 1.0


def test_exterior_dihedral_tracks_fold_angle():
    for t in np.linspace(-0.9 * math.pi, 0.9 * math.pi, 13):
        mesh = folded(float(t))
        phi = exterior_dihedrals(mesh)
        assert phi.shape == (1,)
        assert phi[0] == pytest.approx(math.pi - t, abs=1e-9)


def test_smooth_term_symmetric_in_face_order():
    # listing the hinge's faces the other way round keeps the winding, so
    # the dihedral and the cost of separating the two faces stay the same
    rng = np.random.default_rng(17)
    for _ in range(10):
        mesh = folded(float(rng.uniform(-2.5, 2.5)))
        swapped = SurfaceMesh(mesh.vertices, mesh.faces[::-1])
        assert exterior_dihedrals(swapped)[0] == pytest.approx(
            exterior_dihedrals(mesh)[0], abs=1e-12)
        assert labeling_energy(swapped, [1, 0], np.zeros((2, 2)), 1.0) == (
            pytest.approx(boundary_cost(mesh), abs=1e-12))


# --- label optimization -----------------------------------------------------


def test_single_segment_labels_everything_zero():
    mesh = octahedron()
    rng = np.random.default_rng(2)
    costs = rng.uniform(size=(8, 1))
    labels = optimize_labels(mesh, costs)
    assert list(labels) == [0] * 8
    assert labeling_energy(mesh, labels, costs, 0.3) == pytest.approx(costs.sum())


def test_no_segments_raises():
    mesh = octahedron()
    with pytest.raises(NoSegments):
        optimize_labels(mesh, np.zeros((8, 0)))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_cost_raises(value):
    costs = np.zeros((8, 2))
    costs[3, 1] = value
    with pytest.raises(ValueError, match="costs must be finite"):
        optimize_labels(octahedron(), costs)


@pytest.mark.parametrize("value", [2.5, "3", None])
def test_non_integral_max_iterations_raises(value):
    with pytest.raises(ValueError, match="max_iterations must be an integer"):
        optimize_labels(octahedron(), np.zeros((8, 2)),
                        TransferParams(max_iterations=value))


def test_integer_max_iterations_of_any_integer_type_run():
    costs = np.random.default_rng(9).uniform(size=(8, 3))
    want = optimize_labels(octahedron(), costs, TransferParams(max_iterations=3))
    got = optimize_labels(octahedron(), costs,
                          TransferParams(max_iterations=np.int64(3)))
    assert np.array_equal(got, want)


# --- capacities that overflow ------------------------------------------------
#
# A cut is solved on integers scaled from the largest arc or the flow bound,
# so a capacity or a bound that overflows to inf would scale every arc to 0.
# These raise ValueError, and no RuntimeWarning comes first.


def raises_without_warning(match, fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            fn(*args)


@pytest.mark.parametrize("network", [
    # the arcs out of the source and into the sink both sum past 1.8e308
    (4, 0, 3, [0, 0, 1, 2], [1, 2, 3, 3], [1e308] * 4),
    # two parallel arcs sum past it
    (3, 0, 2, [0, 0, 1], [1, 1, 2], [1e308, 1e308, 1.0]),
    (3, 0, 2, [0, 1], [1, 2], [math.inf, 1.0]),
])
def test_min_cut_side_with_a_capacity_that_overflows_raises(network):
    raises_without_warning("cut capacities overflow", _min_cut_side, *network)


@pytest.mark.parametrize("caps,side", [
    ([5e-324, 1e-310], [True, False, False]),
    ([1e-310, 5e-324], [True, True, False]),
    ([1e-300, 3e-300], [True, False, False]),
])
def test_min_cut_side_with_subnormal_capacities_cuts(caps, side):
    # 2**30 over the largest capacity overflows below about 1e-300
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _min_cut_side(3, 0, 2, [0, 1], [1, 2], caps)
    assert got.tolist() == side


def test_min_cut_side_with_one_finite_terminal_sum_cuts():
    # only the source arcs overflow when summed; the flow bound is the
    # sink sum, every arc is finite, and the cut is the exact one
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        side = _min_cut_side(4, 0, 3, [0, 0, 1, 2], [1, 2, 3, 3],
                             [1e308, 1e308, 1.0, 2.0])
    assert side.tolist() == [True, True, True, False]


@pytest.mark.parametrize("omega,costs", [
    # omega * 2 overflows: the arc of a pair whose faces both keep.  Label 0
    # is every face's argmin, so the start labeling has no boundary and its
    # energy is finite.
    (1e308, np.random.default_rng(5).uniform(size=(8, 3)) + [0.0, 1.0, 1.0]),
    # the switch cost minus the keep cost overflows: a folded unary
    (0.3, np.vstack([[-1e308, 1e308], np.zeros((7, 2))])),
])
def test_expansion_move_with_capacities_that_overflow_raises(omega, costs):
    raises_without_warning("expansion move capacities overflow",
                           optimize_labels, octahedron(), costs,
                           TransferParams(omega=omega))


def test_costs_whose_energy_overflows_raise():
    # every face's cost is finite, but their sum is not
    raises_without_warning("labeling energy overflows", optimize_labels,
                           octahedron(), np.full((8, 2), 1e308))


def test_labeling_energy_whose_boundary_term_overflows_raises():
    # the data term is 8, but omega times the boundary is past 1.8e308
    raises_without_warning("labeling energy overflows", labeling_energy,
                           octahedron(), [0, 0, 0, 0, 1, 1, 1, 1],
                           np.ones((8, 2)), 1e308)


@pytest.mark.parametrize("omega,costs", [
    (1e300, np.random.default_rng(5).uniform(size=(8, 3))),
    # the terminal arcs of every switch sum past 1.8e308, but only on the
    # source side, so the flow bound stays finite
    (0.3, np.tile([0.0, 1.7e308], (8, 1))),
])
def test_huge_finite_capacities_keep_their_labels(omega, costs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = optimize_labels(octahedron(), costs, TransferParams(omega=omega))
    assert np.array_equal(got, oracles.optimize_labels(octahedron(), costs,
                                                       omega))


def test_omega_zero_reduces_to_argmin():
    mesh = octahedron()
    rng = np.random.default_rng(9)
    costs = rng.uniform(size=(8, 3))
    labels = optimize_labels(mesh, costs, TransferParams(omega=0.0))
    assert np.array_equal(labels, np.argmin(costs, axis=1))


@pytest.mark.parametrize("omega", [-0.5, math.nan, math.inf, -math.inf])
def test_omega_outside_finite_non_negative_range_raises(omega):
    mesh = octahedron()
    with pytest.raises(ValueError, match="^omega must (be a finite number|"
                                         "not be negative), got "):
        optimize_labels(mesh, np.zeros((8, 2)), TransferParams(omega=omega))


def test_expansion_matches_exhaustive_search():
    mesh = octahedron()
    rng = np.random.default_rng(3)
    costs = rng.uniform(size=(8, 3))
    p = TransferParams(omega=0.3)
    labels = optimize_labels(mesh, costs, p)
    energy = labeling_energy(mesh, labels, costs, p.omega)
    best = brute_force_labeling(mesh, costs, p.omega)
    assert energy == pytest.approx(best, rel=1e-9)


def test_expansion_within_factor_two_of_optimum():
    # The move space guarantees a 2-approximation; count how often the
    # result is exactly optimal and require every run to stay within 2x.
    mesh = octahedron()
    rng = np.random.default_rng(31)
    exact = 0
    runs = 8
    for _ in range(runs):
        costs = rng.uniform(size=(8, 3))
        omega = float(rng.uniform(0.0, 1.0))
        p = TransferParams(omega=omega)
        labels = optimize_labels(mesh, costs, p)
        energy = labeling_energy(mesh, labels, costs, omega)
        best = brute_force_labeling(mesh, costs, omega)
        assert energy <= 2.0 * best + 1e-9
        if energy <= best + 1e-9:
            exact += 1
    print(f"expansion exactly optimal in {exact}/{runs} random instances")
    assert exact >= runs // 2


def test_energy_never_increases_across_moves():
    mesh = octahedron()
    rng = np.random.default_rng(13)
    for _ in range(6):
        costs = rng.uniform(size=(8, 4))
        p = TransferParams(omega=0.5)
        trace = []
        labels = optimize_labels(mesh, costs, p, trace=trace)
        start = labeling_energy(mesh, np.argmin(costs, axis=1), costs, p.omega)
        energies = [start] + [e for _, e in trace]
        assert all(b <= a + 1e-12 for a, b in zip(energies, energies[1:]))
        assert labeling_energy(mesh, labels, costs, p.omega) == pytest.approx(
            energies[-1]
        )


def test_one_dihedral_pass_per_optimization(monkeypatch):
    # the boundary costs are computed once per call, not once per move
    calls = []
    original = transfer.exterior_dihedrals

    def counting(mesh):
        calls.append(mesh)
        return original(mesh)

    monkeypatch.setattr(transfer, "exterior_dihedrals", counting)
    mesh = octahedron()
    rng = np.random.default_rng(13)
    trace = []
    optimize_labels(mesh, rng.uniform(size=(8, 4)), TransferParams(omega=0.5),
                    trace=trace)
    assert len(trace) >= 2
    assert len(calls) == 1


def test_labels_stay_inside_segment_range():
    mesh = octahedron()
    rng = np.random.default_rng(21)
    costs = rng.uniform(size=(8, 5))
    labels = optimize_labels(mesh, costs, TransferParams(omega=0.7))
    assert set(int(v) for v in labels) <= set(range(5))


def test_tied_costs_take_smallest_label():
    mesh = octahedron()
    costs = np.full((8, 3), 0.25)
    labels = optimize_labels(mesh, costs, TransferParams(omega=0.3))
    assert list(labels) == [0] * 8


def terrain(heights, cols):
    """Triangulated height field: vertex (i, j) at (j, i, heights[i*cols+j])."""
    rows = len(heights) // cols
    verts = [(float(j), float(i), heights[i * cols + j])
             for i in range(rows) for j in range(cols)]
    faces = []
    for i in range(rows - 1):
        for j in range(cols - 1):
            v = i * cols + j
            faces += [(v, v + 1, v + cols + 1), (v, v + cols + 1, v + cols)]
    return SurfaceMesh(np.array(verts), np.array(faces))


@st.composite
def labelings(draw, twice=False, omegas=(0.0, 0.3, 1.0), columns=4):
    """(mesh, costs, omega, labels) on a small terrain, with 1 to columns
    cost columns.

    Heights, costs and omega come from small pools as well as ranges, so
    coplanar faces, tied costs and tied boundary weights are common.  With
    twice the terrain may list one face twice, which puts parallel pairs
    in the pair table.
    """
    rows, cols = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    heights = draw(st.lists(st.one_of(st.sampled_from([0.0, 0.5, -1.0]),
                                      st.floats(-2.0, 2.0)),
                            min_size=rows * cols, max_size=rows * cols))
    mesh = terrain(heights, cols)
    if twice and draw(st.booleans()):
        last = len(mesh.faces) - 1
        mesh = with_face_twice(mesh, draw(st.integers(0, last)),
                               draw(st.integers(0, last + 1)))
    k = draw(st.integers(1, columns))
    num_faces = len(mesh.faces)
    cost = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 2.0))
    costs = np.array(draw(st.lists(st.lists(cost, min_size=k, max_size=k),
                                   min_size=num_faces, max_size=num_faces)))
    labels = np.array(draw(st.lists(st.integers(0, k - 1), min_size=num_faces,
                                    max_size=num_faces)))
    omega = draw(st.one_of(st.sampled_from(omegas), st.floats(0.0, 5.0)))
    return mesh, costs, omega, labels


@st.composite
def expansion_cases(draw):
    """(labels, alpha, costs, pairs, weights) of one move on a small terrain."""
    mesh, costs, omega, labels = draw(labelings())
    pairs, _ = mesh.dual_edges()
    return (labels, draw(st.integers(0, costs.shape[1] - 1)), costs, pairs,
            omega * _boundary_costs(mesh))


def expansion(labels, alpha, costs, pairs, weights):
    """The move of alpha from labels."""
    return _ExpansionMoves(costs, pairs, weights, labels).move(alpha)


def same_move(got, want):
    return (got is None and want is None) or (
        got is not None and want is not None and np.array_equal(got, want))


@settings(max_examples=200)
@given(case=expansion_cases())
def test_expansion_move_equals_the_forward_solve(case):
    got = expansion(*case)
    with mock.patch.object(transfer, "_min_cut_side", oracles.min_cut_side):
        want = expansion(*case)
    assert same_move(got, want)


def with_face_twice(mesh, face, at):
    """mesh with a copy of one face inserted at position at."""
    faces = mesh.faces.tolist()
    faces.insert(at, faces[face])
    return SurfaceMesh(mesh.vertices, np.array(faces))


@st.composite
def expansion_runs(draw):
    """(mesh, costs, omega, labels, alphas): a run of moves on a terrain.

    Moves without a positive arc (omega 0 with a cost column that ties the
    kept ones) and faces already labelled alpha are common.
    """
    mesh, costs, omega, labels = draw(labelings(twice=True,
                                                omegas=(0.0, 0.3, 1.0, 1e300)))
    alphas = draw(st.lists(st.integers(0, costs.shape[1] - 1), min_size=1,
                           max_size=8))
    return mesh, costs, omega, labels, alphas


def run_moves(mesh, costs, omega, labels, alphas):
    """Every move of alphas made both ways; each changed labeling is kept.

    Returns (moves that changed labels, moves without a positive arc,
    moves from a labeling that already had a face labelled alpha).
    """
    pairs, _ = mesh.dual_edges()
    weights = omega * _boundary_costs(mesh)
    moves = _ExpansionMoves(costs, pairs, weights, labels)
    arcs = []

    def spy(num_nodes, source, sink, tails, heads, caps):
        arcs.append(bool((np.asarray(caps) > 0.0).any()))
        return _min_cut_side(num_nodes, source, sink, tails, heads, caps)

    changed = at_alpha = 0
    with mock.patch.object(transfer, "_min_cut_side", spy):
        for alpha in alphas:
            want = oracles.expansion_move(labels, alpha, costs, pairs, weights)
            got = moves.move(alpha)
            assert same_move(got, want)
            at_alpha += bool((labels == alpha).any())
            if want is not None:
                changed += 1
                labels = want
                moves.relabel(labels)
    return changed, arcs.count(False), at_alpha


GATE_RUNS = [
    # face 2 listed twice, so three parallel pairs; tied costs
    (with_face_twice(terrain([0.0, 0.5, -1.0, 0.0, 0.5, 0.0, 1.0, -1.0, 0.0], 3),
                     2, 5),
     np.array([[0.25, 0.0, 1.0], [0.0, 0.25, 0.25], [1.0, 0.0, 0.0],
               [0.25, 0.25, 0.25], [0.0, 1.0, 0.25], [0.25, 0.0, 1.0],
               [1.0, 1.0, 0.0], [0.0, 0.25, 1.0], [0.25, 1.0, 0.0]]),
     0.3, np.array([0, 1, 2, 0, 1, 0, 2, 1, 0]), [0, 1, 2, 0, 2, 1, 0]),
    # omega 0 and a column that ties every kept cost: no positive arc
    (terrain([0.0, 0.5, 0.5, 0.0, 1.0, 0.0], 3),
     np.array([[0.5, 0.5], [0.25, 0.25], [1.0, 1.0], [0.0, 0.0]]), 0.0,
     np.array([0, 1, 0, 1]), [0, 1, 1, 0]),
]


@given(run=expansion_runs())
@example(run=GATE_RUNS[0])
@example(run=GATE_RUNS[1])
@example(run=(terrain([0.0] * 4, 2), np.array([[0.0, 0.0], [0.0, 5e-324]]),
              0.0, np.array([0, 0]), [0]))
def test_expansion_moves_equal_the_per_move_build(run):
    # every move equals the move that builds all its arrays afresh, also
    # after earlier moves changed the labeling; and so does optimize_labels
    mesh, costs, omega, labels, alphas = run
    run_moves(mesh, costs, omega, labels, alphas)
    assert np.array_equal(
        optimize_labels(mesh, costs, TransferParams(omega=omega)),
        oracles.optimize_labels(mesh, costs, omega))


def test_expansion_gate_runs_cover_parallel_pairs_and_empty_moves():
    pairs = GATE_RUNS[0][0].dual_edges()[0].tolist()
    assert max(pairs.count(pair) for pair in pairs) == 3
    assert run_moves(*GATE_RUNS[0]) == (2, 0, 6)
    assert run_moves(*GATE_RUNS[1]) == (3, 4, 2)


# --- boundary data on demand ------------------------------------------------
#
# optimize_labels builds the dual graph, the boundary costs and the move
# state only at the first move that can change a face, and skips a move
# whose alpha labels every face.  The oracle builds everything up front and
# tries every move; labels, accepted moves and errors must be the same.


@st.composite
def optimizations(draw):
    """(mesh, costs, omega) with 1 to 5 cost columns, C- or F-ordered.

    Half the tables get a column 0.25 below every other cost of its face,
    so their argmin has one label.  omega 1e308 makes moves overflow.
    """
    mesh, costs, omega, _ = draw(labelings(
        twice=True, omegas=(0.0, 0.3, 1.0, 1e300, 1e308), columns=5))
    if draw(st.booleans()):
        costs[:, draw(st.integers(0, costs.shape[1] - 1))] = (
            costs.min(axis=1) - 0.25)
    if draw(st.booleans()):
        costs = np.asfortranarray(costs)
    return mesh, costs, omega


def optimization(solve, *args):
    """(labels, accepted moves) of one call, or ValueError if it raises.

    Only the kind of error is compared: the oracle checks no capacity of
    its own, so an overflow reaches its cut and raises there.
    """
    trace = []
    try:
        return solve(*args, trace=trace).tolist(), trace
    except ValueError:
        return ValueError


ONE_LABEL = np.tile([0.5, 0.25, 1.0], (8, 1))


@settings(max_examples=200)
@given(case=optimizations())
@example(case=(octahedron(), np.zeros((8, 1)), 0.3))
@example(case=(octahedron(), ONE_LABEL, 1e308))
@example(case=(octahedron(), np.asfortranarray(ONE_LABEL), 0.3))
@example(case=(octahedron(), np.random.default_rng(13).uniform(size=(8, 5)),
               0.5))
def test_optimize_labels_equals_the_up_front_build(case):
    mesh, costs, omega = case
    got = optimization(optimize_labels, mesh, costs,
                       TransferParams(omega=omega))
    with np.errstate(over="ignore"):
        want = optimization(oracles.optimize_labels, mesh, costs, omega)
    assert got == want


def count_boundary_work(monkeypatch):
    """Calls of exterior_dihedrals, SurfaceMesh.dual_edges and the cut."""
    calls = dict.fromkeys(["exterior_dihedrals", "dual_edges", "cuts"], 0)

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(transfer, "exterior_dihedrals", counting(
        "exterior_dihedrals", transfer.exterior_dihedrals))
    monkeypatch.setattr(SurfaceMesh, "dual_edges", counting(
        "dual_edges", SurfaceMesh.dual_edges))
    monkeypatch.setattr(transfer, "_min_cut_side", counting(
        "cuts", transfer._min_cut_side))
    return calls


@pytest.mark.parametrize("costs,iterations,dihedrals,dual_edges,cuts", [
    # one column: every move is the identity
    (np.random.default_rng(2).uniform(size=(8, 1)), 10, 0, 0, 0),
    # one label and no move
    (ONE_LABEL, 0, 0, 0, 0),
    # one label: the moves of labels 0 and 2 are cut, label 1 is skipped
    (ONE_LABEL, 10, 1, 2, 2),
    # two labels: the boundary is built before the first move
    (np.vstack([ONE_LABEL[:4], ONE_LABEL[4:, [1, 0, 2]]]), 0, 1, 2, 0),
])
def test_boundary_data_is_built_only_for_a_move_that_can_change_a_face(
        monkeypatch, costs, iterations, dihedrals, dual_edges, cuts):
    calls = count_boundary_work(monkeypatch)
    labels = optimize_labels(octahedron(), costs,
                             TransferParams(max_iterations=iterations))
    assert np.array_equal(labels, np.argmin(costs, axis=1))
    assert calls == {"exterior_dihedrals": dihedrals,
                     "dual_edges": dual_edges, "cuts": cuts}


@pytest.mark.parametrize("labels,dual_edges", [
    ([3] * 8, 0),
    ([0] * 4 + [1] * 4, 1),
])
def test_boundary_length_reads_the_dual_graph_only_for_two_labels(
        monkeypatch, labels, dual_edges):
    calls = count_boundary_work(monkeypatch)
    length = boundary_length(octahedron(), labels)
    assert calls["dual_edges"] == dual_edges
    assert (length > 0.0) == (dual_edges > 0)


# --- transfer from regions --------------------------------------------------


def two_plates_setup():
    va, fa = quad_plate(0.0, 0)
    vb, fb = quad_plate(10.0, 4)
    mesh = SurfaceMesh(np.array(va + vb), np.array(fa + fb))
    mm = MedialMesh.build(
        [
            (0.0, 0.5, 0.5, 0.3),
            (0.5, 0.5, 0.5, 0.3),
            (10.0, 0.5, 0.5, 0.3),
            (10.5, 0.5, 0.5, 0.3),
        ],
        [(0, 1), (2, 3)],
        [],
    )
    g = build_graph(mm)
    regions = [
        Region(id=0, nodes=[0], seed=0, component_id=0),
        Region(id=5, nodes=[1], seed=1, component_id=1),
    ]
    return mesh, g, regions


def test_transfer_assigns_each_plate_its_region():
    mesh, g, regions = two_plates_setup()
    labels = transfer_labels(mesh, g, regions, TransferParams(omega=0.0))
    assert list(labels) == [0, 0, 5, 5]
    # the default smoothness weight must not flip well-separated plates
    labels = transfer_labels(mesh, g, regions)
    assert list(labels) == [0, 0, 5, 5]


def test_transfer_with_no_regions_raises():
    mesh, g, _ = two_plates_setup()
    with pytest.raises(NoSegments):
        transfer_labels(mesh, g, [])


@pytest.mark.parametrize("node", [-1, 2])
def test_transfer_rejects_a_node_outside_the_graph(node):
    mesh, g, regions = two_plates_setup()
    regions[1].nodes.append(node)
    with pytest.raises(ValueError, match=f"region 5: node {node} is outside "
                                         "the graph's 2 nodes"):
        transfer_labels(mesh, g, regions)


def test_data_table_matches_scalar_term():
    mesh, g, regions = two_plates_setup()
    table = data_table(mesh, g, regions)
    assert table.shape == (4, 2)
    assert table.flags.f_contiguous
    diag = mesh.diagonal()
    for f in range(4):
        for k, region in enumerate(regions):
            centers, radii = g.sphere_arrays(region.nodes)
            want = data_term(mesh.face_centroids()[f], centers, radii, diag)
            assert table[f, k] == pytest.approx(want, rel=1e-12)
