"""Tests for surface label transfer: data/smooth terms, min cut, expansion."""

import itertools
import math

import numpy as np
import pytest

from segmat import transfer
from segmat.growing import Region
from segmat.mat_graph import build_graph
from segmat.mesh_io import MedialMesh, SurfaceMesh
from segmat.transfer import (
    NoSegments,
    TransferParams,
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


def min_cut(num_nodes, source, sink, arcs):
    """Cut value and source side that _min_cut_side finds for (u, v, c) arcs."""
    tails = [u for u, _, _ in arcs]
    heads = [v for _, v, _ in arcs]
    caps = [c for _, _, c in arcs]
    side = _min_cut_side(num_nodes, source, sink, tails, heads, caps)
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


def test_omega_zero_reduces_to_argmin():
    mesh = octahedron()
    rng = np.random.default_rng(9)
    costs = rng.uniform(size=(8, 3))
    labels = optimize_labels(mesh, costs, TransferParams(omega=0.0))
    assert np.array_equal(labels, np.argmin(costs, axis=1))


@pytest.mark.parametrize("omega", [-0.5, math.nan, math.inf, -math.inf])
def test_omega_outside_finite_non_negative_range_raises(omega):
    mesh = octahedron()
    with pytest.raises(ValueError, match="omega must be a finite"):
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


def test_data_table_matches_scalar_term():
    mesh, g, regions = two_plates_setup()
    table = data_table(mesh, g, regions)
    assert table.shape == (4, 2)
    diag = mesh.diagonal()
    for f in range(4):
        for k, region in enumerate(regions):
            centers, radii = g.sphere_arrays(region.nodes)
            want = data_term(mesh.face_centroids()[f], centers, radii, diag)
            assert table[f, k] == pytest.approx(want, rel=1e-12)
