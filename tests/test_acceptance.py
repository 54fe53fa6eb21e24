"""Acceptance suite: eleven numbered end-to-end checks.

Each test is one acceptance criterion with its tolerance and budget stated
inline; `pytest -v` prints one pass/fail line per criterion.  Oracles are
local re-derivations (set arithmetic, exhaustive enumeration, closed-form
geometry), never calls back into the code under test.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from oracles import bounding_diagonal, elements
from segmat.geometry import slab_normals
from segmat import growing
from segmat.growing import (
    GrowingParams,
    Region,
    adjusted_threshold,
    cost_terms,
    grow,
)
from segmat.mat_graph import build_graph, pair_angles
from segmat.merging import RadiusHistogram, emd_1d, merge_matching
from segmat.mesh_io import MedialMesh, SurfaceMesh
from segmat.metrics import (
    Segmentation,
    consistency_error,
    cut_discrepancy,
    hamming,
    rand_index,
)
from segmat.pipeline import PipelineConfig, boundary_length, run_pipeline
from segmat.structure import assign_base_nodes, detect_joints, split_components
from segmat.transfer import (
    TransferParams,
    exterior_dihedrals,
    labeling_energy,
    optimize_labels,
)

# ---------------------------------------------------------------- fixtures


def medial(points, radii, edges=(), faces=()):
    spheres = [(*map(float, p), float(r)) for p, r in zip(points, radii)]
    return MedialMesh.build(spheres, list(edges), list(faces))


def grid_mesh(x0, x1, y0, y1, step=1.0):
    """Flat triangulated rectangle in the z=0 plane."""
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


def fan_mesh(count):
    """Triangle fan with irregular face areas and varied fold angles."""
    pts = [(0.0, 0.0, 0.0)]
    for i in range(count + 1):
        angle = 2.6 * i / (count + 1)
        radius = 1.0 + 0.35 * i
        pts.append((radius * math.cos(angle), radius * math.sin(angle),
                    0.3 * math.sin(2.0 * i + 1.0)))
    faces = [(0, i + 1, i + 2) for i in range(count)]
    return SurfaceMesh(np.array(pts), np.array(faces))


def dumbbell_mat(spikes=0):
    """200-node chain: radius-4 blob, radius-1 neck, radius-4 blob.

    The radius jumps sit on the edges (66, 67) and (132, 133).  Optional
    single-node spikes hang off the blob chains, flush inside a blob
    sphere (offset 3.5, radius 0.5, so containment and cone validity both
    hold with equality).
    """
    pts, radii = [], []
    for i in range(67):
        pts.append((float(i), 0.0, 0.0))
        radii.append(4.0)
    for i in range(66):
        pts.append((71.0 + i, 0.0, 0.0))
        radii.append(1.0)
    for i in range(67):
        pts.append((141.0 + i, 0.0, 0.0))
        radii.append(4.0)
    edges = [(i, i + 1) for i in range(199)]
    anchors = []
    per_blob = spikes // 2
    anchors += [6 * (k + 1) for k in range(per_blob)]
    anchors += [133 + 6 * (k + 1) for k in range(spikes - per_blob)]
    for a in anchors:
        x, _, _ = pts[a]
        pts.append((x, 3.5, 0.0))
        radii.append(0.5)
        edges.append((a, len(pts) - 1))
    return medial(pts, radii, edges=edges)


def dumbbell_mesh(step=2.0):
    return grid_mesh(-5.0, 212.0, -6.0, 6.0, step=step)


def bent_l_mat():
    """Thin bent arm meeting a thick spiked arm across a radius jump."""
    pts, radii, edges = [], [], []

    def add(p, r):
        pts.append(p)
        radii.append(r)
        return len(pts) - 1

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
    edges.append((thick[1], add((10.8, 16.0, 0.0), 0.4)))
    edges.append((thick[7], add((3.2, 40.0, 0.0), 0.4)))
    return medial(pts, radii, edges=edges)


def bent_l_mesh():
    return grid_mesh(-2.0, 10.0, -2.0, 46.0)


def ellipsoid_mesh(sectors, stacks, center, axes):
    """Closed UV-ellipsoid with 2 * sectors * (stacks - 1) faces."""
    cx, cy, cz = center
    ax, ay, az = axes
    pts = [(cx + ax, cy, cz)]
    for i in range(1, stacks):
        phi = math.pi * i / stacks
        for j in range(sectors):
            theta = 2.0 * math.pi * j / sectors
            pts.append((cx + ax * math.cos(phi),
                        cy + ay * math.sin(phi) * math.cos(theta),
                        cz + az * math.sin(phi) * math.sin(theta)))
    pts.append((cx - ax, cy, cz))
    last = len(pts) - 1

    def ring(i, j):
        return 1 + (i - 1) * sectors + (j % sectors)

    faces = []
    for j in range(sectors):
        faces.append((0, ring(1, j + 1), ring(1, j)))
    for i in range(1, stacks - 1):
        for j in range(sectors):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j + 1), ring(i + 1, j)
            faces.append((a, b, c))
            faces.append((a, c, d))
    for j in range(sectors):
        faces.append((last, ring(stacks - 1, j), ring(stacks - 1, j + 1)))
    return SurfaceMesh(np.array(pts), np.array(faces, dtype=int))


def canonical(labels):
    """Renumber labels by first appearance so runs compare positionally."""
    seen = {}
    return [seen.setdefault(int(v), len(seen)) for v in labels]


def sphere_gaps(centroids, spheres):
    centers, radii = spheres[:, :3], spheres[:, 3]
    d = np.linalg.norm(centroids[:, None, :] - centers[None, :, :], axis=2)
    return (d - radii[None, :]).min(axis=1)


def label_changes(labels):
    return [i for i in range(len(labels) - 1) if labels[i] != labels[i + 1]]


# --------------------------------------------------------------- criteria


def test_01_slab_tangency_residual_below_1e9_of_diagonal():
    """1000 random sphere triples: both tangent planes touch every sphere
    to within 1e-9 of the triple's bounding diagonal, in under a second."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    center_rows, radius_rows = [], []
    for _ in range(1000):
        while True:
            centers = rng.uniform(-5.0, 5.0, (3, 3))
            e1 = centers[1] - centers[0]
            e2 = centers[2] - centers[0]
            dmin = min(np.linalg.norm(e1), np.linalg.norm(e2),
                       np.linalg.norm(centers[2] - centers[1]))
            area = 0.5 * np.linalg.norm(np.cross(e1, e2))
            if dmin >= 1.0 and area >= 0.3 * dmin * dmin:
                break
        center_rows.append(centers)
        radius_rows.append(rng.uniform(0.05, 0.15, 3) * dmin)
    centers, radii = np.array(center_rows), np.array(radius_rows)
    normals = slab_normals(centers, radii)
    for c, r, planes in zip(centers, radii, normals):
        budget = 1e-9 * bounding_diagonal(c, r)
        for n in planes:
            offset = r[0] - n @ c[0]
            residual = np.abs(np.abs(c @ n + offset) - r).max()
            assert residual < budget
    assert time.perf_counter() - start < 1.0


def test_02_cost_formula_golden_values_and_defaults(monkeypatch):
    """Hand-evaluated cost goldens at 1e-12 plus the default constants."""

    def terms(graph):
        # one (ma, mp) row per adjacent pair; none of these pairs faults
        ma, mp, faults = cost_terms(graph)
        assert faults == {}
        return ma, mp

    jump = medial([(0, 0, 0), (4, 0, 0), (8, 0, 0)], [1, 1, 3],
                  edges=[(0, 1), (1, 2)])
    g = build_graph(jump)
    # node mean radii 1 and 2, collinear chain: pure radius-variation term
    assert terms(g)[0][0] == pytest.approx(1.0, abs=1e-12)

    bend = medial([(0, 0, 0), (1, 0, 0), (1, 1, 0)], [1, 1, 1],
                  edges=[(0, 1), (1, 2)])
    gb = build_graph(bend)
    # equal radii, right-angle bend: alpha * (pi - pi/2) / pi = 0.025
    assert terms(gb)[0][0] == pytest.approx(0.025, abs=1e-12)

    hinge = medial([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)], [0.2] * 4,
                   faces=[(0, 1, 2), (0, 1, 3)])
    gh = build_graph(hinge)
    # right-angle hinge of equal-radius slabs folds (pi/2, pi/2)
    assert terms(gh)[1][0] == pytest.approx(0.5, abs=1e-12)

    flat = medial([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)], [0.2] * 4,
                  faces=[(0, 1, 2), (1, 2, 3)])
    gf = build_graph(flat)
    assert terms(gf)[1][0] == pytest.approx(0.0, abs=1e-12)

    def primitive_cost(angle_plus, angle_minus):
        # the primitive term of the hinge pair given these angles
        bend_h = pair_angles(gh)[0]
        monkeypatch.setattr(growing, "pair_angles", lambda _: (
            bend_h, np.array([angle_plus]), np.array([angle_minus])))
        return terms(gh)[1][0]

    assert primitive_cost(math.pi / 2, math.pi / 2) == pytest.approx(
        0.5, abs=1e-12)
    # a straight fold on one side still sums half a turn over 2*pi
    assert primitive_cost(math.pi, 0.0) == pytest.approx(0.5, abs=1e-12)
    monkeypatch.undo()

    p = GrowingParams()
    for mm, graph in ((jump, g), (bend, gb), (hinge, gh), (flat, gf)):
        ma, mp = terms(graph)
        expected = np.array([min(a, p.lam * b) for a, b in zip(ma, mp)])
        # grow reads min(ma, lam * mp) per pair
        comps = split_components(mm, detect_joints(mm))
        assign_base_nodes(graph, comps)
        assert grow(graph, comps, p) == grow(graph, comps, p,
                                             costs=expected)
    # min(ma, lam * mp) with ma = 1.0, mp = 0.5 lands on the primitive route
    assert min(1.0, p.lam * 0.5) == pytest.approx(0.75, abs=1e-12)

    d0 = 0.015
    assert adjusted_threshold(d0, math.exp(2.0)) == pytest.approx(
        d0, abs=1e-12)
    assert adjusted_threshold(d0, math.exp(4.0)) == pytest.approx(
        4.0 * d0, abs=1e-12)

    assert p.alpha == 0.05
    assert p.lam == 1.5
    assert p.delta0 == 0.015
    assert p.eta == 0.002
    assert TransferParams().omega == 0.3


def test_03_dumbbell_three_regions_with_boundaries_at_radius_jumps():
    """200-node dumbbell: exactly 3 regions, label changes within one node
    of the radius jumps, pipeline under one second."""
    mat = dumbbell_mat()
    mesh = dumbbell_mesh()
    start = time.perf_counter()
    result = run_pipeline(mesh, mat, structured=mat)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert len(result.regions) == 3
    node_labels = canonical(result.node_labels)
    assert len(set(node_labels)) == 3
    changes = label_changes(node_labels)
    assert len(changes) == 2
    assert abs(changes[0] - 66) <= 1
    assert abs(changes[1] - 132) <= 1


def chain_cone_labels(result, sphere_count):
    """Labels of the original chain cones keyed by sphere pair, so the two
    runs compare the same cone even though extra edges shift node ids."""
    by_low = {}
    for v, element in enumerate(elements(result.graph)):
        el = sorted(element)
        if len(el) == 2 and el[1] == el[0] + 1 and el[1] < sphere_count:
            by_low[el[0]] = int(result.node_labels[v])
    return canonical([by_low[i] for i in range(sphere_count - 1)])


def test_04_twenty_spikes_leave_count_and_95pct_of_labels_unchanged():
    """Spiked dumbbell keeps the region count and at least 95% of the
    original chain's node labels."""
    mesh = dumbbell_mesh()
    clean = run_pipeline(mesh, dumbbell_mat(), structured=dumbbell_mat())
    spiked_mat = dumbbell_mat(spikes=20)
    assert len(spiked_mat.spheres) == 220
    spiked = run_pipeline(mesh, spiked_mat, structured=spiked_mat)

    assert len(spiked.regions) == len(clean.regions) == 3
    before = chain_cone_labels(clean, 200)
    after = chain_cone_labels(spiked, 200)
    same = sum(1 for a, b in zip(before, after) if a == b)
    assert same >= 0.95 * len(before)


def test_05_expansion_reaches_the_exhaustive_minimum():
    """200 random small labeling problems: the expansion result equals the
    exhaustive optimum in at least 95%, never exceeds twice it, and its
    energy never increases move to move."""
    rng = np.random.default_rng(55)
    meshes = {n: fan_mesh(n) for n in range(3, 11)}
    params = TransferParams()
    exact = 0
    for _ in range(200):
        n = int(rng.integers(3, 11))
        segments = int(rng.integers(1, 4))
        mesh = meshes[n]
        costs = rng.random((n, segments))

        trace = []
        labels = optimize_labels(mesh, costs, params, trace)
        energy = labeling_energy(mesh, labels, costs, params.omega)

        space = np.array(list(itertools.product(range(segments), repeat=n)))
        data = costs[np.arange(n)[None, :], space].sum(axis=1)
        pairs, _ = mesh.dual_edges()
        weights = params.omega * np.minimum(
            exterior_dihedrals(mesh) / np.pi, 1.0)
        smooth = ((space[:, pairs[:, 0]] != space[:, pairs[:, 1]])
                  * weights[None, :]).sum(axis=1)
        best = float((data + smooth).min())

        assert energy <= 2.0 * best + 1e-12
        if energy <= best + 1e-9:
            exact += 1

        start = labeling_energy(mesh, np.argmin(costs, axis=1), costs,
                                params.omega)
        series = [start] + [e for _, e in trace]
        for a, b in zip(series, series[1:]):
            assert b <= a + 1e-12
        assert series[-1] == pytest.approx(energy, abs=1e-12)
    assert exact >= 190


def oracle_rand(a, b):
    n = len(a)
    disagree = total = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += 1
            if (a[i] == a[j]) != (b[i] == b[j]):
                disagree += 1
    return disagree / total if total else 0.0


def oracle_hamming(a, b, areas):
    def segments(labels):
        out = {}
        for f, v in enumerate(labels):
            out.setdefault(v, set()).add(f)
        return list(out.values())

    def area(faces):
        return sum(areas[f] for f in faces)

    def directed(src, dst):
        return sum(area(s) - max(area(s & t) for t in dst) for s in src)

    sa, sb = segments(a), segments(b)
    total = float(sum(areas))
    false_alarm = directed(sa, sb) / total
    missing = directed(sb, sa) / total
    return 0.5 * (missing + false_alarm), missing, false_alarm


def oracle_consistency(a, b, areas):
    n = len(a)
    total = float(sum(areas))
    e_ab, e_ba = [], []
    for f in range(n):
        ra = {i for i in range(n) if a[i] == a[f]}
        rb = {i for i in range(n) if b[i] == b[f]}
        e_ab.append(sum(areas[i] for i in ra - rb)
                    / sum(areas[i] for i in ra))
        e_ba.append(sum(areas[i] for i in rb - ra)
                    / sum(areas[i] for i in rb))
    gce = min(sum(areas[f] * e_ab[f] for f in range(n)),
              sum(areas[f] * e_ba[f] for f in range(n))) / total
    lce = sum(areas[f] * min(e_ab[f], e_ba[f]) for f in range(n)) / total
    return gce, lce


def test_06_benchmark_metrics_match_set_arithmetic_oracles():
    """500 random small labelings: rand/hamming/consistency agree with
    local brute-force oracles, LCE <= GCE, and identical inputs score 0."""
    rng = np.random.default_rng(66)
    meshes = {n: fan_mesh(n) for n in range(2, 9)}
    for _ in range(500):
        n = int(rng.integers(2, 9))
        mesh = meshes[n]
        areas = mesh.face_areas()
        la = rng.integers(0, int(rng.integers(1, 5)) + 1, n).tolist()
        lb = rng.integers(0, int(rng.integers(1, 5)) + 1, n).tolist()
        sa = Segmentation.build(mesh, la)
        sb = Segmentation.build(mesh, lb)

        assert rand_index(sa, sb) == oracle_rand(la, lb)

        got = hamming(sa, sb)
        want = oracle_hamming(la, lb, areas)
        for g, w in zip(got, want):
            assert g == pytest.approx(w, abs=1e-12)

        gce, lce = consistency_error(sa, sb)
        ogce, olce = oracle_consistency(la, lb, areas)
        assert gce == pytest.approx(ogce, abs=1e-12)
        assert lce == pytest.approx(olce, abs=1e-12)
        assert lce <= gce + 1e-12

        assert rand_index(sa, sa) == 0.0
        assert hamming(sa, sa) == (0.0, 0.0, 0.0)
        assert consistency_error(sa, sa) == (0.0, 0.0)
        assert cut_discrepancy(sa, sa) == 0.0


def test_07_emd_axioms_and_merge_idempotence():
    """1000 random histogram triples satisfy the metric axioms at 1e-12;
    re-running the merge pass on 50 random region graphs changes nothing."""
    rng = np.random.default_rng(77)
    for _ in range(1000):
        rows = rng.random((3, 32))
        rows /= rows.sum(axis=1, keepdims=True)
        ha, hb, hc = (RadiusHistogram(row, (0.0, 1.0)) for row in rows)
        dab = emd_1d(ha, hb)
        dbc = emd_1d(hb, hc)
        dac = emd_1d(ha, hc)
        assert dab >= 0.0
        assert abs(dab - emd_1d(hb, ha)) <= 1e-12
        assert emd_1d(ha, ha) == 0.0
        assert dac <= dab + dbc + 1e-12

    for seed in range(50):
        sub = np.random.default_rng(700 + seed)
        count = int(sub.integers(12, 40))
        radii = sub.uniform(0.5, 2.0, count)
        pts = [(2.0 * i, 0.0, 0.0) for i in range(count)]
        g = build_graph(medial(pts, radii,
                               edges=[(i, i + 1) for i in range(count - 1)]))
        nodes = len(g)  # cones, one per chain edge
        cuts = sorted(sub.choice(np.arange(1, nodes),
                                 size=int(sub.integers(1, 6)),
                                 replace=False).tolist())
        bounds = [0] + cuts + [nodes]
        regions = [Region(k, list(range(bounds[k], bounds[k + 1])),
                          bounds[k], 0)
                   for k in range(len(bounds) - 1)]
        once = merge_matching(g, regions)
        twice = merge_matching(g, once)
        assert [r.id for r in twice] == [r.id for r in once]
        assert [sorted(r.nodes) for r in twice] == [
            sorted(r.nodes) for r in once]


def test_08_disabling_each_stage_degrades_its_own_target():
    """On the spiked two-arm fixture: no swallowing and no merging each
    strictly raise the region count; no graph cut strictly lengthens the
    label boundary."""
    mat = bent_l_mat()
    mesh = bent_l_mesh()
    full = run_pipeline(mesh, mat, structured=mat)

    no_swallow = run_pipeline(mesh, mat, structured=mat,
                              config=PipelineConfig(swallowing=False))
    assert len(no_swallow.regions) > len(full.regions)

    no_merge = run_pipeline(mesh, mat, structured=mat,
                            config=PipelineConfig(merging=False))
    assert len(no_merge.regions) > len(full.regions)

    no_cut = run_pipeline(mesh, mat, structured=mat,
                          config=PipelineConfig(graphcut=False))
    full_boundary = boundary_length(mesh, full.labels)
    raw_boundary = boundary_length(mesh, no_cut.labels)
    assert full_boundary > 0.0
    assert raw_boundary > full_boundary


def test_09_uniform_scaling_by_10x_keeps_labelings_identical():
    """Scaling mesh and MAT by 10 changes no face or node label."""
    for make_mat, make_mesh in ((dumbbell_mat, dumbbell_mesh),
                                (bent_l_mat, bent_l_mesh)):
        mat = make_mat()
        mesh = make_mesh()
        scaled_mat = MedialMesh.build(10.0 * mat.spheres, mat.edges, mat.faces)
        scaled_mesh = SurfaceMesh(mesh.vertices * 10.0, mesh.faces)

        base = run_pipeline(mesh, mat, structured=mat)
        scaled = run_pipeline(scaled_mesh, scaled_mat, structured=scaled_mat)
        assert np.array_equal(base.labels, scaled.labels)
        assert np.array_equal(base.node_labels, scaled.node_labels)


def test_10_full_pipeline_on_20k_faces_and_5k_mat_elements_under_10s():
    """20000-face ellipsoid plus a 5001-element medial chain, simplify
    included, completes in under ten seconds."""
    count = 2501
    xs = np.arange(count, dtype=float)
    t = xs / (count - 1)
    ramp_down = np.clip((t - 0.30) / 0.05, 0.0, 1.0)
    ramp_up = np.clip((t - 0.65) / 0.05, 0.0, 1.0)
    radii = 4.0 - 3.0 * ramp_down + 3.0 * ramp_up
    mat = medial([(x, 0.0, 0.0) for x in xs], radii,
                 edges=[(i, i + 1) for i in range(count - 1)])
    assert len(mat.spheres) + len(mat.edges) == 5001

    mesh = ellipsoid_mesh(sectors=100, stacks=101,
                          center=(1250.0, 0.0, 0.0), axes=(1260.0, 9.0, 9.0))
    assert len(mesh.faces) == 20000

    start = time.perf_counter()
    result = run_pipeline(mesh, mat)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    assert result.labels.shape == (20000,)
    assert len(result.regions) >= 1
    assert "simplify" in result.timings


def sweep_configs():
    factors = [0.85 + 0.05 * k for k in range(7)]
    for f in factors:
        yield PipelineConfig(growing=GrowingParams(alpha=0.05 * f))
        yield PipelineConfig(growing=GrowingParams(lam=1.5 * f))
        yield PipelineConfig(transfer=TransferParams(omega=0.3 * f))


def test_11_parameter_sweeps_move_rand_index_by_at_most_0_02():
    """alpha, lam, omega swept one at a time over +-15% in 5% steps: the
    Rand index against fixture ground truth stays within 0.02 of the
    default run's, on both fixtures."""
    mat_l = bent_l_mat()
    mesh_l = bent_l_mesh()
    thin = mat_l.spheres[mat_l.radii() == 1.0]
    thick = mat_l.spheres[mat_l.radii() == 4.0]
    cl = mesh_l.face_centroids()
    gt_l = (sphere_gaps(cl, thick) < sphere_gaps(cl, thin)).astype(int)

    mat_d = dumbbell_mat()
    mesh_d = dumbbell_mesh()
    blob1 = mat_d.spheres[:67]
    neck = mat_d.spheres[67:133]
    blob2 = mat_d.spheres[133:]
    cd = mesh_d.face_centroids()
    gaps = np.stack([sphere_gaps(cd, part)
                     for part in (blob1, neck, blob2)], axis=1)
    gt_d = np.argmin(gaps, axis=1)

    for mesh, mat, gt in ((mesh_l, mat_l, gt_l), (mesh_d, mat_d, gt_d)):
        truth = Segmentation.build(mesh, gt)
        base = run_pipeline(mesh, mat, structured=mat)
        ri_base = rand_index(Segmentation.build(mesh, base.labels), truth)
        for config in sweep_configs():
            swept = run_pipeline(mesh, mat, structured=mat, config=config)
            ri = rand_index(Segmentation.build(mesh, swept.labels), truth)
            assert abs(ri - ri_base) <= 0.02
