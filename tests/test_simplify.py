import math

import numpy as np
import pytest

import oracles
from segmat import mat_simplify
from segmat.mat_simplify import EmptyInput, SimplifyParams, collapse_cost, simplify
from segmat.mesh_io import MedialMesh, ParseError


def chain(radii, spacing=2.0):
    spheres = [(i * spacing, 0.0, 0.0, r) for i, r in enumerate(radii)]
    edges = [(i, i + 1) for i in range(len(radii) - 1)]
    return MedialMesh.build(spheres, edges, [])


def strip(n=30, width=0.2, radius=0.3):
    """Two parallel rails of spheres triangulated into a thin sheet."""
    spheres = []
    for i in range(n):
        spheres.append((float(i), 0.0, 0.0, radius))
        spheres.append((float(i), width, 0.0, radius))
    faces = []
    for i in range(n - 1):
        a, b = 2 * i, 2 * i + 1
        c, d = 2 * i + 2, 2 * i + 3
        faces.append((a, b, c))
        faces.append((b, c, d))
    return MedialMesh.build(spheres, [], faces)


def plate(n=6, spacing=1.0, radius=0.5):
    spheres = [(x * spacing, y * spacing, 0.0, radius)
               for y in range(n) for x in range(n)]
    faces = []
    for y in range(n - 1):
        for x in range(n - 1):
            a = y * n + x
            faces.append((a, a + 1, a + n))
            faces.append((a + 1, a + n, a + n + 1))
    return MedialMesh.build(spheres, [], faces)


def sample_sphere_field(mm, per_element=9):
    """Interpolated (center, radius) samples across all elements."""
    out = []
    c = mm.centers()
    r = mm.radii()
    for a, b in mm.edges:
        for t in np.linspace(0.0, 1.0, per_element):
            out.append(np.concatenate([(1 - t) * c[a] + t * c[b],
                                       [(1 - t) * r[a] + t * r[b]]]))
    for tri in mm.faces:
        for u in np.linspace(0.0, 1.0, 5):
            for v in np.linspace(0.0, 1.0 - u, 4):
                w = 1.0 - u - v
                center = u * c[tri[0]] + v * c[tri[1]] + w * c[tri[2]]
                rad = u * r[tri[0]] + v * r[tri[1]] + w * r[tri[2]]
                out.append(np.concatenate([center, [rad]]))
    return np.array(out)


def field_deviation(mm_from, mm_to):
    """One-sided Hausdorff between the two medial sphere fields.

    The envelope displacement is bounded by center motion plus radius
    change, so this dominates the reconstruction error.
    """
    src = sample_sphere_field(mm_from)
    dst = sample_sphere_field(mm_to)
    worst = 0.0
    for s in src:
        d = np.linalg.norm(dst[:, :3] - s[:3], axis=1) + np.abs(dst[:, 3] - s[3])
        worst = max(worst, float(d.min()))
    return worst


def component_count(mm):
    parent = list(range(len(mm.spheres)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in mm.edges:
        parent[find(a)] = find(b)
    used = {v for e in mm.edges for v in e} | {v for f in mm.faces for v in f}
    return len({find(v) for v in used})


def test_collapse_of_identical_spheres_costs_zero():
    mm = MedialMesh.build(
        [(1.0, 2.0, 3.0, 0.7), (1.0, 2.0, 3.0, 0.7), (5.0, 2.0, 3.0, 0.7)],
        [(0, 1), (1, 2)], [])
    assert collapse_cost(mm, (0, 1)) == 0.0


def test_collapse_cost_non_negative_and_rejects_non_edges():
    rng = np.random.default_rng(5)
    mm = chain(rng.uniform(0.2, 1.0, 8))
    for e in mm.edges:
        assert collapse_cost(mm, e) >= 0.0
    with pytest.raises(ValueError):
        collapse_cost(mm, (0, 5))


@pytest.mark.parametrize("edge", [(0.9, 1.2), (0, 1, 2), ("0", "1"), (0,)],
                         ids=["floats", "three-indices", "strings", "one-index"])
def test_collapse_cost_takes_exactly_two_integral_indices(edge):
    with pytest.raises(ValueError, match="two integral vertex indices"):
        collapse_cost(chain([0.5] * 4), edge)


@pytest.mark.parametrize("target_error", [1e160, 1e308, math.inf])
def test_an_error_bound_whose_square_overflows_raises(target_error):
    # The diagonal is about 7.1: at 1e160 the bound is finite but its
    # square is not, and at 1e308 the bound itself overflows.
    with pytest.raises(ValueError, match="whose square overflows"):
        simplify(chain([0.5] * 4), SimplifyParams(target_error=target_error))


def test_collapse_cost_rejects_a_non_finite_diagonal():
    # every coordinate is finite, but the bounding box is not
    mm = MedialMesh.build([(0.0, 0.0, 0.0, 1.0), (1e308, 0.0, 0.0, 1.0),
                           (-1e308, 0.0, 0.0, 1.0)], [(0, 1), (0, 2)], [])
    with pytest.raises(ParseError, match="non-finite diagonal"):
        collapse_cost(mm, (0, 1))


def test_thin_strip_becomes_a_curve_chain():
    mm = strip()
    out = simplify(mm, SimplifyParams(target_error=0.03))
    assert len(out.faces) == 0
    assert len(out.edges) > 0
    assert component_count(out) == 1
    diag = mm.diagonal()
    assert field_deviation(mm, out) < 0.03 * diag


def test_wide_plate_keeps_at_least_one_face():
    mm = plate()
    out = simplify(mm, SimplifyParams(target_error=0.03))
    assert len(out.faces) >= 1
    assert field_deviation(mm, out) < 0.03 * mm.diagonal()


def test_coarse_chain_is_returned_unchanged():
    mm = chain([0.4, 0.45, 0.4, 0.35, 0.4, 0.45, 0.4, 0.35, 0.4, 0.45])
    out = simplify(mm, SimplifyParams(target_error=0.03))
    assert np.array_equal(out.spheres, mm.spheres)
    assert np.array_equal(out.edges, mm.edges)
    assert np.array_equal(out.faces, mm.faces)


def test_empty_input_raises():
    mm = MedialMesh.build([(0.0, 0.0, 0.0, 1.0)], [], [])
    with pytest.raises(EmptyInput):
        simplify(mm)


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_radius_raises(value):
    mm = chain([0.4, value, 0.4])
    with pytest.raises(ValueError, match="non-finite sphere radius"):
        simplify(mm)


def naive_greedy_chain(mm, target_error):
    """Reference collapse order on a pure curve chain, no queue machinery."""
    spheres = dict(enumerate(mm.spheres))
    edges = set(map(tuple, mm.edges.tolist()))
    acc = {i: 0.0 for i in spheres}
    bound_sq = (target_error * mm.diagonal()) ** 2
    ts = np.linspace(0.0, 1.0, 17)
    order = []
    while edges:
        best = None
        for a, b in sorted(edges):
            count_a = sum(1 for e in edges if a in e)
            count_b = sum(1 for e in edges if b in e)
            costs = []
            for t in ts:
                m = (1 - t) * spheres[a] + t * spheres[b]
                costs.append(count_a * float(((m - spheres[a]) ** 2).sum())
                             + count_b * float(((m - spheres[b]) ** 2).sum()))
            k = int(np.argmin(costs))
            total = costs[k] + acc[a] + acc[b]
            if best is None or (total, a, b) < best[:3]:
                best = (total, a, b, float(ts[k]), costs[k])
        total, a, b, t, fresh = best
        if total > bound_sq:
            break
        # would the chain vanish entirely?
        if len(edges) == 1:
            break
        spheres[a] = (1 - t) * spheres[a] + t * spheres[b]
        acc[a] = acc[a] + acc[b] + fresh
        edges.discard((a, b))
        edges = {(min(a if v == b else v, w if w != b else a),
                  max(a if v == b else v, w if w != b else a))
                 for v, w in edges}
        edges = {e for e in edges if e[0] != e[1]}
        order.append(((a, b), total))
    return order


def test_chain_collapse_order_matches_naive_greedy():
    rng = np.random.default_rng(17)
    radii = rng.uniform(0.3, 0.8, 10)
    offsets = rng.uniform(-0.3, 0.3, 10)
    spheres = [(2.0 * i + float(o), 0.0, 0.0, float(r))
               for i, (o, r) in enumerate(zip(offsets, radii))]
    mm = MedialMesh.build(spheres, [(i, i + 1) for i in range(9)], [])
    expected = naive_greedy_chain(mm, target_error=0.25)
    assert len(expected) >= 3  # the fixture must actually exercise ordering

    trace = []
    simplify(mm, SimplifyParams(target_error=0.25), trace=trace)
    got = [(e, c) for e, c, _ in trace]
    assert [e for e, _ in got] == [e for e, _ in expected]
    for (_, ca), (_, cb) in zip(got, expected):
        assert ca == pytest.approx(cb, abs=1e-12)


def test_face_count_never_increases_and_radii_stay_convex():
    mm = strip(n=12)
    r_lo = min(mm.radii())
    r_hi = max(mm.radii())
    out = simplify(mm, SimplifyParams(target_error=0.05))
    assert len(out.faces) <= len(mm.faces)
    assert len(out.faces) + len(out.edges) <= len(mm.faces) + len(mm.edges)
    for radius in out.radii():
        assert r_lo - 1e-12 <= radius <= r_hi + 1e-12


def two_chains():
    a = chain([0.3, 0.32, 0.3, 0.31], spacing=0.5)
    shift = len(a.spheres)
    moved = [(x + 50.0, 10.0, 0.0, r) for x, _, _, r in a.spheres.tolist()]
    edges = np.concatenate([a.edges, a.edges + shift])
    return MedialMesh.build(np.concatenate([a.spheres, moved]), edges, [])


def test_component_count_is_preserved():
    out = simplify(two_chains(), SimplifyParams(target_error=0.5))
    assert component_count(out) == 2
    assert len(out.edges) >= 2


def test_simplify_is_deterministic():
    mm = strip(n=20)
    p = SimplifyParams(target_error=0.03)
    out1 = simplify(mm, p)
    out2 = simplify(mm, p)
    assert np.array_equal(out1.spheres, out2.spheres)
    assert np.array_equal(out1.edges, out2.edges)
    assert np.array_equal(out1.faces, out2.faces)


def test_average_error_mode_simplifies_at_least_as_much():
    mm = strip(n=20)
    per = simplify(mm, SimplifyParams(target_error=0.02))
    avg = simplify(mm, SimplifyParams(target_error=0.02, average_error=True))
    n_per = len(per.faces) + len(per.edges)
    n_avg = len(avg.faces) + len(avg.edges)
    assert n_avg <= n_per


def counted_pairs(pairs):
    """Edges (2i, 2i + 1), one per (n_a, n_b, sphere_a, sphere_b) in pairs,
    whose endpoints carry n_a and n_b standalone edges."""
    spheres = [s for _, _, sa, sb in pairs for s in (sa, sb)]
    edges = [(2 * i, 2 * i + 1) for i in range(len(pairs))]
    for i, (n_a, n_b, _, _) in enumerate(pairs):
        for end, count in ((2 * i, n_a), (2 * i + 1, n_b)):
            for _ in range(count - 1):
                spheres.append((0.0, 0.0, 9.0, 1.0))
                edges.append((end, len(spheres) - 1))
    return MedialMesh.build(spheres, edges, [])


def counted_pair(n_a, n_b, sphere_a, sphere_b):
    """Edge (0, 1) whose endpoints carry n_a and n_b standalone edges."""
    return counted_pairs([(n_a, n_b, sphere_a, sphere_b)])


def score_edges(mm, edges):
    """mat_simplify._score over edges of mm as one batch, as lists of costs
    and of t."""
    ab = np.array(edges, dtype=np.intp).reshape(-1, 2)
    return mat_simplify._score(mm.spheres, mat_simplify._counts(mm).tolist(),
                               ab[:, 0].tolist(), ab[:, 1].tolist())


def test_closed_form_cost_matches_stacked_oracle():
    rng = np.random.default_rng(23)
    pairs = []
    for n_a in range(1, 41):
        for n_b in range(1, 41):
            sa, sb = ((*rng.uniform(-1.0, 1.0, 3), float(rng.uniform(0.1, 1.0)))
                      for _ in range(2))
            pairs.append((n_a, n_b, sa, sb))
    mm = counted_pairs(pairs)
    edges = [(2 * i, 2 * i + 1) for i in range(len(pairs))]
    costs, ts = score_edges(mm, edges)
    ab = np.array(edges)
    state = oracles.SimplifyState(mm)
    ref_costs, ref_ts = oracles.batch_of(oracles.stacked_collapse_cost)(
        state.spheres, state.count, ab[:, 0], ab[:, 1])
    ties = 0
    for (n_a, n_b, _, _), cost, t, ref_cost, ref_t in zip(
            pairs, costs, ts, ref_costs, ref_ts):
        assert cost == pytest.approx(ref_cost, rel=1e-12, abs=0.0)
        # Exact weights at t = k / 16, scaled by 256: the cheapest
        # samples, two of them when n_b / (n_a + n_b) is an odd
        # multiple of 1/32.
        weights = [n_a * k * k + n_b * (16 - k) ** 2 for k in range(17)]
        tied = [k / 16 for k, w in enumerate(weights) if w == min(weights)]
        ties += len(tied) == 2
        assert t == tied[0]
        assert ref_t in tied
    assert ties > 0


@pytest.mark.parametrize("n_a,n_b", [(1, 1), (1, 31), (4, 9), (17, 15)])
def test_coincident_spheres_collapse_free_keeping_a(n_a, n_b):
    s = (0.5, -1.0, 2.0, 0.7)
    assert score_edges(counted_pair(n_a, n_b, s, s), [(0, 1)]) == ([0.0], [0.0])


def jittered(mm, seed, scale=1e-3):
    """mm with each center and radius moved by up to scale (relative for radii).

    This breaks the mirror symmetry that gives distinct edges bitwise equal
    costs, so the collapse order does not hinge on how a tie is broken.
    """
    rng = np.random.default_rng(seed)
    spheres = [(*np.add(s[:3], rng.uniform(-scale, scale, 3)),
                s[3] * (1.0 + float(rng.uniform(-scale, scale))))
               for s in mm.spheres]
    return MedialMesh.build(spheres, mm.edges, mm.faces)


def oracle_fixtures():
    rng = np.random.default_rng(17)
    radii = rng.uniform(0.3, 0.8, 10)
    offsets = rng.uniform(-0.3, 0.3, 10)
    wobbly = MedialMesh.build(
        [(2.0 * i + float(o), 0.0, 0.0, float(r))
         for i, (o, r) in enumerate(zip(offsets, radii))],
        [(i, i + 1) for i in range(9)], [])
    return [wobbly, jittered(strip(), 1), jittered(strip(n=12), 2),
            jittered(plate(), 3), jittered(plate(n=8, radius=2.0), 4),
            jittered(chain([0.3] * 40, spacing=0.1), 5),
            jittered(two_chains(), 6)]


# At target_error 0.2 every fixture collapses; without topology
# preservation the two chains shrink to one bare sphere.
@pytest.mark.parametrize("params", [
    SimplifyParams(),
    SimplifyParams(target_error=0.2),
    SimplifyParams(target_error=0.2, preserve_topology=False),
    SimplifyParams(target_error=0.2, average_error=True),
], ids=["default", "coarse", "no-topology", "average-error"])
def test_simplify_equals_stacked_cost_simplify(monkeypatch, params):
    fixtures = oracle_fixtures()
    got = []
    for mm in fixtures:
        trace = []
        got.append((simplify(mm, params, trace), trace))
    scored = []
    stacked = oracles.batch_of(oracles.stacked_collapse_cost)

    def score(spheres, count, a, b):
        scored.append(len(a))
        return stacked(spheres, count, a, b)

    monkeypatch.setattr(mat_simplify, "_score", score)
    collapsed = 0
    for mm, (out, trace) in zip(fixtures, got):
        ref_trace = []
        ref = simplify(mm, params, ref_trace)
        collapsed += len(ref_trace)
        assert np.array_equal(out.centers(), ref.centers())
        assert np.array_equal(out.radii(), ref.radii())
        assert np.array_equal(out.edges, ref.edges)
        assert np.array_equal(out.faces, ref.faces)
        assert [(e, t) for e, _, t in trace] == [(e, t) for e, _, t in ref_trace]
        for (_, cost, _), (_, ref_cost, _) in zip(trace, ref_trace):
            assert cost == pytest.approx(ref_cost, rel=1e-12, abs=0.0)
    assert collapsed > 0
    # Every queued edge was scored by the oracle, the initial ones included.
    assert sum(scored) >= sum(len(mm.edges) for mm in fixtures)


def test_equal_collapse_costs_go_to_the_lowest_edge():
    mm = strip()
    costs = dict(zip(map(tuple, mm.edges.tolist()),
                     score_edges(mm, mm.edges)[0]))
    tied = sorted(e for e, c in costs.items() if c == min(costs.values()))
    assert len(tied) > 1
    trace = []
    simplify(mm, SimplifyParams(), trace)
    assert trace[0][0] == tied[0]
