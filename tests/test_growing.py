import math

import numpy as np
import pytest

import oracles

from segmat import growing
from segmat.growing import (
    GrowingParams,
    Region,
    adjusted_threshold,
    cost_terms,
    grow,
    region_labels,
    swallow,
)
from segmat.mat_graph import build_graph, pair_angles
from segmat.mesh_io import MedialMesh
from segmat.structure import (
    DegenerateInput,
    assign_base_nodes,
    detect_joints,
    split_components,
)


def medial(points, radii, edges=(), faces=()):
    spheres = [(*map(float, p), float(r)) for p, r in zip(points, radii)]
    return MedialMesh.build(spheres, list(edges), list(faces))


def prepared_graph(mm):
    g = build_graph(mm)
    comps = split_components(mm, detect_joints(mm))
    assign_base_nodes(g, comps)
    return g, comps


def cone_chain(xs, radii, y=0.0):
    pts = [(float(x), y, 0.0) for x in xs]
    edges = [(i, i + 1) for i in range(len(xs) - 1)]
    return medial(pts, radii, edges=edges)


def dumbbell(extra_points=(), extra_radii=(), extra_edges=()):
    """Fat chain, thin chain, fat chain; radius jumps at the junctions."""
    xs = [0, 6, 12, 18, 24, 30, 36, 42, 48, 54, 60, 66]
    radii = [4, 4, 4, 4, 1, 1, 1, 1, 4, 4, 4, 4]
    pts = [(float(x), 0.0, 0.0) for x in xs] + [tuple(map(float, p))
                                                for p in extra_points]
    rr = radii + list(extra_radii)
    edges = [(i, i + 1) for i in range(11)] + list(extra_edges)
    return medial(pts, rr, edges=edges)


def hinge():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return medial(pts, [0.2] * 4, faces=[(0, 1, 2), (0, 1, 3)])


def coplanar_slabs():
    pts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]
    return medial(pts, [0.2] * 4, faces=[(0, 1, 2), (1, 2, 3)])


def terms(g, i, j, alpha=0.05):
    """(ma, mp) of the adjacent nodes i and j, from the pair table."""
    ma, mp, faults = cost_terms(g, alpha)
    k = g.pair_index[0].tolist().index(sorted([i, j]))
    assert k not in faults
    return float(ma[k]), float(mp[k])


def ma_cost(g, i, j, alpha=0.05):
    return terms(g, i, j, alpha)[0]


def mp_cost(g, i, j):
    return terms(g, i, j)[1]


def primitive_cost(monkeypatch, angle_plus, angle_minus):
    """The primitive term cost_terms gives a pair with these angles."""
    g, _ = prepared_graph(hinge())
    bend = pair_angles(g)[0]
    monkeypatch.setattr(growing, "pair_angles", lambda _: (
        bend, np.array([angle_plus]), np.array([angle_minus])))
    return float(cost_terms(g)[1][0])


def cheaper_costs(g, p):
    """min(ma, lam * mp) per pair, as grow reads it."""
    ma, mp, _ = cost_terms(g, p.alpha)
    return np.where(p.lam * mp < ma, p.lam * mp, ma)


def test_ma_cost_is_zero_without_variation():
    g, _ = prepared_graph(cone_chain([0, 2, 4], [1, 1, 1]))
    assert ma_cost(g, 0, 1) == 0.0


def test_ma_cost_radius_jump():
    g, _ = prepared_graph(cone_chain([0, 4, 8], [1, 1, 3]))
    # node means 1 and 2, collinear so no bending term
    assert ma_cost(g, 0, 1) == 1.0


def test_ma_cost_right_angle_bend():
    mm = medial([(0, 0, 0), (1, 0, 0), (1, 1, 0)], [1, 1, 1],
                edges=[(0, 1), (1, 2)])
    g, _ = prepared_graph(mm)
    assert ma_cost(g, 0, 1) == 0.025


def test_ma_cost_is_symmetric_and_non_negative():
    g, _ = prepared_graph(dumbbell())
    ma = cost_terms(g)[0]
    for k in g.pair_index[1].tolist():
        assert ma[k] >= 0.0
    for i in range(len(g)):
        for j in g.adjacency[i]:
            assert ma_cost(g, i, j) >= 0.0
            assert ma_cost(g, i, j) == ma_cost(g, j, i) == oracles.ma_cost(g, j, i)


def test_mp_cost_examples(monkeypatch):
    g, _ = prepared_graph(coplanar_slabs())
    assert mp_cost(g, 0, 1) == pytest.approx(0.0, abs=1e-12)
    g, _ = prepared_graph(hinge())
    assert mp_cost(g, 0, 1) == pytest.approx(0.5, rel=1e-12)
    assert primitive_cost(monkeypatch, math.pi / 2, math.pi / 2) == pytest.approx(0.5)
    assert primitive_cost(monkeypatch, math.pi, 0.0) == pytest.approx(0.5)
    assert primitive_cost(monkeypatch, 0.0, 0.0) == 0.0


def test_growing_cost_takes_the_cheaper_route():
    g, comps = prepared_graph(hinge())
    p = GrowingParams()
    # equal radii, right-angle fold: axis term 0.025 beats 1.5 * 0.5
    assert cheaper_costs(g, p).tolist() == [0.025]
    # grow reads exactly these costs
    assert grow(g, comps, p) == grow(g, comps, p, costs=cheaper_costs(g, p))

    g, _ = prepared_graph(coplanar_slabs())
    assert cheaper_costs(g, p).tolist() == [0.0]

    g, _ = prepared_graph(dumbbell())
    cheaper = cheaper_costs(g, p)
    for k, (i, j) in enumerate(g.pair_index[0].tolist()):
        expected = min(oracles.ma_cost(g, i, j, p.alpha),
                       p.lam * oracles.mp_cost(g, i, j))
        assert cheaper[k] == expected


def test_adjusted_threshold():
    d0 = 0.015
    assert adjusted_threshold(d0, math.exp(2.0)) == d0
    assert adjusted_threshold(d0, math.exp(4.0)) == pytest.approx(4 * d0, rel=1e-12)
    assert adjusted_threshold(d0, math.exp(3.0)) == 3 * d0
    assert adjusted_threshold(d0, 1.0) == d0


@pytest.mark.parametrize("rho", [1.0, math.exp(4.0), 1e308, math.inf])
def test_a_zero_delta0_is_a_zero_threshold_at_any_rho(rho):
    # log(inf) is inf, and 0 * inf would be NaN
    assert adjusted_threshold(0.0, rho) == 0.0


def test_uniform_slab_strip_grows_one_region():
    pts, faces = [], []
    for i in range(10):
        pts.append((float(i), 0.0, 0.0))
        pts.append((float(i), 0.5, 0.0))
    for i in range(9):
        a, b, c, d = 2 * i, 2 * i + 1, 2 * i + 2, 2 * i + 3
        faces.append((a, b, c))
        faces.append((b, c, d))
    mm = medial(pts, [0.3] * 20, faces=faces)
    g, comps = prepared_graph(mm)
    regions = grow(g, comps)
    assert len(regions) == 1
    assert sorted(regions[0].nodes) == list(range(len(g)))


def test_dumbbell_grows_three_regions_with_junction_boundaries():
    g, comps = prepared_graph(dumbbell())
    regions = grow(g, comps)
    assert len(regions) == 3
    by_nodes = [sorted(r.nodes) for r in regions]
    assert by_nodes[0] == [0, 1, 2, 3]      # fat chain + swallowed junction
    assert by_nodes[1] == [7, 8, 9, 10]
    assert by_nodes[2] == [4, 5, 6]
    labels = region_labels(g, regions)
    assert labels.tolist() == [0, 0, 0, 0, 2, 2, 2, 1, 1, 1, 1]


def test_growing_is_deterministic():
    g1, c1 = prepared_graph(dumbbell())
    g2, c2 = prepared_graph(dumbbell())
    r1 = grow(g1, c1)
    r2 = grow(g2, c2)
    assert [r.nodes for r in r1] == [r.nodes for r in r2]
    assert [r.seed for r in r1] == [r.seed for r in r2]


def test_growing_is_scale_invariant():
    mm = dumbbell()
    big = medial(7.3 * mm.centers(), 7.3 * mm.radii(), edges=mm.edges)
    r1 = grow(*prepared_graph(mm))
    r2 = grow(*prepared_graph(big))
    assert [sorted(r.nodes) for r in r1] == [sorted(r.nodes) for r in r2]


def test_every_node_lands_in_exactly_one_region():
    g, comps = prepared_graph(dumbbell())
    regions = grow(g, comps)
    seen = sorted(n for r in regions for n in r.nodes)
    assert seen == list(range(len(g)))


def test_spikes_do_not_change_the_region_count():
    # a short branch at the free end of a fat chain plus a floating
    # spike fully inside the other fat chain's spheres
    mm = dumbbell(
        extra_points=[(-0.5, 0.8, 0), (51.0, 1.0, 0), (51.5, 1.2, 0)],
        extra_radii=[0.3, 0.1, 0.1],
        extra_edges=[(0, 12), (13, 14)])
    g, comps = prepared_graph(mm)
    regions = grow(g, comps)
    assert len(regions) == 3
    labels = region_labels(g, regions)
    assert labels.min() >= 0


def test_negligible_region_merges_into_most_linked_neighbor():
    mm = cone_chain([0, 6, 12, 18, 24, 30], [4, 4, 4, 4, 1, 1])
    g, comps = prepared_graph(mm)
    regions = grow(g, comps, GrowingParams(eta=0.25))
    assert len(regions) == 1
    assert sorted(regions[0].nodes) == list(range(len(g)))


def test_isolated_negligible_region_joins_nearest_by_centroid():
    pts = [(0, 0, 0), (6, 0, 0), (12, 0, 0), (18, 0, 0), (24, 0, 0), (30, 0, 0),
           (100, 50, 0), (101, 50, 0)]
    mm = medial(pts, [2, 2, 2, 2, 2, 2, 0.1, 0.1],
                edges=[(i, i + 1) for i in range(5)] + [(6, 7)])
    g, comps = prepared_graph(mm)
    regions = grow(g, comps, GrowingParams(eta=0.3))
    assert len(regions) == 1
    assert sorted(regions[0].nodes) == list(range(len(g)))


def test_all_negligible_regions_are_promoted():
    mm = medial([(0, 0, 0), (1, 0, 0), (1, 1, 0), (2, 1, 0)], [0.2] * 4,
                edges=[(0, 1), (1, 2), (2, 3)])
    g, comps = prepared_graph(mm)
    regions = grow(g, comps, GrowingParams(eta=0.5))
    assert len(regions) == 3
    seen = sorted(n for r in regions for n in r.nodes)
    assert seen == list(range(len(g)))


def test_swallow_absorbs_enclosed_spike_chain():
    pts = [(0, 0, 0), (6, 0, 0), (1, 0.5, 0), (1.5, 0.5, 0)]
    mm = medial(pts, [4, 4, 0.05, 0.05], edges=[(0, 1), (2, 3)])
    g, _ = prepared_graph(mm)
    region = Region(id=0, nodes=[0], seed=0, component_id=0)
    swallow(g, region, [1])
    assert region.nodes == [0, 1]


def test_swallow_leaves_distant_nodes_alone():
    pts = [(0, 0, 0), (6, 0, 0), (100, 0, 0), (106, 0, 0)]
    mm = medial(pts, [4, 4, 1, 1], edges=[(0, 1), (2, 3)])
    g, _ = prepared_graph(mm)
    region = Region(id=0, nodes=[0], seed=0, component_id=0)
    swallow(g, region, [1])
    assert region.nodes == [0]


def test_swallow_intersection_test_is_strict():
    # candidate sphere exactly r1 + r2 away: not absorbed
    pts = [(0, 0, 0), (0.4, 0, 0), (2.4, 0, 0), (2.8, 0, 0)]
    mm = medial(pts, [1, 1, 1, 1], edges=[(0, 1), (2, 3)])
    g, _ = prepared_graph(mm)
    region = Region(id=0, nodes=[0], seed=0, component_id=0)
    swallow(g, region, [1])
    assert region.nodes == [0]

    pts = [(0, 0, 0), (0.4, 0, 0), (2.398, 0, 0), (2.798, 0, 0)]
    mm = medial(pts, [1, 1, 1, 1], edges=[(0, 1), (2, 3)])
    g, _ = prepared_graph(mm)
    region = Region(id=0, nodes=[0], seed=0, component_id=0)
    swallow(g, region, [1])
    assert region.nodes == [0, 1]


def test_swallow_enclosure_test_is_inclusive():
    # zero-radius candidate spheres on the region sphere's surface,
    # d + r == R: absorbed, though the strict intersection test is not met
    pts = [(0, 0, 0), (6, 0, 0), (0, 4, 0), (-4, 0, 0)]
    mm = medial(pts, [4, 4, 0, 0], edges=[(0, 1), (2, 3)])
    g = build_graph(mm)
    region = Region(id=0, nodes=[0], seed=0, component_id=0)
    swallow(g, region, [1])
    assert region.nodes == [0, 1]

    pts = [(0, 0, 0), (6, 0, 0), (0, 4.002, 0), (-4, 0, 0)]
    mm = medial(pts, [4, 4, 0, 0], edges=[(0, 1), (2, 3)])
    g = build_graph(mm)
    region = Region(id=0, nodes=[0], seed=0, component_id=0)
    swallow(g, region, [1])
    assert region.nodes == [0]


def test_zero_radius_node_is_a_typed_error():
    # One vanishing sphere pair inside an otherwise thick chain.
    g, comps = prepared_graph(cone_chain([0, 2, 4, 6], [1, 0, 0, 1]))
    with pytest.raises(DegenerateInput, match="component 0: node 1 has radius 0"):
        grow(g, comps)


def test_unassigned_nodes_are_rejected_by_name():
    # a plate with a three-edge tail: one sheet and one curve component
    pts = [(0, 0, 0), (1, 0, 0), (1, 1, 0), (0, 1, 0), (2, 0, 0), (3, 0, 0),
           (4, 0, 0)]
    mm = medial(pts, [0.4] * 7, edges=[(1, 4), (4, 5), (5, 6)],
                faces=[(0, 1, 2), (0, 2, 3)])
    comps = split_components(mm, detect_joints(mm))
    assert len(comps) == 2
    g = build_graph(mm)
    with pytest.raises(ValueError, match="^node 0 has component id -1 of 2; "
                       "run assign_base_nodes first$"):
        grow(g, comps)
    g.component_id[:] = 0
    g.component_id[-1] = 2
    with pytest.raises(ValueError, match=f"node {len(g) - 1} has component "
                       "id 2"):
        grow(g, comps)


@pytest.mark.parametrize("name", ["alpha", "lam", "delta0", "eta"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_parameter_is_rejected_by_name(name, value):
    g, comps = prepared_graph(dumbbell())
    p = GrowingParams(**{name: value})
    with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
        grow(g, comps, p)


def test_costs_replace_the_growing_cost_one_per_pair():
    g, comps = prepared_graph(dumbbell())
    pairs = g.pair_index[0]
    # one region when every pair is free, one per node when none is
    assert len(grow(g, comps, costs=np.zeros(len(pairs)))) == 1
    regions = grow(g, comps, GrowingParams(eta=0.0),
                   costs=np.full(len(pairs), np.inf), swallowing=False)
    assert len(regions) == len(g)


@pytest.mark.parametrize("node", [-1, 7])
def test_region_labels_reject_a_node_outside_the_graph(node):
    g = build_graph(cone_chain([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]))
    regions = [Region(0, [0], 0, 0), Region(3, [1, node], 1, 0)]
    with pytest.raises(ValueError, match=f"region 3: node {node} is outside "
                                         "the graph's 2 nodes"):
        region_labels(g, regions)


@pytest.mark.parametrize("node, shown", [(1.9, "1.9"), (0.5, "0.5"), ("1", "'1'"),
                                         (float("nan"), "nan")])
def test_a_node_id_that_is_not_a_whole_number_is_rejected(node, shown):
    g = build_graph(cone_chain([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]))
    message = f"node {shown} is not a whole number"
    with pytest.raises(ValueError, match=f"^region 3: {message}$"):
        region_labels(g, [Region(0, [0], 0, 0), Region(3, [1, node], 1, 0)])
    with pytest.raises(ValueError, match=f"^{message}$"):
        g.sphere_arrays([1, node])


def test_whole_float_and_empty_node_lists_are_indices():
    g = build_graph(cone_chain([0.0, 1.0, 2.0], [1.0, 1.0, 1.0]))
    assert region_labels(g, [Region(4, [1.0], 1, 0)]).tolist() == [-1, 4]
    assert region_labels(g, [Region(4, [], 1, 0)]).tolist() == [-1, -1]
    for got, want in zip(g.sphere_arrays([]), g.sphere_arrays(np.zeros(0, np.intp))):
        assert got.shape == want.shape and got.shape[0] == 0


@pytest.mark.parametrize("costs, shown", [
    (np.zeros(9), r"\(9,\)"),         # one short
    (np.zeros(11), r"\(11,\)"),       # one long: was silently cut short
    (np.zeros((10, 1)), r"\(10, 1\)"),
    (np.float64(0.0), r"\(\)"),
])
def test_costs_need_one_value_per_pair(costs, shown):
    g, comps = prepared_graph(dumbbell())
    assert len(g.pair_index[0]) == 10
    with pytest.raises(ValueError, match=r"^costs must hold one value per pair "
                       rf"of g.pair_index \(10\), got shape {shown}$"):
        grow(g, comps, costs=costs)


def test_a_nan_cost_is_rejected_by_its_pair():
    # a NaN cost would otherwise compare as a cut
    g, comps = prepared_graph(dumbbell())
    costs = np.zeros(len(g.pair_index[0]))
    costs[[3, 7]] = math.nan
    with pytest.raises(ValueError, match=r"^the cost of pair \(3, 4\) is NaN$"):
        grow(g, comps, costs=costs)


@pytest.mark.parametrize("node, message", [
    (-1, "node -1 is outside the graph's 3 nodes"),
    (99, "node 99 is outside the graph's 3 nodes"),
    (1.5, "node 1.5 is not a whole number"),
])
def test_swallow_rejects_a_candidate_that_is_not_a_node(node, message):
    g = build_graph(cone_chain([0, 2, 4, 6], [1, 1, 1, 1]))
    region = Region(0, [0], 0, 0)
    with pytest.raises(ValueError, match=f"^{message}$"):
        swallow(g, region, [2, node])
    assert region.nodes == [0]


def test_swallow_rejects_a_region_without_nodes():
    g = build_graph(cone_chain([0, 2, 4, 6], [1, 1, 1, 1]))
    with pytest.raises(ValueError, match="^region 5 has no nodes$"):
        swallow(g, Region(5, [], 0, 0), [1])


@pytest.mark.parametrize("alpha, message", [
    (math.nan, "alpha must be a finite number, got nan"),
    (math.inf, "alpha must be a finite number, got inf"),
    (-0.5, "alpha must not be negative, got -0.5"),
])
def test_cost_terms_reject_alpha_as_grow_does(alpha, message):
    g, comps = prepared_graph(dumbbell())
    with pytest.raises(ValueError, match=f"^{message}$"):
        cost_terms(g, alpha)
    with pytest.raises(ValueError, match=f"^{message}$"):
        grow(g, comps, GrowingParams(alpha=alpha))
