"""Radius histograms, the 1-D EMD and greedy merging of adjacent regions.

merge_matching finds touching regions on the graph's pair table and keeps
one region table; the gate at the end checks it against the loop it
replaced (tests/oracles.py), which walked every labeled node's adjacency
row: the same regions in the same order, node lists in order, and the same
number of emd_1d calls.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

import oracles
from test_pair_table import graph_of, meshes, regions_or_error

from segmat import merging
from segmat.growing import Region, region_labels
from segmat.mat_graph import build_graph
from segmat.merging import RadiusHistogram, emd_1d, merge_matching, radius_histogram
from segmat.mesh_io import MedialMesh


def chain_graph(sphere_radii, spacing=2.0):
    spheres = [(i * spacing, 0.0, 0.0, float(r))
               for i, r in enumerate(sphere_radii)]
    mm = MedialMesh.build(spheres, [(i, i + 1) for i in range(len(spheres) - 1)], [])
    return build_graph(mm)


def region(rid, nodes):
    return Region(id=rid, nodes=list(nodes), seed=nodes[0], component_id=0)


def test_equal_radii_collapse_to_one_bin():
    g = chain_graph([1.0] * 6)
    h = radius_histogram(g, region(0, range(len(g))))
    assert h.bins[0] == 1.0
    assert h.bins[1:].sum() == 0.0


def test_uniform_radii_spread_evenly():
    # 32 disconnected segments whose node radii step through the range
    spheres = []
    edges = []
    for k in range(32):
        r = 1.0 + k * 0.1
        spheres.append((3.0 * k, 0.0, 0.0, r))
        spheres.append((3.0 * k + 1.0, 0.0, 0.0, r))
        edges.append((2 * k, 2 * k + 1))
    g = build_graph(MedialMesh.build(spheres, edges, []))
    h = radius_histogram(g, region(0, range(32)))
    assert np.allclose(h.bins, 1.0 / 32)


def test_identical_radius_multisets_give_identical_histograms():
    g = chain_graph([1, 2, 3, 1, 2, 3, 1])
    h1 = radius_histogram(g, region(0, [0, 1, 2]))
    h2 = radius_histogram(g, region(1, [3, 4, 5]))
    assert np.array_equal(h1.bins, h2.bins)
    assert emd_1d(h1, h2) == 0.0


def test_emd_extremes_and_symmetry():
    g = chain_graph([1.0, 1.0, 5.0, 5.0])
    # node means: 1, 3, 5 over range [1, 5]
    lo = radius_histogram(g, region(0, [0]))
    hi = radius_histogram(g, region(1, [2]))
    assert emd_1d(lo, lo) == 0.0
    assert emd_1d(lo, hi) == 1.0
    assert emd_1d(lo, hi) == emd_1d(hi, lo)


@pytest.mark.parametrize("bins", [[1.0], []])
def test_emd_needs_two_bins(bins):
    h = RadiusHistogram(np.array(bins), (0.0, 1.0))
    with pytest.raises(ValueError, match="at least 2 bins"):
        emd_1d(h, h)


def test_emd_is_a_metric_on_random_histograms():
    rng = np.random.default_rng(7)
    g = chain_graph(rng.uniform(0.5, 4.0, 40))
    nodes = list(range(len(g)))
    hs = [radius_histogram(g, region(i, sorted(rng.choice(len(g), 8, replace=False))))
          for i in range(12)]
    for a in hs:
        for b in hs:
            dab = emd_1d(a, b)
            assert dab >= 0.0
            assert dab == pytest.approx(emd_1d(b, a), abs=1e-15)
            if np.array_equal(a.bins, b.bins):
                assert dab == 0.0
            for c in hs:
                assert dab <= emd_1d(a, c) + emd_1d(c, b) + 1e-12


def test_emd_rejects_mismatched_ranges():
    g1 = chain_graph([1.0, 1.0, 1.0])
    g2 = chain_graph([1.0, 2.0, 3.0])
    h1 = radius_histogram(g1, region(0, [0, 1]))
    h2 = radius_histogram(g2, region(0, [0, 1]))
    with pytest.raises(ValueError):
        emd_1d(h1, h2)


def quad_chain():
    """Four 10-node regions; radius jump between regions 1 and 2 only."""
    radii = [1.0] * 21 + [5.0] * 20
    g = chain_graph(radii)
    regions = [region(0, range(0, 10)), region(1, range(10, 20)),
               region(2, range(20, 30)), region(3, range(30, 40))]
    return g, regions


def test_greedy_merging_runs_until_no_close_pair_remains():
    g, regions = quad_chain()
    merged = merge_matching(g, regions, tau=0.15)
    assert [r.id for r in merged] == [0, 2]
    assert sorted(merged[0].nodes) == list(range(0, 20))
    assert sorted(merged[1].nodes) == list(range(20, 40))


def test_high_emd_pair_stays_split():
    g = chain_graph([1.0] * 11 + [5.0] * 10)
    regions = [region(0, range(0, 10)), region(1, range(10, 20))]
    merged = merge_matching(g, regions, tau=0.15)
    assert len(merged) == 2


def test_identical_adjacent_regions_merge():
    g = chain_graph([2.0] * 9)
    regions = [region(0, range(0, 4)), region(1, range(4, 8))]
    merged = merge_matching(g, regions, tau=0.15)
    assert len(merged) == 1
    assert merged[0].id == 0
    assert sorted(merged[0].nodes) == list(range(8))


def test_non_adjacent_regions_never_merge():
    # two disconnected chains with identical radii
    spheres = [(float(i), 0, 0, 1.0) for i in range(4)]
    spheres += [(float(i), 50, 0, 1.0) for i in range(4)]
    edges = [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7)]
    g = build_graph(MedialMesh.build(spheres, edges, []))
    regions = [region(0, [0, 1, 2]), region(1, [3, 4, 5])]
    merged = merge_matching(g, regions, tau=0.5)
    assert len(merged) == 2


def test_merging_is_idempotent():
    g, regions = quad_chain()
    once = merge_matching(g, regions, tau=0.15)
    twice = merge_matching(g, once, tau=0.15)
    assert [r.id for r in twice] == [r.id for r in once]
    assert [sorted(r.nodes) for r in twice] == [sorted(r.nodes) for r in once]


def test_unclaimed_nodes_do_not_make_regions_adjacent():
    # node 3 belongs to no region, so regions 0 and 1 touch only through it
    g = chain_graph([2.0] * 9)
    regions = [region(0, range(0, 3)), region(1, range(4, 8))]
    merged = merge_matching(g, regions, tau=0.15)
    assert [r.id for r in merged] == [0, 1]
    assert [r.nodes for r in merged] == [r.nodes for r in regions]


@pytest.mark.parametrize("node", [-1, 9])
def test_a_node_outside_the_graph_is_rejected_by_region(node):
    g = chain_graph([2.0] * 9)
    regions = [region(0, range(0, 4)), region(5, [4, node])]
    with pytest.raises(ValueError, match=f"region 5: node {node} is outside "
                                         "the graph's 8 nodes"):
        merge_matching(g, regions)


@pytest.mark.parametrize("node", [-2, 7])
def test_a_single_region_is_checked_too(node):
    g = chain_graph([2.0] * 3)
    with pytest.raises(ValueError, match=f"^region 0: node {node} is outside "
                                         "the graph's 2 nodes$"):
        merge_matching(g, [Region(0, [node], 0, 0)])
    assert merge_matching(g, [Region(0, [1], 0, 0)]) == [Region(0, [1], 0, 0)]
    assert merge_matching(g, []) == []


@pytest.mark.parametrize("nodes, message", [
    ([5], "node 5 is outside the graph's 2 nodes"),
    ([-2], "node -2 is outside the graph's 2 nodes"),
    ([0, 0.5], "node 0.5 is not a whole number"),
    ([], "has no nodes")])
def test_radius_histogram_rejects_a_bad_region(nodes, message):
    g = chain_graph([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match=f"^region 4:? {message}$"):
        radius_histogram(g, Region(4, nodes, 0, 0))


@st.composite
def partitions(draw):
    """A graph, regions over some of its nodes and a tau.

    Regions are runs of consecutive nodes, as grown regions mostly are, or
    scattered; some nodes are unclaimed.  Region ids are sparse and listed
    out of order, node lists are shuffled, and tau is at times the exact
    EMD of two regions on an adjacent pair.
    """
    g = graph_of(draw(meshes))
    n = len(g)
    assume(n > 1)
    ids = draw(st.lists(st.integers(0, 40), min_size=2, max_size=6,
                        unique=True))
    if draw(st.booleans()):
        cuts = draw(st.lists(st.integers(0, n), min_size=len(ids) - 1,
                             max_size=len(ids) - 1))
        owner = np.searchsorted(sorted(cuts), np.arange(n), side="right")
    else:
        owner = np.array(draw(st.lists(st.integers(0, len(ids) - 1),
                                       min_size=n, max_size=n)))
    owner[draw(st.lists(st.integers(0, n - 1), max_size=n // 3))] = -1
    order = draw(st.permutations(range(n)))
    groups = [[v for v in order if owner[v] == k] for k in range(len(ids))]
    regions = draw(st.permutations(
        [Region(rid, nodes, nodes[0], draw(st.integers(0, 3)))
         for rid, nodes in zip(ids, groups) if nodes]))
    tau = draw(st.sampled_from([0.0, 0.05, 0.15, 0.5, 2.0]))
    pairs = g.pair_index[0]
    if len(pairs) and draw(st.booleans()):
        ends = region_labels(g, regions)[pairs[draw(
            st.integers(0, len(pairs) - 1))]]
        by_id = {r.id: r for r in regions}
        if (ends >= 0).all() and ends[0] != ends[1]:
            tau = emd_1d(*(radius_histogram(g, by_id[k]) for k in ends))
    return g, regions, tau


def merge_chain():
    """Five two-node regions on a chain: once 2 and 3 merge, 2 takes 4
    through the rewired pair (3, 4), and not 1, by the merged histogram."""
    g = chain_graph([4, 4, 2, 2, 3, 3, 3, 3, 4, 4, 4])
    return g, [region(k, [2 * k, 2 * k + 1]) for k in range(5)], 0.5


@given(partitions())
@example(merge_chain())
def test_merge_matching_equals_the_adjacency_row_loop(case):
    g, regions, tau = case
    given_regions = [(r.id, list(r.nodes), r.seed, r.component_id)
                     for r in regions]
    with mock.patch.object(merging, "emd_1d", wraps=emd_1d) as spy:
        got = regions_or_error(merge_matching, g, regions, tau)
    with mock.patch.object(oracles, "emd_1d", wraps=emd_1d) as oracle_spy:
        want = regions_or_error(oracles.merge_matching, g, regions, tau)
    assert got == want
    assert spy.call_count == oracle_spy.call_count
    assert regions_or_error(list, regions) == given_regions  # not mutated
