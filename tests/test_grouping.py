"""One incidence and one grouping routine behind the MAT graph's structure.

build_graph's adjacency, sphere_arrays and swallow read the node x sphere
incidence; detect_joints, split_components and the leftover clusters of
growing group items with linked_groups.  These properties check each
against the union-finds, walks and set loops of tests/oracles.py on random
complexes built from seams, bowties, edge-triangle vertices, isolated
faces and closed loops.  The node table build_graph fills as arrays is
checked against the per-node build there too, and assign_base_nodes,
which reads each component's nodes, against the lookup keyed by element
tuples.
"""

import copy

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from test_mesh_io_properties import medial_meshes

from segmat.growing import Region, _merge_leftovers
from segmat.mat_graph import build_graph, linked_groups
from segmat.mesh_io import MedialMesh
from segmat.structure import (
    Joint,
    JointKind,
    assign_base_nodes,
    detect_joints,
    split_components,
)

MOTIFS = ("seam", "bowtie", "tail", "face", "loop")


@st.composite
def complexes(draw):
    """A medial mesh of junction motifs on shared vertices, plus noise."""
    n = draw(st.integers(6, 14))
    cells = draw(st.lists(st.tuples(*[st.integers(-4, 4)] * 3),
                          min_size=n, max_size=n, unique=True))
    radii = draw(st.lists(st.sampled_from([0.0, 0.25, 0.5, 2.0]),
                          min_size=n, max_size=n))
    index = st.integers(0, n - 1)

    def distinct(k):
        return draw(st.lists(index, min_size=k, max_size=k, unique=True))

    faces, edges = [], []
    for motif in draw(st.lists(st.sampled_from(MOTIFS), min_size=1,
                               max_size=5)):
        if motif == "seam":        # three faces on one edge
            a, b, c, d, e = distinct(5)
            faces += [(a, b, c), (a, b, d), (a, b, e)]
        elif motif == "bowtie":    # two faces on one vertex only
            a, b, c, d, e = distinct(5)
            faces += [(a, b, c), (a, d, e)]
        elif motif == "tail":      # an edge hanging off a face
            a, b, c, d = distinct(4)
            faces.append((a, b, c))
            edges.append((a, d))
        elif motif == "face":
            faces.append(tuple(distinct(3)))
        else:                      # a closed loop of edges
            loop = distinct(draw(st.integers(3, 6)))
            edges += list(zip(loop, loop[1:] + loop[:1]))
    faces += draw(st.lists(st.tuples(index, index, index).filter(
        lambda f: len(set(f)) == 3), max_size=3))
    edges += draw(st.lists(st.tuples(index, index).filter(
        lambda e: e[0] != e[1]), max_size=3))
    spheres = [(*(0.5 * v for v in cell), r) for cell, r in zip(cells, radii)]
    return MedialMesh.build(spheres, edges, faces)


def exact(comps):
    return [(c.kind, c.elements.tolist(), c.nodes.tolist(), c.extent.hex(),
             c.max_radius.hex()) for c in comps]


@given(complexes())
def test_joints_match_the_walks(smat):
    joints = detect_joints(smat)
    assert joints == oracles.detect_joints(smat)
    for j in joints:
        if j.kind is JointKind.SEAM_EDGE:
            assert all(type(v) is int for v in j.element)
        else:
            assert type(j.element) is int


def first_element_order(smat, comps):
    """Sheets, then curves, each by the mesh position of its first element."""
    position = {el: k for k, el in enumerate(map(tuple, (
        smat.faces.tolist() + smat.edges[smat.standalone].tolist())))}
    return sorted(comps, key=lambda c: position[tuple(c.elements[0].tolist())])


@given(complexes(), st.integers(1, 3))
def test_components_match_the_union_find(smat, stride):
    # every stride-th joint only, so cuts the detector never makes occur too
    joints = detect_joints(smat)[::stride]
    got = split_components(smat, joints)
    # The union-find emitted components in the order of their roots, which
    # can be a later face than the first; linked_groups orders them by their
    # first element.  Members, extents and radii are the same.
    assert exact(got) == exact(first_element_order(
        smat, oracles.split_components(smat, joints)))
    assert exact(got) == exact(first_element_order(smat, got))


# Cut at the seam edge (0, 1) alone, faces (0, 1, 2), (0, 1, 4), (0, 2, 4)
# and (0, 4, 5) form one sheet, but its union-find root is (0, 1, 4), a face
# after the lone (0, 1, 3).
ROOT_AFTER_FIRST = MedialMesh.build(
    [(0.5 * k, 0.25 * k * k, 0.0, 1.0) for k in range(6)], [],
    [(0, 1, 2), (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 4, 5)])


def test_components_come_in_first_element_order():
    joints = [Joint(JointKind.SEAM_EDGE, (0, 1))]
    got = [c.elements.tolist() for c in split_components(ROOT_AFTER_FIRST, joints)]
    assert got == [[[0, 1, 2], [0, 1, 4], [0, 2, 4], [0, 4, 5]], [[0, 1, 3]]]
    old = oracles.split_components(ROOT_AFTER_FIRST, joints)
    assert [c.elements.tolist() for c in old] == got[::-1]


@given(complexes())
def test_adjacency_matches_the_set_loop(smat):
    graph = build_graph(smat)
    assert graph.adjacency == oracles.adjacency(oracles.elements(graph))
    assert all(type(j) is int for row in graph.adjacency for j in row)


@given(complexes(), st.data())
def test_sphere_arrays_match_the_set(smat, data):
    graph = build_graph(smat)
    ids = data.draw(st.lists(st.integers(0, len(graph) - 1), max_size=8))
    if data.draw(st.booleans()):
        ids = np.array(ids, dtype=int)
    for got, want in zip(graph.sphere_arrays(ids),
                         oracles.sphere_arrays(graph, ids)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)


@given(complexes(), st.data())
def test_leftover_attachments_match_the_walk(smat, data):
    graph = build_graph(smat)
    # -1 marks a negligible node; kept regions are renumbered densely
    owner = np.array(data.draw(st.lists(
        st.integers(-1, 2), min_size=len(graph), max_size=len(graph))))
    kept = sorted(set(owner[owner >= 0].tolist()))
    if not kept:
        owner[data.draw(st.integers(0, len(graph) - 1))] = 0
        kept = [0]
    regions = [Region(k, np.flatnonzero(owner == old).tolist(), 0, 0)
               for k, old in enumerate(kept)]
    expected = copy.deepcopy(regions)
    _merge_leftovers(graph, regions, owner < 0)
    oracles.merge_leftovers(graph, expected, owner < 0)
    assert [r.nodes for r in regions] == [r.nodes for r in expected]


@given(st.integers(0, 12), st.lists(st.tuples(st.integers(0, 11),
                                              st.integers(-3, 40))))
@example(4, [(0, 0), (2, 1), (3, 0), (3, 1)])  # the group [0, 2, 3] has root 3
def test_linked_groups_match_the_union_find(n, pairs):
    pairs = [(item, key) for item, key in pairs if item < n]
    keys = {}
    for item, key in pairs:
        keys.setdefault(item, []).append(key)
    expected = oracles.union_find_groups(list(range(n)),
                                         lambda x: keys.get(x, []))
    # the union-find lists groups by root, linked_groups by lowest item
    assert linked_groups(pairs, n) == sorted(expected)


def test_groups_are_ordered_by_lowest_item():
    # scipy labels the component it reaches first, which here holds item 3
    pairs = [(3, 0), (0, 1), (2, 1), (1, 2), (4, 2)]
    assert linked_groups(pairs, 5) == [[0, 2], [1, 4], [3]]
    assert linked_groups([], 0) == []
    assert linked_groups([], 2) == [[0], [1]]


@given(complexes())
def test_incidence_rows_are_the_sorted_elements(smat):
    graph = build_graph(smat)
    rows = graph.incidence
    assert rows.shape == (len(graph), len(smat.spheres))
    for i, element in enumerate(oracles.elements(graph)):
        got = rows.indices[rows.indptr[i]:rows.indptr[i + 1]].tolist()
        assert got == sorted(element)


def scaled(smat, factor):
    return MedialMesh.build(smat.spheres * factor, smat.edges, smat.faces)


# 1 + 1e-16 + 1e-16 rounds to 1 summed left to right, but not right to
# left; halving the smallest subnormal before the sum gives 0, after it not
ROUNDING = MedialMesh.build(
    [(1.0, 0.0, 0.0, 1.0), (1e-16, 1.0, 0.0, 1e-16),
     (1e-16, 0.0, 1.0, 1e-16), (5.0, 0.0, 0.0, 1.0),
     (5e-324, 7.0, 0.0, 5e-324), (5e-324, 8.0, 0.0, 5e-324)],
    [(0, 3), (4, 5)], [(0, 1, 2)])


# the largest factor keeps the squared diagonal of medial_meshes() finite
@given(st.one_of(medial_meshes(), complexes()),
       st.sampled_from([1.0, 1e-300, 1e-5, 1e5, 1e140]))
@example(ROUNDING, 1.0)
def test_node_table_matches_the_per_node_build(smat, factor):
    smat = scaled(smat, factor)
    graph = build_graph(smat)
    want = oracles.node_table(smat)
    assert len(graph) == len(want.elements)
    assert np.array_equal(graph.mean_radii, want.mean_radii)
    assert np.array_equal(graph.centroids, want.centroids)
    assert np.array_equal(graph.incidence.toarray(), want.incidence)
    assert graph.adjacency == oracles.adjacency(want.elements)


def relabelled(smat, order):
    """smat with sphere order[j] moved to index j: the same sizes, mostly
    other element rows."""
    index = np.argsort(order)
    return MedialMesh.build(smat.spheres[order], index[smat.edges],
                            index[smat.faces])


def padded(smat, nodes):
    """smat with isolated edges on new spheres up to the given node count."""
    extra = nodes - len(build_graph(smat))
    n = len(smat.spheres)
    return MedialMesh.build(
        np.concatenate([smat.spheres, [(9.0, 9.0, float(k), 1.0)
                                       for k in range(2 * extra)]]),
        np.concatenate([smat.edges, n + np.arange(2 * extra).reshape(-1, 2)]),
        smat.faces)


def assigned(assign, smat, comps):
    """component_id after assign on a fresh graph of smat, or its error."""
    graph = build_graph(smat)
    try:
        assign(graph, comps)
    except Exception as exc:  # the class is part of the outcome
        return type(exc), str(exc)
    return graph.component_id.tolist()


@given(st.one_of(complexes(), medial_meshes()),
       st.one_of(complexes(), medial_meshes()), st.data())
def test_node_assignment_matches_the_dict_lookup(smat, other, data):
    comps = split_components(smat, detect_joints(smat))
    graph = build_graph(smat)
    for comp in comps:
        rows = graph.incidence[comp.nodes]
        assert np.array_equal(rows.indices, comp.elements.ravel())
        assert (np.diff(rows.indptr) == comp.elements.shape[1]).all()
    order = np.array(data.draw(st.permutations(range(len(smat.spheres)))))
    meshes = [smat, other, relabelled(smat, order)]
    if len(build_graph(other)) < len(graph):
        meshes.append(padded(other, len(graph)))
    for mesh in meshes:
        got = assigned(assign_base_nodes, mesh, comps)
        assert got == assigned(oracles.assign_base_nodes, mesh, comps)
