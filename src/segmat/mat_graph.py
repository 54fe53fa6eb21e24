"""Adjacency graph over the primitives of a medial mesh.

Every medial triangle becomes a face node (a slab) and every edge that
belongs to no triangle becomes an edge node (a cone).  Two nodes are
adjacent iff their elements share at least one medial-mesh vertex, which
is read off a sparse node x sphere incidence.  ``MatGraph`` is one node
table built once: the element of every node (its length is the node's
kind, 3 for a face and 2 for an edge), the mean radius of its vertex
spheres and its centroid as arrays, and the envelope data (two tangent
planes for a slab, axis + slant for a cone) that the growing costs
consume.  ``linked_groups`` is the one grouping routine of the package:
items that share a key, transitively, form a group.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .geometry import (
    ConeGeometry,
    DegenerateGeometry,
    Sphere,
    TangentPlane,
    angle_between,
    any_perpendicular,
    cone_geometry,
    cross,
    dot,
    norm,
    normalize,
    slab_fallback_planes,
    slab_tangent_planes,
    sub,
)
from .mesh_io import EmptyInput, MedialMesh


class NotAdjacent(ValueError):
    """An angle was requested for a node pair that shares no vertex."""


@dataclass
class MatGraph:
    """One row per node: faces of mm first, then its standalone edges."""

    mm: MedialMesh
    # sphere indices of each node: a face triple or a standalone edge pair
    elements: list[tuple[int, ...]]
    mean_radii: np.ndarray  # (n,) mean radius of each node's spheres
    centroids: np.ndarray   # (n, 3) mean center of each node's spheres
    # (TangentPlane, TangentPlane) for a face node, ConeGeometry for an edge node.
    tangents: list[tuple[TangentPlane, TangentPlane] | ConeGeometry]
    adjacency: list[list[int]]
    # Structural component per node, -1 until assigned.
    component_id: np.ndarray

    def __len__(self) -> int:
        return len(self.elements)

    @cached_property
    def incidence(self) -> csr_matrix:
        """Node x sphere incidence: row i holds the spheres of node i, ascending."""
        rows = np.repeat(np.arange(len(self)), [len(el) for el in self.elements])
        cols = np.fromiter(chain.from_iterable(self.elements), dtype=np.intp,
                           count=len(rows))
        return csr_matrix((np.ones(len(cols), dtype=bool), (rows, cols)),
                          shape=(len(self), len(self.mm.spheres)))

    def sphere_arrays(self, node_ids) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated (centers, radii) of the spheres touched by the nodes."""
        idx = np.unique(self.incidence[node_ids].indices)
        return self.mm.centers()[idx], self.mm.radii()[idx]


def linked_groups(pairs, n_items: int) -> list[list[int]]:
    """Items 0..n_items-1 grouped by shared keys, transitively.

    pairs holds (item, key) rows with integer keys; an item in no row is a
    group of its own.  Groups are ordered by their lowest item and list
    their items in ascending order.
    """
    pairs = np.asarray(pairs, dtype=np.intp).reshape(-1, 2)
    keys, key_ids = np.unique(pairs[:, 1], return_inverse=True)
    size = n_items + len(keys)
    # items and keys are the two sides of one bipartite graph
    links = csr_matrix(
        (np.ones(len(pairs), dtype=bool), (pairs[:, 0], n_items + key_ids)),
        shape=(size, size))
    _, label = connected_components(links, directed=False)
    # first come, first listed: scipy's own label order plays no part
    groups: dict[int, list[int]] = {}
    for item, group in enumerate(label[:n_items].tolist()):
        groups.setdefault(group, []).append(item)
    return list(groups.values())


def _edge_cone(sa: Sphere, sb: Sphere) -> ConeGeometry:
    try:
        return cone_geometry(sa, sb)
    except DegenerateGeometry:
        # Coincident centers or containment: clamp to a hemispherical cap.
        d = sub(sb.center, sa.center)
        if norm(d) > 0.0:
            axis = normalize(d if sa.radius <= sb.radius else sub(sa.center, sb.center))
        else:
            axis = (1.0, 0.0, 0.0)
        return ConeGeometry(axis=axis, slant_sine=1.0 if sa.radius != sb.radius else 0.0)


def build_graph(mm: MedialMesh) -> MatGraph:
    """Build the primitive adjacency graph of a canonical medial mesh."""
    mm.validate()
    faces, ends = mm.faces, mm.edges[mm.standalone]
    elements = list(map(tuple, faces.tolist() + ends.tolist()))
    if not elements:
        raise EmptyInput("medial mesh has no faces and no standalone edges")

    spheres = [Sphere((x, y, z), r) for x, y, z, r in mm.spheres.tolist()]
    centers = mm.centers()
    radii = mm.radii()
    tangents = []
    for tri in faces.tolist():
        slab = [spheres[v] for v in tri]
        try:
            tangents.append(slab_tangent_planes(*slab))
        except DegenerateGeometry:
            tangents.append(slab_fallback_planes(*slab))
    tangents += [_edge_cone(spheres[a], spheres[b]) for a, b in ends.tolist()]

    graph = MatGraph(
        mm=mm,
        elements=elements,
        mean_radii=np.concatenate([
            radii[faces].mean(axis=1),
            (radii[ends[:, 0]] + radii[ends[:, 1]]) / 2.0]),
        centroids=np.concatenate([
            centers[faces].mean(axis=1),
            (centers[ends[:, 0]] + centers[ends[:, 1]]) / 2.0]),
        tangents=tangents,
        adjacency=[],
        component_id=np.full(len(elements), -1, dtype=int))
    # nodes sharing a sphere: the off-diagonal of incidence x incidence^T
    shared = graph.incidence @ graph.incidence.T
    shared.setdiag(False)
    shared.eliminate_zeros()
    graph.adjacency = shared.tolil().rows.tolist()
    return graph


def _face_plane_normal(mm: MedialMesh, tri) -> tuple[float, float, float]:
    c = [mm.spheres[v, :3].tolist() for v in tri]
    m = cross(sub(c[1], c[0]), sub(c[2], c[0]))
    if norm(m) == 0.0:
        e = sub(c[1], c[0])
        return any_perpendicular(e) if norm(e) > 0.0 else (0.0, 0.0, 1.0)
    return normalize(m)


def _acute(u, v) -> float:
    a = angle_between(u, v)
    return min(a, math.pi - a)


def _face_face_angle(mm: MedialMesh, tri_i, tri_j) -> float:
    shared = sorted(set(tri_i) & set(tri_j))
    if len(shared) == 2:
        # Interior dihedral at the hinge: pi for coplanar continuation,
        # 0 for a fold back onto itself.
        a, b = [mm.spheres[v, :3].tolist() for v in shared]
        hinge = sub(b, a)
        hl = norm(hinge)
        if hl > 0.0:
            h = normalize(hinge)
            perps = []
            for tri in (tri_i, tri_j):
                (w,) = [v for v in tri if v not in shared]
                d = sub(mm.spheres[w, :3].tolist(), a)
                p = sub(d, tuple(x * dot(d, h) for x in h))
                if norm(p) == 0.0:
                    perps = None
                    break
                perps.append(normalize(p))
            if perps is not None:
                return angle_between(perps[0], perps[1])
    # Vertex-only contact (or a degenerate hinge): treat the bend as the
    # angle between the face planes, mapped so coplanar gives pi.
    ni = _face_plane_normal(mm, tri_i)
    nj = _face_plane_normal(mm, tri_j)
    return math.pi - _acute(ni, nj)


def _edge_edge_angle(mm: MedialMesh, e_i, e_j) -> float:
    shared = set(e_i) & set(e_j)
    if not shared:
        raise NotAdjacent(f"edges {e_i} and {e_j} share no vertex")
    v = min(shared)
    (oi,) = [w for w in e_i if w != v] or [v]
    (oj,) = [w for w in e_j if w != v] or [v]
    c, ci, cj = (mm.spheres[w, :3].tolist() for w in (v, oi, oj))
    di = sub(ci, c)
    dj = sub(cj, c)
    if norm(di) == 0.0 or norm(dj) == 0.0:
        return math.pi
    return angle_between(di, dj)


def node_angle(g: MatGraph, i: int, j: int) -> float:
    """Bend angle theta between two adjacent nodes, in [0, pi].

    Face/face pairs use the interior dihedral at their hinge, edge/edge
    pairs the angle between the edge directions oriented away from the
    shared vertex, and mixed pairs 0 by convention.
    """
    lo, hi = (i, j) if i <= j else (j, i)
    if hi not in g.adjacency[lo]:
        raise NotAdjacent(f"nodes {i} and {j} are not adjacent")
    a, b = g.elements[lo], g.elements[hi]
    if len(a) != len(b):
        return 0.0
    if len(a) == 3:
        return _face_face_angle(g.mm, a, b)
    return _edge_edge_angle(g.mm, a, b)


def _cone_side_normals_for_slab(cone: ConeGeometry, slab_normals):
    """Cone envelope normals in the planes spanned by the axis and each slab side."""
    ax = cone.axis
    s = cone.slant_sine
    c = math.sqrt(max(0.0, 1.0 - s * s))
    out = []
    for ns in slab_normals:
        u = sub(ns, tuple(x * dot(ns, ax) for x in ax))
        u = normalize(u) if norm(u) > 1e-12 else any_perpendicular(ax)
        out.append(tuple(-s * ax[k] + c * u[k] for k in range(3)))
    return out


def _edge_pair_normals(g: MatGraph, lo: int, hi: int):
    """Matched envelope-normal pairs for two adjacent cones."""
    mm = g.mm
    e_i = g.elements[lo]
    e_j = g.elements[hi]
    shared = set(e_i) & set(e_j)
    if not shared:
        raise NotAdjacent(f"edges {e_i} and {e_j} share no vertex")
    v = min(shared)
    cv = mm.spheres[v, :3].tolist()

    def away_data(element, cone):
        (other,) = [w for w in element if w != v] or [v]
        d = sub(mm.spheres[other, :3].tolist(), cv)
        d = normalize(d) if norm(d) > 0.0 else (1.0, 0.0, 0.0)
        s = cone.slant_sine if dot(d, cone.axis) >= 0.0 else -cone.slant_sine
        return d, s

    di, si = away_data(e_i, g.tangents[lo])
    dj, sj = away_data(e_j, g.tangents[hi])
    w = cross(di, dj)
    if norm(w) > 1e-12 * max(norm(di) * norm(dj), 1e-300):
        wh = normalize(w)
        ui = normalize(cross(wh, di))
        uj = normalize(cross(wh, dj))
    else:
        ui = any_perpendicular(di)
        uj = ui if dot(di, dj) >= 0.0 else tuple(-x for x in ui)

    def envelope_normal(d, s, u, side):
        c = math.sqrt(max(0.0, 1.0 - s * s))
        return tuple(-s * d[k] + side * c * u[k] for k in range(3))

    side_j = 1.0 if dot(ui, uj) >= 0.0 else -1.0
    return (
        (envelope_normal(di, si, ui, 1.0), envelope_normal(dj, sj, uj, side_j)),
        (envelope_normal(di, si, ui, -1.0), envelope_normal(dj, sj, uj, -side_j)),
    )


def primitive_angles(g: MatGraph, i: int, j: int) -> tuple[float, float]:
    """Envelope-normal deviation of two adjacent nodes, one angle per side.

    Sides are matched by normal agreement: slab/slab pairs match the tangent
    plane normals maximizing total alignment, slab/cone pairs build the cone
    normal inside the plane spanned by the cone axis and each slab side
    normal, and cone/cone pairs share the plane spanned by the two edge
    directions at their common vertex.  A continuous envelope yields (0, 0).
    """
    lo, hi = (i, j) if i <= j else (j, i)
    if hi not in g.adjacency[lo]:
        raise NotAdjacent(f"nodes {i} and {j} are not adjacent")
    a, b = g.tangents[lo], g.tangents[hi]
    a_face, b_face = len(g.elements[lo]) == 3, len(g.elements[hi]) == 3
    if a_face and b_face:
        a1, a2 = (p.normal for p in a)
        b1, b2 = (p.normal for p in b)
        if dot(a1, b1) + dot(a2, b2) >= dot(a1, b2) + dot(a2, b1):
            return (angle_between(a1, b1), angle_between(a2, b2))
        return (angle_between(a1, b2), angle_between(a2, b1))
    if not (a_face or b_face):
        (p1, q1), (p2, q2) = _edge_pair_normals(g, lo, hi)
        return (angle_between(p1, q1), angle_between(p2, q2))
    slab, cone = (a, b) if a_face else (b, a)
    slab_normals = [p.normal for p in slab]
    cone_normals = _cone_side_normals_for_slab(cone, slab_normals)
    return (
        angle_between(slab_normals[0], cone_normals[0]),
        angle_between(slab_normals[1], cone_normals[1]),
    )
