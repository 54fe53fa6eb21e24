"""Adjacency graph over the primitives of a medial mesh.

Every medial triangle becomes a face node (a slab) and every edge that
belongs to no triangle becomes an edge node (a cone).  Two nodes are
adjacent iff their elements share at least one medial-mesh vertex.  Each
node carries the mean radius of its vertex spheres, its centroid, and the
envelope data (two tangent planes for a slab, axis + slant for a cone) that
the growing costs consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import (
    ConeGeometry,
    DegenerateGeometry,
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


class NodeKind(Enum):
    FACE = "face"
    EDGE = "edge"


@dataclass
class MatNode:
    kind: NodeKind
    element: tuple[int, ...]
    mean_radius: float
    centroid: tuple[float, float, float]
    # (TangentPlane, TangentPlane) for a face node, ConeGeometry for an edge node.
    tangent: tuple[TangentPlane, TangentPlane] | ConeGeometry


@dataclass
class MatGraph:
    mm: MedialMesh
    nodes: list[MatNode]
    adjacency: list[list[int]]
    # Structural component per node, -1 until assigned.
    component_id: np.ndarray

    def __len__(self) -> int:
        return len(self.nodes)

    def neighbors(self, i: int) -> list[int]:
        return self.adjacency[i]

    def mean_radii(self) -> np.ndarray:
        return np.array([n.mean_radius for n in self.nodes], dtype=float)

    def centroids(self) -> np.ndarray:
        return np.array([n.centroid for n in self.nodes], dtype=float).reshape(-1, 3)

    def sphere_arrays(self, node_ids) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated (centers, radii) of the spheres touched by the nodes."""
        seen: set[int] = set()
        for i in node_ids:
            seen.update(self.nodes[i].element)
        idx = sorted(seen)
        return self.mm.centers()[idx], self.mm.radii()[idx]


def _edge_cone(mm: MedialMesh, a: int, b: int) -> ConeGeometry:
    sa, sb = mm.spheres[a], mm.spheres[b]
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
    standalone = mm.standalone_edges()
    n_nodes = len(mm.faces) + len(standalone)
    if n_nodes == 0:
        raise EmptyInput("medial mesh has no faces and no standalone edges")

    centers = mm.centers()
    radii = mm.radii()
    nodes: list[MatNode] = []
    vertex_nodes: dict[int, list[int]] = {}

    def register(node_id: int, verts) -> None:
        for v in verts:
            vertex_nodes.setdefault(v, []).append(node_id)

    for fi, tri in enumerate(mm.faces):
        spheres = [mm.spheres[v] for v in tri]
        try:
            planes = slab_tangent_planes(*spheres)
        except DegenerateGeometry:
            planes = slab_fallback_planes(*spheres)
        nodes.append(MatNode(
            kind=NodeKind.FACE,
            element=tuple(tri),
            mean_radius=float(radii[list(tri)].mean()),
            centroid=tuple(centers[list(tri)].mean(axis=0)),
            tangent=planes,
        ))
        register(fi, tri)

    for k, ei in enumerate(standalone):
        a, b = mm.edges[ei]
        node_id = len(mm.faces) + k
        nodes.append(MatNode(
            kind=NodeKind.EDGE,
            element=(a, b),
            mean_radius=float((radii[a] + radii[b]) / 2.0),
            centroid=tuple((centers[a] + centers[b]) / 2.0),
            tangent=_edge_cone(mm, a, b),
        ))
        register(node_id, (a, b))

    adjacency_sets: list[set[int]] = [set() for _ in range(n_nodes)]
    for incident in vertex_nodes.values():
        for i in incident:
            for j in incident:
                if i != j:
                    adjacency_sets[i].add(j)
    adjacency = [sorted(s) for s in adjacency_sets]
    return MatGraph(
        mm=mm,
        nodes=nodes,
        adjacency=adjacency,
        component_id=np.full(n_nodes, -1, dtype=int),
    )


def _face_plane_normal(mm: MedialMesh, tri) -> tuple[float, float, float]:
    c = [mm.spheres[v].center for v in tri]
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
        a, b = (mm.spheres[shared[0]].center, mm.spheres[shared[1]].center)
        hinge = sub(b, a)
        hl = norm(hinge)
        if hl > 0.0:
            h = normalize(hinge)
            perps = []
            for tri in (tri_i, tri_j):
                (w,) = [v for v in tri if v not in shared]
                d = sub(mm.spheres[w].center, a)
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
    c = mm.spheres[v].center
    di = sub(mm.spheres[oi].center, c)
    dj = sub(mm.spheres[oj].center, c)
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
    a, b = g.nodes[lo], g.nodes[hi]
    if a.kind != b.kind:
        return 0.0
    if a.kind is NodeKind.FACE:
        return _face_face_angle(g.mm, a.element, b.element)
    return _edge_edge_angle(g.mm, a.element, b.element)


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
    e_i = g.nodes[lo].element
    e_j = g.nodes[hi].element
    shared = set(e_i) & set(e_j)
    if not shared:
        raise NotAdjacent(f"edges {e_i} and {e_j} share no vertex")
    v = min(shared)
    cv = mm.spheres[v].center

    def away_data(element, cone):
        (other,) = [w for w in element if w != v] or [v]
        d = sub(mm.spheres[other].center, cv)
        d = normalize(d) if norm(d) > 0.0 else (1.0, 0.0, 0.0)
        s = cone.slant_sine if dot(d, cone.axis) >= 0.0 else -cone.slant_sine
        return d, s

    di, si = away_data(e_i, g.nodes[lo].tangent)
    dj, sj = away_data(e_j, g.nodes[hi].tangent)
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
    a, b = g.nodes[lo], g.nodes[hi]
    if a.kind is NodeKind.FACE and b.kind is NodeKind.FACE:
        a1, a2 = (p.normal for p in a.tangent)
        b1, b2 = (p.normal for p in b.tangent)
        if dot(a1, b1) + dot(a2, b2) >= dot(a1, b2) + dot(a2, b1):
            return (angle_between(a1, b1), angle_between(a2, b2))
        return (angle_between(a1, b2), angle_between(a2, b1))
    if a.kind is NodeKind.EDGE and b.kind is NodeKind.EDGE:
        (p1, q1), (p2, q2) = _edge_pair_normals(g, lo, hi)
        return (angle_between(p1, q1), angle_between(p2, q2))
    face, edge = (a, b) if a.kind is NodeKind.FACE else (b, a)
    slab_normals = [p.normal for p in face.tangent]
    cone_normals = _cone_side_normals_for_slab(edge.tangent, slab_normals)
    return (
        angle_between(slab_normals[0], cone_normals[0]),
        angle_between(slab_normals[1], cone_normals[1]),
    )
