"""Decomposition of a structured medial mesh into curves and sheets.

Junction elements (seam edges, seam vertices, vertices shared by an edge
and a triangle, vertices where two triangle umbrellas meet) cut the mesh.
What remains splits into connected components that are purely triangles
(sheets) or purely standalone edges (curves).  Base-graph nodes are then
mapped onto the components by nearest Euclidean distance, which tolerates
the geometric drift introduced by simplification.  That search is pruned,
not a scan: every element lies inside the ball around its vertex centroid
that reaches its farthest vertex, so a node's distance to it is at least
the centroid distance minus that radius, and only elements this bound
cannot rule out are measured exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .geometry import _bounded_nearest
from .mat_graph import MatGraph
from .mesh_io import MedialMesh


class DegenerateInput(ValueError):
    """A component whose spheres all vanish or all coincide: its growing
    threshold and costs are undefined."""


class ZeroRadius(DegenerateInput):
    """Thinness is undefined for a component whose spheres all vanish."""


class JointKind(Enum):
    SEAM_EDGE = "seam_edge"
    SEAM_VERTEX = "seam_vertex"
    EDGE_TRIANGLE_VERTEX = "edge_triangle_vertex"
    TRIANGLE_TRIANGLE_VERTEX = "triangle_triangle_vertex"


class ComponentKind(Enum):
    CURVE = "curve"
    SHEET = "sheet"


@dataclass(frozen=True)
class Joint:
    kind: JointKind
    # Vertex index, or the (i, j) edge for a seam edge.
    element: int | tuple[int, int]


@dataclass
class StructuralComponent:
    kind: ComponentKind
    # Edge pairs (curve) or face triples (sheet), vertex ids of the smat.
    elements: list[tuple[int, ...]]
    extent: float
    max_radius: float
    member_nodes: list[int] = field(default_factory=list)
    _smat: MedialMesh | None = field(default=None, repr=False, compare=False)


def detect_joints(smat: MedialMesh) -> list[Joint]:
    """All junction elements of a canonical medial mesh, sorted by element."""
    edge_faces: dict[tuple[int, int], int] = {}
    vertex_faces: dict[int, list[tuple[int, ...]]] = {}
    for f in smat.faces:
        a, b, c = f
        for e in ((a, b), (b, c), (a, c)):
            edge_faces[e] = edge_faces.get(e, 0) + 1
        for v in f:
            vertex_faces.setdefault(v, []).append(f)

    standalone = [smat.edges[i] for i in smat.standalone_edges()]
    vertex_edges: dict[int, int] = {}
    for e in standalone:
        for v in e:
            vertex_edges[v] = vertex_edges.get(v, 0) + 1

    joints = [Joint(JointKind.SEAM_EDGE, e)
              for e in sorted(edge_faces) if edge_faces[e] >= 3]

    vertex_kinds: dict[int, list[JointKind]] = {}
    for v, count in vertex_edges.items():
        if count >= 3:
            vertex_kinds.setdefault(v, []).append(JointKind.SEAM_VERTEX)
        if v in vertex_faces:
            vertex_kinds.setdefault(v, []).append(JointKind.EDGE_TRIANGLE_VERTEX)
    for v, fs in vertex_faces.items():
        if len(fs) >= 2 and _umbrella_count(v, fs) >= 2:
            vertex_kinds.setdefault(v, []).append(JointKind.TRIANGLE_TRIANGLE_VERTEX)

    order = [JointKind.SEAM_VERTEX, JointKind.EDGE_TRIANGLE_VERTEX,
             JointKind.TRIANGLE_TRIANGLE_VERTEX]
    for v in sorted(vertex_kinds):
        for kind in order:
            if kind in vertex_kinds[v]:
                joints.append(Joint(kind, v))
    return joints


def _umbrella_count(v: int, fs: list[tuple[int, ...]]) -> int:
    """Components of the faces at v, linked only through edges containing v."""
    remaining = list(fs)
    groups = 0
    while remaining:
        groups += 1
        stack = [remaining.pop()]
        while stack:
            f = stack.pop()
            linked = [g for g in remaining if len(set(f) & set(g)) >= 2]
            for g in linked:
                remaining.remove(g)
                stack.append(g)
    return groups


def _union(parent: dict, a, b) -> None:
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[rb] = ra


def _find(parent: dict, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def split_components(smat: MedialMesh,
                     joints: list[Joint]) -> list[StructuralComponent]:
    """Connected sheets and curves after cutting at the joints.

    Joint elements belong to no component but their geometry remains part
    of every incident element, so distance mapping still reaches them.
    """
    seam_edges = {j.element for j in joints if j.kind is JointKind.SEAM_EDGE}
    cut_vertices = {j.element for j in joints if j.kind is not JointKind.SEAM_EDGE}

    centers = smat.centers()
    radii = smat.radii()

    comps: list[StructuralComponent] = []

    # Sheets: faces linked through non-seam shared edges.
    faces = list(smat.faces)
    if faces:
        parent = {f: f for f in faces}
        edge_members: dict[tuple[int, int], list] = {}
        for f in faces:
            a, b, c = f
            for e in ((a, b), (b, c), (a, c)):
                if e not in seam_edges:
                    edge_members.setdefault(e, []).append(f)
        for members in edge_members.values():
            for g in members[1:]:
                _union(parent, members[0], g)
        groups: dict[tuple, list] = {}
        for f in faces:
            groups.setdefault(_find(parent, f), []).append(f)
        for f in faces:  # emit in first-face order
            if f in groups:
                comps.append(_make_sheet(groups.pop(f), centers, radii, smat))

    # Curves: standalone edges linked through non-joint shared vertices.
    edges = [smat.edges[i] for i in smat.standalone_edges()]
    if edges:
        parent = {e: e for e in edges}
        vertex_members: dict[int, list] = {}
        for e in edges:
            for v in e:
                if v not in cut_vertices:
                    vertex_members.setdefault(v, []).append(e)
        for members in vertex_members.values():
            for g in members[1:]:
                _union(parent, members[0], g)
        groups = {}
        for e in edges:
            groups.setdefault(_find(parent, e), []).append(e)
        for e in edges:
            if e in groups:
                comps.append(_make_curve(groups.pop(e), centers, radii, smat))
    return comps


def _make_sheet(faces, centers, radii, smat) -> StructuralComponent:
    tri = np.array(faces)
    a, b, c = centers[tri[:, 0]], centers[tri[:, 1]], centers[tri[:, 2]]
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum()
    r_max = float(radii[np.unique(tri)].max())
    return StructuralComponent(ComponentKind.SHEET, faces,
                               float(math.sqrt(area)), r_max, _smat=smat)


def _make_curve(edges, centers, radii, smat) -> StructuralComponent:
    seg = np.array(edges)
    length = np.linalg.norm(centers[seg[:, 1]] - centers[seg[:, 0]], axis=1).sum()
    r_max = float(radii[np.unique(seg)].max())
    return StructuralComponent(ComponentKind.CURVE, edges,
                               float(length), r_max, _smat=smat)


def thinness(comp: StructuralComponent) -> float:
    if comp.max_radius <= 0.0:
        raise ZeroRadius("component has max radius 0")
    return comp.extent / comp.max_radius


def _segment_distances(points: np.ndarray, a: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """Distance from points[i] to segment a[i]b[i], row by row."""
    d = b - a
    denom = (d * d).sum(axis=1)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.einsum("nk,nk->n", points - a, d) / denom
    t = np.clip(t, 0.0, 1.0)
    closest = a + t[:, None] * d
    return np.linalg.norm(points - closest, axis=1)


def _triangle_distances(points: np.ndarray, a: np.ndarray, b: np.ndarray,
                        c: np.ndarray) -> np.ndarray:
    """Distance from points[i] to triangle a[i]b[i]c[i], row by row."""
    ab = b - a
    ac = c - a
    n = np.cross(ab, ac)
    nn = (n * n).sum(axis=1)
    safe_nn = np.where(nn == 0.0, 1.0, nn)

    ap = points - a
    dist_plane = np.einsum("nk,nk->n", ap, n) / np.sqrt(safe_nn)

    # barycentric coordinates of the in-plane projection
    d00 = (ab * ab).sum(axis=1)
    d01 = (ab * ac).sum(axis=1)
    d11 = (ac * ac).sum(axis=1)
    d20 = np.einsum("nk,nk->n", ap, ab)
    d21 = np.einsum("nk,nk->n", ap, ac)
    denom = d00 * d11 - d01 * d01
    safe_denom = np.where(denom == 0.0, 1.0, denom)
    v = (d11 * d20 - d01 * d21) / safe_denom
    w = (d00 * d21 - d01 * d20) / safe_denom
    inside = (v >= 0.0) & (w >= 0.0) & (v + w <= 1.0) & (denom != 0.0)

    edge_min = np.minimum(
        _segment_distances(points, a, b),
        np.minimum(_segment_distances(points, b, c),
                   _segment_distances(points, a, c)))
    return np.where(inside, np.abs(dist_plane), edge_min)


def assign_base_nodes(g: MatGraph, comps: list[StructuralComponent]) -> None:
    """Label every base node with its nearest component (ties: lowest index).

    Elements are searched component by component in order, so the lowest
    element index among exact ties belongs to the lowest component.  Each
    element lies in the ball around its vertex centroid whose radius is the
    farthest vertex, which is the bound the pruned search needs.
    """
    if not comps:
        raise ValueError("no components to assign nodes to")
    corners, owner, is_tri = [], [], []
    for k, comp in enumerate(comps):
        el = np.array(comp.elements)
        sheet = comp.kind is ComponentKind.SHEET
        # Curves repeat their end vertex so every element is a triple.
        corners.append(comp._smat.centers()[el if sheet else el[:, [0, 1, 1]]])
        owner.append(np.full(len(el), k))
        is_tri.append(np.full(len(el), sheet))
    corners = np.concatenate(corners)
    owner = np.concatenate(owner)
    is_tri = np.concatenate(is_tri)
    mid = np.where(is_tri[:, None], corners.mean(axis=1),
                   corners[:, :2].mean(axis=1))
    reach = np.linalg.norm(corners - mid[:, None, :], axis=2).max(axis=1)
    points = g.centroids()

    def score(rows, items):
        a, b, c = (corners[items, i] for i in range(3))
        p = points[rows]
        out = np.empty(len(rows))
        tri = is_tri[items]
        out[tri] = _triangle_distances(p[tri], a[tri], b[tri], c[tri])
        seg = ~tri
        out[seg] = _segment_distances(p[seg], a[seg], b[seg])
        return out

    # Simplified sheets mix small and large triangles, so the 8 nearest
    # centroids often lie within the largest circumradius; 16 clear it for
    # nearly every node and spare the ball query.
    _, nearest = _bounded_nearest(points, mid, reach, score, k=16)
    labels = owner[nearest]
    g.component_id[:] = labels
    order = np.argsort(labels, kind="stable")
    ends = np.cumsum(np.bincount(labels, minlength=len(comps)))[:-1]
    for comp, members in zip(comps, np.split(order, ends)):
        comp.member_nodes = members.tolist()
