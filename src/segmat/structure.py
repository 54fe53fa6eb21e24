"""Decomposition of a structured medial mesh into curves and sheets.

Junction elements (seam edges, seam vertices, vertices shared by an edge
and a triangle, vertices where two triangle umbrellas meet) cut the mesh.
What remains splits into connected components that are purely triangles
(sheets) or purely standalone edges (curves).  Every node of a graph built
from the same mesh is one face or one standalone edge, so it takes the
component that holds its own element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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

    Joint elements belong to no component; every face and standalone edge
    belongs to exactly one.
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
                comps.append(_make_sheet(groups.pop(f), centers, radii))

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
                comps.append(_make_curve(groups.pop(e), centers, radii))
    return comps


def _make_sheet(faces, centers, radii) -> StructuralComponent:
    tri = np.array(faces)
    a, b, c = centers[tri[:, 0]], centers[tri[:, 1]], centers[tri[:, 2]]
    area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum()
    r_max = float(radii[np.unique(tri)].max())
    return StructuralComponent(ComponentKind.SHEET, faces,
                               float(math.sqrt(area)), r_max)


def _make_curve(edges, centers, radii) -> StructuralComponent:
    seg = np.array(edges)
    length = np.linalg.norm(centers[seg[:, 1]] - centers[seg[:, 0]], axis=1).sum()
    r_max = float(radii[np.unique(seg)].max())
    return StructuralComponent(ComponentKind.CURVE, edges,
                               float(length), r_max)


def thinness(comp: StructuralComponent) -> float:
    if comp.max_radius <= 0.0:
        raise ZeroRadius("component has max radius 0")
    return comp.extent / comp.max_radius


def assign_base_nodes(g: MatGraph, comps: list[StructuralComponent]) -> None:
    """Label every node of g with the component that holds its element.

    g must be built from the mesh the components were split from: each of
    its faces and standalone edges then lies in exactly one component, and
    the canonical element tuples of the mesh key the lookup.
    """
    if not comps:
        raise ValueError("no components to assign nodes to")
    owner = {el: k for k, comp in enumerate(comps) for el in comp.elements}
    if len(owner) != len(g):
        raise ValueError(f"components hold {len(owner)} elements, "
                         f"the graph has {len(g)} nodes")
    try:
        g.component_id[:] = [owner[node.element] for node in g.nodes]
    except KeyError as exc:
        raise ValueError(f"element {exc.args[0]} lies in no component") from None
