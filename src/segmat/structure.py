"""Decomposition of a structured medial mesh into curves and sheets.

Junction elements (seam edges, seam vertices, vertices shared by an edge
and a triangle, vertices where two triangle umbrellas meet) cut the mesh.
What remains splits into connected components that are purely triangles
(sheets) or purely standalone edges (curves).  Node f of a graph built
from the same mesh is face f and node F + e standalone edge e, so each
component names the nodes of its elements.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .geometry import _cross, _norm
from .mat_graph import MatGraph, linked_groups
from .mesh_io import MedialMesh


class DegenerateInput(ValueError):
    """A component whose spheres all vanish, all coincide or, for a sheet,
    are all collinear: its growing threshold and costs are undefined."""


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


@dataclass(eq=False)  # array fields: a component equals only itself
class StructuralComponent:
    kind: ComponentKind
    # (k, 2) edge rows (curve) or (k, 3) face rows (sheet), and their nodes
    elements: np.ndarray
    nodes: np.ndarray
    extent: float
    max_radius: float


_VERTEX_KINDS = (JointKind.SEAM_VERTEX, JointKind.EDGE_TRIANGLE_VERTEX,
                 JointKind.TRIANGLE_TRIANGLE_VERTEX)


def _face_sides(smat: MedialMesh) -> tuple[np.ndarray, np.ndarray]:
    """(F, 3) faces and the (F, 3) keys a * n + b of their sides.

    The sides of a sorted face (a, b, c) are (a, b), (b, c), (a, c).
    """
    sides = smat.faces[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 3, 2)
    return smat.faces, sides[..., 0] * len(smat.spheres) + sides[..., 1]


def detect_joints(smat: MedialMesh) -> list[Joint]:
    """All junction elements of a canonical medial mesh, sorted by element."""
    n = len(smat.spheres)
    faces, sides = _face_sides(smat)
    keys, counts = np.unique(sides, return_counts=True)
    joints = [Joint(JointKind.SEAM_EDGE, (int(k // n), int(k % n)))
              for k in keys[counts >= 3]]

    edge_degree = np.bincount(smat.edges[smat.standalone].ravel(), minlength=n)
    face_degree = np.bincount(faces.ravel(), minlength=n)
    # Umbrellas: the face corners at a vertex, linked through the sides
    # they share.  Corner (f, v) is keyed by the two sides of f through v,
    # each tagged with the end of the side v sits on.
    corner_sides = sides[:, [[0, 2], [0, 1], [1, 2]]]
    high_end = np.array([[0, 0], [1, 0], [1, 1]])
    pairs = np.stack([np.repeat(np.arange(faces.size), 2),
                      (2 * corner_sides + high_end).ravel()], axis=1)
    firsts = [group[0] for group in linked_groups(pairs, faces.size)]
    umbrellas = np.bincount(faces.ravel()[firsts], minlength=n)

    flags = np.stack([edge_degree >= 3,
                      (edge_degree > 0) & (face_degree > 0),
                      umbrellas >= 2], axis=1)
    return joints + [Joint(_VERTEX_KINDS[k], int(v))
                     for v, k in zip(*np.nonzero(flags))]


def split_components(smat: MedialMesh,
                     joints: list[Joint]) -> list[StructuralComponent]:
    """Connected sheets and curves after cutting at the joints.

    Joint elements belong to no component; every face and standalone edge
    belongs to exactly one.  Sheets come first, then curves; each kind in
    the order of its first element, each listing its rows and nodes in mesh order.
    """
    n = len(smat.spheres)
    seam_edges = [j.element[0] * n + j.element[1] for j in joints
                  if j.kind is JointKind.SEAM_EDGE]
    cut_vertices = [j.element for j in joints
                    if j.kind is not JointKind.SEAM_EDGE]

    # Sheets: faces linked through non-seam shared edges.
    _, sides = _face_sides(smat)
    f, k = np.nonzero(~np.isin(sides, seam_edges))
    sheets = linked_groups(np.stack([f, sides[f, k]], axis=1), len(sides))

    # Curves: standalone edges linked through non-joint shared vertices.
    ends = smat.edges[smat.standalone]
    e, k = np.nonzero(~np.isin(ends, cut_vertices))
    curves = linked_groups(np.stack([e, ends[e, k]], axis=1), len(ends))

    return ([_component(smat, smat.faces[g], g) for g in sheets]
            + [_component(smat, ends[g], np.add(g, len(sides))) for g in curves])


def _component(smat, rows, nodes) -> StructuralComponent:
    """A sheet of face rows by its area's root, or a curve of edge rows by length."""
    p = smat.centers()[rows]
    if rows.shape[1] == 3:
        area = 0.5 * _norm(_cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])).sum()
        kind, extent = ComponentKind.SHEET, math.sqrt(area)
    else:
        kind = ComponentKind.CURVE
        extent = np.linalg.norm(p[:, 1] - p[:, 0], axis=1).sum()
    return StructuralComponent(kind, rows, np.asarray(nodes), float(extent),
                               float(smat.radii()[rows].max()))


def thinness(comp: StructuralComponent) -> float:
    if comp.max_radius <= 0.0:
        raise ZeroRadius("component has max radius 0")
    return comp.extent / comp.max_radius


def assign_base_nodes(g: MatGraph, comps: list[StructuralComponent]) -> None:
    """Label every node of g with the component that names it.

    g must be built from the mesh the components were split from, so that
    its incidence rows at each component's nodes are that component's rows.
    """
    if not comps:
        raise ValueError("no components to assign nodes to")
    nodes = np.concatenate([comp.nodes for comp in comps])
    if len(nodes) != len(g):
        raise ValueError(f"components hold {len(nodes)} elements, "
                         f"the graph has {len(g)} nodes")
    if not np.array_equal(g.incidence[g.node_index(nodes)].indices,
                          np.concatenate([comp.elements.ravel() for comp in comps])):
        # a graph of another mesh: name its first element no component holds
        held = {tuple(row) for comp in comps for row in comp.elements.tolist()}
        rows = map(tuple, g.incidence.tolil().rows)
        foreign = next((el for el in rows if el not in held), None)
        if foreign is None:  # each element is held, at another node
            raise ValueError("the components' nodes do not match their elements")
        raise ValueError(f"element {foreign} lies in no component")
    g.component_id[nodes] = np.repeat(np.arange(len(comps)),
                                      [len(comp.nodes) for comp in comps])
