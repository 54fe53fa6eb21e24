"""Adjacency graph over the primitives of a medial mesh.

Every medial triangle becomes a face node (a slab) and every edge that
belongs to no triangle becomes an edge node (a cone).  Two nodes are
adjacent iff their elements share at least one medial-mesh vertex, which
is read off a sparse node x sphere incidence.  ``MatGraph`` is one node
table built once: that incidence, whose row i is the element of node i
(its length is the node's kind, 3 for a face and 2 for an edge), and the
mean radius of its vertex spheres and its centroid as arrays; no envelope
data, so a point skeleton fills it the same way.  ``pair_angles`` takes
the two tangent plane normals of every slab and the axis and slant of
every cone from the geometry kernels and gives the angles of every
adjacent pair at once.  ``linked_groups`` is the one grouping routine of
the package: items that share a key, transitively, form a group.
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
    _cross,
    _dot,
    _norm,
    _perpendicular,
    _rows,
    _unit,
    cone_axes,
    slab_normals,
)
from .mesh_io import EmptyInput, MedialMesh, whole_numbers

@dataclass
class MatGraph:
    """One row per node: faces of mm first, then its standalone edges."""

    mm: MedialMesh
    # node x sphere incidence: row i is node i's face triple or edge pair
    incidence: csr_matrix
    mean_radii: np.ndarray  # (n,) mean radius of each node's spheres
    centroids: np.ndarray   # (n, 3) mean center of each node's spheres
    adjacency: list[list[int]]
    # Structural component per node, -1 until assigned.
    component_id: np.ndarray

    def __len__(self) -> int:
        return self.incidence.shape[0]

    @cached_property
    def pair_index(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, 2) ascending adjacent pairs i < j, and each adjacency entry's pair."""
        n = len(self.adjacency)
        rows = np.repeat(np.arange(n), [len(a) for a in self.adjacency])
        cols = np.fromiter(chain.from_iterable(self.adjacency), dtype=np.intp,
                           count=len(rows))
        keys = np.minimum(rows, cols) * n + np.maximum(rows, cols)
        keys, entry_pair = np.unique(keys, return_inverse=True)
        return np.column_stack([keys // n, keys % n]), entry_pair

    def node_index(self, node_ids) -> np.ndarray:
        """node_ids as an index array; ValueError names an id outside the
        graph or one whole_numbers rejects, a bool too: a mask is no id."""
        ids = whole_numbers(node_ids, "node", bools=False)
        outside = ids[(ids < 0) | (ids >= len(self))]
        if outside.size:
            raise ValueError(f"node {outside[0]} is outside the graph's {len(self)} nodes")
        return ids

    def region_index(self, region) -> np.ndarray:
        """node_index of region.nodes; its ValueError names the region."""
        try:
            return self.node_index(region.nodes)
        except ValueError as exc:
            raise ValueError(f"region {region.id}: {exc}") from None

    def sphere_arrays(self, node_ids) -> tuple[np.ndarray, np.ndarray]:
        """Deduplicated (centers, radii) of the spheres touched by the nodes."""
        idx = np.unique(self.incidence[self.node_index(node_ids)].indices)
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
    # first come, first listed: scipy's own label order plays no part.
    # Each item sorts by its group's lowest item, stably, so the groups
    # follow their lowest items and list their items in ascending order.
    _, lowest, group = np.unique(label[:n_items], return_index=True,
                                 return_inverse=True)
    order = np.argsort(lowest[group], kind="stable").tolist()
    bounds = np.cumsum(np.bincount(group)[np.argsort(lowest)]).tolist()
    return [order[s:e] for s, e in zip([0, *bounds], bounds)]


def build_graph(mm: MedialMesh) -> MatGraph:
    """Build the primitive adjacency graph of a canonical medial mesh."""
    mm.validate()
    faces, ends = mm.faces, mm.edges[mm.standalone]
    n = len(faces) + len(ends)
    if n == 0:
        raise EmptyInput("medial mesh has no faces and no standalone edges")
    # 3 entries per face row, then 2 per edge row, ascending as the rows are
    spheres = np.concatenate([faces.ravel(), ends.ravel()])
    indptr = np.r_[0:faces.size:3, faces.size:len(spheres) + 1:2]

    centers, radii = mm.centers(), mm.radii()
    graph = MatGraph(
        mm=mm,
        incidence=csr_matrix((np.ones(len(spheres), dtype=bool), spheres, indptr),
                             shape=(n, len(mm.spheres))),
        mean_radii=np.concatenate([
            radii[faces].mean(axis=1),
            (radii[ends[:, 0]] + radii[ends[:, 1]]) / 2.0]),
        centroids=np.concatenate([
            centers[faces].mean(axis=1),
            (centers[ends[:, 0]] + centers[ends[:, 1]]) / 2.0]),
        adjacency=[],
        component_id=np.full(n, -1, dtype=int))
    # nodes sharing a sphere: the off-diagonal of incidence x incidence^T
    shared = graph.incidence @ graph.incidence.T
    shared.setdiag(False)
    shared.eliminate_zeros()
    shared.sort_indices()
    cols, bounds = shared.indices.tolist(), shared.indptr.tolist()
    graph.adjacency = [cols[s:e] for s, e in zip(bounds, bounds[1:])]
    return graph


def _angle(u, v):
    """Angle in [0, pi] per row; NaN where a vector is zero, or so short
    that the product of the lengths underflows to 0."""
    nu, nv = _norm(u), _norm(v)
    scale = nu * nv
    c = _dot(u, v) / scale
    # min(1, c) before max(-1, .), as the scalar clamp: NaN becomes 1
    c = np.where(c < 1.0, c, 1.0)
    c = np.where(c > -1.0, c, -1.0)
    # math.acos, not np.arccos: the two differ in the last bit
    out = np.fromiter(map(math.acos, c.tolist()), dtype=float, count=len(c))
    out[(nu == 0.0) | (nv == 0.0) | (scale == 0.0)] = np.nan
    return out


def _plane_normals(xyz, tri):
    """Unit normal of each face's center plane."""
    e = xyz[tri[:, 1]] - xyz[tri[:, 0]]
    m = _cross(e, xyz[tri[:, 2]] - xyz[tri[:, 0]])
    spanned = _rows(_norm(e) > 0.0, _perpendicular(e), (0.0, 0.0, 1.0))
    return _rows(_norm(m) == 0.0, spanned, _unit(m))


def _face_bends(xyz, faces, i, j):
    """Bend of the face pairs (faces[i], faces[j]): the dihedral at a
    hinge, else the angle of their center planes."""
    a, b = faces[i], faces[j]
    # on_b[k, m]: vertex m of a[k] is a vertex of b[k], and on_a the reverse
    on_b = (a == b[:, :1]) | (a == b[:, 1:2]) | (a == b[:, 2:])
    on_a = (b == a[:, :1]) | (b == a[:, 1:2]) | (b == a[:, 2:])
    hinged = np.flatnonzero(on_b.sum(1) == 2)
    ends = a[hinged][on_b[hinged]].reshape(-1, 2)
    base, hinge = xyz[ends[:, 0]], xyz[ends[:, 1]] - xyz[ends[:, 0]]
    h = _unit(hinge)
    p = [xyz[t[hinged][~on[hinged]]] - base for t, on in ((a, on_b), (b, on_a))]
    p = [d - h * _dot(d, h)[:, None] for d in p]
    folded = (_norm(hinge) > 0.0) & (_norm(p[0]) != 0.0) & (_norm(p[1]) != 0.0)
    bend = np.empty(len(a))
    bend[hinged[folded]] = _angle(_unit(p[0][folded]), _unit(p[1][folded]))
    # vertex contact or a degenerate hinge: coplanar planes give pi
    rest = np.ones(len(a), dtype=bool)
    rest[hinged[folded]] = False
    # a plane normal depends on its face alone: one per face, read per pair
    planes = _plane_normals(xyz, faces)
    t = _angle(planes[i[rest]], planes[j[rest]])
    bend[rest] = math.pi - np.where(math.pi - t < t, math.pi - t, t)
    return bend


def _slab_slab(na, nb):
    """Slab normals matched side to side for the larger total agreement."""
    a1, a2, b1, b2 = na[:, 0], na[:, 1], nb[:, 0], nb[:, 1]
    keep = _dot(a1, b1) + _dot(a2, b2) >= _dot(a1, b2) + _dot(a2, b1)
    return _angle(a1, _rows(keep, b1, b2)), _angle(a2, _rows(keep, b2, b1))


def _envelope(d, s, u, side):
    c = np.sqrt(np.where(1.0 - s * s > 0.0, 1.0 - s * s, 0.0))
    return -s[:, None] * d + (side * c)[:, None] * u


def _slab_cone(normals, axis, slant):
    """Cone normals in the plane of the axis and each slab normal."""
    angles = []
    for ns in (normals[:, 0], normals[:, 1]):
        u = ns - axis * _dot(ns, axis)[:, None]
        u = _rows(_norm(u) > 1e-12, _unit(u), _perpendicular(axis))
        angles.append(_angle(ns, _envelope(axis, slant, u, 1.0)))
    return angles


def _cone_cone(xyz, a, b, axis_a, slant_a, axis_b, slant_b):
    """Bend off the shared sphere, and normals in the edge directions' plane."""
    v = np.where((a[:, 0] == b[:, 0]) | (a[:, 0] == b[:, 1]), a[:, 0], a[:, 1])
    di = xyz[np.where(a[:, 0] == v, a[:, 1], a[:, 0])] - xyz[v]
    dj = xyz[np.where(b[:, 0] == v, b[:, 1], b[:, 0])] - xyz[v]
    straight = (_norm(di) == 0.0) | (_norm(dj) == 0.0)
    bend = np.where(straight, math.pi, _angle(di, dj))
    di = _rows(_norm(di) > 0.0, _unit(di), (1.0, 0.0, 0.0))
    dj = _rows(_norm(dj) > 0.0, _unit(dj), (1.0, 0.0, 0.0))
    si = np.where(_dot(di, axis_a) >= 0.0, slant_a, -slant_a)
    sj = np.where(_dot(dj, axis_b) >= 0.0, slant_b, -slant_b)
    w = _cross(di, dj)
    scale = _norm(di) * _norm(dj)
    bent = _norm(w) > 1e-12 * np.where(1e-300 > scale, 1e-300, scale)
    perp = _perpendicular(di)
    ui = _rows(bent, _unit(_cross(_unit(w), di)), perp)
    uj = _rows(bent, _unit(_cross(_unit(w), dj)),
               _rows(_dot(di, dj) >= 0.0, perp, -perp))
    side = np.where(_dot(ui, uj) >= 0.0, 1.0, -1.0)
    return (bend,
            _angle(_envelope(di, si, ui, 1.0), _envelope(dj, sj, uj, side)),
            _angle(_envelope(di, si, ui, -1.0), _envelope(dj, sj, uj, -side)))


def pair_angles(g: MatGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bend and envelope angles of every pair in g.pair_index, as arrays.

    bend in [0, pi] is the dihedral at two faces' hinge (pi when coplanar),
    else the angle of their planes; for two edges the angle of their
    directions off the shared sphere; 0 for a face and an edge.  plus and
    minus are the envelope-normal deviations per side, (0, 0) when smooth.
    Values equal those of a one-pair-at-a-time computation bit for bit, NaN
    where it meets a zero vector.  Slab normals and cone axes come from
    the geometry kernels, which raise DegenerateGeometry for a slab whose
    fallback normal cannot be normalized.
    """
    faces, ends = g.mm.faces, g.mm.edges[g.mm.standalone]
    if len(g) != len(faces) + len(ends):
        raise ValueError(f"the graph has {len(g)} nodes but its medial mesh "
                         f"{len(faces)} faces and {len(ends)} standalone "
                         "edges; grow such a graph with costs=")
    lo, hi = g.pair_index[0].T
    n_faces, xyz, r = len(faces), g.mm.centers(), g.mm.radii()
    normals = slab_normals(xyz[faces], r[faces])
    axes, slants = cone_axes(xyz[ends], r[ends])
    bend, plus, minus = (np.zeros(len(lo)) for _ in range(3))
    # faces come before edges, so a mixed pair is (face, edge)
    ff = np.flatnonzero(hi < n_faces)
    fc = np.flatnonzero((lo < n_faces) & (hi >= n_faces))
    cc = np.flatnonzero(lo >= n_faces)
    ia, ib = lo[cc] - n_faces, hi[cc] - n_faces
    with np.errstate(all="ignore"):
        bend[ff] = _face_bends(xyz, faces, lo[ff], hi[ff])
        plus[ff], minus[ff] = _slab_slab(normals[lo[ff]], normals[hi[ff]])
        plus[fc], minus[fc] = _slab_cone(normals[lo[fc]],
                                         axes[hi[fc] - n_faces],
                                         slants[hi[fc] - n_faces])
        bend[cc], plus[cc], minus[cc] = _cone_cone(
            xyz, ends[ia], ends[ib], axes[ia], slants[ia], axes[ib],
            slants[ib])
    raised = np.isnan(plus) | np.isnan(minus)
    plus[raised] = minus[raised] = np.nan
    return bend, plus, minus
