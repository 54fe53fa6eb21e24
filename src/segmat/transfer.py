"""Transfer of interior segment labels onto surface faces.

Each face pays a data cost (bounding-box-normalized distance to its
segment's nearest sphere surface) plus a smoothness cost on every adjacent
face pair with differing labels (the exterior dihedral angle, clamped so
concave valleys are cheap to cut along and convex ridges are not).  The
labeling is minimized by iterated alpha-expansion where every move is an
exact minimum s-t cut.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .geometry import _bounded_nearest
from .mesh_io import SurfaceMesh


class NoSegments(ValueError):
    """Raised when a face labeling is requested with zero segments."""


@dataclass
class TransferParams:
    omega: float = 0.3
    max_iterations: int = 10


# Capacities are scaled to this many bits before the integer solver runs.
# The solver does int32 arithmetic internally, so both the largest arc and
# the flow value itself must stay below 2**31.
_SCALE_BITS = 30


def _min_cut_side(num_nodes, source, sink, tails, heads, caps):
    """Source side of a minimum cut, as a boolean mask over all nodes."""
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    caps = np.asarray(caps, dtype=float)
    side = np.zeros(num_nodes, dtype=bool)
    positive = caps > 0.0
    if not positive.any():
        side[source] = True
        return side
    tails, heads, caps = tails[positive], heads[positive], caps[positive]
    flow_bound = min(caps[tails == source].sum(), caps[heads == sink].sum())
    scale = float(2**_SCALE_BITS) / max(float(caps.max()), float(flow_bound))
    weights = np.round(caps * scale).astype(np.int64)
    graph = csr_matrix(
        (weights, (tails, heads)), shape=(num_nodes, num_nodes), dtype=np.int64
    )
    result = maximum_flow(graph, int(source), int(sink))
    residual = graph - result.flow
    residual.eliminate_zeros()
    if residual.nnz == 0:
        side[source] = True
        return side
    reached = breadth_first_order(
        residual, int(source), directed=True, return_predecessors=False
    )
    side[reached] = True
    return side


def exterior_dihedrals(mesh: SurfaceMesh) -> np.ndarray:
    """Exterior dihedral angle per dual edge, aligned with mesh.dual_edges().

    pi for coplanar faces, below pi across concave creases, above pi across
    convex ridges.  Assumes consistently wound faces.
    """
    pairs, shared = mesh.dual_edges()
    if len(pairs) == 0:
        return np.zeros(0)
    normals = mesh.face_normals()
    n_f = normals[pairs[:, 0]]
    n_g = normals[pairs[:, 1]]
    tri = mesh.faces[pairs[:, 0]]
    u, v = shared[:, 0], shared[:, 1]
    # orientation of the shared edge inside the first face's winding
    forward = (
        ((tri[:, 0] == u) & (tri[:, 1] == v))
        | ((tri[:, 1] == u) & (tri[:, 2] == v))
        | ((tri[:, 2] == u) & (tri[:, 0] == v))
    )
    first = np.where(forward, u, v)
    second = np.where(forward, v, u)
    edge = mesh.vertices[second] - mesh.vertices[first]
    length = np.linalg.norm(edge, axis=1)
    length[length == 0.0] = 1.0
    edge = edge / length[:, None]
    turn = np.einsum("ij,ij->i", np.cross(n_f, n_g), edge)
    straight = np.einsum("ij,ij->i", n_f, n_g)
    return np.pi + np.arctan2(turn, straight)


def _boundary_costs(mesh: SurfaceMesh) -> np.ndarray:
    """Per dual edge, the cost of a label change across it: the exterior
    dihedral over pi clamped at 1."""
    return np.minimum(exterior_dihedrals(mesh) / np.pi, 1.0)


def _energy(labels, costs, pairs, boundary, omega) -> float:
    total = float(costs[np.arange(len(labels)), labels].sum())
    if len(pairs):
        differ = labels[pairs[:, 0]] != labels[pairs[:, 1]]
        total += float(omega) * float(boundary[differ].sum())
    return total


def labeling_energy(mesh: SurfaceMesh, labels, costs, omega) -> float:
    """Total labeling energy: data costs plus omega-weighted boundary costs."""
    labels = np.asarray(labels, dtype=int)
    costs = np.asarray(costs, dtype=float)
    pairs, _ = mesh.dual_edges()
    return _energy(labels, costs, pairs, _boundary_costs(mesh), omega)


def _expansion_move(labels, alpha, costs, pairs, boundary_weights):
    """One alpha-expansion as a binary min cut; returns new labels or None.

    Keep-current is the source side, switch-to-alpha the sink side.  The
    pairwise table (A=cost both keep, B/C=one switches, D=0) is submodular
    for boundary costs of the same-label-is-free kind, so the residual
    B+C-A lands on a single arc and C-A / -C fold into the unary terms.
    """
    num_faces = len(labels)
    theta0 = costs[np.arange(num_faces), labels]
    theta1 = costs[:, alpha].copy()
    arc_tails, arc_heads, arc_caps = [], [], []
    if len(pairs):
        f, g = pairs[:, 0], pairs[:, 1]
        l_f, l_g = labels[f], labels[g]
        a = boundary_weights * (l_f != l_g)
        b = boundary_weights * (l_f != alpha)
        c = boundary_weights * (l_g != alpha)
        np.add.at(theta1, f, c - a)
        np.subtract.at(theta1, g, c)
        residual = b + c - a
        cross = residual > 0.0
        arc_tails.append(f[cross])
        arc_heads.append(g[cross])
        arc_caps.append(residual[cross])
    source, sink = num_faces, num_faces + 1
    diff = theta1 - theta0
    pull = diff > 0.0
    push = diff < 0.0
    arc_tails.append(np.full(int(pull.sum()), source))
    arc_heads.append(np.flatnonzero(pull))
    arc_caps.append(diff[pull])
    arc_tails.append(np.flatnonzero(push))
    arc_heads.append(np.full(int(push.sum()), sink))
    arc_caps.append(-diff[push])
    side = _min_cut_side(
        num_faces + 2,
        source,
        sink,
        np.concatenate(arc_tails),
        np.concatenate(arc_heads),
        np.concatenate(arc_caps),
    )
    updated = np.where(side[:num_faces], labels, alpha)
    if np.array_equal(updated, labels):
        return None
    return updated


def optimize_labels(mesh: SurfaceMesh, costs, params=None, trace=None) -> np.ndarray:
    """Assign one cost column per face by iterated expansion moves.

    costs is a (faces, segments) table.  Starting from the per-face argmin,
    each label in ascending order proposes a keep-or-switch move solved as a
    minimum cut; a move is kept only when the recomputed energy drops, so
    the energy is non-increasing move by move.  Stops after a full cycle
    without improvement or after max_iterations cycles.
    """
    p = params if params is not None else TransferParams()
    if not 0.0 <= p.omega < float("inf"):
        raise ValueError("omega must be a finite non-negative number")
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise ValueError("costs must be a (faces, segments) table")
    num_faces, num_segments = costs.shape
    if num_segments == 0:
        raise NoSegments("no segments to transfer labels from")
    if num_faces != len(mesh.faces):
        raise ValueError("cost table does not match the face count")
    labels = np.argmin(costs, axis=1)
    pairs, _ = mesh.dual_edges()
    boundary = _boundary_costs(mesh)
    weights = p.omega * boundary
    energy = _energy(labels, costs, pairs, boundary, p.omega)
    for _ in range(p.max_iterations):
        improved = False
        for alpha in range(num_segments):
            candidate = _expansion_move(labels, alpha, costs, pairs, weights)
            if candidate is None:
                continue
            candidate_energy = _energy(candidate, costs, pairs, boundary,
                                       p.omega)
            if candidate_energy < energy:
                labels, energy = candidate, candidate_energy
                improved = True
                if trace is not None:
                    trace.append((alpha, energy))
        if not improved:
            break
    return labels


def data_table(mesh: SurfaceMesh, graph, regions) -> np.ndarray:
    """Per-face, per-region data costs as a (faces, regions) array.

    A face's gap to a region is min over its spheres of |p - c| - r.  That
    score is its own lower bound with slack r, so a tree over the region's
    sphere centers prunes the search: only spheres whose centers lie within
    best + max(r) of the face centroid can reach the minimum, and the result
    equals the full faces x spheres scan exactly.
    """
    if len(regions) == 0:
        raise NoSegments("no regions to transfer labels from")
    centroids = mesh.face_centroids()
    diagonal = mesh.diagonal()
    if diagonal <= 0.0:
        diagonal = 1.0
    columns = []
    for region in regions:
        centers, radii = graph.sphere_arrays(region.nodes)
        if centers.shape[0] == 0:
            raise ValueError(f"region {region.id} has no spheres")

        def gap(rows, items):
            return (np.linalg.norm(centroids[rows] - centers[items], axis=1)
                    - radii[items])

        best, _ = _bounded_nearest(centroids, centers, radii, gap, shift=radii)
        columns.append(np.maximum(0.0, best) / diagonal)
    return np.stack(columns, axis=1)


def transfer_labels(mesh: SurfaceMesh, graph, regions, params=None, trace=None):
    """Label every surface face with the id of its best interior region."""
    table = data_table(mesh, graph, regions)
    indices = optimize_labels(mesh, table, params, trace)
    ids = np.array([region.id for region in regions], dtype=int)
    return ids[indices]
