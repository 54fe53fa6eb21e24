"""Transfer of interior segment labels onto surface faces.

Each face pays a data cost (bounding-box-normalized distance to its
segment's nearest sphere surface) plus a smoothness cost on every adjacent
face pair with differing labels (the exterior dihedral angle, clamped so
concave valleys are cheap to cut along and convex ridges are not).  The
labeling is minimized by iterated alpha-expansion where every move is an
exact minimum s-t cut.  Each cut is read off a maximum flow solved from the
sink side; the source side it gives, the nodes the residual still reaches
from the source, is the same for every maximum flow, so the labels do not
depend on the direction of the solve.

Most moves change no face, so the arrays of a move that do not depend on
alpha are kept per labeling and made again only after an accepted move:
the cost of each face's current label, the labels at both faces of every
adjacent pair, and the pair terms that depend on those labels alone.  A
move builds the rest, the terms of alpha, and hands the solver int32
capacities.  A move whose capacities overflow raises ValueError rather
than cutting a graph that no longer scales to integers, and so does a
labeling whose energy overflows, in its summed data cost or in omega
times its boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from .geometry import _sphere_gaps
from .mesh_io import SurfaceMesh, integer, weight, whole_numbers


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
    """Source side of a minimum cut, as a boolean mask over all nodes.

    The side is the set of nodes reachable from the source in the residual
    of a maximum flow.  That set is the same for every maximum flow of one
    graph (Picard and Queyranne, 1980): it is the intersection of the
    source sides of all minimum cuts.  So the flow may come from any
    solve, and it is solved from the sink side: a maximum flow from sink
    to source on the reversed graph, transposed, is a maximum flow of the
    graph itself.  On expansion moves that solve is several times faster.

    Raises ValueError when the flow bound or a summed arc is not finite,
    since no integer scaling keeps such a graph.
    """
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    caps = np.asarray(caps, dtype=float)
    side = np.zeros(num_nodes, dtype=bool)
    positive = caps > 0.0
    if not positive.any():
        side[source] = True
        return side
    if not positive.all():
        tails, heads, caps = tails[positive], heads[positive], caps[positive]
    with np.errstate(over="ignore"):
        flow_bound = min(caps[tails == source].sum(), caps[heads == sink].sum())
    # parallel arcs are summed before scaling, so no arc passes 2**30
    reverse = csr_matrix(
        (caps, (heads, tails)), shape=(num_nodes, num_nodes), dtype=float
    )
    top = max(float(reverse.data.max()), float(flow_bound))
    if not math.isfinite(top):
        raise ValueError("cut capacities overflow: the flow bound or an arc "
                         "is not finite")
    scale = float(2**_SCALE_BITS) / top
    if math.isinf(scale):
        # top is below about 1e-300: divide first, then scale exactly
        scaled = reverse.data / top * float(2**_SCALE_BITS)
    else:
        scaled = reverse.data * scale
    reverse.data = np.round(scaled).astype(np.int32)
    result = maximum_flow(reverse, int(sink), int(source))
    # flow minus capacity is the residual negated: it has the same nonzero
    # entries, and unlike the residual (up to 2**31) it stays inside int32
    residual = (result.flow - reverse).T
    residual.eliminate_zeros()
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
    with np.errstate(over="ignore"):
        total = float(costs[np.arange(len(labels)), labels].sum())
    if not math.isfinite(total):
        # an inf energy would make every move compare as no better
        raise ValueError("labeling energy overflows: the costs are too large")
    if len(pairs):
        differ = labels[pairs[:, 0]] != labels[pairs[:, 1]]
        total += float(omega) * float(boundary[differ].sum())
        if not math.isfinite(total):
            raise ValueError(
                "labeling energy overflows: omega times the boundary is too large")
    return total


def _check_costs_finite(costs) -> None:
    if not np.isfinite(costs).all():
        raise ValueError("costs must be finite")


def labeling_energy(mesh: SurfaceMesh, labels, costs, omega) -> float:
    """Total labeling energy: data costs plus omega-weighted boundary costs."""
    mesh.validate()
    weight(omega, "omega")
    labels = whole_numbers(labels)
    costs = np.asarray(costs, dtype=float)
    faces = len(mesh.faces)
    if costs.ndim != 2 or len(costs) != faces or labels.shape != (faces,):
        raise ValueError(f"{faces} faces need {faces} labels and a ({faces}, k)"
                         f" cost table, got labels of shape {labels.shape} "
                         f"and costs of shape {costs.shape}")
    _check_costs_finite(costs)
    stray = labels[(labels < 0) | (labels >= costs.shape[1])]
    if stray.size:
        raise ValueError(f"label {stray[0]} has no cost column of "
                         f"{costs.shape[1]}")
    pairs, _ = mesh.dual_edges()
    return _energy(labels, costs, pairs, _boundary_costs(mesh), omega)


class _ExpansionMoves:
    """Alpha-expansion moves on one cost table, from one labeling at a time.

    A move is one binary min cut: keep-current is the source side,
    switch-to-alpha the sink side.  The pairwise table (A=cost both keep,
    B/C=one switches, D=0) is submodular for boundary costs of the
    same-label-is-free kind, so the residual B+C-A lands on a single arc
    and C-A / -C fold into the unary terms.

    relabel keeps what depends on the labeling but on no alpha: the keep
    costs, the labels of each pair's faces, A, and B+C-A of a pair whose
    faces both keep their labels.  Only those pairs get an arc: when one
    face already has label alpha, B+C-A is 0.  Each array is the float
    that a move building everything afresh computes, so every move solves
    the same integer graph.  move raises ValueError when a folded unary,
    an arc or the flow bound is not finite.
    """

    def __init__(self, costs, pairs, boundary_weights, labels):
        self.costs = costs
        self.f = np.ascontiguousarray(pairs[:, 0])
        self.g = np.ascontiguousarray(pairs[:, 1])
        self.weights = boundary_weights
        with np.errstate(over="ignore"):
            self.doubled = boundary_weights + boundary_weights
        self.relabel(labels)

    def relabel(self, labels):
        self.labels = labels
        self.theta0 = self.costs[np.arange(len(labels)), labels]
        self.l_f = labels[self.f]
        self.l_g = labels[self.g]
        self.a = self.weights * (self.l_f != self.l_g)
        # B = C = weight when both faces keep their labels
        self.both_keep = self.doubled - self.a
        self.arcs = self.both_keep > 0.0

    def move(self, alpha):
        """New labels after the expansion of alpha, or None if none change."""
        labels = self.labels
        num_faces = len(labels)
        keep_g = self.l_g != alpha
        c = self.weights * keep_g
        theta1 = self.costs[:, alpha].copy()
        with np.errstate(over="ignore", invalid="ignore"):
            np.add.at(theta1, self.f, c - self.a)
            np.subtract.at(theta1, self.g, c)
            diff = theta1 - self.theta0
        cross = self.arcs & (self.l_f != alpha) & keep_g
        residual = self.both_keep[cross]
        if not (np.isfinite(diff).all() and np.isfinite(residual).all()):
            raise ValueError("expansion move capacities overflow: omega or "
                             "the costs are too large")
        source, sink = num_faces, num_faces + 1
        ends = np.flatnonzero(diff)
        terminal = diff[ends]
        pull = terminal > 0.0
        side = _min_cut_side(
            num_faces + 2,
            source,
            sink,
            np.concatenate((self.f[cross], np.where(pull, source, ends))),
            np.concatenate((self.g[cross], np.where(pull, ends, sink))),
            np.concatenate((residual, np.abs(terminal))),
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
    mesh.validate()
    p = params if params is not None else TransferParams()
    weight(p.omega, "omega")
    iterations = integer(p.max_iterations, "max_iterations", least=0)
    costs = np.asarray(costs, dtype=float)
    if costs.ndim != 2:
        raise ValueError("costs must be a (faces, segments) table")
    num_faces, num_segments = costs.shape
    if num_segments == 0:
        raise NoSegments("no segments to transfer labels from")
    if num_faces != len(mesh.faces):
        raise ValueError("cost table does not match the face count")
    _check_costs_finite(costs)
    labels = np.argmin(costs, axis=1)
    pairs, _ = mesh.dual_edges()
    boundary = _boundary_costs(mesh)
    energy = _energy(labels, costs, pairs, boundary, p.omega)
    moves = _ExpansionMoves(costs, pairs, p.omega * boundary, labels)
    for _ in range(iterations):
        improved = False
        for alpha in range(num_segments):
            candidate = moves.move(alpha)
            if candidate is None:
                continue
            candidate_energy = _energy(candidate, costs, pairs, boundary,
                                       p.omega)
            if candidate_energy < energy:
                labels, energy = candidate, candidate_energy
                moves.relabel(labels)
                improved = True
                if trace is not None:
                    trace.append((alpha, energy))
        if not improved:
            break
    return labels


def data_table(mesh: SurfaceMesh, graph, regions) -> np.ndarray:
    """Per-face, per-region data costs as a (faces, regions) array.

    A face's gap to a region is min over its spheres of |p - c| - r.  A tree
    over the region's sphere centers prunes the search: only spheres whose
    centers lie within best + max(r) of the face centroid can reach the
    minimum, and the result equals the full faces x spheres scan exactly.
    """
    mesh.validate()
    if len(regions) == 0:
        raise NoSegments("no regions to transfer labels from")
    centroids = mesh.face_centroids()
    diagonal = mesh.diagonal()
    if diagonal <= 0.0:
        diagonal = 1.0
    columns = []
    for region in regions:
        centers, radii = graph.sphere_arrays(graph.region_index(region))
        if centers.shape[0] == 0:
            raise ValueError(f"region {region.id} has no spheres")
        best = _sphere_gaps(centroids, centers, radii)
        columns.append(np.maximum(0.0, best) / diagonal)
    return np.stack(columns, axis=1)


def transfer_labels(mesh: SurfaceMesh, graph, regions, params=None, trace=None):
    """Label every surface face with the id of its best interior region."""
    table = data_table(mesh, graph, regions)
    indices = optimize_labels(mesh, table, params, trace)
    ids = np.array([region.id for region in regions], dtype=int)
    return ids[indices]
