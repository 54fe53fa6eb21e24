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

Boundary data is built only when it can matter, and each shortcut gives
what the full computation gives.  A labeling with one label has no
adjacent pair whose labels differ, so its energy is its summed data cost
(omega times an empty boundary sum adds 0.0, which leaves the float as it
is).  A move whose alpha already labels every face is the identity: no
pair gets an arc, every folded unary is the face's own cost minus itself,
exactly 0.0, so the cut keeps every face and the move returns None.  So
optimize_labels skips that move, and builds the dual graph, the boundary
costs and the move state at the first move that can change a face; on a
table whose argmin has one label and one column, it builds none of them.

The cost table is column-major: data_table fills one region's row of a
(regions, faces) array at a time and hands back its transpose, so each
move copies its alpha column from contiguous memory.

One region needs no table.  Its table has one column, so the argmin
labels every face 0 and every move is the identity: transfer_labels
gives every face the region's id.  The table still matters for its
errors: a distance, a cost or the summed energy that overflows raises
ValueError.  So the shortcut is taken only when a bound rules that out.
A face centroid's coordinates are at most s_v = max |vertex coordinate|
(and their sum 3 s_v is finite), so with s = s_v + max |center
coordinate| + max |radius| every distance is at most 2s, every entry at
most 2s / diagonal and the energy at most faces * 2s / diagonal.  With
s <= 1e150 no squared distance overflows, and with faces * 2s <= 1e300 *
diagonal neither does the energy.  An input the bound does not clear
(a NaN fails every comparison) takes the full path, with its errors.
The checks run in the full path's order: the region ids, the mesh, the
region's node ids, a region with no spheres, then omega and
max_iterations.
"""

from __future__ import annotations

import math
import numbers
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
    # entries, and unlike the residual (up to 2**31) it stays inside int32.
    # breadth_first_order works on a float64 csr: casting before the
    # transpose saves it a cast of the csr it converts the csc to.
    residual = (result.flow - reverse).astype(np.float64).T
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


def _data_energy(labels, costs) -> float:
    with np.errstate(over="ignore"):
        total = float(costs[np.arange(len(labels)), labels].sum())
    if not math.isfinite(total):
        # an inf energy would make every move compare as no better
        raise ValueError("labeling energy overflows: the costs are too large")
    return total


def _energy(labels, costs, pairs, boundary, omega) -> float:
    total = _data_energy(labels, costs)
    if len(pairs):
        differ = labels[pairs[:, 0]] != labels[pairs[:, 1]]
        total += float(omega) * float(boundary[differ].sum())
        if not math.isfinite(total):
            raise ValueError(
                "labeling energy overflows: omega times the boundary is too large")
    return total


def _real_costs(costs) -> np.ndarray:
    """costs as a float array.  A complex or other non-real entry raises a
    ValueError that names costs, rather than losing its imaginary part."""
    arr = np.asarray(costs)
    if arr.dtype.kind == "O":
        real = all(isinstance(x, (numbers.Real, np.bool_)) for x in arr.flat)
    else:
        real = arr.dtype.kind in "biuf"
    if not real:
        raise ValueError(f"costs must be real numbers, got {arr.dtype} entries")
    try:
        return arr.astype(float, copy=False)
    except OverflowError:  # an int beyond the float range
        raise ValueError("costs must be finite") from None


def _check_costs_finite(costs) -> None:
    if not np.isfinite(costs).all():
        raise ValueError("costs must be finite")


def _checked_params(params) -> tuple[TransferParams, int]:
    """params (the defaults for None) and its max_iterations, checked."""
    p = params if params is not None else TransferParams()
    weight(p.omega, "omega")
    return p, integer(p.max_iterations, "max_iterations", least=0)


def labeling_energy(mesh: SurfaceMesh, labels, costs, omega) -> float:
    """Total labeling energy: data costs plus omega-weighted boundary costs."""
    mesh.validate()
    weight(omega, "omega")
    labels = whole_numbers(labels)
    costs = _real_costs(costs)
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
    without improvement or after max_iterations cycles.  A label whose last
    move was tried with no move accepted since is skipped: its move would
    cut the same graph from the same labels and be rejected again.
    """
    mesh.validate()
    p, iterations = _checked_params(params)
    costs = _real_costs(costs)
    if costs.ndim != 2:
        raise ValueError("costs must be a (faces, segments) table")
    num_faces, num_segments = costs.shape
    if num_segments == 0:
        raise NoSegments("no segments to transfer labels from")
    if num_faces != len(mesh.faces):
        raise ValueError("cost table does not match the face count")
    _check_costs_finite(costs)
    labels = np.argmin(costs, axis=1)
    pairs = boundary = moves = None
    if (labels == labels[:1]).all():
        energy = _data_energy(labels, costs)  # one label: no boundary
    else:
        pairs, _ = mesh.dual_edges()
        boundary = _boundary_costs(mesh)
        energy = _energy(labels, costs, pairs, boundary, p.omega)
    accepted = 0
    tried = {}  # label -> moves accepted before its last move
    for _ in range(iterations):
        improved = False
        for alpha in range(num_segments):
            if (labels == alpha).all() or tried.get(alpha) == accepted:
                continue  # the identity move, or one already rejected
            tried[alpha] = accepted
            if moves is None:
                if pairs is None:
                    pairs, _ = mesh.dual_edges()
                    boundary = _boundary_costs(mesh)
                moves = _ExpansionMoves(costs, pairs, p.omega * boundary,
                                        labels)
            candidate = moves.move(alpha)
            if candidate is None:
                continue
            candidate_energy = _energy(candidate, costs, pairs, boundary,
                                       p.omega)
            if candidate_energy < energy:
                labels, energy = candidate, candidate_energy
                accepted += 1
                moves.relabel(labels)
                improved = True
                if trace is not None:
                    trace.append((alpha, energy))
        if not improved:
            break
    return labels


def data_table(mesh: SurfaceMesh, graph, regions) -> np.ndarray:
    """Per-face, per-region data costs as an F-contiguous (faces, regions)
    array.

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
    table = np.empty((len(regions), len(centroids)))
    for row, region in zip(table, regions):
        best = _sphere_gaps(centroids, *_region_spheres(graph, region))
        np.divide(np.maximum(0.0, best), diagonal, out=row)
    return table.T


def _region_spheres(graph, region) -> tuple[np.ndarray, np.ndarray]:
    """(centers, radii) of the region's spheres; ValueError names a region
    with a bad node id or with no spheres."""
    centers, radii = graph.sphere_arrays(graph.region_index(region))
    if centers.shape[0] == 0:
        raise ValueError(f"region {region.id} has no spheres")
    return centers, radii


def _table_fits(mesh: SurfaceMesh, centers, radii) -> bool:
    """True when no distance, cost or energy sum of a one-region table can
    overflow (the bound in the module docstring)."""
    size = (float(np.abs(mesh.vertices).max(initial=0.0))
            + float(np.abs(centers).max()) + float(np.abs(radii).max()))
    diagonal = mesh.diagonal()
    if diagonal <= 0.0:
        diagonal = 1.0
    return size <= 1e150 and len(mesh.faces) * 2.0 * size <= 1e300 * diagonal


def transfer_labels(mesh: SurfaceMesh, graph, regions, params=None, trace=None):
    """Label every surface face with the id of its best interior region.

    One region labels every face with its id without a cost table, when
    _table_fits rules out the table's overflow errors.
    """
    ids = whole_numbers([region.id for region in regions], "region id")
    if len(regions) == 1:
        mesh.validate()
        if _table_fits(mesh, *_region_spheres(graph, regions[0])):
            _checked_params(params)
            return np.full(len(mesh.faces), ids[0])
    table = data_table(mesh, graph, regions)
    indices = optimize_labels(mesh, table, params, trace)
    return ids[indices]
