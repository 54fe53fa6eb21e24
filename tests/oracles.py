"""Plain references for the package's vectorised and pruned computations.

These are the Sphere-list and set build of a medial mesh that its
sphere, edge and face arrays replaced, the per-node construction of the
MAT graph's node table that the arrays built once replaced, the dense faces x spheres scan the
package used before its sphere-gap search was pruned with a k-d tree, the
scalar data cost of one face, the dict-based dual-graph builder the numpy
edge pairing replaced, the stacked-array collapse cost the closed-form
quadratic replaced, the per-edge collapse cost the batched scoring
replaced, the simplification queue that re-scored every edge at every
touched vertex after a collapse, with the set-based state and topology
check that the flat per-vertex loop replaced, the per-node dense
swallowing test the ball query replaced, and the union-finds, depth-first walks and set loops
that the node x sphere incidence and ``mat_graph.linked_groups``
replaced, the minimum cut
solved from the source side that the sink-side solve replaced, the
expansion move that built every array afresh on each move, which the
per-labeling move arrays replaced, the
per-line file readers and writers that the bulk ones replaced, the
scalar sphere, cone and slab primitives whose per-node loop the row-wise
slab and cone kernels replaced, and the
per-pair angles and growing costs that the pair table replaced, with the
grow loop that computed and cached each cost on first read.  The
package's results must equal them exactly (readers, grow and node
geometry: the same arrays, or the same exception class and message), save
for the rounding noise of the stacked sum.  A bounding-box helper only the
tests use lives here as well.
"""

import heapq
import math
import sys
from collections import deque
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from segmat.geometry import EPSILON_FACTOR, DegenerateGeometry
from segmat.growing import (
    GrowingParams,
    Region,
    _component_thresholds,
    _merge_leftovers,
    region_labels,
    swallow,
)
from segmat.mat_simplify import (
    _FROM_A_SQ,
    _FROM_B_SQ,
    _PLACEMENT_SAMPLES,
    SimplifyParams,
)
from segmat.mesh_io import (
    PALETTE,
    EmptyInput,
    LengthMismatch,
    MedialMesh,
    NegativeRadius,
    ParseError,
    SurfaceMesh,
)
from segmat.structure import (
    ComponentKind,
    DegenerateInput,
    Joint,
    JointKind,
    StructuralComponent,
)
from segmat.transfer import _SCALE_BITS, _boundary_costs, _energy, _min_cut_side


# --- the per-node envelope geometry the row-wise kernels replaced ----------

Vec3 = tuple[float, float, float]


def _v(p) -> Vec3:
    return (float(p[0]), float(p[1]), float(p[2]))


def sub(a, b) -> Vec3:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def add(a, b) -> Vec3:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def scale(a, s: float) -> Vec3:
    return (a[0] * s, a[1] * s, a[2] * s)


def dot(a, b) -> float:
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def cross(a, b) -> Vec3:
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def norm(a) -> float:
    squares = a[0] * a[0] + a[1] * a[1] + a[2] * a[2]
    n = math.sqrt(squares)
    s = max(abs(a[0]), abs(a[1]), abs(a[2]))
    lost = squares < sys.float_info.min or squares == math.inf
    if lost and 0.0 < s < math.inf:
        # the squares left the normal range: measure a / s instead
        b = (a[0] / s, a[1] / s, a[2] / s)
        n = s * math.sqrt(b[0] * b[0] + b[1] * b[1] + b[2] * b[2])
    return n


def normalize(a) -> Vec3:
    n = norm(a)
    if n == 0.0:
        raise DegenerateGeometry("cannot normalize a zero vector")
    return (a[0] / n, a[1] / n, a[2] / n)


def any_perpendicular(a) -> Vec3:
    """Deterministic unit vector perpendicular to a (a must be nonzero)."""
    ax, ay, az = abs(a[0]), abs(a[1]), abs(a[2])
    # Cross against the coordinate axis least aligned with a.
    if ax <= ay and ax <= az:
        basis = (1.0, 0.0, 0.0)
    elif ay <= az:
        basis = (0.0, 1.0, 0.0)
    else:
        basis = (0.0, 0.0, 1.0)
    return normalize(cross(a, basis))


@dataclass(frozen=True)
class Sphere:
    """Medial sphere: center in model units, radius >= 0."""

    center: Vec3
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _v(self.center))
        object.__setattr__(self, "radius", float(self.radius))


@dataclass(frozen=True)
class TangentPlane:
    """Plane {x : normal . x + offset = 0} with unit normal.

    Stored so that the signed distance of every generating sphere center
    equals its radius (the normal points from the plane toward the spheres).
    """

    normal: Vec3
    offset: float


@dataclass(frozen=True)
class ConeGeometry:
    """Envelope data of a medial cone spanned by two spheres.

    axis points from the smaller-radius sphere center to the larger one
    (ties broken lexicographically on the centers), slant_sine is
    (r_large - r_small) / center distance, in [0, 1].  The envelope line in
    any axial plane makes angle asin(slant_sine) with the axis.
    """

    axis: Vec3
    slant_sine: float


def cone_geometry(s1: Sphere, s2: Sphere) -> ConeGeometry:
    """Axis and slant of the cone spanned by two spheres.

    Raises DegenerateGeometry when the centers coincide or one sphere
    contains the other (no external envelope exists).
    """
    c1, c2 = s1.center, s2.center
    d = norm(sub(c2, c1))
    span = d + s1.radius + s2.radius
    if d <= EPSILON_FACTOR * span or d == 0.0:
        raise DegenerateGeometry("cone spheres share a center")
    dr = abs(s2.radius - s1.radius)
    if dr > d:
        raise DegenerateGeometry("one cone sphere contains the other")
    if s1.radius < s2.radius or (s1.radius == s2.radius and c1 <= c2):
        lo, hi = c1, c2
    else:
        lo, hi = c2, c1
    return ConeGeometry(axis=normalize(sub(hi, lo)), slant_sine=min(1.0, dr / d))


def slab_tangent_planes(s1: Sphere, s2: Sphere, s3: Sphere) -> tuple[TangentPlane, TangentPlane]:
    """The two planes tangent to all three spheres of a medial slab.

    Each plane satisfies normal . c_i + offset = r_i for every sphere.  The
    first plane is the one whose normal has a positive component along the
    cross product of the center-plane edges.  Raises DegenerateGeometry for
    collinear centers, when no common tangent plane exists (one sphere
    dominates the other two) or when the normals come out non-finite.
    """
    c1, c2, c3 = s1.center, s2.center, s3.center
    e1 = sub(c2, c1)
    e2 = sub(c3, c1)
    m = cross(e1, e2)
    mn = norm(m)
    if mn <= EPSILON_FACTOR * max(norm(e1) * norm(e2), 1e-300):
        raise DegenerateGeometry("slab centers are collinear")
    b1 = s2.radius - s1.radius
    b2 = s3.radius - s1.radius
    # In-plane component p of the normal solves p.e1 = b1, p.e2 = b2.
    g11 = dot(e1, e1)
    g12 = dot(e1, e2)
    g22 = dot(e2, e2)
    det = g11 * g22 - g12 * g12
    if not det > 0.0:
        # a thin slab can pass the test above yet cancel (or overflow) here
        raise DegenerateGeometry("slab centers are collinear")
    x = (b1 * g22 - b2 * g12) / det
    y = (b2 * g11 - b1 * g12) / det
    p = add(scale(e1, x), scale(e2, y))
    q = 1.0 - dot(p, p)
    if q < 0.0:
        raise DegenerateGeometry("no common tangent plane (radius spread too large)")
    t = math.sqrt(q)
    mh = (m[0] / mn, m[1] / mn, m[2] / mn)
    n_plus = add(p, scale(mh, t))
    n_minus = sub(p, scale(mh, t))
    if not all(map(math.isfinite, n_plus + n_minus)):
        # a subnormal det makes x and y inf, and 0 * inf is NaN
        raise DegenerateGeometry("slab tangent normals are not finite")
    return (
        TangentPlane(normal=n_plus, offset=s1.radius - dot(n_plus, c1)),
        TangentPlane(normal=n_minus, offset=s1.radius - dot(n_minus, c1)),
    )


def slab_fallback_planes(s1: Sphere, s2: Sphere, s3: Sphere) -> tuple[TangentPlane, TangentPlane]:
    """Stand-in tangent planes for slabs without a true common tangent.

    Uses the centers' plane normal offset by +/- the mean radius, which keeps
    downstream angle computations total on dirty input.
    """
    c1, c2, c3 = s1.center, s2.center, s3.center
    m = cross(sub(c2, c1), sub(c3, c1))
    if norm(m) == 0.0:
        edge = sub(c2, c1)
        if norm(edge) == 0.0:
            edge = sub(c3, c1)
        m = any_perpendicular(edge) if norm(edge) > 0.0 else (0.0, 0.0, 1.0)
    mh = normalize(m)
    centroid = scale(add(add(c1, c2), c3), 1.0 / 3.0)
    r_mean = (s1.radius + s2.radius + s3.radius) / 3.0
    return (
        TangentPlane(normal=mh, offset=r_mean - dot(mh, centroid)),
        TangentPlane(normal=scale(mh, -1.0), offset=r_mean + dot(mh, centroid)),
    )


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


def node_geometry(mm):
    """build_graph's (normals, axes, slants), one Sphere per vertex and one
    slab or cone at a time: the tangent planes of a slab, or its fallback
    planes when it has none, and each standalone edge's cone."""
    spheres = [Sphere((x, y, z), r) for x, y, z, r in mm.spheres.tolist()]
    normals = []
    for tri in mm.faces.tolist():
        slab = [spheres[v] for v in tri]
        try:
            planes = slab_tangent_planes(*slab)
        except DegenerateGeometry:
            planes = slab_fallback_planes(*slab)
        normals.append([plane.normal for plane in planes])
    cones = [_edge_cone(spheres[a], spheres[b])
             for a, b in mm.edges[mm.standalone].tolist()]
    return (np.array(normals, dtype=float).reshape(-1, 2, 3),
            np.array([c.axis for c in cones], dtype=float).reshape(-1, 3),
            np.array([c.slant_sine for c in cones], dtype=float))


def bounding_diagonal(centers, radii=None):
    """Diagonal of the axis-aligned box enclosing spheres (or bare points)."""
    pts = np.asarray(centers, dtype=float)
    if pts.size == 0:
        return 0.0
    pts = pts.reshape(-1, 3)
    if radii is None:
        lo = pts.min(axis=0)
        hi = pts.max(axis=0)
    else:
        r = np.asarray(radii, dtype=float).reshape(-1, 1)
        lo = (pts - r).min(axis=0)
        hi = (pts + r).max(axis=0)
    return float(np.linalg.norm(hi - lo))


def sphere_arrays(g, node_ids):
    """MatGraph.sphere_arrays from a Python set of the nodes' elements."""
    seen = set()
    for i in node_ids:
        seen.update(g.elements[i])
    idx = sorted(seen)
    return g.mm.centers()[idx], g.mm.radii()[idx]


def build_medial_mesh(spheres, edges, faces):
    """MedialMesh.build as a list of Sphere objects and Python sets.

    Spheres are Sphere objects or (center, radius) pairs.  Returns a
    namespace with the Sphere list, the sorted edge and face tuples and the
    indices into the edges of those that belong to no face.
    """
    spheres = [s if isinstance(s, Sphere) else Sphere(tuple(s[0]), s[1]) for s in spheres]
    n = len(spheres)
    for s in spheres:
        if s.radius < 0.0:
            raise NegativeRadius(f"negative sphere radius {s.radius}")
    edge_set = set()
    for e in edges:
        a, b = int(e[0]), int(e[1])
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"edge index out of range: {e}")
        if a == b:
            raise ParseError(f"degenerate edge: {e}")
        edge_set.add((a, b) if a < b else (b, a))
    face_set = set()
    for f in faces:
        tri = tuple(sorted(int(v) for v in f))
        if not (0 <= tri[0] and tri[2] < n):
            raise ParseError(f"face index out of range: {f}")
        if tri[0] == tri[1] or tri[1] == tri[2]:
            raise ParseError(f"face with repeated vertices: {f}")
        face_set.add(tri)
        edge_set.update(((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2])))
    edges, faces = sorted(edge_set), sorted(face_set)
    in_face = set()
    for a, b, c in faces:
        in_face.update(((a, b), (b, c), (a, c)))
    return SimpleNamespace(
        spheres=spheres, edges=edges, faces=faces,
        standalone=[i for i, e in enumerate(edges) if e not in in_face])


def faces_of(mm):
    """The faces of a MedialMesh as tuples of Python ints."""
    return list(map(tuple, mm.faces.tolist()))


def standalone_of(mm):
    """The standalone edges of a MedialMesh as tuples of Python ints."""
    return list(map(tuple, mm.edges[mm.standalone].tolist()))


def node_table(mm):
    """build_graph's node table, built one node at a time.

    Returns a namespace with the elements, mean radii, centroids and a
    dense node x sphere incidence; ``adjacency`` accepts it as a graph.
    """
    centers = mm.centers()
    radii = mm.radii()
    elements, mean_radii, centroids = [], [], []
    for tri in faces_of(mm):
        elements.append(tri)
        mean_radii.append(float(radii[list(tri)].mean()))
        centroids.append(tuple(centers[list(tri)].mean(axis=0)))
    for a, b in standalone_of(mm):
        elements.append((a, b))
        mean_radii.append(float((radii[a] + radii[b]) / 2.0))
        centroids.append(tuple((centers[a] + centers[b]) / 2.0))
    incidence = np.zeros((len(elements), len(mm.spheres)), dtype=bool)
    for i, element in enumerate(elements):
        incidence[i, list(element)] = True
    return SimpleNamespace(
        elements=elements,
        mean_radii=np.array(mean_radii, dtype=float),
        centroids=np.array(centroids, dtype=float).reshape(-1, 3),
        incidence=incidence)


def adjacency(g):
    """build_graph's adjacency: nodes sharing a vertex, by a set loop."""
    vertex_nodes = {}
    for i, element in enumerate(g.elements):
        for v in element:
            vertex_nodes.setdefault(v, []).append(i)
    adjacency_sets = [set() for _ in g.elements]
    for incident in vertex_nodes.values():
        for i in incident:
            for j in incident:
                if i != j:
                    adjacency_sets[i].add(j)
    return [sorted(s) for s in adjacency_sets]


def _umbrella_count(v, fs):
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


def detect_joints(smat):
    """structure.detect_joints from incidence dicts and a DFS per vertex."""
    edge_faces = {}
    vertex_faces = {}
    for f in faces_of(smat):
        a, b, c = f
        for e in ((a, b), (b, c), (a, c)):
            edge_faces[e] = edge_faces.get(e, 0) + 1
        for v in f:
            vertex_faces.setdefault(v, []).append(f)

    vertex_edges = {}
    for e in standalone_of(smat):
        for v in e:
            vertex_edges[v] = vertex_edges.get(v, 0) + 1

    joints = [Joint(JointKind.SEAM_EDGE, e)
              for e in sorted(edge_faces) if edge_faces[e] >= 3]

    vertex_kinds = {}
    for v, count in vertex_edges.items():
        if count >= 3:
            vertex_kinds.setdefault(v, []).append(JointKind.SEAM_VERTEX)
        if v in vertex_faces:
            vertex_kinds.setdefault(v, []).append(JointKind.EDGE_TRIANGLE_VERTEX)
    for v, fs in vertex_faces.items():
        if len(fs) >= 2 and _umbrella_count(v, fs) >= 2:
            vertex_kinds.setdefault(v, []).append(
                JointKind.TRIANGLE_TRIANGLE_VERTEX)

    order = [JointKind.SEAM_VERTEX, JointKind.EDGE_TRIANGLE_VERTEX,
             JointKind.TRIANGLE_TRIANGLE_VERTEX]
    for v in sorted(vertex_kinds):
        for kind in order:
            if kind in vertex_kinds[v]:
                joints.append(Joint(kind, v))
    return joints


def _union(parent, a, b):
    ra, rb = _find(parent, a), _find(parent, b)
    if ra != rb:
        parent[rb] = ra


def _find(parent, x):
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def union_find_groups(items, keys_of):
    """Union-find groups of items sharing a key, members in item order.

    Groups come in the item order of their union-find roots, which is not
    always the order of their first items.
    """
    parent = {x: x for x in items}
    members = {}
    for x in items:
        for key in keys_of(x):
            members.setdefault(key, []).append(x)
    for linked in members.values():
        for y in linked[1:]:
            _union(parent, linked[0], y)
    groups = {}
    for x in items:
        groups.setdefault(_find(parent, x), []).append(x)
    return [groups.pop(x) for x in items if x in groups]


def split_components(smat, joints):
    """structure.split_components by union-find over faces, then edges.

    Components of one kind come in the order of their union-find roots.
    """
    seam_edges = {j.element for j in joints if j.kind is JointKind.SEAM_EDGE}
    cut_vertices = {j.element for j in joints
                    if j.kind is not JointKind.SEAM_EDGE}
    centers = smat.centers()
    radii = smat.radii()
    comps = []
    for faces in union_find_groups(faces_of(smat), lambda f: [
            e for e in ((f[0], f[1]), (f[1], f[2]), (f[0], f[2]))
            if e not in seam_edges]):
        tri = np.array(faces)
        a, b, c = centers[tri[:, 0]], centers[tri[:, 1]], centers[tri[:, 2]]
        area = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1).sum()
        comps.append(StructuralComponent(
            ComponentKind.SHEET, faces, float(math.sqrt(area)),
            float(radii[np.unique(tri)].max())))
    for group in union_find_groups(standalone_of(smat), lambda e: [
            v for v in e if v not in cut_vertices]):
        seg = np.array(group)
        length = np.linalg.norm(centers[seg[:, 1]] - centers[seg[:, 0]],
                                axis=1).sum()
        comps.append(StructuralComponent(
            ComponentKind.CURVE, group, float(length),
            float(radii[np.unique(seg)].max())))
    return comps


def merge_leftovers(g, regions, negligible):
    """growing._merge_leftovers with a depth-first walk per cluster."""
    leftovers = set(int(v) for v in np.flatnonzero(negligible))
    if not leftovers:
        return
    labels = region_labels(g, regions)
    seen = set()
    clusters = []
    for v in sorted(leftovers):
        if v in seen:
            continue
        stack = [v]
        seen.add(v)
        cluster = []
        while stack:
            u = stack.pop()
            cluster.append(u)
            for w in g.adjacency[u]:
                if w in leftovers and w not in seen:
                    seen.add(w)
                    stack.append(w)
        clusters.append(sorted(cluster))

    cents = g.centroids
    for cluster in clusters:
        links = np.zeros(len(regions), dtype=int)
        for u in cluster:
            for w in g.adjacency[u]:
                if labels[w] >= 0:
                    links[labels[w]] += 1
        if links.max() > 0:
            target = int(np.argmax(links))
        else:
            per_region = [np.linalg.norm(cents[cluster][:, None, :]
                                         - cents[r.nodes][None, :, :],
                                         axis=2).min()
                          for r in regions]
            target = int(np.argmin(per_region))
        regions[target].nodes.extend(cluster)
        labels[cluster] = target


def data_table(mesh, graph, regions):
    """(faces, regions) normalized gaps to each region's sphere surfaces."""
    centroids = mesh.face_centroids()
    diagonal = mesh.diagonal()
    if diagonal <= 0.0:
        diagonal = 1.0
    columns = []
    for region in regions:
        centers, radii = graph.sphere_arrays(region.nodes)
        step = max(1, (1 << 21) // centers.shape[0])
        best = np.empty(len(centroids))
        for lo in range(0, len(centroids), step):
            block = centroids[lo:lo + step]
            gaps = (
                np.linalg.norm(block[:, None, :] - centers[None, :, :], axis=2)
                - radii[None, :]
            )
            best[lo:lo + len(block)] = gaps.min(axis=1)
        columns.append(np.maximum(0.0, best) / diagonal)
    return np.stack(columns, axis=1)


def data_term(centroid, centers, radii, diagonal):
    """Normalized gap between a face centroid and a segment's sphere surfaces.

    Zero whenever the centroid lies inside any sphere of the segment.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if centers.shape[0] == 0:
        raise ValueError("segment has no spheres")
    if diagonal <= 0.0:
        raise ValueError("diagonal must be positive")
    gaps = np.linalg.norm(centers - np.asarray(centroid, dtype=float), axis=1) - radii
    return float(max(0.0, float(gaps.min())) / diagonal)


def min_cut_side(num_nodes, source, sink, tails, heads, caps):
    """transfer._min_cut_side with the maximum flow solved from the source.

    Same integer scaling, same residual search; only the direction of the
    solve differs.
    """
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
    graph = csr_matrix(
        (caps, (tails, heads)), shape=(num_nodes, num_nodes), dtype=float
    )
    scale = float(2**_SCALE_BITS) / max(float(graph.data.max()), float(flow_bound))
    graph.data = np.round(graph.data * scale).astype(np.int64)
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


def expansion_move(labels, alpha, costs, pairs, boundary_weights):
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


def optimize_labels(mesh, costs, omega, max_iterations=10):
    """transfer.optimize_labels with every move built by expansion_move."""
    labels = np.argmin(costs, axis=1)
    pairs, _ = mesh.dual_edges()
    boundary = _boundary_costs(mesh)
    weights = omega * boundary
    energy = _energy(labels, costs, pairs, boundary, omega)
    for _ in range(max_iterations):
        improved = False
        for alpha in range(costs.shape[1]):
            candidate = expansion_move(labels, alpha, costs, pairs, weights)
            if candidate is None:
                continue
            candidate_energy = _energy(candidate, costs, pairs, boundary,
                                       omega)
            if candidate_energy < energy:
                labels, energy = candidate, candidate_energy
                improved = True
        if not improved:
            break
    return labels


def dual_edges(mesh):
    """(pairs, shared) of mesh.dual_edges(), built from an edge -> faces dict."""
    table = {}
    for fi, (a, b, c) in enumerate(mesh.faces):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            table.setdefault(key, []).append(fi)
    pairs = []
    shared = []
    for (u, v), flist in sorted(table.items()):
        for i in range(len(flist)):
            for j in range(i + 1, len(flist)):
                a, b = flist[i], flist[j]
                pairs.append((a, b) if a < b else (b, a))
                shared.append((u, v))
    pairs_a = np.array(pairs, dtype=int).reshape(-1, 2)
    shared_a = np.array(shared, dtype=int).reshape(-1, 2)
    order = np.lexsort((pairs_a[:, 1], pairs_a[:, 0])) if len(pairs_a) else []
    return pairs_a[order], shared_a[order]


class SimplifyState:
    """Mutable element complex during simplification."""

    def __init__(self, mm: MedialMesh):
        n = len(mm.spheres)
        self.spheres = mm.spheres.copy()
        self.acc = np.zeros(n)
        self.version = np.zeros(n, dtype=int)
        # The complex is kept only as per-vertex incidence: the faces and
        # the standalone (face-free) edges at each vertex, and their count.
        self.vertex_faces: dict[int, set] = {}
        self.vertex_edges: dict[int, set] = {}
        for f in map(tuple, mm.faces.tolist()):
            for v in f:
                self.vertex_faces.setdefault(v, set()).add(f)
        for e in map(tuple, mm.edges[mm.standalone].tolist()):
            for v in e:
                self.vertex_edges.setdefault(v, set()).add(e)
        self.count = np.zeros(n, dtype=int)
        self.recount(self.vertex_faces.keys() | self.vertex_edges.keys())

    def recount(self, vertices) -> list[int]:
        """Refresh the face-plus-standalone-edge count of each of vertices;
        returns those whose count moved."""
        moved = []
        for v in vertices:
            n = len(self.incident_faces(v)) + len(self.incident_edges(v))
            if n != self.count[v]:
                self.count[v] = n
                moved.append(v)
        return moved

    def incident_faces(self, v: int) -> set:
        return self.vertex_faces.get(v, ())

    def incident_edges(self, v: int) -> set:
        return self.vertex_edges.get(v, ())

    def candidate_edges(self, vertices) -> set:
        """Collapsible 1-skeleton edges at any of vertices: the two sides of
        each incident face that meet the vertex, plus curve segments."""
        out = set()
        for v in vertices:
            out.update(self.incident_edges(v))
            for a, b, c in self.incident_faces(v):
                if v == a:
                    out.update(((a, b), (a, c)))
                elif v == b:
                    out.update(((a, b), (b, c)))
                else:
                    out.update(((b, c), (a, c)))
        return out

    def skeleton_neighbors(self, v: int) -> set[int]:
        out = set()
        for f in self.incident_faces(v):
            out.update(f)
        for e in self.incident_edges(v):
            out.update(e)
        out.discard(v)
        return out

    def score(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cost, t) of collapsing each edge (a[i], b[i]), t = 0 keeping sphere a."""
        d = self.spheres[b] - self.spheres[a]
        # a weighted sample past the float range reads inf
        with np.errstate(over="ignore"):
            fresh = np.vecdot(d, d)[:, None] * (self.count[a][:, None] * _FROM_A_SQ
                                                + self.count[b][:, None] * _FROM_B_SQ)
        best = fresh.argmin(axis=1)
        return fresh[np.arange(len(best)), best], _PLACEMENT_SAMPLES[best]


def violates_topology(state: SimplifyState, a: int, b: int) -> bool:
    opposite = set()
    for f in state.incident_faces(a):
        if b in f:
            opposite.update(v for v in f if v not in (a, b))
    common = state.skeleton_neighbors(a) & state.skeleton_neighbors(b)
    if common - opposite:
        return True
    # Never let a component vanish into a bare vertex.
    only_this_edge = (not state.incident_faces(a)
                      and not state.incident_faces(b)
                      and state.count[a] + state.count[b] == 2)
    return only_this_edge


def stacked_collapse_cost(spheres, count, a, b):
    """(cost, t) of collapsing edge (a, b), where count holds the faces plus
    standalone edges at each vertex.

    Stacks one copy of each endpoint sphere per element incident to it and
    sums the squared deviation of every sampled placement from all copies.
    """
    samples_t = np.linspace(0.0, 1.0, 17)
    incident_spheres = []
    for v in (a, b):
        incident_spheres.extend([spheres[v]] * max(int(count[v]), 1))
    originals = np.array(incident_spheres).reshape(-1, 4)
    samples = (spheres[a][None, :] * (1.0 - samples_t[:, None])
               + spheres[b][None, :] * samples_t[:, None])
    fresh = ((samples[:, None, :] - originals[None, :, :]) ** 2).sum(axis=2).sum(axis=1)
    best = int(np.argmin(fresh))
    return float(fresh[best]), float(samples_t[best])


def evaluate(spheres, count, a, b):
    """(cost, t) of collapsing edge (a, b), t = 0 keeping sphere a."""
    d = spheres[b] - spheres[a]
    weights = int(count[a]) * _FROM_A_SQ + int(count[b]) * _FROM_B_SQ
    fresh = (d @ d) * weights
    best = int(np.argmin(fresh))
    return float(fresh[best]), float(_PLACEMENT_SAMPLES[best])


def batch_of(per_edge):
    """A stand-in for ``mat_simplify._score`` that calls per_edge edge by
    edge; like it, returns lists of costs and of t."""
    def score(spheres, count, a, b):
        pairs = [per_edge(spheres, count, int(u), int(w)) for u, w in zip(a, b)]
        return [cost for cost, _ in pairs], [t for _, t in pairs]
    return score


def apply_collapse(state, a, b, t):
    """Merge b into a at interpolation t; returns the touched vertices, and
    bumps all their versions."""
    touched = {a, b}
    state.spheres[a] = (1.0 - t) * state.spheres[a] + t * state.spheres[b]

    old_faces = list(state.incident_faces(b))
    old_edges = list(state.incident_edges(b))

    def drop_face(f):
        for v in f:
            state.vertex_faces[v].discard(f)
            touched.add(v)

    def drop_edge(e):
        for v in e:
            state.vertex_edges[v].discard(e)
            touched.add(v)

    def covered_by_face(u, w):
        return any(w in f for f in state.incident_faces(u))

    def add_edge(u, w):
        if u == w:
            return
        key = (u, w) if u < w else (w, u)
        if key in state.incident_edges(u) or covered_by_face(u, w):
            return
        for v in key:
            state.vertex_edges.setdefault(v, set()).add(key)
            touched.add(v)

    for f in old_faces:
        drop_face(f)
        verts = [a if v == b else v for v in f]
        if len(set(verts)) == 2:
            # The face contained the collapsed edge: it degrades to a segment.
            u, w = sorted(set(verts))
            add_edge(u, w)
        else:
            nf = tuple(sorted(verts))
            if nf not in state.incident_faces(a):
                for v in nf:
                    state.vertex_faces.setdefault(v, set()).add(nf)
                    touched.add(v)
    for e in old_edges:
        drop_edge(e)
        u, w = (a if v == b else v for v in e)
        add_edge(u, w)

    # A new sheet attachment can make an explicit segment redundant.
    for e in list(state.incident_edges(a)):
        if covered_by_face(*e):
            drop_edge(e)

    state.acc[a] = state.acc[a] + state.acc[b]
    state.recount(touched)
    for v in touched:
        state.version[v] += 1
    return touched


def simplify(mm, params=None, trace=None):
    """mat_simplify.simplify with the queue it had before it re-scored only
    the changed vertices' edges: the first queue comes from the candidate
    edges of every vertex, and after each collapse every candidate edge of
    every touched vertex is re-scored and every touched version bumped.
    Stale entries stay in the queue until they are popped."""
    mm.validate()
    params = params or SimplifyParams()
    if not params.target_error >= 0.0:
        raise ValueError(
            f"target_error must not be negative, got {params.target_error}")
    if len(mm.edges) == 0:
        raise EmptyInput("medial mesh has no elements")
    state = SimplifyState(mm)
    bound = params.target_error * mm.diagonal()
    bound_sq = bound * bound

    def scored(vertices):
        ab = np.array(list(state.candidate_edges(vertices)),
                      dtype=np.intp).reshape(-1, 2)
        a, b = ab[:, 0], ab[:, 1]
        fresh, t = state.score(a, b)
        total = fresh if params.average_error else fresh + state.acc[a] + state.acc[b]
        return list(zip(total.tolist(), a.tolist(), b.tolist(),
                        state.version[a].tolist(), state.version[b].tolist(),
                        fresh.tolist(), t.tolist()))

    heap = scored(state.vertex_faces.keys() | state.vertex_edges.keys())
    heapq.heapify(heap)

    accepted_sq_sum = 0.0
    accepted = 0
    while heap:
        total, a, b, va, vb, fresh, t = heapq.heappop(heap)
        if state.version[a] != va or state.version[b] != vb:
            continue
        if params.average_error:
            if (accepted_sq_sum + total) / (accepted + 1) > bound_sq:
                break
        elif total > bound_sq:
            break
        if params.preserve_topology and violates_topology(state, a, b):
            continue
        touched = apply_collapse(state, a, b, t)
        state.acc[a] += fresh
        accepted_sq_sum += total
        accepted += 1
        if trace is not None:
            trace.append(((a, b), total, t))
        for entry in scored(touched):
            heapq.heappush(heap, entry)

    faces = np.array(list(set().union(*state.vertex_faces.values())),
                     dtype=np.intp).reshape(-1, 3)
    edges = np.array(list(set().union(*state.vertex_edges.values())),
                     dtype=np.intp).reshape(-1, 2)
    used = np.union1d(faces, edges)
    if not len(used):
        used = np.argmax(state.spheres[:, 3], keepdims=True)
    return MedialMesh.build(state.spheres[used], np.searchsorted(used, edges),
                            np.searchsorted(used, faces))


def swallow(g, region, unclaimed):
    """growing.swallow as a dense (node spheres x region spheres) test per node."""
    centers, radii = sphere_arrays(g, region.nodes)
    all_centers = g.mm.centers()
    all_radii = g.mm.radii()
    for v in unclaimed:
        el = list(g.elements[v])
        c = all_centers[el]
        r = all_radii[el]
        d = np.linalg.norm(c[:, None, :] - centers[None, :, :], axis=2)
        intersects = bool((d < r[:, None] + radii[None, :]).any())
        enclosed = bool(((d + r[:, None]) <= radii[None, :]).any(axis=1).all())
        if intersects or enclosed:
            region.nodes.append(int(v))
    return region


# mesh_io's readers and writers as they were, one line at a time.


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def _meaningful_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def load_surface(path) -> SurfaceMesh:
    """Load an OFF or OBJ triangle mesh (quads and fans are split)."""
    p = str(path)
    lower = p.lower()
    if lower.endswith(".off"):
        return _load_off(p)
    if lower.endswith(".obj"):
        return _load_obj(p)
    raise ParseError(f"{p}: unsupported surface format (expected .off or .obj)")


def save_surface(mesh: SurfaceMesh, path) -> None:
    """Write OFF or OBJ depending on the file extension."""
    p = str(path)
    lower = p.lower()
    if lower.endswith(".off"):
        _save_off(mesh, p)
    elif lower.endswith(".obj"):
        _save_obj(mesh, p)
    else:
        raise ParseError(f"{p}: unsupported surface format (expected .off or .obj)")


def _fan(indices, path, lineno):
    if len(indices) < 3:
        raise ParseError(f"{path}:{lineno}: face with fewer than 3 vertices")
    tris = []
    for i in range(1, len(indices) - 1):
        tri = (indices[0], indices[i], indices[i + 1])
        if tri[0] == tri[1] or tri[1] == tri[2] or tri[0] == tri[2]:
            raise ParseError(f"{path}:{lineno}: face with repeated vertices")
        tris.append(tri)
    return tris


def _load_off(path) -> SurfaceMesh:
    lines = _meaningful_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty OFF file") from None
    tokens = header.split()
    if tokens[0] != "OFF":
        raise ParseError(f"{path}:{lineno}: missing OFF header")
    counts = tokens[1:]
    if not counts:
        lineno, line = next(lines, (lineno, None))
        if line is None:
            raise ParseError(f"{path}:{lineno}: missing element counts")
        counts = line.split()
    if len(counts) < 2:
        raise ParseError(f"{path}:{lineno}: malformed element counts")
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except ValueError:
        nv = nf = -1
    if nv < 0 or nf < 0:
        raise ParseError(f"{path}:{lineno}: malformed element counts")
    vertices = []
    for _ in range(nv):
        lineno, line = next(lines, (lineno, None))
        if line is None:
            raise ParseError(f"{path}: truncated vertex list")
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
        try:
            vertices.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad vertex coordinate") from None
    faces = []
    for _ in range(nf):
        lineno, line = next(lines, (lineno, None))
        if line is None:
            raise ParseError(f"{path}: truncated face list")
        parts = line.split()
        try:
            k = int(parts[0])
            idx = [int(t) for t in parts[1:1 + k]]
        except (ValueError, IndexError):
            raise ParseError(f"{path}:{lineno}: malformed face record") from None
        if len(idx) != k:
            raise ParseError(f"{path}:{lineno}: face arity mismatch")
        for v in idx:
            if not 0 <= v < nv:
                raise ParseError(f"{path}:{lineno}: face index {v} out of range")
        faces.extend(_fan(idx, path, lineno))
    lineno, line = next(lines, (lineno, None))
    if line is not None:
        raise ParseError(f"{path}:{lineno}: record past the {nv} vertices and "
                         f"{nf} faces of the header")
    mesh = SurfaceMesh(np.array(vertices, dtype=float).reshape(-1, 3),
                       np.array(faces, dtype=int).reshape(-1, 3))
    mesh.validate()
    return mesh


def _load_obj(path) -> SurfaceMesh:
    vertices = []
    raw_faces = []
    for lineno, line in _meaningful_lines(path):
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise ParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                vertices.append((float(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad vertex coordinate") from None
        elif parts[0] == "f":
            idx = []
            for tok in parts[1:]:
                head = tok.split("/", 1)[0]
                try:
                    v = int(head)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad face index {tok!r}") from None
                if v < 1:
                    raise ParseError(
                        f"{path}:{lineno}: face index {v} (OBJ indices are 1-based)")
                idx.append(v - 1)
            raw_faces.append((lineno, idx))
        # all other record types (vn, vt, g, o, s, usemtl...) are ignored
    faces = []
    for lineno, idx in raw_faces:
        for v in idx:
            if v >= len(vertices):
                raise ParseError(f"{path}:{lineno}: face index {v + 1} out of range")
        faces.extend(_fan(idx, path, lineno))
    mesh = SurfaceMesh(np.array(vertices, dtype=float).reshape(-1, 3),
                       np.array(faces, dtype=int).reshape(-1, 3))
    mesh.validate()
    return mesh


def _save_off(mesh: SurfaceMesh, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def _save_obj(mesh: SurfaceMesh, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in mesh.vertices:
            fh.write(f"v {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def load_medial_mesh(path) -> MedialMesh:
    """Load a ``.ma`` medial mesh and return it in canonical form."""
    p = str(path)
    spheres = []
    edges = []
    faces = []
    for lineno, line in _meaningful_lines(p):
        parts = line.split()
        kind = parts[0]
        if kind == "v":
            if len(parts) != 5:
                raise ParseError(f"{p}:{lineno}: vertex record needs 4 numbers")
            try:
                x, y, z, r = (float(t) for t in parts[1:])
            except ValueError:
                raise ParseError(f"{p}:{lineno}: bad vertex number") from None
            if not all(map(math.isfinite, (x, y, z, r))):
                raise ParseError(f"{p}:{lineno}: non-finite vertex number")
            if r < 0.0:
                raise NegativeRadius(f"{p}:{lineno}: negative radius {r}")
            spheres.append((x, y, z, r))
        elif kind == "e":
            if len(parts) != 3:
                raise ParseError(f"{p}:{lineno}: edge record needs 2 indices")
            try:
                edges.append((lineno, int(parts[1]), int(parts[2])))
            except ValueError:
                raise ParseError(f"{p}:{lineno}: bad edge index") from None
        elif kind == "f":
            if len(parts) != 4:
                raise ParseError(f"{p}:{lineno}: face record needs 3 indices")
            try:
                faces.append((lineno, int(parts[1]), int(parts[2]), int(parts[3])))
            except ValueError:
                raise ParseError(f"{p}:{lineno}: bad face index") from None
        else:
            raise ParseError(f"{p}:{lineno}: unknown record {kind!r}")
    n = len(spheres)
    for lineno, a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"{p}:{lineno}: edge index out of range")
        if a == b:
            raise ParseError(f"{p}:{lineno}: degenerate edge ({a}, {b})")
    for lineno, a, b, c in faces:
        for v in (a, b, c):
            if not 0 <= v < n:
                raise ParseError(f"{p}:{lineno}: face index out of range")
        if a == b or b == c or a == c:
            raise ParseError(f"{p}:{lineno}: face with repeated vertices")
    return MedialMesh.build(
        spheres, [(a, b) for _, a, b in edges], [(a, b, c) for _, a, b, c in faces])


def save_medial_mesh(mm: MedialMesh, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y, z, r in mm.spheres.tolist():
            fh.write(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)} {_fmt(r)}\n")
        for a, b in mm.edges.tolist():
            fh.write(f"e {a} {b}\n")
        for a, b, c in mm.faces.tolist():
            fh.write(f"f {a} {b} {c}\n")


def save_labels(mesh: SurfaceMesh, path, labels=None) -> None:
    """Write per-face labels, one integer per line (LF endings)."""
    lab = mesh.labels if labels is None else np.asarray(labels, dtype=int).reshape(-1)
    if lab is None:
        raise LengthMismatch("mesh has no labels to save")
    if len(lab) != len(mesh.faces):
        raise LengthMismatch(f"{len(lab)} labels for {len(mesh.faces)} faces")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in lab:
            fh.write(f"{int(v)}\n")


def load_labels(path, mesh: SurfaceMesh | None = None) -> np.ndarray:
    """Read per-face labels; validates the count when a mesh is given."""
    p = str(path)
    values = []
    bound = np.iinfo(int)
    with open(p, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ParseError(f"{p}:{lineno}: bad label {line!r}") from None
            if not bound.min <= values[-1] <= bound.max:
                raise ParseError(f"{p}:{lineno}: label {line!r} out of range")
    labels = np.array(values, dtype=int)
    if mesh is not None and len(labels) != len(mesh.faces):
        raise LengthMismatch(
            f"{p}: {len(labels)} labels for {len(mesh.faces)} faces")
    return labels


def load_xyz(path) -> np.ndarray:
    """Point list, one ``x y z`` (or ``x y z r``) line per point."""
    p = str(path)
    rows: list[list[float]] = []
    for lineno, line in _meaningful_lines(p):
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ParseError(f"{p}:{lineno}: expected 'x y z' or 'x y z r'")
        if rows and len(fields) != len(rows[0]):
            raise ParseError(f"{p}:{lineno}: inconsistent column count")
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(f"{p}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{p}:{lineno}: non-finite number")
        rows.append(row)
    if not rows:
        raise ParseError(f"{p}: no points")
    return np.array(rows, dtype=float)


def save_point_labels(path, labels) -> None:
    """Write per-point labels, one integer per line (LF endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{int(v)}\n" for v in labels)


def save_colored_mesh(mesh: SurfaceMesh, labels, path) -> None:
    """Write an ASCII PLY with per-face palette colors for the labels."""
    lab = np.asarray(labels, dtype=int).reshape(-1)
    if len(lab) != len(mesh.faces):
        raise LengthMismatch(f"{len(lab)} labels for {len(mesh.faces)} faces")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(mesh.vertices)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write(f"element face {len(mesh.faces)}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for v in mesh.vertices:
            fh.write(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
        for f, k in zip(mesh.faces, lab):
            r, g, b = PALETTE[int(k) % len(PALETTE)]
            fh.write(f"3 {f[0]} {f[1]} {f[2]} {r} {g} {b}\n")


# --- the per-pair angles and costs the pair table replaced -----------------

def angle_between(u, v) -> float:
    """Angle between two nonzero vectors, in [0, pi]."""
    nu = norm(u)
    nv = norm(v)
    if nu == 0.0 or nv == 0.0 or nu * nv == 0.0:
        # the lengths' product underflows only for rescaled tiny vectors
        raise DegenerateGeometry("angle with a zero vector")
    c = dot(u, v) / (nu * nv)
    return math.acos(max(-1.0, min(1.0, c)))


def _tangent(g, k):
    """Envelope data of node k: its two slab normals, or a cone's (axis, slant)."""
    if k < len(g.normals):
        return [tuple(n) for n in g.normals[k].tolist()]
    c = k - len(g.normals)
    return tuple(g.axes[c].tolist()), float(g.slants[c])


def _face_plane_normal(mm, tri):
    c = [mm.spheres[v, :3].tolist() for v in tri]
    m = cross(sub(c[1], c[0]), sub(c[2], c[0]))
    if norm(m) == 0.0:
        e = sub(c[1], c[0])
        return any_perpendicular(e) if norm(e) > 0.0 else (0.0, 0.0, 1.0)
    return normalize(m)


def _acute(u, v) -> float:
    a = angle_between(u, v)
    return min(a, math.pi - a)


def _face_face_angle(mm, tri_i, tri_j) -> float:
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


def _edge_edge_angle(mm, e_i, e_j) -> float:
    shared = set(e_i) & set(e_j)
    v = min(shared)
    (oi,) = [w for w in e_i if w != v] or [v]
    (oj,) = [w for w in e_j if w != v] or [v]
    c, ci, cj = (mm.spheres[w, :3].tolist() for w in (v, oi, oj))
    di = sub(ci, c)
    dj = sub(cj, c)
    if norm(di) == 0.0 or norm(dj) == 0.0:
        return math.pi
    return angle_between(di, dj)


def node_angle(g, i: int, j: int) -> float:
    """Bend angle theta between two adjacent nodes, in [0, pi].

    Face/face pairs use the interior dihedral at their hinge, edge/edge
    pairs the angle between the edge directions oriented away from the
    shared vertex, and mixed pairs 0 by convention.
    """
    lo, hi = (i, j) if i <= j else (j, i)
    assert hi in g.adjacency[lo], f"nodes {i} and {j} are not adjacent"
    a, b = g.elements[lo], g.elements[hi]
    if len(a) != len(b):
        return 0.0
    if len(a) == 3:
        return _face_face_angle(g.mm, a, b)
    return _edge_edge_angle(g.mm, a, b)


def _cone_side_normals_for_slab(cone, slab_normals):
    """Cone envelope normals in the planes spanned by the axis and each slab side."""
    ax, s = cone
    c = math.sqrt(max(0.0, 1.0 - s * s))
    out = []
    for ns in slab_normals:
        u = sub(ns, tuple(x * dot(ns, ax) for x in ax))
        u = normalize(u) if norm(u) > 1e-12 else any_perpendicular(ax)
        out.append(tuple(-s * ax[k] + c * u[k] for k in range(3)))
    return out


def _edge_pair_normals(g, lo: int, hi: int):
    """Matched envelope-normal pairs for two adjacent cones."""
    mm = g.mm
    e_i = g.elements[lo]
    e_j = g.elements[hi]
    shared = set(e_i) & set(e_j)
    v = min(shared)
    cv = mm.spheres[v, :3].tolist()

    def away_data(element, cone):
        (other,) = [w for w in element if w != v] or [v]
        d = sub(mm.spheres[other, :3].tolist(), cv)
        d = normalize(d) if norm(d) > 0.0 else (1.0, 0.0, 0.0)
        axis, slant = cone
        s = slant if dot(d, axis) >= 0.0 else -slant
        return d, s

    di, si = away_data(e_i, _tangent(g, lo))
    dj, sj = away_data(e_j, _tangent(g, hi))
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


def primitive_angles(g, i: int, j: int) -> tuple[float, float]:
    """Envelope-normal deviation of two adjacent nodes, one angle per side.

    Sides are matched by normal agreement: slab/slab pairs match the tangent
    plane normals maximizing total alignment, slab/cone pairs build the cone
    normal inside the plane spanned by the cone axis and each slab side
    normal, and cone/cone pairs share the plane spanned by the two edge
    directions at their common vertex.  A continuous envelope yields (0, 0).
    """
    lo, hi = (i, j) if i <= j else (j, i)
    assert hi in g.adjacency[lo], f"nodes {i} and {j} are not adjacent"
    a, b = _tangent(g, lo), _tangent(g, hi)
    a_face, b_face = len(g.elements[lo]) == 3, len(g.elements[hi]) == 3
    if a_face and b_face:
        a1, a2 = a
        b1, b2 = b
        if dot(a1, b1) + dot(a2, b2) >= dot(a1, b2) + dot(a2, b1):
            return (angle_between(a1, b1), angle_between(a2, b2))
        return (angle_between(a1, b2), angle_between(a2, b1))
    if not (a_face or b_face):
        (p1, q1), (p2, q2) = _edge_pair_normals(g, lo, hi)
        return (angle_between(p1, q1), angle_between(p2, q2))
    slab, cone = (a, b) if a_face else (b, a)
    slab_normals = slab
    cone_normals = _cone_side_normals_for_slab(cone, slab_normals)
    return (
        angle_between(slab_normals[0], cone_normals[0]),
        angle_between(slab_normals[1], cone_normals[1]),
    )


def ma_cost(g, i: int, j: int, alpha: float = 0.05) -> float:
    ri = float(g.mean_radii[i])
    rj = float(g.mean_radii[j])
    if min(ri, rj) <= 0.0:
        raise DegenerateInput(
            f"component {int(g.component_id[i])}: node {i if ri <= rj else j}"
            " has radius 0")
    theta = node_angle(g, i, j)
    return abs(ri - rj) / min(ri, rj) + alpha * (math.pi - theta) / math.pi


def primitive_cost(angle_plus: float, angle_minus: float) -> float:
    return (angle_plus + angle_minus) / (2.0 * math.pi)


def mp_cost(g, i: int, j: int) -> float:
    return primitive_cost(*primitive_angles(g, i, j))


def growing_cost(g, i: int, j: int, p=None) -> float:
    p = p or GrowingParams()
    return min(ma_cost(g, i, j, p.alpha), p.lam * mp_cost(g, i, j))


def grow(g, comps, p=None, cost_fn=None, swallowing=True):
    """growing.grow with a cost computed per pair on first read and cached.

    cost_fn(i, j) with i < j overrides growing_cost.
    """
    p = p or GrowingParams()
    for name in ("alpha", "lam", "delta0", "eta"):
        value = getattr(p, name)
        if not value >= 0.0:
            raise ValueError(f"{name} must not be negative, got {value}")
    n = len(g)
    comp_of = np.asarray(g.component_id)
    deltas = _component_thresholds(comps, p)
    radii = g.mean_radii
    visited = np.zeros(n, dtype=bool)
    negligible = np.zeros(n, dtype=bool)
    cache = {}

    def cost(i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            if cost_fn is None:
                cache[key] = growing_cost(g, key[0], key[1], p)
            else:
                cache[key] = float(cost_fn(key[0], key[1]))
        return cache[key]

    regions = []
    failed = []
    while not visited.all():
        pending = np.flatnonzero(~visited)
        seed = int(pending[np.argmax(radii[pending])])
        comp = int(comp_of[seed])
        delta = deltas[comp] if 0 <= comp < len(deltas) else p.delta0
        queue = deque([seed])
        visited[seed] = True
        nodes = []
        while queue:
            i = queue.popleft()
            nodes.append(i)
            for j in g.adjacency[i]:
                if not visited[j] and comp_of[j] == comp and cost(i, j) < delta:
                    visited[j] = True
                    queue.append(j)
        if len(nodes) / n >= p.eta:
            region = Region(len(regions), nodes, seed, comp)
            if swallowing:
                before = len(region.nodes)
                swallow(g, region, np.flatnonzero(~visited | negligible))
                absorbed = region.nodes[before:]
                visited[absorbed] = True
                negligible[absorbed] = False
            regions.append(region)
        else:
            negligible[nodes] = True
            failed.append(nodes)

    if not regions:
        # Everything fell under eta: keep the grown clusters as they are.
        for nodes in failed:
            alive = [v for v in nodes if negligible[v]]
            if alive:
                regions.append(Region(len(regions), alive, nodes[0],
                                      int(comp_of[nodes[0]])))
                negligible[alive] = False
        return regions

    _merge_leftovers(g, regions, negligible)
    return regions


def skeleton_cost(sc, alpha: float):
    """The skeleton growing cost of one pair of points, as a closure."""
    radii = sc.radii
    directions = sc.directions

    def cost(i: int, j: int) -> float:
        ri, rj = float(radii[i]), float(radii[j])
        if ri == rj:
            spread = 0.0
        else:
            low = min(ri, rj)
            spread = abs(ri - rj) / low if low > 0.0 else math.inf
        # undirected lines: a parallel continuation bends by zero
        cosine = min(1.0, abs(float(directions[i] @ directions[j])))
        return spread + alpha * math.acos(cosine) / math.pi

    return cost
