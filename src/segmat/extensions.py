"""Box abstraction of segments and segmentation of point skeletons.

The oriented bounding box search is approximate: principal-axes
initialization refined by a one-degree rotation sweep, with the axis
aligned box as the floor so the result never loses to it.  The skeleton
mode runs the standard region growing over a k-nearest-neighbor point
graph, with the primitive term dropped because points carry no slab/cone
structure; bending comes from PCA line directions instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import identity
from scipy.spatial import ConvexHull, QhullError, cKDTree
from scipy.spatial.distance import pdist

from .growing import GrowingParams, grow, region_labels
from .mat_graph import EmptyInput, MatGraph, linked_groups
from .mesh_io import MedialMesh, SurfaceMesh, integer


@dataclass
class OrientedBox:
    """Box given by center, orthonormal axis rows and half extents."""

    center: np.ndarray
    axes: np.ndarray
    half_extents: np.ndarray

    @property
    def volume(self) -> float:
        return float(8.0 * np.prod(self.half_extents))

    def corners(self) -> np.ndarray:
        signs = np.array(
            [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)],
            dtype=float,
        )
        return self.center + (signs * self.half_extents) @ self.axes

    def contains(self, points, slack: float = 1e-9) -> bool:
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        local = (pts - self.center) @ self.axes.T
        return bool((np.abs(local) <= self.half_extents + slack).all())


def _box_from_axes(points: np.ndarray, axes: np.ndarray) -> OrientedBox:
    proj = points @ axes.T
    lo = proj.min(axis=0)
    hi = proj.max(axis=0)
    center = ((lo + hi) / 2.0) @ axes
    return OrientedBox(center, axes.copy(), (hi - lo) / 2.0)


def _rotation_about(axis: np.ndarray, angle: float) -> np.ndarray:
    x, y, z = axis
    c, s = math.cos(angle), math.sin(angle)
    cross = np.array([(0.0, -z, y), (z, 0.0, -x), (-y, x, 0.0)])
    return c * np.eye(3) + s * cross + (1.0 - c) * np.outer(axis, axis)


def mobb(points) -> OrientedBox:
    """Approximate minimal oriented bounding box of a point set.

    Candidates: the axis-aligned box, the principal-axes box, and
    one-degree rotation sweeps about each candidate axis.  The first
    candidate wins ties, so axis-aligned inputs get axis-aligned boxes.
    Points so far apart that a spread or a volume overflows raise ValueError.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) == 0:
        raise EmptyInput("no points to bound")
    if not np.isfinite(pts).all():
        raise ValueError("non-finite point coordinate")
    with np.errstate(over="raise"):
        try:
            best = _box_from_axes(pts, np.eye(3))
            if len(pts) == 1:
                return best
            centered = pts - pts.mean(axis=0)
            _, vectors = np.linalg.eigh(centered.T @ centered)
            for base in [np.eye(3), vectors.T[::-1].copy()]:
                for axis in base:
                    for degree in range(90):
                        rot = _rotation_about(axis, math.radians(degree))
                        candidate = _box_from_axes(pts, base @ rot.T)
                        if candidate.volume < best.volume:
                            best = candidate
        except FloatingPointError:
            raise ValueError("point spread overflows the box search") from None
    return best


# --- skeleton segmentation --------------------------------------------------


@dataclass
class SkeletonCloud:
    """Skeleton points with radii, a kNN graph and per-point directions."""

    points: np.ndarray
    radii: np.ndarray
    adjacency: list[list[int]]
    directions: np.ndarray

    @classmethod
    def build(cls, points, radii, k: int = 8) -> "SkeletonCloud":
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        rad = np.asarray(radii, dtype=float).reshape(-1)
        if len(pts) == 0:
            raise EmptyInput("no skeleton points")
        k = integer(k, "k", least=1)
        if rad.shape != (len(pts),):
            raise ValueError("one radius per point required")
        if not np.isfinite(rad).all():
            raise ValueError("radii must be finite")
        if (rad < 0.0).any():
            raise ValueError("radii must be non-negative")
        with np.errstate(over="ignore", invalid="ignore"):
            extent = np.linalg.norm(pts.max(axis=0) - pts.min(axis=0))
        if not np.isfinite(extent):
            raise ValueError("skeleton points span a non-finite extent")
        neighbor_count = min(k, len(pts) - 1)
        links: list[set[int]] = [set() for _ in pts]
        if neighbor_count > 0:
            _, idx = cKDTree(pts).query(pts, k=neighbor_count + 1)
            for i, row in enumerate(np.atleast_2d(idx).tolist()):
                for j in [j for j in row if j != i][:neighbor_count]:
                    links[i].add(j)
                    links[j].add(i)
        adjacency = [sorted(s) for s in links]
        directions = np.zeros((len(pts), 3))
        for i, nbrs in enumerate(adjacency):
            local = pts[nbrs + [i]] - pts[nbrs + [i]].mean(axis=0)
            _, vectors = np.linalg.eigh(local.T @ local)
            direction = vectors[:, -1]
            norm = float(np.linalg.norm(direction))
            directions[i] = direction / norm if norm > 0 else (1.0, 0.0, 0.0)
        return cls(pts, rad, adjacency, directions)

    @classmethod
    def from_cloud(cls, skeleton_points, cloud_points, k: int = 8) -> "SkeletonCloud":
        """Radii taken as the closest distance to the raw input cloud."""
        skeleton = np.asarray(skeleton_points, dtype=float).reshape(-1, 3)
        cloud = np.asarray(cloud_points, dtype=float).reshape(-1, 3)
        if len(cloud) == 0:
            raise EmptyInput("no cloud points to measure radii against")
        distances, _ = cKDTree(cloud).query(skeleton)
        return cls.build(skeleton, distances, k=k)


def _skeleton_graph(sc: SkeletonCloud) -> MatGraph:
    n = len(sc.points)
    # point i keyed by itself and its neighbours: its kNN component
    pairs = [(i, j) for i, nbrs in enumerate(sc.adjacency) for j in [i, *nbrs]]
    comp = np.empty(n, dtype=int)
    for k, group in enumerate(linked_groups(pairs, n)):
        comp[group] = k
    return MatGraph(
        mm=MedialMesh.build(np.column_stack([sc.points, sc.radii]), [], []),
        incidence=identity(n, dtype=bool, format="csr"),
        mean_radii=sc.radii,
        centroids=sc.points,
        adjacency=[list(nbrs) for nbrs in sc.adjacency],
        component_id=comp,
    )


def _skeleton_pair_costs(sc: SkeletonCloud, pairs, alpha: float) -> np.ndarray:
    """Radius spread plus alpha times the bend of every pair of points."""
    lo, hi = pairs.T
    ri, rj = sc.radii[lo], sc.radii[hi]
    low = np.where(rj < ri, rj, ri)
    # undirected lines: a parallel continuation bends by zero
    cosine = np.abs(np.vecdot(sc.directions[lo], sc.directions[hi]))
    cosine = np.where(cosine < 1.0, cosine, 1.0)
    bend = np.array(list(map(math.acos, cosine.tolist())), dtype=float)
    with np.errstate(all="ignore"):  # inf as the scalar code gives
        spread = np.where(ri == rj, 0.0, np.where(
            low > 0.0, np.abs(ri - rj) / low, math.inf))
        return spread + alpha * bend / math.pi


def segment_skeleton(sc: SkeletonCloud, p: GrowingParams | None = None) -> np.ndarray:
    """Per-point region labels for a skeleton cloud.

    Same growth, swallowing and leftover handling as the mesh pipeline;
    disconnected components are grown independently.  Components carry no
    curve/sheet structure, so every one uses the base threshold.
    """
    p = p or GrowingParams()
    graph = _skeleton_graph(sc)
    costs = _skeleton_pair_costs(sc, graph.pair_index[0], p.alpha)
    regions = grow(graph, [], p, costs=costs)
    return region_labels(graph, regions)


def assign_cloud(sc: SkeletonCloud, labels, cloud_points) -> np.ndarray:
    """Carry skeleton labels to raw cloud points by nearest skeleton point."""
    labels = np.asarray(labels)
    if len(labels) != len(sc.points):
        raise ValueError(f"{len(sc.points)} skeleton points need as many "
                         f"labels, got {len(labels)}")
    cloud = np.asarray(cloud_points, dtype=float).reshape(-1, 3)
    _, nearest = cKDTree(sc.points).query(cloud)
    return labels[nearest]


# --- abstraction error ------------------------------------------------------


def _grid_axes(lo, cell, resolution):
    # a sub-cell shift keeps parity rays off triangle edges
    shift = 1.18e-4 * cell
    return [
        lo[d] + (np.arange(resolution) + 0.5) * cell[d] + shift[d] for d in range(3)
    ]


def _mesh_occupancy(mesh: SurfaceMesh, axes, resolution: int) -> np.ndarray:
    """Inside test at voxel centers by z-ray crossing parity."""
    xs, ys, zs = axes
    tri = mesh.vertices[mesh.faces]
    columns: list[np.ndarray] = []
    heights: list[np.ndarray] = []
    for v0, v1, v2 in tri:
        x0 = np.searchsorted(xs, min(v0[0], v1[0], v2[0]))
        x1 = np.searchsorted(xs, max(v0[0], v1[0], v2[0]))
        y0 = np.searchsorted(ys, min(v0[1], v1[1], v2[1]))
        y1 = np.searchsorted(ys, max(v0[1], v1[1], v2[1]))
        if x0 == x1 or y0 == y1:
            continue
        px, py = np.meshgrid(xs[x0:x1], ys[y0:y1], indexing="ij")
        det = (v1[1] - v2[1]) * (v0[0] - v2[0]) + (v2[0] - v1[0]) * (v0[1] - v2[1])
        if abs(det) < 1e-30:
            continue
        a = ((v1[1] - v2[1]) * (px - v2[0]) + (v2[0] - v1[0]) * (py - v2[1])) / det
        b = ((v2[1] - v0[1]) * (px - v2[0]) + (v0[0] - v2[0]) * (py - v2[1])) / det
        c = 1.0 - a - b
        hit = (a >= 0.0) & (b >= 0.0) & (c >= 0.0)
        if not hit.any():
            continue
        z = a * v0[2] + b * v1[2] + c * v2[2]
        gx, gy = np.nonzero(hit)
        columns.append((gx + x0) * resolution + (gy + y0))
        heights.append(z[hit])
    occupancy = np.zeros((resolution, resolution, resolution), dtype=bool)
    if not columns:
        return occupancy
    cols = np.concatenate(columns)
    elevation = np.concatenate(heights)
    order = np.lexsort((elevation, cols))
    cols, elevation = cols[order], elevation[order]
    starts = np.flatnonzero(np.r_[True, cols[1:] != cols[:-1]])
    bounds = np.r_[starts, len(cols)]
    for s, e in zip(bounds[:-1], bounds[1:]):
        crossings = elevation[s:e]
        below = np.searchsorted(crossings, zs)
        col = int(cols[s])
        occupancy[col // resolution, col % resolution, :] = below % 2 == 1
    return occupancy


def _box_occupancy(boxes, axes, resolution: int) -> np.ndarray:
    xs, ys, zs = axes
    px, py, pz = np.meshgrid(xs, ys, zs, indexing="ij")
    centers = np.stack([px.ravel(), py.ravel(), pz.ravel()], axis=1)
    occupancy = np.zeros(len(centers), dtype=bool)
    for box in boxes:
        local = (centers - box.center) @ box.axes.T
        occupancy |= (np.abs(local) <= box.half_extents + 1e-12).all(axis=1)
    return occupancy.reshape((resolution,) * 3)


def _sample_mesh(mesh: SurfaceMesh, count: int, rng) -> np.ndarray:
    areas = mesh.face_areas()
    weights = areas / areas.sum()
    picks = rng.choice(len(areas), size=count, p=weights)
    tri = mesh.vertices[mesh.faces[picks]]
    u = rng.random(count)
    v = rng.random(count)
    flip = u + v > 1.0
    u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
    return (
        tri[:, 0]
        + u[:, None] * (tri[:, 1] - tri[:, 0])
        + v[:, None] * (tri[:, 2] - tri[:, 0])
    )


def _sample_boxes(boxes, count: int, rng) -> np.ndarray:
    planes = []   # (box, fixed axis, sign, area)
    for box in boxes:
        he = box.half_extents
        for d in range(3):
            e, f = (d + 1) % 3, (d + 2) % 3
            area = 4.0 * he[e] * he[f]
            planes.append((box, d, 1.0, area))
            planes.append((box, d, -1.0, area))
    total = sum(p[3] for p in planes)
    if total <= 0.0:
        return np.array([box.center for box in boxes])
    weights = np.array([p[3] for p in planes]) / total
    counts = np.bincount(
        rng.choice(len(planes), size=count, p=weights), minlength=len(planes)
    )
    chunks = []
    for (box, d, sign, _), m in zip(planes, counts):
        if m == 0:
            continue
        e, f = (d + 1) % 3, (d + 2) % 3
        he = box.half_extents
        spread = rng.uniform(-1.0, 1.0, size=(m, 2))
        pts = (
            box.center
            + sign * he[d] * box.axes[d]
            + spread[:, :1] * he[e] * box.axes[e]
            + spread[:, 1:] * he[f] * box.axes[f]
        )
        # keep only the union surface: drop points buried in another box
        keep = np.ones(m, dtype=bool)
        for other in boxes:
            if other is box:
                continue
            local = (pts - other.center) @ other.axes.T
            keep &= ~(np.abs(local) < other.half_extents - 1e-9).all(axis=1)
        chunks.append(pts[keep])
    samples = np.vstack([c for c in chunks if len(c)]) if chunks else np.zeros((0, 3))
    if len(samples) == 0:
        return np.array([box.center for box in boxes])
    return samples


def _diameter(points: np.ndarray) -> float:
    """Largest vertex pair distance, via hull vertices when possible."""
    pts = np.asarray(points, dtype=float).reshape(-1, 3)
    if len(pts) < 2:
        return 0.0
    if len(pts) > 4:
        try:
            pts = pts[ConvexHull(pts).vertices]
        except QhullError:
            pass  # flat or degenerate input: brute force below
    if len(pts) > 4096:
        keep = np.linspace(0, len(pts) - 1, 4096).astype(int)
        pts = pts[keep]
    return float(pdist(pts).max())


def abstraction_error(
    mesh: SurfaceMesh, boxes, resolution: int = 64, samples: int = 10000, seed: int = 0
) -> tuple[float, float]:
    """(volumetric IoU, symmetric chamfer) of a box set against a mesh.

    IoU compares voxel occupancies on a shared grid over both inputs;
    chamfer averages nearest-neighbor distances between surface samples
    both ways, scaled by the mesh diameter (the bounding-box diagonal taken
    pose-free) so the score does not depend on the shape's orientation.  An
    empty box set scores IoU 0 with infinite chamfer.
    """
    mesh.validate()
    resolution = integer(resolution, "resolution", least=1)
    samples = integer(samples, "samples", least=1)
    seed = integer(seed, "seed")
    boxes = list(boxes)
    corners = [mesh.vertices] + [box.corners() for box in boxes]
    everything = np.vstack(corners)
    lo = everything.min(axis=0)
    hi = everything.max(axis=0)
    pad = 0.005 * float(np.linalg.norm(hi - lo)) + 1e-12
    lo, hi = lo - pad, hi + pad
    cell = (hi - lo) / resolution
    axes = _grid_axes(lo, cell, resolution)
    mesh_occ = _mesh_occupancy(mesh, axes, resolution)
    if not boxes:
        return 0.0, math.inf
    box_occ = _box_occupancy(boxes, axes, resolution)
    union = int((mesh_occ | box_occ).sum())
    iou = float((mesh_occ & box_occ).sum()) / union if union else 0.0
    rng = np.random.default_rng(seed)
    on_mesh = _sample_mesh(mesh, samples, rng)
    on_boxes = _sample_boxes(boxes, samples, rng)
    forward = float(cKDTree(on_boxes).query(on_mesh)[0].mean())
    backward = float(cKDTree(on_mesh).query(on_boxes)[0].mean())
    scale = _diameter(mesh.vertices)
    if scale <= 0.0:
        scale = 1.0
    return iou, 0.5 * (forward + backward) / scale
