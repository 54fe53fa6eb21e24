"""Sphere, cone and slab primitives of a medial axis transform.

A medial mesh vertex is a sphere, an edge spans a cone (the envelope of two
spheres) and a triangle spans a slab (the envelope of three spheres).  The
primitive routines work on plain float tuples; the pruned nearest sphere-gap
search at the end takes numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

Vec3 = tuple[float, float, float]


class DegenerateGeometry(ValueError):
    """A primitive has no well-defined envelope (containment, collinearity...)."""


# Relative epsilon applied to bounding-box diagonals throughout the package.
EPSILON_FACTOR = 1e-9


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
    return math.sqrt(a[0] * a[0] + a[1] * a[1] + a[2] * a[2])


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
    collinear centers or when no common tangent plane exists (one sphere
    dominates the other two).
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


def _sphere_gaps(points, centers, radii):
    """Lowest gap |p - c_j| - r_j from every point to a set of spheres.

    The 8 spheres with the nearest centers are measured on the tree first.
    Their tree gaps bound the exact ones to within a margin far above float
    rounding, so only a sphere whose tree gap lies within margin of the
    lowest one can hold the lowest exact gap.  Every point scores the
    sphere with the lowest tree gap exactly; only a point with a second
    sphere inside that margin scores each of them and keeps the lowest.
    That is the candidate set that a table of all 8 tree gaps would
    score, so the minimum is the same float.  Every other sphere's center
    lies at least d_8 (the 8th center distance) away, so its gap is at
    least d_8 - max(r); a best gap below that by more than the margin is
    final.  The remaining points score every sphere whose center lies
    within best + max(r) + margin, which holds every sphere that can
    reach best.  So the result equals a full scan bit for bit.

    points and centers are (n, 3) float arrays, radii is per sphere, and
    there is at least one sphere.
    """
    def gaps(rows, items):
        return (np.linalg.norm(points[rows] - centers[items], axis=1)
                - radii[items])

    n_points, n_items = len(points), len(centers)
    if n_points == 0:
        return np.empty(0)
    r_max = float(radii.max())
    margin = 1e-9 * (float(np.abs(points).max()) + float(np.abs(centers).max())
                     + abs(r_max))
    tree = cKDTree(centers)
    k = min(8, n_items)
    dist, near = tree.query(points, k=k)
    dist = dist.reshape(n_points, k)
    near = near.reshape(n_points, k)
    # the tree reports a neighbour whose distance overflowed as index n_items
    if (near == n_items).any():
        raise ValueError("distances between points and sphere centers overflow")
    bound = dist - radii[near]
    every = np.arange(n_points)
    first = bound.argmin(axis=1)
    nearest = near[every, first]
    best = (np.linalg.norm(points - centers[nearest], axis=1)
            - radii[nearest])
    reach = bound[every, first] + margin
    tied = np.flatnonzero(
        np.count_nonzero(bound <= reach[:, None], axis=1) > 1)
    if tied.size:
        rows, cols = np.nonzero(bound[tied] <= reach[tied, None])
        rows = tied[rows]
        np.minimum.at(best, rows, gaps(rows, near[rows, cols]))
    if k == n_items:
        return best

    open_rows = np.flatnonzero(~(best < dist[:, -1] - r_max - margin))
    if open_rows.size == 0:
        return best
    balls = tree.query_ball_point(points[open_rows],
                                  best[open_rows] + r_max + margin)
    counts = np.fromiter((len(b) for b in balls), dtype=np.intp,
                         count=len(balls))
    rows = np.repeat(open_rows, counts)
    items = np.fromiter((j for b in balls for j in b), dtype=np.intp,
                        count=len(rows))
    np.minimum.at(best, rows, gaps(rows, items))
    return best
