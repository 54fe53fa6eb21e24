"""Envelope geometry of a medial axis transform, row by row.

A medial mesh vertex is a sphere, an edge spans a cone (the envelope of two
spheres) and a triangle spans a slab (the envelope of three spheres).
``slab_normals`` and ``cone_axes`` compute the envelope data of many slabs
and cones at once, and the pruned nearest sphere-gap search at the end
measures points against a set of spheres.
"""

from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree


class DegenerateGeometry(ValueError):
    """A primitive has no well-defined envelope (containment, collinearity...)."""


# Relative epsilon applied to bounding-box diagonals throughout the package.
EPSILON_FACTOR = 1e-9


# Row-wise vector algebra on (n, 3) arrays.  Each row is computed in the
# operand order of the one-vector formula, so it equals that formula bit
# for bit.

def _dot(a, b):
    return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1] + a[:, 2] * b[:, 2]


def _cross(a, b):
    return np.column_stack([a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1],
                            a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2],
                            a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]])


def _norm(a):
    """Euclidean length per row.

    A finite nonzero row whose sum of squares overflows, or underflows
    below the normal range, is measured as s * |a / s| with s its largest
    magnitude; every other row is sqrt(a . a).
    """
    with np.errstate(over="ignore", under="ignore"):
        squares = _dot(a, a)
        n = np.sqrt(squares)
        lost = np.flatnonzero((squares < np.finfo(float).tiny)
                              | (squares == np.inf))
        if lost.size:
            s = np.abs(a[lost]).max(axis=1, initial=0.0)
            keep = (s > 0.0) & (s < np.inf)
            redo, s = lost[keep], s[keep, None]
            b = a[redo] / s
            n[redo] = s[:, 0] * np.sqrt(_dot(b, b))
    return n


def _unit(a):
    return a / _norm(a)[:, None]


def _rows(mask, values, other):
    return np.where(mask[:, None], values, other)


def _perpendicular(a):
    """Unit vector perpendicular to each nonzero row: the row crossed with
    the coordinate axis least aligned with it."""
    x, y, z = np.abs(a).T
    basis = np.where((x <= y) & (x <= z), 0, np.where(y <= z, 1, 2))
    return _unit(_cross(a, np.eye(3)[basis]))


def slab_normals(centers, radii):
    """Unit normals of the two planes tangent to each slab's three spheres.

    centers is (F, 3, 3) and radii is (F, 3), one slab per row; returns
    (F, 2, 3).  A plane n . x + o = 0 of a slab is tangent to every sphere
    i (n . c_i + o = r_i); the first normal has a positive component along
    the cross product of the edges c_2 - c_1 and c_3 - c_1.  A slab
    without such planes (collinear centers, a sphere that dominates the
    other two, or a Gram determinant so small that the normals come out
    non-finite) takes the normal of its centers' plane and its negation.
    Raises DegenerateGeometry where that normal cannot be normalized.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 3, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1, 3)
    c1, c2, c3 = centers[:, 0], centers[:, 1], centers[:, 2]
    r1 = radii[:, 0]
    with np.errstate(all="ignore"):
        e1, e2 = c2 - c1, c3 - c1
        m = _cross(e1, e2)
        mn, ne1, ne2 = _norm(m), _norm(e1), _norm(e2)
        spread = ne1 * ne2
        thin = mn <= EPSILON_FACTOR * np.where(1e-300 > spread, 1e-300, spread)
        # the in-plane part p of a normal solves p . e1 = b1, p . e2 = b2
        b1, b2 = radii[:, 1] - r1, radii[:, 2] - r1
        g11, g12, g22 = _dot(e1, e1), _dot(e1, e2), _dot(e2, e2)
        det = g11 * g22 - g12 * g12
        x = (b1 * g22 - b2 * g12) / det
        y = (b2 * g11 - b1 * g12) / det
        p = e1 * x[:, None] + e2 * y[:, None]
        q = 1.0 - _dot(p, p)
        lift = (m / mn[:, None]) * np.sqrt(q)[:, None]
        tangent = np.stack([p + lift, p - lift], axis=1)
        # a thin slab can pass the first test yet cancel (or overflow) in det
        fallback = (thin | ~(det > 0.0) | (q < 0.0)
                    | ~np.isfinite(tangent).all(axis=(1, 2)))

        edge = _rows(ne1 == 0.0, e2, e1)
        spanned = _rows(_norm(edge) > 0.0, _perpendicular(edge), (0.0, 0.0, 1.0))
        plane = _rows(mn == 0.0, spanned, m)
        length = _norm(plane)
        if (length[fallback] == 0.0).any():
            raise DegenerateGeometry("cannot normalize a zero vector")
        mh = plane / length[:, None]
    planes = np.stack([mh, mh * -1.0], axis=1)
    return np.where(fallback[:, None, None], planes, tangent)


def cone_axes(centers, radii):
    """Axis and slant sine of each cone spanned by two spheres.

    centers is (C, 2, 3) and radii is (C, 2), one cone per row; returns the
    (C, 3) unit axes and the (C,) slants.  The axis points from the
    smaller-radius center to the larger one (ties broken lexicographically
    on the centers) and the slant is (r_large - r_small) / center distance,
    so the envelope line in any axial plane makes angle asin(slant) with
    the axis.  A cone without an external envelope (coincident centers, or
    one sphere containing the other) is clamped to a hemispherical cap:
    its axis runs from the first center to the second when r_1 <= r_2 and
    back otherwise, or is (1, 0, 0) when the centers coincide, and its
    slant is 1, or 0 for equal radii.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 2, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1, 2)
    c1, c2 = centers[:, 0], centers[:, 1]
    r1, r2 = radii[:, 0], radii[:, 1]
    with np.errstate(all="ignore"):
        forth, back = c2 - c1, c1 - c2
        d = _norm(forth)
        dr = np.abs(r2 - r1)
        capped = (d <= EPSILON_FACTOR * (d + r1 + r2)) | (d == 0.0) | (dr > d)
        # lexicographic c1 <= c2: equal, or lower at the first coordinate
        # where they differ
        differ = c1 != c2
        first = differ.argmax(axis=1)
        rows = np.arange(len(c1))
        lex = ~differ.any(axis=1) | (c1[rows, first] < c2[rows, first])
        up = (r1 < r2) | ((r1 == r2) & lex)
        axes = _unit(_rows(up, forth, back))
        slants = dr / d
        slants = np.where(slants < 1.0, slants, 1.0)

        cap = _rows(d > 0.0, _unit(_rows(r1 <= r2, forth, back)), (1.0, 0.0, 0.0))
    return (_rows(capped, cap, axes),
            np.where(capped, np.where(r1 != r2, 1.0, 0.0), slants))


def ball_pairs(tree: cKDTree, points, reach) -> tuple[np.ndarray, np.ndarray]:
    """(rows, items): every point row and tree item within reach[row] of it."""
    balls = tree.query_ball_point(points, reach)
    rows = np.repeat(np.arange(len(balls)), list(map(len, balls)))
    return rows, np.fromiter(chain.from_iterable(balls), np.intp, len(rows))


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
    rows, items = ball_pairs(tree, points[open_rows],
                             best[open_rows] + r_max + margin)
    rows = open_rows[rows]
    np.minimum.at(best, rows, gaps(rows, items))
    return best
