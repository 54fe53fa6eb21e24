"""Envelope geometry checks.

The slab oracle verifies tangency residuals directly from the plane
equation; the cone oracle constructs the external tangent line of the two
axial-plane circles independently and compares angles.  Both run on the
row-wise kernels, one slab or cone per row.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from oracles import angle_between, bounding_diagonal
from segmat.geometry import DegenerateGeometry, cone_axes, slab_normals


def tangency_residual(centers, radii):
    """Largest |n . c_i + o - r_i| over both tangent planes of one slab,
    with each plane's offset o = r_1 - n . c_1."""
    centers = np.asarray(centers, dtype=float)
    radii = np.asarray(radii, dtype=float)
    worst = 0.0
    for n in slab_normals(centers[None], radii[None])[0]:
        assert abs(np.linalg.norm(n) - 1.0) < 1e-12
        offset = radii[0] - n @ centers[0]
        worst = max(worst, float(np.abs(centers @ n + offset - radii).max()))
    return worst


def cone(c1, c2, r1, r2):
    """Axis and slant of the one cone spanned by two spheres."""
    axes, slants = cone_axes([[c1, c2]], [[r1, r2]])
    return tuple(axes[0].tolist()), float(slants[0])


def external_tangent_sine(r1, r2, d):
    """Oracle: slope sine of the external tangent line of two coplanar circles.

    Builds the tangent line explicitly in the axial plane (circle 1 at the
    origin, circle 2 at (d, 0)), verifies it really is tangent to both, then
    measures the sine of its angle against the center line.
    """
    a = (r2 - r1) / d
    assert abs(a) <= 1.0
    b = math.sqrt(1.0 - a * a)
    # Line a*x + b*y + c = 0 with unit normal; c = r1 makes both signed
    # distances equal the radii.
    c = r1
    assert abs(a * 0 + b * 0 + c - r1) < 1e-12
    assert abs(a * d + b * 0 + c - r2) < 1e-12
    p1 = np.array([0.0 - r1 * a, 0.0 - r1 * b])
    p2 = np.array([d - r2 * a, 0.0 - r2 * b])
    for center, radius in (((0.0, 0.0), r1), ((d, 0.0), r2)):
        num = abs((p2[0] - p1[0]) * (p1[1] - center[1]) - (p1[0] - center[0]) * (p2[1] - p1[1]))
        assert abs(num / np.linalg.norm(p2 - p1) - radius) < 1e-9
    t = p2 - p1
    return abs(t[1]) / np.linalg.norm(t)


def test_slab_planes_tangent_to_all_three_spheres():
    centers = [(0.0, 0.0, 0.0), (2.0, 0.0, 0.0), (1.0, 2.0, 0.0)]
    radii = [1.0, 1.0, 0.5]
    diag = bounding_diagonal(centers, radii)
    assert tangency_residual(centers, radii) < 1e-9 * diag


def test_slab_planes_equal_radii_parallel_to_center_plane():
    centers = np.array([(0.0, 0.0, 0.0), (3.0, 0.0, 0.0), (0.0, 2.0, 0.0)])
    n_plus, n_minus = slab_normals(centers[None], [[0.75] * 3])[0]
    assert n_plus == pytest.approx((0.0, 0.0, 1.0))
    assert n_minus == pytest.approx((0.0, 0.0, -1.0))
    assert 0.75 - n_plus @ centers[0] == pytest.approx(0.75)
    assert 0.75 - n_minus @ centers[0] == pytest.approx(0.75)


def test_slab_planes_permutation_invariant_as_a_set():
    centers = np.array([(0.1, -0.3, 0.2), (2.0, 0.4, -0.1), (0.7, 2.2, 0.5)])
    radii = np.array([0.9, 1.3, 0.6])
    perms = [(0, 1, 2), (1, 2, 0), (2, 1, 0), (0, 2, 1)]
    normals = slab_normals(centers[perms], radii[perms])
    base = {tuple(round(x, 9) for x in n) for n in normals[0].tolist()}
    for planes in normals[1:]:
        assert {tuple(round(x, 9) for x in n) for n in planes.tolist()} == base


def test_slab_planes_random_triples_satisfy_tangency():
    rng = np.random.default_rng(7)
    accepted = 0
    while accepted < 300:
        centers = rng.uniform(-5.0, 5.0, size=(3, 3))
        radii = rng.uniform(0.1, 2.0, size=3)
        try:
            oracles.slab_tangent_planes(
                *(oracles.Sphere(tuple(c), r) for c, r in zip(centers, radii)))
        except DegenerateGeometry:
            continue
        diag = bounding_diagonal(centers, radii)
        assert tangency_residual(centers, radii) < 1e-9 * diag
        accepted += 1


CENTER_PLANE = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]]


def test_slab_degenerate_collinear_and_dominated():
    # no common tangent plane: both take the normal of the centers' plane
    # (for collinear centers, the edge crossed with its least aligned axis)
    collinear = [(float(i), 0.0, 0.0) for i in range(3)]
    dominated = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    normals = slab_normals([collinear, dominated],
                           [[0.5, 0.5, 0.5], [5.0, 0.1, 0.1]])
    assert normals.tolist() == [CENTER_PLANE, CENTER_PLANE]


@pytest.mark.parametrize("centers", [
    # far enough from collinear for the cross-product test, but
    # 1e16 * (1e16 + 1) - 1e16 * 1e16 rounds to 0
    [(0.0, 1e8, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 1.0)],
    # the Gram products overflow: inf - inf is NaN
    [(0.0, 0.0, 0.0), (2e77, 0.0, 0.0), (2e77, 2e77, 0.0)],
])
@pytest.mark.parametrize("radii", [(0.5, 0.5, 0.5), (1.0, 2.0, 3.0)])
def test_slab_whose_gram_determinant_is_not_positive_is_collinear(centers,
                                                                  radii):
    # such a slab takes the center-plane normals, as a collinear one does;
    # both planes here are axis-aligned, so m / max|m| is their unit normal
    c = np.array(centers)
    m = np.cross(c[1] - c[0], c[2] - c[0])
    m /= np.abs(m).max()
    assert slab_normals(c[None], [radii])[0].tolist() == [m.tolist(),
                                                          (-m).tolist()]


def test_slab_whose_fallback_normal_overflows_raises():
    # coincident and far apart: the edge's perpendicular has length
    # sqrt(2) * 1.5e308, so it normalizes to a zero vector
    c = [(0.0, -7.5e307, -7.5e307), (0.0, 7.5e307, 7.5e307),
         (0.0, -7.5e307, -7.5e307)]
    with pytest.raises(DegenerateGeometry, match="zero vector"):
        oracles.node_geometry(SimpleNamespace(
            spheres=np.array([(*p, 1.0) for p in c]),
            faces=np.array([(0, 1, 2)]), edges=np.empty((0, 2), dtype=int),
            standalone=np.empty(0, dtype=int)))
    with pytest.raises(DegenerateGeometry, match="zero vector"):
        slab_normals([c], [[1.0, 1.0, 1.0]])


def test_slab_fallback_uses_center_plane_normal():
    centers = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    n_plus, n_minus = slab_normals([centers], [[5.0, 0.1, 0.6]])[0]
    assert n_plus == pytest.approx((0.0, 0.0, 1.0))
    assert n_minus == pytest.approx((0.0, 0.0, -1.0))


def test_cone_slant_matches_two_circle_tangent_oracle():
    axis, slant = cone((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 1.0, 0.5)
    assert slant == pytest.approx(0.25, abs=1e-12)
    assert slant == pytest.approx(external_tangent_sine(1.0, 0.5, 2.0), abs=1e-12)
    # Axis runs from the smaller-radius sphere toward the larger one.
    assert axis == pytest.approx((-1.0, 0.0, 0.0))


def test_cone_random_pairs_match_tangent_oracle():
    rng = np.random.default_rng(11)
    accepted = 0
    while accepted < 200:
        c1 = rng.uniform(-4.0, 4.0, size=3)
        c2 = rng.uniform(-4.0, 4.0, size=3)
        r1, r2 = rng.uniform(0.1, 2.0, size=2)
        d = float(np.linalg.norm(c2 - c1))
        if abs(r2 - r1) > d:  # one sphere contains the other
            continue
        axis, slant = cone(c1, c2, r1, r2)
        assert slant == pytest.approx(external_tangent_sine(r1, r2, d), abs=1e-9)
        assert np.linalg.norm(axis) == pytest.approx(1.0, abs=1e-12)
        accepted += 1


def test_cone_equal_radii_is_a_cylinder():
    axis, slant = cone((0.0, 0.0, 0.0), (0.0, 3.0, 0.0), 0.8, 0.8)
    assert slant == 0.0
    assert axis == pytest.approx((0.0, 1.0, 0.0))


def test_cone_symmetric_under_argument_swap():
    for c1, c2, r1, r2 in [((0.3, -1.0, 0.4), (2.0, 0.5, -0.2), 0.6, 1.1),
                           ((0.0, 0.0, 0.0), (1.0, 1.0, 0.0), 0.5, 0.5)]:
        assert cone(c1, c2, r1, r2) == cone(c2, c1, r2, r1)


def test_cone_containment_is_degenerate():
    # no external envelope: a hemispherical cap, the axis toward the larger
    # sphere, or (1, 0, 0) when the centers coincide
    axes, slants = cone_axes(
        [[(0.0, 0.0, 0.0), (1.0, 0.0, 0.0)], [(0.0, 0.0, 0.0), (0.0, 0.0, 0.0)],
         [(1.0, 0.0, 0.0), (0.0, 0.0, 0.0)]],
        [[1.0, 3.0], [1.0, 1.0], [1.0, 3.0]])
    assert axes.tolist() == [[1.0, 0.0, 0.0], [1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]]
    assert slants.tolist() == [1.0, 0.0, 1.0]


def test_cone_internal_tangency_saturates_slant():
    assert cone((0.0, 0.0, 0.0), (2.0, 0.0, 0.0), 1.0, 3.0)[1] == 1.0


def test_angle_between_basics():
    assert angle_between((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == pytest.approx(math.pi / 2)
    assert angle_between((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)) == 0.0
    assert angle_between((1.0, 0.0, 0.0), (-3.0, 0.0, 0.0)) == pytest.approx(math.pi)
    with pytest.raises(DegenerateGeometry):
        angle_between((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
