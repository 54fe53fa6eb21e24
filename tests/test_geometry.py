"""Envelope geometry checks.

The slab oracle verifies tangency residuals directly from the plane
equation; the cone oracle constructs the external tangent line of the two
axial-plane circles independently and compares angles.
"""

import math

import numpy as np
import pytest

from oracles import angle_between, bounding_diagonal, signed_distance
from segmat.geometry import (
    ConeGeometry,
    DegenerateGeometry,
    Sphere,
    cone_geometry,
    slab_fallback_planes,
    slab_tangent_planes,
)


def tangency_residual(planes, spheres):
    """Largest |signed_distance(center) - radius| over planes and spheres."""
    worst = 0.0
    for p in planes:
        assert abs(math.sqrt(sum(c * c for c in p.normal)) - 1.0) < 1e-12
        for s in spheres:
            worst = max(worst, abs(signed_distance(p, s.center) - s.radius))
    return worst


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
    spheres = (
        Sphere((0.0, 0.0, 0.0), 1.0),
        Sphere((2.0, 0.0, 0.0), 1.0),
        Sphere((1.0, 2.0, 0.0), 0.5),
    )
    planes = slab_tangent_planes(*spheres)
    diag = bounding_diagonal([s.center for s in spheres], [s.radius for s in spheres])
    assert tangency_residual(planes, spheres) < 1e-9 * diag


def test_slab_planes_equal_radii_parallel_to_center_plane():
    spheres = (
        Sphere((0.0, 0.0, 0.0), 0.75),
        Sphere((3.0, 0.0, 0.0), 0.75),
        Sphere((0.0, 2.0, 0.0), 0.75),
    )
    p_plus, p_minus = slab_tangent_planes(*spheres)
    assert p_plus.normal == pytest.approx((0.0, 0.0, 1.0))
    assert p_minus.normal == pytest.approx((0.0, 0.0, -1.0))
    assert p_plus.offset == pytest.approx(0.75)
    assert p_minus.offset == pytest.approx(0.75)


def test_slab_planes_permutation_invariant_as_a_set():
    spheres = [
        Sphere((0.1, -0.3, 0.2), 0.9),
        Sphere((2.0, 0.4, -0.1), 1.3),
        Sphere((0.7, 2.2, 0.5), 0.6),
    ]
    base = {tuple(round(x, 9) for x in p.normal) for p in slab_tangent_planes(*spheres)}
    for perm in ((1, 2, 0), (2, 1, 0), (0, 2, 1)):
        got = {
            tuple(round(x, 9) for x in p.normal)
            for p in slab_tangent_planes(*(spheres[k] for k in perm))
        }
        assert got == base


def test_slab_planes_random_triples_satisfy_tangency():
    rng = np.random.default_rng(7)
    accepted = 0
    while accepted < 300:
        centers = rng.uniform(-5.0, 5.0, size=(3, 3))
        radii = rng.uniform(0.1, 2.0, size=3)
        spheres = [Sphere(tuple(c), r) for c, r in zip(centers, radii)]
        try:
            planes = slab_tangent_planes(*spheres)
        except DegenerateGeometry:
            continue
        diag = bounding_diagonal(centers, radii)
        assert tangency_residual(planes, spheres) < 1e-9 * diag
        accepted += 1


def test_slab_degenerate_collinear_and_dominated():
    collinear = [Sphere((float(i), 0.0, 0.0), 0.5) for i in range(3)]
    with pytest.raises(DegenerateGeometry):
        slab_tangent_planes(*collinear)
    dominated = (
        Sphere((0.0, 0.0, 0.0), 5.0),
        Sphere((1.0, 0.0, 0.0), 0.1),
        Sphere((0.0, 1.0, 0.0), 0.1),
    )
    with pytest.raises(DegenerateGeometry):
        slab_tangent_planes(*dominated)


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
    spheres = [Sphere(c, r) for c, r in zip(centers, radii)]
    with pytest.raises(DegenerateGeometry, match="collinear"):
        slab_tangent_planes(*spheres)


def test_slab_fallback_uses_center_plane_and_mean_radius():
    spheres = (
        Sphere((0.0, 0.0, 0.0), 5.0),
        Sphere((1.0, 0.0, 0.0), 0.1),
        Sphere((0.0, 1.0, 0.0), 0.6),
    )
    p_plus, p_minus = slab_fallback_planes(*spheres)
    assert p_plus.normal == pytest.approx((0.0, 0.0, 1.0))
    assert p_minus.normal == pytest.approx((0.0, 0.0, -1.0))
    r_mean = (5.0 + 0.1 + 0.6) / 3.0
    centroid = (1.0 / 3.0, 1.0 / 3.0, 0.0)
    assert signed_distance(p_plus, centroid) == pytest.approx(r_mean)
    assert signed_distance(p_minus, centroid) == pytest.approx(r_mean)


def test_cone_slant_matches_two_circle_tangent_oracle():
    s1 = Sphere((0.0, 0.0, 0.0), 1.0)
    s2 = Sphere((2.0, 0.0, 0.0), 0.5)
    cone = cone_geometry(s1, s2)
    assert cone.slant_sine == pytest.approx(0.25, abs=1e-12)
    assert cone.slant_sine == pytest.approx(external_tangent_sine(1.0, 0.5, 2.0), abs=1e-12)
    # Axis runs from the smaller-radius sphere toward the larger one.
    assert cone.axis == pytest.approx((-1.0, 0.0, 0.0))


def test_cone_random_pairs_match_tangent_oracle():
    rng = np.random.default_rng(11)
    accepted = 0
    while accepted < 200:
        c1 = rng.uniform(-4.0, 4.0, size=3)
        c2 = rng.uniform(-4.0, 4.0, size=3)
        r1, r2 = rng.uniform(0.1, 2.0, size=2)
        try:
            cone = cone_geometry(Sphere(tuple(c1), r1), Sphere(tuple(c2), r2))
        except DegenerateGeometry:
            continue
        d = float(np.linalg.norm(c2 - c1))
        assert cone.slant_sine == pytest.approx(external_tangent_sine(r1, r2, d), abs=1e-9)
        assert np.linalg.norm(cone.axis) == pytest.approx(1.0, abs=1e-12)
        accepted += 1


def test_cone_equal_radii_is_a_cylinder():
    cone = cone_geometry(Sphere((0.0, 0.0, 0.0), 0.8), Sphere((0.0, 3.0, 0.0), 0.8))
    assert cone.slant_sine == 0.0
    assert cone.axis == pytest.approx((0.0, 1.0, 0.0))


def test_cone_symmetric_under_argument_swap():
    s1 = Sphere((0.3, -1.0, 0.4), 0.6)
    s2 = Sphere((2.0, 0.5, -0.2), 1.1)
    assert cone_geometry(s1, s2) == cone_geometry(s2, s1)
    eq1 = Sphere((0.0, 0.0, 0.0), 0.5)
    eq2 = Sphere((1.0, 1.0, 0.0), 0.5)
    assert cone_geometry(eq1, eq2) == cone_geometry(eq2, eq1)


def test_cone_containment_is_degenerate():
    with pytest.raises(DegenerateGeometry):
        cone_geometry(Sphere((0.0, 0.0, 0.0), 1.0), Sphere((1.0, 0.0, 0.0), 3.0))
    with pytest.raises(DegenerateGeometry):
        cone_geometry(Sphere((0.0, 0.0, 0.0), 1.0), Sphere((0.0, 0.0, 0.0), 1.0))


def test_cone_internal_tangency_saturates_slant():
    cone = cone_geometry(Sphere((0.0, 0.0, 0.0), 1.0), Sphere((2.0, 0.0, 0.0), 3.0))
    assert cone.slant_sine == 1.0


def test_angle_between_basics():
    assert angle_between((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == pytest.approx(math.pi / 2)
    assert angle_between((1.0, 0.0, 0.0), (2.0, 0.0, 0.0)) == 0.0
    assert angle_between((1.0, 0.0, 0.0), (-3.0, 0.0, 0.0)) == pytest.approx(math.pi)
    with pytest.raises(DegenerateGeometry):
        angle_between((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_slant_is_a_valid_sine():
    cone = ConeGeometry(axis=(1.0, 0.0, 0.0), slant_sine=1.0)
    assert -1.0 <= cone.slant_sine <= 1.0
