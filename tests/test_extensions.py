"""Tests for box abstraction and the point-skeleton segmentation mode."""

import math

import numpy as np
import pytest

from segmat.mat_graph import EmptyInput
from segmat.mesh_io import SurfaceMesh
from segmat.extensions import (
    OrientedBox,
    SkeletonCloud,
    abstraction_error,
    assign_cloud,
    mobb,
    segment_skeleton,
)


# --- fixtures ---------------------------------------------------------------


def cube_corners():
    return np.array(
        [(x, y, z) for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
    )


def rot_z(deg):
    t = math.radians(deg)
    return np.array(
        [
            (math.cos(t), -math.sin(t), 0.0),
            (math.sin(t), math.cos(t), 0.0),
            (0.0, 0.0, 1.0),
        ]
    )


def box_mesh(half_extents, center=(0.0, 0.0, 0.0)):
    """Closed cuboid surface with outward winding, 12 triangles."""
    hx, hy, hz = half_extents
    c = np.asarray(center, dtype=float)
    verts = (
        np.array(
            [(x, y, z) for x in (-hx, hx) for y in (-hy, hy) for z in (-hz, hz)]
        )
        + c
    )
    quads = [
        (0, 1, 3, 2),  # -x
        (4, 6, 7, 5),  # +x
        (0, 4, 5, 1),  # -y
        (2, 3, 7, 6),  # +y
        (0, 2, 6, 4),  # -z
        (1, 5, 7, 3),  # +z
    ]
    faces = []
    for a, b, cc, d in quads:
        faces.append((a, b, cc))
        faces.append((a, cc, d))
    return SurfaceMesh(verts, np.array(faces))


def octahedron_mesh(scale=1.0):
    vs = scale * np.array(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)],
        dtype=float,
    )
    faces = []
    for x in (0, 1):
        for y in (2, 3):
            for z in (4, 5):
                tri = [x, y, z]
                n = np.cross(vs[tri[1]] - vs[tri[0]], vs[tri[2]] - vs[tri[0]])
                if np.dot(n, vs[tri].mean(axis=0)) < 0:
                    tri[1], tri[2] = tri[2], tri[1]
                faces.append(tuple(tri))
    return SurfaceMesh(vs, np.array(faces))


def chain_points(count, spacing, x0=0.0, y=0.0):
    return [(x0 + k * spacing, y, 0.0) for k in range(count)]


def rotate_box(box, rot):
    return OrientedBox(
        center=rot @ box.center,
        axes=box.axes @ rot.T,
        half_extents=box.half_extents.copy(),
    )


# --- mobb -------------------------------------------------------------------


def test_mobb_unit_cube():
    box = mobb(cube_corners())
    assert box.volume == pytest.approx(1.0, abs=1e-12)
    # every axis is a signed coordinate direction
    hits = np.abs(box.axes)
    assert np.allclose(np.sort(hits, axis=1)[:, :2], 0.0, atol=1e-12)
    assert np.allclose(np.sort(hits, axis=1)[:, 2], 1.0, atol=1e-12)


def test_mobb_rotated_cube_recovers_volume():
    pts = cube_corners() @ rot_z(30.0).T
    box = mobb(pts)
    assert box.volume <= 1.02
    assert box.volume >= 1.0 - 1e-9
    assert box.contains(pts)


def test_mobb_single_point():
    box = mobb([(2.0, -1.0, 0.5)])
    assert box.volume == 0.0
    assert box.center == pytest.approx([2.0, -1.0, 0.5])
    assert box.contains([(2.0, -1.0, 0.5)])


def test_mobb_empty_raises():
    with pytest.raises(EmptyInput):
        mobb(np.zeros((0, 3)))


def test_mobb_never_exceeds_axis_aligned_box():
    rng = np.random.default_rng(12)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        pts = rng.normal(size=(n, 3)) * rng.uniform(0.1, 5.0, size=3)
        box = mobb(pts)
        extent = pts.max(axis=0) - pts.min(axis=0)
        aabb_volume = float(np.prod(extent))
        assert box.volume <= aabb_volume + 1e-9
        assert box.contains(pts)
        assert np.allclose(box.axes @ box.axes.T, np.eye(3), atol=1e-9)


def test_mobb_rewards_rotated_elongated_cloud():
    # a slender rotated brick: the aligned box pays for the rotation
    brick = np.array([(x, y, z) for x in (0, 8.0) for y in (0, 1.0) for z in (0, 1.0)])
    pts = brick @ rot_z(40.0).T
    box = mobb(pts)
    extent = pts.max(axis=0) - pts.min(axis=0)
    assert box.volume == pytest.approx(8.0, rel=1e-6)
    assert box.volume < 0.5 * float(np.prod(extent))


# --- skeleton segmentation --------------------------------------------------


def test_straight_uniform_chain_is_one_label():
    sc = SkeletonCloud.build(chain_points(20, 1.0), [0.5] * 20)
    labels = segment_skeleton(sc)
    assert labels.shape == (20,)
    assert len(set(labels.tolist())) == 1


def test_radius_jump_splits_chain():
    # thick and thin chains joined end to end; the relative radius jump at
    # the junction is 3.0, far over the growing threshold
    pts = chain_points(12, 6.0) + chain_points(12, 6.0, x0=72.0)
    radii = [4.0] * 12 + [1.0] * 12
    sc = SkeletonCloud.build(pts, radii)
    labels = segment_skeleton(sc)
    assert list(labels) == [0] * 12 + [1] * 12


def test_skeleton_segmentation_is_deterministic():
    rng = np.random.default_rng(6)
    pts = rng.normal(size=(30, 3)) * (4.0, 1.0, 1.0)
    radii = rng.uniform(0.2, 2.0, size=30)
    sc = SkeletonCloud.build(pts, radii)
    first = segment_skeleton(sc)
    second = segment_skeleton(SkeletonCloud.build(pts, radii))
    assert np.array_equal(first, second)
    assert (first >= 0).all()


def test_disconnected_chains_get_one_label_each():
    pts = chain_points(12, 1.0) + chain_points(12, 1.0, y=100.0)
    sc = SkeletonCloud.build(pts, [0.5] * 24)
    labels = segment_skeleton(sc)
    first, second = set(labels[:12].tolist()), set(labels[12:].tolist())
    assert len(first) == 1 and len(second) == 1
    assert first != second


def test_knn_graph_is_symmetric_with_unit_directions():
    rng = np.random.default_rng(44)
    pts = rng.normal(size=(25, 3))
    sc = SkeletonCloud.build(pts, rng.uniform(0.1, 1.0, size=25), k=5)
    for i, nbrs in enumerate(sc.adjacency):
        for j in nbrs:
            assert i in sc.adjacency[j]
    assert np.allclose(np.linalg.norm(sc.directions, axis=1), 1.0, atol=1e-9)


def test_build_rejects_negative_radii():
    with pytest.raises(ValueError):
        SkeletonCloud.build([(0.0, 0.0, 0.0)], [-0.1])


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_build_rejects_non_finite_radii(value):
    with pytest.raises(ValueError, match="radii must be finite"):
        SkeletonCloud.build(chain_points(3, 1.0), [0.5, value, 0.5])


def test_build_rejects_a_non_integral_k():
    with pytest.raises(ValueError, match="k must be an integer, got 2.5"):
        SkeletonCloud.build(chain_points(3, 1.0), [0.5] * 3, k=2.5)


def test_from_cloud_takes_nearest_distance_as_radius():
    cloud = [(0.0, 0.0, 2.0), (0.0, 0.0, -2.0), (10.0, 0.0, 1.0)]
    sc = SkeletonCloud.from_cloud([(0.0, 0.0, 0.0), (10.0, 0.0, 0.0)], cloud)
    assert sc.radii == pytest.approx([2.0, 1.0])


def test_assign_cloud_uses_nearest_skeleton_point():
    pts = chain_points(12, 6.0) + chain_points(12, 6.0, x0=72.0)
    radii = [4.0] * 12 + [1.0] * 12
    sc = SkeletonCloud.build(pts, radii)
    labels = segment_skeleton(sc)
    cloud = np.array([(1.0, 2.0, 0.0), (100.0, -3.0, 1.0)])
    out = assign_cloud(sc, labels, cloud)
    assert out[0] == labels[0]
    assert out[1] == labels[-1]


@pytest.mark.parametrize("count", [5, 1])
def test_assign_cloud_needs_one_label_per_skeleton_point(count):
    sc = SkeletonCloud.build(chain_points(3, 1.0), [0.5] * 3)
    with pytest.raises(ValueError, match=f"3 skeleton points need as many "
                                         f"labels, got {count}"):
        assign_cloud(sc, [0] * count, [(0.0, 0.0, 0.0)])


# --- abstraction error ------------------------------------------------------


def test_self_abstraction_is_near_perfect():
    mesh = box_mesh((1.0, 0.5, 0.25))
    box = mobb(mesh.vertices)
    iou, chamfer = abstraction_error(mesh, [box])
    assert iou >= 0.98
    assert chamfer <= 0.01


def test_empty_box_set_scores_zero_iou():
    mesh = box_mesh((1.0, 1.0, 1.0))
    iou, chamfer = abstraction_error(mesh, [])
    assert iou == 0.0
    assert math.isinf(chamfer)


@pytest.mark.parametrize("name, value", [
    ("resolution", 2.5), ("samples", 10.5), ("seed", 1.5)])
def test_abstraction_error_rejects_non_integral_parameters(name, value):
    mesh = box_mesh((1.0, 1.0, 1.0))
    with pytest.raises(ValueError,
                       match=f"{name} must be an integer, got {value}"):
        abstraction_error(mesh, [mobb(mesh.vertices)], **{name: value})


def test_iou_stays_in_unit_interval():
    mesh = octahedron_mesh()
    box = mobb(mesh.vertices)
    small = OrientedBox(box.center, box.axes, box.half_extents * 0.4)
    for candidate in ([box], [small], [box, small]):
        iou, chamfer = abstraction_error(mesh, candidate)
        assert 0.0 <= iou <= 1.0
        assert chamfer >= 0.0
    # the shrunken box covers less of the shape
    full, _ = abstraction_error(mesh, [box])
    partial, _ = abstraction_error(mesh, [small])
    assert partial < full


def test_abstraction_error_rigid_invariance():
    mesh = octahedron_mesh()
    box = mobb(mesh.vertices)
    iou, chamfer = abstraction_error(mesh, [box])
    rot = rot_z(30.0)
    rotated_mesh = SurfaceMesh(mesh.vertices @ rot.T, mesh.faces.copy())
    rotated = abstraction_error(rotated_mesh, [rotate_box(box, rot)])
    assert abs(rotated[0] - iou) <= 0.02
    assert rotated[1] == pytest.approx(chamfer, rel=0.02, abs=1e-4)
