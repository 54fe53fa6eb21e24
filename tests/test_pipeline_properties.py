"""run_pipeline on random small medial meshes: labels or a typed error.

Every drawn MAT sits inside one fixed closed surface.  Radii include 0 and
centers lie on a coarse grid, so zero-radius components, coincident
spheres and element-free inputs all come up.  A run must either return
one in-range label per face, the same on a second call, or raise a
subclass of ValueError.
"""

import math

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st

from segmat.mesh_io import MedialMesh, SurfaceMesh
from segmat.pipeline import run_pipeline


def uv_sphere(radius=8.0, stacks=6, sectors=10):
    """Closed triangulated sphere about the origin."""
    verts = [(0.0, 0.0, radius)]
    for i in range(1, stacks):
        phi = math.pi * i / stacks
        for j in range(sectors):
            theta = 2.0 * math.pi * j / sectors
            verts.append((radius * math.sin(phi) * math.cos(theta),
                          radius * math.sin(phi) * math.sin(theta),
                          radius * math.cos(phi)))
    verts.append((0.0, 0.0, -radius))
    bottom = len(verts) - 1

    def ring(i, j):
        return 1 + (i - 1) * sectors + j % sectors

    faces = [(0, ring(1, j), ring(1, j + 1)) for j in range(sectors)]
    for i in range(1, stacks - 1):
        for j in range(sectors):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j), ring(i + 1, j + 1)
            faces += [(a, c, d), (a, d, b)]
    faces += [(ring(stacks - 1, j + 1), ring(stacks - 1, j), bottom)
              for j in range(sectors)]
    return SurfaceMesh(np.array(verts), np.array(faces))


SURFACE = uv_sphere()


@st.composite
def small_mats(draw):
    """2-8 spheres within radius 6 of the origin, random edges and faces."""
    n = draw(st.integers(2, 8))
    coord = st.integers(-4, 4).map(lambda k: 0.5 * k)
    centers = draw(st.lists(st.tuples(coord, coord, coord),
                            min_size=n, max_size=n))
    radii = draw(st.lists(st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5]),
                          min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(index, index).filter(
        lambda e: e[0] != e[1]), max_size=8))
    faces = draw(st.lists(st.tuples(index, index, index).filter(
        lambda f: len(set(f)) == 3), max_size=5))
    spheres = [(*c, r) for c, r in zip(centers, radii)]
    return MedialMesh.build(spheres, edges, faces)


def outcome(mat, structured):
    """PipelineResult of one run, or the type of the error it raised."""
    try:
        return run_pipeline(SURFACE, mat, mat if structured else None)
    except ValueError as exc:
        return type(exc)


def two_spheres(radius, offset, edges):
    return MedialMesh.build([(0.0, 0.0, 0.0, radius),
                             (offset, 0.0, 0.0, radius)], edges, [])


@given(small_mats(), st.booleans())
@example(two_spheres(0.0, 1.0, [(0, 1)]), True)   # every radius is 0
@example(two_spheres(0.0, 1.0, [(0, 1)]), False)
@example(two_spheres(1.0, 0.0, [(0, 1)]), True)   # coincident spheres
@example(two_spheres(1.0, 1.0, []), False)        # no elements
def test_run_pipeline_labels_or_typed_error(mat, structured):
    first = outcome(mat, structured)
    second = outcome(mat, structured)
    if isinstance(first, type):
        assert issubclass(first, ValueError) and first is not ValueError
        assert second is first
        return
    labels = first.labels
    assert labels.shape == (len(SURFACE.faces),)
    assert labels.min() >= 0 and labels.max() < len(first.regions)
    assert np.array_equal(labels, second.labels)
