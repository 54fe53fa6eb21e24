"""Seeded input generators for the segmentation benchmark.

Each workload is one medial mesh, one closed surface that encloses it the
way a real input does (the surface touches the medial spheres), and a
ground-truth face labeling.  The seed only drives a small jitter: every
radius is scaled by 1 +- 0.002 and every center moves up to 0.02 units
off-axis (chains) or in-plane (the plate).  ``seed=None`` gives the
unjittered geometry.  The surfaces and the ground truth do not depend on
the seed.

Nothing here imports the package under test or its tests, so a change to
either cannot change the inputs.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

RADIUS_JITTER = 0.002
CENTER_JITTER = 0.02

CHAIN_SPHERES = 2501
CHAIN_SECTORS = 20
CHAIN_STACKS = 501
BANDS = 32
PLATE_SIDE = 60
PLATE_CELLS = 70


@dataclass
class Workload:
    """Generated inputs of one workload, in memory."""

    name: str
    centers: np.ndarray        # (n, 3) medial sphere centers
    radii: np.ndarray          # (n,) medial sphere radii
    edges: list                # medial edges (i, j)
    faces: list                # medial triangles (i, j, k)
    vertices: np.ndarray       # (v, 3) surface vertices
    triangles: np.ndarray      # (f, 3) surface faces, outward winding
    truth: np.ndarray          # (f,) ground-truth part per surface face
    structured: bool           # pass the medial mesh as --structured too


def _jitter(centers, radii, seed, axes):
    """Scale radii by 1 +- RADIUS_JITTER and move centers along axes."""
    if seed is None:
        return centers, radii
    rng = random.Random(seed)
    centers = centers.copy()
    radii = radii.copy()
    for i in range(len(radii)):
        for axis in axes:
            centers[i, axis] += rng.uniform(-CENTER_JITTER, CENTER_JITTER)
        radii[i] *= 1.0 + rng.uniform(-RADIUS_JITTER, RADIUS_JITTER)
    return centers, radii


def _revolution_surface(profile, length):
    """Closed surface of revolution around the x axis over [0, length].

    Rings sit at evenly spaced x with radius profile(x); two poles close
    the ends one radius beyond the first and last ring.  Faces:
    2 * CHAIN_SECTORS * (CHAIN_STACKS - 1).
    """
    rings = CHAIN_STACKS - 1
    xs = np.linspace(0.0, length, rings)
    pts = [(-profile(0.0), 0.0, 0.0)]
    for x in xs:
        r = profile(x)
        for j in range(CHAIN_SECTORS):
            theta = 2.0 * math.pi * j / CHAIN_SECTORS
            pts.append((x, r * math.cos(theta), r * math.sin(theta)))
    pts.append((length + profile(length), 0.0, 0.0))
    last = len(pts) - 1

    def ring(i, j):
        return 1 + i * CHAIN_SECTORS + (j % CHAIN_SECTORS)

    tris = [(0, ring(0, j + 1), ring(0, j)) for j in range(CHAIN_SECTORS)]
    for i in range(rings - 1):
        for j in range(CHAIN_SECTORS):
            a, b = ring(i, j), ring(i, j + 1)
            c, d = ring(i + 1, j + 1), ring(i + 1, j)
            tris.append((a, b, c))
            tris.append((a, c, d))
    tris += [(last, ring(rings - 1, j), ring(rings - 1, j + 1))
             for j in range(CHAIN_SECTORS)]
    return np.array(pts, dtype=float), np.array(tris, dtype=np.int64)


def _chain(name, nominal_radii, part_of_x, seed, structured):
    count = len(nominal_radii)
    centers = np.zeros((count, 3))
    centers[:, 0] = np.arange(count, dtype=float)
    centers, radii = _jitter(centers, nominal_radii, seed, axes=(1, 2))
    length = float(count - 1)

    def profile(x):
        return float(nominal_radii[min(count - 1, max(0, int(round(x))))])

    vertices, triangles = _revolution_surface(profile, length)
    centroid_x = vertices[triangles].mean(axis=1)[:, 0]
    return Workload(name, centers, radii,
                    [(i, i + 1) for i in range(count - 1)], [],
                    vertices, triangles, part_of_x(centroid_x), structured)


def chain_simplify(seed):
    """2501-sphere chain, radius ramps 4 -> 1 -> 4; 3 parts."""
    t = np.arange(CHAIN_SPHERES, dtype=float) / (CHAIN_SPHERES - 1)
    down = np.clip((t - 0.30) / 0.05, 0.0, 1.0)
    up = np.clip((t - 0.65) / 0.05, 0.0, 1.0)
    radii = 4.0 - 3.0 * down + 3.0 * up
    length = CHAIN_SPHERES - 1
    # Parts split at the middle of each ramp.
    cuts = [0.325 * length, 0.675 * length]
    return _chain("chain-simplify", radii,
                  lambda x: np.searchsorted(cuts, x), seed, structured=False)


def _band_of(index):
    return np.asarray(index) * BANDS // CHAIN_SPHERES


def banded_chain(seed):
    """2501-sphere chain, radii alternating 4 / 1.5 in 32 blocks; 32 parts."""
    band = _band_of(np.arange(CHAIN_SPHERES))
    radii = np.where(band % 2 == 0, 4.0, 1.5)

    def part_of_x(x):
        return _band_of(np.clip(np.rint(x), 0, CHAIN_SPHERES - 1).astype(int))

    return _chain("banded-chain", radii, part_of_x, seed, structured=True)


def _plate_radius(x):
    """Radius 1 left of the middle column, 2 from it on."""
    return np.where(np.asarray(x) < (PLATE_SIDE - 1) / 2.0, 1.0, 2.0)


def _slab_surface():
    """Closed slab around the plate: top z = r(x), bottom z = -r(x).

    The footprint reaches one radius past the sheet on every side;
    4 * PLATE_CELLS**2 faces on top and bottom plus 8 * PLATE_CELLS on the
    side walls.
    """
    n = PLATE_CELLS
    side = PLATE_SIDE - 1
    r_end = _plate_radius([0.0, side])
    u = np.linspace(-r_end[0], side + r_end[1], n + 1)
    vertices = []
    for z_sign in (1.0, -1.0):
        for x in u:
            r = float(_plate_radius(x))
            for y in np.linspace(-r, side + r, n + 1):
                vertices.append((x, y, z_sign * r))
    plane = (n + 1) * (n + 1)

    def vid(layer, i, j):
        return layer * plane + i * (n + 1) + j

    tris = []
    for i in range(n):
        for j in range(n):
            a, b = vid(0, i, j), vid(0, i + 1, j)
            c, d = vid(0, i + 1, j + 1), vid(0, i, j + 1)
            tris += [(a, b, c), (a, c, d)]
            a, b = vid(1, i, j), vid(1, i + 1, j)
            c, d = vid(1, i + 1, j + 1), vid(1, i, j + 1)
            tris += [(a, c, b), (a, d, c)]
    # Boundary loop of the grid, counter-clockwise seen from +z.
    loop = ([(i, 0) for i in range(n)] + [(n, j) for j in range(n)]
            + [(i, n) for i in range(n, 0, -1)]
            + [(0, j) for j in range(n, 0, -1)])
    for k, (i, j) in enumerate(loop):
        i2, j2 = loop[(k + 1) % len(loop)]
        a, b = vid(0, i, j), vid(0, i2, j2)
        c, d = vid(1, i2, j2), vid(1, i, j)
        tris += [(a, d, c), (a, c, b)]
    return np.array(vertices, dtype=float), np.array(tris, dtype=np.int64)


def plate_simplify(seed):
    """60 x 60 sphere plate (6962 slabs), radius 1 | 2 at the middle; 2 parts."""
    side = PLATE_SIDE
    ii, jj = np.meshgrid(np.arange(side), np.arange(side), indexing="ij")
    centers = np.zeros((side * side, 3))
    centers[:, 0] = ii.reshape(-1)
    centers[:, 1] = jj.reshape(-1)
    centers, radii = _jitter(centers, _plate_radius(centers[:, 0]), seed,
                             axes=(0, 1))
    faces = []
    for i in range(side - 1):
        for j in range(side - 1):
            a = i * side + j
            faces += [(a, a + side, a + side + 1), (a, a + side + 1, a + 1)]
    vertices, triangles = _slab_surface()
    centroid_x = vertices[triangles].mean(axis=1)[:, 0]
    truth = (centroid_x >= (side - 1) / 2.0).astype(np.int64)
    return Workload("plate-simplify", centers, radii, [], faces,
                    vertices, triangles, truth, structured=False)


WORKLOADS = {
    "chain-simplify": chain_simplify,
    "plate-simplify": plate_simplify,
    "banded-chain": banded_chain,
}


def generate(name: str, seed) -> Workload:
    return WORKLOADS[name](seed)


def _fmt(x) -> str:
    return format(float(x), ".9g")


def write_inputs(w: Workload, directory: str) -> tuple[str, str]:
    """Write the surface as OFF and the medial mesh as .ma; returns paths."""
    off = os.path.join(directory, f"{w.name}.off")
    ma = os.path.join(directory, f"{w.name}.ma")
    with open(off, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"OFF\n{len(w.vertices)} {len(w.triangles)} 0\n")
        fh.writelines(f"{_fmt(x)} {_fmt(y)} {_fmt(z)}\n"
                      for x, y, z in w.vertices.tolist())
        fh.writelines(f"3 {a} {b} {c}\n" for a, b, c in w.triangles.tolist())
    with open(ma, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)} {_fmt(r)}\n"
                      for (x, y, z), r in zip(w.centers.tolist(),
                                              w.radii.tolist()))
        fh.writelines(f"e {a} {b}\n" for a, b in w.edges)
        fh.writelines(f"f {a} {b} {c}\n" for a, b, c in w.faces)
    return off, ma
