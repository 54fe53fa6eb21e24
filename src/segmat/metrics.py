"""Dissimilarity metrics between two face segmentations of one mesh.

The four benchmark metrics: Rand index over face pairs, cut discrepancy
between boundary midpoint sets, Hamming rates from area-maximizing segment
matching, and global/local consistency error.  All are 0 on identical
inputs and lower is better throughout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .mesh_io import SurfaceMesh, whole_labels


@dataclass
class Segmentation:
    """Per-face labels plus the derived quantities the metrics consume."""

    labels: np.ndarray
    areas: np.ndarray
    boundary_midpoints: np.ndarray
    normalizer: float

    @classmethod
    def build(cls, mesh: SurfaceMesh, labels) -> "Segmentation":
        mesh.validate()
        labels = whole_labels(labels)
        if labels.shape != (len(mesh.faces),):
            raise ValueError("one label per face required")
        if labels.size == 0:
            raise ValueError("segmentation needs at least one face")
        areas = mesh.face_areas()
        if np.any(areas <= 0.0):
            raise ValueError("mesh has zero-area faces")
        pairs, shared = mesh.dual_edges()
        if len(pairs):
            cut = shared[labels[pairs[:, 0]] != labels[pairs[:, 1]]]
        else:
            cut = np.zeros((0, 2), dtype=int)
        if len(cut):
            cut = np.unique(cut, axis=0)
            midpoints = mesh.vertices[cut].mean(axis=1)
        else:
            midpoints = np.zeros((0, 3))
        centroid = mesh.vertices.mean(axis=0)
        normalizer = float(np.linalg.norm(mesh.vertices - centroid, axis=1).mean())
        return cls(labels, areas, midpoints, normalizer)


def _check_comparable(a: Segmentation, b: Segmentation) -> None:
    if len(a.labels) != len(b.labels):
        raise ValueError("segmentations cover different face counts")


def _contingency(a: Segmentation, b: Segmentation):
    """Area and count tables over (a-segment, b-segment) pairs."""
    _, ia = np.unique(a.labels, return_inverse=True)
    _, ib = np.unique(b.labels, return_inverse=True)
    shape = (int(ia.max()) + 1, int(ib.max()) + 1)
    area = np.zeros(shape)
    count = np.zeros(shape)
    np.add.at(area, (ia, ib), a.areas)
    np.add.at(count, (ia, ib), 1.0)
    return area, count, ia, ib


def rand_index(a: Segmentation, b: Segmentation) -> float:
    """Fraction of unordered face pairs the two segmentations group
    differently (together in one, apart in the other)."""
    _check_comparable(a, b)
    n = len(a.labels)
    if n < 2:
        return 0.0

    def pairs(counts):
        return float((counts * (counts - 1.0)).sum()) / 2.0

    _, count, _, _ = _contingency(a, b)
    total = n * (n - 1) / 2.0
    together_both = pairs(count)
    together_a = pairs(count.sum(axis=1))
    together_b = pairs(count.sum(axis=0))
    disagree = (together_a - together_both) + (together_b - together_both)
    return float(disagree / total)


def cut_discrepancy(a: Segmentation, b: Segmentation) -> float:
    """Mean distance between the two boundary midpoint sets, in units of the
    average vertex distance to the mesh centroid.

    0 when neither segmentation has boundaries; exactly 1 when only one of
    them does.  Unclamped: values above 1 are possible and reported as-is.
    """
    _check_comparable(a, b)
    empty_a = len(a.boundary_midpoints) == 0
    empty_b = len(b.boundary_midpoints) == 0
    if empty_a and empty_b:
        return 0.0
    if empty_a or empty_b:
        return 1.0
    if a.normalizer <= 0.0:
        raise ValueError("degenerate mesh: vertices coincide")
    gaps = cdist(a.boundary_midpoints, b.boundary_midpoints)
    forward = float(gaps.min(axis=1).mean())
    backward = float(gaps.min(axis=0).mean())
    return 0.5 * (forward + backward) / a.normalizer


def hamming(a: Segmentation, b: Segmentation) -> tuple[float, float, float]:
    """(HD, missing rate, false alarm rate) under best-overlap matching.

    Each segment is matched to the segment of the other labeling covering
    the most of its area; the directed distance is the unmatched area
    fraction.  The missing rate goes from b to a, the false alarm rate from
    a to b, and HD is their mean.
    """
    _check_comparable(a, b)
    area, _, _, _ = _contingency(a, b)
    total = float(a.areas.sum())
    false_alarm = float((area.sum(axis=1) - area.max(axis=1)).sum()) / total
    missing = float((area.sum(axis=0) - area.max(axis=0)).sum()) / total
    return 0.5 * (missing + false_alarm), missing, false_alarm


def consistency_error(a: Segmentation, b: Segmentation) -> tuple[float, float]:
    """(GCE, LCE): area-weighted refinement error between the labelings.

    The per-face error in one direction is the area of its segment not
    covered by the other labeling's segment, over its segment's area.  GCE
    takes the better whole-mesh direction; LCE lets every face pick its own,
    so LCE <= GCE.
    """
    _check_comparable(a, b)
    area, _, ia, ib = _contingency(a, b)
    row = area.sum(axis=1)
    col = area.sum(axis=0)
    overlap = area[ia, ib]
    e_ab = (row[ia] - overlap) / row[ia]
    e_ba = (col[ib] - overlap) / col[ib]
    weights = a.areas
    total = float(weights.sum())
    gce = min(float((weights * e_ab).sum()), float((weights * e_ba).sum())) / total
    lce = float((weights * np.minimum(e_ab, e_ba)).sum()) / total
    return gce, lce
