"""Histogram-based merging of adjacent regions.

Each region is summarized by a 32-bin histogram of its node radii over
the shape-wide radius range, so the bins line up across regions.  The
1-D Earth Mover's Distance between two histograms has the closed form
sum |CDF1 - CDF2| and is normalized by BIN_COUNT - 1, which maps "all
mass moved across the full range" to 1.  Two regions are adjacent when
a pair of the graph's pair table joins a node of each.  Adjacent regions
are merged greedily, cheapest pair first, while their distance stays
under tau.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .growing import Region, region_labels
from .mat_graph import MatGraph
from .mesh_io import weight

BIN_COUNT = 32


@dataclass
class RadiusHistogram:
    bins: np.ndarray
    radius_range: tuple[float, float]


def radius_histogram(g: MatGraph, region: Region,
                     radius_range: tuple[float, float] | None = None
                     ) -> RadiusHistogram:
    """Normalized node-radius histogram over the shape's global range.

    radius_range is a (lo, hi) pair of finite real numbers with lo <= hi;
    lo == hi puts every node in the first bin.  ValueError for another
    range, a region with no nodes or a node that
    :meth:`MatGraph.region_index` rejects.
    """
    radii = g.mean_radii
    if radius_range is None:
        lo, hi = float(radii.min()), float(radii.max())
    else:
        lo, hi = _radius_range(radius_range)
    vals = radii[g.region_index(region)]
    if not len(vals):
        raise ValueError(f"region {region.id} has no nodes")
    bins = np.zeros(BIN_COUNT)
    if hi <= lo:
        bins[0] = 1.0
    else:
        idx = ((vals - lo) / (hi - lo) * BIN_COUNT).astype(int)
        np.add.at(bins, np.clip(idx, 0, BIN_COUNT - 1), 1.0)
        bins /= bins.sum()
    return RadiusHistogram(bins, (lo, hi))


def _radius_range(radius_range) -> tuple[float, float]:
    """radius_range read as a (lo, hi) pair of finite floats, lo <= hi."""
    try:
        lo, hi = radius_range
    except (TypeError, ValueError):
        raise ValueError(f"radius_range must be a (lo, hi) pair, got "
                         f"{radius_range!r}") from None
    if not (isinstance(lo, numbers.Real) and isinstance(hi, numbers.Real)):
        raise ValueError(f"radius_range must hold real numbers, got "
                         f"{radius_range!r}")
    try:
        lo, hi = float(lo), float(hi)
    except OverflowError:  # an int beyond the float range
        lo = hi = math.inf
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"radius_range must be finite, got {radius_range!r}")
    if hi < lo:
        raise ValueError(f"radius_range must not end below its start, got "
                         f"{radius_range!r}")
    return lo, hi


def emd_1d(h1: RadiusHistogram, h2: RadiusHistogram) -> float:
    if len(h1.bins) != len(h2.bins) or h1.radius_range != h2.radius_range:
        raise ValueError("histograms use different binnings")
    if len(h1.bins) < 2:
        raise ValueError("an EMD needs at least 2 bins")
    diff = np.cumsum(h1.bins) - np.cumsum(h2.bins)
    return float(np.abs(diff).sum()) / (len(h1.bins) - 1)


def merge_matching(g: MatGraph, regions: list[Region],
                   tau: float = 0.15) -> list[Region]:
    """Greedily merge adjacent regions whose radius EMD is below tau.

    The surviving region keeps the lower id; histograms are recomputed
    after every merge so chains of similar regions coalesce.
    """
    weight(tau, "tau", inf=True)
    labels = region_labels(g, regions)  # checks every region's nodes
    if len(regions) <= 1:
        return list(regions)
    rng = (float(g.mean_radii.min()), float(g.mean_radii.max()))

    # regions touch where an adjacent pair joins two claimed nodes
    ends = labels[g.pair_index[0]]
    ends = np.sort(ends[(ends >= 0).all(axis=1) & (ends[:, 0] != ends[:, 1])])
    adjacent = set(map(tuple, ends.tolist()))
    table = {r.id: replace(r, nodes=list(r.nodes)) for r in regions}
    hists = {rid: radius_histogram(g, r, rng) for rid, r in table.items()}
    while adjacent:
        e, a, b = min((emd_1d(hists[a], hists[b]), a, b)
                      for a, b in sorted(adjacent))
        if not e < tau:
            break
        table[a].nodes.extend(table.pop(b).nodes)
        del hists[b]
        hists[a] = radius_histogram(g, table[a], rng)
        adjacent = {(min(x, y), max(x, y)) for x, y in
                    ((a if x == b else x, a if y == b else y)
                     for x, y in adjacent) if x != y}
    return [table[rid] for rid in sorted(table)]
