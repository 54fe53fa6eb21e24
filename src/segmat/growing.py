"""Greedy region growing over the MAT graph.

Regions are seeded at the thickest unvisited node and expanded breadth
first while the growing cost stays under a per-component threshold.  The
cost combines a medial-axis term (radius variation plus bending) with a
primitive-envelope term, taking whichever is cheaper so a cut requires
both to object.  Thin components get a more tolerant threshold.  Small
regions are put aside as negligible and later swallowed into the volume
of a kept region or merged into an adjacent one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate, chain

import numpy as np
from scipy.spatial import cKDTree

from .geometry import DegenerateGeometry, ball_pairs
from .mat_graph import MatGraph, linked_groups, pair_angles
from .mesh_io import weight
from .structure import ComponentKind, DegenerateInput, StructuralComponent, thinness

SIGMA_KNEE = 3.0  # log-thinness below this leaves delta0 alone


@dataclass
class GrowingParams:
    alpha: float = 0.05     # weight of the bending term
    lam: float = 1.5        # weight of the primitive term
    delta0: float = 0.015   # base growing threshold
    eta: float = 0.002      # minimal region node ratio


@dataclass
class Region:
    id: int
    nodes: list[int]
    seed: int
    component_id: int


def cost_terms(g: MatGraph, alpha: float = 0.05):
    """Medial-axis and primitive cost terms of every pair in g.pair_index.

    ma = |r_i - r_j| / min(r_i, r_j) + alpha (pi - theta) / pi and
    mp = (angle+ + angle-) / (2 pi).  faults maps each pair without a cost
    to the error reading it raises: a zero radius, else a zero vector.
    alpha must be finite and not negative.
    """
    weight(alpha, "alpha")
    bend, plus, minus = pair_angles(g)
    lo, hi = g.pair_index[0].T
    ri, rj = g.mean_radii[lo], g.mean_radii[hi]
    low = np.where(rj < ri, rj, ri)
    with np.errstate(all="ignore"):  # inf and NaN as the scalar code gives
        ma = np.abs(ri - rj) / low + alpha * (math.pi - bend) / math.pi
    mp = (plus + minus) / (2.0 * math.pi)
    faults = {k: DegenerateGeometry("angle with a zero vector")
              for k in np.flatnonzero(np.isnan(ma + mp)).tolist()}
    for k in np.flatnonzero(low <= 0.0).tolist():  # radii are checked first
        i, j = int(lo[k]), int(hi[k])
        faults[k] = DegenerateInput(f"component {int(g.component_id[i])}: node "
                                    f"{i if ri[k] <= rj[k] else j} has radius 0")
    return ma, mp, faults


def adjusted_threshold(delta0: float, rho: float) -> float:
    """Growing threshold scaled up for thin components; never below delta0."""
    x = math.log(rho)
    return delta0 * (x if x >= SIGMA_KNEE else 1.0)


def swallow(g: MatGraph, region: Region, unclaimed) -> Region:
    """Absorb candidate nodes lying inside or touching the region's spheres.

    A candidate node is absorbed when one of its spheres (c, r) intersects a
    region sphere (C, R), d = |c - C| < r + R, or when each of its spheres
    lies inside some region sphere, d + r <= R.  Only the spheres the region
    holds on entry are used, so absorbed nodes do not extend the reach of
    the test; they are appended in candidate order.

    Both tests need d <= |r| + max(R), so one k-d tree ball query per
    candidate sphere at that radius, plus a margin far above float rounding,
    finds every pair either test accepts.  The tests then run on those pairs
    only, with the arithmetic of a full scan, so the result equals it.
    ValueError names a candidate that is not a node of g, or a region
    without nodes.
    """
    candidates = g.node_index(unclaimed)
    if len(region.nodes) == 0:
        raise ValueError(f"region {region.id} has no nodes")
    if candidates.size == 0:
        return region
    centers, radii = g.sphere_arrays(region.nodes)
    picked = g.incidence[candidates]
    sizes = np.diff(picked.indptr)
    owner = np.repeat(np.arange(len(candidates)), sizes)
    c = g.mm.centers()[picked.indices]
    r = g.mm.radii()[picked.indices]
    r_max = float(radii.max())
    margin = 1e-9 * (float(np.abs(c).max()) + float(np.abs(centers).max())
                     + abs(r_max) + float(np.abs(r).max()))
    rows, items = ball_pairs(cKDTree(centers), c, np.abs(r) + r_max + margin)
    d = np.linalg.norm(c[rows] - centers[items], axis=1)
    intersects = np.zeros(len(candidates), dtype=bool)
    intersects[owner[rows[d < r[rows] + radii[items]]]] = True
    inside = np.zeros(len(c), dtype=bool)
    inside[rows[d + r[rows] <= radii[items]]] = True
    enclosed = np.bincount(owner, weights=inside,
                           minlength=len(candidates)) == sizes
    region.nodes.extend(candidates[intersects | enclosed].tolist())
    return region


def _component_thresholds(comps: list[StructuralComponent],
                          p: GrowingParams) -> list[float]:
    out = []
    for k, c in enumerate(comps):
        name = f"component {k} ({c.kind.value})"
        if c.max_radius <= 0.0:
            raise DegenerateInput(f"{name}: every sphere has radius 0")
        rho = thinness(c)
        if rho <= 0.0:
            extra = " or are collinear" if c.kind is ComponentKind.SHEET else ""
            raise DegenerateInput(f"{name}: its spheres coincide{extra} (zero extent)")
        out.append(adjusted_threshold(p.delta0, rho))
    return out


def grow(g: MatGraph, comps: list[StructuralComponent],
         p: GrowingParams | None = None, costs=None,
         swallowing: bool = True) -> list[Region]:
    """Partition all graph nodes into regions.

    Every component_id must index comps (see assign_base_nodes); with
    comps empty, the ids only keep growth apart and every threshold is
    delta0.  costs overrides the growing cost with one value per pair of
    g.pair_index, none of them NaN; the default is the cheaper of the
    medial-axis term and lam times the primitive term.  Point-based
    pipelines pass a cost of their own while keeping the growth, swallowing
    and leftover rules.
    swallowing=False disables spike absorption, leaving unstable branches
    to fend for themselves (they usually surface as extra regions).
    """
    p = p or GrowingParams()
    for name in ("alpha", "lam", "delta0", "eta"):
        weight(getattr(p, name), name)
    n = len(g)
    comp_of = np.asarray(g.component_id)
    stray = np.flatnonzero((comp_of < 0) | (comp_of >= len(comps)))
    if comps and stray.size:
        raise ValueError(f"node {stray[0]} has component id {comp_of[stray[0]]}"
                         f" of {len(comps)}; run assign_base_nodes first")
    deltas = _component_thresholds(comps, p)
    radii = g.mean_radii
    visited = np.zeros(n, dtype=bool)
    negligible = np.zeros(n, dtype=bool)
    faults = {}
    pairs = g.pair_index
    if costs is None:
        ma, mp, faults = cost_terms(g, p.alpha)
        costs = np.where(p.lam * mp < ma, p.lam * mp, ma)
    else:
        costs = np.asarray(costs, dtype=float)
        if costs.shape != (len(pairs[0]),):
            raise ValueError(f"costs must hold one value per pair of "
                             f"g.pair_index ({len(pairs[0])}), got shape "
                             f"{costs.shape}")
        nan = np.flatnonzero(np.isnan(costs))
        if nan.size:
            i, j = pairs[0][nan[0]].tolist()
            raise ValueError(f"the cost of pair ({i}, {j}) is NaN")
    # adjacency entry k of node i is entry_cost[start[i] + its position]
    entry_pair = pairs[1]
    entry_cost = costs[entry_pair].tolist()
    start = list(accumulate(map(len, g.adjacency), initial=0))
    at = np.flatnonzero(np.isin(entry_pair, list(faults))).tolist()
    entry_fault = {k: faults[int(entry_pair[k])] for k in at}

    # the walk reads visits and components from lists; visited mirrors
    # seen as an array for the seed search and swallowing's candidates
    seen = [False] * n
    comp_at = comp_of.tolist()
    adjacency = g.adjacency
    regions: list[Region] = []
    failed: list[list[int]] = []
    while not visited.all():
        pending = np.flatnonzero(~visited)
        seed = int(pending[np.argmax(radii[pending])])
        comp = comp_at[seed]
        delta = deltas[comp] if deltas else p.delta0
        seen[seed] = True
        nodes = [seed]  # breadth first: the list is its own queue
        for i in nodes:
            for k, j in enumerate(adjacency[i], start[i]):
                if not seen[j] and comp_at[j] == comp:
                    if k in entry_fault:
                        raise entry_fault[k]
                    if entry_cost[k] < delta:
                        seen[j] = True
                        nodes.append(j)
        visited[nodes] = True
        if len(nodes) / n >= p.eta:
            region = Region(len(regions), nodes, seed, comp)
            if swallowing:
                before = len(region.nodes)
                swallow(g, region, np.flatnonzero(~visited | negligible))
                absorbed = region.nodes[before:]
                visited[absorbed] = True
                negligible[absorbed] = False
                for j in absorbed:
                    seen[j] = True
            regions.append(region)
        else:
            negligible[nodes] = True
            failed.append(nodes)

    if not regions:
        # Everything fell under eta: keep the grown clusters as they are.
        return [Region(k, nodes, nodes[0], int(comp_of[nodes[0]]))
                for k, nodes in enumerate(failed)]

    _merge_leftovers(g, regions, negligible)
    return regions


def region_labels(g: MatGraph, regions: list[Region]) -> np.ndarray:
    """Per-node region id; -1 for nodes no region claims."""
    labels = np.full(len(g), -1, dtype=int)
    for r in regions:
        labels[g.region_index(r)] = r.id
    return labels


def _merge_leftovers(g: MatGraph, regions: list[Region],
                     negligible: np.ndarray) -> None:
    """Attach residual negligible clusters to kept regions."""
    leftovers = np.flatnonzero(negligible)
    if leftovers.size == 0:
        return
    labels = region_labels(g, regions)
    # each leftover is keyed by its own node and its leftover neighbours
    pairs = [(k, w) for k, u in enumerate(leftovers.tolist())
             for w in [u, *g.adjacency[u]] if negligible[w]]
    clusters = [leftovers[group].tolist()
                for group in linked_groups(pairs, len(leftovers))]

    cents = g.centroids
    for cluster in clusters:
        near = labels[list(chain.from_iterable(g.adjacency[u] for u in cluster))]
        links = np.bincount(near[near >= 0], minlength=len(regions))
        if links.max() > 0:
            target = int(np.argmax(links))
        else:
            per_region = [np.linalg.norm(cents[cluster][:, None, :]
                                         - cents[r.nodes][None, :, :],
                                         axis=2).min()
                          for r in regions]
            target = int(np.argmin(per_region))
        regions[target].nodes.extend(cluster)
        labels[cluster] = target
