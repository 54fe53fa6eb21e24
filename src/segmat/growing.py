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
from collections import deque
from dataclasses import dataclass

import numpy as np

from .mat_graph import MatGraph, node_angle, primitive_angles
from .structure import DegenerateInput, StructuralComponent, thinness

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


def ma_cost(g: MatGraph, i: int, j: int, alpha: float = 0.05) -> float:
    ri = g.nodes[i].mean_radius
    rj = g.nodes[j].mean_radius
    if min(ri, rj) <= 0.0:
        raise DegenerateInput(
            f"component {int(g.component_id[i])}: node {i if ri <= rj else j}"
            " has radius 0")
    theta = node_angle(g, i, j)
    return abs(ri - rj) / min(ri, rj) + alpha * (math.pi - theta) / math.pi


def primitive_cost(angle_plus: float, angle_minus: float) -> float:
    return (angle_plus + angle_minus) / (2.0 * math.pi)


def mp_cost(g: MatGraph, i: int, j: int) -> float:
    return primitive_cost(*primitive_angles(g, i, j))


def growing_cost(g: MatGraph, i: int, j: int,
                 p: GrowingParams | None = None) -> float:
    p = p or GrowingParams()
    return min(ma_cost(g, i, j, p.alpha), p.lam * mp_cost(g, i, j))


def adjusted_threshold(delta0: float, rho: float) -> float:
    """Growing threshold scaled up for thin components; never below delta0."""
    x = math.log(rho)
    return delta0 * (x if x >= SIGMA_KNEE else 1.0)


def swallow(g: MatGraph, region: Region, unclaimed) -> Region:
    """Absorb candidate nodes lying inside or touching the region's spheres.

    Only the spheres the region holds on entry are used, so absorbed nodes
    do not extend the reach of the test.
    """
    centers, radii = g.sphere_arrays(region.nodes)
    all_centers = g.mm.centers()
    all_radii = g.mm.radii()
    for v in unclaimed:
        el = list(g.nodes[v].element)
        c = all_centers[el]
        r = all_radii[el]
        d = np.linalg.norm(c[:, None, :] - centers[None, :, :], axis=2)
        intersects = bool((d < r[:, None] + radii[None, :]).any())
        enclosed = bool(((d + r[:, None]) <= radii[None, :]).any(axis=1).all())
        if intersects or enclosed:
            region.nodes.append(int(v))
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
            raise DegenerateInput(f"{name}: its spheres coincide (zero extent)")
        out.append(adjusted_threshold(p.delta0, rho))
    return out


def grow(g: MatGraph, comps: list[StructuralComponent],
         p: GrowingParams | None = None, cost_fn=None,
         swallowing: bool = True) -> list[Region]:
    """Partition all graph nodes into regions (requires component_id set).

    cost_fn overrides the pairwise growing cost; the default combines the
    medial-axis and primitive terms.  Point-based pipelines pass a cost of
    their own while keeping the growth, swallowing and leftover rules.
    swallowing=False disables spike absorption, leaving unstable branches
    to fend for themselves (they usually surface as extra regions).
    """
    p = p or GrowingParams()
    n = len(g)
    comp_of = np.asarray(g.component_id)
    deltas = _component_thresholds(comps, p)
    radii = g.mean_radii()
    visited = np.zeros(n, dtype=bool)
    negligible = np.zeros(n, dtype=bool)
    cache: dict[tuple[int, int], float] = {}

    def cost(i: int, j: int) -> float:
        key = (i, j) if i < j else (j, i)
        if key not in cache:
            if cost_fn is None:
                cache[key] = growing_cost(g, key[0], key[1], p)
            else:
                cache[key] = float(cost_fn(key[0], key[1]))
        return cache[key]

    regions: list[Region] = []
    failed: list[list[int]] = []
    while not visited.all():
        pending = np.flatnonzero(~visited)
        seed = int(pending[np.argmax(radii[pending])])
        comp = int(comp_of[seed])
        delta = deltas[comp] if 0 <= comp < len(deltas) else p.delta0
        queue = deque([seed])
        visited[seed] = True
        nodes: list[int] = []
        while queue:
            i = queue.popleft()
            nodes.append(i)
            for j in g.neighbors(i):
                if not visited[j] and comp_of[j] == comp and cost(i, j) < delta:
                    visited[j] = True
                    queue.append(j)
        if len(nodes) / n >= p.eta:
            region = Region(len(regions), nodes, seed, comp)
            if swallowing:
                before = len(region.nodes)
                candidates = [int(v) for v in np.flatnonzero(~visited | negligible)]
                swallow(g, region, candidates)
                for v in region.nodes[before:]:
                    visited[v] = True
                    negligible[v] = False
            regions.append(region)
        else:
            negligible[nodes] = True
            failed.append(nodes)

    if not regions:
        # Everything fell under eta: keep the grown clusters as they are.
        for nodes in failed:
            alive = [v for v in nodes if negligible[v]]
            if alive:
                regions.append(Region(len(regions), alive, nodes[0],
                                      int(comp_of[nodes[0]])))
                negligible[alive] = False
        return regions

    _merge_leftovers(g, regions, negligible)
    return regions


def region_labels(g: MatGraph, regions: list[Region]) -> np.ndarray:
    """Per-node region id; -1 for nodes no region claims."""
    labels = np.full(len(g), -1, dtype=int)
    for r in regions:
        labels[list(r.nodes)] = r.id
    return labels


def _merge_leftovers(g: MatGraph, regions: list[Region],
                     negligible: np.ndarray) -> None:
    """Attach residual negligible clusters to kept regions."""
    leftovers = set(int(v) for v in np.flatnonzero(negligible))
    if not leftovers:
        return
    labels = region_labels(g, regions)
    seen: set[int] = set()
    clusters: list[list[int]] = []
    for v in sorted(leftovers):
        if v in seen:
            continue
        stack = [v]
        seen.add(v)
        cluster = []
        while stack:
            u = stack.pop()
            cluster.append(u)
            for w in g.neighbors(u):
                if w in leftovers and w not in seen:
                    seen.add(w)
                    stack.append(w)
        clusters.append(sorted(cluster))

    cents = g.centroids()
    for cluster in clusters:
        links = np.zeros(len(regions), dtype=int)
        for u in cluster:
            for w in g.neighbors(u):
                if labels[w] >= 0:
                    links[labels[w]] += 1
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
