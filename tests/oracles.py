"""Plain references for the package's vectorised and pruned computations.

These are the dense faces x spheres scan the package used before its
sphere-gap search was pruned with a k-d tree, the scalar data cost of one
face, the dict-based dual-graph builder the numpy edge pairing replaced,
the stacked-array collapse cost the closed-form quadratic replaced, and
the per-node dense swallowing test the ball query replaced.
The package's results must equal them exactly, save for the rounding
noise of the stacked sum.
"""

import numpy as np


def data_table(mesh, graph, regions):
    """(faces, regions) normalized gaps to each region's sphere surfaces."""
    centroids = mesh.face_centroids()
    diagonal = mesh.diagonal()
    if diagonal <= 0.0:
        diagonal = 1.0
    columns = []
    for region in regions:
        centers, radii = graph.sphere_arrays(region.nodes)
        step = max(1, (1 << 21) // centers.shape[0])
        best = np.empty(len(centroids))
        for lo in range(0, len(centroids), step):
            block = centroids[lo:lo + step]
            gaps = (
                np.linalg.norm(block[:, None, :] - centers[None, :, :], axis=2)
                - radii[None, :]
            )
            best[lo:lo + len(block)] = gaps.min(axis=1)
        columns.append(np.maximum(0.0, best) / diagonal)
    return np.stack(columns, axis=1)


def data_term(centroid, centers, radii, diagonal):
    """Normalized gap between a face centroid and a segment's sphere surfaces.

    Zero whenever the centroid lies inside any sphere of the segment.
    """
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    radii = np.asarray(radii, dtype=float).reshape(-1)
    if centers.shape[0] == 0:
        raise ValueError("segment has no spheres")
    if diagonal <= 0.0:
        raise ValueError("diagonal must be positive")
    gaps = np.linalg.norm(centers - np.asarray(centroid, dtype=float), axis=1) - radii
    return float(max(0.0, float(gaps.min())) / diagonal)


def dual_edges(mesh):
    """(pairs, shared) of mesh.dual_edges(), built from an edge -> faces dict."""
    table = {}
    for fi, (a, b, c) in enumerate(mesh.faces):
        for u, v in ((a, b), (b, c), (c, a)):
            key = (u, v) if u < v else (v, u)
            table.setdefault(key, []).append(fi)
    pairs = []
    shared = []
    for (u, v), flist in sorted(table.items()):
        for i in range(len(flist)):
            for j in range(i + 1, len(flist)):
                a, b = flist[i], flist[j]
                pairs.append((a, b) if a < b else (b, a))
                shared.append((u, v))
    pairs_a = np.array(pairs, dtype=int).reshape(-1, 2)
    shared_a = np.array(shared, dtype=int).reshape(-1, 2)
    order = np.lexsort((pairs_a[:, 1], pairs_a[:, 0])) if len(pairs_a) else []
    return pairs_a[order], shared_a[order]


def stacked_collapse_cost(state, a, b):
    """(cost, t) of collapsing edge (a, b) of a simplification state.

    Stacks one copy of each endpoint sphere per element incident to it and
    sums the squared deviation of every sampled placement from all copies.
    """
    samples_t = np.linspace(0.0, 1.0, 17)
    incident_spheres = []
    for v in (a, b):
        count = len(state.incident_faces(v)) + len(state.incident_edges(v))
        if count == 0:
            count = 1
        incident_spheres.extend([state.spheres[v]] * count)
    originals = np.array(incident_spheres).reshape(-1, 4)
    samples = (state.spheres[a][None, :] * (1.0 - samples_t[:, None])
               + state.spheres[b][None, :] * samples_t[:, None])
    fresh = ((samples[:, None, :] - originals[None, :, :]) ** 2).sum(axis=2).sum(axis=1)
    best = int(np.argmin(fresh))
    return float(fresh[best]), float(samples_t[best])


def swallow(g, region, unclaimed):
    """growing.swallow as a dense (node spheres x region spheres) test per node."""
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
