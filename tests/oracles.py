"""Plain references for the package's vectorised and pruned computations.

These are the dense nodes x elements and faces x spheres scans the package
used before its searches were pruned with k-d trees, the scalar data cost
of one face, and the dict-based dual-graph builder the numpy edge pairing
replaced.  The package's results must equal them exactly, ties included.
"""

import numpy as np

from segmat.structure import ComponentKind


def segment_distances(points, a, b):
    """(n, m) distances from n points to m segments."""
    d = b - a
    denom = (d * d).sum(axis=1)
    denom = np.where(denom == 0.0, 1.0, denom)
    t = np.einsum("nmk,mk->nm", points[:, None, :] - a[None, :, :], d) / denom
    t = np.clip(t, 0.0, 1.0)
    closest = a[None, :, :] + t[..., None] * d[None, :, :]
    return np.linalg.norm(points[:, None, :] - closest, axis=2)


def triangle_distances(points, a, b, c):
    """(n, m) distances from n points to m triangles."""
    ab = b - a
    ac = c - a
    n = np.cross(ab, ac)
    nn = (n * n).sum(axis=1)
    safe_nn = np.where(nn == 0.0, 1.0, nn)

    ap = points[:, None, :] - a[None, :, :]
    dist_plane = np.einsum("nmk,mk->nm", ap, n) / np.sqrt(safe_nn)

    d00 = (ab * ab).sum(axis=1)
    d01 = (ab * ac).sum(axis=1)
    d11 = (ac * ac).sum(axis=1)
    d20 = np.einsum("nmk,mk->nm", ap, ab)
    d21 = np.einsum("nmk,mk->nm", ap, ac)
    denom = d00 * d11 - d01 * d01
    safe_denom = np.where(denom == 0.0, 1.0, denom)
    v = (d11 * d20 - d01 * d21) / safe_denom
    w = (d00 * d21 - d01 * d20) / safe_denom
    inside = (v >= 0.0) & (w >= 0.0) & (v + w <= 1.0) & (denom != 0.0)

    edge_min = np.minimum(
        segment_distances(points, a, b),
        np.minimum(segment_distances(points, b, c),
                   segment_distances(points, a, c)))
    return np.where(inside, np.abs(dist_plane), edge_min)


def component_distances(points, comps):
    """(n, c) point-to-component distances."""
    points = np.asarray(points, dtype=float).reshape(-1, 3)
    out = np.empty((len(points), len(comps)))
    for k, comp in enumerate(comps):
        centers = comp._smat.centers()
        el = np.array(comp.elements)
        if comp.kind is ComponentKind.CURVE:
            d = segment_distances(points, centers[el[:, 0]], centers[el[:, 1]])
        else:
            d = triangle_distances(points, centers[el[:, 0]],
                                   centers[el[:, 1]], centers[el[:, 2]])
        out[:, k] = d.min(axis=1)
    return out


def nearest_components(graph, comps):
    """Per base node, the nearest component (ties: lowest index)."""
    return np.argmin(component_distances(graph.centroids(), comps), axis=1)


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
