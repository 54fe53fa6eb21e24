"""Medial mesh simplification by iterative edge collapse.

Collapsing an edge merges its two spheres into one placed on the segment
between them (centers and radii interpolated together); triangles that
contain the collapsed edge degrade into curve segments, which is how thin
sheets turn into chains.  The collapse cost is the summed squared deviation,
sampled at the vertices of every incident element, between the spheres
before and after the move, plus the error the two endpoints have already
absorbed in earlier collapses; that accumulation keeps a long run of
individually cheap collapses from eroding a sheet.

Placing the merged sphere at t on the segment from sphere a to sphere b
moves it |t d| from a and |(1 - t) d| from b, with d = s_b - s_a the
4-vector (center, radius) difference.  With n_a and n_b counting the
faces and standalone edges at each endpoint, the fresh cost is the
quadratic |d|^2 (n_a t^2 + n_b (1 - t)^2), the closed form of a quadric
error (Garland and Heckbert, SIGGRAPH 1997).  It is evaluated at 17 evenly
spaced t and the cheapest sample is kept; of two tied samples the lower t
wins, so coincident spheres keep sphere a at no cost.

Costs are scored a batch at a time: every edge at start-up, then after
each collapse the edges that need a new cost.  NumPy gives the squared
lengths |d|^2 of a batch as ``np.vecdot(d, d)``, which sums in the same
order as the 1-D ``d @ d`` of a single edge (both reach the same BLAS
dot), so a batch gives bitwise the squared lengths of scoring its edges
one at a time; ``np.einsum``, ``(d * d).sum(1)`` and a Python sum do not.
The rest is a little Python per edge that gives bit for bit the least of
the 17 products fresh = |d|^2 * weights and its first index, as
``np.argmin`` finds it.  The weights n_a A + n_b B depend only on the two
counts, so each count pair's row is made once (with that array
expression) along with its least weight w and the first index k of w.
Rounding is monotone, so fl(|d|^2 w) is exactly the least product of its
row.  An earlier sample j < k could still tie it after rounding, and
then np.argmin would take j.  It cannot when fl(|d|^2 w) is a normal
finite float, whose rounding error is at most 2^-53 relative, and every
weight before k exceeds w by the factor 1 + 2^-40; a later sample never
wins, as np.argmin takes the first minimum.  Every other edge is a
fallback row: coincident spheres (|d|^2 = 0), subnormal or overflowing
products, and count pairs with a near-tied earlier weight form their 17
products and take the first minimum, as np.argmin does.  A weighted
sample past the float range scores inf, above any bound, and the
overflow warning of |d|^2 is silenced.

The complex is kept only as per-vertex incidence: two lists indexed by
vertex hold the faces and the standalone (face-free) edges there, as sets
of sorted tuples.  The counts, accumulated errors and versions are lists
of Python numbers beside them, so a queue pop reads no NumPy scalar and
the scorer reads the counts from a list.  A collapse moves the incidence
of b to a, refreshes the counts, bumps the versions and collects the
edges to re-score in one pass over a and the vertices of the elements at
b, the only ones whose incidence can change.

A global min-cost queue with lazy invalidation drives the loop; ties break
toward the lexicographically smallest edge.  An entry holds the versions
of its two ends and is live until one of them is bumped, so each edge has
at most one live entry, and pop order depends only on the live entries'
keys, never on the order they were pushed in.  The first queue is
``mm.edges``: every face side is in it, so it is every collapsible edge.
An edge's cost reads only the spheres, accumulated errors and
face-plus-edge counts of its ends.  A collapse of b into a changes those
only at a and at the vertices whose count moved, every edge it removes
is at b and every edge it makes is at a.  So it bumps the versions of
these changed vertices (a, b and the count-moved ones) and re-scores the
edges at them; every other edge keeps its live entry, whose
(total, a, b, fresh, t) is bit for bit what re-scoring it would push.

Stale entries are shed in bulk: once more entries have been pushed since
the last rebuild than that rebuild kept, every entry with a bumped
version is dropped and the rest are heapified.  A push after a collapse
re-scores an edge whose earlier entry, if it had one, has just gone
stale, so the pushes track the stale entries; the queue's length does
not, as the pops shrink it about as fast as the pushes grow it.  The
live pops keep their order.  Each edge has at most one live entry, so
the live keys (total, a, b) are distinct, and a heap pops its live
entries in key order whatever stale entries lie among them; dropping
stale ones only saves their pops.

An entry whose total exceeds the bound is never queued, and the loop
ends when the queue runs dry; most scored edges cost more than a tight
bound, so the queue stays small.  The collapses are the same as those of
a queue that keeps every entry and stops at the first live pop above the
bound.  Live entries pop in key order whatever else the queue holds, and
a live entry's total does not change while it stays live (a collapse
that changes an end's accumulated error bumps its version).  When the
full queue's first live pop above the bound comes, no live entry at or
under the bound is left, and the bounded queue holds exactly those live,
under-bound entries, so it runs dry at that same collapse.

An edge that fails the topology check leaves the queue until a collapse
changes one of its ends.  Re-queueing it whenever a collapse touches an
end (changes the faces or edges there) gives the same collapses: a
collapse that changes neither end u, w of a rejected edge keeps it
rejected, so such an entry would go stale, pop rejected again, or stop
the loop where the next live pop stops it.  Proof: the collapse maps the
faces and edges at u and at w one to one by b -> a (a face (a, b, u) to
the edge (a, u)), or a count would move.  So the common neighbours and
the opposite vertices of (u, w) map by b -> a too, and a witness c,
common but not opposite, stays one unless {c, o} = {a, b} for an
opposite o.  Then u neighbours both a and b, so the accepted collapse
had a face (a, b, u), and afterwards a face (a, u, w) covers its edge
(a, u): u lost an element, a contradiction.  The lone-edge test rejects
only when (u, w) is the only element at u and at w, and a collapse that
changes neither end keeps it so.

The topology check also keeps a face that a collapse moves to a from
covering a standalone edge at a, so such an edge is never dropped.
Collapsing b into a moves a face (b, u, w) to (a, u, w).  A standalone
edge (a, u) beside it makes u a common neighbour of a and b, so the
check needs u opposite (a, b): a face (a, b, u).  That face covers
(a, u), so (a, u) could not be standalone.  The same holds for w.  The
check never lets a component shrink to a bare vertex either, so some
element is always left.

The loop stops when the cheapest remaining collapse would exceed
``target_error`` times the bounding-box diagonal of the input.
"""

from __future__ import annotations

import functools
import heapq
import math
import sys
from dataclasses import dataclass

import numpy as np

from .mesh_io import EmptyInput, MedialMesh, weight, whole_numbers

# Interpolation parameters tried when placing a merged sphere, and the
# squared distance of each placement from sphere a and from sphere b per
# unit |d|^2.
_PLACEMENT_SAMPLES = np.linspace(0.0, 1.0, 17)
_FROM_A_SQ = _PLACEMENT_SAMPLES**2
_FROM_B_SQ = (1.0 - _PLACEMENT_SAMPLES)**2
# The smallest normal float, and the factor by which an earlier weight
# must exceed the least one to cost more after rounding (module docstring).
_NORMAL = sys.float_info.min
_INF = math.inf
_CLEAR = 1.0 + 2.0**-40


@dataclass
class SimplifyParams:
    """target_error is a fraction of the input bounding-box diagonal; it
    bounds every single collapse."""

    target_error: float = 0.03


def _counts(mm: MedialMesh) -> np.ndarray:
    """The faces plus standalone edges at each vertex of mm."""
    n = len(mm.spheres)
    return (np.bincount(mm.faces.ravel(), minlength=n)
            + np.bincount(mm.edges[mm.standalone].ravel(), minlength=n))


@functools.lru_cache(maxsize=4096)
def _least_weight(count_a: int, count_b: int) -> tuple[float, float, bool, tuple]:
    """(w, t, clear, weights) of one pair of end counts: the 17 weights
    ``count_a * _FROM_A_SQ + count_b * _FROM_B_SQ``, their minimum w and
    the sample t of its first index, and whether every weight before that
    index exceeds w by the factor ``_CLEAR``.

    A pure function of two counts, cached across calls: a run meets few
    pairs (62 in about 40,000 scored edges on the plate-simplify benchmark
    input), and rows made afresh for each batch would cost more than the
    NumPy calls they replace.  The bound only keeps a long-lived process
    from growing the cache without limit."""
    weights = tuple((count_a * _FROM_A_SQ + count_b * _FROM_B_SQ).tolist())
    w = min(weights)
    k = weights.index(w)
    clear = min(weights[:k], default=_INF) > w * _CLEAR
    return w, float(_PLACEMENT_SAMPLES[k]), clear, weights


def _score(spheres: np.ndarray, count, a, b) -> tuple[list[float], list[float]]:
    """(cost, t) lists of collapsing each edge (a[i], b[i]), t = 0 keeping
    sphere a; count[v] is the faces plus standalone edges at vertex v.
    Callers score under ``np.errstate(over="ignore")``, as |d|^2 may pass
    the float range; a weighted sample that does reads inf, above any
    bound."""
    d = spheres.take(b, axis=0) - spheres.take(a, axis=0)
    cost, t = [], []
    for u, v, dd in zip(a, b, np.vecdot(d, d).tolist()):
        w, t_w, clear, weights = _least_weight(count[u], count[v])
        f = dd * w
        if not (clear and _NORMAL <= f < _INF):
            # A fallback row of the module docstring.
            fresh = [dd * x for x in weights]
            f = min(fresh)
            t_w = float(_PLACEMENT_SAMPLES[fresh.index(f)])
        cost.append(f)
        t.append(t_w)
    return cost, t


def _check_edge(mm: MedialMesh, edge) -> tuple[int, int]:
    try:
        ends = whole_numbers(edge, "vertex index", bools=False)
    except ValueError as error:
        raise ValueError(f"an edge is two integral vertex indices: {error}") from None
    if ends.shape != (2,):
        raise ValueError(f"an edge is two integral vertex indices, got {edge!r}")
    a, b = ends.tolist()
    key = (a, b) if a < b else (b, a)
    if not (mm.edges == key).all(axis=1).any():
        raise ValueError(f"{edge} is not an edge of the medial mesh")
    return key


def collapse_cost(mm: MedialMesh, edge) -> float:
    """Squared-deviation cost of collapsing one edge of a canonical mesh.

    This is the fresh cost only (no accumulated history), in model units
    squared; the optimal placement on the segment is already folded in.
    """
    mm.validate()
    a, b = _check_edge(mm, edge)
    with np.errstate(over="ignore"):
        cost, _ = _score(mm.spheres, _counts(mm).tolist(), [a], [b])
    return cost[0]


def _violates_topology(faces: list[set], edges: list[set], a: int, b: int) -> bool:
    """Whether collapsing (a, b) would pinch the complex: a and b share a
    neighbour that is not opposite (a, b) in a face, or (a, b) is the last
    element of its component."""
    opposite = {a, b}
    for f in faces[a]:
        if b in f:
            opposite.update(f)
    common = set().union(*faces[a], *edges[a]) & set().union(*faces[b], *edges[b])
    if not common <= opposite:
        return True
    # Never let a component vanish into a bare vertex.
    return (not faces[a] and not faces[b]
            and len(edges[a]) + len(edges[b]) == 2)


def _collapse(faces: list[set], edges: list[set], count: list[int],
              version: list[int], a: int, b: int) -> tuple[list[int], list[int]]:
    """Merge vertex b into a in the per-vertex incidence, in one pass.

    Only a and the vertices of the elements at b can change.  Their counts
    are refreshed, and the versions of a, b and those whose count moved
    are bumped.  Returns the skeleton edges at these changed vertices, to
    be re-scored, as lists of first and second ends; an edge between two
    of them is taken at its lower end.
    """
    near = {a}
    far = []  # far ends of the segments that the elements at b leave at a
    for f in faces[b]:
        near.update(f)
        x, y, z = f
        u, w = (y, z) if x == b else (x, z) if y == b else (x, y)
        faces[u].discard(f)
        faces[w].discard(f)
        if u == a or w == a:
            # The face contained the collapsed edge: it degrades to a segment.
            far.append(w if u == a else u)
            continue
        nf = (a, u, w) if a < u else (u, a, w) if a < w else (u, w, a)
        if nf not in faces[a]:
            for v in nf:
                faces[v].add(nf)
    for e in edges[b]:
        u = e[0] if e[1] == b else e[1]
        near.add(u)
        edges[u].discard(e)
        if u != a:
            far.append(u)
    faces[b] = set()
    edges[b] = set()
    # A segment left at a is explicit only if no face at a covers it; a
    # face that a gains covers no standalone edge (module docstring).
    if far:
        covered = set().union(*faces[a])
        for u in far:
            if u not in covered:
                e = (a, u) if a < u else (u, a)
                edges[a].add(e)
                edges[u].add(e)

    count[b] = 0
    version[b] += 1
    changed = []
    for v in near:
        k = len(faces[v]) + len(edges[v])
        if k != count[v]:
            count[v] = k
        elif v != a:
            continue
        version[v] += 1
        changed.append(v)
    ends_a, ends_b = [], []
    for v in changed:
        for u in set().union(*faces[v], *edges[v]):
            if u > v:
                ends_a.append(v)
                ends_b.append(u)
            elif u < v and u not in changed:
                ends_a.append(u)
                ends_b.append(v)
    return ends_a, ends_b


def simplify(mm: MedialMesh, params: SimplifyParams | None = None, trace=None) -> MedialMesh:
    """Collapse cheap edges until the error bound would be violated.

    Returns a canonical medial mesh with as many connected components;
    collapses that would pinch the complex are rejected.  ``trace``, when
    given, receives one ``(edge, cost, t)`` tuple per accepted collapse.
    """
    mm.validate()
    params = params or SimplifyParams()
    weight(params.target_error, "target_error", inf=True)
    # every side of a face is an edge, so no edges means no elements
    if len(mm.edges) == 0:
        raise EmptyInput("medial mesh has no elements")
    spheres = mm.spheres.copy()
    n = len(spheres)
    # The per-vertex incidence and numbers of the module docstring.
    faces = [set() for _ in range(n)]
    edges = [set() for _ in range(n)]
    for f in map(tuple, mm.faces.tolist()):
        for v in f:
            faces[v].add(f)
    for e in map(tuple, mm.edges[mm.standalone].tolist()):
        for v in e:
            edges[v].add(e)
    count = _counts(mm).tolist()
    acc = [0.0] * n
    version = [0] * n
    bound = params.target_error * mm.diagonal()
    bound_sq = bound * bound
    if not math.isfinite(bound_sq):
        raise ValueError(
            f"target_error {params.target_error} gives an error bound of "
            f"{bound}, whose square overflows")

    def entries(a: list[int], b: list[int]) -> list[tuple]:
        """Queue entries for the edges (a[i], b[i]) at or under the bound,
        one batch (module docstring)."""
        fresh, t = _score(spheres, count, a, b)
        batch = []
        for f, u, w, t_f in zip(fresh, a, b, t):
            total = f + acc[u] + acc[w]
            if total <= bound_sq:
                batch.append((total, u, w, version[u], version[w], f, t_f))
        return batch

    with np.errstate(over="ignore"):
        # every edge is a face side or a standalone edge: each is a candidate
        heap = entries(*mm.edges.T.tolist())
        heapq.heapify(heap)
        kept, pushed = len(heap), 0
        while heap:
            total, a, b, va, vb, fresh, t = heapq.heappop(heap)
            # an edge change bumps both end versions, so a current pop is live
            if version[a] != va or version[b] != vb:
                continue
            if _violates_topology(faces, edges, a, b):
                # Leave versions alone: the edge re-enters the queue if a later
                # collapse changes one of its ends and may pass the check then.
                continue
            spheres[a] = (1.0 - t) * spheres[a] + t * spheres[b]
            acc[a] = acc[a] + acc[b] + fresh
            if trace is not None:
                trace.append(((a, b), total, t))
            again = entries(*_collapse(faces, edges, count, version, a, b))
            pushed += len(again)
            for entry in again:
                heapq.heappush(heap, entry)
            if pushed > kept:
                # Shed the stale entries (see the module docstring).
                heap = [e for e in heap
                        if version[e[1]] == e[3] and version[e[2]] == e[4]]
                heapq.heapify(heap)
                kept, pushed = len(heap), 0

    faces = np.array(list(set().union(*faces)), dtype=np.intp).reshape(-1, 3)
    edges = np.array(list(set().union(*edges)), dtype=np.intp).reshape(-1, 2)
    used = np.union1d(faces, edges)
    return MedialMesh.build(spheres[used], np.searchsorted(used, edges),
                            np.searchsorted(used, faces))
