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
each collapse the edges that need a new cost, as one (edges x 17) array
with a row-wise argmin.  The squared length |d|^2 of each row is
``np.vecdot(d, d)``, which sums in the same order as the 1-D ``d @ d`` of
a single edge (both reach the same BLAS dot), so a batch gives bitwise the
same costs as scoring its edges one at a time; ``np.einsum`` and
``(d * d).sum(1)`` do not.

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

The loop stops when the cheapest remaining collapse would exceed
``target_error`` times the bounding-box diagonal of the input.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .mesh_io import EmptyInput, MedialMesh

# Interpolation parameters tried when placing a merged sphere, and the
# squared distance of each placement from sphere a and from sphere b per
# unit |d|^2.
_PLACEMENT_SAMPLES = np.linspace(0.0, 1.0, 17)
_FROM_A_SQ = _PLACEMENT_SAMPLES**2
_FROM_B_SQ = (1.0 - _PLACEMENT_SAMPLES)**2


@dataclass
class SimplifyParams:
    """target_error is a fraction of the input bounding-box diagonal.

    With ``average_error`` the stop rule bounds the running mean collapse
    error instead of each individual collapse (a looser accounting that
    simplifies further); the default bounds every single collapse.
    """

    target_error: float = 0.03
    preserve_topology: bool = True
    average_error: bool = False


class _State:
    """Mutable element complex during simplification."""

    def __init__(self, mm: MedialMesh):
        n = len(mm.spheres)
        self.spheres = mm.spheres.copy()
        self.acc = np.zeros(n)
        self.version = np.zeros(n, dtype=int)
        # The complex is kept only as per-vertex incidence: the faces and
        # the standalone (face-free) edges at each vertex, and their count.
        self.vertex_faces: dict[int, set] = {}
        self.vertex_edges: dict[int, set] = {}
        for f in map(tuple, mm.faces.tolist()):
            for v in f:
                self.vertex_faces.setdefault(v, set()).add(f)
        for e in map(tuple, mm.edges[mm.standalone].tolist()):
            for v in e:
                self.vertex_edges.setdefault(v, set()).add(e)
        self.count = np.zeros(n, dtype=int)
        self.recount(self.vertex_faces.keys() | self.vertex_edges.keys())

    def recount(self, vertices) -> list[int]:
        """Refresh the face-plus-standalone-edge count of each of vertices;
        returns those whose count moved."""
        moved = []
        for v in vertices:
            n = len(self.incident_faces(v)) + len(self.incident_edges(v))
            if n != self.count[v]:
                self.count[v] = n
                moved.append(v)
        return moved

    def incident_faces(self, v: int) -> set:
        return self.vertex_faces.get(v, ())

    def incident_edges(self, v: int) -> set:
        return self.vertex_edges.get(v, ())

    def candidate_edges(self, vertices) -> set:
        """Collapsible 1-skeleton edges at any of vertices: the two sides of
        each incident face that meet the vertex, plus curve segments."""
        out = set()
        for v in vertices:
            out.update(self.incident_edges(v))
            for a, b, c in self.incident_faces(v):
                if v == a:
                    out.update(((a, b), (a, c)))
                elif v == b:
                    out.update(((a, b), (b, c)))
                else:
                    out.update(((b, c), (a, c)))
        return out

    def skeleton_neighbors(self, v: int) -> set[int]:
        out = set()
        for f in self.incident_faces(v):
            out.update(f)
        for e in self.incident_edges(v):
            out.update(e)
        out.discard(v)
        return out

    def score(self, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(cost, t) of collapsing each edge (a[i], b[i]), t = 0 keeping sphere a."""
        d = self.spheres[b] - self.spheres[a]
        fresh = np.vecdot(d, d)[:, None] * (self.count[a][:, None] * _FROM_A_SQ
                                            + self.count[b][:, None] * _FROM_B_SQ)
        best = fresh.argmin(axis=1)
        return fresh[np.arange(len(best)), best], _PLACEMENT_SAMPLES[best]


def _check_edge(mm: MedialMesh, edge) -> tuple[int, int]:
    a, b = int(edge[0]), int(edge[1])
    key = (a, b) if a < b else (b, a)
    if not (mm.edges == key).all(axis=1).any():
        raise ValueError(f"{edge} is not an edge of the medial mesh")
    return key


def collapse_cost(mm: MedialMesh, edge) -> float:
    """Squared-deviation cost of collapsing one edge of a canonical mesh.

    This is the fresh cost only (no accumulated history), in model units
    squared; the optimal placement on the segment is already folded in.
    """
    a, b = _check_edge(mm, edge)
    cost, _ = _State(mm).score(np.array([a]), np.array([b]))
    return float(cost[0])


def _violates_topology(state: _State, a: int, b: int) -> bool:
    opposite = set()
    for f in state.incident_faces(a):
        if b in f:
            opposite.update(v for v in f if v not in (a, b))
    common = state.skeleton_neighbors(a) & state.skeleton_neighbors(b)
    if common - opposite:
        return True
    # Never let a component vanish into a bare vertex.
    only_this_edge = (not state.incident_faces(a)
                      and not state.incident_faces(b)
                      and state.count[a] + state.count[b] == 2)
    return only_this_edge


def _apply_collapse(state: _State, a: int, b: int, t: float) -> set[int]:
    """Merge b into a at interpolation t; returns the changed vertices, a,
    b and those whose count moved, and bumps their versions."""
    touched = {a, b}
    state.spheres[a] = (1.0 - t) * state.spheres[a] + t * state.spheres[b]

    old_faces = list(state.incident_faces(b))
    old_edges = list(state.incident_edges(b))

    def drop_face(f):
        for v in f:
            state.vertex_faces[v].discard(f)
            touched.add(v)

    def drop_edge(e):
        for v in e:
            state.vertex_edges[v].discard(e)
            touched.add(v)

    def covered_by_face(u, w):
        return any(w in f for f in state.incident_faces(u))

    def add_edge(u, w):
        if u == w:
            return
        key = (u, w) if u < w else (w, u)
        if key in state.incident_edges(u) or covered_by_face(u, w):
            return
        for v in key:
            state.vertex_edges.setdefault(v, set()).add(key)
            touched.add(v)

    for f in old_faces:
        drop_face(f)
        verts = [a if v == b else v for v in f]
        if len(set(verts)) == 2:
            # The face contained the collapsed edge: it degrades to a segment.
            u, w = sorted(set(verts))
            add_edge(u, w)
        else:
            nf = tuple(sorted(verts))
            if nf not in state.incident_faces(a):
                for v in nf:
                    state.vertex_faces.setdefault(v, set()).add(nf)
                    touched.add(v)
    for e in old_edges:
        drop_edge(e)
        u, w = (a if v == b else v for v in e)
        add_edge(u, w)

    # A new sheet attachment can make an explicit segment redundant.
    for e in list(state.incident_edges(a)):
        if covered_by_face(*e):
            drop_edge(e)

    state.acc[a] = state.acc[a] + state.acc[b]
    changed = {a, b}.union(state.recount(touched))
    for v in changed:
        state.version[v] += 1
    return changed


def simplify(mm: MedialMesh, params: SimplifyParams | None = None, trace=None) -> MedialMesh:
    """Collapse cheap edges until the error bound would be violated.

    Returns a canonical medial mesh; with ``preserve_topology`` the number
    of connected components is preserved and collapses that would merge
    distinct boundary loops are rejected.  ``trace``, when given, receives
    one ``(edge, cost, t)`` tuple per accepted collapse.
    """
    mm.validate()
    params = params or SimplifyParams()
    if not params.target_error >= 0.0:
        raise ValueError(
            f"target_error must not be negative, got {params.target_error}")
    # every side of a face is an edge, so no edges means no elements
    if len(mm.edges) == 0:
        raise EmptyInput("medial mesh has no elements")
    state = _State(mm)
    bound = params.target_error * mm.diagonal()
    bound_sq = bound * bound

    def scored(ab: np.ndarray) -> list[tuple]:
        """Queue entries for the edges in the rows (a, b) of ab, one batch."""
        a, b = ab[:, 0], ab[:, 1]
        fresh, t = state.score(a, b)
        total = fresh if params.average_error else fresh + state.acc[a] + state.acc[b]
        return list(zip(total.tolist(), a.tolist(), b.tolist(),
                        state.version[a].tolist(), state.version[b].tolist(),
                        fresh.tolist(), t.tolist()))

    # every edge is a face side or a standalone edge: each is a candidate
    heap = scored(mm.edges)
    heapq.heapify(heap)

    accepted_sq_sum = 0.0
    accepted = 0
    while heap:
        total, a, b, va, vb, fresh, t = heapq.heappop(heap)
        # an edge change bumps both end versions, so a current pop is live
        if state.version[a] != va or state.version[b] != vb:
            continue
        if params.average_error:
            if (accepted_sq_sum + total) / (accepted + 1) > bound_sq:
                break
        elif total > bound_sq:
            break
        if params.preserve_topology and _violates_topology(state, a, b):
            # Leave versions alone: the edge re-enters the queue if a later
            # collapse changes one of its ends and may pass the check then.
            continue
        changed = _apply_collapse(state, a, b, t)
        state.acc[a] += fresh
        accepted_sq_sum += total
        accepted += 1
        if trace is not None:
            trace.append(((a, b), total, t))
        again = np.array(list(state.candidate_edges(changed)), dtype=np.intp)
        for entry in scored(again.reshape(-1, 2)):
            heapq.heappush(heap, entry)

    faces = np.array(list(set().union(*state.vertex_faces.values())),
                     dtype=np.intp).reshape(-1, 3)
    edges = np.array(list(set().union(*state.vertex_edges.values())),
                     dtype=np.intp).reshape(-1, 2)
    used = np.union1d(faces, edges)
    if not len(used):
        # Fully collapsed (only possible without topology preservation).
        used = np.argmax(state.spheres[:, 3], keepdims=True)
    return MedialMesh.build(state.spheres[used], np.searchsorted(used, edges),
                            np.searchsorted(used, faces))
