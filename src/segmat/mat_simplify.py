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

A global min-cost queue with lazy invalidation drives the loop; ties break
toward the lexicographically smallest edge.  The loop stops when the
cheapest remaining collapse would exceed ``target_error`` times the
bounding-box diagonal of the input.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from .geometry import Sphere
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
        self.spheres = np.zeros((n, 4))
        self.spheres[:, :3] = mm.centers()
        self.spheres[:, 3] = mm.radii()
        self.acc = np.zeros(n)
        self.version = np.zeros(n, dtype=int)
        # The complex is kept only as per-vertex incidence: the faces and
        # the standalone (face-free) edges at each vertex.
        self.vertex_faces: dict[int, set] = {}
        self.vertex_edges: dict[int, set] = {}
        for f in mm.faces:
            for v in f:
                self.vertex_faces.setdefault(v, set()).add(f)
        for i in mm.standalone_edges():
            e = mm.edges[i]
            for v in e:
                self.vertex_edges.setdefault(v, set()).add(e)

    def incident_faces(self, v: int) -> set:
        return self.vertex_faces.get(v, ())

    def incident_edges(self, v: int) -> set:
        return self.vertex_edges.get(v, ())

    def candidate_edges(self, v: int):
        """Collapsible 1-skeleton edges at v: face sides plus curve segments."""
        out = set(self.incident_edges(v))
        for f in self.incident_faces(v):
            a, b, c = f
            for u, w in ((a, b), (b, c), (a, c)):
                if u == v or w == v:
                    out.add((u, w))
        return out

    def skeleton_neighbors(self, v: int) -> set[int]:
        out = set()
        for f in self.incident_faces(v):
            out.update(f)
        for e in self.incident_edges(v):
            out.update(e)
        out.discard(v)
        return out

    def evaluate(self, a: int, b: int) -> tuple[float, float]:
        """(cost, t) of collapsing edge (a, b), t = 0 keeping sphere a."""
        d = self.spheres[b] - self.spheres[a]
        n_a = len(self.incident_faces(a)) + len(self.incident_edges(a))
        n_b = len(self.incident_faces(b)) + len(self.incident_edges(b))
        fresh = (d @ d) * (n_a * _FROM_A_SQ + n_b * _FROM_B_SQ)
        best = int(np.argmin(fresh))
        return float(fresh[best]), float(_PLACEMENT_SAMPLES[best])


def _check_edge(mm: MedialMesh, edge) -> tuple[int, int]:
    a, b = int(edge[0]), int(edge[1])
    key = (a, b) if a < b else (b, a)
    if key not in set(mm.edges):
        raise ValueError(f"{edge} is not an edge of the medial mesh")
    return key


def collapse_cost(mm: MedialMesh, edge) -> float:
    """Squared-deviation cost of collapsing one edge of a canonical mesh.

    This is the fresh cost only (no accumulated history), in model units
    squared; the optimal placement on the segment is already folded in.
    """
    a, b = _check_edge(mm, edge)
    cost, _ = _State(mm).evaluate(a, b)
    return cost


def _violates_topology(state: _State, a: int, b: int) -> bool:
    opposite = set()
    for f in state.incident_faces(a):
        if b in f:
            opposite.update(v for v in f if v not in (a, b))
    common = state.skeleton_neighbors(a) & state.skeleton_neighbors(b)
    if common - opposite:
        return True
    # Never let a component vanish into a bare vertex.
    remaining = (len(state.incident_faces(a)) + len(state.incident_edges(a))
                 + len(state.incident_faces(b)) + len(state.incident_edges(b)))
    only_this_edge = (not state.incident_faces(a)
                      and not state.incident_faces(b)
                      and remaining == 2)
    return only_this_edge


def _apply_collapse(state: _State, a: int, b: int, t: float) -> set[int]:
    """Merge b into a at interpolation t; returns the touched vertices."""
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
    for v in touched:
        state.version[v] += 1
    return touched


def simplify(mm: MedialMesh, params: SimplifyParams | None = None, trace=None) -> MedialMesh:
    """Collapse cheap edges until the error bound would be violated.

    Returns a canonical medial mesh; with ``preserve_topology`` the number
    of connected components is preserved and collapses that would merge
    distinct boundary loops are rejected.  ``trace``, when given, receives
    one ``(edge, cost, t)`` tuple per accepted collapse.
    """
    params = params or SimplifyParams()
    if not mm.faces and not mm.edges:
        raise EmptyInput("medial mesh has no elements")
    state = _State(mm)
    bound = params.target_error * mm.diagonal()
    bound_sq = bound * bound

    heap: list = []

    def push(a: int, b: int) -> None:
        fresh, t = state.evaluate(a, b)
        total = fresh if params.average_error else fresh + state.acc[a] + state.acc[b]
        heapq.heappush(
            heap, (total, a, b, state.version[a], state.version[b], fresh, t))

    seen = set()
    for v in sorted(set(state.vertex_faces) | set(state.vertex_edges)):
        for e in state.candidate_edges(v):
            if e not in seen:
                seen.add(e)
                push(*e)

    accepted_sq_sum = 0.0
    accepted = 0
    while heap:
        total, a, b, va, vb, fresh, t = heapq.heappop(heap)
        if state.version[a] != va or state.version[b] != vb:
            continue
        if (a, b) not in state.candidate_edges(a):
            continue
        if params.average_error:
            if (accepted_sq_sum + total) / (accepted + 1) > bound_sq:
                break
        elif total > bound_sq:
            break
        if params.preserve_topology and _violates_topology(state, a, b):
            # Leave versions alone: the edge re-enters the queue if a later
            # collapse touches its neighborhood and may pass the check then.
            continue
        touched = _apply_collapse(state, a, b, t)
        state.acc[a] += fresh
        accepted_sq_sum += total
        accepted += 1
        if trace is not None:
            trace.append(((a, b), total, t))
        pushed = set()
        for v in touched:
            for e in state.candidate_edges(v):
                if e not in pushed:
                    pushed.add(e)
                    push(*e)

    faces = set().union(*state.vertex_faces.values())
    edges = set().union(*state.vertex_edges.values())
    used = sorted({v for f in faces for v in f} | {v for e in edges for v in e})
    if not used:
        # Fully collapsed (only possible without topology preservation).
        used = [int(np.argmax(state.spheres[:, 3]))]
    remap = {v: i for i, v in enumerate(used)}
    spheres = [Sphere(tuple(state.spheres[v][:3]), float(state.spheres[v][3])) for v in used]
    return MedialMesh.build(spheres,
                            [(remap[a], remap[b]) for a, b in edges],
                            [tuple(remap[v] for v in f) for f in faces])
