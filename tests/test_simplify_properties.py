"""Property tests: batched collapse scoring equals scoring one edge at a
time, and re-scoring only the changed vertices' edges, with stale queue
entries shed, equals re-scoring every touched vertex's.

``mat_simplify._score`` takes a batch's squared lengths from one
``np.vecdot`` and each edge's least product from its count pair's cached
least weight, or from all 17 products on a fallback row.  Both paths
must give bitwise the costs and placements of the per-edge reference
``oracles.evaluate``, at exact placement ties, for equal counts, for
coincident spheres and where the squared lengths go subnormal or
overflow; and a whole ``simplify`` run must not change when the
reference scores its edges, nor when ``oracles.simplify`` re-scores every
edge at every touched vertex after each collapse, never sheds stale
entries and queues every scored edge, those above the error bound
included.  Whatever the bound, a run keeps the number of connected
components of its input.
"""

import heapq
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components
from test_simplify import (
    counted_pairs,
    jittered,
    paired_chain,
    plate,
    score_edges,
    strip,
)

import oracles
from segmat import mat_simplify
from segmat.mat_simplify import SimplifyParams, simplify
from segmat.mesh_io import MedialMesh

# n_b / (n_a + n_b) an odd multiple of 1/32: two placements cost the same.
TIED_COUNTS = [(1, 31), (31, 1), (15, 17), (17, 15)]
# 1e-160 squares to subnormals or 0; 1e160 squares to inf; near 1e154
# |d|^2 is finite but some weighted samples overflow.
SCALES = [1.0, 1e-160, 1e154, 1e160]

unit = st.floats(-1.0, 1.0, allow_nan=False)
counts = st.integers(1, 64)
pairs = st.tuples(
    st.one_of(st.sampled_from(TIED_COUNTS), counts.map(lambda n: (n, n)),
              st.tuples(counts, counts)),
    st.sampled_from(SCALES),
    st.tuples(*[unit] * 8),
    st.booleans())


def pair_spheres(scale, u, coincident):
    sa = (*(scale * x for x in u[:3]), scale * abs(u[3]))
    sb = sa if coincident else (*(scale * x for x in u[4:7]), scale * abs(u[7]))
    return sa, sb


U = (0.5, -0.25, 1.0, 0.75, -1.0, 0.5, 0.125, 0.25)


@given(st.lists(pairs, min_size=1, max_size=12))
@example([((1, 31), 1.0, U, False), ((15, 17), 1.0, U, False)])
@example([((4, 9), 1.0, U, True), ((40, 40), 1e-160, U, True)])
@example([((3, 5), 1e-160, U, False), ((1, 1), 1e-160, (1e-4,) * 8, False)])
@example([((3, 5), 1e160, U, False), ((40, 1), 1e154, U, False)])
@example([((64, 64), 1e154, U, False), ((64, 1), 1e-160, U, False)])
def test_batch_score_equals_per_edge_score_bitwise(drawn):
    mm = counted_pairs([(n_a, n_b, *pair_spheres(scale, u, coincident))
                        for (n_a, n_b), scale, u, coincident in drawn])
    state = oracles.SimplifyState(mm)
    edges = [(2 * i, 2 * i + 1) for i in range(len(drawn))]
    ab = np.array(edges)
    d = state.spheres[ab[:, 1]] - state.spheres[ab[:, 0]]
    least_weight = mat_simplify._least_weight

    def never_clear(count_a, count_b):
        w, t, _, weights = least_weight(count_a, count_b)
        return w, t, False, weights

    # The 1e154 and 1e160 scales overflow on purpose.
    with np.errstate(over="ignore"):
        costs, ts = score_edges(mm, edges)
        # every row a fallback row
        with mock.patch.object(mat_simplify, "_least_weight", never_clear):
            fallback = score_edges(mm, edges)
        ref = [oracles.evaluate(state.spheres, state.count, a, b) for a, b in edges]
        squared = np.vecdot(d, d).tolist()
        ref_squared = [float(row @ row) for row in d]
    assert costs == fallback[0] == [c for c, _ in ref]
    assert ts == fallback[1] == [t for _, t in ref]
    # The batch's squared lengths sum in the order of a 1-D d @ d.
    assert squared == ref_squared


def chain_piece(n):
    return [(float(i), 0.0, 0.0) for i in range(n)], [(i, i + 1) for i in range(n - 1)], []


def strip_piece(n):
    points = [(float(i), y, 0.0) for i in range(n) for y in (0.0, 0.4)]
    faces = [f for i in range(n - 1)
             for f in ((2 * i, 2 * i + 1, 2 * i + 2), (2 * i + 1, 2 * i + 2, 2 * i + 3))]
    return points, [], faces


def fan_piece(n, closed):
    k = n + 2
    points = [(0.0, 0.0, 0.0)] + [
        (0.0, math.cos(2 * math.pi * j / k), math.sin(2 * math.pi * j / k))
        for j in range(k)]
    faces = [(0, j, j + 1) for j in range(1, k)] + ([(0, k, 1)] if closed else [])
    return points, [], faces


def bowtie_piece(_):
    points = [(0.0, 0.0, 0.0), (1.0, -0.5, 0.0), (1.0, 0.5, 0.0),
              (-1.0, -0.5, 0.0), (-1.0, 0.5, 0.0)]
    return points, [], [(0, 1, 2), (0, 3, 4)]


PIECES = {
    "chain": chain_piece,
    "strip": strip_piece,
    "open-fan": lambda n: fan_piece(n, False),
    "closed-fan": lambda n: fan_piece(n, True),
    "bowtie": bowtie_piece,
}


@st.composite
def complexes(draw):
    """Strips, fans, bowties and chains; attached pieces share a vertex,
    so sheets and curves mix in one component."""
    kinds = draw(st.lists(st.sampled_from(sorted(PIECES)), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    # 0 keeps the pieces exactly symmetric, so distinct edges tie exactly.
    jitter = draw(st.sampled_from([0.0, 1e-3, 0.1]))
    radius = draw(st.sampled_from([0.1, 0.3, 0.6]))
    centers, edges, faces = [], [], []
    for kind in kinds:
        points, piece_edges, piece_faces = PIECES[kind](draw(st.integers(2, 8)))
        attach = bool(centers) and draw(st.booleans())
        origin = centers[-1] if attach else (4.0 * len(centers), 0.0, 0.0)
        index = [len(centers) - 1] if attach else []
        for p in points[len(index):]:
            index.append(len(centers))
            centers.append(tuple(o + x for o, x in zip(origin, p)))
        edges += [tuple(index[v] for v in e) for e in piece_edges]
        faces += [tuple(index[v] for v in f) for f in piece_faces]
    c = np.array(centers) + rng.uniform(-jitter, jitter, (len(centers), 3))
    r = radius * (1.0 + rng.uniform(-jitter, jitter, len(centers)))
    return MedialMesh.build(np.column_stack([c, r]), edges, faces)


GATE_PARAMS = [
    SimplifyParams(),
    SimplifyParams(target_error=0.2),
    SimplifyParams(target_error=0.005),
]


def assert_same_mesh(out, ref):
    assert np.array_equal(out.spheres, ref.spheres)
    assert np.array_equal(out.edges, ref.edges)
    assert np.array_equal(out.faces, ref.faces)
    assert np.array_equal(out.standalone, ref.standalone)


@given(complexes())
def test_simplify_equals_per_edge_scored_simplify(mm):
    scored = []

    def per_edge(spheres, count, a, b):
        scored.append((a, b))
        return oracles.evaluate(spheres, count, a, b)

    for params in GATE_PARAMS:
        trace = []
        out = simplify(mm, params, trace)
        ref_trace = []
        scored.clear()
        with mock.patch.object(mat_simplify, "_score",
                               oracles.batch_of(per_edge)):
            ref = simplify(mm, params, ref_trace)
        assert len(scored) >= len(mm.edges)
        assert_same_mesh(out, ref)
        assert trace == ref_trace


def simplified_as_the_oracle(mm, params) -> list:
    """simplify's trace, after checking that oracles.simplify, which
    re-scores every edge at every touched vertex, gives the same trace and
    the same mesh."""
    trace, ref_trace = [], []
    out = simplify(mm, params, trace)
    ref = oracles.simplify(mm, params, ref_trace)
    assert trace == ref_trace
    assert_same_mesh(out, ref)
    return trace


@given(complexes())
def test_simplify_equals_the_rescore_every_touched_vertex_loop(mm):
    for params in GATE_PARAMS:
        simplified_as_the_oracle(mm, params)


def component_count(mm) -> int:
    """Connected components of the spheres that an element uses; every
    face side is an edge of mm, so the edges join them all."""
    n = len(mm.spheres)
    a, b = mm.edges.T
    joined = coo_matrix((np.ones(len(a)), (a, b)), shape=(n, n))
    _, component = connected_components(joined, directed=False)
    return len(np.unique(component[np.unique(mm.edges)]))


@given(complexes())
def test_simplify_keeps_the_number_of_connected_components(mm):
    components = component_count(mm)
    for target_error in (0.005, 0.03, 0.2, 1.0, 10.0):
        out = simplify(mm, SimplifyParams(target_error=target_error))
        assert component_count(out) == components, target_error


def test_a_plate_whose_queue_is_rebuilt_simplifies_as_the_oracle():
    """On a 30 x 30 plate at target_error 0.2 the queue sheds its stale
    entries again and again; the collapses stay those of the loop that
    never sheds them."""
    mm = jittered(plate(n=30), 7)
    heapify = heapq.heapify
    sizes = []

    def spy(heap):
        sizes.append(len(heap))
        heapify(heap)

    params = SimplifyParams(target_error=0.2)
    trace, ref_trace = [], []
    with mock.patch.object(heapq, "heapify", spy):
        out = simplify(mm, params, trace)
    ref = oracles.simplify(mm, params, ref_trace)
    # the first queue and at least two rebuilds
    assert len(sizes) >= 3 and sizes[0] == len(mm.edges)
    assert len(trace) > 500
    assert trace == ref_trace
    assert_same_mesh(out, ref)


def queued_entries(mm, params) -> list:
    """Every entry simplify puts on its queue: the first queue, each push
    and each rebuild after shedding."""
    entries = []
    heapify, heappush = heapq.heapify, heapq.heappush

    def spy_heapify(heap):
        entries.extend(heap)
        heapify(heap)

    def spy_heappush(heap, entry):
        entries.append(entry)
        heappush(heap, entry)

    with mock.patch.object(heapq, "heapify", spy_heapify), \
            mock.patch.object(heapq, "heappush", spy_heappush):
        simplify(mm, params)
    return entries


@pytest.mark.parametrize("shape,target_error", [
    (lambda: jittered(paired_chain(), 8), 0.005),
    (lambda: jittered(strip(), 1), 0.03),
    (lambda: jittered(plate(n=30), 9), 0.03),
], ids=["paired-chain", "strip", "plate"])
def test_the_default_queue_holds_no_entry_above_the_bound(shape, target_error):
    """An entry above the bound could only stop the loop, so none is
    queued; the collapses stay the oracle's, whose queue keeps every
    entry."""
    mm = shape()
    params = SimplifyParams(target_error=target_error)
    bound_sq = (target_error * mm.diagonal()) ** 2
    # some edges cost more than the bound before any collapse
    assert max(score_edges(mm, mm.edges)[0]) > bound_sq
    entries = queued_entries(mm, params)
    assert entries
    assert max(total for total, *_ in entries) <= bound_sq
    simplified_as_the_oracle(mm, params)


@pytest.mark.parametrize("k,rim", [(40, 3e153), (16, 4e153)])
def test_fans_whose_weighted_samples_overflow_simplify_as_the_oracle(k, rim):
    """k triangles around a centre on a rim of that radius, all radii 1: the
    diagonal is finite, but some weighted samples of the spoke collapses
    pass the float range.  They score inf, with no warning."""
    points, _, faces = fan_piece(k - 2, True)
    mm = MedialMesh.build([(x, rim * y, rim * z, 1.0) for x, y, z in points],
                          [], faces)
    collapsed = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in GATE_PARAMS:
            collapsed += len(simplified_as_the_oracle(mm, params))
    assert collapsed > 0


def closed_fan(k, seed):
    """k triangles around a centre, centers jittered by up to 0.8 and radii
    by up to 80% of 2: at these sizes some of the topology-rejected edges
    collapse later."""
    points, _, faces = fan_piece(k - 2, True)
    rng = np.random.default_rng(seed)
    c = np.array(points) + rng.uniform(-0.8, 0.8, (k + 1, 3))
    r = 2.0 * (1.0 + rng.uniform(-0.8, 0.8, k + 1))
    return MedialMesh.build(np.column_stack([c, r]), [], faces)


def test_rejected_edges_reenter_as_in_the_rescore_every_touched_vertex_loop():
    """A rejected edge comes back to the queue only when a collapse changes
    one of its ends; the collapses must still be those of the loop that
    re-queues it whenever a collapse touches an end, rejects that later
    collapse included."""
    rejected = set()
    violates = mat_simplify._violates_topology

    def spy(faces, edges, a, b):
        out = violates(faces, edges, a, b)
        if out:
            rejected.add((a, b))
        return out

    rejects = reentered = 0
    with mock.patch.object(mat_simplify, "_violates_topology", spy):
        for k in (3, 4):
            for seed in range(50):
                mm = closed_fan(k, seed)
                for params in GATE_PARAMS:
                    rejected.clear()
                    trace = simplified_as_the_oracle(mm, params)
                    rejects += len(rejected)
                    reentered += sum(edge in rejected for edge, _, _ in trace)
    assert rejects > 0
    assert reentered > 0
