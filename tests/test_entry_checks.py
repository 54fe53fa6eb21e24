"""Public entry points refuse bad input up front instead of answering with
NaN, a truncated label or a misleading downstream error."""

import re
import warnings

import numpy as np
import pytest

from segmat.extensions import SkeletonCloud, abstraction_error, assign_cloud, mobb
from segmat.growing import (
    GrowingParams,
    Region,
    adjusted_threshold,
    cost_terms,
    grow,
    region_labels,
    swallow,
)
from segmat.mat_graph import build_graph
from segmat.mat_simplify import SimplifyParams, collapse_cost, simplify
from segmat.merging import merge_matching, radius_histogram
from segmat.mesh_io import (
    EmptyInput,
    LengthMismatch,
    MedialMesh,
    ParseError,
    SurfaceMesh,
    save_colored_mesh,
    save_labels,
    save_point_labels,
)
from segmat.metrics import Segmentation
from segmat.pipeline import PipelineConfig, boundary_length, run_pipeline
from segmat.structure import assign_base_nodes
from segmat.transfer import (
    TransferParams,
    data_table,
    labeling_energy,
    optimize_labels,
    transfer_labels,
)

TETRA_VERTICES = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
TETRA_FACES = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
LABELS = [0, 0, 1, 1]
COSTS = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
# a 1+5j and a 1-9j entry, whose real parts alone once gave labels [0 1 0 1]
COMPLEX_COSTS = COSTS + np.array([[0, 5j], [0, 0], [0, -9j], [0, 0]])


def tetra(nan_vertex=False):
    vertices = TETRA_VERTICES.copy()
    if nan_vertex:
        vertices[3, 0] = np.nan
    return SurfaceMesh(vertices, TETRA_FACES.copy())


def chain_graph():
    spheres = [(0.2 * i, 0.2, 0.2, 0.1) for i in range(3)]
    return build_graph(MedialMesh.build(spheres, [(0, 1), (1, 2)], []))


ENTRY_POINTS = {
    "Segmentation.build": lambda mesh: Segmentation.build(mesh, LABELS),
    "boundary_length": lambda mesh: boundary_length(mesh, LABELS),
    "labeling_energy": lambda mesh: labeling_energy(mesh, LABELS, COSTS, 0.5),
    "optimize_labels": lambda mesh: optimize_labels(mesh, COSTS),
    "data_table": lambda mesh: data_table(
        mesh, chain_graph(), [Region(0, [0, 1], 0, 0)]),
    "abstraction_error": lambda mesh: abstraction_error(
        mesh, [mobb(TETRA_VERTICES)], resolution=4, samples=20),
}


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_point_rejects_a_nan_vertex(entry):
    ENTRY_POINTS[entry](tetra())  # the finite tetrahedron goes through
    with pytest.raises(ValueError, match="non-finite vertex coordinate"):
        ENTRY_POINTS[entry](tetra(nan_vertex=True))


LABEL_READERS = {
    "Segmentation.build": lambda mesh, labels, tmp: Segmentation.build(
        mesh, labels),
    "boundary_length": lambda mesh, labels, tmp: boundary_length(mesh, labels),
    "labeling_energy": lambda mesh, labels, tmp: labeling_energy(
        mesh, labels, COSTS, 0.5),
    "save_labels": lambda mesh, labels, tmp: save_labels(
        mesh, tmp / "out.labels.txt", labels),
    "save_colored_mesh": lambda mesh, labels, tmp: save_colored_mesh(
        mesh, labels, tmp / "out.ply"),
}


@pytest.mark.parametrize("reader", list(LABEL_READERS))
@pytest.mark.parametrize("bad", [1.9, -0.5, float("nan"), float("inf"), 1e20])
def test_fractional_label_is_rejected_not_truncated(tmp_path, reader, bad):
    # whole floats are read as the integers they equal
    LABEL_READERS[reader](tetra(), [0.0, 0.0, 1.0, 1.0], tmp_path)
    out_dir = tmp_path / "bad"
    out_dir.mkdir()
    message = re.escape(f"label {bad!r} is not a whole number")
    with pytest.raises(ValueError, match=message):
        LABEL_READERS[reader](tetra(), [0.0, 0.0, 1.0, bad], out_dir)
    assert not list(out_dir.iterdir())


@pytest.mark.parametrize("omega", [-1.0, float("nan"), float("inf")])
def test_labeling_energy_rejects_a_bad_omega(omega):
    with pytest.raises(ValueError, match="^omega must (be a finite number|"
                                         "not be negative), got "):
        labeling_energy(tetra(), LABELS, COSTS, omega)


@pytest.mark.parametrize("rho", [0.0, -1.0, float("nan")])
def test_adjusted_threshold_names_a_rho_not_above_0(rho):
    with pytest.raises(ValueError, match="^rho must (be above 0|not be negative"
                                         "|be a number), got "):
        adjusted_threshold(0.015, rho)


@pytest.mark.parametrize("radius_range,message", [
    (("a", "b"), "must hold real numbers"),
    ((0.5, 0.1), "must not end below its start"),
    ((0.1, 0.2, 0.3), "must be a (lo, hi) pair"),
])
def test_radius_histogram_names_a_bad_radius_range(radius_range, message):
    with pytest.raises(ValueError, match=re.escape(f"radius_range {message}")):
        radius_histogram(chain_graph(), Region(0, [0, 1], 0, 0), radius_range)


def test_a_radius_range_of_one_point_gives_one_bin():
    h = radius_histogram(chain_graph(), Region(0, [0, 1], 0, 0), (0.1, 0.1))
    assert h.bins[0] == 1.0 and h.bins.sum() == 1.0
    assert h.radius_range == (0.1, 0.1)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_labeling_energy_rejects_non_finite_costs(value):
    costs = COSTS.copy()
    costs[2, 0] = value
    with pytest.raises(ValueError, match="costs must be finite"):
        labeling_energy(tetra(), LABELS, costs, 0.5)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_mobb_rejects_non_finite_points_without_warnings(value):
    points = [[value, 0.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite point coordinate"):
            mobb(points)


def chain_mat():
    return MedialMesh.build([(0.2 * i, 0.2, 0.2, 0.1) for i in range(3)],
                            [(0, 1), (1, 2)], [])


def skeleton():
    return SkeletonCloud.build([(0.2 * i, 0.2, 0.2) for i in range(3)], [0.1] * 3)


# One row per entry point and bad argument.  Before the arguments were read
# by the three mesh_io readers, most of these calls escaped as a TypeError,
# AttributeError, OverflowError or ComplexWarning, and assign_cloud handed
# its bad labels back.
BAD_ARGUMENTS = {
    "grow alpha 'x'": lambda tmp: grow(chain_graph(), [], GrowingParams(alpha="x")),
    "grow lam None": lambda tmp: grow(chain_graph(), [], GrowingParams(lam=None)),
    "grow eta 1j": lambda tmp: grow(chain_graph(), [], GrowingParams(eta=1j)),
    "grow swallowing 'false'": lambda tmp: grow(chain_graph(), [], swallowing="false"),
    "grow swallowing 0": lambda tmp: grow(chain_graph(), [], swallowing=0),
    "grow swallowing None": lambda tmp: grow(chain_graph(), [], swallowing=None),
    "run_pipeline swallowing 'false'": lambda tmp: run_pipeline(
        tetra(), None, chain_mat(), PipelineConfig(swallowing="false")),
    "run_pipeline merge_tau nan": lambda tmp: run_pipeline(
        tetra(), None, chain_mat(), PipelineConfig(merge_tau=float("nan"))),
    "run_pipeline merge_tau -1": lambda tmp: run_pipeline(
        tetra(), None, chain_mat(), PipelineConfig(merge_tau=-1.0)),
    "cost_terms alpha 1j": lambda tmp: cost_terms(chain_graph(), 1j),
    "adjusted_threshold rho 0": lambda tmp: adjusted_threshold(0.015, 0.0),
    "adjusted_threshold rho nan": lambda tmp: adjusted_threshold(0.015, float("nan")),
    "adjusted_threshold rho -1": lambda tmp: adjusted_threshold(0.015, -1.0),
    "adjusted_threshold delta0 -1": lambda tmp: adjusted_threshold(-1.0, 100.0),
    "adjusted_threshold delta0 nan": lambda tmp: adjusted_threshold(float("nan"), 100.0),
    "merge_matching tau None": lambda tmp: merge_matching(
        chain_graph(), [Region(0, [0], 0, 0), Region(1, [1], 1, 0)], None),
    "merge_matching tau '0.1'": lambda tmp: merge_matching(
        chain_graph(), [Region(0, [0], 0, 0)], "0.1"),
    "simplify target_error None": lambda tmp: simplify(
        chain_mat(), SimplifyParams(target_error=None)),
    "simplify target_error 1j": lambda tmp: simplify(
        chain_mat(), SimplifyParams(target_error=1j)),
    "optimize_labels omega 'x'": lambda tmp: optimize_labels(
        tetra(), COSTS, TransferParams(omega="x")),
    "labeling_energy omega 1j": lambda tmp: labeling_energy(
        tetra(), LABELS, COSTS, omega=1j),
    "labeling_energy label None": lambda tmp: labeling_energy(
        tetra(), [0, 0, 1, None], COSTS, 0.5),
    "region_labels node None": lambda tmp: region_labels(
        chain_graph(), [Region(0, [None], 0, 0)]),
    "radius_histogram node None": lambda tmp: radius_histogram(
        chain_graph(), Region(0, [0, None], 0, 0)),
    "radius_histogram range nan": lambda tmp: radius_histogram(
        chain_graph(), Region(0, [0], 0, 0), (float("nan"), float("nan"))),
    "radius_histogram range ('a', 'b')": lambda tmp: radius_histogram(
        chain_graph(), Region(0, [0], 0, 0), ("a", "b")),
    "radius_histogram range (0.5, 0.1)": lambda tmp: radius_histogram(
        chain_graph(), Region(0, [0], 0, 0), (0.5, 0.1)),
    "radius_histogram range (None, 1)": lambda tmp: radius_histogram(
        chain_graph(), Region(0, [0], 0, 0), (None, 1.0)),
    "radius_histogram range 0.5": lambda tmp: radius_histogram(
        chain_graph(), Region(0, [0], 0, 0), 0.5),
    "radius_histogram range (0, 2**1100)": lambda tmp: radius_histogram(
        chain_graph(), Region(0, [0], 0, 0), (0, 2**1100)),
    "data_table node None": lambda tmp: data_table(
        tetra(), chain_graph(), [Region(0, [None], 0, 0)]),
    "transfer_labels region id 1.5": lambda tmp: transfer_labels(
        tetra(), chain_graph(), [Region(1.5, [0, 1], 0, 0)]),
    "transfer_labels region id None": lambda tmp: transfer_labels(
        tetra(), chain_graph(), [Region(None, [0, 1], 0, 0)]),
    "transfer_labels region id 2**70": lambda tmp: transfer_labels(
        tetra(), chain_graph(), [Region(2**70, [0, 1], 0, 0)]),
    "transfer_labels second region id 1.5": lambda tmp: transfer_labels(
        tetra(), chain_graph(), [Region(0, [0], 0, 0), Region(1.5, [1], 0, 0)]),
    "optimize_labels costs 1+5j": lambda tmp: optimize_labels(
        tetra(), COMPLEX_COSTS),
    "labeling_energy costs 1+5j": lambda tmp: labeling_energy(
        tetra(), LABELS, COMPLEX_COSTS, 0.5),
    "swallow node None": lambda tmp: swallow(
        chain_graph(), Region(0, [0], 0, 0), [None]),
    "node_index 2**70": lambda tmp: chain_graph().node_index([0, 2**70]),
    "node_index object 1.5": lambda tmp: chain_graph().node_index(
        np.array([1.5], dtype=object)),
    "sphere_arrays node None": lambda tmp: chain_graph().sphere_arrays([0, None]),
    "Segmentation.build None": lambda tmp: Segmentation.build(tetra(), [None] * 4),
    "Segmentation.build 1+0j": lambda tmp: Segmentation.build(tetra(), [1 + 0j] * 4),
    "boundary_length None": lambda tmp: boundary_length(tetra(), [None] * 4),
    "save_labels 2**70": lambda tmp: save_labels(
        tetra(), tmp / "out.labels.txt", [0, 2**70, 1, 1]),
    "save_colored_mesh 1j": lambda tmp: save_colored_mesh(
        tetra(), [0, 0, 1, 1j], tmp / "out.ply"),
    "save_point_labels 1.9": lambda tmp: save_point_labels(
        tmp / "out.txt", [1.9, -0.5]),
    "save_point_labels None": lambda tmp: save_point_labels(tmp / "out.txt", [None]),
    "mobb 1e200": lambda tmp: mobb([[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1]]),
    "collapse_cost edge (0.5, 1)": lambda tmp: collapse_cost(chain_mat(), (0.5, 1)),
    "collapse_cost non-edge (0, 2)": lambda tmp: collapse_cost(chain_mat(), (0, 2)),
    "assign_cloud labels None 1.5 'x'": lambda tmp: assign_cloud(
        skeleton(), [None, 1.5, "x"], [(0.0, 0.2, 0.2)]),
}


@pytest.mark.parametrize("row", list(BAD_ARGUMENTS))
def test_a_bad_argument_raises_only_value_error(tmp_path, row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            BAD_ARGUMENTS[row](tmp_path)
    assert not list(tmp_path.iterdir())


# One row per typed error: its class and message.  Each row writes nothing.
TYPED_ERRORS = {
    "grow swallowing 'false'": (ValueError, "swallowing must be True or False, got 'false'",
                                lambda tmp: grow(chain_graph(), [], swallowing="false")),
    "optimize_labels 1-D costs": (ValueError, "costs must be a (faces, segments) table",
                                  lambda tmp: optimize_labels(tetra(), COSTS[:, 0])),
    "optimize_labels face count": (ValueError, "cost table does not match the face count",
                                   lambda tmp: optimize_labels(tetra(), COSTS[:3])),
    "transfer_labels region id 1.5": (ValueError, "region id 1.5 is not a whole number",
                                      lambda tmp: transfer_labels(
                                          tetra(), chain_graph(),
                                          [Region(1.5, [0, 1], 0, 0)])),
    "transfer_labels region id None before a bad node": (
        ValueError, "region id None is not a whole number",
        lambda tmp: transfer_labels(tetra(), chain_graph(), [
            Region(0, [0], 0, 0), Region(None, [7], 0, 0)])),
    "optimize_labels complex costs": (ValueError,
                                      "costs must be real numbers, got complex128 entries",
                                      lambda tmp: optimize_labels(tetra(), COMPLEX_COSTS)),
    "labeling_energy object costs": (ValueError,
                                     "costs must be real numbers, got object entries",
                                     lambda tmp: labeling_energy(
                                         tetra(), LABELS,
                                         COMPLEX_COSTS.astype(object), 0.5)),
    "data_table region without nodes": (ValueError, "region 0 has no spheres",
                                        lambda tmp: data_table(
                                            tetra(), chain_graph(), [Region(0, [], 0, 0)])),
    "assign_base_nodes no components": (ValueError, "no components to assign nodes to",
                                        lambda tmp: assign_base_nodes(chain_graph(), [])),
    "SurfaceMesh.validate face index": (ParseError, "face index out of range",
                                        lambda tmp: SurfaceMesh(
                                            TETRA_VERTICES, [(0, 1, 4)]).validate()),
    "save_colored_mesh label count": (LengthMismatch, "3 labels for 4 faces",
                                      lambda tmp: save_colored_mesh(
                                          tetra(), LABELS[:3], tmp / "out.ply")),
    "Segmentation.build no faces": (ValueError, "segmentation needs at least one face",
                                    lambda tmp: Segmentation.build(
                                        SurfaceMesh(TETRA_VERTICES, []), [])),
    "SkeletonCloud.build no points": (EmptyInput, "no skeleton points",
                                      lambda tmp: SkeletonCloud.build([], [])),
    "SkeletonCloud.build radius count": (ValueError, "one radius per point required",
                                         lambda tmp: SkeletonCloud.build(
                                             TETRA_VERTICES, [0.1] * 3)),
    "SkeletonCloud.from_cloud empty cloud": (EmptyInput,
                                             "no cloud points to measure radii against",
                                             lambda tmp: SkeletonCloud.from_cloud(
                                                 TETRA_VERTICES, [])),
}


@pytest.mark.parametrize("row", list(TYPED_ERRORS))
def test_a_typed_error_names_its_cause(tmp_path, row):
    kind, message, call = TYPED_ERRORS[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(kind, match=f"^{re.escape(message)}$"):
            call(tmp_path)
    assert not list(tmp_path.iterdir())


def test_whole_numbers_in_an_object_array_are_node_ids():
    # an object array of Python ints is read as labels always were
    g = chain_graph()
    assert g.node_index(np.array([1, 0.0], dtype=object)).tolist() == [1, 0]
    assert g.node_index([0, 2**0]).dtype == np.int64
    with pytest.raises(ValueError, match="^node True is not a whole number$"):
        g.node_index(np.array([True, False]))


def test_an_edge_of_whole_floats_is_read_as_vertex_indices():
    mm = chain_mat()
    assert collapse_cost(mm, (0.0, 1.0)) == collapse_cost(mm, (0, 1))


def test_whole_region_ids_of_any_type_label_the_faces():
    regions = [Region(np.int64(3), [0], 0, 0), Region(5.0, [1], 0, 0)]
    for count in (1, 2):
        labels = transfer_labels(tetra(), chain_graph(), regions[:count])
        assert labels.dtype == np.int64
        assert set(labels.tolist()) <= {3, 5}


def test_real_cost_tables_of_any_type_are_read():
    want = optimize_labels(tetra(), COSTS)
    assert optimize_labels(tetra(), COSTS.astype(int)).tolist() == want.tolist()
    assert optimize_labels(tetra(), COSTS.astype(object)).tolist() == want.tolist()
    assert labeling_energy(tetra(), LABELS, COSTS.astype(bool), 0.5) == (
        labeling_energy(tetra(), LABELS, COSTS, 0.5))
