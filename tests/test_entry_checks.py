"""Public entry points refuse bad input up front instead of answering with
NaN, a truncated label or a misleading downstream error."""

import re
import warnings

import numpy as np
import pytest

from segmat.extensions import abstraction_error, mobb
from segmat.growing import GrowingParams, Region, cost_terms, grow, region_labels, swallow
from segmat.mat_graph import build_graph
from segmat.mat_simplify import SimplifyParams, simplify
from segmat.merging import merge_matching, radius_histogram
from segmat.mesh_io import (
    MedialMesh,
    SurfaceMesh,
    save_colored_mesh,
    save_labels,
    save_point_labels,
)
from segmat.metrics import Segmentation
from segmat.pipeline import boundary_length
from segmat.transfer import TransferParams, data_table, labeling_energy, optimize_labels

TETRA_VERTICES = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
TETRA_FACES = np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]])
LABELS = [0, 0, 1, 1]
COSTS = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])


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


# One row per entry point and bad argument; every call here escaped as a
# TypeError, AttributeError, OverflowError or ComplexWarning before the
# arguments were read by the three mesh_io readers.
BAD_ARGUMENTS = {
    "grow alpha 'x'": lambda tmp: grow(chain_graph(), [], GrowingParams(alpha="x")),
    "grow lam None": lambda tmp: grow(chain_graph(), [], GrowingParams(lam=None)),
    "grow eta 1j": lambda tmp: grow(chain_graph(), [], GrowingParams(eta=1j)),
    "cost_terms alpha 1j": lambda tmp: cost_terms(chain_graph(), 1j),
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
    "data_table node None": lambda tmp: data_table(
        tetra(), chain_graph(), [Region(0, [None], 0, 0)]),
    "swallow node None": lambda tmp: swallow(
        chain_graph(), Region(0, [0], 0, 0), [None]),
    "node_index 2**70": lambda tmp: chain_graph().node_index([0, 2**70]),
    "node_index object 1.5": lambda tmp: chain_graph().node_index(
        np.array([1.5], dtype=object)),
    "sphere_arrays node None": lambda tmp: chain_graph().sphere_arrays([0, None]),
    "Segmentation.build None": lambda tmp: Segmentation.build(tetra(), [None] * 4),
    "Segmentation.build 1+0j": lambda tmp: Segmentation.build(tetra(), [1 + 0j] * 4),
    "save_labels 2**70": lambda tmp: save_labels(
        tetra(), tmp / "out.labels.txt", [0, 2**70, 1, 1]),
    "save_colored_mesh 1j": lambda tmp: save_colored_mesh(
        tetra(), [0, 0, 1, 1j], tmp / "out.ply"),
    "SurfaceMesh labels 1.9": lambda tmp: SurfaceMesh(
        TETRA_VERTICES, TETRA_FACES, labels=[1.9, 0, 1, 1]),
    "SurfaceMesh labels None": lambda tmp: SurfaceMesh(
        TETRA_VERTICES, TETRA_FACES, labels=[None] * 4),
    "save_point_labels 1.9": lambda tmp: save_point_labels(
        tmp / "out.txt", [1.9, -0.5]),
    "save_point_labels None": lambda tmp: save_point_labels(tmp / "out.txt", [None]),
    "mobb 1e200": lambda tmp: mobb([[1e200, 0, 0], [0, 1e200, 0], [0, 0, 1]]),
}


@pytest.mark.parametrize("row", list(BAD_ARGUMENTS))
def test_a_bad_argument_raises_only_value_error(tmp_path, row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError):
            BAD_ARGUMENTS[row](tmp_path)
    assert not list(tmp_path.iterdir())


def test_whole_numbers_in_an_object_array_are_node_ids():
    # an object array of Python ints is read as labels always were
    g = chain_graph()
    assert g.node_index(np.array([1, 0.0], dtype=object)).tolist() == [1, 0]
    assert g.node_index([0, 2**0]).dtype == np.int64
    with pytest.raises(ValueError, match="^node True is not a whole number$"):
        g.node_index(np.array([True, False]))
