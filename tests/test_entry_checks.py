"""Public entry points refuse bad input up front instead of answering with
NaN, a truncated label or a misleading downstream error."""

import re
import warnings

import numpy as np
import pytest

from segmat.extensions import abstraction_error, mobb
from segmat.growing import Region
from segmat.mat_graph import build_graph
from segmat.mesh_io import MedialMesh, SurfaceMesh, save_colored_mesh, save_labels
from segmat.metrics import Segmentation
from segmat.pipeline import boundary_length
from segmat.transfer import data_table, labeling_energy, optimize_labels

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
    with pytest.raises(ValueError,
                       match="omega must be a finite non-negative number"):
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
