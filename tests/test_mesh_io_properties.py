"""Property tests for the file formats and the dual graph of mesh_io.

Writers emit 9 significant digits, so values that already have at most 9
round-trip exactly.  OFF carries element counts, so any cut of an OFF file
is detectable; OBJ and .ma carry none, so a cut that drops whole records
leaves a valid smaller file and only a cut inside a record is an error.
"""

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import oracles
from segmat.geometry import Sphere
from segmat.mesh_io import (
    MedialMesh,
    ParseError,
    SurfaceMesh,
    load_labels,
    load_medial_mesh,
    load_surface,
    save_labels,
    save_medial_mesh,
    save_surface,
)

# finite doubles that print exactly with 9 significant digits
nine_digits = st.floats(-1e9, 1e9, allow_nan=False).map(
    lambda x: float(format(x, ".9g")))


@st.composite
def triangles(draw, vertex_count, min_size=0, max_size=12):
    index = st.integers(0, vertex_count - 1)
    return draw(st.lists(st.tuples(index, index, index).filter(
        lambda f: len(set(f)) == 3), min_size=min_size, max_size=max_size))


@st.composite
def surface_meshes(draw, min_faces=1):
    n = draw(st.integers(3, 8))
    vertices = draw(st.lists(st.tuples(*[nine_digits] * 3),
                             min_size=n, max_size=n))
    faces = draw(triangles(n, min_size=min_faces))
    return SurfaceMesh(np.array(vertices), np.array(faces, dtype=int))


@st.composite
def medial_meshes(draw):
    n = draw(st.integers(3, 8))
    centers = draw(st.lists(st.tuples(*[nine_digits] * 3),
                            min_size=n, max_size=n))
    radii = draw(st.lists(nine_digits.map(abs), min_size=n, max_size=n))
    index = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(index, index).filter(
        lambda e: e[0] != e[1]), min_size=1, max_size=6))
    faces = draw(triangles(n, max_size=4))
    return MedialMesh.build([Sphere(c, r) for c, r in zip(centers, radii)],
                            edges, faces)


def cut(text, line, keep):
    """The first `line` lines whole, then `keep` tokens of the next one."""
    lines = text.splitlines()
    head = lines[:line]
    tokens = lines[line].split()[:keep]
    return "\n".join(head + ([" ".join(tokens)] if tokens else [])) + "\n"


@pytest.mark.parametrize("suffix", [".off", ".obj"])
@given(mesh=surface_meshes(min_faces=0))
def test_surface_round_trip_is_exact(tmp_path_factory, suffix, mesh):
    path = tmp_path_factory.mktemp("rt") / f"m{suffix}"
    save_surface(mesh, path)
    back = load_surface(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


@given(mm=medial_meshes())
def test_medial_round_trip_is_exact(tmp_path_factory, mm):
    path = tmp_path_factory.mktemp("rt") / "m.ma"
    save_medial_mesh(mm, path)
    back = load_medial_mesh(path)
    assert back.spheres == mm.spheres
    assert back.edges == mm.edges
    assert back.faces == mm.faces


@given(labels=st.lists(st.integers(-2**40, 2**40), max_size=30))
def test_labels_round_trip_is_exact(tmp_path_factory, labels):
    mesh = SurfaceMesh(np.zeros((3, 3)), np.zeros((len(labels), 3), dtype=int))
    path = tmp_path_factory.mktemp("rt") / "m.labels.txt"
    save_labels(mesh, path, labels)
    assert load_labels(path, mesh).tolist() == labels


@given(mesh=surface_meshes(), data=st.data())
def test_truncated_off_is_a_parse_error(tmp_path_factory, mesh, data):
    path = tmp_path_factory.mktemp("cut") / "m.off"
    save_surface(mesh, path)
    text = path.read_text()
    line = data.draw(st.integers(0, len(text.splitlines()) - 1))
    width = len(text.splitlines()[line].split())
    path.write_text(cut(text, line, data.draw(st.integers(0, width - 1))))
    with pytest.raises(ParseError):
        load_surface(path)


@pytest.mark.parametrize("suffix, meshes, save, load", [
    (".obj", surface_meshes(), save_surface, load_surface),
    (".ma", medial_meshes(), save_medial_mesh, load_medial_mesh),
], ids=[".obj", ".ma"])
@given(data=st.data())
def test_record_cut_short_is_a_parse_error(tmp_path_factory, suffix, meshes,
                                           save, load, data):
    path = tmp_path_factory.mktemp("cut") / f"m{suffix}"
    save(data.draw(meshes), path)
    text = path.read_text()
    line = data.draw(st.integers(0, len(text.splitlines()) - 1))
    width = len(text.splitlines()[line].split())
    # keep the record's keyword, drop at least one of its numbers
    path.write_text(cut(text, line, data.draw(st.integers(1, width - 1))))
    with pytest.raises(ParseError):
        load(path)


@st.composite
def crowded_meshes(draw):
    """Faces over few vertices, so edges shared by 3+ faces are common."""
    n = draw(st.integers(3, 6))
    faces = draw(triangles(n, max_size=16))
    return SurfaceMesh(np.zeros((n, 3)), np.array(faces, dtype=int))


@given(mesh=crowded_meshes())
@example(mesh=SurfaceMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=int)))
@example(mesh=SurfaceMesh(np.eye(3), np.array([(0, 1, 2)])))
@example(mesh=SurfaceMesh(np.zeros((4, 3)),
                          np.array([(0, 1, 2), (1, 0, 3), (0, 1, 3),
                                    (2, 1, 0)])))
def test_dual_edges_match_the_dict_builder(mesh):
    pairs, shared = mesh.dual_edges()
    want_pairs, want_shared = oracles.dual_edges(mesh)
    assert pairs.dtype == want_pairs.dtype == np.int64
    assert shared.dtype == want_shared.dtype == np.int64
    assert np.array_equal(pairs, want_pairs)
    assert np.array_equal(shared, want_shared)
