"""Property tests for the file formats, the medial mesh table and the dual
graph of mesh_io.

Writers emit 9 significant digits, so values that already have at most 9
round-trip exactly.  OFF carries element counts, so any cut of an OFF file
is detectable; OBJ and .ma carry none, so a cut that drops whole records
leaves a valid smaller file and only a cut inside a record is an error.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from segmat.mesh_io import (
    MedialMesh,
    ParseError,
    SurfaceMesh,
    _unique_rows,
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
    return MedialMesh.build([(*c, r) for c, r in zip(centers, radii)],
                            edges, faces)


# every double: signed zeros, subnormals, infinities and NaNs
any_float = st.floats(width=64)
# finite doubles, with subnormals and sums past the float maximum common
extreme_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300,
                     1.7e308, -1.7e308]),
    st.builds(lambda m, e: m * 10.0**e, st.floats(-9.99, 9.99),
              st.sampled_from([-320, -310, 299, 300, 307])),
)


@st.composite
def extreme_meshes(draw):
    n = draw(st.integers(3, 8))
    vertices = draw(st.lists(st.tuples(*[extreme_floats] * 3),
                             min_size=n, max_size=n))
    return SurfaceMesh(np.array(vertices), np.array(draw(triangles(n)),
                                                    dtype=int))


@settings(max_examples=300)
@given(mesh=extreme_meshes())
@example(mesh=SurfaceMesh(np.array([(1e300, 5e-324, 1.7e308),
                                    (1e300, -5e-324, 1.7e308),
                                    (-1e300, 5e-324, 1e300),
                                    (-0.0, -0.0, 0.0)]),
                          np.array([(0, 1, 2), (2, 1, 0), (3, 3, 3)])))
def test_face_centroids_equal_the_corner_mean(mesh):
    # mean(axis=1) sums the corners in order after a +0.0 start, so where
    # all three are -0.0 it gives +0.0 and face_centroids -0.0, which
    # compare equal; equal values other than zero have the same bits
    with np.errstate(over="ignore"):
        want = mesh.vertices[mesh.faces].mean(axis=1)
        got = mesh.face_centroids()
    assert got.shape == want.shape
    assert np.array_equal(got, want)
SQUARE = [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.0)]


@st.composite
def build_records(draw):
    """Sphere rows, edge and face records as MedialMesh.build takes them.

    Edges come with reversed and repeated copies and with sides of the
    faces; corrupt records draw indices that may be negative, out of range
    or repeated, and radii that may be negative.
    """
    corrupt = draw(st.booleans())
    n = draw(st.integers(0, 7) if corrupt else st.integers(3, 7))
    radius = any_float if corrupt and draw(st.booleans()) else any_float.map(abs)
    spheres = draw(st.lists(st.tuples(any_float, any_float, any_float, radius),
                            min_size=n, max_size=n))
    if corrupt:
        index = st.integers(-2, n + 1)
        edge, face = st.tuples(index, index), st.tuples(index, index, index)
    else:
        index = st.integers(0, max(n - 1, 0))
        edge = st.tuples(index, index).filter(lambda e: e[0] != e[1])
        face = st.tuples(index, index, index).filter(lambda f: len(set(f)) == 3)
    faces = draw(st.lists(face, max_size=5))
    edges = draw(st.lists(edge, max_size=6))
    if edges:
        copies = draw(st.lists(st.sampled_from(edges), max_size=3))
        edges += copies + [e[::-1] for e in copies]
    if faces:
        edges += [f[:2] for f in draw(st.lists(st.sampled_from(faces), max_size=3))]
    return spheres, draw(st.permutations(edges)), faces


@settings(max_examples=300)
@given(build_records())
@example(([], [], []))
@example((SQUARE, [(1, 0), (0, 1), (0, 1), (2, 1), (0, 2)], [(2, 1, 0)]))
@example((SQUARE + [(0.0, 0.0, 1.0, -0.0)], [(3, 0), (0, 3)], [(0, 2, 1)]))
@example((SQUARE[:2] + [(0.0, 0.0, 0.0, -0.5)], [], []))
@example((SQUARE, [(0, 1), (2, 3)], []))
@example((SQUARE, [(-1, 2)], []))
@example((SQUARE, [(0, 1), (2, 2)], []))
@example((SQUARE, [], [(0, 1, 3)]))
@example((SQUARE, [], [(-1, 0, 1)]))
@example((SQUARE, [], [(2, 0, 2)]))
def test_build_matches_the_set_build(records):
    spheres, edges, faces = records
    pairs = [(s[:3], s[3]) for s in spheres]
    try:
        want = oracles.build_medial_mesh(pairs, edges, faces)
    except ValueError as exc:
        with pytest.raises(type(exc)) as got:
            MedialMesh.build(spheres, edges, faces)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return
    mm = MedialMesh.build(spheres, edges, faces)
    centers = np.array([s.center for s in want.spheres], dtype=float)
    radii = np.array([s.radius for s in want.spheres], dtype=float)
    assert mm.centers().tobytes() == centers.reshape(-1, 3).tobytes()
    assert mm.radii().tobytes() == radii.tobytes()
    assert mm.edges.dtype == mm.faces.dtype == mm.standalone.dtype == np.intp
    assert mm.edges.shape == (len(want.edges), 2)
    assert mm.faces.shape == (len(want.faces), 3)
    assert mm.edges.tolist() == [list(e) for e in want.edges]
    assert mm.faces.tolist() == [list(f) for f in want.faces]
    assert mm.standalone.tolist() == want.standalone


@given(rows=st.lists(st.tuples(*[st.integers(-3, 3)] * 3), max_size=30),
       width=st.sampled_from([2, 3]))
@example(rows=[], width=2)
@example(rows=[], width=3)
def test_unique_rows_matches_numpy_unique(rows, width):
    rows = np.array(rows, dtype=np.intp).reshape(-1, 3)[:, :width]
    unique, inverse = _unique_rows(rows)
    want, want_inverse = np.unique(rows, axis=0, return_inverse=True)
    assert unique.dtype == want.dtype and unique.shape == want.shape
    assert np.array_equal(unique, want)
    assert np.array_equal(inverse, want_inverse.reshape(-1))


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
    assert np.array_equal(back.spheres, mm.spheres)
    assert np.array_equal(back.edges, mm.edges)
    assert np.array_equal(back.faces, mm.faces)


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


@given(mesh=surface_meshes(min_faces=0), data=st.data())
def test_off_record_past_the_counts_is_a_parse_error(tmp_path_factory, mesh,
                                                     data):
    path = tmp_path_factory.mktemp("extra") / "m.off"
    save_surface(mesh, path)
    lines = path.read_text().splitlines()
    extra = data.draw(st.sampled_from(lines[2:] or ["3 0 1 2"]))
    path.write_text("\n".join([*lines, extra]) + "\n")
    with pytest.raises(ParseError,
                       match=f"m.off:{len(lines) + 1}: record past the"):
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
