import numpy as np
import pytest

from segmat.mesh_io import (
    PALETTE,
    LengthMismatch,
    MedialMesh,
    NegativeRadius,
    ParseError,
    SurfaceMesh,
    load_labels,
    load_medial_mesh,
    load_surface,
    save_colored_mesh,
    save_labels,
    save_medial_mesh,
    save_surface,
)


def square_mesh():
    vertices = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (0.0, 1.0, 0.0)]
    faces = [(0, 1, 2), (0, 2, 3)]
    return SurfaceMesh(np.array(vertices), np.array(faces))


def test_off_round_trip(tmp_path):
    path = tmp_path / "square.off"
    mesh = square_mesh()
    save_surface(mesh, path)
    back = load_surface(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def test_obj_round_trip(tmp_path):
    path = tmp_path / "square.obj"
    mesh = square_mesh()
    save_surface(mesh, path)
    back = load_surface(path)
    assert np.array_equal(back.vertices, mesh.vertices)
    assert np.array_equal(back.faces, mesh.faces)


def test_off_quad_is_fan_split(tmp_path):
    path = tmp_path / "quad.off"
    path.write_text("OFF\n4 1 0\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 3\n")
    mesh = load_surface(path)
    assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_obj_quad_is_fan_split(tmp_path):
    path = tmp_path / "quad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    mesh = load_surface(path)
    assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3]]


def test_obj_face_index_zero_rejected(tmp_path):
    path = tmp_path / "bad.obj"
    path.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n")
    with pytest.raises(ParseError):
        load_surface(path)


def test_off_out_of_range_index_rejected(tmp_path):
    path = tmp_path / "bad.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n")
    with pytest.raises(ParseError):
        load_surface(path)


@pytest.mark.parametrize("text, lineno", [
    ("OFF\n-1 0 0\n", 2),
    ("OFF -1 0 0\n", 1),
    ("OFF\n3 -2 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", 2),
], ids=["negative-vertices", "negative-vertices-in-header", "negative-faces"])
def test_off_negative_counts_rejected(tmp_path, text, lineno):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(ParseError,
                       match=f"bad.off:{lineno}: malformed element counts"):
        load_surface(path)


@pytest.mark.parametrize("text, lineno", [
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2 1\n", 7),
    ("OFF\n3 0 0\n0 0 0\n1 0 0\n0 1 0\n# a comment\n\n1 1 1\n", 8),
    ("OFF 0 0 0\n3 0 1 2\n", 2),
], ids=["extra-face", "extra-vertex-after-comment", "records-past-zero-counts"])
def test_off_records_past_the_counts_rejected(tmp_path, text, lineno):
    path = tmp_path / "bad.off"
    path.write_text(text)
    with pytest.raises(ParseError, match=f"bad.off:{lineno}: record past the"):
        load_surface(path)


def test_off_comments_after_the_last_record_are_allowed(tmp_path):
    path = tmp_path / "ok.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
                    "# end\n\n")
    assert load_surface(path).faces.tolist() == [[0, 1, 2]]


def test_repeated_vertex_face_rejected(tmp_path):
    path = tmp_path / "degen.off"
    path.write_text("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n")
    with pytest.raises(ParseError):
        load_surface(path)


@pytest.mark.parametrize("face", [(0, 0, 1), (0, 1, 1), (1, 0, 1)])
def test_validate_rejects_each_repeated_pair(face):
    mesh = SurfaceMesh(np.eye(3), [(0, 1, 2), face])
    with pytest.raises(ParseError, match="face with repeated vertices"):
        mesh.validate()


def test_validate_checks_the_arrays_once(tmp_path):
    path = tmp_path / "square.off"
    save_surface(square_mesh(), path)
    mesh = load_surface(path)
    # the loader validated it: the array checks have passed and are not
    # run again, as the derived arrays are not computed again
    mesh.vertices[0, 0] = np.nan
    mesh.validate()
    with pytest.raises(ParseError, match="non-finite vertex coordinate"):
        SurfaceMesh(mesh.vertices, mesh.faces).validate()


def test_missing_file_raises_oserror(tmp_path):
    with pytest.raises(OSError):
        load_surface(tmp_path / "nope.off")


def test_medial_mesh_round_trip(tmp_path):
    mm = MedialMesh.build(
        spheres=[(0.0, 0.0, 0.0, 1.0),
                 (2.5, 0.0, 0.0, 0.5),
                 (0.0, 2.0, 0.0, 0.25),
                 (-1.0, -1.0, 0.5, 0.125)],
        edges=[(0, 3)],
        faces=[(0, 1, 2)],
    )
    path = tmp_path / "mat.ma"
    save_medial_mesh(mm, path)
    back = load_medial_mesh(path)
    assert np.array_equal(back.spheres, mm.spheres)
    assert np.array_equal(back.edges, mm.edges)
    assert np.array_equal(back.faces, mm.faces)


def test_medial_mesh_canonical_form_adds_face_edges():
    mm = MedialMesh.build(
        spheres=[(0.0, 0.0, 0.0, 1.0),
                 (1.0, 0.0, 0.0, 1.0),
                 (0.0, 1.0, 0.0, 1.0)],
        edges=[],
        faces=[(2, 1, 0)],
    )
    assert np.array_equal(mm.faces, [(0, 1, 2)])
    assert np.array_equal(mm.edges, [(0, 1), (0, 2), (1, 2)])
    assert np.array_equal(mm.standalone, [])


@pytest.mark.parametrize("edges, faces, message", [
    ([(0, 1.5)], [], r"non-integral edge index: \(0.0, 1.5\)"),
    ([(0, float("nan"))], [], "non-integral edge index"),
    ([(0, float("inf"))], [], "non-integral edge index"),
    ([], [(0, 1, 2.5)], r"non-integral face index: \(0.0, 1.0, 2.5\)"),
    # the first bad record in input order decides the message
    ([(0, 9), (0, 1.5)], [], r"edge index out of range: \(0, 9\)"),
    ([(0, 10**400)], [], "edge number beyond the float range"),
], ids=["edge", "nan", "inf", "face", "first-record-wins", "beyond-float"])
def test_build_rejects_bad_index_records(edges, faces, message):
    spheres = [(0.0, 0.0, 0.0, 1.0), (1.0, 0.0, 0.0, 1.0), (0.0, 1.0, 0.0, 1.0)]
    with pytest.raises(ParseError, match=message):
        MedialMesh.build(spheres, edges, faces)


def test_medial_mesh_comments_and_negative_radius(tmp_path):
    ok = tmp_path / "ok.ma"
    ok.write_text("# medial mesh\nv 0 0 0 1.0\nv 1 0 0 2.0  # fat end\ne 0 1\n")
    mm = load_medial_mesh(ok)
    assert len(mm.spheres) == 2 and np.array_equal(mm.edges, [(0, 1)])
    bad = tmp_path / "bad.ma"
    bad.write_text("v 0 0 0 -0.5\n")
    with pytest.raises(NegativeRadius):
        load_medial_mesh(bad)


def test_medial_mesh_bad_records(tmp_path):
    for text in ("v 0 0 0\n", "e 0 0\nv 0 0 0 1\n", "e 0 5\nv 0 0 0 1\nv 1 0 0 1\n",
                 "q 1 2 3\n", "f 0 1 1\nv 0 0 0 1\nv 1 0 0 1\nv 0 1 0 1\n"):
        path = tmp_path / "bad.ma"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_medial_mesh(path)


def test_labels_round_trip_and_length_check(tmp_path):
    mesh = square_mesh()
    path = tmp_path / "labels.txt"
    save_labels(mesh, path, labels=[3, 1])
    assert path.read_bytes() == b"3\n1\n"
    assert load_labels(path, mesh).tolist() == [3, 1]
    path.write_text("1\n2\n3\n")
    with pytest.raises(LengthMismatch):
        load_labels(path, mesh)
    with pytest.raises(LengthMismatch):
        save_labels(mesh, path, labels=[1, 2, 3])


def test_colored_ply_golden(tmp_path):
    vertices = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    mesh = SurfaceMesh(np.array(vertices), np.array([(0, 1, 2)]))
    path = tmp_path / "seg.ply"
    save_colored_mesh(mesh, [3], path)
    r, g, b = PALETTE[3]
    expected = (
        "ply\nformat ascii 1.0\n"
        "element vertex 3\n"
        "property float x\nproperty float y\nproperty float z\n"
        "element face 1\n"
        "property list uchar int vertex_indices\n"
        "property uchar red\nproperty uchar green\nproperty uchar blue\n"
        "end_header\n"
        "0 0 0\n1 0 0\n0 1 0\n"
        f"3 0 1 2 {r} {g} {b}\n"
    )
    assert path.read_text() == expected


def test_palette_has_32_distinct_entries():
    assert len(PALETTE) == 32
    assert len(set(PALETTE)) == 32


def test_colored_ply_label_wraps(tmp_path):
    vertices = [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]
    mesh = SurfaceMesh(np.array(vertices), np.array([(0, 1, 2)]))
    a, b = tmp_path / "a.ply", tmp_path / "b.ply"
    save_colored_mesh(mesh, [35], a)
    save_colored_mesh(mesh, [3], b)
    assert a.read_text() == b.read_text()


def test_dual_edges_of_square():
    mesh = square_mesh()
    pairs, shared = mesh.dual_edges()
    assert pairs.tolist() == [[0, 1]]
    assert shared.tolist() == [[0, 2]]


def test_face_areas_and_centroids():
    mesh = square_mesh()
    assert mesh.face_areas() == pytest.approx([0.5, 0.5])
    assert mesh.face_centroids()[0] == pytest.approx((2.0 / 3.0, 1.0 / 3.0, 0.0))
    assert mesh.diagonal() == pytest.approx(np.sqrt(2.0))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_are_parse_errors(tmp_path, value):
    mesh = square_mesh()
    mesh.vertices[2, 0] = value
    with pytest.raises(ParseError, match="non-finite"):
        mesh.validate()
    path = tmp_path / "m.ma"
    path.write_text(f"v 0 0 0 1\nv 1 0 0 {value}\ne 0 1\n")
    with pytest.raises(ParseError, match="m.ma:2: non-finite"):
        load_medial_mesh(path)
    mm = MedialMesh.build([(0, value, 0, 1.0), (1, 0, 0, 1.0)],
                          [(0, 1)], [])
    with pytest.raises(ParseError, match="non-finite sphere center"):
        mm.validate()
