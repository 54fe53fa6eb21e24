"""The bulk readers and writers of mesh_io against the per-line ones in
oracles, and the one-call OFF and .ma reads against the per-block parser.

Writers must give the same bytes, also across the blocks of rows they
format at once.  Readers must give the same arrays, or raise the same
exception class with the same message, on valid files and on files mutated
token by token and line by line: dropped, extra and bad tokens, non-finite
and oddly spelled numbers, other line ends and separators, comments and
blank lines, k-gons, bad indices, records past the counts and truncated
text.  Where the one-call read takes a file, its arrays must be the
parser's bit for bit; no reader may let a warning escape.

Example counts follow the active hypothesis profile where it asks for more.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from segmat import mesh_io
from segmat.mesh_io import MedialMesh, SurfaceMesh

SPECIAL = [-0.0, 0.0, 5e-324, -5e-324, 1e-300, 1e308, -1e308, 1.5, -2.25,
           float("nan"), float("inf"), float("-inf"), 123456789.123]
floats = st.one_of(st.sampled_from(SPECIAL), st.floats(width=64))
ints = st.one_of(st.integers(-2**63, 2**63 - 1), st.integers(-40, 40))


@st.composite
def arrays(draw, width, elements, dtype):
    rows = draw(st.lists(st.tuples(*[elements] * width), max_size=12))
    return np.array(rows, dtype=dtype).reshape(-1, width)


def examples(n):
    """n examples, or the active profile's count where that is larger."""
    return max(n, settings().max_examples)


def same_bytes(path, write):
    """write(module, path) with the bulk writers and with the oracle's."""
    write(mesh_io, path)
    new = path.read_bytes()
    write(oracles, path)
    assert new == path.read_bytes()


@settings(max_examples=examples(80))
@given(vertices=arrays(3, floats, float), faces=arrays(3, ints, np.int64),
       labels=st.lists(ints, min_size=12, max_size=12), suffix=st.sampled_from([".off", ".obj"]))
def test_surface_ply_and_label_writers_give_the_oracle_bytes(
        tmp_path_factory, vertices, faces, labels, suffix):
    mesh = SurfaceMesh(vertices, faces)
    if suffix == ".obj":
        # OBJ adds 1 to every index, so keep clear of the int64 edge
        mesh.faces = np.clip(mesh.faces, -2**62, 2**62)
    path = tmp_path_factory.mktemp("w") / "m"
    same_bytes(path.with_suffix(suffix), lambda io, p: io.save_surface(mesh, p))
    labels = labels[:len(faces)]
    for lab in (labels, np.array(labels, dtype=np.int64)):
        same_bytes(path.with_suffix(".ply"), lambda io, p: io.save_colored_mesh(mesh, lab, p))
        same_bytes(path.with_suffix(".txt"), lambda io, p: io.save_labels(mesh, p, lab))
        same_bytes(path.with_suffix(".txt"), lambda io, p: io.save_point_labels(p, lab))


@settings(max_examples=examples(60))
@given(spheres=arrays(4, floats, float), edges=arrays(2, ints, np.intp),
       faces=arrays(3, ints, np.intp))
def test_medial_writer_gives_the_oracle_bytes(tmp_path_factory, spheres, edges, faces):
    mm = MedialMesh(spheres, edges, faces, np.zeros(0, dtype=np.intp))
    same_bytes(tmp_path_factory.mktemp("w") / "m.ma",
               lambda io, p: io.save_medial_mesh(mm, p))


@pytest.mark.parametrize("rows", [0, 1, 1023, 1024, 1025, 2049])
def test_writers_give_the_oracle_bytes_across_blocks(tmp_path, rows):
    # the writers format mesh_io._BLOCK rows with one template at a time
    rng = np.random.default_rng(rows)
    vertices = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-12, 12, (rows, 3))
    faces = rng.integers(-5, 3 * rows + 5, (rows, 3))
    labels = rng.integers(-40, 40, rows)
    mesh = SurfaceMesh(vertices, faces)
    mm = MedialMesh(np.column_stack([vertices, np.abs(vertices[:, 0])]),
                    faces[:, :2], faces, np.zeros(0, dtype=np.intp))
    for name, write in [
            ("m.off", lambda io, p: io.save_surface(mesh, p)),
            ("m.obj", lambda io, p: io.save_surface(mesh, p)),
            ("m.ma", lambda io, p: io.save_medial_mesh(mm, p)),
            ("m.ply", lambda io, p: io.save_colored_mesh(mesh, labels, p)),
            ("m.labels.txt", lambda io, p: io.save_labels(mesh, p, labels)),
            ("m.point.txt", lambda io, p: io.save_point_labels(p, labels.tolist()))]:
        same_bytes(tmp_path / name, write)
        assert (tmp_path / name).read_text().count("\n") >= rows


# tokens that mutations insert: odd spellings of numbers, words the formats
# use, indices in and out of range, and things no reader takes
POOL = ["nan", "inf", "-inf", "Infinity", "1_0", "١", "٣.5", "x",
        "3.5", "-1", "0", "1", "2", "3", "4", "5", "7", "+2", "007", "-0",
        "1e999", "-1e999", "99999999999999999999", "-99999999999999999999",
        "9223372036854775807", "1/2/3", "2//1", "v", "e", "f", "vn", "OFF",
        "#", "# note", "0.5e1", "1e-320"]
SEPARATORS = ["\t", "\x0b", "\x0c", "\x1c", "  ", "　"]


@st.composite
def mutated(draw, text):
    """text after a few token, line and line-end mutations."""
    lines = text.split("\n")
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(["drop-token", "add-token", "swap-token",
                                   "drop-line", "copy-line", "append-line", "blank",
                                   "comment", "separator", "truncate"]))
        i = draw(st.integers(0, max(len(lines) - 1, 0)))
        if not lines:
            lines = [""]
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens)))
        if op == "drop-token" and tokens:
            del tokens[min(j, len(tokens) - 1)]
        elif op == "add-token":
            tokens.insert(j, draw(st.sampled_from(POOL)))
        elif op == "swap-token" and tokens:
            tokens[min(j, len(tokens) - 1)] = draw(st.sampled_from(POOL))
        elif op == "drop-line":
            del lines[i]
            continue
        elif op == "copy-line":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
            continue
        elif op == "append-line":
            lines.append(lines[i])
            continue
        elif op == "blank":
            lines.insert(i, draw(st.sampled_from(["", "   ", "\t"])))
            continue
        elif op == "comment":
            tokens.append(draw(st.sampled_from(["# c", "#", "#x 1 2"])))
        elif op == "separator":
            lines[i] = lines[i].replace(" ", draw(st.sampled_from(SEPARATORS)), 1)
            continue
        elif op == "truncate":
            text = "\n".join(lines)
            lines = text[:draw(st.integers(0, len(text)))].split("\n")
            continue
        lines[i] = " ".join(tokens)
    text = "\n".join(lines)
    return text.replace("\n", draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])))


def corners(draw, n, k):
    index = st.integers(-1, n) if draw(st.booleans()) else st.integers(0, max(n - 1, 0))
    return [draw(index) for _ in range(k)]


@st.composite
def off_texts(draw):
    n = draw(st.integers(0, 6))
    faces = [corners(draw, n, draw(st.sampled_from([3, 3, 3, 4, 5, 2])))
             for _ in range(draw(st.integers(0, 5)))]
    header = draw(st.sampled_from(["OFF\n{} {} 0", "OFF {} {} 0", "OFF\n# c\n{} {}"]))
    lines = [header.format(n, len(faces))]
    lines += [" ".join(draw(st.sampled_from(["0", "1", "-2.5", "1e3", "0.125"]))
                       for _ in range(3)) for _ in range(n)]
    extra = draw(st.sampled_from(["", "", " 255 0 0", " 0.5"]))
    lines += [" ".join(map(str, [len(f), *f])) + extra for f in faces]
    return draw(mutated("\n".join(lines) + "\n"))


@st.composite
def obj_texts(draw):
    n = draw(st.integers(0, 6))
    lines = [f"v {i} {i % 2} 0.5" for i in range(n)]
    for _ in range(draw(st.integers(0, 5))):
        f = [v + 1 for v in corners(draw, n, draw(st.sampled_from([3, 3, 4, 5, 2])))]
        tail = draw(st.sampled_from(["", "", "/1", "//2", "/1/1"]))
        lines.insert(draw(st.integers(0, len(lines))), "f " + " ".join(f"{v}{tail}" for v in f))
    lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(
        ["vn 0 0 1", "g part", "o thing", "s off"])))
    return draw(mutated("\n".join(lines) + "\n"))


@st.composite
def ma_texts(draw):
    n = draw(st.integers(0, 6))
    lines = [f"v {i} 0 {i % 3} {draw(st.sampled_from(['1', '0.5', '0', '-0.0']))}"
             for i in range(n)]
    for _ in range(draw(st.integers(0, 4))):
        kind, k = draw(st.sampled_from([("e", 2), ("f", 3)]))
        lines.insert(draw(st.integers(0, len(lines))),
                     " ".join([kind, *map(str, corners(draw, n, k))]))
    return draw(mutated("\n".join(lines) + "\n"))


@st.composite
def label_texts(draw):
    labels = draw(st.lists(st.integers(-5, 40), max_size=8))
    return draw(mutated("\n".join(map(str, labels)) + "\n"))


@st.composite
def xyz_texts(draw):
    width = draw(st.sampled_from([3, 4]))
    rows = [" ".join(str(i + j) for j in range(width))
            for i in range(draw(st.integers(0, 5)))]
    return draw(mutated("\n".join(rows) + "\n"))


def outcome(load, path):
    """The arrays load returns, or the class and message it raises."""
    try:
        got = load(path)
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(got, SurfaceMesh):
        got = (got.vertices, got.faces)
    elif isinstance(got, MedialMesh):
        got = (got.spheres, got.edges, got.faces, got.standalone)
    else:
        got = (got,)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in got]


def same_outcome(path, text, old, new):
    path.write_bytes(text.encode("utf-8"))
    assert outcome(new, str(path)) == outcome(old, str(path))


TRIANGLE = SurfaceMesh(np.eye(3), [(0, 1, 2)] * 3)


@pytest.mark.parametrize("name, texts, old, new", [
    ("m.off", off_texts(), oracles.load_surface, mesh_io.load_surface),
    ("m.obj", obj_texts(), oracles.load_surface, mesh_io.load_surface),
    ("m.ma", ma_texts(), oracles.load_medial_mesh, mesh_io.load_medial_mesh),
    ("m.xyz", xyz_texts(), oracles.load_xyz, mesh_io.load_xyz),
    ("m.labels.txt", label_texts(), oracles.load_labels, mesh_io.load_labels),
    ("m.labels.txt", label_texts(), lambda p: oracles.load_labels(p, TRIANGLE),
     lambda p: mesh_io.load_labels(p, TRIANGLE)),
], ids=["off", "obj", "ma", "xyz", "labels", "labels-for-a-mesh"])
@settings(max_examples=examples(150))
@given(data=st.data())
def test_readers_match_the_oracle_on_mutated_files(tmp_path_factory, name, texts,
                                                   old, new, data):
    path = tmp_path_factory.mktemp("r") / name
    same_outcome(path, data.draw(texts), old, new)


@pytest.mark.parametrize("name, text", [
    ("m.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 99999999999999999999\n"),
    ("m.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n3 0 2 1\n"),
    ("m.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n-2 x 0 1 2\n"),
    ("m.off", "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n-1 x\n"),
    ("m.off", "OFF\n4 1\n0 0 0\n1 0 0\n1 1 0\n0 1 0\n4 0 1 2 1\n"),
    ("m.off", "OFF\n3 2 0\n0 0 0 1\n1 0 0\n0 1 0\n3 0 1 2 0.5 0.5\n0 \n"),
    ("m.off", "OFF\n1e3 1\n"),
    ("m.off", "OFF\n99999999999999999999 1\n0 0 0\n"),
    ("m.off", "OFF\n3 1 0\r0 0 0\r1 0 0\r0 1 0\r3 0 1 2\r"),
    ("m.off", "OFF\n3 1 0\n0\x0b0 0\n1 0 0\n0 1 0\n3 0 1 2\n"),
    ("m.off", "﻿OFF\n0 0 0\n"),
    ("m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 99999999999999999999\n"),
    ("m.obj", "v 0 0 0\nf 1 x 0\nf 0 1\n"),
    ("m.obj", "v 0 0 0\nf 0 x\n"),
    ("m.obj", "f 1/1 2/2 3/3 4/4\nv 0 0 0\nv 1 0 0\nv 0 1 0\nv 1 1 0\n"),
    ("m.obj", "v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3 2\nf\n"),
    ("m.ma", "v 0 0 0 1\ne 0 99999999999999999999\n"),
    ("m.ma", "f 0 1 2\ne 0 0\nv 0 0 0 1\n"),
    ("m.ma", "v 0 0 0 -0.5\nq 1\n"),
    ("m.ma", "v 0 0 0 1\nv 0 0 0 nan\nv 0 0 0 -1\n"),
    ("m.ma", "v 0 0 0 1\nv 1 0 0 1\ne 1_0 1\n"),
    ("m.xyz", "1 2 3\n1 2 x\n1 2 3 4\n"),
    ("m.xyz", "1 2 3 4 5\n"),
    ("m.xyz", "# nothing\n\n"),
    ("m.labels.txt", "1\n 2 \n\n3 4\n"),
    ("m.labels.txt", "1\n99999999999999999999\nx\n"),
    ("m.labels.txt", "# 1\n"),
])
def test_readers_match_the_oracle_on_edge_cases(tmp_path, name, text):
    old, new = ((oracles.load_surface, mesh_io.load_surface) if name[-4:] in (".off", ".obj")
                else (oracles.load_medial_mesh, mesh_io.load_medial_mesh) if name.endswith(".ma")
                else (oracles.load_xyz, mesh_io.load_xyz) if name.endswith(".xyz")
                else (oracles.load_labels, mesh_io.load_labels))
    same_outcome(tmp_path / name, text, old, new)


@pytest.mark.parametrize("lines", [3000, 2500])
def test_readers_match_the_oracle_across_blocks(tmp_path, lines):
    # errors and k-gons past the first block of lines the readers take at once
    vertices = "".join(f"{i} {i % 7} 0.5\n" for i in range(lines))
    faces = "".join(f"4 {i} {i + 1} {i + 2} {i + 3}\n" for i in range(lines - 3))
    text = f"OFF\n{lines} {lines - 3} 0\n{vertices}{faces}"
    same_outcome(tmp_path / "m.off", text, oracles.load_surface, mesh_io.load_surface)
    same_outcome(tmp_path / "m.off", text.replace(f"4 {lines - 9} ", "3 -1 ", 1),
                 oracles.load_surface, mesh_io.load_surface)
    obj = ("".join(f"f {i + 1} {i + 2} {i + 3} {i + 4}\n" for i in range(lines - 3))
           + "".join(f"v {i} 0 1\n" for i in range(lines)))
    same_outcome(tmp_path / "m.obj", obj, oracles.load_surface, mesh_io.load_surface)
    same_outcome(tmp_path / "m.obj", obj + f"f 1 2 {lines + 5}\n",
                 oracles.load_surface, mesh_io.load_surface)


# number spellings the one-call read and the parser must read alike where
# both take them, or that only the parser takes
SPELLINGS = ["1e3", "+.5", "5.", "-0", "-0.0", "0.5e1", "1e-320", "1E+2", "1_0",
             "١", "٣.5", "Infinity", "1e999", "nan"]
finite = st.floats(allow_nan=False, allow_infinity=False)


def numbers(draw, count):
    return [draw(st.one_of(finite.map(repr), finite.map(lambda x: "%.9g" % x)))
            for _ in range(count)]


def corners_of(draw, n, k):
    return list(map(str, draw(st.permutations(range(n)))[:k]))


def respelled(draw, lines, first):
    """lines, now and then with one number (from token first of a line on)
    spelled otherwise, and now and then mutated."""
    if draw(st.booleans()):
        i = draw(st.integers(0, len(lines) - 1))
        tokens = lines[i].split(" ")
        j = draw(st.integers(first, len(tokens) - 1))
        tokens[j] = draw(st.sampled_from(
            SPELLINGS + [f"+{tokens[j]}", f"00{tokens[j]}", f"{tokens[j]}.0"]))
        lines[i] = " ".join(tokens)
    text = "\n".join(lines) + "\n"
    return draw(mutated(text)) if draw(st.integers(0, 3)) == 0 else text


@st.composite
def clean_off_texts(draw):
    """OFF text as the writers give it, now and then respelled or mutated."""
    n = draw(st.integers(3, 7))
    faces = [corners_of(draw, n, 3) for _ in range(draw(st.integers(0, 5)))]
    body = [" ".join(numbers(draw, 3)) for _ in range(n)]
    body += [" ".join(["3", *f]) for f in faces]
    return "OFF\n" + respelled(draw, [f"{n} {len(faces)} 0"] + body, 0)


@st.composite
def clean_ma_texts(draw):
    """.ma text as save_medial_mesh writes it, its v, e and f runs in any
    order, now and then respelled or mutated."""
    n = draw(st.integers(3, 7))
    spheres = [" ".join(["v", *numbers(draw, 3), draw(st.sampled_from(
        ["1", "0.5", "0", "-0.0", "2e-3"]))]) for _ in range(n)]
    runs = [spheres] + [[" ".join([kind, *corners_of(draw, n, k)])
                         for _ in range(draw(st.integers(0, 4)))]
                        for kind, k in (("e", 2), ("f", 3))]
    return respelled(draw, sum(draw(st.permutations(runs)), []), 1)


def validated(mesh):
    mesh.validate()
    return mesh


ONE_CALL = {  # suffix: the one-call read, what the reader makes of what it
    # takes, the per-block parser and the reader
    ".off": (mesh_io._clean_off, validated,
             lambda p: validated(mesh_io._parse_off(p)), mesh_io.load_surface),
    ".ma": (mesh_io._clean_ma, lambda tables: MedialMesh.build(*tables),
            mesh_io._parse_ma, mesh_io.load_medial_mesh)}


def one_call_matches_the_parser(path, text) -> bool:
    """Whether the one-call read takes text; where it does the arrays are
    the parser's, and the reader always gives what the parser gives.  No
    warning escapes."""
    path.write_bytes(text.encode("utf-8"))
    clean, finish, parse, load = ONE_CALL[path.suffix]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        taken = clean(str(path))
        want = outcome(parse, str(path))
        assert outcome(load, str(path)) == want
        if taken is not None:
            assert outcome(lambda p: finish(taken), str(path)) == want
    assert not [str(w.message) for w in caught]
    return taken is not None


@pytest.mark.parametrize("name, texts", [
    ("m.off", off_texts()), ("m.off", clean_off_texts()),
    ("m.ma", ma_texts()), ("m.ma", clean_ma_texts())],
    ids=["off", "clean-off", "ma", "clean-ma"])
@settings(max_examples=examples(150))
@given(data=st.data())
def test_the_one_call_read_matches_the_parser(tmp_path_factory, name, texts, data):
    path = tmp_path_factory.mktemp("r") / name
    one_call_matches_the_parser(path, data.draw(texts))


OFF = "OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n"
MA = "v 0 0 0 1\nv 1 0 0 1\nv 0 1 0 1\ne 0 1\ne 1 2\nf 0 1 2\n"


@pytest.mark.parametrize("name, text, taken", [
    ("m.off", OFF, True),
    ("m.off", OFF.replace("\n", "\r\n"), True),
    ("m.off", OFF.replace("\n", "\r"), True),
    ("m.off", OFF.replace("0 0 0\n", "0\x0b0\x0c0\n").replace("3 0", "3\x1c0"), True),
    ("m.off", OFF.replace("1 0 0\n", "1 0 0\n\n"), False),
    ("m.off", OFF + "\n\n", True),
    ("m.off", OFF.replace("3 1 0", "3 0 0").replace("3 0 1 2\n", ""), False),
    ("m.off", "OFF\n0 0 0\n", False),
    ("m.off", OFF.replace("3 1 0", "3 1 0 # c"), False),
    ("m.off", OFF.replace("1 0 0\n", "# c\n1 0 0\n"), False),
    ("m.off", OFF.replace("0 1 0\n", "0 1 0 # c\n"), False),
    ("m.off", "OFF 3 1 0\n" + OFF[10:], False),
    ("m.off", OFF.replace("OFF", "OFF 3 1 0"), False),
    ("m.off", OFF.replace("3 0 1 2", "4 0 1 2 0"), False),
    ("m.off", OFF.replace("3 0 1 2", "4 0 1 2"), False),
    ("m.off", OFF.replace("3 0 1 2", "3 0 1 2 255 0 0"), False),
    ("m.off", OFF.replace("1 0 0\n", "1 0 0 1\n"), False),
    ("m.off", OFF.replace("1 0 0", "1_0 0 0"), False),
    ("m.off", OFF.replace("1 0 0", "١ 0 0"), False),
    ("m.off", OFF.replace("3 0 1 2", "3 0 1 2.0"), False),
    ("m.off", OFF.replace("3 0 1 2", "3.0 0 1 2"), False),
    ("m.off", OFF.replace("3 0 1 2", "3 0 1 ٢"), False),
    ("m.off", OFF.replace("3 0 1 2", "3 0 1 1_0"), False),
    ("m.off", OFF.replace("3 1 0", "1_0 1 0"), False),
    ("m.off", OFF + "3 0 2 1\n", False),
    ("m.off", OFF.replace("3 0 1 2\n", ""), False),
    ("m.off", OFF[:-9], False),
    ("m.off", "OFF\n99999999999999999999 1\n0 0 0\n", False),
    # counts within int64 whose vertex array would not fit in memory
    ("m.off", "OFF\n10000000000 1 0\n0 0 0\n", False),
    ("m.off", "OFF\n100000000000000000 1 0\n0 0 0\n", False),
    ("m.off", "OFF\n3 99999999999999999999\n0 0 0\n1 0 0\n0 1 0\n", False),
    ("m.off", OFF.replace("3 0 1 2", "3 0 1 99999999999999999999"), False),
    ("m.off", OFF.replace("3 0 1 2", "3 0 1 0"), False),
    ("m.off", OFF.replace("3 0 1 2", "3 0 1 3"), False),
    ("m.off", OFF.replace("1 0 0", "inf 0 0"), False),
    ("m.off", OFF.replace("1 0 0", "1 0\x00 0"), False),
    ("m.ma", MA, True),
    ("m.ma", MA.replace("\n", "\r\n"), True),
    ("m.ma", MA.replace("e 0 1\ne 1 2\n", "") + "e 0 1\n", True),
    ("m.ma", MA[:-1], True),
    ("m.ma", MA.replace("0 0 0 1", "0\x0b0\x0c0\x1c1"), True),
    ("m.ma", "v 0 0 0 1\n", True),
    ("m.ma", "", False),
    ("m.ma", MA + "\n", False),
    ("m.ma", MA + "e 0 2\n", False),
    ("m.ma", "e 0 1\n" + MA, False),
    ("m.ma", "e 0 1\n" + MA.replace("e 0 1\ne 1 2\n", ""), True),
    ("m.ma", "v 0 0 0 1\nv 1 0 0 1\nv 0 1 0 1\nv 1 1 1 1\ne 0 1\nf 0 1 2\ne 2 3\n", False),
    ("m.ma", "vv" + MA[1:], False),
    ("m.ma", "v\t" + MA[2:], False),
    ("m.ma", MA.replace("v 1 0 0 1\n", "v 1 0 0 1 # c\n"), False),
    ("m.ma", "# c\n" + MA, False),
    ("m.ma", MA.replace("e 0 1", "e 0 1 2"), False),
    ("m.ma", MA.replace("e 0 1", "e  0 1\n\n"), False),
    ("m.ma", MA.replace("v 1 0 0 1", "vv 1 0 0 1"), False),
    ("m.ma", MA.replace("v 1 0 0 1", "v\t1 0 0 1"), False),
    ("m.ma", MA.replace("e 0 1", "e 1_0 1"), False),
    ("m.ma", MA.replace("e 0 1", "e 0 ١"), False),
    ("m.ma", MA.replace("e 0 1", "e 0 1.0"), False),
    ("m.ma", MA.replace("e 0 1", "e 0 99999999999999999999"), False),
    ("m.ma", MA.replace("v 1 0 0 1", "v 1_0 0 0 1"), False),
    ("m.ma", MA.replace("v 1 0 0 1", "v 1 0 0 -1"), False),
    ("m.ma", MA.replace("v 1 0 0 1", "v 1 0 0 nan"), False),
    ("m.ma", MA.replace("f 0 1 2", "f 0 1 1"), False),
    ("m.ma", MA.replace("e 1 2", "e 1 3"), False),
    ("m.ma", MA[:-3], False),
])
def test_the_one_call_read_on_edge_cases(tmp_path, name, text, taken):
    assert one_call_matches_the_parser(tmp_path / name, text) is taken
    if name.endswith(".off"):
        same_outcome(tmp_path / name, text, oracles.load_surface, mesh_io.load_surface)
    else:
        same_outcome(tmp_path / name, text, oracles.load_medial_mesh,
                     mesh_io.load_medial_mesh)


@pytest.mark.parametrize("name, text", [
    ("m.off", OFF.replace("OFF", "OFF" + " " * 9000 + "\udcff")),
    ("m.off", OFF.replace("1 0 0", "1 0 \udcff")),
    ("m.ma", MA.replace("v 0 0 0 1", "v 0 0 0 1" + " " * 9000 + "\udcff")),
    ("m.ma", MA.replace("e 1 2", "e 1 \udcff"))],
    ids=["off-header", "off-body", "ma-first-line", "ma-body"])
def test_a_file_that_is_not_utf8_gets_the_parsers_error(tmp_path, name, text):
    # the undecodable byte sits past the first 8 KiB a line read decodes
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    _, _, parse, load = ONE_CALL[path.suffix]
    assert outcome(load, str(path)) == outcome(parse, str(path))
    assert outcome(load, str(path))[0] is UnicodeDecodeError


@pytest.mark.parametrize("rows", [3, 1500])
def test_the_one_call_read_takes_what_the_writers_write(tmp_path, rows):
    rng = np.random.default_rng(rows)
    vertices = rng.normal(size=(rows, 3))
    faces = np.stack([np.arange(rows), np.roll(np.arange(rows), 1),
                      np.roll(np.arange(rows), 2)], axis=1)
    save = [("m.off", lambda p: mesh_io.save_surface(SurfaceMesh(vertices, faces), p)),
            ("m.ma", lambda p: mesh_io.save_medial_mesh(MedialMesh.build(
                np.column_stack([vertices, np.abs(vertices[:, 0])]), faces[:, :2], faces), p))]
    for name, write in save:
        write(tmp_path / name)
        assert one_call_matches_the_parser(tmp_path / name, (tmp_path / name).read_text())
