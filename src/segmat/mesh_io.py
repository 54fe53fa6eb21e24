"""Surface-mesh and medial-mesh file formats.

Surface meshes travel as OFF or OBJ, medial meshes as the text ``.ma``
format (``v x y z r`` / ``e i j`` / ``f i j k`` records, zero-based indices,
``#`` comments), point clouds and skeletons as ``.xyz`` lines of ``x y z``
or ``x y z r``.  In memory a medial mesh is one table in the ``.ma``
layout: an (n, 4) array of sphere rows x y z r and sorted (E, 2) edge and
(F, 3) face index arrays.  Per-face and per-point labels are one integer per line.
Colored surface output is ASCII PLY with per-face red/green/blue taken from
a fixed 32-entry palette (label k uses entry k mod 32).

All writers emit floats with 9 significant digits, so load(save(x)) is exact
once coordinates are representable at that precision; they format a block
of rows with one ``%`` at a time.  Readers convert a block of records at a
time; a parse error names the first bad ``file:line``.

OFF and ``.ma`` files laid out as the writers write them take a one-call
read first, one np.loadtxt per block of records: an ``OFF`` line, a counts
line, nv lines of 3 numbers and nf lines ``3 i j k``; or one run of lines
per ``.ma`` record kind.  Any other file, one with a comment, a k-gon or a
fault, or a number np.loadtxt does not take (it takes fewer spellings than
``float()`` and ``int()``, no ``1_0`` and no non-ASCII digits, and reads
those it takes to the same value) goes to the per-block parser, so the
arrays and messages are the parser's either way.
"""

from __future__ import annotations

import math
import numbers
import operator
import re
import warnings
from dataclasses import dataclass, field
from itertools import islice

import numpy as np


class ParseError(ValueError):
    """Malformed input file (bad arity, bad index, unparsable token)."""


class NegativeRadius(ParseError):
    """A medial sphere radius is negative."""


class EmptyInput(ValueError):
    """An input with nothing to work on: no medial elements, no points."""


class LengthMismatch(ValueError):
    """A label file does not match the mesh face count."""


# 32 visually distinct face colors; label k maps to PALETTE[k % 32].
PALETTE: tuple[tuple[int, int, int], ...] = (
    (230, 25, 75), (60, 180, 75), (255, 225, 25), (0, 130, 200),
    (245, 130, 48), (145, 30, 180), (70, 240, 240), (240, 50, 230),
    (210, 245, 60), (250, 190, 212), (0, 128, 128), (220, 190, 255),
    (170, 110, 40), (255, 250, 200), (128, 0, 0), (170, 255, 195),
    (128, 128, 0), (255, 215, 180), (0, 0, 128), (128, 128, 128),
    (255, 255, 255), (0, 0, 0), (233, 150, 122), (102, 205, 170),
    (72, 61, 139), (189, 183, 107), (205, 92, 92), (32, 178, 170),
    (186, 85, 211), (154, 205, 50), (244, 164, 96), (176, 196, 222),
)


# lines read and rows written at a time, an x y z row with 9 digits, and
# the palette as PLY text
_BLOCK = 1024
_XYZ = "%.9g %.9g %.9g\n"
_COLORS = np.array([f"{r} {g} {b}" for r, g, b in PALETTE], dtype=object)
# the numbers of each .ma record kind, and where a run of its lines ends
_MA_ROWS = {"v": (float, 4), "e": (np.int64, 2), "f": (np.int64, 3)}
_RUN_END = {kind: re.compile(f"\n(?!{kind} )") for kind in _MA_ROWS}


@dataclass
class SurfaceMesh:
    """Triangle mesh: (n, 3) vertex coordinates and (F, 3) face indices."""

    vertices: np.ndarray
    faces: np.ndarray
    _cache: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=int).reshape(-1, 3)

    def validate(self) -> None:
        """Array checks, run once and cached, as the derived arrays are."""
        if "valid" not in self._cache:
            if not np.isfinite(self.vertices).all():
                raise ParseError("non-finite vertex coordinate")
            with np.errstate(over="ignore"):
                if not math.isfinite(self.diagonal()):
                    raise ParseError("vertex coordinates span a non-finite diagonal")
            if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
                raise ParseError("face index out of range")
            # each corner against the one before it covers all three pairs
            if (self.faces == np.roll(self.faces, 1, axis=1)).any():
                raise ParseError("face with repeated vertices")
            self._cache["valid"] = True

    def face_centroids(self) -> np.ndarray:
        if "centroids" not in self._cache:
            # mean(axis=1)'s sum and division, without its +0.0 start, which
            # only turns a sum of three -0.0 into +0.0
            v, f = self.vertices, self.faces
            self._cache["centroids"] = (v[f[:, 0]] + v[f[:, 1]] + v[f[:, 2]]) / 3
        return self._cache["centroids"]

    def face_areas(self) -> np.ndarray:
        if "areas" not in self._cache:
            tri = self.vertices[self.faces]
            c = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
            self._cache["areas"] = 0.5 * np.linalg.norm(c, axis=1)
        return self._cache["areas"]

    def face_normals(self) -> np.ndarray:
        if "normals" not in self._cache:
            tri = self.vertices[self.faces]
            c = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
            n = np.linalg.norm(c, axis=1)
            n[n == 0.0] = 1.0
            self._cache["normals"] = c / n[:, None]
        return self._cache["normals"]

    def dual_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacent face pairs and the mesh edge each pair shares.

        Returns (pairs, shared) where pairs is (k, 2) face indices with
        pairs[:, 0] < pairs[:, 1] and shared is (k, 2) vertex indices with
        shared[:, 0] <= shared[:, 1], rows sorted by pair, then by edge.  At
        a non-manifold edge every face pair along it is adjacent.  Face
        indices must lie in range, as ``validate`` checks.
        """
        if "dual" not in self._cache:
            # side s runs from corner s % 3 of face s // 3 to the next
            # corner; its key lo * nv + hi orders sides by their sorted
            # vertex pair, and a stable sort by key groups the faces that
            # share each edge, each group in face order
            nv = len(self.vertices)
            after = self.faces[:, [1, 2, 0]]
            key = np.minimum(self.faces, after)
            key *= nv
            key += np.maximum(self.faces, after)
            key = key.ravel()
            order = np.argsort(key, kind="stable")
            key = key[order]
            first = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
            sizes = np.diff(np.r_[first, len(key)])
            rows_i, rows_j = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
            for size in np.unique(sizes[sizes > 1]):
                i, j = np.triu_indices(size, k=1)
                start = first[sizes == size][:, None]
                rows_i.append((start + i).ravel())
                rows_j.append((start + j).ravel())
            rows_i, rows_j = np.concatenate(rows_i), np.concatenate(rows_j)
            a, b = order[rows_i] // 3, order[rows_j] // 3
            pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
            edge = key[rows_i]
            shared = np.stack(np.divmod(edge, nv), axis=1)
            order = np.lexsort((edge, pairs[:, 1], pairs[:, 0]))
            self._cache["dual"] = (pairs[order], shared[order])
        return self._cache["dual"]

    def diagonal(self) -> float:
        if len(self.vertices) == 0:
            return 0.0
        return float(np.linalg.norm(self.vertices.max(axis=0) - self.vertices.min(axis=0)))


def _rows(records, width: int, what: str) -> np.ndarray:
    """records as a (k, width) float array."""
    try:
        rows = np.array(records, dtype=float)
    except OverflowError:
        raise ParseError(f"{what} number beyond the float range") from None
    if rows.size and rows.shape[1:] != (width,):
        raise ParseError(f"{what} rows need {width} numbers each")
    return rows.reshape(-1, width)


def _index_rows(records, width: int, n: int, what: str, repeat: str) -> np.ndarray:
    """Index records over n spheres as a (k, width) int array, rows sorted.

    The first record that is non-integral, out of range or repeats an
    index raises ParseError, checked in that order.
    """
    rows = _rows(records, width, what)
    whole = (np.isfinite(rows) & (rows == np.floor(rows))).all(axis=1)
    outside, repeated = _index_faults(rows, n)
    _raise_first(None, None, [
        (~whole, lambda i: f"non-integral {what} index: {tuple(rows[i].tolist())}"),
        (outside, lambda i: f"{what} index out of range: {tuple(map(int, rows[i].tolist()))}"),
        (repeated, lambda i: f"{repeat}: {tuple(map(int, rows[i].tolist()))}")])
    return np.sort(rows, axis=1).astype(np.intp)


def _index_faults(rows, n) -> tuple[np.ndarray, np.ndarray]:
    """Index rows over n items: those with an index outside 0..n-1, and
    those that repeat an index."""
    ordered = np.sort(rows, axis=1)
    return (((rows < 0) | (rows >= n)).any(axis=1),
            (ordered[:, 1:] == ordered[:, :-1]).any(axis=1))


def _unique_rows(rows) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0, return_inverse=True) of a 2-D array, by one
    lexsort: the distinct rows in lexicographic order and the inverse."""
    order = np.lexsort(rows.T[::-1])
    ordered = rows[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


@dataclass(eq=False)
class MedialMesh:
    """Medial mesh: spheres plus edge (cone) and triangle (slab) elements.

    One table, built once by :meth:`build`: ``spheres`` is (n, 4) float with
    rows x y z r, ``edges`` (E, 2) and ``faces`` (F, 3) int with every row
    sorted and the rows in lexicographic order.  ``edges`` holds every side
    of every face; ``standalone`` indexes the edges that belong to no face.
    """

    spheres: np.ndarray
    edges: np.ndarray
    faces: np.ndarray
    standalone: np.ndarray

    @classmethod
    def build(cls, spheres, edges, faces) -> "MedialMesh":
        """Canonical mesh from sphere rows x y z r and index records."""
        spheres = _rows(spheres, 4, "sphere")
        negative = spheres[:, 3] < 0.0
        if negative.any():
            raise NegativeRadius(
                f"negative sphere radius {float(spheres[np.argmax(negative), 3])}")
        n = len(spheres)
        given = _index_rows(edges, 2, n, "edge", "degenerate edge")
        faces = _unique_rows(
            _index_rows(faces, 3, n, "face", "face with repeated vertices"))[0]
        sides = faces[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2)
        edges, inverse = _unique_rows(np.concatenate([sides, given]))
        in_face = np.zeros(len(edges), dtype=bool)
        in_face[inverse[:len(sides)]] = True
        return cls(spheres, edges, faces, np.flatnonzero(~in_face))

    def validate(self) -> None:
        """Every sphere center and radius, and the diagonal, must be finite."""
        if not np.isfinite(self.centers()).all():
            raise ParseError("non-finite sphere center")
        if not np.isfinite(self.radii()).all():
            raise ParseError("non-finite sphere radius")
        with np.errstate(over="ignore"):
            if not math.isfinite(self.diagonal()):
                raise ParseError("spheres span a non-finite diagonal")

    def centers(self) -> np.ndarray:
        return self.spheres[:, :3]

    def radii(self) -> np.ndarray:
        return self.spheres[:, 3]

    def diagonal(self) -> float:
        """Diagonal of the bounding box of the spheres (centers +/- radii)."""
        if len(self.spheres) == 0:
            return 0.0
        c = self.centers()
        r = self.radii()[:, None]
        return float(np.linalg.norm((c + r).max(axis=0) - (c - r).min(axis=0)))


class _Text:
    """A text file split at line feeds after text mode's newline translation,
    as file iteration splits it, less "#" comments if asked.  For each line
    with a token: ``number`` (1-based), ``count`` of tokens, ``begin`` offset."""

    def __init__(self, path, comments=True):
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        if comments and "#" in text:
            text = re.sub("#[^\n]*", "", text)
        lines = text.split("\n")
        count = np.fromiter(map(len, map(str.split, lines)), np.intp, len(lines))
        ends = np.cumsum(np.fromiter(map(len, lines), np.intp, len(lines)) + 1)
        self.text, self.number = text, np.flatnonzero(count) + 1
        self.count = count[self.number - 1]
        self.begin = np.append(np.r_[0, ends][self.number - 1], len(text))

    def line(self, row) -> str:
        return self.text[self.begin[row]:self.begin[row + 1]].strip()

    def blocks(self, first=0, stop=None):
        """(first line, tokens, first token of each line, token counts) for
        lines first..stop-1, _BLOCK at a time, or one empty block."""
        stop = len(self.count) if stop is None else stop
        for a in range(first, max(stop, first + 1), _BLOCK):
            count = self.count[a:max(min(a + _BLOCK, stop), a)]
            yield (a, self.text[self.begin[a]:self.begin[a + len(count)]].split(),
                   np.cumsum(count) - count, count)


def _numbers(tokens, kind):
    """tokens read with kind (float or int), and a code per token: 1 where
    kind rejects it (value 0), 2 for an int beyond int64 (value clipped).
    NumPy reads each str as kind does, bit for bit (the gate tests check)."""
    values = np.zeros(len(tokens), np.int64 if kind is int else float)
    code = np.zeros(len(tokens), np.int8)
    try:
        return np.array(tokens, values.dtype), code
    except (ValueError, OverflowError):
        pass
    for i, token in enumerate(tokens):
        try:
            value = values[i] = kind(token)
        except ValueError:
            code[i] = 1
        except OverflowError:
            code[i], values[i] = 2, -2**63 if value < 0 else 2**63 - 1
    return values, code


def _pick(tokens, at) -> list:
    if len(at) and at[-1] - at[0] == len(at) - 1:  # contiguous
        return tokens[at[0]:at[-1] + 1]
    return list(map(tokens.__getitem__, at.tolist()))


def _spans(length):
    """Each item's run, and its place in it, for runs of these lengths."""
    run = np.repeat(np.arange(len(length)), length)
    return run, np.arange(len(run)) - (np.cumsum(length) - length)[run]


def _table(tokens, start, whole, first, width, kind):
    """Tokens first..first+width-1 of the lines in whole, read by kind, as
    rows (0 on other lines), and the lines with a token kind rejects."""
    at = (start[whole][:, None] + np.arange(first, first + width)).reshape(-1)
    read, code = _numbers(_pick(tokens, at), kind)
    values = np.zeros((len(whole), width), read.dtype)
    values[whole] = read.reshape(-1, width)
    bad = np.zeros(len(whole), dtype=bool)
    bad[whole] = (code.reshape(-1, width) == 1).any(axis=1)
    return values, bad


def _raise_first(path, number, checks) -> None:
    """Raise for the earliest row failing a check (mask, message[, class]);
    on it the first check listed wins.  message is text or a function of the
    row, led by path and the row's line number when path is given."""
    found = min(((int(np.argmax(c[0])), i) for i, c in enumerate(checks)
                 if c[0].any()), default=None)
    if found is not None:
        row, (_, message, *error) = found[0], checks[found[1]]
        where = "" if path is None else f"{path}:{number[row]}: "
        raise (error or [ParseError])[0](
            where + (message(row) if callable(message) else message))


def _polygons(path, number, index, arity, outside, shown, checks=()):
    """Fan triangles (v0, vj, vj+1) of polygons (v0, .., vk) whose arity[i]
    corners follow in turn in index, after the checks and then those for an
    index outside (shown(i) writes index i), too few and repeated corners."""
    poly, j = _spans(np.maximum(arity - 2, 0))
    first = (np.cumsum(arity) - arity)[poly]
    triangles = np.stack([index[first], index[first + j + 1], index[first + j + 2]], axis=1)
    repeated = (triangles == np.roll(triangles, 1, axis=1)).any(axis=1)
    line = _spans(arity)[0]
    _raise_first(path, number, [*checks, (
        np.bincount(line[outside], minlength=len(arity)) > 0, lambda row: "face index "
        f"{shown(np.flatnonzero(outside & (line == row))[0])} out of range"),
        (arity < 3, "face with fewer than 3 vertices"),
        (np.bincount(poly[repeated], minlength=len(arity)) > 0,
         "face with repeated vertices")])
    return triangles


def _loadtxt(lines, dtype) -> np.ndarray:
    """The lines (an open text file, split as text mode splits it, or an
    iterator over it) as one np.loadtxt reads them, at least 2-D, blank
    lines skipped; a warning is raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return np.loadtxt(lines, dtype, comments=None, ndmin=2)


def _clean_off(path) -> SurfaceMesh | None:
    """An OFF file as the writers give it, read with one np.loadtxt per
    record block: an ``OFF`` line, a line of counts nv nf, nv lines of 3
    finite numbers and nf lines ``3 i j k`` of distinct indices below nv,
    and no ``#``.  None for any other file; a blank line in the vertex
    block leaves it short of nv rows."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            head, counts = fh.readline(), fh.readline()
            nv, nf = map(int, counts.split()[:2])
            if head.split() != ["OFF"] or "#" in counts or min(nv, nf) < 0:
                return None
            # the next nv lines, not max_rows=nv: np.loadtxt would size its
            # array by the header before reading a line
            vertices = _loadtxt(islice(fh, nv), float)
            faces = _loadtxt(fh, np.int64)
        except (ValueError, OverflowError, Warning):
            return None
    if (vertices.shape != (nv, 3) or faces.shape != (nf, 4)
            or not np.isfinite(vertices).all() or (faces[:, 0] != 3).any()):
        return None
    faces = faces[:, 1:]
    outside, repeated = _index_faults(faces, nv)
    return None if (outside | repeated).any() else SurfaceMesh(vertices, faces)


def _by_suffix(path, off, obj):
    for suffix, handler in ((".off", off), (".obj", obj)):
        if str(path).lower().endswith(suffix):
            return handler
    raise ParseError(f"{path}: unsupported surface format (expected .off or .obj)")


def load_surface(path) -> SurfaceMesh:
    """Load an OFF or OBJ triangle mesh (quads and fans are split)."""
    mesh = _by_suffix(path, _load_off, _load_obj)(str(path))
    mesh.validate()
    return mesh


def save_surface(mesh: SurfaceMesh, path) -> None:
    """Write OFF or OBJ depending on the file extension."""
    _by_suffix(path, _save_off, _save_obj)(mesh, path)


def _load_off(path) -> SurfaceMesh:
    mesh = _clean_off(path)
    return _parse_off(path) if mesh is None else mesh


def _parse_off(path) -> SurfaceMesh:
    text = _Text(path)
    if not len(text.number):
        raise ParseError(f"{path}: empty OFF file")
    counts, body = text.line(0).split(), 1
    if counts.pop(0) != "OFF":
        raise ParseError(f"{path}:{text.number[0]}: missing OFF header")
    if not counts and len(text.number) < 2:
        raise ParseError(f"{path}:{text.number[0]}: missing element counts")
    if not counts:
        counts, body = text.line(1).split(), 2
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except (ValueError, IndexError):
        nv = nf = -1
    if nv < 0 or nf < 0:
        raise ParseError(f"{path}:{text.number[body - 1]}: malformed element counts")
    rows, vertices, faces = len(text.number) - body, [], []
    for a, tokens, start, count in text.blocks(body, body + min(nv, rows)):
        values, bad = _table(tokens, start, count >= 3, 0, 3, float)
        _raise_first(path, text.number[a:], [
            (count < 3, "vertex needs 3 coordinates"), (bad, "bad vertex coordinate")])
        vertices.append(values)
    if rows < nv:
        raise ParseError(f"{path}: truncated vertex list")
    for a, tokens, start, count in text.blocks(body + nv, body + min(nv + nf, rows)):
        # a line "k i1 .. ik" reads the Python slice tokens[1:1 + k]
        k, k_code = _numbers(_pick(tokens, start), int)
        length = np.where(k >= 0, np.minimum(k, count - 1),
                          np.where(k == -1, 0, np.maximum(count + k, 0)))
        line, j = _spans(length)
        index, code = _numbers(_pick(tokens, start[line] + 1 + j), int)
        malformed = (k_code == 1) | (np.bincount(line[code == 1], minlength=len(k)) > 0)
        faces.append(_polygons(
            path, text.number[a:], index, length, (index < 0) | (index >= nv),
            lambda i: int(tokens[start[line[i]] + 1 + j[i]]),
            [(malformed, "malformed face record"), (length != k, "face arity mismatch")]))
    if rows < nv + nf:
        raise ParseError(f"{path}: truncated face list")
    if rows > nv + nf:
        raise ParseError(f"{path}:{text.number[body + nv + nf]}: record past "
                         f"the {nv} vertices and {nf} faces of the header")
    return SurfaceMesh(np.concatenate(vertices), np.concatenate(faces))


def _load_obj(path) -> SurfaceMesh:
    text = _Text(path)
    slash, parts, beyond = "/" in text.text, [], {}
    for a, tokens, start, count in text.blocks():
        keyword = np.array(_pick(tokens, start), dtype=object)
        # all other record types (vn, vt, g, o, s, usemtl...) are ignored
        f = np.flatnonzero(keyword == "f")
        vertices, bad = _table(tokens, start, (keyword == "v") & (count >= 4), 1, 3, float)
        line, j = _spans(count[f] - 1)
        given = _pick(tokens, start[f][line] + 1 + j)
        heads = [token.split("/", 1)[0] for token in given] if slash else given
        index, code = _numbers(heads, int)
        faulty = np.flatnonzero((code == 1) | (index < 1))
        at = f[line[faulty]]  # the line of each, in order

        def bad_index(row):
            i = faulty[np.searchsorted(at, row)]
            if code[i] == 1:
                return f"bad face index {given[i]!r}"
            return f"face index {int(heads[i])} (OBJ indices are 1-based)"

        _raise_first(path, text.number[a:], [
            ((keyword == "v") & (count < 4), "vertex needs 3 coordinates"),
            (bad, "bad vertex coordinate"),
            (np.bincount(at, minlength=len(count)) > 0, bad_index)])
        done = sum(len(part[1]) for part in parts)
        beyond.update((done + i, int(heads[i])) for i in np.flatnonzero(code == 2).tolist())
        parts.append((vertices[keyword == "v"], index - 1, count[f] - 1, f + a))
    vertices, index, arity, rows = map(np.concatenate, zip(*parts))
    return SurfaceMesh(vertices, _polygons(
        path, text.number[rows], index, arity, index >= len(vertices),
        lambda i: beyond.get(i, int(index[i]) + 1)))


def _write(path, head: str, *parts) -> None:
    """head, then template % row for the rows of each (template, *arrays)
    part, its arrays side by side, one % per block of rows."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for template, *arrays in parts:
            for i in range(0, len(arrays[0]), _BLOCK):
                rows = np.concatenate([a[i:i + _BLOCK] for a in arrays], axis=1)
                fh.write(template * len(rows) % tuple(rows.ravel().tolist()))


def _save_off(mesh: SurfaceMesh, path) -> None:
    _write(path, f"OFF\n{len(mesh.vertices)} {len(mesh.faces)} 0\n",
           (_XYZ, mesh.vertices), ("3 %d %d %d\n", mesh.faces))


def _save_obj(mesh: SurfaceMesh, path) -> None:
    _write(path, "", ("v " + _XYZ, mesh.vertices), ("f %d %d %d\n", mesh.faces + 1))


def load_medial_mesh(path) -> MedialMesh:
    """Load a ``.ma`` medial mesh and return it in canonical form."""
    p = str(path)
    tables = _clean_ma(p)
    return _parse_ma(p) if tables is None else MedialMesh.build(*tables)


def _ma_runs(text) -> dict | None:
    """{keyword: lines} of text as one run of lines each for ``v``, ``e``
    and ``f`` records, or for some of them, in any order, every line led by
    its keyword and a space.  None for any other text."""
    runs, at = {}, 0
    while at < len(text):
        kind = text[at]
        if kind not in _RUN_END or kind in runs or text[at + 1:at + 2] != " ":
            return None
        end = _RUN_END[kind].search(text, at)
        stop = len(text) if end is None else end.end()
        runs[kind], at = text.count("\n", at, stop - 1) + 1, stop
    return runs or None


def _clean_ma(path) -> tuple | None:
    """Sphere, edge and face rows of a ``.ma`` file as save_medial_mesh
    writes it, read with one np.loadtxt per run of :func:`_ma_runs`: each
    line a keyword and its numbers, finite spheres with radii >= 0 and
    distinct indices below the sphere count.  None for any other file.

    The keyword is read as a column too, so that np.loadtxt checks the
    count of numbers on every line."""
    with open(path, "r", encoding="utf-8") as fh:
        runs = _ma_runs(fh.read())
        if runs is None:
            return None
        fh.seek(0)
        try:
            read = {kind: _loadtxt(islice(fh, lines), [("k", "U1"), ("x", *_MA_ROWS[kind])])["x"][:, 0]
                    for kind, lines in runs.items()}
        except (ValueError, OverflowError, Warning):
            return None
    spheres, edges, faces = (read.get(kind, np.zeros((0, width), dtype))
                             for kind, (dtype, width) in _MA_ROWS.items())
    if not np.isfinite(spheres).all() or (spheres[:, 3] < 0.0).any() or any(
            fault.any() for rows in (edges, faces)
            for fault in _index_faults(rows, len(spheres))):
        return None
    return spheres, edges, faces


def _parse_ma(p) -> MedialMesh:
    text, parts = _Text(p), []
    for a, tokens, start, count in text.blocks():
        keyword, checks, part = np.array(_pick(tokens, start), dtype=object), [], []
        for kind, width, read, short, unread in (
                ("v", 4, float, "vertex record needs 4 numbers", "bad vertex number"),
                ("e", 2, int, "edge record needs 2 indices", "bad edge index"),
                ("f", 3, int, "face record needs 3 indices", "bad face index")):
            whole = (keyword == kind) & (count == width + 1)
            values, bad = _table(tokens, start, whole, 1, width, read)
            checks += [((keyword == kind) & ~whole, short), (bad, unread)]
            part += [values[whole], np.flatnonzero(whole) + a]
            if kind == "v":
                spheres = values
        _raise_first(p, text.number[a:], [
            (~np.isin(keyword, ["v", "e", "f"]), lambda row: f"unknown record {keyword[row]!r}"),
            *checks[:2], (~np.isfinite(spheres).all(axis=1), "non-finite vertex number"),
            (spheres[:, 3] < 0.0, lambda row: f"negative radius {float(spheres[row, 3])}",
             NegativeRadius), *checks[2:]])
        parts.append(part)
    spheres, _, edges, edge_rows, faces, face_rows = map(np.concatenate, zip(*parts))
    _raise_first(p, text.number[edge_rows], list(zip(
        _index_faults(edges, len(spheres)), ("edge index out of range", lambda row:
        f"degenerate edge ({int(edges[row, 0])}, {int(edges[row, 1])})"))))
    _raise_first(p, text.number[face_rows], list(zip(
        _index_faults(faces, len(spheres)),
        ("face index out of range", "face with repeated vertices"))))
    return MedialMesh.build(spheres, edges, faces)


def save_medial_mesh(mm: MedialMesh, path) -> None:
    _write(path, "", ("v %.9g " + _XYZ, mm.spheres), ("e %d %d\n", mm.edges),
           ("f %d %d %d\n", mm.faces))


def _whole(x, bools: bool) -> bool:
    """x is a real number that an int64 equals; a bool only with bools."""
    if isinstance(x, (bool, np.bool_)):
        return bools
    return isinstance(x, numbers.Real) and -2**63 <= x < 2**63 and x == int(x)


def whole_numbers(values, name: str = "label", bools: bool = True) -> np.ndarray:
    """values (labels or node ids) as an int64 array of their shape.  A value
    that no int64 equals (a fraction, NaN, None, a string, a complex number,
    a bool where bools is False) raises a ValueError that names it."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind in "iu" or kind == "f" and arr is values or kind == "b" and bools:
        with np.errstate(invalid="ignore"):
            bad = arr.astype(np.int64, copy=False) != arr
    else:  # each value as given: None, a str, or an int a float list would round
        arr = np.asarray(values, dtype=object)
        bad = np.array([not _whole(x, bools) for x in arr.flat], dtype=bool)
    if bad.any():
        value = arr.ravel().tolist()[np.argmax(bad)]
        raise ValueError(f"{name} {value!r} is not a whole number")
    return arr.astype(np.int64, copy=False)


def integer(value, name: str, least: int | None = None) -> int:
    """value as an int (what operator.index takes), at least least."""
    try:
        number = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and number < least:
        rule = "must not be negative" if least == 0 else f"must be at least {least}"
        raise ValueError(f"{name} {rule}, got {number}")
    return number


def weight(value, name: str, inf: bool = False) -> None:
    """ValueError unless value is a real number, finite (or, with inf, +inf)
    and not negative; value is not converted, so its arithmetic is kept."""
    if not isinstance(value, (numbers.Real, np.bool_)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if math.isnan(number) or not (inf or math.isfinite(number)):
        raise ValueError(f"{name} must be a {'' if inf else 'finite '}number, got {value}")
    if number < 0.0:
        raise ValueError(f"{name} must not be negative, got {value}")


def save_labels(mesh: SurfaceMesh, path, labels) -> None:
    """Write per-face labels, one integer per line (LF endings)."""
    lab = whole_numbers(labels).reshape(-1)
    if len(lab) != len(mesh.faces):
        raise LengthMismatch(f"{len(lab)} labels for {len(mesh.faces)} faces")
    save_point_labels(path, lab)


def load_labels(path, mesh: SurfaceMesh | None = None) -> np.ndarray:
    """Read per-face labels; validates the count when a mesh is given."""
    p = str(path)
    text, labels = _Text(p, comments=False), []
    for a, tokens, start, count in text.blocks():
        # int() rejects a line of more than one token
        values, code = _numbers(_pick(tokens, start), int)
        _raise_first(p, text.number[a:], [
            ((count > 1) | (code == 1), lambda row: f"bad label {text.line(a + row)!r}"),
            (code == 2, lambda row: f"label {text.line(a + row)!r} out of range")])
        labels.append(values)
    labels = np.concatenate(labels)
    if mesh is not None and len(labels) != len(mesh.faces):
        raise LengthMismatch(
            f"{p}: {len(labels)} labels for {len(mesh.faces)} faces")
    return labels


def load_xyz(path) -> np.ndarray:
    """Point list, one ``x y z`` (or ``x y z r``) line per point."""
    p = str(path)
    text, points = _Text(p), []
    if not len(text.count):
        raise ParseError(f"{p}: no points")
    for a, tokens, start, count in text.blocks():
        values, code = _numbers(tokens, float)
        line, bad = _spans(count)[0], np.flatnonzero(code)
        _raise_first(p, text.number[a:], [
            ((count != 3) & (count != 4), "expected 'x y z' or 'x y z r'"),
            (count != text.count[0], "inconsistent column count"),
            (np.bincount(line[bad], minlength=len(count)) > 0, lambda row: "could not "
             f"convert string to float: {tokens[bad[np.searchsorted(line[bad], row)]]!r}"),
            (np.bincount(line[~np.isfinite(values)], minlength=len(count)) > 0,
             "non-finite number")])
        points.append(values)
    return np.concatenate(points).reshape(len(text.count), -1)


def save_point_labels(path, labels) -> None:
    """Write per-point labels, one integer per line (LF endings)."""
    _write(path, "", ("%d\n", whole_numbers(labels).reshape(-1, 1)))


def save_colored_mesh(mesh: SurfaceMesh, labels, path) -> None:
    """Write an ASCII PLY with per-face palette colors for the labels."""
    lab = whole_numbers(labels).reshape(-1)
    if len(lab) != len(mesh.faces):
        raise LengthMismatch(f"{len(lab)} labels for {len(mesh.faces)} faces")
    _write(path, "ply\nformat ascii 1.0\n"
           f"element vertex {len(mesh.vertices)}\n"
           "property float x\nproperty float y\nproperty float z\n"
           f"element face {len(mesh.faces)}\n"
           "property list uchar int vertex_indices\n"
           "property uchar red\nproperty uchar green\nproperty uchar blue\n"
           "end_header\n", (_XYZ, mesh.vertices),
           ("3 %d %d %d %s\n", mesh.faces, _COLORS[lab % len(PALETTE)][:, None]))
