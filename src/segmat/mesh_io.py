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
once coordinates are representable at that precision.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


@dataclass
class SurfaceMesh:
    """Triangle mesh with optional per-face segment labels."""

    vertices: np.ndarray
    faces: np.ndarray
    labels: np.ndarray | None = None
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        self.faces = np.asarray(self.faces, dtype=int).reshape(-1, 3)
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=int).reshape(-1)

    def validate(self) -> None:
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
        if self.labels is not None and len(self.labels) != len(self.faces):
            raise LengthMismatch(
                f"{len(self.labels)} labels for {len(self.faces)} faces")

    def face_centroids(self) -> np.ndarray:
        if "centroids" not in self._cache:
            self._cache["centroids"] = self.vertices[self.faces].mean(axis=1)
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
        a non-manifold edge every face pair along it is adjacent.
        """
        if "dual" not in self._cache:
            # one row per face side, keyed by its sorted vertex pair; a sort
            # by key groups the faces that share each edge
            keys = np.sort(self.faces[:, [0, 1, 1, 2, 2, 0]].reshape(-1, 2),
                           axis=1)
            owner = np.repeat(np.arange(len(self.faces)), 3)
            order = np.lexsort((keys[:, 1], keys[:, 0]))
            keys, owner = keys[order], owner[order]
            first = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
            sizes = np.diff(np.r_[first, len(keys)])
            rows_i, rows_j = [np.zeros(0, dtype=int)], [np.zeros(0, dtype=int)]
            for size in np.unique(sizes[sizes > 1]):
                i, j = np.triu_indices(size, k=1)
                start = first[sizes == size][:, None]
                rows_i.append((start + i).ravel())
                rows_j.append((start + j).ravel())
            rows_i, rows_j = np.concatenate(rows_i), np.concatenate(rows_j)
            a, b = owner[rows_i], owner[rows_j]
            pairs = np.stack([np.minimum(a, b), np.maximum(a, b)], axis=1)
            shared = keys[rows_i]
            order = np.lexsort((shared[:, 1], shared[:, 0],
                                pairs[:, 1], pairs[:, 0]))
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
    outside = ((rows < 0) | (rows >= n)).any(axis=1)
    ordered = np.sort(rows, axis=1)
    repeated = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
    bad = ~whole | outside | repeated
    if bad.any():
        i = int(np.argmax(bad))
        if not whole[i]:
            raise ParseError(f"non-integral {what} index: {tuple(rows[i].tolist())}")
        record = tuple(int(v) for v in rows[i])
        if outside[i]:
            raise ParseError(f"{what} index out of range: {record}")
        raise ParseError(f"{repeat}: {record}")
    return ordered.astype(np.intp)


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
        faces = np.unique(
            _index_rows(faces, 3, n, "face", "face with repeated vertices"), axis=0)
        sides = faces[:, [0, 1, 1, 2, 0, 2]].reshape(-1, 2)
        edges, inverse = np.unique(np.concatenate([sides, given]), axis=0,
                                   return_inverse=True)
        in_face = np.zeros(len(edges), dtype=bool)
        in_face[inverse.reshape(-1)[:len(sides)]] = True
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


def _meaningful_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if line:
                yield lineno, line


def load_surface(path) -> SurfaceMesh:
    """Load an OFF or OBJ triangle mesh (quads and fans are split)."""
    p = str(path)
    lower = p.lower()
    if lower.endswith(".off"):
        return _load_off(p)
    if lower.endswith(".obj"):
        return _load_obj(p)
    raise ParseError(f"{p}: unsupported surface format (expected .off or .obj)")


def save_surface(mesh: SurfaceMesh, path) -> None:
    """Write OFF or OBJ depending on the file extension."""
    p = str(path)
    lower = p.lower()
    if lower.endswith(".off"):
        _save_off(mesh, p)
    elif lower.endswith(".obj"):
        _save_obj(mesh, p)
    else:
        raise ParseError(f"{p}: unsupported surface format (expected .off or .obj)")


def _fan(indices, path, lineno):
    if len(indices) < 3:
        raise ParseError(f"{path}:{lineno}: face with fewer than 3 vertices")
    tris = []
    for i in range(1, len(indices) - 1):
        tri = (indices[0], indices[i], indices[i + 1])
        if tri[0] == tri[1] or tri[1] == tri[2] or tri[0] == tri[2]:
            raise ParseError(f"{path}:{lineno}: face with repeated vertices")
        tris.append(tri)
    return tris


def _load_off(path) -> SurfaceMesh:
    lines = _meaningful_lines(path)
    try:
        lineno, header = next(lines)
    except StopIteration:
        raise ParseError(f"{path}: empty OFF file") from None
    tokens = header.split()
    if tokens[0] != "OFF":
        raise ParseError(f"{path}:{lineno}: missing OFF header")
    counts = tokens[1:]
    if not counts:
        lineno, line = next(lines, (lineno, None))
        if line is None:
            raise ParseError(f"{path}:{lineno}: missing element counts")
        counts = line.split()
    if len(counts) < 2:
        raise ParseError(f"{path}:{lineno}: malformed element counts")
    try:
        nv, nf = int(counts[0]), int(counts[1])
    except ValueError:
        nv = nf = -1
    if nv < 0 or nf < 0:
        raise ParseError(f"{path}:{lineno}: malformed element counts")
    vertices = []
    for _ in range(nv):
        lineno, line = next(lines, (lineno, None))
        if line is None:
            raise ParseError(f"{path}: truncated vertex list")
        parts = line.split()
        if len(parts) < 3:
            raise ParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
        try:
            vertices.append((float(parts[0]), float(parts[1]), float(parts[2])))
        except ValueError:
            raise ParseError(f"{path}:{lineno}: bad vertex coordinate") from None
    faces = []
    for _ in range(nf):
        lineno, line = next(lines, (lineno, None))
        if line is None:
            raise ParseError(f"{path}: truncated face list")
        parts = line.split()
        try:
            k = int(parts[0])
            idx = [int(t) for t in parts[1:1 + k]]
        except (ValueError, IndexError):
            raise ParseError(f"{path}:{lineno}: malformed face record") from None
        if len(idx) != k:
            raise ParseError(f"{path}:{lineno}: face arity mismatch")
        for v in idx:
            if not 0 <= v < nv:
                raise ParseError(f"{path}:{lineno}: face index {v} out of range")
        faces.extend(_fan(idx, path, lineno))
    lineno, line = next(lines, (lineno, None))
    if line is not None:
        raise ParseError(f"{path}:{lineno}: record past the {nv} vertices and "
                         f"{nf} faces of the header")
    mesh = SurfaceMesh(np.array(vertices, dtype=float).reshape(-1, 3),
                       np.array(faces, dtype=int).reshape(-1, 3))
    mesh.validate()
    return mesh


def _load_obj(path) -> SurfaceMesh:
    vertices = []
    raw_faces = []
    for lineno, line in _meaningful_lines(path):
        parts = line.split()
        if parts[0] == "v":
            if len(parts) < 4:
                raise ParseError(f"{path}:{lineno}: vertex needs 3 coordinates")
            try:
                vertices.append((float(parts[1]), float(parts[2]), float(parts[3])))
            except ValueError:
                raise ParseError(f"{path}:{lineno}: bad vertex coordinate") from None
        elif parts[0] == "f":
            idx = []
            for tok in parts[1:]:
                head = tok.split("/", 1)[0]
                try:
                    v = int(head)
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: bad face index {tok!r}") from None
                if v < 1:
                    raise ParseError(
                        f"{path}:{lineno}: face index {v} (OBJ indices are 1-based)")
                idx.append(v - 1)
            raw_faces.append((lineno, idx))
        # all other record types (vn, vt, g, o, s, usemtl...) are ignored
    faces = []
    for lineno, idx in raw_faces:
        for v in idx:
            if v >= len(vertices):
                raise ParseError(f"{path}:{lineno}: face index {v + 1} out of range")
        faces.extend(_fan(idx, path, lineno))
    mesh = SurfaceMesh(np.array(vertices, dtype=float).reshape(-1, 3),
                       np.array(faces, dtype=int).reshape(-1, 3))
    mesh.validate()
    return mesh


def _save_off(mesh: SurfaceMesh, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("OFF\n")
        fh.write(f"{len(mesh.vertices)} {len(mesh.faces)} 0\n")
        for v in mesh.vertices:
            fh.write(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
        for f in mesh.faces:
            fh.write(f"3 {f[0]} {f[1]} {f[2]}\n")


def _save_obj(mesh: SurfaceMesh, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in mesh.vertices:
            fh.write(f"v {_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def load_medial_mesh(path) -> MedialMesh:
    """Load a ``.ma`` medial mesh and return it in canonical form."""
    p = str(path)
    spheres = []
    edges = []
    faces = []
    for lineno, line in _meaningful_lines(p):
        parts = line.split()
        kind = parts[0]
        if kind == "v":
            if len(parts) != 5:
                raise ParseError(f"{p}:{lineno}: vertex record needs 4 numbers")
            try:
                x, y, z, r = (float(t) for t in parts[1:])
            except ValueError:
                raise ParseError(f"{p}:{lineno}: bad vertex number") from None
            if not all(map(math.isfinite, (x, y, z, r))):
                raise ParseError(f"{p}:{lineno}: non-finite vertex number")
            if r < 0.0:
                raise NegativeRadius(f"{p}:{lineno}: negative radius {r}")
            spheres.append((x, y, z, r))
        elif kind == "e":
            if len(parts) != 3:
                raise ParseError(f"{p}:{lineno}: edge record needs 2 indices")
            try:
                edges.append((lineno, int(parts[1]), int(parts[2])))
            except ValueError:
                raise ParseError(f"{p}:{lineno}: bad edge index") from None
        elif kind == "f":
            if len(parts) != 4:
                raise ParseError(f"{p}:{lineno}: face record needs 3 indices")
            try:
                faces.append((lineno, int(parts[1]), int(parts[2]), int(parts[3])))
            except ValueError:
                raise ParseError(f"{p}:{lineno}: bad face index") from None
        else:
            raise ParseError(f"{p}:{lineno}: unknown record {kind!r}")
    n = len(spheres)
    for lineno, a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"{p}:{lineno}: edge index out of range")
        if a == b:
            raise ParseError(f"{p}:{lineno}: degenerate edge ({a}, {b})")
    for lineno, a, b, c in faces:
        for v in (a, b, c):
            if not 0 <= v < n:
                raise ParseError(f"{p}:{lineno}: face index out of range")
        if a == b or b == c or a == c:
            raise ParseError(f"{p}:{lineno}: face with repeated vertices")
    return MedialMesh.build(
        spheres, [(a, b) for _, a, b in edges], [(a, b, c) for _, a, b, c in faces])


def save_medial_mesh(mm: MedialMesh, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y, z, r in mm.spheres.tolist():
            fh.write(f"v {_fmt(x)} {_fmt(y)} {_fmt(z)} {_fmt(r)}\n")
        for a, b in mm.edges.tolist():
            fh.write(f"e {a} {b}\n")
        for a, b, c in mm.faces.tolist():
            fh.write(f"f {a} {b} {c}\n")


def save_labels(mesh: SurfaceMesh, path, labels=None) -> None:
    """Write per-face labels, one integer per line (LF endings)."""
    lab = mesh.labels if labels is None else np.asarray(labels, dtype=int).reshape(-1)
    if lab is None:
        raise LengthMismatch("mesh has no labels to save")
    if len(lab) != len(mesh.faces):
        raise LengthMismatch(f"{len(lab)} labels for {len(mesh.faces)} faces")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for v in lab:
            fh.write(f"{int(v)}\n")


def load_labels(path, mesh: SurfaceMesh | None = None) -> np.ndarray:
    """Read per-face labels; validates the count when a mesh is given."""
    p = str(path)
    values = []
    bound = np.iinfo(int)
    with open(p, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ParseError(f"{p}:{lineno}: bad label {line!r}") from None
            if not bound.min <= values[-1] <= bound.max:
                raise ParseError(f"{p}:{lineno}: label {line!r} out of range")
    labels = np.array(values, dtype=int)
    if mesh is not None and len(labels) != len(mesh.faces):
        raise LengthMismatch(
            f"{p}: {len(labels)} labels for {len(mesh.faces)} faces")
    return labels


def load_xyz(path) -> np.ndarray:
    """Point list, one ``x y z`` (or ``x y z r``) line per point."""
    p = str(path)
    rows: list[list[float]] = []
    for lineno, line in _meaningful_lines(p):
        fields = line.split()
        if len(fields) not in (3, 4):
            raise ParseError(f"{p}:{lineno}: expected 'x y z' or 'x y z r'")
        if rows and len(fields) != len(rows[0]):
            raise ParseError(f"{p}:{lineno}: inconsistent column count")
        try:
            row = [float(f) for f in fields]
        except ValueError as exc:
            raise ParseError(f"{p}:{lineno}: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise ParseError(f"{p}:{lineno}: non-finite number")
        rows.append(row)
    if not rows:
        raise ParseError(f"{p}: no points")
    return np.array(rows, dtype=float)


def save_point_labels(path, labels) -> None:
    """Write per-point labels, one integer per line (LF endings)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(f"{int(v)}\n" for v in labels)


def save_colored_mesh(mesh: SurfaceMesh, labels, path) -> None:
    """Write an ASCII PLY with per-face palette colors for the labels."""
    lab = np.asarray(labels, dtype=int).reshape(-1)
    if len(lab) != len(mesh.faces):
        raise LengthMismatch(f"{len(lab)} labels for {len(mesh.faces)} faces")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("ply\nformat ascii 1.0\n")
        fh.write(f"element vertex {len(mesh.vertices)}\n")
        fh.write("property float x\nproperty float y\nproperty float z\n")
        fh.write(f"element face {len(mesh.faces)}\n")
        fh.write("property list uchar int vertex_indices\n")
        fh.write("property uchar red\nproperty uchar green\nproperty uchar blue\n")
        fh.write("end_header\n")
        for v in mesh.vertices:
            fh.write(f"{_fmt(v[0])} {_fmt(v[1])} {_fmt(v[2])}\n")
        for f, k in zip(mesh.faces, lab):
            r, g, b = PALETTE[int(k) % len(PALETTE)]
            fh.write(f"3 {f[0]} {f[1]} {f[2]} {r} {g} {b}\n")
