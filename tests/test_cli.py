"""CLI behavior: exit codes, outputs, reports, and config precedence."""

import json
import math
import os

import numpy as np
import pytest

from segmat import cli
from segmat.cli import main
from segmat.mesh_io import (
    MedialMesh,
    SurfaceMesh,
    load_labels,
    load_medial_mesh,
    load_surface,
    save_medial_mesh,
    save_surface,
)


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("SEGMAT_CONFIG", raising=False)


def grid_mesh(x0, x1, y0, y1, step=1.0):
    xs = np.arange(x0, x1 + step / 2, step)
    ys = np.arange(y0, y1 + step / 2, step)
    nx = len(xs)
    verts = [(x, y, 0.0) for y in ys for x in xs]
    faces = []
    for r in range(len(ys) - 1):
        for c in range(nx - 1):
            a = r * nx + c
            faces.append((a, a + 1, a + nx + 1))
            faces.append((a, a + nx + 1, a + nx))
    return SurfaceMesh(np.array(verts, dtype=float), np.array(faces, dtype=int))


def box_mesh(half=(1.0, 0.75, 0.5)):
    hx, hy, hz = half
    v = np.array([[sx * hx, sy * hy, sz * hz]
                  for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)])
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
             (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    faces = []
    for a, b, c, d in quads:
        faces.append((a, b, c))
        faces.append((a, c, d))
    return SurfaceMesh(v, np.array(faces))


def chain_mat(count=12, radius=1.0, spacing=1.0):
    spheres = [(spacing * i, 0.0, 0.0, radius) for i in range(count)]
    edges = [(i, i + 1) for i in range(count - 1)]
    return MedialMesh.build(spheres, edges, [])


def strip_assets(tmp_path, name="shape"):
    """A small strip mesh around a uniform chain MAT, on disk."""
    mesh_path = str(tmp_path / f"{name}.off")
    mat_path = str(tmp_path / f"{name}.ma")
    save_surface(grid_mesh(-2.0, 13.0, -2.0, 2.0), mesh_path)
    save_medial_mesh(chain_mat(), mat_path)
    return mesh_path, mat_path


def bent_l_assets(tmp_path):
    """The two-part L fixture (thin bent arm, thick spiked arm), on disk."""
    spheres = []
    edges = []

    def add(center, radius):
        spheres.append((*center, radius))
        return len(spheres) - 1

    prev = add((0.0, 0.0, 0.0), 1.0)
    for x in range(1, 8):
        cur = add((float(x), 0.0, 0.0), 1.0)
        edges.append((prev, cur))
        prev = cur
    for y in range(1, 8):
        cur = add((7.0, float(y), 0.0), 1.0)
        edges.append((prev, cur))
        prev = cur
    thick = []
    for k in range(9):
        cur = add((7.0, 12.0 + 4.0 * k, 0.0), 4.0)
        edges.append((prev, cur))
        thick.append(cur)
        prev = cur
    edges.append((thick[1], add((10.8, 16.0, 0.0), 0.4)))
    edges.append((thick[7], add((3.2, 40.0, 0.0), 0.4)))

    mesh_path = str(tmp_path / "l.off")
    mat_path = str(tmp_path / "l.ma")
    save_surface(grid_mesh(-2.0, 10.0, -2.0, 46.0), mesh_path)
    save_medial_mesh(MedialMesh.build(spheres, edges, []), mat_path)
    return mesh_path, mat_path


def write_labels(path, labels):
    with open(path, "w") as fh:
        fh.writelines(f"{int(v)}\n" for v in labels)


def strict_json(fh):
    """json.load that refuses NaN and Infinity, which are not JSON."""
    def reject(constant):
        raise ValueError(f"{constant} is not valid JSON")
    return json.load(fh, parse_constant=reject)


def read_report(prefix):
    with open(f"{prefix}.report.json") as fh:
        return strict_json(fh)


def test_segment_writes_labels_ply_and_report(tmp_path):
    mesh_path, mat_path = strip_assets(tmp_path)
    out = str(tmp_path / "run")
    assert main(["segment", "--mesh", mesh_path, "--structured", mat_path,
                 "--mat", mat_path, "--out", out]) == 0
    mesh = load_surface(mesh_path)
    labels = load_labels(f"{out}.labels.txt", mesh)
    assert len(np.unique(labels)) >= 1
    assert os.path.isfile(f"{out}.ply")
    report = read_report(out)
    assert report["regions"] == 1
    assert report["skipped"] == ["simplify"]
    assert set(report["parameters"]) == {
        "alpha", "lambda", "delta0", "eta", "omega", "max_iterations",
        "merge_tau", "target_error", "swallowing"}
    for entry in report["parameters"].values():
        assert entry["source"] in ("cli", "config", "default")


def test_segment_runs_simplify_when_only_base_mat_given(tmp_path):
    mesh_path, _ = strip_assets(tmp_path)
    mat_path = str(tmp_path / "dense.ma")
    save_medial_mesh(chain_mat(count=111, spacing=0.1), mat_path)
    out = str(tmp_path / "dense")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--out", out, "--emit-structured-mat"]) == 0
    structured = load_medial_mesh(f"{out}.structured.ma")
    assert len(structured.spheres) < 111
    assert "simplify" in read_report(out)["stages"]


def test_segment_missing_mat_file_exits_2(tmp_path):
    mesh_path, _ = strip_assets(tmp_path)
    code = main(["segment", "--mesh", mesh_path,
                 "--mat", str(tmp_path / "nope.ma"),
                 "--out", str(tmp_path / "x")])
    assert code == 2


def test_segment_without_out_exits_2(tmp_path):
    mesh_path, mat_path = strip_assets(tmp_path)
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path]) == 2


def test_segment_ablation_flags_recorded_as_skipped(tmp_path):
    mesh_path, mat_path = bent_l_assets(tmp_path)
    out = str(tmp_path / "ablate")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--structured", mat_path, "--out", out,
                 "--no-swallowing", "--merge-tau", "0",
                 "--max-iterations", "0"]) == 0
    report = read_report(out)
    assert {"swallowing", "merging", "graphcut"} <= set(report["skipped"])
    assert report["parameters"]["swallowing"] == {"value": False,
                                                  "source": "cli"}


def test_segment_outputs_are_bitwise_deterministic(tmp_path):
    mesh_path, mat_path = bent_l_assets(tmp_path)
    prefixes = [str(tmp_path / "a"), str(tmp_path / "b")]
    for out in prefixes:
        assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                     "--structured", mat_path, "--out", out]) == 0
    for suffix in (".labels.txt", ".ply"):
        with open(prefixes[0] + suffix, "rb") as fa, \
                open(prefixes[1] + suffix, "rb") as fb:
            assert fa.read() == fb.read()
    reports = [read_report(p) for p in prefixes]
    for report in reports:
        report.pop("stages")  # wall times vary run to run
        report.pop("outputs")
    assert reports[0] == reports[1]


def test_config_file_and_cli_precedence(tmp_path):
    mesh_path, mat_path = strip_assets(tmp_path)
    config = tmp_path / "params.cfg"
    config.write_text("omega = 0.9   # comment\ndelta0 = 0.1\n")
    out = str(tmp_path / "prec")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--structured", mat_path, "--out", out,
                 "--config", str(config), "--omega", "0.05"]) == 0
    params = read_report(out)["parameters"]
    assert params["omega"] == {"value": 0.05, "source": "cli"}
    assert params["delta0"] == {"value": 0.1, "source": "config"}
    assert params["alpha"] == {"value": 0.05, "source": "default"}


def test_config_via_environment_variable(tmp_path, monkeypatch):
    mesh_path, mat_path = strip_assets(tmp_path)
    config = tmp_path / "env.cfg"
    config.write_text("eta = 0.01\n")
    monkeypatch.setenv("SEGMAT_CONFIG", str(config))
    out = str(tmp_path / "env")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--structured", mat_path, "--out", out]) == 0
    assert read_report(out)["parameters"]["eta"] == {"value": 0.01,
                                                     "source": "config"}


def test_config_unknown_key_exits_2(tmp_path):
    mesh_path, mat_path = strip_assets(tmp_path)
    config = tmp_path / "bad.cfg"
    config.write_text("tuning = 3\n")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--out", str(tmp_path / "x"),
                 "--config", str(config)]) == 2


def test_config_malformed_line_exits_2(tmp_path):
    mesh_path, mat_path = strip_assets(tmp_path)
    config = tmp_path / "bad.cfg"
    config.write_text("omega\n")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--out", str(tmp_path / "x"),
                 "--config", str(config)]) == 2


BOOLEAN_SPELLINGS = {"1": True, "true": True, "Yes": True, "ON": True,
                     "0": False, "false": False, "NO": False, "Off": False}


@pytest.mark.parametrize("text", list(BOOLEAN_SPELLINGS))
@pytest.mark.parametrize("given_as", ["--config", "SEGMAT_CONFIG"])
def test_config_reads_every_boolean_spelling(tmp_path, monkeypatch, text,
                                             given_as):
    mesh_path, mat_path = bent_l_assets(tmp_path)
    config = tmp_path / "bool.cfg"
    config.write_text(f"swallowing = {text}\n")
    argv = ["segment", "--mesh", mesh_path, "--mat", mat_path,
            "--structured", mat_path]
    flag = [] if BOOLEAN_SPELLINGS[text] else ["--no-swallowing"]
    assert main(argv + ["--out", str(tmp_path / "flag")] + flag) == 0
    if given_as == "--config":
        argv += ["--config", str(config)]
    else:
        monkeypatch.setenv("SEGMAT_CONFIG", str(config))
    assert main(argv + ["--out", str(tmp_path / "config")]) == 0
    assert read_report(tmp_path / "config")["parameters"]["swallowing"] == {
        "value": BOOLEAN_SPELLINGS[text], "source": "config"}
    for suffix in (".labels.txt", ".ply"):
        assert ((tmp_path / f"config{suffix}").read_bytes()
                == (tmp_path / f"flag{suffix}").read_bytes())


def test_config_boolean_that_is_no_boolean_names_its_key(tmp_path, capsys):
    mesh_path, mat_path = strip_assets(tmp_path)
    config = tmp_path / "bad.cfg"
    config.write_text("swallowing = maybe\n")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--out", str(tmp_path / "x"), "--config", str(config)]) == 2
    assert capsys.readouterr().err == (
        "error: config swallowing: not a boolean: 'maybe'\n")
    assert not any(name.startswith("x") for name in os.listdir(tmp_path))


@pytest.mark.parametrize("key", ["merging", "graphcut"])
def test_config_that_sets_a_removed_stage_switch_exits_2(tmp_path, capsys, key):
    mesh_path, mat_path = strip_assets(tmp_path)
    config = tmp_path / "old.cfg"
    config.write_text(f"{key} = false\n")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--out", str(tmp_path / "x"), "--config", str(config)]) == 2
    assert f"unknown parameter {key!r}" in capsys.readouterr().err
    assert not any(name.startswith("x") for name in os.listdir(tmp_path))


def test_batch_mode_runs_every_shape(tmp_path, capsys):
    mesh_a, mat_a = strip_assets(tmp_path, "a")
    mesh_b, mat_b = strip_assets(tmp_path, "b")
    listing = tmp_path / "shapes.txt"
    listing.write_text(
        f"{mesh_a} {mat_a} {tmp_path / 'out_a'} {mat_a}\n"
        f"{mesh_b} {mat_b} {tmp_path / 'out_b'} {mat_b}\n")
    assert main(["segment", "--batch", str(listing), "--jobs", "2"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["shapes"] == 2
    assert summary["failed"] == 0
    for name in ("out_a", "out_b"):
        assert os.path.isfile(str(tmp_path / name) + ".labels.txt")


def test_batch_mode_reports_failures_and_exits_2(tmp_path, capsys):
    mesh_a, mat_a = strip_assets(tmp_path, "a")
    listing = tmp_path / "shapes.txt"
    listing.write_text(
        f"{mesh_a} {mat_a} {tmp_path / 'ok'} {mat_a}\n"
        f"{mesh_a} {tmp_path / 'missing.ma'} {tmp_path / 'broken'}\n")
    assert main(["segment", "--batch", str(listing), "--jobs", "2"]) == 2
    summary = json.loads(capsys.readouterr().out)
    assert summary["failed"] == 1
    assert os.path.isfile(str(tmp_path / "ok") + ".labels.txt")


def test_simplify_command_shrinks_the_mat(tmp_path):
    mat_path = str(tmp_path / "dense.ma")
    save_medial_mesh(chain_mat(count=111, spacing=0.1), mat_path)
    out_path = str(tmp_path / "coarse.ma")
    report_path = str(tmp_path / "simplify.json")
    assert main(["simplify", "--mat", mat_path, "--out", out_path,
                 "--report", report_path]) == 0
    out = load_medial_mesh(out_path)
    assert 1 <= len(out.spheres) < 111
    with open(report_path) as fh:
        report = strict_json(fh)
    assert report["before"]["spheres"] == 111
    assert report["after"]["spheres"] == len(out.spheres)
    # A collapse on a chain removes one sphere.
    assert report["collapses"] == 111 - len(out.spheres) == 86
    assert report["largest_collapse_error"] == pytest.approx(
        0.343693177121688, rel=1e-12)
    # 0.03 of the diagonal of the spheres' box, 13 x 2 x 2.
    assert report["error_bound"] == pytest.approx(0.03 * math.sqrt(177), rel=1e-15)
    assert report["largest_collapse_error"] <= report["error_bound"]


@pytest.mark.parametrize("missing", ["--out", "--report"])
def test_simplify_missing_output_directory_exits_2_and_writes_nothing(
        tmp_path, capsys, missing):
    mat_path = str(tmp_path / "dense.ma")
    save_medial_mesh(chain_mat(count=111, spacing=0.1), mat_path)
    paths = {"--out": str(tmp_path / "coarse.ma"),
             "--report": str(tmp_path / "simplify.json")}
    paths[missing] = str(tmp_path / "no-such-dir" / "file")
    assert main(["simplify", "--mat", mat_path, "--out", paths["--out"],
                 "--report", paths["--report"]]) == 2
    err = capsys.readouterr().err
    assert f"output directory not found: {tmp_path / 'no-such-dir'}" in err
    assert sorted(os.listdir(tmp_path)) == ["dense.ma"]


def test_eval_identical_labelings_score_zero(tmp_path, capsys):
    mesh_path, _ = strip_assets(tmp_path)
    mesh = load_surface(mesh_path)
    labels = [i // (len(mesh.faces) // 2) for i in range(len(mesh.faces))]
    pred = str(tmp_path / "pred.txt")
    write_labels(pred, labels)
    assert main(["eval", "--pred", pred, "--gt", pred,
                 "--mesh", mesh_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ground_truths"] == 1
    for key, entry in report["metrics"].items():
        assert entry["value"] == 0.0, key
        assert entry["x1000"] == 0.0, key


def test_eval_mismatched_label_length_exits_2(tmp_path):
    mesh_path, _ = strip_assets(tmp_path)
    pred = str(tmp_path / "pred.txt")
    write_labels(pred, [0, 1, 2])  # strip has far more faces
    assert main(["eval", "--pred", pred, "--gt", pred,
                 "--mesh", mesh_path]) == 2


def test_eval_csv_report_to_file(tmp_path):
    mesh_path, _ = strip_assets(tmp_path)
    mesh = load_surface(mesh_path)
    half = len(mesh.faces) // 2
    pred = str(tmp_path / "pred.txt")
    truth = str(tmp_path / "gt.txt")
    write_labels(pred, [0] * len(mesh.faces))
    write_labels(truth, [0] * half + [1] * (len(mesh.faces) - half))
    out = str(tmp_path / "scores.csv")
    assert main(["eval", "--pred", pred, "--gt", truth, "--mesh", mesh_path,
                 "--report", "csv", "--out", out]) == 0
    with open(out) as fh:
        lines = fh.read().strip().split("\n")
    assert lines[0] == "metric,value,value_x1000"
    assert len(lines) == 8
    ri_row = lines[1].split(",")
    assert ri_row[0] == "rand_index"
    assert float(ri_row[2]) == pytest.approx(1000.0 * float(ri_row[1]))


def test_eval_ground_truth_directory_reports_the_mean(tmp_path, capsys):
    mesh_path, _ = strip_assets(tmp_path)
    mesh = load_surface(mesh_path)
    count = len(mesh.faces)
    pred = str(tmp_path / "pred.txt")
    write_labels(pred, [0] * (count // 2) + [1] * (count - count // 2))
    gt_dir = tmp_path / "gt"
    gt_dir.mkdir()
    write_labels(str(gt_dir / "a.txt"), [0] * count)
    write_labels(str(gt_dir / "b.txt"),
                 [0] * (count // 2) + [1] * (count - count // 2))

    singles = []
    for name in ("a.txt", "b.txt"):
        assert main(["eval", "--pred", pred, "--gt", str(gt_dir / name),
                     "--mesh", mesh_path]) == 0
        singles.append(json.loads(capsys.readouterr().out)["metrics"])
    assert main(["eval", "--pred", pred, "--gt", str(gt_dir),
                 "--mesh", mesh_path]) == 0
    merged = json.loads(capsys.readouterr().out)
    assert merged["ground_truths"] == 2
    for key, entry in merged["metrics"].items():
        expected = (singles[0][key]["value"] + singles[1][key]["value"]) / 2
        assert entry["value"] == pytest.approx(expected, abs=1e-12), key


def test_abstract_self_abstraction_scores_high_iou(tmp_path):
    mesh_path = str(tmp_path / "box.off")
    save_surface(box_mesh(), mesh_path)
    labels_path = str(tmp_path / "box.labels.txt")
    write_labels(labels_path, [0] * 12)
    out = str(tmp_path / "abstract.json")
    assert main(["abstract", "--mesh", mesh_path, "--labels", labels_path,
                 "--out", out]) == 0
    with open(out) as fh:
        report = json.load(fh)
    assert report["iou"] >= 0.98
    assert report["chamfer"] <= 0.01
    assert report["sampling_seed"] == 0
    assert len(report["boxes"]) == 1
    assert report["parameters"]["resolution"]["value"] == 64


def test_cloud_segments_a_two_thickness_skeleton(tmp_path):
    skeleton = tmp_path / "skel.xyz"
    lines = [f"{6.0 * i} 0 0 4" for i in range(12)]
    lines += [f"{6.0 * (12 + i)} 0 0 1" for i in range(12)]
    skeleton.write_text("\n".join(lines) + "\n")
    out = str(tmp_path / "cloud")
    assert main(["cloud", "--skeleton", str(skeleton), "--out", out]) == 0
    with open(f"{out}.labels.txt") as fh:
        labels = [int(line) for line in fh]
    assert len(labels) == 24
    assert len(set(labels)) == 2
    assert len(set(labels[:12])) == 1
    assert len(set(labels[12:])) == 1


def test_cloud_radii_from_raw_cloud_and_back_transfer(tmp_path):
    skeleton = tmp_path / "skel.xyz"
    skeleton.write_text("0 0 0\n6 0 0\n")
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text("0 2 0\n0 -2 0\n6 1 0\n6 -1 0\n")
    out = str(tmp_path / "pts")
    assert main(["cloud", "--skeleton", str(skeleton), "--cloud", str(cloud),
                 "--out", out, "--assign-cloud"]) == 0
    with open(f"{out}.labels.txt") as fh:
        skel_labels = [int(line) for line in fh]
    with open(f"{out}.cloud_labels.txt") as fh:
        cloud_labels = [int(line) for line in fh]
    assert len(skel_labels) == 2
    assert cloud_labels == [skel_labels[0], skel_labels[0],
                            skel_labels[1], skel_labels[1]]


def test_cloud_without_radius_source_exits_2(tmp_path):
    skeleton = tmp_path / "skel.xyz"
    skeleton.write_text("0 0 0\n1 0 0\n")
    assert main(["cloud", "--skeleton", str(skeleton),
                 "--out", str(tmp_path / "x")]) == 2


def test_cloud_malformed_xyz_exits_2(tmp_path):
    skeleton = tmp_path / "skel.xyz"
    skeleton.write_text("0 0 zero\n")
    assert main(["cloud", "--skeleton", str(skeleton),
                 "--out", str(tmp_path / "x")]) == 2


def bad_invocation(tmp_path, case):
    """argv for one input error that the CLI reports before any output."""
    mesh_path, mat_path = strip_assets(tmp_path)
    listing = tmp_path / "shapes.txt"
    pred = str(tmp_path / "pred.txt")
    write_labels(pred, [0] * len(load_surface(mesh_path).faces))
    skeleton = tmp_path / "skel.xyz"
    skeleton.write_text("0 0 0 1\n6 0 0 1\n")
    out = str(tmp_path / "x")
    if case == "jobs 0":
        listing.write_text(f"{mesh_path} {mat_path} {out}\n")
        return ["segment", "--batch", str(listing), "--jobs", "0"]
    if case == "malformed batch line":
        listing.write_text(f"{mesh_path} {mat_path}\n")
        return ["segment", "--batch", str(listing)]
    if case == "empty batch":
        listing.write_text("# no shapes\n\n")
        return ["segment", "--batch", str(listing)]
    if case == "missing config":
        return ["segment", "--mesh", mesh_path, "--mat", mat_path,
                "--out", out, "--config", str(tmp_path / "nope.cfg")]
    if case == "eval without gt":
        return ["eval", "--pred", pred, "--mesh", mesh_path]
    if case == "empty gt directory":
        (tmp_path / "truth").mkdir()
        return ["eval", "--pred", pred, "--gt", str(tmp_path / "truth"),
                "--mesh", mesh_path]
    assert case == "assign-cloud without cloud"
    return ["cloud", "--skeleton", str(skeleton), "--out", out,
            "--assign-cloud"]


@pytest.mark.parametrize("case,message", [
    ("jobs 0", "--jobs must be at least 1"),
    ("malformed batch line", "shapes.txt:1: expected 'mesh mat out [structured]'"),
    ("empty batch", "shapes.txt: no shapes listed"),
    ("missing config", "config file not found: "),
    ("eval without gt", "missing required option --gt"),
    ("empty gt directory", "ground-truth directory is empty: "),
    ("assign-cloud without cloud", "--assign-cloud requires --cloud"),
])
def test_input_error_exits_2_with_one_error_line(tmp_path, capsys, case,
                                                 message):
    argv = bad_invocation(tmp_path, case)
    before = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert message in lines[0]
    assert sorted(os.listdir(tmp_path)) == before


def test_unknown_subcommand_exits_2(capsys):
    assert main(["polish"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_segment_non_finite_surface_vertex_exits_2(tmp_path, capsys, value):
    mesh_path, mat_path = strip_assets(tmp_path)
    mesh = load_surface(mesh_path)
    mesh.vertices[3, 1] = value
    save_surface(mesh, mesh_path)
    assert main(["segment", "--mesh", mesh_path, "--structured", mat_path,
                 "--mat", mat_path, "--out", str(tmp_path / "x")]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "x.labels.txt"))


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_segment_non_finite_medial_radius_exits_2(tmp_path, capsys, value):
    mesh_path, mat_path = strip_assets(tmp_path)
    spheres = [(float(i), 0.0, 0.0, value if i == 5 else 1.0)
               for i in range(12)]
    save_medial_mesh(MedialMesh.build(spheres, [(i, i + 1) for i in range(11)],
                                      []), mat_path)
    assert main(["segment", "--mesh", mesh_path, "--structured", mat_path,
                 "--mat", mat_path, "--out", str(tmp_path / "x")]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "x.labels.txt"))


def test_segment_all_zero_radii_exits_2(tmp_path, capsys):
    mesh_path, mat_path = strip_assets(tmp_path)
    save_medial_mesh(chain_mat(radius=0.0), mat_path)
    assert main(["segment", "--mesh", mesh_path, "--structured", mat_path,
                 "--mat", mat_path, "--out", str(tmp_path / "x")]) == 2
    assert "component 0 (curve): every sphere has radius 0" in (
        capsys.readouterr().err)


def test_segment_coincident_spheres_exit_2(tmp_path, capsys):
    mesh_path, mat_path = strip_assets(tmp_path)
    save_medial_mesh(chain_mat(spacing=0.0), mat_path)
    assert main(["segment", "--mesh", mesh_path, "--structured", mat_path,
                 "--mat", mat_path, "--out", str(tmp_path / "x")]) == 2
    assert "component 0 (curve): its spheres coincide" in (
        capsys.readouterr().err)


def test_segment_collinear_sheet_exit_2(tmp_path, capsys):
    # three distinct centers on one line span no area
    mesh_path, _ = strip_assets(tmp_path)
    mat_path = str(tmp_path / "line.ma")
    with open(mat_path, "w") as fh:
        fh.write("v 0.2 0.2 0.2 0.1\nv 0.3 0.2 0.2 0.1\nv 0.4 0.2 0.2 0.1\n"
                 "f 0 1 2\n")
    assert main(["segment", "--mesh", mesh_path, "--structured", mat_path,
                 "--mat", mat_path, "--out", str(tmp_path / "x")]) == 2
    assert ("component 0 (sheet): its spheres coincide or are collinear "
            "(zero extent)") in capsys.readouterr().err


def test_segment_thin_slab_with_a_cancelling_determinant_exits_0(tmp_path):
    mesh_path, _ = strip_assets(tmp_path)
    mat_path = str(tmp_path / "thin.ma")
    with open(mat_path, "w") as fh:
        fh.write("v 0 1e8 0 0.5\nv 0 0 0 0.5\nv 0 0 1 0.5\nf 0 1 2\n")
    out = str(tmp_path / "x")
    assert main(["segment", "--mesh", mesh_path, "--structured", mat_path,
                 "--mat", mat_path, "--out", out]) == 0
    assert os.path.exists(out + ".labels.txt")


def test_segment_off_with_a_record_past_its_counts_exits_2(tmp_path, capsys):
    mesh_path, mat_path = strip_assets(tmp_path)
    with open(mesh_path) as fh:
        lines = fh.read().splitlines()
    with open(mesh_path, "a") as fh:
        fh.write(lines[-1] + "\n")
    out = str(tmp_path / "x")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--out", out]) == 2
    assert f"shape.off:{len(lines) + 1}: record past the" in (
        capsys.readouterr().err)
    for suffix in (".labels.txt", ".ply", ".report.json"):
        assert not os.path.exists(out + suffix)


def spy_on_medial_loads(monkeypatch):
    """The paths cli.load_medial_mesh is called with."""
    paths, load = [], cli.load_medial_mesh

    def spy(path):
        paths.append(path)
        return load(path)

    monkeypatch.setattr(cli, "load_medial_mesh", spy)
    return paths


def test_structured_naming_the_mat_file_is_parsed_once(tmp_path, monkeypatch):
    mesh_path, mat_path = bent_l_assets(tmp_path)
    paths = spy_on_medial_loads(monkeypatch)
    spelled = os.path.join(os.path.dirname(mat_path), ".", os.path.basename(mat_path))
    out = str(tmp_path / "once")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--structured", spelled, "--out", out,
                 "--emit-structured-mat"]) == 0
    assert paths == [mat_path]
    assert read_report(out)["skipped"] == ["simplify"]
    with open(mat_path, "rb") as given, open(f"{out}.structured.ma", "rb") as back:
        assert back.read() == given.read()


def test_structured_from_another_file_parses_both(tmp_path, monkeypatch, capsys):
    mesh_path, mat_path = bent_l_assets(tmp_path)
    other = str(tmp_path / "other.ma")
    with open(mat_path, "rb") as src, open(other, "wb") as dst:
        dst.write(src.read())
    paths = spy_on_medial_loads(monkeypatch)
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--structured", other, "--out", str(tmp_path / "two")]) == 0
    assert paths == [mat_path, other]
    # a malformed --mat is still an input error when --structured is fine
    bad = tmp_path / "bad.ma"
    bad.write_text("v 0 0 0 1\ne 0 7\n")
    assert main(["segment", "--mesh", mesh_path, "--mat", str(bad),
                 "--structured", other, "--out", str(tmp_path / "bad")]) == 2
    assert "bad.ma:2: edge index out of range" in capsys.readouterr().err


@pytest.mark.parametrize("structured", [False, True])
def test_segment_empty_surface_exits_2(tmp_path, capsys, structured):
    mesh_path, mat_path = strip_assets(tmp_path)
    with open(mesh_path, "w") as fh:
        fh.write("OFF\n0 0 0\n")
    out = str(tmp_path / "x")
    argv = ["segment", "--mesh", mesh_path, "--mat", mat_path, "--out", out]
    if structured:
        argv += ["--structured", mat_path]
    assert main(argv) == 2
    assert "surface mesh has no faces" in capsys.readouterr().err
    for suffix in (".labels.txt", ".ply", ".report.json"):
        assert not os.path.exists(out + suffix)


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_cloud_non_finite_skeleton_exits_2(tmp_path, capsys, value):
    skeleton = tmp_path / "skel.xyz"
    skeleton.write_text(f"0 0 0 1\n6 0 0 {value}\n12 0 0 1\n")
    assert main(["cloud", "--skeleton", str(skeleton),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"{skeleton}:2: non-finite number" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "x.labels.txt"))


@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_cloud_non_finite_cloud_point_exits_2(tmp_path, capsys, value):
    skeleton = tmp_path / "skel.xyz"
    skeleton.write_text("0 0 0\n6 0 0\n")
    cloud = tmp_path / "cloud.xyz"
    cloud.write_text(f"# raw scan\n0 2 0\n0 {value} 0\n")
    assert main(["cloud", "--skeleton", str(skeleton), "--cloud", str(cloud),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"{cloud}:3: non-finite number" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "x.labels.txt"))


@pytest.mark.parametrize("option", ["--samples", "--resolution"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_abstract_count_below_one_exits_2(tmp_path, capsys, option, value):
    mesh_path = str(tmp_path / "box.off")
    save_surface(box_mesh(), mesh_path)
    labels_path = str(tmp_path / "box.labels.txt")
    write_labels(labels_path, [0] * 12)
    out = str(tmp_path / "abstract.json")
    assert main(["abstract", "--mesh", mesh_path, "--labels", labels_path,
                 "--out", out, option, value]) == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("value", ["0", "-2"])
def test_cloud_k_below_one_exits_2(tmp_path, capsys, value):
    skeleton = tmp_path / "skel.xyz"
    skeleton.write_text("0 0 0 1\n6 0 0 1\n12 0 0 1\n")
    assert main(["cloud", "--skeleton", str(skeleton),
                 "--out", str(tmp_path / "x"), "--k", value]) == 2
    assert "k must be at least 1" in capsys.readouterr().err
    assert not os.path.exists(str(tmp_path / "x.labels.txt"))


FLOAT_OPTIONS = [("segment", key) for key in (
    "alpha", "lambda", "delta0", "eta", "omega", "merge_tau", "target_error")]
FLOAT_OPTIONS += [("simplify", "target_error")]
FLOAT_OPTIONS += [("cloud", key) for key in ("alpha", "delta0", "eta")]

NEGATIVE_OPTIONS = [("segment", key) for key in (
    "alpha", "lambda", "delta0", "eta", "omega", "max_iterations", "merge_tau",
    "target_error")]
NEGATIVE_OPTIONS += [("simplify", "target_error")]
NEGATIVE_OPTIONS += [("cloud", key) for key in ("alpha", "delta0", "eta")]
# The library parameter a CLI key feeds, as the error message names it.
LIBRARY_NAMES = {"lambda": "lam", "merge_tau": "tau"}


def option_argv(tmp_path, command, key, value, given_as):
    """argv running command on small inputs with key set to value."""
    out = str(tmp_path / "x")
    if command == "segment":
        # No --structured, so the simplification consumes target_error.
        mesh_path, mat_path = strip_assets(tmp_path)
        argv = ["segment", "--mesh", mesh_path, "--mat", mat_path,
                "--out", out]
    elif command == "simplify":
        _, mat_path = strip_assets(tmp_path)
        argv = ["simplify", "--mat", mat_path, "--out", out]
    else:
        skeleton = tmp_path / "skel.xyz"
        skeleton.write_text("0 0 0 1\n6 0 0 1\n12 0 0 1\n")
        argv = ["cloud", "--skeleton", str(skeleton), "--out", out]
    if given_as == "flag":
        # The --flag=value form keeps argparse from reading -inf as a flag.
        argv.append(f"--{key.replace('_', '-')}={value}")
    else:
        config = tmp_path / "params.cfg"
        config.write_text(f"{key} = {value}\n")
        argv += ["--config", str(config)]
    return argv


@pytest.mark.parametrize("command,key", FLOAT_OPTIONS)
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_non_finite_float_option_exits_2(tmp_path, capsys, command, key,
                                         value, given_as):
    assert main(option_argv(tmp_path, command, key, value, given_as)) == 2
    assert f"{key} must be a finite number" in capsys.readouterr().err
    assert not any(name.startswith("x") for name in os.listdir(tmp_path))


@pytest.mark.parametrize("command,key", NEGATIVE_OPTIONS)
@pytest.mark.parametrize("given_as", ["flag", "config"])
def test_negative_option_exits_2(tmp_path, capsys, command, key, given_as):
    value = "-3" if key == "max_iterations" else "-1"
    assert main(option_argv(tmp_path, command, key, value, given_as)) == 2
    param = LIBRARY_NAMES.get(key, key)
    assert f"{param} must not be negative" in capsys.readouterr().err
    assert not any(name.startswith("x") for name in os.listdir(tmp_path))


OVERFLOWING_MA = ("v 0 0 0 1e300\nv 1e300 0 0 1e300\nv 0 1e300 0 1e300\n"
                  "f 0 1 2\n")


@pytest.mark.parametrize("structured", [False, True])
def test_segment_overflowing_medial_diagonal_exits_2(tmp_path, capsys,
                                                     structured):
    mesh_path, mat_path = strip_assets(tmp_path)
    with open(mat_path, "w") as fh:
        fh.write(OVERFLOWING_MA)
    out = str(tmp_path / "x")
    argv = ["segment", "--mesh", mesh_path, "--mat", mat_path, "--out", out]
    if structured:
        argv += ["--structured", mat_path]
    assert main(argv) == 2
    assert "spheres span a non-finite diagonal" in capsys.readouterr().err
    for suffix in (".labels.txt", ".ply", ".report.json"):
        assert not os.path.exists(out + suffix)


def test_simplify_overflowing_medial_diagonal_exits_2(tmp_path, capsys):
    mat_path = str(tmp_path / "big.ma")
    with open(mat_path, "w") as fh:
        fh.write(OVERFLOWING_MA)
    out = str(tmp_path / "coarse.ma")
    assert main(["simplify", "--mat", mat_path, "--out", out]) == 2
    assert "spheres span a non-finite diagonal" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize("command", ["simplify", "segment"])
def test_target_error_whose_bound_squared_overflows_exits_2(
        tmp_path, capsys, command):
    mesh_path, _ = strip_assets(tmp_path)
    mat_path = str(tmp_path / "dense.ma")
    save_medial_mesh(chain_mat(count=111, spacing=0.1), mat_path)
    out = str(tmp_path / "out")
    argv = {"simplify": ["simplify", "--mat", mat_path, "--out", out + ".ma",
                         "--report", out + ".json"],
            "segment": ["segment", "--mesh", mesh_path, "--mat", mat_path,
                        "--out", out]}[command]
    before = sorted(os.listdir(tmp_path))
    assert main(argv + ["--target-error", "1e308"]) == 2
    assert "whose square overflows" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == before


def test_eval_overflowing_surface_diagonal_exits_2(tmp_path, capsys):
    mesh_path = str(tmp_path / "cube.off")
    mesh = box_mesh((0.5, 0.5, 0.5))
    save_surface(SurfaceMesh((mesh.vertices + 0.5) * 1e308, mesh.faces),
                 mesh_path)
    labels = str(tmp_path / "labels.txt")
    write_labels(labels, [i // 6 for i in range(12)])
    out = str(tmp_path / "scores.json")
    assert main(["eval", "--pred", labels, "--gt", labels, "--mesh", mesh_path,
                 "--out", out]) == 2
    assert "vertex coordinates span a non-finite diagonal" in (
        capsys.readouterr().err)
    assert not os.path.exists(out)


def test_segment_omega_whose_capacities_overflow_exits_2(tmp_path, capsys):
    mesh_path, mat_path = bent_l_assets(tmp_path)
    out = str(tmp_path / "run")
    argv = ["segment", "--mesh", mesh_path, "--mat", mat_path, "--out", out]
    # the start labeling's energy is finite, but a cut's flow bound is not
    assert main(argv + ["--omega", "1e307"]) == 2
    assert "cut capacities overflow" in capsys.readouterr().err
    # here omega times the start labeling's boundary overflows first
    assert main(argv + ["--omega", "1e308"]) == 2
    assert "labeling energy overflows" in capsys.readouterr().err
    assert os.listdir(tmp_path) == [os.path.basename(p)
                                    for p in sorted((mesh_path, mat_path))]
    # a huge omega whose capacities stay finite still segments: the
    # boundary cost outweighs every data cost, so one label is left
    assert main(argv + ["--omega", "1e300"]) == 0
    labels = open(out + ".labels.txt").read().split()
    assert len(labels) == 1152 and set(labels) == {"0"}


def test_segment_inputs_far_apart_exit_2(tmp_path, capsys):
    # each input's own diagonal is finite; the distances between them are not
    mesh_path = str(tmp_path / "cube.off")
    mat_path = str(tmp_path / "far.ma")
    mesh = box_mesh((1e153, 1e153, 1e153))
    save_surface(SurfaceMesh(mesh.vertices + 1e154, mesh.faces), mesh_path)
    with open(mat_path, "w") as fh:
        fh.write("v -1e154 0 0 1e152\nv -1.1e154 0 0 1e152\n"
                 "v -1.2e154 0 0 1e152\ne 0 1\ne 1 2\n")
    out = str(tmp_path / "x")
    assert main(["segment", "--mesh", mesh_path, "--mat", mat_path,
                 "--structured", mat_path, "--out", out]) == 2
    assert "distances between points and sphere centers overflow" in (
        capsys.readouterr().err)
    assert not os.path.exists(out + ".labels.txt")


def test_cloud_overflowing_skeleton_extent_exits_2(tmp_path, capsys):
    skeleton = tmp_path / "skel.xyz"
    skeleton.write_text("0 0 0 1\n1e308 0 0 1\n-1e308 0 0 1\n")
    out = str(tmp_path / "x")
    assert main(["cloud", "--skeleton", str(skeleton), "--out", out]) == 2
    assert "skeleton points span a non-finite extent" in (
        capsys.readouterr().err)
    assert not os.path.exists(out + ".labels.txt")


def test_eval_label_beyond_int64_exits_2(tmp_path, capsys):
    mesh_path, _ = strip_assets(tmp_path)
    faces = len(load_surface(mesh_path).faces)
    pred = str(tmp_path / "pred.txt")
    write_labels(pred, [0] * faces)
    gt = tmp_path / "gt.txt"
    gt.write_text("0\n" * 2 + "99999999999999999999999\n" + "0\n" * (faces - 3))
    assert main(["eval", "--pred", pred, "--gt", str(gt),
                 "--mesh", mesh_path]) == 2
    assert f"{gt}:3: label '99999999999999999999999' out of range" in (
        capsys.readouterr().err)
