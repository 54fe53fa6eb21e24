"""The CLI surface, written out literally: option strings, config keys,
defaults and their types.  A change to how a parameter's flag, key or
default is derived shows up here, whatever the code that derives it."""

import argparse
import json

import numpy as np
import pytest

from segmat import cli
from segmat.cli import build_parser, load_config, main, resolve_params
from segmat.mesh_io import MedialMesh, SurfaceMesh, save_medial_mesh, save_surface


@pytest.fixture(autouse=True)
def _no_ambient_config(monkeypatch):
    monkeypatch.delenv("SEGMAT_CONFIG", raising=False)


OPTION_STRINGS = {
    "segment": ["-h", "--help", "--mesh", "--mat", "--structured", "--out",
                "--emit-structured-mat", "--batch", "--jobs", "--config",
                "--alpha", "--lambda", "--delta0", "--eta", "--omega",
                "--max-iterations", "--merge-tau", "--target-error",
                "--no-swallowing", "--no-merging", "--no-graphcut"],
    "simplify": ["-h", "--help", "--mat", "--out", "--report", "--config",
                 "--target-error", "--no-preserve-topology",
                 "--average-error"],
    "eval": ["-h", "--help", "--pred", "--gt", "--mesh", "--report", "--out",
             "--config"],
    "abstract": ["-h", "--help", "--mesh", "--labels", "--out", "--config",
                 "--resolution", "--samples", "--seed"],
    "cloud": ["-h", "--help", "--skeleton", "--cloud", "--out",
              "--assign-cloud", "--config", "--alpha", "--delta0", "--eta",
              "--k"],
}

CONFIG_KEYS = ["alpha", "average_error", "delta0", "eta", "graphcut", "k",
               "lambda", "max_iterations", "merge_tau", "merging", "omega",
               "preserve_topology", "resolution", "samples", "seed",
               "swallowing", "target_error"]

# command -> (the arguments it requires, each parameter's default)
DEFAULTS = {
    "segment": ([], {
        "alpha": 0.05, "lambda": 1.5, "delta0": 0.015, "eta": 0.002,
        "omega": 0.3, "max_iterations": 10, "merge_tau": 0.15,
        "target_error": 0.03, "swallowing": True, "merging": True,
        "graphcut": True}),
    "simplify": (["--mat", "m", "--out", "o"], {
        "target_error": 0.03, "preserve_topology": True,
        "average_error": False}),
    "abstract": (["--mesh", "m", "--labels", "l", "--out", "o"], {
        "resolution": 64, "samples": 10000, "seed": 0}),
    "cloud": (["--skeleton", "s", "--out", "o"], {
        "alpha": 0.05, "delta0": 0.015, "eta": 0.002, "k": 8}),
}


def test_every_subcommand_lists_its_option_strings():
    top = build_parser()
    sub = next(action for action in top._actions
               if isinstance(action, argparse._SubParsersAction))
    assert list(sub.choices) == list(OPTION_STRINGS)
    for command, parser in sub.choices.items():
        strings = [s for action in parser._actions
                   for s in action.option_strings]
        assert strings == OPTION_STRINGS[command], command


def test_config_accepts_exactly_the_parameter_keys(tmp_path):
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = 1\n" for key in CONFIG_KEYS))
    assert sorted(load_config(str(path))) == CONFIG_KEYS
    for near_miss in ("lam", "no_swallowing", "max-iterations",
                      "no_preserve_topology", "config", "jobs"):
        path.write_text(f"{near_miss} = 1\n")
        with pytest.raises(cli.InputError, match="unknown parameter"):
            load_config(str(path))


@pytest.mark.parametrize("command", list(DEFAULTS))
def test_each_parameter_defaults_to_its_literal_value(command):
    required, defaults = DEFAULTS[command]
    args = build_parser().parse_args([command] + required)
    resolved = resolve_params(args, tuple(defaults))
    assert resolved == {key: {"value": value, "source": "default"}
                        for key, value in defaults.items()}
    # an int default stays an int in the report, a float stays a float
    for key, value in defaults.items():
        assert type(resolved[key]["value"]) is type(value), key


def test_simplify_toggles_are_reported_from_the_cli(tmp_path):
    spheres = [(float(i), 0.0, 0.0, 1.0) for i in range(8)]
    mat = str(tmp_path / "chain.ma")
    save_medial_mesh(MedialMesh.build(
        spheres, [(i, i + 1) for i in range(7)], []), mat)
    report = tmp_path / "simplify.json"
    assert main(["simplify", "--mat", mat, "--out", str(tmp_path / "out.ma"),
                 "--report", str(report), "--average-error",
                 "--no-preserve-topology"]) == 0
    params = json.loads(report.read_text())["parameters"]
    assert params["average_error"] == {"value": True, "source": "cli"}
    assert params["preserve_topology"] == {"value": False, "source": "cli"}
    assert params["target_error"] == {"value": 0.03, "source": "default"}


def test_abstract_seed_is_reported_from_the_cli(tmp_path):
    v = np.array([[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0)
                  for z in (0.0, 1.0)])
    quads = [(0, 1, 3, 2), (4, 6, 7, 5), (0, 4, 5, 1),
             (2, 3, 7, 6), (0, 2, 6, 4), (1, 5, 7, 3)]
    faces = [tri for a, b, c, d in quads for tri in ((a, b, c), (a, c, d))]
    mesh = str(tmp_path / "box.off")
    save_surface(SurfaceMesh(v, np.array(faces)), mesh)
    labels = tmp_path / "box.labels.txt"
    labels.write_text("0\n" * len(faces))
    out = tmp_path / "abstract.json"
    assert main(["abstract", "--mesh", mesh, "--labels", str(labels),
                 "--out", str(out), "--seed", "3", "--samples", "50",
                 "--resolution", "8"]) == 0
    report = json.loads(out.read_text())
    assert report["parameters"] == {
        "seed": {"value": 3, "source": "cli"},
        "samples": {"value": 50, "source": "cli"},
        "resolution": {"value": 8, "source": "cli"},
    }
    assert report["sampling_seed"] == 3
