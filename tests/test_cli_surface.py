"""The CLI surface, written out literally: option strings, config keys,
defaults and their types.  A change to how a parameter's flag, key or
default is derived shows up here, whatever the code that derives it."""

import argparse
import json
import re
from pathlib import Path

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
                 "--target-error"],
    "eval": ["-h", "--help", "--pred", "--gt", "--mesh", "--report", "--out",
             "--config"],
    "abstract": ["-h", "--help", "--mesh", "--labels", "--out", "--config",
                 "--resolution", "--samples", "--seed"],
    "cloud": ["-h", "--help", "--skeleton", "--cloud", "--out",
              "--assign-cloud", "--config", "--alpha", "--delta0", "--eta",
              "--k"],
}

CONFIG_KEYS = ["alpha", "delta0", "eta", "graphcut", "k", "lambda",
               "max_iterations", "merge_tau", "merging", "omega",
               "resolution", "samples", "seed", "swallowing", "target_error"]

# command -> (the arguments it requires, each parameter's default)
DEFAULTS = {
    "segment": ([], {
        "alpha": 0.05, "lambda": 1.5, "delta0": 0.015, "eta": 0.002,
        "omega": 0.3, "max_iterations": 10, "merge_tau": 0.15,
        "target_error": 0.03, "swallowing": True, "merging": True,
        "graphcut": True}),
    "simplify": (["--mat", "m", "--out", "o"], {"target_error": 0.03}),
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


def test_the_readme_names_exactly_the_parsers_options():
    """Every --option the README names is one a subcommand takes, and every
    one a subcommand takes is named there.  --no- alone is the prose stem
    of --no-<key>, and --no-build-isolation is pip's."""
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"--[a-z][a-z0-9-]*", readme))
    named -= {"--help", "--no-", "--no-build-isolation"}
    taken = {s for strings in OPTION_STRINGS.values() for s in strings
             if s.startswith("--")} - {"--help"}
    assert named == taken


def test_config_accepts_exactly_the_parameter_keys(tmp_path):
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{key} = 1\n" for key in CONFIG_KEYS))
    assert sorted(load_config(str(path))) == CONFIG_KEYS
    for near_miss in ("lam", "no_swallowing", "max-iterations",
                      "average_error", "preserve_topology", "config", "jobs"):
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


def chain_mat(tmp_path) -> str:
    spheres = [(float(i), 0.0, 0.0, 1.0) for i in range(8)]
    mat = str(tmp_path / "chain.ma")
    save_medial_mesh(MedialMesh.build(
        spheres, [(i, i + 1) for i in range(7)], []), mat)
    return mat


def test_simplify_target_error_is_reported_from_the_cli(tmp_path):
    report = tmp_path / "simplify.json"
    assert main(["simplify", "--mat", chain_mat(tmp_path),
                 "--out", str(tmp_path / "out.ma"), "--report", str(report),
                 "--target-error", "0.05"]) == 0
    assert json.loads(report.read_text())["parameters"] == {
        "target_error": {"value": 0.05, "source": "cli"}}


@pytest.mark.parametrize("key", ["average_error", "preserve_topology"])
def test_a_config_that_sets_a_removed_simplify_key_exits_2(tmp_path, capsys, key):
    config = tmp_path / "old.cfg"
    config.write_text(f"{key} = true\n")
    out = tmp_path / "out.ma"
    assert main(["simplify", "--mat", chain_mat(tmp_path), "--out", str(out),
                 "--config", str(config)]) == 2
    assert f"unknown parameter {key!r}" in capsys.readouterr().err
    assert not out.exists()


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
