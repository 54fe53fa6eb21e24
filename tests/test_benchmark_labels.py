"""The benchmark workloads' labels are pinned: labels are the contract.

A change meant to keep behaviour must leave `segment`'s `.labels.txt`
byte-identical on every benchmark workload, and the simplified MAT that
`--emit-structured-mat` writes byte-identical on the workloads that
simplify.  This runs the seed-0 input of each workload through `segmat
segment` in-process, as the benchmark's worker does, and compares the
SHA-256 of those files with the recorded ones.  `banded-chain`, the one
workload with many regions, is pinned at seeds 1 and 2 as well: each
seed accepts a different set of expansion moves.
perfbench/workloads.py is loaded by path, as test_bench_hooks loads the
tracer, so the inputs are exactly the benchmark's.
"""

import functools
import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from segmat import cli

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"

LABELS_SHA256 = {
    "chain-simplify":
        "4ff729b219deacccbbc43b1b28a895d1c0319254b9b80d4da040c4a4724a7846",
    "plate-simplify":
        "10dff5885d8cca4477e72cbe667dc34304651337b3b49143a346bd6d60fb55cf",
    "banded-chain":
        "2ac208700dea68f98ede6a5964edb84a97623d687985b323fbf4c45dccbc42c1",
}

# banded-chain labels at further seeds
BANDED_SHA256 = {
    1: "02b610448e3b14b313ef5bdf6514e5943cdead6f9b7e2a8e3d598f96c7c03ec3",
    2: "d017da1a5a3b252950218e0ec50c2b10ef68f136e3f5711da95ad4a9af2fb761",
}

STRUCTURED_SHA256 = {
    "chain-simplify":
        "bb35e39cce680a32a9a856ed5686349ea87eb9e833d59a7a200ab54e4e18e111",
    "plate-simplify":
        "8a3ec33ece0e6f617746c15421c7771d14cdcee3f997133fbeaea1ef5e2f0b00",
}


@functools.cache
def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    # its dataclass looks its module up by name while it is defined
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def segment(tmp_path, capsys, name, seed):
    """Run one workload input through `segmat segment`; the output prefix."""
    workloads = load_workloads()
    w = workloads.generate(name, seed)
    off, ma = workloads.write_inputs(w, str(tmp_path))
    out = str(tmp_path / "out")
    argv = ["segment", "--mesh", off, "--mat", ma, "--out", out,
            "--emit-structured-mat"]
    if w.structured:
        argv += ["--structured", ma]
    assert cli.main(argv) == 0, capsys.readouterr().err
    return out


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(LABELS_SHA256))
def test_seed_0_labels_match_the_recorded_hash(tmp_path, capsys, name):
    out = segment(tmp_path, capsys, name, 0)
    assert sha256(out + ".labels.txt") == LABELS_SHA256[name]
    if name in STRUCTURED_SHA256:
        assert sha256(out + ".structured.ma") == STRUCTURED_SHA256[name]


@pytest.mark.parametrize("seed", sorted(BANDED_SHA256))
def test_banded_labels_at_more_seeds_match_the_recorded_hash(tmp_path, capsys,
                                                             seed):
    out = segment(tmp_path, capsys, "banded-chain", seed)
    assert sha256(out + ".labels.txt") == BANDED_SHA256[seed]
