"""Tests of the benchmark's own code, at small sizes.

    python3 -m pytest perfbench/tests -q
    PERFBENCH_SLOW=1 python3 -m pytest perfbench/tests -q   # adds the full-size check
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

cli = worker.import_package()


def closed_and_outward(w):
    """Every directed edge appears once and its reverse once; volume > 0."""
    directed = Counter()
    for a, b, c in w.triangles.tolist():
        directed.update([(a, b), (b, c), (c, a)])
    tri = w.vertices[w.triangles]
    volume = np.einsum("ij,ij->i", tri[:, 0],
                       np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0
    return (all(k == 1 and directed[(v, u)] == 1
                for (u, v), k in directed.items()) and volume > 0.0)


@pytest.mark.parametrize("name, spheres, edges, faces, surface, parts", [
    ("chain-simplify", 2501, 2500, 0, 20000, 3),
    ("plate-simplify", 3600, 0, 6962, 20160, 2),
    ("banded-chain", 2501, 2500, 0, 20000, 32),
])
def test_generator_counts(name, spheres, edges, faces, surface, parts):
    w = workloads.generate(name, 0)
    assert (len(w.radii), len(w.edges), len(w.faces)) == (spheres, edges,
                                                         faces)
    assert len(w.triangles) == surface
    assert len(np.unique(w.truth)) == parts
    assert closed_and_outward(w)


@pytest.mark.parametrize("name, axes", [
    ("chain-simplify", (1, 2)),
    ("plate-simplify", (0, 1)),
    ("banded-chain", (1, 2)),
])
def test_jitter_bounds_and_determinism(name, axes):
    nominal = workloads.generate(name, None)
    a = workloads.generate(name, 7)
    again = workloads.generate(name, 7)
    other = workloads.generate(name, 8)
    assert np.array_equal(a.centers, again.centers)
    assert np.array_equal(a.radii, again.radii)
    assert not np.array_equal(a.radii, other.radii)
    ratio = a.radii / nominal.radii
    assert np.all(np.abs(ratio - 1.0) <= workloads.RADIUS_JITTER)
    shift = a.centers - nominal.centers
    fixed = [k for k in range(3) if k not in axes]
    assert np.all(np.abs(shift[:, list(axes)]) <= workloads.CENTER_JITTER)
    assert np.all(shift[:, fixed] == 0.0)
    assert np.array_equal(a.vertices, nominal.vertices)
    assert np.array_equal(a.truth, nominal.truth)


def tiny_runner(tmp_path, monkeypatch):
    """A 60-sphere dumbbell chain on a 400-face surface, through the CLI."""
    monkeypatch.setattr(workloads, "CHAIN_STACKS", 11)
    radii = np.where((np.arange(60) < 20) | (np.arange(60) >= 40), 4.0, 1.0)
    w = workloads._chain("tiny", radii, lambda x: (x > 19.5) + (x > 39.5),
                         3, structured=True)
    off, ma = workloads.write_inputs(w, str(tmp_path))
    prefix = str(tmp_path / "out")
    argv = ["segment", "--mesh", off, "--mat", ma, "--structured", ma,
            "--out", prefix]
    return worker.Runner(cli, argv, prefix, len(w.triangles))


def test_traced_op_keeps_the_labels(tmp_path, monkeypatch):
    runner = tiny_runner(tmp_path, monkeypatch)
    runner.op()
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    try:
        runner.op(tracer)
    finally:
        tracer.restore()
    assert runner.failures == []
    assert runner.attempted == 2
    assert runner.report["regions"] >= 2
    metrics = tracing.layer_metrics(tracer)
    assert metrics["growing.swallow_calls"]["value"] >= 2
    assert metrics["transfer.cuts"]["value"] > 0
    # Self times add up to the traced op.
    op = tracer.inclusive_times()["cli.main"]
    assert sum(tracer.self_times().values()) == pytest.approx(op)


def test_wrapped_names_are_restored():
    tracer = tracing.Tracer()
    tracing.instrument(tracer)
    saved = list(tracer._saved)
    try:
        assert tracer.missing == []
        assert len(saved) == 24
        assert all(vars(owner)[attr] is not original
                   for owner, attr, original in saved)
    finally:
        tracer.restore()
    assert all(vars(owner)[attr] is original
               for owner, attr, original in saved)


def test_output_checks_count_bad_labels(tmp_path, monkeypatch):
    runner = tiny_runner(tmp_path, monkeypatch)
    runner.op()
    labels = Path(runner.prefix + ".labels.txt")
    text = labels.read_text()
    labels.write_text("-1\n" + text.split("\n", 1)[1])
    _, _, _, problems = worker.check_outputs(runner.prefix, runner.faces)
    assert problems == ["a label is not a non-negative integer"]
    labels.write_text(text + "0\n")
    _, _, _, problems = worker.check_outputs(runner.prefix, runner.faces)
    assert problems[0] == f"{runner.faces + 1} labels for {runner.faces} faces"


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    traced = {name: unit for name, (unit, _) in tracing.LAYER_METRICS.items()}
    traced.update({"trace.op_s": "s", "trace.overhead_s": "s"})
    assert per_layer == traced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "segment_s", "setup_s", "peak_rss_mb"]


def test_sampler_scales_to_the_reference_speed(monkeypatch):
    monkeypatch.setattr(speed, "kernel", lambda: 2.0 * speed.REFERENCE_S)
    handler = signal.getsignal(signal.SIGALRM)
    with speed.Sampler() as sampler:
        signal.raise_signal(signal.SIGALRM)
    assert len(sampler.samples) == 2 * speed.BRACKET + 1
    assert sampler.slowdown() == pytest.approx(2.0)
    assert sampler.scaled(3.0 + sampler.spent) == pytest.approx(1.5)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_runs", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "banded-chain",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.skipif(not os.environ.get("PERFBENCH_SLOW"),
                    reason="full-size pipelines; set PERFBENCH_SLOW=1")
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_jitter_keeps_region_counts_on_seeds_0_to_2(name, tmp_path):
    def regions(seed):
        w = workloads.generate(name, seed)
        off, ma = workloads.write_inputs(w, str(tmp_path))
        argv = ["segment", "--mesh", off, "--mat", ma,
                "--out", str(tmp_path / "out")]
        if w.structured:
            argv += ["--structured", ma]
        assert cli.main(argv) == 0
        return json.loads((tmp_path / "out.report.json").read_text())["regions"]

    expected = regions(None)
    assert [regions(seed) for seed in (0, 1, 2)] == [expected] * 3
