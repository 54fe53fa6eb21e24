"""One benchmark run of one workload, in the fresh process run.py starts.

Set-up imports the package from ``src/`` of this checkout, generates the
workload's inputs from the seed and writes them as .off/.ma files.  It is
timed SETUP_REPEATS times, each in a fresh interpreter (``--setup-into``),
and the median counts.  The third-party modules the package imports
(DEPENDENCIES) are loaded first and not timed: they are a fixed cost no
change to the package removes, and their import time swings widely from
run to run.
Every op is one in-process ``segmat segment`` call through
``segmat.cli.main``.  The first op is an untimed warm-up, so one-time
costs (lazy imports, first calls) stay out of segment_s; timed ops then
run while the next one is expected to end within --seconds, at least one.
Set-ups and timed ops run under a ``speed.Sampler``, and setup_s and
segment_s are their times at the sampler's reference speed; the raw wall
times go to the details line.  With --trace 1 one more op runs under the
Tracer and the result reports per-layer metrics instead of end-to-end
ones.

Every op's outputs are checked (exit code 0, one non-negative integer
label per face, distinct labels matching the report and at most its region
count, the same labels SHA-256 on every op); an op that fails a check
counts as failed, it does not end the run.  The labels hash and region
count are recorded with the results, not gated on, because a change may
declare a label change.  So is the Rand dissimilarity against the
generated truth: it is fixed by the seed's input, so its spread across
seeds is not noise a bound could hold.

Standard output: one details line, then the result line.  Both also go to
``perfbench/_runs/<workload>-seed<seed>-trace<t>.json``; a traced run
writes its spans next to it.
"""

import argparse
import contextlib
import hashlib
import importlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / "_runs"
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
DEPENDENCIES = ("numpy", "scipy.sparse.csgraph", "scipy.spatial.distance")
LABEL_LINE = re.compile(rb"[0-9]+")


def import_package():
    """segmat.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import segmat.cli

    origin = Path(segmat.cli.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SystemExit(f"error: segmat imported from {origin}, not {SRC}")
    return segmat.cli


def check_outputs(prefix: str, faces: int):
    """(labels digest, labels, report, failed checks) of one op's output."""
    try:
        data = Path(prefix + ".labels.txt").read_bytes()
        report = json.loads(Path(prefix + ".report.json").read_text())
    except (OSError, ValueError) as exc:
        return None, None, None, [f"unreadable output: {exc}"]
    problems = []
    lines = data.split(b"\n")
    if lines[-1] == b"":
        lines.pop()
    if len(lines) != faces:
        problems.append(f"{len(lines)} labels for {faces} faces")
    labels = None
    if all(LABEL_LINE.fullmatch(line) for line in lines):
        labels = [int(line) for line in lines]
        distinct = len(set(labels))
        if distinct != report.get("distinct_labels"):
            problems.append(f"{distinct} distinct labels, report says "
                            f"{report.get('distinct_labels')}")
        if distinct > report.get("regions", 0):
            problems.append(f"{distinct} distinct labels exceed "
                            f"{report.get('regions')} regions")
    else:
        problems.append("a label is not a non-negative integer")
    return hashlib.sha256(data).hexdigest(), labels, report, problems


class Runner:
    """Runs ops on one workload and keeps their outcomes."""

    def __init__(self, cli, argv, prefix, faces):
        self.cli = cli
        self.argv = argv
        self.prefix = prefix
        self.faces = faces
        self.attempted = 0
        self.failures: list[str] = []
        self.digest = None
        self.labels = None
        self.report = None

    def op(self, tracer=None, sampler=None) -> float:
        """One segment call; returns its wall time in seconds.

        Pass a Sampler to time the call under it.
        """
        self.attempted += 1
        with contextlib.redirect_stdout(sys.stderr), \
                (sampler or contextlib.nullcontext()):
            start = time.perf_counter()
            try:
                if tracer is None:
                    code = self.cli.main(self.argv)
                else:
                    with tracer.span("cli.main"):
                        code = self.cli.main(self.argv)
            except Exception:  # a crash is a failed op, not a failed run
                traceback.print_exc()
                code = "exception"
            seconds = time.perf_counter() - start
        digest, labels, report, problems = check_outputs(self.prefix,
                                                         self.faces)
        if code != 0:
            problems.insert(0, f"exit code {code}")
        if not problems:
            if self.digest is None:
                self.digest, self.labels = digest, labels
            elif digest != self.digest:
                problems.append("labels differ from the first op's")
        if problems:
            self.failures.append(f"op {self.attempted}: "
                                 + "; ".join(problems))
        else:
            self.report = report
        return seconds


def git_commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    import numpy
    import scipy

    from run import THREAD_VARS

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "SEGMAT_CONFIG": os.environ.get("SEGMAT_CONFIG"),
    }


def rand_index(labels, w) -> float:
    from segmat.metrics import Segmentation, rand_index as dissimilarity
    from segmat.mesh_io import SurfaceMesh

    mesh = SurfaceMesh(w.vertices, w.triangles)
    return dissimilarity(Segmentation.build(mesh, labels),
                         Segmentation.build(mesh, w.truth))


def set_up(args, directory: Path):
    """Import the package, generate the inputs and write them."""
    import_package()
    import workloads

    w = workloads.generate(args.workload, args.seed)
    return w, workloads.write_inputs(w, str(directory))


def timed_set_up(args, directory: Path) -> tuple[float, float]:
    """Seconds one set-up takes in a fresh interpreter: (reference, wall)."""
    proc = subprocess.run(
        [sys.executable, __file__, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "0",
         "--setup-into", str(directory)],
        stdout=subprocess.PIPE, text=True, timeout=SETUP_TIMEOUT_S,
        check=True)
    reference_s, wall_s = proc.stdout.split()
    return float(reference_s), float(wall_s)


def run(args, work_dir: Path):
    setups = [timed_set_up(args, work_dir) for _ in range(SETUP_REPEATS)]
    setup_s = statistics.median(reference for reference, _ in setups)
    w, (off, ma) = set_up(args, work_dir)
    import segmat.cli as cli
    import tracer as tracing

    prefix = str(work_dir / "out")
    argv = ["segment", "--mesh", off, "--mat", ma, "--out", prefix]
    if w.structured:
        argv += ["--structured", ma]
    runner = Runner(cli, argv, prefix, len(w.triangles))
    warmup_s = runner.op()
    times, reference_times, slowdowns = [], [], []
    loop_start = time.perf_counter()
    while (not times or time.perf_counter() - loop_start + times[-1]
           <= args.seconds):
        sampler = speed.Sampler()
        times.append(runner.op(sampler=sampler))
        reference_times.append(sampler.scaled(times[-1]))
        slowdowns.append(sampler.slowdown())
    segment_s = statistics.median(reference_times)
    wall_s = statistics.median(times)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "segment_s": {"median": segment_s, "samples": reference_times,
                      "unit": "s"},
        "segment_wall_s": {"median": wall_s, "samples": times,
                           "warmup": warmup_s, "slowdowns": slowdowns,
                           "unit": "s"},
        "setup_s": {"median": setup_s,
                    "samples": [reference for reference, _ in setups],
                    "wall_samples": [wall for _, wall in setups],
                    "unit": "s"},
        "faces": len(w.triangles),
        "medial_spheres": len(w.radii),
    }
    metrics = {}
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        try:
            traced_s = runner.op(tracer)
        finally:
            tracer.restore()
        metrics = tracing.layer_metrics(tracer)
        metrics["trace.op_s"] = {"value": traced_s, "unit": "s"}
        metrics["trace.overhead_s"] = {"value": traced_s - wall_s,
                                       "unit": "s"}
        details["layers"] = {
            "self_s": dict(tracer.self_times()),
            "inclusive_s": dict(tracer.inclusive_times()),
            "counts": dict(tracer.counts),
            "peaks_mb": tracer.peaks_mb,
            "not_wrapped": tracer.missing,
        }
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        spans_doc = {"columns": ["name", "start_s", "end_s", "parent"],
                     "spans": [[name, start - origin, end - origin, parent]
                               for name, start, end, parent in tracer.spans]}
        (RUNS / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(spans_doc) + "\n")

    failed = len(runner.failures)
    ri = rand_index(runner.labels, w) if runner.labels is not None else 1.0
    if not args.trace:
        metrics = {
            "segment_s": {"value": segment_s, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
        }
    report = runner.report or {}
    details.update({
        "error_rate": {"value": failed / runner.attempted, "unit": "1"},
        "failures": runner.failures,
        "labels_sha256": runner.digest,
        "regions": report.get("regions"),
        "distinct_labels": report.get("distinct_labels"),
        "rand_index": {"value": ri, "unit": "1"},
        "parameters": report.get("parameters"),
        "stages_s": {name: stage["seconds"]
                     for name, stage in report.get("stages", {}).items()},
        "environment": environment(),
    })
    result = {"correct": failed == 0 and runner.digest is not None,
              "attempted": runner.attempted, "failed": failed,
              "metrics": metrics}
    return details, result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-into", type=Path,
                        help="only time one set-up writing into this "
                        "directory, and print the seconds")
    args = parser.parse_args()
    if args.setup_into:
        for module in DEPENDENCIES:
            importlib.import_module(module)
        with speed.Sampler() as sampler:
            start = time.perf_counter()
            set_up(args, args.setup_into)
            seconds = time.perf_counter() - start
        print(sampler.scaled(seconds), seconds)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    RUNS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = RUNS / f"{name}-{os.getpid()}"
    work_dir.mkdir()
    try:
        details, result = run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    (RUNS / f"{name}.json").write_text(
        json.dumps({"details": details, "result": result}, indent=2) + "\n")
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
