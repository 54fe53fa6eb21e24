"""Command-line front end: segment, simplify, eval, abstract, cloud.

Configuration precedence is CLI flag > config file (key=value lines,
default path from the SEGMAT_CONFIG environment variable) > built-in
default, and every run report records each effective value with its
source.  Exit codes: 0 success, 2 input/validation error, 3 internal
error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .extensions import SkeletonCloud, abstraction_error, assign_cloud, mobb, segment_skeleton
from .growing import GrowingParams
from .mat_simplify import SimplifyParams, simplify
from .mesh_io import (
    load_labels,
    load_medial_mesh,
    load_surface,
    load_xyz,
    save_colored_mesh,
    save_labels,
    save_medial_mesh,
    save_point_labels,
)
from .metrics import Segmentation, consistency_error, cut_discrepancy, hamming, rand_index
from .pipeline import PipelineConfig, boundary_length, run_pipeline
from .transfer import TransferParams

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    """Bad paths, malformed files or inconsistent options (exit code 2)."""


def _bool_from_text(text: str) -> bool:
    low = text.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise InputError(f"not a boolean: {text!r}")


# name -> (type, default).  The name is the config-file key and the argparse
# dest; the flag is --name with "_" written "-", and a boolean, on by
# default, is switched off by --no-name.
_OPTIONS = {
    "alpha": (float, GrowingParams().alpha),
    "lambda": (float, GrowingParams().lam),
    "delta0": (float, GrowingParams().delta0),
    "eta": (float, GrowingParams().eta),
    "omega": (float, TransferParams().omega),
    "max_iterations": (int, TransferParams().max_iterations),
    "merge_tau": (float, PipelineConfig().merge_tau),
    "target_error": (float, SimplifyParams().target_error),
    "k": (int, 8),
    "resolution": (int, 64),
    "samples": (int, 10000),
    "seed": (int, 0),
    "swallowing": (bool, True),
    "merging": (bool, True),
    "graphcut": (bool, True),
}


def _add_param_options(parser: argparse.ArgumentParser, keys) -> None:
    parser.add_argument("--config", help="key=value parameter file "
                        "(default: $SEGMAT_CONFIG when set)")
    for key in keys:
        typ, _ = _OPTIONS[key]
        name = key.replace("_", "-")
        if typ is bool:
            parser.add_argument(f"--no-{name}", dest=key,
                                action="store_const", const=False)
        else:
            parser.add_argument(f"--{name}", dest=key, type=typ)
    parser.set_defaults(keys=tuple(keys))


def load_config(path: str) -> dict[str, str]:
    """Parse a key=value config file; unknown keys fail loud."""
    if not os.path.isfile(path):
        raise InputError(f"config file not found: {path}")
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise InputError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _OPTIONS:
                raise InputError(f"{path}:{lineno}: unknown parameter {key!r}")
            out[key] = value
    return out


def resolve_params(args: argparse.Namespace, keys) -> dict[str, dict]:
    """Effective value and source (cli/config/default) for each parameter."""
    path = args.config or os.environ.get("SEGMAT_CONFIG") or None
    config = load_config(path) if path else {}
    resolved: dict[str, dict] = {}
    for key in keys:
        typ, value = _OPTIONS[key]
        given, source = getattr(args, key, None), "default"
        if given is not None:
            value, source = given, "cli"
        elif key in config and typ is bool:
            value, source = _bool_from_text(config[key]), "config"
        elif key in config:
            try:
                value, source = typ(config[key]), "config"
            except ValueError as exc:
                raise InputError(f"config {key}: {exc}") from exc
        if not math.isfinite(value):
            raise InputError(f"{key} must be a finite number, got {value}")
        resolved[key] = {"value": value, "source": source}
    return resolved


def _values(params: dict[str, dict]) -> dict:
    return {key: entry["value"] for key, entry in params.items()}


def _require_file(path: str | None, what: str) -> str:
    if not path:
        raise InputError(f"missing required option {what}")
    if not os.path.isfile(path):
        raise InputError(f"{what} file not found: {path}")
    return path


def _require_out_dir(path: str) -> None:
    """The directory that path is to be written in must exist."""
    out_dir = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(out_dir):
        raise InputError(f"output directory not found: {out_dir}")


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _pipeline_config(values: dict) -> PipelineConfig:
    return PipelineConfig(
        simplify=SimplifyParams(target_error=values["target_error"]),
        growing=GrowingParams(alpha=values["alpha"], lam=values["lambda"],
                              delta0=values["delta0"], eta=values["eta"]),
        transfer=TransferParams(omega=values["omega"],
                                max_iterations=values["max_iterations"]),
        merge_tau=values["merge_tau"],
        swallowing=values["swallowing"],
        merging=values["merging"],
        graphcut=values["graphcut"],
    )


def _segment_one(mesh_path, mat_path, structured_path, out_prefix,
                 params, emit_structured) -> dict:
    _require_file(mesh_path, "--mesh")
    _require_file(mat_path, "--mat")
    if structured_path:
        _require_file(structured_path, "--structured")
    _require_out_dir(out_prefix)

    mesh = load_surface(mesh_path)
    mat = load_medial_mesh(mat_path)
    structured = None
    if structured_path:
        # one file named twice is parsed once
        same = os.path.samefile(structured_path, mat_path)
        structured = mat if same else load_medial_mesh(structured_path)
    result = run_pipeline(mesh, mat, structured, _pipeline_config(_values(params)))

    outputs = {
        "labels": f"{out_prefix}.labels.txt",
        "ply": f"{out_prefix}.ply",
        "report": f"{out_prefix}.report.json",
        "structured": f"{out_prefix}.structured.ma" if emit_structured else None,
    }
    save_labels(mesh, outputs["labels"], result.labels)
    save_colored_mesh(mesh, result.labels, outputs["ply"])
    if emit_structured:
        save_medial_mesh(result.structured, outputs["structured"])
    report = {
        "command": "segment",
        "inputs": {"mesh": mesh_path, "mat": mat_path,
                   "structured": structured_path},
        "parameters": params,
        "stages": {name: {"seconds": secs}
                   for name, secs in result.timings.items()},
        "skipped": list(result.skipped),
        "regions": len(result.regions),
        "faces": int(len(mesh.faces)),
        "distinct_labels": int(len(np.unique(result.labels))),
        "boundary_length": boundary_length(mesh, result.labels),
        "sampling_seed": None,
        "outputs": outputs,
    }
    _write_json(outputs["report"], report)
    return report


def cmd_segment(args: argparse.Namespace) -> int:
    params = resolve_params(args, args.keys)
    if args.batch:
        return _segment_batch(args, params)
    if not args.out:
        raise InputError("missing required option --out")
    _segment_one(args.mesh, args.mat, args.structured, args.out,
                 params, args.emit_structured_mat)
    return EXIT_OK


def _segment_batch(args: argparse.Namespace, params: dict) -> int:
    """Run one pipeline per list line (mesh mat out [structured])."""
    if args.jobs < 1:
        raise InputError("--jobs must be at least 1")
    _require_file(args.batch, "--batch")
    jobs = []
    with open(args.batch, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            fields = line.split()
            if len(fields) not in (3, 4):
                raise InputError(
                    f"{args.batch}:{lineno}: expected 'mesh mat out "
                    f"[structured]'")
            mesh_path, mat_path, out_prefix = fields[:3]
            structured = fields[3] if len(fields) == 4 else None
            jobs.append((mesh_path, mat_path, structured, out_prefix))
    if not jobs:
        raise InputError(f"{args.batch}: no shapes listed")

    def run(job):
        mesh_path, mat_path, structured, out_prefix = job
        try:
            _segment_one(mesh_path, mat_path, structured, out_prefix,
                         params, args.emit_structured_mat)
            return {"out": out_prefix, "status": "ok", "code": EXIT_OK}
        except (ValueError, OSError) as exc:
            return {"out": out_prefix, "status": f"error: {exc}",
                    "code": EXIT_INPUT}
        except Exception as exc:  # pragma: no cover - defensive
            return {"out": out_prefix, "status": f"internal error: {exc}",
                    "code": EXIT_INTERNAL}

    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        results = list(pool.map(run, jobs))
    print(json.dumps({"shapes": len(results),
                      "failed": sum(1 for r in results if r["code"] != 0),
                      "items": results}, indent=2, sort_keys=True))
    return max(r["code"] for r in results)


def cmd_simplify(args: argparse.Namespace) -> int:
    params = resolve_params(args, args.keys)
    values = _values(params)
    _require_file(args.mat, "--mat")
    for path in (args.out, args.report):
        if path:
            _require_out_dir(path)
    mat = load_medial_mesh(args.mat)
    trace = []
    out = simplify(mat, SimplifyParams(target_error=values["target_error"]),
                   trace)
    save_medial_mesh(out, args.out)
    if args.report:
        _write_json(args.report, {
            "command": "simplify",
            "inputs": {"mat": args.mat},
            "parameters": params,
            "before": {"spheres": len(mat.spheres), "edges": len(mat.edges),
                       "faces": len(mat.faces)},
            "after": {"spheres": len(out.spheres), "edges": len(out.edges),
                      "faces": len(out.faces)},
            "collapses": len(trace),
            "largest_collapse_error": math.sqrt(
                max((total for _, total, _ in trace), default=0.0)),
            "error_bound": values["target_error"] * mat.diagonal(),
            "outputs": {"mat": args.out},
        })
    return EXIT_OK


def _metric_row(pred: Segmentation, truth: Segmentation) -> dict[str, float]:
    hd, missing, false_alarm = hamming(pred, truth)
    gce, lce = consistency_error(pred, truth)
    return {
        "rand_index": rand_index(pred, truth),
        "cut_discrepancy": cut_discrepancy(pred, truth),
        "hamming": hd,
        "hamming_missing": missing,
        "hamming_false_alarm": false_alarm,
        "gce": gce,
        "lce": lce,
    }


def _ground_truth_paths(gt: str) -> list[str]:
    if os.path.isdir(gt):
        paths = sorted(os.path.join(gt, name) for name in os.listdir(gt)
                       if os.path.isfile(os.path.join(gt, name)))
        if not paths:
            raise InputError(f"ground-truth directory is empty: {gt}")
        return paths
    return [_require_file(gt, "--gt")]


def cmd_eval(args: argparse.Namespace) -> int:
    _require_file(args.mesh, "--mesh")
    _require_file(args.pred, "--pred")
    if not args.gt:
        raise InputError("missing required option --gt")
    mesh = load_surface(args.mesh)
    pred = Segmentation.build(mesh, load_labels(args.pred, mesh))
    rows = []
    paths = _ground_truth_paths(args.gt)
    for path in paths:
        truth = Segmentation.build(mesh, load_labels(path, mesh))
        rows.append(_metric_row(pred, truth))
    means = {key: sum(row[key] for row in rows) / len(rows)
             for key in rows[0]}

    if args.report == "csv":
        lines = ["metric,value,value_x1000"]
        lines += [f"{key},{mean:.12g},{1000.0 * mean:.12g}"
                  for key, mean in means.items()]
        text = "\n".join(lines) + "\n"
    else:
        text = json.dumps({
            "command": "eval",
            "inputs": {"mesh": args.mesh, "pred": args.pred, "gt": paths},
            "ground_truths": len(paths),
            "metrics": {key: {"value": mean, "x1000": 1000.0 * mean}
                        for key, mean in means.items()},
            "per_ground_truth": [
                {"gt": path, **row} for path, row in zip(paths, rows)],
        }, indent=2, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_abstract(args: argparse.Namespace) -> int:
    params = resolve_params(args, args.keys)
    values = _values(params)
    _require_file(args.mesh, "--mesh")
    _require_file(args.labels, "--labels")
    mesh = load_surface(args.mesh)
    labels = load_labels(args.labels, mesh)
    boxes = []
    parts = [int(v) for v in np.unique(labels)]
    for part in parts:
        verts = np.unique(mesh.faces[labels == part])
        boxes.append(mobb(mesh.vertices[verts]))
    iou, chamfer = abstraction_error(mesh, boxes,
                                     resolution=values["resolution"],
                                     samples=values["samples"],
                                     seed=values["seed"])
    _write_json(args.out, {
        "command": "abstract",
        "inputs": {"mesh": args.mesh, "labels": args.labels},
        "parameters": params,
        "sampling_seed": values["seed"],
        "parts": parts,
        "iou": iou,
        "chamfer": chamfer,
        "boxes": [{
            "label": part,
            "center": list(box.center),
            "axes": [list(axis) for axis in box.axes],
            "half_extents": list(box.half_extents),
        } for part, box in zip(parts, boxes)],
    })
    return EXIT_OK


def cmd_cloud(args: argparse.Namespace) -> int:
    params = resolve_params(args, args.keys)
    values = _values(params)
    _require_file(args.skeleton, "--skeleton")
    skeleton = load_xyz(args.skeleton)
    cloud = None
    if args.cloud:
        _require_file(args.cloud, "--cloud")
        cloud = load_xyz(args.cloud)[:, :3]
        sc = SkeletonCloud.from_cloud(skeleton[:, :3], cloud, k=values["k"])
    elif skeleton.shape[1] == 4:
        sc = SkeletonCloud.build(skeleton[:, :3], skeleton[:, 3],
                                 k=values["k"])
    else:
        raise InputError("skeleton radii unavailable: pass --cloud or use "
                         "a 4-column 'x y z r' skeleton file")
    if args.assign_cloud and cloud is None:
        raise InputError("--assign-cloud requires --cloud")

    grow_params = GrowingParams(alpha=values["alpha"],
                                delta0=values["delta0"], eta=values["eta"])
    labels = segment_skeleton(sc, grow_params)
    outputs = {
        "labels": f"{args.out}.labels.txt",
        "cloud_labels": f"{args.out}.cloud_labels.txt"
        if args.assign_cloud else None,
        "report": f"{args.out}.report.json",
    }
    save_point_labels(outputs["labels"], labels)
    if args.assign_cloud:
        save_point_labels(outputs["cloud_labels"],
                          assign_cloud(sc, labels, cloud))
    _write_json(outputs["report"], {
        "command": "cloud",
        "inputs": {"skeleton": args.skeleton, "cloud": args.cloud},
        "parameters": params,
        "skeleton_points": int(len(sc.points)),
        "cloud_points": None if cloud is None else int(len(cloud)),
        "distinct_labels": int(len(np.unique(labels))),
        "outputs": outputs,
    })
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="segmat",
        description="Medial-axis-driven 3D shape segmentation.")
    sub = top.add_subparsers(dest="command", required=True)

    seg = sub.add_parser("segment", help="segment a mesh given its MAT")
    seg.add_argument("--mesh", help="surface mesh (.off/.obj)")
    seg.add_argument("--mat", help="medial mesh (.ma)")
    seg.add_argument("--structured",
                     help="already simplified medial mesh (skips simplify)")
    seg.add_argument("--out", help="output prefix")
    seg.add_argument("--emit-structured-mat", action="store_true",
                     help="also write the structured MAT")
    seg.add_argument("--batch",
                     help="file of 'mesh mat out [structured]' lines")
    seg.add_argument("--jobs", type=int, default=1,
                     help="concurrent shapes in batch mode")
    _add_param_options(seg, ("alpha", "lambda", "delta0", "eta", "omega",
                             "max_iterations", "merge_tau", "target_error",
                             "swallowing", "merging", "graphcut"))
    seg.set_defaults(func=cmd_segment)

    simp = sub.add_parser("simplify", help="simplify a medial mesh")
    simp.add_argument("--mat", required=True)
    simp.add_argument("--out", required=True)
    simp.add_argument("--report", help="optional JSON report path")
    _add_param_options(simp, ("target_error",))
    simp.set_defaults(func=cmd_simplify)

    ev = sub.add_parser("eval", help="score a labeling against ground truth")
    ev.add_argument("--pred", help="predicted labels file")
    ev.add_argument("--gt", help="ground-truth labels file or directory")
    ev.add_argument("--mesh", help="surface mesh the labels refer to")
    ev.add_argument("--report", choices=("json", "csv"), default="json")
    ev.add_argument("--out", help="write the report here instead of stdout")
    ev.add_argument("--config", help=argparse.SUPPRESS)
    ev.set_defaults(func=cmd_eval)

    ab = sub.add_parser("abstract",
                        help="fit one oriented box per segment and score it")
    ab.add_argument("--mesh", required=True)
    ab.add_argument("--labels", required=True)
    ab.add_argument("--out", required=True, help="JSON report path")
    _add_param_options(ab, ("resolution", "samples", "seed"))
    ab.set_defaults(func=cmd_abstract)

    cl = sub.add_parser("cloud",
                        help="segment a meso-skeleton of a point cloud")
    cl.add_argument("--skeleton", required=True, help="XYZ skeleton points")
    cl.add_argument("--cloud", help="XYZ raw cloud (radius source)")
    cl.add_argument("--out", required=True, help="output prefix")
    cl.add_argument("--assign-cloud", action="store_true",
                    help="also label the raw cloud by nearest skeleton point")
    _add_param_options(cl, ("alpha", "delta0", "eta", "k"))
    cl.set_defaults(func=cmd_cloud)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
