"""End-to-end segmentation: medial mesh in, labeled surface out.

Stages: simplify the medial mesh into a structured one (skipped when the
caller already has one), build the primitive graph, split it into structural
components at the joints, grow regions, merge parts of matching thickness,
and transfer the region labels to the surface faces with an expansion-move
graph cut.  The standard ablations are each one parameter value:
swallowing=False keeps the spikes, merge_tau=0 merges nothing (the EMD is
never below 0) and transfer.max_iterations=0 gives every face its cheapest
region.  Each is listed in PipelineResult.skipped.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .growing import GrowingParams, Region, grow, region_labels
from .mat_graph import MatGraph, build_graph
from .mat_simplify import SimplifyParams, simplify
from .merging import merge_matching
from .mesh_io import EmptyInput, MedialMesh, SurfaceMesh, whole_numbers
from .structure import (
    Joint,
    StructuralComponent,
    assign_base_nodes,
    detect_joints,
    split_components,
)
from .transfer import TransferParams, transfer_labels


@dataclass
class PipelineConfig:
    """Every pipeline knob in one place."""

    simplify: SimplifyParams = field(default_factory=SimplifyParams)
    growing: GrowingParams = field(default_factory=GrowingParams)
    transfer: TransferParams = field(default_factory=TransferParams)
    merge_tau: float = 0.15
    swallowing: bool = True


@dataclass
class PipelineResult:
    """Everything a run produced, including per-stage wall times."""

    labels: np.ndarray
    node_labels: np.ndarray
    regions: list[Region]
    structured: MedialMesh
    graph: MatGraph
    joints: list[Joint]
    components: list[StructuralComponent]
    timings: dict[str, float]
    skipped: tuple[str, ...]


def run_pipeline(mesh: SurfaceMesh, mat: MedialMesh,
                 structured: MedialMesh | None = None,
                 config: PipelineConfig | None = None) -> PipelineResult:
    """Segment mesh using mat; validation errors surface as ValueError.

    When structured is given the simplification stage is skipped and the
    given medial mesh is decomposed directly; mat is then not read.
    """
    cfg = config or PipelineConfig()
    timings: dict[str, float] = {}
    skipped: list[str] = []

    def timed(stage, fn):
        start = time.perf_counter()
        out = fn()
        timings[stage] = time.perf_counter() - start
        return out

    mesh.validate()
    if len(mesh.faces) == 0:
        raise EmptyInput("surface mesh has no faces")
    if structured is None:
        structured = timed("simplify", lambda: simplify(mat, cfg.simplify))
    else:
        skipped.append("simplify")
    graph = timed("graph", lambda: build_graph(structured))

    def decompose():
        joints = detect_joints(structured)
        comps = split_components(structured, joints)
        assign_base_nodes(graph, comps)
        return joints, comps

    joints, comps = timed("decompose", decompose)
    regions = timed("grow", lambda: grow(graph, comps, cfg.growing,
                                         swallowing=cfg.swallowing))
    if not cfg.swallowing:
        skipped.append("swallowing")
    # == 0 lets a NaN or negative tau reach merge_matching's check
    if cfg.merge_tau == 0:
        skipped.append("merging")
    else:
        regions = timed("merge",
                        lambda: merge_matching(graph, regions, cfg.merge_tau))
    if cfg.transfer.max_iterations == 0:
        skipped.append("graphcut")
    labels = timed("transfer",
                   lambda: transfer_labels(mesh, graph, regions, cfg.transfer))
    return PipelineResult(
        labels=labels,
        node_labels=region_labels(graph, regions),
        regions=regions,
        structured=structured,
        graph=graph,
        joints=joints,
        components=comps,
        timings=timings,
        skipped=tuple(skipped),
    )


def boundary_length(mesh: SurfaceMesh, labels) -> float:
    """Total length of mesh edges whose adjacent faces carry different labels.

    Summed over adjacent face pairs, so a non-manifold edge contributes once
    per crossing pair.
    """
    mesh.validate()
    labels = whole_numbers(labels)
    if labels.shape != (len(mesh.faces),):
        raise ValueError(f"{len(mesh.faces)} faces need as many labels, got "
                         f"labels of shape {labels.shape}")
    if (labels == labels[:1]).all():
        return 0.0  # one label: no pair crosses
    pairs, shared = mesh.dual_edges()
    crossing = labels[pairs[:, 0]] != labels[pairs[:, 1]]
    seg = mesh.vertices[shared[crossing, 0]] - mesh.vertices[shared[crossing, 1]]
    return float(np.linalg.norm(seg, axis=1).sum())
