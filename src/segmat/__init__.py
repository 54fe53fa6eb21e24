"""Medial-axis-driven 3D shape segmentation.

Pipeline: simplify the medial axis transform, split it into curve and sheet
components at structural joints, grow regions over the primitive graph with
radius/angle costs, merge parts with matching thickness histograms, then
transfer the segmentation to the surface with a graph cut.  Extras: the
standard segmentation benchmark metrics, oriented-box abstraction, and a
skeleton/point-cloud mode.
"""

__version__ = "0.1.0"

from .geometry import DegenerateGeometry, cone_axes, slab_normals
from .mesh_io import (
    EmptyInput,
    LengthMismatch,
    MedialMesh,
    NegativeRadius,
    ParseError,
    SurfaceMesh,
    load_labels,
    load_medial_mesh,
    load_surface,
    save_colored_mesh,
    save_labels,
    save_medial_mesh,
    save_surface,
)
from .mat_graph import MatGraph, build_graph, pair_angles
from .mat_simplify import SimplifyParams, collapse_cost, simplify
from .structure import (
    ComponentKind,
    DegenerateInput,
    Joint,
    JointKind,
    StructuralComponent,
    ZeroRadius,
    assign_base_nodes,
    detect_joints,
    split_components,
    thinness,
)
from .growing import (
    GrowingParams,
    Region,
    adjusted_threshold,
    cost_terms,
    grow,
    region_labels,
    swallow,
)
from .merging import RadiusHistogram, emd_1d, merge_matching, radius_histogram
from .transfer import (
    NoSegments,
    TransferParams,
    data_table,
    labeling_energy,
    optimize_labels,
    transfer_labels,
)
from .metrics import (
    Segmentation,
    consistency_error,
    cut_discrepancy,
    hamming,
    rand_index,
)
from .extensions import (
    OrientedBox,
    SkeletonCloud,
    abstraction_error,
    assign_cloud,
    mobb,
    segment_skeleton,
)
from .pipeline import (
    PipelineConfig,
    PipelineResult,
    boundary_length,
    run_pipeline,
)
