"""xplab: a numerical laboratory for vector-valued torus inequalities.

Discrete-torus inequality functionals, separable averaging operators,
explicit low-distortion embeddings, and Schatten-trace inequalities, with
deterministic seeded sampling plans and JSON/CSV reporting.
"""

from .complexify import (
    bridge_report,
    circular_moment,
    circular_moment_report,
    complexification_norm,
    contraction_check,
)
from .embeddings import (
    EmbeddingResult,
    composite_grid_distortion,
    distortion,
    distortion_from_matrices,
    grid_bounds,
    grid_round_map,
    rosenthal_distortion,
    rosenthal_distortion_two_level,
    rosenthal_embed,
    rosenthal_exponent,
    rosenthal_target_norm,
    schoenberg_embed,
    snowflake_exponent_poly,
    snowflake_exponent_root,
)
from .inequalities import (
    BMW,
    Enflo,
    InequalityReport,
    Pisier,
    convolution_probe,
    convolution_search,
    cotype_report,
    displacement_report,
    linear_xp_report,
    metric_xp_report,
    reverse_linear_xp_report,
    reverse_metric_xp_report,
    scaling_witness_report,
    smoothness_report,
)
from .lattice import (
    Diagonal,
    Edge,
    FixedShift,
    GapEstimate,
    GridFunction,
    LatticePoint,
    SamplePlan,
    ShiftedSet,
    SymmetricDiagonal,
    ThreeLetterDiagonal,
    gap_moment,
    gap_moment_estimate,
    geodesic,
    make_sample_plan,
    random_grid_function,
    subset_stream,
)
from .operators import (
    DS,
    Bj,
    BoxA,
    CalE,
    CalEj,
    DeltaT,
    Ej,
    HypercubeFunction,
    Tj,
    box_average,
    character,
    edge_average,
    rad_identity_residual,
    rademacher_projection,
)
from .rng import stream
from .schatten import (
    Holder,
    LambdaFamily,
    LiebThirring,
    MainQge1,
    OpConvex,
    PsdCounterexample,
    Qlt1,
    SymMatrix,
    eigen_sym,
    khinchine_report,
    psd_counterexample,
    psd_xp_report,
    random_psd,
    schatten_norm,
    schatten_xp_report,
    trace_inequality_report,
    trace_mixed,
    trace_power,
)

__version__ = "0.1.0"
