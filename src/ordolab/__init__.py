"""ordolab: exact-rational solvers, approximations, and reductions for
minimum linear ordering problems over submodular set functions."""

from .core import (
    EXACT_SOLVER_CAP,
    CertificateError,
    Graph,
    GroundSet,
    ModularOracle,
    Ordering,
    ParseError,
    SetFunctionOracle,
    biconnected_components,
    format_graph,
    iter_bits,
    mask_of,
    mla_objective,
    mlop_objective,
    mlvc_objective,
    msvc_objective,
    parse_graph,
    weighted_mlop_objective,
)
from .gomoryhu import (
    GomoryHuTree,
    build_gh_tree,
    gh_lower_bound,
    gh_upper_bound,
    gh_weight_invariance,
    matching_certificate,
)
from .matroids import (
    CoverageFunction,
    CutFunction,
    DualMatroid,
    GraphicMatroid,
    Matroid,
    ParallelExtension,
    UniformMatroid,
    VectorMatroid,
    duplicate,
    fundamental_circuit,
    parse_matrix,
)
from .mlvc import (
    BalanceReport,
    Hypergraph,
    LpModel,
    SchedulingPoset,
    balance_check,
    best_of_n,
    build_lp,
    clique_gap,
    emit_lp,
    exact_pair_probability,
    mlvc_brute_optimum,
    parse_hypergraph,
    regular_lp_value,
    solve_lp,
)
from .partition import (
    LinearityStats,
    PrincipalPartition,
    compute_principal_partition,
    linearity_stats,
)
from .reductions import (
    ApexReduction,
    ReductionCertificate,
    dual_transfer,
    mlvc_msvc_shift,
    mlvc_to_weighted_graphic,
    regular_shift,
    solve_mlvc_via_apex,
    weighted_to_unweighted,
)
from .sfm import (
    SfmResult,
    min_norm_base,
    minimize_offset,
    st_min_cut,
)
from .solve import (
    BoundCertificate,
    approx_monotone_mlop,
    cactus_exact,
    exact_mlop_dp,
    exact_weighted_mlop_dp,
    fixed_basis_extension,
    has_flat_prefix_structure,
    pp_lower_bound,
    small_basis_exact,
    uniform_closed_form,
)

__version__ = "0.1.0"
