"""Numerical laboratory for semilinear heat flow on negatively curved models.

Constructs rotationally symmetric model manifolds, discretizes the
radial Laplace-Beltrami operator, estimates Dirichlet spectral bottoms,
builds and verifies stationary supersolution barriers, and runs the
semilinear evolution with blow-up detection on exhaustion balls.
"""

from .errors import ConfigError
from .forcing import Forcing
from .geometry import (
    CurvatureReport,
    ModelManifold,
    TabulatedWarping,
    WarpingFunction,
    check_curvature_bounds,
    drift,
    drift_lower_constant,
    load_warping_csv,
    make_euclidean,
    make_gamma_model,
    make_hyperbolic,
    radial_curvature,
    save_warping_csv,
    sphere_curvature,
)
from .operators import (
    RadialField,
    RadialGrid,
    SmoothRadialFn,
    apply_laplacian,
    apply_laplacian_analytic,
    load_field_csv,
    save_field_csv,
    sup_norm,
    volume_inner_product,
)
from .spectral import (
    EigenEstimate,
    Lambda1Report,
    RadialSolution,
    dirichlet_lambda1,
    lambda1_estimate,
    mckean_bound,
    positive_radial_solution,
    save_eigen_csv,
)
from .barriers import (
    ExpBarrier,
    GluedBarrier,
    PowerBarrier,
    SupersolutionCheck,
    TimeEnvelope,
    amplitude_limit,
    dump_barrier_kv,
    exp_rate_window,
    fast_decay_rate,
    glued_barrier,
    load_barrier_kv,
    parse_barrier_kv,
    power_tail_barrier,
    slow_decay_params,
    time_envelope,
    verify_supersolution,
)
from .evolution import (
    VERDICT_BLOWUP,
    VERDICT_GLOBAL,
    VERDICT_UNDECIDED,
    EnvelopeComparison,
    EvolutionControls,
    ExhaustionReport,
    RunOutcome,
    barrier_profile,
    blowup_criterion,
    bump_profile,
    compare_with_envelope,
    exhaustion_solve,
    power_tail_profile,
    save_history_csv,
    solve_on_ball,
)

__version__ = "0.1.0"
