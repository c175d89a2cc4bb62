"""rdplab: rate-distortion-perception curves, solvers, and coding simulations."""

from .pmf import (
    AlphabetMismatchError,
    Channel,
    Coupling,
    Pmf,
    binary_entropy,
    empirical_pmf,
    entropy,
    is_delta_typical,
    mutual_information,
)
from .divergences import (
    DivergenceSpec,
    coupling_cost,
    divergence,
    kullback_leibler,
    maximal_coupling,
    min_cost_coupling,
    total_variation,
    wasserstein_sq,
)
from .closed_forms import (
    BinaryOptimalSolution,
    KktReport,
    MirrorConstruction,
    binary_optimal_construction,
    circle_analytic,
    kkt_verify,
    mirror_construction,
    phi_binary,
    phi_gaussian,
    rd_gaussian,
    rd_half_binary,
    varphi_binary,
    varphi_gaussian,
)
from .solver import (
    GridInfeasibleError,
    INFEASIBLE,
    ITER_LIMIT,
    OPTIMAL,
    RdpProblem,
    RdpSolution,
    SolverOptions,
    brute_force_rdp,
    rd_function_grid,
    solve_rdp,
    sweep_curve,
)
from .coding import (
    CircleEstimate,
    Codebook,
    SeedMap,
    SimReport,
    empirical_perception_check,
    random_typical_codebook,
    shift_ensemble_sim,
    simulate_circle,
    simulate_seed_map,
    soft_covering_tv,
)

__version__ = "0.1.0"
