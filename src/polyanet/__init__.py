"""Finite-memory interacting Polya urn contagion networks.

Three cross-validating routes to the same process: exact Markov-chain
computation on the expanded draw space, Monte Carlo simulation with
exact integer ball counts, and mean-field dynamical systems (nonlinear
and linearized) with equilibrium analysis.
"""

from .chain import (
    KernelStructure,
    TransitionKernel,
    build_kernel,
    check_irreducible_aperiodic,
    lag_marginals,
    marginal_infection,
    point_mass,
    stationary_distribution,
    two_fold_joint,
)
from .errors import (
    CapExceededError,
    ConfigError,
    ConvergenceError,
    UnstableSystemError,
)
from .meanfield import (
    Equilibrium,
    InfectionTrajectory,
    LinearSystem,
    build_linear_system,
    equilibrium,
    iterate,
    spectral_radius,
    step_nonlinear,
)
from .montecarlo import (
    ReplicateSummary,
    Trajectory,
    average_replicates,
    empirical_sum,
    replicate_stream,
    simulate,
)
from .networks import (
    barabasi_albert,
    complete,
    identity,
    ring,
    row_normalize,
)
from .params import (
    NetworkParams,
    RawConfig,
    check_interaction_matrix,
    clamp_probability,
    normalize,
    red_ratio_table,
)

__version__ = "0.1.0"
