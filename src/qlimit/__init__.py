"""Finite-dimensional quantum model of daily returns on a price-limited market.

Returns live on the integer lattice {-q, ..., q} of percent moves allowed
by the price-limit rule. States are complex amplitude functions on that
lattice, observables are small Hermitian matrices, and the market state
evolves under i dPsi/dt = [T^2/(2 mu) + beta cos(omega t) R] Psi with the
centered finite Fourier transform connecting the return and trend bases.
"""

from .errors import ConfigError, NumericalError, PropagationError
from .fourier import DftMatrices, apply_dft, apply_inverse_dft, dft_matrices, tilde_delta
from .gaussian import GaussianParams, ThetaArgs, gamma_kappa, theta3, upsilon_kappa
from .lattice import (
    Lattice,
    ProbabilityDistribution,
    StateVector,
    delta_state,
    inner_product,
    new_lattice,
    normalize,
    probabilities,
)
from .operators import (
    HermitianOperator,
    diagonal_potential,
    expectation,
    hamiltonian_at,
    kinetic_operator,
    price_operator,
    rate_operator,
    trend_operator,
)
from .propagator import (
    SimulationConfig,
    Trajectory,
    evolve,
    exact_free_evolution,
    initial_state,
    observables_series,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DftMatrices",
    "GaussianParams",
    "HermitianOperator",
    "Lattice",
    "NumericalError",
    "ProbabilityDistribution",
    "PropagationError",
    "SimulationConfig",
    "StateVector",
    "ThetaArgs",
    "Trajectory",
    "__version__",
    "apply_dft",
    "apply_inverse_dft",
    "delta_state",
    "dft_matrices",
    "diagonal_potential",
    "evolve",
    "exact_free_evolution",
    "expectation",
    "gamma_kappa",
    "hamiltonian_at",
    "initial_state",
    "inner_product",
    "kinetic_operator",
    "new_lattice",
    "normalize",
    "observables_series",
    "price_operator",
    "probabilities",
    "rate_operator",
    "theta3",
    "tilde_delta",
    "trend_operator",
    "upsilon_kappa",
]
