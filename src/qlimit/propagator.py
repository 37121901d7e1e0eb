"""Unitary time evolution of the return-rate state.

Integrates i dPsi/dt = H(t) Psi with H(t) = T^2/(2 mu) + beta*cos(omega*t)*R,
hbar = 1, time in seconds, starting from the discrete Gaussian of width
kappa at market opening (t = 0).

Every method is a product of per-step unitaries U_j, and one loop in
``evolve`` runs all three: it builds the (m, d, d) stack of the next
chunk of step unitaries, applies psi <- U_j psi step by step, and checks
the chunk's states with one vectorized norm. The single-step functions
build a one-step stack with the same builder and apply it.

strang
    Split step: half potential phase in the return basis, the free step
    exp(-1j*dt*T^2/(2 mu)) (a circulant matrix, cached per (q, mu, dt)),
    half potential phase again. The two potential half-steps sample cos
    at their own midpoints, t + dt/4 and t + 3dt/4, which keeps the
    scheme second order in the time-dependent coefficient and exactly
    time reversible.

magnus2
    Exponential midpoint: U = exp(-1j*H(t + dt/2)*dt). Only the coupling
    c = beta*x, x = cos(omega*(t + dt/2)), changes from step to step, so
    U is tabled once per (q, mu, beta, dt) as Chebyshev coefficients in
    x, built from M node unitaries, and each step's U is a sum of M
    coefficient matrices, polished by one Newton-Schulz step. M is the
    fewest nodes whose interpolation error bound is below 1e-16; when
    that is more than one chunk of steps, each step's U comes from its
    own eigendecomposition instead. The real
    symmetric Hamiltonian matrices come from the one builder
    ``operators.hamiltonians``.

reference
    magnus2 run at dt/8, used as the convergence yardstick.

The step unitaries are unitary up to roundoff, so norms are conserved;
``norm_drift`` is the worst per-step defect |1 - ||psi|||, and the first
step whose state is non-finite raises ``PropagationError``.
A single run is strictly sequential; distinct runs share nothing and may
execute in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigError, NumericalError, PropagationError
from .fourier import dft_matrices, even_dual_matrix
from .gaussian import GaussianParams, upsilon_kappa
from .lattice import Lattice, StateVector
from .operators import expectation, hamiltonians, rate_operator, trend_operator

#: Integration steps each method takes per dt.
_REFINE = {"strang": 1, "magnus2": 1, "reference": 8}
METHODS = tuple(_REFINE)

#: Steps per chunk: evolve builds the step unitaries and checks the
#: states of this many steps at a time.
_CHUNK = 32

#: Most integration steps one run may take: bounds the run time of any config.
_MAX_STEPS = 10**7


def _finite(key: str, value) -> float:
    """A config number as a finite float; ConfigError otherwise (bools included)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def _step_index(t: float, dt: float) -> int:
    steps = t / dt
    if not math.isfinite(steps):
        raise ConfigError(f"time {t!r} is more steps of dt={dt!r} than a float holds")
    return round(steps)


@dataclass(frozen=True)
class SimulationConfig:
    """One evolution run: model parameters, time grid and snapshot times.

    Snapshot times (and t_end) must land on step boundaries; values are
    aligned to the nearest multiple of dt on construction, so compare
    against the stored values to detect adjustments.
    """

    q: int
    kappa: float
    mu: float
    beta: float
    omega: float
    t_end: float
    dt: float = 1.0
    snapshots: tuple[float, ...] | None = None
    method: str = "strang"

    def __post_init__(self) -> None:
        if not isinstance(self.q, (int, np.integer)) or isinstance(self.q, bool) or self.q < 1:
            raise ConfigError(f"q must be a positive integer, got {self.q!r}")
        object.__setattr__(self, "q", int(self.q))
        for key in ("kappa", "mu", "dt", "beta", "omega", "t_end"):
            object.__setattr__(self, key, _finite(key, getattr(self, key)))
        for key in ("kappa", "mu", "dt"):
            if not getattr(self, key) > 0:
                raise ConfigError(f"{key} must be positive, got {getattr(self, key)!r}")
        if self.t_end < 0:
            raise ConfigError(f"t_end must be >= 0, got {self.t_end}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")

        n_steps = _step_index(self.t_end, self.dt)
        steps_run = float(n_steps) * _REFINE[self.method]
        if steps_run > _MAX_STEPS:
            raise ConfigError(f"{steps_run:.8g} integration steps exceed the limit of {_MAX_STEPS}")
        object.__setattr__(self, "t_end", n_steps * self.dt)

        raw = self.snapshots
        if raw is None:
            raw = (0.0, self.t_end)
        raw = tuple(_finite("snapshots", s) for s in raw)
        if any(raw[i] >= raw[i + 1] for i in range(len(raw) - 1)):
            raise ConfigError(f"snapshots must be strictly ascending, got {list(raw)}")
        steps = [_step_index(s, self.dt) for s in raw]
        if any(k < 0 or k > n_steps for k in steps):
            raise ConfigError(
                f"snapshots must lie in [0, t_end={self.t_end}], got {list(raw)}"
            )
        if len(set(steps)) != len(steps):
            raise ConfigError(
                f"snapshots collide after alignment to the dt={self.dt} grid: {list(raw)}"
            )
        object.__setattr__(self, "snapshots", tuple(k * self.dt for k in steps))

    @property
    def lattice(self) -> Lattice:
        return Lattice(self.q)

    @property
    def n_steps(self) -> int:
        return round(self.t_end / self.dt)

    def snapshot_steps(self) -> dict[int, float]:
        """Map step index -> snapshot time."""
        return {round(t / self.dt): t for t in self.snapshots}


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded at the snapshot times of one run."""

    config: SimulationConfig
    states: tuple[tuple[float, StateVector], ...]
    norm_drift: float


def initial_state(config: SimulationConfig) -> StateVector:
    """Opening-time state: the discrete Gaussian of width kappa, unit norm."""
    return upsilon_kappa(config.lattice, GaussianParams(config.kappa))


# ---------------------------------------------------------------------------
# step unitaries (one builder per method, shared by the single steps and evolve)

def _kinetic_phase(lattice: Lattice, dt: float, mu: float) -> np.ndarray:
    n = lattice.points().astype(float)
    return np.exp(-0.5j * n * n * dt / mu)


@lru_cache(maxsize=16)
def _free_step(q: int, mu: float, dt: float) -> np.ndarray:
    """exp(-1j*dt*T^2/(2 mu)) in the return basis (complex symmetric)."""
    lattice = Lattice(q)
    u = even_dual_matrix(lattice, _kinetic_phase(lattice, dt, mu))
    u.flags.writeable = False
    return u


def _strang_steps(config: SimulationConfig, t: np.ndarray, dt: float) -> np.ndarray:
    """(m, d, d) split-step unitaries for the steps starting at the times t."""
    n = config.lattice.points()
    cos = np.cos(config.omega * (t[:, None] + [0.25 * dt, 0.75 * dt]))
    phase = np.exp(-0.5j * config.beta * dt * cos[:, :, None] * n)  # (m, 2, d)
    u = phase[:, 1, :, None] * _free_step(config.q, config.mu, dt)
    u *= phase[:, 0, None, :]
    return u


def _magnus_unitaries(lattice: Lattice, mu: float, coupling: np.ndarray, dt: float) -> np.ndarray:
    """(m, d, d) exp(-1j*dt*(K + c*R)) for the couplings c, by one batched eigh."""
    h = hamiltonians(lattice, mu, coupling)
    try:
        w, vec = np.linalg.eigh(h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"Hamiltonian eigendecomposition failed: {exc}") from exc
    return (vec * np.exp(w * (-1j * dt))[:, None, :]) @ vec.transpose(0, 2, 1)


def _chebyshev_nodes(a: float) -> int:
    """Fewest Chebyshev nodes M with 2 (a/2)^M / M! < 1e-16, or _CHUNK + 1 if above _CHUNK.

    The M-th derivative of x -> exp(-1j*dt*(K + beta*x*R)) is bounded by
    a^M with a = |beta*dt|*q, which bounds the interpolation error in x.
    """
    bound = 2.0
    for m in range(1, _CHUNK + 1):
        bound *= 0.5 * a / m
        if bound < 1e-16:
            return m
    return _CHUNK + 1


def _chebyshev_basis(theta: np.ndarray, m: int) -> np.ndarray:
    """(len(theta), m) Chebyshev polynomials T_k(cos theta) = cos(k theta), k < m."""
    return np.cos(np.multiply.outer(theta, np.arange(m)))


@lru_cache(maxsize=16)
def _magnus_table(q: int, mu: float, beta: float, dt: float) -> np.ndarray | None:
    """(M, d*d) Chebyshev coefficients in x of exp(-1j*dt*(K + beta*x*R)) on [-1, 1].

    None when M exceeds _CHUNK: the table would then cost more eigh work
    and memory than one chunk of direct steps.
    """
    m = _chebyshev_nodes(abs(beta * dt) * q)
    if m > _CHUNK:
        return None
    theta = np.pi * (np.arange(m) + 0.5) / m
    u = _magnus_unitaries(Lattice(q), mu, beta * np.cos(theta), dt)
    coef = (2.0 / m) * _chebyshev_basis(theta, m).T @ u.reshape(m, -1)
    coef[0] *= 0.5
    coef.flags.writeable = False
    return coef


def _magnus_steps(config: SimulationConfig, t: np.ndarray, dt: float) -> np.ndarray:
    """(m, d, d) exponential-midpoint unitaries for the steps starting at the times t."""
    theta = config.omega * (t + 0.5 * dt)
    lattice = config.lattice
    coef = _magnus_table(config.q, config.mu, config.beta, dt)
    if coef is None:
        return _magnus_unitaries(lattice, config.mu, config.beta * np.cos(theta), dt)
    d = lattice.d
    # A real product on the interleaved (re, im) pairs, 3x faster than a complex one.
    u = (_chebyshev_basis(theta, len(coef)) @ coef.view(float)).view(complex).reshape(-1, d, d)
    # The interpolant's unitarity defect is a few ulp, set by the node
    # unitaries' own errors, so it is nearly the same from one step to the
    # next and the norm drift of a run would grow linearly with its steps,
    # past the 1e-10 that expectation() accepts after about a million.
    # One Newton-Schulz step, U <- U (3 - U^H U) / 2, leaves only rounding
    # that changes from step to step, so the drift grows as a random walk,
    # as it does with one eigh per step.
    f = u.conj().transpose(0, 2, 1) @ u
    f *= -0.5
    f += 1.5 * np.eye(d)
    return u @ f


def step_strang(psi: StateVector, t: float, dt: float, config: SimulationConfig) -> StateVector:
    """One split step from t to t + dt (dt may be negative for reversal)."""
    u = _strang_steps(config, np.array([t]), dt)[0]
    return StateVector(config.lattice, u @ psi.amplitudes)


def step_magnus2(psi: StateVector, t: float, dt: float, config: SimulationConfig) -> StateVector:
    """One exponential midpoint step from t to t + dt."""
    u = _magnus_steps(config, np.array([t]), dt)[0]
    return StateVector(config.lattice, u @ psi.amplitudes)


def exact_free_evolution(psi: StateVector, t: float, mu: float) -> StateVector:
    """Closed-form propagator for beta = 0: phases n^2 t/(2 mu) in the dual basis.

    Serves as the oracle that both stepping schemes must reproduce when
    the potential vanishes.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    mats = dft_matrices(psi.lattice)
    out = mats.adjoint @ (_kinetic_phase(psi.lattice, t, mu) * (mats.forward @ psi.amplitudes))
    return StateVector(psi.lattice, out)


# ---------------------------------------------------------------------------
# full runs

def evolve(config: SimulationConfig) -> Trajectory:
    """Run the configured method from t = 0 to t_end, recording snapshots."""
    refine = _REFINE[config.method]
    dt = config.dt / refine
    build = _strang_steps if config.method == "strang" else _magnus_steps
    n_steps = config.n_steps * refine
    snap_at = {k * refine: t for k, t in config.snapshot_steps().items()}

    psi = initial_state(config).amplitudes
    recorded = {0: psi} if 0 in snap_at else {}
    drift = 0.0
    chunk = np.empty((_CHUNK, config.lattice.d), dtype=complex)
    for start in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - start)
        unitaries = build(config, (start + np.arange(m)) * dt, dt)
        for j in range(m):
            psi = np.matmul(unitaries[j], psi, out=chunk[j])
        norms = np.linalg.norm(chunk[:m], axis=1)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise PropagationError(start + int(bad[0]), "state became non-finite")
        drift = max(drift, float(np.abs(1.0 - norms).max()))
        for step in snap_at.keys() & range(start + 1, start + m + 1):
            recorded[step] = chunk[step - start - 1].copy()

    lattice = config.lattice
    states = tuple((snap_at[k], StateVector(lattice, recorded[k])) for k in sorted(recorded))
    return Trajectory(config, states, drift)


def observables_series(traj: Trajectory) -> list[tuple[float, float, float, float]]:
    """Per-snapshot (t, <R>, <T>, ||Psi||) for a trajectory."""
    lattice = traj.config.lattice
    rate = rate_operator(lattice)
    trend = trend_operator(lattice)
    out = []
    for t, psi in traj.states:
        out.append((t, expectation(rate, psi), expectation(trend, psi), psi.norm()))
    return out
