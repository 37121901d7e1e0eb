"""Unitary time evolution of the return-rate state.

Integrates i dPsi/dt = H(t) Psi with H(t) = T^2/(2 mu) + beta*cos(omega*t)*R,
hbar = 1, time in seconds, starting from the discrete Gaussian of width
kappa at market opening (t = 0).

Every method is a product of per-step unitaries U_j, and one loop,
``_propagate``, runs all three: it builds the (m, d, d) stack of the next
chunk of step unitaries, applies psi <- U_j psi step by step, each into
a preallocated row, and checks the chunk's states with one vectorized
norm. It starts at any time and runs backward for a negative dt;
``evolve`` and the time-reversibility check both call it. Its step
builders write every stack into buffers they allocate once per run:
fresh per-chunk temporaries cost tens of thousands of minor page faults
a day whenever the allocator hands them back to the system between
chunks.

strang
    Split step p1 F p0: half potential phase p0 in the return basis, the
    free step F = exp(-1j*dt*T^2/(2 mu)) (a circulant matrix, cached per
    (q, mu, dt)), half potential phase p1 again. The two potential
    half-steps sample cos at their own midpoints, t + dt/4 and
    t + 3dt/4, which keeps the scheme second order in the time-dependent
    coefficient and exactly time reversible. The loop merges the
    closing half kick of each step with the opening one of the next
    (first same as last), so each of its steps is F diag(k_j) with one
    diagonal kick k_j; the run's first step has only its opening half.
    The carried state then lacks its last closing half kick,
    exp(-1j*beta*dt/2*cos(omega*(t_k - dt/4))*n), which depends on t_k
    alone and is applied only to the recorded snapshots. ``norm_drift``
    and the ``PropagationError`` step index are taken on the carried
    states, whose norm equals psi's up to one rounding.

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
``observables_series`` raises ``NumericalError`` for a recorded state
further from unit norm than ``NORM_TOLERANCE``.
A single run is strictly sequential; distinct runs share nothing and may
execute in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Collection

import numpy as np

from .errors import ConfigError, NumericalError, PropagationError
from .fourier import dft_matrices, even_dual_matrix
from .gaussian import GaussianParams, upsilon_kappa
from .lattice import NORM_TOLERANCE, Lattice, StateVector
from .operators import expectation, hamiltonians, rate_operator, trend_operator

#: Integration steps each method takes per dt.
_REFINE = {"strang": 1, "magnus2": 1, "reference": 8}
METHODS = tuple(_REFINE)

#: Steps per chunk: evolve builds the step unitaries and checks the
#: states of this many steps at a time.
_CHUNK = 32

#: Most integration steps one run may take: bounds the run time of any config.
_MAX_STEPS = 10**7

#: Most memory evolve holds at once in (_CHUNK, d, d) complex stacks, besides
#: vectors: magnus2's per-step eigh fallback keeps the previous chunk's
#: stack, the real eigenvectors (half a stack), their complex cast and two
#: complex products, 4.5 in all. Tabled magnus2 takes 4 (its table and three
#: buffers), strang 1.
_PEAK_STACKS = 5

#: Largest price limit q. evolve's memory grows as d^2, d = 2q + 1: its
#: _PEAK_STACKS stacks of 16 _CHUNK d^2 bytes each stay within 1 GiB
#: (d <= 647, q <= 323). A cached magnus2 table (at most _CHUNK matrices)
#: and a dense operator dump are each one stack or less.
MAX_Q = (math.isqrt(2**30 // (16 * _CHUNK * _PEAK_STACKS)) - 1) // 2


def _finite(key: str, value) -> float:
    """A config number as a finite float; ConfigError otherwise (bools included)."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def checked_q(q) -> int:
    """q as an int in [1, MAX_Q]; ConfigError otherwise (bools included)."""
    if not isinstance(q, (int, np.integer)) or isinstance(q, bool) or q < 1:
        raise ConfigError(f"q must be a positive integer, got {q!r}")
    if q > MAX_Q:
        raise ConfigError(f"q = {q} exceeds the limit of {MAX_Q} (memory of d x d step stacks)")
    return int(q)


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
        object.__setattr__(self, "q", checked_q(self.q))
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
# step unitaries (one builder per method)

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


def _half_kicks(config: SimulationConfig, cos: np.ndarray, dt: float) -> np.ndarray:
    """exp(-1j*beta*dt/2*cos*n): the diagonal potential phases for the sampled cos values."""
    return np.exp(-0.5j * config.beta * dt * cos[..., None] * config.lattice.points())


#: A step builder: the (m, d, d) step stack for the steps starting at the times t.
_StepBuilder = Callable[[np.ndarray], np.ndarray]


def _strang_kicked_builder(config: SimulationConfig, t0: float, dt: float,
                           size: int) -> _StepBuilder:
    """t -> (m, d, d) F diag(k_j) for up to size steps of a run from t0 starting at the times t.

    k_j joins the closing half kick of step j - 1 with the opening half
    kick of step j; the run's first step (t = t0) has only its opening one.
    Every stack is written into one buffer, valid until the next call.
    """
    free = _free_step(config.q, config.mu, dt)
    work = np.empty((size, *free.shape), dtype=complex)

    def build(t: np.ndarray) -> np.ndarray:
        closing = np.cos(config.omega * (t - 0.25 * dt))
        closing[t == t0] = 0.0
        kicks = _half_kicks(config, np.cos(config.omega * (t + 0.25 * dt)) + closing, dt)
        return np.multiply(free, kicks[:, None, :], out=work[:len(t)])

    return build


def _strang_closing_kick(config: SimulationConfig, psi: np.ndarray, t: float,
                         dt: float) -> np.ndarray:
    """The state at t from the loop's carried strang state, which lacks its closing half kick."""
    return psi * _half_kicks(config, np.cos(config.omega * (t - 0.25 * dt)), dt)


def _magnus_unitaries(lattice: Lattice, mu: float, coupling: np.ndarray, dt: float) -> np.ndarray:
    """(m, d, d) exp(-1j*dt*(K + c*R)) for the couplings c, by one batched eigh."""
    try:
        w, vec = np.linalg.eigh(hamiltonians(lattice, mu, coupling))
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


def _magnus_builder(config: SimulationConfig, t0: float, dt: float, size: int) -> _StepBuilder:
    """t -> (m, d, d) exponential-midpoint unitaries for up to size steps starting at the times t.

    Each step depends on its own start time alone, so t0 is unused.
    Tabled stacks are written into three buffers allocated here, once, and
    are valid until the next call; above _CHUNK nodes each call runs its
    own eigh and allocates its result.
    """
    lattice = config.lattice
    coef = _magnus_table(config.q, config.mu, config.beta, dt)
    if coef is None:
        return lambda t: _magnus_unitaries(lattice, config.mu,
                                           config.beta * np.cos(config.omega * (t + 0.5 * dt)), dt)
    d = lattice.d
    work = np.empty((3, size, d, d), dtype=complex)

    def build(t: np.ndarray) -> np.ndarray:
        m = len(t)
        u, g, f = work[:, :m]
        # A real product on the interleaved (re, im) pairs, 3x faster than a complex one.
        basis = _chebyshev_basis(config.omega * (t + 0.5 * dt), len(coef))
        np.matmul(basis, coef.view(float), out=u.reshape(m, -1).view(float))
        # The interpolant's unitarity defect is a few ulp, set by the node
        # unitaries' own errors, so it is nearly the same from one step to
        # the next and the norm drift of a run would grow linearly with its
        # steps, past the 1e-10 that expectation() accepts after about a
        # million. One Newton-Schulz step, U <- U (3 - U^H U) / 2, leaves
        # only rounding that changes from step to step, so the drift grows
        # as a random walk, as it does with one eigh per step.
        np.conjugate(u, out=g)
        np.matmul(g.transpose(0, 2, 1), u, out=f)
        f *= -0.5
        f.reshape(m, -1)[:, :: d + 1] += 1.5  # the diagonal
        return np.matmul(u, f, out=g)

    return build


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

#: Per method: the maker of the step builder, called with (config, t0, dt,
#: most steps per stack), and the map from a carried state at time t to the
#: state recorded there (None: the carried state is the state).
_LOOP = {
    "strang": (_strang_kicked_builder, _strang_closing_kick),
    "magnus2": (_magnus_builder, None),
    "reference": (_magnus_builder, None),
}


def _propagate(config: SimulationConfig, psi: np.ndarray, t0: float, dt: float, n_steps: int,
               record_at: Collection[int]) -> tuple[dict[int, np.ndarray], float]:
    """Run config.method for n_steps steps of dt from the state psi at t0.

    dt may be negative, to run backward in time. Returns the states after
    the steps k in record_at (k = 0 is psi itself), keyed by k, and the
    worst per-step norm defect.
    """
    make_builder, record = _LOOP[config.method]
    size = min(_CHUNK, n_steps)
    build = make_builder(config, t0, dt, size)
    record_at = set(record_at)
    recorded = {0: psi} if 0 in record_at else {}
    drift = 0.0
    chunk = np.empty((size, config.lattice.d), dtype=complex)
    rows = list(chunk)
    for start in range(0, n_steps, _CHUNK):
        m = min(_CHUNK, n_steps - start)
        for u, row in zip(build(t0 + (start + np.arange(m)) * dt), rows):
            psi = u.dot(psi, out=row)
        norms = np.linalg.norm(chunk[:m], axis=1)
        bad = np.flatnonzero(~np.isfinite(norms))
        if bad.size:
            raise PropagationError(start + int(bad[0]), "state became non-finite")
        drift = max(drift, float(np.abs(1.0 - norms).max()))
        for step in record_at.intersection(range(start + 1, start + m + 1)):
            state = chunk[step - start - 1]
            recorded[step] = (state.copy() if record is None
                              else record(config, state, t0 + step * dt, dt))
    return recorded, drift


def evolve(config: SimulationConfig) -> Trajectory:
    """Run the configured method from t = 0 to t_end, recording snapshots."""
    refine = _REFINE[config.method]
    snap_at = {k * refine: t for k, t in config.snapshot_steps().items()}
    recorded, drift = _propagate(config, initial_state(config).amplitudes, 0.0,
                                 config.dt / refine, config.n_steps * refine, snap_at)
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
        defect = psi.norm() - 1.0
        if abs(defect) > NORM_TOLERANCE:
            raise NumericalError(
                f"state at t={t:g} has left unit norm by {defect:.3e} (tolerance "
                f"{NORM_TOLERANCE:g}); the run's norm_drift is {traj.norm_drift:.3e}"
            )
        out.append((t, expectation(rate, psi), expectation(trend, psi), psi.norm()))
    return out
