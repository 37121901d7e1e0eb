"""Unitary time evolution of the return-rate state.

Integrates i dPsi/dt = H(t) Psi with H(t) = T^2/(2 mu) + beta*cos(omega*t)*R,
hbar = 1, time in seconds, starting from the discrete Gaussian of width
kappa at market opening (t = 0). Every method is a product of per-step
unitaries U_j:

strang
    Split step: half potential phase in the return basis sampled at
    t + dt/4, the free step exp(-1j*dt*T^2/(2 mu)), half potential phase
    again at t + 3dt/4, which keeps the scheme second order in the
    time-dependent coefficient and exactly time reversible.
magnus2
    Exponential midpoint: U = exp(-1j*H(t + dt/2)*dt).
reference
    magnus2 run at dt/8, used as the convergence yardstick.

How a run steps, its tables, step maps and polish, is
``tables._step_plan``'s to decide: it hands this module the run's
stepper, and this module keeps the config, the loop, the records and the
observables. One loop, ``_propagate``, runs every method: it hands the
next chunk of _STATES steps to the stepper, which writes the state after
each step into a preallocated row, and checks the chunk's states with
one vectorized norm. It starts at any time and runs backward for a
negative dt; ``evolve`` and the time-reversibility check both call it.

The step unitaries are unitary up to roundoff, so norms are conserved;
``norm_drift`` is the worst per-step defect |1 - ||psi||| over the states
the loop computes, and the first of them that is non-finite raises
``PropagationError`` with its grid step, found by rerunning a step map's
loop step a grid step at a time.
``observables_series`` raises ``NumericalError`` for a recorded state
further from unit norm than ``NORM_TOLERANCE``.
A single run is strictly sequential; distinct runs share nothing and may
execute in parallel.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Collection, NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, PropagationError
from .fourier import dft_matrices
from .gaussian import GaussianParams, upsilon_kappa
from .lattice import NORM_TOLERANCE, Lattice, StateVector
from .operators import expectation, rate_operator, trend_operator
from .tables import _CHUNK, _STATES, _step_plan

#: Integration steps each method takes per dt.
_REFINE = {"strang": 1, "magnus2": 1, "reference": 8}
METHODS = tuple(_REFINE)

#: Most integration steps one run may take: bounds the run time of any config.
_MAX_STEPS = 10**7

#: Most memory a run's stepper (tables._step_plan) holds at once in
#: (_CHUNK, d, d) complex stacks, besides vectors: magnus2's per-step eigh
#: writes its stack while it holds the real eigenvectors (half a stack),
#: their phase-scaled complex copy and the complex cast of their transpose
#: that the product takes, 3.5 in all (3.55 traced at q = 40). A
#: state-polished tabled run takes 2: its table of at most _CHUNK matrices
#: and the stack of step unitaries (the polish conjugates one of them at a
#: time). A factorized run takes under 3: the table, one stack, W table,
#: whose p <= 15 rows are at most 15/32 of a stack, and S, no larger.
#: A step map's table has at most 2 _CHUNK rows: stepping it takes 4 stacks
#: at most, and building it under 4: magnus2's Chebyshev table or strang's
#: F, the node maps and two quarter-stack blocks of them. strang on its
#: grid holds no stack: its one matrix, F, is 1/_CHUNK of one.
_PEAK_STACKS = 5

#: Largest price limit q. evolve's memory grows as d^2, d = 2q + 1: its
#: _PEAK_STACKS stacks of 16 _CHUNK d^2 bytes each stay within 1 GiB
#: (d <= 647, q <= 323). A run's table and free step are its own and go
#: with it: beside a run, the process keeps only the cached DFT and kinetic
#: matrices, and a dense operator dump is one stack or less.
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
        if (steps := self.integration_steps) > _MAX_STEPS:
            raise ConfigError(f"{steps:.8g} integration steps exceed the limit of {_MAX_STEPS}")
        object.__setattr__(self, "t_end", n_steps * self.dt)

        raw = self.snapshots
        if raw is None:
            raw = (0.0, self.t_end) if n_steps else (0.0,)
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

    @property
    def integration_dt(self) -> float:
        """The step the method integrates with: dt over its steps per dt."""
        return self.dt / _REFINE[self.method]

    @property
    def integration_steps(self) -> int:
        """The steps of integration_dt from 0 to t_end."""
        return self.n_steps * _REFINE[self.method]


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded at the snapshot times of one run, its phases' wall times in seconds
    and its step map: the grid steps each loop step takes and its table's nodes (0: none)."""

    config: SimulationConfig
    states: tuple[tuple[float, StateVector], ...]
    norm_drift: float
    timings: dict[str, float] = field(default_factory=dict)
    step_map: dict[str, int] = field(default_factory=dict)


def initial_state(config: SimulationConfig) -> StateVector:
    """Opening-time state: the discrete Gaussian of width kappa, unit norm."""
    return upsilon_kappa(config.lattice, GaussianParams(config.kappa))


def exact_free_evolution(psi: StateVector, t: float, mu: float) -> StateVector:
    """Closed-form propagator for beta = 0: phases n^2 t/(2 mu) in the dual basis.

    Serves as the oracle that both stepping schemes must reproduce when
    the potential vanishes.
    """
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}")
    n = psi.lattice.points().astype(float)
    mats = dft_matrices(psi.lattice)
    out = mats.adjoint @ (np.exp(-0.5j * n * n * t / mu) * (mats.forward @ psi.amplitudes))
    return StateVector(psi.lattice, out)


# ---------------------------------------------------------------------------
# full runs

class _Run(NamedTuple):
    """What _propagate returns."""

    states: dict[int, np.ndarray]  # the recorded states, by step
    drift: float  # the worst per-step norm defect
    steps: int  # grid steps per loop step
    nodes: int  # nodes of the run's table; 0 without one
    table_seconds: float  # wall seconds of building the stepper


def _propagate(config: SimulationConfig, psi: np.ndarray, t0: float, dt: float, n_steps: int,
               record_at: Collection[int]) -> _Run:
    """Run config.method for n_steps steps of dt from the state psi at t0.

    dt may be negative, to run backward in time. Records the states after
    the steps k in record_at (k = 0 is psi itself), keyed by k. A run may
    take a map of 2^i grid steps per loop step, where 2^i divides n_steps
    and every k; the norm check covers every state the loop computes, and
    a non-finite one is traced back to its grid step by rerunning that
    loop step a grid step at a time.
    """
    record_at = set(record_at)
    recorded = {0: psi} if 0 in record_at else {}
    if not n_steps:  # no stepper: its buffers would be empty and its free step unused
        return _Run(recorded, 0.0, 1, 0, 0.0)
    begun = time.perf_counter()
    stride = math.gcd(n_steps, *record_at)
    plan = _step_plan(config.lattice, config.mu, config.beta, config.omega, t0, dt, n_steps,
                      stride & -stride, config.method)
    if plan.kick is not None:  # undone at t0, exactly: the first step then opens at t0
        psi = psi * plan.kick(t0).conj()
    built = time.perf_counter() - begun
    steps = plan.steps
    loops, h = n_steps // steps, steps * dt
    drift = 0.0
    chunk = np.empty((min(_STATES, loops), config.lattice.d), dtype=complex)
    rows = list(chunk)
    for start in range(0, loops, _STATES):
        m = min(_STATES, loops - start)
        before = psi.copy() if steps > 1 else None
        psi = plan.step(t0 + (start + np.arange(m)) * h, psi, rows)
        parts = chunk[:m].view(float)
        norms = np.sqrt(np.einsum("ij,ij->i", parts, parts))
        defect = float(np.abs(1.0 - norms).max())  # not finite if any state is not
        if not math.isfinite(defect):
            bad = int(np.flatnonzero(~np.isfinite(norms))[0])
            if steps > 1:  # recording each of its states takes single steps
                origin = chunk[bad - 1] if bad else before
                try:
                    _propagate(config, origin, t0 + (start + bad) * h, dt, steps,
                               range(1, steps + 1))
                except PropagationError as exc:
                    raise PropagationError((start + bad) * steps + exc.step,
                                           "state became non-finite") from None
            raise PropagationError((start + bad + 1) * steps - 1, "state became non-finite")
        drift = max(drift, defect)
        for k in record_at.intersection(range((start + 1) * steps, (start + m) * steps + 1, steps)):
            state = chunk[k // steps - start - 1]
            recorded[k] = state.copy() if plan.kick is None else state * plan.kick(t0 + k * dt)
    return _Run(recorded, drift, steps, plan.nodes, built)


def evolve(config: SimulationConfig) -> Trajectory:
    """Run the configured method from t = 0 to t_end, recording snapshots."""
    h = config.integration_dt
    snap_at = {round(t / h): t for t in config.snapshots}
    begun = time.perf_counter()
    psi = initial_state(config).amplitudes
    ready = time.perf_counter()
    run = _propagate(config, psi, 0.0, h, config.integration_steps, snap_at)
    lattice = config.lattice
    states = tuple((snap_at[k], StateVector(lattice, run.states[k])) for k in sorted(run.states))
    timings = {"initial_state": ready - begun, "table": run.table_seconds,
               "propagate": time.perf_counter() - ready - run.table_seconds}
    return Trajectory(config, states, run.drift, timings, {"steps": run.steps, "nodes": run.nodes})


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
