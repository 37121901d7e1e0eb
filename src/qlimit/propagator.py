"""Unitary time evolution of the return-rate state.

Integrates i dPsi/dt = H(t) Psi with H(t) = T^2/(2 mu) + beta*cos(omega*t)*R,
hbar = 1, time in seconds, starting from the discrete Gaussian of width
kappa at market opening (t = 0).

Every method is a product of per-step unitaries U_j, and one loop,
``_propagate``, runs all three. It hands the next chunk of _STATES steps
to the method's stepper, which writes the state after each step into a
preallocated row, and checks the chunk's states with one vectorized norm.
It starts at any time and runs backward for a negative dt; ``evolve`` and
the time-reversibility check both call it. The steppers write into
buffers they allocate once per run: fresh per-chunk temporaries cost
tens of thousands of minor page faults a day whenever the allocator
hands them back to the system between chunks.

strang
    Split step p1 F p0: half potential phase p0 in the return basis, the
    free step F = exp(-1j*dt*T^2/(2 mu)) (a circulant matrix, built once
    per run), half potential phase p1 again. The two potential
    half-steps sample cos at their own midpoints, t + dt/4 and
    t + 3dt/4, which keeps the scheme second order in the time-dependent
    coefficient and exactly time reversible. Its step, like magnus2's, is
    a periodic function of its midpoint phase, and one function,
    ``tables._step_plan``, plans both methods: where a step map pays, a
    strang run steps it as magnus2 does (below), its node maps formed from
    kicks and F, with no eigh (the fig2 day: 7 200 loop steps of a 4-step
    map at 49 nodes). Elsewhere it steps its grid, and the stepper merges
    the closing half kick of each step with the opening one of the next
    (first same as last) into one diagonal kick k_j, applied to the
    state: psi <- F (k_j * psi), two calls on d-vectors and no d x d
    matrix built per step. As cos w(t + dt/4) + cos w(t - dt/4) =
    2 cos(wt) cos(w dt/4), a chunk's kicks are exp(outer(cos(w t), rate))
    with rate formed once per run: one cos per step. The carried state
    lacks its last closing half kick,
    exp(-1j*beta*dt/2*cos(omega*(t_k - dt/4))*n), which depends on t_k
    alone: undone once on the initial state, exactly, as the kick is
    diagonal and unitary, and applied only to the recorded snapshots.
    ``norm_drift`` and the ``PropagationError`` step index are taken on
    the carried states, whose norm equals psi's up to one rounding.

magnus2
    Exponential midpoint: U = exp(-1j*H(t + dt/2)*dt). Only the coupling
    c = beta*x, x = cos(omega*(t + dt/2)), changes from step to step, so
    each run tables U once as Chebyshev coefficients in x, built from M
    node unitaries, one eigh per node pair x, -x (J H(c) J = H(-c), J the
    flip n -> -n), and each step's U is a sum of M coefficient matrices;
    above _CHUNK nodes each step takes its own eigh.
    The stepper builds the unitaries as (_CHUNK, d, d) stacks. Where a span
    of L steps of the run's grid pays (_taylor_span), the span's Chebyshev
    basis factors as S W(c), p Taylor terms about its centre phase c: W
    table is formed once per span and each stack is S (W table), p (K + L)
    products per entry and span instead of L K (L = 128, p = 8, K = 15 on
    the fig2 day). The stored table has a fixed unitarity defect of a few
    ulp, which would make the norm drift grow linearly with the steps. One
    Newton-Schulz step cancels it, with rounding of its own each time, so
    the drift grows as a random walk: once per span on its centre term
    M_0 = U(c), M_0 <- M_0 (3 - M_0^H M_0) / 2, or, where no span pays or
    the span centres lie too close in phase (omega = 0 among them: spans
    would repeat one centre term), per step on the state,
    psi <- 1.5 v - 0.5 U (U^H v), v = U psi. Direct builds take cos(k theta)
    as Re(exp(1j theta)^k). ``tables._step_plan`` plans a run: eigh or
    table, step map, spans and which polish; it hands back
    the stack builder, and the stepper here applies its stacks, with the
    state polish where the plan asks for it. ``operators.hamiltonians``
    gives the Hamiltonians. Step maps: as H(t) is periodic, the product of
    Delta = 2^i steps is a 2 pi-periodic, analytic function of its
    midpoint phase. Where Delta divides the run's steps and every
    recorded step, and a cost rule (_step_map) finds that its build
    pays, the run tables that map instead:
    its 2D + 1 <= 2 _CHUNK node values, products of the Chebyshev table's
    unitaries each polished once, fitted as cos k phi and sin k phi rows
    (D bounded from the table's norms), and steps the grid Delta steps at
    a time with the same builder, spans and polish. No new eigh: the fig2
    day takes 3 600 loop steps of an 8-step map at 57 nodes.

reference
    magnus2 run at dt/8, used as the convergence yardstick (the fig2 day:
    7 200 loop steps of a 32-step map at 47 nodes).

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
from typing import Callable, Collection, NamedTuple

import numpy as np

from .errors import ConfigError, NumericalError, PropagationError
from .fourier import dft_matrices, even_dual_matrix
from .gaussian import GaussianParams, upsilon_kappa
from .lattice import NORM_TOLERANCE, Lattice, StateVector
from .operators import expectation, rate_operator, trend_operator
from .tables import _CHUNK, _step_plan

#: Integration steps each method takes per dt.
_REFINE = {"strang": 1, "magnus2": 1, "reference": 8}
METHODS = tuple(_REFINE)

#: States per chunk: evolve runs a method's stepper on, and checks the
#: norms of, this many steps at a time. Beside its stacks a run holds
#: (_STATES, d) complex blocks of states and, for strang, of kicks; the
#: memory test allows 8 (_CHUNK, d) blocks of vectors, which a q = 40
#: magnus2 run keeps within at 2 _CHUNK states and exceeds at 4 _CHUNK.
_STATES = 2 * _CHUNK

#: Most integration steps one run may take: bounds the run time of any config.
_MAX_STEPS = 10**7

#: Most memory evolve holds at once in (_CHUNK, d, d) complex stacks, besides
#: vectors: magnus2's per-step eigh fallback keeps the previous chunk's
#: stack, the real eigenvectors (half a stack), their complex cast and two
#: complex products, 4.5 in all. A state-polished tabled run takes 2: its
#: table of at most _CHUNK matrices and the stack of step unitaries (the
#: polish conjugates one of them at a time). A factorized run takes under
#: 3: the table, one stack, W table, whose p <= 15 rows are at most 15/32
#: of a stack, and S, no larger.
#: A step map's table has at most 2 _CHUNK rows: stepping it takes 4 stacks
#: at most, and building it under 4: magnus2's Chebyshev table or strang's
#: F, the node maps and two blocks of at most half a stack. strang on its
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
        steps_run = float(n_steps) * _REFINE[self.method]
        if steps_run > _MAX_STEPS:
            raise ConfigError(f"{steps_run:.8g} integration steps exceed the limit of {_MAX_STEPS}")
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

    def snapshot_steps(self) -> dict[int, float]:
        """Map step index -> snapshot time."""
        return {round(t / self.dt): t for t in self.snapshots}


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


# ---------------------------------------------------------------------------
# steppers and step unitaries (one stepper per method)

def _kinetic_phase(lattice: Lattice, dt: float, mu: float) -> np.ndarray:
    n = lattice.points().astype(float)
    return np.exp(-0.5j * n * n * dt / mu)


def _free_step(lattice: Lattice, mu: float, dt: float) -> np.ndarray:
    """exp(-1j*dt*T^2/(2 mu)) in the return basis (complex symmetric)."""
    return even_dual_matrix(lattice, _kinetic_phase(lattice, dt, mu))


def _half_kicks(config: SimulationConfig, cos: np.ndarray, dt: float) -> np.ndarray:
    """exp(-1j*beta*dt/2*cos*n): the diagonal potential phases for the sampled cos values."""
    return np.exp(-0.5j * config.beta * dt * cos[..., None] * config.lattice.points())


#: A stepper: (t, psi, rows) -> psi. It takes the steps starting at the times
#: t, on _propagate's grid t_0 + j dt, from the carried state psi, writes the
#: state after each into the next of rows and returns the last.
_Stepper = Callable[[np.ndarray, np.ndarray, list], np.ndarray]


def _strang_stepper(config: SimulationConfig, dt: float, n_steps: int,
                    free: np.ndarray) -> _Stepper:
    """The grid stepper of an n_steps strang run of free step free: psi <- F (k_j * psi) per step.

    k_j joins the closing half kick of step j - 1 with the opening half
    kick of step j, exp(cos(w t_j) * rate); the carried state lacks its
    closing half kick from the start (_propagate). The kicks of up to
    min(_STATES, n_steps) steps are written into one buffer allocated here.
    """
    n = config.lattice.points()
    # cos w(t + dt/4) + cos w(t - dt/4) = 2 cos(wt) cos(w dt/4)
    rate = (-1j * config.beta * dt * math.cos(0.25 * config.omega * dt) * n)[None, :]
    # cos(w t) as a complex column: the outer product with rate is then one
    # matmul, which, unlike a broadcast multiply, allocates no ufunc buffers
    cos = np.zeros((min(_STATES, n_steps), 1), dtype=complex)
    kicks = np.empty((len(cos), len(n)), dtype=complex)
    kicked = np.empty(len(n), dtype=complex)

    def step(t: np.ndarray, psi: np.ndarray, rows: list) -> np.ndarray:
        np.cos(config.omega * t, out=cos[:len(t), 0].real)
        k = np.matmul(cos[:len(t)], rate, out=kicks[:len(t)])
        np.exp(k, out=k)
        for k_j, row in zip(k, rows):
            psi = free.dot(np.multiply(k_j, psi, out=kicked), out=row)
        return psi

    return step


def _strang_closing_kick(config: SimulationConfig, psi: np.ndarray, t: float,
                         dt: float) -> np.ndarray:
    """The state at t from the loop's carried strang state, which lacks its closing half kick."""
    return psi * _half_kicks(config, np.cos(config.omega * (t - 0.25 * dt)), dt)


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

def _stepper(config: SimulationConfig, t0: float, dt: float, n_steps: int,
             stride: int = 1) -> tuple[_Stepper, int, int, bool]:
    """An n_steps run's stepper from t0, its loop step's grid steps, its nodes and whether it kicks.

    tables._step_plan decides how the run steps; the stepper applies its
    stacks, psi <- U_j psi, and where the plan asks for it polishes each
    state, psi <- 1.5 v - 0.5 U (U^H v), v = U psi. A strang run where no
    map pays takes its grid stepper, whose carried state lacks its closing
    half kick (kicks: True).
    """
    free = _free_step(config.lattice, config.mu, dt) if config.method == "strang" else None
    plan = _step_plan(config.lattice, config.mu, config.beta, config.omega, t0, dt, n_steps,
                      stride, free)
    if plan.build is None:
        return _strang_stepper(config, dt, n_steps, free), 1, 0, True
    if not plan.polish:
        return _plain_stepper(plan.build), plan.steps, plan.nodes, False

    d = config.lattice.d
    conj = np.empty((d, d), dtype=complex)
    adjoint = conj.T  # U_j^H once conj holds U_j's conjugate
    v, w, x = np.empty((3, d), dtype=complex)

    def polished(t: np.ndarray, psi: np.ndarray, rows: list) -> np.ndarray:
        for start in range(0, len(t), _CHUNK):
            for u_j, row in zip(plan.build(t[start:start + _CHUNK]), rows[start:start + _CHUNK]):
                u_j.dot(psi, out=v)
                np.conjugate(u_j, out=conj)
                adjoint.dot(v, out=w)
                np.multiply(u_j.dot(w, out=x), 0.5, out=x)
                psi = np.subtract(np.multiply(v, 1.5, out=row), x, out=row)
        return psi

    return polished, plan.steps, plan.nodes, False


def _plain_stepper(unitaries: Callable[[np.ndarray], list]) -> _Stepper:
    """psi <- U_j psi, with no polish, for the stacks unitaries(t) of _CHUNK steps at a time."""
    def step(t: np.ndarray, psi: np.ndarray, rows: list) -> np.ndarray:
        for start in range(0, len(t), _CHUNK):
            for u, row in zip(unitaries(t[start:start + _CHUNK]), rows[start:start + _CHUNK]):
                psi = u.dot(psi, out=row)
        return psi

    return step


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
    step, steps, nodes, kicked = _stepper(config, t0, dt, n_steps, stride & -stride)
    if kicked:  # the closing half kick at t0 undone, exactly: its first step then opens at t0
        psi = psi * _half_kicks(config, np.cos(config.omega * (t0 - 0.25 * dt)), -dt)
    built = time.perf_counter() - begun
    loops, h = n_steps // steps, steps * dt
    drift = 0.0
    chunk = np.empty((min(_STATES, loops), config.lattice.d), dtype=complex)
    rows = list(chunk)
    for start in range(0, loops, _STATES):
        m = min(_STATES, loops - start)
        before = psi.copy() if steps > 1 else None
        psi = step(t0 + (start + np.arange(m)) * h, psi, rows)
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
            recorded[k] = (_strang_closing_kick(config, state, t0 + k * dt, dt) if kicked
                           else state.copy())
    return _Run(recorded, drift, steps, nodes, built)


def evolve(config: SimulationConfig) -> Trajectory:
    """Run the configured method from t = 0 to t_end, recording snapshots."""
    refine = _REFINE[config.method]
    snap_at = {k * refine: t for k, t in config.snapshot_steps().items()}
    begun = time.perf_counter()
    psi = initial_state(config).amplitudes
    ready = time.perf_counter()
    run = _propagate(config, psi, 0.0, config.dt / refine, config.n_steps * refine, snap_at)
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
