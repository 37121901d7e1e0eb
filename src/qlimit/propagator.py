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
    coefficient and exactly time reversible. The stepper merges the
    closing half kick of each step with the opening one of the next
    (first same as last) into one diagonal kick k_j, applied to the
    state: psi <- F (k_j * psi), two calls on d-vectors and no d x d
    matrix built per step. As cos w(t + dt/4) + cos w(t - dt/4) =
    2 cos(wt) cos(w dt/4), a chunk's kicks are exp(outer(cos(w t), rate))
    with rate formed once per run: one cos per step. The run's first step
    has only its opening half.
    The carried state then lacks its last closing half kick,
    exp(-1j*beta*dt/2*cos(omega*(t_k - dt/4))*n), which depends on t_k
    alone and is applied only to the recorded snapshots. ``norm_drift``
    and the ``PropagationError`` step index are taken on the carried
    states, whose norm equals psi's up to one rounding.

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
    omega = 0 (spans would repeat one centre term), per step on the state,
    psi <- 1.5 v - 0.5 U (U^H v), v = U psi. Direct builds take cos(k theta)
    as Re(exp(1j theta)^k). ``operators.hamiltonians`` gives the Hamiltonians.

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
import time
from dataclasses import dataclass, field
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

#: Steps per stack: magnus2 builds its step unitaries this many at a time.
_CHUNK = 32

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
#: complex products, 4.5 in all. A state-polished tabled run takes 3: its
#: table of at most _CHUNK matrices plus two stacks, the step unitaries and
#: their conjugates. A factorized run takes under 3: the table, one stack,
#: W table, whose p <= 15 rows are at most 15/32 of a stack, and S, no larger.
#: strang holds no stack: its one matrix, F, is 1/_CHUNK of one.
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
    """States recorded at the snapshot times of one run, and its phases' wall times in seconds."""

    config: SimulationConfig
    states: tuple[tuple[float, StateVector], ...]
    norm_drift: float
    timings: dict[str, float] = field(default_factory=dict)


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


def _strang_stepper(config: SimulationConfig, t0: float, dt: float, n_steps: int) -> _Stepper:
    """The stepper of an n_steps strang run from t0: psi <- F (k_j * psi) per step.

    k_j joins the closing half kick of step j - 1 with the opening half
    kick of step j, exp(cos(w t_j) * rate); the run's first step (t = t0)
    has only its opening one. The kicks of up to min(_STATES, n_steps)
    steps are written into one buffer allocated here.
    """
    free = _free_step(config.lattice, config.mu, dt)
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
        if t[0] == t0:
            k[0] = _half_kicks(config, np.cos(config.omega * (t0 + 0.25 * dt)), dt)
        for k_j, row in zip(k, rows):
            psi = free.dot(np.multiply(k_j, psi, out=kicked), out=row)
        return psi

    return step


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


def _chebyshev_basis(theta: np.ndarray, degrees: np.ndarray) -> np.ndarray:
    """(len(theta), len(degrees)) Chebyshev polynomials T_k(cos theta) = cos(k theta)."""
    return np.cos(np.outer(theta, degrees))


def _taylor_order(sizes: np.ndarray, degrees: np.ndarray, omega_dt: float, length: int) -> int:
    """Taylor terms p that keep a span's factorized table sum within 1e-17; 0 if it saves nothing.

    A span of length steps sweeps phase offsets |s| <= (length - 1)/2
    |omega dt| about its centre. Cut after p terms, the Taylor series of
    cos(k (c + s)) in s is off by at most (k |s|)^p / p!, so the sum over
    the table's rows C_k, of maxima sizes, by sum_k max|C_k| (k |s|)^p / p!:
    p is the fewest terms that bring this below 1e-17, and 0 when they take
    p (K + length) >= length K products per entry or are more than 15, the
    rows W table may keep. p >= 2: np.matmul leaves BLAS for inner size 1.
    At omega dt = 0, 0: every span would repeat one centre term and its rounding.
    """
    most = min((length * len(sizes) - 1) // (length + len(sizes)), _CHUNK // 2 - 1)
    if most < 2 or not omega_dt:
        return 0
    reach = degrees * (0.5 * (length - 1) * abs(omega_dt))
    terms = np.cumprod(np.outer(1.0 / np.arange(1, most + 1), reach), axis=0)  # (k|s|)^p / p!
    below = terms[1:] @ sizes < 1e-17
    return int(below.argmax()) + 2 if below.any() else 0


def _taylor_span(table: np.ndarray, degrees: np.ndarray, omega_dt: float,
                 n_steps: int) -> tuple[int, int]:
    """(L, p): the span of steps and Taylor terms of an n_steps run's factorization; p = 0: none.

    A span costs p (K + L) products per entry for W table and the stacks,
    and 4d for the polish of its centre term. Spans of _CHUNK 2^i steps,
    capped at n_steps, are tried while L <= 2 d^2, so that S takes no more
    memory than W table; the fewest products per entry and step are kept.
    """
    sizes = np.array([np.abs(row).max() for row in table])  # no table-sized temporary
    polish = 4 * math.isqrt(table.shape[1])
    best, choice, length = math.inf, (min(_CHUNK, n_steps), 0), _CHUNK
    while True:
        span = min(length, n_steps)
        p = _taylor_order(sizes, degrees, omega_dt, span)
        cost = (p * (len(table) + span) + polish) / span
        if p and cost < best:
            best, choice = cost, (span, p)
        length *= 2
        if span == n_steps or length > 2 * table.shape[1]:
            return choice


def _taylor_factors(degrees: np.ndarray, omega: float, dt: float, length: int,
                    order: int) -> tuple[np.ndarray, Callable[[float], np.ndarray]]:
    """S and t -> W(c) of the factorized basis S W(c) of spans of length steps (_tabled_builder).

    S_jl = s_j^l, s_j = (j - (length - 1)/2) omega dt, is fixed per run;
    W(c)_lk = k^l cos(kc + l pi/2) / l!, c = omega (t + length dt / 2) the
    centre phase of a span from t, is written into one (order, K) buffer.
    """
    powers = np.ones((length, order))
    powers[:, 1:] = ((np.arange(length) - 0.5 * (length - 1)) * (omega * dt))[:, None]
    np.cumprod(powers, axis=1, out=powers)
    # k^l / l!, k and l pi/2 as full (p, K) operands: a broadcast one would
    # make the ufuncs allocate buffers
    scale = np.ones((order, len(degrees)))
    scale[1:] = degrees / np.arange(1.0, order)[:, None]
    np.cumprod(scale, axis=0, out=scale)
    rows = np.empty_like(scale)
    rows[:] = degrees
    shift = np.empty_like(scale)
    shift[:] = 0.5 * np.pi * np.arange(order)[:, None]
    out = np.empty_like(scale)
    centre = 0.5 * length * dt

    def weights(t: float) -> np.ndarray:
        w = np.multiply(rows, omega * (t + centre), out=out)
        np.cos(np.add(w, shift, out=w), out=w)
        return np.multiply(w, scale, out=w)

    return powers, weights


def _tabled_builder(table: np.ndarray, degrees: np.ndarray, omega: float, dt: float, t0: float,
                    work: np.ndarray, span: int, order: int) -> Callable[[np.ndarray], np.ndarray]:
    """The builder of a tabled magnus2 run's step unitaries: t -> work[:n], the stack at t.

    Step j of the n = len(t) has the phase theta_j = omega (t_j + dt/2) and
    U_j = sum_k cos(k theta_j) C_k: the stack is B table, B its (n, K)
    Chebyshev basis, as a real product on the interleaved (re, im) pairs,
    3x faster than a complex one. With order p > 0 the run's grid t0 + i dt
    falls into spans of L = span steps, and a stack from step i, at
    offset o = i mod L in its span, takes B = S[o:o + n] W(c) instead:
    the span's phases are c + s_j about its centre c, and, as
    d^l/dtheta^l cos(k theta) = k^l cos(k theta + l pi/2),
    cos(k (c + s)) = sum_l s^l k^l cos(kc + l pi/2) / l!, cut after p
    terms (_taylor_factors). W table, and one Newton-Schulz step on its
    row 0, M_0 = U(c), which S weights by 1 at every step, are formed once
    per span; each stack is then S[o:o + n] (W table).
    """
    parts = table.view(float)
    stacks = work.reshape(len(work), -1).view(float)
    if not order:
        powers = np.empty((len(work), len(table)), dtype=complex)
        basis = np.empty(powers.shape)

        def direct(t: np.ndarray) -> np.ndarray:
            # cos(k theta) = Re(exp(1j theta)^k): rounding each k theta on
            # its own would leave, at large theta, values of no one angle
            n = len(t)
            theta = omega * (t + 0.5 * dt)
            z = powers[:n]
            z[:, 0] = np.cos(0.0 * theta)  # 1, or NaN where the phase overflowed
            z[:, 1:] = np.exp(1j * theta)[:, None]
            np.copyto(basis[:n], np.cumprod(z, axis=1, out=z).real)
            np.matmul(basis[:n], parts, out=stacks[:n])
            return work[:n]

        return direct
    powers, weights = _taylor_factors(degrees, omega, dt, span, order)
    terms = np.empty((order, parts.shape[1]))  # W table
    m_0 = terms[0].view(complex).reshape(work.shape[1:])
    conj, gram, cubed = work[:3]  # scratch until the stack is formed over them
    centred = None  # the span whose W table terms holds

    def build(t: np.ndarray) -> np.ndarray:
        nonlocal centred
        n = len(t)
        first, offset = divmod(round((t[0] - t0) / dt), span)
        if first != centred:
            centred = first
            np.matmul(weights(t0 + first * span * dt), parts, out=terms)
            # M_0 <- 1.5 M_0 - 0.5 M_0 (M_0^H M_0)
            np.matmul(np.conjugate(m_0, out=conj).T, m_0, out=gram)
            np.multiply(np.matmul(m_0, gram, out=cubed), 0.5, out=cubed)
            np.subtract(np.multiply(m_0, 1.5, out=m_0), cubed, out=m_0)
        np.matmul(powers[offset:offset + n], terms, out=stacks[:n])
        return work[:n]

    return build


def _magnus_nodes(lattice: Lattice, mu: float, coupling: np.ndarray, dt: float,
                  m: int) -> np.ndarray:
    """(m, d, d) unitaries at the m Chebyshev nodes, given the couplings of the first ceil(m/2).

    Node m - 1 - i has the coupling -c_i, and J H(c) J = H(-c) exactly,
    J the flip n -> -n, so U(-c) = J U(c) J: one eigh per pair.
    """
    half = _magnus_unitaries(lattice, mu, coupling, dt)
    return np.concatenate([half, half[:m // 2][::-1, ::-1, ::-1]])


def _magnus_table(q: int, mu: float, beta: float, dt: float, m: int) -> np.ndarray:
    """(m, d*d) Chebyshev coefficients C_k in x of exp(-1j*dt*(K + beta*x*R)) on [-1, 1].

    U(x) = sum_k T_k(x) C_k interpolates m node unitaries,
    m = _chebyshev_nodes(|beta*dt|*q).
    """
    theta = np.pi * (np.arange(m) + 0.5) / m
    u = _magnus_nodes(Lattice(q), mu, beta * np.cos(theta[:(m + 1) // 2]), dt, m)
    table = (2.0 / m) * _chebyshev_basis(theta, np.arange(m)).T @ u.reshape(m, -1)
    table[0] *= 0.5
    return table


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

def _magnus_stepper(config: SimulationConfig, t0: float, dt: float, n_steps: int) -> _Stepper:
    """The stepper of an n_steps magnus2 run from t0: psi <- U_j psi, _CHUNK-step stacks.

    Above _CHUNK Chebyshev nodes each stack comes from its own eigh: a table
    would cost more eigh work and memory than one chunk of direct steps.
    Otherwise _tabled_builder writes each stack from the run's table into
    a buffer allocated here, once, in spans of the run's grid t0 + i dt
    where _taylor_span finds one that pays, and the steps go through views
    of it made once per run. The table's unitarity defect, nearly the same
    from step to step, would add up linearly, past the 1e-10 expectation()
    accepts after about a million steps: the builder polishes each span's
    centre term, and a run without spans each state, U (3 - U^H U) psi / 2.
    """
    d = config.lattice.d
    m = _chebyshev_nodes(abs(config.beta * dt) * config.q)
    if m > _CHUNK:
        plain = True  # no polish

        def unitaries(t: np.ndarray) -> np.ndarray:
            coupling = config.beta * np.cos(config.omega * (t + 0.5 * dt))
            return _magnus_unitaries(config.lattice, config.mu, coupling, dt)
    else:
        table = _magnus_table(config.q, config.mu, config.beta, dt, m)
        degrees = np.arange(m, dtype=float)  # as int64 they would be cast per call
        work = np.empty((min(_CHUNK, n_steps), d, d), dtype=complex)
        span, order = _taylor_span(table, degrees, config.omega * dt, n_steps)
        plain = order > 0  # the builder polishes the centre term
        build = _tabled_builder(table, degrees, config.omega, dt, t0, work, span, order)
        views = list(work)  # iterating work would make a view object per step

        def unitaries(t: np.ndarray) -> list:
            build(t)
            return views[:len(t)]

    if plain:
        def step(t: np.ndarray, psi: np.ndarray, rows: list) -> np.ndarray:
            for start in range(0, len(t), _CHUNK):
                for u, row in zip(unitaries(t[start:start + _CHUNK]), rows[start:start + _CHUNK]):
                    psi = u.dot(psi, out=row)
            return psi

        return step

    conj = np.empty_like(work)
    adjoints = list(conj.transpose(0, 2, 1))  # U_j^H once conj holds the conjugates
    v, w, x = np.empty((3, d), dtype=complex)

    def polished(t: np.ndarray, psi: np.ndarray, rows: list) -> np.ndarray:
        for start in range(0, len(t), _CHUNK):
            u = build(t[start:start + _CHUNK])
            np.conjugate(u, out=conj[:len(u)])
            for u_j, g_j, row in zip(views, adjoints, rows[start:start + len(u)]):
                u_j.dot(psi, out=v)
                g_j.dot(v, out=w)
                np.multiply(u_j.dot(w, out=x), 0.5, out=x)
                psi = np.subtract(np.multiply(v, 1.5, out=row), x, out=row)
        return psi

    return polished


#: Per method: the maker of the stepper, called with (config, t0, dt, steps
#: of the run), and the map from a carried state at time t to the state
#: recorded there (None: the carried state is the state).
_LOOP = {
    "strang": (_strang_stepper, _strang_closing_kick),
    "magnus2": (_magnus_stepper, None),
    "reference": (_magnus_stepper, None),
}


def _propagate(config: SimulationConfig, psi: np.ndarray, t0: float, dt: float, n_steps: int,
               record_at: Collection[int]) -> tuple[dict[int, np.ndarray], float]:
    """Run config.method for n_steps steps of dt from the state psi at t0.

    dt may be negative, to run backward in time. Returns the states after
    the steps k in record_at (k = 0 is psi itself), keyed by k, and the
    worst per-step norm defect.
    """
    record_at = set(record_at)
    recorded = {0: psi} if 0 in record_at else {}
    if not n_steps:  # no stepper: its buffers would be empty and its free step unused
        return recorded, 0.0
    make_stepper, record = _LOOP[config.method]
    step = make_stepper(config, t0, dt, n_steps)
    drift = 0.0
    chunk = np.empty((min(_STATES, n_steps), config.lattice.d), dtype=complex)
    rows = list(chunk)
    for start in range(0, n_steps, _STATES):
        m = min(_STATES, n_steps - start)
        psi = step(t0 + (start + np.arange(m)) * dt, psi, rows)
        parts = chunk[:m].view(float)
        norms = np.sqrt(np.einsum("ij,ij->i", parts, parts))
        defect = float(np.abs(1.0 - norms).max())  # not finite if any state is not
        if not math.isfinite(defect):
            bad = np.flatnonzero(~np.isfinite(norms))
            raise PropagationError(start + int(bad[0]), "state became non-finite")
        drift = max(drift, defect)
        for k in record_at.intersection(range(start + 1, start + m + 1)):
            state = chunk[k - start - 1]
            recorded[k] = (state.copy() if record is None
                           else record(config, state, t0 + k * dt, dt))
    return recorded, drift


def evolve(config: SimulationConfig) -> Trajectory:
    """Run the configured method from t = 0 to t_end, recording snapshots."""
    refine = _REFINE[config.method]
    snap_at = {k * refine: t for k, t in config.snapshot_steps().items()}
    begun = time.perf_counter()
    psi = initial_state(config).amplitudes
    ready = time.perf_counter()
    recorded, drift = _propagate(config, psi, 0.0, config.dt / refine, config.n_steps * refine,
                                 snap_at)
    lattice = config.lattice
    states = tuple((snap_at[k], StateVector(lattice, recorded[k])) for k in sorted(recorded))
    timings = {"initial_state": ready - begun, "propagate": time.perf_counter() - ready}
    return Trajectory(config, states, drift, timings)


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
