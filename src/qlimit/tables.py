"""Step-operator tables of magnus2 and strang runs, and the plan that picks them.

A magnus2 step is U = exp(-1j*dt*(K + c*R)) with the coupling
c = beta*cos(theta), theta = omega*(t + dt/2); a strang step is
E(theta + omega dt/4) F E(theta - omega dt/4), F the free step and E the
diagonal half kicks. _step_plan alone decides how a run of either method
steps: eigh per step or a table, a step map, spans, and whether the states
need the polish. It hands ``propagator`` a builder of the run's stacks,
which ``propagator`` applies, or, for a strang run no map pays for, none;
the tables hold no state beyond the run that builds them.

- The Chebyshev table in x = cos(theta) (_magnus_table): M node
  unitaries, one eigh per node pair, fitted as U = sum_k cos(k theta) C_k.
- Spans (_taylor_span, _tabled_builder): where L steps of the run's grid
  sweep a narrow phase, the span's basis factors as S W(c), p Taylor
  terms about its centre phase c.
- Step maps (_step_map, _step_table): the product of 2^i steps of either
  method is a 2 pi-periodic function of its midpoint phase, tabled at
  2D + 1 equispaced phases as cos k phi and sin k phi rows, and stepped by
  the same builder. Its node maps are products of one-step unitaries: the
  Chebyshev table's for magnus2, F between two kicks for strang.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError
from .lattice import Lattice
from .operators import hamiltonians

#: Steps per stack: magnus2 builds its step unitaries this many at a time.
_CHUNK = 32

#: Least phase between consecutive span centres (_taylor_order), from the
#: drift of runs at q = 1, 10 and 30 (README, Methods).
_SPAN_SPACING = 2e-5

#: One numpy call's fixed cost, about 0.9 us, in the plan's products per
#: stack entry times d^2 (strang's plan; README, Methods).
_CALL = 5e3


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
    0 also where consecutive span centres, length |omega dt| apart in phase,
    lie closer than _SPAN_SPACING: their centre terms barely change, and
    the drift grows about linearly, as at omega = 0; and where they lie
    2 pi or more apart: no 15 terms reach 1e-17 over such a span (the
    terms would overflow at large omega dt).
    """
    most = min((length * len(sizes) - 1) // (length + len(sizes)), _CHUNK // 2 - 1)
    if most < 2 or not _SPAN_SPACING <= length * abs(omega_dt) < 2 * math.pi:
        return 0
    reach = degrees * (0.5 * (length - 1) * abs(omega_dt))
    terms = np.cumprod(np.outer(1.0 / np.arange(1, most + 1), reach), axis=0)  # (k|s|)^p / p!
    below = terms[1:] @ sizes < 1e-17
    return int(below.argmax()) + 2 if below.any() else 0


def _span_cost(sizes: np.ndarray, degrees: np.ndarray, omega_dt: float, n_steps: int,
               d: int) -> tuple[float, int, int]:
    """(cost, L, p): an n_steps run's products per stack entry and step, span and Taylor terms.

    A table of K rows of maxima sizes, stepped directly, costs K products
    per entry for its stack, 2 for the step and 6 for the state polish. A
    span costs p (K + L) products per entry for W table and the stacks,
    and 4d for the polish of its centre term. Spans of _CHUNK 2^i steps,
    capped at n_steps, are tried while L <= 2 d^2, so that S takes no more
    memory than W table; the fewest products per entry and step are kept.
    """
    best, choice, length = math.inf, (min(_CHUNK, n_steps), 0), _CHUNK
    while True:
        span = min(length, n_steps)
        p = _taylor_order(sizes, degrees, omega_dt, span)
        cost = (p * (len(sizes) + span) + 4 * d) / span
        if p and cost < best:
            best, choice = cost, (span, p)
        length *= 2
        if span == n_steps or length > 2 * d * d:
            return (best + 2 if choice[1] else len(sizes) + 8.0, *choice)


def _taylor_span(table: np.ndarray, degrees: np.ndarray, omega_dt: float,
                 n_steps: int) -> tuple[int, int]:
    """(L, p): the span of steps and Taylor terms of an n_steps run's factorization; p = 0: none."""
    sizes = np.array([np.abs(row).max() for row in table])  # no table-sized temporary
    return _span_cost(sizes, degrees, omega_dt, n_steps, math.isqrt(table.shape[1]))[1:]


def _step_map(bound: np.ndarray, node_cost: float, grid: float, call: float, d: int,
              omega_dt: float, n_steps: int, stride: int, first: bool = False) -> tuple[int, int]:
    """(steps, D): the grid steps of an n_steps run's step map and the Fourier degree of its table.

    The map of steps = 2^i grid steps, P(phi) = U(phi + (steps - 1)/2 omega
    dt) ... U(phi - (steps - 1)/2 omega dt), is 2 pi-periodic in its
    midpoint phase phi. With U(theta) = sum_j c_j exp(1j j theta) and bound
    the spectral-norm bounds on |c_j|, j = -J .. J, the coefficients of
    the map of 2s steps are bounded by the convolution of the s-step
    bounds with themselves. D is the least degree whose neglected terms,
    twice over for aliasing, bound the table's error below 1e-16 (as
    _chebyshev_nodes does): a table of 2D + 1 rows, cos k phi and sin k
    phi, fitted at as many nodes. It holds at most 2 _CHUNK rows. steps
    divides stride. Its cost per grid step is its build amortized over the
    run, N (steps node_cost + 2d (steps - 1) + N) products per entry for
    the N node maps, node_cost to form each step's unitary, and their fit,
    plus its own stepping (_span_cost) over steps; the cheapest, against
    grid, the cost of a grid step, is kept: (1, 0) for the grid. call > 0
    also prices numpy calls at call each: 1 200 for the build, whatever
    its size, and per loop step 1, or 7 where the state is polished. With
    first, the first map that beats the grid is returned.
    """
    best, choice = grid, (1, 0)
    for steps in (1 << i for i in range(1, stride.bit_length())):
        bound = np.convolve(bound, bound)
        half = len(bound) // 2
        per_degree = bound[half:].copy()  # |c_k| + |c_-k| bounds the rows of degree k
        per_degree[1:] += bound[half - 1::-1]
        beyond = np.cumsum(per_degree[::-1])[::-1]  # beyond[k]: the terms of degree k and up
        degree = int(np.argmax(2 * np.append(beyond[1:], 0.0) < 1e-16))
        nodes = 2 * degree + 1
        build = (1200 * call + nodes * (steps * node_cost + 2 * d * (steps - 1) + nodes)) / n_steps
        # the bound's degree grows with the steps, so a longer map builds at least as much
        if nodes > 2 * _CHUNK or build >= best:
            break
        map_degrees = _map_degrees(degree)
        cost, _, order = _span_cost(per_degree[map_degrees.astype(int)], map_degrees,
                                    steps * omega_dt, n_steps // steps, d)
        cost = build + (cost + (1 if order else 7) * call) / steps
        if cost < best:
            best, choice = cost, (steps, degree)
            if first:
                break
    return choice


def _norm_bounds(mats: np.ndarray) -> np.ndarray:
    """Upper bounds on the spectral norms of the (K, d, d) mats, within a factor d^(1/128).

    ||A||^2 = ||G|| for G = A^H A, and ||G|| <= ||G^m||_F^(1/m) <= d^(1/2m) ||G||:
    G squared five times (m = 32), scaled to unit Frobenius norm before each
    square, by complex products alone (an SVD would cost its LAPACK code's
    pages, about 0.8 MB of resident memory, in every process that runs one).
    """
    g = np.matmul(np.conjugate(mats).transpose(0, 2, 1), mats)
    tiny = np.finfo(float).tiny
    logs = np.zeros(len(g))  # log ||G^m||_F = logs + log ||g||_F
    for _ in range(5):
        f = np.maximum(np.sqrt(np.einsum("kij,kij->k", g.view(float), g.view(float))), tiny)
        g /= f[:, None, None]
        logs = 2 * (logs + np.log(f))
        g = np.matmul(g, g)
    f = np.maximum(np.sqrt(np.einsum("kij,kij->k", g.view(float), g.view(float))), tiny)
    return np.exp((logs + np.log(f)) / 64)


def _map_degrees(degree: int) -> np.ndarray:
    """The degrees of a step map's table rows: the cosines 0 .. D, then the sines 1 .. D."""
    return np.concatenate([np.arange(degree + 1.0), np.arange(1.0, degree + 1)])


def _step_table(unitaries: Callable[[np.ndarray, np.ndarray], object], d: int, omega_dt: float,
                steps: int, degree: int, block: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2D + 1, d*d) Fourier table of the map of steps grid steps, its rows' degrees and phases.

    The map P(phi) (_step_map) is formed at the N = 2D + 1 nodes phi_i =
    2 pi i / N as products of one-step unitaries, which unitaries(theta,
    out) writes into out, (m, d, d), for the m midpoint phases theta; block
    nodes at a time, each polished once, and fitted by one real
    DFT in place: P(phi) = sum_r cos(k_r phi - s_r) A_r with
    A_r = (2/N) sum_i cos(k_r phi_i - s_r) P(phi_i), A_0 halved; the phase
    s_r is 0 for the cosines and pi/2 for the sines (_map_degrees). N is
    odd, so the fit interpolates.
    """
    n = 2 * degree + 1
    phases = 2 * np.pi * np.arange(n) / n
    offsets = (np.arange(steps) - 0.5 * (steps - 1)) * omega_dt
    maps = np.empty((n, d, d), dtype=complex)
    u, product = np.empty((2, min(block, n), d, d), dtype=complex)
    for start in range(0, n, block):
        p = maps[start:start + block]
        m = len(p)
        for j, offset in enumerate(offsets):  # P <- U(phi + s_j) P, later steps on the left
            unitaries(phases[start:start + m] + offset, p if j == 0 else u[:m])
            if j:
                p[...] = np.matmul(u[:m], p, out=product[:m])
        # one Newton-Schulz step, P <- 1.5 P - 0.5 P (P^H P): the nodes' rounding
        # would otherwise leave the table a defect that changes slowly with phi
        np.matmul(np.conjugate(p, out=u[:m]).transpose(0, 2, 1), p, out=product[:m])
        np.matmul(p, product[:m], out=u[:m])
        np.subtract(np.multiply(p, 1.5, out=p), np.multiply(u[:m], 0.5, out=u[:m]), out=p)
    degrees = _map_degrees(degree)
    shifts = np.zeros(n)
    shifts[degree + 1:] = 0.5 * np.pi
    # k phi_i reduced mod 2 pi exactly, as the integer k i mod N
    turns = np.outer(degrees.astype(int), np.arange(n)) % n
    fit = (2.0 / n) * np.cos((2 * np.pi / n) * turns - shifts[:, None])
    fit[0] *= 0.5
    flat = maps.reshape(n, -1).view(float)
    column = np.empty((n, 2 * d))
    for c in range(0, flat.shape[1], 2 * d):  # one row of the d x d maps at a time
        flat[:, c:c + 2 * d] = np.matmul(fit, flat[:, c:c + 2 * d], out=column)
    return maps.reshape(n, -1), degrees, shifts


def _taylor_factors(degrees: np.ndarray, shifts: np.ndarray, omega: float, dt: float, length: int,
                    order: int) -> tuple[np.ndarray, Callable[[float], np.ndarray]]:
    """S and t -> W(c) of the factorized basis S W(c) of spans of length steps (_tabled_builder).

    S_jl = s_j^l, s_j = (j - (length - 1)/2) omega dt, is fixed per run;
    W(c)_lk = k^l cos(kc - shift_k + l pi/2) / l!, c = omega (t + length dt / 2)
    the centre phase of a span from t, is written into one (order, K) buffer.
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
    shift[:] = 0.5 * np.pi * np.arange(order)[:, None] - shifts
    out = np.empty_like(scale)
    centre = 0.5 * length * dt

    def weights(t: float) -> np.ndarray:
        w = np.multiply(rows, omega * (t + centre), out=out)
        np.cos(np.add(w, shift, out=w), out=w)
        return np.multiply(w, scale, out=w)

    return powers, weights


def _tabled_builder(table: np.ndarray, degrees: np.ndarray, shifts: np.ndarray, omega: float,
                    dt: float, t0: float, work: np.ndarray, span: int,
                    order: int) -> Callable[[np.ndarray], np.ndarray]:
    """The builder of a tabled magnus2 run's step unitaries: t -> work[:n], the stack at t.

    Step j of the n = len(t) has the phase theta_j = omega (t_j + dt/2) and
    U_j = sum_k cos(k theta_j - shift_k) C_k: the stack is B table, B its
    (n, K) basis, as a real product on the interleaved (re, im) pairs, 3x
    faster than a complex one. A Chebyshev table has the cosines k = 0 ..
    K - 1, all shifts 0; a step map's (_step_table) has after them the
    sines, shift pi/2, k = 1 .. D. With order p > 0 the run's grid t0 + i dt
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
        cosines = len(table) - np.count_nonzero(shifts)
        powers = np.empty((len(work), cosines), dtype=complex)
        basis = np.empty((len(work), len(table)))

        def direct(t: np.ndarray) -> np.ndarray:
            # cos(k theta) and sin(k theta) = Re and Im of exp(1j theta)^k:
            # rounding each k theta on its own would leave, at large theta,
            # values of no one angle
            n = len(t)
            theta = omega * (t + 0.5 * dt)
            z = powers[:n]
            z[:, 0] = np.cos(0.0 * theta)  # 1, or NaN where the phase overflowed
            z[:, 1:] = np.exp(1j * theta)[:, None]
            np.cumprod(z, axis=1, out=z)
            np.copyto(basis[:n, :cosines], z.real)
            np.copyto(basis[:n, cosines:], z[:, 1:len(table) - cosines + 1].imag)
            np.matmul(basis[:n], parts, out=stacks[:n])
            return work[:n]

        return direct
    powers, weights = _taylor_factors(degrees, shifts, omega, dt, span, order)
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


def _chebyshev_steps(table: np.ndarray) -> Callable[[np.ndarray, np.ndarray], object]:
    """theta, out -> out = the (m, d, d) magnus2 unitaries at the phases theta, from table."""
    parts, degrees = table.view(float), np.arange(len(table), dtype=float)
    return lambda theta, out: np.matmul(_chebyshev_basis(theta, degrees), parts,
                                        out=out.reshape(len(theta), -1).view(float))


def _strang_steps(free: np.ndarray, lattice: Lattice, beta: float, omega: float,
                  dt: float) -> Callable[[np.ndarray, np.ndarray], object]:
    """theta, out -> out = the (m, d, d) strang steps at the midpoint phases theta.

    A step is E(theta + omega dt/4) F E(theta - omega dt/4), F the free
    step free and E(phi) = exp(-1j beta dt/2 cos(phi) n) the half kicks.
    """
    kick, quarter = (-0.5j * beta * dt) * lattice.points(), 0.25 * omega * dt

    def unitaries(theta: np.ndarray, out: np.ndarray) -> None:
        np.multiply(free, np.exp(np.multiply.outer(np.cos(theta + quarter), kick))[:, :, None],
                    out=out)
        out *= np.exp(np.multiply.outer(np.cos(theta - quarter), kick))[:, None, :]

    return unitaries


def _strang_bound(beta: float, dt: float, q: int) -> np.ndarray | None:
    """Bounds on the Fourier coefficients |c_j| of a strang step in its midpoint phase, or None.

    E(phi) = sum_k exp(1j k phi) diag((-1j)^k J_k(beta dt n / 2)), and
    |J_k(x)| <= (|x|/2)^k / k!, so x^|k| / |k|!, x = |beta dt| q / 4, bounds
    the norms of a half kick's coefficients; F is unitary and the shift by
    omega dt/4 leaves their moduli, so the step's are bounded by the
    convolution of two such bounds. Cut where a term falls below 1e-20;
    None where none does within 2 _CHUNK terms: no map's table would fit.
    """
    x = 0.25 * abs(beta * dt) * q
    half = np.cumprod(np.append(1.0, x / np.arange(1.0, 2 * _CHUNK)))  # x^k / k!
    if not half[-1] < 1e-20:
        return None
    half = half[:int(np.argmax(half < 1e-20)) + 1]
    half = np.concatenate([half[:0:-1], half])
    return np.convolve(half, half)


class _Plan(NamedTuple):
    """How a run steps (_step_plan); build None: by strang's own grid stepper."""

    build: Callable[[np.ndarray], list] | None  # loop-step start times -> their step unitaries
    steps: int  # grid steps per loop step
    nodes: int  # rows of the run's table; 0 without one
    polish: bool  # whether each state takes the Newton-Schulz polish


def _step_plan(lattice: Lattice, mu: float, beta: float, omega: float, t0: float, dt: float,
               n_steps: int, stride: int, free: np.ndarray | None = None) -> _Plan:
    """The plan of an n_steps run from t0 on the grid t0 + i dt: strang's with free, its F.

    magnus2: above _CHUNK Chebyshev nodes each stack comes from its own
    eigh: a table would cost more eigh work and memory than one chunk of
    direct steps, and each loop step is one grid step. Otherwise the run
    builds its Chebyshev table, and _step_map may replace it by the table
    of a map of 2^i grid steps, i up to stride's power of two
    (_step_table), its node maps products of the table's unitaries; the
    bounds on its coefficients come from the table's norms (_norm_bounds),
    taken only where the entries' maxima, which bound the norms from below,
    leave a map that might pay.
    strang: the bounds are closed-form (_strang_bound), and a map's node
    unitaries are F between two diagonal kicks, with no eigh. A strang
    grid step is 2 products per entry, but its two numpy calls on vectors
    cost more at small d: _step_map prices calls at _CALL / d^2 each. Where
    no map pays, build is None: the run takes strang's own grid stepper.
    A loop step is then one map, on the grid t0 + j 2^i dt, and the nodes
    are the map's. _tabled_builder writes each stack from the table into
    a buffer allocated here, once, in spans of the loop's grid where
    _taylor_span finds one that pays, and build hands out views of it
    made once per run. The table's unitarity defect, nearly the same from
    step to step, would add up linearly, past the 1e-10 expectation()
    accepts after about a million steps: the builder polishes each span's
    centre term, and a run without spans takes the polish of each state,
    U (3 - U^H U) psi / 2.
    """
    d, omega_dt = lattice.d, omega * dt
    if free is not None:
        bound = _strang_bound(beta, dt, lattice.q)
        steps, degree = (1, 0) if bound is None else _step_map(
            bound, 2, 2 + 2 * _CALL / d**2, _CALL / d**2, d, omega_dt, n_steps, stride)
        if steps == 1:
            return _Plan(None, 1, 0, False)
    else:
        m = _chebyshev_nodes(abs(beta * dt) * lattice.q)
        if m > _CHUNK:
            def unitaries(t: np.ndarray) -> list:
                return list(_magnus_unitaries(lattice, mu, beta * np.cos(omega * (t + 0.5 * dt)),
                                              dt))

            return _Plan(unitaries, 1, 0, False)
        table = _magnus_table(lattice.q, mu, beta, dt, m)
        degrees = np.arange(m, dtype=float)  # as int64 they would be cast per call
        shifts = np.zeros(m)
        sizes = np.array([np.abs(row).max() for row in table])
        grid = _span_cost(sizes, degrees, omega_dt, n_steps, d)[0]

        def step_map(norms: np.ndarray, first: bool = False) -> tuple[int, int]:
            # |c_j|, j = 1 - m .. m - 1: c_j = C_|j| / 2, c_0 = C_0
            bound = np.concatenate([norms[:0:-1] / 2, norms[:1], norms[1:] / 2])
            return _step_map(bound, m, grid, 0.0, d, omega_dt, n_steps, stride, first)

        steps, degree = step_map(sizes, first=True)  # sizes bound the norms from below
        if steps > 1:
            steps, degree = step_map(_norm_bounds(table.reshape(m, d, d)))
    if steps > 1:
        one_step = (_chebyshev_steps(table) if free is None
                    else _strang_steps(free, lattice, beta, omega, dt))
        # strang in blocks of 8 nodes: a process running strang days on maps
        # peaked 0.15-0.25 MB lower than with 16. magnus2 keeps 16: the rounding
        # of its basis product, and so its table's bits, depend on the rows per call
        table, degrees, shifts = _step_table(one_step, d, omega_dt, steps, degree,
                                             _CHUNK // (2 if free is None else 4))
        del one_step  # frees magnus2's Chebyshev table before the run steps
    dt, n_steps = steps * dt, n_steps // steps
    work = np.empty((min(_CHUNK, n_steps), d, d), dtype=complex)
    span, order = _taylor_span(table, degrees, omega * dt, n_steps)
    fill = _tabled_builder(table, degrees, shifts, omega, dt, t0, work, span, order)
    views = list(work)  # iterating work would make a view object per step

    def build(t: np.ndarray) -> list:
        fill(t)
        return views[:len(t)]

    return _Plan(build, steps, len(table), not order)
