"""How a run steps: the plan, its step-operator tables and its stepper.

A magnus2 step is U = exp(-1j*dt*(K + c*R)) with the coupling
c = beta*cos(theta), theta = omega*(t + dt/2); a strang step is
E(theta + omega dt/4) F E(theta - omega dt/4), F = exp(-1j*dt*T^2/(2 mu))
the free step, a circulant matrix (_free_step), and
E(phi) = exp(-1j*beta*dt/2*cos(phi)*n) the diagonal half kicks (_kicks).
_step_plan alone decides how a run of either method steps, and hands
``propagator`` the run's stepper (_Stepper). A stepper allocates its
buffers once per run: fresh per-chunk temporaries cost tens of thousands
of minor page faults a day whenever the allocator hands them back to the
system between chunks. The tables hold no state beyond the run.

- strang on its grid (_grid_stepper): psi <- F (k_j * psi), two calls on
  d-vectors and no d x d matrix built per step. k_j merges the closing
  half kick of step j - 1 with the opening one of step j (first same as
  last): as cos w(t + dt/4) + cos w(t - dt/4) = 2 cos(wt) cos(w dt/4), a
  chunk's kicks are exp(outer(cos(w t), rate)), one cos per step. The
  carried state thus lacks its last closing half kick, E(w (t_k - dt/4)),
  which depends on t_k alone: the plan hands it to the loop (_Plan.kick),
  which undoes it once on the initial state, exactly, as it is diagonal
  and unitary, and applies it to the recorded states only. ``norm_drift``
  and the ``PropagationError`` step are taken on the carried states,
  whose norm equals psi's up to one rounding.
- The Chebyshev table in x = cos(theta) (_magnus_table): M node
  unitaries, one eigh per node pair x, -x, fitted as
  U = sum_k cos(k theta) C_k; each step's U is a sum of M coefficient
  matrices, built as stacks of _CHUNK steps. Above _CHUNK nodes each step
  takes its own eigh instead.
- Spans (_taylor_span, _tabled_builder): where L steps of the run's grid
  sweep a narrow phase, the span's basis factors as S W(c), p Taylor
  terms about its centre phase c: W table is formed once per span, and
  each stack is S (W table), p (K + L) products per entry and span
  instead of L K (L = 128, p = 8, K = 15 on the fig2 day).
- Polish. A table's unitarity defect is nearly the same from step to step
  and would make the norm drift grow linearly with the steps. One
  Newton-Schulz step (_polish) cancels it, with rounding of its own each
  time, so the drift grows as a random walk: once per span on its centre
  term M_0 = U(c), or, where no span pays or the span centres lie too
  close in phase (omega = 0 among them: spans would repeat one centre
  term), per step on the state (_stack_stepper).
- Step maps (_step_map, _step_table): as H(t) is periodic, the product of
  2^i steps of either method is a 2 pi-periodic, analytic function of its
  midpoint phase. Where 2^i divides the run's steps and every recorded
  step, and its build pays, the run tables that map at 2D + 1 <= 2 _CHUNK
  equispaced phases as cos k phi and sin k phi rows, and steps the grid
  2^i steps at a time with the same builder, spans and polish. Its node
  maps are products of one-step unitaries: the Chebyshev table's for
  magnus2, F between two half kicks for strang, with no eigh. The fig2
  day takes 3 600 loop steps of an 8-step map at 57 nodes with magnus2,
  7 200 of a 4-step map at 49 nodes with strang.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericalError
from .fourier import even_dual_matrix
from .lattice import Lattice
from .operators import hamiltonians

#: Steps per stack: a tabled run builds its step unitaries this many at a time.
_CHUNK = 32

#: States per chunk: the loop hands a stepper, and checks the norms of, this
#: many steps at a time. Beside its stacks a run holds (_STATES, d) complex
#: blocks of states and, for strang, of kicks; the memory test allows 8
#: (_CHUNK, d) blocks of vectors, which a q = 40 magnus2 run keeps within at
#: 2 _CHUNK states and exceeds at 4 _CHUNK.
_STATES = 2 * _CHUNK

#: Least phase between consecutive span centres (_taylor_order), from the
#: drift of runs at q = 1, 10 and 30 (README, Methods).
_SPAN_SPACING = 2e-5

#: A stepper: (t, psi, rows) -> psi. It takes the steps starting at the times
#: t from the carried state psi, writes the state after each into the next of
#: rows and returns the last.
_Stepper = Callable[[np.ndarray, np.ndarray, list], np.ndarray]

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


def _row_maxima(table: np.ndarray) -> np.ndarray:
    """The largest entry modulus of each row of table, with no table-sized temporary."""
    return np.array([np.abs(row).max() for row in table])


def _taylor_span(table: np.ndarray, degrees: np.ndarray, omega_dt: float,
                 n_steps: int) -> tuple[int, int]:
    """(L, p): the span of steps and Taylor terms of an n_steps run's factorization; p = 0: none."""
    return _span_cost(_row_maxima(table), degrees, omega_dt, n_steps,
                      math.isqrt(table.shape[1]))[1:]


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


def _polish(p: np.ndarray, conj: np.ndarray, gram: np.ndarray) -> None:
    """One Newton-Schulz step in place, P <- 1.5 P - 0.5 P (P^H P), on a (d, d) P or a stack.

    It cancels P's unitarity defect to first order (Higham, *Functions of
    Matrices*, 2008, 8.3); conj and gram are scratch of P's shape.
    """
    np.matmul(np.conjugate(p, out=conj).swapaxes(-1, -2), p, out=gram)
    np.multiply(np.matmul(p, gram, out=conj), 0.5, out=conj)
    np.subtract(np.multiply(p, 1.5, out=p), conj, out=p)


def _step_table(unitaries: Callable[[np.ndarray, np.ndarray], object], d: int, omega_dt: float,
                steps: int, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (2D + 1, d*d) Fourier table of the map of steps grid steps, its rows' degrees and phases.

    The map P(phi) (_step_map) is formed at the N = 2D + 1 nodes phi_i =
    2 pi i / N as products of one-step unitaries, which unitaries(theta,
    out) writes into out, (m, d, d), for the m midpoint phases theta; 8
    nodes at a time (the fig2 magnus2 day's traced peak: 0.77 MB, 0.81 MB
    with 16), each polished once: the nodes' rounding would otherwise
    leave the table a defect that changes slowly with phi. One real DFT
    in place fits them: P(phi) = sum_r cos(k_r phi - s_r) A_r with
    A_r = (2/N) sum_i cos(k_r phi_i - s_r) P(phi_i), A_0 halved; the phase
    s_r is 0 for the cosines and pi/2 for the sines (_map_degrees). N is
    odd, so the fit interpolates.
    """
    n, block = 2 * degree + 1, _CHUNK // 4
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
        _polish(p, u[:m], product[:m])
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
                    dt: float, t0: float, n_steps: int, span: int,
                    order: int) -> Callable[[np.ndarray], list]:
    """The builder of an n_steps tabled run's step unitaries: t -> the stack at t.

    The stack is written into a buffer allocated here, once, and handed
    out as views of it made once per run: iterating the buffer would make
    a view object per step.

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
    d = math.isqrt(table.shape[1])
    work = np.empty((min(_CHUNK, n_steps), d, d), dtype=complex)
    views = list(work)
    parts = table.view(float)
    stacks = work.reshape(len(work), -1).view(float)
    if not order:
        cosines = len(table) - np.count_nonzero(shifts)
        powers = np.empty((len(work), cosines), dtype=complex)
        basis = np.empty((len(work), len(table)))

        def direct(t: np.ndarray) -> list:
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
            return views[:n]

        return direct
    powers, weights = _taylor_factors(degrees, shifts, omega, dt, span, order)
    terms = np.empty((order, parts.shape[1]))  # W table
    m_0 = terms[0].view(complex).reshape(work.shape[1:])
    conj, gram = work[:2]  # scratch until the stack is formed over them
    centred = None  # the span whose W table terms holds

    def build(t: np.ndarray) -> list:
        nonlocal centred
        n = len(t)
        first, offset = divmod(round((t[0] - t0) / dt), span)
        if first != centred:
            centred = first
            np.matmul(weights(t0 + first * span * dt), parts, out=terms)
            _polish(m_0, conj, gram)
        np.matmul(powers[offset:offset + n], terms, out=stacks[:n])
        return views[:n]

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


def _free_step(lattice: Lattice, mu: float, dt: float) -> np.ndarray:
    """strang's free step F = exp(-1j*dt*T^2/(2 mu)) in the return basis (complex symmetric)."""
    n = lattice.points().astype(float)
    return even_dual_matrix(lattice, np.exp(-0.5j * n * n * dt / mu))


def _kicks(cos: np.ndarray, rate: np.ndarray) -> np.ndarray:
    """The diagonal kicks exp(c rate) for the values c of cos: E for rate = -0.5j beta dt n."""
    return np.exp(np.multiply.outer(cos, rate))


def _strang_steps(free: np.ndarray, rate: np.ndarray,
                  quarter: float) -> Callable[[np.ndarray, np.ndarray], object]:
    """theta, out -> out = the (m, d, d) strang steps E(theta + quarter) F E(theta - quarter)."""
    def unitaries(theta: np.ndarray, out: np.ndarray) -> None:
        np.multiply(free, _kicks(np.cos(theta + quarter), rate)[:, :, None], out=out)
        out *= _kicks(np.cos(theta - quarter), rate)[:, None, :]

    return unitaries


def _grid_stepper(free: np.ndarray, rate: np.ndarray, omega: float, quarter: float,
                  n_steps: int) -> _Stepper:
    """strang's grid stepper for an n_steps run: psi <- F (k_j * psi), the kicks merged.

    k_j = exp(cos(omega t_j) merged), merged = 2 cos(quarter) rate; the
    kicks of up to min(_STATES, n_steps) steps are written into one buffer
    allocated here.
    """
    merged = (rate * (2 * math.cos(quarter)))[None]
    # cos(omega t) as a complex column: its product with merged is then one
    # matmul, which, unlike _kicks' broadcast product, allocates no ufunc buffers
    cos = np.zeros((min(_STATES, n_steps), 1), dtype=complex)
    kicks = np.empty((len(cos), len(rate)), dtype=complex)
    kicked = np.empty(len(rate), dtype=complex)

    def step(t: np.ndarray, psi: np.ndarray, rows: list) -> np.ndarray:
        np.cos(omega * t, out=cos[:len(t), 0].real)
        k = np.matmul(cos[:len(t)], merged, out=kicks[:len(t)])
        for k_j, row in zip(np.exp(k, out=k), rows):
            psi = free.dot(np.multiply(k_j, psi, out=kicked), out=row)
        return psi

    return step


def _stack_stepper(build: Callable[[np.ndarray], list], d: int, polish: bool) -> _Stepper:
    """psi <- U_j psi for the stacks build(t), _CHUNK loop steps at a time.

    With polish each state takes one Newton-Schulz step as well,
    psi <- U (3 - U^H U) psi / 2 = 1.5 v - 0.5 U (U^H v), v = U psi.
    """
    if polish:
        conj = np.empty((d, d), dtype=complex)
        adjoint = conj.T  # U_j^H once conj holds U_j's conjugate
        v, w, x = np.empty((3, d), dtype=complex)

        def apply(u: np.ndarray, psi: np.ndarray, out: np.ndarray) -> np.ndarray:
            u.dot(psi, out=v)
            np.conjugate(u, out=conj)
            adjoint.dot(v, out=w)
            np.multiply(u.dot(w, out=x), 0.5, out=x)
            return np.subtract(np.multiply(v, 1.5, out=out), x, out=out)
    else:
        apply = np.ndarray.dot

    def step(t: np.ndarray, psi: np.ndarray, rows: list) -> np.ndarray:
        for start in range(0, len(t), _CHUNK):
            for u, row in zip(build(t[start:start + _CHUNK]), rows[start:start + _CHUNK]):
                psi = apply(u, psi, out=row)
        return psi

    return step


def _strang_bound(beta: float, dt: float, q: int) -> np.ndarray | None:
    """Bounds on the Fourier coefficients |c_j| of a strang step in its midpoint phase, or None.

    E(phi) = sum_k exp(1j k phi) diag((-1j)^k J_k(beta dt n / 2)), and
    |J_k(x)| <= (|x|/2)^k / k!, so x^|k| / |k|!, x = |beta dt| q / 4, bounds
    the norms of a half kick's coefficients; F is unitary and the shift by
    omega dt/4 leaves their moduli, so the step's are bounded by the
    convolution of two such bounds. Cut where a term falls below 1e-20;
    None where none does within 2 _CHUNK terms: no map's table would fit.
    From x = 2 _CHUNK on no term falls below 1, and the product of terms
    would overflow from x near 1.9e6.
    """
    x = 0.25 * abs(beta * dt) * q
    if not x < 2 * _CHUNK:
        return None
    half = np.cumprod(np.append(1.0, x / np.arange(1.0, 2 * _CHUNK)))  # x^k / k!
    if not half[-1] < 1e-20:
        return None
    half = half[:int(np.argmax(half < 1e-20)) + 1]
    half = np.concatenate([half[:0:-1], half])
    return np.convolve(half, half)


class _Plan(NamedTuple):
    """How a run steps (_step_plan).

    kick is None but on strang's grid: t -> the closing half kick of the
    step that ends at t, which the carried states lack. build is None
    there too: it hands out a stack run's step unitaries.
    """

    step: _Stepper  # the run's stepper
    steps: int  # grid steps per loop step
    nodes: int  # rows of the run's table; 0 without one
    kick: Callable[[float], np.ndarray] | None
    build: Callable[[np.ndarray], list] | None  # loop-step start times -> their step unitaries
    polish: bool  # whether each state takes the Newton-Schulz polish


def _step_plan(lattice: Lattice, mu: float, beta: float, omega: float, t0: float, dt: float,
               n_steps: int, stride: int, method: str = "magnus2") -> _Plan:
    """The plan of an n_steps run of method from t0 on the grid t0 + i dt, with its stepper.

    magnus2 (and reference): above _CHUNK Chebyshev nodes each stack comes
    from its own eigh: a table would cost more eigh work and memory than
    one chunk of direct steps, and each loop step is one grid step.
    Otherwise the run builds its Chebyshev table, and _step_map may replace
    it by the table of a map of 2^i grid steps, i up to stride's power of
    two (_step_table); the bounds on its coefficients come from the table's
    norms (_norm_bounds), taken only where the entries' maxima, which bound
    the norms from below, leave a map that might pay.
    strang: the bounds are closed-form (_strang_bound). A strang grid step
    is 2 products per entry, but its two numpy calls cost more at small d:
    _step_map prices calls at _CALL / d^2 each. Where no map pays the run
    takes its grid stepper, and kick is its closing half kick.
    A loop step is one map, on the grid t0 + j 2^i dt, and the nodes are
    the map's. _tabled_builder builds the stacks from the table, in spans
    of the loop's grid where one pays. A run without spans polishes its
    states: the table's defect would otherwise add up linearly, past the
    1e-10 expectation() accepts after about a million steps.
    """
    d, omega_dt = lattice.d, omega * dt
    if method == "strang":
        free = _free_step(lattice, mu, dt)
        rate, quarter = (-0.5j * beta * dt) * lattice.points(), 0.25 * omega_dt
        bound = _strang_bound(beta, dt, lattice.q)
        steps, degree = (1, 0) if bound is None else _step_map(
            bound, 2, 2 + 2 * _CALL / d**2, _CALL / d**2, d, omega_dt, n_steps, stride)
        if steps == 1:
            def kick(t: float) -> np.ndarray:
                return _kicks(np.cos(omega * (t - 0.25 * dt)), rate)

            return _Plan(_grid_stepper(free, rate, omega, quarter, n_steps), 1, 0, kick, None,
                         False)
    else:
        m = _chebyshev_nodes(abs(beta * dt) * lattice.q)
        if m > _CHUNK:
            def unitaries(t: np.ndarray) -> list:
                return list(_magnus_unitaries(lattice, mu, beta * np.cos(omega * (t + 0.5 * dt)),
                                              dt))

            return _Plan(_stack_stepper(unitaries, d, False), 1, 0, None, unitaries, False)
        table = _magnus_table(lattice.q, mu, beta, dt, m)
        degrees = np.arange(m, dtype=float)  # as int64 they would be cast per call
        shifts = np.zeros(m)
        sizes = _row_maxima(table)
        grid, span, order = _span_cost(sizes, degrees, omega_dt, n_steps, d)

        def step_map(norms: np.ndarray, first: bool = False) -> tuple[int, int]:
            # |c_j|, j = 1 - m .. m - 1: c_j = C_|j| / 2, c_0 = C_0
            bound = np.concatenate([norms[:0:-1] / 2, norms[:1], norms[1:] / 2])
            return _step_map(bound, m, grid, 0.0, d, omega_dt, n_steps, stride, first)

        steps, degree = step_map(sizes, first=True)  # sizes bound the norms from below
        if steps > 1:
            steps, degree = step_map(_norm_bounds(table.reshape(m, d, d)))
    if steps > 1:
        one_step = (_strang_steps(free, rate, quarter) if method == "strang"
                    else _chebyshev_steps(table))
        table, degrees, shifts = _step_table(one_step, d, omega_dt, steps, degree)
        del one_step  # frees magnus2's Chebyshev table before the run steps
        dt, n_steps = steps * dt, n_steps // steps
        span, order = _taylor_span(table, degrees, omega * dt, n_steps)
    build = _tabled_builder(table, degrees, shifts, omega, dt, t0, n_steps, span, order)
    return _Plan(_stack_stepper(build, d, not order), steps, len(table), None, build, not order)
