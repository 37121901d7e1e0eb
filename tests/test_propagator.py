import ast
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qlimit
from qlimit import tables
from qlimit import (
    ConfigError,
    GaussianParams,
    NumericalError,
    PropagationError,
    SimulationConfig,
    StateVector,
    Trajectory,
    evolve,
    exact_free_evolution,
    initial_state,
    new_lattice,
    observables_series,
    tilde_delta,
    upsilon_kappa,
)
from qlimit.operators import hamiltonian_at, hamiltonians, kinetic_operator
from qlimit.propagator import (
    _MAX_STEPS,
    _PEAK_STACKS,
    _REFINE,
    _STATES,
    MAX_Q,
    METHODS,
    NORM_TOLERANCE,
    _propagate,
)
from qlimit.tables import (
    _CHUNK,
    _chebyshev_basis,
    _chebyshev_nodes,
    _coupling_interval,
    _magnus_nodes,
    _magnus_table,
    _magnus_unitaries,
    _taylor_factors,
    _taylor_order,
    _taylor_span,
    _step_plan,
)

from conftest import fresh_python


def _config(**overrides):
    base = dict(q=10, kappa=0.2, mu=1.0, beta=0.1, omega=0.0002,
                t_end=600.0, dt=1.0, snapshots=(0.0, 600.0), method="strang")
    base.update(overrides)
    return SimulationConfig(**base)


# ---------------------------------------------------------------------------
# configuration validation

def test_config_defaults():
    cfg = SimulationConfig(q=5, kappa=1.0, mu=1.0, beta=0.0, omega=0.0, t_end=10.0)
    assert cfg.dt == 1.0
    assert cfg.method == "strang"
    assert cfg.snapshots == (0.0, 10.0)
    assert cfg.n_steps == 10


@pytest.mark.parametrize("bad", [dict(q=0), dict(q=-1), dict(q=2.5), dict(kappa=0.0),
                                 dict(mu=-1.0), dict(dt=0.0), dict(t_end=-5.0),
                                 dict(method="rk4"), dict(beta=float("nan")),
                                 dict(kappa=float("inf")), dict(mu=float("inf")),
                                 dict(dt=float("inf")), dict(kappa=True), dict(beta=True),
                                 dict(snapshots=(0.0, float("nan"))),
                                 dict(snapshots=(0.0, float("inf"))),
                                 dict(snapshots=(0.0, "a")), dict(snapshots=(0.0, 10**400)),
                                 dict(t_end=1e300, dt=1e-300), dict(t_end=1e300),
                                 dict(q=MAX_Q + 1), dict(q=10**6)])
def test_config_rejects_invalid_values(bad):
    with pytest.raises(ConfigError):
        _config(**bad)


def test_config_rejects_unsorted_snapshots():
    with pytest.raises(ConfigError, match="ascending"):
        _config(snapshots=(0.0, 300.0, 200.0))


def test_config_rejects_out_of_range_snapshots():
    with pytest.raises(ConfigError, match="t_end"):
        _config(snapshots=(0.0, 700.0))


def test_config_rejects_colliding_snapshots():
    with pytest.raises(ConfigError, match="collide"):
        _config(snapshots=(100.2, 100.4))


def test_config_aligns_snapshots_to_step_grid():
    cfg = _config(snapshots=(0.0, 123.4, 599.8))
    assert cfg.snapshots == (0.0, 123.0, 600.0)
    cfg = _config(dt=0.5, snapshots=(0.3, 123.4))
    assert cfg.snapshots == (0.5, 123.5)


def test_config_aligns_t_end():
    cfg = _config(t_end=599.7, snapshots=(0.0,))
    assert cfg.t_end == 600.0
    assert cfg.n_steps == 600


@pytest.mark.parametrize("t_end", [0.0, 0.4])
def test_config_default_snapshots_of_a_zero_step_run(t_end):
    # t_end aligns to 0: the default [0, t_end] is the one time 0. Every
    # method's run records the initial state there and builds no stepper,
    # whose free step would overflow at dt = 1e308.
    cfg = _config(t_end=t_end, snapshots=None)
    assert cfg.t_end == 0.0 and cfg.n_steps == 0
    assert cfg.snapshots == (0.0,)
    runs = [replace(cfg, method=method) for method in METHODS]
    for run in runs + [_config(t_end=t_end, dt=1e308, snapshots=None)]:
        traj = evolve(run)
        assert [t for t, _ in traj.states] == [0.0] and traj.norm_drift == 0.0
        np.testing.assert_array_equal(traj.states[0][1].amplitudes,
                                      initial_state(run).amplitudes)


# ---------------------------------------------------------------------------
# initial state

def test_initial_state_is_discrete_gaussian():
    cfg = _config()
    psi = initial_state(cfg)
    expected = upsilon_kappa(new_lattice(10), GaussianParams(0.2))
    np.testing.assert_array_equal(psi.amplitudes, expected.amplitudes)
    p = np.abs(psi.amplitudes) ** 2
    assert p.sum() == pytest.approx(1.0, abs=1e-14)
    # digitized bar-chart targets (scale 11.2 units = 0.25)
    assert p[10] == pytest.approx(6.19376 / 44.8, abs=0.002)
    assert p[11] == pytest.approx(5.83403 / 44.8, abs=0.002)
    assert p[9] == pytest.approx(5.83403 / 44.8, abs=0.002)


# ---------------------------------------------------------------------------
# single steps

def _unmerged_strang_step(cfg, psi, t, dt):
    """One split step by hand: half kick at t + dt/4, exact free step, half kick at t + 3dt/4."""
    def kick(s, amps):
        return np.exp(-0.5j * cfg.beta * dt * np.cos(cfg.omega * s) * cfg.lattice.points()) * amps

    free = exact_free_evolution(StateVector(cfg.lattice, kick(t + 0.25 * dt, psi.amplitudes)),
                                dt, cfg.mu)
    return StateVector(cfg.lattice, kick(t + 0.75 * dt, free.amplitudes))


def _step(cfg, psi, t, dt):
    """The state after one step of cfg's method from the amplitudes psi at t: a one-step run."""
    return _propagate(cfg, psi, t, dt, 1, {1}).states[1]


def test_strang_step_is_exact_for_free_evolution():
    cfg = _config(beta=0.0)
    psi = initial_state(cfg)
    for dt in (0.5, 1.0, 7.3):
        stepped = _step(cfg, psi.amplitudes, 0.0, dt)
        exact = exact_free_evolution(psi, dt, cfg.mu)
        assert np.abs(stepped - exact.amplitudes).max() < 1e-14


def test_strang_step_with_zero_dt_is_identity():
    cfg = _config()
    psi = initial_state(cfg)
    stepped = _step(cfg, psi.amplitudes, 100.0, 0.0)
    assert np.abs(stepped - psi.amplitudes).max() < 1e-14


def test_strang_step_preserves_norm():
    cfg = _config()
    psi = initial_state(cfg).amplitudes
    for i in range(50):
        psi = _step(cfg, psi, float(i), 1.0)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-14


def _taylor_expm_apply(h: np.ndarray, dt: float, amps: np.ndarray, order: int = 40):
    """exp(-1j h dt) amps by plain Taylor summation (small ||h||dt only)."""
    result = amps.astype(complex).copy()
    term = amps.astype(complex).copy()
    for k in range(1, order + 1):
        term = (-1j * dt / k) * (h @ term)
        result += term
    return result


def test_hamiltonian_stack_is_symmetric_and_matches_operator_module():
    cfg = _config()
    times = np.array([0.0, 1234.5, 20000.0])
    stack = hamiltonians(cfg.lattice, cfg.mu, cfg.beta * np.cos(cfg.omega * times))
    assert stack.dtype == np.float64
    kin = kinetic_operator(cfg.lattice, cfg.mu).matrix
    for t, h in zip(times, stack):
        np.testing.assert_array_equal(h, h.T)
        full = hamiltonian_at(cfg.lattice, t, cfg.mu, cfg.beta, cfg.omega).matrix
        assert np.abs(h - full).max() < 1e-12
        potential = np.diag(cfg.beta * np.cos(cfg.omega * t) * cfg.lattice.points())
        assert np.abs(h - (kin + potential)).max() < 1e-12


def test_magnus_step_matches_taylor_exponential():
    cfg = _config(method="magnus2")
    psi = initial_state(cfg)
    dt = 0.01
    for t in (0.0, 250.0):
        h = hamiltonian_at(cfg.lattice, t + dt / 2, cfg.mu, cfg.beta, cfg.omega).matrix
        oracle = _taylor_expm_apply(h, dt, psi.amplitudes)
        stepped = _step(cfg, psi.amplitudes, t, dt)
        assert np.abs(stepped - oracle).max() < 1e-13


def test_magnus_step_is_exact_for_time_independent_hamiltonian():
    cfg = _config(beta=0.0, method="magnus2")
    psi = initial_state(cfg)
    for dt in (1.0, 13.7):
        stepped = _step(cfg, psi.amplitudes, 5.0, dt)
        exact = exact_free_evolution(psi, dt, cfg.mu)
        assert np.abs(stepped - exact.amplitudes).max() < 1e-12


def test_magnus_step_preserves_norm():
    cfg = _config(method="magnus2")
    psi = initial_state(cfg).amplitudes
    for i in range(50):
        psi = _step(cfg, psi, float(i), 1.0)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-13


# ---------------------------------------------------------------------------
# closed-form free propagator

def test_free_evolution_keeps_dual_basis_stationary():
    lattice = new_lattice(10)
    for k in (0, 3, -7):
        tk = tilde_delta(lattice, k)
        moved = exact_free_evolution(tk, 500.0, 2.0)
        phase = np.exp(-1j * k * k * 500.0 / 4.0)
        assert np.abs(moved.amplitudes - phase * tk.amplitudes).max() < 1e-12
        probs = np.abs(moved.amplitudes) ** 2
        np.testing.assert_allclose(probs, 1.0 / 21.0, atol=1e-14)


def test_free_evolution_at_zero_time_is_identity():
    psi = initial_state(_config())
    out = exact_free_evolution(psi, 0.0, 1.0)
    assert np.abs(out.amplitudes - psi.amplitudes).max() < 1e-15


def test_free_evolution_preserves_parity_and_centering():
    psi = initial_state(_config())
    out = exact_free_evolution(psi, 1000.0, 1.0)
    p = np.abs(out.amplitudes) ** 2
    assert np.abs(p - p[::-1]).max() < 1e-10
    mean_rate = float(np.sum(np.arange(-10, 11) * p))
    assert abs(mean_rate) < 1e-10


def test_free_evolution_rejects_nonpositive_mu():
    with pytest.raises(ValueError, match="mu"):
        exact_free_evolution(initial_state(_config()), 1.0, 0.0)


# ---------------------------------------------------------------------------
# full runs

def test_evolve_records_snapshots_in_order():
    cfg = _config(snapshots=(0.0, 150.0, 600.0))
    traj = evolve(cfg)
    assert [t for t, _ in traj.states] == [0.0, 150.0, 600.0]
    np.testing.assert_array_equal(traj.states[0][1].amplitudes, initial_state(cfg).amplitudes)


@pytest.mark.parametrize("method", ["strang", "magnus2"])
def test_evolve_free_case_matches_closed_form(method):
    cfg = _config(beta=0.0, t_end=2000.0, snapshots=(2000.0,), method=method)
    final = evolve(cfg).states[-1][1]
    exact = exact_free_evolution(initial_state(cfg), 2000.0, cfg.mu)
    assert np.abs(final.amplitudes - exact.amplitudes).max() < 1e-10


def test_evolve_free_case_probabilities_stay_even():
    cfg = _config(beta=0.0, t_end=1000.0, snapshots=(250.0, 1000.0))
    for _, psi in evolve(cfg).states:
        p = np.abs(psi.amplitudes) ** 2
        assert np.abs(p - p[::-1]).max() < 1e-10


def test_evolve_strang_equals_repeated_steps():
    cfg = _config(t_end=300.0, snapshots=(300.0,))
    final = evolve(cfg).states[-1][1]
    psi = initial_state(cfg)
    for i in range(300):
        psi = _unmerged_strang_step(cfg, psi, float(i), 1.0)
    assert np.abs(final.amplitudes - psi.amplitudes).max() < 1e-12


def test_evolve_magnus_equals_repeated_steps():
    # the run's own plan, its stepper called one loop step at a time (one-step
    # runs would each take one exact node, 1.1e-12 from the 300-step table)
    cfg = _config(t_end=300.0, snapshots=(300.0,), method="magnus2")
    final = evolve(cfg).states[-1][1]
    plan = _plan(cfg, cfg.dt, cfg.n_steps, stride=4)  # 4: evolve's, the power of two in 300
    psi = initial_state(cfg).amplitudes
    for i in range(cfg.n_steps // plan.steps):
        psi = plan.step(np.array([i * plan.steps * cfg.dt]), psi, [np.empty_like(psi)])
    assert np.abs(final.amplitudes - psi).max() < 1e-12


def _plan(cfg, dt, n_steps, t0=0.0, stride=1, method="magnus2"):
    """The plan of cfg's run of n_steps steps of dt from t0 by method; stride 1: on the grid."""
    return _step_plan(cfg.lattice, cfg.mu, cfg.beta, cfg.omega, t0, dt, n_steps, stride, method)


def _span(cfg, dt, n_steps):
    """(L, p) of _taylor_span for cfg's paired table over n_steps; p = 0: states polished."""
    m = _chebyshev_nodes(abs(cfg.beta * dt) * cfg.q)
    table = _magnus_table(cfg.q, cfg.mu, cfg.beta, dt, m)
    return _taylor_span(table, np.arange(m, dtype=float), cfg.omega * dt, n_steps)


def _run_states(cfg, psi, t0, dt, n_steps):
    """A run of cfg's method recording every step: its states psi_0 .. psi_n and the run."""
    run = _propagate(cfg, psi, t0, dt, n_steps, range(n_steps + 1))
    return np.array([run.states[k] for k in range(n_steps + 1)]), run


def _stepped(plan, t, psi):
    """psi and the states after each loop step from the times t, by the plan's stepper."""
    rows = np.array([psi] * (len(t) + 1))
    plan.step(t, psi, list(rows[1:]))
    return rows


def _eigh_steps(cfg, t, dt):
    """The eigh unitaries of cfg's magnus2 steps of dt from the times t."""
    return _magnus_unitaries(cfg.lattice, cfg.mu, cfg.beta * np.cos(cfg.omega * (t + 0.5 * dt)), dt)


def _eigh_states(cfg, t0, dt, n_steps, psi, record_at):
    """The states after the steps k in record_at of per-step eigh unitaries from psi at t0."""
    states = {}
    for start in range(0, n_steps, 512):
        t = t0 + np.arange(start, min(start + 512, n_steps)) * dt
        for k, u in enumerate(_eigh_steps(cfg, t, dt), start + 1):
            psi = u @ psi
            if k in record_at:
                states[k] = psi
    return states


def _step_error(states, unitaries):
    """max |psi_k - U_k psi_k-1| over consecutive states: each step's own error, not their sum."""
    return np.abs(states[1:] - np.einsum("kij,kj->ki", unitaries, states[:-1])).max()


def _direct_stacks(cfg, t, dt):
    """The steps from the times t: the paired table times powers of exp(1j theta), _CHUNK a call."""
    table = _magnus_table(cfg.q, cfg.mu, cfg.beta, dt, _chebyshev_nodes(abs(cfg.beta * dt) * cfg.q))
    z = np.ones((len(t), len(table)), dtype=complex)
    z[:, 1:] = np.exp(1j * (cfg.omega * (t + 0.5 * dt)))[:, None]
    basis = np.cumprod(z, axis=1).real  # cos(k theta) = Re(exp(1j theta)^k)
    stacks = [basis[i:i + _CHUNK] @ table.view(float) for i in range(0, len(t), _CHUNK)]
    return np.concatenate(stacks).view(complex).reshape(len(t), cfg.lattice.d, -1)


def _polished_states(stacks, psi):
    """psi and the states after each step U, polished: 1.5 v - 0.5 U (U^H v), v = U psi."""
    states = [psi]
    for u in stacks:
        v = np.matmul(u, states[-1])
        states.append(1.5 * v - 0.5 * np.matmul(u, np.matmul(u.conj().T, v)))
    return np.array(states)


@pytest.mark.parametrize("method, steps, atol", [("magnus2", 1, 0.0), ("reference", 2, 1e-13)],
                         ids=["magnus2", "reference"])
def test_magnus_evolve_equals_plain_application_of_step_stacks(method, steps, atol):
    # 520 steps factorize (in spans of several stacks that end in a partial
    # span and stack, test_span_rule_keeps_the_cheapest_span_that_pays): each
    # step of a grid run recording every step, span centres polished and
    # states not, must lie within 1e-13 of its eigh unitary applied to the
    # state before it, and evolve's snapshots must be that run's
    # states. The odd snapshot step 17 keeps magnus2 on the grid; the
    # reference run, whose steps are all multiples of 8, takes 2-step maps:
    # 9.3e-15 off here.
    t_end = 520.0 / _REFINE[method]
    cfg = _config(method=method, t_end=t_end, snapshots=(0.0, 17.0, 32.0, 64.0, t_end))
    dt, n_steps = cfg.integration_dt, cfg.integration_steps
    assert _span(cfg, dt, n_steps)[1]
    expected, run = _run_states(cfg, initial_state(cfg).amplitudes, 0.0, dt, n_steps)
    assert run.steps == 1
    assert _step_error(expected, _eigh_steps(cfg, np.arange(n_steps) * dt, dt)) <= 1e-13
    traj = evolve(cfg)
    assert traj.step_map["steps"] == steps
    assert [t for t, _ in traj.states] == list(cfg.snapshots)
    for t, state in traj.states:
        assert np.abs(state.amplitudes - expected[round(t / dt)]).max() <= atol, t


def test_short_magnus_run_polishes_each_state():
    # 100-step runs that do not factorize (beta = 0's one-row table, a wide
    # phase per chunk) on the paired table: its stacks built directly, each
    # applied with the Newton-Schulz polish of the state, written out, must
    # be the grid run's states and evolve's snapshots bit for bit.
    for beta, omega in ((0.0, 2e-4), (0.1, 0.01)):
        cfg = _config(method="magnus2", beta=beta, omega=omega, t_end=100.0,
                      snapshots=(0.0, 17.0, 64.0, 100.0))
        assert cfg.n_steps % _CHUNK and not _span(cfg, cfg.dt, cfg.n_steps)[1]
        psi = initial_state(cfg).amplitudes
        states, run = _run_states(cfg, psi, 0.0, cfg.dt, cfg.n_steps)
        assert (run.steps, run.nodes) == (1, _chebyshev_nodes(beta * cfg.q))
        expected = _polished_states(_direct_stacks(cfg, np.arange(float(cfg.n_steps)), cfg.dt), psi)
        np.testing.assert_array_equal(states, expected)
        traj = evolve(cfg)
        assert traj.step_map["steps"] == 1
        assert [t for t, _ in traj.states] == list(cfg.snapshots)
        for t, state in traj.states:
            np.testing.assert_array_equal(state.amplitudes, expected[round(t)])


def test_evolve_strang_snapshots_across_chunks_match_single_steps():
    # merged half kicks: the recorded states get their closing half kick back,
    # at the end of a chunk of states (64), inside one (17, 32) and in the
    # last, partial one (97, 100)
    snaps = (0.0, 17.0, 32.0, 64.0, 97.0, 100.0)
    cfg = _config(t_end=100.0, snapshots=snaps)
    recorded = dict(evolve(cfg).states)
    assert list(recorded) == list(snaps)
    psi = initial_state(cfg)
    for i in range(101):
        if float(i) in recorded:
            assert np.abs(recorded[float(i)].amplitudes - psi.amplitudes).max() < 1e-13, i
        psi = _unmerged_strang_step(cfg, psi, float(i), 1.0)


def test_backward_strang_run_matches_single_steps():
    # from t0 = 200 back to 50, over more than two chunks of states: the
    # first step (at t0) has only its opening half kick, whatever the sign of dt
    cfg = _config()
    psi = initial_state(cfg)
    recorded = _propagate(cfg, psi.amplitudes, 200.0, -1.0, 150, {1, _STATES, 150}).states
    for i in range(150):
        psi = _unmerged_strang_step(cfg, psi, 200.0 - i, -1.0)
        if i + 1 in recorded:
            assert np.abs(recorded[i + 1] - psi.amplitudes).max() <= 1e-13, i + 1
    assert sorted(recorded) == [1, _STATES, 150]


def _traced_peak(run):
    """run() and the peak of the memory that tracemalloc traces while it runs."""
    tracemalloc.start()
    try:
        return run(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_evolve_strang_stepper_reuses_its_kick_buffer_across_chunks():
    # a fresh (_STATES, d) block of kicks per chunk, or the ufunc buffers of a
    # broadcast multiply, would take 16 _STATES d bytes or more
    cfg = _config()
    d = cfg.lattice.d
    plan = _plan(cfg, 1.0, 2 * _STATES, method="strang")
    # a short run: no map pays, strang takes its grid stepper
    assert plan.steps == 1 and plan.kick is not None
    step = plan.step
    rows = list(np.empty((_STATES, d), dtype=complex))
    psi = step(np.arange(float(_STATES)), initial_state(cfg).amplitudes, rows)
    _, peak = _traced_peak(lambda: step(_STATES + np.arange(float(_STATES)), psi, rows))
    assert peak < 4 * _STATES * d, peak


@pytest.mark.parametrize("factorized", [False, True])
def test_evolve_magnus_stepper_reuses_its_buffers_across_chunks(factorized):
    # a tabled chunk after the first allocates no stack, basis, Taylor or
    # ufunc buffers: a broadcast outer product of times and int64 degrees
    # allocated 28 kB per stack. The fig2 coupling factorizes in spans and
    # polishes their centre terms, and the traced chunk starts a new span
    # (test_span_rule_keeps_the_cheapest_span_that_pays); beta = 0 polishes
    # its states.
    cfg = _config(beta=0.1 if factorized else 0.0)
    d = cfg.lattice.d
    plan = _plan(cfg, 1.0, 4 * _STATES)
    assert bool(_span(cfg, 1.0, 4 * _STATES)[1]) == factorized and plan.steps == 1
    step = plan.step
    rows = list(np.empty((_STATES, d), dtype=complex))
    psi = initial_state(cfg).amplitudes
    for start in (0, _STATES):
        psi = step(start + np.arange(float(_STATES)), psi, rows)
    _, peak = _traced_peak(lambda: step(2 * _STATES + np.arange(float(_STATES)), psi, rows))
    assert peak < 4 * _STATES * d, peak


_FAULT_PROBE = """
import resource
from qlimit import SimulationConfig, evolve
from qlimit.cli import FIG2_PRESET
for method in ("strang", "magnus2"):
    cfg = SimulationConfig(**FIG2_PRESET, method=method)
    evolve(cfg)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evolve(cfg)
    print(method, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def test_second_fig2_day_in_fresh_interpreter_takes_few_page_faults():
    # Minor page faults of a second fig2 day per method, once the lattice
    # caches are filled. Fresh (32, 21, 21) complex temporaries per chunk cost
    # 35 000 to 40 000 of them a day when the allocator hands the freed
    # memory back to the system and maps it again; whether it does depends
    # on the heap's history, so the probe runs in a fresh interpreter. This
    # does not catch every reallocation: memory the heap keeps is reused
    # without faults. test_evolve_magnus_stepper_reuses_its_buffers_across_chunks
    # and test_evolve_strang_stepper_reuses_its_kick_buffer_across_chunks
    # check the reuse itself.
    pytest.importorskip("resource")
    probe = fresh_python("-c", _FAULT_PROBE, env={"OPENBLAS_NUM_THREADS": "1"}, check=True)
    faults = {method: int(n) for method, n in map(str.split, probe.stdout.splitlines())}
    assert faults.keys() == {"strang", "magnus2"}
    assert max(faults.values()) < 2000, faults


@pytest.mark.parametrize("method, beta, chunk_time, nodes, stacks, omega", [
    ("strang", 0.1, 64.0, None, 0.25, 2e-4),
    # 8-step maps at 27 nodes: F, the node maps and two quarter-stack blocks to
    # build them, then the table, one stack, W table and S (2.26 stacks measured)
    ("strang", 0.002, 16448.0, 27, 4, 2e-4),
    # the largest paired table, factorized: shorter runs take a narrow table
    ("magnus2", 0.1875, 192.0, _CHUNK, 4, 2e-4),
    ("magnus2", 0.1875, 64.0, _CHUNK, 3, 1.0),   # the largest table, state-polished
    ("magnus2", 0.25, 64.0, None, 4.5, 1.0),     # one eigh per step
    ("magnus2", 0.25, 64.0, 5, 2, 2e-4),         # a narrow table, state-polished
    ("reference", 1.5, 8.0, _CHUNK, 3, 1.0),
    ("reference", 1.5, 80.0, _CHUNK, 4, 2e-4),
])
def test_evolve_memory_stays_within_the_stacks_max_q_assumes(method, beta, chunk_time, nodes,
                                                             stacks, omega, eigh_matrices):
    # MAX_Q keeps _PEAK_STACKS (_CHUNK, d, d) complex stacks within 1 GiB;
    # a run that held more would break that bound. The allowance on top of
    # each path's stacks is a few (_CHUNK, d) blocks of vectors: states,
    # kicks, eigenvalues. Each run of 2.25 chunk_time fills two chunks of
    # states or more and starts another, so every buffer has been reused.
    assert stacks <= _PEAK_STACKS
    cfg = _config(q=40, beta=beta, omega=omega, method=method, t_end=2.25 * chunk_time,
                  snapshots=None)
    d = cfg.lattice.d
    traj, peak = _traced_peak(lambda: evolve(cfg))
    loops = cfg.integration_steps // traj.step_map["steps"]
    assert loops > 2 * _STATES and loops % _STATES, loops
    stack = 16 * _CHUNK * d * d
    assert peak <= stacks * stack + 8 * 16 * _CHUNK * d, peak / stack
    if method == "strang":
        assert not eigh_matrices and traj.step_map["nodes"] == (nodes or 0)
    else:
        m = _chebyshev_nodes(beta * cfg.integration_dt * cfg.q)
        assert traj.step_map == {"steps": 1, "nodes": nodes or 0}
        # the run's own table, one eigh per node pair on [-1, 1] and one per
        # node on a narrow interval, or one eigh per step
        steps = cfg.integration_steps
        assert sum(eigh_matrices) == (steps if nodes is None else
                                      (m + 1) // 2 if nodes == m else nodes)


def test_magnus_evolve_at_large_q_matches_single_steps():
    cfg = _config(q=150, method="magnus2", t_end=4.0, snapshots=(4.0,))
    traj = evolve(cfg)
    assert traj.norm_drift <= 1e-10
    expected = _eigh_states(cfg, 0.0, 1.0, 4, initial_state(cfg).amplitudes, {4})[4]
    assert np.abs(traj.states[-1][1].amplitudes - expected).max() < 1e-12


@pytest.mark.parametrize("q", [1, 10, 30])
def test_magnus_table_matches_eigh_unitaries(q):
    # Each step from a state whose amplitudes all have one modulus must lie
    # within 1e-13 of its eigh unitary applied to the state before it.
    psi = tilde_delta(new_lattice(q), 1).amplitudes
    for beta in (0.0, 0.1, -0.1, 0.2):
        cfg = _config(q=q, beta=beta, omega=1.0, method="magnus2")
        for dt in (1.0, 0.125, -1.0):
            # omega = 1: 49 steps sweep the coupling over [-beta, beta], on the paired table
            states, run = _run_states(cfg, psi, 0.0, dt, 49)
            assert run.nodes == _chebyshev_nodes(abs(beta * dt) * q) <= _CHUNK
            error = _step_error(states, _eigh_steps(cfg, np.arange(49.0) * dt, dt))
            assert error <= 1e-13, (beta, dt)
    # a fig2-long run factorizes in spans and polishes their centre terms:
    # its stepper over a full and a partial chunk at the start and late in the run
    for beta in (0.1, -0.1, 0.2):
        for omega in (2e-4, 5e-4):
            cfg = _config(q=q, beta=beta, omega=omega)
            for dt in (1.0, 0.125, -1.0):
                assert _span(cfg, dt, 28800)[1]
                plan = _plan(cfg, dt, 28800)
                for start in (0, 28768):
                    t = (start + np.arange(40.0)) * dt
                    error = _step_error(_stepped(plan, t, psi), _eigh_steps(cfg, t, dt))
                    assert error <= 1e-13, (beta, omega, dt, start)


@pytest.mark.parametrize("q, beta, omega, dt, n_steps, span, order, late", [
    (10, 0.1, 2e-4, 1.0, 28800, 128, 8, 28672),       # the fig2 day (K = 15)
    (10, 0.1, 2e-4, 0.125, 230400, 256, 6, 230144),  # its reference (K = 9)
    # the sweep's largest coupling (K = 29) over 600 steps, which keep the
    # paired table (its 60-step runs take a narrow one)
    (30, 0.2, 5e-4, 1.0, 600, 128, 12, 384),
    # the most terms W table keeps (K = 29), up to the phase the fig2 day
    # reaches: a span of 64 steps would take 19
    (20, 0.3, 0.004, 1.0, 100000, 32, 15, 1440),
])
def test_factorized_chunk_basis_matches_the_chebyshev_basis(q, beta, omega, dt, n_steps, span,
                                                            order, late):
    # A stack's basis B_jk = cos(k theta_j) is built as S W(c), S the rows
    # of its steps in its span, which must match B within
    # 1e-15 (1 + k |theta_j|), the rounding of k theta_j in either form,
    # beyond the Taylor remainder (k |s_j|)^p / p!; the remainder's sum over
    # the table's rows must stay below 1e-17. Each step of the run's stepper,
    # centre terms polished, must lie within 1e-14 of B table applied to the
    # state before it. Every full stack of a span and a partial one, in the
    # first span and late in the run (late: its first step), forward and
    # backward.
    cfg = _config(q=q, beta=beta, omega=omega)
    d, psi = cfg.lattice.d, tilde_delta(cfg.lattice, 1).amplitudes
    for h in (dt, -dt):
        table = _magnus_table(q, cfg.mu, beta, h, _chebyshev_nodes(abs(beta * h) * q))
        degrees = np.arange(len(table), dtype=float)
        assert _taylor_span(table, degrees, omega * h, n_steps) == (span, order)
        p = order
        sizes = np.array([np.abs(row).max() for row in table])
        reach = degrees * (0.5 * (span - 1) * abs(omega * h))
        assert sizes @ reach**p / math.factorial(p) < 1e-17
        powers, weights = _taylor_factors(degrees, np.zeros(len(table)), omega, h, span, p)
        plan = _plan(cfg, h, n_steps)
        for first in (0, late):
            for offset in range(0, span, _CHUNK):
                full = min(_CHUNK, span - offset)
                for n in (full, full - 5):
                    t = (first + offset + np.arange(n)) * h
                    theta = omega * (t + 0.5 * h)
                    basis = _chebyshev_basis(theta, degrees)
                    factored = powers[offset:offset + n] @ weights(first * h)
                    s = (offset + np.arange(n) - 0.5 * (span - 1)) * (omega * h)
                    remainder = np.outer(np.abs(s), degrees) ** p / math.factorial(p)
                    allowed = 1e-15 * (1 + np.outer(np.abs(theta), degrees)) + remainder
                    assert np.all(np.abs(factored - basis) <= allowed), (h, first, offset, n)
                    direct = (basis @ table.view(float)).view(complex).reshape(n, d, d)
                    error = _step_error(_stepped(plan, t, psi), direct)
                    assert error <= 1e-14, (h, first, offset, n)


@pytest.mark.parametrize("q, beta, omega, n_steps, span, order", [
    (10, 0.1, 2e-4, 28800, 128, 8),     # the fig2 day: 9.59 products a step, 11.44 at 32 steps
    (30, 0.2, 2e-4, 100000, 256, 11),
    (20, 0.3, 0.004, 100000, 32, 15),   # 64 steps would take 19 terms, past W table's 15 rows
    (40, 0.1875, 2e-4, 100000, 256, 12),  # K = 32, the largest table
    (10, 0.1, 0.0, 100000, 32, 0),      # one phase: every span would repeat one centre term
    (1, 0.1, 2e-4, 100000, 32, 6),      # 2 d^2 = 18: one-stack spans only
    (10, 0.1, 2e-4, 100, 64, 7),        # spans up to the run's length
    (10, 0.1, 2e-4, 256, 128, 8),       # two whole spans
    (10, 0.1, 2e-4, 520, 128, 8),       # four spans, then 8 steps: a partial span and stack
    (10, 0.1, 2e-4, 3200, 128, 8),
    (10, 0.1, 2e-4, 32000, 128, 8),
    (10, 0.2, 1e-7, 10000, 512, 4),     # the longest spans at q = 10
    (10, 0.2, 1e-7, 100000, 512, 4),
    # span centres closer than tables._SPAN_SPACING: 1.6e-12 .. 5.1e-11
    # apart in phase, and 1.6e-5 at q = 1, which took 4 terms
    (10, 0.2, 1e-13, 3200, 32, 0),
    (10, 0.2, 1e-13, 32000, 32, 0),
    (1, 0.2, 5e-7, 100000, 32, 0),
])
def test_span_rule_keeps_the_cheapest_span_that_pays(q, beta, omega, n_steps, span, order):
    # spans of _CHUNK 2^i steps, capped at the run's length, tried up to
    # 2 d^2 steps, each with its Taylor order p: the one with the fewest
    # products per entry and step, (p (K + L) + 4d) / L, is kept, and W
    # table never takes more than 15 rows, at any span
    table = _magnus_table(q, 1.0, beta, 1.0, _chebyshev_nodes(beta * q))
    degrees = np.arange(len(table), dtype=float)
    assert _taylor_span(table, degrees, omega, n_steps) == (span, order)
    sizes = np.array([np.abs(row).max() for row in table])
    for length in (_CHUNK << i for i in range(12)):
        assert _taylor_order(sizes, degrees, omega, length) <= 15, length


@pytest.mark.parametrize("omega", [1.0, 0.01])
def test_wide_phase_and_two_step_runs_take_the_direct_build(omega):
    # A run whose stacks sweep a wide phase would take more Taylor terms
    # than the factorization saves at any span, and a run of two steps has
    # no span that pays: both build the Chebyshev basis, the powers of each
    # step's exp(1j theta), times the table, and polish the states, bit for
    # bit. Both keep the paired table on [-1, 1]: their phases sweep too
    # much of it for a narrow one to pay. Two steps at omega = 1, phases 0.5
    # and 1.5: on their interval 12 nodes, against the paired table's 15 in
    # 8 pairs (at the fig2 rate 2 nodes).
    cfg = _config(omega=omega, method="magnus2")
    psi = initial_state(cfg).amplitudes
    for dt, n_steps, run_cfg in ((1.0, 60, cfg), (-1.0, 60, cfg),
                                 (1.0, 2, replace(cfg, omega=1.0))):
        assert not _span(run_cfg, dt, n_steps)[1]
        states, run = _run_states(run_cfg, psi, 0.0, dt, n_steps)
        assert run.nodes == _chebyshev_nodes(cfg.beta * cfg.q)
        stacks = _direct_stacks(run_cfg, np.arange(n_steps) * dt, dt)
        np.testing.assert_array_equal(states, _polished_states(stacks, psi))


def test_direct_build_at_a_large_phase_stays_on_eigh_and_unitary():
    # From t0 = 1e6 at omega = 0.7 the phase theta is near 7e5: cos(k theta)
    # with each k theta rounded on its own gives values of no one angle,
    # 8.6e-13 off eigh and 1.3e-12 off unitary; the powers of exp(1j theta)
    # keep both near 1e-14; the run applies those stacks, bit for bit.
    cfg = _config(omega=0.7, method="magnus2")
    t = 1e6 + np.arange(float(_CHUNK))
    assert not _span(cfg, 1.0, _CHUNK)[1]
    u = _direct_stacks(cfg, t, 1.0)
    assert np.abs(u - _eigh_steps(cfg, t, 1.0)).max() <= 1e-13
    defect = np.matmul(u.conj().transpose(0, 2, 1), u) - np.eye(cfg.lattice.d)
    assert np.abs(defect).max() <= 1e-13
    psi = initial_state(cfg).amplitudes
    states, _ = _run_states(cfg, psi, t[0], 1.0, _CHUNK)
    np.testing.assert_array_equal(states, _polished_states(u, psi))


def _on_grid(cfg):
    """cfg with a snapshot after its first step, which no step map divides: its run takes grid steps."""
    return replace(cfg, snapshots=(0.0, cfg.dt, cfg.t_end))


def test_fig2_day_keeps_norm_drift_small(fig2_config):
    # on its grid the day factorizes: polishing each 128-step span's centre
    # term gives 8.1e-14 here (2.6e-14 with 32-step spans), the table as
    # stored 8.2e-12; its 8-step maps, in spans of 64 polished centres, 1.7e-14
    cfg = replace(fig2_config, method="magnus2")
    assert _span(cfg, cfg.dt, cfg.n_steps) == (128, 8)
    for run, steps in ((_on_grid(cfg), 1), (cfg, 8)):
        traj = evolve(run)
        assert traj.step_map["steps"] == steps and traj.norm_drift <= 1e-13


def test_polished_long_run_keeps_norm_drift_small(fig2_config):
    # 3 000 fig2 steps, factorized: the centre polish gives 1.5e-14 on the
    # grid and 1.1e-14 with 4-step maps, the table as stored 1.05e-12
    cfg = replace(fig2_config, method="magnus2", t_end=3000.0, snapshots=None)
    for run, steps in ((_on_grid(cfg), 1), (cfg, 4)):
        traj = evolve(run)
        assert traj.step_map["steps"] == steps and traj.norm_drift <= 1e-13


def _drift_at_the_step_limit(cfg, lengths, grid):
    """norm_drift of cfg's runs of the two lengths, on the grid or with the step maps evolve picks,
    and their line continued to _MAX_STEPS."""
    runs = [replace(cfg, t_end=n * cfg.dt, snapshots=None) for n in lengths]
    drifts = [evolve(_on_grid(run) if grid else run).norm_drift for run in runs]
    slope = max(drifts[1] - drifts[0], 0.0) / (lengths[1] - lengths[0])
    return drifts, drifts[1] + slope * (_MAX_STEPS - lengths[1])


def test_factorized_drift_extrapolates_within_tolerance_at_the_step_limit(fig2_config):
    # A polished span centre leaves rounding that changes from span to span,
    # but the drift of the fig2 rate grows about linearly from 1e5 to 1e6
    # steps: the line through two run lengths, continued to _MAX_STEPS,
    # must stay below the tolerance that observables_series enforces.
    # 1.7e-14 and 8.1e-14 on the grid, which extrapolate to 2.2e-11;
    # 1.2e-14 and 2.0e-14 with 4- and 8-step maps, 3.0e-12. Both lengths
    # take spans of several stacks (test_span_rule_keeps_the_cheapest_span_that_pays).
    cfg = replace(fig2_config, method="magnus2")
    for n in (3200, 32000):
        assert _span(cfg, cfg.dt, n) == (128, 8)
    for grid in (True, False):
        drifts, limit = _drift_at_the_step_limit(cfg, (3200, 32000), grid)
        assert limit < NORM_TOLERANCE, (grid, drifts)


@pytest.mark.parametrize("omega, lengths, span", [
    # one phase: spans would repeat one polished centre term, 1.3e-13 at
    # 3 200 steps and 1.3e-12 at 32 000 (4.1e-10 at the limit); the
    # polished states give 3.1e-15 and 5.3e-15, and 2.2e-15 and 3.6e-15
    # with 4-step maps, which do not factorize at omega = 0 either
    (0.0, (3200, 32000), (_CHUNK, 0)),
    # the longest spans the rule picks at q = 10: 3.4e-14 and 4.2e-13,
    # which extrapolate to 4.3e-11; with 4-step maps 1.3e-14 and 2.4e-13,
    # 2.5e-11
    (1e-7, (10000, 100000), (512, 4)),
    # span centres closer than tables._SPAN_SPACING: 512-step spans read as
    # omega = 0 did, 1.3e-13 and 1.3e-12 (4.1e-10 at the limit); the
    # polished states give 3.1e-15 and 5.3e-15, and 1.7e-15 and 7.7e-15 with
    # 4-step maps
    (1e-13, (3200, 32000), (_CHUNK, 0)),
], ids=["constant", "longest-span", "near-constant"])
def test_slow_coupling_drift_extrapolates_within_tolerance_at_the_step_limit(omega, lengths,
                                                                             span):
    # span: as test_span_rule_keeps_the_cheapest_span_that_pays pins it; p = 0 polishes the states
    cfg = _config(method="magnus2", beta=0.2, omega=omega)
    for n in lengths:
        assert _span(cfg, cfg.dt, n) == span
    for grid in (True, False):
        drifts, limit = _drift_at_the_step_limit(cfg, lengths, grid)
        assert limit < NORM_TOLERANCE, (grid, drifts)


@pytest.mark.parametrize("beta, omega", [(0.0, 2e-4), (0.1, 0.01)])
def test_long_run_that_does_not_factorize_polishes_its_states(beta, omega):
    # 3 000 steps without a centre term to polish, as beta = 0 (one table
    # row) or a wide phase per chunk gives: the state polish keeps the
    # drift at 4.8e-15 and 2.0e-15 on the grid, against 2.1e-13 and
    # 6.7e-13 with the table as stored, and at 1.3e-15 with 8- and 4-step
    # maps
    cfg = _config(method="magnus2", beta=beta, omega=omega, t_end=3000.0, snapshots=None)
    assert not _span(cfg, cfg.dt, cfg.n_steps)[1]
    for run in (_on_grid(cfg), cfg):
        assert evolve(run).norm_drift <= 1e-13


def test_runs_leave_no_step_operators_behind():
    # A run's table and free step are its own and go with it: once a
    # warm-up run has filled the lattice caches (DFT, kinetic matrix),
    # runs at new couplings leave the traced memory where it was.
    base = _config(q=40, t_end=2.0 * _CHUNK, snapshots=None)
    for method in ("magnus2", "strang"):
        evolve(replace(base, beta=0.05, method=method))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for beta in (0.1, 0.15, 0.1875):
            for method in ("magnus2", "strang"):
                evolve(replace(base, beta=beta, method=method))
        left = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    stack = 16 * _CHUNK * base.lattice.d ** 2
    assert left <= 0.05 * stack, left / stack


def test_long_run_table_memory_stays_within_the_stacks_max_q_assumes(eigh_matrices):
    # 32 nodes at q = 40, factorized: the table, one buffer, W table and
    # the span's S, from the plan of a 100 000-step run through its first chunk
    cfg = _config(q=40, beta=0.1875, method="magnus2")
    d = cfg.lattice.d
    psi = initial_state(cfg).amplitudes

    def first_chunk():
        plan = _plan(cfg, cfg.dt, 100000)
        plan.step(np.arange(float(_CHUNK)), psi, list(np.empty((_CHUNK, d), dtype=complex)))
        return plan

    plan, peak = _traced_peak(first_chunk)
    assert eigh_matrices == [_CHUNK // 2]  # the run's own table: one eigh per node pair
    assert plan.nodes == _CHUNK and plan.steps == 1
    # W table's p = 12 rows in spans of 256 (test_span_rule_keeps_the_cheapest_span_that_pays)
    assert _span(cfg, cfg.dt, 100000) == (256, 12)
    stacks = 2 + 12 / _CHUNK
    assert stacks <= 2.5 <= _PEAK_STACKS
    stack = 16 * _CHUNK * d * d
    assert peak <= stacks * stack + 8 * 16 * _CHUNK * d, peak / stack


@pytest.mark.parametrize("q", [1, 10, 30])
def test_magnus_table_takes_one_eigh_per_node_pair(q, eigh_matrices):
    # J H(c) J = H(-c) bit for bit, J the flip n -> -n, so the node unitary
    # at -x is J U(x) J, exactly: node m - 1 - i mirrors node i
    cfg = _config(q=q)
    h = hamiltonians(cfg.lattice, cfg.mu, [0.2, -0.2])
    np.testing.assert_array_equal(h[0][::-1, ::-1], h[1])
    for beta in (0.1, 0.2):
        m = _chebyshev_nodes(beta * q)
        theta = np.pi * (np.arange(m) + 0.5) / m
        u = _magnus_nodes(cfg.lattice, cfg.mu, beta * np.cos(theta[:(m + 1) // 2]), 1.0, m)
        for i in range(m // 2):
            np.testing.assert_array_equal(u[m - 1 - i], u[i][::-1, ::-1])
        direct = _magnus_unitaries(cfg.lattice, cfg.mu, beta * np.cos(theta), 1.0)
        assert np.abs(u - direct).max() <= 1e-13, beta
        eigh_matrices.clear()
        assert len(_magnus_table(q, cfg.mu, beta, 1.0, m)) == m
        assert eigh_matrices == [(m + 1) // 2], (beta, m)


def test_magnus_steps_above_chunk_nodes_use_eigh(eigh_matrices):
    # no table and no polish: the run's one eigh is its steps' own, and each
    # state is the last one times its own eigh unitary, bit for bit
    cfg = _config(q=150, omega=1.0, method="magnus2")
    assert _chebyshev_nodes(cfg.beta * cfg.q) > _CHUNK
    t = np.arange(3.0)
    run = _propagate(cfg, initial_state(cfg).amplitudes, 0.0, 1.0, len(t), range(len(t) + 1))
    assert eigh_matrices == [len(t)]
    expected = [run.states[0]]
    for u in _magnus_unitaries(cfg.lattice, cfg.mu, cfg.beta * np.cos(t + 0.5), 1.0):
        expected.append(u.dot(expected[-1]))
    np.testing.assert_array_equal([run.states[k] for k in range(len(t) + 1)], expected)


@pytest.mark.parametrize("omega, n_steps, steps", [
    (2e-4, 4096, 4),   # the fig2 coupling
    (0.01, 2048, 4),   # the phase wraps past 2 pi: the map's table is periodic
])
@pytest.mark.parametrize("dt", [1.0, -1.0])
def test_step_map_run_matches_eigh_products(omega, n_steps, steps, dt):
    # A run whose record steps share a power of two takes maps of that many
    # grid steps, tabled in the phase. Its states must match the product of
    # per-step eigh unitaries, forward and backward in time. The Chebyshev
    # table's own few 1e-15 per step add up to 3.3e-12 here at most, on the
    # grid path as well; the maps add at most 2.4e-14 to that.
    cfg = _config(omega=omega, method="magnus2")
    psi = initial_state(cfg).amplitudes
    t0 = 0.0 if dt > 0 else n_steps * 1.0
    record_at = {n_steps // 2, n_steps}
    run = _propagate(cfg, psi, t0, dt, n_steps, record_at)
    assert run.steps == steps and sorted(run.states) == sorted(record_at)
    grid = _propagate(cfg, psi, t0, dt, n_steps, record_at | {1})  # step 1: no map divides it
    assert grid.steps == 1
    expected = _eigh_states(cfg, t0, dt, n_steps, psi, record_at)
    for k in record_at:
        error = np.abs(run.states[k] - expected[k]).max()
        assert error <= 1e-11, k
        assert error <= np.abs(grid.states[k] - expected[k]).max() + 1e-13, k
    assert run.drift <= 1e-13


def test_odd_snapshot_step_keeps_the_grid_stepper_bit_for_bit(fig2_config):
    # one odd snapshot step: no map divides every record, so the fig2 day
    # takes its grid steps, and evolve's states are those of a run that
    # records every grid step
    cfg = replace(fig2_config, method="magnus2", snapshots=(0.0, 1801.0, 28800.0))
    traj = evolve(cfg)
    assert traj.step_map == {"steps": 1, "nodes": 15}
    grid = _propagate(cfg, initial_state(cfg).amplitudes, 0.0, 1.0, cfg.n_steps,
                      range(1, cfg.n_steps + 1))
    assert grid.steps == 1
    for t, state in traj.states[1:]:
        np.testing.assert_array_equal(state.amplitudes, grid.states[round(t)])
    assert evolve(replace(cfg, snapshots=(0.0, 1800.0, 28800.0))).step_map["steps"] == 8


#: The nodes of the sweep's coupled 60-step runs at each q, for beta = 0.05,
#: 0.1 and 0.2 at omega = 1e-4, 2e-4 and 5e-4: narrow tables of 3 to 5
#: nodes where their node unitaries pay for their state-polished steps,
#: elsewhere the paired table of _chebyshev_nodes(beta q).
_SWEEP_NODES = {5: (11, 11, 11, 13, 13, 13, 15, 15, 15), 7: (12, 12, 12, 14, 14, 14, 17, 17, 17),
                10: (13, 13, 13, 15, 15, 15, 4, 4, 19), 15: (3, 14, 14, 3, 4, 4, 4, 4, 5),
                20: (3, 4, 4, 4, 4, 5, 4, 4, 5), 30: (3, 4, 4, 4, 4, 5, 4, 4, 5)}


@pytest.mark.parametrize("q", [5, 7, 10, 15, 20, 30])
def test_short_coupled_runs_take_grid_steps(q):
    # a 60-step run of the benchmark's sweep records steps 30 and 60, so
    # 2-step maps would be allowed; no map's build pays for 30 loop steps,
    # and a narrow table takes none. (beta = 0 runs take them: their map,
    # F^2, is one row, two products.)
    nodes = iter(_SWEEP_NODES[q])
    for beta in (0.05, 0.1, 0.2):
        for omega, mu in ((1e-4, 0.5), (2e-4, 1.0), (5e-4, 2.0)):
            cfg = _config(q=q, beta=beta, omega=omega, mu=mu, method="magnus2", t_end=60.0,
                          snapshots=(0.0, 30.0, 60.0))
            assert evolve(cfg).step_map == {"steps": 1, "nodes": next(nodes)}, (beta, omega)
    cfg = _config(q=q, beta=0.0, method="magnus2", t_end=60.0, snapshots=(0.0, 30.0, 60.0))
    traj = evolve(cfg)
    assert traj.step_map == {"steps": 2, "nodes": 1}
    exact = exact_free_evolution(initial_state(cfg), 60.0, cfg.mu)
    # 5.0e-12 at q = 30 (7.2e-14 at q = 10), as on the grid: F's own error
    assert np.abs(traj.states[-1][1].amplitudes - exact.amplitudes).max() <= 1e-11


@pytest.mark.parametrize("q, bound", [(5, 5e-14), (15, 4e-13), (30, 4e-13)])
def test_narrow_table_runs_match_eigh_products(q, bound, monkeypatch):
    # 60 steps at omega = 5e-4 sweep x = cos theta over [cos 0.03, 1]. A
    # table of that interval (a node price so high that it always pays)
    # takes 4 or 5 nodes; the paired one on [-1, 1] (price 0) 11 to 29.
    # Forward from t = 0 and backward from 60, the narrow table's states
    # lie within bound of per-step eigh products, and its worst within the
    # paired table's worst: 2.9e-14 against 6.6e-14 at q = 5, 2.7e-13
    # against 4.1e-13 at q = 15, 2.8e-13 against 1.3e-12 at q = 30.
    worst = {}
    for price in (1e9, 0):
        monkeypatch.setattr(tables, "_NODE", price)
        for beta in (0.05, 0.2, -0.1):
            cfg = _config(q=q, beta=beta, omega=5e-4, method="magnus2", t_end=60.0,
                          snapshots=(0.0, 30.0, 60.0))
            psi = initial_state(cfg).amplitudes
            for t0, dt in ((0.0, 1.0), (60.0, -1.0)):
                run = _propagate(cfg, psi, t0, dt, 60, {30, 60})
                paired = _chebyshev_nodes(abs(beta) * q)
                assert run.nodes in ((4, 5) if price else (paired,)), (beta, dt)
                assert run.drift <= 1e-13
                expected = _eigh_states(cfg, t0, dt, 60, psi, {30, 60})
                error = max(np.abs(run.states[k] - expected[k]).max() for k in (30, 60))
                worst[price] = max(worst.get(price, 0.0), error)
    assert worst[1e9] <= bound and worst[1e9] <= worst[0], worst


def _recurrence_stacks(cfg, t0, dt, n_steps):
    """The steps of cfg's narrow table over an n_steps run by T_k+1 = 2u T_k - T_k-1, u and M'."""
    x0, half = _coupling_interval(cfg.omega, t0, dt, n_steps)
    table = _magnus_table(cfg.q, cfg.mu, cfg.beta, dt,
                          _chebyshev_nodes(abs(cfg.beta * dt) * cfg.q * half), x0, half)
    u = (np.cos(cfg.omega * (t0 + np.arange(n_steps) * dt + 0.5 * dt)) - x0) / half
    basis = [np.ones(n_steps), u]
    for _ in range(2, len(table)):
        basis.append(2 * u * basis[-1] - basis[-2])
    stacks = np.array(basis[:len(table)]).T @ table
    return stacks.reshape(n_steps, cfg.lattice.d, -1), u, len(table)


@pytest.mark.parametrize("q", [15, 30])
def test_narrow_table_runs_match_the_recurrence(q, monkeypatch):
    # A narrow table is stepped in the phase arccos u, T_k(u) = cos(k arccos u);
    # its states must lie within 1.5e-15 of the same table's steps by the
    # three-term recurrence, the state polish written out (1.1e-15 at worst
    # here). From t0 = 56, forward and backward, one step's u overshoots 1
    # by rounding (up to 2.9e-13), where the run clips it.
    monkeypatch.setattr(tables, "_NODE", 1e9)  # a narrow table always pays
    for beta in (0.05, 0.2, -0.1):
        cfg = _config(q=q, beta=beta, omega=5e-4, method="magnus2")
        psi = initial_state(cfg).amplitudes
        for dt in (1.0, -1.0):
            states, run = _run_states(cfg, psi, 56.0, dt, 60)
            stacks, u, nodes = _recurrence_stacks(cfg, 56.0, dt, 60)
            assert run.nodes == nodes and np.abs(u).max() > 1.0, (beta, dt)
            error = np.abs(states - _polished_states(stacks, psi)).max()
            assert error <= 1.5e-15, (beta, dt, error)


def test_narrow_table_replaces_per_step_eigh_at_large_q(eigh_matrices):
    # q = 100, beta = 0.1: [-1, 1] needs more than _CHUNK nodes, so each of
    # the 60 steps took its own eigh; the run's interval takes 5 nodes, and
    # its states lie 5.1e-13 (3.1e-13 backward) off the per-step products
    cfg = _config(q=100, beta=0.1, omega=5e-4, method="magnus2", t_end=60.0,
                  snapshots=(0.0, 30.0, 60.0))
    assert _chebyshev_nodes(cfg.beta * cfg.q) > _CHUNK
    psi = initial_state(cfg).amplitudes
    for t0, dt in ((0.0, 1.0), (60.0, -1.0)):
        eigh_matrices.clear()
        run = _propagate(cfg, psi, t0, dt, 60, {60})
        assert eigh_matrices == [5] and run.nodes == 5
        assert run.drift <= 1e-13
        expected = _eigh_states(cfg, t0, dt, 60, psi, {60})
        assert np.abs(run.states[60] - expected[60]).max() <= 1e-12, dt


def test_sweep_run_tables_only_the_couplings_it_sweeps(eigh_matrices):
    # the sweep's largest coupling, q = 30, beta = 0.2, omega = 5e-4, over
    # 60 steps: 5 node unitaries, one eigh each, where [-1, 1] takes 29 in
    # 15 pairs; a one-step run takes one node, that step's exact unitary
    cfg = _config(q=30, beta=0.2, omega=5e-4, method="magnus2", t_end=60.0,
                  snapshots=(0.0, 30.0, 60.0))
    assert evolve(cfg).step_map == {"steps": 1, "nodes": 5}
    assert eigh_matrices == [5]
    eigh_matrices.clear()
    psi = initial_state(cfg).amplitudes
    run = _propagate(cfg, psi, 7.0, 1.0, 1, {1})
    assert run.nodes == 1 and eigh_matrices == [1]
    u = _magnus_unitaries(cfg.lattice, cfg.mu, [cfg.beta * math.cos(cfg.omega * 7.5)], 1.0)[0]
    np.testing.assert_array_equal(run.states[1], u.dot(psi) * 1.5 - 0.5 * u.dot(
        u.conj().T.dot(u.dot(psi))))


@pytest.mark.parametrize("omega, t0, dt, n_steps, top, bottom", [
    (1e-3, 100.0, 1.0, 1000, None, None),       # phases in (0, pi)
    (1e-3, 1100.0, -1.0, 1000, None, None),     # the same phases, backward
    (-1e-3, 100.0, 1.0, 1000, None, None),      # in (-pi, 0)
    (1e-3, -500.0, 1.0, 1000, 1.0, None),       # straddling 0
    (1e-3, 3000.0, 1.0, 300, None, -1.0),       # straddling pi
    (1e-3, 6000.0, 1.0, 600, 1.0, None),        # straddling 2 pi
    (5e-4, 1e6, 1.0, 60, None, None),           # a large phase, near 500 rad
    (1e-3, -500.0, 1.0, 4000, 1.0, -1.0),       # 0 and pi, under 2 pi wide
])
def test_coupling_interval_spans_the_cosines_of_the_run_phases(omega, t0, dt, n_steps, top,
                                                               bottom):
    # The closed form's ends are 1 and -1 where the phases straddle 2 pi k
    # and (2k + 1) pi, and the cosines of the end phases elsewhere: the
    # cosines of every phase the run steps lie inside, and reach its ends
    x0, half = _coupling_interval(omega, t0, dt, n_steps)
    t = t0 + np.arange(n_steps) * dt
    cos = np.cos(omega * (t + 0.5 * dt))
    assert x0 - half - 1e-15 <= cos.min() and cos.max() <= x0 + half + 1e-15
    assert x0 + half == (top or pytest.approx(cos.max(), abs=1e-15))
    assert x0 - half == (bottom or pytest.approx(cos.min(), abs=1e-15))
    if top is None or bottom is None:
        assert half < 1.0


def test_coupling_interval_of_wide_constant_and_overflowing_phases():
    # 2 pi wide or more, or not finite: [-1, 1]; one phase, omega = 0 or a
    # single step: h = 0, the one node cos theta. No warning up to omega
    # dt = 1e308 (warnings are errors in this suite), and a run's plan
    # there takes the paired table without one either.
    assert _coupling_interval(1.0, 0.0, 1.0, 8) == (0.0, 1.0)  # phases 0.5 .. 7.5
    assert _coupling_interval(1.0, 0.0, 1.0, 6)[1] < 1.0        # 0.5 .. 5.5: not 2 pi
    assert _coupling_interval(0.0, 5.0, 1.0, 1000) == (1.0, 0.0)
    assert _coupling_interval(0.3, 5.0, -1.0, 1) == (math.cos(0.3 * 4.5), 0.0)
    for omega, t0, dt in ((1e308, 0.0, 1.0), (1.0, 0.0, 1e308), (-1e308, 1.0, -1.0),
                          (1e308, -1e308, 1.0)):
        assert _coupling_interval(omega, t0, dt, 60) == (0.0, 1.0), (omega, t0, dt)
    x0, half = _coupling_interval(1e308, 0.0, 1.0, 1)  # one phase, 5e307: floats 1e291 apart
    assert abs(math.cos(5e307) - x0) <= half
    cfg = _config(omega=1e308, method="magnus2")
    assert _plan(cfg, 1.0, 60).nodes == _chebyshev_nodes(cfg.beta * cfg.q)
    assert not _span(cfg, 1.0, 60)[1]


def test_step_map_run_reports_the_grid_step_of_a_blowup(time_limit):
    # omega * (t + dt/2) overflows from grid step 1793 on, inside the loop
    # step of 8-step maps over steps 1792 .. 1799, whose own phase, at its
    # midpoint, overflows too: rerun at single steps, that loop step names
    # the grid step, as a run on the grid would
    cfg = _config(omega=sys.float_info.max / 1793, method="magnus2", t_end=4096.0,
                  snapshots=None)
    first = next(j for j in range(4096) if not math.isfinite(cfg.omega * (j + 0.5)))
    assert first == 1793
    with time_limit(10), np.errstate(over="ignore", invalid="ignore"):
        assert _plan(cfg, 1.0, 4096, stride=4096).steps == 8
        with pytest.raises(PropagationError, match=f"step {first}:"):
            evolve(cfg)
        with pytest.raises(PropagationError, match=f"step {first}:"):
            evolve(replace(cfg, snapshots=(0.0, 1.0, 4096.0)))  # on the grid


def test_step_map_run_memory_stays_within_the_stacks_max_q_assumes(eigh_matrices):
    # q = 40, 4 096 steps: 2-step maps whose table fills its 2 _CHUNK - 1 = 63
    # rows. Building it holds the Chebyshev table (24 rows), the 63 node maps
    # and two 8-node blocks, 3.2 stacks (3.47 measured, with the vectors);
    # stepping holds the table, one stack, W table and S. The nodes come
    # from the Chebyshev table's 12 eigh matrices alone.
    cfg = _config(q=40, beta=0.1, method="magnus2", t_end=4096.0, snapshots=None)
    d = cfg.lattice.d
    traj, peak = _traced_peak(lambda: evolve(cfg))
    assert traj.step_map == {"steps": 2, "nodes": 2 * _CHUNK - 1}
    assert eigh_matrices == [(_chebyshev_nodes(cfg.beta * cfg.q) + 1) // 2]
    stacks = 4
    assert stacks <= _PEAK_STACKS
    stack = 16 * _CHUNK * d * d
    assert peak <= stacks * stack + 8 * 16 * _CHUNK * d, peak / stack


def test_fig2_day_takes_eight_step_maps_within_a_megabyte(fig2_config):
    # 3 600 loop steps of an 8-step map tabled at 57 phase nodes; the traced
    # peak of the whole run, table build included, stays under 1 MB
    # (0.77 MB here, 0.46 MB when the day took 28 800 grid steps)
    cfg = replace(fig2_config, method="magnus2")
    traj, peak = _traced_peak(lambda: evolve(cfg))
    assert traj.step_map == {"steps": 8, "nodes": 57}
    assert peak < 2**20, peak


def test_step_map_rule_takes_the_norm_bounds_only_where_a_map_may_pay(fig2_config,
                                                                       monkeypatch):
    # The Chebyshev table's entries bound its norms from below, so a run they
    # price no map for, as the 600-step check run, takes no _norm_bounds
    # (0.5-0.75 ms at q = 10); where they leave one, the norms pick it.
    calls = []
    norm_bounds = tables._norm_bounds
    monkeypatch.setattr(tables, "_norm_bounds", lambda mats: calls.append(len(mats))
                        or norm_bounds(mats))
    for method, t_end, step_map in (("magnus2", 600.0, {"steps": 1, "nodes": 15}),
                                    ("magnus2", 28800.0, {"steps": 8, "nodes": 57}),
                                    ("reference", 28800.0, {"steps": 32, "nodes": 47})):
        calls.clear()
        cfg = replace(fig2_config, method=method, t_end=t_end, snapshots=(0.0, t_end))
        assert evolve(cfg).step_map == step_map, method
        assert len(calls) == (step_map["steps"] > 1), (method, t_end)


def test_fig2_strang_day_on_step_maps_matches_its_grid(fig2_config, eigh_matrices):
    # The day's snapshot steps share the factor 8, but the closed-form bound
    # on strang's coefficients (tables._strang_bound) puts an 8-step map at
    # 65 nodes, past the 63-row cap: 7 200 loop steps of a 4-step map at 49
    # nodes. Its states lie within 3.4e-13 of the grid run's, and it drifts
    # 2.6e-14 against the grid's 2.4e-13. Neither takes an eigh.
    traj = evolve(fig2_config)
    grid = evolve(replace(fig2_config, snapshots=(0.0, 1.0) + fig2_config.snapshots[1:]))
    assert traj.step_map == {"steps": 4, "nodes": 49}
    assert grid.step_map == {"steps": 1, "nodes": 0}
    on_grid = dict(grid.states)
    for t, state in traj.states:
        assert np.abs(state.amplitudes - on_grid[t].amplitudes).max() <= 1e-12, t
    assert traj.norm_drift <= 1e-13 and grid.norm_drift <= 2.5e-13
    # backward from t_end to 0, recorded at the snapshots' step counts: the
    # same maps, 3.5e-13 off the grid run, drift 2.9e-14 against 2.8e-13
    psi, n_steps = initial_state(fig2_config).amplitudes, fig2_config.n_steps
    record_at = {round(t / fig2_config.dt) for t in fig2_config.snapshots}
    back = _propagate(fig2_config, psi, fig2_config.t_end, -fig2_config.dt, n_steps, record_at)
    back_grid = _propagate(fig2_config, psi, fig2_config.t_end, -fig2_config.dt, n_steps,
                           record_at | {1})
    assert (back.steps, back.nodes, back_grid.steps) == (4, 49, 1)
    for k in record_at:
        assert np.abs(back.states[k] - back_grid.states[k]).max() <= 1e-12, k
    assert back.drift <= 1e-13 and back_grid.drift <= 3e-13
    assert eigh_matrices == []


def test_free_strang_run_on_step_maps_matches_the_closed_form(eigh_matrices):
    # beta = 0: the map of 2^i steps is F^(2^i), one row; the day takes
    # 64-step maps and lies 1.3e-12 off the closed form (F's own rounding,
    # 28 800 times), drift 8.9e-16
    cfg = _config(beta=0.0, t_end=28800.0, snapshots=(0.0, 14400.0, 28800.0))
    traj = evolve(cfg)
    assert traj.step_map == {"steps": 64, "nodes": 1}
    psi = initial_state(cfg)
    for t, state in traj.states:
        exact = exact_free_evolution(psi, t, cfg.mu)
        assert np.abs(state.amplitudes - exact.amplitudes).max() <= 1e-11, t
    assert traj.norm_drift <= 1e-13
    assert eigh_matrices == []


def test_fine_strang_day_drift_extrapolates_within_tolerance_at_the_step_limit(fig2_config,
                                                                                eigh_matrices):
    # The fig2 day at dt = 1/64, 1 843 200 steps, drifted 1.4e-10 on its grid,
    # past NORM_TOLERANCE. On 128-step maps at 37 nodes it drifts 1.6e-14 at
    # half a day and at the whole day, which take the same maps: the line
    # through both, continued to _MAX_STEPS, stays where it is.
    cfg = replace(fig2_config, dt=1 / 64)
    assert evolve(cfg).step_map == {"steps": 128, "nodes": 37}
    drifts, limit = _drift_at_the_step_limit(cfg, (921600, 1843200), grid=False)
    assert max(drifts) <= 1e-13 and limit < 1e-12, drifts
    assert eigh_matrices == []


def test_reference_run_conserves_norm(fig2_reference):
    # 230 400 steps: a unitarity defect that repeated from step to step would
    # add up linearly, to 2.6e-11 here and past 1e-10 after about a million
    # steps; rounding that changes from step to step stays near 1e-12.
    traj, _ = fig2_reference
    assert traj.norm_drift <= 1e-11


def test_reference_method_is_magnus_at_eighth_step():
    kwargs = dict(q=6, kappa=0.5, mu=1.0, beta=0.1, omega=0.0002,
                  t_end=16.0, snapshots=(8.0, 16.0))
    ref = evolve(SimulationConfig(dt=1.0, method="reference", **kwargs))
    fine = evolve(SimulationConfig(dt=0.125, method="magnus2", **kwargs))
    for (t_a, psi_a), (t_b, psi_b) in zip(ref.states, fine.states):
        assert t_a == t_b
        np.testing.assert_array_equal(psi_a.amplitudes, psi_b.amplitudes)


@pytest.mark.parametrize("method", ["strang", "magnus2"])
def test_evolve_is_deterministic(method):
    cfg = _config(method=method, t_end=100.0, snapshots=(100.0,))
    a = evolve(cfg).states[-1][1].amplitudes
    b = evolve(cfg).states[-1][1].amplitudes
    np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("method", ["strang", "magnus2"])
def test_evolve_reports_step_of_numerical_blowup(method, time_limit):
    # beta = 1e308 overflows the phases of the first step. omega = 4e306
    # overflows omega * t from t = 45 on, at both t and t + dt/2, which blows
    # up step 45: in the second stack of the first chunk of states.
    assert _CHUNK <= 45 < _STATES
    for beta, omega, step in ((1e308, 0.0002, 0), (0.0, 4e306, 45)):
        cfg = _config(beta=beta, omega=omega, t_end=100.0, snapshots=(100.0,), method=method)
        with time_limit(10), np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(PropagationError, match=f"step {step}:"):
                evolve(cfg)


@pytest.mark.parametrize("omega", [2e-4, 0.01])
def test_reference_run_matches_eigh_products(omega):
    # reference is magnus2 at dt/8: a 512 s run takes 4 096 substeps, as
    # 1 024 loop steps of 4-step maps. Its final state must match the
    # product of per-step eigh unitaries at dt/8: 1.8e-12 (omega = 2e-4)
    # and 4.6e-13 (0.01) off here, drift 2.0e-14 and 2.3e-14
    cfg = _config(method="reference", omega=omega, t_end=512.0, snapshots=None)
    traj = evolve(cfg)
    assert traj.step_map == {"steps": 4, "nodes": 25}
    dt = cfg.integration_dt
    expected = _eigh_states(cfg, 0.0, dt, 4096, initial_state(cfg).amplitudes, {4096})
    assert np.abs(traj.states[-1][1].amplitudes - expected[4096]).max() <= 1e-11
    assert traj.norm_drift <= 1e-13


def test_huge_coupling_rate_runs_without_warnings():
    # omega dt near 1e305 puts a span's centres far past 2 pi apart: the span
    # rule takes no span without forming Taylor terms, which would overflow
    # (and warn, an error in this suite); the run polishes its states
    for omega in (1e303, 1e305):
        cfg = _config(method="magnus2", omega=omega)
        assert not _span(cfg, cfg.dt, cfg.n_steps)[1]
        traj = evolve(cfg)
        assert traj.step_map == {"steps": 1, "nodes": 15}
        assert traj.norm_drift <= 1e-13
    # strang at |beta dt| q / 4 past 2 _CHUNK: no map's table can fit, and
    # its coefficient bound's product of terms would overflow from about
    # 1.9e6; the run takes its grid (drift 2.5e-14 and 2.7e-14 here)
    for beta in (1e7, 1e200):
        traj = evolve(_config(beta=beta))
        assert traj.step_map == {"steps": 1, "nodes": 0}
        assert traj.norm_drift <= 1e-13


def test_propagator_imports_only_the_plan_from_tables():
    # tables owns how a run steps and propagator runs the loop: any other
    # name of tables in propagator would split the decision again, and a
    # fourier name but the oracle's DFT would build a step operator there
    source = Path(qlimit.__file__).with_name("propagator.py").read_text()
    imported = {"tables": set(), "fourier": set()}
    for node in ast.walk(ast.parse(source)):
        module = (getattr(node, "module", None) or "").split(".")[-1]
        if isinstance(node, ast.ImportFrom) and module in imported:
            imported[module].update(alias.name for alias in node.names)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            assert all(alias.name.split(".")[-1] not in imported for alias in node.names)
    assert imported == {"tables": {"_CHUNK", "_STATES", "_step_plan"},
                        "fourier": {"dft_matrices"}}
    # and the plan carries only what the loop reads from it
    read = {node.attr for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "plan"}
    assert read == set(tables._Plan._fields)


def test_package_caches_stay_bounded_in_parameter_sweeps():
    caches = {id(fn): fn for name, module in sys.modules.items() if name.startswith("qlimit")
              for fn in vars(module).values() if hasattr(fn, "cache_info")}
    assert caches
    for fn in caches.values():
        fn.cache_clear()
    for i in range(40):
        cfg = _config(q=1 + i, mu=0.5 + 0.01 * i, dt=0.5 + 0.01 * i, t_end=2.0, snapshots=None)
        for method in ("strang", "magnus2"):
            observables_series(evolve(replace(cfg, method=method)))
    for fn in caches.values():
        info = fn.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, (fn, info)
        assert info.misses > info.maxsize, (fn, info)


# ---------------------------------------------------------------------------
# observables

def test_observables_at_opening_time():
    cfg = _config(snapshots=(0.0, 600.0))
    series = observables_series(evolve(cfg))
    t0, mean_r, mean_t, norm = series[0]
    assert t0 == 0.0
    assert mean_r == pytest.approx(0.0, abs=1e-12)
    assert mean_t == pytest.approx(0.0, abs=1e-11)
    assert norm == pytest.approx(1.0, abs=1e-12)


def test_observables_reject_state_off_unit_norm():
    cfg = _config(snapshots=(0.0,))
    amps = initial_state(cfg).amplitudes * (1.0 + 1e-9)
    traj = Trajectory(cfg, ((0.0, StateVector(cfg.lattice, amps)),), norm_drift=1e-9)
    with pytest.raises(NumericalError, match=r"unit norm by 1\.000e-09.*norm_drift is 1\.000e-09"):
        observables_series(traj)


def test_observables_norm_column_stays_unit():
    series = observables_series(evolve(_config(snapshots=(0.0, 300.0, 600.0))))
    for _, _, _, norm in series:
        assert norm == pytest.approx(1.0, abs=1e-10)


def test_observables_trend_mean_matches_dual_sum():
    cfg = _config(snapshots=(0.0, 600.0))
    traj = evolve(cfg)
    from qlimit import apply_dft

    for (t, mean_r, mean_t, _), (_, psi) in zip(observables_series(traj), traj.states):
        dual = float(np.sum(np.arange(-10, 11) * np.abs(apply_dft(psi).amplitudes) ** 2))
        assert mean_t == pytest.approx(dual, abs=1e-11)
