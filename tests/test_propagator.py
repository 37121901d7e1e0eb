import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import qlimit
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
    _CHUNK,
    _PEAK_STACKS,
    _REFINE,
    MAX_Q,
    _free_step,
    _magnus_builder,
    _magnus_table,
    _magnus_unitaries,
    _strang_closing_kick,
    _strang_kicked_builder,
)


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


def _one_step(make_builder, cfg, psi, t, dt):
    return make_builder(cfg, t, dt, 1)(np.array([t]))[0] @ psi.amplitudes


def _strang_step(cfg, psi, t, dt):
    """One whole strang step: the builder's opening stack, then the closing half kick."""
    opened = _one_step(_strang_kicked_builder, cfg, psi, t, dt)
    return StateVector(cfg.lattice, _strang_closing_kick(cfg, opened, t + dt, dt))


def _magnus_step(cfg, psi, t, dt):
    return StateVector(cfg.lattice, _one_step(_magnus_builder, cfg, psi, t, dt))


def test_strang_step_is_exact_for_free_evolution():
    cfg = _config(beta=0.0)
    psi = initial_state(cfg)
    for dt in (0.5, 1.0, 7.3):
        stepped = _one_step(_strang_kicked_builder, cfg, psi, 0.0, dt)
        exact = exact_free_evolution(psi, dt, cfg.mu)
        assert np.abs(stepped - exact.amplitudes).max() < 1e-14


def test_strang_step_with_zero_dt_is_identity():
    cfg = _config()
    psi = initial_state(cfg)
    stepped = _one_step(_strang_kicked_builder, cfg, psi, 100.0, 0.0)
    assert np.abs(stepped - psi.amplitudes).max() < 1e-14


def test_strang_step_preserves_norm():
    cfg = _config()
    psi = initial_state(cfg)
    for i in range(50):
        psi = _strang_step(cfg, psi, float(i), 1.0)
        assert abs(psi.norm() - 1.0) < 1e-14


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
    cfg = _config()
    psi = initial_state(cfg)
    dt = 0.01
    for t in (0.0, 250.0):
        h = hamiltonian_at(cfg.lattice, t + dt / 2, cfg.mu, cfg.beta, cfg.omega).matrix
        oracle = _taylor_expm_apply(h, dt, psi.amplitudes)
        stepped = _one_step(_magnus_builder, cfg, psi, t, dt)
        assert np.abs(stepped - oracle).max() < 1e-13


def test_magnus_step_is_exact_for_time_independent_hamiltonian():
    cfg = _config(beta=0.0)
    psi = initial_state(cfg)
    for dt in (1.0, 13.7):
        stepped = _one_step(_magnus_builder, cfg, psi, 5.0, dt)
        exact = exact_free_evolution(psi, dt, cfg.mu)
        assert np.abs(stepped - exact.amplitudes).max() < 1e-12


def test_magnus_step_preserves_norm():
    cfg = _config()
    psi = initial_state(cfg)
    for i in range(50):
        psi = _magnus_step(cfg, psi, float(i), 1.0)
        assert abs(psi.norm() - 1.0) < 1e-13


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
    cfg = _config(t_end=300.0, snapshots=(300.0,), method="magnus2")
    final = evolve(cfg).states[-1][1]
    psi = initial_state(cfg)
    for i in range(300):
        psi = _magnus_step(cfg, psi, float(i), 1.0)
    assert np.abs(final.amplitudes - psi.amplitudes).max() < 1e-12


@pytest.mark.parametrize("method", ["magnus2", "reference"])
def test_magnus_evolve_equals_plain_application_of_step_stacks(method):
    # the loop (u.dot(psi, out=row) into preallocated rows) against the
    # stacks of the same chunks applied by plain matmul: bit for bit
    cfg = _config(method=method, t_end=100.0, snapshots=(0.0, 17.0, 32.0, 64.0, 97.0, 100.0))
    dt, n_steps = cfg.dt / _REFINE[method], cfg.n_steps * _REFINE[method]
    build = _magnus_builder(cfg, 0.0, dt, _CHUNK)
    psi = initial_state(cfg).amplitudes
    expected = {0: psi}
    for start in range(0, n_steps, _CHUNK):
        t = (start + np.arange(min(_CHUNK, n_steps - start))) * dt
        for j, u in enumerate(build(t)):
            psi = np.matmul(u, psi)
            expected[start + j + 1] = psi
    states = evolve(cfg).states
    assert [t for t, _ in states] == list(cfg.snapshots)
    for t, state in states:
        np.testing.assert_array_equal(state.amplitudes, expected[round(t / dt)])


def test_evolve_strang_snapshots_across_chunks_match_single_steps():
    # merged half kicks: the recorded states get their closing half kick back,
    # at a chunk boundary (32, 64), inside a chunk (17) and in the last,
    # partial chunk (97, 100)
    snaps = (0.0, 17.0, 32.0, 64.0, 97.0, 100.0)
    cfg = _config(t_end=100.0, snapshots=snaps)
    recorded = dict(evolve(cfg).states)
    assert list(recorded) == list(snaps)
    psi = initial_state(cfg)
    for i in range(101):
        if float(i) in recorded:
            assert np.abs(recorded[float(i)].amplitudes - psi.amplitudes).max() < 1e-13, i
        psi = _unmerged_strang_step(cfg, psi, float(i), 1.0)


@pytest.mark.parametrize("make_builder", [_strang_kicked_builder, _magnus_builder])
def test_evolve_builders_reuse_one_workspace_across_chunks(make_builder):
    build = make_builder(_config(), 0.0, 1.0, _CHUNK)
    first = build(np.arange(float(_CHUNK)))
    second = build(_CHUNK + np.arange(5.0))
    assert second.shape == (5, 21, 21)
    assert np.shares_memory(first, second)


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
    # Minor page faults of a second fig2 day per method, once the caches
    # are filled. Fresh (32, 21, 21) complex temporaries per chunk cost
    # 35 000 to 40 000 of them a day when the allocator hands the freed
    # memory back to the system and maps it again; whether it does depends
    # on the heap's history, so the probe runs in a fresh interpreter. This
    # does not catch every reallocation: memory the heap keeps is reused
    # without faults. test_evolve_builders_reuse_one_workspace_across_chunks
    # checks the reuse itself.
    pytest.importorskip("resource")
    src = str(Path(qlimit.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS="1")
    probe = subprocess.run([sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True,
                           text=True, timeout=60, check=True)
    faults = {method: int(n) for method, n in map(str.split, probe.stdout.splitlines())}
    assert faults.keys() == {"strang", "magnus2"}
    assert max(faults.values()) < 2000, faults


@pytest.mark.parametrize("method, beta, t_end, nodes, stacks", [
    ("strang", 0.1, 64.0, None, 1),
    ("magnus2", 0.1875, 64.0, _CHUNK, 4),  # the largest table
    ("magnus2", 0.25, 64.0, None, 4.5),    # one eigh per step
    ("reference", 1.5, 8.0, _CHUNK, 4),
])
def test_evolve_memory_stays_within_the_stacks_max_q_assumes(method, beta, t_end, nodes, stacks):
    # MAX_Q keeps _PEAK_STACKS (_CHUNK, d, d) complex stacks within 1 GiB;
    # a run that held more would break that bound. The allowance on top of
    # each path's stacks is a few (_CHUNK, d) blocks of vectors: states,
    # kicks, eigenvalues.
    assert stacks <= _PEAK_STACKS
    cfg = _config(q=40, beta=beta, method=method, t_end=t_end, snapshots=None)
    d = cfg.lattice.d
    _free_step.cache_clear()
    _magnus_table.cache_clear()
    tracemalloc.start()
    try:
        evolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stack = 16 * _CHUNK * d * d
    assert peak <= stacks * stack + 8 * 16 * _CHUNK * d, peak / stack
    if method != "strang":
        table = _magnus_table(cfg.q, cfg.mu, beta, cfg.dt / _REFINE[method])
        assert (None if table is None else len(table)) == nodes


def test_magnus_evolve_at_large_q_matches_single_steps():
    cfg = _config(q=150, method="magnus2", t_end=4.0, snapshots=(4.0,))
    traj = evolve(cfg)
    assert traj.norm_drift <= 1e-10
    psi = initial_state(cfg).amplitudes
    coupling = cfg.beta * np.cos(cfg.omega * (np.arange(4.0) + 0.5))
    for u in _magnus_unitaries(cfg.lattice, cfg.mu, coupling, 1.0):
        psi = u @ psi
    assert np.abs(traj.states[-1][1].amplitudes - psi).max() < 1e-12


@pytest.mark.parametrize("q", [1, 10, 30])
def test_magnus_table_matches_eigh_unitaries(q):
    t = np.linspace(0.0, 2 * np.pi, 49)  # omega = 1: the coupling sweeps [-beta, beta]
    for beta in (0.0, 0.1, -0.1, 0.2):
        cfg = _config(q=q, beta=beta, omega=1.0)
        for dt in (1.0, 0.125, -1.0):
            assert _magnus_table(q, cfg.mu, beta, dt) is not None
            direct = _magnus_unitaries(cfg.lattice, cfg.mu, beta * np.cos(t + 0.5 * dt), dt)
            stacks = _magnus_builder(cfg, 0.0, dt, len(t))(t)
            assert np.abs(stacks - direct).max() <= 1e-13, (beta, dt)


def test_magnus_steps_above_chunk_nodes_use_eigh():
    cfg = _config(q=150, omega=1.0)
    assert _magnus_table(150, cfg.mu, cfg.beta, 1.0) is None
    t = np.array([0.0, 1.0, 2.5])
    direct = _magnus_unitaries(cfg.lattice, cfg.mu, cfg.beta * np.cos(t + 0.5), 1.0)
    np.testing.assert_array_equal(_magnus_builder(cfg, 0.0, 1.0, len(t))(t), direct)


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
    cfg = _config(beta=1e308, t_end=5.0, snapshots=(5.0,), method=method)
    with time_limit(10), np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(PropagationError, match="step 0"):
            evolve(cfg)


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
