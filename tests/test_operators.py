import numpy as np
import pytest

from qlimit import (
    HermitianOperator,
    NumericalError,
    StateVector,
    delta_state,
    expectation,
    hamiltonian_at,
    kinetic_operator,
    new_lattice,
    normalize,
    price_operator,
    rate_operator,
    tilde_delta,
    trend_operator,
)


def test_constructor_rejects_non_hermitian():
    lattice = new_lattice(1)
    bad = np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0]], dtype=complex)
    with pytest.raises(ValueError, match="Hermitian"):
        HermitianOperator(lattice, bad)


def test_constructor_rejects_non_finite_matrix():
    with pytest.raises(NumericalError, match="non-finite"):
        HermitianOperator(new_lattice(1), np.full((3, 3), np.nan))


def test_constructor_rejects_wrong_shape():
    with pytest.raises(ValueError, match="3x3"):
        HermitianOperator(new_lattice(1), np.eye(4))


def test_rate_operator_eigenstates():
    lattice = new_lattice(10)
    rate = rate_operator(lattice)
    d3 = delta_state(lattice, 3)
    np.testing.assert_array_equal(rate.apply(d3).amplitudes, 3 * d3.amplitudes)
    assert np.abs(rate.apply(delta_state(lattice, 0)).amplitudes).max() == 0
    assert np.trace(rate.matrix) == 0
    np.testing.assert_array_equal(np.diag(rate.matrix).real, np.arange(-10, 11))


def test_price_operator_conventions():
    lattice = new_lattice(10)
    d2 = delta_state(lattice, 2)
    whole_units = price_operator(lattice, 100.0, scale=1.0)
    np.testing.assert_allclose(whole_units.apply(d2).amplitudes, 300.0 * d2.amplitudes)
    percent = price_operator(lattice, 100.0, scale=0.01)
    np.testing.assert_allclose(percent.apply(d2).amplitudes, 102.0 * d2.amplitudes)
    d0 = delta_state(lattice, 0)
    np.testing.assert_allclose(whole_units.apply(d0).amplitudes, 100.0 * d0.amplitudes)


def test_price_operator_rejects_nonpositive_p0():
    with pytest.raises(ValueError, match="p0"):
        price_operator(new_lattice(2), 0.0)
    with pytest.raises(ValueError, match="p0"):
        price_operator(new_lattice(2), -5.0)


def test_expectation_on_eigenstate():
    lattice = new_lattice(10)
    assert expectation(rate_operator(lattice), delta_state(lattice, 5)) == pytest.approx(5.0)


def test_expectation_of_symmetric_superposition_vanishes():
    lattice = new_lattice(10)
    psi = normalize(
        StateVector(
            lattice, delta_state(lattice, -1).amplitudes + delta_state(lattice, 1).amplitudes
        )
    )
    assert expectation(rate_operator(lattice), psi) == pytest.approx(0.0, abs=1e-14)


def test_trend_mean_vanishes_on_point_masses():
    # oracle: <delta_n|T|delta_n> = sum_k k |dual_k(n)|^2 = (1/d) sum_k k = 0
    lattice = new_lattice(6)
    trend = trend_operator(lattice)
    for n in range(-6, 7):
        dn = delta_state(lattice, n)
        oracle = sum(
            k * abs(tilde_delta(lattice, k).amplitude(n)) ** 2 for k in range(-6, 7)
        )
        assert oracle == pytest.approx(0.0, abs=1e-13)
        assert expectation(trend, dn) == pytest.approx(0.0, abs=1e-12)


def test_expectation_requires_normalized_state():
    lattice = new_lattice(3)
    psi = StateVector(lattice, 2.0 * delta_state(lattice, 1).amplitudes)
    with pytest.raises(ValueError, match="normalized"):
        expectation(rate_operator(lattice), psi)


def test_expectation_rejects_lattice_mismatch():
    with pytest.raises(ValueError, match="lattice"):
        expectation(rate_operator(new_lattice(2)), delta_state(new_lattice(3), 0))


def test_expectation_is_real_for_hermitian_operators():
    rng = np.random.default_rng(21)
    lattice = new_lattice(10)
    ops = [rate_operator(lattice), trend_operator(lattice), kinetic_operator(lattice, 0.7)]
    for _ in range(20):
        psi = normalize(
            StateVector(lattice, rng.standard_normal(21) + 1j * rng.standard_normal(21))
        )
        for op in ops:
            raw = np.vdot(psi.amplitudes, op.matrix @ psi.amplitudes)
            assert abs(raw.imag) < 1e-10
            assert expectation(op, psi) == pytest.approx(raw.real)


def test_kinetic_operator_eigenstates():
    lattice = new_lattice(10)
    kin = kinetic_operator(lattice, 1.0)
    assert np.abs(kin.apply(tilde_delta(lattice, 0)).amplitudes).max() < 1e-13
    t3 = tilde_delta(lattice, 3)
    assert np.abs(kin.apply(t3).amplitudes - 4.5 * t3.amplitudes).max() < 1e-12


def test_kinetic_operator_positive_semidefinite():
    lattice = new_lattice(8)
    eigs = np.linalg.eigvalsh(kinetic_operator(lattice, 2.0).matrix)
    assert eigs.min() > -1e-12
    assert eigs.min() == pytest.approx(0.0, abs=1e-12)


def test_kinetic_operator_rejects_nonpositive_mu():
    with pytest.raises(ValueError, match="mu"):
        kinetic_operator(new_lattice(2), 0.0)


def test_hamiltonian_reduces_to_kinetic_when_potential_vanishes():
    lattice = new_lattice(10)
    kin = kinetic_operator(lattice, 1.0).matrix
    omega = 0.0002
    at_quarter_period = hamiltonian_at(lattice, np.pi / (2 * omega), 1.0, 0.1, omega)
    assert np.abs(at_quarter_period.matrix - kin).max() < 1e-12
    for t in (0.0, 123.4, 9999.0):
        free = hamiltonian_at(lattice, t, 1.0, 0.0, omega)
        assert np.abs(free.matrix - kin).max() < 1e-14


def test_hamiltonian_potential_entry_at_opening_time():
    lattice = new_lattice(10)
    h = hamiltonian_at(lattice, 0.0, 1.0, 0.1, 0.0002)
    kin = kinetic_operator(lattice, 1.0).matrix
    potential_diag = np.diag(h.matrix - kin).real
    assert potential_diag[lattice.index(10)] == pytest.approx(1.0)
    np.testing.assert_allclose(potential_diag, 0.1 * lattice.points(), atol=1e-14)


def test_hamiltonian_is_hermitian():
    lattice = new_lattice(10)
    h = hamiltonian_at(lattice, 777.0, 0.5, 0.3, 0.01).matrix
    assert np.abs(h - h.conj().T).max() < 1e-12


def test_diagonal_potential_hook():
    from qlimit import diagonal_potential

    lattice = new_lattice(2)
    table = [5.0, 0.0, -1.0, 0.0, 5.0]
    op = diagonal_potential(lattice, table)
    np.testing.assert_array_equal(np.diag(op.matrix).real, table)
    d1 = delta_state(lattice, -1)
    np.testing.assert_allclose(op.apply(d1).amplitudes, 0.0 * d1.amplitudes)
    with pytest.raises(ValueError, match="diagonal values"):
        diagonal_potential(lattice, [1.0, 2.0])
