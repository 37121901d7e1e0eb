import numpy as np
import pytest

from qlimit import (
    GaussianParams,
    StateVector,
    apply_dft,
    apply_inverse_dft,
    delta_state,
    dft_matrices,
    inner_product,
    new_lattice,
    normalize,
    tilde_delta,
    upsilon_kappa,
)


def test_zero_row_is_constant_at_q1():
    mats = dft_matrices(new_lattice(1))
    row = mats.forward[1]  # k = 0
    np.testing.assert_allclose(row, np.full(3, 1 / np.sqrt(3)), atol=1e-15)


def test_all_entries_have_modulus_inverse_sqrt_d():
    mats = dft_matrices(new_lattice(10))
    np.testing.assert_allclose(np.abs(mats.forward), 1 / np.sqrt(21), atol=1e-15)


def test_explicit_entry_k1_nm1_at_q1():
    mats = dft_matrices(new_lattice(1))
    lattice = mats.lattice
    expected = np.exp(2j * np.pi / 3) / np.sqrt(3)
    assert mats.forward[lattice.index(1), lattice.index(-1)] == pytest.approx(expected)


def test_adjoint_is_conjugate_transpose_exactly():
    mats = dft_matrices(new_lattice(7))
    np.testing.assert_array_equal(mats.adjoint, mats.forward.conj().T)


def test_double_transform_is_parity():
    lattice = new_lattice(6)
    for n in range(-6, 7):
        twice = apply_dft(apply_dft(delta_state(lattice, n)))
        np.testing.assert_allclose(
            twice.amplitudes, delta_state(lattice, -n).amplitudes, atol=1e-13
        )


def test_matrices_cached_per_lattice():
    assert dft_matrices(new_lattice(9)) is dft_matrices(new_lattice(9))


def test_transform_of_point_mass_is_constant():
    lattice = new_lattice(10)
    phi = apply_dft(delta_state(lattice, 0))
    np.testing.assert_allclose(phi.amplitudes, np.full(21, 1 / np.sqrt(21)), atol=1e-15)


def test_transform_preserves_norm():
    rng = np.random.default_rng(5)
    lattice = new_lattice(10)
    for _ in range(25):
        psi = StateVector(lattice, rng.standard_normal(21) + 1j * rng.standard_normal(21))
        assert abs(apply_dft(psi).norm() - psi.norm()) < 1e-13


def test_inverse_round_trip():
    lattice = new_lattice(10)
    d3 = delta_state(lattice, 3)
    back = apply_inverse_dft(apply_dft(d3))
    assert np.abs(back.amplitudes - d3.amplitudes).max() < 1e-13


def test_inverse_of_constant_is_point_mass():
    lattice = new_lattice(10)
    const = StateVector(lattice, np.full(21, 1 / np.sqrt(21)))
    back = apply_inverse_dft(const)
    assert np.abs(back.amplitudes - delta_state(lattice, 0).amplitudes).max() < 1e-13


def test_inverse_maps_reciprocal_gaussian_back():
    lattice = new_lattice(10)
    mats = dft_matrices(lattice)
    ups_inv = upsilon_kappa(lattice, GaussianParams(1 / 0.2))
    # oracle: direct application of the adjoint matrix
    oracle = mats.adjoint @ ups_inv.amplitudes
    result = apply_inverse_dft(ups_inv)
    np.testing.assert_array_equal(result.amplitudes, oracle)
    target = upsilon_kappa(lattice, GaussianParams(0.2))
    assert np.abs(result.amplitudes - target.amplitudes).max() < 1e-12


def test_dual_basis_vector_values_and_norm():
    lattice = new_lattice(10)
    t0 = tilde_delta(lattice, 0)
    np.testing.assert_allclose(t0.amplitudes, np.full(21, 1 / np.sqrt(21)), atol=1e-15)
    t2, t3 = tilde_delta(lattice, 2), tilde_delta(lattice, 3)
    assert inner_product(t2, t2) == pytest.approx(1.0, abs=1e-14)
    assert inner_product(t2, t3) == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        tilde_delta(lattice, 11)


def test_dual_basis_vector_is_inverse_transform_of_point_mass():
    lattice = new_lattice(5)
    for n in range(-5, 6):
        direct = tilde_delta(lattice, n)
        via_transform = apply_inverse_dft(delta_state(lattice, n))
        np.testing.assert_allclose(direct.amplitudes, via_transform.amplitudes, atol=1e-15)


def test_dual_basis_explicit_formula():
    lattice = new_lattice(4)
    d = 9
    for n in range(-4, 5):
        vec = tilde_delta(lattice, n)
        for k in range(-4, 5):
            expected = np.exp(2j * np.pi * k * n / d) / np.sqrt(d)
            assert vec.amplitude(k) == pytest.approx(expected, abs=1e-15)


def test_transform_preserves_inner_products():
    rng = np.random.default_rng(6)
    lattice = new_lattice(10)
    for _ in range(25):
        a = normalize(StateVector(lattice, rng.standard_normal(21) + 1j * rng.standard_normal(21)))
        b = normalize(StateVector(lattice, rng.standard_normal(21) + 1j * rng.standard_normal(21)))
        assert inner_product(apply_dft(a), apply_dft(b)) == pytest.approx(
            inner_product(a, b), abs=1e-12
        )


def test_adjoint_relation():
    rng = np.random.default_rng(8)
    lattice = new_lattice(9)
    for _ in range(25):
        psi = StateVector(lattice, rng.standard_normal(19) + 1j * rng.standard_normal(19))
        phi = StateVector(lattice, rng.standard_normal(19) + 1j * rng.standard_normal(19))
        lhs = inner_product(apply_inverse_dft(phi), psi)
        rhs = inner_product(phi, apply_dft(psi))
        assert lhs == pytest.approx(rhs, abs=1e-13)
