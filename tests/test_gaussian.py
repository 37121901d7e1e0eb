import math

import numpy as np
import pytest

from qlimit import (
    GaussianParams,
    ThetaArgs,
    delta_state,
    gamma_kappa,
    new_lattice,
    theta3,
    upsilon_kappa,
)
from qlimit.checks import (
    KAPPA_GRID,
    Q_GRID,
    check_gamma_theta_closed_form,
    check_gaussian_dft_covariance,
    check_gaussian_self_duality,
)

from conftest import assert_passes


def _oracle_theta3(z, tau, terms=60):
    """Wide fixed-truncation partial sum, independent of the adaptive path."""
    total = 0j
    for a in range(-terms, terms + 1):
        total += np.exp(1j * np.pi * tau * a * a) * np.exp(2j * np.pi * a * z)
    return total


def _oracle_gamma(q, kappa, wraps=60):
    d = 2 * q + 1
    n = np.arange(-q, q + 1, dtype=float)
    g = np.zeros(d)
    for m in range(-wraps, wraps + 1):
        g += np.exp(-(kappa * np.pi / d) * (m * d + n) ** 2)
    return g


def test_theta_at_center_of_upper_half_plane():
    value = theta3(ThetaArgs(0.0, 1j), tol=1e-14)
    assert value == pytest.approx(_oracle_theta3(0.0, 1j), abs=1e-14)
    assert value.real == pytest.approx(1.0864348112133080, abs=1e-13)
    assert value.imag == pytest.approx(0.0, abs=1e-15)


def test_theta_matches_oracle_for_complex_arguments():
    rng = np.random.default_rng(31)
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.1, 2.0))
        assert theta3(ThetaArgs(z, tau), tol=1e-12) == pytest.approx(
            _oracle_theta3(z, tau), rel=1e-11, abs=1e-12
        )


def test_theta_over_arrays_equals_its_scalar_calls():
    # each element stops by its own rule: z = 2j stops after 3 pairs, and
    # its terms would overflow exp (and warn, an error here) if computed
    # for the 300 pairs that tau = 1e-4j needs
    rng = np.random.default_rng(32)
    z = rng.uniform(-2, 2, (3, 4)) + 1j * rng.uniform(-0.3, 0.3, (3, 4))
    tau = rng.uniform(-0.5, 0.5, 4) + 1j * rng.uniform(0.05, 2.0, 4)
    cases = [(z, tau), (np.array([2j, 0.3]), np.array([2j, 1e-4j])), (np.arange(3) / 3, 0.5j)]
    for zs, taus in cases:
        values = theta3(ThetaArgs(zs, taus), tol=1e-12)
        assert values.shape == np.broadcast_shapes(np.shape(zs), np.shape(taus))
        for index in np.ndindex(values.shape):
            z_i = complex(np.broadcast_to(zs, values.shape)[index])
            tau_i = complex(np.broadcast_to(taus, values.shape)[index])
            assert values[index] == theta3(ThetaArgs(z_i, tau_i), tol=1e-12), index
    assert isinstance(theta3(ThetaArgs(0.3, 1j)), complex)


def test_theta_over_arrays_rejects_any_element_outside_its_domain(time_limit):
    with pytest.raises(ValueError, match="Im"):
        ThetaArgs(np.zeros(3), np.array([1j, 0.5j, -1e-3j]))
    with pytest.raises(ValueError, match="Im"):
        ThetaArgs(0.0, np.array([1j, np.nan]))
    with time_limit(10):
        with pytest.raises(ValueError, match="10000 term pairs"):
            theta3(ThetaArgs(np.array([0.3, 0.3]), np.array([1j, 0.1 + 1e-20j])))


def test_theta_args_require_upper_half_plane():
    with pytest.raises(ValueError, match="Im"):
        ThetaArgs(0.0, 1.0)
    with pytest.raises(ValueError, match="Im"):
        ThetaArgs(0.0, -1j)


def test_theta_tolerance_domain():
    with pytest.raises(ValueError, match="tol"):
        theta3(ThetaArgs(0.0, 1j), tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        theta3(ThetaArgs(0.0, 1j), tol=1e-5)


def test_theta_at_tiny_im_tau_stops_at_its_pair_cap(time_limit):
    # the pairs it needs grow as Im(tau)^-1/2: about 10^11 here
    with time_limit(10):
        with pytest.raises(ValueError, match="10000 term pairs"):
            theta3(ThetaArgs(0.3, 0.1 + 1e-20j))


def test_gaussian_params_require_positive_kappa():
    with pytest.raises(ValueError, match="kappa"):
        GaussianParams(0.0)
    with pytest.raises(ValueError, match="kappa"):
        GaussianParams(-1.0)
    for kappa in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="kappa"):
            GaussianParams(kappa)


def test_gamma_at_huge_kappa_is_the_point_mass(time_limit):
    with time_limit(10):
        g = gamma_kappa(new_lattice(10), GaussianParams(1e308))
    np.testing.assert_array_equal(g.amplitudes, delta_state(new_lattice(10), 0).amplitudes)


def test_gamma_center_value_narrow_width():
    lattice = new_lattice(10)
    g = gamma_kappa(lattice, GaussianParams(0.2))
    center = g.amplitude(0).real
    assert center == pytest.approx(_oracle_gamma(10, 0.2)[10], abs=1e-15)
    # dominant wrap correction: 1 + 2 exp(-0.2*pi*21)
    assert center == pytest.approx(1.0 + 2.0 * math.exp(-0.2 * math.pi * 21), abs=1e-11)
    assert center == pytest.approx(1.0000037, abs=1e-6)


def test_gamma_edge_value_wide_width():
    lattice = new_lattice(10)
    g = gamma_kappa(lattice, GaussianParams(2.0))
    edge = g.amplitude(10).real
    assert edge == pytest.approx(_oracle_gamma(10, 2.0)[20], rel=1e-12)
    two_terms = math.exp(-2 * math.pi / 21 * 100) + math.exp(-2 * math.pi / 21 * 121)
    assert edge == pytest.approx(two_terms, rel=1e-6)


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_gamma_matches_oracle_and_shape(q, kappa):
    lattice = new_lattice(q)
    g = gamma_kappa(lattice, GaussianParams(kappa))
    np.testing.assert_allclose(g.amplitudes.real, _oracle_gamma(q, kappa), atol=1e-15)
    assert np.abs(g.amplitudes.imag).max() == 0.0
    assert np.all(g.amplitudes.real > 0)
    np.testing.assert_array_equal(g.amplitudes, g.amplitudes[::-1])


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_gamma_equals_scaled_theta(q, kappa):
    assert_passes(check_gamma_theta_closed_form())


def test_upsilon_is_normalized_and_positive():
    for kappa in KAPPA_GRID:
        u = upsilon_kappa(new_lattice(10), GaussianParams(kappa))
        assert abs(u.norm() - 1.0) < 1e-14
        assert np.all(u.amplitudes.real > 0)
        np.testing.assert_array_equal(u.amplitudes, u.amplitudes[::-1])


def test_upsilon_center_values_match_published_bars():
    # digitized bar-chart heights, axis scale 12 units = 0.75 (value = length/16)
    targets = {0.2: 5.93595 / 16, 1.0: 8.88838 / 16, 2.0: 10.57013 / 16}
    lattice = new_lattice(10)
    for kappa, target in targets.items():
        u = upsilon_kappa(lattice, GaussianParams(kappa))
        assert u.amplitude(0).real == pytest.approx(target, abs=0.002)
    oracle = _oracle_gamma(10, 0.2)
    assert upsilon_kappa(lattice, GaussianParams(0.2)).amplitude(0).real == pytest.approx(
        oracle[10] / np.sqrt(np.sum(oracle**2)), abs=1e-14
    )


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_transform_covariance_of_gamma(q, kappa):
    assert_passes(check_gaussian_dft_covariance())


@pytest.mark.parametrize("q", Q_GRID)
@pytest.mark.parametrize("kappa", KAPPA_GRID)
def test_transform_self_duality_of_upsilon(q, kappa):
    assert_passes(check_gaussian_self_duality())
