import numpy as np
import pytest

from qlimit import (
    ProbabilityDistribution,
    StateVector,
    delta_state,
    inner_product,
    new_lattice,
    normalize,
    probabilities,
    upsilon_kappa,
)
from qlimit.gaussian import GaussianParams


@pytest.mark.parametrize("q,d", [(10, 21), (1, 3), (5, 11)])
def test_lattice_dimension(q, d):
    lattice = new_lattice(q)
    assert lattice.d == d
    assert list(lattice.points()) == list(range(-q, q + 1))


@pytest.mark.parametrize("q", [0, -3])
def test_lattice_rejects_nonpositive_q(q):
    with pytest.raises(ValueError):
        new_lattice(q)


def test_lattice_rejects_non_integer_q():
    with pytest.raises(ValueError):
        new_lattice(2.5)


def test_index_mapping_is_bijective():
    lattice = new_lattice(4)
    assert [lattice.index(n) for n in range(-4, 5)] == list(range(9))
    with pytest.raises(ValueError):
        lattice.index(5)


def test_inner_product_orthonormal_basis():
    lattice = new_lattice(10)
    d3 = delta_state(lattice, 3)
    d5 = delta_state(lattice, 5)
    assert inner_product(d3, d3) == 1
    assert inner_product(d3, d5) == 0


def test_inner_product_conjugate_linear_in_first_slot():
    lattice = new_lattice(10)
    d0 = delta_state(lattice, 0)
    scaled = StateVector(lattice, (1 + 1j) * d0.amplitudes)
    assert inner_product(scaled, d0) == pytest.approx(1 - 1j)
    assert inner_product(d0, scaled) == pytest.approx(1 + 1j)


def test_inner_product_rejects_lattice_mismatch():
    with pytest.raises(ValueError, match="mismatch"):
        inner_product(delta_state(new_lattice(2), 0), delta_state(new_lattice(3), 0))


def test_normalize_scaling():
    # far above and below 1 the sum of squares alone would overflow (giving
    # the zero vector) or underflow (rejecting the state as zero)
    lattice = new_lattice(5)
    for factor in (2.0, 1e200, 1e-170):
        scaled = StateVector(lattice, factor * delta_state(lattice, 0).amplitudes)
        np.testing.assert_allclose(
            normalize(scaled).amplitudes, delta_state(lattice, 0).amplitudes
        )


def test_normalize_two_point_superposition():
    lattice = new_lattice(5)
    psi = StateVector(
        lattice, delta_state(lattice, -1).amplitudes + delta_state(lattice, 1).amplitudes
    )
    result = normalize(psi)
    assert result.amplitude(-1) == pytest.approx(1 / np.sqrt(2))
    assert result.amplitude(1) == pytest.approx(1 / np.sqrt(2))


def test_normalize_rejects_zero_vector():
    lattice = new_lattice(5)
    with pytest.raises(ValueError, match="zero"):
        normalize(StateVector(lattice, np.zeros(11)))


def test_normalize_idempotent():
    rng = np.random.default_rng(7)
    lattice = new_lattice(10)
    for _ in range(20):
        psi = StateVector(
            lattice, 5 * rng.standard_normal(21) + 2j * rng.standard_normal(21)
        )
        once = normalize(psi)
        twice = normalize(once)
        assert abs(once.norm() - 1.0) < 1e-14
        assert np.abs(once.amplitudes - twice.amplitudes).max() < 1e-14


def test_delta_state_examples():
    lattice = new_lattice(10)
    center = delta_state(lattice, 0)
    assert center.amplitude(0) == 1
    assert np.count_nonzero(center.amplitudes) == 1
    edge = delta_state(lattice, -10)
    assert edge.amplitude(-10) == 1
    with pytest.raises(ValueError):
        delta_state(lattice, 11)


def test_state_vector_validation():
    lattice = new_lattice(2)
    with pytest.raises(ValueError, match="length"):
        StateVector(lattice, np.ones(4))
    with pytest.raises(ValueError, match="finite"):
        StateVector(lattice, [1.0, np.nan, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="finite"):
        StateVector(lattice, [1.0, np.inf, 0.0, 0.0, 0.0])
    for bad in (complex(0.0, np.nan), -np.inf, complex(np.inf, 0.0)):
        with pytest.raises(ValueError, match="finite"):
            StateVector(lattice, [1.0, 0.0, 0.0, 0.0, bad])


def test_state_vector_is_immutable():
    psi = delta_state(new_lattice(2), 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 2.0


def test_probabilities_basis_state():
    lattice = new_lattice(10)
    p = probabilities(delta_state(lattice, 5))
    assert p.prob(5) == 1.0
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-15)
    assert np.count_nonzero(p.probs) == 1


def test_probabilities_equal_superposition():
    lattice = new_lattice(10)
    psi = normalize(
        StateVector(
            lattice, delta_state(lattice, -1).amplitudes + delta_state(lattice, 1).amplitudes
        )
    )
    p = probabilities(psi)
    assert p.prob(-1) == pytest.approx(0.5)
    assert p.prob(1) == pytest.approx(0.5)


def _oracle_gaussian_probs(q: int, kappa: float) -> np.ndarray:
    """Brute-force wrapped Gaussian probabilities: wide fixed sum over wraps."""
    d = 2 * q + 1
    n = np.arange(-q, q + 1, dtype=float)
    g = np.zeros(d)
    for m in range(-60, 61):
        g += np.exp(-(kappa * np.pi / d) * (m * d + n) ** 2)
    g /= np.sqrt(np.sum(g * g))
    return g * g


def test_probabilities_of_discrete_gaussian():
    lattice = new_lattice(10)
    p = probabilities(upsilon_kappa(lattice, GaussianParams(0.2)))
    oracle = _oracle_gaussian_probs(10, 0.2)
    np.testing.assert_allclose(p.probs, oracle, atol=1e-14)
    assert p.prob(0) == pytest.approx(0.1381, abs=1e-3)
    assert p.probs.sum() == pytest.approx(1.0, abs=1e-12)


def test_probabilities_rejects_unnormalized_state():
    lattice = new_lattice(3)
    psi = StateVector(lattice, 2.0 * delta_state(lattice, 0).amplitudes)
    with pytest.raises(ValueError, match="defect"):
        probabilities(psi)


def test_probability_distribution_validation():
    lattice = new_lattice(1)
    with pytest.raises(ValueError, match="non-negative"):
        ProbabilityDistribution(lattice, [-0.1, 0.6, 0.5])
    with pytest.raises(ValueError, match="sum"):
        ProbabilityDistribution(lattice, [0.5, 0.4, 0.2])


def test_cauchy_schwarz_randomized():
    rng = np.random.default_rng(42)
    lattice = new_lattice(8)
    for _ in range(100):
        a = StateVector(lattice, rng.standard_normal(17) + 1j * rng.standard_normal(17))
        b = StateVector(lattice, rng.standard_normal(17) + 1j * rng.standard_normal(17))
        lhs = abs(inner_product(a, b)) ** 2
        rhs = inner_product(a, a).real * inner_product(b, b).real
        assert lhs <= rhs * (1 + 1e-12)


def test_basis_expansion_reconstructs_state():
    rng = np.random.default_rng(43)
    lattice = new_lattice(6)
    psi = StateVector(lattice, rng.standard_normal(13) + 1j * rng.standard_normal(13))
    rebuilt = np.zeros(13, dtype=complex)
    for n in range(-6, 7):
        rebuilt += psi.amplitude(n) * delta_state(lattice, n).amplitudes
    np.testing.assert_array_equal(rebuilt, psi.amplitudes)


def test_resolution_of_identity():
    rng = np.random.default_rng(44)
    lattice = new_lattice(6)
    psi = StateVector(lattice, rng.standard_normal(13) + 1j * rng.standard_normal(13))
    projected = np.zeros(13, dtype=complex)
    for n in range(-6, 7):
        dn = delta_state(lattice, n)
        projected += inner_product(dn, psi) * dn.amplitudes
    assert np.abs(projected - psi.amplitudes).max() < 1e-15
