"""Self-check suite behind ``qlimit check``.

Each check exercises one structural property of the model (transform
unitarity, operator similarity, Gaussian/theta identities, conservation
laws of the integrators) and reports the worst observed defect against a
fixed bound. The CLI prints one line per check and fails if any bound is
exceeded. This module is the one statement of each identity: the test
suite runs ``ALL_CHECKS`` as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fourier import apply_dft, apply_inverse_dft, dft_matrices, tilde_delta
from .gaussian import GaussianParams, ThetaArgs, gamma_kappa, theta3, upsilon_kappa
from .lattice import StateVector, delta_state, inner_product, new_lattice, normalize
from .operators import expectation, rate_operator, trend_operator
from .propagator import SimulationConfig, _propagate, evolve, exact_free_evolution, initial_state

KAPPA_GRID = (0.2, 0.5, 1.0, 2.0, 5.0)
Q_GRID = (1, 5, 10)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _bounded(name: str, err: float, bound: float) -> CheckResult:
    return CheckResult(name, err <= bound, f"max defect {err:.2e} (bound {bound:g})")


def _random_state(lattice, rng) -> StateVector:
    amps = rng.standard_normal(lattice.d) + 1j * rng.standard_normal(lattice.d)
    return normalize(StateVector(lattice, amps))


def check_dft_unitarity() -> CheckResult:
    err = 0.0
    for q in range(1, 11):
        mats = dft_matrices(new_lattice(q))
        eye = np.eye(mats.lattice.d)
        err = max(err, np.abs(mats.forward @ mats.adjoint - eye).max())
        err = max(err, np.abs(mats.adjoint @ mats.forward - eye).max())
    return _bounded("dft_unitarity", err, 1e-13)


def check_dft_fourth_power() -> CheckResult:
    err = 0.0
    for q in range(1, 11):
        f = dft_matrices(new_lattice(q)).forward
        err = max(err, np.abs(np.linalg.matrix_power(f, 4) - np.eye(2 * q + 1)).max())
    return _bounded("dft_fourth_power_identity", err, 1e-12)


def check_dft_parity() -> CheckResult:
    err = 0.0
    for q in (1, 3, 10):
        lattice = new_lattice(q)
        for n in range(-q, q + 1):
            twice = apply_dft(apply_dft(delta_state(lattice, n)))
            err = max(err, np.abs(twice.amplitudes - delta_state(lattice, -n).amplitudes).max())
    return _bounded("dft_parity", err, 1e-12)


def check_dual_basis_resolution() -> CheckResult:
    err = 0.0
    for q in range(1, 11):
        lattice = new_lattice(q)
        acc = np.zeros((lattice.d, lattice.d), dtype=complex)
        for n in range(-q, q + 1):
            v = tilde_delta(lattice, n).amplitudes
            acc += np.outer(v, v.conj())
        err = max(err, np.abs(acc - np.eye(lattice.d)).max())
    return _bounded("dual_basis_resolution_of_identity", err, 1e-13)


def check_dft_adjoint_relation() -> CheckResult:
    rng = np.random.default_rng(11)
    err = 0.0
    for q in Q_GRID:
        lattice = new_lattice(q)
        for _ in range(20):
            psi, phi = _random_state(lattice, rng), _random_state(lattice, rng)
            lhs = inner_product(apply_inverse_dft(phi), psi)
            rhs = inner_product(phi, apply_dft(psi))
            err = max(err, abs(lhs - rhs))
    return _bounded("dft_adjoint_relation", err, 1e-13)


def check_trend_similarity() -> CheckResult:
    err = 0.0
    for q in range(1, 11):
        lattice = new_lattice(q)
        mats = dft_matrices(lattice)
        explicit = mats.adjoint @ rate_operator(lattice).matrix @ mats.forward
        err = max(err, np.abs(trend_operator(lattice).matrix - explicit).max())
    return _bounded("trend_similarity", err, 1e-12)


def check_eigen_relations() -> CheckResult:
    err = 0.0
    for q in range(1, 11):
        lattice = new_lattice(q)
        rate = rate_operator(lattice)
        trend = trend_operator(lattice)
        for n in range(-q, q + 1):
            dn = delta_state(lattice, n)
            err = max(err, np.abs(rate.apply(dn).amplitudes - n * dn.amplitudes).max())
            tn = tilde_delta(lattice, n)
            err = max(err, np.abs(trend.apply(tn).amplitudes - n * tn.amplitudes).max())
    return _bounded("rate_trend_eigenrelations", err, 1e-12)


def check_trend_spectrum() -> CheckResult:
    err = 0.0
    for q in range(1, 11):
        lattice = new_lattice(q)
        eigs = np.linalg.eigvalsh(trend_operator(lattice).matrix)
        err = max(err, np.abs(eigs - lattice.points()).max())
    return _bounded("trend_spectrum", err, 1e-10)


def check_trend_mean_parseval() -> CheckResult:
    rng = np.random.default_rng(12)
    err = 0.0
    for q in Q_GRID:
        lattice = new_lattice(q)
        trend = trend_operator(lattice)
        n = lattice.points()
        for _ in range(20):
            psi = _random_state(lattice, rng)
            direct = expectation(trend, psi)
            dual = float(np.sum(n * np.abs(apply_dft(psi).amplitudes) ** 2))
            err = max(err, abs(direct - dual))
    return _bounded("trend_mean_parseval_form", err, 1e-11)


def check_theta_periodicity() -> CheckResult:
    rng = np.random.default_rng(13)
    err = 0.0
    for _ in range(25):
        z = complex(rng.uniform(-2, 2), rng.uniform(-0.3, 0.3))
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 2.0))
        err = max(err, abs(theta3(ThetaArgs(z + 1, tau), 1e-12) - theta3(ThetaArgs(z, tau), 1e-12)))
    return _bounded("theta_periodicity", err, 1e-10)


def check_theta_modular() -> CheckResult:
    rng = np.random.default_rng(14)
    err = 0.0
    for _ in range(25):
        z = rng.uniform(-1.5, 1.5)
        tau = rng.uniform(0.2, 3.0)
        lhs = theta3(ThetaArgs(z, 1j * tau), 1e-12)
        rhs = (
            tau ** -0.5
            * np.exp(-math.pi * z * z / tau)
            * theta3(ThetaArgs(z / (1j * tau), 1j / tau), 1e-12)
        )
        err = max(err, abs(lhs - rhs))
    return _bounded("theta_modular_identity", err, 1e-10)


def check_theta_poisson_dft() -> CheckResult:
    err = 0.0
    for q in Q_GRID:
        d = 2 * q + 1
        for kappa in KAPPA_GRID:
            dual = np.array(
                [theta3(ThetaArgs(n / d, 1j / (kappa * d)), 1e-13) for n in range(-q, q + 1)]
            )
            for k in range(-q, q + 1):
                n = np.arange(-q, q + 1)
                rhs = np.sum(np.exp(-2j * math.pi * k * n / d) * dual) / math.sqrt(kappa * d)
                lhs = theta3(ThetaArgs(k / d, 1j * kappa / d), 1e-13)
                err = max(err, abs(lhs - rhs))
    return _bounded("theta_poisson_dft_identity", err, 1e-10)


def check_gamma_theta_closed_form() -> CheckResult:
    err = 0.0
    for q in Q_GRID:
        lattice = new_lattice(q)
        d = lattice.d
        for kappa in KAPPA_GRID:
            g = gamma_kappa(lattice, GaussianParams(kappa))
            for n in range(-q, q + 1):
                via_theta = theta3(ThetaArgs(n / d, 1j / (kappa * d)), 1e-13) / math.sqrt(kappa * d)
                err = max(err, abs(g.amplitude(n) - via_theta))
    return _bounded("gamma_theta_closed_form", err, 1e-12)


def check_gaussian_dft_covariance() -> CheckResult:
    err = 0.0
    for q in Q_GRID:
        lattice = new_lattice(q)
        for kappa in KAPPA_GRID:
            lhs = apply_dft(gamma_kappa(lattice, GaussianParams(kappa)))
            rhs = gamma_kappa(lattice, GaussianParams(1.0 / kappa)).amplitudes / math.sqrt(kappa)
            err = max(err, np.abs(lhs.amplitudes - rhs).max())
    return _bounded("gaussian_dft_covariance", err, 1e-12)


def check_gaussian_self_duality() -> CheckResult:
    err = 0.0
    for q in Q_GRID:
        lattice = new_lattice(q)
        for kappa in KAPPA_GRID:
            lhs = apply_dft(upsilon_kappa(lattice, GaussianParams(kappa)))
            rhs = upsilon_kappa(lattice, GaussianParams(1.0 / kappa))
            err = max(err, np.abs(lhs.amplitudes - rhs.amplitudes).max())
    return _bounded("gaussian_self_duality", err, 1e-12)


def check_gaussian_shape() -> CheckResult:
    for q in Q_GRID:
        lattice = new_lattice(q)
        for kappa in KAPPA_GRID:
            for vec in (gamma_kappa(lattice, GaussianParams(kappa)),
                        upsilon_kappa(lattice, GaussianParams(kappa))):
                amps = vec.amplitudes
                if np.abs(amps.imag).max() != 0.0 or np.any(amps.real <= 0):
                    return CheckResult("gaussian_even_and_positive", False,
                                       f"non-positive entries at q={q}, kappa={kappa}")
                if np.abs(amps - amps[::-1]).max() > 0:
                    return CheckResult("gaussian_even_and_positive", False,
                                       f"not even at q={q}, kappa={kappa}")
    return CheckResult("gaussian_even_and_positive", True, "real, positive, even on all grids")


def check_cauchy_schwarz() -> CheckResult:
    rng = np.random.default_rng(15)
    lattice = new_lattice(10)
    margin = 0.0
    for _ in range(50):
        a = StateVector(lattice, rng.standard_normal(21) + 1j * rng.standard_normal(21))
        b = StateVector(lattice, rng.standard_normal(21) + 1j * rng.standard_normal(21))
        lhs = abs(inner_product(a, b)) ** 2
        rhs = inner_product(a, a).real * inner_product(b, b).real
        margin = max(margin, lhs - rhs * (1 + 1e-12))
    return CheckResult("cauchy_schwarz", margin <= 0.0, f"worst violation {margin:.2e}")


def check_normalize_idempotent() -> CheckResult:
    rng = np.random.default_rng(16)
    lattice = new_lattice(10)
    err = 0.0
    for _ in range(20):
        psi = StateVector(lattice, 10 * rng.standard_normal(21) + 1j * rng.standard_normal(21))
        once = normalize(psi)
        twice = normalize(once)
        err = max(err, float(np.abs(once.amplitudes - twice.amplitudes).max()))
        err = max(err, abs(once.norm() - 1.0))
    return _bounded("normalize_idempotent", err, 1e-14)


def _market_config(**overrides) -> SimulationConfig:
    base = dict(q=10, kappa=0.2, mu=1.0, beta=0.1, omega=2e-4,
                t_end=600.0, dt=1.0, snapshots=(0.0, 600.0), method="strang")
    base.update(overrides)
    return SimulationConfig(**base)


def check_free_evolution_oracle() -> CheckResult:
    err = 0.0
    for method in ("strang", "magnus2"):
        config = _market_config(beta=0.0, method=method)
        final = evolve(config).states[-1][1]
        exact = exact_free_evolution(initial_state(config), config.t_end, config.mu)
        err = max(err, float(np.abs(final.amplitudes - exact.amplitudes).max()))
    return _bounded("free_evolution_oracle", err, 1e-9)


def check_norm_conservation() -> CheckResult:
    drift = 0.0
    for method in ("strang", "magnus2"):
        drift = max(drift, evolve(_market_config(method=method)).norm_drift)
    return _bounded("norm_conservation", drift, 1e-10)


def check_free_parity_symmetry() -> CheckResult:
    config = _market_config(beta=0.0, t_end=1000.0, snapshots=(500.0, 1000.0))
    err = 0.0
    for _, psi in evolve(config).states:
        p = np.abs(psi.amplitudes) ** 2
        err = max(err, float(np.abs(p - p[::-1]).max()))
    return _bounded("free_parity_symmetry", err, 1e-10)


def check_time_reversibility() -> CheckResult:
    err = 0.0
    for method in ("strang", "magnus2"):
        config = _market_config(t_end=200.0, snapshots=(200.0,), method=method)
        start = psi = initial_state(config).amplitudes
        # 200 steps forward from t = 0, then 200 back from t = 200
        for t0, dt in ((0.0, 1.0), (200.0, -1.0)):
            psi = _propagate(config, psi, t0, dt, 200, {200})[0][200]
        err = max(err, float(np.abs(psi - start).max()))
    return _bounded("time_reversibility", err, 1e-8)


def check_cross_agreement_order() -> CheckResult:
    """Strang and magnus2 drift apart as O(dt^2) once dt resolves the
    kinetic phases; halving dt should shrink their disagreement ~4x."""
    def disagreement(dt: float) -> float:
        strang, magnus2 = (evolve(_market_config(t_end=8.0, dt=dt, snapshots=(8.0,), method=m))
                           .states[-1][1].amplitudes for m in ("strang", "magnus2"))
        return float(np.abs(np.abs(strang) ** 2 - np.abs(magnus2) ** 2).max())

    ratio = disagreement(0.02) / disagreement(0.01)
    passed = 2.8 <= ratio <= 5.5
    return CheckResult("cross_agreement_second_order", passed,
                       f"disagreement ratio dt=0.02 vs 0.01: {ratio:.2f} (want ~4)")


ALL_CHECKS: tuple[Callable[[], CheckResult], ...] = (
    check_dft_unitarity,
    check_dft_fourth_power,
    check_dft_parity,
    check_dual_basis_resolution,
    check_dft_adjoint_relation,
    check_trend_similarity,
    check_eigen_relations,
    check_trend_spectrum,
    check_trend_mean_parseval,
    check_theta_periodicity,
    check_theta_modular,
    check_theta_poisson_dft,
    check_gamma_theta_closed_form,
    check_gaussian_dft_covariance,
    check_gaussian_self_duality,
    check_gaussian_shape,
    check_cauchy_schwarz,
    check_normalize_idempotent,
    check_free_evolution_oracle,
    check_norm_conservation,
    check_free_parity_symmetry,
    check_time_reversibility,
    check_cross_agreement_order,
)


def run_all_checks() -> list[CheckResult]:
    return [check() for check in ALL_CHECKS]
