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
import random
import time
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .fourier import apply_dft, dft_matrices
from .gaussian import GaussianParams, ThetaArgs, gamma_kappa, theta3, upsilon_kappa
from .lattice import StateVector, inner_product, new_lattice, normalize
from .operators import rate_operator, trend_operator
from .propagator import SimulationConfig, _propagate, evolve, exact_free_evolution, initial_state

KAPPA_GRID = (0.2, 0.5, 1.0, 2.0, 5.0)
Q_GRID = (1, 5, 10)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float | None = None  # wall time of the check, as run_all_checks measures it


def _bounded(name: str, err: float, bound: float) -> CheckResult:
    return CheckResult(name, err <= bound, f"max defect {err:.2e} (bound {bound:g})")


def _uniform(rng: random.Random, shape: tuple[int, ...], lo=-1.0, hi=1.0) -> np.ndarray:
    """Draws uniform on [lo, hi) (broadcast against shape) from one call to rng.

    The standard library's generator: numpy.random would cost each process
    that imports it about 5 MB of resident memory and 10 ms.
    """
    bits = np.frombuffer(rng.randbytes(8 * math.prod(shape)), np.uint64) >> np.uint64(11)
    return lo + np.subtract(hi, lo) * (bits.reshape(shape) * 2.0**-53)


def _random_states(rng: random.Random, d: int, count: int) -> np.ndarray:
    """count blocks of 20 normalized random states, shape (count, 20, d); row i
    of each block is drawn before row i + 1 of any, real parts before imaginary."""
    draws = _uniform(rng, (20, count, 2, d))
    states = draws[..., 0, :] + 1j * draws[..., 1, :]
    states /= np.linalg.norm(states, axis=-1, keepdims=True)
    return states.swapaxes(0, 1)


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
        f = dft_matrices(new_lattice(q)).forward
        err = max(err, np.abs(f @ f - np.eye(2 * q + 1)[::-1]).max())
    return _bounded("dft_parity", err, 1e-12)


def check_dual_basis_resolution() -> CheckResult:
    """The dual basis states tilde_delta(n) are the columns of F+."""
    err = 0.0
    for q in range(1, 11):
        v = dft_matrices(new_lattice(q)).adjoint
        err = max(err, np.abs(v @ v.conj().T - np.eye(2 * q + 1)).max())
    return _bounded("dual_basis_resolution_of_identity", err, 1e-13)


def check_dft_adjoint_relation() -> CheckResult:
    rng = random.Random(11)
    err = 0.0
    for q in Q_GRID:
        mats = dft_matrices(new_lattice(q))
        psi, phi = _random_states(rng, 2 * q + 1, 2)
        lhs = np.einsum("ij,ij->i", (phi @ mats.adjoint.T).conj(), psi)
        rhs = np.einsum("ij,ij->i", phi.conj(), psi @ mats.forward.T)
        err = max(err, np.abs(lhs - rhs).max())
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
    """R delta_n = n delta_n and T tilde_delta(n) = n tilde_delta(n), for
    every n at once: R is diag(n), and T F+ scales column n of F+ by n."""
    err = 0.0
    for q in range(1, 11):
        lattice = new_lattice(q)
        n = lattice.points()
        v = dft_matrices(lattice).adjoint
        err = max(err, np.abs(rate_operator(lattice).matrix - np.diag(n)).max())
        err = max(err, np.abs(trend_operator(lattice).matrix @ v - v * n).max())
    return _bounded("rate_trend_eigenrelations", err, 1e-12)


def check_trend_spectrum() -> CheckResult:
    err = 0.0
    for q in range(1, 11):
        lattice = new_lattice(q)
        eigs = np.linalg.eigvalsh(trend_operator(lattice).matrix)
        err = max(err, np.abs(eigs - lattice.points()).max())
    return _bounded("trend_spectrum", err, 1e-10)


def check_trend_mean_parseval() -> CheckResult:
    rng = random.Random(12)
    err = 0.0
    for q in Q_GRID:
        lattice = new_lattice(q)
        (psi,) = _random_states(rng, lattice.d, 1)
        direct = np.einsum("ij,ij->i", psi.conj(), psi @ trend_operator(lattice).matrix.T).real
        dual = np.abs(psi @ dft_matrices(lattice).forward.T) ** 2 @ lattice.points()
        err = max(err, np.abs(direct - dual).max())
    return _bounded("trend_mean_parseval_form", err, 1e-11)


def check_theta_periodicity() -> CheckResult:
    parts = _uniform(random.Random(13), (4, 25), [[-2], [-0.3], [-0.5], [0.05]],
                     [[2], [0.3], [0.5], [2.0]])
    z, tau = parts[::2] + 1j * parts[1::2]
    shifted, plain = theta3(ThetaArgs(np.stack([z + 1, z]), tau), 1e-12)
    return _bounded("theta_periodicity", np.abs(shifted - plain).max(), 1e-10)


def check_theta_modular() -> CheckResult:
    z, tau = _uniform(random.Random(14), (2, 25), [[-1.5], [0.2]], [[1.5], [3.0]])
    lhs, dual = theta3(ThetaArgs(np.stack([z, z / (1j * tau)]), np.stack([1j * tau, 1j / tau])),
                       1e-12)
    rhs = tau ** -0.5 * np.exp(-math.pi * z * z / tau) * dual
    return _bounded("theta_modular_identity", np.abs(lhs - rhs).max(), 1e-10)


def _theta_rows(tau: Callable[[float, int], complex], tol: float) -> dict:
    """theta3(n / d, tau(kappa, d)), n = -q .. q, for each (q, kappa) of the grids, by one call."""
    keys = [(q, kappa) for q in Q_GRID for kappa in KAPPA_GRID]
    sizes = [2 * q + 1 for q, _ in keys]
    z = np.concatenate([np.arange(-q, q + 1) / d for (q, _), d in zip(keys, sizes)])
    taus = np.concatenate([np.full(d, tau(kappa, d)) for (_, kappa), d in zip(keys, sizes)])
    return dict(zip(keys, np.split(theta3(ThetaArgs(z, taus), tol), np.cumsum(sizes)[:-1])))


def check_theta_poisson_dft() -> CheckResult:
    err = 0.0
    direct = _theta_rows(lambda kappa, d: 1j * kappa / d, 1e-13)
    for (q, kappa), dual in _theta_rows(lambda kappa, d: 1j / (kappa * d), 1e-13).items():
        d = 2 * q + 1
        n = np.arange(-q, q + 1)
        rhs = np.exp(-2j * math.pi * np.outer(n, n) / d) @ dual / math.sqrt(kappa * d)
        err = max(err, np.abs(direct[q, kappa] - rhs).max())
    return _bounded("theta_poisson_dft_identity", err, 1e-10)


def check_gamma_theta_closed_form() -> CheckResult:
    err = 0.0
    for (q, kappa), row in _theta_rows(lambda kappa, d: 1j / (kappa * d), 1e-13).items():
        lattice = new_lattice(q)
        via_theta = row / math.sqrt(kappa * lattice.d)
        g = gamma_kappa(lattice, GaussianParams(kappa))
        err = max(err, np.abs(g.amplitudes - via_theta).max())
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
    lattice = new_lattice(10)
    margin = 0.0
    for draws in _uniform(random.Random(15), (50, 2, 2, 21)):
        a, b = (StateVector(lattice, re + 1j * im) for re, im in draws)
        lhs = abs(inner_product(a, b)) ** 2
        rhs = inner_product(a, a).real * inner_product(b, b).real
        margin = max(margin, lhs - rhs * (1 + 1e-12))
    return CheckResult("cauchy_schwarz", margin <= 0.0, f"worst violation {margin:.2e}")


def check_normalize_idempotent() -> CheckResult:
    lattice = new_lattice(10)
    err = 0.0
    for re, im in _uniform(random.Random(16), (20, 2, 21)):
        psi = StateVector(lattice, 10 * re + 1j * im)
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
    results = []
    for check in ALL_CHECKS:
        begun = time.perf_counter()
        result = check()
        results.append(replace(result, seconds=time.perf_counter() - begun))
    return results
