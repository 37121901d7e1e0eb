"""Acceptance gate: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them as they execute).

Criteria 1 and 2 pin the static bar-chart values the fig1/fig2 presets
reproduce; criterion 3 checks the early-time dynamics against the
published bar charts, falling back (when the converged run itself
disagrees with those charts) to requiring the deviation to be reported in
the run manifest; 4 is a qualitative late-time property of the converged
run; 5 checks both integrators against the closed-form free propagator;
6 and 7 run the structure and theta-identity checks of ``qlimit check``
(each check's bound is the criterion's or tighter); 8 is the
second-order convergence-ratio gate.
"""

import time

import numpy as np

from qlimit import SimulationConfig, checks, evolve, exact_free_evolution, initial_state
from qlimit.cli import cmd_evolve, cmd_gaussian

from conftest import FIG2_KWARGS

FIG1_TARGETS = {0.2: 0.3716, 1.0: 0.5555, 2.0: 0.6606}
FIG2_PEAK_TARGETS = {1800.0: (-2, 6.13188 / 44.8), 3600.0: (-5, 6.21882 / 44.8)}


def _finish(num: int, name: str, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {verdict} [{detail}]")
    assert passed, f"criterion {num} ({name}): {detail}"


def test_criterion_1_gaussian_center_values(tmp_path):
    start = time.perf_counter()
    values = {}
    for kappa in FIG1_TARGETS:
        path = cmd_gaussian(10, kappa, tmp_path / f"g{kappa}.csv")
        rows = [line.split(",") for line in path.read_text().splitlines()[1:]]
        values[kappa] = {int(r[0]): float(r[2]) for r in rows}[0]
    elapsed = time.perf_counter() - start
    worst = max(abs(values[k] - FIG1_TARGETS[k]) for k in FIG1_TARGETS)
    passed = worst <= 0.002 and elapsed < 0.1
    _finish(1, "gaussian center values", passed,
            f"worst |upsilon(0) - target| = {worst:.2e} (tol 0.002), {elapsed * 1e3:.0f} ms")


def test_criterion_2_initial_panel(fig2_config):
    start = time.perf_counter()
    p = np.abs(initial_state(fig2_config).amplitudes) ** 2
    elapsed = time.perf_counter() - start
    lattice = fig2_config.lattice
    errs = [
        abs(p[lattice.index(0)] - 0.1383),
        abs(p[lattice.index(1)] - 0.1302),
        abs(p[lattice.index(-1)] - 0.1302),
    ]
    passed = max(errs) <= 0.002 and elapsed < 0.1
    _finish(2, "opening-time probabilities", passed,
            f"worst deviation {max(errs):.2e} (tol 0.002), {elapsed * 1e3:.0f} ms")


def _peaks_hit(states: dict[float, np.ndarray], lattice) -> tuple[bool, str]:
    points = lattice.points()
    notes = []
    hit = True
    for t, (n_target, value_target) in FIG2_PEAK_TARGETS.items():
        p = np.abs(states[t]) ** 2
        k = int(np.argmax(p))
        ok = int(points[k]) == n_target and abs(float(p[k]) - value_target) <= 0.02
        hit = hit and ok
        notes.append(f"t={t:g}: peak n={points[k]} value={p[k]:.4f} "
                     f"(target n={n_target} value={value_target:.4f})")
    return hit, "; ".join(notes)


def test_criterion_3_early_time_dynamics(fig2_config, fig2_reference, tmp_path):
    start = time.perf_counter()
    manifest = cmd_evolve(fig2_config, tmp_path, figure_targets=True)
    elapsed = time.perf_counter() - start

    ref_traj, _ = fig2_reference
    run = evolve(fig2_config)
    run_states = {t: psi.amplitudes for t, psi in run.states}
    ref_states = {t: psi.amplitudes for t, psi in ref_traj.states}
    lattice = fig2_config.lattice

    run_hit, run_notes = _peaks_hit(run_states, lattice)
    ref_hit, ref_notes = _peaks_hit(ref_states, lattice)

    if run_hit:
        passed = elapsed < 5.0
        detail = f"dt=1 run meets bar-chart targets ({run_notes}); {elapsed:.2f} s"
    else:
        # The converged run is authoritative: if it also misses the
        # bar-chart targets, the model (not the integrator) disagrees
        # with the published chart and the manifest must say so.
        peak_entries = [e for e in manifest["figure_check"] if "target_peak_n" in e]
        reported = len(peak_entries) == 2 and all(
            not e["within_tolerance"] for e in peak_entries
        )
        passed = (not ref_hit) and reported and elapsed < 5.0
        detail = (
            f"dt=1 run misses bar-chart targets ({run_notes}); converged run also "
            f"deviates ({ref_notes}); deviation reported in manifest: {reported}; "
            f"{elapsed:.2f} s"
        )
    _finish(3, "early-time dynamics vs published chart", passed, detail)


def _interior_maxima_with_prominence(p: np.ndarray) -> list[tuple[int, float]]:
    d = len(p)
    out = []
    for i in range(1, d - 1):
        if p[i] > p[i - 1] and p[i] > p[i + 1]:
            def climb(rng):
                lowest = p[i]
                for j in rng:
                    lowest = min(lowest, p[j])
                    if p[j] > p[i]:
                        break
                return p[i] - lowest
            prominence = min(climb(range(i - 1, -1, -1)), climb(range(i + 1, d)))
            out.append((i, float(prominence)))
    return out


def test_criterion_4_late_time_multipeak(fig2_reference):
    ref_traj, _ = fig2_reference
    final = dict((t, psi) for t, psi in ref_traj.states)[28800.0]
    p = np.abs(final.amplitudes) ** 2
    prominent = [x for x in _interior_maxima_with_prominence(p) if x[1] >= 0.02]
    passed = len(prominent) >= 2
    pts = ref_traj.config.lattice.points()
    desc = ", ".join(f"n={pts[i]} (prominence {pr:.3f})" for i, pr in prominent)
    _finish(4, "late-time distribution is multi-peaked", passed,
            f"{len(prominent)} interior maxima with prominence >= 0.02: {desc}")


def test_criterion_5_free_oracle_equivalence(fig2_config):
    start = time.perf_counter()
    errs = {}
    for method in ("strang", "magnus2"):
        config = SimulationConfig(**{**FIG2_KWARGS, "beta": 0.0, "method": method})
        final = dict(evolve(config).states)[28800.0]
        exact = exact_free_evolution(initial_state(config), 28800.0, config.mu)
        errs[method] = float(np.abs(final.amplitudes - exact.amplitudes).max())
    elapsed = time.perf_counter() - start
    worst = max(errs.values())
    passed = worst <= 1e-9 and elapsed < 5.0
    _finish(5, "free-evolution oracle equivalence", passed,
            f"max amplitude error strang={errs['strang']:.2e}, "
            f"magnus2={errs['magnus2']:.2e} (bound 1e-9), {elapsed:.2f} s")


def _check_suite(num: int, name: str, suite) -> None:
    start = time.perf_counter()
    results = [check() for check in suite]
    elapsed = time.perf_counter() - start
    failed = [f"{r.name}: {r.detail}" for r in results if not r.passed]
    detail = "; ".join(failed) or f"all {len(results)} checks pass"
    _finish(num, name, not failed and elapsed < 1.0, f"{detail}, {elapsed * 1e3:.0f} ms")


def test_criterion_6_structure_suite():
    _check_suite(6, "transform and operator structure", (
        checks.check_dft_unitarity,
        checks.check_dft_fourth_power,
        checks.check_trend_similarity,
        checks.check_eigen_relations,
        checks.check_dual_basis_resolution,
    ))


def test_criterion_7_theta_identity_suite():
    _check_suite(7, "theta and Gaussian identity suite", (
        checks.check_theta_periodicity,
        checks.check_theta_modular,
        checks.check_theta_poisson_dft,
        checks.check_gamma_theta_closed_form,
        checks.check_gaussian_dft_covariance,
        checks.check_gaussian_self_duality,
    ))


def test_criterion_8_second_order_convergence(fig2_reference):
    ref_traj, ref_elapsed = fig2_reference
    ref_probs = {t: np.abs(psi.amplitudes) ** 2 for t, psi in ref_traj.states}

    def max_deviation(method: str, dt: float) -> float:
        config = SimulationConfig(**{**FIG2_KWARGS, "method": method, "dt": dt})
        return max(
            float(np.abs(np.abs(psi.amplitudes) ** 2 - ref_probs[t]).max())
            for t, psi in evolve(config).states
        )

    start = time.perf_counter()
    ratios = {}
    deviations = {}
    for method in ("strang", "magnus2"):
        dev_full = max_deviation(method, 1.0)
        dev_half = max_deviation(method, 0.5)
        deviations[method] = (dev_full, dev_half)
        ratios[method] = dev_full / dev_half
    elapsed = time.perf_counter() - start

    in_band = all(3.2 <= r <= 4.8 for r in ratios.values())
    within_time = ref_elapsed + elapsed < 30.0
    detail = (
        f"deviation ratios dt=1 vs dt=0.5: strang {ratios['strang']:.2f} "
        f"(dev {deviations['strang'][0]:.2e} -> {deviations['strang'][1]:.2e}), "
        f"magnus2 {ratios['magnus2']:.2f} "
        f"(dev {deviations['magnus2'][0]:.2e} -> {deviations['magnus2'][1]:.2e}); "
        f"required band [3.2, 4.8]; runtime {ref_elapsed + elapsed:.1f} s"
    )
    _finish(8, "second-order convergence ratio", in_band and within_time, detail)
