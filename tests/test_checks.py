"""The invariant registry: every model identity is stated once, in
``qlimit.checks``, and runs here as well as under ``qlimit check``."""

from dataclasses import replace

import pytest

from qlimit import checks
from qlimit.checks import ALL_CHECKS

from conftest import assert_passes


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda fn: fn.__name__)
def test_check_passes(check):
    assert_passes(check())


def test_registry_holds_every_check():
    defined = {name for name in vars(checks) if name.startswith("check_")}
    assert defined == {fn.__name__ for fn in ALL_CHECKS}



# Which one-entry fault of the transform each batched check catches: F F and
# the Parseval form read F alone; V V+ and T V = V diag(n) read F+ alone; the
# adjoint relation reads both.
CAUGHT_BY_FAULT_IN = {
    "forward": (checks.check_dft_parity, checks.check_dft_adjoint_relation,
                checks.check_trend_mean_parseval),
    "adjoint": (checks.check_dual_basis_resolution, checks.check_dft_adjoint_relation,
                checks.check_eigen_relations),
}


@pytest.mark.parametrize("part", CAUGHT_BY_FAULT_IN)
def test_batched_checks_catch_a_fault_in_one_transform_entry(monkeypatch, part):
    exact = checks.dft_matrices

    def faulty(lattice):
        mats = exact(lattice)
        matrix = getattr(mats, part).copy()
        matrix[0, 0] += 1e-9  # above every bound, at n = -q, where the rate weight is not 0
        return replace(mats, **{part: matrix})

    monkeypatch.setattr(checks, "dft_matrices", faulty)
    for check in CAUGHT_BY_FAULT_IN[part]:
        result = check()
        assert not result.passed, f"{check.__name__}: {result.detail}"
