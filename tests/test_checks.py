"""The invariant registry: every model identity is stated once, in
``qlimit.checks``, and runs here as well as under ``qlimit check``."""

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

