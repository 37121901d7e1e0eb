import contextlib
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import qlimit
from qlimit import SimulationConfig, Trajectory, cli, evolve

# the day `evolve --preset fig2` runs, so the tests and the CLI cannot drift apart
FIG2_KWARGS = {**cli.FIG2_PRESET, "dt": 1.0}


@pytest.fixture(scope="session")
def fig2_config() -> SimulationConfig:
    return SimulationConfig(**FIG2_KWARGS)


@pytest.fixture(scope="session")
def fig2_reference(fig2_config) -> tuple[Trajectory, float]:
    """Converged run of the standard market day (magnus2 at dt/8) and its wall time."""
    t0 = time.perf_counter()
    traj = evolve(SimulationConfig(**{**FIG2_KWARGS, "method": "reference"}))
    return traj, time.perf_counter() - t0


def fresh_python(*args: str, env: dict | None = None, **kwargs) -> subprocess.CompletedProcess:
    """python with args in a fresh interpreter that imports qlimit from this source tree."""
    src = str(Path(qlimit.__file__).parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path, **(env or {})}
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=60, **kwargs)


def assert_passes(result) -> None:
    """Fail a test with the detail line of the check result it got.

    The tests that call it keep ids older than the check registry
    (tests/test_checks.py). Each runs its check over the check's whole
    grid, which holds the inputs the id names, so a parametrized id's
    parameter labels the id and selects nothing.
    """
    assert result.passed, result.detail


@pytest.fixture
def time_limit():
    """Context manager factory that fails a block running longer than `seconds`."""

    @contextlib.contextmanager
    def limit(seconds: float):
        def expire(signum, frame):
            # pytest.fail raises a BaseException, which no handler in the code under test catches
            pytest.fail(f"did not finish within {seconds} s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    return limit


@pytest.fixture
def eigh_matrices(monkeypatch):
    """The matrices each numpy.linalg.eigh call takes from here on, one count per call.

    A batched call on an (..., n, n) stack counts its leading sizes' product,
    as perfbench's tracer counts propagator.eigh_matrices.
    """
    counts = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        counts.append(math.prod(np.shape(a)[:-2]))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return counts
