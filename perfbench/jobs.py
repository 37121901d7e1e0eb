"""Benchmark jobs: the CLI argv each workload sends, and a check of every output.

A job is one ``qlimit`` command, run in-process through ``qlimit.cli.main``.
Workloads are streams of jobs; the ``sweep`` stream is generated from a
seed, so the library only ever sees the generated argv and config files.
Every output is checked against the bounds the repository already enforces
and, where one exists, against an independent oracle.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

import env

from qlimit.checks import ALL_CHECKS
from qlimit.propagator import SimulationConfig, exact_free_evolution, initial_state

#: Working directory for job outputs and trace files, inside the checkout.
SCRATCH = env.ROOT / ".perfbench_out"
REFERENCE_PATH = env.ROOT / "perfbench" / "data" / "fig2_reference.json"

#: Bounds the repository's tests and ``qlimit check`` already enforce.
NORM_DRIFT_BOUND = 1e-10
PROB_SUM_TOL = 1e-10
FREE_ORACLE_TOL = 1e-9
PROB_CONSISTENCY_TOL = 1e-12
HERMITICITY_TOL = 1e-12

#: Accuracy gate on the fig2 day: max |P - P_ref| over snapshots and lattice
#: points may not exceed the value measured when the benchmark was defined
#: (0.20314 strang, 4.4620e-5 magnus2) by more than 1%.
PROB_ERR_LIMIT = {"strang": 0.20517, "magnus2": 4.5066e-5}

#: Daily price limits in whole percent that real exchanges have used:
#: 5% (Chinese ST shares), 7% (Taiwan before 2015), 10% (Chinese main
#: boards), 15% (Korea before 2015), 20% (ChiNext/STAR), 30% (Korea, Thailand).
PRICE_LIMITS = (5, 7, 10, 15, 20, 30)
OPERATOR_NAMES = ("rate", "trend", "price", "kinetic", "hamiltonian")
SWEEP_T_END = 60.0


class OutputError(Exception):
    """A job's output failed a check."""


@dataclass(frozen=True)
class Job:
    kind: str                      # evolve | gaussian | operators | check
    argv: tuple[str, ...]          # CLI arguments before the config/output paths
    params: dict = field(default_factory=dict)  # what the output check needs
    config: dict | None = None     # evolve config, written to run.json
    steps: int | None = None       # integration steps, when the inputs fix them


def day_job(method: str) -> Job:
    """One trading day: the fig2 preset at dt = 1, checked against the reference."""
    return Job("evolve", ("evolve", "--preset", "fig2", "--method", method),
               params={"method": method, "reference": True})


CHECK_JOB = Job("check", ("check",))


def sweep_jobs(seed: int) -> Iterator[Job]:
    """Endless seeded mix of short jobs.

    Each block holds, for every price limit, one strang and one magnus2
    evolve, one Gaussian table and one operator dump, in seeded order with
    seeded parameters. Fixing the block's make-up keeps the work per job
    close across seeds; a quarter of the evolves run with beta = 0 and are
    checked against the exact free propagator.
    """
    rng = random.Random(seed)
    while True:
        block = []
        for q in PRICE_LIMITS:
            block.append(_sweep_evolve(rng, q, "strang"))
            block.append(_sweep_evolve(rng, q, "magnus2"))
            block.append(_sweep_gaussian(rng, q))
            block.append(_sweep_operator(rng, q))
        rng.shuffle(block)
        yield from block


def _sweep_evolve(rng: random.Random, q: int, method: str) -> Job:
    config = {
        "q": q,
        "kappa": round(rng.uniform(0.2, 2.0), 3),
        "mu": rng.choice((0.5, 1.0, 2.0)),
        "beta": rng.choice((0.0, 0.05, 0.1, 0.2)),
        "omega": rng.choice((1e-4, 2e-4, 5e-4)),
        "t_end": SWEEP_T_END,
        "dt": 1.0,
        "method": method,
        "snapshots": [0.0, SWEEP_T_END / 2, SWEEP_T_END],
    }
    return Job("evolve", ("evolve",), params={"method": method}, config=config,
               steps=round(SWEEP_T_END))


def _sweep_gaussian(rng: random.Random, q: int) -> Job:
    kappa = round(rng.uniform(0.2, 5.0), 3)
    return Job("gaussian", ("gaussian", "--q", str(q), "--kappa", repr(kappa)),
               params={"q": q, "kappa": kappa})


def _sweep_operator(rng: random.Random, q: int) -> Job:
    p = {
        "q": q,
        "which": rng.choice(OPERATOR_NAMES),
        "p0": rng.choice((50.0, 100.0, 250.0)),
        "scale": rng.choice((1.0, 0.01)),
        "mu": rng.choice((0.5, 1.0, 2.0)),
        "beta": rng.choice((0.0, 0.1, 0.2)),
        "omega": rng.choice((1e-4, 2e-4, 5e-4)),
        "t": float(rng.randrange(0, 28801, 60)),
    }
    argv = ["operators", "--q", str(q), "--which", p["which"]]
    for key in ("p0", "scale", "mu", "beta", "omega", "t"):
        argv += [f"--{key}", repr(p[key])]
    return Job("operators", tuple(argv), params=p)


def command(job: Job, workdir: Path) -> list[str]:
    """Full argv for a job whose files live in workdir."""
    argv = list(job.argv)
    if job.config is not None:
        path = workdir / "run.json"
        path.write_text(json.dumps(job.config))
        argv += ["--config", str(path)]
    if job.kind == "evolve":
        argv += ["--out", str(workdir / "out")]
    elif job.kind in ("gaussian", "operators"):
        argv += ["--out", str(workdir / f"{job.kind}.csv")]
    return argv


# ---------------------------------------------------------------------------
# output checks

def load_reference(path: Path = REFERENCE_PATH) -> dict[float, np.ndarray]:
    record = json.loads(path.read_text())
    return {float(t): np.array(p) for t, p in record["prob"].items()}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise OutputError(message)


def _read_csv(path: Path, header: list[str] | None = None) -> tuple[list[str], np.ndarray]:
    _require(path.is_file(), f"missing output {path.name}")
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    _require(len(rows) >= 2, f"{path.name}: no data rows")
    if header is not None:
        _require(rows[0] == header, f"{path.name}: header {rows[0]} != {header}")
    try:
        data = np.array([[float(x) for x in row] for row in rows[1:]])
    except ValueError as exc:
        raise OutputError(f"{path.name}: unparsable value ({exc})") from None
    _require(data.ndim == 2 and data.shape[1] == len(rows[0]), f"{path.name}: ragged rows")
    _require(bool(np.all(np.isfinite(data))), f"{path.name}: non-finite value")
    return rows[0], data


def _require_lattice(name: str, column: np.ndarray, q: int) -> None:
    _require(column.shape == (2 * q + 1,) and np.array_equal(column, np.arange(-q, q + 1)),
             f"{name}: lattice column is not -{q}..{q}")


def _dual_probs(amps: np.ndarray) -> np.ndarray:
    """|F psi|^2 under the centered DFT, computed independently of the library."""
    d = amps.size
    n = np.arange(d) - d // 2
    f = np.exp(-2j * math.pi * np.outer(n, n) / d) / math.sqrt(d)
    return np.abs(f @ amps) ** 2


def read_snapshots(outdir: Path, config: dict) -> dict[float, dict[str, np.ndarray]]:
    """Parse and check every snapshot CSV of an evolve run."""
    q = config["q"]
    out = {}
    for t in config["snapshots"]:
        name = f"snapshot_t{t:g}.csv"
        _, data = _read_csv(outdir / name, ["t", "n", "re", "im", "prob"])
        _require(bool(np.all(data[:, 0] == t)), f"{name}: t column != {t}")
        _require_lattice(name, data[:, 1], q)
        amp = data[:, 2] + 1j * data[:, 3]
        prob = data[:, 4]
        _require(bool(np.all(np.abs(np.abs(amp) ** 2 - prob) <= PROB_CONSISTENCY_TOL)),
                 f"{name}: prob column disagrees with |re + i im|^2")
        _require(abs(prob.sum() - 1.0) <= PROB_SUM_TOL,
                 f"{name}: probabilities sum to {prob.sum()!r}")
        out[float(t)] = {"n": data[:, 1], "amp": amp, "prob": prob}
    return out


def check_evolve(job: Job, outdir: Path, reference: dict[float, np.ndarray]) -> dict:
    manifest_path = outdir / "manifest.json"
    _require(manifest_path.is_file(), "missing manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise OutputError(f"manifest.json: {exc}") from None
    config = manifest["config"]
    if job.config is not None:
        _require(config == job.config, f"manifest config {config} != submitted {job.config}")
    drift = manifest["norm_drift"]
    _require(drift <= NORM_DRIFT_BOUND, f"norm_drift {drift!r} > {NORM_DRIFT_BOUND}")
    for name in manifest["outputs"]:
        _require((outdir / name).is_file(), f"manifest lists missing file {name}")

    snaps = read_snapshots(outdir, config)
    _, obs = _read_csv(outdir / "observables.csv", ["t", "mean_R", "mean_T", "norm"])
    _require(obs.shape[0] == len(snaps), "observables.csv: one row per snapshot expected")
    for row, (t, snap) in zip(obs, snaps.items()):
        n = snap["n"]
        _require(row[0] == t, f"observables.csv: t {row[0]} != {t}")
        _require(abs(row[3] - 1.0) <= NORM_DRIFT_BOUND, f"observables.csv: norm {row[3]!r} at t={t}")
        _require(abs(row[1] - n @ snap["prob"]) <= 1e-9, f"observables.csv: mean_R at t={t}")
        _require(abs(row[2] - n @ _dual_probs(snap["amp"])) <= 1e-9,
                 f"observables.csv: mean_T at t={t}")

    info = {"norm_drift": drift}
    if job.params.get("reference"):
        _require(set(snaps) == set(reference), "snapshot times differ from the reference")
        err = max(float(np.abs(snaps[t]["prob"] - p).max()) for t, p in reference.items())
        limit = PROB_ERR_LIMIT[job.params["method"]]
        _require(err <= limit, f"prob_err_max {err:.6g} > limit {limit:g}")
        info["prob_err"] = err
    if config["beta"] == 0.0:
        sim = SimulationConfig(**{**config, "snapshots": tuple(config["snapshots"])})
        psi0 = initial_state(sim)
        for t, snap in snaps.items():
            exact = exact_free_evolution(psi0, t, sim.mu).amplitudes
            err = float(np.abs(snap["amp"] - exact).max())
            _require(err <= FREE_ORACLE_TOL, f"beta=0 run differs from the exact propagator "
                                             f"by {err:.3g} at t={t}")
    return info


def _wrapped_gaussian(q: int, kappa: float) -> np.ndarray:
    """gamma_kappa(n) = sum_m exp(-(kappa pi / d)(m d + n)^2), summed directly."""
    d = 2 * q + 1
    n = np.arange(-q, q + 1, dtype=float)
    m = np.arange(-8, 9, dtype=float)[:, None]
    return np.exp(-(kappa * math.pi / d) * (m * d + n) ** 2).sum(axis=0)


def check_gaussian(job: Job, path: Path) -> dict:
    q, kappa = job.params["q"], job.params["kappa"]
    _, data = _read_csv(path, ["n", "gamma", "upsilon", "prob"])
    _require_lattice(path.name, data[:, 0], q)
    gamma, ups, prob = data[:, 1], data[:, 2], data[:, 3]
    expected = _wrapped_gaussian(q, kappa)
    _require(bool(np.all(np.abs(gamma - expected) <= 1e-12 * expected)),
             "gamma differs from the wrapped-Gaussian sum")
    _require(bool(np.all(np.abs(ups - gamma / np.linalg.norm(gamma)) <= 1e-12 * ups)),
             "upsilon is not gamma / ||gamma||")
    _require(bool(np.all(np.abs(prob - ups ** 2) <= 1e-12 * prob)), "prob is not upsilon^2")
    _require(abs(prob.sum() - 1.0) <= 1e-12, f"probabilities sum to {prob.sum()!r}")
    return {}


def check_operator(job: Job, path: Path) -> dict:
    p = job.params
    q, d = p["q"], 2 * p["q"] + 1
    n = np.arange(-q, q + 1, dtype=float)
    header, data = _read_csv(path)
    expected_header = ["k"] + [f"{part}[{k}]" for k in range(-q, q + 1) for part in ("re", "im")]
    _require(header == expected_header, f"{path.name}: unexpected header")
    _require(data.shape == (d, 2 * d + 1), f"{path.name}: shape {data.shape}")
    _require_lattice(path.name, data[:, 0], q)
    m = data[:, 1::2] + 1j * data[:, 2::2]
    defect = float(np.abs(m - m.conj().T).max())
    _require(defect <= HERMITICITY_TOL, f"operator not Hermitian (defect {defect:.3g})")

    which = p["which"]
    if which in ("rate", "price"):
        diag = n if which == "rate" else p["p0"] + p["p0"] * p["scale"] * n
        _require(np.allclose(m, np.diag(diag), rtol=0, atol=1e-12 * max(1.0, p["p0"])),
                 f"{which} operator is not diag({which} values)")
        return {}
    if which == "trend":
        target = n
    else:  # kinetic or hamiltonian: remove the potential, compare the kinetic spectrum
        if which == "hamiltonian":
            m = m - np.diag(p["beta"] * math.cos(p["omega"] * p["t"]) * n)
        target = np.sort(n * n / (2.0 * p["mu"]))
    eigs = np.linalg.eigvalsh(m)
    err = float(np.abs(eigs - target).max())
    _require(err <= 1e-9 * max(1.0, float(np.abs(target).max())),
             f"{which} spectrum off by {err:.3g}")
    return {}


def check_check(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    passed = sum(line.startswith("[PASS]") for line in lines)
    failed = [line for line in lines if line.startswith("[FAIL]")]
    _require(not failed, f"failed checks: {failed}")
    _require(passed == len(ALL_CHECKS), f"{passed} checks passed, {len(ALL_CHECKS)} registered")
    _require(bool(lines) and lines[-1] == f"all {len(ALL_CHECKS)} checks passed",
             "missing summary line")
    return {}


def check_output(job: Job, workdir: Path, stdout: str, reference) -> dict:
    """Check one job's outputs; raises OutputError, returns measured accuracy."""
    if job.kind == "evolve":
        return check_evolve(job, workdir / "out", reference)
    if job.kind == "gaussian":
        return check_gaussian(job, workdir / "gaussian.csv")
    if job.kind == "operators":
        return check_operator(job, workdir / "operators.csv")
    return check_check(stdout)
