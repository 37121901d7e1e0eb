"""Command-line surface: ``qlimit gaussian | evolve | operators | check``.

Configs are flat JSON objects with the exact keys q, kappa, mu, beta,
omega, t_end, dt, method, snapshots. Outputs are plain CSV plus a JSON
run manifest; no plotting dependencies. Every CSV goes through one
writer, _write_csv, which streams rows of Python numbers, each as its
shortest round-trip repr, so CSV bytes are deterministic for a fixed
config on one platform and every value reads back exactly.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 I/O error. A command that exits 4 leaves none of its files behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, asdict, fields
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import __version__
from .errors import ConfigError, NumericalError
from .gaussian import GaussianParams, gamma_kappa, upsilon_kappa
from .lattice import new_lattice
from .operators import (
    hamiltonian_at,
    kinetic_operator,
    price_operator,
    rate_operator,
    trend_operator,
)
from .propagator import METHODS, SimulationConfig, _finite, checked_q, evolve, observables_series

CONFIG_KEYS = tuple(f.name for f in fields(SimulationConfig))
REQUIRED_KEYS = tuple(f.name for f in fields(SimulationConfig) if f.default is MISSING)

FIG1_PRESET = {"q": 10, "kappas": (0.2, 1.0, 2.0)}

FIG2_PRESET = {
    "q": 10,
    "kappa": 0.2,
    "mu": 1.0,
    "beta": 0.1,
    "omega": 0.0002,
    "t_end": 28800.0,
    "snapshots": (0.0, 1800.0, 3600.0, 7200.0, 14400.0, 28800.0),
}

# Published bar-chart values the fig2 preset is meant to reproduce,
# digitized from picture coordinates (axis scale: 11.2 units = 0.25).
# Evolve runs of the preset compare against these and record the result
# in the manifest.
FIG2_TARGETS = {
    "initial": [  # (n, value); tolerance 0.002
        (0, 6.19376 / 44.8),
        (1, 5.83403 / 44.8),
        (-1, 5.83403 / 44.8),
    ],
    "peaks": [  # (t, n, value); tolerance 0.02
        (1800.0, -2, 6.13188 / 44.8),
        (3600.0, -5, 6.21882 / 44.8),
    ],
}
FIG2_INITIAL_TOL = 0.002
FIG2_PEAK_TOL = 0.02


def parse_config(path: str | Path) -> SimulationConfig:
    """Load and validate a JSON run configuration."""
    return _config_from_dict(_load_config_dict(path))


def _load_config_dict(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return raw


def _config_from_dict(raw: dict) -> SimulationConfig:
    unknown = sorted(set(raw) - set(CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    missing = [k for k in REQUIRED_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")
    kwargs = dict(raw)
    if "snapshots" in kwargs:
        snaps = kwargs["snapshots"]
        if not isinstance(snaps, (list, tuple)):
            raise ConfigError(f"snapshots must be a list, got {snaps!r}")
        kwargs["snapshots"] = tuple(snaps)
    return SimulationConfig(**kwargs)


def emit_config(config: SimulationConfig) -> dict:
    """Config as the flat JSON object parse_config accepts (round-trips)."""
    return {**asdict(config), "snapshots": list(config.snapshots)}


@contextmanager
def _outputs() -> Iterator[list[Path]]:
    """The files a command opens, as a list: an OSError in the block removes each and re-raises."""
    written: list[Path] = []
    try:
        yield written
    except OSError:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: str, rows: Iterable[tuple], written: list[Path]) -> Path:
    """Stream header and rows of Python numbers to path, each number as its shortest repr."""
    with path.open("w") as f:
        written.append(path)
        f.write(header + "\n")
        f.writelines(",".join(map(repr, row)) + "\n" for row in rows)
    return path


def _csv_name(stem: str, x: float) -> str:
    """<stem><x>.csv, x as :g where that reads back as x, else as its shortest exact repr.

    :g keeps six significant digits, which would give distinct values such
    as 1000000 and 1000001 one name.
    """
    name = f"{x:g}"
    return f"{stem}{name if float(name) == x else repr(float(x))}.csv"


def _default_outdir(out: str | None) -> Path:
    if out is not None:
        return Path(out)
    return Path(os.environ.get("QLIMIT_OUT", "."))


# ---------------------------------------------------------------------------
# subcommands

#: Largest q for ``gaussian``. It holds gamma and upsilon as complex
#: d-vectors, and gamma_kappa's sum and wrap terms, about five float
#: d-vectors, while it runs: at most 80 d bytes, as the CSV is written row
#: by row. That stays within the 1 GiB that evolve keeps for d <= 2^30 / 80.
GAUSSIAN_MAX_Q = (2**30 // 80 - 1) // 2


def cmd_gaussian(q: int, kappa: float, out: str | Path) -> Path:
    """Write the discrete Gaussian table (n, gamma, upsilon, prob) as CSV."""
    try:
        lattice = new_lattice(q)
        params = GaussianParams(kappa)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if lattice.q > GAUSSIAN_MAX_Q:
        raise ConfigError(f"q = {q} exceeds the gaussian limit of {GAUSSIAN_MAX_Q} "
                          "(memory of its d-vectors)")
    g = gamma_kappa(lattice, params).amplitudes.real
    u = upsilon_kappa(lattice, params).amplitudes.real
    # row by row: Python floats of whole columns would take 32 bytes a value
    rows = ((n, float(a), float(b), float(b) ** 2)
            for n, a, b in zip(range(-lattice.q, lattice.q + 1), g, u))
    with _outputs() as written:
        return _write_csv(Path(out), "n,gamma,upsilon,prob", rows, written)


def _figure_check(states: dict[float, np.ndarray], lattice) -> list[dict]:
    report = []
    pts = lattice.points()
    if 0.0 in states:
        p0 = np.abs(states[0.0]) ** 2
        for n, target in FIG2_TARGETS["initial"]:
            actual = float(p0[lattice.index(n)])
            report.append({
                "t": 0.0,
                "n": n,
                "target_value": target,
                "tolerance": FIG2_INITIAL_TOL,
                "actual_value": actual,
                "within_tolerance": abs(actual - target) <= FIG2_INITIAL_TOL,
            })
    for t, n_target, value_target in FIG2_TARGETS["peaks"]:
        if t not in states:
            continue
        p = np.abs(states[t]) ** 2
        k = int(np.argmax(p))
        within = int(pts[k]) == n_target and abs(float(p[k]) - value_target) <= FIG2_PEAK_TOL
        report.append({
            "t": t,
            "target_peak_n": n_target,
            "target_peak_value": value_target,
            "tolerance": FIG2_PEAK_TOL,
            "actual_peak_n": int(pts[k]),
            "actual_peak_value": float(p[k]),
            "within_tolerance": within,
        })
    return report


def cmd_evolve(
    config: SimulationConfig,
    outdir: str | Path,
    requested_snapshots: tuple[float, ...] | None = None,
    figure_targets: bool = False,
) -> dict:
    """Run one evolution and write snapshot CSVs, observables and manifest.

    Returns the manifest dict. Its ``timings`` give each phase's wall time
    in seconds (the manifest's own write is not timed; ``table`` is the
    build of the run's step operators), ``steps_per_second`` the
    integration steps over the propagate time, ``step_map`` the grid
    steps each loop step takes and the nodes of the run's table, and
    ``resolution`` the top kinetic phase q^2 h / (2 mu) of one integration
    step h against pi.
    An OSError while writing removes every file written, the manifest's too.
    """
    started = datetime.now(timezone.utc).isoformat()
    traj = evolve(config)
    evolved = time.perf_counter()
    series = observables_series(traj)
    observed = time.perf_counter()
    finished = datetime.now(timezone.utc).isoformat()
    timings = {**traj.timings, "observables": observed - evolved}
    steps = config.integration_steps

    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    lattice = config.lattice
    pts = lattice.points().tolist()

    adjustments = []
    if requested_snapshots is not None:
        for raw, aligned in zip(requested_snapshots, config.snapshots):
            if raw != aligned:
                adjustments.append({"requested": raw, "aligned": aligned})

    manifest = {
        "config": emit_config(config),
        "tool_version": __version__,
        "started": started,
        "finished": finished,
        "norm_drift": traj.norm_drift,
        "snapshot_adjustments": adjustments,
        "timings": timings,
        "steps_per_second": steps / timings["propagate"] if timings.get("propagate") else None,
        "step_map": traj.step_map or None,
        "resolution": {"kinetic_phase": config.q**2 * config.integration_dt / (2 * config.mu),
                       "limit": math.pi},
    }
    if figure_targets:
        states = {t: psi.amplitudes for t, psi in traj.states}
        manifest["figure_check"] = _figure_check(states, lattice)

    with _outputs() as written:
        for t, psi in traj.states:
            # abs(z) ** 2 of each Python complex: np.abs(amps) ** 2 would move some last bits
            rows = ((t, n, z.real, z.imag, abs(z) ** 2)
                    for n, z in zip(pts, psi.amplitudes.tolist()))
            _write_csv(outdir / _csv_name("snapshot_t", t), "t,n,re,im,prob", rows, written)
        _write_csv(outdir / "observables.csv", "t,mean_R,mean_T,norm", series, written)
        manifest["outputs"] = [path.name for path in written]
        timings["write"] = time.perf_counter() - observed
        path = outdir / "manifest.json"
        with path.open("w") as f:
            written.append(path)
            f.write(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest


OPERATOR_NAMES = ("rate", "trend", "price", "kinetic", "hamiltonian")


def cmd_operators(
    q: int,
    which: str,
    out: str | Path,
    p0: float = 100.0,
    scale: float = 1.0,
    mu: float = 1.0,
    beta: float = 0.1,
    omega: float = 0.0002,
    t: float = 0.0,
) -> Path:
    """Dump one operator matrix as CSV, rows/columns labelled by lattice n."""
    lattice = new_lattice(checked_q(q))
    numbers = dict(p0=p0, scale=scale, mu=mu, beta=beta, omega=omega, t=t)
    for key, value in numbers.items():
        _finite(key, value)
    for key in ("p0", "mu"):
        if not numbers[key] > 0:
            raise ConfigError(f"{key} must be positive, got {numbers[key]!r}")
    # finite numbers can still overflow the matrix; its constructor then
    # raises NumericalError, which names the overflow
    with np.errstate(over="ignore", invalid="ignore"):
        if which == "rate":
            op = rate_operator(lattice)
        elif which == "trend":
            op = trend_operator(lattice)
        elif which == "price":
            op = price_operator(lattice, p0, scale)
        elif which == "kinetic":
            op = kinetic_operator(lattice, mu)
        elif which == "hamiltonian":
            op = hamiltonian_at(lattice, t, mu, beta, omega)
        else:
            raise ConfigError(f"unknown operator {which!r}, expected one of {OPERATOR_NAMES}")

    pts = lattice.points().tolist()
    header = "k," + ",".join(f"re[{n}],im[{n}]" for n in pts)
    # a row of the matrix viewed as floats is its (re, im) pairs
    rows = ((k, *row.tolist()) for k, row in zip(pts, np.ascontiguousarray(op.matrix).view(float)))
    with _outputs() as written:
        return _write_csv(Path(out), header, rows, written)


def cmd_check(stream=None, as_json: bool = False) -> int:
    """Run the invariant suite; print one line per check; 0 iff all pass.

    With as_json each line is a JSON object with the check's name,
    passed, detail and wall seconds, and no summary line follows.
    """
    from .checks import run_all_checks  # only this command compiles the suite

    stream = stream or sys.stdout
    results = run_all_checks()
    failed = [r.name for r in results if not r.passed]
    if as_json:
        for r in results:
            print(json.dumps({"name": r.name, "passed": bool(r.passed), "detail": r.detail,
                              "seconds": r.seconds}), file=stream)
        return 3 if failed else 0
    width = max(len(r.name) for r in results)
    for r in results:
        tag = "PASS" if r.passed else "FAIL"
        print(f"[{tag}] {r.name:<{width}}  {r.detail}", file=stream)
    if failed:
        print(f"{len(failed)} check(s) failed: {', '.join(failed)}", file=stream)
        return 3
    print(f"all {len(results)} checks passed", file=stream)
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlimit",
        description="Finite-dimensional quantum model of daily returns on a price-limited market",
    )
    parser.add_argument("--version", action="version", version=f"qlimit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gaussian", help="tabulate the discrete Gaussian state as CSV")
    p.add_argument("--q", type=int, default=None, help="price-limit percentage (lattice half-width)")
    p.add_argument("--kappa", type=float, default=None, help="Gaussian width parameter")
    p.add_argument("--preset", choices=["fig1"], default=None,
                   help="fig1: q=10, kappa in {0.2, 1, 2}, one CSV per kappa")
    p.add_argument("--out", default=None,
                   help="output CSV file (or directory with --preset); default $QLIMIT_OUT or .")

    p = sub.add_parser("evolve", help="integrate one run and write snapshot CSVs")
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--preset", choices=["fig2"], default=None,
                   help="fig2: q=10, kappa=0.2, mu=1, beta=0.1, omega=2e-4, one trading day")
    p.add_argument("--dt", type=float, default=None, help="override step size (seconds)")
    p.add_argument("--method", choices=list(METHODS), default=None, help="override integrator")
    p.add_argument("--out", default=None, help="output directory; default $QLIMIT_OUT or .")

    p = sub.add_parser("operators", help="dump an operator matrix as CSV")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--which", choices=list(OPERATOR_NAMES), required=True)
    p.add_argument("--out", default=None, help="output CSV file; default $QLIMIT_OUT or .")
    p.add_argument("--p0", type=float, default=100.0, help="previous closing price (price operator)")
    p.add_argument("--scale", type=float, default=1.0,
                   help="return-unit scale of the price operator (1 or 0.01)")
    p.add_argument("--mu", type=float, default=1.0)
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--omega", type=float, default=0.0002)
    p.add_argument("--t", type=float, default=0.0, help="time at which to sample the Hamiltonian")

    p = sub.add_parser("check", help="run the invariant self-check suite")
    p.add_argument("--json", action="store_true",
                   help="print one JSON object per check: name, passed, detail, seconds")
    return parser


def _run_gaussian(args) -> int:
    if args.preset == "fig1":
        given = [f"--{key}" for key in ("q", "kappa") if getattr(args, key) is not None]
        if given:
            raise ConfigError(f"--preset fig1 fixes q and kappa; drop {' and '.join(given)}")
        outdir = _default_outdir(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        with _outputs() as written:  # a failed table removes the tables before it
            for kappa in FIG1_PRESET["kappas"]:
                written.append(cmd_gaussian(FIG1_PRESET["q"], kappa,
                                            outdir / _csv_name("gaussian_kappa", kappa)))
        print(*written, sep="\n")
        return 0
    if args.q is None or args.kappa is None:
        raise ConfigError("gaussian needs --q and --kappa (or --preset fig1)")
    out = args.out or _default_outdir(None) / _csv_name("gaussian_kappa", args.kappa)
    print(cmd_gaussian(args.q, args.kappa, out))
    return 0


def _run_evolve(args) -> int:
    if (args.config is None) == (args.preset is None):
        raise ConfigError("evolve needs exactly one of --config or --preset")
    if args.preset == "fig2":
        raw = dict(FIG2_PRESET)
    else:
        raw = _load_config_dict(args.config)
    if args.dt is not None:
        raw["dt"] = args.dt
    if args.method is not None:
        raw["method"] = args.method
    config = _config_from_dict(raw)  # checks that snapshots, if given, is a list
    requested = tuple(raw["snapshots"]) if "snapshots" in raw else None
    outdir = _default_outdir(args.out)
    manifest = cmd_evolve(
        config,
        outdir,
        requested_snapshots=requested,
        figure_targets=args.preset == "fig2",
    )
    print(outdir / "manifest.json")
    if manifest.get("figure_check"):
        misses = [e for e in manifest["figure_check"] if not e["within_tolerance"]]
        if misses:
            print(f"note: {len(misses)} figure target(s) missed; see manifest figure_check")
    return 0


def _run_operators(args) -> int:
    out = Path(args.out) if args.out else _default_outdir(None) / f"operator_{args.which}.csv"
    print(cmd_operators(args.q, args.which, out, p0=args.p0, scale=args.scale,
                        mu=args.mu, beta=args.beta, omega=args.omega, t=args.t))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gaussian":
            return _run_gaussian(args)
        if args.command == "evolve":
            return _run_evolve(args)
        if args.command == "operators":
            return _run_operators(args)
        if args.command == "check":
            return cmd_check(as_json=args.json)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    raise AssertionError("unreachable")


if __name__ == "__main__":
    raise SystemExit(main())
