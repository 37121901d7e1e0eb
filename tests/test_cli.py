import json

import numpy as np
import pytest

from qlimit import (
    ConfigError,
    SimulationConfig,
    StateVector,
    Trajectory,
    checks,
    cli,
    initial_state,
    new_lattice,
    trend_operator,
)
from qlimit.checks import ALL_CHECKS, CheckResult
from qlimit.cli import (
    cmd_evolve,
    cmd_gaussian,
    cmd_operators,
    emit_config,
    main,
    parse_config,
)
from qlimit.propagator import MAX_Q


def _write_config(path, **overrides):
    raw = dict(q=4, kappa=0.5, mu=1.0, beta=0.05, omega=0.001,
               t_end=50.0, dt=1.0, snapshots=[0.0, 25.0, 50.0], method="strang")
    raw.update(overrides)
    for key, value in list(raw.items()):
        if value is None:
            del raw[key]
    path.write_text(json.dumps(raw))
    return path


# ---------------------------------------------------------------------------
# config parsing

def test_parse_config_round_trips(tmp_path):
    path = _write_config(tmp_path / "run.json")
    config = parse_config(path)
    emitted = tmp_path / "emitted.json"
    emitted.write_text(json.dumps(emit_config(config)))
    assert parse_config(emitted) == config


def test_parse_config_applies_defaults(tmp_path):
    path = _write_config(tmp_path / "run.json", dt=None, method=None, snapshots=None)
    config = parse_config(path)
    assert config.dt == 1.0
    assert config.method == "strang"
    assert config.snapshots == (0.0, 50.0)


def test_parse_config_rejects_unknown_keys(tmp_path):
    path = _write_config(tmp_path / "run.json")
    raw = json.loads(path.read_text())
    raw["qq"] = 3
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="qq"):
        parse_config(path)


@pytest.mark.parametrize("key", ["q", "kappa", "mu", "beta", "omega", "t_end"])
def test_parse_config_names_missing_required_key(tmp_path, key):
    path = _write_config(tmp_path / "run.json", **{key: None})
    with pytest.raises(ConfigError, match=key):
        parse_config(path)


def test_parse_config_rejects_bad_json(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        parse_config(path)


def test_parse_config_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config("/no/such/config.json")


# ---------------------------------------------------------------------------
# gaussian command

def test_gaussian_csv_contents(tmp_path):
    out = tmp_path / "g.csv"
    cmd_gaussian(10, 1.0, out)
    lines = out.read_text().splitlines()
    assert lines[0] == "n,gamma,upsilon,prob"
    assert len(lines) == 22
    ns = [int(line.split(",")[0]) for line in lines[1:]]
    assert ns == list(range(-10, 11))
    rows = {int(l.split(",")[0]): tuple(map(float, l.split(",")[1:])) for l in lines[1:]}
    assert rows[0][1] == pytest.approx(8.88838 / 16, abs=0.002)
    prob_sum = sum(r[2] for r in rows.values())
    assert prob_sum == pytest.approx(1.0, abs=1e-12)
    for n in range(1, 11):
        assert rows[n][1] == rows[-n][1]


def test_gaussian_csv_round_trips_at_full_precision(tmp_path):
    from qlimit import GaussianParams, gamma_kappa, upsilon_kappa

    out = tmp_path / "g.csv"
    cmd_gaussian(6, 0.2, out)
    lattice = new_lattice(6)
    g = gamma_kappa(lattice, GaussianParams(0.2)).amplitudes.real
    u = upsilon_kappa(lattice, GaussianParams(0.2)).amplitudes.real
    for line in out.read_text().splitlines()[1:]:
        n, gamma, upsilon, prob = line.split(",")
        i = lattice.index(int(n))
        assert float(gamma) == g[i]
        assert float(upsilon) == u[i]
        assert float(prob) == u[i] ** 2


def test_gaussian_preset_writes_three_files(tmp_path):
    rc = main(["gaussian", "--preset", "fig1", "--out", str(tmp_path)])
    assert rc == 0
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == [
        "gaussian_kappa0.2.csv",
        "gaussian_kappa1.csv",
        "gaussian_kappa2.csv",
    ]


def test_gaussian_requires_parameters(tmp_path, time_limit):
    assert main(["gaussian"]) == 2
    for kappa in ("inf", "1e-20"):
        with time_limit(10):
            assert main(["gaussian", "--q", "4", "--kappa", kappa,
                         "--out", str(tmp_path / "g.csv")]) == 2


def test_gaussian_unwritable_path_is_io_error():
    assert main(["gaussian", "--q", "4", "--kappa", "1.0",
                 "--out", "/nonexistent-dir/g.csv"]) == 4


def test_gaussian_uses_env_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("QLIMIT_OUT", str(tmp_path))
    assert main(["gaussian", "--q", "4", "--kappa", "2.0"]) == 0
    assert (tmp_path / "gaussian_kappa2.csv").exists()


# ---------------------------------------------------------------------------
# evolve command

def test_evolve_outputs(tmp_path):
    config_path = _write_config(tmp_path / "run.json")
    outdir = tmp_path / "out"
    rc = main(["evolve", "--config", str(config_path), "--out", str(outdir)])
    assert rc == 0
    expected = {
        "snapshot_t0.csv",
        "snapshot_t25.csv",
        "snapshot_t50.csv",
        "observables.csv",
        "manifest.json",
    }
    assert {p.name for p in outdir.iterdir()} == expected

    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"] == emit_config(parse_config(config_path))
    assert manifest["norm_drift"] <= 1e-10
    assert manifest["snapshot_adjustments"] == []
    assert "figure_check" not in manifest
    assert sorted(manifest["outputs"]) == sorted(expected - {"manifest.json"})

    for name in ("snapshot_t0.csv", "snapshot_t25.csv", "snapshot_t50.csv"):
        lines = (outdir / name).read_text().splitlines()
        assert lines[0] == "t,n,re,im,prob"
        assert len(lines) == 10  # d = 9 rows for q = 4
        probs = [float(l.split(",")[4]) for l in lines[1:]]
        assert sum(probs) == pytest.approx(1.0, abs=1e-10)

    obs = (outdir / "observables.csv").read_text().splitlines()
    assert obs[0] == "t,mean_R,mean_T,norm"
    assert [float(l.split(",")[0]) for l in obs[1:]] == [0.0, 25.0, 50.0]
    for line in obs[1:]:
        assert float(line.split(",")[3]) == pytest.approx(1.0, abs=1e-10)


def test_evolve_is_byte_deterministic(tmp_path):
    config_path = _write_config(tmp_path / "run.json")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["evolve", "--config", str(config_path), "--out", str(out_a)]) == 0
    assert main(["evolve", "--config", str(config_path), "--out", str(out_b)]) == 0
    for name in ("snapshot_t0.csv", "snapshot_t25.csv", "snapshot_t50.csv", "observables.csv"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_evolve_free_run_probabilities_are_even(tmp_path):
    config_path = _write_config(tmp_path / "run.json", beta=0.0)
    outdir = tmp_path / "out"
    assert main(["evolve", "--config", str(config_path), "--out", str(outdir)]) == 0
    lines = (outdir / "snapshot_t50.csv").read_text().splitlines()[1:]
    probs = np.array([float(l.split(",")[4]) for l in lines])
    assert np.abs(probs - probs[::-1]).max() < 1e-10


def test_evolve_records_snapshot_adjustments(tmp_path):
    config_path = _write_config(tmp_path / "run.json", snapshots=[0.0, 24.9, 50.0])
    outdir = tmp_path / "out"
    assert main(["evolve", "--config", str(config_path), "--out", str(outdir)]) == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["snapshot_adjustments"] == [{"requested": 24.9, "aligned": 25.0}]
    assert (outdir / "snapshot_t25.csv").exists()


def test_evolve_flag_overrides(tmp_path):
    config_path = _write_config(tmp_path / "run.json")
    outdir = tmp_path / "out"
    rc = main(["evolve", "--config", str(config_path), "--out", str(outdir),
               "--dt", "0.5", "--method", "magnus2"])
    assert rc == 0
    manifest = json.loads((outdir / "manifest.json").read_text())
    assert manifest["config"]["dt"] == 0.5
    assert manifest["config"]["method"] == "magnus2"


def test_evolve_requires_exactly_one_source(tmp_path):
    config_path = _write_config(tmp_path / "run.json")
    assert main(["evolve"]) == 2
    assert main(["evolve", "--config", str(config_path), "--preset", "fig2"]) == 2


def test_evolve_bad_config_exits_2(tmp_path, time_limit):
    cases = [dict(q=0), dict(snapshots=[0.0, float("nan")]), dict(snapshots=[0.0, float("inf")]),
             dict(snapshots=[0.0, "a"]), dict(t_end=1e300, dt=1e-300), dict(dt=float("inf")),
             dict(kappa=float("inf")), dict(kappa=True), dict(beta=True), dict(kappa=1e-20),
             dict(t_end=1e300), dict(q=10**6)]
    paths = [_write_config(tmp_path / f"run{i}.json", **c) for i, c in enumerate(cases)]
    # json reads 1e400 as inf; Python writes no such literal, so patch the text
    big = _write_config(tmp_path / "big.json", snapshots=[0.0, float("inf")])
    big.write_text(big.read_text().replace("Infinity", "1e400"))
    for path in paths + [big]:
        with time_limit(10):
            rc = main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2, path.read_text()


def test_evolve_numerical_blowup_exits_3_naming_step(tmp_path, capsys):
    config_path = _write_config(tmp_path / "run.json", beta=1e308)
    with np.errstate(over="ignore", invalid="ignore"):
        rc = main(["evolve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "step 0" in capsys.readouterr().err


def test_evolve_state_off_unit_norm_exits_3(tmp_path, capsys, monkeypatch):
    config_path = _write_config(tmp_path / "run.json", snapshots=[0.0])
    config = parse_config(config_path)
    amps = initial_state(config).amplitudes * (1.0 + 1e-9)
    traj = Trajectory(config, ((0.0, StateVector(config.lattice, amps)),), norm_drift=1e-9)
    monkeypatch.setattr(cli, "evolve", lambda cfg: traj)
    rc = main(["evolve", "--config", str(config_path), "--out", str(tmp_path / "out")])
    assert rc == 3
    assert "norm_drift is 1.000e-09" in capsys.readouterr().err


def test_evolve_api_cleans_partial_outputs_on_write_failure(tmp_path, monkeypatch):
    config = SimulationConfig(q=2, kappa=1.0, mu=1.0, beta=0.0, omega=0.0,
                              t_end=2.0, snapshots=(0.0, 2.0))
    outdir = tmp_path / "out"

    from pathlib import Path

    real_write_text = Path.write_text
    state = {"writes": 0}

    def failing_write(self, *args, **kwargs):
        state["writes"] += 1
        if state["writes"] >= 2:
            raise OSError("disk full")
        return real_write_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", failing_write)
    with pytest.raises(OSError):
        cmd_evolve(config, outdir)
    monkeypatch.undo()
    assert list(outdir.iterdir()) == []


# ---------------------------------------------------------------------------
# operators command

def test_operators_rate_dump(tmp_path):
    out = tmp_path / "rate.csv"
    cmd_operators(2, "rate", out)
    lines = out.read_text().splitlines()
    assert lines[0].startswith("k,re[-2],im[-2],re[-1],im[-1],re[0],im[0]")
    assert len(lines) == 6
    diag = []
    for i, line in enumerate(lines[1:]):
        cells = line.split(",")
        assert int(cells[0]) == i - 2
        values = list(map(float, cells[1:]))
        diag.append(values[2 * i])
        assert all(v == 0.0 for j, v in enumerate(values) if j != 2 * i)
    assert diag == [-2.0, -1.0, 0.0, 1.0, 2.0]


def _read_matrix_csv(path, d):
    lines = path.read_text().splitlines()[1:]
    out = np.zeros((d, d), dtype=complex)
    for i, line in enumerate(lines):
        values = list(map(float, line.split(",")[1:]))
        out[i] = np.array(values[0::2]) + 1j * np.array(values[1::2])
    return out


def test_operators_trend_dump_matches_similarity_form(tmp_path):
    out = tmp_path / "trend.csv"
    cmd_operators(2, "trend", out)
    np.testing.assert_array_equal(_read_matrix_csv(out, 5), trend_operator(new_lattice(2)).matrix)


def test_operators_price_dump(tmp_path):
    out = tmp_path / "price.csv"
    cmd_operators(2, "price", out, p0=100.0, scale=1.0)
    dumped = _read_matrix_csv(out, 5)
    np.testing.assert_allclose(np.diag(dumped).real, [-100.0, 0.0, 100.0, 200.0, 300.0])


def test_operators_hamiltonian_dump(tmp_path):
    out = tmp_path / "h.csv"
    cmd_operators(3, "hamiltonian", out, mu=2.0, beta=0.1, omega=0.0002, t=0.0)
    dumped = _read_matrix_csv(out, 7)
    from qlimit import hamiltonian_at

    expected = hamiltonian_at(new_lattice(3), 0.0, 2.0, 0.1, 0.0002).matrix
    assert np.abs(dumped - expected).max() < 1e-15


def test_operators_unwritable_path_is_io_error():
    assert main(["operators", "--q", "2", "--which", "rate", "--out", "/nonexistent/x.csv"]) == 4


def test_operators_unknown_name_rejected(tmp_path):
    with pytest.raises(ConfigError, match="unknown operator"):
        cmd_operators(2, "momentum", tmp_path / "x.csv")
    with pytest.raises(SystemExit) as exc:
        main(["operators", "--q", "2", "--which", "momentum", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2


def test_operators_q_outside_limits_exits_2(tmp_path, capsys):
    out = str(tmp_path / "x.csv")
    for q in ("0", "1000000"):
        assert main(["operators", "--q", q, "--which", "rate", "--out", out]) == 2
    assert f"exceeds the limit of {MAX_Q}" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("flags", [("kinetic", "--mu", "0"), ("price", "--p0", "-1"),
                                   ("hamiltonian", "--beta", "nan"),
                                   ("hamiltonian", "--t", "inf"), ("price", "--scale", "nan")])
def test_operators_bad_numbers_exit_2(tmp_path, capsys, flags):
    out = tmp_path / "x.csv"
    assert main(["operators", "--q", "3", "--which", *flags, "--out", str(out)]) == 2
    assert flags[1][2:] in capsys.readouterr().err
    assert not out.exists()


def test_operators_via_main(tmp_path):
    out = tmp_path / "kin.csv"
    rc = main(["operators", "--q", "2", "--which", "kinetic", "--out", str(out), "--mu", "1.0"])
    assert rc == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# check command

def test_check_command_passes(capsys):
    rc = main(["check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("[PASS]") == len(ALL_CHECKS)
    assert "[FAIL]" not in out
    assert "gaussian_dft_covariance" in out
    assert "dft_fourth_power_identity" in out


def test_check_command_reports_failing_check(monkeypatch, capsys):
    def check_good():
        return CheckResult("good", True, "ok")

    def check_bad():
        return CheckResult("bad", False, "max defect 1.00e+00 (bound 1e-12)")

    monkeypatch.setattr(checks, "ALL_CHECKS", (check_good, check_bad))
    assert main(["check"]) == 3
    lines = capsys.readouterr().out.splitlines()
    assert any(line.startswith("[FAIL] bad") for line in lines)
    assert lines[-1] == "1 check(s) failed: bad"
