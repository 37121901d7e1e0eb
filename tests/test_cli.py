import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from qlimit import (
    ConfigError,
    SimulationConfig,
    StateVector,
    Trajectory,
    checks,
    cli,
    hamiltonian_at,
    initial_state,
    kinetic_operator,
    new_lattice,
    price_operator,
    rate_operator,
    trend_operator,
)
from qlimit.checks import ALL_CHECKS, CheckResult
from qlimit.cli import (
    GAUSSIAN_MAX_Q,
    OPERATOR_NAMES,
    cmd_evolve,
    cmd_gaussian,
    cmd_operators,
    emit_config,
    main,
    parse_config,
)
from qlimit.propagator import MAX_Q, evolve, observables_series

from conftest import fresh_python


def _write_config(path, **overrides):
    raw = dict(q=4, kappa=0.5, mu=1.0, beta=0.05, omega=0.001,
               t_end=50.0, dt=1.0, snapshots=[0.0, 25.0, 50.0], method="strang")
    raw.update(overrides)
    for key, value in list(raw.items()):
        if value is None:
            del raw[key]
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture
def failing_writes(monkeypatch):
    """failing_writes(name, n): writes to files named name raise OSError from their n-th on."""
    def arm(name, n):
        real_open = Path.open

        def open_(path, *args, **kwargs):
            f = real_open(path, *args, **kwargs)
            if path.name == name:
                write, count = f.write, itertools.count(1)

                def failing(text):
                    if next(count) >= n:
                        raise OSError("disk full")
                    return write(text)

                f.write = failing
            return f

        monkeypatch.setattr(Path, "open", open_)

    return arm


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


def test_gaussian_preset_with_q_or_kappa_exits_2(tmp_path, capsys):
    # the preset fixes both: an explicit value was ignored, and the run
    # wrote the q = 10 tables with exit 0
    for extra in (["--q", "3"], ["--kappa", "0.5"], ["--q", "10", "--kappa", "1"]):
        assert main(["gaussian", "--preset", "fig1", *extra, "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_gaussian_requires_parameters(tmp_path, time_limit):
    assert main(["gaussian"]) == 2
    for kappa in ("inf", "1e-20"):
        with time_limit(10):
            assert main(["gaussian", "--q", "4", "--kappa", kappa,
                         "--out", str(tmp_path / "g.csv")]) == 2


def test_gaussian_q_above_its_limit_exits_2(tmp_path, capsys, time_limit):
    # rejected before any vector is built: q = 10^15 ended in an
    # _ArrayMemoryError, and q = 10^8 ran out of memory
    out = tmp_path / "g.csv"
    for q in (GAUSSIAN_MAX_Q + 1, 10**15):
        with time_limit(10):
            assert main(["gaussian", "--q", str(q), "--kappa", "1", "--out", str(out)]) == 2
    assert f"exceeds the gaussian limit of {GAUSSIAN_MAX_Q}" in capsys.readouterr().err
    assert not out.exists()


def test_gaussian_unwritable_path_is_io_error():
    assert main(["gaussian", "--q", "4", "--kappa", "1.0",
                 "--out", "/nonexistent-dir/g.csv"]) == 4


def test_gaussian_uses_env_default_outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("QLIMIT_OUT", str(tmp_path))
    assert main(["gaussian", "--q", "4", "--kappa", "2.0"]) == 0
    assert (tmp_path / "gaussian_kappa2.csv").exists()


def test_gaussian_kappas_alike_to_six_digits_write_distinct_files(tmp_path, monkeypatch):
    # :g named both gaussian_kappa1.csv, and the second table overwrote the first
    monkeypatch.setenv("QLIMIT_OUT", str(tmp_path))
    for kappa in ("1.0000001", "1.0000002"):
        assert main(["gaussian", "--q", "4", "--kappa", kappa]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gaussian_kappa1.0000001.csv",
                                                          "gaussian_kappa1.0000002.csv"]


def test_gaussian_write_failure_leaves_no_file(tmp_path, failing_writes):
    # the table used to stay behind with the rows written before the failure
    out = tmp_path / "g.csv"
    failing_writes("g.csv", 6)
    with pytest.raises(OSError, match="disk full"):
        cmd_gaussian(10, 1.0, out)
    assert not out.exists()


def test_gaussian_preset_write_failure_leaves_no_file(tmp_path, capsys, failing_writes):
    # a failure in the second table removes the first one too, and no path is printed
    failing_writes("gaussian_kappa1.csv", 6)
    assert main(["gaussian", "--preset", "fig1", "--out", str(tmp_path)]) == 4
    assert list(tmp_path.iterdir()) == []
    assert capsys.readouterr().out == ""


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


def test_evolve_manifest_times_its_phases(tmp_path):
    # wall seconds per phase, the build of the step operators among them,
    # and the integration steps (50 steps of dt / 8 for reference) per
    # second of propagation; a run of no steps makes none
    for method, t_end, steps in (("reference", 50.0, 400), ("magnus2", 0.0, 0)):
        config_path = _write_config(tmp_path / f"{method}.json", method=method, t_end=t_end,
                                    snapshots=None)
        outdir = tmp_path / method
        assert main(["evolve", "--config", str(config_path), "--out", str(outdir)]) == 0
        manifest = json.loads((outdir / "manifest.json").read_text())
        timings = manifest["timings"]
        assert set(timings) == {"initial_state", "table", "propagate", "observables", "write"}
        assert all(0.0 <= s < 60.0 for s in timings.values()), timings
        assert manifest["steps_per_second"] == pytest.approx(steps / timings["propagate"])
    assert manifest["step_map"] == {"steps": 1, "nodes": 0}


def test_evolve_fig2_day_takes_eight_step_maps(tmp_path):
    # snapshot steps 1800 ... 28800 share the factor 8: the day takes 3 600
    # loop steps of an 8-step map tabled at 57 phase nodes, and its
    # steps_per_second still counts the 28 800 grid steps
    assert main(["evolve", "--preset", "fig2", "--method", "magnus2", "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["step_map"] == {"steps": 8, "nodes": 57}
    timings = manifest["timings"]
    assert timings["table"] > 0.0
    assert manifest["steps_per_second"] == pytest.approx(28800 / timings["propagate"])
    assert manifest["norm_drift"] <= 1e-13


@pytest.mark.parametrize("method, phase", [("strang", 50.0), ("reference", 6.25)])
def test_evolve_manifest_reports_the_kinetic_phase_of_a_step(tmp_path, method, phase):
    # q^2 h / (2 mu) for one integration step h (dt / 8 for reference),
    # against pi: the fig2 day resolves its top modes with neither method
    assert main(["evolve", "--preset", "fig2", "--method", method, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["resolution"] == {"kinetic_phase": phase, "limit": np.pi}


@pytest.mark.parametrize("dt, step_map", [(None, {"steps": 4, "nodes": 49}),
                                           (0.015625, {"steps": 128, "nodes": 37})],
                         ids=["dt-1", "dt-1_64"])
def test_evolve_fig2_strang_day_takes_step_maps(tmp_path, dt, step_map):
    # the default method on maps: 7 200 loop steps at dt = 1; at dt = 1/64
    # 14 400, drift 1.6e-14, where its 1 843 200 grid steps drift 1.4e-10,
    # past the tolerance of observables_series (exit 3)
    argv = ["evolve", "--preset", "fig2", "--out", str(tmp_path)]
    assert main(argv + (["--dt", str(dt)] if dt else [])) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["method"] == "strang"
    assert manifest["step_map"] == step_map
    assert manifest["norm_drift"] <= 1e-13


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


def test_evolve_zero_step_run_with_default_snapshots(tmp_path):
    # t_end = 0 and no snapshots: the default [0, t_end] is the one time 0
    for method in ("strang", "magnus2"):
        config_path = _write_config(tmp_path / f"{method}.json", t_end=0.0, snapshots=None,
                                    method=method)
        outdir = tmp_path / method
        assert main(["evolve", "--config", str(config_path), "--out", str(outdir)]) == 0
        assert {p.name for p in outdir.iterdir()} == {"snapshot_t0.csv", "observables.csv",
                                                      "manifest.json"}
        obs = (outdir / "observables.csv").read_text().splitlines()
        assert len(obs) == 2 and float(obs[1].split(",")[0]) == 0.0
        assert json.loads((outdir / "manifest.json").read_text())["norm_drift"] == 0.0


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
    # snapshots that are not a list: a number, and null, which _write_config would drop
    number = _write_config(tmp_path / "number.json", snapshots=5)
    null = _write_config(tmp_path / "null.json", snapshots=5)
    null.write_text(null.read_text().replace('"snapshots": 5', '"snapshots": null'))
    assert json.loads(null.read_text())["snapshots"] is None
    for path in paths + [big, number, null]:
        with time_limit(10):
            rc = main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2, path.read_text()


@pytest.mark.parametrize("dt, snapshots", [
    (1.0, [1000000.0, 1000001.0]),        # :g names both 1e+06
    (1e-7, [0.1234567, 0.1234568]),       # :g names both 0.123457
])
def test_evolve_snapshot_files_have_distinct_names(tmp_path, monkeypatch, dt, snapshots):
    # the run itself is replaced by the initial state at each snapshot time:
    # only the naming of the files is under test, not a million steps
    config_path = _write_config(tmp_path / "run.json", dt=dt, t_end=snapshots[-1],
                                snapshots=snapshots)
    config = parse_config(config_path)
    psi = initial_state(config)
    monkeypatch.setattr(cli, "evolve", lambda cfg: Trajectory(
        cfg, tuple((t, psi) for t in cfg.snapshots), norm_drift=0.0))
    outdir = tmp_path / "out"
    assert main(["evolve", "--config", str(config_path), "--out", str(outdir)]) == 0
    outputs = json.loads((outdir / "manifest.json").read_text())["outputs"]
    names = outputs[:-1]
    assert len(set(names)) == len(names) == 2, names
    for t, name in zip(config.snapshots, names):
        rows = (outdir / name).read_text().splitlines()[1:]
        assert {float(row.split(",")[0]) for row in rows} == {t}, name


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


def test_evolve_api_cleans_partial_outputs_on_write_failure(tmp_path, failing_writes):
    config = SimulationConfig(q=2, kappa=1.0, mu=1.0, beta=0.0, omega=0.0,
                              t_end=2.0, snapshots=(0.0, 2.0))
    outdir = tmp_path / "out"
    failing_writes("snapshot_t2.csv", 3)
    with pytest.raises(OSError):
        cmd_evolve(config, outdir)
    assert list(outdir.iterdir()) == []


def test_evolve_write_failure_in_the_manifest_leaves_no_file(tmp_path, failing_writes):
    # the CSVs were removed, but not the manifest the failed write had begun
    config_path = _write_config(tmp_path / "run.json")
    outdir = tmp_path / "out"
    failing_writes("manifest.json", 1)
    assert main(["evolve", "--config", str(config_path), "--out", str(outdir)]) == 4
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


def test_operators_dump_matches_per_cell_repr(tmp_path):
    # the bytes of the per-cell formatting, repr(float(x)) of each NumPy entry
    out = tmp_path / "h.csv"
    cmd_operators(5, "hamiltonian", out, mu=0.7, beta=0.3, omega=0.01, t=17.0)
    from qlimit import hamiltonian_at

    lattice = new_lattice(5)
    matrix = hamiltonian_at(lattice, 17.0, 0.7, 0.3, 0.01).matrix
    lines = ["k," + ",".join(f"re[{n}],im[{n}]" for n in lattice.points())]
    for k, row in zip(lattice.points(), matrix):
        cells = ",".join(f"{repr(float(x.real))},{repr(float(x.imag))}" for x in row)
        lines.append(f"{k},{cells}")
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()


def test_operators_write_failure_leaves_no_file(tmp_path, failing_writes):
    # the dump was one write_text call, whose failure could leave a partial file
    out = tmp_path / "h.csv"
    failing_writes("h.csv", 3)
    with pytest.raises(OSError, match="disk full"):
        cmd_operators(3, "hamiltonian", out)
    assert not out.exists()


def test_evolve_and_operators_csv_cells_read_back_as_the_library_values(tmp_path):
    # every cell is the shortest repr of a Python number, so parsing gives
    # back exactly what the library computed (the gaussian table:
    # test_gaussian_csv_round_trips_at_full_precision)
    config = SimulationConfig(q=4, kappa=0.5, mu=0.7, beta=0.3, omega=0.01, t_end=50.0,
                              snapshots=(0.0, 25.0, 50.0), method="magnus2")
    names = cmd_evolve(config, tmp_path)["outputs"]
    traj = evolve(config)

    def rows(name):
        return [list(map(float, line.split(","))) for line in
                (tmp_path / name).read_text().splitlines()[1:]]

    for (t, psi), name in zip(traj.states, names):
        assert rows(name) == [[t, n, z.real, z.imag, abs(z) ** 2]
                              for n, z in zip(range(-4, 5), psi.amplitudes.tolist())], name
    assert [tuple(row) for row in rows("observables.csv")] == observables_series(traj)
    lattice = new_lattice(3)
    matrices = {"rate": rate_operator(lattice), "trend": trend_operator(lattice),
                "price": price_operator(lattice, 250.0, 0.01),
                "kinetic": kinetic_operator(lattice, 0.7),
                "hamiltonian": hamiltonian_at(lattice, 17.0, 0.7, 0.3, 0.01)}
    assert set(matrices) == set(OPERATOR_NAMES)
    for which, op in matrices.items():
        out = tmp_path / f"{which}.csv"
        cmd_operators(3, which, out, p0=250.0, scale=0.01, mu=0.7, beta=0.3, omega=0.01, t=17.0)
        np.testing.assert_array_equal(_read_matrix_csv(out, 7), op.matrix, err_msg=which)


@pytest.fixture(scope="module")
def fresh_modules():
    """The modules a fresh interpreter holds after `import qlimit.cli`, then after
    run_all_checks(): one interpreter start serves every import probe."""
    probe = ("import sys, qlimit.cli; print(*sys.modules); import qlimit.checks; "
             "qlimit.checks.run_all_checks(); print(*sys.modules)")
    cli_import, checks_run = fresh_python("-c", probe, check=True).stdout.splitlines()
    return {"import qlimit.cli": cli_import.split(), "run_all_checks()": checks_run.split()}


def test_python_m_qlimit_runs_the_cli(tmp_path, fresh_modules):
    # a source tree on PYTHONPATH, without the installed entry point
    out = tmp_path / "rate.csv"
    for q, code in (("1", 0), ("0", 2)):
        run = fresh_python("-m", "qlimit", "operators", "--q", q, "--which", "rate",
                           "--out", str(out))
        assert run.returncode == code, run.stderr
    assert out.read_text().startswith("k,re[-1],im[-1]")
    assert "qlimit.__main__" not in fresh_modules["import qlimit.cli"]


def test_importing_the_cli_leaves_the_checks_uncompiled(fresh_modules):
    # only `qlimit check` runs the suite: every other command's process would
    # otherwise compile checks.py's source on start-up
    assert "qlimit.checks" not in fresh_modules["import qlimit.cli"]


def test_running_the_checks_leaves_numpy_random_unimported(fresh_modules):
    # the checks draw from the standard library's generator: importing
    # numpy.random would add about 5 MB and 10 ms to every `qlimit check`
    assert "numpy.random" not in fresh_modules["run_all_checks()"]


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


@pytest.mark.parametrize("flags", [("hamiltonian", "--beta", "1e308"),
                                   ("kinetic", "--mu", "1e-310"),
                                   ("price", "--p0", "1e308", "--scale", "10")])
def test_operators_overflowing_numbers_exit_3(tmp_path, capsys, flags):
    # finite inputs whose matrix overflows: a numerical failure, not a traceback
    out = tmp_path / "x.csv"
    assert main(["operators", "--q", "3", "--which", *flags, "--out", str(out)]) == 3
    assert "non-finite" in capsys.readouterr().err
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


def test_check_command_prints_one_json_object_per_check(monkeypatch, capsys):
    assert main(["check", "--json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    records = [json.loads(line) for line in lines]
    assert len(records) == len(ALL_CHECKS)
    assert "gaussian_dft_covariance" in [r["name"] for r in records]
    for r in records:
        assert set(r) == {"name", "passed", "detail", "seconds"}
        assert r["passed"] is True and r["detail"]
        assert 0.0 <= r["seconds"] < 60.0
    monkeypatch.setattr(checks, "ALL_CHECKS",
                        (lambda: CheckResult("bad", False, "max defect 1.00e+00 (bound 1e-12)"),))
    assert main(["check", "--json"]) == 3
    (line,) = capsys.readouterr().out.splitlines()
    assert json.loads(line)["name"] == "bad" and json.loads(line)["passed"] is False


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
