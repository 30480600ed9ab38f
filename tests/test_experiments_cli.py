import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qwhydro
from qwhydro import asymptotics as asy
from qwhydro import experiments
from qwhydro import walk as wk
from qwhydro.cli import main
from qwhydro.config import EXPERIMENTS, ConfigError, parse_config
from qwhydro.experiments import SpacetimeGrid, emit_spacetime_csv, run_experiment
from qwhydro.hydro import currents
from qwhydro.initial import ShockInitSpec, phase_modulated_state


def test_emit_csv_small_grid(tmp_path):
    grid = SpacetimeGrid(x=np.array([0.0, 1.0]), t=np.array([0.0, 0.5]),
                         values=np.array([[1.0, 2.0], [3.0, 4.0]]))
    path = emit_spacetime_csv(grid, tmp_path / "g.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "t,x,value"
    assert len(lines) == 5
    assert lines[1].startswith("0,0,1")
    assert lines[-1] == "0.5,1,4"


def test_emit_csv_complex_grid(tmp_path):
    # a cast to float would drop the imaginary part, so nothing is written
    grid = SpacetimeGrid(x=np.array([0.0]), t=np.array([0.0]),
                         values=np.array([[1.0 + 2.0j]]))
    with pytest.raises(ValueError, match="complex"):
        emit_spacetime_csv(grid, tmp_path / "c.csv")
    assert not (tmp_path / "c.csv").exists()


def test_emit_csv_17_digits(tmp_path):
    value = 1.0 / 3.0
    grid = SpacetimeGrid(x=np.array([0.0]), t=np.array([0.0]),
                         values=np.array([[value]]))
    path = emit_spacetime_csv(grid, tmp_path / "d.csv")
    printed = path.read_text().splitlines()[1].split(",")[2]
    assert float(printed) == value


def _emit_reference(grid) -> bytes:
    """The per-value formatting loop that emit_spacetime_csv replaced."""
    def fmt(v):
        return format(float(v), ".17g")

    lines = ["t,x,value"]
    for i, t in enumerate(grid.t):
        for j, x in enumerate(grid.x):
            lines.append(f"{fmt(t)},{fmt(x)},{fmt(grid.values[i, j])}")
    return ("\n".join(lines) + "\n").encode()


SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, np.nan, np.inf,
                    -np.inf, 1e300, -1e300, 3.0, -7.0, 1e16, 2.0 ** 53 + 2.0, 1.0 / 3.0,
                    0.1, 123456.789, 1e-5])


@pytest.mark.parametrize("kind", ["real", "complex", "integer"])
def test_emit_csv_matches_reference_loop_on_special_values(tmp_path, kind):
    values = np.array([np.roll(SPECIAL, i) for i in range(7)])
    if kind == "integer":
        values = np.arange(7 * SPECIAL.size).reshape(7, -1) - 50
    elif kind == "complex":
        # refused even with every imaginary part zero: there is no complex format
        grid = SpacetimeGrid(x=SPECIAL, t=SPECIAL[:7], values=values.astype(complex))
        with pytest.raises(ValueError, match="complex"):
            emit_spacetime_csv(grid, tmp_path / "special.csv")
        assert not (tmp_path / "special.csv").exists()
        return
    grid = SpacetimeGrid(x=SPECIAL, t=SPECIAL[:7], values=values)
    path = emit_spacetime_csv(grid, tmp_path / "special.csv")
    assert path.read_bytes() == _emit_reference(grid)


def test_emit_csv_matches_reference_loop_on_empty_grids(tmp_path):
    for shape in ((0, 3), (2, 0), (0, 0)):
        grid = SpacetimeGrid(x=np.arange(shape[1], dtype=float),
                             t=np.arange(shape[0], dtype=float),
                             values=np.zeros(shape))
        path = emit_spacetime_csv(grid, tmp_path / "empty.csv")
        assert path.read_bytes() == _emit_reference(grid)


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _shipped(name, out, **overrides):
    """Text of a shipped config, writing to `out`, with keys overridden."""
    text = (CONFIGS / f"{name}.cfg").read_text()
    for key, value in {"output_dir": out, **overrides}.items():
        text = re.sub(rf"(?m)^{key} = .*$", f"{key} = {value}", text)
    return text


def _run_cfg(tmp_path, text):
    cfg = parse_config(text.format(out=tmp_path))
    return run_experiment(cfg)


PLANEWAVE = """
experiment = dtqw_planewave
n_sites = 512
mass = 64
q = 0
n_steps = 2000
output_dir = {out}
"""


def test_planewave_norm_drift_manifest(tmp_path):
    result = _run_cfg(tmp_path / "pw", PLANEWAVE)
    assert result.ok
    assert result.diagnostics["norm_drift"] <= 1e-12
    manifest = json.loads((tmp_path / "pw" / "dtqw_planewave_manifest.json").read_text())
    assert manifest["diagnostics"]["norm_drift"] <= 1e-12
    assert manifest["ok"] is True


SCHRO = """
experiment = schrodinger_shock
n_sites = 1024
mass = 100
q_max = 100
mode = 1.0,1,0.0
output_dir = {out}
"""


def test_schrodinger_shock_emits_three_times(tmp_path):
    result = _run_cfg(tmp_path / "s", SCHRO)
    dens = (tmp_path / "s" / "schrodinger_shock_density.csv").read_text().splitlines()
    times = {line.split(",")[0] for line in dens[1:]}
    assert len(times) == 3
    assert result.ok
    vel = tmp_path / "s" / "schrodinger_shock_velocity.csv"
    assert vel.exists()


SHOCK = """
experiment = dtqw_shock
n_sites = 256
mass = 32
q_max = 6.4
mode = 1.0,1,0.0
t_final = 1.0
snapshot_times = 0.0, 0.5, 1.0
output_dir = {out}
"""


def test_dtqw_shock_realized_times_rounded_down(tmp_path):
    result = _run_cfg(tmp_path / "w", SHOCK)
    manifest = json.loads((tmp_path / "w" / "dtqw_shock_manifest.json").read_text())
    params_eps = 2 * np.pi / 256
    for requested, realized in zip(manifest["requested_times"],
                                   manifest["realized_times"]):
        j = int(np.floor(requested / params_eps + 1e-9))
        assert realized == pytest.approx(j * params_eps)
    assert result.ok


ZONES = """
experiment = asymptotic_zones
mass = 20
nx = 15
nt = 11
output_dir = {out}
"""


def test_zone_map_labels(tmp_path):
    _run_cfg(tmp_path / "z", ZONES)
    lines = (tmp_path / "z" / "asymptotic_zones.csv").read_text().splitlines()
    values = {line.split(",")[2] for line in lines[1:]}
    assert values <= {"1", "2", "3"}
    assert "2" in values  # the caustic band crosses the default window


PEARCEY = """
experiment = pearcey_map
mass = 20
nx = 7
nt = 5
x_min = -0.4
x_max = 0.4
t_min = 0.8
t_max = 1.4
output_dir = {out}
"""


# sha256 of the zones CSV of configs/zones_map.cfg before the labels were
# computed with array arithmetic
ZONES_MAP_SHA256 = "27fdd849b7da55fac1528d426dc7927657ac38030fb720da40ff3006f40064cb"


def test_zones_map_labels_match_scalar_classification(tmp_path):
    _run_cfg(tmp_path, _shipped("zones_map", tmp_path))
    path = tmp_path / "asymptotic_zones.csv"
    assert hashlib.sha256(path.read_bytes()).hexdigest() == ZONES_MAP_SHA256
    chart = asy.ShockChart.from_mass(20.0)
    rows = np.loadtxt(path, delimiter=",", skiprows=1)
    assert len(rows) == 81 * 61
    for t, x, label in rows:
        T, X, _ = asy.shock_map(x, t, chart)
        assert label == int(asy.classify_zone(T, X).zone)


def test_pearcey_map_runs_and_is_deterministic(tmp_path):
    r1 = _run_cfg(tmp_path / "p1", PEARCEY)
    r2 = _run_cfg(tmp_path / "p2", PEARCEY)
    a = (tmp_path / "p1" / "pearcey_map.csv").read_bytes()
    b = (tmp_path / "p2" / "pearcey_map.csv").read_bytes()
    assert a == b
    assert r1.diagnostics["max_intensity"] == r2.diagnostics["max_intensity"]


def test_pearcey_map_agrees_with_quadpack_on_shipped_window(tmp_path):
    result = _run_cfg(tmp_path, _shipped("pearcey_map", tmp_path))
    assert result.ok
    chart = asy.ShockChart.from_mass(20.0)
    rows = np.loadtxt(tmp_path / "pearcey_map.csv", delimiter=",", skiprows=1)
    assert len(rows) == 41 * 25
    for t, x, intensity in rows:
        T, X, A = asy.shock_map(x, t, chart)
        assert abs(np.sqrt(intensity) / abs(A) - abs(asy.pearcey(-T, X, 1e-6))) < 1e-6


def test_manifest_echoes_the_resolved_config(tmp_path):
    result = _run_cfg(tmp_path / "p", PEARCEY)
    manifest = json.loads((tmp_path / "p" / "pearcey_map_manifest.json").read_text())
    config = manifest["config"]
    assert (config["x_min"], config["x_max"], config["nx"]) == (-0.4, 0.4, 7)
    assert (config["t_min"], config["t_max"], config["nt"]) == (0.8, 1.4, 5)
    assert config["pearcey_tol"] == 1e-6
    assert config["output_dir"] == str(tmp_path / "p")
    gate = manifest["diagnostics"]["pearcey_error"]
    assert gate["value"] <= gate["limit"] == 1e-6
    assert gate["margin"] == gate["limit"] - gate["value"]
    assert manifest["diagnostics"]["points_over_tol"] == 0
    assert result.ok and manifest["ok"] is True


NONREL = """
experiment = nonrel_compare
n_sites = 1024
mass = 128
q_max = 12.8
mode = 1.0,1,0.0
mode = 0.3333333333333333,3,0.0
mode = 0.5,2,0.9
t_final = 0.5
snapshot_times = 0.0, 0.5
output_dir = {out}
"""


def test_nonrel_compare_writes_json_records(tmp_path):
    result = _run_cfg(tmp_path / "n", NONREL)
    records = json.loads((tmp_path / "n" / "nonrel_compare.json").read_text())
    assert len(records) == 2
    assert set(records[0]) == {"time", "density_l2", "density_max",
                               "velocity_l2", "velocity_max"}
    assert records[0]["density_l2"] < 0.02
    assert result.ok


VALIDATION = """
experiment = validation
n_sites = 512
mass = 64
n_steps = 1500
output_dir = {out}
"""


def test_validation_manifest_and_gate(tmp_path):
    result = _run_cfg(tmp_path / "v", VALIDATION)
    assert result.ok
    man = json.loads((tmp_path / "v" / "validation_manifest.json").read_text())
    assert man["diagnostics"]["dirac_monotone"] is True
    assert man["diagnostics"]["dirac_fitted_order"] > 0.5
    assert man["diagnostics"]["norm_drift"] <= 1e-12


def test_manifest_echoes_only_the_keys_the_experiment_reads(tmp_path):
    _run_cfg(tmp_path / "v", VALIDATION)
    config = json.loads((tmp_path / "v" / "validation_manifest.json").read_text())["config"]
    assert set(config) == {"experiment", "mass", "n_sites", "n_steps", "output_dir",
                           "tolerances"}
    _run_cfg(tmp_path / "p", PEARCEY)
    config = json.loads((tmp_path / "p" / "pearcey_map_manifest.json").read_text())["config"]
    walk_keys = {"n_sites", "n_steps", "q", "q_max", "modes", "t_final", "snapshot_times"}
    assert not walk_keys & set(config)


def test_validation_fails_on_unreachable_tolerance(tmp_path):
    text = VALIDATION + "tol.norm_drift = 1e-30\n"
    result = _run_cfg(tmp_path / "vf", text)
    assert not result.ok


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_list_experiments(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    for name in ("dtqw_shock", "pearcey_map", "validation"):
        assert name in out


def test_cli_list_experiments_prints_the_table(capsys):
    assert main(["list-experiments"]) == 0
    assert capsys.readouterr().out.splitlines() == list(EXPERIMENTS)


def test_every_experiment_has_a_shipped_config_that_validates(capsys):
    shipped = {parse_config(path.read_text()).experiment: path
               for path in sorted(CONFIGS.glob("*.cfg"))}
    assert set(shipped) == set(EXPERIMENTS)
    for path in shipped.values():
        assert main(["validate", str(path)]) == 0
    assert set(experiments._COMPUTE) == set(EXPERIMENTS)


INVALID_AT_RUN_TIME = {
    "half_integer_q": ("planewave", {"q": "0.5"}, "'q'"),
    "unresolvable_q": ("planewave", {"q": "40", "n_sites": "64"}, "'q'"),
    "validation_n_sites": ("validation", {"n_sites": "3"}, "n_sites"),
    "unresolvable_mode": ("shock_single_mode", {"mode": "1,100,0", "n_sites": "64"},
                          "mode"),
    "u_max_underflow": ("shock_single_mode", {"mass": "1e308", "q_max": "1e-308"},
                        "q_max"),
}


@pytest.mark.parametrize("name, overrides, field", INVALID_AT_RUN_TIME.values(),
                         ids=INVALID_AT_RUN_TIME.keys())
def test_cli_run_rejects_invalid_config_naming_the_field(tmp_path, capsys, name,
                                                         overrides, field):
    cfg = tmp_path / "bad.cfg"
    text = _shipped(name, tmp_path / "out", **overrides)
    assert all(f"{key} = {value}" in text for key, value in overrides.items())
    cfg.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_rejects_tolerance_the_experiment_does_not_gate(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(_shipped("planewave", tmp_path / "out") + "tol.norm_drfit = 1e-30\n")
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert "norm_drfit" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_manifest_verdicts_carry_value_limit_margin(tmp_path):
    # dtqw_shock gates norm_drift at its table default when the config is silent
    _run_cfg(tmp_path / "w", SHOCK)
    manifest = json.loads((tmp_path / "w" / "dtqw_shock_manifest.json").read_text())
    verdict = manifest["tolerance_verdicts"]["norm_drift"]
    assert set(verdict) == {"value", "limit", "margin"}
    assert verdict["limit"] == 1e-10
    assert verdict["value"] == manifest["diagnostics"]["norm_drift"]
    assert verdict["margin"] == verdict["limit"] - verdict["value"] >= 0
    # the Pearcey map has no tol.<name> gate; its own gate sits in diagnostics
    _run_cfg(tmp_path / "p", PEARCEY)
    manifest = json.loads((tmp_path / "p" / "pearcey_map_manifest.json").read_text())
    assert manifest["tolerance_verdicts"] == {}


def test_validation_gates_default_to_its_table_limits(tmp_path):
    _run_cfg(tmp_path / "v", VALIDATION)
    verdicts = json.loads(
        (tmp_path / "v" / "validation_manifest.json").read_text())["tolerance_verdicts"]
    assert {name: v["limit"] for name, v in verdicts.items()} == {
        "norm_drift": 1e-12, "roundtrip": 1e-12, "current_identity": 1e-12}


def test_nonrel_density_l2_gates_only_when_set(tmp_path):
    _run_cfg(tmp_path / "n", NONREL)
    manifest = json.loads((tmp_path / "n" / "nonrel_compare_manifest.json").read_text())
    assert manifest["tolerance_verdicts"] == {}
    result = _run_cfg(tmp_path / "nf", NONREL + "tol.density_l2 = 1e-30\n")
    assert not result.ok
    manifest = json.loads((tmp_path / "nf" / "nonrel_compare_manifest.json").read_text())
    verdict = manifest["tolerance_verdicts"]["density_l2"]
    assert verdict["value"] == manifest["diagnostics"]["final_density_l2"]
    assert verdict["margin"] < 0 and manifest["ok"] is False


def test_cli_validate_good_and_bad(tmp_path, capsys):
    good = tmp_path / "good.cfg"
    good.write_text("experiment = validation\nmass = 16\nn_sites = 64\n")
    assert main(["validate", str(good)]) == 0

    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment = validation\nmass = 16\nwhat = 1\n")
    with pytest.raises(SystemExit) as err:
        main(["validate", str(bad)])
    assert err.value.code == 2


def test_cli_missing_file_is_error(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["validate", str(tmp_path / "absent.cfg")])
    assert err.value.code == 1


def test_cli_run_exit_codes(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(PLANEWAVE.format(out=tmp_path / "cli_out"))
    assert main(["run", str(cfg)]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert any(line.endswith("dtqw_planewave_manifest.json") for line in printed)

    failing = tmp_path / "fail.cfg"
    failing.write_text(PLANEWAVE.format(out=tmp_path / "cli_fail")
                       + "tol.norm_drift = 1e-30\n")
    assert main(["run", str(failing)]) == 2


def test_cli_planewave_t_final_reaches_the_step_dtqw_shock_reaches(tmp_path):
    # 11·2π/64 rounds to one ulp below 11 steps of 2π/64
    t_final = 11 * 2 * np.pi / 64
    assert t_final / (2 * np.pi / 64) < 11
    common = f"n_sites = 64\nmass = 1\nt_final = {t_final!r}\n"
    planewave, shock = tmp_path / "pw.cfg", tmp_path / "shock.cfg"
    planewave.write_text(f"experiment = dtqw_planewave\nq = 0\n{common}"
                         f"output_dir = {tmp_path / 'pw'}\n")
    shock.write_text(f"experiment = dtqw_shock\nq_max = 1\nmode = 1,1,0\n{common}"
                     f"snapshot_times = {t_final!r}\noutput_dir = {tmp_path / 'shock'}\n")
    assert main(["run", str(planewave)]) == 0
    assert main(["run", str(shock)]) == 0
    eleven = 11 * wk.build_walk(64, 1.0).dt
    rows = (tmp_path / "pw" / "dtqw_planewave_density.csv").read_text().splitlines()
    assert float(rows[-1].split(",")[0]) == eleven
    manifest = json.loads((tmp_path / "pw" / "dtqw_planewave_manifest.json").read_text())
    assert manifest["config"]["n_steps"] == manifest["diagnostics"]["n_steps"] == 11
    manifest = json.loads((tmp_path / "shock" / "dtqw_shock_manifest.json").read_text())
    assert manifest["realized_times"] == [eleven]


def test_manifest_echoes_the_walk_defaults_that_ran(tmp_path):
    for experiment, n_sites in (("validation", None), ("dtqw_planewave", 64)):
        text = f"experiment = {experiment}\nmass = 16\noutput_dir = {tmp_path}\n"
        if n_sites is not None:
            text += f"n_sites = {n_sites}\n"
        (tmp_path / "run.cfg").write_text(text)
        assert main(["run", str(tmp_path / "run.cfg")]) == 0
        manifest = json.loads((tmp_path / f"{experiment}_manifest.json").read_text())
        assert manifest["config"]["n_sites"] == (n_sites or 4096)
        assert manifest["config"]["n_steps"] == 10000


def test_cli_pearcey_map_over_tol_exits_2(tmp_path):
    # at mass 50 the corners of the shipped window are rounding-limited
    # beyond pearcey_tol: the map is still written, and the run fails its gate
    cfg = tmp_path / "m50.cfg"
    cfg.write_text(_shipped("pearcey_map", tmp_path / "out", mass=50))
    assert main(["run", str(cfg)]) == 2
    manifest = json.loads((tmp_path / "out" / "pearcey_map_manifest.json").read_text())
    gate = manifest["diagnostics"]["pearcey_error"]
    assert gate["value"] > gate["limit"] and gate["margin"] < 0
    assert manifest["diagnostics"]["points_over_tol"] > 0
    assert manifest["ok"] is False
    rows = (tmp_path / "out" / "pearcey_map.csv").read_text().splitlines()
    assert len(rows) == 1 + 41 * 25


def test_cli_run_rejects_nonfinite_window(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(_shipped("pearcey_map", tmp_path / "out", x_min="nan"))
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert "x_min" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["planewave", "schrodinger_shock", "pearcey_map",
                                  "zones_map"])
def test_emit_csv_matches_reference_loop_on_shipped_grids(tmp_path, monkeypatch, name):
    emitted = []

    def recording(grid, path):
        emitted.append((grid, emit_spacetime_csv(grid, path)))
        return emitted[-1][1]

    monkeypatch.setattr(experiments, "emit_spacetime_csv", recording)
    run_experiment(parse_config(_shipped(name, tmp_path / name)))
    assert emitted
    for grid, path in emitted:
        assert path.read_bytes() == _emit_reference(grid)


def test_dtqw_shock_manifest_records_step_consistency(tmp_path):
    result = _run_cfg(tmp_path / "w", SHOCK)
    manifest = json.loads((tmp_path / "w" / "dtqw_shock_manifest.json").read_text())
    gate = manifest["diagnostics"]["step_consistency"]
    assert set(gate) == {"value", "limit", "margin"}
    assert gate["limit"] == 1e-10
    assert 0.0 <= gate["value"] <= gate["limit"]
    assert gate["margin"] == pytest.approx(gate["limit"] - gate["value"])
    assert result.ok and manifest["ok"] is True


def test_nonrel_compare_manifest_records_step_consistency(tmp_path):
    _run_cfg(tmp_path / "n", NONREL)
    manifest = json.loads((tmp_path / "n" / "nonrel_compare_manifest.json").read_text())
    gate = manifest["diagnostics"]["step_consistency"]
    assert 0.0 <= gate["value"] <= gate["limit"] == 1e-10


def test_step_consistency_over_its_limit_fails_the_run(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "STEP_CONSISTENCY_LIMIT", 1e-30)
    assert not _run_cfg(tmp_path / "w", SHOCK).ok


@pytest.mark.parametrize("name", ["shock_multimode", "shock_single_mode"])
def test_shipped_shock_csv_agrees_with_stepped_walk(tmp_path, name):
    cfg = parse_config(_shipped(name, tmp_path))
    assert run_experiment(cfg).ok
    data = np.loadtxt(tmp_path / "dtqw_shock_density.csv", delimiter=",", skiprows=1)
    params = wk.build_walk(cfg.n_sites, cfg.mass)
    spec = ShockInitSpec(modes=cfg.modes, q_max=cfg.q_max, mass=cfg.mass)
    steps = [int(np.floor(t / params.dt + 1e-9)) for t in cfg.snapshot_times]
    density = data[:, 2].reshape(len(steps), cfg.n_sites)
    state = phase_modulated_state(params, spec)
    for j, row in zip(steps, density):
        state = wk.march(state, params, j - state.step_index)
        assert np.max(np.abs(row - currents(state).j0)) <= 1e-11


@pytest.mark.parametrize("times", ["1.0, 0.5", "0.5, 0.5"])
def test_cli_rejects_snapshot_times_not_increasing(tmp_path, capsys, times):
    cfg = tmp_path / "unsorted.cfg"
    cfg.write_text(_shipped("nonrel_compare", tmp_path / "out", snapshot_times=times))
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert "snapshot_times" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_importing_the_cli_does_not_load_scipy():
    src = str(Path(qwhydro.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = ("import sys, qwhydro.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("name", ["shock_single_mode", "schrodinger_shock"])
def test_cli_run_rejects_a_phase_gradient_beyond_the_grid(tmp_path, capsys, name):
    # q_max·Σ|a|·k bounds |∂ₓ(mφ)|; above n_sites/2 the initial phase aliases
    cfg = tmp_path / "steep.cfg"
    cfg.write_text(_shipped(name, tmp_path / "out", mode="1e300,1,0"))
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "'mode'" in message and "'q_max'" in message
    assert not (tmp_path / "out").exists()


def test_phase_gradient_may_reach_the_nyquist_wavenumber(tmp_path):
    def steep(q_max):  # n_sites 4096, one mode of unit amplitude and k = 1
        return _shipped("schrodinger_shock", tmp_path, q_max=q_max) + "t_final = 1.5\n"

    assert parse_config(steep("2048")).q_max == 2048.0
    with pytest.raises(ConfigError, match="Nyquist"):
        parse_config(steep("2048.5"))


def test_nonfinite_diagnostic_is_spelled_in_strict_json_and_fails_the_run(
        tmp_path, monkeypatch):
    compute = experiments._COMPUTE["asymptotic_zones"]

    def broken(cfg):
        done = compute(cfg)
        done.diagnostics.update(bad=float("nan"), worse=[float("inf"), -float("inf")])
        return done

    monkeypatch.setitem(experiments._COMPUTE, "asymptotic_zones", broken)
    cfg = tmp_path / "zones.cfg"
    cfg.write_text(_shipped("zones_map", tmp_path / "out"))
    assert main(["run", str(cfg)]) == 2

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    text = (tmp_path / "out" / "asymptotic_zones_manifest.json").read_text()
    manifest = json.loads(text, parse_constant=refuse)
    assert manifest["diagnostics"]["bad"] == "nan"
    assert manifest["diagnostics"]["worse"] == ["inf", "-inf"]
    assert manifest["diagnostics"]["zone_1"] > 0
    assert manifest["ok"] is False
