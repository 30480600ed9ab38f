import dataclasses
import hashlib
import importlib.metadata
import json
import math
import platform
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from qwhydro import asymptotics as asy
from qwhydro import experiments
from qwhydro import walk as wk
from qwhydro.cli import main
from qwhydro.config import EXPERIMENTS, MAP_POINTS, STATE_BYTES, ConfigError, parse_config
from qwhydro.experiments import SpacetimeGrid, emit_spacetime_csv, run_experiment
from qwhydro.hydro import currents
from qwhydro.initial import ShockInitSpec, phase_modulated_state, plane_wave

from conftest import emit_reference, pearcey_mp, scipy_modules_loaded_by


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
    return emit_reference(grid.t, grid.x, grid.values)


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
# sha256 of the intensity CSV of configs/pearcey_map.cfg, each point's value
# the 33-node Gauss–Kronrod sum K(n) on its n panels (the 16-node Gauss rule
# on 2n panels wrote 159483ff…af7c)
PEARCEY_MAP_SHA256 = "14d7ed0d20ab573491ebb44377ac0ed0faa1914e97528867b6f292568a9dfeb7"


# sha256 of the walk data files of three shipped configs before the walk's
# spectrum was cached and its phase factors taken on half the modes
WALK_CSV_SHA256 = {
    "shock_multimode": ("dtqw_shock_density.csv",
                        "a1d8b0b43b242e3eb0210740d13d808ba0e9919518770dac2e2d9cd3656ea4fd"),
    "shock_single_mode": ("dtqw_shock_density.csv",
                          "6f1abec767eb9b990a201c75b7377efa709163bd34c88d4e1bffafb2546a86a1"),
    "planewave": ("dtqw_planewave_density.csv",
                  "d7b8fae4c677be1f0d9108c3525db121145b6e969b22188e3f3f397f53d56a86"),
}


@pytest.mark.parametrize("name", sorted(WALK_CSV_SHA256))
def test_walk_configs_write_their_pinned_bytes(tmp_path, name):
    assert _run_cfg(tmp_path, _shipped(name, tmp_path)).ok
    csv, digest = WALK_CSV_SHA256[name]
    assert hashlib.sha256((tmp_path / csv).read_bytes()).hexdigest() == digest


# FFTs and inverse FFTs each shipped config's run takes: a walk's jump takes
# two of its input and two a nonzero step, once for each step it keeps or checks
SHIPPED_FFT_CALLS = {"nonrel_compare": 40, "pearcey_map": 0, "planewave": 36,
                     "schrodinger_shock": 10, "shock_multimode": 22, "shock_single_mode": 22,
                     "validation": 76, "zones_map": 0}


def test_every_shipped_config_takes_its_pinned_fft_calls(tmp_path):
    assert set(SHIPPED_FFT_CALLS) == {path.stem for path in CONFIGS.glob("*.cfg")}
    counted = {}
    for name in SHIPPED_FFT_CALLS:
        cfg = parse_config(_shipped(name, tmp_path / name))
        run_experiment(cfg)
        manifest = tmp_path / name / f"{cfg.experiment}_manifest.json"
        counted[name] = json.loads(manifest.read_text())["telemetry"]["fft_calls"]
    assert counted == SHIPPED_FFT_CALLS


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


def test_pearcey_map_writes_its_pinned_bytes_and_counts_its_nodes(tmp_path):
    # pearcey_nodes is Σ 33n over the window's points, the same on a rerun
    manifests = []
    for run in ("p1", "p2"):
        assert _run_cfg(tmp_path / run, _shipped("pearcey_map", tmp_path / run)).ok
        csv = (tmp_path / run / "pearcey_map.csv").read_bytes()
        assert hashlib.sha256(csv).hexdigest() == PEARCEY_MAP_SHA256
        manifests.append(json.loads((tmp_path / run / "pearcey_map_manifest.json").read_text()))
    chart = asy.ShockChart.from_mass(20.0)
    T, X = asy.shock_coords(np.linspace(-1.0, 1.0, 41)[None, :],
                            np.linspace(0.6, 1.8, 25)[:, None], chart)
    point_nodes = asy.pearcey_nodes(*np.broadcast_arrays(-T, X))
    assert point_nodes.shape == (25, 41)
    nodes = [manifest["diagnostics"]["pearcey_nodes"] for manifest in manifests]
    assert nodes == [int(point_nodes.sum())] * 2 and type(nodes[0]) is int


def test_pearcey_map_runs_and_is_deterministic(tmp_path):
    r1 = _run_cfg(tmp_path / "p1", PEARCEY)
    r2 = _run_cfg(tmp_path / "p2", PEARCEY)
    a = (tmp_path / "p1" / "pearcey_map.csv").read_bytes()
    b = (tmp_path / "p2" / "pearcey_map.csv").read_bytes()
    assert a == b
    assert r1.diagnostics["max_intensity"] == r2.diagnostics["max_intensity"]


def test_pearcey_map_agrees_with_mpmath_and_direct_on_shipped_window(tmp_path):
    # references that share none of the map's quadrature: mpmath at 40
    # digits anywhere on the window, the real-axis route where |T|, |X| ≤ 10
    result = _run_cfg(tmp_path, _shipped("pearcey_map", tmp_path))
    assert result.ok
    chart = asy.ShockChart.from_mass(20.0)
    rows = np.loadtxt(tmp_path / "pearcey_map.csv", delimiter=",", skiprows=1)
    assert len(rows) == 41 * 25
    points = []
    for t, x, intensity in rows:
        T, X, A = asy.shock_map(x, t, chart)
        points.append((-T, X, np.sqrt(intensity) / abs(A)))
    rng = np.random.default_rng(43)
    for i in rng.choice(len(points), 8, replace=False):
        T, X, magnitude = points[i]
        assert abs(magnitude - abs(pearcey_mp(T, X))) < 1e-6
    in_range = [p for p in points if abs(p[0]) <= 10 and abs(p[1]) <= 10]
    for i in rng.choice(len(in_range), 12, replace=False):
        T, X, magnitude = in_range[i]
        assert abs(magnitude - abs(asy.pearcey_direct(T, X))) < 1e-6


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
    # the soak is jumped, and checked against one stepped step like every jumped run
    consistency = man["diagnostics"]["step_consistency"]
    assert set(consistency) == {"value", "limit", "margin"}
    assert consistency["limit"] == 1e-10 and consistency["margin"] >= 0


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


def test_cli_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"experiment = validation\nmass = 4\n# caf\xe9\n")
    with pytest.raises(SystemExit) as err:
        main(["validate", str(cfg)])
    assert err.value.code == 2
    assert f"config error: {cfg} is not UTF-8 text" in capsys.readouterr().err


def test_cli_rejects_planewave_setting_t_final_and_n_steps(tmp_path, capsys):
    # t_final only sets the default n_steps: a run given both took n_steps
    # and its manifest echoed a t_final it never reached
    cfg = tmp_path / "both.cfg"
    cfg.write_text("experiment = dtqw_planewave\nn_sites = 64\nmass = 4\nq = 0\n"
                   f"t_final = 1\nn_steps = 5\noutput_dir = {tmp_path / 'out'}\n")
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert "'t_final'" in message and "'n_steps'" in message
    assert not (tmp_path / "out").exists()


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
                                  "zones_map", "shock_multimode", "shock_single_mode"])
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


def test_planewave_manifest_records_step_consistency(tmp_path):
    result = _run_cfg(tmp_path / "pw", PLANEWAVE)
    manifest = json.loads((tmp_path / "pw" / "dtqw_planewave_manifest.json").read_text())
    gate = manifest["diagnostics"]["step_consistency"]
    assert set(gate) == {"value", "limit", "margin"}
    assert gate["limit"] == 1e-10
    assert 0.0 <= gate["value"] <= gate["limit"]
    assert gate["margin"] == pytest.approx(gate["limit"] - gate["value"])
    assert result.ok and manifest["ok"] is True


def test_step_consistency_over_its_limit_fails_the_planewave_run(tmp_path, monkeypatch):
    monkeypatch.setattr(experiments, "STEP_CONSISTENCY_LIMIT", 1e-30)
    assert not _run_cfg(tmp_path / "pw", PLANEWAVE).ok
    manifest = json.loads((tmp_path / "pw" / "dtqw_planewave_manifest.json").read_text())
    assert manifest["diagnostics"]["step_consistency"]["margin"] < 0
    assert manifest["ok"] is False


# A plane wave's amplitudes grow like √(|q|/mass): at these masses the two
# kernels agreed to roundoff, yet an absolute gap read 2.8e-9 and 4e59.
TINY_MASS_PLANEWAVE = "experiment = dtqw_planewave\nn_sites = 64\nq = 1\nn_steps = 10\n" \
    "mass = {mass}\n"


@pytest.mark.parametrize("mass", ["1e-14", "1e-150"])
def test_cli_planewave_at_tiny_mass_gates_a_relative_step_consistency(tmp_path, mass):
    cfg = tmp_path / "pw.cfg"
    cfg.write_text(TINY_MASS_PLANEWAVE.format(mass=mass) + f"output_dir = {tmp_path}\n")
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "dtqw_planewave_manifest.json").read_text())
    assert manifest["diagnostics"]["step_consistency"]["value"] <= 1e-14


WALKING = {"dtqw_shock": SHOCK, "dtqw_planewave": PLANEWAVE, "nonrel_compare": NONREL,
           "validation": VALIDATION}


@pytest.mark.parametrize("name", WALKING)
def test_every_walking_run_records_the_walk_diagnostics(tmp_path, name):
    assert set(WALKING) == {key for key, spec in EXPERIMENTS.items() if spec.walk}
    assert _run_cfg(tmp_path, WALKING[name]).ok
    manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
    diagnostics = manifest["diagnostics"]
    assert 0.0 < diagnostics["initial_norm"] < np.inf
    assert 0.0 <= diagnostics["norm_drift"] <= 1e-12
    gate = diagnostics["step_consistency"]
    assert set(gate) == {"value", "limit", "margin"}
    assert gate["limit"] == 1e-10 and gate["margin"] == gate["limit"] - gate["value"] >= 0


@pytest.mark.parametrize("name, last", [("dtqw_shock", 40), ("dtqw_planewave", 2000),
                                        ("nonrel_compare", 81), ("validation", 1500)])
def test_every_walking_run_records_its_last_step(tmp_path, name, last):
    # the step of the last snapshot, where step_consistency is checked
    cfg = parse_config(WALKING[name].format(out=tmp_path))
    assert run_experiment(cfg).ok
    manifest = json.loads((tmp_path / f"{name}_manifest.json").read_text())
    assert manifest["diagnostics"]["last_step"] == last == experiments.walk_steps(cfg)[-1]
    assert type(manifest["diagnostics"]["last_step"]) is int
    if "realized_times" in manifest:
        assert manifest["realized_times"][-1] == last * wk.build_walk(cfg.n_sites, cfg.mass).dt


@st.composite
def _small_walk_configs(draw):
    """A dtqw_planewave or validation config on a small lattice, at any mass."""
    experiment = draw(st.sampled_from(["dtqw_planewave", "validation"]))
    n_sites = draw(st.sampled_from([4, 6, 8, 16, 64]))
    text = (f"experiment = {experiment}\nn_sites = {n_sites}\n"
            f"mass = {10.0 ** draw(st.floats(-300, 300))!r}\n"
            f"n_steps = {draw(st.integers(0, 40))}\n")
    if experiment == "dtqw_planewave":
        text += f"q = {draw(st.integers(-(n_sites // 2), n_sites // 2))}\n"
    return text


@settings(max_examples=200, deadline=None)
@given(_small_walk_configs())
@example(TINY_MASS_PLANEWAVE.format(mass="1e-14"))
@example(TINY_MASS_PLANEWAVE.format(mass="1e-150"))
def test_small_walk_config_that_validates_runs_ok(text):
    with tempfile.TemporaryDirectory() as out:
        try:
            cfg = parse_config(text + f"output_dir = {out}\n")
        except ConfigError:
            reject()
        assert run_experiment(cfg).ok


PLANEWAVE_CASES = {
    "shipped": _shipped("planewave", "{out}"),
    "small_q0": "experiment = dtqw_planewave\nn_sites = 64\nmass = 8\nq = 0\n"
                "n_steps = 3000\noutput_dir = {out}\n",
    "small_q2": "experiment = dtqw_planewave\nn_sites = 64\nmass = 8\nq = 2\n"
                "n_steps = 3000\noutput_dir = {out}\n",
}


def _stepped(state, params, n_steps):
    """`n_steps` applications of step_walk: the stepped route, independent of
    propagate (evolve jumps long strides with propagate)."""
    for _ in range(n_steps):
        state = wk.step_walk(state, params)
    return state


@pytest.mark.parametrize("text", PLANEWAVE_CASES.values(), ids=PLANEWAVE_CASES.keys())
def test_jumped_planewave_csv_agrees_with_stepped_walk(tmp_path, text):
    # the run jumps with propagate; step_walk steps the same walk independently
    cfg = parse_config(text.format(out=tmp_path))
    assert run_experiment(cfg).ok
    data = np.loadtxt(tmp_path / "dtqw_planewave_density.csv", delimiter=",", skiprows=1)
    first, last = data[:, 2].reshape(2, cfg.n_sites)
    params = wk.build_walk(cfg.n_sites, cfg.mass)
    state = plane_wave(params, cfg.q)
    assert np.array_equal(first, currents(state).j0)
    stepped = _stepped(state, params, cfg.n_steps)
    assert np.max(np.abs(last - currents(stepped).j0)) <= 1e-12
    # a plane wave's density stays uniform
    assert np.ptp(last) <= 1e-13


def test_manifest_telemetry_records_stages_memory_and_versions(tmp_path):
    _run_cfg(tmp_path / "pw", PLANEWAVE)
    manifest = json.loads((tmp_path / "pw" / "dtqw_planewave_manifest.json").read_text())
    telemetry = manifest["telemetry"]
    assert set(telemetry) == {"stage_wall_s", "fft_calls", "csv_rows", "peak_rss_mb",
                              "versions"}
    # the density CSV's rows: the sites at the first and the last step
    rows = (tmp_path / "pw" / "dtqw_planewave_density.csv").read_text().count("\n") - 1
    assert telemetry["csv_rows"] == rows == 2 * 512
    # the jump takes one FFT per component and one inverse FFT per component
    # and snapshot, so a walking run counts some, the same on every rerun
    assert isinstance(telemetry["fft_calls"], int) and telemetry["fft_calls"] > 0
    _run_cfg(tmp_path / "again", PLANEWAVE)
    again = json.loads((tmp_path / "again" / "dtqw_planewave_manifest.json").read_text())
    assert again["telemetry"]["fft_calls"] == telemetry["fft_calls"]
    assert set(telemetry["stage_wall_s"]) == {"compute", "emit", "manifest"}
    assert all(seconds >= 0.0 for seconds in telemetry["stage_wall_s"].values())
    assert telemetry["peak_rss_mb"] > 0.0
    assert telemetry["versions"] == {"python": platform.python_version(),
                                     "numpy": np.__version__,
                                     "scipy": importlib.metadata.version("scipy")}


def _with(name, **lines):
    """A shipped config with keys set: replaced where it sets them, else added."""
    text = _shipped(name, "out", **lines)
    return text + "".join(f"{key} = {value}\n" for key, value in lines.items()
                          if f"{key} = {value}\n" not in text)


# 2^27 steps of 2π/4096 take t ≈ 205887, of 2π/64 t ≈ 1.3e7
OUTSIDE_THE_EXACT_RANGE = {
    "planewave_n_steps": (_with("planewave", n_steps=2 ** 27), "'n_steps'"),
    "validation_n_steps": (_with("validation", n_steps=2 ** 27), "'n_steps'"),
    "planewave_t_final": ("experiment = dtqw_planewave\nn_sites = 64\nmass = 4\n"
                          "t_final = 2e7\n", "'t_final'"),
    "shock_t_final": (_with("shock_single_mode", t_final="3e5"), "'t_final'"),
    "shock_default_t_final": (_with("shock_single_mode", q_max="0.001"), "'t_final'"),
    "nonrel_snapshot_times": (_with("nonrel_compare", t_final="3e5",
                                    snapshot_times="0, 2.5e5"), "'snapshot_times'"),
}


@pytest.mark.parametrize("text, field", OUTSIDE_THE_EXACT_RANGE.values(),
                         ids=OUTSIDE_THE_EXACT_RANGE.keys())
def test_cli_validate_rejects_a_jumped_step_outside_the_exact_range(tmp_path, capsys,
                                                                    text, field):
    cfg = tmp_path / "far.cfg"
    cfg.write_text(text)
    with pytest.raises(SystemExit) as err:
        main(["validate", str(cfg)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert field in message and "2^27" in message


def test_cli_validate_accepts_the_last_step_of_the_exact_range(tmp_path):
    cfg = tmp_path / "edge.cfg"
    for name in ("planewave", "validation"):
        cfg.write_text(_with(name, n_steps=wk.EXACT_STEPS - 1))
        assert main(["validate", str(cfg)]) == 0


def _exits_2_naming(cfg, capsys, *fields):
    with pytest.raises(SystemExit) as err:
        main(["validate", str(cfg)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert all(field in message for field in fields)


@pytest.mark.parametrize("name", ["pearcey_map", "zones_map"])
def test_cli_validate_rejects_a_map_window_over_its_budget(tmp_path, capsys, name):
    cfg = tmp_path / "window.cfg"
    cfg.write_text(_with(name, nx="100000", nt="100000"))
    _exits_2_naming(cfg, capsys, "'nx'", "'nt'")
    # nx·nt at the budget passes, one row more does not
    nt = MAP_POINTS // 10000
    cfg.write_text(_with(name, nx="10000", nt=str(nt)))
    assert main(["validate", str(cfg)]) == 0
    cfg.write_text(_with(name, nx="10000", nt=str(nt + 1)))
    _exits_2_naming(cfg, capsys, "'nx'", "'nt'")


@pytest.mark.parametrize("mass", ["5e-324", "1e308"])
def test_cli_rejects_a_zones_map_whose_chart_is_not_finite(tmp_path, capsys, mass):
    # at 5e-324 the chart reads X = NaN everywhere and at 1e308 T³ overflows:
    # both runs used to exit 0 with a mislabelled map
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(_with("zones_map", mass=mass, nx="3", nt="3", output_dir=tmp_path / "out"))
    _exits_2_naming(cfg, capsys, "'mass'", "'x_min'", "'t_max'")
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()


WINDOW_OVERFLOWS = {
    # 2·ε·t overflows in the chart: both runs warned, and pearcey_map wrote
    # intensities of exactly 0
    "zones_chart": ("zones_map", {"mass": "1e-300", "t_max": "1e300"}, ("'mass'", "'t_max'")),
    "pearcey_chart": ("pearcey_map", {"mass": "1e-300", "t_max": "1e300"},
                      ("'mass'", "'t_max'")),
    # 2π·t·ε of pearcey_map's |A|² overflows where the chart does not
    "pearcey_prefactor": ("pearcey_map", {"mass": "0.1", "t_max": "3e306"},
                          ("'mass'", "'t_max'")),
    # x_max − x_min overflows: linspace filled the grid with nan and the run exited 1
    "zones_x_span": ("zones_map", {"mass": "1e-200", "x_min": "-1e308", "x_max": "1e308",
                                   "t_min": "1e6", "t_max": "2e6"}, ("'x_min'", "'x_max'")),
}


@pytest.mark.parametrize("name, keys, fields", WINDOW_OVERFLOWS.values(),
                         ids=WINDOW_OVERFLOWS.keys())
def test_cli_rejects_a_window_that_overflows(tmp_path, capsys, name, keys, fields):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(_with(name, nx="3", nt="3", output_dir=tmp_path / "out", **keys))
    _exits_2_naming(cfg, capsys, *fields)
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()


# Walks whose initial amplitudes overflow in √(1 + q̃²) once |q̃| = |q|/m passes
# ≈ 1.3e154: the plane wave exited 1 (a Python-float OverflowError), the shock
# wrote only nan and inf, and nonrel_compare exited 1
STATE_OVERFLOWS = {
    "planewave": ("experiment = dtqw_planewave\nn_sites = 64\nmass = 1e-155\nq = 1\n"
                  "n_steps = 10\n", ("'q'", "'mass'")),
    "shock": ("experiment = dtqw_shock\nn_sites = 64\nmass = 1e-300\nq_max = 1\n"
              "t_final = 6\nmode = 1.0,1,0.0\n", ("'q_max'", "'mode'", "'mass'")),
    "nonrel": ("experiment = nonrel_compare\nn_sites = 64\nmass = 1e-300\nq_max = 1\n"
               "t_final = 6\nmode = 1.0,1,0.0\n", ("'q_max'", "'mode'", "'mass'")),
}


# Shock configs that validated and then exited 1: their phase φ = (q_max/m)·Σ
# a·cos(kx + δ) is out of the floats ("velocity field is not finite", or
# "wavefunction must be finite" for schrodinger_shock), or spectral_propagate's
# factor e^{−ik²t/(2m)} is ("wavefunction must be finite")
RUN_OVERFLOWS = {
    **{f"{name}_phase{steep}": (f"experiment = {name}\nn_sites = 64\nmass = {mass}\n"
                                f"q_max = {q_max}\nt_final = 1.0\nmode = {a},1,0.0\n",
                                ("'q_max'", "'mode'", "'mass'"))
       for name in ("dtqw_shock", "nonrel_compare")
       for steep, mass, q_max, a in (("", "5e-324", "1.0", "0.0"),
                                     ("_steep", "1e-20", "1e300", "1e-300"))},
    "schrodinger_shock_phase": ("experiment = schrodinger_shock\nn_sites = 64\n"
                                "mass = 5e-324\nq_max = 1e-300\nmode = 1e300,1,0.0\n",
                                ("'q_max'", "'mode'", "'mass'")),
    **{f"{name}_factor": (f"experiment = {name}\nn_sites = 64\nmass = 5e-324\n"
                          f"q_max = 5e-324\nmode = 0.0,1,0.0\n", ("'mass'", "'t_final'"))
       for name in ("schrodinger_shock", "nonrel_compare")},
    # k²t/(2m) ≈ 5e-21, but numpy's complex division by 2m overflows in 1/(2m)
    "schrodinger_shock_factor_division": ("experiment = schrodinger_shock\nn_sites = 64\n"
                                          "mass = 5e-324\nq_max = 1e-300\n"
                                          "mode = 0.0,1,0.0\n", ("'mass'", "'t_final'")),
    "schrodinger_shock_factor_snapshots": ("experiment = schrodinger_shock\nn_sites = 64\n"
                                           "mass = 5e-324\nq_max = 5e-324\n"
                                           "mode = 0.0,1,0.0\nsnapshot_times = 0.0, 0.5\n",
                                           ("'mass'", "'snapshot_times'")),
    # the bound 1e22·n_sites²·√1.5/mass on nonrel_compare's relative velocity
    # norm overflows: the run wrote velocity_l2 = "inf" and exited 0 (exit 1
    # with RuntimeWarning an error)
    "nonrel_compare_velocity_norms": ("experiment = nonrel_compare\nn_sites = 64\n"
                                      "mass = 1e-300\nq_max = 5e-324\nt_final = 1\n"
                                      "mode = 1e-300,1,0\n", ("'mass'",)),
    # schrodinger_hydro's velocity denominator mass·|ψ|² overflows, for
    # |ψ|² ≤ n_sites: the run wrote all-zero velocities and exited 0
    **{f"{name}_velocity_scale": (f"experiment = {name}\nn_sites = 64\n"
                                  "mass = 1.7976931348623157e308\nq_max = 1\n"
                                  "t_final = 1\nmode = 1.0,1,0.0\n", ("'mass'",))
       for name in ("schrodinger_shock", "nonrel_compare")},
}


@pytest.mark.parametrize("text, fields", [*STATE_OVERFLOWS.values(), *RUN_OVERFLOWS.values()],
                         ids=[*STATE_OVERFLOWS, *RUN_OVERFLOWS])
def test_cli_rejects_a_walk_whose_initial_state_overflows(tmp_path, capsys, text, fields):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(text + f"output_dir = {tmp_path / 'out'}\n")
    _exits_2_naming(cfg, capsys, *fields)
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("t_final", ["", "t_final = 1.0\n"], ids=["default_t", "t1"])
@pytest.mark.parametrize("amplitude", [0.0, 1e-300, 1.0, 1e300])
@pytest.mark.parametrize("q_max", [5e-324, 1e-300, 1.0, 1e300])
@pytest.mark.parametrize("mass", [5e-324, 1e-20, 1.0, 1.7976931348623157e308])
@pytest.mark.parametrize("experiment", ["dtqw_shock", "nonrel_compare", "schrodinger_shock"])
def test_an_extreme_shock_config_is_refused_or_runs(tmp_path, experiment, mass, q_max,
                                                    amplitude, t_final):
    # a config that validates must never fail inside the run, the CLI's exit 1,
    # nor warn on its way; whether the run is ok is not asked here
    text = (f"experiment = {experiment}\nn_sites = 64\nmass = {mass!r}\n"
            f"q_max = {q_max!r}\nmode = {amplitude!r},1,0.0\n{t_final}"
            f"output_dir = {tmp_path}\n")
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run_experiment(cfg)


@pytest.mark.parametrize("mass, q_max, amplitude, least", [
    # velocities near 1e170: np.linalg.norm overflowed in its dot product and
    # the run wrote velocity_l2 = "inf"; ‖v_walk − v_ref‖ is over 1e154, over
    # the 1e-12 floor
    ("1e-200", "5e-324", "1e-155", 1e154 * 1e12),
    # a walk of density 1e150: the velocity's quotient overflowed at the sites
    # schrodinger_hydro masks out
    ("1e-180", "1e-30", "1.0", 0.0)])
def test_nonrel_compare_runs_without_warning_at_a_tiny_mass(tmp_path, mass, q_max,
                                                           amplitude, least):
    cfg = parse_config(f"experiment = nonrel_compare\nn_sites = 64\nmass = {mass}\n"
                       f"q_max = {q_max}\nmode = {amplitude},1,0\nt_final = 1\n"
                       f"output_dir = {tmp_path}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_experiment(cfg).ok
    records = json.loads((tmp_path / "nonrel_compare.json").read_text())
    l2 = [record["velocity_l2"] for record in records]
    assert all(type(value) is float and math.isfinite(value) for value in l2)
    assert max(l2) > least


def test_cli_validate_accepts_a_rest_plane_wave_at_any_mass(tmp_path):
    cfg = tmp_path / "rest.cfg"
    cfg.write_text("experiment = dtqw_planewave\nn_sites = 64\nmass = 5e-324\nq = 0\n"
                   "n_steps = 10\n")
    assert main(["validate", str(cfg)]) == 0


# the mass at which sin θ = sin(2π·mass/64) reaches the smallest normal double
SUBNORMAL_EDGE = float(np.finfo(float).tiny * 64 / (2 * np.pi))
REST_WAVE = "experiment = dtqw_planewave\nn_sites = {n}\nq = 0\nn_steps = 10\nmass = {mass!r}\n"


@pytest.mark.parametrize("n, mass", [(64, 1e-321), (64, 0.99 * SUBNORMAL_EDGE),
                                     (4, 1.7976931348623157e308)])
def test_cli_rejects_a_walk_whose_coin_sine_is_subnormal_or_not_finite(tmp_path, capsys,
                                                                        n, mass):
    # a subnormal sin θ overflows 1/(2 sin ω) at κ = 0, and θ = 2π·mass/4 overflows
    # to inf: either way the run wrote nan states
    cfg = tmp_path / "sub.cfg"
    cfg.write_text(REST_WAVE.format(n=n, mass=mass) + f"output_dir = {tmp_path / 'out'}\n")
    _exits_2_naming(cfg, capsys, "'mass'", "'n_sites'")
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()


def test_cli_runs_a_walk_whose_coin_sine_is_just_normal(tmp_path):
    cfg = tmp_path / "normal.cfg"
    cfg.write_text(REST_WAVE.format(n=64, mass=1.01 * SUBNORMAL_EDGE)
                   + f"output_dir = {tmp_path}\n")
    assert main(["validate", str(cfg)]) == 0
    assert main(["run", str(cfg)]) == 0
    manifest = json.loads((tmp_path / "dtqw_planewave_manifest.json").read_text())
    diagnostics = manifest["diagnostics"]
    assert np.isfinite(diagnostics["norm_drift"]) and diagnostics["norm_drift"] <= 1e-12
    assert np.isfinite(diagnostics["step_consistency"]["value"])


def test_walk_norm_drift_keeps_a_nan(tmp_path):
    # past validation, a subnormal sin θ turns every jumped state nan, and the
    # drift must say so: Python's max let the finite step-0 drift win
    cfg = parse_config(REST_WAVE.format(n=64, mass=1.0))
    cfg = dataclasses.replace(cfg, mass=1e-321)
    params = wk.build_walk(cfg.n_sites, cfg.mass)
    snaps = []
    with np.errstate(all="ignore"):
        walked = experiments._walk(cfg, plane_wave(params, 0.0), params,
                                   lambda i, snap, row: snaps.append(snap))
    assert np.all(np.isnan(snaps[-1].left)) and np.isfinite(snaps[0].left).all()
    assert np.isnan(walked["norm_drift"])


def test_cli_rejects_a_pearcey_map_over_its_quadrature_work(tmp_path, capsys):
    # near t = 0 one point's contour takes ~10¹⁵ nodes: the run used to exit 1,
    # unable to allocate them
    cfg = tmp_path / "early.cfg"
    cfg.write_text(_with("pearcey_map", nx="2", nt="2", t_min="1e-6",
                         output_dir=tmp_path / "out"))
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert "'t_min'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_validate_bounds_a_pearcey_map_by_its_nodes_not_its_points(tmp_path, capsys):
    cfg = tmp_path / "heavy.cfg"
    for mass in ("50", "100"):  # the shipped window
        cfg.write_text(_with("pearcey_map", mass=mass))
        assert main(["validate", str(cfg)]) == 0
    # 10⁷ points pass at mass 20, but a mass-100 point costs 4.4 times the nodes
    cfg.write_text(_with("pearcey_map", mass="100", nx="10000", nt=str(MAP_POINTS // 10000)))
    _exits_2_naming(cfg, capsys, "'nx'", "'nt'", "'mass'")


# Windows whose rotated Pearcey integrand leaves the floats: the runs wrote inf
# and nan into pearcey_map.csv and exited 2 naming no field, or 1 under
# PYTHONWARNINGS=error::RuntimeWarning
PEARCEY_OVERFLOWS = {
    "integrand": {"mass": "4", "x_min": "4", "x_max": "64", "nt": "64"},
    "intensity": {"mass": "1024", "nx": "7", "t_max": "3.0"},
}


@pytest.mark.parametrize("keys", PEARCEY_OVERFLOWS.values(), ids=PEARCEY_OVERFLOWS.keys())
def test_cli_rejects_a_pearcey_map_whose_values_overflow(tmp_path, capsys, keys):
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(_with("pearcey_map", output_dir=tmp_path / "out", **keys))
    _exits_2_naming(cfg, capsys, "'mass'", "'x_min'", "'x_max'", "'t_min'", "'t_max'")
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    assert not (tmp_path / "out").exists()


def test_pearcey_map_windows_that_validate_run_without_a_warning(tmp_path):
    # random small windows, near and far from the cusp at masses 1 to 2000: a
    # RuntimeWarning fails the test, and every value written is finite
    rng = np.random.default_rng(22)
    ran = refused = 0
    for i in range(200):
        t_min = 10 ** rng.uniform(-1.5, 0.5)
        x_min = rng.uniform(-80, 80)
        text = (f"experiment = pearcey_map\nmass = {10 ** rng.uniform(0, 3.3)!r}\n"
                f"x_min = {x_min!r}\nx_max = {x_min + 10 ** rng.uniform(-2, 2)!r}\n"
                f"t_min = {t_min!r}\nt_max = {t_min + 10 ** rng.uniform(-2, 0.7)!r}\n"
                f"nx = {rng.integers(2, 10)}\nnt = {rng.integers(2, 10)}\n"
                f"output_dir = {tmp_path / str(i)}\n")
        try:
            cfg = parse_config(text)
        except ConfigError as exc:
            refused += "Pearcey intensity" in str(exc)
            continue
        run_experiment(cfg)
        rows = np.loadtxt(tmp_path / str(i) / "pearcey_map.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(rows))
        ran += 1
    assert ran >= 10 and refused >= 50


SHARED_STEP = {
    # the default schedule puts nine times in t_final = 0.2, about two steps
    "default_schedule": ("experiment = dtqw_shock\nn_sites = 64\nmass = 4\nq_max = 0.4\n"
                         "mode = 1,1,0\nt_final = 0.2\noutput_dir = {out}\n", "'t_final'"),
    "snapshot_times": (_shipped("nonrel_compare", "{out}", snapshot_times="0.0, 0.001, 1.0"),
                       "'snapshot_times'"),
}


@pytest.mark.parametrize("text, field", SHARED_STEP.values(), ids=SHARED_STEP.keys())
def test_cli_rejects_snapshot_times_on_one_walk_step(tmp_path, capsys, text, field):
    # each requested time gets a step of its own; the run used to write fewer
    # rows than it was asked for
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(text.format(out=tmp_path / "out"))
    with pytest.raises(SystemExit) as err:
        main(["run", str(cfg)])
    assert err.value.code == 2
    message = capsys.readouterr().err
    assert field in message and "same step" in message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["planewave", "validation", "shock_single_mode",
                                  "schrodinger_shock", "nonrel_compare"])
def test_cli_validate_rejects_a_lattice_over_its_memory_budget(tmp_path, capsys, name):
    cfg = tmp_path / "lattice.cfg"
    cfg.write_text(_with(name, n_sites=str(2 ** 40)))
    _exits_2_naming(cfg, capsys, "'n_sites'")
    # one walk state at the budget passes, two sites more do not
    largest = STATE_BYTES // 32
    cfg.write_text(_with(name, n_sites=str(largest)))
    assert main(["validate", str(cfg)]) == 0
    cfg.write_text(_with(name, n_sites=str(largest + 2)))
    _exits_2_naming(cfg, capsys, "'n_sites'")


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
        state = _stepped(state, params, j - state.step_index)
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
    assert scipy_modules_loaded_by("import qwhydro.cli") == "[]"


def test_importing_the_cli_builds_no_tables():
    # numpy.polynomial (the Gauss–Legendre rules) and the walk's spectrum
    # are loaded and built on first use, not with the package
    code = ("import qwhydro.cli\nfrom qwhydro import walk\n"
            "print('numpy.polynomial' in sys.modules, walk._spectrum.cache_info().currsize)")
    out = scipy_modules_loaded_by("import sys\n" + code)
    assert out.splitlines()[0] == "False 0"


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
    spec = EXPERIMENTS["asymptotic_zones"]

    def broken(cfg):
        done = spec.compute(cfg)
        done.diagnostics.update(bad=float("nan"), worse=[float("inf"), -float("inf")])
        return done

    monkeypatch.setitem(EXPERIMENTS, "asymptotic_zones", dataclasses.replace(spec, compute=broken))
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


def test_a_shock_walk_holds_its_density_rows_not_its_snapshots():
    # each snapshot is reduced to its density row as it arrives, so the peak
    # grows with the snapshot count by the rows, 8 B a site a snapshot, where
    # held states would add 32 B; each snapshot's step and drift take a few
    # list and dict entries more, well under 256 B
    def peak(count):
        times = ", ".join(repr(15.0 * i / (count - 1)) for i in range(count))
        cfg = parse_config("experiment = dtqw_shock\nn_sites = 4096\nmass = 512.0\n"
                           "q_max = 51.2\nmode = 1,1,0\nmode = 0.5,2,0.9\n"
                           f"t_final = 15.0\nsnapshot_times = {times}\n")
        EXPERIMENTS["dtqw_shock"].compute(cfg)  # the walk's tables are built once
        tracemalloc.start()
        try:
            EXPERIMENTS["dtqw_shock"].compute(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(65) - peak(17) <= (8 * 4096 + 256) * (65 - 17)


def test_validation_draws_its_states_as_the_scalar_loop_drew_them():
    # one draw of 20 states × 2 components × 9 modes × (re, im) gives the
    # coefficients 0.4·(re + i·im) that 720 scalar draws gave, bit for bit
    seed = 20260810
    rng = np.random.default_rng(seed)
    scalar = [0.4 * (rng.normal() + 1j * rng.normal()) for _ in range(20 * 2 * 9)]
    drawn = 0.4 * np.random.default_rng(seed).normal(size=(20, 2, 9, 2)).view(complex)
    assert np.array_equal(drawn[..., 0].ravel(), scalar)
    assert all(a.tobytes() == np.complex128(b).tobytes()
               for a, b in zip(drawn[..., 0].ravel(), scalar))
