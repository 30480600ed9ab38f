import pytest

from qwhydro.config import ConfigError, parse_config

FIG_STYLE = """
# multimode shock, heaviest-mass panel
experiment = dtqw_shock
n_sites = 4096
mass = 512
q_max = 51.2
mode = 1.0,1,0.0
mode = 0.3333333333333333,3,0.0
mode = 0.5,2,0.9
output_dir = out
"""


def test_parse_reference_shock_config():
    cfg = parse_config(FIG_STYLE)
    assert cfg.experiment == "dtqw_shock"
    assert cfg.n_sites == 4096
    assert cfg.mass == 512.0
    assert cfg.q_max == 51.2
    assert len(cfg.modes) == 3
    assert cfg.modes[2].phase_offset == 0.9
    # default horizon: 1.5 of the characteristic caustic time 1/u_max
    assert cfg.t_final == pytest.approx(15.0)
    assert cfg.snapshot_times[0] == 0.0
    assert cfg.snapshot_times[-1] == pytest.approx(15.0)


def test_missing_mass_names_field():
    text = "experiment = dtqw_planewave\nn_sites = 64\n"
    with pytest.raises(ConfigError, match="mass"):
        parse_config(text)


def test_odd_n_sites_rejected():
    text = "experiment = dtqw_planewave\nn_sites = 4095\nmass = 16\n"
    with pytest.raises(ConfigError, match="n_sites"):
        parse_config(text)


def test_unknown_key_with_line_number():
    text = "experiment = validation\nmass = 16\nbogus = 3\n"
    with pytest.raises(ConfigError, match="line 3.*bogus"):
        parse_config(text)


def test_duplicate_key_rejected():
    text = "experiment = validation\nmass = 16\nmass = 17\n"
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(text)


def test_bad_mode_line():
    text = "experiment = dtqw_shock\nn_sites = 64\nmass = 4\nq_max = 1\nmode = 1.0,1\n"
    with pytest.raises(ConfigError, match="mode"):
        parse_config(text)


def test_unknown_experiment():
    with pytest.raises(ConfigError, match="experiment"):
        parse_config("experiment = frobnicate\n")


def test_snapshot_times_range_checked():
    text = ("experiment = schrodinger_shock\nn_sites = 64\nmass = 4\nq_max = 4\n"
            "mode = 1,1,0\nt_final = 1.0\nsnapshot_times = 0.5, 2.0\n")
    with pytest.raises(ConfigError, match="snapshot time"):
        parse_config(text)


def test_tolerances_parsed_and_validated():
    text = ("experiment = validation\nmass = 16\nn_sites = 64\n"
            "tol.norm_drift = 1e-11\n")
    cfg = parse_config(text)
    assert cfg.tolerances == {"norm_drift": 1e-11}
    bad = "experiment = validation\nmass = 16\ntol.norm_drift = -1\n"
    with pytest.raises(ConfigError, match="norm_drift"):
        parse_config(bad)


def test_pearcey_map_grid_defaults_and_checks():
    cfg = parse_config("experiment = pearcey_map\nmass = 20\n")
    assert cfg.nx > 1 and cfg.nt > 1 and cfg.t_min > 0
    with pytest.raises(ConfigError, match="pearcey_tol"):
        parse_config("experiment = pearcey_map\nmass = 20\npearcey_tol = 0.1\n")


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("# header\n\nexperiment = validation\nmass = 16\n# done\n")
    assert cfg.experiment == "validation"


def test_garbled_line_reports_position():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("experiment = validation\nnonsense without equals\n")


@pytest.mark.parametrize("text, field", [
    ("experiment = pearcey_map\nmass = 20\nx_min = nan\n", "x_min"),
    ("experiment = pearcey_map\nmass = 20\nt_max = inf\n", "t_max"),
    ("experiment = dtqw_planewave\nn_sites = 64\nmass = nan\n", "mass"),
    ("experiment = dtqw_shock\nn_sites = 64\nmass = 4\nq_max = inf\n"
     "mode = 1,1,0\n", "q_max"),
    ("experiment = validation\nmass = 16\ntol.norm_drift = nan\n", "norm_drift"),
], ids=["x_min", "t_max", "mass", "q_max", "tolerance"])
def test_nonfinite_values_rejected_by_name(text, field):
    with pytest.raises(ConfigError, match=field):
        parse_config(text)


@pytest.mark.parametrize("window, field", [
    ("x_min = 1\nx_max = -1\n", "x_min"),
    ("x_min = 0.5\nx_max = 0.5\n", "x_min"),
    ("t_min = 1.5\nt_max = 1.0\n", "t_min"),
], ids=["reversed_x", "empty_x", "reversed_t"])
def test_empty_or_reversed_window_rejected(window, field):
    for experiment in ("pearcey_map", "asymptotic_zones"):
        with pytest.raises(ConfigError, match=field):
            parse_config(f"experiment = {experiment}\nmass = 20\n{window}")

