import dataclasses

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwhydro import experiments
from qwhydro.asymptotics import zone_labels
from qwhydro.config import (EXPERIMENTS, MAP_POINTS, STATE_BYTES, ConfigError, SimConfig,
                            parse_config, validate_config)
from qwhydro.experiments import walk_steps
from qwhydro.initial import (ShockInitSpec, phase_modulated_state, plane_wave,
                              schrodinger_initial)
from qwhydro.schrodinger import spectral_propagate
from qwhydro.walk import EXACT_STEPS, build_walk, steps_until

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



def test_q_accepted_on_the_plane_wave_rule():
    planewave = "experiment = dtqw_planewave\nn_sites = 64\nmass = 16\n"
    for q in ("-32", "32", "3.0000000001", "0"):
        assert parse_config(f"{planewave}q = {q}\n").q == float(q)


@pytest.mark.parametrize("text, keys", [
    ("experiment = validation\nmass = 16\nt_final = 1\n", "'t_final'"),
    ("experiment = pearcey_map\nmass = 20\nt_final = 3\nn_sites = 64\n",
     "'n_sites', 't_final'"),
    (FIG_STYLE + "nx = 41\n", "'nx'"),
    (FIG_STYLE + "q = 0\n", "'q'"),
    (FIG_STYLE + "n_steps = 100\n", "'n_steps'"),
    ("experiment = asymptotic_zones\nmass = 20\nq = 1\n", "'q'"),
    ("experiment = asymptotic_zones\nmass = 20\npearcey_tol = 1e-6\n", "'pearcey_tol'"),
    ("experiment = pearcey_map\nmass = 20\nmode = 1,1,0\n", "'mode'"),
    ("experiment = dtqw_planewave\nn_sites = 64\nmass = 16\nsnapshot_times = 0\n",
     "'snapshot_times'"),
], ids=["validation_t_final", "pearcey_map_walk_keys", "shock_nx", "shock_q",
        "shock_n_steps", "zones_q", "zones_pearcey_tol", "map_mode", "planewave_snapshots"])
def test_keys_the_experiment_does_not_read_rejected_by_name(text, keys):
    # rejected whatever the value, the default included (q = 0, nx = 41)
    with pytest.raises(ConfigError, match=f"does not read {keys}$"):
        parse_config(text)


def test_tolerance_not_gated_by_the_experiment_rejected():
    with pytest.raises(ConfigError, match="norm_drfit"):
        parse_config("experiment = dtqw_planewave\nn_sites = 64\nmass = 16\n"
                     "tol.norm_drfit = 1e-30\n")
    with pytest.raises(ConfigError, match="roundtrip"):
        parse_config("experiment = pearcey_map\nmass = 20\ntol.roundtrip = 1e-12\n")
    with pytest.raises(ConfigError, match="duplicate tolerance 'norm_drift'"):
        parse_config("experiment = validation\nmass = 16\n"
                     "tol.norm_drift = 1e-12\ntol.norm_drift = 1e-30\n")


def test_every_declared_gate_is_accepted():
    base = {"dtqw_shock": FIG_STYLE,
            "dtqw_planewave": "experiment = dtqw_planewave\nn_sites = 64\nmass = 16\n",
            "schrodinger_shock": FIG_STYLE.replace("dtqw_shock", "schrodinger_shock"),
            "nonrel_compare": FIG_STYLE.replace("dtqw_shock", "nonrel_compare"),
            "validation": "experiment = validation\nmass = 16\n"}
    for name, text in base.items():
        gates = EXPERIMENTS[name].gates
        assert gates
        lines = "".join(f"tol.{gate} = 1e-9\n" for gate in gates)
        assert parse_config(text + lines).tolerances == dict.fromkeys(gates, 1e-9)


def test_parse_result_is_frozen():
    cfg = parse_config(FIG_STYLE)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.t_final = 1.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.snapshot_times = ()


def test_validate_config_returns_resolved_copy_and_leaves_input_unchanged():
    raw = SimConfig(experiment="schrodinger_shock", n_sites=64, mass=4.0, q_max=2.0,
                    modes=parse_config(FIG_STYLE).modes, tolerances={"norm_drift": 1e-9})
    before = dataclasses.replace(raw, tolerances=dict(raw.tolerances))
    resolved = validate_config(raw)
    assert raw == before
    assert raw.t_final is None and raw.snapshot_times == ()
    assert resolved.t_final == 1.5 / 0.5
    assert resolved.snapshot_times == (1.0, 2.0, 3.0)
    assert resolved.tolerances == {"norm_drift": 1e-9}
    assert validate_config(resolved) == resolved


# ---------------------------------------------------------------------------
# Property tests: parsing never fails with anything but ConfigError.
# ---------------------------------------------------------------------------

# Configs that used to pass validation and then fail inside the run, or
# crash the parser; the CLI tests check that each exits 2 naming its field.
RUN_TIME_FAILURES = {
    "half_integer_q": "experiment = dtqw_planewave\nn_sites = 64\nmass = 16\nq = 0.5\n",
    "unresolvable_q": "experiment = dtqw_planewave\nn_sites = 64\nmass = 16\nq = 40\n",
    "validation_n_sites": "experiment = validation\nn_sites = 3\nmass = 16\n",
    "unresolvable_mode": ("experiment = dtqw_shock\nn_sites = 64\nmass = 32\n"
                          "q_max = 6.4\nmode = 1,100,0\n"),
    "u_max_underflow": ("experiment = dtqw_shock\nn_sites = 64\nmass = 1e308\n"
                        "q_max = 1e-308\nmode = 1,1,0\n"),
    # |q̃| = |q|/m over ≈ 1.3e154 overflows the initial amplitudes' √(1 + q̃²)
    "planewave_overflow": ("experiment = dtqw_planewave\nn_sites = 64\nmass = 1e-155\n"
                           "q = 1\nn_steps = 10\n"),
    "shock_overflow": ("experiment = dtqw_shock\nn_sites = 64\nmass = 1e-300\nq_max = 1\n"
                       "t_final = 6\nmode = 1.0,1,0.0\n"),
    "nonrel_overflow": ("experiment = nonrel_compare\nn_sites = 64\nmass = 1e-300\n"
                        "q_max = 1\nt_final = 6\nmode = 1.0,1,0.0\n"),
    # φ = (q_max/m)·Σ a·cos(kx + δ) out of the floats: q_max/m overflows (and
    # inf·0 is nan), or the product does
    "phase_overflow": ("experiment = dtqw_shock\nn_sites = 64\nmass = 5e-324\n"
                       "q_max = 1.0\nt_final = 1.0\nmode = 0.0,1,0.0\n"),
    "steep_phase_overflow": ("experiment = dtqw_shock\nn_sites = 64\nmass = 1e-20\n"
                             "q_max = 1e300\nt_final = 1.0\nmode = 1e-300,1,0.0\n"),
    "nonrel_phase_overflow": ("experiment = nonrel_compare\nn_sites = 64\nmass = 5e-324\n"
                              "q_max = 1.0\nt_final = 1.0\nmode = 0.0,1,0.0\n"),
    "nonrel_steep_phase_overflow": ("experiment = nonrel_compare\nn_sites = 64\n"
                                    "mass = 1e-20\nq_max = 1e300\nt_final = 1.0\n"
                                    "mode = 1e-300,1,0.0\n"),
    "schrodinger_phase_overflow": ("experiment = schrodinger_shock\nn_sites = 64\n"
                                   "mass = 5e-324\nq_max = 1e-300\nmode = 1e300,1,0.0\n"),
    # spectral_propagate's e^{−ik²t/(2m)} out of the floats: 1/(2m) overflows
    # in numpy's complex division, even where k²t/(2m) is small
    "schrodinger_factor_overflow": ("experiment = schrodinger_shock\nn_sites = 64\n"
                                    "mass = 5e-324\nq_max = 5e-324\nmode = 0.0,1,0.0\n"),
    "nonrel_factor_overflow": ("experiment = nonrel_compare\nn_sites = 64\nmass = 5e-324\n"
                               "q_max = 5e-324\nmode = 0.0,1,0.0\n"),
    "schrodinger_factor_division": ("experiment = schrodinger_shock\nn_sites = 64\n"
                                    "mass = 5e-324\nq_max = 1e-300\nmode = 0.0,1,0.0\n"),
}


def _check_parse(text):
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        return exc
    assert isinstance(cfg, SimConfig)
    spec = EXPERIMENTS[cfg.experiment]
    assert set(cfg.tolerances) <= set(spec.gates)
    if cfg.t_final is not None:
        assert 0 < cfg.t_final < float("inf")
        assert all(0 <= t <= cfg.t_final * (1 + 1e-12) for t in cfg.snapshot_times)
    # every walk that parses is bounded
    if spec.walk:
        params = build_walk(cfg.n_sites, cfg.mass)
        steps = walk_steps(cfg)
        assert all(a < b for a, b in zip(steps, steps[1:]))
        if cfg.snapshot_times:  # one step of its own for each requested time
            assert steps == [steps_until(t, params) for t in cfg.snapshot_times]
        last = cfg.n_steps if cfg.n_steps is not None else \
            steps_until(max(cfg.snapshot_times), params)
        assert 0 <= last < EXACT_STEPS
        # and builds its initial amplitudes without overflow (a warning fails the test)
        if "wave" in spec.needs:
            plane_wave(params, cfg.q)
        elif "modes" in spec.needs:
            phase_modulated_state(params, ShockInitSpec(cfg.modes, cfg.q_max, cfg.mass))
    # every Schrödinger state that parses propagates to the last time it is asked for
    if spec.schrodinger:
        params = build_walk(cfg.n_sites, cfg.mass)
        t_last = max(cfg.snapshot_times[-1], walk_steps(cfg)[-1] * params.dt
                     if spec.walk else 0.0)
        psi0 = schrodinger_initial(params, ShockInitSpec(cfg.modes, cfg.q_max, cfg.mass))
        spectral_propagate(psi0, cfg.mass, t_last)
    # and so is every lattice and map window
    if cfg.n_sites is not None:
        assert 32 * cfg.n_sites <= STATE_BYTES
    if "window" in spec.needs:
        assert cfg.nx * cfg.nt <= MAP_POINTS
        # and charts without overflow, as the run does (a warning fails the test)
        _, ts, chart, T, X = experiments._window(dataclasses.replace(cfg, nx=3, nt=3))
        zone_labels(T, X)
        if "quadrature" in spec.needs:
            chart.prefactor_intensity(ts[:, None])
    return cfg


@settings(max_examples=200, deadline=None)
@given(st.text())
@example(RUN_TIME_FAILURES["half_integer_q"])
@example(RUN_TIME_FAILURES["unresolvable_q"])
@example(RUN_TIME_FAILURES["validation_n_sites"])
@example(RUN_TIME_FAILURES["unresolvable_mode"])
@example(RUN_TIME_FAILURES["u_max_underflow"])
@example(RUN_TIME_FAILURES["planewave_overflow"])
@example(RUN_TIME_FAILURES["shock_overflow"])
@example(RUN_TIME_FAILURES["nonrel_overflow"])
@example(RUN_TIME_FAILURES["phase_overflow"])
@example(RUN_TIME_FAILURES["steep_phase_overflow"])
@example(RUN_TIME_FAILURES["nonrel_phase_overflow"])
@example(RUN_TIME_FAILURES["nonrel_steep_phase_overflow"])
@example(RUN_TIME_FAILURES["schrodinger_phase_overflow"])
@example(RUN_TIME_FAILURES["schrodinger_factor_overflow"])
@example(RUN_TIME_FAILURES["nonrel_factor_overflow"])
@example(RUN_TIME_FAILURES["schrodinger_factor_division"])
def test_any_text_parses_or_raises_config_error(text):
    _check_parse(text)


_FINITE_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-308, 1e-300, 1e300, 1e308,
                     1.7976931348623157e308, -1e308]),
    st.floats(0.01, 100.0))
_EXTREME_INTS = st.one_of(st.integers(-2**70, 2**70),
                          st.sampled_from([-1, 0, 1, 2, 3, 4, 4096, 2**62]),
                          st.integers(2, 64).map(lambda n: 2 * n))
_SCALARS = {key: _EXTREME_INTS for key in ("n_sites", "n_steps", "nx", "nt")}
_SCALARS.update({key: _FINITE_FLOATS for key in (
    "mass", "q_max", "q", "t_final", "x_min", "x_max", "t_min", "t_max", "pearcey_tol")})
_SCALARS["mass"] = _FINITE_FLOATS.map(abs)  # a negative mass stops at the first check
_TOL_NAMES = sorted({name for spec in EXPERIMENTS.values() for name in spec.gates}
                    | {"norm_drfit"})


@st.composite
def _structured_configs(draw):
    """Configs of a valid experiment over its own keys, with extreme values.

    The keys an experiment requires are always present and every optional
    key is one it reads, so most examples reach the checks behind them.
    """
    experiment = draw(st.sampled_from(list(EXPERIMENTS)))
    spec = EXPERIMENTS[experiment]
    required = {"mass"} | ({"n_sites"} if "lattice" in spec.needs else set()) \
        | ({"q_max"} if "modes" in spec.needs else set())
    own = sorted(spec.keys & _SCALARS.keys())
    optional = draw(st.lists(st.sampled_from(own), unique=True, max_size=4))
    lines = [f"experiment = {experiment}"]
    for key in sorted(required | set(optional)):
        lines.append(f"{key} = {draw(_SCALARS[key])!r}")
    for _ in range(draw(st.integers(1, 3)) if "mode" in spec.keys else 0):
        amplitude, phase = draw(_FINITE_FLOATS), draw(_FINITE_FLOATS)
        lines.append(f"mode = {amplitude!r},{draw(_EXTREME_INTS)},{phase!r}")
    times = draw(st.lists(_FINITE_FLOATS, unique=True, max_size=5).map(sorted))
    if times and "snapshot_times" in spec.keys:
        lines.append("snapshot_times = " + ", ".join(map(repr, times)))
    for name in draw(st.lists(st.sampled_from(_TOL_NAMES), unique=True, max_size=3)):
        lines.append(f"tol.{name} = {draw(_FINITE_FLOATS)!r}")
    return "\n".join(lines) + "\n"


# Windows that used to validate and then overflow in the run: the chart's
# products, and the span x_max − x_min
WINDOW_OVERFLOWS = {
    "chart": "experiment = asymptotic_zones\nmass = 1e-300\nt_max = 1e300\nnx = 3\nnt = 3\n",
    "x_span": ("experiment = asymptotic_zones\nmass = 1e-200\nx_min = -1e308\nx_max = 1e308\n"
               "t_min = 1e6\nt_max = 2e6\nnx = 3\nnt = 3\n"),
    "prefactor": "experiment = pearcey_map\nmass = 0.1\nt_max = 3e306\nnx = 3\nnt = 3\n",
}


@settings(max_examples=300, deadline=None)
@given(_structured_configs())
@example(WINDOW_OVERFLOWS["chart"])
@example(WINDOW_OVERFLOWS["x_span"])
@example(WINDOW_OVERFLOWS["prefactor"])
def test_structured_configs_parse_or_raise_config_error(text):
    outcome = _check_parse(text)
    # the experiment line is valid, so parsing always gets past it
    assert "experiment" not in str(outcome) or isinstance(outcome, SimConfig)
