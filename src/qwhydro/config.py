"""Flat key-value experiment configs.

Format: one `key = value` per line; blank lines and lines starting with
`#` are ignored.  `mode = amplitude,wavenumber,phase` may repeat, one line
per cosine mode.  Tolerances are namespaced: `tol.<name> = <float>`.
Unknown keys, keys the experiment does not read, and tolerances it does
not gate are errors (no silent typo or misplaced-key acceptance).

Parsing checks a config against its `EXPERIMENTS` entry (the one table, kept
with the compute functions in `experiments`) and returns a resolved, frozen
`SimConfig`; a rule with an owner elsewhere is checked by calling the owner:
the initial state's rules in `initial`, the range of the Schrödinger
propagator in `schrodinger`, the walk's lattice and coin in `walk`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .asymptotics import (ShockChart, check_pearcey_tol, discriminant, pearcey_array,
                          pearcey_nodes)
from .experiments import EXPERIMENTS, _window, walk_steps
from .initial import ModeSpec, ShockInitSpec, _plane_wave_amplitudes, check_profile, \
    check_wavenumber
from .nonrel import check_velocity_norms
from .schrodinger import check_free_factors, check_velocity_scale
from .walk import EXACT_STEPS, WalkParams, check_coin, steps_until


# The most memory one walk state, two complex128 arrays of 32 B a site, may
# take: 128 MiB, so at most 2²² sites.  A run holds one state per snapshot
# (nine by default) and a few more while it jumps.
STATE_BYTES = 2 ** 27
# The most (x, t) points, nx·nt, a map window may ask for: its arrays take
# about 1 GB at 10⁷ points.
MAP_POINTS = 10 ** 7
# A map point takes at most the `pearcey_nodes` of the window's (max |T|,
# max |X|), and its arrays peak at ≈ 68 B a node (tracemalloc, one point per
# block): POINT_NODES bounds them to 136 MiB.  At 46–49 ns a node so counted
# (401 × 251 windows at masses 20 and 100, one core of a 2-CPU Xeon, numpy
# 2.4) nx·nt·nodes ≤ MAP_NODES runs in about 16 minutes.
POINT_NODES = 2 ** 21
MAP_NODES = 2 * 10 ** 10


class ConfigError(ValueError):
    """Config parse or validation failure, with the offending field or line."""


_INT_KEYS = {"n_sites", "n_steps", "nx", "nt"}
_FLOAT_KEYS = {"mass", "q_max", "q", "t_final", "x_min", "x_max",
               "t_min", "t_max", "pearcey_tol"}
_KNOWN_KEYS = frozenset().union(*(spec.keys for spec in EXPERIMENTS.values()))


@dataclass(frozen=True)
class SimConfig:
    """Validated experiment description (fully deterministic, seed-free)."""

    experiment: str
    n_sites: int | None = None
    mass: float | None = None
    q_max: float = 0.0
    q: float = 0.0
    modes: tuple[ModeSpec, ...] = ()
    t_final: float | None = None
    n_steps: int | None = None
    snapshot_times: tuple[float, ...] = ()
    output_dir: Path = Path("out")
    tolerances: dict[str, float] = field(default_factory=dict)
    x_min: float = -1.0
    x_max: float = 1.0
    nx: int = 41
    t_min: float = 0.6
    t_max: float = 1.8
    nt: int = 25
    pearcey_tol: float = 1e-6


def _parse_mode(raw: str, lineno: int) -> ModeSpec:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(
            f"line {lineno}: mode needs 'amplitude,wavenumber,phase', got {raw!r}")
    try:
        return ModeSpec(float(parts[0]), int(parts[1]), float(parts[2]))
    except ValueError as exc:  # a number that does not parse, or ModeSpec's own rule
        raise ConfigError(f"line {lineno}: bad mode value ({exc})") from None


def parse_config(text: str) -> SimConfig:
    """Parse and validate a config; raises ConfigError naming the problem."""
    values: dict[str, object] = {}
    modes: list[ModeSpec] = []
    tolerances: dict[str, float] = {}

    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key.startswith("tol."):
            name = key[4:]
            if not name:
                raise ConfigError(f"line {lineno}: empty tolerance name")
            if name in tolerances:
                raise ConfigError(f"line {lineno}: duplicate tolerance {name!r}")
            try:
                tolerances[name] = float(raw)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: tolerance {name!r} must be a number") from None
            continue
        if key not in _KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "mode":
            modes.append(_parse_mode(raw, lineno))
            continue
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            if key in _INT_KEYS:
                values[key] = int(raw)
            elif key in _FLOAT_KEYS:
                values[key] = float(raw)
            elif key == "snapshot_times":
                values[key] = tuple(float(v) for v in raw.split(",") if v.strip())
            else:
                values[key] = raw
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw!r}") from None

    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
    spec = EXPERIMENTS.get(values["experiment"])  # an unknown one is named below
    given = values.keys() | ({"mode"} if modes else set())
    if spec is not None and not given <= spec.keys:
        raise ConfigError(f"{values['experiment']} does not read "
                          f"{', '.join(map(repr, sorted(given - spec.keys)))}")
    if spec is not None and "wave" in spec.needs and {"t_final", "n_steps"} <= given:
        raise ConfigError("set 't_final' or 'n_steps', not both: "
                          "'t_final' only sets the default 'n_steps'")
    if "output_dir" in values:
        values["output_dir"] = Path(str(values["output_dir"]))

    return validate_config(SimConfig(modes=tuple(modes), tolerances=tolerances, **values))


def _owned(check, *args):
    """Run a rule's owning check, its ValueError reported as a ConfigError."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def validate_config(cfg: SimConfig) -> SimConfig:
    """Check `cfg` against its experiment's table entry and return it resolved.

    The result carries the default `n_sites`, `n_steps`, `t_final` and
    snapshot schedule; `cfg` itself is left unchanged.  Raises ConfigError
    naming the field.
    """
    spec = EXPERIMENTS.get(cfg.experiment)
    if spec is None:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENTS)}; "
            f"got {cfg.experiment!r}")

    # nan slips through every ordered comparison below, so reject it first
    for key in sorted(_FLOAT_KEYS):
        value = getattr(cfg, key)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{key!r} must be finite, got {value}")
    if not all(math.isfinite(t) for t in cfg.snapshot_times):
        raise ConfigError("'snapshot_times' must be finite")
    if any(b <= a for a, b in zip(cfg.snapshot_times, cfg.snapshot_times[1:])):
        raise ConfigError("'snapshot_times' must be strictly increasing")
    if not all(math.isfinite(m.amplitude) and math.isfinite(m.phase_offset)
               for m in cfg.modes):
        raise ConfigError("'mode' amplitude and phase must be finite")
    if cfg.x_min >= cfg.x_max:
        raise ConfigError("'x_min' must be less than 'x_max'")
    if cfg.t_min >= cfg.t_max:
        raise ConfigError("'t_min' must be less than 't_max'")

    if cfg.mass is None:
        raise ConfigError("missing required key 'mass'")
    _owned(ShockChart.from_mass, cfg.mass)  # the chart and the walk need m > 0
    n_sites = cfg.n_sites
    if n_sites is None and "lattice" in spec.needs:
        raise ConfigError("missing required key 'n_sites'")
    if n_sites is None and "steps" in spec.needs:
        n_sites = 4096
    if n_sites is not None:
        params = _owned(WalkParams, n_sites, cfg.mass)
        if 32 * n_sites > STATE_BYTES:
            raise ConfigError(f"'n_sites' = {n_sites} needs {32 * n_sites} B per walk "
                              f"state (32 B a site), over the budget of {STATE_BYTES} B")
        if spec.walk:  # the jumped walk's spectrum needs a finite, normal coin
            _owned(check_coin, params)
    if "wave" in spec.needs:  # the plane wave's amplitudes peak at |q|
        _owned(check_wavenumber, "'q'", cfg.q, n_sites)
        _owned(_plane_wave_amplitudes, abs(cfg.q), cfg.mass, "'q' and 'mass'")
    t_final = cfg.t_final
    if "modes" in spec.needs:
        profile = _owned(ShockInitSpec, cfg.modes, cfg.q_max, cfg.mass)
        if cfg.q_max == 0:  # the spec allows it; the default t_final does not
            raise ConfigError("'q_max' must be positive")
        gradient = _owned(check_profile, profile, n_sites)
        if spec.walk:  # the walk's initial amplitudes peak at the steepest gradient
            root = _owned(_plane_wave_amplitudes, gradient, cfg.mass,
                          "'q_max', 'mode' and 'mass'")[0]
        if t_final is None:
            # 1.5 × the characteristic caustic time 1/u_max
            u_max = cfg.q_max / cfg.mass
            t_final = 1.5 / u_max if u_max > 0 else math.inf
            if not 0 < t_final < math.inf:
                raise ConfigError("'q_max' / 'mass' is out of range: the default "
                                  "t_final = 1.5·mass/q_max must be positive and finite")
    if "window" in spec.needs:
        if cfg.nx < 2 or cfg.nt < 2:
            raise ConfigError("'nx' and 'nt' must be at least 2")
        if cfg.nx * cfg.nt > MAP_POINTS:
            raise ConfigError(f"'nx' · 'nt' = {cfg.nx} · {cfg.nt} is over the budget of "
                              f"{MAP_POINTS:.0e} window points")
        if cfg.t_min <= 0:
            raise ConfigError("'t_min' must be positive")
        try:  # the run's own window at its corners, where |T|, |X|, |Δ| and |A|² peak
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                _, ts, chart, T, X = _window(replace(cfg, nx=2, nt=2))
                discriminant(T, X)
                if "quadrature" in spec.needs:  # pearcey_map weighs each point by |A|²
                    chart.prefactor_intensity(ts[:, None])
        except FloatingPointError as exc:
            raise ConfigError(f"'mass', 'x_min', 'x_max', 't_min' and 't_max' chart the "
                              f"window out of the floats ({exc})") from None
    if "quadrature" in spec.needs:
        _owned(check_pearcey_tol, "'pearcey_tol'", cfg.pearcey_tol)

    if t_final is not None and t_final <= 0:
        raise ConfigError("'t_final' must be positive")
    n_steps = cfg.n_steps
    if n_steps is not None and n_steps < 0:
        raise ConfigError("'n_steps' must be nonnegative")

    snapshot_times = cfg.snapshot_times or tuple(f * t_final for f in spec.schedule)
    for t in snapshot_times:
        if t_final is not None and not (0.0 <= t <= t_final * (1 + 1e-12)):
            raise ConfigError(f"snapshot time {t} outside [0, t_final={t_final}]")

    key = "n_steps" if cfg.n_steps is not None else \
        "snapshot_times" if cfg.snapshot_times else "t_final"  # the key setting the steps
    try:
        if n_steps is None and "steps" in spec.needs:
            n_steps = 10000 if t_final is None else steps_until(t_final, params)
        resolved = replace(cfg, n_sites=n_sites, n_steps=n_steps, t_final=t_final,
                           snapshot_times=snapshot_times)
        last = walk_steps(resolved)[-1] if spec.walk else 0
    except OverflowError:
        raise ConfigError(f"'{key}' is more steps than a float can count") from None
    except ValueError as exc:
        raise ConfigError(f"'{key}': {exc}") from None
    if last >= EXACT_STEPS:
        raise ConfigError(f"'{key}' reaches step {last}; a jumped walk is "
                          f"exact only below step 2^27 = {EXACT_STEPS}")
    if spec.schrodinger:  # up to the last snapshot, requested or reached by the walk
        _owned(check_velocity_scale, n_sites, cfg.mass, "'mass'")
        _owned(check_free_factors, n_sites, cfg.mass,
               max(snapshot_times[-1], last * params.dt), f"'mass' and '{key}'")
        if spec.walk:  # the run measures the walk's velocity against the oracle's
            # the walk's density |Ψ_L|² + |Ψ_R|², whose mean it keeps, is at most
            # √(1 + q̃²) + 1/2 at the steepest q̃; the oracle's mean |ψ|² is 1
            _owned(check_velocity_norms, n_sites, cfg.mass, float(root) + 0.5,
                   "'mass', 'q_max' and 'mode'")

    for name, value in cfg.tolerances.items():
        if name not in spec.gates:
            raise ConfigError(f"tolerance {name!r} is not gated by {cfg.experiment} "
                              f"(gated: {', '.join(spec.gates) or 'none'})")
        if not 0 < value < math.inf:
            raise ConfigError(f"tolerance {name!r} must be positive and finite")
    if "quadrature" in spec.needs:
        with np.errstate(all="ignore"):  # an extreme window costs inf or nan nodes
            nodes = pearcey_nodes(np.max(np.abs(T)), np.max(np.abs(X)))
        if not (nodes <= POINT_NODES and cfg.nx * cfg.nt * nodes <= MAP_NODES):
            raise ConfigError(f"'x_min', 'x_max', 't_min', 't_max' and 'mass' give {nodes:.3g} "
                              f"nodes a point (budget {POINT_NODES}), on 'nx' · 'nt' = {cfg.nx} "
                              f"· {cfg.nt} points (budget {MAP_NODES:.0e} nodes in all)")
        try:  # the rotated integrand, and so |A·I_P|² and its error, peak at a corner
            with np.errstate(over="raise", invalid="raise"):
                values, errors = pearcey_array(-T, X)
                chart.prefactor_intensity(ts[:, None]) * (np.abs(values) + errors) ** 2
        except FloatingPointError as exc:
            raise ConfigError(f"'mass', 'x_min', 'x_max', 't_min' and 't_max' give the "
                              f"window a Pearcey intensity out of the floats ({exc})") from None
    return resolved
