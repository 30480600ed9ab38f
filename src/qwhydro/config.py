"""Flat key-value experiment configs.

Format: one `key = value` per line; blank lines and lines starting with
`#` are ignored.  `mode = amplitude,wavenumber,phase` may repeat, one line
per cosine mode.  Tolerances are namespaced: `tol.<name> = <float>`.
Unknown keys, and tolerances the experiment does not gate, are errors (no
silent typo acceptance).

`EXPERIMENTS` is the one table of what each experiment reads; parsing
checks a config against its entry and returns a resolved, frozen
`SimConfig`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path

from .initial import ModeSpec, check_wavenumber
from .walk import WalkParams, steps_until


@dataclass(frozen=True)
class Experiment:
    """What one experiment reads from its config.

    Every experiment requires `mass`.  `needs` names the further key
    groups it requires: "lattice" (`n_sites`), "wave" (the plane-wave
    momentum `q`; a `t_final` sets the default `n_steps` to its whole
    steps), "modes" (`mode` lines and `q_max`; `t_final` defaults to
    1.5/u_max), "steps" (a walk of `n_steps` steps, 10⁴ by default, on
    `n_sites` = 4096 unless set) and "window" (the (x, t) map grid).
    `gates` maps each `tol.<name>` the run enforces to its default limit,
    None for a gate enforced only when the config sets it.  `schedule`
    lists the default snapshot times as fractions of `t_final`.
    """

    needs: tuple[str, ...]
    gates: dict[str, float | None]
    schedule: tuple[float, ...] = ()


_NORM_DRIFT = {"norm_drift": 1e-10}
_EIGHTHS = tuple(i / 8.0 for i in range(9))

EXPERIMENTS = {
    "dtqw_shock": Experiment(("lattice", "modes"), _NORM_DRIFT, _EIGHTHS),
    "dtqw_planewave": Experiment(("lattice", "wave", "steps"), _NORM_DRIFT),
    "schrodinger_shock": Experiment(("lattice", "modes"), _NORM_DRIFT,
                                    (1.0 / 3.0, 2.0 / 3.0, 1.0)),
    "pearcey_map": Experiment(("window",), {}),
    "asymptotic_zones": Experiment(("window",), {}),
    "nonrel_compare": Experiment(("lattice", "modes"), {"density_l2": None}, _EIGHTHS),
    "validation": Experiment(("steps",), {"norm_drift": 1e-12, "roundtrip": 1e-12,
                                          "current_identity": 1e-12}),
}


class ConfigError(ValueError):
    """Config parse or validation failure, with the offending field or line."""


_INT_KEYS = {"n_sites", "n_steps", "nx", "nt"}
_FLOAT_KEYS = {"mass", "q_max", "q", "t_final", "x_min", "x_max",
               "t_min", "t_max", "pearcey_tol"}
_LIST_KEYS = {"snapshot_times"}
_STR_KEYS = {"experiment", "output_dir"}
_KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _LIST_KEYS | _STR_KEYS | {"mode"}


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

    @property
    def u_max(self) -> float:
        if not self.mass:
            return 0.0
        return self.q_max / self.mass


def _parse_mode(raw: str, lineno: int) -> ModeSpec:
    parts = [p.strip() for p in raw.split(",")]
    if len(parts) != 3:
        raise ConfigError(
            f"line {lineno}: mode needs 'amplitude,wavenumber,phase', got {raw!r}")
    try:
        amplitude = float(parts[0])
        wavenumber = int(parts[1])
        phase = float(parts[2])
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad mode value ({exc})") from None
    try:
        return ModeSpec(amplitude=amplitude, wavenumber=wavenumber, phase_offset=phase)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: {exc}") from None


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
            elif key in _LIST_KEYS:
                values[key] = tuple(float(v) for v in raw.split(",") if v.strip())
            else:
                values[key] = raw
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {raw!r}") from None

    if "experiment" not in values:
        raise ConfigError("missing required key 'experiment'")
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
    if cfg.mass <= 0:
        raise ConfigError("'mass' must be positive")
    n_sites = cfg.n_sites
    if n_sites is None and "lattice" in spec.needs:
        raise ConfigError("missing required key 'n_sites'")
    if n_sites is None and "steps" in spec.needs:
        n_sites = 4096
    if n_sites is not None:
        params = _owned(WalkParams, n_sites, cfg.mass)
    if "wave" in spec.needs:
        _owned(check_wavenumber, "'q'", cfg.q, n_sites)
    t_final = cfg.t_final
    if "modes" in spec.needs:
        if not cfg.modes:
            raise ConfigError("at least one 'mode' line is required")
        if cfg.q_max <= 0:
            raise ConfigError("'q_max' must be positive")
        _owned(check_wavenumber, "'mode' k", max(m.wavenumber for m in cfg.modes), n_sites)
        # |∂ₓ(mφ)| ≤ q_max·Σ|aᵢ|·kᵢ must stay within the Nyquist wavenumber
        gradient = cfg.q_max * sum(abs(m.amplitude) * m.wavenumber for m in cfg.modes)
        if gradient > n_sites // 2:
            raise ConfigError(f"'mode' amplitudes and 'q_max' give an initial phase "
                              f"gradient q_max·Σ|a|·k = {gradient:g} above the "
                              f"Nyquist wavenumber n_sites/2 = {n_sites // 2}")
        if t_final is None:
            # 1.5 × the characteristic caustic time 1/u_max
            t_final = 1.5 / cfg.u_max if cfg.u_max > 0 else math.inf
            if not 0 < t_final < math.inf:
                raise ConfigError("'q_max' / 'mass' is out of range: the default "
                                  "t_final = 1.5·mass/q_max must be positive and finite")
    if "window" in spec.needs:
        if cfg.nx < 2 or cfg.nt < 2:
            raise ConfigError("'nx' and 'nt' must be at least 2")
        if cfg.t_min <= 0:
            raise ConfigError("'t_min' must be positive")
        if not (0.0 < cfg.pearcey_tol <= 1e-3):
            raise ConfigError("'pearcey_tol' must lie in (0, 1e-3]")

    if t_final is not None and t_final <= 0:
        raise ConfigError("'t_final' must be positive")
    n_steps = cfg.n_steps
    if n_steps is not None and n_steps < 0:
        raise ConfigError("'n_steps' must be nonnegative")
    if n_steps is None and "steps" in spec.needs:
        n_steps = 10000
        if "wave" in spec.needs and t_final is not None:
            try:
                n_steps = steps_until(t_final, params)
            except OverflowError:
                raise ConfigError(f"'t_final' = {t_final} is more steps than a "
                                  f"float can count") from None

    snapshot_times = cfg.snapshot_times or tuple(f * t_final for f in spec.schedule)
    for t in snapshot_times:
        if t_final is not None and not (0.0 <= t <= t_final * (1 + 1e-12)):
            raise ConfigError(f"snapshot time {t} outside [0, t_final={t_final}]")

    for name, value in cfg.tolerances.items():
        if name not in spec.gates:
            raise ConfigError(f"tolerance {name!r} is not gated by {cfg.experiment} "
                              f"(gated: {', '.join(spec.gates) or 'none'})")
        if not 0 < value < math.inf:
            raise ConfigError(f"tolerance {name!r} must be positive and finite")
    return replace(cfg, n_sites=n_sites, n_steps=n_steps, t_final=t_final,
                   snapshot_times=snapshot_times)
