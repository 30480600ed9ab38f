"""Flat key-value experiment configs.

Format: one `key = value` per line; blank lines and lines starting with
`#` are ignored.  `mode = amplitude,wavenumber,phase` may repeat, one line
per cosine mode.  Tolerances are namespaced: `tol.<name> = <float>`.
Unknown keys are errors (no silent typo acceptance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

from .initial import ModeSpec

EXPERIMENT_NAMES = (
    "dtqw_shock",
    "dtqw_planewave",
    "schrodinger_shock",
    "pearcey_map",
    "asymptotic_zones",
    "nonrel_compare",
    "validation",
)


class ConfigError(ValueError):
    """Config parse or validation failure, with the offending field or line."""


_INT_KEYS = {"n_sites", "n_steps", "nx", "nt"}
_FLOAT_KEYS = {"mass", "q_max", "q", "t_final", "x_min", "x_max",
               "t_min", "t_max", "pearcey_tol"}
_LIST_KEYS = {"snapshot_times"}
_STR_KEYS = {"experiment", "output_dir"}
_KNOWN_KEYS = _INT_KEYS | _FLOAT_KEYS | _LIST_KEYS | _STR_KEYS | {"mode"}


@dataclass
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

    cfg = SimConfig(modes=tuple(modes), tolerances=tolerances, **values)
    validate_config(cfg)
    return cfg


_NEEDS_LATTICE = {"dtqw_shock", "dtqw_planewave", "schrodinger_shock", "nonrel_compare"}
_NEEDS_MODES = {"dtqw_shock", "schrodinger_shock", "nonrel_compare"}


def validate_config(cfg: SimConfig) -> None:
    if cfg.experiment not in EXPERIMENT_NAMES:
        raise ConfigError(
            f"experiment must be one of {', '.join(EXPERIMENT_NAMES)}; "
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

    if cfg.experiment in _NEEDS_LATTICE or cfg.experiment == "validation":
        if cfg.mass is None:
            raise ConfigError("missing required key 'mass'")
        if cfg.mass <= 0:
            raise ConfigError("'mass' must be positive")
    if cfg.experiment in _NEEDS_LATTICE:
        if cfg.n_sites is None:
            raise ConfigError("missing required key 'n_sites'")
        if cfg.n_sites < 4 or cfg.n_sites % 2 != 0:
            raise ConfigError("'n_sites' must be even and at least 4")
    if cfg.experiment in _NEEDS_MODES:
        if not cfg.modes:
            raise ConfigError("at least one 'mode' line is required")
        if cfg.q_max <= 0:
            raise ConfigError("'q_max' must be positive")
    if cfg.experiment in ("pearcey_map", "asymptotic_zones"):
        if cfg.mass is None or cfg.mass <= 0:
            raise ConfigError("missing required key 'mass'")
        if cfg.nx < 2 or cfg.nt < 2:
            raise ConfigError("'nx' and 'nt' must be at least 2")
        if cfg.t_min <= 0:
            raise ConfigError("'t_min' must be positive")
        if not (0.0 < cfg.pearcey_tol <= 1e-3):
            raise ConfigError("'pearcey_tol' must lie in (0, 1e-3]")

    # fill the default time horizon before range-checking snapshot times
    if cfg.t_final is None and cfg.experiment in _NEEDS_MODES:
        # 1.5 × the characteristic caustic time 1/u_max
        cfg.t_final = 1.5 / cfg.u_max
    if cfg.t_final is not None and cfg.t_final <= 0:
        raise ConfigError("'t_final' must be positive")
    if cfg.n_steps is not None and cfg.n_steps < 0:
        raise ConfigError("'n_steps' must be nonnegative")

    if not cfg.snapshot_times and cfg.experiment == "schrodinger_shock":
        cfg.snapshot_times = tuple(f * cfg.t_final for f in (1.0 / 3.0, 2.0 / 3.0, 1.0))
    if not cfg.snapshot_times and cfg.experiment in ("dtqw_shock", "nonrel_compare"):
        cfg.snapshot_times = tuple(
            cfg.t_final * i / 8.0 for i in range(9))
    for t in cfg.snapshot_times:
        if cfg.t_final is not None and not (0.0 <= t <= cfg.t_final * (1 + 1e-12)):
            raise ConfigError(
                f"snapshot time {t} outside [0, t_final={cfg.t_final}]")

    for name, value in cfg.tolerances.items():
        if not 0 < value < math.inf:
            raise ConfigError(f"tolerance {name!r} must be positive and finite")
