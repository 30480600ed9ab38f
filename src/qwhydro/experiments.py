"""Named experiments: deterministic runs emitting plot-ready CSV data.

Every experiment writes long-format CSV (`t,x,value` or `t,x,re,im`,
17 significant digits, LF endings, t-major order) plus a JSON manifest
carrying the config echo, conservation diagnostics and the only timestamp
of the run.  Identical configs produce byte-identical data files.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from ._spectral import TWO_PI
from .asymptotics import ShockChart, pearcey_array, shock_coords, zone_labels
from .config import SimConfig
from .hydro import current_identity_gap, phases, spinor_from_hydro, currents
from .initial import ShockInitSpec, phase_modulated_state, plane_wave, schrodinger_initial
from .nonrel import nonrel_compare
from .schrodinger import spectral_propagate
from .walk import SpinorField, Trajectory, build_walk, dirac_residual, evolve, march, \
    propagate, step_walk, total_norm


@dataclass
class SpacetimeGrid:
    """Values on the outer product of a time list and the spatial grid."""

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray  # shape (len(t), len(x))

    def __post_init__(self):
        if self.values.shape != (len(self.t), len(self.x)):
            raise ValueError("grid dimensions inconsistent")


def _fmt(v: float) -> str:
    return format(float(v), ".17g")


def emit_spacetime_csv(grid: SpacetimeGrid, path: Path | str) -> Path:
    """Write the grid in long format, deterministically ordered.

    The t and x strings are formatted once each; every t row is then one
    `%`-format of a `{t},{x},%.17g` template, which prints the same digits
    as `format(v, ".17g")` did per value.
    """
    path = Path(path)
    complex_data = np.iscomplexobj(grid.values)
    if complex_data:
        header, cell = "t,x,re,im", "%.17g,%.17g\n"
        values = np.asarray(grid.values, dtype=np.complex128)
        rows = np.stack((values.real, values.imag), axis=-1).reshape(
            len(grid.t), 2 * len(grid.x))
    else:
        header, cell = "t,x,value", "%.17g\n"
        rows = np.asarray(grid.values, dtype=np.float64)
    # a row is t_str + t_str.join(sites): "{t},{x},%.17g\n" for every x
    sites = [f",{_fmt(x)},{cell}" for x in grid.x]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for t, row in zip(grid.t, rows):
            if sites:
                t_str = _fmt(t)
                fh.write((t_str + t_str.join(sites)) % tuple(row.tolist()))
    return path


@dataclass
class RunResult:
    """Output files, diagnostics, and whether all enforced tolerances held."""

    paths: list[Path]
    diagnostics: dict
    ok: bool


def _steps_for_times(times, params) -> list[int]:
    # snapshot times round down to whole steps (t = j·ε)
    return [int(np.floor(t / params.dt + 1e-9)) for t in times]


# Largest gap allowed between a spectral jump and one stepped step from the
# jump before it (the norm_drift default).
STEP_CONSISTENCY_LIMIT = 1e-10


def _jump_walk(state: SpinorField, params, step_indices: list[int]):
    """The walk states at the requested steps, jumped to exactly.

    Also returns the in-run cross-check against the stepped kernel:
    max |propagate(j) − step_walk(propagate(j − 1))| at the last step j.
    """
    wanted = sorted(set(step_indices))
    last = max(wanted[-1], 1)  # a run that stops at step 0 checks step 1
    *snaps, before, after = propagate(state, params, [*wanted, last - 1, last])
    stepped = step_walk(before, params)
    gap = float(max(np.max(np.abs(after.left - stepped.left)),
                    np.max(np.abs(after.right - stepped.right))))
    consistency = {"value": gap, "limit": STEP_CONSISTENCY_LIMIT,
                   "margin": STEP_CONSISTENCY_LIMIT - gap}
    return snaps, consistency


def _walk_shock_setup(cfg: SimConfig):
    params = build_walk(cfg.n_sites, cfg.mass)
    spec = ShockInitSpec(modes=cfg.modes, q_max=cfg.q_max, mass=cfg.mass)
    return params, spec


def _manifest(cfg: SimConfig, name: str, diagnostics: dict, extra: dict | None = None):
    doc = {
        "experiment": name,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {key: str(value) if isinstance(value, Path) else value
                   for key, value in asdict(cfg).items()},
        "diagnostics": diagnostics,
    }
    if extra:
        doc.update(extra)
    return doc


def _write_manifest(doc: dict, cfg: SimConfig, name: str) -> Path:
    path = Path(cfg.output_dir) / f"{name}_manifest.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _check_tolerances(cfg: SimConfig, diagnostics: dict,
                      enforced: dict[str, str]) -> tuple[bool, dict]:
    """Compare diagnostics against configured tolerances.

    `enforced` maps tolerance names to diagnostic keys; a tolerance is
    checked when present in the config or in the defaults below.
    """
    defaults = {"norm_drift": 1e-10}
    verdicts = {}
    ok = True
    for tol_name, diag_key in enforced.items():
        limit = cfg.tolerances.get(tol_name, defaults.get(tol_name))
        if limit is None or diag_key not in diagnostics:
            continue
        passed = bool(diagnostics[diag_key] <= limit)
        verdicts[tol_name] = {"limit": limit, "value": diagnostics[diag_key],
                              "passed": passed}
        ok = ok and passed
    return ok, verdicts


# ---------------------------------------------------------------------------
# Individual experiments.
# ---------------------------------------------------------------------------

def run_dtqw_shock(cfg: SimConfig) -> RunResult:
    params, spec = _walk_shock_setup(cfg)
    state = phase_modulated_state(params, spec)
    n0 = total_norm(state, params)

    steps = _steps_for_times(cfg.snapshot_times, params)
    snaps, consistency = _jump_walk(state, params, steps)
    realized = [j * params.dt for j in sorted(set(steps))]

    density = np.array([currents(s).j0 for s in snaps])
    grid = SpacetimeGrid(x=params.x, t=np.array(realized), values=density)
    out = Path(cfg.output_dir)
    csv_path = emit_spacetime_csv(grid, out / "dtqw_shock_density.csv")

    drift = abs(total_norm(snaps[-1], params) - n0) / n0
    diagnostics = {"norm_drift": float(drift), "initial_norm": float(n0),
                   "step_consistency": consistency}
    ok, verdicts = _check_tolerances(cfg, diagnostics, {"norm_drift": "norm_drift"})
    ok = ok and consistency["margin"] >= 0
    doc = _manifest(cfg, "dtqw_shock", diagnostics,
                    {"requested_times": list(cfg.snapshot_times),
                     "realized_times": realized,
                     "tolerance_verdicts": verdicts, "ok": ok})
    man = _write_manifest(doc, cfg, "dtqw_shock")
    return RunResult(paths=[csv_path, man], diagnostics=diagnostics, ok=ok)


def run_dtqw_planewave(cfg: SimConfig) -> RunResult:
    params = build_walk(cfg.n_sites, cfg.mass)
    state = plane_wave(params, cfg.q)
    n_steps = cfg.n_steps
    if n_steps is None:
        n_steps = int(np.floor(cfg.t_final / params.dt)) if cfg.t_final else 10000
    n0 = total_norm(state, params)
    cur = state
    max_drift = 0.0
    check_every = max(1, n_steps // 16)
    while cur.step_index < n_steps:
        cur = march(cur, params, min(check_every, n_steps - cur.step_index))
        max_drift = max(max_drift, abs(total_norm(cur, params) - n0) / n0)

    density = np.array([currents(state).j0, currents(cur).j0])
    grid = SpacetimeGrid(x=params.x,
                         t=np.array([0.0, n_steps * params.dt]),
                         values=density)
    out = Path(cfg.output_dir)
    csv_path = emit_spacetime_csv(grid, out / "dtqw_planewave_density.csv")

    diagnostics = {"norm_drift": float(max_drift), "n_steps": n_steps}
    ok, verdicts = _check_tolerances(cfg, diagnostics, {"norm_drift": "norm_drift"})
    doc = _manifest(cfg, "dtqw_planewave", diagnostics,
                    {"tolerance_verdicts": verdicts, "ok": ok})
    man = _write_manifest(doc, cfg, "dtqw_planewave")
    return RunResult(paths=[csv_path, man], diagnostics=diagnostics, ok=ok)


def run_schrodinger_shock(cfg: SimConfig) -> RunResult:
    params, spec = _walk_shock_setup(cfg)
    psi0 = schrodinger_initial(params, spec)
    from .schrodinger import schrodinger_hydro

    times = list(cfg.snapshot_times)
    densities, velocities = [], []
    for t in times:
        psi_t = spectral_propagate(psi0, cfg.mass, t)
        n, v = schrodinger_hydro(psi_t, cfg.mass)
        densities.append(n)
        velocities.append(v)

    out = Path(cfg.output_dir)
    t_arr = np.array(times)
    p_n = emit_spacetime_csv(SpacetimeGrid(params.x, t_arr, np.array(densities)),
                             out / "schrodinger_shock_density.csv")
    p_v = emit_spacetime_csv(SpacetimeGrid(params.x, t_arr, np.array(velocities)),
                             out / "schrodinger_shock_velocity.csv")

    norm0 = float(np.linalg.norm(psi0.values))
    norm1 = float(np.linalg.norm(spectral_propagate(psi0, cfg.mass, times[-1]).values))
    diagnostics = {"norm_drift": abs(norm1 - norm0) / norm0}
    ok, verdicts = _check_tolerances(cfg, diagnostics, {"norm_drift": "norm_drift"})
    doc = _manifest(cfg, "schrodinger_shock", diagnostics,
                    {"requested_times": times, "realized_times": times,
                     "tolerance_verdicts": verdicts, "ok": ok})
    man = _write_manifest(doc, cfg, "schrodinger_shock")
    return RunResult(paths=[p_n, p_v, man], diagnostics=diagnostics, ok=ok)


def _window(cfg: SimConfig):
    """The (x, t) grid of a map experiment and its cusp coordinates.

    T has shape (nt, 1) and X (nt, nx); both broadcast to the grid.
    """
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
    ts = np.linspace(cfg.t_min, cfg.t_max, cfg.nt)
    chart = ShockChart.from_mass(cfg.mass)
    T, X = shock_coords(xs[None, :], ts[:, None], chart)
    return xs, ts, chart, T, X


def run_pearcey_map(cfg: SimConfig) -> RunResult:
    xs, ts, chart, T, X = _window(cfg)
    values, errors = pearcey_array(-T, X)
    # |A|² of shock_map's prefactor A = e^{iφ}/√(2iπtε√a)
    amplitude2 = 1.0 / (2.0 * np.pi * ts[:, None] * chart.eps * np.sqrt(chart.a))
    intensity = amplitude2 * np.abs(values) ** 2
    grid = SpacetimeGrid(x=xs, t=ts, values=intensity)
    out = Path(cfg.output_dir)
    csv_path = emit_spacetime_csv(grid, out / "pearcey_map.csv")
    worst = float(np.max(errors))
    over = int(np.sum(errors > cfg.pearcey_tol))
    diagnostics = {"grid": [int(cfg.nt), int(cfg.nx)],
                   "max_intensity": float(np.max(intensity)),
                   "pearcey_error": {"value": worst, "limit": cfg.pearcey_tol,
                                     "margin": cfg.pearcey_tol - worst},
                   "points_over_tol": over}
    ok = over == 0
    doc = _manifest(cfg, "pearcey_map", diagnostics, {"ok": ok})
    man = _write_manifest(doc, cfg, "pearcey_map")
    return RunResult(paths=[csv_path, man], diagnostics=diagnostics, ok=ok)


def run_asymptotic_zones(cfg: SimConfig) -> RunResult:
    xs, ts, _, T, X = _window(cfg)
    values = zone_labels(T, X).astype(float)
    grid = SpacetimeGrid(x=xs, t=ts, values=values)
    out = Path(cfg.output_dir)
    csv_path = emit_spacetime_csv(grid, out / "asymptotic_zones.csv")
    counts = {f"zone_{z}": int(np.sum(values == z)) for z in (1, 2, 3)}
    doc = _manifest(cfg, "asymptotic_zones", counts, {"ok": True})
    man = _write_manifest(doc, cfg, "asymptotic_zones")
    return RunResult(paths=[csv_path, man], diagnostics=counts, ok=True)


def run_nonrel_compare(cfg: SimConfig) -> RunResult:
    params, spec = _walk_shock_setup(cfg)
    state = phase_modulated_state(params, spec)
    psi0 = schrodinger_initial(params, spec)

    steps = _steps_for_times(cfg.snapshot_times, params)
    snaps, consistency = _jump_walk(state, params, steps)
    traj = Trajectory(params=params, snapshots=snaps, cadence=max(1, steps[-1] or 1))

    def oracle(t: float):
        return spectral_propagate(psi0, cfg.mass, t)

    records = nonrel_compare(traj, oracle, cfg.mass)
    out = Path(cfg.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    rec_path = out / "nonrel_compare.json"
    with open(rec_path, "w", newline="\n") as fh:
        json.dump(records, fh, indent=2, sort_keys=True)
        fh.write("\n")

    final_err = records[-1]["density_l2"] if records else 0.0
    diagnostics = {"final_density_l2": float(final_err),
                   "records": len(records), "step_consistency": consistency}
    ok, verdicts = _check_tolerances(cfg, diagnostics,
                                     {"density_l2": "final_density_l2"})
    ok = ok and consistency["margin"] >= 0
    doc = _manifest(cfg, "nonrel_compare", diagnostics,
                    {"requested_times": list(cfg.snapshot_times),
                     "realized_times": [r["time"] for r in records],
                     "tolerance_verdicts": verdicts, "ok": ok})
    man = _write_manifest(doc, cfg, "nonrel_compare")
    return RunResult(paths=[rec_path, man], diagnostics=diagnostics, ok=ok)


def _fit_order(spacings, residuals) -> float:
    """Least-squares slope of log(residual) vs log(spacing)."""
    lx = np.log(np.asarray(spacings, dtype=float))
    ly = np.log(np.asarray(residuals, dtype=float))
    slope = np.polyfit(lx, ly, 1)[0]
    return float(slope)


def run_validation(cfg: SimConfig) -> RunResult:
    rng = np.random.default_rng(20260810)
    n_sites = cfg.n_sites or 4096
    mass = cfg.mass or 512.0
    n_steps = cfg.n_steps if cfg.n_steps is not None else 10000

    # unitarity
    params = build_walk(n_sites, mass)
    state = plane_wave(params, 0.0)
    n0 = total_norm(state, params)
    drift = abs(total_norm(march(state, params, n_steps), params) - n0) / n0

    # Madelung roundtrip + current identity on randomized smooth states
    small = build_walk(256, 16.0)
    worst_rt, worst_id = 0.0, 0.0
    for _ in range(20):
        comps = []
        for _c in range(2):
            coeff = np.zeros(small.n_sites, dtype=complex)
            for k in range(-4, 5):
                coeff[k % small.n_sites] = 0.4 * (rng.normal() + 1j * rng.normal())
            comps.append(np.fft.ifft(coeff * small.n_sites) + 4.0)
        st = SpinorField(comps[0], comps[1])
        rec = spinor_from_hydro(currents(st), phases(st))
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(rec.left - st.left)
                                    + np.abs(rec.right - st.right))))
        worst_id = max(worst_id, current_identity_gap(st))

    # Dirac residual refinement with walk data (fixed mass, plane wave q=1)
    refine_res = []
    refine_eps = []
    for n in (512, 1024, 2048):
        p = build_walk(n, 16.0)
        traj = evolve(plane_wave(p, 1.0), p, 4, cadence=1)
        refine_res.append(dirac_residual(traj, p))
        refine_eps.append(p.spacing)
    dirac_monotone = all(b < a for a, b in zip(refine_res, refine_res[1:]))
    dirac_order = _fit_order(refine_eps, refine_res)

    diagnostics = {
        "norm_drift": float(drift),
        "roundtrip_max_error": worst_rt,
        "current_identity_gap": worst_id,
        "dirac_residuals": [float(r) for r in refine_res],
        "dirac_monotone": bool(dirac_monotone),
        "dirac_fitted_order": dirac_order,
    }
    enforced = {"norm_drift": "norm_drift",
                "roundtrip": "roundtrip_max_error",
                "current_identity": "current_identity_gap"}
    cfg_tols = dict(cfg.tolerances)
    cfg_tols.setdefault("norm_drift", 1e-12)
    cfg_tols.setdefault("roundtrip", 1e-12)
    cfg_tols.setdefault("current_identity", 1e-12)
    cfg2 = SimConfig(**{**cfg.__dict__, "tolerances": cfg_tols})
    ok, verdicts = _check_tolerances(cfg2, diagnostics, enforced)
    ok = ok and dirac_monotone

    doc = _manifest(cfg, "validation", diagnostics,
                    {"tolerance_verdicts": verdicts, "ok": ok})
    man = _write_manifest(doc, cfg, "validation")
    return RunResult(paths=[man], diagnostics=diagnostics, ok=ok)


EXPERIMENTS = {
    "dtqw_shock": run_dtqw_shock,
    "dtqw_planewave": run_dtqw_planewave,
    "schrodinger_shock": run_schrodinger_shock,
    "pearcey_map": run_pearcey_map,
    "asymptotic_zones": run_asymptotic_zones,
    "nonrel_compare": run_nonrel_compare,
    "validation": run_validation,
}


def run_experiment(cfg: SimConfig) -> RunResult:
    """Execute the configured experiment; outputs land in cfg.output_dir."""
    try:
        runner = EXPERIMENTS[cfg.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {cfg.experiment!r}") from None
    return runner(cfg)
