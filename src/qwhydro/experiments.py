"""Named experiments: deterministic runs emitting plot-ready CSV data.

Every experiment writes long-format CSV (`t,x,value`, 17 significant
digits, LF endings, t-major order) plus a JSON manifest
carrying the config echo, conservation diagnostics and the only timestamp
of the run.  Identical configs produce byte-identical data files.

Each experiment is a compute function returning its data and diagnostics;
`run_experiment` writes them, gates the `tol.<name>` limits that the
experiment's `config.EXPERIMENTS` entry declares, and writes the manifest.
"""

from __future__ import annotations

import datetime
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .asymptotics import ShockChart, pearcey_array, shock_coords, zone_labels
from .config import EXPERIMENTS, SimConfig
from .hydro import current_identity_gap, phases, spinor_from_hydro, currents
from .initial import ShockInitSpec, phase_modulated_state, plane_wave, schrodinger_initial
from .nonrel import nonrel_compare
from .schrodinger import schrodinger_hydro, spectral_propagate
from .walk import SpinorField, Trajectory, build_walk, dirac_residual, evolve, march, \
    propagate, step_walk, steps_until, total_norm


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
    """Write the real grid in long format, deterministically ordered.

    The t and x strings are formatted once each; every t row is then one
    `%`-format of a `{t},{x},%.17g` template, which prints the same digits
    as `format(v, ".17g")` did per value.  Complex values are refused: a
    cast to float would drop their imaginary parts.
    """
    if np.iscomplexobj(grid.values):
        raise ValueError("emit_spacetime_csv writes real values; got complex")
    path = Path(path)
    rows = np.asarray(grid.values, dtype=np.float64)
    # a row is t_str + t_str.join(sites): "{t},{x},%.17g\n" for every x
    sites = [f",{_fmt(x)},%.17g\n" for x in grid.x]
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x,value\n")
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


@dataclass
class Computed:
    """What an experiment's compute function hands `run_experiment`.

    `files` maps output file names to a grid (written as CSV) or to records
    (written as JSON); `measured` holds the value each `tol.<name>` gate of
    the experiment checks; `held` says whether the experiment's own gates
    held; `times` pairs the requested and realized snapshot times.
    """

    files: dict[str, SpacetimeGrid | list]
    diagnostics: dict
    measured: dict[str, float] = field(default_factory=dict)
    held: bool = True
    times: tuple[list, list] | None = None


def _gate(value: float, limit: float) -> dict:
    """A diagnostic against its limit, in the shape the manifests record."""
    return {"value": value, "limit": limit, "margin": limit - value}


# Largest gap allowed between a spectral jump and one stepped step from the
# jump before it (the norm_drift default).
STEP_CONSISTENCY_LIMIT = 1e-10


def _jump_walk(state: SpinorField, params, times):
    """The walk states at the snapshot times, jumped to exactly.

    Times round down to whole steps (t = j·ε); the realized times are
    returned with the states.  Also returns the in-run cross-check against
    the stepped kernel: max |propagate(j) − step_walk(propagate(j − 1))| at
    the last step j.
    """
    wanted = sorted({steps_until(t, params) for t in times})
    last = max(wanted[-1], 1)  # a run that stops at step 0 checks step 1
    *snaps, before, after = propagate(state, params, [*wanted, last - 1, last])
    stepped = step_walk(before, params)
    gap = float(max(np.max(np.abs(after.left - stepped.left)),
                    np.max(np.abs(after.right - stepped.right))))
    return snaps, [j * params.dt for j in wanted], _gate(gap, STEP_CONSISTENCY_LIMIT)


def _walk_shock_setup(cfg: SimConfig):
    params = build_walk(cfg.n_sites, cfg.mass)
    spec = ShockInitSpec(modes=cfg.modes, q_max=cfg.q_max, mass=cfg.mass)
    return params, spec


# ---------------------------------------------------------------------------
# Individual experiments.
# ---------------------------------------------------------------------------

def _dtqw_shock(cfg: SimConfig) -> Computed:
    params, spec = _walk_shock_setup(cfg)
    state = phase_modulated_state(params, spec)
    n0 = total_norm(state, params)
    snaps, realized, consistency = _jump_walk(state, params, cfg.snapshot_times)
    density = np.array([currents(s).j0 for s in snaps])
    drift = float(abs(total_norm(snaps[-1], params) - n0) / n0)
    return Computed(
        files={"dtqw_shock_density.csv":
               SpacetimeGrid(x=params.x, t=np.array(realized), values=density)},
        diagnostics={"norm_drift": drift, "initial_norm": float(n0),
                     "step_consistency": consistency},
        measured={"norm_drift": drift},
        held=consistency["margin"] >= 0,
        times=(list(cfg.snapshot_times), realized))


def _dtqw_planewave(cfg: SimConfig) -> Computed:
    params = build_walk(cfg.n_sites, cfg.mass)
    state = plane_wave(params, cfg.q)
    n_steps = cfg.n_steps
    n0 = total_norm(state, params)
    cur = state
    max_drift = 0.0
    check_every = max(1, n_steps // 16)
    while cur.step_index < n_steps:
        cur = march(cur, params, min(check_every, n_steps - cur.step_index))
        max_drift = max(max_drift, abs(total_norm(cur, params) - n0) / n0)

    density = np.array([currents(state).j0, currents(cur).j0])
    grid = SpacetimeGrid(x=params.x, t=np.array([0.0, n_steps * params.dt]),
                         values=density)
    max_drift = float(max_drift)
    return Computed(files={"dtqw_planewave_density.csv": grid},
                    diagnostics={"norm_drift": max_drift, "n_steps": n_steps},
                    measured={"norm_drift": max_drift})


def _schrodinger_shock(cfg: SimConfig) -> Computed:
    params, spec = _walk_shock_setup(cfg)
    psi0 = schrodinger_initial(params, spec)
    times = list(cfg.snapshot_times)
    densities, velocities = [], []
    for t in times:
        psi_t = spectral_propagate(psi0, cfg.mass, t)
        n, v = schrodinger_hydro(psi_t, cfg.mass)
        densities.append(n)
        velocities.append(v)

    t_arr = np.array(times)
    norm0 = float(np.linalg.norm(psi0.values))
    # psi_t is the state at the last snapshot time
    drift = abs(float(np.linalg.norm(psi_t.values)) - norm0) / norm0
    return Computed(
        files={"schrodinger_shock_density.csv":
               SpacetimeGrid(params.x, t_arr, np.array(densities)),
               "schrodinger_shock_velocity.csv":
               SpacetimeGrid(params.x, t_arr, np.array(velocities))},
        diagnostics={"norm_drift": drift},
        measured={"norm_drift": drift},
        times=(times, times))


def _window(cfg: SimConfig):
    """The (x, t) grid of a map experiment and its cusp coordinates.

    T has shape (nt, 1) and X (nt, nx); both broadcast to the grid.
    """
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
    ts = np.linspace(cfg.t_min, cfg.t_max, cfg.nt)
    chart = ShockChart.from_mass(cfg.mass)
    T, X = shock_coords(xs[None, :], ts[:, None], chart)
    return xs, ts, chart, T, X


def _pearcey_map(cfg: SimConfig) -> Computed:
    xs, ts, chart, T, X = _window(cfg)
    values, errors = pearcey_array(-T, X)
    # |A|² of shock_map's prefactor A = e^{iφ}/√(2iπtε√a)
    amplitude2 = 1.0 / (2.0 * np.pi * ts[:, None] * chart.eps * np.sqrt(chart.a))
    intensity = amplitude2 * np.abs(values) ** 2
    worst = float(np.max(errors))
    over = int(np.sum(errors > cfg.pearcey_tol))
    diagnostics = {"grid": [int(cfg.nt), int(cfg.nx)],
                   "max_intensity": float(np.max(intensity)),
                   "pearcey_error": _gate(worst, cfg.pearcey_tol),
                   "points_over_tol": over}
    grid = SpacetimeGrid(x=xs, t=ts, values=intensity)
    return Computed(files={"pearcey_map.csv": grid}, diagnostics=diagnostics,
                    held=over == 0)


def _asymptotic_zones(cfg: SimConfig) -> Computed:
    xs, ts, _, T, X = _window(cfg)
    values = zone_labels(T, X).astype(float)
    counts = {f"zone_{z}": int(np.sum(values == z)) for z in (1, 2, 3)}
    grid = SpacetimeGrid(x=xs, t=ts, values=values)
    return Computed(files={"asymptotic_zones.csv": grid}, diagnostics=counts)


def _nonrel_compare(cfg: SimConfig) -> Computed:
    params, spec = _walk_shock_setup(cfg)
    state = phase_modulated_state(params, spec)
    psi0 = schrodinger_initial(params, spec)
    snaps, realized, consistency = _jump_walk(state, params, cfg.snapshot_times)

    def oracle(t: float):
        return spectral_propagate(psi0, cfg.mass, t)

    records = nonrel_compare(Trajectory(params=params, snapshots=snaps), oracle, cfg.mass)
    final_err = float(records[-1]["density_l2"] if records else 0.0)
    return Computed(
        files={"nonrel_compare.json": records},
        diagnostics={"final_density_l2": final_err, "records": len(records),
                     "step_consistency": consistency},
        measured={"density_l2": final_err},
        held=consistency["margin"] >= 0,
        times=(list(cfg.snapshot_times), realized))


def _validation(cfg: SimConfig) -> Computed:
    rng = np.random.default_rng(20260810)

    # unitarity
    params = build_walk(cfg.n_sites, cfg.mass)
    state = plane_wave(params, 0.0)
    n0 = total_norm(state, params)
    drift = float(abs(total_norm(march(state, params, cfg.n_steps), params) - n0) / n0)

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

    diagnostics = {
        "norm_drift": drift,
        "roundtrip_max_error": worst_rt,
        "current_identity_gap": worst_id,
        "dirac_residuals": [float(r) for r in refine_res],
        "dirac_monotone": bool(dirac_monotone),
        # least-squares slope of log(residual) against log(spacing)
        "dirac_fitted_order": float(np.polyfit(np.log(refine_eps),
                                               np.log(refine_res), 1)[0]),
    }
    return Computed(files={}, diagnostics=diagnostics,
                    measured={"norm_drift": drift, "roundtrip": worst_rt,
                              "current_identity": worst_id},
                    held=dirac_monotone)


_COMPUTE = {
    "dtqw_shock": _dtqw_shock,
    "dtqw_planewave": _dtqw_planewave,
    "schrodinger_shock": _schrodinger_shock,
    "pearcey_map": _pearcey_map,
    "asymptotic_zones": _asymptotic_zones,
    "nonrel_compare": _nonrel_compare,
    "validation": _validation,
}


_SPELLED = {"NaN": "nan", "Infinity": "inf", "-Infinity": "-inf"}


def _strict_json(doc) -> tuple[object, bool]:
    """`doc` with nan and ±inf spelled "nan", "inf" and "-inf", as strict
    JSON needs, and whether it held none; finite numbers round-trip exactly."""
    spelled = []

    def spell(token: str) -> str:
        spelled.append(token)
        return _SPELLED[token]

    return json.loads(json.dumps(doc), parse_constant=spell), not spelled


def _write_json(doc, path: Path) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        json.dump(_strict_json(doc)[0], fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")
    return path


def run_experiment(cfg: SimConfig) -> RunResult:
    """Execute the configured experiment; outputs land in cfg.output_dir.

    The experiment computes its data files and diagnostics; the runner
    writes the files, gates every `tol.<name>` its `EXPERIMENTS` entry
    declares as {value, limit, margin}, and writes the manifest.  The run
    is ok when every margin is nonnegative, every diagnostic is finite and
    the experiment's own gates held.
    """
    try:
        compute = _COMPUTE[cfg.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {cfg.experiment!r}") from None
    done = compute(cfg)
    out = Path(cfg.output_dir)
    paths = [emit_spacetime_csv(data, out / name) if isinstance(data, SpacetimeGrid)
             else _write_json(data, out / name) for name, data in done.files.items()]

    verdicts = {}
    for name, default in EXPERIMENTS[cfg.experiment].gates.items():
        limit = cfg.tolerances.get(name, default)
        if limit is not None:
            verdicts[name] = _gate(done.measured[name], limit)
    # a diagnostic that came out nan or inf fails the run, gated or not
    finite = _strict_json(done.diagnostics)[1]
    ok = bool(done.held) and finite and all(v["margin"] >= 0 for v in verdicts.values())

    # the resolved values of the keys the experiment reads (`mode` lines are `modes`)
    echoed = {"tolerances"} | {"modes" if key == "mode" else key
                               for key in EXPERIMENTS[cfg.experiment].keys}
    doc = {
        "experiment": cfg.experiment,
        "version": __version__,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "config": {key: str(value) if isinstance(value, Path) else value
                   for key, value in asdict(cfg).items() if key in echoed},
        "diagnostics": done.diagnostics,
        "tolerance_verdicts": verdicts,
        "ok": ok,
    }
    if done.times is not None:
        doc["requested_times"], doc["realized_times"] = done.times
    paths.append(_write_json(doc, out / f"{cfg.experiment}_manifest.json"))
    return RunResult(paths=paths, diagnostics=done.diagnostics, ok=ok)
