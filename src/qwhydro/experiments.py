"""Named experiments: deterministic runs emitting plot-ready CSV data.

Every experiment writes long-format CSV (`t,x,value`, 17 significant
digits, LF endings, t-major order) plus a JSON manifest
carrying the config echo, conservation diagnostics, and the timestamp and
telemetry of the run, the only values that change between reruns.
Identical configs produce byte-identical data files.  Every number in a CSV
is printed as `format(v, ".17g")` prints it; `_csvfmt` writes those bytes
with numpy in blocks of `_csvfmt.BLOCK` values, and its docstring says which
values it hands to `format` itself.

Each `EXPERIMENTS` entry holds a compute function, returning data and
diagnostics, and what it reads from its config; `run_experiment` writes the
data, gates the entry's `tol.<name>` limits and writes the manifest.  A run
that walks jumps its initial state with `_walk`, which hands the run each
snapshot and its density as it arrives and returns the walk diagnostics that
every walking run records.
"""

from __future__ import annotations

import datetime
import functools
import json
import platform
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable

import numpy as np

from . import __version__
from ._csvfmt import write_grid
from ._spectral import fft_calls, ifft
from .asymptotics import ShockChart, pearcey_array, pearcey_nodes, shock_coords, zone_labels
from .hydro import current_identity_gap, phases, spinor_from_hydro, currents
from .initial import ShockInitSpec, phase_modulated_state, plane_wave, schrodinger_initial
from .nonrel import nonrel_compare
from .schrodinger import schrodinger_hydro, spectral_propagate
from .walk import SpinorField, Trajectory, build_walk, dirac_residual, evolve, jumps, \
    probability, step_walk, steps_until, total_norm

if TYPE_CHECKING:
    from .config import SimConfig


@dataclass
class SpacetimeGrid:
    """Values on the outer product of a time list and the spatial grid."""

    x: np.ndarray
    t: np.ndarray
    values: np.ndarray  # shape (len(t), len(x))

    def __post_init__(self):
        if self.values.shape != (len(self.t), len(self.x)):
            raise ValueError("grid dimensions inconsistent")


def emit_spacetime_csv(grid: SpacetimeGrid, path: Path | str) -> Path:
    """Write the real grid in long format, deterministically ordered.

    Each line is "{t},{x},{v}", every number printed as
    `format(float(v), ".17g")` prints it.  `_csvfmt.write_grid` writes whole
    rows, `_csvfmt.BLOCK` = 8192 values at a time; its module docstring says
    which values numpy prints, which go to `format`, and what the blocks and
    the first call's tables cost.  Complex values are refused: a cast to
    float would drop their imaginary parts.
    """
    if np.iscomplexobj(grid.values):
        raise ValueError("emit_spacetime_csv writes real values; got complex")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(b"t,x,value\n")
        write_grid(fh, np.asarray(grid.t, dtype=np.float64),
                   np.asarray(grid.x, dtype=np.float64),
                   np.asarray(grid.values, dtype=np.float64))
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
    the experiment checks; `held` says whether its checks that are no {value,
    limit, margin} record held; `times` pairs requested and realized times.
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
# jump before it, over the largest component modulus of the jump: a plane
# wave's amplitudes grow like √(|q|/mass), so an absolute gap would gate its
# scale, not the kernels' agreement.
STEP_CONSISTENCY_LIMIT = 1e-10


def walk_steps(cfg: SimConfig) -> list[int]:
    """The steps a jumped walk visits: every 16th of `n_steps` and the last, or
    the whole steps of each snapshot time, one step each (else ValueError)."""
    if cfg.n_steps is not None:
        return [*range(0, cfg.n_steps, max(1, cfg.n_steps // 16)), cfg.n_steps]
    params, times = build_walk(cfg.n_sites, cfg.mass), cfg.snapshot_times
    steps = [steps_until(t, params) for t in times]
    if any(b <= a for a, b in zip(steps, steps[1:])):
        raise ValueError(f"two snapshot times land on the same step (2π/n_sites = "
                         f"{params.dt:.6g}): {times} on steps {steps}")
    return steps


def _walk(cfg: SimConfig, state: SpinorField, params,
          keep: Callable[[int, SpinorField, np.ndarray], None] | None = None) -> dict:
    """Walk from `state` to `walk_steps`, jumped to exactly, and return the
    diagnostics of every walking run: the initial norm, the largest relative
    norm drift over the snapshots, the last step the walk reaches (`last_step`)
    and the check against the stepped kernel, max |propagate(j) −
    step_walk(propagate(j − 1))| at that last j over the largest modulus of
    propagate(j).

    Each snapshot is reduced as it arrives: `keep(i, snapshot, density)` is
    called with the i-th snapshot of `walk_steps` and its density
    |Ψ_L|² + |Ψ_R|², and the walk itself keeps only the states at j − 1 and j
    that the check needs.
    """
    steps = walk_steps(cfg)
    index = {j: i for i, j in enumerate(steps)}
    last = max(steps[-1], 1)  # a run that stops at step 0 checks step 1
    wanted = sorted({*steps, last - 1, last})  # each step jumped once
    n0 = total_norm(state, params)
    drifts = []
    for j, snap in zip(wanted, jumps(state, params, wanted)):
        if j in index:
            density, norm = probability(snap, params)
            drifts.append(abs(norm - n0) / n0)
            if keep is not None:
                keep(index[j], snap, density)
        if j == last - 1:
            before = snap
        elif j == last:
            stepped = step_walk(before, params)
            gap = max(np.max(np.abs(snap.left - stepped.left)),
                      np.max(np.abs(snap.right - stepped.right)))
            scale = max(np.max(np.abs(snap.left)), np.max(np.abs(snap.right)))
    # np.max, not max: a nan drift must reach the manifest, not lose every comparison
    return {"initial_norm": n0, "norm_drift": float(np.max(drifts)), "last_step": last,
            "step_consistency": _gate(float(gap / scale), STEP_CONSISTENCY_LIMIT)}


def _shock_setup(cfg: SimConfig):
    return build_walk(cfg.n_sites, cfg.mass), ShockInitSpec(cfg.modes, cfg.q_max, cfg.mass)


def _times(cfg: SimConfig, params) -> tuple[list, list]:
    return list(cfg.snapshot_times), [j * params.dt for j in walk_steps(cfg)]


# ---------------------------------------------------------------------------
# Individual experiments.
# ---------------------------------------------------------------------------

def _dtqw_shock(cfg: SimConfig) -> Computed:
    params, spec = _shock_setup(cfg)
    density = np.empty((len(cfg.snapshot_times), params.n_sites))

    def keep(i, snap, row):
        density[i] = row

    walked = _walk(cfg, phase_modulated_state(params, spec), params, keep)
    times = _times(cfg, params)
    return Computed(
        files={"dtqw_shock_density.csv":
               SpacetimeGrid(x=params.x, t=np.array(times[1]), values=density)},
        diagnostics=walked, measured={"norm_drift": walked["norm_drift"]}, times=times)


def _dtqw_planewave(cfg: SimConfig) -> Computed:
    params = build_walk(cfg.n_sites, cfg.mass)
    density = np.empty((2, params.n_sites))

    def keep(i, snap, row):  # step 0 fills both rows, each later step the last
        density[min(i, 1):] = row

    walked = _walk(cfg, plane_wave(params, cfg.q), params, keep)
    grid = SpacetimeGrid(x=params.x, t=np.array([0.0, cfg.n_steps * params.dt]),
                         values=density)
    return Computed(files={"dtqw_planewave_density.csv": grid},
                    diagnostics={**walked, "n_steps": cfg.n_steps},
                    measured={"norm_drift": walked["norm_drift"]})


def _schrodinger_shock(cfg: SimConfig) -> Computed:
    params, spec = _shock_setup(cfg)
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
    intensity = chart.prefactor_intensity(ts[:, None]) * np.abs(values) ** 2
    worst = float(np.max(errors))
    over = int(np.sum(errors > cfg.pearcey_tol))
    # the quadrature nodes the map evaluated: over the telemetry's compute
    # seconds, the cost of a node
    nodes = int(np.sum(pearcey_nodes(-T, X)))
    diagnostics = {"grid": [int(cfg.nt), int(cfg.nx)],
                   "max_intensity": float(np.max(intensity)),
                   "pearcey_error": _gate(worst, cfg.pearcey_tol),
                   "pearcey_nodes": nodes,
                   "points_over_tol": over}
    grid = SpacetimeGrid(x=xs, t=ts, values=intensity)
    return Computed(files={"pearcey_map.csv": grid}, diagnostics=diagnostics)


def _asymptotic_zones(cfg: SimConfig) -> Computed:
    xs, ts, _, T, X = _window(cfg)
    values = zone_labels(T, X).astype(float)
    counts = {f"zone_{z}": int(np.sum(values == z)) for z in (1, 2, 3)}
    grid = SpacetimeGrid(x=xs, t=ts, values=values)
    return Computed(files={"asymptotic_zones.csv": grid}, diagnostics=counts)


def _nonrel_compare(cfg: SimConfig) -> Computed:
    params, spec = _shock_setup(cfg)
    snaps = []
    walked = _walk(cfg, phase_modulated_state(params, spec), params,
                   lambda i, snap, row: snaps.append(snap))
    # the oracle maps a time to the Schrödinger state of the walk's initial phase
    oracle = functools.partial(spectral_propagate, schrodinger_initial(params, spec), cfg.mass)
    records = nonrel_compare(Trajectory(params=params, snapshots=snaps), oracle, cfg.mass)
    final_err = float(records[-1]["density_l2"] if records else 0.0)
    return Computed(
        files={"nonrel_compare.json": records},
        diagnostics={"final_density_l2": final_err, "records": len(records), **walked},
        measured={"density_l2": final_err}, times=_times(cfg, params))


def _validation(cfg: SimConfig) -> Computed:
    rng = np.random.default_rng(20260810)

    params = build_walk(cfg.n_sites, cfg.mass)  # unitarity of a jumped plane wave
    soak = _walk(cfg, plane_wave(params, 0.0), params)

    # Madelung roundtrip + current identity on randomized smooth states: for
    # each of 20 states and its 2 components, the 9 modes k = −4..4, each
    # coefficient 0.4·(re + i·im) from a pair of normal draws
    small = build_walk(256, 16.0)
    modes = np.arange(-4, 5) % small.n_sites
    draws = 0.4 * rng.normal(size=(20, 2, 9, 2)).view(complex)[..., 0]
    worst_rt, worst_id = 0.0, 0.0
    for state_draws in draws:
        comps = []
        for mode_draws in state_draws:
            coeff = np.zeros(small.n_sites, dtype=complex)
            coeff[modes] = mode_draws
            comps.append(ifft(coeff * small.n_sites) + 4.0)
        st = SpinorField(comps[0], comps[1])
        rec = spinor_from_hydro(currents(st), phases(st))
        worst_rt = max(worst_rt,
                       float(np.max(np.abs(rec.left - st.left)
                                    + np.abs(rec.right - st.right))))
        worst_id = max(worst_id, current_identity_gap(st))

    # Dirac residual refinement with walk data (fixed mass, plane wave q=1),
    # stepped from step 0 and centred on step 2
    refine_res = []
    refine_eps = []
    for n in (512, 1024, 2048):
        p = build_walk(n, 16.0)
        refine_res.append(dirac_residual(evolve(plane_wave(p, 1.0), p, 3), p))
        refine_eps.append(p.spacing)
    dirac_monotone = all(b < a for a, b in zip(refine_res, refine_res[1:]))

    diagnostics = {
        **soak,
        "roundtrip_max_error": worst_rt,
        "current_identity_gap": worst_id,
        "dirac_residuals": [float(r) for r in refine_res],
        "dirac_monotone": bool(dirac_monotone),
        # least-squares slope of log(residual) against log(spacing)
        "dirac_fitted_order": float(np.polyfit(np.log(refine_eps),
                                               np.log(refine_res), 1)[0]),
    }
    return Computed(files={}, diagnostics=diagnostics,
                    measured={"norm_drift": soak["norm_drift"], "roundtrip": worst_rt,
                              "current_identity": worst_id},
                    held=dirac_monotone)


# The keys each key group owns.  Every experiment reads `experiment`,
# `mass` and `output_dir`, and the keys of the groups it needs.
GROUP_KEYS = {
    "lattice": ("n_sites",),
    # the plane-wave momentum; a `t_final` sets the default `n_steps` to its
    # whole steps, so a config may not set both
    "wave": ("q", "t_final"),
    # `t_final` defaults to 1.5/u_max
    "modes": ("mode", "q_max", "t_final", "snapshot_times"),
    # a walk of `n_steps` steps, 10⁴ by default, on `n_sites` = 4096 unless set
    "steps": ("n_sites", "n_steps"),
    # the (x, t) map grid
    "window": ("x_min", "x_max", "nx", "t_min", "t_max", "nt"),
    "quadrature": ("pearcey_tol",),
}


@dataclass(frozen=True)
class Experiment:
    """One experiment: its compute function and what it reads from its config.

    `needs` names the key groups of `GROUP_KEYS` it reads.  `gates` maps
    each `tol.<name>` the run enforces to its default limit, None for a
    gate enforced only when the config sets it.  `schedule` lists the
    default snapshot times as fractions of `t_final`.  `walk` says whether
    the run jumps a walk to `walk_steps` with `walk.jumps`, and
    `schrodinger` whether it propagates a wavefunction to its snapshot
    times with `spectral_propagate`.
    """

    compute: Callable[[SimConfig], Computed]
    needs: tuple[str, ...]
    gates: dict[str, float | None]
    schedule: tuple[float, ...] = ()
    walk: bool = False
    schrodinger: bool = False

    @property
    def keys(self) -> frozenset[str]:
        """Every key the experiment reads, `tol.<name>` lines aside."""
        return frozenset({"experiment", "mass", "output_dir"}).union(
            *(GROUP_KEYS[group] for group in self.needs))


_NORM_DRIFT = {"norm_drift": 1e-10}
_EIGHTHS = tuple(i / 8.0 for i in range(9))

EXPERIMENTS = {
    "dtqw_shock": Experiment(_dtqw_shock, ("lattice", "modes"), _NORM_DRIFT, _EIGHTHS, True),
    "dtqw_planewave": Experiment(_dtqw_planewave, ("lattice", "wave", "steps"), _NORM_DRIFT,
                                 walk=True),
    "schrodinger_shock": Experiment(_schrodinger_shock, ("lattice", "modes"), _NORM_DRIFT,
                                    (1.0 / 3.0, 2.0 / 3.0, 1.0), schrodinger=True),
    "pearcey_map": Experiment(_pearcey_map, ("window", "quadrature"), {}),
    "asymptotic_zones": Experiment(_asymptotic_zones, ("window",), {}),
    "nonrel_compare": Experiment(_nonrel_compare, ("lattice", "modes"), {"density_l2": None},
                                 _EIGHTHS, True, True),
    "validation": Experiment(_validation, ("steps",), {"norm_drift": 1e-12, "roundtrip": 1e-12,
                                                       "current_identity": 1e-12},
                             walk=True),
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


@functools.cache
def _versions() -> dict:
    # scipy's is read from its installed metadata, so that no run has to
    # import scipy; importlib.metadata itself costs 20 ms to import
    from importlib.metadata import version
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy")}


def _telemetry(stages: dict[str, float], ffts: int, rows: int) -> dict:
    """The manifest's record of the run's costs: wall seconds per stage,
    the FFTs and inverse FFTs taken, the rows written over the run's CSVs,
    the process's peak resident set so far, and the library versions."""
    # ru_maxrss counts KiB on Linux and bytes on macOS
    rss_unit = 1 << (20 if sys.platform == "darwin" else 10)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * rss_unit / 2.0 ** 20
    return {"stage_wall_s": stages, "fft_calls": ffts, "csv_rows": rows,
            "peak_rss_mb": peak, "versions": _versions()}


def run_experiment(cfg: SimConfig) -> RunResult:
    """Execute the configured experiment; outputs land in cfg.output_dir.

    The experiment computes its data files and diagnostics; the runner
    writes the files, gates every `tol.<name>` its `EXPERIMENTS` entry
    declares as {value, limit, margin}, and writes the manifest.  The run
    is ok when every such record, in the verdicts or the diagnostics, has a
    nonnegative margin, every diagnostic is finite and `held` is true.  The
    manifest's `telemetry` times the compute, emit and manifest stages (the
    last ends where the manifest is written, as a file cannot hold the time
    of its own write), counts the run's FFTs as `fft_calls` and the rows of
    its CSVs as `csv_rows`, so that emit seconds per row can be read off.
    """
    try:
        spec = EXPERIMENTS[cfg.experiment]
    except KeyError:
        raise ValueError(f"unknown experiment {cfg.experiment!r}") from None
    ffts = fft_calls()
    started = time.perf_counter()
    done = spec.compute(cfg)
    computed = time.perf_counter()
    out = Path(cfg.output_dir)
    paths = [emit_spacetime_csv(data, out / name) if isinstance(data, SpacetimeGrid)
             else _write_json(data, out / name) for name, data in done.files.items()]
    rows = sum(data.values.size for data in done.files.values()
               if isinstance(data, SpacetimeGrid))
    emitted = time.perf_counter()

    verdicts = {}
    for name, default in spec.gates.items():
        limit = cfg.tolerances.get(name, default)
        if limit is not None:
            verdicts[name] = _gate(done.measured[name], limit)
    records = [*verdicts.values(), *(value for value in done.diagnostics.values()
                                     if isinstance(value, dict) and "margin" in value)]
    # a diagnostic that came out nan or inf fails the run, gated or not
    finite = _strict_json(done.diagnostics)[1]
    ok = bool(done.held) and finite and all(r["margin"] >= 0 for r in records)

    # the resolved values of the keys the experiment reads (`mode` lines are `modes`)
    echoed = {"tolerances"} | {"modes" if key == "mode" else key for key in spec.keys}
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
    doc["telemetry"] = _telemetry({"compute": computed - started,
                                   "emit": emitted - computed,
                                   "manifest": time.perf_counter() - emitted},
                                  fft_calls() - ffts, rows)
    paths.append(_write_json(doc, out / f"{cfg.experiment}_manifest.json"))
    return RunResult(paths=paths, diagnostics=done.diagnostics, ok=ok)
