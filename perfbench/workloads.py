"""The four benchmark workloads.

Each workload is built from a seed and hands qwhydro only generated config
text or arrays.  The seed changes phases, offsets and the plane-wave
momentum, never sizes or step counts, so the cost of a pass does not depend
on it.  A pass is timed from validated inputs to all artifacts written;
``verify`` then checks the last pass's outputs against independent routes,
outside the timing.

Every operation (one experiment run, one sweep point, one checkpoint-window
analysis, one three-route Schrödinger solve) is counted.  A failing
operation is recorded with its exception type and the pass goes on.

The timed passes hold only operations that succeed at the baseline commit.
The inputs on which qwhydro is known to fail are evaluated by ``probe``,
once per run and untimed, and reported apart from the operation count, so
a fix shows as a drop in the known-failure counts and a new failure in the
timed passes shows as a failed operation.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from collections import Counter
from pathlib import Path

import numpy as np

from qwhydro import asymptotics, experiments, hydro, initial, nonrel, schrodinger, walk
from qwhydro.config import parse_config

TWO_PI = 2.0 * math.pi

# Tolerances of the tier-1 tests for the same cross-checks.
NORM_DRIFT_TOL = 1e-12        # unitarity (acceptance criterion 1)
ROUNDTRIP_TOL = 1e-12         # Madelung roundtrip (criterion 2)
STRESS_ENERGY_TOL = 1e-12     # spinor vs hydro route on-shell (test_hydro)
PEARCEY_DIRECT_TOL = 1e-6     # rotated contour vs windowed direct (test_asymptotics)
PEARCEY_DIRECT_RANGE = 10.0   # |T|, |X| where the direct route is valid
BESSEL_TOL = 1e-10            # spectral vs Bessel series (test_schrodinger)
GREENS_REL_TOL = 1e-4         # kernel quadrature vs spectral (test_schrodinger)


class Ops:
    """Counts attempted operations and records the failed ones."""

    def __init__(self):
        self.attempted = 0
        self.failures: Counter[tuple[str, str]] = Counter()

    def run(self, op: str, fn, *args):
        self.attempted += 1
        try:
            return fn(*args)
        except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
            self.failures[(op, type(exc).__name__)] += 1
            return None

    def experiment(self, cfg):
        op = f"run_experiment:{cfg.experiment}"
        result = self.run(op, experiments.run_experiment, cfg)
        if result is not None and not result.ok:
            self.failures[(op, "NotOk")] += 1
        return result


def _modes_text(offsets) -> str:
    amplitudes = (1.0, 1.0 / 3.0, 0.5)
    wavenumbers = (1, 3, 2)
    return "".join(f"mode = {a!r},{k},{float(d)!r}\n"
                   for a, k, d in zip(amplitudes, wavenumbers, offsets))


def check(name: str, passed: bool, detail: str) -> dict:
    return {"check": name, "passed": bool(passed), "detail": detail}


class Workload:
    """A seeded workload writing its artifacts under `out`."""

    def __init__(self, out: Path):
        self.out = out

    def digests(self, artifacts: dict) -> dict[str, str]:
        """SHA-256 of every CSV written (manifests carry a timestamp)."""
        return {str(p.relative_to(self.out)): hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(self.out.rglob("*.csv"))}

    def probe(self) -> Counter[tuple[str, str]]:
        """Evaluate the inputs of the known defects; return the failures by
        (operation, exception type).  Untimed, once per run."""
        return Counter()


class ShockSpacetime(Workload):
    """dtqw_shock through run_experiment with a dense snapshot schedule."""

    name = "shock_spacetime"
    N_SITES = 4096
    MASS = 512.0
    Q_MAX = 51.2            # u_max = 0.1
    T_FINAL = 15.0          # 1.5 / u_max
    SNAPSHOTS = 64

    def __init__(self, seed: int, out: Path):
        super().__init__(out)
        rng = np.random.default_rng(seed)
        times = ", ".join(repr(self.T_FINAL * i / (self.SNAPSHOTS - 1))
                          for i in range(self.SNAPSHOTS))
        self.configs = [
            "experiment = dtqw_shock\n"
            f"n_sites = {self.N_SITES}\nmass = {self.MASS!r}\nq_max = {self.Q_MAX!r}\n"
            + _modes_text(rng.uniform(0.0, TWO_PI, 3))
            + f"t_final = {self.T_FINAL!r}\nsnapshot_times = {times}\n"
            f"output_dir = {out / 'dtqw_shock'}\n"]
        self.cfg = parse_config(self.configs[0])
        params = walk.build_walk(self.N_SITES, self.MASS)
        steps = int(math.floor(self.T_FINAL / params.dt + 1e-9))
        self.work = {"site_steps": self.N_SITES * steps}

    def run_pass(self, ops: Ops) -> dict:
        return {"result": ops.experiment(self.cfg)}

    def verify(self, artifacts: dict) -> list[dict]:
        # Every written snapshot must carry the initial total probability.
        path = Path(self.cfg.output_dir) / "dtqw_shock_density.csv"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        rows = data[:, 2].reshape(self.SNAPSHOTS, self.N_SITES)
        norms = rows.sum(axis=1) * (TWO_PI / self.N_SITES)
        drift = float(np.max(np.abs(norms - norms[0])) / norms[0])
        return [check("snapshot_norm_conservation", drift <= NORM_DRIFT_TOL,
                      f"max drift {drift:.2e} over {self.SNAPSHOTS} CSV snapshots")]


class UnitaritySoak(Workload):
    """The shipped planewave.cfg (q drawn from the seed) and validation.cfg."""

    name = "unitarity_soak"
    N_SITES = 4096
    STEPS = 10000
    # validation: plane-wave soak plus 4 steps at N = 512, 1024, 2048
    VALIDATION_SITE_STEPS = N_SITES * STEPS + 4 * (512 + 1024 + 2048)

    def __init__(self, seed: int, out: Path):
        super().__init__(out)
        q = int(np.random.default_rng(seed).integers(0, 5))
        self.configs = [
            "experiment = dtqw_planewave\n"
            f"n_sites = {self.N_SITES}\nmass = 512\nq = {q}\nn_steps = {self.STEPS}\n"
            f"tol.norm_drift = 1e-12\noutput_dir = {out / 'planewave'}\n",
            "experiment = validation\n"
            f"n_sites = {self.N_SITES}\nmass = 512\nn_steps = {self.STEPS}\n"
            "tol.norm_drift = 1e-12\ntol.roundtrip = 1e-12\n"
            f"tol.current_identity = 1e-12\noutput_dir = {out / 'validation'}\n"]
        self.cfgs = [parse_config(text) for text in self.configs]
        self.work = {"site_steps": self.N_SITES * self.STEPS + self.VALIDATION_SITE_STEPS}

    def run_pass(self, ops: Ops) -> dict:
        return {"results": [ops.experiment(cfg) for cfg in self.cfgs]}

    def verify(self, artifacts: dict) -> list[dict]:
        # The runs' own gates (norm drift, roundtrip, current identity at
        # 1e-12) are the verdicts here; they arrive through `ok`.
        return []


class CausticWindow(Workload):
    """Pearcey map and zone labels at mass 20 on a dense window and a zone
    sweep over the same window off the axis x = 0.

    The two known defects are probed apart from the timed passes:
    ``shock_zone_value`` on the axis x = 0 of the window (ZeroDivisionError
    before the caustic) and ``pearcey_shock_approx`` at mass 50 on the
    shipped window at tol 1e-6 (PearceyConvergenceError where the rotated
    contour is roundoff-limited)."""

    name = "caustic_window"
    MASS = 20.0
    NX, NT = 51, 31          # odd nx: x = 0 is always sampled
    T_MIN, T_MAX = 0.6, 1.8
    SHIFT = 0.05             # the seed shifts the t window by at most this
    TOL = 1e-6
    # The shipped pearcey_map.cfg window, evaluated at mass 50.
    M50_MASS, M50_NX, M50_NT = 50.0, 41, 25
    DIRECT_SAMPLES = 16

    def __init__(self, seed: int, out: Path):
        super().__init__(out)
        self.rng = np.random.default_rng(seed)
        shift = float(self.rng.uniform(-self.SHIFT, self.SHIFT))
        window = (f"mass = {self.MASS!r}\nx_min = -1.0\nx_max = 1.0\nnx = {self.NX}\n"
                  f"t_min = {self.T_MIN + shift!r}\nt_max = {self.T_MAX + shift!r}\n"
                  f"nt = {self.NT}\n")
        self.configs = [
            f"experiment = pearcey_map\n{window}pearcey_tol = {self.TOL!r}\n"
            f"output_dir = {out / 'pearcey_map'}\n",
            f"experiment = asymptotic_zones\n{window}output_dir = {out / 'zones'}\n"]
        self.map_cfg, self.zones_cfg = (parse_config(text) for text in self.configs)
        xs = np.linspace(-1.0, 1.0, self.NX)
        if xs[self.NX // 2] != 0.0:
            raise RuntimeError("the caustic window must sample x = 0")
        self.xs = np.delete(xs, self.NX // 2)  # the zone sweep, off the axis
        self.ts = np.linspace(self.map_cfg.t_min, self.map_cfg.t_max, self.NT)
        self.xs50 = np.linspace(-1.0, 1.0, self.M50_NX)
        self.ts50 = np.linspace(0.6, 1.8, self.M50_NT)
        self.m50 = []
        self.work = {"points": (3 * self.NX - 1) * self.NT}

    def run_pass(self, ops: Ops) -> dict:
        ops.experiment(self.map_cfg)
        ops.experiment(self.zones_cfg)
        chart = asymptotics.ShockChart.from_mass(self.MASS)
        zones = [[ops.run("sweep:shock_zone_value", asymptotics.shock_zone_value,
                          float(x), float(t), chart) for x in self.xs] for t in self.ts]
        return {"zones": zones}

    def probe(self) -> Counter[tuple[str, str]]:
        probe = Ops()
        chart = asymptotics.ShockChart.from_mass(self.MASS)
        for t in self.ts:
            probe.run("probe:shock_zone_value_x0", asymptotics.shock_zone_value,
                      0.0, float(t), chart)
        chart50 = asymptotics.ShockChart.from_mass(self.M50_MASS)
        self.m50 = [[probe.run("probe:pearcey_shock_approx_m50",
                               asymptotics.pearcey_shock_approx,
                               float(x), float(t), chart50, self.TOL) for x in self.xs50]
                    for t in self.ts50]
        return probe.failures

    def pool_speedup(self) -> float:
        """pearcey_map wall time at 1 worker over the time at nproc workers."""
        walls = {}
        for workers in ("1", str(os.cpu_count() or 1)):
            os.environ["QWHYDRO_THREADS"] = workers
            start = time.perf_counter()
            experiments.run_experiment(self.map_cfg)
            walls[workers] = time.perf_counter() - start
        os.environ["QWHYDRO_THREADS"] = "1"
        one, many = walls.values()
        return one / many

    def _against_direct(self, name, points, chart) -> dict:
        """|A·I_P| from the run against |A|·|pearcey_direct| at sampled points."""
        eligible = []
        for x, t, magnitude in points:
            T, X, A = asymptotics.shock_map(x, t, chart)
            if abs(T) <= PEARCEY_DIRECT_RANGE and abs(X) <= PEARCEY_DIRECT_RANGE:
                eligible.append((T, X, A, magnitude))
        if not eligible:
            return check(name, False, "no point inside the direct route's range")
        picks = self.rng.choice(len(eligible), min(self.DIRECT_SAMPLES, len(eligible)),
                                replace=False)
        worst = 0.0
        for i in picks:
            T, X, A, magnitude = eligible[i]
            direct = abs(A) * abs(asymptotics.pearcey_direct(-T, X))
            worst = max(worst, abs(magnitude - direct) / abs(A))
        return check(name, worst < PEARCEY_DIRECT_TOL,
                     f"max |I_P| gap {worst:.2e} at {len(picks)} of {len(eligible)} "
                     "points in range")

    def verify(self, artifacts: dict) -> list[dict]:
        chart = asymptotics.ShockChart.from_mass(self.MASS)
        intensity = np.loadtxt(Path(self.map_cfg.output_dir) / "pearcey_map.csv",
                               delimiter=",", skiprows=1)
        checks = [self._against_direct(
            "pearcey_map_vs_direct",
            [(x, t, math.sqrt(v)) for t, x, v in intensity], chart)]

        chart50 = asymptotics.ShockChart.from_mass(self.M50_MASS)
        m50 = [(float(x), float(t), abs(v))
               for t, row in zip(self.ts50, self.m50)
               for x, v in zip(self.xs50, row) if v is not None]
        checks.append(self._against_direct("pearcey_m50_vs_direct", m50, chart50))

        def label(x, t):
            T, X, _ = asymptotics.shock_map(x, t, chart)
            delta = asymptotics.discriminant(T, X)
            band = asymptotics.DELTA_BAND
            return 1 if delta < -band else (3 if delta > band else 2)

        zones = np.loadtxt(Path(self.zones_cfg.output_dir) / "asymptotic_zones.csv",
                           delimiter=",", skiprows=1)
        bad = sum(int(z) != label(x, t) for t, x, z in zones)
        swept = [(float(x), float(t), r) for t, row in zip(self.ts, artifacts["zones"])
                 for x, r in zip(self.xs, row) if r is not None]
        bad_sweep = sum(int(r.point.zone) != label(x, t) for x, t, r in swept)
        checks.append(check("zone_labels_vs_discriminant", bad == 0 and bad_sweep == 0,
                            f"{bad} of {len(zones)} CSV labels and {bad_sweep} of "
                            f"{len(swept)} sweep labels differ"))
        return checks


class FluidOracles(Workload):
    """Library calls only: the fluid chart, residuals and Galilean oracle on
    windows of a multimode walk, and the three Schrödinger routes."""

    name = "fluid_oracles"
    N_SITES = 8192
    MASS = 512.0
    Q_MAX = 51.2
    # Checkpoints at t = i/16, i = 1..16: all before the multimode shock,
    # which forms near t ≈ 1/(u_max·Σ aₖkₖ²) = 1/0.6 ≈ 1.7.
    CHECKPOINTS = 16
    WINDOW = 5
    SCH_MASS, SCH_SITES, SCH_TIMES = 20.0, 256, (0.5, 0.8, 1.1)
    GREENS_POINTS = 2

    def __init__(self, seed: int, out: Path):
        super().__init__(out)
        rng = np.random.default_rng(seed)
        offsets = rng.uniform(0.0, TWO_PI, 3)
        self.modes = tuple(initial.ModeSpec(a, k, float(d)) for a, k, d in
                           zip((1.0, 1.0 / 3.0, 0.5), (1, 3, 2), offsets))
        stride = self.SCH_SITES // self.GREENS_POINTS
        self.greens_sites = int(rng.integers(0, stride)) + stride * np.arange(
            self.GREENS_POINTS)
        self.configs = []
        self.params = walk.build_walk(self.N_SITES, self.MASS)
        self.targets = [int(math.floor(i / self.CHECKPOINTS / self.params.dt))
                        - self.WINDOW // 2 for i in range(1, self.CHECKPOINTS + 1)]
        last = self.targets[-1] + self.WINDOW - 1
        self.work = {"site_steps": self.N_SITES * last}
        self.sch_x = TWO_PI * np.arange(self.SCH_SITES) / self.SCH_SITES
        self.sch_psi0 = np.exp(1j * self.SCH_MASS * np.cos(self.sch_x))

    def _checkpoint(self, state, target, psi0):
        params, mass = self.params, self.MASS
        hop = target - state.step_index
        window = [walk.evolve(state, params, hop, cadence=hop).snapshots[-1]]
        for _ in range(self.WINDOW - 1):  # one-step hops
            window.append(walk.evolve(window[-1], params, 1).snapshots[-1])
        traj = walk.Trajectory(params=params, snapshots=window, cadence=1)
        mid = window[self.WINDOW // 2]
        cur = hydro.currents(mid)
        ph = hydro.phases(mid)
        h = hydro.hydro_vars(cur, ph, mass)
        out = {
            "mid": mid,
            "norm": walk.total_norm(mid, params),
            "rebuilt": hydro.spinor_from_hydro(cur, ph),
            "t_spinor": hydro.stress_energy_spinor(mid, params, prev=window[1],
                                                   nxt=window[3]),
            "t_hydro": hydro.stress_energy_hydro(h, ph, params),
            "madelung": hydro.madelung_residuals(traj, params),
            "conservation": hydro.stress_energy_conservation_residual(traj, params),
            "pressure": hydro.quantum_pressure_gradient(h, ph, params),
            "dirac": walk.dirac_residual(traj, params),
            "klein_gordon": nonrel.klein_gordon_residual(traj, params),
            "nonrel": nonrel.nonrel_compare(
                traj, lambda t: schrodinger.spectral_propagate(psi0, mass, t), mass),
        }
        return window[-1], out

    def _routes(self, t):
        psi0 = schrodinger.Wavefunction(self.sch_psi0)
        return {
            "spectral": schrodinger.spectral_propagate(psi0, self.SCH_MASS, t).values,
            "bessel": schrodinger.single_shock_psi(self.sch_x, t, self.SCH_MASS),
            "greens": schrodinger.greens_propagate(
                self.sch_psi0, self.SCH_MASS, t, x_eval=self.sch_x[self.greens_sites]).values,
        }

    def run_pass(self, ops: Ops) -> dict:
        params = self.params
        spec = initial.ShockInitSpec(modes=self.modes, q_max=self.Q_MAX, mass=self.MASS)
        state = initial.phase_modulated_state(params, spec)
        psi0 = initial.schrodinger_initial(params, spec)
        norm0 = walk.total_norm(state, params)
        windows = []
        for target in self.targets:
            done = ops.run("checkpoint_window", self._checkpoint, state, target, psi0)
            if done is not None:
                state, analysis = done
                windows.append(analysis)
        routes = [ops.run("schrodinger_routes", self._routes, t) for t in self.SCH_TIMES]
        return {"norm0": norm0, "windows": windows,
                "routes": [r for r in routes if r is not None]}

    def digests(self, artifacts: dict) -> dict[str, str]:
        """No files are written: hash the arrays and records a pass returns."""
        h = hashlib.sha256()
        for w in artifacts["windows"]:
            for tensor in (w["t_spinor"], w["t_hydro"]):
                for k in ("t00", "t01", "t10", "t11"):
                    h.update(getattr(tensor, k).tobytes())
            h.update(repr((w["norm"], w["madelung"], w["conservation"], w["dirac"],
                           w["klein_gordon"], w["nonrel"])).encode())
            h.update(w["pressure"].difference.tobytes())
        for r in artifacts["routes"]:
            for key in ("spectral", "bessel", "greens"):
                h.update(r[key].tobytes())
        return {"results": h.hexdigest()}

    def verify(self, artifacts: dict) -> list[dict]:
        params, norm0 = self.params, artifacts["norm0"]
        windows, routes = artifacts["windows"], artifacts["routes"]
        drift = max(abs(w["norm"] - norm0) / norm0 for w in windows)
        roundtrip = max(float(np.max(np.abs(w["rebuilt"].left - w["mid"].left)
                                     + np.abs(w["rebuilt"].right - w["mid"].right)))
                        for w in windows)
        # The hydrodynamic route against the spinor route fed the exact Dirac
        # time derivative; on the walk's finite differences the two differ by
        # the lattice error, which refinement, not a tolerance, controls.
        gap = 0.0
        for w in windows:
            onshell = hydro.stress_energy_spinor(w["mid"], params,
                                                 dpsi_dt=walk.dirac_rhs(w["mid"], params))
            scale = float(np.max(np.abs(onshell.t00)))
            gap = max(gap, max(float(np.max(np.abs(getattr(onshell, k)
                                                     - getattr(w["t_hydro"], k)))) / scale
                               for k in ("t00", "t01", "t10", "t11")))
        bessel = max(float(np.max(np.abs(r["spectral"] - r["bessel"]))) for r in routes)
        greens = max(float(np.linalg.norm(r["greens"] - r["spectral"][self.greens_sites])
                           / np.linalg.norm(r["spectral"][self.greens_sites]))
                     for r in routes)
        return [
            check("window_norm_conservation", drift <= NORM_DRIFT_TOL,
                  f"max drift {drift:.2e} over {len(windows)} windows"),
            check("madelung_roundtrip", roundtrip <= ROUNDTRIP_TOL,
                  f"max error {roundtrip:.2e}"),
            check("stress_energy_spinor_vs_hydro", gap < STRESS_ENERGY_TOL,
                  f"max relative gap {gap:.2e}"),
            check("schrodinger_spectral_vs_bessel", bessel < BESSEL_TOL,
                  f"max gap {bessel:.2e} at {len(routes)} times"),
            check("schrodinger_greens_vs_spectral", greens < GREENS_REL_TOL,
                  f"max relative L2 gap {greens:.2e} at {len(routes)} times"),
        ]


WORKLOADS = {cls.name: cls for cls in (ShockSpacetime, UnitaritySoak, CausticWindow,
                                       FluidOracles)}
