"""qwhydro benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (or ``all``, each in its own process) against the
qwhydro sources under ``src/`` of the checkout.  With ``--trace 0`` it
reports the end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it
alternates untraced passes with passes recorded by span wrappers and
reports the per-layer metrics.  Either way the inputs of the known
defects are probed once, untimed and outside the operation count, and the
outputs are verified against independent routes.  Human-readable lines go first; the last line
of stdout is one JSON object {correct, attempted, failed, metrics}.
The full result, the span dump and the per-layer table are written under
perfbench/out/<workload>/, the workload's own artifacts under its
artifacts/ subdirectory.
"""

import os

# The single-threaded baseline: pin every thread pool before numpy loads.
THREAD_VARS = ("QWHYDRO_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("shock_spacetime", "unitarity_soak", "caustic_window", "fluid_oracles")
SETUP_PROBES = 5     # fresh interpreters per run; setup_s is their median
MIN_PASSES = 3       # timed passes per run, whatever --seconds says
# Per-layer failure counts that include the probe of a known defect.
KNOWN_FAILURE_METRICS = {
    "asymptotics.pearcey.failures": "probe:pearcey_shock_approx_m50",
    "asymptotics.shock_zone_value.failures": "probe:shock_zone_value_x0",
}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def reference_kernel() -> float:
    """Wall time of a fixed mix of the operations qwhydro spends its time in
    (short-array numpy stepping, FFTs, QUADPACK with Python callbacks, float
    formatting).  It touches no qwhydro code, so it measures the machine's
    speed at the moment, which on a shared host drifts by up to 1.4× over
    minutes; pass times are divided by it."""
    import cmath

    import numpy as np
    from scipy import integrate

    start = time.perf_counter()
    a = np.exp(1j * np.arange(4096) / 7.0)
    b = a.copy()
    for _ in range(1500):
        a, b = np.roll(0.8 * a - 0.6j * b, -1), np.roll(-0.6j * a + 0.8 * b, 1)
    c = np.exp(1j * np.arange(8192) / 7.0)
    for _ in range(250):
        c = np.fft.ifft(np.fft.fft(c) * 0.999)
    for k in range(200):
        integrate.quad(lambda s: cmath.exp(1j * (k % 20) * s - s ** 4).real, -4.0, 4.0,
                       epsabs=1e-7, limit=200)
    values = np.abs(np.tile(a, 3)) + np.arange(3 * 4096)
    "\n".join(f"{format(float(v), '.17g')},{format(float(v) * 2, '.17g')},"
              f"{format(float(v) / 3, '.17g')}" for v in values)
    return time.perf_counter() - start


def setup_probe(texts: list[str]) -> dict:
    """Wall time of a fresh interpreter that imports qwhydro and parses `texts`."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py")],
                          input=json.dumps(texts), capture_output=True, text=True,
                          env=env, cwd=ROOT, timeout=120, check=True)
    total = time.perf_counter() - start
    inner = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(inner["module"]).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"set-up probe imported qwhydro from {inner['module']}")
    return {"setup_s": total, "import_s": inner["import_s"], "parse_s": inner["parse_s"]}


def environment(seed: int) -> dict:
    import numpy
    import scipy

    model = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind}"] = size
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "cpu_model": model,
        "caches": caches,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": commit, "seed": seed,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (values of every metric, full result document)."""
    import spans
    import workloads

    out = OUT / name
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wl = workloads.WORKLOADS[name](seed, out / "artifacts")
    probes = [setup_probe(wl.configs) for _ in range(SETUP_PROBES)]

    ops = workloads.Ops()
    artifacts = wl.run_pass(ops)  # warm-up: lazy imports and caches settle
    reference = wl.digests(artifacts)
    identical = True
    tracer = spans.Tracer() if trace else None
    untraced, traced, traced_spans = [], [], []
    untraced_ref, traced_ref = [], []
    ref_before = reference_kernel()

    def timed_pass(ref_ratios):
        """Time one pass; also record it in units of the reference kernel
        timed just before and just after it."""
        nonlocal ref_before
        start = time.perf_counter()
        result = wl.run_pass(ops)
        wall = time.perf_counter() - start
        after = reference_kernel()
        ref_ratios.append(wall / (0.5 * (ref_before + after)))
        ref_before = after
        return wall, result

    deadline = time.perf_counter() + seconds
    while len(untraced) < MIN_PASSES or time.perf_counter() < deadline:
        wall, artifacts = timed_pass(untraced_ref)
        untraced.append(wall)
        identical &= wl.digests(artifacts) == reference
        if tracer:
            tracer.pass_id = len(traced)
            tracer.install()
            try:
                wall, traced_artifacts = timed_pass(traced_ref)
            finally:
                tracer.uninstall()
            traced.append(wall)
            recorded = tracer.take()
            spans.write_spans(recorded, out / "spans.csv")
            traced_spans.append(recorded)
            identical &= wl.digests(traced_artifacts) == reference
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    known = wl.probe()

    checks = [
        workloads.check("run_ok_flags",
                        not any(kind == "NotOk" for _, kind in ops.failures),
                        "every run_experiment returned ok = True"),
        workloads.check("outputs_byte_identical", identical,
                        f"{len(reference)} outputs over {1 + len(untraced) + len(traced)} "
                        "passes with the same seed"),
    ]
    try:
        checks += wl.verify(artifacts)
    except Exception as exc:  # noqa: BLE001 - e.g. an artifact a failed run never wrote
        checks.append(workloads.check("verify", False, f"{type(exc).__name__}: {exc}"))
    # A verification miss fails an operation; ok = False is already counted.
    for verdict in checks[1:]:
        if not verdict["passed"]:
            ops.failures[(f"verify:{verdict['check']}", "VerificationMiss")] += 1
    failed = sum(ops.failures.values())
    error_rate = failed / ops.attempted

    wall_s = statistics.median(untraced)
    values = {
        "wall_ref": statistics.median(untraced_ref),
        "wall_s": wall_s,
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - error_rate,
        "error_rate": error_rate,
        "site_steps_per_s": wl.work.get("site_steps", 0) / wall_s,
        "points_per_s": wl.work.get("points", 0) / wall_s,
        "cli.import_s": statistics.median(p["import_s"] for p in probes),
        "config.parse_config.self_s": statistics.median(p["parse_s"] for p in probes),
    }
    samples = {"wall_ref": len(untraced), "wall_s": len(untraced), "setup_s": len(probes)}
    if trace:
        table, pct_samples = spans.layer_table(traced_spans)
        values.update(table)
        samples.update(pct_samples)
        samples["traced_passes"] = len(traced)
        values["trace.overhead_frac"] = (statistics.median(traced_ref)
                                         / values["wall_ref"] - 1.0)
        values["experiments.pool_speedup"] = (
            wl.pool_speedup() if hasattr(wl, "pool_speedup") else 0.0)
        # The probed known failures count with any a traced pass raised.
        for metric, op in KNOWN_FAILURE_METRICS.items():
            values[metric] += sum(n for (o, _), n in known.items() if o == op)
        with open(out / "layers.json", "w") as fh:
            json.dump({"workload": name, "seed": seed, "metrics": table,
                       "samples": pct_samples}, fh, indent=2, sort_keys=True)

    doc = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "environment": environment(seed),
        "work_per_pass": wl.work,
        "passes": {"warm_up": 1, "untraced_wall_s": untraced, "traced_wall_s": traced,
                   "untraced_wall_ref": untraced_ref, "traced_wall_ref": traced_ref},
        "setup_probes": probes,
        "samples": samples,
        "attempted": ops.attempted, "failed": failed,
        "failures": [{"workload": name, "operation": op, "type": kind, "count": n}
                     for (op, kind), n in sorted(ops.failures.items())],
        "known_failures": [{"workload": name, "operation": op, "type": kind, "count": n}
                           for (op, kind), n in sorted(known.items())],
        "checks": checks,
        "correct": all(c["passed"] for c in checks),
        "values": values,
    }
    with open(out / f"result_trace{int(trace)}.json", "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    return values, doc


def report(doc: dict, metrics: dict) -> None:
    env = doc["environment"]
    print(f"qwhydro benchmark  workload={doc['workload']} seed={doc['seed']} "
          f"seconds={doc['seconds']} trace={doc['trace']}")
    print(f"environment: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"nproc {env['nproc']}, {env['cpu_model']}, caches {env['caches']}, "
          f"threads {env['threads']}, commit {env['git_commit']}, seed {env['seed']}")
    walls = doc["passes"]["untraced_wall_s"]
    lo, hi = _quartiles(walls)
    print(f"passes: 1 warm-up + {len(walls)} timed untraced (wall_s p25 {lo:.4f}, "
          f"p75 {hi:.4f}) + {len(doc['passes']['traced_wall_s'])} traced; "
          f"{doc['samples']['setup_s']} set-up probes")
    print("metrics:")
    for name, m in metrics.items():
        print(f"  {name:<52} {m['value']:>16.6g} {m['unit']}")
    if doc["trace"] == 0:
        v = doc["values"]
        print(f"  {'(also) wall_s':<52} {v['wall_s']:>16.6g} s")
        print(f"  {'(also) error_rate':<52} {v['error_rate']:>16.6g} fraction")
        for key, unit in (("site_steps_per_s", "1/s"), ("points_per_s", "1/s")):
            if v[key]:
                print(f"  {'(also) ' + key:<52} {v[key]:>16.6g} {unit}")
    print(f"operations: {doc['attempted']} attempted, {doc['failed']} failed")
    for f in doc["failures"]:
        print(f"  failure: {f['operation']} {f['type']} x{f['count']}")
    for f in doc["known_failures"]:
        print(f"  known failure (probed, not counted): {f['operation']} {f['type']} "
              f"x{f['count']}")
    print("verification:")
    for c in doc["checks"]:
        print(f"  {'PASS' if c['passed'] else 'FAIL'} {c['check']}: {c['detail']}")


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.rstrip("\n").splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: workload {name} failed (exit {proc.returncode})",
                  file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qwhydro" / "__init__.py").is_file():
        print(f"perfbench: no qwhydro sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload == "all":
        return run_all(args)

    sys.path.insert(0, str(SRC))
    import qwhydro

    if not Path(qwhydro.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"perfbench: qwhydro imported from {qwhydro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    values, doc = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    report(doc, metrics)
    print(json.dumps({"correct": doc["correct"], "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
