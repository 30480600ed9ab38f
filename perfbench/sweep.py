"""Run the benchmark over several seeds and report the spread of each metric.

    python3 perfbench/sweep.py --seeds 1-10 --seconds 20 [--workloads a,b] [--baseline PATH]

Each run is one ``run.py`` process, one after another.  For every workload
and end-to-end metric it prints the median over the runs and the spread,
the quartile distance (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound.  With ``--baseline`` it also makes
one traced run per workload (first seed) and writes the sweep as a
baseline result in the form of ``results/baseline.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Printed beside the bounded metrics, though not in BENCHMARK.json's end-to-end list.
ALSO = ("wall_s", "error_rate", "site_steps_per_s", "points_per_s")


def seeds_arg(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, float]:
    """One benchmark run; returns its full result document and its duration."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=900)
    took = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(HERE / "out" / workload / f"result_trace{trace}.json") as fh:
        doc = json.load(fh)
    if (last["attempted"], last["failed"]) != (doc["attempted"], doc["failed"]):
        raise SystemExit(f"{workload} seed {seed}: result line and document disagree")
    return doc, took


def spread(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "p25": q[0], "p75": q[2], "runs": len(values),
            "spread": (q[2] - q[0]) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--workloads", default=None, help="comma-separated; default all")
    parser.add_argument("--baseline", type=Path, default=None)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for name in names:
        docs, took = [], []
        for seed in args.seeds:
            doc, t = run(name, seed, seconds, 0)
            docs.append(doc)
            took.append(t)
        over = {m: spread([d["values"][m] for d in docs]) for m in (*bounds, *ALSO)}
        print(f"{name}: {len(docs)} runs, {min(took):.0f}-{max(took):.0f} s each, "
              f"correct {all(d['correct'] for d in docs)}, "
              f"failed {[d['failed'] for d in docs]}")
        for metric, s in over.items():
            bound = f"bound {bounds[metric]:g}" if metric in bounds else ""
            print(f"  {metric:<18} median {s['median']:<12.6g} spread {s['spread']:.4f} "
                  f"{bound}")
        entry = {
            "all_runs_correct": all(d["correct"] for d in docs),
            "attempted_per_run": [d["attempted"] for d in docs],
            "failed_per_run": [d["failed"] for d in docs],
            "run_s": took,
            "checks_seed_first": docs[0]["checks"],
            "failures_seed_first": docs[0]["failures"],
            "known_failures_per_run": [d["known_failures"] for d in docs],
            "end_to_end_over_seeds": over,
        }
        if args.baseline:
            traced, _ = run(name, args.seeds[0], seconds, 1)
            entry["traced_seed_first"] = {
                "correct": traced["correct"], "failures": traced["failures"],
                "known_failures": traced["known_failures"],
                "per_layer": {m["name"]: traced["values"][m["name"]]
                              for m in spec["per_layer"]},
                "samples": traced["samples"]}
        summary[name] = {"entry": entry, "environment": docs[0]["environment"]}

    if args.baseline:
        environment = dict(next(iter(summary.values()))["environment"])
        environment.pop("seed", None)
        result = {
            "description": (f"qwhydro benchmark baseline: {len(args.seeds)} untraced runs "
                            f"per workload (seeds {args.seeds[0]}-{args.seeds[-1]}, "
                            f"--seconds {seconds}, --trace 0) and one traced run "
                            f"(seed {args.seeds[0]}, --trace 1)."),
            "environment": environment,
            "workloads": {n: s["entry"] for n, s in summary.items()},
        }
        args.baseline.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
