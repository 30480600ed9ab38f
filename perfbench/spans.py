"""Span recording around qwhydro's public functions, and the per-layer
metrics derived from the spans.

The recorder replaces each traced function at every module attribute that
holds it (``qwhydro.walk.step_walk`` and ``qwhydro.experiments.step_walk``
are the same function looked up through two names), so calls made inside
the package are seen as well as the benchmark's own calls.  Spans are kept
in memory; the caller writes them out between passes.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import statistics
import sys
import time
from collections import defaultdict
from typing import NamedTuple

# Layer (module) -> traced public functions.
TRACED = {
    "walk": ("step_walk", "evolve", "total_norm", "dirac_residual"),
    "hydro": ("currents", "phases", "hydro_vars", "spinor_from_hydro",
              "stress_energy_spinor", "stress_energy_hydro", "madelung_residuals",
              "stress_energy_conservation_residual", "quantum_pressure_gradient"),
    "initial": ("phase_modulated_state", "plane_wave"),
    "schrodinger": ("spectral_propagate", "single_shock_psi", "schrodinger_hydro",
                    "greens_propagate"),
    "nonrel": ("nonrel_compare", "klein_gordon_residual"),
    "asymptotics": ("pearcey", "shock_map", "classify_zone", "shock_zone_value"),
    "experiments": ("emit_spacetime_csv", "run_experiment"),
}

# Minimum memory traffic of one walk step: read and write two complex128
# arrays of N sites, 64 bytes per site.  Computed, not measured.
STEP_BYTES_PER_SITE = 64


class Span(NamedTuple):
    span_id: int
    parent: int | None
    pass_id: int
    name: str
    start_ns: int
    end_ns: int
    error: str | None
    info: object


def _step_sites(args, kwargs, result):
    return args[0].n_sites


def _emit_rows(args, kwargs, result):
    return (int(args[0].values.shape[0] * args[0].values.shape[1]), str(result))


def _greens_points(args, kwargs, result):
    return int(result.values.shape[0])


def _zone_low_confidence(args, kwargs, result):
    return bool(result.low_confidence)


# Per-call facts a layer metric needs beyond the span's timing.
_INFO = {
    "walk.step_walk": _step_sites,
    "experiments.emit_spacetime_csv": _emit_rows,
    "schrodinger.greens_propagate": _greens_points,
    "asymptotics.shock_zone_value": _zone_low_confidence,
}


class Tracer:
    """Installs span recorders into the loaded qwhydro modules."""

    def __init__(self):
        self.spans: list[Span] = []
        self.pass_id = 0
        self._stack: list[int] = []
        self._ids = itertools.count()
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, info):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, parent, self.pass_id, name, start, end,
                                  type(exc).__name__, None))
                raise
            end = clock()
            stack.pop()
            spans.append(Span(span_id, parent, self.pass_id, name, start, end, None,
                              info(args, kwargs, result) if info else None))
            return result

        return traced

    def install(self):
        modules = [m for n, m in list(sys.modules.items())
                   if n == "qwhydro" or n.startswith("qwhydro.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"qwhydro.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                name = f"{layer}.{fname}"
                wrapper = self._wrap(name, original, _INFO.get(name))
                for module in modules:
                    holders = [a for a, v in vars(module).items() if v is original]
                    for attr in holders:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def take(self) -> list[Span]:
        """Return and forget the spans recorded so far."""
        out = list(self.spans)
        self.spans.clear()
        return out


def write_spans(spans: list[Span], path) -> None:
    """Append spans as CSV rows: id,parent,pass,name,start_ns,end_ns,error."""
    new = not os.path.exists(path)
    with open(path, "a", newline="\n") as fh:
        if new:
            fh.write("id,parent,pass,name,start_ns,end_ns,error\n")
        for s in spans:
            parent = "" if s.parent is None else s.parent
            fh.write(f"{s.span_id},{parent},{s.pass_id},{s.name},{s.start_ns},"
                     f"{s.end_ns},{s.error or ''}\n")


def percentile_us(durations_ns: list[int], q: float) -> float | None:
    """Nearest-rank percentile in µs, or None unless ≥ 10 samples lie beyond it."""
    n = len(durations_ns)
    if n * (1.0 - q) < 10:
        return None
    ranked = sorted(durations_ns)
    return ranked[max(0, math.ceil(q * n) - 1)] / 1e3


def pass_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one pass: calls and self time of every traced
    function, plus the layer-specific counts and rates."""
    child_ns = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            child_ns[s.parent] += s.end_ns - s.start_ns
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    errors = defaultdict(int)
    for s in spans:
        calls[s.name] += 1
        self_ns[s.name] += s.end_ns - s.start_ns - child_ns[s.span_id]
        if s.error:
            errors[s.name] += 1

    out: dict[str, float] = {}
    for layer, names in TRACED.items():
        for fname in names:
            name = f"{layer}.{fname}"
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_ns[name] / 1e9
            out[f"{name}.failures"] = errors[name]

    site_steps = sum(s.info for s in spans if s.name == "walk.step_walk" and s.info)
    out["walk.step_walk.ns_per_site_step"] = (
        self_ns["walk.step_walk"] / site_steps if site_steps else 0.0)
    out["walk.step_walk.bytes_computed"] = STEP_BYTES_PER_SITE * site_steps

    emitted = [s.info for s in spans if s.name == "experiments.emit_spacetime_csv" and s.info]
    rows = sum(r for r, _ in emitted)
    out["experiments.emit_spacetime_csv.rows"] = rows
    out["experiments.emit_spacetime_csv.bytes"] = sum(os.path.getsize(p) for _, p in emitted)
    out["experiments.emit_spacetime_csv.us_per_row"] = (
        self_ns["experiments.emit_spacetime_csv"] / 1e3 / rows if rows else 0.0)

    out["schrodinger.greens_propagate.points"] = sum(
        s.info for s in spans if s.name == "schrodinger.greens_propagate" and s.info)
    out["asymptotics.shock_zone_value.low_confidence"] = sum(
        1 for s in spans if s.name == "asymptotics.shock_zone_value" and s.info)
    return out


def layer_table(passes: list[list[Span]]) -> tuple[dict[str, float], dict[str, int]]:
    """Median of each per-pass metric over the traced passes, with Pearcey
    latency percentiles pooled over all of them.  Also returns the sample
    count behind each percentile."""
    per_pass = [pass_metrics(spans) for spans in passes]
    table = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    durations = [s.end_ns - s.start_ns for spans in passes for s in spans
                 if s.name == "asymptotics.pearcey"]
    samples = {}
    for label, q in (("p50_us", 0.5), ("p99_us", 0.99)):
        value = percentile_us(durations, q)
        # Below the sample floor the percentile is not reported; 0 stands in.
        table[f"asymptotics.pearcey.{label}"] = 0.0 if value is None else value
        samples[f"asymptotics.pearcey.{label}"] = len(durations)
    return table, samples
