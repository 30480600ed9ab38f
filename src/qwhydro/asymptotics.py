"""Pearcey integral, shock coordinate chart, and three-zone caustic asymptotics.

The dispersive shock of the free Schrödinger flow with ψ₀ = e^{im cos x}
is, near its first caustic (x, t) = (0, 1), a cusp diffraction pattern:

    ψ(x,t) ≈ A(x,t) · I_P(−T(t), X(x,t)),
    I_P(T,X) = ∫ dy e^{i(Xy + Ty² + y⁴)},

with T = (t−1)/(2εt√a), X = −x/(εt a^{1/4}), A = e^{i(1+x²/2t)/ε}/√(2iπtε√a),
a = m/24 and ε = 1/m.  The stationary-phase structure of
Φ(u) = u⁴ − Tu² + Xu divides the plane into three zones by the cubic
discriminant Δ = T³/2 − 27X²/16 of Φ′ and the band δ = DELTA_BAND:

    zone I   (Δ < −δ): one real saddle, smooth field;
    zone II  (|Δ| ≤ δ): two saddles coalescing on the caustic, Airy regime;
    zone III (Δ > +δ): three real saddles, interference fringes.

I_P itself is evaluated on the rotated contour y = e^{iπ/8}s, which turns
the quartic oscillation into e^{−s⁴} decay and leaves an absolutely
convergent integral on a finite interval (DLMF §36.15; Connor & Curtis,
J. Phys. A 15 (1982) 1179).  One rule integrates it: `pearcey_array`, by
composite 33-node Gauss–Kronrod on the panels of the 16-node Gauss–Legendre
rule it extends, with the gap between the two sums plus a rounding bound
as each point's error estimate; `pearcey` is one point of it.
`pearcey_direct` integrates on the real axis instead, as an independent
check on the rotation.
"""

from __future__ import annotations

import cmath
import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._spectral import EPS, TWO_PI, gauss_kronrod, gauss_legendre

# ---------------------------------------------------------------------------
# Airy function (scipy.special.airy).
# ---------------------------------------------------------------------------

def airy_pair(z: float | np.ndarray) -> tuple[float | np.ndarray, float | np.ndarray]:
    """(Ai(z), Ai′(z)) for real z, floats or arrays of any shape; a z that
    is not finite raises ValueError."""
    # math.isfinite takes a float in a tenth of np.isfinite's time
    if not (math.isfinite(z) if isinstance(z, float) else np.all(np.isfinite(z))):
        raise ValueError("airy_pair requires finite argument")
    # scipy loads here, on first use, not with the package
    from scipy.special import airy as airy_ai_bi

    ai, aip, _, _ = airy_ai_bi(z)
    return ai, aip


# ---------------------------------------------------------------------------
# Saddle points of Φ(u) = u⁴ − Tu² + Xu: stable closed-form cubic roots.
# ---------------------------------------------------------------------------

def saddle_points(T: float, X: float) -> tuple[complex, complex, complex]:
    """Three roots of Φ′(u) = 4u³ − 2Tu + X, as a tuple of Python complex
    numbers sorted by real part, then by imaginary part.

    Closed-form solution of the depressed cubic u³ + pu + q (p = −T/2,
    q = X/4): trigonometric branch when all roots are real, Cardano with
    the cancellation-free cube-root pairing otherwise.  The zone evaluators
    call it once a point, so it stays in Python floats: a numpy array and
    its sort would cost more than the roots.
    """
    if not (math.isfinite(T) and math.isfinite(X)):
        raise ValueError("saddle_points requires finite arguments")
    p = -T / 2.0
    q = X / 4.0
    disc = -4.0 * p ** 3 - 27.0 * q ** 2
    if disc >= 0.0 and p < 0.0:
        # three real roots (p < 0 whenever disc > 0)
        amp = 2.0 * math.sqrt(-p / 3.0)
        denom = p * amp  # underflows to 0 for |T| below about 1e-200
        cos3t = 3.0 * q / denom if denom != 0.0 else 0.0
        theta = math.acos(min(1.0, max(-1.0, cos3t))) / 3.0
        roots = (
            complex(amp * math.cos(theta)),
            complex(amp * math.cos(theta - 2.0 * math.pi / 3.0)),
            complex(amp * math.cos(theta + 2.0 * math.pi / 3.0)),
        )
    else:
        # Cardano; p = 0 gives u³ = −q, and p = q = 0 the triple root 0
        sqrt_d = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
        if q >= 0.0:
            big = -q / 2.0 - sqrt_d
        else:
            big = -q / 2.0 + sqrt_d
        s = math.copysign(abs(big) ** (1.0 / 3.0), big)
        t_small = -p / (3.0 * s) if s != 0.0 else 0.0
        real_root = s + t_small
        re_pair = -real_root / 2.0
        im_pair = (math.sqrt(3.0) / 2.0) * (s - t_small)
        roots = (
            complex(real_root),
            re_pair + 1j * im_pair,
            re_pair - 1j * im_pair,
        )
    return tuple(sorted(roots, key=lambda u: (u.real, u.imag)))


def phi_value(u: np.ndarray | complex, T: float, X: float) -> np.ndarray | complex:
    """Φ(u) = u⁴ − Tu² + Xu."""
    return u ** 4 - T * u ** 2 + X * u


def phi_second(u: np.ndarray | complex, T: float) -> np.ndarray | complex:
    """Φ″(u) = 12u² − 2T."""
    return 12.0 * u ** 2 - 2.0 * T


# ---------------------------------------------------------------------------
# The Pearcey integral.
# ---------------------------------------------------------------------------

class PearceyConvergenceError(RuntimeError):
    """Raised when the quadrature error estimate exceeds the requested tol."""


_ROT = cmath.exp(1j * math.pi / 8.0)


# e-folds by which the rotated integrand has fallen at the contour's ends,
# where the cut drops a tail below e^{−40} ≈ 4e-18 absolute.  Every node
# costs the same, 41–46 ns on one core of a 2-CPU Xeon, a little over half of
# it libm cos and sin (11–12 ns each), so the cut sets the cost.
_TAIL_EFOLDS = 40.0
# Newton steps to the cut: 8 reach roundoff for |T| ≤ 30, |X| ≤ 100, and 10
# for |T| ≤ 300, |X| ≤ 10⁴.
_TRUNCATION_STEPS = 10


def _pearcey_truncation(T, X):
    """Cut L of the rotated contour, elementwise: the root of
    L⁴ − |T|L² − |X|L = `_TAIL_EFOLDS`.

    On the contour |e^z| ≤ e^{|X|s + |T|s² − s⁴}, so the integrand is below
    e^{−_TAIL_EFOLDS} beyond ±L.  Newton descends monotonically on the root
    from L₀ = √(|T| + |X| + _TAIL_EFOLDS), an upper bound since the root
    exceeds 1, so a cut that has not fully converged is still safe.  The
    steps use only +, −, ×, ÷ and sqrt, which numpy rounds alike at every
    array position: a point's L does not depend on its neighbours.  The last
    step can round to an ulp below the root; the final nudge of 4 ulps keeps
    L above it.
    """
    t, x = np.abs(T), np.abs(X)
    length = np.sqrt(t + x + _TAIL_EFOLDS)
    for _ in range(_TRUNCATION_STEPS):
        l2 = length * length
        excess = l2 * l2 - t * l2 - x * length - _TAIL_EFOLDS
        length = length - excess / (4.0 * l2 * length - 2.0 * t * length - x)
    return length * (1.0 + 4.0 * EPS)


# Units of the bound |X|L + |T|L² + L⁴ on the exponent's swing over the
# contour per panel.  At 16 even the coarse rule Q(n) is at roundoff on the
# shipped windows, so |K(n) − Q(n)| stays below 2e-11 at mass 20; at 24
# the coarse rule's own error already reads 2e-5 at |T|, |X| ≤ 10 and the
# estimate would fail points whose value K(n) is accurate.
_SWING_PER_PANEL = 16.0
# Fewest panels of the coarse rule.  Near the origin the bound is only
# about _TAIL_EFOLDS, three panels, and there the estimate at T = X = 0 reads
# 1.0e-11; it reads 4e-15 at four panels and 8e-16 from five up.  Six, one to
# spare, cost 1% more nodes on the mass-20 map window than no floor.
_MIN_PANELS = 6
# Quadrature nodes evaluated per numpy call: bounds the working set of
# pearcey_array to a few hundred kB whatever the number of points.
_BLOCK_NODES = 8192
_SIN_PI8, _COS_PI8 = math.sin(math.pi / 8.0), math.cos(math.pi / 8.0)
_SQRT_HALF = math.sqrt(0.5)  # Re and −Im of ie^{iπ/4}
# Nodes a panel: the 16 of the Gauss–Legendre rule and the 17 its Kronrod
# extension adds.
_GAUSS_NODES = 16
_PANEL_NODES = 2 * _GAUSS_NODES + 1


def _panel_rule(n_panels: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Nodes u on [−1, 1] of n_panels panels of equal width, each with the
    33 nodes of the Gauss–Kronrod rule, and their Kronrod weights; then the
    Gauss–Legendre weights of u's first 16·n_panels nodes, every panel's
    Gauss nodes in turn, which the 17·n_panels Kronrod nodes follow.  Every
    block of a panel count shares them."""
    nodes, weights = gauss_kronrod(_GAUSS_NODES)
    start = 2.0 * np.arange(n_panels)[:, None] + 1.0
    halves = (slice(1, None, 2), slice(0, None, 2))  # the Gauss nodes, then the rest
    u = np.concatenate([(start + nodes[half]) / n_panels - 1.0 for half in halves], axis=None)
    w = np.concatenate([np.tile(weights[half], n_panels) for half in halves]) / n_panels
    return u, w, np.tile(gauss_legendre(_GAUSS_NODES)[1], n_panels) / n_panels


def _leading(buffer: np.ndarray, columns: int) -> np.ndarray:
    """A C-contiguous array of `buffer`'s rows and `columns` columns on the
    first elements of the C-contiguous 2-d `buffer`."""
    rows = len(buffer)
    return buffer.reshape(-1)[:rows * columns].reshape(rows, columns)


def _composite_gl(T: np.ndarray, X: np.ndarray, length: np.ndarray,
                  rule: tuple[np.ndarray, np.ndarray, np.ndarray]
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rotated-contour integral over [−L, L] by the `_panel_rule` `rule`.

    Returns the Gauss–Kronrod values K(n), the Gauss–Legendre values Q(n)
    of the same nodes' leading slice, and a bound on the rounding error of
    K(n).  Each node is evaluated once.  On the contour the exponent is
    z = iXe^{iπ/8}s + iTe^{iπ/4}s² − s⁴, summed here in real arithmetic as
    Re z and Im z.  It is rounded to a few ulps of |X||s| + 2|T|s² + 4s⁴
    (that of z and of its slope times the rounding of s), so e^z is off by
    that much relative to |e^z| = e^{Re z}; where the integrand grows to
    e^{20} before it decays this rounding, not the rule, limits the result.
    Every point is reduced along its own row, so its value does not depend
    on which other points share the call; Q(n) takes the operations, in
    their order, of the 16n-node rule alone.  The arithmetic runs in place,
    products commuted where that saves a buffer but every sum in its
    left-to-right order: the rounding bound's swing overwrites s, e^{Re z}
    Re z, cos and sin the spent buffers of the exponent, and the Gauss sums'
    terms the spent s² and s⁴.
    """
    u, w, gauss_w = rule
    s = length[:, None] * u
    s2 = s * s
    s4 = s2 * s2
    quad = (_SQRT_HALF * T)[:, None] * s2
    re = (-_SIN_PI8 * X)[:, None] * s
    re -= quad
    re -= s4
    im = (_COS_PI8 * X)[:, None] * s
    im += quad
    swing = np.abs(s, out=s)
    swing *= np.abs(X)[:, None]
    swing += 1.0
    s2 *= 2.0 * np.abs(T)[:, None]
    swing += s2
    s4 *= 4.0
    swing += s4
    growth = np.exp(re, out=re)
    cos = np.cos(im, out=quad)
    sin = np.sin(im, out=im)
    # the Gauss sums' terms, contiguous (a strided out costs more) in the
    # spent s² and s⁴
    g = len(gauss_w)
    weighted = np.multiply(growth[:, :g], gauss_w, out=_leading(s2, g))
    term = _leading(s4, g)
    coarse = (np.multiply(cos[:, :g], weighted, out=term).sum(axis=-1)
              + 1j * np.multiply(sin[:, :g], weighted, out=term).sum(axis=-1))
    weighted = np.multiply(growth, w, out=growth)
    cos *= weighted
    sin *= weighted
    swing *= weighted
    fine = cos.sum(axis=-1) + 1j * sin.sum(axis=-1)
    scale = _ROT * length
    return scale * fine, scale * coarse, EPS * length * swing.sum(axis=-1)


def pearcey_panels(T, X) -> tuple[np.ndarray, np.ndarray]:
    """Each point's cut L and panel count n (a float: inf or nan, never a
    wrapped integer, at an extreme point); L and n grow with |T| and with
    |X|, and `pearcey_nodes` counts the point's cost."""
    length = _pearcey_truncation(T, X)
    l2 = length * length
    bound = np.abs(X) * length + np.abs(T) * l2 + l2 * l2
    return length, np.maximum(np.ceil(bound / _SWING_PER_PANEL), _MIN_PANELS)


def pearcey_nodes(T, X) -> np.ndarray:
    """The integrand nodes `pearcey_array` evaluates at each point, 33n of
    n panels: a float, like `pearcey_panels`' n."""
    return _PANEL_NODES * pearcey_panels(T, X)[1]


def pearcey_array(T, X) -> tuple[np.ndarray, np.ndarray]:
    """I_P(T, X) for arrays of points, with a per-point error estimate.

    The rotated contour y = e^{iπ/8}s over [−L, L], cut by
    `_pearcey_truncation` where the integrand has fallen below e^{−40}, on
    n panels of equal width from the point's own bound |X|L + |T|L² + L⁴
    (`pearcey_panels`).  Each panel carries the 16-node Gauss–Legendre rule
    and its 33-node Gauss–Kronrod extension, which reuses the 16 nodes
    (Laurie, Math. Comp. 66 (1997) 1133; Piessens et al., QUADPACK, 1983):
    33n nodes a point.  The value is the Kronrod sum K(n) and the estimate
    is |K(n) − Q(n)|, how far the Gauss sum Q(n) misses, plus the rounding
    bound of K(n).  The difference alone under-reads where the rotated
    integrand grows large before it decays: there both sums carry rounding
    errors of the same size, and that of K(n) can exceed their difference.
    Because L, n and the sums depend on the point alone, a point's value is
    bit-identical whichever other points it is evaluated with.
    """
    T, X = np.broadcast_arrays(np.asarray(T, dtype=float), np.asarray(X, dtype=float))
    if not (np.all(np.isfinite(T)) and np.all(np.isfinite(X))):
        raise ValueError("pearcey_array requires finite arguments")
    t_flat, x_flat = T.ravel(), X.ravel()
    length, panels = pearcey_panels(t_flat, x_flat)
    values = np.empty(t_flat.shape, dtype=complex)
    errors = np.empty(t_flat.shape)
    # the distinct panel counts, ascending; np.unique would import numpy.ma,
    # about 15 ms of a fresh process that validates a map config
    ordered = np.sort(panels)
    for n in ordered[np.diff(ordered, prepend=-1.0) > 0].astype(int):
        idx = np.flatnonzero(panels == n)
        step = max(1, _BLOCK_NODES // (_PANEL_NODES * n))
        rule = _panel_rule(n)
        for block in (idx[i:i + step] for i in range(0, len(idx), step)):
            fine, coarse, rounding = _composite_gl(t_flat[block], x_flat[block],
                                                   length[block], rule)
            values[block] = fine
            errors[block] = np.abs(fine - coarse) + rounding
    return values.reshape(T.shape), errors.reshape(T.shape)


def check_pearcey_tol(name: str, tol: float):
    """Raise ValueError naming `name` unless tol lies in (0, 1e-3]."""
    if not 0.0 < tol <= 1e-3:
        raise ValueError(f"{name} must lie in (0, 1e-3]")


def pearcey(T: float, X: float, tol: float = 1e-8) -> complex:
    """I_P(T,X) = ∫ dy e^{i(Xy + Ty² + y⁴)} to absolute accuracy ≤ tol.

    One point of `pearcey_array`; it raises where that point's estimate
    exceeds tol, as a map does, and on non-finite T, X as the array does.
    """
    check_pearcey_tol("tol", tol)
    value, error = pearcey_array(T, X)
    if error > tol:
        raise PearceyConvergenceError(f"pearcey error estimate {error:.2e} exceeds tol {tol:.2e}")
    return complex(value)


def pearcey_direct(T: float, X: float) -> complex:
    """Windowed quadrature of the Pearcey integrand on the real axis.

    Second, method-independent evaluation used to validate the contour
    rotation: composite Gauss–Legendre with panels no wider than a quarter
    of the local oscillation, under a cos² taper from |y| = 8 out to 12.
    Valid while all stationary points sit well inside the flat region
    (|T|, |X| ≲ 10 comfortably).
    """
    y_max = 12.0

    def local_rate(y: float) -> float:
        return abs(X + 2.0 * T * y + 4.0 * y ** 3) + 2.0

    edges = [0.0]
    while edges[-1] < y_max:
        width = min(0.25, 0.5 * math.pi / local_rate(edges[-1] + 0.25))
        edges.append(min(edges[-1] + width, y_max))
    edges = np.array(edges)
    lo, hi = edges[:-1], edges[1:]
    mid = 0.5 * (lo + hi)[:, None]
    half = 0.5 * (hi - lo)[:, None]
    nodes, weights = gauss_legendre(10)
    y = (mid + half * nodes[None, :]).ravel()
    wts = (half * weights[None, :]).ravel()

    def half_line(sign: float) -> complex:
        ys = sign * y
        taper = np.ones_like(ys)
        out = np.abs(ys) > 8.0
        taper[out] = np.cos(0.5 * np.pi * (np.abs(ys[out]) - 8.0) / 4.0) ** 2
        phase = X * ys + T * ys ** 2 + ys ** 4
        return complex((wts * taper * np.exp(1j * phase)).sum())

    return half_line(1.0) + half_line(-1.0)


# ---------------------------------------------------------------------------
# Shock chart: (x, t) ↔ Pearcey arguments for the single-cosine shock.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ShockChart:
    """Large-mass scaling constants a = m/24 and ε = 1/m."""

    mass: float
    a: float
    eps: float

    @classmethod
    def from_mass(cls, mass: float) -> "ShockChart":
        if not mass > 0:
            raise ValueError("mass must be positive")
        return cls(mass=float(mass), a=mass / 24.0, eps=1.0 / mass)

    def prefactor_intensity(self, t):
        """|A|² = 1/(2πtε√a) of `shock_map`'s prefactor A, for broadcasting arrays of t."""
        return 1.0 / (2.0 * np.pi * t * self.eps * np.sqrt(self.a))


def shock_coords(x, t, chart: ShockChart):
    """Scaled cusp coordinates (T, X) at (x, t); floats or broadcasting arrays.

    The one formula for T and X: scalar `shock_map` and the array runs use
    the same operations in the same order, so they agree to the bit.
    """
    t_min = t if isinstance(t, (int, float)) else np.min(t)  # scalars skip numpy
    if t_min <= 0:
        raise ValueError("t must be positive")
    a, eps = chart.a, chart.eps
    T = (t - 1.0) / (2.0 * eps * t * math.sqrt(a))
    X = -x / (eps * t * a ** 0.25)
    return T, X


def shock_map(x: float, t: float, chart: ShockChart) -> tuple[float, float, complex]:
    """Scaled cusp coordinates (T, X) and prefactor A at space-time point (x, t)."""
    T, X = shock_coords(x, t, chart)
    a, eps = chart.a, chart.eps
    A = cmath.exp(1j * (1.0 + x * x / (2.0 * t)) / eps) / cmath.sqrt(
        2j * math.pi * t * eps * math.sqrt(a))
    return T, X, A


def chart_point(T: float, X: float, chart: ShockChart) -> tuple[float, float]:
    """Inverse of shock_map on (T, X): the (x, t) realizing those arguments."""
    c = 1.0 / (2.0 * chart.eps * math.sqrt(chart.a))
    if T >= c:
        raise ValueError("T out of reachable range for this chart")
    t = c / (c - T)
    x = -X * chart.eps * t * chart.a ** 0.25
    return x, t


def pearcey_shock_approx(x: float, t: float, chart: ShockChart,
                         tol: float = 1e-8) -> complex:
    """Cusp-region wavefunction A(x,t)·I_P(−T, X)."""
    T, X, A = shock_map(x, t, chart)
    return A * pearcey(-T, X, tol)


# ---------------------------------------------------------------------------
# Zones of the saddle structure and their approximations.
# ---------------------------------------------------------------------------

class Zone(enum.IntEnum):
    I = 1
    II = 2
    III = 3


# Width of the near-caustic band in the discriminant Δ = T³/2 − 27X²/16.
# Calibrated once against the quadrature oracle along shock-chart rays and
# frozen: at |Δ| = 20 the plain saddle sums on either side are accurate to
# a few percent, so the uniform Airy band hands off cleanly; well inside
# the band only the uniform reduction stays valid.
DELTA_BAND = 20.0


class PearceyPoint(NamedTuple):
    """A (T, X) point with its discriminant and zone label."""

    T: float
    X: float
    discriminant: float
    zone: Zone


def discriminant(T, X):
    """Δ = T³/2 − 27X²/16: positive ⇔ Φ′ has three distinct real roots.  Its
    powers are products, which round the same for floats and array elements."""
    return T * T * T / 2.0 - 27.0 * (X * X) / 16.0


def caustic_x(T: float) -> float:
    """Positive X on the fold caustic Δ = 0, i.e. X = √(8T³/27) for T ≥ 0."""
    if T < 0:
        raise ValueError("the caustic exists only for T ≥ 0")
    return math.sqrt(8.0 * T ** 3 / 27.0)


def _zone_number(delta):
    """Zone 1 for Δ < −DELTA_BAND, 3 for Δ > DELTA_BAND, else 2: the one zone
    rule, for floats and arrays alike."""
    return 2 + (delta > DELTA_BAND) - (delta < -DELTA_BAND)


_ZONES = {int(zone): zone for zone in Zone}  # Zone(n) would cost a µs per point


def classify_zone(T: float, X: float) -> PearceyPoint:
    """Assign zone I/II/III from the discriminant and the band DELTA_BAND.  A
    point where the discriminant is not finite has no zone: ValueError."""
    delta = discriminant(T, X)
    if not math.isfinite(delta):
        raise ValueError("classify_zone requires a finite discriminant")
    return PearceyPoint(T, X, delta, _ZONES[_zone_number(delta)])


def zone_labels(T, X) -> np.ndarray:
    """Zone numbers 1/2/3 of `classify_zone` over arrays of (T, X).  A point
    where the discriminant is not finite has no zone: ValueError."""
    with np.errstate(over="ignore", invalid="ignore"):
        delta = discriminant(np.asarray(T, dtype=float), np.asarray(X, dtype=float))
    if not np.all(np.isfinite(delta)):
        raise ValueError("zone_labels requires a finite discriminant")
    return _zone_number(delta)


_REAL_TOL = 1e-9


def _sd_term(u: float, T: float, X: float) -> complex:
    """Isolated-saddle steepest-descent contribution to ∫e^{iΦ}."""
    dd = phi_second(u, T)
    if abs(dd) < 1e-12:
        raise ZeroDivisionError("degenerate saddle")
    sign = 1.0 if dd > 0 else -1.0
    return math.sqrt(TWO_PI / abs(dd)) * cmath.exp(
        1j * (phi_value(u, T, X) + sign * math.pi / 4.0))


def _sd_sum(T: float, X: float, count: int) -> complex:
    """Steepest-descent sum over the `count` real saddles, away from the caustic.

    ∫e^{iΦ} ≈ Σ √(2π/|Φ″(u)|)·e^{i(Φ(u) + π·sign(Φ″(u))/4)}, the root of
    2πi/Φ″ taken along each steepest-descent direction: one smooth wave in
    zone I, three interfering waves in zone III.
    """
    real = [u.real for u in saddle_points(T, X) if abs(u.imag) < _REAL_TOL]
    if len(real) != count:
        raise ValueError(f"expected {count} real saddle(s), found {len(real)}")
    return sum(_sd_term(u, T, X) for u in real)


def _coalescing_pair(roots: tuple[complex, complex, complex]) -> tuple[complex, complex, complex]:
    """Split `saddle_points`' three saddles into the coalescing pair and the
    bystander.

    Off the caustic the pair that merges is the complex-conjugate pair;
    inside (all real, sorted) it is the closer of the two neighbouring pairs.
    """
    pair = [u for u in roots if abs(u.imag) >= _REAL_TOL]
    if pair:
        far = [u for u in roots if abs(u.imag) < _REAL_TOL]
        return pair[0], pair[1], far[0]
    r0, r1, r2 = roots
    if abs(r1 - r0) <= abs(r2 - r1):
        return r0, r1, r2
    return r1, r2, r0


_PAIR_SEP_TOL = 1e-4  # below this the CFU amplitudes are noise-dominated
_CUSP_CORE = 1.6748133935381729 + 0.6937304220476189j  # Γ(1/4)/2 · e^{iπ/8}


def _uniform_pair_value(ua: complex, ub: complex, T: float, X: float) -> complex:
    """Chester–Friedman–Ursell two-saddle reduction to Ai and Ai′.

    The cubic normal form Φ = Φ̄ − ζs + s³/3 matches phases at the pair;
    the linear map amplitude (p + q·s) matches the Hessians, giving
        ∫ e^{iΦ} ≈ 2π e^{iΦ̄} (p·Ai(−ζ) − i·q·Ai′(−ζ)).
    Real pair: ζ > 0 (fringes); complex-conjugate pair: ζ < 0 (shadow side).
    The branches only pick ζ and the saddles u₊, u₋ that map to s = ±√ζ;
    g± = √(±2√ζ/Φ″(u±)) take Re g₊ ≥ 0 and g₋ nearer conj(g₊), so both
    are positive on a real pair.  Pairs closer than _PAIR_SEP_TOL take the
    coalesced-fold limit, where the CFU amplitudes lose all significant digits.
    """
    pa = complex(phi_value(ua, T, X))
    pb = complex(phi_value(ub, T, X))
    if abs(ua - ub) < _PAIR_SEP_TOL:
        return _degenerate_pair_value(0.5 * (ua + ub).real, 0.5 * (pa + pb).real)

    if abs(ua.imag) < _REAL_TOL and abs(ub.imag) < _REAL_TOL:
        # real pair: the lower-Φ saddle is the local minimum
        (u_plus, p_plus), (u_minus, p_minus) = sorted(
            [(ua.real, pa.real), (ub.real, pb.real)], key=lambda saddle: saddle[1])
        phibar = 0.5 * (p_plus + p_minus)
        zeta = (0.75 * max(p_minus - p_plus, 0.0)) ** (2.0 / 3.0)
        if phi_second(u_plus, T) <= 0.0 or phi_second(u_minus, T) >= 0.0:
            return _degenerate_pair_value(0.5 * (u_plus + u_minus), phibar)
    else:
        # complex-conjugate pair: the accessible saddle has Im Φ ≥ 0
        (u_plus, p_plus), (u_minus, p_minus) = (
            ((ua, pa), (ub, pb)) if pa.imag >= 0 else ((ub, pb), (ua, pa)))
        phibar = 0.5 * (p_plus + p_minus).real
        zeta = -((1.5 * abs(p_plus.imag)) ** (2.0 / 3.0))
    sqrt_zeta = cmath.sqrt(zeta)
    g_plus = cmath.sqrt(2.0 * sqrt_zeta / phi_second(u_plus, T))
    if g_plus.real < 0:
        g_plus = -g_plus
    g_minus = cmath.sqrt(-2.0 * sqrt_zeta / phi_second(u_minus, T))
    if abs(g_minus - g_plus.conjugate()) > abs(g_minus + g_plus.conjugate()):
        g_minus = -g_minus
    p_amp = 0.5 * (g_plus + g_minus)
    q_amp = (g_plus - g_minus) / (2.0 * sqrt_zeta)
    ai, aip = airy_pair(-zeta)
    return TWO_PI * cmath.exp(1j * phibar) * (p_amp * ai - 1j * q_amp * aip)


def _degenerate_pair_value(u_d: float, phibar: float) -> complex:
    """Coalesced-fold limit with the quartic amplitude correction.

    Locally Φ = Φ̄ + ϕ₃y³/6 + ϕ₄y⁴/24 with ϕ₃ = 24u_d, ϕ₄ = 24; mapping
    to the pure cubic s³/3 gives dy/ds = α + 2αβs with α = (2/|ϕ₃|)^{1/3}
    and β = −ϕ₄α⁴/24, hence the Ai(0) term plus an Ai′(0) correction.
    """
    third = 24.0 * abs(u_d)
    if third < 0.5:
        # approaching the triple coalescence (cusp core): two-saddle theory
        # degenerates into the full quartic integral; return its apex value.
        return cmath.exp(1j * phibar) * _CUSP_CORE
    alpha = (2.0 / third) ** (1.0 / 3.0)
    ai0, aip0 = map(float, airy_pair(0.0))
    return TWO_PI * cmath.exp(1j * phibar) * (alpha * ai0 + 2j * alpha ** 5 * aip0)


def _zone2_value(T: float, X: float) -> tuple[complex, bool]:
    """Near-caustic uniform approximation (zone II) and its low-confidence flag.

    Airy reduction of the two coalescing saddles plus, when present and
    separated, the steepest-descent wave of the remaining real saddle.
    """
    roots = saddle_points(T, X)
    ua, ub, u_far = _coalescing_pair(roots)
    spread = max(abs(ua - ub), abs(ua - u_far), abs(ub - u_far))
    low_confidence = spread < 0.3  # near triple coalescence (the cusp point)
    value = _uniform_pair_value(ua, ub, T, X)
    if abs(u_far.imag) < _REAL_TOL and abs(u_far - ua) > 10 * _REAL_TOL:
        dd = phi_second(u_far.real, T)
        if abs(dd) > 1e-10:
            value += _sd_term(u_far.real, T, X)
    return value, low_confidence


@dataclass
class ZoneApprox:
    """Composite asymptotic value with machine-readable validity tags."""

    value: complex
    point: PearceyPoint
    low_confidence: bool


def shock_zone_value(x: float, t: float, chart: ShockChart) -> ZoneApprox:
    """A(x,t) times the approximation of the zone that (x, t) lies in.

    perfbench's caustic_window sweep times this one point a call, so an
    array evaluator that takes it over must keep its cost per point no
    higher than this one's.
    """
    T, X, A = shock_map(x, t, chart)
    point = classify_zone(T, X)
    if point.zone is Zone.II:
        value, low = _zone2_value(T, X)
    else:  # zone I has one real saddle, zone III three
        value, low = _sd_sum(T, X, int(point.zone)), False
    return ZoneApprox(value=A * value, point=point, low_confidence=low)
