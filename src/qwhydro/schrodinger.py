"""Free Schrödinger reference solutions: i∂_tψ = −(1/2m)∂_{xx}ψ.

This is the Galilean-limit oracle for the walk.  Three independent routes
are provided and cross-checked in the tests:

  * spectral_propagate: exact mode-by-mode phase factors e^{-ik²t/2m}
    (a `Wavefunction` keeps its spectrum, so ψ₀'s is taken once however
    many times it is propagated to);
  * greens_propagate:   real-space convolution against the free kernel
    √(m/2iπt)·e^{im(x−y)²/2t}, one tapered integral per Fourier mode of ψ₀
    by composite Gauss–Legendre, each point checked against its error
    estimate: the doubling difference Q(2n) − Q(n) plus a rounding bound;
  * single_shock_psi:   for ψ₀ = e^{im cos x}, the exact Bessel series
    ψ(x,t) = Σ_k i^k J_k(m) e^{ikx − ik²t/2m}  (Jacobi–Anger).

The Bessel route imports scipy when called, not with the module: importing
it costs most of the start-up time of a run that never needs it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._spectral import EPS, TWO_PI, _read_only, even_table, fft, gauss_legendre, grid, \
    ifft, schrodinger_exponent, spectral_derivative, wavenumbers


@dataclass(frozen=True)
class Wavefunction:
    """Complex field on N periodic sites.  Its spectrum `modes` = fft(values)
    is taken on first read and then kept, read-only."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.complex128))
        if not np.all(np.isfinite(self.values)):
            raise ValueError("wavefunction must be finite")

    @property
    def n_sites(self) -> int:
        return self.values.shape[0]

    @functools.cached_property
    def modes(self) -> np.ndarray:
        return _read_only(fft(self.values))


def spectral_propagate(psi: Wavefunction, mass: float, t: float) -> Wavefunction:
    """Advance by t: multiply each Fourier mode by e^{−ik²t/(2m)}.

    ψ's spectrum is `psi.modes`, taken once per Wavefunction.  The factor
    is even in k, so it is exponentiated on the n // 2 + 1 modes k ≥ 0
    only and mirrored onto the rest.  A (mass, t) whose factors leave the
    floats is refused by `check_free_factors`, a ValueError naming them.
    """
    n = psi.n_sites
    check_free_factors(n, mass, t, "mass and t")
    half = _free_factors(schrodinger_exponent(n)[:n // 2 + 1], mass, t)
    return Wavefunction(values=ifft(psi.modes * even_table(half, n)))


def _free_factors(exponent: np.ndarray, mass: float, t: float) -> np.ndarray:
    """e^{exponent·t/(2m)} for entries −ik² of `schrodinger_exponent`."""
    return np.exp(exponent * t / (2.0 * mass))


def check_free_factors(n_sites: int, mass: float, t: float, names: str):
    """Raise ValueError naming `names` unless `spectral_propagate` keeps its
    factors e^{−ik²t/(2m)} within the floats up to time t.

    The factors are taken as `spectral_propagate` takes them, at the fastest
    mode k = n_sites/2 only, where the phase k²t/(2m) peaks; builds no table.
    numpy divides the complex exponent by 2m through 1/(2m), which overflows
    for m below about 2.8e-309 however small k²t/(2m) is.
    """
    fastest = -1j * np.array([float(n_sites // 2)]) ** 2
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            _free_factors(fastest, mass, t)
    except FloatingPointError as exc:
        raise ValueError(f"{names} give the Schrödinger factor e^(−ik²t/(2·mass)) at "
                         f"k = n_sites/2 = {n_sites // 2}, t = {t:g} out of the floats "
                         f"({exc})") from None


def check_velocity_scale(n_sites: int, mass: float, names: str):
    """Raise ValueError naming `names` unless `schrodinger_hydro` keeps the
    denominator m·|ψ|² of its velocity within the floats for every state
    reached from a unit-modulus ψ₀ on n_sites sites.

    Free propagation keeps ψ's mean |ψ|² at 1, so |ψ| ≤ Σ|c_k| ≤ √n_sites
    for its Fourier coefficients c_k, and |ψ|² ≤ n_sites: the bound is
    m·n_sites.
    """
    if not math.isfinite(mass * n_sites):
        raise ValueError(f"{names} = {mass:g} on n_sites = {n_sites} gives the Madelung "
                         f"velocity's denominator mass·|ψ|² (|ψ|² ≤ n_sites) out of "
                         f"the floats")


def _fourier_coefficients(values: np.ndarray):
    n = values.shape[0]
    coeff = fft(values) / n
    k = wavenumbers(n)
    keep = np.abs(coeff) > 1e-13 * np.abs(coeff).max()
    return coeff[keep], k[keep]


# Radians of the kernel phase per 16-node panel, counted at the bound
# m·W/t + k_max on its rate.  At 16 even the coarse rule Q(n) is at roundoff:
# on the m = 20, t = 0.5 datum the estimate reads 1.1e-12 from 8 up to 24,
# 1.8e-11 at 32 and 1.8e-7 at 48.
_RADIANS_PER_PANEL = 16.0
# Absolute and relative accuracy of the kernel integral, before the prefactor.
_GREENS_TARGET = 1e-10


class GreensConvergenceError(RuntimeError):
    """Raised when the Green's-function error estimate exceeds its target."""


def _kernel_integrals(kv: np.ndarray, mass: float, t: float, flat: float,
                      taper: float, panels) -> tuple[np.ndarray, np.ndarray]:
    """G_k = ∫ e^{imu²/2t}·w(u)·e^{iku} du over [−W, W], W = flat + taper.

    w is 1 on |u| ≤ flat and falls as a cos² ramp to 0 at |u| = W.  The
    segments [−W, −flat], [−flat, flat] and [flat, W], where w″ jumps, get
    panels[0], panels[1] and panels[2] 16-node Gauss–Legendre panels.  On a
    panel with midpoint c and half-width h, e^{iku} = e^{ikc}·e^{ikhξ}, so
    the segment costs len(k)·(panels + 16) complex exponentials.  Returns
    the rule's values and a bound on their rounding: the phases m u²/2t and
    k·u are rounded to an ulp of their size, and so is every e^{iφ}.
    """
    nodes, weights = gauss_legendre(16)
    window = flat + taper
    edges = (-window, -flat, flat, window)
    total = np.zeros(kv.shape, dtype=complex)
    rounding = np.zeros(kv.shape)
    for lo, hi, n in zip(edges[:-1], edges[1:], panels):
        half = (hi - lo) / (2 * n)
        mids = lo + half * (2.0 * np.arange(n) + 1.0)
        u = mids[:, None] + half * nodes
        ramp = np.clip((np.abs(u) - flat) / taper, 0.0, 1.0)
        weight = (half * weights) * np.cos(0.5 * np.pi * ramp) ** 2
        phase = mass * u * u / (2.0 * t)
        offsets = np.exp(1j * np.outer(kv, half * nodes))
        # einsum, not a threaded BLAS product: with another core busy, `@`
        # made a solve 3-10 times slower
        inner = np.einsum("kj,pj->kp", offsets, weight * np.exp(1j * phase))
        total += (np.exp(1j * np.outer(kv, mids)) * inner).sum(axis=1)
        rounding += EPS * ((weight * (1.0 + phase)).sum()
                           + np.abs(kv) * (weight * np.abs(u)).sum())
    return total, rounding


def _panel_counts(rate: float, lengths) -> list[int]:
    """Panels per segment: one per _RADIANS_PER_PANEL of phase at `rate`."""
    return [max(1, math.ceil(rate * length / _RADIANS_PER_PANEL)) for length in lengths]


def _greens_window(mass: float, t: float, k_max: float) -> tuple[float, float]:
    """(flat, taper) of the window W, the stationary-point reach t·k_max/m plus eight
    Fresnel zones f = √(2πt/m), of which min(4f, 0.45W) ≥ 3.6f taper.  As flat ≥ W − 4f,
    the rate m·flat/t − k_max at the taper's inner edge is at least 4m·f/t, so the cos²
    taper bounds the endpoint term (2π/(rate·taper))³ by 14.4⁻³ ≈ 3.3e-4."""
    fresnel = np.sqrt(TWO_PI * t / mass)
    window = t * k_max / mass + 8.0 * fresnel
    taper = min(4.0 * fresnel, 0.45 * window)
    return window - taper, taper


def _greens_quadrature(psi0_samples, mass, t, x_eval):
    """∫ e^{im(x−y)²/2t}·w(y − x)·ψ₀(y) dy at x_eval, with each value's error estimate."""
    if t <= 0:
        raise ValueError("t must be positive")
    psi0_samples = np.asarray(psi0_samples, dtype=np.complex128)
    if x_eval is None:
        x_eval = grid(psi0_samples.shape[0])

    coeff, kv = _fourier_coefficients(psi0_samples)
    k_max = float(np.abs(kv).max()) if kv.size else 0.0
    flat, taper = _greens_window(mass, t, k_max)
    rate = mass * (flat + taper) / t + k_max
    panels = _panel_counts(rate, (taper, 2.0 * flat, taper))
    coarse, _ = _kernel_integrals(kv, mass, t, flat, taper, panels)
    fine, rounding = _kernel_integrals(kv, mass, t, flat, taper, [2 * p for p in panels])
    amplitude = coeff * fine
    quad_error = float((np.abs(coeff) * (np.abs(fine - coarse) + rounding)).sum())

    kx = np.outer(x_eval, kv)
    # each point is summed along its own row, whatever x_eval holds besides
    values = (np.exp(1j * kx) * amplitude).sum(axis=1)
    sum_error = EPS * (np.abs(amplitude) * (1.0 + np.abs(kx))).sum(axis=1)
    return values, quad_error + sum_error


def greens_propagate(psi0_samples: np.ndarray, mass: float, t: float,
                     x_eval: np.ndarray | None = None) -> Wavefunction:
    """Propagate by direct quadrature against the free-particle kernel.

    ψ(x,t) = ∫ dy √(m/2iπt)·e^{im(x−y)²/(2t)}·ψ₀(y) over [x−W, x+W] with a
    smooth Fresnel-zone taper at the ends.  ψ₀ is the trigonometric
    interpolant Σ c_k e^{iky} of the periodic samples, so with u = y − x
    the integral is √(m/2iπt)·Σ c_k e^{ikx}·G_k, with one x-independent
    G_k = ∫ e^{imu²/2t}·w(u)·e^{iku} du per kept wavenumber.  The G_k come
    from composite 16-node Gauss–Legendre with n panels per segment of the
    window, one per _RADIANS_PER_PANEL of phase at the bound m·W/t + k_max
    on its rate.  The value is the 2n-panel rule Q(2n); each point's
    estimate is |Q(2n) − Q(n)| plus rounding bounds, and the call raises
    GreensConvergenceError where it exceeds 1e-10 absolute and relative to
    the integral before the prefactor √(m/2iπt).  It covers the quadrature, not
    the window's truncation: on the m = 20, t = 0.5 datum it reads 1.1e-12 where
    spectral_propagate, independent of it (no e^{−ik²t/2m}), differs by 9.7e-6.
    """
    values, errors = _greens_quadrature(psi0_samples, mass, t, x_eval)
    worst = float(np.max(errors / np.maximum(1.0, np.abs(values)), initial=0.0))
    if worst > _GREENS_TARGET:
        raise GreensConvergenceError(
            f"greens_propagate error estimate {worst:.2e} exceeds {_GREENS_TARGET:.0e}")
    prefactor = np.sqrt(mass / (2j * np.pi * t))
    return Wavefunction(values=prefactor * values)


def bessel_cutoff(mass: float) -> int:
    """Smallest k beyond which |J_k(m)| stays below 1e−16 (safe uniform band)."""
    from scipy.special import jv

    k_max = int(np.ceil(mass + 40.0 * mass ** (1.0 / 3.0)))
    k = np.arange(k_max + 1)
    mags = np.abs(jv(k, mass))
    keep = np.nonzero(mags >= 1e-16)[0]
    return int(keep[-1]) if keep.size else 0


def single_shock_psi(x: np.ndarray | float, t: float, mass: float) -> np.ndarray | complex:
    """Exact single-shock solution for ψ₀ = e^{im cos x} as a Bessel series.

    Equals the free-kernel integral ∫dy √(m/2iπt)·e^{im((y−x)²/2t + cos y)}
    rewritten mode-by-mode; truncated where |J_k(m)| < 1e−16.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    from scipy.special import jv

    scalar = np.isscalar(x)
    xa = np.atleast_1d(np.asarray(x, dtype=float))
    k_cut = bessel_cutoff(mass)
    k = np.arange(1, k_cut + 1)
    weights = (1j ** k) * jv(k, mass) * np.exp(-1j * k ** 2 * t / (2.0 * mass))
    psi = jv(0, mass) * np.ones_like(xa, dtype=np.complex128)
    # einsum, not a threaded BLAS product, as in _kernel_integrals
    psi += 2.0 * np.einsum("xk,k->x", np.cos(np.outer(xa, k)), weights)
    if scalar:
        return complex(psi[0])
    return psi


def schrodinger_hydro(psi: Wavefunction, mass: float) -> tuple[np.ndarray, np.ndarray]:
    """Madelung variables of the wavefunction: n = |ψ|², v = Im(ψ*∂_xψ)/(m|ψ|²).

    The velocity is the phase gradient over m computed branch-free; sites
    with |ψ| at or below 1e−10·max(1, max|ψ|) are masked to v = 0.
    """
    values = psi.values
    modulus = np.abs(values)
    n = modulus ** 2
    dpsi = spectral_derivative(values)
    valid = modulus > 1e-10 * max(float(modulus.max()), 1.0)
    # divided at the kept sites only: a masked one may overflow the quotient
    v = np.zeros_like(n)
    np.divide(np.imag(np.conj(values) * dpsi), mass * n, out=v, where=valid)
    return n, v
