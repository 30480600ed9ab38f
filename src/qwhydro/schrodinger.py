"""Free Schrödinger reference solutions: i∂_tψ = −(1/2m)∂_{xx}ψ.

This is the Galilean-limit oracle for the walk.  Three independent routes
are provided and cross-checked in the tests:

  * spectral_propagate: exact mode-by-mode phase factors e^{-ik²t/2m};
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

import math
from dataclasses import dataclass

import numpy as np

from ._spectral import EPS, GL16_NODES, GL16_WEIGHTS, TWO_PI, grid, spectral_derivative, \
    wavenumbers


@dataclass
class Wavefunction:
    """Complex field on N periodic sites at a given time."""

    values: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if not np.all(np.isfinite(self.values)):
            raise ValueError("wavefunction must be finite")

    @property
    def n_sites(self) -> int:
        return self.values.shape[0]


def spectral_propagate(psi: Wavefunction, mass: float, t: float) -> Wavefunction:
    """Advance by t: multiply each Fourier mode by e^{−ik²t/(2m)}."""
    n = psi.n_sites
    k = wavenumbers(n)
    modes = np.fft.fft(psi.values)
    modes *= np.exp(-1j * k ** 2 * t / (2.0 * mass))
    return Wavefunction(values=np.fft.ifft(modes), time=psi.time + t)


def _fourier_coefficients(values: np.ndarray):
    n = values.shape[0]
    coeff = np.fft.fft(values) / n
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
# Largest bound (2π/(edge rate·taper))³ on the window's endpoint contribution.
_BOUNDARY_TOL = 1e-3


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
    window = flat + taper
    edges = (-window, -flat, flat, window)
    total = np.zeros(kv.shape, dtype=complex)
    rounding = np.zeros(kv.shape)
    for lo, hi, n in zip(edges[:-1], edges[1:], panels):
        half = (hi - lo) / (2 * n)
        mids = lo + half * (2.0 * np.arange(n) + 1.0)
        u = mids[:, None] + half * GL16_NODES
        ramp = np.clip((np.abs(u) - flat) / taper, 0.0, 1.0)
        weight = (half * GL16_WEIGHTS) * np.cos(0.5 * np.pi * ramp) ** 2
        phase = mass * u * u / (2.0 * t)
        offsets = np.exp(1j * np.outer(kv, half * GL16_NODES))
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


def _greens_quadrature(psi0_samples, mass, t, window, x_eval):
    """∫ e^{im(x−y)²/2t}·w(y − x)·ψ₀(y) dy at x_eval, with each value's error estimate."""
    if t <= 0:
        raise ValueError("t must be positive")
    psi0_samples = np.asarray(psi0_samples, dtype=np.complex128)
    if x_eval is None:
        x_eval = grid(psi0_samples.shape[0])

    coeff, kv = _fourier_coefficients(psi0_samples)
    k_max = float(np.abs(kv).max()) if kv.size else 0.0
    fresnel = np.sqrt(TWO_PI * t / mass)
    if window is None:
        # stationary-point reach t·k_max/m plus eight Fresnel zones √(2πt/m)
        window = t * k_max / mass + 8.0 * fresnel
    taper = min(4.0 * fresnel, 0.45 * window)
    flat = window - taper
    if flat <= 0:
        raise ValueError("window too small to fit the smooth taper")

    # Boundary safety: the taper zone must cover several oscillations of the
    # non-stationary integrand; the cos² window then suppresses the endpoint
    # contribution by roughly the cube of that count.
    edge_rate = mass * flat / t - k_max
    if edge_rate <= 0 or (TWO_PI / (edge_rate * taper)) ** 3 > _BOUNDARY_TOL:
        raise ValueError("window too small: boundary contribution not negligible")

    rate = mass * window / t + k_max
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
                     window: float | None = None,
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
    the integral before the prefactor √(m/2iπt).  Independent of
    spectral_propagate (it never uses e^{−ik²t/2m}); used as a second
    oracle.
    """
    values, errors = _greens_quadrature(psi0_samples, mass, t, window, x_eval)
    worst = float(np.max(errors / np.maximum(1.0, np.abs(values)), initial=0.0))
    if worst > _GREENS_TARGET:
        raise GreensConvergenceError(
            f"greens_propagate error estimate {worst:.2e} exceeds {_GREENS_TARGET:.0e}")
    prefactor = np.sqrt(mass / (2j * np.pi * t))
    return Wavefunction(values=prefactor * values, time=t)


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
    n = np.abs(values) ** 2
    dpsi = spectral_derivative(values)
    valid = np.abs(values) > 1e-10 * max(float(np.abs(values).max()), 1.0)
    safe = np.where(valid, n, 1.0)
    v = np.where(valid, np.imag(np.conj(values) * dpsi) / (mass * safe), 0.0)
    return n, v
