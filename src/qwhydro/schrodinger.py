"""Free Schrödinger reference solutions: i∂_tψ = −(1/2m)∂_{xx}ψ.

This is the Galilean-limit oracle for the walk.  Three independent routes
are provided and cross-checked in the tests:

  * spectral_propagate: exact mode-by-mode phase factors e^{-ik²t/2m};
  * greens_propagate:   real-space convolution against the free kernel
    √(m/2iπt)·e^{im(x−y)²/2t} by adaptive oscillatory quadrature;
  * single_shock_psi:   for ψ₀ = e^{im cos x}, the exact Bessel series
    ψ(x,t) = Σ_k i^k J_k(m) e^{ikx − ik²t/2m}  (Jacobi–Anger).

The last two import scipy when called, not with the module: importing it
costs most of the start-up time of a run that never needs it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import TWO_PI, spectral_derivative, wavenumbers


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


def _fourier_coefficients(values: np.ndarray, floor: float = 1e-13):
    n = values.shape[0]
    coeff = np.fft.fft(values) / n
    k = wavenumbers(n)
    keep = np.abs(coeff) > floor * np.abs(coeff).max()
    return coeff[keep], k[keep]


def default_window(psi0: np.ndarray, mass: float, t: float) -> float:
    """Stationary-point reach t·k_max/m plus eight Fresnel zones √(2πt/m)."""
    _, k = _fourier_coefficients(psi0)
    k_max = float(np.abs(k).max()) if k.size else 0.0
    return t * k_max / mass + 8.0 * np.sqrt(TWO_PI * t / mass)


def _smooth_window(u: float, flat: float, taper: float) -> float:
    """1 on |u| ≤ flat, cos²-ramp to 0 at |u| = flat + taper."""
    a = min(max((abs(u) - flat) / taper, 0.0), 1.0)
    return float(np.cos(0.5 * np.pi * a) ** 2)


def greens_propagate(psi0_samples: np.ndarray, mass: float, t: float,
                     window: float | None = None,
                     x_eval: np.ndarray | None = None,
                     quad_limit: int = 800,
                     boundary_tol: float = 1e-3) -> Wavefunction:
    """Propagate by direct quadrature against the free-particle kernel.

    ψ(x,t) = ∫ dy √(m/2iπt)·e^{im(x−y)²/(2t)}·ψ₀(y) over [x−W, x+W] with a
    smooth Fresnel-zone taper at the ends.  ψ₀ is evaluated off-grid by
    trigonometric interpolation of the periodic samples.  Independent of
    (and much slower than) spectral_propagate; used as a second oracle.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    from scipy import integrate

    psi0_samples = np.asarray(psi0_samples, dtype=np.complex128)
    n = psi0_samples.shape[0]
    if x_eval is None:
        x_eval = TWO_PI * np.arange(n) / n
    if window is None:
        window = default_window(psi0_samples, mass, t)

    coeff, kv = _fourier_coefficients(psi0_samples)
    fresnel = np.sqrt(TWO_PI * t / mass)
    taper = min(4.0 * fresnel, 0.45 * window)
    flat = window - taper
    if flat <= 0:
        raise ValueError("window too small to fit the smooth taper")

    # Boundary safety: the taper zone must cover several oscillations of the
    # non-stationary integrand; the cos² window then suppresses the endpoint
    # contribution by roughly the cube of that count.
    k_max = float(np.abs(kv).max()) if kv.size else 0.0
    edge_rate = mass * flat / t - k_max
    if edge_rate <= 0 or (TWO_PI / (edge_rate * taper)) ** 3 > boundary_tol:
        raise ValueError("window too small: boundary contribution not negligible")

    prefactor = np.sqrt(mass / (2j * np.pi * t))

    def interp(y: np.ndarray) -> np.ndarray:
        return (coeff[None, :] * np.exp(1j * np.outer(y, kv))).sum(axis=1)

    def integrand(u: float) -> np.ndarray:
        # u = y − x, one value of u for all evaluation points at once
        y = x_eval + u
        kern = np.exp(1j * mass * u * u / (2.0 * t))
        return kern * interp(y) * _smooth_window(u, flat, taper)

    result, _ = integrate.quad_vec(integrand, -window, window,
                                   epsabs=1e-10, epsrel=1e-10, limit=quad_limit)
    return Wavefunction(values=prefactor * result, time=t)


def bessel_cutoff(mass: float, tol: float = 1e-16) -> int:
    """Smallest k beyond which |J_k(m)| stays below tol (safe uniform band)."""
    from scipy.special import jv

    k_max = int(np.ceil(mass + 40.0 * mass ** (1.0 / 3.0)))
    k = np.arange(k_max + 1)
    mags = np.abs(jv(k, mass))
    keep = np.nonzero(mags >= tol)[0]
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
    psi += 2.0 * (np.cos(np.outer(xa, k)) @ weights)
    if scalar:
        return complex(psi[0])
    return psi


def schrodinger_hydro(psi: Wavefunction, mass: float,
                      floor: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Madelung variables of the wavefunction: n = |ψ|², v = Im(ψ*∂_xψ)/(m|ψ|²).

    The velocity is the phase gradient over m computed branch-free; sites
    with |ψ| at or below the floor are masked to v = 0.
    """
    values = psi.values
    n = np.abs(values) ** 2
    dpsi = spectral_derivative(values)
    valid = np.abs(values) > floor * max(float(np.abs(values).max()), 1.0)
    safe = np.where(valid, n, 1.0)
    v = np.where(valid, np.imag(np.conj(values) * dpsi) / (mass * safe), 0.0)
    return n, v
