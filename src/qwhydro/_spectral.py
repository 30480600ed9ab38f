"""Shared grid and derivative helpers for periodic fields on [0, 2π).

All fields live on N equispaced sites x_n = n·(2π/N).  Spatial derivatives
of smooth periodic data are spectral (FFT, integer wavenumbers); phase
fields are unwrapped and linearly detrended first because they may wind
around the circle an integer number of times.  The panel rule and the
rounding unit of the array quadratures in `schrodinger` and `asymptotics`
live here too.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
GL16_NODES, GL16_WEIGHTS = np.polynomial.legendre.leggauss(16)
EPS = float(np.finfo(float).eps)


def grid(n_sites: int) -> np.ndarray:
    """Site coordinates x_n = 2π n / N on the periodic domain [0, 2π)."""
    return TWO_PI * np.arange(n_sites) / n_sites


def wavenumbers(n_sites: int) -> np.ndarray:
    """Integer wavenumbers in FFT order (domain length 2π)."""
    return np.fft.fftfreq(n_sites, d=1.0 / n_sites)


def spectral_derivative(f: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral d^order/dx^order of a periodic field.

    The Nyquist mode is zeroed for odd orders (its derivative has no
    symmetric representation on the grid).  Real input gives real output.
    """
    n = f.shape[-1]
    k = wavenumbers(n)
    mult = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    df = np.fft.ifft(np.fft.fft(f) * mult)
    if np.isrealobj(f):
        return df.real
    return df


def winding_number(phase: np.ndarray) -> int:
    """Net number of 2π turns of a phase field around the ring."""
    closed = np.concatenate([phase, phase[:1]])
    jumps = principal_value(np.diff(closed))
    return int(np.rint(jumps.sum() / TWO_PI))


def unwrap_detrended(phase: np.ndarray) -> tuple[np.ndarray, int]:
    """Split a phase field into (periodic part, winding number).

    phase(x) ≡ periodic(x) + w·x modulo 2π, with integer w.  The periodic
    part is safe to differentiate spectrally; the winding contributes a
    constant w to the derivative.
    """
    w = winding_number(phase)
    n = phase.shape[0]
    x = grid(n)
    residual = np.unwrap(phase - w * x)
    return residual, w


def phase_gradient(phase: np.ndarray) -> np.ndarray:
    """Spectral d/dx of a (possibly winding) phase field."""
    residual, w = unwrap_detrended(phase)
    return spectral_derivative(residual) + w


def principal_value(phi: np.ndarray) -> np.ndarray:
    """Reduce angles to the principal interval (−π, π]."""
    out = np.mod(phi + np.pi, TWO_PI) - np.pi
    return np.where(out == -np.pi, np.pi, out)


def centered_time_diff(prev: np.ndarray, nxt: np.ndarray, dt: float) -> np.ndarray:
    """Second-order centered difference (f(t+dt) − f(t−dt)) / (2 dt)."""
    return (nxt - prev) / (2.0 * dt)


def l2_norm(values: np.ndarray, spacing: float, where: np.ndarray | None = None) -> float:
    """Discrete L² norm sqrt(ε·Σ|f|²), optionally restricted to a mask."""
    v = np.abs(values) ** 2
    if where is not None:
        v = v[where]
    return float(np.sqrt(spacing * v.sum()))

