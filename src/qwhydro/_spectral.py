"""Shared grid and derivative helpers for periodic fields on [0, 2π).

All fields live on N equispaced sites x_n = n·(2π/N).  Spatial derivatives
of smooth periodic data are spectral (FFT, integer wavenumbers); phase
fields are unwrapped and linearly detrended first because they may wind
around the circle an integer number of times.  `unwrap` and the winding
count reduce a jump modulo 2π only where its modulus is not below π, the
few sites where the phase wraps; every other jump keeps a zero correction,
as in `np.unwrap`, whose bits `unwrap` gives.  The panel rule and the
rounding unit of the array quadratures in `schrodinger` and `asymptotics`
live here too.

A grid's tables (its sites, its wavenumbers, the derivative multipliers
(ik)^order and the free Schrödinger exponent −ik²) are built once, on first
use, and kept in bounded caches of `TABLE_CACHE` entries each; they are
returned read-only, so no caller can change what the next one gets.  The
Gauss–Legendre rules are built on first use too.  Every
FFT in the package goes through `fft` and `ifft`, which count their calls
for the run manifests.
"""

from __future__ import annotations

import functools

import numpy as np

TWO_PI = 2.0 * np.pi
EPS = float(np.finfo(float).eps)


# Entries kept per table kind: grid sizes, or (size, order) pairs for the
# multipliers.  A run touches a few grid sizes at most (validation five); a
# complex table on 8192 sites takes 128 KiB.
TABLE_CACHE = 16

_fft_calls = 0


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


@functools.lru_cache(maxsize=TABLE_CACHE)
def grid(n_sites: int) -> np.ndarray:
    """Site coordinates x_n = 2π n / N on the periodic domain [0, 2π), read-only."""
    return _read_only(TWO_PI * np.arange(n_sites) / n_sites)


@functools.lru_cache(maxsize=TABLE_CACHE)
def wavenumbers(n_sites: int) -> np.ndarray:
    """Integer wavenumbers in FFT order (domain length 2π), read-only."""
    return _read_only(np.fft.fftfreq(n_sites, d=1.0 / n_sites))


@functools.lru_cache(maxsize=TABLE_CACHE)
def _derivative_multiplier(n_sites: int, order: int) -> np.ndarray:
    """(ik)^order, with the Nyquist mode zeroed for odd orders (its
    derivative has no symmetric representation on the grid)."""
    k = wavenumbers(n_sites)
    mult = (1j * k) ** order
    if order % 2 == 1 and n_sites % 2 == 0:
        mult[n_sites // 2] = 0.0
    return _read_only(mult)


@functools.lru_cache(maxsize=TABLE_CACHE)
def schrodinger_exponent(n_sites: int) -> np.ndarray:
    """−ik² per mode: the free propagator's e^{−ik²t/(2m)} is the exponential
    of this table times t/(2m).  Read-only."""
    return _read_only(-1j * wavenumbers(n_sites) ** 2)


def even_table(half: np.ndarray, n_sites: int) -> np.ndarray:
    """The FFT-order table of a function even in k, from its values `half`
    on the first n_sites // 2 + 1 modes (k = 0, 1, … and, for even n_sites,
    the Nyquist mode): the modes −k take the values of k."""
    return np.concatenate((half, half[(n_sites - 1) // 2:0:-1]))


@functools.cache
def gauss_legendre(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-node Gauss–Legendre rule on [−1, 1],
    read-only, built on first use: `numpy.polynomial` is imported then, not
    with the package."""
    return tuple(_read_only(table) for table in np.polynomial.legendre.leggauss(n_nodes))


def fft(a: np.ndarray) -> np.ndarray:
    """`np.fft.fft` along the last axis, counted in `fft_calls`."""
    global _fft_calls
    _fft_calls += 1
    return np.fft.fft(a)


def ifft(a: np.ndarray) -> np.ndarray:
    """`np.fft.ifft` along the last axis, counted in `fft_calls`."""
    global _fft_calls
    _fft_calls += 1
    return np.fft.ifft(a)


def fft_calls() -> int:
    """Calls to `fft` and `ifft` in this process so far, one per call
    whatever the batch shape; a run records the difference across it."""
    return _fft_calls


def spectral_derivative(f: np.ndarray, order: int = 1) -> np.ndarray:
    """Spectral d^order/dx^order of a periodic field along its last axis.

    The Nyquist mode is zeroed for odd orders.  Real input gives real output.
    """
    spectrum = fft(f)
    spectrum *= _derivative_multiplier(f.shape[-1], order)
    df = ifft(spectrum)
    if np.isrealobj(f):
        return df.real
    return df


def _wraps(jumps: np.ndarray) -> np.ndarray:
    """Indices of the jumps that are not below π in modulus (nan included):
    the only ones `np.unwrap` and the winding count reduce."""
    return np.flatnonzero(~(np.abs(jumps) < np.pi))


def winding_number(phase: np.ndarray) -> int:
    """Net number of 2π turns of a phase field around the ring.

    The jumps around the closed ring are summed with each jump of modulus
    π or more replaced by its principal value; the jumps below π are summed
    as they are, so only the wrapping sites pay for the reduction.
    """
    jumps = np.diff(np.concatenate([phase, phase[:1]]))
    wraps = _wraps(jumps)
    jumps[wraps] = principal_value(jumps[wraps])
    return int(np.rint(jumps.sum() / TWO_PI))


def unwrap(phase: np.ndarray) -> np.ndarray:
    """`np.unwrap(phase)` of a 1-D phase, with the same bits.

    `np.unwrap` reduces every jump modulo 2π and then zeroes the correction
    wherever |Δφ| < π; here the `mod` is taken only at the other jumps, the
    ones where the phase wraps, and the rest keep a zero correction.
    """
    jumps = np.diff(phase)
    wraps = _wraps(jumps)
    big = jumps[wraps]
    reduced = np.mod(big + np.pi, TWO_PI) - np.pi
    # a jump of exactly +π reduces to −π; np.unwrap keeps it at +π
    reduced[(reduced == -np.pi) & (big > 0)] = np.pi
    correction = np.zeros_like(jumps)
    correction[wraps] = reduced - big
    out = phase.copy()
    out[1:] += np.cumsum(correction)
    return out


def unwrap_detrended(phase: np.ndarray) -> tuple[np.ndarray, int]:
    """Split a phase field into (periodic part, winding number).

    phase(x) ≡ periodic(x) + w·x modulo 2π, with integer w.  The periodic
    part is safe to differentiate spectrally; the winding contributes a
    constant w to the derivative.
    """
    w = winding_number(phase)
    n = phase.shape[0]
    x = grid(n)
    residual = unwrap(phase - w * x)
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

