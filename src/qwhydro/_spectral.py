"""Shared grid and derivative helpers for periodic fields on [0, 2π).

All fields live on N equispaced sites x_n = n·(2π/N).  Spatial derivatives
of smooth periodic data are spectral (FFT, integer wavenumbers).  A phase
is never differentiated as such: `hydro` and `nonrel` take a phase gradient
from the field itself, as Im(ψ*∂ψ)/|ψ|², which needs no unwrapping.  The
panel rule and the rounding unit of the array quadratures in `schrodinger`
and `asymptotics` live here too.

A grid's tables (its sites, its wavenumbers, the derivative multipliers
(ik)^order and the free Schrödinger exponent −ik²) are built once, on first
use, and kept in bounded caches of `TABLE_CACHE` entries each; they are
returned read-only, so no caller can change what the next one gets.  The
Gauss–Legendre rules and their Gauss–Kronrod extensions are built on first
use too.  Every FFT in the package goes through `fft` and `ifft`, which
count their calls for the run manifests.
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


def _kronrod_recurrence(n_gauss: int) -> np.ndarray:
    """b₀ … b_2n of the Jacobi–Kronrod matrix of the Legendre weight, whose
    diagonal is zero: Laurie's algorithm (Math. Comp. 66 (1997) 1133, as in
    Gautschi's `r_kronrod`) with every a_k = 0, which it keeps at 0 for an
    even weight.  It extends the Legendre recurrence b_k = k²/(4k² − 1),
    b₀ = ∫1 = 2, by the mixed moments s, t of two alternating rows."""
    n = n_gauss
    b = np.zeros(2 * n + 1)
    k = np.arange(1, (3 * n + 1) // 2 + 1)
    b[0] = 2.0
    b[k] = k * k / (4.0 * k * k - 1.0)
    s, t = np.zeros(n // 2 + 2), np.zeros(n // 2 + 2)
    t[1] = b[n + 1]
    for m in range(n - 1):
        k = np.arange((m + 1) // 2, -1, -1)
        s[k + 1] = np.cumsum(b[k + n + 1] * s[k] - b[m - k] * s[k + 1])
        s, t = t, s
    s[1:] = s[:-1].copy()
    for m in range(n - 1, 2 * n - 2):
        k = np.arange(m + 1 - n, (m - 1) // 2 + 1)
        j = n - 1 - m + k
        s[j + 1] = np.cumsum(b[m - k] * s[j + 2] - b[k + n + 1] * s[j + 1])
        if m % 2:
            b[(m + 1) // 2 + n + 1] = s[j[-1] + 1] / s[j[-1] + 2]
        s, t = t, s
    return b


@functools.cache
def gauss_kronrod(n_gauss: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the (2n + 1)-node Gauss–Kronrod extension of the
    n-node Gauss–Legendre rule on [−1, 1], ascending and read-only, built on
    first use.  It is exact to degree 3n + 1 (3n + 2 for odd n).  Its Gauss
    nodes sit at the odd positions and are `gauss_legendre(n)`'s to the bit.

    The nodes are the eigenvalues of the Jacobi–Kronrod matrix and the
    weights 2 times the squares of its eigenvectors' first components; both
    are made exactly symmetric about 0.
    """
    off = np.sqrt(_kronrod_recurrence(n_gauss)[1:])
    nodes, vectors = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    weights = 2.0 * vectors[0] ** 2
    nodes = 0.5 * (nodes - nodes[::-1])
    weights = 0.5 * (weights + weights[::-1])
    nodes[1::2] = gauss_legendre(n_gauss)[0]
    return _read_only(nodes), _read_only(weights)


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


def centered_time_diff(prev: np.ndarray, nxt: np.ndarray, dt: float) -> np.ndarray:
    """Second-order centered difference (f(t+dt) − f(t−dt)) / (2 dt)."""
    return (nxt - prev) / (2.0 * dt)


def l2_norm(values: np.ndarray, spacing: float, where: np.ndarray | None = None) -> float:
    """Discrete L² norm sqrt(ε·Σ|f|²), optionally restricted to a mask."""
    v = np.abs(values) ** 2
    if where is not None:
        v = v[where]
    return float(np.sqrt(spacing * v.sum()))

