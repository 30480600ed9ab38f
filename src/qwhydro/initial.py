"""Initial states: exact plane waves and phase-modulated shock data.

A positive-energy plane wave of momentum q (absolute units, q̃ = q/m) is

    Ψ_L = √(√(1+q̃²) − q̃)·e^{imφ}/√2,   Ψ_R = √(√(1+q̃²) + q̃)·e^{imφ}/√2,

with total phase mφ = qx − √(m²+q²)·t.  It carries unit density n = 1,
uniform currents j⁰ = √(1+q̃²), j¹ = q̃ and proper velocity u¹ = q̃.

Shock initial data promote φ to a sum of cosine modes; the spinor is built
pointwise from the same formula with the local momentum q(x) = m·∂_xφ
(a WKB construction: unit density, prescribed velocity field).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import spectral_derivative
from .schrodinger import Wavefunction
from .walk import SpinorField, WalkParams


@dataclass(frozen=True)
class ModeSpec:
    """One cosine mode a·cos(kx + δ) of the phase profile."""

    amplitude: float
    wavenumber: int
    phase_offset: float = 0.0

    def __post_init__(self):
        if self.wavenumber < 1:
            raise ValueError("wavenumber must be ≥ 1")


@dataclass(frozen=True)
class ShockInitSpec:
    """Mode list plus peak momentum q_max = m·u_max for shock runs."""

    modes: tuple[ModeSpec, ...]
    q_max: float
    mass: float

    def __post_init__(self):
        object.__setattr__(self, "modes", tuple(self.modes))
        if not self.modes:
            raise ValueError("at least one mode required")
        if self.q_max < 0:
            raise ValueError("q_max must be nonnegative")
        if not self.mass > 0:
            raise ValueError("mass must be positive")


def multimode_benchmark(q_max: float, mass: float) -> ShockInitSpec:
    """Three-mode benchmark profile cos(x) + cos(3x)/3 + cos(2x+0.9)/2."""
    return ShockInitSpec(
        modes=(ModeSpec(1.0, 1), ModeSpec(1.0 / 3.0, 3), ModeSpec(0.5, 2, 0.9)),
        q_max=q_max,
        mass=mass,
    )


def single_cosine(q_max: float, mass: float) -> ShockInitSpec:
    """Single-mode profile cos(x): one symmetric shock at (x, t) = (0, 1/u_max)."""
    return ShockInitSpec(modes=(ModeSpec(1.0, 1),), q_max=q_max, mass=mass)


def check_wavenumber(name: str, k: float, n_sites: int):
    """Raise ValueError naming `name` unless k is an integer wavenumber with
    |k| ≤ n_sites/2.  Builds no array, so a config can be checked with it
    before anything is allocated."""
    if abs(k - round(k)) > 1e-9 or abs(round(k)) > n_sites // 2:
        raise ValueError(f"{name} = {k} is not an integer wavenumber within "
                         f"±n_sites/2 = ±{n_sites // 2}")


def phase_profile(spec: ShockInitSpec, x: np.ndarray) -> np.ndarray:
    """φ(x) = (q_max/m)·Σ aᵢ cos(kᵢx + δᵢ)."""
    phi = np.zeros_like(x)
    for mode in spec.modes:
        phi += mode.amplitude * np.cos(mode.wavenumber * x + mode.phase_offset)
    return (spec.q_max / spec.mass) * phi


def phase_profile_derivative(spec: ShockInitSpec, x: np.ndarray) -> np.ndarray:
    """Exact trigonometric ∂_xφ, cross-check for the spectral route."""
    dphi = np.zeros_like(x)
    for mode in spec.modes:
        dphi -= mode.amplitude * mode.wavenumber * np.sin(
            mode.wavenumber * x + mode.phase_offset)
    return (spec.q_max / spec.mass) * dphi


def _plane_wave_amplitudes(q_tilde: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    root = np.sqrt(1.0 + np.square(q_tilde))
    amp_l = np.sqrt(root - q_tilde) / np.sqrt(2.0)
    amp_r = np.sqrt(root + q_tilde) / np.sqrt(2.0)
    return amp_l, amp_r


def plane_wave(params: WalkParams, q: float, t: float = 0.0) -> SpinorField:
    """Exact positive-energy plane wave sampled on the lattice.

    q is the momentum in absolute units and must be an integer wavenumber
    for exact periodicity on [0, 2π).
    """
    check_wavenumber("'q'", q, params.n_sites)
    q = float(round(q))
    m = params.mass
    q_tilde = q / m
    omega = m * np.sqrt(1.0 + q_tilde ** 2)
    x = params.x
    phase = np.exp(1j * (q * x - omega * t))
    amp_l, amp_r = _plane_wave_amplitudes(q_tilde)
    return SpinorField(left=amp_l * phase, right=amp_r * phase)


def _lattice_phase(params: WalkParams, spec: ShockInitSpec) -> np.ndarray:
    """φ(x) on the lattice, for a spec of the lattice's mass whose modes it resolves."""
    if not np.isclose(spec.mass, params.mass, rtol=1e-12):
        raise ValueError("spec.mass must match params.mass")
    check_wavenumber("'mode' k", max(m.wavenumber for m in spec.modes), params.n_sites)
    return phase_profile(spec, params.x)


def phase_modulated_state(params: WalkParams, spec: ShockInitSpec) -> SpinorField:
    """Unit-density WKB state with velocity field u¹(x) = ∂_xφ(x).

    The local momentum q(x) = m·∂_xφ enters the plane-wave amplitudes
    pointwise and the total phase is m·φ(x).  Relativistic speeds
    (|q/m| ≥ 1) are legal: u¹ is the proper velocity m·γv, so any finite
    value stays subluminal.
    """
    phi = _lattice_phase(params, spec)
    q_tilde = spectral_derivative(phi)
    if not np.all(np.isfinite(q_tilde)):
        raise ValueError("velocity field is not finite")
    amp_l, amp_r = _plane_wave_amplitudes(q_tilde)
    phase = np.exp(1j * params.mass * phi)
    return SpinorField(left=amp_l * phase, right=amp_r * phase)


def schrodinger_initial(params: WalkParams, spec: ShockInitSpec) -> Wavefunction:
    """Unit-modulus wavefunction e^{imφ(x)} matching the walk's initial phase."""
    phi = _lattice_phase(params, spec)
    return Wavefunction(values=np.exp(1j * params.mass * phi), time=0.0)
