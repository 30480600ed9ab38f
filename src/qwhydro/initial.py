"""Initial states: exact plane waves and phase-modulated shock data.

A positive-energy plane wave of momentum q (absolute units, q̃ = q/m) is

    Ψ_L = √(√(1+q̃²) − q̃)·e^{imφ}/√2,   Ψ_R = √(√(1+q̃²) + q̃)·e^{imφ}/√2,

with total phase mφ = qx − √(m²+q²)·t.  It carries unit density n = 1,
uniform currents j⁰ = √(1+q̃²), j¹ = q̃ and proper velocity u¹ = q̃.

Shock initial data promote φ to a sum of cosine modes; the spinor is built
pointwise from the same formula with the local momentum q(x) = m·∂_xφ
(a WKB construction: unit density, prescribed velocity field).

The rules these states need are checked here, by the builders and by
`config.validate_config` alike: `check_profile` for a shock profile's
wavenumbers, Nyquist bound and finite phase, and `_plane_wave_amplitudes`
itself for amplitudes that stay within the floats.
"""

from __future__ import annotations

import math
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


def check_profile(spec: ShockInitSpec, n_sites: int) -> float:
    """Raise ValueError naming the config keys unless `n_sites` sites resolve
    `spec`'s profile: mode wavenumbers within ±n_sites/2, a phase gradient
    |∂ₓ(mφ)| ≤ q_max·Σ|aᵢ|·kᵢ within the Nyquist wavenumber n_sites/2, and a
    finite bound n_sites·(n_sites/2)·(q_max/m)·Σ|aᵢ| on the modes of φ and ∂ₓφ.
    Returns the gradient bound q_max·Σ|aᵢ|·kᵢ; builds no array."""
    check_wavenumber("'mode' k", max(m.wavenumber for m in spec.modes), n_sites)
    gradient = spec.q_max * sum(abs(m.amplitude) * m.wavenumber for m in spec.modes)
    if gradient > n_sites // 2:
        raise ValueError(f"'mode' amplitudes and 'q_max' give an initial phase "
                         f"gradient q_max·Σ|a|·k = {gradient:g} above the "
                         f"Nyquist wavenumber n_sites/2 = {n_sites // 2}")
    # in Python floats an overflow is inf and inf·0 is nan, neither a warning
    spectrum = n_sites * (n_sites // 2) * (spec.q_max / spec.mass) * sum(
        abs(m.amplitude) for m in spec.modes)
    if not math.isfinite(spectrum):
        raise ValueError(f"'q_max' = {spec.q_max:g}, 'mode' and 'mass' = {spec.mass:g} "
                         f"give an initial phase (q_max/mass)·Σ a·cos(kx + δ) whose "
                         f"spectrum is out of the floats")
    return gradient


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


def _plane_wave_amplitudes(q: np.ndarray | float, mass: float = 1.0, names: str = "q̃"
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """√(1+q̃²), the frequency over m, and the amplitudes of Ψ_L and Ψ_R at
    q̃ = q/mass; from |q̃| ≈ 1.3e154 on, a ValueError naming `names`.

    The larger amplitude is √(√(1+q̃²) + |q̃|)/√2, the smaller 1/(2·larger)
    (their product is 1/2), not √(√(1+q̃²) − |q̃|)/√2, which cancels: its
    relative error grows like q̃², and it is 0 from |q̃| ≈ 1e8.  At q̃ = 0
    both take the first form.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        q_tilde = np.divide(q, mass)
        root = np.sqrt(1.0 + np.square(q_tilde))
    if not np.all(np.isfinite(root)):
        raise ValueError(f"{names} give a plane wave with (q/mass)² out of the floats")
    large = np.sqrt(root + np.abs(q_tilde)) / np.sqrt(2.0)
    small = 0.5 / large
    amp_l = np.where(q_tilde > 0, small, large)
    amp_r = np.where(q_tilde < 0, small, large)
    return root, amp_l, amp_r


def plane_wave(params: WalkParams, q: float, t: float = 0.0) -> SpinorField:
    """Exact positive-energy plane wave sampled on the lattice.

    q is the momentum in absolute units and must be an integer wavenumber
    for exact periodicity on [0, 2π).
    """
    check_wavenumber("'q'", q, params.n_sites)
    q = float(round(q))
    m = params.mass
    root, amp_l, amp_r = _plane_wave_amplitudes(q, m, f"'q' = {q:g} and 'mass' = {m:g}")
    phase = np.exp(1j * (q * params.x - m * root * t))
    return SpinorField(left=amp_l * phase, right=amp_r * phase)


def _lattice_phase(params: WalkParams, spec: ShockInitSpec) -> np.ndarray:
    """φ(x) on the lattice, for a spec of the lattice's mass whose profile it resolves."""
    if not np.isclose(spec.mass, params.mass, rtol=1e-12):
        raise ValueError("spec.mass must match params.mass")
    check_profile(spec, params.n_sites)
    return phase_profile(spec, params.x)


def phase_modulated_state(params: WalkParams, spec: ShockInitSpec) -> SpinorField:
    """Unit-density WKB state with velocity field u¹(x) = ∂_xφ(x).

    The local momentum q(x) = m·∂_xφ enters the plane-wave amplitudes
    pointwise and the total phase is m·φ(x).  Relativistic speeds
    (|q/m| ≥ 1) are legal: u¹ is the proper velocity m·γv, so any finite
    value stays subluminal.
    """
    phi = _lattice_phase(params, spec)
    names = f"'q_max' = {spec.q_max:g}, 'mode' and 'mass' = {spec.mass:g}"
    _, amp_l, amp_r = _plane_wave_amplitudes(spectral_derivative(phi), names=names)
    phase = np.exp(1j * params.mass * phi)
    return SpinorField(left=amp_l * phase, right=amp_r * phase)


def schrodinger_initial(params: WalkParams, spec: ShockInitSpec) -> Wavefunction:
    """Unit-modulus wavefunction e^{imφ(x)} matching the walk's initial phase."""
    phi = _lattice_phase(params, spec)
    return Wavefunction(values=np.exp(1j * params.mass * phi))
