"""Relativistic Madelung picture of the walk's Dirac field.

The spinor bilinears give a conserved current with components
j⁰ = |Ψ_R|² + |Ψ_L|² and j¹ = |Ψ_R|² − |Ψ_L|², which is timelike or null
because (j⁰)² − (j¹)² = 4|Ψ_L|²|Ψ_R|².  Together with the phase sum and
difference φ± = φ_L ± φ_R this is a complete chart: density n = √(j_μj^μ),
2-velocity u = j/n, enthalpy density w = m·n·cosφ₋.  The stress-energy
tensor is computed two independent ways, from spinor bilinears and from
the hydrodynamic form w u^μu^ν + quantum-pressure gradients, and the two
must agree on smooth states, which the tests enforce.

Conventions fixed module-wide: metric signature (+,−) so ∂⁰ = ∂_t and
∂¹ = −∂_x.  The antisymmetric symbol enters only through contractions
whose orientation is pinned by requiring the equations of motion to hold
identically on Dirac solutions (see madelung_residuals); the sign-definite
statements are spelled out componentwise at each use.  Spatial derivatives
are spectral (fields are smooth and periodic); time derivatives come from
centered differences over consecutive snapshots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._spectral import (
    centered_time_diff,
    l2_norm,
    phase_gradient,
    spectral_derivative,
)
from .walk import SpinorField, Trajectory, WalkParams, centered_window

PHASE_FLOOR = 1e-14        # component modulus below which phases are invalid
NULL_FRACTION = 1e-10      # n below this fraction of max(n) counts as null


@dataclass
class CurrentField:
    """Particle density j⁰ and flux j¹ per unit length."""

    j0: np.ndarray
    j1: np.ndarray


@dataclass
class PhaseField:
    """Phase sum φ₊ = φ_L + φ_R and difference φ₋ = φ_L − φ_R.

    Component phases are principal values in (−π, π]; their sums and
    differences therefore live in (−2π, 2π], which keeps the half-angles
    φ±/2 principal and makes the spinor reconstruction exact.  `valid` is
    False where either component modulus is below the floor.
    """

    phi_plus: np.ndarray
    phi_minus: np.ndarray
    valid: np.ndarray


@dataclass
class HydroField:
    """Fluid variables: density n, 2-velocity (u⁰, u¹), enthalpy density w."""

    n: np.ndarray
    u0: np.ndarray
    u1: np.ndarray
    w: np.ndarray
    valid_mask: np.ndarray


@dataclass
class TensorField:
    """Stress-energy components; t01 and t10 agree on-shell."""

    t00: np.ndarray
    t01: np.ndarray
    t10: np.ndarray
    t11: np.ndarray


def currents(state: SpinorField) -> CurrentField:
    """Bilinear current: j⁰ = |Ψ_R|² + |Ψ_L|², j¹ = |Ψ_R|² − |Ψ_L|²."""
    rho_l = np.abs(state.left) ** 2
    rho_r = np.abs(state.right) ** 2
    return CurrentField(j0=rho_r + rho_l, j1=rho_r - rho_l)


def phases(state: SpinorField) -> PhaseField:
    """Phase sum/difference of the two components, flagged where degenerate."""
    phi_l = np.angle(state.left)
    phi_r = np.angle(state.right)
    valid = (np.abs(state.left) > PHASE_FLOOR) & (np.abs(state.right) > PHASE_FLOOR)
    return PhaseField(phi_plus=phi_l + phi_r, phi_minus=phi_l - phi_r, valid=valid)


def hydro_vars(cur: CurrentField, ph: PhaseField, mass: float) -> HydroField:
    """Density, 2-velocity and enthalpy density; null sites masked."""
    n_sq = cur.j0 ** 2 - cur.j1 ** 2
    n = np.sqrt(np.clip(n_sq, 0.0, None))
    threshold = NULL_FRACTION * n.max() if n.max() > 0 else np.inf
    valid = (n > threshold) & ph.valid
    safe_n = np.where(valid, n, 1.0)
    u0 = np.where(valid, cur.j0 / safe_n, 0.0)
    u1 = np.where(valid, cur.j1 / safe_n, 0.0)
    w = mass * n * np.cos(ph.phi_minus)
    return HydroField(n=n, u0=u0, u1=u1, w=w, valid_mask=valid)


def spinor_from_hydro(cur: CurrentField, ph: PhaseField) -> SpinorField:
    """Reconstruct the spinor from (j⁰, j¹, φ₊, φ₋).

    Ψ_L = √((j⁰−j¹)/2)·e^{i(φ₊+φ₋)/2},  Ψ_R = √((j⁰+j¹)/2)·e^{i(φ₊−φ₋)/2}.
    Requires a timelike-or-null current (j⁰ ≥ |j¹|).
    """
    scale = max(float(cur.j0.max(initial=0.0)), 1.0)
    if np.any(cur.j0 ** 2 - cur.j1 ** 2 < -1e-12 * scale ** 2):
        raise ValueError("current must be timelike or null (j0 >= |j1|)")
    rho_l = np.clip((cur.j0 - cur.j1) / 2.0, 0.0, None)
    rho_r = np.clip((cur.j0 + cur.j1) / 2.0, 0.0, None)
    half_plus = ph.phi_plus / 2.0
    half_minus = ph.phi_minus / 2.0
    left = np.sqrt(rho_l) * np.exp(1j * (half_plus + half_minus))
    right = np.sqrt(rho_r) * np.exp(1j * (half_plus - half_minus))
    return SpinorField(left=left, right=right)


def _bilinear_im(state: SpinorField, d_left: np.ndarray, d_right: np.ndarray,
                 pauli3: bool) -> np.ndarray:
    # Im(ψ† M ∂ψ) with M = 1 or σ₃.
    if pauli3:
        return np.imag(np.conj(state.left) * d_left - np.conj(state.right) * d_right)
    return np.imag(np.conj(state.left) * d_left + np.conj(state.right) * d_right)


def stress_energy_spinor(state: SpinorField, params: WalkParams,
                         prev: SpinorField | None = None,
                         nxt: SpinorField | None = None,
                         dpsi_dt: tuple[np.ndarray, np.ndarray] | None = None,
                         ) -> TensorField:
    """Canonical stress-energy from spinor bilinears.

    t^{μν} = −Im(ψ̄γ^μ∂^νψ) with γ⁰ = σ₁, γ¹ = iσ₂.  The tensor is built
    without forced symmetrization, so t01 ≈ t10 is a genuine on-shell check
    rather than an identity.  Space derivatives are spectral; the time
    derivative comes from a centered difference over (prev, nxt) snapshots
    or from an analytic supplier dpsi_dt = (∂_tΨ_L, ∂_tΨ_R).
    """
    if dpsi_dt is not None:
        dt_l, dt_r = dpsi_dt
    elif prev is not None and nxt is not None:
        if nxt.step_index - state.step_index != 1 or state.step_index - prev.step_index != 1:
            raise ValueError("prev/nxt must be the adjacent cadence-1 snapshots")
        dt_l = centered_time_diff(prev.left, nxt.left, params.dt)
        dt_r = centered_time_diff(prev.right, nxt.right, params.dt)
    else:
        raise ValueError("need either (prev, nxt) snapshots or analytic dpsi_dt")

    dx_l = spectral_derivative(state.left)
    dx_r = spectral_derivative(state.right)

    # ψ̄γ⁰∂ψ = ψ†∂ψ, ψ̄γ¹∂ψ = −ψ†σ₃∂ψ; raise the derivative index: ∂⁰=∂_t, ∂¹=−∂_x.
    t00 = -_bilinear_im(state, dt_l, dt_r, pauli3=False)
    t01 = +_bilinear_im(state, dx_l, dx_r, pauli3=False)
    t10 = +_bilinear_im(state, dt_l, dt_r, pauli3=True)
    t11 = -_bilinear_im(state, dx_l, dx_r, pauli3=True)
    return TensorField(t00=t00, t01=t01, t10=t10, t11=t11)


def _dphi_minus_dt_onshell(h: HydroField, dphi_plus_dx: np.ndarray) -> np.ndarray:
    # Equation of motion trades the time derivative of φ₋ for spatial data:
    # ∂_tφ₋ = ∂_xφ₊ − 2(w/n)u¹ (valid wherever the fluid chart is).
    safe_n = np.where(h.valid_mask, np.where(h.n > 0, h.n, 1.0), 1.0)
    return dphi_plus_dx - 2.0 * (h.w / safe_n) * h.u1


def stress_energy_hydro(h: HydroField, ph: PhaseField, params: WalkParams) -> TensorField:
    """Hydrodynamic stress-energy w·u^μu^ν plus quantum-pressure gradients.

    T^{μν} = w u^μ u^ν + (n/2)(ε^{μα}u_α ∂^ν φ₋ + u^μ ε^{να} ∂_α φ₋), with
    the antisymmetric-symbol orientation fixed so that this form equals the
    spinor bilinear tensor on solutions (ε⁰¹u_1 = +u¹, ε¹⁰u_0 = +u⁰).
    ∂_tφ₋ is eliminated on-shell (see _dphi_minus_dt_onshell), so only
    spatial data enters.  Components at invalid (null) sites are zeroed.
    """
    dphi_minus_dx = phase_gradient(ph.phi_minus)
    dphi_plus_dx = phase_gradient(ph.phi_plus)
    dphi_minus_dt = _dphi_minus_dt_onshell(h, dphi_plus_dx)

    n, u0, u1, w = h.n, h.u0, h.u1, h.w
    t00 = w * u0 * u0 + 0.5 * n * (u1 * dphi_minus_dt - u0 * dphi_minus_dx)
    t01 = w * u0 * u1 + 0.5 * n * (-u1 * dphi_minus_dx + u0 * dphi_minus_dt)
    t11 = w * u1 * u1 + 0.5 * n * (-u0 * dphi_minus_dx + u1 * dphi_minus_dt)
    mask = h.valid_mask
    zero = np.zeros_like(t00)
    return TensorField(
        t00=np.where(mask, t00, zero),
        t01=np.where(mask, t01, zero),
        t10=np.where(mask, t01, zero),
        t11=np.where(mask, t11, zero),
    )


def velocity_from_phase_gradient(ph: PhaseField, h: HydroField,
                                 params: WalkParams,
                                 dphi_minus_dt: np.ndarray | float = 0.0) -> np.ndarray:
    """u¹ recovered from phase gradients instead of currents.

    From the potential-flow relation m·cosφ₋·u¹ = (∂_xφ₊ − ∂_tφ₋)/2; the
    agreement with j¹/n is a built-in redundancy check of the chart.
    """
    dphi_plus_dx = phase_gradient(ph.phi_plus)
    cos_minus = np.cos(ph.phi_minus)
    safe = np.where(np.abs(cos_minus) > 1e-12, cos_minus, 1.0)
    u1 = (dphi_plus_dx - dphi_minus_dt) / (2.0 * params.mass * safe)
    return np.where(np.abs(cos_minus) > 1e-12, u1, 0.0)


def _component_phase_rate(comp: np.ndarray, d_comp: np.ndarray) -> np.ndarray:
    # d(arg ψ)/dt = Im(ψ* ∂_tψ)/|ψ|², branch-free.
    rho = np.abs(comp) ** 2
    safe = np.where(rho > PHASE_FLOOR ** 2, rho, 1.0)
    return np.where(rho > PHASE_FLOOR ** 2, np.imag(np.conj(comp) * d_comp) / safe, 0.0)


def _madelung_residual_fields(state: SpinorField, params: WalkParams,
                              dt_l: np.ndarray, dt_r: np.ndarray,
                              dj0_dt: np.ndarray, dj1_dt: np.ndarray,
                              ) -> tuple[float, float, float]:
    """Residual norms of the three equations of motion, given time derivatives."""
    eps = params.spacing
    m = params.mass
    cur = currents(state)
    ph = phases(state)
    n = np.sqrt(np.clip(cur.j0 ** 2 - cur.j1 ** 2, 0.0, None))

    rate_l = _component_phase_rate(state.left, dt_l)
    rate_r = _component_phase_rate(state.right, dt_r)
    dphi_plus_dt = rate_l + rate_r
    dphi_minus_dt = rate_l - rate_r
    dphi_plus_dx = phase_gradient(ph.phi_plus)
    dphi_minus_dx = phase_gradient(ph.phi_minus)
    dj0_dx = spectral_derivative(cur.j0)
    dj1_dx = spectral_derivative(cur.j1)

    res4 = dj1_dt + dj0_dx - 2.0 * m * n * np.sin(ph.phi_minus)
    res5_t = m * np.cos(ph.phi_minus) * cur.j0 + 0.5 * n * (dphi_plus_dt - dphi_minus_dx)
    res5_x = m * np.cos(ph.phi_minus) * cur.j1 + 0.5 * n * (dphi_minus_dt - dphi_plus_dx)
    res6 = dj0_dt + dj1_dx

    mask = ph.valid
    r4 = l2_norm(res4, eps, where=mask)
    r5 = float(np.sqrt(l2_norm(res5_t, eps, where=mask) ** 2
                       + l2_norm(res5_x, eps, where=mask) ** 2))
    r6 = l2_norm(res6, eps, where=mask)
    return r4, r5, r6


def madelung_residuals(traj: Trajectory, params: WalkParams) -> tuple[float, float, float]:
    """L² residuals of the hydrodynamic equations of motion on a trajectory.

    Evaluated on the middle of three consecutive cadence-1 snapshots:
      (i)   ∂_t j¹ + ∂_x j⁰ = 2 m n sinφ₋            (phase-difference source)
      (ii)  m cosφ₋ j⁰ = −(n/2)(∂_tφ₊ − ∂_xφ₋)
            m cosφ₋ j¹ = −(n/2)(∂_tφ₋ − ∂_xφ₊)       (potential flow)
      (iii) ∂_t j⁰ + ∂_x j¹ = 0                      (current conservation)
    Sites where a component modulus is below the phase floor are excluded.
    """
    prev, cur, nxt = centered_window(traj, 3)

    dt = params.dt
    dt_l = centered_time_diff(prev.left, nxt.left, dt)
    dt_r = centered_time_diff(prev.right, nxt.right, dt)
    j_prev, j_next = currents(prev), currents(nxt)
    dj0_dt = centered_time_diff(j_prev.j0, j_next.j0, dt)
    dj1_dt = centered_time_diff(j_prev.j1, j_next.j1, dt)
    return _madelung_residual_fields(cur, params, dt_l, dt_r, dj0_dt, dj1_dt)


def stress_energy_conservation_residual(traj: Trajectory, params: WalkParams
                                        ) -> tuple[float, float]:
    """L² residuals of ∂_μT^{μν} = 0 for ν = 0, 1 on a trajectory.

    Needs five consecutive cadence-1 snapshots: the tensor is evaluated on
    the middle three (centered time differences), then differenced in time
    once more.  Decreases under grid refinement at fixed mass.
    """
    window = centered_window(traj, 5)

    tensors = [
        stress_energy_spinor(window[i], params, prev=window[i - 1], nxt=window[i + 1])
        for i in (1, 2, 3)
    ]
    eps = params.spacing
    dt = params.dt
    res = []
    for t_time, t_space in (("t00", "t10"), ("t01", "t11")):
        d_time = centered_time_diff(getattr(tensors[0], t_time),
                                    getattr(tensors[2], t_time), dt)
        d_space = spectral_derivative(getattr(tensors[1], t_space))
        res.append(l2_norm(d_time + d_space, eps))
    return res[0], res[1]


@dataclass
class EnthalpyGradientCheck:
    """Two routes to ∂_xφ₋: direct and via the enthalpy-per-particle gradient."""

    direct: np.ndarray
    from_enthalpy: np.ndarray
    difference: np.ndarray
    sigma: np.ndarray
    valid: np.ndarray


def quantum_pressure_gradient(h: HydroField, ph: PhaseField, params: WalkParams,
                              mask_tol: float = 1e-10) -> EnthalpyGradientCheck:
    """∂_xφ₋ computed directly and as −σ·∂_x(w/mn)/√(1−(w/mn)²), σ = sign sinφ₋.

    The second route expresses the quantum-pressure gradient through the
    thermodynamic function w/n alone; it is singular where φ₋ ∈ {0, π}
    (w = ±mn), and those sites are masked.
    """
    m = params.mass
    direct = phase_gradient(ph.phi_minus)

    safe_n = np.where(h.valid_mask & (h.n > 0), h.n, 1.0)
    ratio = h.w / (m * safe_n)          # = cosφ₋ on valid sites
    one_minus = 1.0 - ratio ** 2
    valid = h.valid_mask & (np.abs(one_minus) > mask_tol)
    sigma = np.sign(np.sin(ph.phi_minus))

    dratio_dx = spectral_derivative(ratio)
    denom = np.sqrt(np.clip(one_minus, mask_tol, None))
    from_enthalpy = np.where(valid, -sigma * dratio_dx / denom, 0.0)
    direct_masked = np.where(valid, direct, 0.0)
    return EnthalpyGradientCheck(
        direct=direct_masked,
        from_enthalpy=from_enthalpy,
        difference=direct_masked - from_enthalpy,
        sigma=sigma,
        valid=valid,
    )


def current_identity_gap(state: SpinorField) -> float:
    """Max pointwise violation of (j⁰)² − (j¹)² = 4|Ψ_L|²|Ψ_R|²."""
    cur = currents(state)
    lhs = cur.j0 ** 2 - cur.j1 ** 2
    rhs = 4.0 * np.abs(state.left) ** 2 * np.abs(state.right) ** 2
    scale = max(float(np.max(np.abs(rhs))), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)
