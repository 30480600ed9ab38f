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
centered differences over consecutive snapshots.  Every phase rate, in
space or time, is the branch-free Im(ψ*∂ψ)/|ψ|² of one component, so no
phase is ever unwrapped: it holds wherever ψ is resolved, even where φ±
jump by nearly π between neighbouring sites after a shock.  A snapshot's
phase gradients ∂ₓφ± are taken once per PhaseField, on first read, and
every fluid diagnostic of that snapshot reads them there.  They come from
the snapshot's ∂ₓΨ (`walk.x_derivative`), which the PhaseField then keeps,
so `stress_energy_spinor` of the same snapshot reuses it.

The chart of a snapshot is shared while a caller holds it: `currents(s)`
and `phases(s)` return the same read-only CurrentField and PhaseField
for the same snapshot for as long as any caller keeps a reference, so a
diagnostic handed only the snapshot (`madelung_residuals`) reads the
caller's chart and its gradients instead of deriving them again.  The
snapshot holds its chart only weakly (`SpinorField.derived`): the chart
is freed with its last holder, and a snapshot kept for long keeps none
of its arrays alive.  Snapshots and shared fields are immutable, so a
shared chart cannot go stale.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from ._spectral import (
    _read_only,
    centered_time_diff,
    l2_norm,
    spectral_derivative,
)
from .walk import SpinorField, Trajectory, WalkParams, centered_window, x_derivative

PHASE_FLOOR = 1e-14        # component modulus below which phases are invalid
NULL_FRACTION = 1e-10      # n below this fraction of max(n) counts as null
MASK_TOL = 1e-10           # |1 − (w/mn)²| at or below this is masked by the enthalpy route


@dataclass(frozen=True)
class CurrentField:
    """Particle density j⁰ and flux j¹ per unit length, read-only."""

    j0: np.ndarray
    j1: np.ndarray


def _component_phase_rate(comp: np.ndarray, d_comp: np.ndarray) -> np.ndarray:
    # ∂(arg ψ) = Im(ψ* ∂ψ)/|ψ|², branch-free; 0 where |ψ| is below the floor.
    rho = np.abs(comp) ** 2
    safe = np.where(rho > PHASE_FLOOR ** 2, rho, 1.0)
    return np.where(rho > PHASE_FLOOR ** 2, np.imag(np.conj(comp) * d_comp) / safe, 0.0)


@dataclass(frozen=True)
class PhaseField:
    """Phase sum φ₊ = φ_L + φ_R and difference φ₋ = φ_L − φ_R.

    Component phases are principal values in (−π, π]; their sums and
    differences therefore live in (−2π, 2π], which keeps the half-angles
    φ±/2 principal and makes the spinor reconstruction exact.  `valid` is
    False where either component modulus is below the floor.  The arrays
    are read-only.  The gradients `d_plus` = ∂ₓφ₊ and `d_minus` = ∂ₓφ₋ are
    the sum and difference of the components' rates Im(ψ*∂ₓψ)/|ψ|², taken
    from `state`, the snapshot the field was built from, together on first
    read and then kept, read-only, for every diagnostic that reads them,
    with the snapshot's ∂ₓΨ (`walk.x_derivative`) they were taken from.  A
    field that never reads a gradient needs no `state`.
    """

    phi_plus: np.ndarray
    phi_minus: np.ndarray
    valid: np.ndarray
    state: SpinorField | None = field(default=None, repr=False, compare=False)

    @functools.cached_property
    def _gradients(self) -> tuple[SpinorField, np.ndarray, np.ndarray]:
        # ∂ₓΨ is kept with the gradients: while this field lives, a
        # stress_energy_spinor of the same snapshot reads it instead of
        # transforming the components again
        d_psi = x_derivative(self.state)
        rate_l = _component_phase_rate(self.state.left, d_psi.left)
        rate_r = _component_phase_rate(self.state.right, d_psi.right)
        return d_psi, _read_only(rate_l + rate_r), _read_only(rate_l - rate_r)

    @property
    def d_plus(self) -> np.ndarray:
        return self._gradients[1]

    @property
    def d_minus(self) -> np.ndarray:
        return self._gradients[2]


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


def _current_field(state: SpinorField) -> CurrentField:
    rho_l = np.abs(state.left) ** 2
    rho_r = np.abs(state.right) ** 2
    return CurrentField(j0=_read_only(rho_r + rho_l), j1=_read_only(rho_r - rho_l))


def _phase_field(state: SpinorField) -> PhaseField:
    phi_l = np.angle(state.left)
    phi_r = np.angle(state.right)
    valid = (np.abs(state.left) > PHASE_FLOOR) & (np.abs(state.right) > PHASE_FLOOR)
    return PhaseField(phi_plus=_read_only(phi_l + phi_r), phi_minus=_read_only(phi_l - phi_r),
                      valid=_read_only(valid), state=state)


def currents(state: SpinorField) -> CurrentField:
    """Bilinear current: j⁰ = |Ψ_R|² + |Ψ_L|², j¹ = |Ψ_R|² − |Ψ_L|².

    The same object for every caller while one holds it (`SpinorField.derived`).
    """
    return state.derived(_current_field)


def phases(state: SpinorField) -> PhaseField:
    """Phase sum/difference of the two components, flagged where degenerate.

    The same object, with its gradients once taken, for every caller while
    one holds it (`SpinorField.derived`).
    """
    return state.derived(_phase_field)


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


def stress_energy_spinor(state: SpinorField, params: WalkParams,
                         prev: SpinorField | None = None,
                         nxt: SpinorField | None = None,
                         dpsi_dt: tuple[np.ndarray, np.ndarray] | None = None,
                         ) -> TensorField:
    """Canonical stress-energy from spinor bilinears.

    t^{μν} = −Im(ψ̄γ^μ∂^νψ) with γ⁰ = σ₁, γ¹ = iσ₂.  The tensor is built
    without forced symmetrization, so t01 ≈ t10 is a genuine on-shell check
    rather than an identity.  Space derivatives are the snapshot's ∂ₓΨ
    (`walk.x_derivative`, shared with its PhaseField's gradients); the time
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

    d_psi = x_derivative(state)
    dx_l, dx_r = d_psi.left, d_psi.right

    # ψ̄γ⁰∂ψ = ψ†∂ψ, ψ̄γ¹∂ψ = −ψ†σ₃∂ψ; raise the derivative index: ∂⁰=∂_t, ∂¹=−∂_x.
    # ψ†∂ψ is the sum of the components' conj(Ψ)·∂Ψ, ψ†σ₃∂ψ their difference.
    conj_l, conj_r = np.conj(state.left), np.conj(state.right)
    time_l, time_r = conj_l * dt_l, conj_r * dt_r
    space_l, space_r = conj_l * dx_l, conj_r * dx_r
    return TensorField(t00=-np.imag(time_l + time_r), t01=+np.imag(space_l + space_r),
                       t10=+np.imag(time_l - time_r), t11=-np.imag(space_l - space_r))


def stress_energy_hydro(h: HydroField, ph: PhaseField, params: WalkParams) -> TensorField:
    """Hydrodynamic stress-energy w·u^μu^ν plus quantum-pressure gradients.

    T^{μν} = w u^μ u^ν + (n/2)(ε^{μα}u_α ∂^ν φ₋ + u^μ ε^{να} ∂_α φ₋), with
    the antisymmetric-symbol orientation fixed so that this form equals the
    spinor bilinear tensor on solutions (ε⁰¹u_1 = +u¹, ε¹⁰u_0 = +u⁰).
    The equation of motion eliminates ∂_tφ₋ = ∂_xφ₊ − 2(w/n)u¹ wherever
    the chart is valid, so only spatial data enters.  Components at
    invalid (null) sites are zeroed.
    """
    n, u0, u1, w = h.n, h.u0, h.u1, h.w
    dphi_minus_dx = ph.d_minus
    dphi_minus_dt = ph.d_plus - 2.0 * (w / np.where(h.valid_mask, n, 1.0)) * u1
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
    cos_minus = np.cos(ph.phi_minus)
    safe = np.where(np.abs(cos_minus) > 1e-12, cos_minus, 1.0)
    u1 = (ph.d_plus - dphi_minus_dt) / (2.0 * params.mass * safe)
    return np.where(np.abs(cos_minus) > 1e-12, u1, 0.0)


def _madelung_residual_fields(state: SpinorField, params: WalkParams,
                              dt_l: np.ndarray, dt_r: np.ndarray,
                              dj0_dt: np.ndarray, dj1_dt: np.ndarray,
                              ) -> tuple[float, float, float]:
    """Residual norms of the three equations of motion, given time derivatives."""
    eps = params.spacing
    m = params.mass
    cur = currents(state)
    ph = phases(state)
    n = hydro_vars(cur, ph, m).n

    rate_l = _component_phase_rate(state.left, dt_l)
    rate_r = _component_phase_rate(state.right, dt_r)
    dphi_plus_dt = rate_l + rate_r
    dphi_minus_dt = rate_l - rate_r
    dj0_dx = spectral_derivative(cur.j0)
    dj1_dx = spectral_derivative(cur.j1)

    cos_minus = np.cos(ph.phi_minus)
    res4 = dj1_dt + dj0_dx - 2.0 * m * n * np.sin(ph.phi_minus)
    res5_t = m * cos_minus * cur.j0 + 0.5 * n * (dphi_plus_dt - ph.d_minus)
    res5_x = m * cos_minus * cur.j1 + 0.5 * n * (dphi_minus_dt - ph.d_plus)
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
    valid: np.ndarray


def quantum_pressure_gradient(h: HydroField, ph: PhaseField,
                              params: WalkParams) -> EnthalpyGradientCheck:
    """∂_xφ₋ computed directly and as −σ·∂_x(w/mn)/√(1−(w/mn)²), σ = sign sinφ₋.

    The second route expresses the quantum-pressure gradient through the
    thermodynamic function w/n alone; it is singular where φ₋ ∈ {0, π}
    (w = ±mn), and those sites (within MASK_TOL) are masked.
    """
    m = params.mass
    ratio = h.w / (m * np.where(h.valid_mask, h.n, 1.0))  # = cosφ₋ on valid sites
    one_minus = 1.0 - ratio ** 2
    valid = h.valid_mask & (np.abs(one_minus) > MASK_TOL)

    dratio_dx = spectral_derivative(ratio)
    denom = np.sqrt(np.clip(one_minus, MASK_TOL, None))
    from_enthalpy = np.where(valid, -np.sign(np.sin(ph.phi_minus)) * dratio_dx / denom, 0.0)
    direct_masked = np.where(valid, ph.d_minus, 0.0)
    return EnthalpyGradientCheck(
        direct=direct_masked,
        from_enthalpy=from_enthalpy,
        difference=direct_masked - from_enthalpy,
        valid=valid,
    )


def current_identity_gap(state: SpinorField) -> float:
    """Max pointwise violation of (j⁰)² − (j¹)² = 4|Ψ_L|²|Ψ_R|²."""
    cur = currents(state)
    lhs = cur.j0 ** 2 - cur.j1 ** 2
    rhs = 4.0 * np.abs(state.left) ** 2 * np.abs(state.right) ** 2
    scale = max(float(np.max(np.abs(rhs))), 1.0)
    return float(np.max(np.abs(lhs - rhs)) / scale)
