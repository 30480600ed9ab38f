"""Galilean limit of the walk's Dirac field and its order-by-order checks.

With the rest phase e^{−imc²t} stripped, the two spinor components collapse
onto a single Schrödinger wavefunction; their residual mismatch is a power
series in ν ~ p/(mc).  Writing the stripped left component as r·e^{iφ},
the component relation reads

    Ψ̄_R = Ψ̄_L + (1/imc)·∂_xΨ̄_L − (1/2m²c²)·∂_xxΨ̄_L + O(ν³),

and the induced phase/modulus mismatches and fluid variables follow as
closed second-order expressions in (r, φ) implemented below.  Every
formula is checked two ways in the tests: symbolically (transcription) and
against exactly constructed spinors (order-of-accuracy sweeps, with the
neglected terms falling off as the cube of 1/c).

c is explicit in the expansion formulas of this module only; the lattice
walk, and every comparison against it, lives in c = 1 units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from ._spectral import TWO_PI, fft, l2_norm, spectral_derivative, wavenumbers
from .schrodinger import Wavefunction, schrodinger_hydro
from .walk import SpinorField, Trajectory, WalkParams, centered_window

# Modulus r at or below which the 1/r terms of the expansions are set to 0.
_R_FLOOR = 1e-12


@dataclass
class NRFields:
    """Modulus r and phase φ of the stripped left component; φ may take any
    branch, since only e^{iφ} enters its gradient."""

    r: np.ndarray
    phi: np.ndarray
    mass: float
    light_speed: float = 1.0

    def __post_init__(self):
        if np.any(self.r < 0):
            raise ValueError("modulus must be nonnegative")


def band_limit_fraction(values: np.ndarray) -> float:
    """Spectral energy fraction in the top third of the band (smoothness check)."""
    spec = np.abs(fft(values)) ** 2
    n = len(spec)
    k = np.abs(wavenumbers(n))
    top = spec[k > n / 3.0].sum()
    total = spec.sum()
    return float(top / total) if total > 0 else 0.0


def strip_rest_phase(state: SpinorField, mass: float, t: float) -> SpinorField:
    """Remove the rest-energy rotation of a walk state: multiply both components
    by e^{+imt}, the e^{+imc²t} of the expansions in the walk's c = 1 units."""
    factor = np.exp(1j * mass * t)
    return replace(state, left=state.left * factor, right=state.right * factor)


def component_relation_residual(psi_bar: SpinorField, fields: NRFields,
                                order: str = "second") -> tuple[float, float]:
    """L² residuals of the component relation at the requested order.

    order "first" keeps the ∂_x term only; "second" includes the ∂_xx term.
    Returns the norms of (Ψ̄_R − expansion(Ψ̄_L), Ψ̄_L − expansion(Ψ̄_R)).
    """
    if order not in ("first", "second"):
        raise ValueError("order must be 'first' or 'second'")
    if band_limit_fraction(psi_bar.left) > 1e-6:
        raise ValueError("field is not band-limited enough for spectral derivatives")
    eps = TWO_PI / psi_bar.n_sites
    res_r = psi_bar.right - _expansion(psi_bar.left, +1.0, fields, order)
    res_l = psi_bar.left - _expansion(psi_bar.right, -1.0, fields, order)
    return l2_norm(res_r, eps), l2_norm(res_l, eps)


def _expansion(comp: np.ndarray, sign: float, fields: NRFields, order: str) -> np.ndarray:
    """comp ± (1/imc)·∂_x comp, less (1/2m²c²)·∂_xx comp at second order: the
    component relation's expansion of one component, + for Ψ̄_R from Ψ̄_L."""
    m, c = fields.mass, fields.light_speed
    out = comp + sign * spectral_derivative(comp) / (1j * m * c)
    if order == "second":
        out -= spectral_derivative(comp, order=2) / (2.0 * m * m * c * c)
    return out


def _derivatives(fields: NRFields):
    r, phi = fields.r, fields.phi
    r_x = spectral_derivative(r)
    r_xx = spectral_derivative(r, order=2)
    u = np.exp(1j * phi)
    phi_x = np.imag(np.conj(u) * spectral_derivative(u))  # |u| = 1: no floor, no unwrap
    phi_xx = spectral_derivative(phi_x)
    return r_x, r_xx, phi_x, phi_xx


def deltas_first_order(fields: NRFields) -> tuple[np.ndarray, np.ndarray]:
    """First-order phase and modulus mismatch between the two components.

    δφ = −(1/mc)·(∂_x r)/r and δr/r = (1/mc)·∂_xφ.
    """
    m, c = fields.mass, fields.light_speed
    r_x, _, phi_x, _ = _derivatives(fields)
    safe_r = np.where(fields.r > _R_FLOOR, fields.r, 1.0)
    delta_phi = np.where(fields.r > _R_FLOOR, -r_x / (m * c * safe_r), 0.0)
    delta_r_over_r = phi_x / (m * c)
    return delta_phi, delta_r_over_r


def deltas_second_order(fields: NRFields) -> tuple[np.ndarray, np.ndarray]:
    """Second-order mismatches.

    δφ   = −(1/mc)·r_x/r − (1/2m²c²)·φ_xx
    δr/r = (1/mc)·φ_x + (1/2m²c²)·φ_x² + (1/2m²c²r²)·(r_x² − r·r_xx)

    The φ_x² term carries 1/(2m²c²): that weight is forced by consistency
    with the second-order density n = 2r²(1 + δr/r) and is what the
    order-of-accuracy sweeps confirm (the neglected remainder falls as ν³).
    """
    m, c = fields.mass, fields.light_speed
    r_x, r_xx, phi_x, phi_xx = _derivatives(fields)
    mc = m * c
    m2c2 = m * m * c * c
    safe_r = np.where(fields.r > _R_FLOOR, fields.r, 1.0)
    good = fields.r > _R_FLOOR
    delta_phi = np.where(good, -r_x / (mc * safe_r) - phi_xx / (2.0 * m2c2), 0.0)
    delta_r_over_r = np.where(
        good,
        phi_x / mc + phi_x ** 2 / (2.0 * m2c2)
        + (r_x ** 2 - fields.r * r_xx) / (2.0 * m2c2 * safe_r ** 2),
        0.0,
    )
    return delta_phi, delta_r_over_r


def hydro_second_order(fields: NRFields
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Fluid variables (n, u⁰, u¹, w) of the stripped field at second order.

    n  = 2r² + (2r²/mc)·φ_x + (1/m²c²)(r²φ_x² + r_x² − r·r_xx)
    u⁰ = 1 + φ_x²/(2m²c²)
    u¹ = φ_x/(mc) + (r_x² − r·r_xx)/(2m²c²r²)
    w  = 2mc²r² + 2c·r²φ_x + (r²φ_x² − r·r_xx)/m
    """
    m, c = fields.mass, fields.light_speed
    r = fields.r
    r_x, r_xx, phi_x, _ = _derivatives(fields)
    mc = m * c
    m2c2 = m * m * c * c
    safe_r2 = np.where(r > _R_FLOOR, r, 1.0) ** 2
    good = r > _R_FLOOR

    n = 2.0 * r ** 2 + (2.0 * r ** 2 / mc) * phi_x + (
        r ** 2 * phi_x ** 2 + r_x ** 2 - r * r_xx) / m2c2
    u0 = 1.0 + phi_x ** 2 / (2.0 * m2c2)
    u1 = np.where(good,
                  phi_x / mc + (r_x ** 2 - r * r_xx) / (2.0 * m2c2 * safe_r2),
                  0.0)
    w = 2.0 * m * c * c * r ** 2 + 2.0 * c * r ** 2 * phi_x + (
        r ** 2 * phi_x ** 2 - r * r_xx) / m
    return n, u0, u1, w


def build_second_order_spinor(fields: NRFields) -> SpinorField:
    """Exact spinor whose right component is the second-order expansion.

    Ψ̄_L = r·e^{iφ} and Ψ̄_R built term-by-term from the component relation;
    the mismatches this pair shows then differ from the closed-form
    deltas only at O(ν³), which the order sweeps exploit.
    """
    left = fields.r * np.exp(1j * fields.phi)
    return SpinorField(left=left, right=_expansion(left, +1.0, fields, "second"))


def klein_gordon_residual(traj: Trajectory, params: WalkParams) -> tuple[float, float]:
    """Discrete residual of ∂_tt ψ − ∂_xx ψ + m²ψ per component.

    Centered second differences in both t and x on the middle of three
    consecutive snapshots; decreases under grid refinement at fixed mass.
    """
    prev, cur, nxt = centered_window(traj, 3)
    eps = params.spacing
    m = params.mass

    def component_residual(fp, fc, fn):
        dtt = (fn - 2.0 * fc + fp) / (params.dt ** 2)
        dxx = (np.roll(fc, -1) - 2.0 * fc + np.roll(fc, +1)) / (eps ** 2)
        return l2_norm(dtt - dxx + m ** 2 * fc, eps)

    return (component_residual(prev.left, cur.left, nxt.left),
            component_residual(prev.right, cur.right, nxt.right))


# The least ‖v_ref‖ a relative velocity norm divides by.
_VELOCITY_FLOOR = 1e-12


def check_velocity_norms(n_sites: int, mass: float, density: float, names: str):
    """Raise ValueError naming `names` unless `nonrel_compare`'s relative
    velocity norms stay within the floats for every state it can meet, the
    wavefunctions it compares having a mean |ψ|² of at most `density`.

    Their Fourier coefficients then have Σ|c_k| ≤ √(n·density), so
    |∂ψ| ≤ (n/2)·√(n·density) for n = n_sites.  `schrodinger_hydro` keeps
    only sites with |ψ| > 1e-10, where |v| ≤ |∂ψ|/(m|ψ|).  The L² norm of a
    velocity difference is then below 1e10·n²·√density/m, and over
    `_VELOCITY_FLOOR` the relative norm below 1e22·n²·√density/m.
    """
    bound = 1e10 * n_sites * n_sites * math.sqrt(density) / mass / _VELOCITY_FLOOR
    if not math.isfinite(bound):
        raise ValueError(f"{names} give the walk's relative velocity error a bound "
                         f"1e22·n_sites²·√(mean |ψ|²)/mass out of the floats (n_sites = "
                         f"{n_sites}, mass = {mass:g}, mean |ψ|² ≤ {density:g})")


def _scaled_norm(values: np.ndarray) -> tuple[float, int]:
    """The L² norm of `values` as (f, k), norm = f·2^k: `np.linalg.norm`
    itself with k = 0 where its squares stay in the floats, else the norm of
    the values scaled down by 2^k, k the binary exponent of their largest
    modulus, which is exact.  Call it with overflow ignored."""
    norm = float(np.linalg.norm(values))
    if math.isfinite(norm) or not np.all(np.isfinite(values)):
        return norm, 0
    k = math.frexp(float(np.max(np.abs(values))))[1]
    return float(np.linalg.norm(np.ldexp(values, -k))), k


def _relative_l2(diff: np.ndarray, ref: np.ndarray, floor: float = 0.0) -> float:
    """‖diff‖ / max(‖ref‖, floor) from the `_scaled_norm`s, without
    overflow in either norm."""
    with np.errstate(over="ignore"):
        (f_diff, k_diff), (f_ref, k_ref) = _scaled_norm(diff), _scaled_norm(ref)
    if k_ref == 0:  # a scaled ‖ref‖ overflowed unscaled, above any floor in use
        f_ref = max(f_ref, floor)
    return float(np.ldexp(np.float64(f_diff) / f_ref, k_diff - k_ref))


def nonrel_compare(traj: Trajectory, oracle, mass: float) -> list[dict]:
    """Error report of the walk against a Schrödinger oracle.

    For each snapshot, strips the rest phase, forms the comparison
    wavefunction ψ̄ = (Ψ̄_L+Ψ̄_R)/2, and reports relative L² and max errors
    of density 2|ψ̄|² and velocity against the oracle's Madelung variables.
    `oracle` maps a time to a Wavefunction on the same grid.
    """
    records = []
    for snap in traj.snapshots:
        t = snap.step_index * traj.params.dt
        stripped = strip_rest_phase(snap, mass, t)
        psi = 0.5 * (stripped.left + stripped.right)
        reference = oracle(t)
        if reference.n_sites != snap.n_sites:
            raise ValueError("oracle grid does not match trajectory grid")
        n_ref, v_ref = schrodinger_hydro(reference, mass)
        n_walk, v_walk = schrodinger_hydro(Wavefunction(values=np.sqrt(2.0) * psi), mass)
        v_scale = max(float(np.max(np.abs(v_ref))), _VELOCITY_FLOOR)
        records.append({
            "time": float(t),
            "density_l2": _relative_l2(n_walk - n_ref, n_ref),
            "density_max": float(np.max(np.abs(n_walk - n_ref)) / np.max(n_ref)),
            "velocity_l2": _relative_l2(v_walk - v_ref, v_ref, _VELOCITY_FLOOR),
            "velocity_max": float(np.max(np.abs(v_walk - v_ref)) / v_scale),
        })
    return records
