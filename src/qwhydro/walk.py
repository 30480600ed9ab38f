"""Discrete-time quantum walk on a periodic line and its Dirac diagnostics.

One step applies the coin C = exp(−iθσ₁) at every site and then shifts the
coined left component one site left and the coined right component one site
right (periodic wraparound):

    Ψ_L(j+1, n−1) = cosθ·Ψ_L(j,n) − i sinθ·Ψ_R(j,n)
    Ψ_R(j+1, n+1) = −i sinθ·Ψ_L(j,n) + cosθ·Ψ_R(j,n)

With θ = εm, ε = 2π/N and t = jε, x = nε the walk converges to the free
Dirac equation iγ^μ∂_μψ = mψ in 1+1 dimensions (γ⁰ = σ₁, γ¹ = iσ₂,
ħ = c = 1), which dirac_residual measures directly.

Three routes advance a state: `step_walk` applies one step (the reference
kernel), `march` applies many steps of the same arithmetic in place, and
`propagate` jumps to any step exactly in Fourier space through the walk's
dispersion relation cos ω = cos θ·cos κ (Strauch, PRA 73, 054302 (2006)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._spectral import TWO_PI, centered_time_diff, grid, l2_norm, spectral_derivative, \
    wavenumbers


@dataclass(frozen=True)
class WalkParams:
    """Discretization contract: N sites on [0, 2π), spacing ε = dt = 2π/N and
    coin angle θ = εm, derived from (N, m)."""

    n_sites: int
    mass: float

    def __post_init__(self):
        if self.n_sites < 4 or self.n_sites % 2 != 0:
            raise ValueError(f"n_sites must be even and ≥ 4, got {self.n_sites}")
        if not self.mass > 0:
            raise ValueError(f"mass must be positive, got {self.mass}")

    @property
    def spacing(self) -> float:
        return TWO_PI / self.n_sites

    dt = spacing  # one step is one lattice spacing in time, t = jε

    @property
    def coin_angle(self) -> float:
        return self.spacing * self.mass

    @property
    def x(self) -> np.ndarray:
        return grid(self.n_sites)


def build_walk(n_sites: int, mass: float) -> WalkParams:
    """Validated walk parameters with ε = 2π/N, θ = εm and dt = ε."""
    return WalkParams(n_sites=n_sites, mass=float(mass))


def steps_until(t: float, params: WalkParams) -> int:
    """Whole steps in time t: the largest j with j·ε ≤ t, where a t that lies
    a rounding below j·ε, as a j·ε computed in floating point can, reaches j."""
    return int(np.floor(t / params.dt + 1e-9))


@dataclass
class SpinorField:
    """Two-component walk state (Ψ_L, Ψ_R) at discrete step j."""

    left: np.ndarray
    right: np.ndarray
    step_index: int = 0

    def __post_init__(self):
        self.left = np.asarray(self.left, dtype=np.complex128)
        self.right = np.asarray(self.right, dtype=np.complex128)
        if self.left.shape != self.right.shape:
            raise ValueError("left/right components must have equal length")

    def copy(self) -> "SpinorField":
        return SpinorField(self.left.copy(), self.right.copy(), self.step_index)

    @property
    def n_sites(self) -> int:
        return self.left.shape[0]


@dataclass
class Trajectory:
    """Snapshots of a walk run, every `cadence` steps (step 0 and final always kept)."""

    params: WalkParams
    snapshots: list[SpinorField] = field(default_factory=list)
    cadence: int = 1

    def __post_init__(self):
        steps = [s.step_index for s in self.snapshots]
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError("snapshots must be strictly increasing in step_index")


def _check_state(state: SpinorField, params: WalkParams):
    if state.n_sites != params.n_sites:
        raise ValueError(
            f"state length {state.n_sites} does not match lattice {params.n_sites}")


def coin_shift(left: np.ndarray, right: np.ndarray,
               theta: float) -> tuple[np.ndarray, np.ndarray]:
    """One update of the raw arrays: coin exp(−iθσ₁), then the shifts."""
    c = np.cos(theta)
    s = np.sin(theta)
    coined_left = c * left - 1j * s * right
    coined_right = -1j * s * left + c * right
    return np.roll(coined_left, -1), np.roll(coined_right, +1)


def step_walk(state: SpinorField, params: WalkParams) -> SpinorField:
    """Advance one step: coin exp(−iθσ₁), then the component-dependent shift."""
    _check_state(state, params)
    new_left, new_right = coin_shift(state.left, state.right, params.coin_angle)
    return SpinorField(left=new_left, right=new_right,
                       step_index=state.step_index + 1)


def march(state: SpinorField, params: WalkParams, n_steps: int) -> SpinorField:
    """Advance n_steps with `coin_shift`'s arithmetic, bit for bit.

    The same operations in the same order run into preallocated buffers,
    and the shifts are slice offsets of the last add instead of `np.roll`,
    so no array is allocated per step.  The input state is not modified.
    """
    _check_state(state, params)
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    c = np.cos(params.coin_angle)
    s = np.sin(params.coin_angle)
    i_s, minus_i_s = 1j * s, -1j * s  # the scalars coin_shift multiplies by
    left, right = state.left.copy(), state.right.copy()
    c_left, is_right, mis_left, c_right = (np.empty_like(left) for _ in range(4))
    for _ in range(n_steps):
        np.multiply(c, left, out=c_left)
        np.multiply(i_s, right, out=is_right)
        np.multiply(minus_i_s, left, out=mis_left)
        np.multiply(c, right, out=c_right)
        # new left[n] = coined left[n+1]; new right[n] = coined right[n−1]
        np.subtract(c_left[1:], is_right[1:], out=left[:-1])
        np.subtract(c_left[:1], is_right[:1], out=left[-1:])
        np.add(mis_left[:-1], c_right[:-1], out=right[1:])
        np.add(mis_left[-1:], c_right[-1:], out=right[:1])
    return SpinorField(left=left, right=right, step_index=state.step_index + n_steps)


def propagate(state: SpinorField, params: WalkParams, steps) -> list[SpinorField]:
    """The exact states `steps` steps after `state`, one per entry of `steps`.

    For the wavenumber κ = kε one step is the 2×2 matrix
    U(κ) = diag(e^{iκ}, e^{−iκ})·C with det U = 1, eigenvalues e^{±iω},
    cos ω = cos θ·cos κ and sin ω = hypot(sin θ, cos θ·sin κ) ≥ 0.  With
    the projector P = (U − e^{−iω}I)/(2i sin ω) onto the e^{iω} eigenvector,
    U^j = e^{ijω}P + e^{−ijω}(I − P).  P is built from its closed-form
    entries, which carry no cancellation, so small θ and θ = π stay
    accurate; where sin ω = 0, U = ±I and P = I/2 gives the same U^j.
    e^{ijω} is formed as e^{ijω_hi}·e^{ijω_lo} with j·ω_hi exact, so the
    gap to one stepped step stays at roundoff for every j below 2^27.  The
    input takes one FFT and each snapshot one inverse FFT; step 0 returns
    a copy of the input.
    """
    _check_state(state, params)
    steps = [int(j) for j in steps]
    if any(j < 0 for j in steps):
        raise ValueError("steps must be nonnegative")
    c = np.cos(params.coin_angle)
    s = np.sin(params.coin_angle)
    kappa = wavenumbers(params.n_sites) * params.spacing
    c_sin = c * np.sin(kappa)
    sin_w = np.hypot(s, c_sin)
    omega = np.arctan2(sin_w, c * np.cos(kappa))
    # where sin ω = 0, s = c sin κ = 0 too, and P comes out as I/2
    inv2 = 0.5 / np.where(sin_w == 0.0, 1.0, sin_w)
    # P = [[½ + c sin κ/(2 sin ω), −s e^{iκ}/(2 sin ω)],
    #      [−s e^{−iκ}/(2 sin ω), ½ − c sin κ/(2 sin ω)]]
    p_diag = c_sin * inv2
    p_off = -s * inv2
    # j·ω would round to an ulp of its own size, an error growing with j;
    # ω_hi keeps 26 significant bits, so j·ω_hi is exact for j < 2^27, and
    # the rounding of j·ω_lo is 2^-26 times smaller
    mantissa, exponent = np.frexp(omega)
    omega_hi = np.ldexp(np.trunc(np.ldexp(mantissa, 26)), exponent - 26)
    omega_lo = omega - omega_hi
    shift = np.exp(1j * kappa)
    left_k = np.fft.fft(state.left)
    right_k = np.fft.fft(state.right)
    up_left = (0.5 + p_diag) * left_k + p_off * shift * right_k
    up_right = p_off * np.conj(shift) * left_k + (0.5 - p_diag) * right_k
    down_left, down_right = left_k - up_left, right_k - up_right

    out = []
    for j in steps:
        if j == 0:
            out.append(state.copy())
            continue
        rise = np.exp(1j * (j * omega_hi)) * np.exp(1j * (j * omega_lo))
        fall = np.conj(rise)
        out.append(SpinorField(left=np.fft.ifft(rise * up_left + fall * down_left),
                               right=np.fft.ifft(rise * up_right + fall * down_right),
                               step_index=state.step_index + j))
    return out


def evolve(state: SpinorField, params: WalkParams, n_steps: int,
           cadence: int = 1) -> Trajectory:
    """Run n_steps of the walk, recording snapshots every `cadence` steps."""
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if cadence < 1:
        raise ValueError("cadence must be ≥ 1")
    snaps = [state.copy()]
    done = 0
    while done < n_steps:
        chunk = min(cadence, n_steps - done)
        snaps.append(march(snaps[-1], params, chunk))
        done += chunk
    return Trajectory(params=params, snapshots=snaps, cadence=cadence)


def centered_window(traj: Trajectory, width: int) -> list[SpinorField]:
    """The `width` snapshots (odd) centred on snapshot len // 2.

    Raises ValueError unless the trajectory holds that many and they are
    consecutive steps (cadence 1), as centered time differences need.
    """
    snaps = traj.snapshots
    if len(snaps) < width:
        raise ValueError(f"needs at least {width} snapshots, got {len(snaps)}")
    mid = len(snaps) // 2
    window = snaps[mid - width // 2: mid + width // 2 + 1]
    steps = [s.step_index for s in window]
    if any(b - a != 1 for a, b in zip(steps, steps[1:])):
        raise ValueError(f"needs {width} consecutive (cadence 1) snapshots, "
                         f"got steps {steps}")
    return window


def total_norm(state: SpinorField, params: WalkParams) -> float:
    """Discrete total probability ε·Σ(|Ψ_L|² + |Ψ_R|²)."""
    _check_state(state, params)
    return float(params.spacing * (np.abs(state.left) ** 2 + np.abs(state.right) ** 2).sum())


def dirac_rhs(state: SpinorField, params: WalkParams) -> tuple[np.ndarray, np.ndarray]:
    """Continuum time derivative implied by the Dirac equation.

    ∂_tΨ_L = ∂_xΨ_L − imΨ_R and ∂_tΨ_R = −∂_xΨ_R − imΨ_L, with spectral
    space derivatives.  Used to manufacture on-shell snapshots in tests and
    to supply analytic time derivatives where a trajectory is not available.
    """
    m = params.mass
    dl = spectral_derivative(state.left)
    dr = spectral_derivative(state.right)
    return dl - 1j * m * state.right, -dr - 1j * m * state.left


def _centered_x(f: np.ndarray, spacing: float) -> np.ndarray:
    # 2nd-order centered difference; f(n+1) sits at roll(f, -1).
    return (np.roll(f, -1) - np.roll(f, +1)) / (2.0 * spacing)


def dirac_residual(traj: Trajectory, params: WalkParams) -> float:
    """Discrete L² norm of iγ^μ∂_μψ − mψ on the middle snapshot.

    Uses centered 2nd-order differences in both t and x; needs three
    consecutive cadence-1 snapshots.  The norm decreases under grid
    refinement at fixed mass for smooth data.
    """
    prev, cur, nxt = centered_window(traj, 3)

    eps = params.spacing
    m = params.mass
    dt_l = centered_time_diff(prev.left, nxt.left, params.dt)
    dt_r = centered_time_diff(prev.right, nxt.right, params.dt)
    dx_l = _centered_x(cur.left, eps)
    dx_r = _centered_x(cur.right, eps)
    # Component rows of iγ^μ∂_μψ − mψ:
    res_l = 1j * dt_l - 1j * dx_l - m * cur.right
    res_r = 1j * dt_r + 1j * dx_r - m * cur.left
    return float(np.sqrt(l2_norm(res_l, eps) ** 2 + l2_norm(res_r, eps) ** 2))

