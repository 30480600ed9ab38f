"""Discrete-time quantum walk on a periodic line and its Dirac diagnostics.

One step applies the coin C = exp(−iθσ₁) at every site and then shifts the
coined left component one site left and the coined right component one site
right (periodic wraparound):

    Ψ_L(j+1, n−1) = cosθ·Ψ_L(j,n) − i sinθ·Ψ_R(j,n)
    Ψ_R(j+1, n+1) = −i sinθ·Ψ_L(j,n) + cosθ·Ψ_R(j,n)

With θ = εm, ε = 2π/N and t = jε, x = nε the walk converges to the free
Dirac equation iγ^μ∂_μψ = mψ in 1+1 dimensions (γ⁰ = σ₁, γ¹ = iσ₂,
ħ = c = 1), which dirac_residual measures directly.

Two routes advance a state: `step_walk` applies one step (the stepped
kernel, `coin_shift`), and `jumps` jumps to any step exactly in Fourier
space through the walk's dispersion relation cos ω = cos θ·cos κ (Strauch,
PRA 73, 054302 (2006)).  The tables that relation gives a lattice, the
projector onto the e^{iω} eigenvector and the frequency ω, are built once
per (N, m) by `_spectrum`, on first use, and kept read-only.  `jumps`
streams its snapshots: it makes each one as it is read, in buffers
allocated once per call and overwritten by the next, so a reader that
reduces each snapshot as it arrives holds a few states however many it
reads.  `evolve` takes its snapshots from `jumps` when they are
`_JUMP_STEPS` or more steps apart, so a snapshot's cost does not grow
with its stride, and steps them with `step_walk` when they are closer.

A snapshot's spectral x-derivatives ∂ₓΨ are taken by `x_derivative`, once
for every caller while one holds them.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from ._spectral import TABLE_CACHE, TWO_PI, _read_only, centered_time_diff, \
    fft, grid, ifft, l2_norm, spectral_derivative, wavenumbers


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


def check_coin(params: WalkParams) -> None:
    """Raise ValueError unless θ is finite and sin θ is 0 or normal, as
    `jumps` needs: a subnormal sin θ overflows 1/(2 sin ω) at κ = 0 and every
    jumped state turns nan (θ = 0, where a smaller mass rounds, walks freely)."""
    theta, tiny = params.coin_angle, np.finfo(float).tiny
    if not math.isfinite(theta) or 0.0 < abs(math.sin(theta)) < tiny:
        raise ValueError(f"'mass' = {params.mass:g} and 'n_sites' = {params.n_sites} give "
                         f"the coin angle θ = 2π·mass/n_sites = {theta:g}, whose sine is "
                         f"not finite or is subnormal (below {tiny:g})")


# `jumps` is exact (its one-step gap stays at roundoff) below this step.
EXACT_STEPS = 2 ** 27

# `evolve` jumps strides of at least this many steps.  Timed against one
# `step_walk` on the same lattice (2-CPU Xeon, numpy 2.4, one thread, best
# of 9, the multimode shock at θ = π/4), a `jumps` call's first snapshot
# costs 3 steps at 64 sites, 5 at 512, 18-19 at 4096, 27 at 8192, 39-45 at
# 16384 and 32-34 at 32768; each further snapshot of the call, streamed
# through the call's buffers, 1.8, 2.8, 9.5-10, 14, 22-23 and 16-17 (270-310
# µs at 4096 sites and 600-625 µs at 8192, where a new array per product
# took 310-320 and 770-810).  32 is the crossover at 8192 sites; through
# `evolve` a lone stride crosses over at about 5 steps at 512 sites, which
# steps strides of 5-31 at up to 10 times a jump's cost, and at 47-51 at
# 16384, which jumps strides of 32-50 at up to 1.6 times their stepping.
# One value serves today's callers, whose hops each sit well on their side
# of it: perfbench's `fluid_oracles` hops 1 step, stepped, and 77-79 steps
# at 8192 sites, jumped.
_JUMP_STEPS = 32


def steps_until(t: float, params: WalkParams) -> int:
    """Whole steps in time t: the largest j with j·ε ≤ t, where a t that lies
    a rounding below j·ε, as a j·ε computed in floating point can, reaches j."""
    return int(np.floor(t / params.dt + 1e-9))


@dataclass(frozen=True, init=False)
class SpinorField:
    """Two-component walk state (Ψ_L, Ψ_R) at discrete step j.

    A snapshot is immutable, so whatever is derived from it stays true of
    it: its components are read-only views of the arrays passed in (or of
    their complex128 copies).  The caller's own arrays stay writable, and a
    caller must not write into one it has handed to a snapshot.
    """

    left: np.ndarray
    right: np.ndarray
    step_index: int = 0

    def __init__(self, left, right, step_index: int = 0):
        left = np.asarray(left, dtype=np.complex128).view()
        right = np.asarray(right, dtype=np.complex128).view()
        if left.shape != right.shape:
            raise ValueError("left/right components must have equal length")
        left.setflags(write=False)
        right.setflags(write=False)
        # the frozen fields are set once, here, as the generated __init__ would
        self.__dict__.update(left=left, right=right, step_index=step_index)

    def copy(self) -> "SpinorField":
        return SpinorField(self.left.copy(), self.right.copy(), self.step_index)

    def derived(self, build):
        """`build(self)`, one object for every caller while any caller holds it.

        The snapshot keeps only a weak reference to the result, by builder,
        so the result is freed with its last holder (a snapshot kept for long
        keeps no derived arrays alive) and built afresh by the next call.
        """
        refs = self.__dict__.setdefault("_derived", {})
        ref = refs.get(build)
        value = None if ref is None else ref()
        if value is None:
            value = build(self)
            refs[build] = weakref.ref(value)
        return value

    @property
    def n_sites(self) -> int:
        return self.left.shape[0]


@dataclass
class Trajectory:
    """Snapshots of a walk run.  `cadence` is the stride its caller recorded
    them at (`evolve` keeps every `cadence`-th step); nothing here reads it."""

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
    """One update of the raw arrays: coin exp(−iθσ₁), then the shifts, each product
    written straight into its shifted slot (the bits `np.roll` would give)."""
    c = np.cos(theta)
    s = np.sin(theta)
    new_left, new_right = np.empty_like(left, complex), np.empty_like(right, complex)
    # new left[n] = c·left[n+1] − is·right[n+1], new right[n] = −is·left[n−1] + c·right[n−1]
    np.multiply(c, left[1:], out=new_left[:-1])
    np.multiply(c, left[:1], out=new_left[-1:])
    np.multiply(-1j * s, left[:-1], out=new_right[1:])
    np.multiply(-1j * s, left[-1:], out=new_right[:1])
    product = 1j * s * right
    np.subtract(new_left[:-1], product[1:], out=new_left[:-1])
    np.subtract(new_left[-1:], product[:1], out=new_left[-1:])
    np.multiply(c, right, out=product)
    np.add(new_right[1:], product[:-1], out=new_right[1:])
    np.add(new_right[:1], product[-1:], out=new_right[:1])
    return new_left, new_right


def step_walk(state: SpinorField, params: WalkParams) -> SpinorField:
    """Advance one step: coin exp(−iθσ₁), then the component-dependent shift."""
    _check_state(state, params)
    new_left, new_right = coin_shift(state.left, state.right, params.coin_angle)
    return SpinorField(left=new_left, right=new_right,
                       step_index=state.step_index + 1)


class _Spectrum(NamedTuple):
    """One lattice's step operator in Fourier space (see `jumps`)."""

    p_ll: np.ndarray        # ½ + c sin κ/(2 sin ω), in FFT order
    p_lr: np.ndarray        # −s e^{iκ}/(2 sin ω)
    p_rl: np.ndarray        # −s e^{−iκ}/(2 sin ω)
    p_rr: np.ndarray        # ½ − c sin κ/(2 sin ω)
    omega_hi: np.ndarray    # ω's leading 26 bits on the first N/2 + 1 modes
    omega_lo: np.ndarray    # ω − ω_hi on the same modes


@functools.lru_cache(maxsize=TABLE_CACHE)
def _spectrum(n_sites: int, mass: float) -> _Spectrum:
    """The projector P's entries and the split frequency ω of the walk on
    `build_walk(n_sites, mass)`, built on first use and kept read-only; a
    coin that `check_coin` refuses raises its ValueError.

    ω is even in κ, so only its values on the first N/2 + 1 modes in FFT
    order are kept (0 ≤ κ < π and the Nyquist mode, `_spectral.even_table`
    restores the rest); P's entries are not even and are kept on all N.
    """
    params = build_walk(n_sites, mass)
    check_coin(params)
    c = np.cos(params.coin_angle)
    s = np.sin(params.coin_angle)
    kappa = wavenumbers(n_sites) * params.spacing
    c_sin = c * np.sin(kappa)
    sin_w = np.hypot(s, c_sin)
    omega = np.arctan2(sin_w, c * np.cos(kappa))[:n_sites // 2 + 1]
    # where sin ω = 0, s = c sin κ = 0 too, and P comes out as I/2
    inv2 = 0.5 / np.where(sin_w == 0.0, 1.0, sin_w)
    p_diag = c_sin * inv2
    p_off = -s * inv2
    shift = np.exp(1j * kappa)
    # j·ω would round to an ulp of its own size, an error growing with j;
    # ω_hi keeps 26 significant bits, so j·ω_hi is exact for j < 2^27, and
    # the rounding of j·ω_lo is 2^-26 times smaller
    mantissa, exponent = np.frexp(omega)
    omega_hi = np.ldexp(np.trunc(np.ldexp(mantissa, 26)), exponent - 26)
    tables = (0.5 + p_diag, p_off * shift, p_off * np.conj(shift), 0.5 - p_diag,
              omega_hi, omega - omega_hi)
    return _Spectrum(*(_read_only(table) for table in tables))


def jumps(state: SpinorField, params: WalkParams, steps) -> Iterator[SpinorField]:
    """The exact states `steps` steps after `state`, one per entry of `steps`,
    each made as the iterator is read.  The steps and the coin are checked
    at the call: a negative step, or a coin that `check_coin` refuses, raises
    ValueError before any snapshot is made.

    For the wavenumber κ = kε one step is the 2×2 matrix
    U(κ) = diag(e^{iκ}, e^{−iκ})·C with det U = 1, eigenvalues e^{±iω},
    cos ω = cos θ·cos κ and sin ω = hypot(sin θ, cos θ·sin κ) ≥ 0.  With
    the projector P = (U − e^{−iω}I)/(2i sin ω) onto the e^{iω} eigenvector,
    U^j = e^{ijω}P + e^{−ijω}(I − P).  P is built from its closed-form
    entries, which carry no cancellation, so small θ and θ = π stay
    accurate; where sin ω = 0, U = ±I and P = I/2 gives the same U^j.
    e^{ijω} is formed as e^{ijω_hi}·e^{ijω_lo} with j·ω_hi exact, so the
    gap to one stepped step stays at roundoff for every j below
    `EXACT_STEPS` = 2^27; beyond it the gap grows (6e-8 at 2^30).

    P's entries and ω_hi, ω_lo come from `_spectrum`, built once per
    lattice.  ω is even in κ, so each snapshot exponentiates only the
    first N/2 + 1 modes and mirrors them onto the rest: a snapshot costs
    two complex exponentials of N/2 + 1 values and two inverse FFTs, the
    input two FFTs.  Every snapshot is formed in buffers allocated once per
    call and overwritten by the next; only the inverse FFTs' outputs, new
    arrays, become its components, so no two snapshots share memory and a
    reader that keeps none holds a few states, however many it reads.
    Step 0 yields a copy of the input.
    """
    _check_state(state, params)
    steps = [int(j) for j in steps]
    if any(j < 0 for j in steps):
        raise ValueError("steps must be nonnegative")
    return _jumped(state, _spectrum(params.n_sites, params.mass), steps)


def _jumped(state: SpinorField, spec: _Spectrum, steps: list[int]) -> Iterator[SpinorField]:
    left_k = fft(state.left)
    right_k = fft(state.right)
    up_left = spec.p_ll * left_k + spec.p_lr * right_k
    up_right = spec.p_rl * left_k + spec.p_rr * right_k
    projected = ((up_left, left_k - up_left), (up_right, right_k - up_right))

    half = spec.omega_hi.shape[0]
    angle = np.empty(half)
    phase = np.empty(half, complex)
    rise_lo = np.empty(half, complex)
    rise, fall, rising, falling = (np.empty(state.n_sites, complex) for _ in range(4))
    rise_hi = rise[:half]
    for j in steps:
        if j == 0:
            yield state.copy()
            continue
        for omega, rise_half in ((spec.omega_hi, rise_hi), (spec.omega_lo, rise_lo)):
            np.multiply(j, omega, out=angle)
            np.multiply(1j, angle, out=phase)
            np.exp(phase, out=rise_half)
        np.multiply(rise_hi, rise_lo, out=rise_hi)
        # the modes −k take the values of k, as `_spectral.even_table` lays them
        rise[half:] = rise[(state.n_sites - 1) // 2:0:-1]
        np.conj(rise, out=fall)
        components = []
        for up, down in projected:
            np.multiply(rise, up, out=rising)
            np.multiply(fall, down, out=falling)
            components.append(ifft(np.add(rising, falling, out=rising)))
        yield SpinorField(*components, step_index=state.step_index + j)


def evolve(state: SpinorField, params: WalkParams, n_steps: int,
           cadence: int = 1) -> Trajectory:
    """The walk n_steps on from `state`, keeping a copy of the input, every
    `cadence`-th step and the last.  The input is not modified.

    When the kept snapshots are at least `_JUMP_STEPS` steps apart (cadence
    and n_steps both that large) they are jumped to by one `jumps` call,
    so their cost does not grow with the stride; a jumped snapshot is exact
    only below `EXACT_STEPS` steps after the input.  Closer snapshots are
    stepped with `step_walk`.
    """
    if n_steps < 0:
        raise ValueError("n_steps must be nonnegative")
    if cadence < 1:
        raise ValueError("cadence must be ≥ 1")
    if min(cadence, n_steps) >= _JUMP_STEPS:
        snaps = list(jumps(state, params, [*range(0, n_steps, cadence), n_steps]))
    else:
        snaps = [state.copy()]
        cur = snaps[0]
        for j in range(1, n_steps + 1):
            cur = step_walk(cur, params)
            if j % cadence == 0 or j == n_steps:
                snaps.append(cur)
    return Trajectory(params=params, snapshots=snaps, cadence=cadence)


def centered_window(traj: Trajectory, width: int) -> list[SpinorField]:
    """The `width` snapshots (odd and positive) centred on snapshot len // 2.

    Raises ValueError unless the trajectory holds that many and they are
    consecutive steps (cadence 1), as centered time differences need.
    """
    if width < 1 or width % 2 == 0:
        raise ValueError(f"width must be odd and positive, got {width}")
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


def _x_derivative(state: SpinorField) -> SpinorField:
    return SpinorField(spectral_derivative(state.left), spectral_derivative(state.right),
                       state.step_index)


def x_derivative(state: SpinorField) -> SpinorField:
    """∂ₓΨ, the spectral x-derivatives of both components, as a read-only
    field at the same step: the same object for every caller while one
    holds it (`SpinorField.derived`), so one transform pair per component
    serves them all."""
    return state.derived(_x_derivative)


def probability(state: SpinorField, params: WalkParams) -> tuple[np.ndarray, float]:
    """The density |Ψ_L|² + |Ψ_R|² at every site, the bits of `hydro.currents`'
    j⁰, and its total ε·Σ(|Ψ_L|² + |Ψ_R|²), the bits of `total_norm`."""
    _check_state(state, params)
    density = np.abs(state.left) ** 2 + np.abs(state.right) ** 2
    return density, float(params.spacing * density.sum())


def total_norm(state: SpinorField, params: WalkParams) -> float:
    """Discrete total probability ε·Σ(|Ψ_L|² + |Ψ_R|²)."""
    return probability(state, params)[1]


def dirac_rhs(state: SpinorField, params: WalkParams) -> tuple[np.ndarray, np.ndarray]:
    """Continuum time derivative implied by the Dirac equation.

    ∂_tΨ_L = ∂_xΨ_L − imΨ_R and ∂_tΨ_R = −∂_xΨ_R − imΨ_L, with spectral
    space derivatives.  Used to manufacture on-shell snapshots in tests and
    to supply analytic time derivatives where a trajectory is not available.
    """
    m = params.mass
    d_psi = x_derivative(state)
    return d_psi.left - 1j * m * state.right, -d_psi.right - 1j * m * state.left


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

