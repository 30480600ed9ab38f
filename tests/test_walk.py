import dataclasses

import numpy as np
import pytest

from qwhydro import initial as ini
from qwhydro import walk as wk
from qwhydro._spectral import fft_calls
from qwhydro.hydro import currents

from conftest import make_smooth_spinor


def test_build_walk_reference_angles():
    p = wk.build_walk(4096, 512.0)
    assert p.coin_angle == pytest.approx(np.pi / 4, rel=1e-14)
    assert p.spacing == pytest.approx(1.5339808e-3, rel=1e-7)
    assert p.dt == p.spacing
    p2 = wk.build_walk(4096, 25.6)
    assert p2.coin_angle == pytest.approx(np.pi / 80, rel=1e-13)


@pytest.mark.parametrize("n, m", [(4096, 512.0), (4096, 25.6), (64, 16.0), (6, 3.0)])
def test_walk_params_store_only_lattice_and_mass(n, m):
    p = wk.build_walk(n, m)
    assert [f.name for f in dataclasses.fields(p)] == ["n_sites", "mass"]
    # the derived values are the expressions build_walk used to store
    eps = 2.0 * np.pi / n
    assert p.spacing == eps and p.dt == eps
    assert p.coin_angle == eps * m
    with pytest.raises(dataclasses.FrozenInstanceError):
        p.mass = 1.0


@pytest.mark.parametrize("n, m", [(4095, 16.0), (2, 16.0), (4, 0.0), (64, -1.0)])
def test_build_walk_rejects_bad_input(n, m):
    with pytest.raises(ValueError):
        wk.build_walk(n, m)


def test_zero_coin_is_pure_shift(rng):
    n = 32
    left = rng.normal(size=n) + 1j * rng.normal(size=n)
    right = rng.normal(size=n) + 1j * rng.normal(size=n)
    new_left, new_right = wk.coin_shift(left, right, 0.0)
    assert np.array_equal(new_left, np.roll(left, -1))
    assert np.array_equal(new_right, np.roll(right, +1))


def test_zero_coin_double_step_translates_exactly(rng):
    n = 64
    left = rng.normal(size=n) + 1j * rng.normal(size=n)
    right = rng.normal(size=n) + 1j * rng.normal(size=n)
    l2, r2 = wk.coin_shift(*wk.coin_shift(left, right, 0.0), 0.0)
    assert np.array_equal(l2, np.roll(left, -2))
    assert np.array_equal(r2, np.roll(right, +2))


def test_half_pi_coin_swaps_components():
    # θ = π/2 makes the coin −iσ₁: a left excitation turns into −i times a
    # right-mover, landing one site to the right.
    n = 16
    p = wk.build_walk(n, n / 4.0)
    assert p.coin_angle == pytest.approx(np.pi / 2)
    left = np.zeros(n, dtype=complex)
    left[5] = 1.0
    state = wk.SpinorField(left=left, right=np.zeros(n, dtype=complex))
    out = wk.step_walk(state, p)
    assert np.max(np.abs(out.left)) < 1e-15
    expected = np.zeros(n, dtype=complex)
    expected[6] = -1j
    np.testing.assert_allclose(out.right, expected, atol=1e-15)


def test_single_mode_stays_single_mode():
    p = wk.build_walk(256, 16.0)
    state = ini.plane_wave(p, 3.0)
    out = wk.step_walk(state, p)
    for comp in (out.left, out.right):
        spec = np.abs(np.fft.fft(comp))
        dominant = spec.max()
        spec[np.argmax(spec)] = 0.0
        assert spec.max() < 1e-12 * dominant
        # uniform modulus per component
        assert np.ptp(np.abs(comp)) < 1e-12


def test_locality_of_one_step(rng):
    n = 64
    p = wk.build_walk(n, 4.0)
    base = make_smooth_spinor(rng, n)
    left, right = base.left.copy(), base.right.copy()
    left[10] += 0.5
    right[10] += 0.25j
    bumped = wk.SpinorField(left, right)
    a = wk.step_walk(base, p)
    b = wk.step_walk(bumped, p)
    diff = np.abs(a.left - b.left) + np.abs(a.right - b.right)
    touched = set(np.nonzero(diff > 1e-15)[0].tolist())
    assert touched == {9, 11}


def test_step_rejects_length_mismatch():
    p = wk.build_walk(64, 4.0)
    state = wk.SpinorField(np.zeros(32, complex), np.zeros(32, complex))
    with pytest.raises(ValueError):
        wk.step_walk(state, p)


def test_total_norm_plane_wave_and_zero():
    p = wk.build_walk(512, 64.0)
    assert wk.total_norm(ini.plane_wave(p, 0.0), p) == pytest.approx(2 * np.pi, rel=1e-13)
    zero = wk.SpinorField(np.zeros(512, complex), np.zeros(512, complex))
    assert wk.total_norm(zero, p) == 0.0


def test_norm_conserved_over_thousand_steps():
    p = wk.build_walk(512, 64.0)
    spec = ini.multimode_benchmark(q_max=6.4, mass=64.0)
    state = ini.phase_modulated_state(p, spec)
    n0 = wk.total_norm(state, p)
    cur = state
    for _ in range(1000):
        cur = wk.step_walk(cur, p)
    assert abs(wk.total_norm(cur, p) - n0) / n0 < 1e-12


def test_evolve_snapshot_schedule():
    p = wk.build_walk(64, 4.0)
    state = ini.plane_wave(p, 0.0)
    traj = wk.evolve(state, p, 0, cadence=1)
    assert len(traj.snapshots) == 1 and traj.snapshots[0].step_index == 0

    traj = wk.evolve(state, p, 7, cadence=3)
    assert [s.step_index for s in traj.snapshots] == [0, 3, 6, 7]


def test_dirac_residual_zero_state():
    p = wk.build_walk(64, 4.0)
    zeros = [wk.SpinorField(np.zeros(64, complex), np.zeros(64, complex), step_index=j)
             for j in range(3)]
    traj = wk.Trajectory(params=p, snapshots=zeros, cadence=1)
    assert wk.dirac_residual(traj, p) == 0.0


def test_dirac_residual_needs_consecutive_snapshots():
    p = wk.build_walk(64, 4.0)
    state = ini.plane_wave(p, 1.0)
    traj = wk.evolve(state, p, 4, cadence=2)
    with pytest.raises(ValueError):
        wk.dirac_residual(traj, p)


@pytest.mark.parametrize("width", [3, 5])
def test_centered_window_is_centred_on_the_middle_snapshot(width):
    p = wk.build_walk(64, 4.0)
    state = ini.plane_wave(p, 1.0)
    for n_steps in range(width - 1, width + 6):
        snaps = wk.evolve(state, p, n_steps).snapshots
        window = wk.centered_window(wk.Trajectory(params=p, snapshots=snaps), width)
        mid = len(snaps) // 2
        assert [s.step_index for s in window] == list(range(mid - width // 2,
                                                            mid + width // 2 + 1))
    with pytest.raises(ValueError, match="at least"):
        wk.centered_window(wk.evolve(state, p, width - 2), width)
    with pytest.raises(ValueError, match="consecutive"):
        wk.centered_window(wk.evolve(state, p, 2 * width, cadence=2), width)


@pytest.mark.parametrize("width", [4, 2, 0, -1])
def test_centered_window_refuses_a_width_that_is_not_odd_and_positive(width):
    p = wk.build_walk(64, 4.0)
    traj = wk.evolve(ini.plane_wave(p, 1.0), p, 8)
    with pytest.raises(ValueError, match="odd"):
        wk.centered_window(traj, width)


def _exact_plane_wave_trajectory(p, q):
    snaps = [dataclasses.replace(ini.plane_wave(p, q, t=j * p.dt), step_index=j)
             for j in range(3)]
    return wk.Trajectory(params=p, snapshots=snaps, cadence=1)


def test_dirac_residual_second_order_on_exact_solution():
    # sampled continuum solution: the residual is pure differencing error
    res = []
    sizes = (512, 1024, 2048)
    for n in sizes:
        p = wk.build_walk(n, 16.0)
        res.append(wk.dirac_residual(_exact_plane_wave_trajectory(p, 1.0), p))
    assert res[0] > res[1] > res[2]
    eps = [2 * np.pi / n for n in sizes]
    order = np.polyfit(np.log(eps), np.log(res), 1)[0]
    assert 1.8 < order < 2.2


def test_dirac_residual_decreases_on_walk_data():
    values = {}
    for n in (1024, 2048):
        p = wk.build_walk(n, 16.0)
        traj = wk.evolve(ini.plane_wave(p, 1.0), p, 4, cadence=1)
        values[n] = wk.dirac_residual(traj, p)
    assert values[2048] < values[1024]


def _stepped(state, p, steps):
    """Reference: repeated step_walk, keeping the states at `steps`."""
    kept, cur = {}, state
    for j in range(1, max(steps) + 1):
        cur = wk.step_walk(cur, p)
        if j in steps:
            kept[j] = cur
    return [kept[j] for j in steps]


def _per_site_coin_shift(left, right, theta):
    """Reference: the module docstring's per-site equations, each site reading
    its periodic neighbours through index arrays:
    new left[n] = c·left[n+1] − is·right[n+1] and
    new right[n] = −is·left[n−1] + c·right[n−1]."""
    c = np.cos(theta)
    s = np.sin(theta)
    sites = np.arange(left.shape[0])
    ahead, behind = (sites + 1) % sites.size, (sites - 1) % sites.size
    return (c * left[ahead] - 1j * s * right[ahead],
            -1j * s * left[behind] + c * right[behind])


@pytest.mark.parametrize("n", [2, 4, 6, 64, 4096])
@pytest.mark.parametrize("theta", [0.0, 1e-3, np.pi / 2, np.pi, 2.5])
def test_coin_shift_is_bit_identical_to_the_per_site_equations(rng, n, theta):
    left = rng.normal(size=n) + 1j * rng.normal(size=n)
    right = rng.normal(size=n) + 1j * rng.normal(size=n)
    before = left.copy(), right.copy()
    out = wk.coin_shift(left, right, theta)
    for got, want in zip(out, _per_site_coin_shift(left, right, theta)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(left, before[0]) and np.array_equal(right, before[1])


def test_evolve_leaves_its_input_and_checks_its_arguments(rng):
    p = wk.build_walk(16, 4.0)
    state = dataclasses.replace(make_smooth_spinor(rng, 16, k_max=4), step_index=3)
    before = state.copy()
    traj = wk.evolve(state, p, 25, cadence=25)
    assert [s.step_index for s in traj.snapshots] == [3, 28]
    assert np.array_equal(state.left, before.left)
    assert np.array_equal(state.right, before.right)
    # zero steps is a copy
    (still,) = wk.evolve(state, p, 0).snapshots
    assert still.left is not state.left and np.array_equal(still.left, state.left)
    assert still.right is not state.right and np.array_equal(still.right, state.right)
    with pytest.raises(ValueError, match="n_steps"):
        wk.evolve(state, p, -1)
    for cadence in (0, -1):
        with pytest.raises(ValueError, match="cadence"):
            wk.evolve(state, p, 4, cadence=cadence)


@pytest.mark.parametrize("n", [16, 512, 8192])
@pytest.mark.parametrize("stride", [wk._JUMP_STEPS - 1, wk._JUMP_STEPS, 77])
def test_jumped_evolve_agrees_with_the_stepped_walk(monkeypatch, rng, n, stride):
    p = wk.build_walk(n, n / 16)
    state = dataclasses.replace(_smooth_unit(rng, n), step_index=5)
    n_steps = 2 * stride + 7  # not a multiple of the stride
    kept = [stride, 2 * stride, n_steps]
    stepped = _stepped(state, p, kept)
    step_walk, calls = wk.step_walk, []
    monkeypatch.setattr(wk, "step_walk", lambda *a: calls.append(1) or step_walk(*a))
    traj = wk.evolve(state, p, n_steps, cadence=stride)
    assert len(calls) == (0 if stride >= wk._JUMP_STEPS else n_steps)
    assert traj.cadence == stride
    assert [s.step_index for s in traj.snapshots] == [5, 5 + stride, 5 + 2 * stride,
                                                      5 + n_steps]
    assert np.array_equal(traj.snapshots[0].left, state.left)
    for got, want in zip(traj.snapshots[1:], stepped):
        scale = max(np.max(np.abs(want.left)), np.max(np.abs(want.right)))
        gap = max(np.max(np.abs(got.left - want.left)), np.max(np.abs(got.right - want.right)))
        assert gap <= 1e-12 * scale


def test_jumped_evolve_keeps_the_schedule_and_leaves_its_input(rng):
    jump = wk._JUMP_STEPS
    p = wk.build_walk(64, 4.0)
    traj = wk.evolve(ini.plane_wave(p, 0.0), p, 7 * jump, cadence=3 * jump)
    assert [s.step_index for s in traj.snapshots] == [0, 3 * jump, 6 * jump, 7 * jump]
    traj = wk.evolve(ini.plane_wave(p, 0.0), p, 6 * jump, cadence=3 * jump)
    assert [s.step_index for s in traj.snapshots] == [0, 3 * jump, 6 * jump]

    p = wk.build_walk(16, 4.0)
    state = dataclasses.replace(make_smooth_spinor(rng, 16, k_max=4), step_index=3)
    before = state.copy()
    traj = wk.evolve(state, p, jump, cadence=jump)
    assert [s.step_index for s in traj.snapshots] == [3, 3 + jump]
    assert np.array_equal(state.left, before.left)
    assert np.array_equal(state.right, before.right)
    first = traj.snapshots[0]
    assert first.left is not state.left and np.array_equal(first.left, state.left)
    assert first.right is not state.right and np.array_equal(first.right, state.right)


def test_evolve_cost_does_not_grow_with_the_stride(monkeypatch, rng):
    p = wk.build_walk(4096, 512.0)
    state = _smooth_unit(rng, 4096)
    step_walk, calls = wk.step_walk, []
    monkeypatch.setattr(wk, "step_walk", lambda *a: calls.append(1) or step_walk(*a))
    before = fft_calls()
    traj = wk.evolve(state, p, 10 ** 4, cadence=10 ** 4)
    assert fft_calls() - before == 4  # two transforms in, two out
    assert calls == []
    assert [s.step_index for s in traj.snapshots] == [0, 10 ** 4]


def _smooth_unit(rng, n):
    return make_smooth_spinor(rng, n, offset=1.0, amp=0.2, k_max=min(4, n // 2 - 1))


@pytest.mark.parametrize("case", ["multimode", "half_pi", "pi", "two_pi", "small_theta"])
def test_propagate_matches_repeated_step_walk(case, rng):
    if case == "multimode":  # the shipped multimode shock, to its t_final
        p = wk.build_walk(4096, 512.0)
        state = ini.phase_modulated_state(p, ini.multimode_benchmark(51.2, 512.0))
        steps = [1, 1000, 4889, 9778]
    elif case == "small_theta":  # θ ≈ 0.039 over 2·10⁴ steps
        p = wk.build_walk(2048, 12.8)
        state = ini.phase_modulated_state(p, ini.multimode_benchmark(1.28, 12.8))
        steps = [7, 12345, 20000]
    else:
        n, m = {"half_pi": (16, 4.0), "pi": (64, 32.0), "two_pi": (64, 64.0)}[case]
        p = wk.build_walk(n, m)
        state = _smooth_unit(rng, n)
        steps = [1, 2, 3, 101, 500]
    n0 = wk.total_norm(state, p)
    for jumped, stepped in zip(wk.jumps(state, p, steps), _stepped(state, p, steps)):
        assert jumped.step_index == stepped.step_index
        gap = max(np.max(np.abs(jumped.left - stepped.left)),
                  np.max(np.abs(jumped.right - stepped.right)))
        assert gap <= 1e-11
        assert abs(wk.total_norm(jumped, p) - n0) / n0 <= 1e-13


def test_propagate_one_step_gap_does_not_grow_with_the_step_count():
    # the in-run step_consistency check, out to 10⁷ steps: a rounded j·ω
    # would make the gap grow like j·ε·ω (about 7e-10 at 10⁷)
    p = wk.build_walk(4096, 512.0)
    state = ini.phase_modulated_state(p, ini.multimode_benchmark(51.2, 512.0))
    for j in (10 ** 4, 10 ** 5, 10 ** 6, 10 ** 7):
        before, after = wk.jumps(state, p, [j - 1, j])
        stepped = wk.step_walk(before, p)
        gap = max(np.max(np.abs(after.left - stepped.left)),
                  np.max(np.abs(after.right - stepped.right)))
        assert gap <= 1e-14


def test_propagate_step_indices_and_step_zero(rng):
    p = wk.build_walk(64, 4.0)
    state = dataclasses.replace(_smooth_unit(rng, 64), step_index=5)
    zero, later, again = wk.jumps(state, p, [0, 9, 0])
    assert (zero.step_index, later.step_index, again.step_index) == (5, 14, 5)
    assert np.array_equal(zero.left, state.left) and np.array_equal(zero.right, state.right)
    assert zero.left is not state.left
    assert list(wk.jumps(state, p, [])) == []
    with pytest.raises(ValueError):
        wk.jumps(state, p, [3, -1])
    with pytest.raises(ValueError):
        wk.jumps(wk.SpinorField(np.zeros(32, complex), np.zeros(32, complex)), p, [1])


def _reference_omega(n, mass):
    """Reference: ω on every mode in FFT order, and its hi/lo split, inline
    as the jump kernel formed them before the walk's spectrum was cached."""
    p = wk.build_walk(n, mass)
    c, s = np.cos(p.coin_angle), np.sin(p.coin_angle)
    kappa = np.fft.fftfreq(n, d=1.0 / n) * p.spacing
    c_sin = c * np.sin(kappa)
    sin_w = np.hypot(s, c_sin)
    omega = np.arctan2(sin_w, c * np.cos(kappa))
    mantissa, exponent = np.frexp(omega)
    omega_hi = np.ldexp(np.trunc(np.ldexp(mantissa, 26)), exponent - 26)
    return kappa, c_sin, sin_w, omega_hi, omega - omega_hi


def _reference_jumps(state, p, steps):
    """Reference: the jump kernel as it was before the walk's spectrum was
    cached, every table rebuilt and both exponentials taken on all modes."""
    kappa, c_sin, sin_w, omega_hi, omega_lo = _reference_omega(p.n_sites, p.mass)
    s = np.sin(p.coin_angle)
    inv2 = 0.5 / np.where(sin_w == 0.0, 1.0, sin_w)
    p_diag = c_sin * inv2
    p_off = -s * inv2
    shift = np.exp(1j * kappa)
    left_k = np.fft.fft(state.left)
    right_k = np.fft.fft(state.right)
    up_left = (0.5 + p_diag) * left_k + p_off * shift * right_k
    up_right = p_off * np.conj(shift) * left_k + (0.5 - p_diag) * right_k
    down_left, down_right = left_k - up_left, right_k - up_right
    out = []
    for j in steps:
        if j == 0:
            out.append((state.left, state.right))
            continue
        rise = np.exp(1j * (j * omega_hi)) * np.exp(1j * (j * omega_lo))
        fall = np.conj(rise)
        out.append((np.fft.ifft(rise * up_left + fall * down_left),
                    np.fft.ifft(rise * up_right + fall * down_right)))
    return out


# masses by coin angle: θ = π/2, θ a factor 1 − 2^-20 below π, a generic θ,
# and a tiny θ.  On N ≥ 16 the tiny mass makes θ = εm underflow to 0, so
# sin ω = 0 at κ = 0; on N = 4 and 6 it would leave θ one subnormal, whose
# 1/(2 sin ω) overflows, so there θ is 1e-150·ε.
def _masses(n):
    return {"half_pi": n / 4, "near_pi": n / 2 * (1 - 2 ** -20), "generic": n / 7,
            "tiny": 5e-324 if n >= 16 else 1e-150}


# step 10⁴ twice: a step read again gives the same bits
STEPS = [0, 1, 2, 10 ** 4, 10 ** 4, 2 ** 26 + 3]


@pytest.mark.parametrize("theta", ["half_pi", "near_pi", "generic", "tiny"])
@pytest.mark.parametrize("n, kind", [(4, "random"), (6, "random"), (512, "random"),
                                     (4096, "random"), (8192, "random"), (512, "shock"),
                                     (4096, "shock"), (8192, "shock")])
def test_propagate_is_bit_identical_to_the_uncached_formula(n, kind, theta):
    p = wk.build_walk(n, _masses(n)[theta])
    if theta == "tiny" and n >= 16:
        assert p.coin_angle == 0.0 and _reference_omega(n, p.mass)[2][0] == 0.0
    if kind == "shock":  # the shipped multimode shock's profile, made at θ = π/4
        state = ini.phase_modulated_state(wk.build_walk(n, n / 8),
                                          ini.multimode_benchmark(n / 80, n / 8))
    else:
        rng = np.random.default_rng(n)
        state = wk.SpinorField(rng.normal(size=n) + 1j * rng.normal(size=n),
                               rng.normal(size=n) + 1j * rng.normal(size=n))
    got = list(wk.jumps(state, p, STEPS))
    assert len(got) == len(STEPS)
    for j, snap, (left, right) in zip(STEPS, got, _reference_jumps(state, p, STEPS)):
        assert snap.step_index == j
        assert np.array_equal(snap.left, left) and np.array_equal(snap.right, right)


@pytest.mark.parametrize("theta", ["half_pi", "near_pi", "generic", "tiny"])
@pytest.mark.parametrize("n", [4, 6, 512, 4096])
def test_walk_frequency_is_even_in_kappa_to_the_bit(n, theta):
    mass = _masses(n)[theta]
    spec = wk._spectrum(n, mass)
    for full, half in zip(_reference_omega(n, mass)[3:], (spec.omega_hi, spec.omega_lo)):
        # mode i holds κ and mode n − i holds −κ
        assert np.array_equal(full[1:], full[:0:-1])
        assert half.shape == (n // 2 + 1,) and np.array_equal(half, full[:n // 2 + 1])


def test_walk_spectrum_is_read_only_and_built_once_per_lattice(rng):
    p = wk.build_walk(256, 32.0)
    state = _smooth_unit(rng, 256)
    list(wk.jumps(state, p, [1]))
    before = wk._spectrum.cache_info()
    list(wk.jumps(state, p, [3, 5]))
    after = wk._spectrum.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    spec = wk._spectrum(p.n_sites, p.mass)
    for table in spec:
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
    assert len(spec.p_ll) == 256 and len(spec.omega_hi) == 129


def _arrays(values):
    """The arrays among `values`, and among the tuples there, one level down."""
    out = []
    for value in values:
        out += [v for v in (value if isinstance(value, tuple) else (value,))
                if isinstance(v, np.ndarray)]
    return out


def test_jumped_snapshots_share_memory_with_nothing(rng):
    # not with each other (step 5 twice among them), nor with the input, nor
    # with any buffer the kernel overwrites for the next snapshot
    p = wk.build_walk(64, 4.0)
    state = _smooth_unit(rng, 64)
    stream = wk.jumps(state, p, [0, 1, 5, 5, 40])
    snaps, buffers = [], []
    for snap in stream:
        snaps.append(snap)
        if stream.gi_frame is not None:  # the kernel, suspended after this snapshot
            buffers += _arrays(stream.gi_frame.f_locals.values())
    assert len(snaps) == 5 and len(buffers) > 5 * 10
    arrays = [a for s in snaps for a in (s.left, s.right)]
    for i, a in enumerate(arrays):
        for other in [*arrays[i + 1:], *buffers, state.left, state.right]:
            assert not np.shares_memory(a, other)


def test_a_negative_step_raises_at_the_call_before_any_snapshot(rng):
    p = wk.build_walk(64, 4.0)
    state = _smooth_unit(rng, 64)
    before = fft_calls()
    with pytest.raises(ValueError, match="nonnegative"):
        wk.jumps(state, p, [0, 3, -1])
    with pytest.raises(ValueError, match="nonnegative"):
        wk.jumps(state, p, [-2])
    assert fft_calls() == before


def test_probability_gives_the_bits_of_the_current_and_the_norm(rng):
    p = wk.build_walk(256, 32.0)
    (state,) = wk.jumps(_smooth_unit(rng, 256), p, [77])
    density, norm = wk.probability(state, p)
    assert np.array_equal(density, currents(state).j0)
    assert norm == wk.total_norm(state, p)
    assert norm == float(p.spacing * (np.abs(state.left) ** 2
                                      + np.abs(state.right) ** 2).sum())
