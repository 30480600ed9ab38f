import dataclasses
import weakref
from pathlib import Path

import numpy as np
import pytest

from qwhydro import hydro as hy
from qwhydro import initial as ini
from qwhydro import walk as wk
from qwhydro._spectral import centered_time_diff, fft_calls, spectral_derivative
from qwhydro.config import parse_config

from conftest import make_smooth_spinor

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def test_currents_symmetric_spinor():
    n = 32
    uniform = np.full(n, 1 / np.sqrt(2), dtype=complex)
    cur = hy.currents(wk.SpinorField(uniform, uniform))
    np.testing.assert_allclose(cur.j0, 1.0, atol=1e-15)
    np.testing.assert_allclose(cur.j1, 0.0, atol=1e-15)


def test_currents_plane_wave_values():
    p = wk.build_walk(512, 64.0)
    q = 8.0
    cur = hy.currents(ini.plane_wave(p, q))
    qt = q / p.mass
    np.testing.assert_allclose(cur.j0, np.sqrt(1 + qt ** 2), rtol=1e-14)
    np.testing.assert_allclose(cur.j1, qt, rtol=1e-14)


def test_currents_null_left_mover():
    n = 16
    left = np.full(n, 0.7 + 0.1j)
    cur = hy.currents(wk.SpinorField(left, np.zeros(n, complex)))
    np.testing.assert_allclose(cur.j1, -cur.j0, atol=1e-15)


def test_current_identity_randomized(rng):
    for _ in range(20):
        st = make_smooth_spinor(rng, 128)
        assert hy.current_identity_gap(st) < 1e-12


def test_phases_basics():
    n = 16
    real_pos = wk.SpinorField(np.full(n, 0.5 + 0j), np.full(n, 1.2 + 0j))
    ph = hy.phases(real_pos)
    np.testing.assert_allclose(ph.phi_plus, 0.0, atol=1e-15)
    np.testing.assert_allclose(ph.phi_minus, 0.0, atol=1e-15)

    base = np.full(n, 0.3 - 0.4j)
    quarter = hy.phases(wk.SpinorField(1j * base, base))
    np.testing.assert_allclose(quarter.phi_minus, np.pi / 2, atol=1e-14)


def test_phases_plane_wave_initial_data():
    p = wk.build_walk(256, 16.0)
    q = 2.0
    ph = hy.phases(ini.plane_wave(p, q))
    np.testing.assert_allclose(ph.phi_minus, 0.0, atol=1e-13)
    # φ₊/2 equals the prescribed phase q·x modulo 2π
    half = ph.phi_plus / 2
    np.testing.assert_allclose(np.exp(1j * half), np.exp(1j * q * p.x), atol=1e-13)


@pytest.mark.parametrize("q", [3.0, -3.0])
def test_phase_gradients_count_a_winding_without_unwrapping(q):
    # φ₊ winds 2q times around the ring; the rates read it site by site
    p = wk.build_walk(64, 4.0)
    ph = hy.phases(ini.plane_wave(p, q))
    np.testing.assert_allclose(ph.d_plus, 2.0 * q, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(ph.d_minus, 0.0, rtol=0.0, atol=1e-13)


def test_phase_gradients_are_zero_where_a_component_vanishes():
    p = wk.build_walk(64, 4.0)
    left = np.sin(p.x) * np.exp(2j * p.x)  # exactly 0 at x = 0, below the floor at x = π
    ph = hy.phases(wk.SpinorField(left, np.full(64, 1 / np.sqrt(2), dtype=complex)))
    assert left[0] == 0.0 and not ph.valid[0]
    for grad in (ph.d_plus, ph.d_minus):
        assert np.isfinite(grad).all() and grad[0] == 0.0
        np.testing.assert_allclose(grad[ph.valid], 2.0, rtol=1e-13)


def test_phases_flags_vanishing_component():
    n = 8
    left = np.full(n, 1.0 + 0j)
    left[3] = 0.0
    ph = hy.phases(wk.SpinorField(left, np.full(n, 1.0 + 0j)))
    assert not ph.valid[3]
    assert ph.valid.sum() == n - 1


def test_roundtrip_randomized(rng):
    # spinor → (currents, phases) → spinor is exact with principal half-angles
    worst = 0.0
    for _ in range(50):
        st = make_smooth_spinor(rng, 128)
        rec = hy.spinor_from_hydro(hy.currents(st), hy.phases(st))
        worst = max(worst, float(np.max(np.abs(rec.left - st.left))),
                    float(np.max(np.abs(rec.right - st.right))))
    assert worst < 1e-12


def test_spinor_from_hydro_point_cases():
    ones = np.ones(4)
    zeros = np.zeros(4)
    st = hy.spinor_from_hydro(hy.CurrentField(j0=ones, j1=zeros),
                              hy.PhaseField(phi_plus=zeros, phi_minus=zeros,
                                            valid=np.ones(4, bool)))
    np.testing.assert_allclose(st.left, 1 / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(st.right, 1 / np.sqrt(2), atol=1e-15)

    st = hy.spinor_from_hydro(hy.CurrentField(j0=ones, j1=ones),
                              hy.PhaseField(phi_plus=zeros, phi_minus=zeros,
                                            valid=np.ones(4, bool)))
    np.testing.assert_allclose(st.left, 0.0, atol=1e-15)
    np.testing.assert_allclose(st.right, 1.0, atol=1e-15)


def test_spinor_from_hydro_rejects_spacelike():
    ones = np.ones(4)
    with pytest.raises(ValueError):
        hy.spinor_from_hydro(hy.CurrentField(j0=ones, j1=2 * ones),
                             hy.PhaseField(phi_plus=0 * ones, phi_minus=0 * ones,
                                           valid=np.ones(4, bool)))


def test_hydro_vars_plane_wave():
    p = wk.build_walk(256, 16.0)
    for q in (0.0, 4.0):
        st = ini.plane_wave(p, q)
        h = hy.hydro_vars(hy.currents(st), hy.phases(st), p.mass)
        qt = q / p.mass
        np.testing.assert_allclose(h.n, 1.0, rtol=1e-13)
        np.testing.assert_allclose(h.u0, np.sqrt(1 + qt ** 2), rtol=1e-13)
        np.testing.assert_allclose(h.u1, qt, atol=1e-13)
        np.testing.assert_allclose(h.w, p.mass, rtol=1e-13)
        assert h.valid_mask.all()


def test_hydro_vars_masks_null_current():
    n = 16
    st = wk.SpinorField(np.full(n, 1.0 + 0j), np.zeros(n, complex))
    h = hy.hydro_vars(hy.currents(st), hy.phases(st), 2.0)
    assert not h.valid_mask.any()


def test_velocity_normalization_on_valid(rng):
    for _ in range(10):
        st = make_smooth_spinor(rng, 128)
        h = hy.hydro_vars(hy.currents(st), hy.phases(st), 8.0)
        norm = h.u0[h.valid_mask] ** 2 - h.u1[h.valid_mask] ** 2
        np.testing.assert_allclose(norm, 1.0, atol=1e-9)


def test_velocity_redundancy_from_phase_gradient(rng):
    # u¹ from currents vs from phase gradients, with the phase rate taken
    # from the Dirac flow (on-shell closure of the chart)
    p = wk.build_walk(256, 16.0)
    st = make_smooth_spinor(rng, 256, offset=8.0, amp=0.4)
    dt_l, dt_r = wk.dirac_rhs(st, p)
    rate_l = np.imag(np.conj(st.left) * dt_l) / np.abs(st.left) ** 2
    rate_r = np.imag(np.conj(st.right) * dt_r) / np.abs(st.right) ** 2
    ph = hy.phases(st)
    h = hy.hydro_vars(hy.currents(st), ph, p.mass)
    u1_alt = hy.velocity_from_phase_gradient(ph, h, p, rate_l - rate_r)
    np.testing.assert_allclose(u1_alt, h.u1, atol=1e-10)


def test_phase_field_takes_each_gradient_once(rng):
    # the first read takes both gradients, 4 FFTs; the diagnostics then read
    # them from the PhaseField, and only the enthalpy route's ∂ₓ(w/mn) takes 2
    p = wk.build_walk(512, 16.0)
    st = make_smooth_spinor(rng, 512, offset=8.0, amp=0.4)
    ph = hy.phases(st)
    h = hy.hydro_vars(hy.currents(st), ph, p.mass)
    before = fft_calls()
    d_minus = ph.d_minus
    assert fft_calls() - before == 4
    before = fft_calls()
    d_plus = ph.d_plus
    hy.stress_energy_hydro(h, ph, p)
    hy.quantum_pressure_gradient(h, ph, p)
    hy.velocity_from_phase_gradient(ph, h, p)
    assert fft_calls() - before == 2
    rate_l = hy._component_phase_rate(st.left, spectral_derivative(st.left))
    rate_r = hy._component_phase_rate(st.right, spectral_derivative(st.right))
    assert np.array_equal(d_plus, rate_l + rate_r) and np.array_equal(d_minus, rate_l - rate_r)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ph.phi_minus = ph.phi_plus
    with pytest.raises(ValueError):
        d_minus[0] = 0.0


def _onshell_setup(rng, n=256, mass=16.0):
    p = wk.build_walk(n, mass)
    st = make_smooth_spinor(rng, n, offset=8.0, amp=0.4)
    dt = wk.dirac_rhs(st, p)
    return p, st, dt


def test_stress_energy_spinor_rest_fluid():
    p = wk.build_walk(128, 16.0)
    st = ini.plane_wave(p, 0.0)
    T = hy.stress_energy_spinor(st, p, dpsi_dt=wk.dirac_rhs(st, p))
    np.testing.assert_allclose(T.t00, p.mass, rtol=1e-12)
    np.testing.assert_allclose(T.t01, 0.0, atol=1e-10)
    np.testing.assert_allclose(T.t10, 0.0, atol=1e-10)
    np.testing.assert_allclose(T.t11, 0.0, atol=1e-10)


def test_stress_energy_spinor_zero_state():
    p = wk.build_walk(64, 4.0)
    zero = wk.SpinorField(np.zeros(64, complex), np.zeros(64, complex))
    T = hy.stress_energy_spinor(zero, p, dpsi_dt=(np.zeros(64, complex),
                                                  np.zeros(64, complex)))
    for comp in (T.t00, T.t01, T.t10, T.t11):
        assert np.all(comp == 0)


def test_stress_energy_spinor_requires_time_data():
    p = wk.build_walk(64, 4.0)
    st = ini.plane_wave(p, 0.0)
    with pytest.raises(ValueError):
        hy.stress_energy_spinor(st, p)


def test_stress_energy_symmetry_onshell(rng):
    p, st, dt = _onshell_setup(rng)
    T = hy.stress_energy_spinor(st, p, dpsi_dt=dt)
    scale = np.max(np.abs(T.t01)) + 1e-30
    assert np.max(np.abs(T.t01 - T.t10)) / scale < 1e-9


def test_stress_energy_cross_oracle_onshell(rng):
    # hydrodynamic form equals the bilinear form on Dirac-consistent data
    p, st, dt = _onshell_setup(rng)
    T_sp = hy.stress_energy_spinor(st, p, dpsi_dt=dt)
    ph = hy.phases(st)
    h = hy.hydro_vars(hy.currents(st), ph, p.mass)
    T_hy = hy.stress_energy_hydro(h, ph, p)
    scale = np.max(np.abs(T_sp.t00))
    for name in ("t00", "t01", "t10", "t11"):
        gap = np.max(np.abs(getattr(T_sp, name) - getattr(T_hy, name)))
        assert gap / scale < 1e-12


@pytest.mark.parametrize("t", [8.0, 12.0, 15.0])
def test_stress_energy_cross_oracle_after_the_shock(t):
    # past the shock φ± jump by up to 3 rad between neighbouring sites, where
    # an unwrapped phase is no longer resolved; ψ is, and so are the rates
    cfg = parse_config((CONFIGS / "shock_multimode.cfg").read_text())
    p = wk.build_walk(cfg.n_sites, cfg.mass)
    st0 = ini.phase_modulated_state(p, ini.ShockInitSpec(cfg.modes, cfg.q_max, cfg.mass))
    (st,) = wk.jumps(st0, p, [wk.steps_until(t, p)])
    T_sp = hy.stress_energy_spinor(st, p, dpsi_dt=wk.dirac_rhs(st, p))
    ph = hy.phases(st)
    h = hy.hydro_vars(hy.currents(st), ph, p.mass)
    T_hy = hy.stress_energy_hydro(h, ph, p)
    valid = h.valid_mask
    scale = np.max(np.abs(T_sp.t00[valid]))
    for name in ("t00", "t01", "t10", "t11"):
        gap = np.max(np.abs(getattr(T_sp, name) - getattr(T_hy, name))[valid])
        assert gap / scale <= 1e-12, name


def test_stress_energy_hydro_dust_form():
    # constant φ₋ kills the gradient terms: T = w·u⊗u exactly
    n = 64
    p = wk.build_walk(n, 4.0)
    st = ini.plane_wave(p, 2.0)
    ph = hy.phases(st)
    h = hy.hydro_vars(hy.currents(st), ph, p.mass)
    T = hy.stress_energy_hydro(h, ph, p)
    np.testing.assert_allclose(T.t00, h.w * h.u0 * h.u0, atol=1e-10)
    np.testing.assert_allclose(T.t01, h.w * h.u0 * h.u1, atol=1e-10)
    np.testing.assert_allclose(T.t11, h.w * h.u1 * h.u1, atol=1e-10)


def test_stress_energy_static_fluid():
    p = wk.build_walk(64, 4.0)
    st = ini.plane_wave(p, 0.0)
    ph = hy.phases(st)
    h = hy.hydro_vars(hy.currents(st), ph, p.mass)
    T = hy.stress_energy_hydro(h, ph, p)
    np.testing.assert_allclose(T.t00, h.w, rtol=1e-13)
    np.testing.assert_allclose(T.t01, 0.0, atol=1e-13)


def _walk_window(rng):
    # three consecutive snapshots of a smooth walk, the middle one `mid`
    p = wk.build_walk(256, 16.0)
    traj = wk.evolve(make_smooth_spinor(rng, 256, offset=8.0, amp=0.4), p, 2)
    return p, traj, traj.snapshots[1]


def _bilinear_im(state, d_left, d_right, pauli3):
    """Reference: Im(ψ† M ∂ψ) with M = 1 or σ₃, the per-component formula
    `stress_energy_spinor` took before it formed each product once."""
    if pauli3:
        return np.imag(np.conj(state.left) * d_left - np.conj(state.right) * d_right)
    return np.imag(np.conj(state.left) * d_left + np.conj(state.right) * d_right)


@pytest.mark.parametrize("path", ["snapshots", "analytic"])
def test_stress_energy_spinor_is_bit_identical_to_the_per_component_formula(rng, path):
    p, traj, mid = _walk_window(rng)
    prev, _, nxt = traj.snapshots
    if path == "snapshots":
        got = hy.stress_energy_spinor(mid, p, prev=prev, nxt=nxt)
        dt_l = centered_time_diff(prev.left, nxt.left, p.dt)
        dt_r = centered_time_diff(prev.right, nxt.right, p.dt)
    else:
        dt_l, dt_r = wk.dirac_rhs(mid, p)
        got = hy.stress_energy_spinor(mid, p, dpsi_dt=(dt_l, dt_r))
    d_psi = wk.x_derivative(mid)
    want = {"t00": -_bilinear_im(mid, dt_l, dt_r, pauli3=False),
            "t01": +_bilinear_im(mid, d_psi.left, d_psi.right, pauli3=False),
            "t10": +_bilinear_im(mid, dt_l, dt_r, pauli3=True),
            "t11": -_bilinear_im(mid, d_psi.left, d_psi.right, pauli3=True)}
    for name, component in want.items():
        assert getattr(got, name).tobytes() == component.tobytes(), name


def test_a_held_chart_is_shared(rng):
    _, _, mid = _walk_window(rng)
    ph, cur = hy.phases(mid), hy.currents(mid)
    assert hy.phases(mid) is ph and hy.currents(mid) is cur
    # shared per snapshot object, not per content
    twin = wk.SpinorField(mid.left, mid.right, mid.step_index)
    assert hy.phases(twin) is not ph and np.array_equal(hy.phases(twin).phi_plus, ph.phi_plus)


def test_madelung_residuals_reads_the_held_phase_field(rng):
    p, traj, mid = _walk_window(rng)
    before = fft_calls()
    alone = hy.madelung_residuals(traj, p)
    alone_ffts = fft_calls() - before
    ph = hy.phases(mid)
    before = fft_calls()
    _ = ph.d_plus, ph.d_minus  # read as the stress-energy routes read them
    assert fft_calls() - before == 4
    before = fft_calls()
    shared = hy.madelung_residuals(traj, p)
    assert fft_calls() - before == alone_ffts - 4  # mid's gradients, read from ph
    assert hy.phases(mid) is ph
    assert repr(shared) == repr(alone)


def test_stress_energy_spinor_reads_the_held_phase_fields_derivative(rng):
    p, traj, mid = _walk_window(rng)
    prev, _, nxt = traj.snapshots
    fresh = hy.stress_energy_spinor(mid.copy(), p, prev=prev, nxt=nxt)
    ph = hy.phases(mid)
    _ = ph.d_minus  # takes mid's ∂ₓΨ and keeps it
    before = fft_calls()
    shared = hy.stress_energy_spinor(mid, p, prev=prev, nxt=nxt)
    assert fft_calls() - before == 0
    for k in ("t00", "t01", "t10", "t11"):
        assert getattr(shared, k).tobytes() == getattr(fresh, k).tobytes()
    before = fft_calls()
    rhs = wk.dirac_rhs(mid, p)
    assert fft_calls() - before == 0
    for got, want in zip(rhs, wk.dirac_rhs(mid.copy(), p)):
        assert got.tobytes() == want.tobytes()


def test_a_snapshots_derivative_goes_with_its_last_holder(rng):
    _, _, mid = _walk_window(rng)
    d_psi = wk.x_derivative(mid)
    assert wk.x_derivative(mid) is d_psi
    with pytest.raises(ValueError):
        d_psi.left[0] = 0.0
    assert np.array_equal(d_psi.left, spectral_derivative(mid.left))
    assert np.array_equal(d_psi.right, spectral_derivative(mid.right))
    held = weakref.ref(d_psi)
    del d_psi
    assert held() is None  # the snapshot holds it only weakly
    ph = hy.phases(mid)
    _ = ph.d_plus
    held = weakref.ref(wk.x_derivative(mid))
    assert held() is not None  # the phase field holds it with its gradients
    del ph, _
    assert held() is None


def test_a_dropped_chart_leaves_nothing_on_the_snapshot(rng):
    _, _, mid = _walk_window(rng)
    ph, cur = hy.phases(mid), hy.currents(mid)
    arrays = [weakref.ref(a) for a in (ph.phi_plus, ph.phi_minus, ph.valid, ph.d_plus,
                                       ph.d_minus, cur.j0, cur.j1)]
    first = ph.d_minus.copy()
    del ph, cur
    assert all(ref() is None for ref in arrays)
    # the next caller gets a chart built afresh, with the same bits
    again = hy.phases(mid)
    assert again.d_minus.tobytes() == first.tobytes()


def test_snapshots_and_shared_fields_are_read_only(rng):
    left, right = np.full(16, 0.6 + 0.1j), np.full(16, 0.3 - 0.7j)
    st = wk.SpinorField(left, right, 4)
    for arr in (st.left, st.right):
        with pytest.raises(ValueError):
            arr[0] = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.step_index = 5
    with pytest.raises(dataclasses.FrozenInstanceError):
        st.left = right
    # the snapshot views the caller's arrays and leaves them writable
    assert left.flags.writeable and np.shares_memory(st.left, left)
    cur, ph = hy.currents(st), hy.phases(st)
    for arr in (cur.j0, cur.j1, ph.phi_plus, ph.phi_minus, ph.valid, ph.d_plus):
        with pytest.raises(ValueError):
            arr[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        cur.j0 = cur.j1


def _exact_plane_wave_residuals(n, mass, q):
    p = wk.build_walk(n, mass)
    snaps = [dataclasses.replace(ini.plane_wave(p, q, t=j * p.dt), step_index=j)
             for j in range(3)]
    traj = wk.Trajectory(params=p, snapshots=snaps, cadence=1)
    return hy.madelung_residuals(traj, p)


def test_madelung_residuals_refine_on_exact_plane_wave():
    # currents are constant (r4, r6 exact zeros); the phase-rate residual is
    # pure centered-differencing error, second order in the step
    coarse = _exact_plane_wave_residuals(256, 16.0, 2.0)
    fine = _exact_plane_wave_residuals(512, 16.0, 2.0)
    assert coarse[0] < 1e-12 and fine[0] < 1e-12
    assert coarse[2] < 1e-12 and fine[2] < 1e-12
    assert 3.5 < coarse[1] / fine[1] < 4.5


def test_madelung_residuals_static_fluid():
    r4, r5, r6 = _exact_plane_wave_residuals(128, 4.0, 0.0)
    r4f, r5f, r6f = _exact_plane_wave_residuals(256, 4.0, 0.0)
    assert r4 < 1e-12 and r6 < 1e-12
    assert 3.5 < r5 / r5f < 4.5


def test_madelung_residuals_identity_with_analytic_rates(rng):
    # supplying exact Dirac time derivatives must satisfy all three
    # equations of motion pointwise (sign-convention pin)
    p, st, (dt_l, dt_r) = _onshell_setup(rng)
    dj0 = 2 * np.real(np.conj(st.left) * dt_l) + 2 * np.real(np.conj(st.right) * dt_r)
    dj1 = 2 * np.real(np.conj(st.right) * dt_r) - 2 * np.real(np.conj(st.left) * dt_l)
    r4, r5, r6 = hy._madelung_residual_fields(st, p, dt_l, dt_r, dj0, dj1)
    assert r4 < 1e-10
    assert r5 < 1e-10
    assert r6 < 1e-10


def test_madelung_residuals_refine_on_walk_shock():
    values = []
    for n in (512, 1024):
        p = wk.build_walk(n, 16.0)
        spec = ini.single_cosine(q_max=3.2, mass=16.0)
        traj = wk.evolve(ini.phase_modulated_state(p, spec), p, n // 64, cadence=1)
        sub = wk.Trajectory(params=p, snapshots=traj.snapshots[-3:], cadence=1)
        values.append(hy.madelung_residuals(sub, p))
    for i in range(3):
        assert values[1][i] < values[0][i]


def test_stress_energy_conservation_refines_on_walk_shock():
    values = []
    for n in (512, 1024):
        p = wk.build_walk(n, 16.0)
        spec = ini.single_cosine(q_max=3.2, mass=16.0)
        traj = wk.evolve(ini.phase_modulated_state(p, spec), p, n // 64, cadence=1)
        sub = wk.Trajectory(params=p, snapshots=traj.snapshots[-5:], cadence=1)
        values.append(hy.stress_energy_conservation_residual(sub, p))
    assert values[1][0] < values[0][0]
    assert values[1][1] < values[0][1]


def test_stress_energy_conservation_needs_five_snapshots():
    p = wk.build_walk(64, 4.0)
    traj = wk.evolve(ini.plane_wave(p, 0.0), p, 3, cadence=1)
    with pytest.raises(ValueError):
        hy.stress_energy_conservation_residual(traj, p)


def test_quantum_pressure_gradient_identity():
    n = 256
    p = wk.build_walk(n, 16.0)
    x = p.x
    phi_minus = 0.3 + 0.1 * np.sin(x)
    st = wk.SpinorField(np.exp(1j * phi_minus) / np.sqrt(2),
                        np.full(n, 1 / np.sqrt(2), dtype=complex))
    ph = hy.phases(st)
    h = hy.hydro_vars(hy.currents(st), ph, p.mass)
    chk = hy.quantum_pressure_gradient(h, ph, p)
    assert chk.valid.all()
    assert np.max(np.abs(chk.difference)) < 1e-8


def test_quantum_pressure_gradient_constant_phase():
    n = 64
    p = wk.build_walk(n, 4.0)
    st = wk.SpinorField(np.full(n, np.exp(0.4j) / np.sqrt(2)),
                        np.full(n, 1 / np.sqrt(2), dtype=complex))
    ph = hy.phases(st)
    h = hy.hydro_vars(hy.currents(st), ph, p.mass)
    chk = hy.quantum_pressure_gradient(h, ph, p)
    assert np.max(np.abs(chk.direct)) < 1e-12
    assert np.max(np.abs(chk.from_enthalpy)) < 1e-10


def test_quantum_pressure_gradient_masks_zero_crossings():
    n = 256
    p = wk.build_walk(n, 16.0)
    x = p.x
    phi_minus = 0.2 * np.sin(x)  # crosses 0 where the formula is singular
    st = wk.SpinorField(np.exp(1j * phi_minus) / np.sqrt(2),
                        np.full(n, 1 / np.sqrt(2), dtype=complex))
    ph = hy.phases(st)
    h = hy.hydro_vars(hy.currents(st), ph, p.mass)
    chk = hy.quantum_pressure_gradient(h, ph, p)
    assert not chk.valid.all()
    assert np.max(np.abs(chk.difference[chk.valid])) < 1e-6
