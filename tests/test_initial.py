import dataclasses
import warnings

import mpmath
import numpy as np
import pytest
from scipy.special import jv

from qwhydro import hydro as hy
from qwhydro import initial as ini
from qwhydro import walk as wk


def test_plane_wave_rest_state():
    p = wk.build_walk(128, 16.0)
    st = ini.plane_wave(p, 0.0)
    np.testing.assert_allclose(st.left, 1 / np.sqrt(2), atol=1e-15)
    np.testing.assert_allclose(st.right, 1 / np.sqrt(2), atol=1e-15)


def test_plane_wave_currents_exact():
    p = wk.build_walk(256, 16.0)
    for q in (1.0, 5.0, -3.0):
        cur = hy.currents(ini.plane_wave(p, q))
        qt = q / p.mass
        np.testing.assert_allclose(cur.j0, np.sqrt(1 + qt ** 2), rtol=1e-14)
        np.testing.assert_allclose(cur.j1, qt, rtol=1e-14, atol=1e-15)


def test_plane_wave_unit_density():
    p = wk.build_walk(256, 16.0)
    st = ini.plane_wave(p, 7.0)
    cur = hy.currents(st)
    n = np.sqrt(cur.j0 ** 2 - cur.j1 ** 2)
    np.testing.assert_allclose(n, 1.0, atol=1e-13)


@pytest.mark.parametrize("q_tilde", [sign * q for q in (1e2, 1e4, 1e6, 1e8, 1e12)
                                     for sign in (1.0, -1.0)])
def test_plane_wave_amplitudes_match_mpmath_at_large_momentum(q_tilde):
    # 60 digits resolve √(1+q̃²) − |q̃| ≈ 1/(2|q̃|) up to |q̃| = 1e12
    with mpmath.workdps(60):
        q = mpmath.mpf(q_tilde)
        root = mpmath.sqrt(1 + q * q)
        reference = (mpmath.sqrt(root - q) / mpmath.sqrt(2),
                     mpmath.sqrt(root + q) / mpmath.sqrt(2))
    _, amp_l, amp_r = ini._plane_wave_amplitudes(np.float64(q_tilde))
    # four correctly rounded operations: within 2 ulps of the true amplitudes
    eps = np.finfo(float).eps
    for got, ref in zip((amp_l, amp_r), reference):
        assert abs(float(got) - float(ref)) <= 2 * eps * float(ref)
    # so the plane wave keeps its unit density n² = 4·|Ψ_L|²·|Ψ_R|²
    assert abs(4.0 * amp_l ** 2 * amp_r ** 2 - 1.0) <= 8 * eps


def test_plane_wave_rejects_noninteger_or_unresolvable():
    p = wk.build_walk(64, 4.0)
    with pytest.raises(ValueError):
        ini.plane_wave(p, 1.5)
    with pytest.raises(ValueError):
        ini.plane_wave(p, 64.0)


def test_plane_wave_refuses_a_momentum_whose_square_overflows():
    # (q/mass)² = 1e310 is out of the floats: a ValueError naming both keys,
    # with no OverflowError or RuntimeWarning on the way
    with pytest.raises(ValueError, match="'q' = 1 and 'mass' = 1e-155"):
        ini.plane_wave(wk.build_walk(64, 1e-155), 1.0)
    # within the floats, the state and its frequency m·√(1+q̃²) ≈ |q| stay finite
    st = ini.plane_wave(wk.build_walk(64, 1e-150), 1.0, t=0.5)
    assert np.all(np.isfinite(st.left)) and np.all(np.isfinite(st.right))
    np.testing.assert_allclose(st.right / ini.plane_wave(wk.build_walk(64, 1e-150), 1.0).right,
                               np.exp(-0.5j), rtol=1e-14)


def test_mode_spec_validation():
    with pytest.raises(ValueError):
        ini.ModeSpec(amplitude=1.0, wavenumber=0)
    with pytest.raises(ValueError):
        ini.ShockInitSpec(modes=(), q_max=1.0, mass=4.0)
    with pytest.raises(ValueError):
        ini.ShockInitSpec(modes=(ini.ModeSpec(1.0, 1),), q_max=-1.0, mass=4.0)


def test_phase_modulated_velocity_field():
    # three-mode benchmark at u_max = 0.1: measured u¹ must equal
    # −u_max·(sin x + sin 3x + sin(2x+0.9)) to spectral accuracy
    p = wk.build_walk(4096, 512.0)
    spec = ini.multimode_benchmark(q_max=51.2, mass=512.0)
    st = ini.phase_modulated_state(p, spec)
    h = hy.hydro_vars(hy.currents(st), hy.phases(st), p.mass)
    x = p.x
    expected = 0.1 * (-np.sin(x) - np.sin(3 * x) - np.sin(2 * x + 0.9))
    np.testing.assert_allclose(h.u1, expected, atol=1e-10)
    assert np.max(np.abs(h.u1)) == pytest.approx(
        0.1 * np.max(np.abs(np.sin(x) + np.sin(3 * x) + np.sin(2 * x + 0.9))),
        rel=1e-6)


def test_phase_modulated_unit_density():
    p = wk.build_walk(1024, 64.0)
    spec = ini.multimode_benchmark(q_max=12.8, mass=64.0)
    st = ini.phase_modulated_state(p, spec)
    cur = hy.currents(st)
    n = np.sqrt(cur.j0 ** 2 - cur.j1 ** 2)
    np.testing.assert_allclose(n, 1.0, atol=1e-12)


def test_phase_modulated_single_mode():
    p = wk.build_walk(512, 64.0)
    u_max = 0.25
    spec = ini.single_cosine(q_max=u_max * 64.0, mass=64.0)
    st = ini.phase_modulated_state(p, spec)
    h = hy.hydro_vars(hy.currents(st), hy.phases(st), p.mass)
    np.testing.assert_allclose(h.u1, -u_max * np.sin(p.x), atol=1e-11)


def test_phase_modulated_total_phase():
    p = wk.build_walk(512, 64.0)
    spec = ini.single_cosine(q_max=6.4, mass=64.0)
    st = ini.phase_modulated_state(p, spec)
    phi = ini.phase_profile(spec, p.x)
    # both components carry the common phase m·φ(x)
    np.testing.assert_allclose(np.angle(st.right * np.exp(-1j * p.mass * phi)),
                               0.0, atol=1e-12)


def test_phase_modulated_relativistic_speeds_allowed():
    # proper velocity above 1 is physical (γv); the constructor must accept it
    p = wk.build_walk(512, 25.6)
    spec = ini.multimode_benchmark(q_max=51.2, mass=25.6)  # u_max = 2
    st = ini.phase_modulated_state(p, spec)
    h = hy.hydro_vars(hy.currents(st), hy.phases(st), p.mass)
    assert np.max(np.abs(h.u1)) > 1.0
    coordinate_speed = np.abs(h.u1) / h.u0
    assert np.max(coordinate_speed) < 1.0


def test_phase_modulated_zero_limit_matches_rest_plane_wave():
    p = wk.build_walk(128, 8.0)
    spec = ini.ShockInitSpec(modes=(ini.ModeSpec(1.0, 1),), q_max=0.0, mass=8.0)
    st = ini.phase_modulated_state(p, spec)
    rest = ini.plane_wave(p, 0.0)
    np.testing.assert_allclose(st.left, rest.left, atol=1e-15)
    np.testing.assert_allclose(st.right, rest.right, atol=1e-15)


def test_phase_modulated_rejects_unresolvable_mode():
    p = wk.build_walk(8, 1.0)
    spec = ini.ShockInitSpec(modes=(ini.ModeSpec(1.0, 7),), q_max=0.5, mass=1.0)
    with pytest.raises(ValueError):
        ini.phase_modulated_state(p, spec)


def test_shock_states_refuse_a_profile_over_the_nyquist_wavenumber():
    # q_max·Σ|a|·k = 40 on 64 sites, whose Nyquist wavenumber is 32
    p = wk.build_walk(64, 4.0)
    spec = ini.ShockInitSpec(modes=(ini.ModeSpec(1.0, 1), ini.ModeSpec(0.5, 2)),
                             q_max=20.0, mass=4.0)
    for build in (ini.phase_modulated_state, ini.schrodinger_initial):
        with pytest.raises(ValueError, match="Nyquist"):
            build(p, spec)
    assert ini.check_profile(dataclasses.replace(spec, q_max=16.0), 64) == 32.0


@pytest.mark.parametrize("mass, q_max, amplitude", [(5e-324, 1.0, 0.0),
                                                    (1e-20, 1e300, 1e-300),
                                                    (5e-324, 1e-300, 1e300)])
def test_shock_states_refuse_a_phase_out_of_the_floats(mass, q_max, amplitude):
    # φ = (q_max/m)·a·cos x: q_max/m overflows, and inf·0 is nan, or the
    # product does; either way the phase is not finite
    p = wk.build_walk(64, mass)
    spec = ini.ShockInitSpec(modes=(ini.ModeSpec(amplitude, 1),), q_max=q_max, mass=mass)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for build in (ini.phase_modulated_state, ini.schrodinger_initial):
            with pytest.raises(ValueError, match="'q_max' = .*'mode' and 'mass'"):
                build(p, spec)


def test_phase_modulated_state_refuses_a_momentum_whose_square_overflows():
    # φ = 1e300·cos x is finite, but its gradient q̃ = −1e300·sin x squares
    # out of the floats: a ValueError naming the keys, with no warning on the way
    p = wk.build_walk(64, 1e-300)
    spec = ini.single_cosine(q_max=1.0, mass=1e-300)
    assert ini.check_profile(spec, 64) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="'q_max' = 1, 'mode' and 'mass' = 1e-300"):
            ini.phase_modulated_state(p, spec)


def test_plane_wave_amplitudes_divide_q_by_mass_without_a_warning():
    # 1/5e-324 overflows in the division itself
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="'q' and 'mass' give"):
            ini._plane_wave_amplitudes(1.0, 5e-324, "'q' and 'mass'")
        with pytest.raises(ValueError, match="q̃ give"):
            ini._plane_wave_amplitudes(np.array([0.0, np.inf]))
    root, amp_l, amp_r = ini._plane_wave_amplitudes(3.0, 4.0)
    assert (root, amp_l, amp_r) == ini._plane_wave_amplitudes(0.75)


def test_shock_states_reject_a_spec_of_another_mass():
    # the lattice phase m·φ needs φ = (q_max/m)·Σ aᵢcos(kᵢx + δᵢ) of the same m
    p = wk.build_walk(64, 4.0)
    spec = ini.single_cosine(q_max=4.0, mass=8.0)
    with pytest.raises(ValueError, match="spec.mass"):
        ini.phase_modulated_state(p, spec)
    with pytest.raises(ValueError, match="spec.mass"):
        ini.schrodinger_initial(p, spec)


def test_exact_and_spectral_phase_derivative_agree():
    p = wk.build_walk(256, 16.0)
    spec = ini.multimode_benchmark(q_max=3.2, mass=16.0)
    from qwhydro._spectral import spectral_derivative
    phi = ini.phase_profile(spec, p.x)
    np.testing.assert_allclose(spectral_derivative(phi),
                               ini.phase_profile_derivative(spec, p.x),
                               atol=1e-13)


def test_schrodinger_initial_unit_modulus_and_value():
    p = wk.build_walk(512, 100.0)
    spec = ini.single_cosine(q_max=100.0, mass=100.0)  # u_max = 1
    wf = ini.schrodinger_initial(p, spec)
    np.testing.assert_allclose(np.abs(wf.values), 1.0, atol=1e-14)
    np.testing.assert_allclose(wf.values, np.exp(1j * 100.0 * np.cos(p.x)),
                               atol=1e-12)


def test_schrodinger_initial_bessel_spectrum():
    # Fourier coefficients of e^{im cos x} are i^k J_k(m)
    m = 20.0
    p = wk.build_walk(512, m)
    wf = ini.schrodinger_initial(p, ini.single_cosine(q_max=m, mass=m))
    coeff = np.fft.fft(wf.values) / p.n_sites
    for k in (0, 1, 5, 17):
        expected = (1j ** k) * jv(k, m)
        assert coeff[k] == pytest.approx(expected, abs=1e-12)
        expected_neg = (1j ** k) * jv(k, m)
        assert coeff[-k % p.n_sites] == pytest.approx(expected_neg, abs=1e-12)
