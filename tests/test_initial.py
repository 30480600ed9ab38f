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


def test_plane_wave_rejects_noninteger_or_unresolvable():
    p = wk.build_walk(64, 4.0)
    with pytest.raises(ValueError):
        ini.plane_wave(p, 1.5)
    with pytest.raises(ValueError):
        ini.plane_wave(p, 64.0)


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
