import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwhydro import initial as ini
from qwhydro import schrodinger as sch
from qwhydro import walk as wk

from conftest import scipy_modules_loaded_by


def _cos_state(n, m):
    x = 2 * np.pi * np.arange(n) / n
    return sch.Wavefunction(np.exp(1j * m * np.cos(x))), x


def test_spectral_propagate_identity_at_zero_time():
    psi, _ = _cos_state(256, 10.0)
    out = sch.spectral_propagate(psi, 10.0, 0.0)
    np.testing.assert_allclose(out.values, psi.values, atol=1e-15)


def test_spectral_propagate_norm_and_composition():
    psi, _ = _cos_state(512, 20.0)
    a = sch.spectral_propagate(psi, 20.0, 0.7)
    assert np.linalg.norm(a.values) == pytest.approx(np.linalg.norm(psi.values),
                                                     rel=1e-13)
    two_step = sch.spectral_propagate(sch.spectral_propagate(psi, 20.0, 0.3),
                                      20.0, 0.4)
    one_step = sch.spectral_propagate(psi, 20.0, 0.7)
    np.testing.assert_allclose(two_step.values, one_step.values, atol=1e-13)


def test_spectral_propagate_matches_bessel_series():
    m = 20.0
    psi, x = _cos_state(512, m)
    t = 0.8
    out = sch.spectral_propagate(psi, m, t)
    series = sch.single_shock_psi(x, t, m)
    np.testing.assert_allclose(out.values, series, atol=1e-10)


def test_plane_wave_mode_phase_rate():
    # e^{iqx} evolves by e^{−iq²t/2m}: the non-relativistic dispersion
    n, m, q = 128, 50.0, 3.0
    x = 2 * np.pi * np.arange(n) / n
    psi = sch.Wavefunction(np.exp(1j * q * x))
    out = sch.spectral_propagate(psi, m, 2.0)
    expected = np.exp(1j * q * x - 1j * q ** 2 * 2.0 / (2 * m))
    np.testing.assert_allclose(out.values, expected, atol=1e-13)


def test_greens_propagate_plane_wave():
    n, m, q, t = 128, 20.0, 2.0, 0.5
    x = 2 * np.pi * np.arange(n) / n
    psi0 = np.exp(1j * q * x)
    out = sch.greens_propagate(psi0, m, t, x_eval=x[:16])
    expected = np.exp(1j * q * x[:16] - 1j * q ** 2 * t / (2 * m))
    np.testing.assert_allclose(out.values, expected, atol=1e-4)


def test_greens_propagate_cross_oracle():
    # independent kernel quadrature against the exact spectral evolution
    m, t = 20.0, 0.5
    n = 256
    x = 2 * np.pi * np.arange(n) / n
    psi0 = np.exp(1j * m * np.cos(x))
    subset = x[::8]  # 32 evaluation points keep the quadrature affordable
    out = sch.greens_propagate(psi0, m, t, x_eval=subset)
    ref = sch.spectral_propagate(sch.Wavefunction(psi0), m, t).values[::8]
    rel = np.linalg.norm(out.values - ref) / np.linalg.norm(ref)
    assert rel < 1e-4


def test_greens_propagate_small_time_identity():
    n, m = 128, 20.0
    x = 2 * np.pi * np.arange(n) / n
    psi0 = np.exp(2j * x)  # gentle band-limited data
    out = sch.greens_propagate(psi0, m, 1e-3, x_eval=x[:8])
    np.testing.assert_allclose(out.values, psi0[:8], atol=1e-3)


def test_greens_propagate_rejects_bad_window():
    n, m = 128, 20.0
    x = 2 * np.pi * np.arange(n) / n
    psi0 = np.exp(1j * m * np.cos(x))
    with pytest.raises(ValueError):
        sch.greens_propagate(psi0, m, -0.5)


def test_greens_propagate_names_each_rejected_input():
    n, m = 128, 20.0
    x = 2 * np.pi * np.arange(n) / n
    psi0 = np.exp(1j * m * np.cos(x))
    with pytest.raises(ValueError, match="t must be positive"):
        sch.greens_propagate(psi0, m, 0.0)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1e6), st.floats(1e-8, 1e4), st.floats(0.0, 1e6))
def test_greens_window_fits_its_taper_and_bounds_the_endpoint_term(m, t, k_max):
    # the derived window leaves a flat part, and the taper spans enough
    # oscillations that the cos² ramp bounds the endpoint term by 1e-3
    flat, taper = sch._greens_window(m, t, k_max)
    assert flat > 0
    edge_rate = m * flat / t - k_max
    assert edge_rate > 0
    assert (2 * np.pi / (edge_rate * taper)) ** 3 <= 1e-3


@pytest.mark.parametrize("m, t, n", [(20.0, 0.5, 256), (50.0, 0.8, 256), (100.0, 1.0, 512)])
def test_greens_estimate_bounds_the_error_against_a_4n_panel_rule(monkeypatch, m, t, n):
    psi0, x = _cos_state(n, m)
    values, errors = sch._greens_quadrature(psi0.values, m, t, x)
    counts = sch._panel_counts
    monkeypatch.setattr(sch, "_panel_counts", lambda *a: [2 * p for p in counts(*a)])
    finer, _ = sch._greens_quadrature(psi0.values, m, t, x)
    assert np.all(np.abs(values - finer) <= errors)
    assert np.max(errors / np.maximum(1.0, np.abs(values))) <= 1e-10


@pytest.mark.parametrize("n, m, t", [(256, 20.0, 0.8), (512, 100.0, 1.0)])
def test_greens_propagate_full_grid_against_spectral_and_bessel(n, m, t):
    psi0, x = _cos_state(n, m)
    out = sch.greens_propagate(psi0.values, m, t).values
    for ref in (sch.spectral_propagate(psi0, m, t).values, sch.single_shock_psi(x, t, m)):
        assert np.linalg.norm(out - ref) / np.linalg.norm(ref) < 1e-4


def test_greens_values_do_not_depend_on_the_other_points():
    psi0, x = _cos_state(256, 20.0)
    together = sch.greens_propagate(psi0.values, 20.0, 0.5, x_eval=x).values
    order = np.random.default_rng(41).permutation(len(x))
    shuffled = sch.greens_propagate(psi0.values, 20.0, 0.5, x_eval=x[order]).values
    assert np.array_equal(shuffled, together[order])
    for i in (0, 77, 200):
        alone = sch.greens_propagate(psi0.values, 20.0, 0.5, x_eval=x[i:i + 1]).values
        assert alone[0] == together[i]


def test_greens_propagate_raises_when_the_rule_is_too_coarse(monkeypatch):
    psi0, x = _cos_state(256, 20.0)
    monkeypatch.setattr(sch, "_RADIANS_PER_PANEL", 64.0)
    with pytest.raises(sch.GreensConvergenceError):
        sch.greens_propagate(psi0.values, 20.0, 0.5, x_eval=x[::32])


def test_greens_propagate_loads_no_scipy():
    code = ("import numpy as np\n"
            "from qwhydro import schrodinger as sch\n"
            "x = 2 * np.pi * np.arange(256) / 256\n"
            "sch.greens_propagate(np.exp(20j * np.cos(x)), 20.0, 0.5, x_eval=x[:4])")
    assert scipy_modules_loaded_by(code) == "[]"


def test_single_shock_unit_density_at_small_time():
    x = np.linspace(0, 2 * np.pi, 64, endpoint=False)
    psi = sch.single_shock_psi(x, 1e-4, 50.0)
    np.testing.assert_allclose(np.abs(psi), 1.0, atol=1e-3)


def test_single_shock_density_spike_at_caustic():
    m = 100.0
    x = np.linspace(-0.2, 0.2, 81)
    early = np.abs(sch.single_shock_psi(x, 0.5, m)) ** 2
    at_caustic = np.abs(sch.single_shock_psi(x, 1.0, m)) ** 2
    assert at_caustic.max() > 4 * early.max()
    assert abs(x[np.argmax(at_caustic)]) < 0.02


def test_single_shock_solves_schrodinger_equation():
    # centered differences of the series solution: residual falls at 2nd order
    m = 20.0
    x = np.linspace(0.3, 1.1, 33)
    t = 0.9
    res = []
    for h in (2e-3, 1e-3):
        psi_t = (sch.single_shock_psi(x, t + h, m) - sch.single_shock_psi(x, t - h, m)) / (2 * h)
        psi_xx = (sch.single_shock_psi(x + h, t, m) - 2 * sch.single_shock_psi(x, t, m)
                  + sch.single_shock_psi(x - h, t, m)) / h ** 2
        res.append(np.max(np.abs(1j * psi_t + psi_xx / (2 * m))))
    assert res[1] < res[0]
    assert 3.0 < res[0] / res[1] < 5.0


def test_bessel_cutoff_band():
    for m in (10.0, 20.0, 100.0):
        k = sch.bessel_cutoff(m)
        assert k <= m + 40 * m ** (1 / 3)
        from scipy.special import jv
        assert abs(jv(k, m)) >= 1e-16
        assert abs(jv(k + 3, m)) < 1e-15


def test_schrodinger_hydro_cosine_phase():
    m = 100.0
    n = 1024
    x = 2 * np.pi * np.arange(n) / n
    psi = sch.Wavefunction(np.exp(1j * m * np.cos(x)))
    dens, v = sch.schrodinger_hydro(psi, m)
    np.testing.assert_allclose(dens, 1.0, atol=1e-13)
    np.testing.assert_allclose(v, -np.sin(x), atol=1e-10)


def test_schrodinger_hydro_simple_cases():
    n, m = 128, 10.0
    x = 2 * np.pi * np.arange(n) / n
    const = sch.Wavefunction(np.full(n, 0.5 - 0.3j))
    dens, v = sch.schrodinger_hydro(const, m)
    np.testing.assert_allclose(dens, abs(0.5 - 0.3j) ** 2, rtol=1e-14)
    np.testing.assert_allclose(v, 0.0, atol=1e-14)

    mode = sch.Wavefunction(np.exp(1j * 4 * x))
    _, v = sch.schrodinger_hydro(mode, m)
    np.testing.assert_allclose(v, 4.0 / m, rtol=1e-12)


def test_schrodinger_hydro_masks_near_zeros():
    n, m = 64, 5.0
    x = 2 * np.pi * np.arange(n) / n
    vals = np.sin(x / 2).astype(complex)  # vanishes at x = 0
    vals[0] = 0.0
    _, v = sch.schrodinger_hydro(sch.Wavefunction(vals), m)
    assert v[0] == 0.0


def test_velocity_antiderivative_recovers_phase():
    # ∫ m·v dx reproduces the phase up to a constant on smooth data
    m = 25.0
    n = 512
    p = wk.build_walk(n, m)
    spec = ini.single_cosine(q_max=m, mass=m)
    wf = ini.schrodinger_initial(p, spec)
    _, v = sch.schrodinger_hydro(wf, m)
    khat = np.fft.fftfreq(n, 1.0 / n)
    vhat = np.fft.fft(m * v)
    with np.errstate(divide="ignore", invalid="ignore"):
        phihat = np.where(khat != 0, vhat / (1j * khat), 0.0)
    phi_rec = np.fft.ifft(phihat).real
    phi_true = m * np.cos(p.x)
    shift = phi_true.mean() - phi_rec.mean()
    np.testing.assert_allclose(phi_rec + shift, phi_true, atol=1e-9)


@pytest.mark.parametrize("mass, t", [(100.0, 1.5), (5e-324, 1.5), (5e-324, 0.0),
                                     (2.7e-309, 1e-305), (3e-309, 1e-305),
                                     (1e-300, 1e-20), (1e-300, 1e-10), (1e-3, 1e305),
                                     (1.0, 1e306)])
def test_check_free_factors_refuses_what_spectral_propagate_cannot_take(mass, t):
    # the check evaluates the propagator's own expression at k = n/2: it refuses
    # exactly where spectral_propagate's factors leave the floats
    psi = sch.Wavefunction(np.exp(1j * np.cos(wk.build_walk(64, 1.0).x)))
    try:
        sch.check_free_factors(64, mass, t, "'mass' and 't_final'")
        refused = False
    except ValueError as exc:
        assert "'mass' and 't_final'" in str(exc)
        refused = True
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                out = sch.spectral_propagate(psi, mass, t)
        except (FloatingPointError, ValueError):
            assert refused
        else:
            assert not refused and np.all(np.isfinite(out.values))


def test_spectral_propagate_refuses_factors_out_of_the_floats_by_name():
    # 1/(2·mass) overflows: a named ValueError, where three RuntimeWarnings
    # and "wavefunction must be finite" came before
    psi = sch.Wavefunction(np.exp(1j * np.cos(wk.build_walk(64, 1.0).x)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="mass and t give the Schrödinger factor"):
            sch.spectral_propagate(psi, 5e-324, 0.5)


@pytest.mark.parametrize("n_sites, mass, refused", [
    (64, 1.7976931348623157e308, True), (64, 1e307, True), (64, 2.8e306, False),
    (2 ** 22, 1e300, False), (2 ** 22, 1e303, True)])
def test_check_velocity_scale_bounds_mass_times_n_sites(n_sites, mass, refused):
    if refused:
        with pytest.raises(ValueError, match="'mass'"):
            sch.check_velocity_scale(n_sites, mass, "'mass'")
    else:
        sch.check_velocity_scale(n_sites, mass, "'mass'")


def test_velocity_keeps_its_denominator_finite_where_the_check_passes():
    # at the largest mass the check passes on 64 sites, a state of mean |ψ|² 1,
    # as free propagation keeps a unit-modulus ψ₀'s, with all of it on one site
    # (|ψ|² = n_sites there) gives a finite denominator
    n = 64
    mass = 1.7976931348623157e308 / n
    sch.check_velocity_scale(n, mass, "'mass'")
    psi = sch.Wavefunction(np.sqrt(n) * np.eye(1, n, dtype=complex)[0])
    assert np.mean(np.abs(psi.values) ** 2) == 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, v = sch.schrodinger_hydro(psi, mass)
    assert np.all(np.isfinite(v))
