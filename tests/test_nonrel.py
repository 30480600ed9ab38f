import numpy as np
import pytest

from qwhydro import hydro as hy
from qwhydro import initial as ini
from qwhydro import nonrel as nr
from qwhydro import schrodinger as sch
from qwhydro import walk as wk


def _fields(n=256, mass=16.0, c=8.0):
    x = 2 * np.pi * np.arange(n) / n
    r = 1.0 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x)
    phi = 0.5 * np.sin(x) + 0.3 * np.cos(3 * x)
    return nr.NRFields(r=r, phi=phi, mass=mass, light_speed=c), x


def test_strip_rest_phase_roundtrip():
    p = wk.build_walk(128, 8.0)
    st = ini.plane_wave(p, 2.0)
    t = 0.37
    stripped = nr.strip_rest_phase(st, p.mass, t)
    back = nr.strip_rest_phase(stripped, p.mass, -t)
    np.testing.assert_allclose(back.left, st.left, atol=1e-15)
    np.testing.assert_allclose(back.right, st.right, atol=1e-15)
    same = nr.strip_rest_phase(st, p.mass, 0.0)
    np.testing.assert_allclose(same.left, st.left, atol=1e-16)


def test_strip_rest_phase_slows_rest_state():
    # after stripping, a rest-state trajectory has its spectral weight at the
    # zero temporal frequency: consecutive snapshots nearly coincide
    p = wk.build_walk(256, 32.0)
    traj = wk.evolve(ini.plane_wave(p, 0.0), p, 37, cadence=37)
    raw_first, raw_last = traj.snapshots[0], traj.snapshots[-1]
    moved_raw = np.max(np.abs(raw_last.left - raw_first.left))
    t = raw_last.step_index * p.dt
    stripped = nr.strip_rest_phase(raw_last, p.mass, t)
    moved_stripped = np.max(np.abs(stripped.left - raw_first.left))
    assert moved_stripped < 0.05 * moved_raw


def test_component_relation_second_order_is_identity():
    f, _ = _fields()
    st = nr.build_second_order_spinor(f)
    res_r, res_l = nr.component_relation_residual(st, f, order="second")
    assert res_r == 0.0
    # the mirrored relation differs at O(ν³)
    assert res_l < 1e-4


def test_component_relation_first_order_equals_dropped_term():
    from qwhydro._spectral import l2_norm, spectral_derivative
    f, _ = _fields()
    st = nr.build_second_order_spinor(f)
    res_r, _ = nr.component_relation_residual(st, f, order="first")
    eps = 2 * np.pi / st.n_sites
    dropped = l2_norm(
        spectral_derivative(st.left, order=2) / (2 * f.mass ** 2 * f.light_speed ** 2),
        eps)
    assert res_r == pytest.approx(dropped, rel=1e-12)


def test_component_relation_constant_fields():
    n = 64
    st = wk.SpinorField(np.full(n, 0.7 + 0j), np.full(n, 0.7 + 0j))
    f = nr.NRFields(r=np.full(n, 0.7), phi=np.zeros(n), mass=4.0, light_speed=2.0)
    res_r, res_l = nr.component_relation_residual(st, f, order="second")
    assert res_r == 0.0 and res_l == 0.0


def test_component_relation_rejects_rough_fields(rng):
    n = 128
    noisy = wk.SpinorField(rng.normal(size=n) + 1j * rng.normal(size=n),
                           np.ones(n, complex))
    f = nr.NRFields(r=np.ones(n), phi=np.zeros(n), mass=4.0, light_speed=2.0)
    with pytest.raises(ValueError):
        nr.component_relation_residual(noisy, f)


def test_deltas_first_order_cases():
    n = 128
    flat = nr.NRFields(r=np.ones(n), phi=np.zeros(n), mass=8.0, light_speed=2.0)
    dphi, drr = nr.deltas_first_order(flat)
    assert np.max(np.abs(dphi)) == 0.0 and np.max(np.abs(drr)) == 0.0

    x = 2 * np.pi * np.arange(n) / n
    k = 3.0
    ramp = nr.NRFields(r=np.ones(n), phi=k * x, mass=8.0, light_speed=2.0)
    dphi, drr = nr.deltas_first_order(ramp)
    np.testing.assert_allclose(drr, k / (8.0 * 2.0), atol=1e-12)
    np.testing.assert_allclose(dphi, 0.0, atol=1e-12)


def test_deltas_second_order_pure_phase_gradient():
    n, m, c, k = 128, 8.0, 2.0, 3.0
    x = 2 * np.pi * np.arange(n) / n
    f = nr.NRFields(r=np.ones(n), phi=k * x, mass=m, light_speed=c)
    dphi, drr = nr.deltas_second_order(f)
    np.testing.assert_allclose(drr, k / (m * c) + k ** 2 / (2 * m ** 2 * c ** 2),
                               atol=1e-12)
    np.testing.assert_allclose(dphi, 0.0, atol=1e-12)


def test_formula_transcriptions_against_sympy():
    # independent symbolic route for every implemented expansion formula
    import sympy as sp

    xs = sp.symbols("x", real=True)
    m_s, c_s = sp.symbols("m c", positive=True)
    r_expr = 1 + sp.Rational(1, 5) * sp.cos(xs) + sp.Rational(1, 10) * sp.sin(2 * xs)
    phi_expr = sp.Rational(1, 2) * sp.sin(xs) + sp.Rational(3, 10) * sp.cos(3 * xs)
    r_x, r_xx = sp.diff(r_expr, xs), sp.diff(r_expr, xs, 2)
    p_x, p_xx = sp.diff(phi_expr, xs), sp.diff(phi_expr, xs, 2)

    delta_phi_s = -r_x / (m_s * c_s * r_expr) - p_xx / (2 * m_s ** 2 * c_s ** 2)
    delta_rr_s = (p_x / (m_s * c_s) + p_x ** 2 / (2 * m_s ** 2 * c_s ** 2)
                  + (r_x ** 2 - r_expr * r_xx) / (2 * m_s ** 2 * c_s ** 2 * r_expr ** 2))
    n_s = (2 * r_expr ** 2 + 2 * r_expr ** 2 * p_x / (m_s * c_s)
           + (r_expr ** 2 * p_x ** 2 + r_x ** 2 - r_expr * r_xx) / (m_s ** 2 * c_s ** 2))
    u0_s = 1 + p_x ** 2 / (2 * m_s ** 2 * c_s ** 2)
    u1_s = p_x / (m_s * c_s) + (r_x ** 2 - r_expr * r_xx) / (
        2 * m_s ** 2 * c_s ** 2 * r_expr ** 2)
    w_s = (2 * m_s * c_s ** 2 * r_expr ** 2 + 2 * c_s * r_expr ** 2 * p_x
           + (r_expr ** 2 * p_x ** 2 - r_expr * r_xx) / m_s)

    mass, c = 16.0, 8.0
    fns = sp.lambdify((xs, m_s, c_s),
                      [delta_phi_s, delta_rr_s, n_s, u0_s, u1_s, w_s], "numpy")
    n_pts = 256
    x = 2 * np.pi * np.arange(n_pts) / n_pts
    ref = fns(x, mass, c)

    f = nr.NRFields(r=1 + 0.2 * np.cos(x) + 0.1 * np.sin(2 * x),
                    phi=0.5 * np.sin(x) + 0.3 * np.cos(3 * x),
                    mass=mass, light_speed=c)
    dphi, drr = nr.deltas_second_order(f)
    n_v, u0_v, u1_v, w_v = nr.hydro_second_order(f)
    for mine, theirs in zip((dphi, drr, n_v, u0_v, u1_v, w_v), ref):
        scale = max(1.0, float(np.max(np.abs(theirs))))
        assert np.max(np.abs(mine - theirs)) / scale < 1e-12


def test_two_route_consistency_order_sweep():
    residuals = []
    for c in (4.0, 8.0, 16.0):
        f, _ = _fields(c=c)
        st = nr.build_second_order_spinor(f)
        measured_dphi = np.angle(st.right / st.left)
        measured_drr = np.abs(st.right) / np.abs(st.left) - 1.0
        dphi, drr = nr.deltas_second_order(f)
        residuals.append(max(np.max(np.abs(measured_dphi - dphi)),
                             np.max(np.abs(measured_drr - drr))))
    exponents = np.diff(-np.log2(residuals))
    assert np.all((2.5 < exponents) & (exponents < 3.5))


def test_hydro_second_order_rest_fluid():
    n, m, c = 64, 8.0, 3.0
    f = nr.NRFields(r=np.full(n, 1 / np.sqrt(2)), phi=np.full(n, 0.3),
                    mass=m, light_speed=c)
    dens, u0, u1, w = nr.hydro_second_order(f)
    np.testing.assert_allclose(dens, 1.0, atol=1e-13)
    np.testing.assert_allclose(u0, 1.0, atol=1e-13)
    np.testing.assert_allclose(u1, 0.0, atol=1e-13)
    np.testing.assert_allclose(w, m * c * c, rtol=1e-13)


def test_hydro_second_order_matches_exact_chart():
    # against the exact fluid variables of the constructed spinor at c = 1
    residuals = []
    for mass in (32.0, 64.0, 128.0):
        n = 256
        x = 2 * np.pi * np.arange(n) / n
        f = nr.NRFields(r=0.8 + 0.1 * np.cos(x), phi=0.4 * np.sin(x),
                        mass=mass, light_speed=1.0)
        st = nr.build_second_order_spinor(f)
        h = hy.hydro_vars(hy.currents(st), hy.phases(st), mass)
        n2, u02, u12, w2 = nr.hydro_second_order(f)
        residuals.append(max(
            np.max(np.abs(n2 - h.n)),
            np.max(np.abs(u02 - h.u0)),
            np.max(np.abs(u12 - h.u1)),
            np.max(np.abs(w2 - h.w)) / mass,
        ))
    ratios = np.array(residuals[:-1]) / np.array(residuals[1:])
    assert np.all((5.5 < ratios) & (ratios < 11.0))


def test_klein_gordon_residual_refines():
    values = []
    for n in (512, 1024, 2048):
        p = wk.build_walk(n, 16.0)
        traj = wk.evolve(ini.plane_wave(p, 1.0), p, 4, cadence=1)
        values.append(nr.klein_gordon_residual(traj, p))
    for comp in (0, 1):
        assert values[0][comp] > values[1][comp] > values[2][comp]


def test_nonrel_compare_zero_time_and_monotone():
    mass, n = 128.0, 2048
    p = wk.build_walk(n, mass)
    spec = ini.multimode_benchmark(q_max=0.1 * mass, mass=mass)
    state = ini.phase_modulated_state(p, spec)
    psi0 = ini.schrodinger_initial(p, spec)
    steps = int(0.5 / p.dt)
    traj = wk.evolve(state, p, steps, cadence=steps)

    records = nr.nonrel_compare(
        traj, lambda t: sch.spectral_propagate(psi0, mass, t), mass)
    assert records[0]["time"] == 0.0
    assert records[0]["density_l2"] < 0.01
    assert records[0]["velocity_l2"] < 1e-10
    assert records[-1]["density_l2"] < 0.2


def test_nonrel_compare_grid_mismatch():
    mass = 64.0
    p = wk.build_walk(256, mass)
    spec = ini.single_cosine(q_max=6.4, mass=mass)
    traj = wk.evolve(ini.phase_modulated_state(p, spec), p, 0, cadence=1)
    bad = sch.Wavefunction(np.ones(128, complex))
    with pytest.raises(ValueError):
        nr.nonrel_compare(traj, lambda t: bad, mass)


def test_relative_l2_keeps_the_unscaled_bits_and_does_not_overflow():
    rng = np.random.default_rng(61)
    for scale in (1e-3, 1.0, 7.0, 1e100):
        diff, ref = scale * rng.normal(size=64), scale * rng.normal(size=64)
        with np.errstate(all="raise"):
            plain = float(np.linalg.norm(diff) / max(np.linalg.norm(ref), 1e-12))
        assert nr._relative_l2(diff, ref, 1e-12) == plain
    # the squares of 1e200 overflow; the relative norms are 1, 4e212 over the
    # floor, and 0
    big = np.full(16, 1e200)
    with np.errstate(all="raise"):
        assert nr._relative_l2(big, big) == 1.0
        assert nr._relative_l2(big, np.zeros(16), 1e-12) == pytest.approx(4e212, rel=1e-15)
        assert nr._relative_l2(np.zeros(16), big) == 0.0


def test_check_velocity_norms_refuses_only_an_unbounded_relative_error():
    nr.check_velocity_norms(64, 1e-200, 1.5, "'mass'")
    nr.check_velocity_norms(4096, 1e-270, 1.5, "'mass'")
    with pytest.raises(ValueError, match="'mass'"):
        nr.check_velocity_norms(64, 1e-300, 1.5, "'mass'")
    with pytest.raises(ValueError, match="'mass'"):  # a steep walk's density counts too
        nr.check_velocity_norms(64, 1e-250, 1e95, "'mass'")
