import cmath
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gamma

from qwhydro import asymptotics as asy
from qwhydro import schrodinger as sch
from qwhydro.config import parse_config

from conftest import pearcey_mp, scipy_modules_loaded_by

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

PEARCEY_00 = (gamma(0.25) / 2.0) * cmath.exp(1j * math.pi / 8.0)


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# Airy
# ---------------------------------------------------------------------------

def test_airy_at_zero_closed_forms():
    assert asy.airy(0.0) == pytest.approx(3 ** (-2 / 3) / gamma(2 / 3), abs=1e-14)
    h = 1e-5
    numeric = (asy.airy(h) - asy.airy(-h)) / (2 * h)
    assert numeric == pytest.approx(-(3 ** (-1 / 3)) / gamma(1 / 3), abs=1e-6)
    assert asy.airy_prime(0.0) == pytest.approx(-(3 ** (-1 / 3)) / gamma(1 / 3),
                                                abs=1e-14)


def test_airy_against_mpmath_dense_grid():
    # asy.airy is scipy's, so the reference comes from a different library
    z = np.linspace(-14.0, 14.0, 561)
    mine = asy.airy(z)
    ref = np.array([float(mpmath.airyai(v)) for v in z])
    assert np.max(np.abs(mine - ref)) < 1e-10
    mine_p = asy.airy_prime(z)
    ref_p = np.array([float(mpmath.airyai(v, derivative=1)) for v in z])
    assert np.max(np.abs(mine_p - ref_p)) < 1e-9


def test_airy_decaying_asymptotic_form():
    z = 10.0
    xi = (2 / 3) * z ** 1.5
    leading = math.exp(-xi) / (2 * math.sqrt(math.pi) * z ** 0.25)
    # leading-order form is good to its own first correction u1/xi
    assert abs(asy.airy(z) - leading) < (5 / 72) / xi * leading * 1.1


def test_airy_rejects_nonfinite():
    with pytest.raises(ValueError):
        asy.airy(float("nan"))


def test_airy_solves_its_ode_without_scipy():
    # Ai is the solution of Ai″ = z·Ai with the closed-form values at 0;
    # checked from centered differences of asy.airy alone (no scipy oracle).
    assert asy.airy(0.0) == pytest.approx(3 ** (-2 / 3) / math.gamma(2 / 3), abs=1e-15)
    assert asy.airy_prime(0.0) == pytest.approx(-(3 ** (-1 / 3)) / math.gamma(1 / 3),
                                                abs=1e-15)
    h = 1e-3
    z = np.linspace(-10.0, 5.0, 1501)
    ai, ai_up, ai_down = asy.airy(z), asy.airy(z + h), asy.airy(z - h)
    # truncation h²/12·|Ai⁗| ≤ 2.5e-6 here (Ai⁗ = 2Ai′ + z²Ai), rounding ~1e-9
    second = (ai_up - 2.0 * ai + ai_down) / h ** 2
    assert np.max(np.abs(second - z * ai)) < 5e-6
    first = (ai_up - ai_down) / (2.0 * h)
    assert np.max(np.abs(first - asy.airy_prime(z))) < 5e-6


def test_airy_arrays_keep_their_shape_and_reject_nonfinite():
    z = np.linspace(-3.0, 3.0, 12).reshape(3, 4)
    assert asy.airy(z).shape == (3, 4)
    assert asy.airy_prime(z).shape == (3, 4)
    with pytest.raises(ValueError):
        asy.airy_prime(np.array([0.0, np.inf]))


# ---------------------------------------------------------------------------
# Saddle points
# ---------------------------------------------------------------------------

def test_saddles_triple_root():
    roots = asy.saddle_points(0.0, 0.0)
    np.testing.assert_allclose(roots, 0.0, atol=1e-15)


def test_saddles_factorized_case():
    roots = asy.saddle_points(2.0, 0.0)
    np.testing.assert_allclose(sorted(r.real for r in roots), [-1.0, 0.0, 1.0],
                               atol=1e-12)
    assert all(abs(r.imag) < 1e-14 for r in roots)


def test_saddles_generic_three_real():
    roots = asy.saddle_points(3.0, 1.0)
    assert all(abs(r.imag) < 1e-12 for r in roots)
    for r in roots:
        assert abs(4 * r ** 3 - 2 * 3.0 * r + 1.0) < 1e-12


@settings(max_examples=200, deadline=None)
@given(st.floats(-25, 25), st.floats(-25, 25))
@example(0.0, 0.0)  # p = q = 0: the triple root, by Cardano's s = 0 guard
@example(0.0, 3.0)  # p = 0: u³ = −q, by Cardano
@example(0.0, -3.0)
@example(1.56e-272, 0.0)  # p·amp underflows to 0 in the trigonometric branch
def test_saddles_residuals_small(T, X):
    roots = asy.saddle_points(T, X)
    assert len(roots) == 3
    scale = max(1.0, abs(T) ** 1.5, abs(X))
    for r in roots:
        assert abs(4 * r ** 3 - 2 * T * r + X) < 1e-10 * scale


@settings(max_examples=100, deadline=None)
@given(st.floats(-20, 20), st.floats(-20, 20))
def test_zone_matches_real_root_count(T, X):
    delta = asy.discriminant(T, X)
    if abs(delta) < 1e-6:
        return  # too close to the caustic to count roots reliably
    roots = asy.saddle_points(T, X)
    n_real = sum(abs(r.imag) < 1e-9 for r in roots)
    assert (delta > 0) == (n_real == 3)


# ---------------------------------------------------------------------------
# Pearcey integral
# ---------------------------------------------------------------------------

def test_pearcey_at_origin_closed_form():
    value = asy.pearcey(0.0, 0.0, 1e-10)
    assert abs(value - PEARCEY_00) < 1e-8


def test_pearcey_symmetry_randomized():
    rng = np.random.default_rng(7)
    for _ in range(8):
        T = rng.uniform(-6, 6)
        X = rng.uniform(-6, 6)
        assert abs(asy.pearcey(T, X, 1e-8) - asy.pearcey(T, -X, 1e-8)) < 1e-8


def test_pearcey_tol_contract():
    with pytest.raises(ValueError):
        asy.pearcey(0.0, 0.0, 1e-2)
    with pytest.raises(ValueError):
        asy.pearcey(0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        asy.pearcey(float("inf"), 0.0)


def test_pearcey_raises_when_conditioning_beats_tol():
    # at this corner the rotated integrand peaks around e^20 and double
    # precision cannot certify 1e-8 absolute accuracy
    with pytest.raises(asy.PearceyConvergenceError):
        asy.pearcey(-9.18, -9.67, 1e-8)


def test_pearcey_rotation_vs_direct_window():
    rng = np.random.default_rng(11)
    pts = [(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(6)]
    pts += [(0.0, 0.0), (10.0, 10.0), (-10.0, 0.0)]
    for T, X in pts:
        a = asy.pearcey(T, X, 1e-6)
        b = asy.pearcey_direct(T, X)
        assert abs(a - b) < 1e-6


def test_pearcey_direct_at_origin():
    assert abs(asy.pearcey_direct(0.0, 0.0) - PEARCEY_00) < 1e-7


def test_pearcey_array_matches_scalar_routes():
    # mpmath on the same contour to 40 digits and the windowed real-axis
    # route, neither of which shares the array rule's quadrature
    rng = np.random.default_rng(23)
    T = rng.uniform(-10, 10, 12)
    X = rng.uniform(-10, 10, 12)
    values, errors = asy.pearcey_array(T, X)
    for t, x, v, e in zip(T, X, values, errors):
        assert abs(v - pearcey_mp(t, x)) <= e
        assert abs(v - asy.pearcey_direct(t, x)) < 1e-6


def test_pearcey_is_one_point_of_pearcey_array():
    # a seeded sample, and the shipped map window at mass 50, where the
    # rotated integrand is roundoff-limited and tol 1e-6 refuses points
    rng = np.random.default_rng(41)
    chart = asy.ShockChart.from_mass(50.0)
    T, X = asy.shock_coords(np.linspace(-1.0, 1.0, 41)[None, :],
                            np.linspace(0.6, 1.8, 25)[:, None], chart)
    T = np.concatenate([rng.uniform(-12, 12, 40), np.broadcast_to(-T, X.shape).ravel()])
    X = np.concatenate([rng.uniform(-25, 25, 40), X.ravel()])
    tol = 1e-6
    values, errors = asy.pearcey_array(T, X)
    for t, x, value, error in zip(T, X, values, errors):
        if error > tol:
            with pytest.raises(asy.PearceyConvergenceError):
                asy.pearcey(t, x, tol)
        else:
            one = asy.pearcey(t, x, tol)
            assert type(one) is complex and one == complex(value)
    assert 0 < np.count_nonzero(errors > tol) < len(T)


def test_pearcey_loads_no_scipy():
    code = "from qwhydro import asymptotics as asy\nasy.pearcey(1.0, -2.0, 1e-8)"
    assert scipy_modules_loaded_by(code) == "[]"


def test_validating_a_pearcey_map_loads_no_numpy_ma():
    # validation runs pearcey_array at the window's corners: np.unique there
    # imported numpy.ma, about 15 ms of every fresh process that parses a map
    code = ("from qwhydro.config import parse_config\n"
            f"parse_config(open({str(CONFIGS / 'pearcey_map.cfg')!r}).read())\n"
            "import sys\nprint('numpy.ma' in sys.modules)")
    assert scipy_modules_loaded_by(code).splitlines()[0] == "False"


def test_pearcey_array_origin_and_symmetry():
    values, errors = asy.pearcey_array([0.0], [0.0])
    assert abs(values[0] - PEARCEY_00) < 1e-14
    assert errors[0] < 1e-13
    rng = np.random.default_rng(29)
    T = rng.uniform(-8, 8, 10)
    X = rng.uniform(-8, 8, 10)
    plus, err_plus = asy.pearcey_array(T, X)
    minus, err_minus = asy.pearcey_array(T, -X)
    assert np.all(np.abs(plus - minus) <= err_plus + err_minus)


def test_pearcey_array_flags_conditioning_corner():
    # where scalar pearcey raises at tol 1e-8, the estimate says so too
    _, errors = asy.pearcey_array([-9.18], [-9.67])
    assert errors[0] > 1e-8


def test_pearcey_array_values_do_not_depend_on_the_block():
    # near the origin many points share a panel count and are split over
    # several numpy calls; farther out the counts spread
    rng = np.random.default_rng(31)
    T = np.concatenate([rng.uniform(-2, 2, 60), rng.uniform(-12, 12, 60)])
    X = np.concatenate([rng.uniform(-2, 2, 60), rng.uniform(-25, 25, 60)])
    together, err_together = asy.pearcey_array(T, X)
    order = rng.permutation(len(T))
    shuffled, err_shuffled = asy.pearcey_array(T[order], X[order])
    assert np.array_equal(shuffled, together[order])
    assert np.array_equal(err_shuffled, err_together[order])
    for i in range(0, len(T), 9):
        alone, err_alone = asy.pearcey_array(T[i], X[i])
        assert alone == together[i]
        assert err_alone == err_together[i]


def test_pearcey_array_rejects_nonfinite():
    with pytest.raises(ValueError):
        asy.pearcey_array([0.0, float("nan")], [0.0, 0.0])


def test_pearcey_array_estimate_bounds_the_actual_error():
    # the shipped map window at mass 50, where the rotated integrand grows
    # to e^{23} and rounding limits the result: sample at random and at the
    # largest estimates still under the map's tol
    chart = asy.ShockChart.from_mass(50.0)
    xs = np.linspace(-1.0, 1.0, 41)
    ts = np.linspace(0.6, 1.8, 25)
    T, X = asy.shock_coords(xs[None, :], ts[:, None], chart)
    T = np.broadcast_to(-T, X.shape).ravel()
    X = X.ravel()
    values, errors = asy.pearcey_array(T, X)
    under = np.flatnonzero(errors <= 1e-6)
    ranked = under[np.argsort(errors[under])]
    rng = np.random.default_rng(37)
    picks = list(ranked[-3:]) + list(rng.choice(ranked, 5, replace=False))
    for i in picks:
        exact = pearcey_mp(T[i], X[i])
        assert abs(values[i] - exact) <= errors[i]


def test_pearcey_panels_at_the_window_corner_bound_every_point():
    # a map's work is bounded by the panels at the window's (max |T|, max |X|)
    xs, ts = np.linspace(-1.0, 1.0, 41), np.linspace(0.6, 1.8, 25)
    for mass in (20.0, 50.0, 100.0):
        T, X = asy.shock_coords(xs[None, :], ts[:, None], asy.ShockChart.from_mass(mass))
        T, X = np.broadcast_arrays(-T, X)
        length, panels = asy.pearcey_panels(T, X)
        corner_length, corner_panels = asy.pearcey_panels(np.max(np.abs(T)), np.max(np.abs(X)))
        assert np.all(length <= corner_length) and np.all(panels <= corner_panels)
        assert np.max(panels) == corner_panels  # this window attains it at t_min, |x| = 1
    # an extreme point reads a float beyond every budget (inf or nan), never a
    # wrapped integer
    with np.errstate(all="ignore"):
        for extreme in (1e100, 1e300):
            assert not asy.pearcey_panels(extreme, extreme)[1] <= 2.0 ** 63


def test_pearcey_truncation_is_the_root_of_the_tail_equation():
    # elementwise over every sign combination, the shape kept; in exact
    # arithmetic the cut never falls short of the root, so the dropped tails
    # stay below e^{−_TAIL_EFOLDS}, and it overshoots by roundoff only
    rng = np.random.default_rng(43)
    t = np.concatenate([[0.0, 0.0, 30.0, 30.0], rng.uniform(0, 30, 8)])
    x = np.concatenate([[0.0, 100.0, 0.0, 100.0], rng.uniform(0, 100, 8)])
    signs = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    T = signs[:, :1, None] * t.reshape(3, 4)
    X = signs[:, 1:, None] * x.reshape(3, 4)
    # a tail of e^{−36} ≈ 2e-16 is the most the cut may drop at roundoff
    efolds = asy._TAIL_EFOLDS
    assert efolds >= 36
    length = asy._pearcey_truncation(T, X)
    assert length.shape == T.shape == (4, 3, 4)
    for cut, a, b in zip(length.ravel(), np.abs(T).ravel(), np.abs(X).ravel()):
        L = Fraction(float(cut))
        assert L ** 4 - Fraction(float(a)) * L ** 2 - Fraction(float(b)) * L >= efolds
        with mpmath.workdps(30):
            root = mpmath.findroot(lambda y: y ** 4 - a * y ** 2 - b * y - efolds, cut)
            assert abs(cut / root - 1) <= 1e-12


def test_pearcey_array_estimate_bounds_the_actual_error_near_the_origin():
    # small |T|, |X|, where the cut shrank most (L ≈ 2.5 here, against a
    # 4 the reference's cut never goes below)
    rng = np.random.default_rng(47)
    T = rng.uniform(-3, 3, 8)
    X = rng.uniform(-3, 3, 8)
    values, errors = asy.pearcey_array(T, X)
    for t, x, value, error in zip(T, X, values, errors):
        assert abs(value - pearcey_mp(t, x)) <= error


def _exponent(T, X, length, u):
    """s and the parts of the rotated exponent at nodes u, each operation on
    fresh temporaries, in `_composite_gl`'s order."""
    s = length[:, None] * u
    s2 = s * s
    s4 = s2 * s2
    quad = (asy._SQRT_HALF * T)[:, None] * s2
    re = (-asy._SIN_PI8 * X)[:, None] * s - quad - s4
    im = (asy._COS_PI8 * X)[:, None] * s + quad
    swing = 1.0 + np.abs(X)[:, None] * np.abs(s) + 2.0 * np.abs(T)[:, None] * s2 + 4.0 * s4
    return np.exp(re), np.cos(im), np.sin(im), swing


# The doubling rule `pearcey_array` used before the Gauss–Kronrod rule: n
# panels of 16-node Gauss–Legendre for the coarse sum Q(n), 2n for the value
# Q(2n), each a fresh evaluation of its own nodes.  It is the oracle of the
# new rule, and its Q(n) is the one the Kronrod kernel must keep to the bit.
def _composite_gl_doubling(T, X, length, n_panels, rounding=False):
    nodes, weights = asy.gauss_legendre(16)
    u = ((2.0 * np.arange(n_panels)[:, None] + 1.0 + nodes) / n_panels - 1.0).ravel()
    w = np.tile(weights, n_panels) / n_panels
    growth, cos, sin, swing = _exponent(T, X, length, u)
    weighted = w * growth
    total = (weighted * cos).sum(axis=-1) + 1j * (weighted * sin).sum(axis=-1)
    if not rounding:
        return asy._ROT * length * total, None
    return asy._ROT * length * total, asy.EPS * length * (weighted * swing).sum(axis=-1)


def _pearcey_doubling(T, X):
    """Values Q(2n) and estimates |Q(2n) − Q(n)| + rounding of the doubling
    rule, on the cut and panel counts `pearcey_array` uses."""
    length, panels = asy.pearcey_panels(T, X)
    values, errors = np.empty(T.shape, dtype=complex), np.empty(T.shape)
    for n in np.unique(panels).astype(int):
        at = panels == n
        args = (T[at], X[at], length[at])
        coarse, _ = _composite_gl_doubling(*args, n)
        fine, rounding = _composite_gl_doubling(*args, 2 * n, rounding=True)
        values[at], errors[at] = fine, np.abs(fine - coarse) + rounding
    return values, errors


# The Kronrod kernel on fresh temporaries and a rule built here from the
# K33 table: the in-place `_composite_gl` keeps these operations and their
# order (only commuted products), so `pearcey_array` must give its value
# and estimate bits at every point.
def _composite_gk_allocating(T, X, length, n_panels):
    nodes, weights = asy.gauss_kronrod(16)
    gauss_u = (2.0 * np.arange(n_panels)[:, None] + 1.0 + nodes[1::2]) / n_panels - 1.0
    kronrod_u = (2.0 * np.arange(n_panels)[:, None] + 1.0 + nodes[::2]) / n_panels - 1.0
    u = np.concatenate([gauss_u.ravel(), kronrod_u.ravel()])
    w = np.concatenate([np.tile(weights[1::2], n_panels), np.tile(weights[::2], n_panels)])
    w = w / n_panels
    gauss_w = np.tile(asy.gauss_legendre(16)[1], n_panels) / n_panels
    growth, cos, sin, swing = _exponent(T, X, length, u)
    g = 16 * n_panels
    weighted = gauss_w * growth[:, :g]
    coarse = (weighted * cos[:, :g]).sum(axis=-1) + 1j * (weighted * sin[:, :g]).sum(axis=-1)
    weighted = w * growth
    fine = (weighted * cos).sum(axis=-1) + 1j * (weighted * sin).sum(axis=-1)
    return (asy._ROT * length * fine, asy._ROT * length * coarse,
            asy.EPS * length * (weighted * swing).sum(axis=-1))


def _assert_kernel_bits(monkeypatch, T, X):
    """pearcey_array's values and estimates at (T, X) equal, bit for bit,
    those of the allocating kernel; inf and nan included."""
    def allocating(T, X, length, rule):
        return _composite_gk_allocating(T, X, length, len(rule[2]) // 16)

    with np.errstate(all="ignore"):
        values, errors = asy.pearcey_array(T, X)
        with monkeypatch.context() as patch:
            patch.setattr(asy, "_composite_gl", allocating)
            ref_values, ref_errors = asy.pearcey_array(T, X)
    assert np.array_equal(values.view(np.uint64), ref_values.view(np.uint64))
    assert np.array_equal(errors.view(np.uint64), ref_errors.view(np.uint64))
    return values, errors


def _shipped_window(mass):
    chart = asy.ShockChart.from_mass(mass)
    T, X = asy.shock_coords(np.linspace(-1.0, 1.0, 41)[None, :],
                            np.linspace(0.6, 1.8, 25)[:, None], chart)
    return np.broadcast_arrays(-T, X)


def _mixed_blocks():
    # many points share the smallest panel counts and span several blocks,
    # the last one partly filled; the rest spread over a range of counts
    rng = np.random.default_rng(53)
    T = np.concatenate([rng.uniform(-2, 2, 200), rng.uniform(-15, 15, 200)])
    X = np.concatenate([rng.uniform(-2, 2, 200), rng.uniform(-40, 40, 200)])
    return T, X


@pytest.mark.parametrize("mass", (20.0, 50.0, 100.0))
def test_pearcey_array_keeps_the_allocating_kernels_bits_on_the_shipped_window(
        monkeypatch, mass):
    _assert_kernel_bits(monkeypatch, *_shipped_window(mass))


def test_pearcey_array_keeps_the_allocating_kernels_bits_near_the_newton_range(
        monkeypatch):
    # the cut's Newton steps are documented to |T| ≤ 300, |X| ≤ 10⁴; out
    # there the integrand overflows on most of the plane, and inf and nan
    # must come out alike too.  Points of at most 6e5 nodes keep the
    # allocating kernel's working set under 100 MB.
    T = np.array([300.0, -300.0, 0.0, 0.0, 30.0, -30.0, 30.0, -30.0, 250.0, -3.0])
    X = np.array([0.0, 0.0, 3000.0, -3000.0, 100.0, -100.0, -100.0, 100.0, 900.0, 1000.0])
    assert np.all(asy.pearcey_nodes(T, X) <= 6e5)
    values, _ = _assert_kernel_bits(monkeypatch, T, X)
    assert np.isfinite(values[0]) and not np.all(np.isfinite(values))


def test_pearcey_array_keeps_the_allocating_kernels_bits_over_mixed_blocks(monkeypatch):
    T, X = _mixed_blocks()
    panels = asy.pearcey_panels(T, X)[1]
    counts = np.unique(panels, return_counts=True)[1]
    per_block = asy._BLOCK_NODES // int(asy.pearcey_nodes(0.0, 0.0))
    assert asy.pearcey_panels(0.0, 0.0)[1] == panels.min()
    assert len(counts) >= 20 and counts[0] > per_block and counts[0] % per_block
    _assert_kernel_bits(monkeypatch, T, X)


@pytest.mark.parametrize("points", [*(f"shipped_{m}" for m in (20, 50, 100)), "mixed"])
def test_the_kronrod_rule_agrees_with_the_doubling_rule_within_both_estimates(points):
    T, X = (_mixed_blocks() if points == "mixed"
            else _shipped_window(float(points.split("_")[1])))
    T, X = np.ravel(T), np.ravel(X)
    values, errors = asy.pearcey_array(T, X)
    old_values, old_errors = _pearcey_doubling(T, X)
    assert np.all(np.abs(values - old_values) <= errors + old_errors)


def test_the_kronrod_kernels_gauss_sum_is_the_doubling_rules_coarse_sum():
    # Q(n) from the Gauss nodes the Kronrod rule shares, to the bit, on
    # blocks of one point and of many, over a range of panel counts
    rng = np.random.default_rng(59)
    T, X = rng.uniform(-15, 15, 40), rng.uniform(-40, 40, 40)
    length = asy.pearcey_panels(T, X)[0]
    for n in (6, 7, 16, 41):
        coarse = asy._composite_gl(T, X, length, asy._panel_rule(n))[1]
        reference, _ = _composite_gl_doubling(T, X, length, n)
        assert np.array_equal(coarse.view(np.uint64), reference.view(np.uint64))
        one = asy._composite_gl(T[:1], X[:1], length[:1], asy._panel_rule(n))[1]
        assert one.view(np.uint64)[0] == reference.view(np.uint64)[0]


def test_pearcey_nodes_counts_the_kronrod_rule_on_each_panel():
    T, X = _mixed_blocks()
    panels = asy.pearcey_panels(T, X)[1]
    assert np.array_equal(asy.pearcey_nodes(T, X), 33.0 * panels)
    u, w, gauss_w = asy._panel_rule(7)
    assert len(u) == len(w) == 33 * 7 and len(gauss_w) == 16 * 7


# ---------------------------------------------------------------------------
# Shock chart
# ---------------------------------------------------------------------------

def test_shock_map_special_points():
    chart = asy.ShockChart.from_mass(20.0)
    T, X, _ = asy.shock_map(0.3, 1.0, chart)
    assert T == pytest.approx(0.0, abs=1e-14)
    T, X, _ = asy.shock_map(0.0, 1.7, chart)
    assert X == pytest.approx(0.0, abs=1e-14)
    with pytest.raises(ValueError):
        asy.shock_map(0.0, 0.0, chart)


def test_shock_chart_constants():
    chart = asy.ShockChart.from_mass(20.0)
    assert chart.a * 24 == pytest.approx(20.0, rel=1e-15)
    assert chart.eps * 20.0 == pytest.approx(1.0, rel=1e-15)


def test_shock_map_regression_values():
    # frozen reference values at m=20, (x, t) = (0.1, 1.2)
    chart = asy.ShockChart.from_mass(20.0)
    T, X, A = asy.shock_map(0.1, 1.2, chart)
    assert T == pytest.approx(1.8257418583505534, rel=1e-13)
    assert X == pytest.approx(-1.7443918989868428, rel=1e-13)
    assert A.real == pytest.approx(1.5361275151812253, rel=1e-12)
    assert A.imag == pytest.approx(0.7389659483128364, rel=1e-12)


def test_chart_point_inverts_shock_map():
    chart = asy.ShockChart.from_mass(20.0)
    x, t = asy.chart_point(-3.0, 2.0, chart)
    T, X, _ = asy.shock_map(x, t, chart)
    assert T == pytest.approx(-3.0, rel=1e-12)
    assert X == pytest.approx(2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# Zones
# ---------------------------------------------------------------------------

def test_classify_zone_reference_points():
    assert asy.classify_zone(0.0, 0.0).zone is asy.Zone.II
    assert asy.classify_zone(-5.0, 0.0).zone is asy.Zone.I
    assert asy.classify_zone(5.0, 0.0).zone is asy.Zone.III


def test_classify_zone_single_saddle_on_negative_axis():
    point = asy.classify_zone(-5.0, 0.0)
    roots = asy.saddle_points(point.T, point.X)
    assert sum(abs(r.imag) < 1e-9 for r in roots) == 1


def test_discriminant_matches_caustic_curve():
    for T in (1.0, 3.0, 5.0):
        X = asy.caustic_x(T)
        assert abs(asy.discriminant(T, X)) < 1e-12


def _assert_labels_match_classify_zone(T, X):
    T, X = np.broadcast_arrays(T, X)
    labels = asy.zone_labels(T, X)
    assert labels.shape == T.shape
    for t_val, x_val, label in zip(T.ravel(), X.ravel(), labels.ravel()):
        assert label == asy.classify_zone(float(t_val), float(x_val)).zone
    return labels


def test_zone_labels_match_classify_zone_on_the_zones_map_window():
    cfg = parse_config((CONFIGS / "zones_map.cfg").read_text())
    xs = np.linspace(cfg.x_min, cfg.x_max, cfg.nx)
    ts = np.linspace(cfg.t_min, cfg.t_max, cfg.nt)
    T, X = asy.shock_coords(xs[None, :], ts[:, None], asy.ShockChart.from_mass(cfg.mass))
    labels = _assert_labels_match_classify_zone(T, X)
    assert labels.shape == (61, 81)
    assert set(np.unique(labels)) == {1, 2, 3}


def test_zone_labels_reject_a_non_finite_discriminant():
    # a NaN chart point, and one whose T³ or X² overflows, have no zone,
    # in an array or alone
    for T, X in ((np.nan, 0.0), (1e200, 0.0), (0.0, np.inf), (1e200, 1e200)):
        with pytest.raises(ValueError, match="finite discriminant"):
            asy.zone_labels(np.array([1.0, T]), np.array([0.0, X]))
        with pytest.raises(ValueError, match="finite discriminant"):
            asy.classify_zone(T, X)


def _ulps_around(value, n=8):
    """`value` and its n nearest floats on each side, in increasing order."""
    below, above = [value], [value]
    for _ in range(n):
        below.append(float(np.nextafter(below[-1], -np.inf)))
        above.append(float(np.nextafter(above[-1], np.inf)))
    return below[::-1] + above[1:]


def test_zone_labels_match_classify_zone_at_the_band_edges():
    # the floats nearest Δ = ±DELTA_BAND on either side, approached along X
    # at fixed T and along T on the axis X = 0
    for edge, zones in ((-asy.DELTA_BAND, {1, 2}), (asy.DELTA_BAND, {2, 3})):
        points = [(T, X) for T in (-3.0, 0.0, 1.5, 4.0, 6.0)
                  if T ** 3 / 2.0 - edge > 0
                  for X in _ulps_around(math.sqrt((T ** 3 / 2.0 - edge) * 16.0 / 27.0))]
        t_edge = math.copysign(abs(2.0 * edge) ** (1.0 / 3.0), edge)
        points += [(T, 0.0) for T in _ulps_around(t_edge)]
        deltas = [asy.discriminant(T, X) for T, X in points]
        assert min(deltas) < edge < max(deltas)
        T, X = np.array(points).T
        assert set(_assert_labels_match_classify_zone(T, X)) == zones


@st.composite
def _near_a_band_edge(draw):
    """A (T, X) at most 8 ulps of T from Δ = ±DELTA_BAND, on either side."""
    edge = draw(st.sampled_from([-asy.DELTA_BAND, asy.DELTA_BAND]))
    X = draw(st.floats(-100.0, 100.0))
    T = float(np.cbrt(2.0 * (edge + 27.0 * X * X / 16.0)))
    ulps = draw(st.integers(-8, 8))
    for _ in range(abs(ulps)):
        T = float(np.nextafter(T, math.copysign(np.inf, ulps)))
    return T, X


_ANYWHERE = st.tuples(st.floats(-1e100, 1e100), st.floats(-1e100, 1e100))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(_ANYWHERE, _near_a_band_edge()), min_size=1, max_size=16))
def test_discriminant_of_an_array_is_the_scalar_one_on_every_element(points):
    T, X = np.array(points).T
    want = np.array([asy.discriminant(t, x) for t, x in points])
    assert asy.discriminant(T, X).tobytes() == want.tobytes()
    _assert_labels_match_classify_zone(T, X)


DEEP_ZONE_I = [(-14.0, x) for x in (-10.0, -5.0, 0.0, 5.0, 10.0)] + \
              [(-10.0, x) for x in (-10.0, -5.0, 0.0, 5.0, 10.0)]

DEEP_ZONE_III = [(4.5, 1.82), (4.5, -1.82), (5.0, 1.49), (5.0, -1.49),
                 (6.0, 0.0), (6.0, 2.0), (6.0, -2.0), (8.0, 0.0),
                 (8.0, 3.0), (8.0, -3.0)]


def _zone_value(T, X, chart, zone):
    """shock_zone_value at the (x, t) charted to (T, X), checked to lie in `zone`."""
    x, t = asy.chart_point(T, X, chart)
    out = asy.shock_zone_value(x, t, chart)
    assert out.point.zone is zone
    return x, t, out.value


def test_zone1_deep_accuracy():
    chart = asy.ShockChart.from_mass(20.0)
    for T, X in DEEP_ZONE_I:
        x, t, approx = _zone_value(T, X, chart, asy.Zone.I)
        exact = asy.pearcey_shock_approx(x, t, chart, tol=1e-8)
        assert rel(approx, exact) < 0.01


def test_zone1_magnitude_even_in_x():
    chart = asy.ShockChart.from_mass(20.0)
    x, t, a = _zone_value(-12.0, 6.0, chart, asy.Zone.I)
    b = asy.shock_zone_value(-x, t, chart)
    assert b.point.zone is asy.Zone.I
    assert abs(a) == pytest.approx(abs(b.value), rel=1e-10)


def test_zone3_deep_accuracy():
    chart = asy.ShockChart.from_mass(20.0)
    for T, X in DEEP_ZONE_III:
        x, t, approx = _zone_value(T, X, chart, asy.Zone.III)
        exact = asy.pearcey_shock_approx(x, t, chart, tol=1e-8)
        assert rel(approx, exact) < 0.05


def test_zone3_interference_fringes():
    # the three-wave sum oscillates in x inside the fan
    chart = asy.ShockChart.from_mass(20.0)
    t = asy.chart_point(6.0, 0.0, chart)[1]
    xs = np.linspace(-0.4, 0.4, 81)
    dens = []
    for x in xs:
        T, X, _ = asy.shock_map(float(x), t, chart)
        if asy.classify_zone(T, X).zone is asy.Zone.III:
            out = asy.shock_zone_value(float(x), t, chart)
            assert out.point.zone is asy.Zone.III
            dens.append(abs(out.value) ** 2)
    dens = np.array(dens)
    interior_maxima = np.sum((dens[1:-1] > dens[:-2]) & (dens[1:-1] > dens[2:]))
    assert interior_maxima >= 3


def test_zone3_saddle_terms_match_closed_forms():
    # at T = 6, X = 0 the saddles are u = 0 (Φ = 0, Φ″ = −12) and u = ±√3
    # (Φ = −9, Φ″ = 24), each term √(2π/|Φ″|)·e^{i(Φ + sign(Φ″)π/4)}
    T, X = 6.0, 0.0
    roots = sorted(complex(r).real for r in asy.saddle_points(T, X))
    assert roots == pytest.approx([-math.sqrt(3.0), 0.0, math.sqrt(3.0)], abs=1e-14)
    wing = math.sqrt(2.0 * math.pi / 24.0) * cmath.exp(1j * (-9.0 + math.pi / 4.0))
    centre = math.sqrt(2.0 * math.pi / 12.0) * cmath.exp(-1j * math.pi / 4.0)
    for u, expected in zip(roots, (wing, centre, wing)):
        assert abs(asy._sd_term(u, T, X) - expected) < 1e-12


def test_zone2_on_caustic_accuracy():
    chart = asy.ShockChart.from_mass(20.0)
    for T in (1.5, 2.0, 3.0, 4.0, 6.0):
        for sign in (+1.0, -1.0):
            X = sign * asy.caustic_x(T)
            x, t, approx = _zone_value(T, X, chart, asy.Zone.II)
            exact = asy.pearcey_shock_approx(x, t, chart, tol=1e-6)
            assert rel(approx, exact) < 0.15


@pytest.mark.parametrize("T", (4.0, 6.0, 8.0))
def test_zone2_off_caustic_accuracy_on_both_sides_of_the_fold(T, monkeypatch):
    # Δ > 0: a real coalescing pair (fringe side); Δ < 0: the complex pair
    # (shadow side).  Neither may fall back to the coalesced-fold limit.
    def no_fold_limit(*args):
        raise AssertionError("took the coalesced-fold limit")

    monkeypatch.setattr(asy, "_degenerate_pair_value", no_fold_limit)
    chart = asy.ShockChart.from_mass(20.0)
    for delta in (-15.0, -10.0, -5.0, 5.0, 10.0, 15.0):
        for sign in (+1.0, -1.0):
            X = sign * math.sqrt((T ** 3 / 2.0 - delta) * 16.0 / 27.0)
            x, t = asy.chart_point(T, X, chart)
            out = asy.shock_zone_value(x, t, chart)
            assert out.point.zone is asy.Zone.II and not out.low_confidence
            assert out.point.discriminant == pytest.approx(delta, abs=1e-9)
            exact = asy.pearcey_shock_approx(x, t, chart, tol=1e-6)
            assert rel(out.value, exact) < 0.05


def test_zone2_converges_to_zone1_outward():
    # moving away from the caustic on the smooth side, the uniform value
    # approaches the single-saddle value
    chart = asy.ShockChart.from_mass(20.0)
    gaps = []
    for T in (-4.0, -8.0, -12.0):
        X = 2.0
        raw2, _ = asy._zone2_value(T, X)
        roots = asy.saddle_points(T, X)
        real = [complex(r).real for r in roots if abs(complex(r).imag) < 1e-9]
        raw1 = asy._sd_term(real[0], T, X)
        gaps.append(abs(raw2 - raw1) / abs(raw1))
    assert gaps[2] < gaps[0]
    assert gaps[2] < 0.02


def test_zone2_flags_cusp_core():
    chart = asy.ShockChart.from_mass(20.0)
    out = asy.shock_zone_value(0.0, 1.0, chart)
    assert out.point.zone is asy.Zone.II
    assert out.low_confidence


def test_matched_asymptotics_along_ray():
    # crossing I → II → III along t at fixed x: consecutive approximations
    # agree within the combined band tolerances at the handoffs
    chart = asy.ShockChart.from_mass(20.0)
    x = 0.12
    previous_zone = None
    for t in np.arange(0.78, 1.66, 0.02):
        out = asy.shock_zone_value(x, float(t), chart)
        zone = out.point.zone
        if previous_zone is not None and zone is not previous_zone:
            exact = asy.pearcey_shock_approx(x, float(t), chart, tol=1e-6)
            T, X, A = asy.shock_map(x, float(t), chart)
            if {previous_zone, zone} == {asy.Zone.I, asy.Zone.II}:
                roots = asy.saddle_points(T, X)
                real = [complex(r).real for r in roots
                        if abs(complex(r).imag) < 1e-9]
                other = A * asy._sd_term(real[0], T, X)
            else:
                other = A * sum(
                    asy._sd_term(complex(r).real, T, X)
                    for r in asy.saddle_points(T, X))
            assert rel(out.value, exact) < 0.20
            assert rel(other, exact) < 0.20
            assert abs(out.value - other) / abs(exact) < 0.20
        previous_zone = zone


def test_zone_sequence_along_ray():
    chart = asy.ShockChart.from_mass(20.0)
    zones = []
    for t in np.arange(0.7, 1.8, 0.02):
        out = asy.shock_zone_value(0.12, float(t), chart)
        if not zones or zones[-1] != out.point.zone:
            zones.append(out.point.zone)
    assert zones == [asy.Zone.I, asy.Zone.II, asy.Zone.III]


# The zone path as it ran on numpy: the saddles in a sorted array, the pair
# split by boolean masks, Airy's argument checked by np.isfinite.  The
# Python-number path must give shock_zone_value's value bits, zone and
# low-confidence flag, and raise the same exception type where it raised.
def _saddle_points_numpy(T, X):
    if not (math.isfinite(T) and math.isfinite(X)):
        raise ValueError("saddle_points requires finite arguments")
    p = -T / 2.0
    q = X / 4.0
    disc = -4.0 * p ** 3 - 27.0 * q ** 2
    if disc >= 0.0 and p < 0.0:
        amp = 2.0 * math.sqrt(-p / 3.0)
        denom = p * amp
        cos3t = 3.0 * q / denom if denom != 0.0 else 0.0
        theta = math.acos(min(1.0, max(-1.0, cos3t))) / 3.0
        roots = np.array([
            amp * math.cos(theta),
            amp * math.cos(theta - 2.0 * math.pi / 3.0),
            amp * math.cos(theta + 2.0 * math.pi / 3.0),
        ], dtype=complex)
    else:
        sqrt_d = math.sqrt(q * q / 4.0 + p ** 3 / 27.0)
        if q >= 0.0:
            big = -q / 2.0 - sqrt_d
        else:
            big = -q / 2.0 + sqrt_d
        s = math.copysign(abs(big) ** (1.0 / 3.0), big)
        t_small = -p / (3.0 * s) if s != 0.0 else 0.0
        real_root = s + t_small
        re_pair = -real_root / 2.0
        im_pair = (math.sqrt(3.0) / 2.0) * (s - t_small)
        roots = np.array([
            real_root,
            re_pair + 1j * im_pair,
            re_pair - 1j * im_pair,
        ])
    order = np.lexsort((roots.imag, roots.real))
    return roots[order]


def _sd_sum_numpy(T, X, count):
    real = [complex(u).real for u in asy.saddle_points(T, X)
            if abs(complex(u).imag) < asy._REAL_TOL]
    if len(real) != count:
        raise ValueError(f"expected {count} real saddle(s), found {len(real)}")
    return sum(asy._sd_term(u, T, X) for u in real)


def _coalescing_pair_numpy(roots):
    is_complex = np.abs(roots.imag) >= asy._REAL_TOL
    if is_complex.any():
        pair = roots[is_complex]
        far = roots[~is_complex]
        return complex(pair[0]), complex(pair[1]), complex(far[0])
    r0, r1, r2 = roots
    if abs(r1 - r0) <= abs(r2 - r1):
        return complex(r0), complex(r1), complex(r2)
    return complex(r1), complex(r2), complex(r0)


def _airy_pair_numpy(z, name="airy"):
    if not np.all(np.isfinite(z)):
        raise ValueError(f"{name} requires finite argument")
    from scipy.special import airy as airy_ai_bi

    ai, aip, _, _ = airy_ai_bi(z)
    return ai, aip


def _zone_outcomes(points, mass):
    """shock_zone_value's (value bits, zone, low_confidence) at each (x, t),
    or the type of the exception it raised."""
    chart = asy.ShockChart.from_mass(mass)
    outcomes = []
    for x, t in points:
        try:
            out = asy.shock_zone_value(x, t, chart)
        except Exception as exc:  # noqa: BLE001 - the type is the outcome
            outcomes.append(type(exc))
        else:
            outcomes.append((out.value.real.hex(), out.value.imag.hex(),
                             out.point.zone, out.low_confidence))
    return outcomes


def _assert_zone_path_matches_numpy(monkeypatch, points, mass):
    outcomes = _zone_outcomes(points, mass)
    with monkeypatch.context() as patch:
        for name, numpy_form in (("saddle_points", _saddle_points_numpy),
                                 ("_sd_sum", _sd_sum_numpy),
                                 ("_coalescing_pair", _coalescing_pair_numpy),
                                 ("_airy_pair", _airy_pair_numpy)):
            patch.setattr(asy, name, numpy_form)
        reference = _zone_outcomes(points, mass)
    assert outcomes == reference
    return reference


def test_saddle_points_are_python_complex_in_the_numpy_order():
    rng = np.random.default_rng(59)
    points = [(0.0, 0.0), (0.0, 3.0), (2.0, 0.0), (6.0, 0.0), (1.56e-272, 0.0),
              *zip(rng.uniform(-30, 30, 2000), rng.uniform(-60, 60, 2000))]
    for T, X in points:
        roots = asy.saddle_points(float(T), float(X))
        assert type(roots) is tuple and all(type(u) is complex for u in roots)
        assert roots == tuple(complex(u) for u in _saddle_points_numpy(float(T), float(X)))


def test_shock_zone_value_matches_the_numpy_path_on_the_zones_map_window(monkeypatch):
    # the shipped zones_map window, axis x = 0 included, where the zone-I
    # sum divides by zero before the caustic
    points = [(float(x), float(t)) for t in np.linspace(0.6, 1.8, 61)
              for x in np.linspace(-1.0, 1.0, 81)]
    outcomes = _assert_zone_path_matches_numpy(monkeypatch, points, 20.0)
    assert {o[2] for o in outcomes if type(o) is tuple} == set(asy.Zone)
    assert ZeroDivisionError in outcomes


@pytest.mark.parametrize("mass", (20.0, 50.0))
def test_shock_zone_value_matches_the_numpy_path_at_random_points(monkeypatch, mass):
    # 5000 points over the map window and beyond, and 1000 about the cusp
    # point (0, 1), where the three saddles crowd and zone II is low-confidence
    rng = np.random.default_rng(61 + int(mass))
    x = np.concatenate([rng.uniform(-1.5, 1.5, 5000), rng.uniform(-1e-3, 1e-3, 1000)])
    t = np.concatenate([rng.uniform(0.3, 2.5, 5000), rng.uniform(0.99, 1.01, 1000)])
    points = list(zip(x.tolist(), t.tolist()))
    outcomes = _assert_zone_path_matches_numpy(monkeypatch, points, mass)
    values = [o for o in outcomes if type(o) is tuple]
    assert {o[2] for o in values} == set(asy.Zone) and any(o[3] for o in values)


# ---------------------------------------------------------------------------
# Cusp approximation vs the exact single-shock solution
# ---------------------------------------------------------------------------

def _scaled_box_error(mass, n_t=9, n_x=9):
    chart = asy.ShockChart.from_mass(mass)
    num = den = 0.0
    for T in np.linspace(-5.0, 3.5, n_t):
        for X in np.linspace(-3.5, 3.5, n_x):
            x, t = asy.chart_point(float(T), float(X), chart)
            exact = sch.single_shock_psi(x, t, mass)
            approx = asy.pearcey_shock_approx(x, t, chart, 1e-6)
            num += abs(approx - exact) ** 2
            den += abs(exact) ** 2
    return math.sqrt(num / den)


def test_cusp_approximation_error_shrinks_with_mass():
    errs = [_scaled_box_error(m, n_t=7, n_x=7) for m in (10.0, 20.0, 40.0)]
    assert errs[0] > errs[1] > errs[2]
    assert errs[1] < 0.10


def test_cusp_approximation_far_field_stays_bounded():
    # late times at fixed x: fringe positions drift so pointwise relative
    # error is meaningless, but both fields keep unit-scale amplitudes and
    # their difference never blows up
    chart = asy.ShockChart.from_mass(20.0)
    for t in (2.5, 3.5):
        exact = sch.single_shock_psi(0.3, t, 20.0)
        approx = asy.pearcey_shock_approx(0.3, t, chart, 1e-6)
        assert 0.3 < abs(exact) < 3.0
        assert 0.3 < abs(approx) < 3.0
        assert abs(approx - exact) < 2.0
