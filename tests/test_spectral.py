"""The shared spectral layer: cached read-only grid tables, derivatives and
the counted FFT pair.

The references are the inline formulas these functions used before their
tables were cached; the cached forms must give the same bits.
"""

from fractions import Fraction

import numpy as np
import pytest

from qwhydro import _spectral as sp
from qwhydro import schrodinger as sch

SIZES = (2, 3, 9, 64, 4096, 8192)


def _reference_derivative(f, order=1):
    n = f.shape[-1]
    k = np.fft.fftfreq(n, d=1.0 / n)
    mult = (1j * k) ** order
    if order % 2 == 1 and n % 2 == 0:
        mult[n // 2] = 0.0
    df = np.fft.ifft(np.fft.fft(f) * mult)
    if np.isrealobj(f):
        return df.real
    return df


def _reference_propagate(values, mass, t):
    n = values.shape[0]
    k = np.fft.fftfreq(n, d=1.0 / n)
    modes = np.fft.fft(values)
    modes *= np.exp(-1j * k ** 2 * t / (2.0 * mass))
    return np.fft.ifft(modes)


def _reference_hydro(values, mass):
    n = np.abs(values) ** 2
    dpsi = _reference_derivative(values)
    valid = np.abs(values) > 1e-10 * max(float(np.abs(values).max()), 1.0)
    safe = np.where(valid, n, 1.0)
    v = np.where(valid, np.imag(np.conj(values) * dpsi) / (mass * safe), 0.0)
    return n, v


def _field(rng, shape, complex_valued):
    f = rng.normal(size=shape)
    if complex_valued:
        f = f + 1j * rng.normal(size=shape)
    return f


@pytest.mark.parametrize("complex_valued", [False, True], ids=["real", "complex"])
@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n", SIZES)
def test_spectral_derivative_is_bit_identical_to_the_inline_formula(n, order, complex_valued):
    f = _field(np.random.default_rng(n * 10 + order), n, complex_valued)
    got = sp.spectral_derivative(f, order)
    assert got.dtype == _reference_derivative(f, order).dtype
    assert np.array_equal(got, _reference_derivative(f, order))
    # a second call, served from the cache, gives the same bits again
    assert np.array_equal(sp.spectral_derivative(f, order), got)


@pytest.mark.parametrize("order", [1, 2, 3])
def test_spectral_derivative_of_a_batch_is_bit_identical(order):
    f = _field(np.random.default_rng(order), (5, 64), complex_valued=True)
    got = sp.spectral_derivative(f, order)
    assert got.shape == (5, 64)
    assert np.array_equal(got, _reference_derivative(f, order))
    # each row is the derivative of that row alone
    assert np.array_equal(got[2], sp.spectral_derivative(f[2], order))


@pytest.mark.parametrize("n", [9, 64, 256, 8192])
def test_spectral_propagate_is_bit_identical_to_the_inline_formula(n):
    rng = np.random.default_rng(n)
    values = _field(rng, n, complex_valued=True)
    for mass, t in [(1.0, 0.3), (20.0, 0.8), (512.0, 1.7), (3.5, 0.0)]:
        got = sch.spectral_propagate(sch.Wavefunction(values), mass, t).values
        assert np.array_equal(got, _reference_propagate(values, mass, t))


@pytest.mark.parametrize("n", [9, 64, 8192])
def test_spectral_propagate_takes_one_spectrum_for_every_time(n):
    rng = np.random.default_rng(n)
    values = _field(rng, n, complex_valued=True)
    times = [0.0, 0.3, 0.8, 1.7]
    before = sp.fft_calls()
    psi = sch.Wavefunction(values)
    got = [sch.spectral_propagate(psi, 20.0, t).values for t in times]
    assert sp.fft_calls() - before == 1 + len(times)
    for t, values_t in zip(times, got):
        assert np.array_equal(values_t, _reference_propagate(values, 20.0, t))
    # the kept spectrum is read-only and the record frozen
    assert np.array_equal(psi.modes, np.fft.fft(values))
    with pytest.raises(ValueError, match="read-only"):
        psi.modes[0] = 1.0
    with pytest.raises(AttributeError):
        psi.values = values


@pytest.mark.parametrize("n", [9, 64, 4096])
def test_schrodinger_hydro_is_bit_identical_to_the_inline_formula(n):
    rng = np.random.default_rng(n)
    values = _field(rng, n, complex_valued=True)
    values[n // 3] = 0.0  # one masked site
    for mass in (1.0, 20.0):
        got = sch.schrodinger_hydro(sch.Wavefunction(values), mass)
        ref = _reference_hydro(values, mass)
        assert all(np.array_equal(a, b) for a, b in zip(got, ref))


def _tables(n):
    return {"grid": sp.grid(n), "wavenumbers": sp.wavenumbers(n),
            **{f"multiplier_{order}": sp._derivative_multiplier(n, order)
               for order in (1, 2, 3)}}


@pytest.mark.parametrize("n", SIZES)
def test_grid_tables_have_their_values_and_are_read_only(n):
    assert np.array_equal(sp.wavenumbers(n), np.fft.fftfreq(n, 1.0 / n))
    assert np.array_equal(sp.grid(n), 2.0 * np.pi * np.arange(n) / n)
    for name, table in _tables(n).items():
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            table *= 2.0
    # nothing written, so the next caller gets the same values
    assert np.array_equal(sp.wavenumbers(n), np.fft.fftfreq(n, 1.0 / n))
    assert np.array_equal(sp.grid(n), 2.0 * np.pi * np.arange(n) / n)


def test_grid_tables_are_built_once_per_grid():
    first, second = _tables(4096), _tables(4096)
    assert all(first[name] is second[name] for name in first)
    assert sp.wavenumbers(64) is not sp.wavenumbers(4096)


def test_fft_pair_counts_every_call():
    rng = np.random.default_rng(7)
    f = _field(rng, (3, 64), complex_valued=True)
    before = sp.fft_calls()
    # one count per call, whatever the batch shape
    assert np.array_equal(sp.ifft(sp.fft(f)), np.fft.ifft(np.fft.fft(f)))
    sp.spectral_derivative(f[0], 2)
    sch.spectral_propagate(sch.Wavefunction(f[1]), 2.0, 0.5)
    assert sp.fft_calls() - before == 6


@pytest.mark.parametrize("n_nodes", [10, 16])
def test_gauss_legendre_rules_are_numpys_and_read_only(n_nodes):
    nodes, weights = sp.gauss_legendre(n_nodes)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n_nodes)
    assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)
    assert sp.gauss_legendre(n_nodes)[0] is nodes
    with pytest.raises(ValueError, match="read-only"):
        nodes[0] = 0.0


# QUADPACK's 15-node Kronrod rule (qk15: xgk, wgk), the nonnegative half
K15_NODES = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
             0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
             0.586087235467691130294144845693013, 0.405845151377397166906606412076961,
             0.207784955007898467600689403773245, 0.0)
K15_WEIGHTS = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
               0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
               0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
               0.204432940075298892414161999234649, 0.209482141084727828012999174891714)


def _moment_errors(nodes, weights, degrees):
    """Σ w·x^k − ∫₋₁¹ x^k dx for each k, the sum taken exactly on the doubles."""
    exact_nodes = [Fraction(float(x)) for x in nodes]
    exact_weights = [Fraction(float(w)) for w in weights]
    return [float(sum(w * x ** k for w, x in zip(exact_weights, exact_nodes))
                  - (Fraction(2, k + 1) if k % 2 == 0 else 0)) for k in degrees]


def test_the_k33_rule_is_exact_to_degree_49_and_extends_gauss_legendre_16():
    nodes, weights = sp.gauss_kronrod(16)
    assert len(nodes) == len(weights) == 33
    assert np.all(np.diff(nodes) > 0) and np.all(weights > 0)
    assert np.array_equal(nodes[1::2], sp.gauss_legendre(16)[0])
    assert np.array_equal(nodes, -nodes[::-1]) and np.array_equal(weights, weights[::-1])
    # a few ulps of ∫1 = 2, as numpy's own 16-node Gauss rule on its degrees
    assert max(map(abs, _moment_errors(nodes, weights, range(50)))) <= 8 * sp.EPS
    assert sp.gauss_kronrod(16)[0] is nodes
    with pytest.raises(ValueError, match="read-only"):
        weights[0] = 0.0


def test_the_k15_rule_is_quadpacks_and_exact_to_degree_23_only():
    nodes, weights = sp.gauss_kronrod(7)
    assert np.allclose(nodes[7:], K15_NODES[::-1], rtol=0.0, atol=4 * sp.EPS)
    assert np.allclose(weights[7:], K15_WEIGHTS[::-1], rtol=1e-14, atol=0.0)
    assert np.array_equal(nodes[1::2], sp.gauss_legendre(7)[0])
    # each weight is good to 1e-14 relative, their sum to 9 ulps of 2
    errors = _moment_errors(nodes, weights, range(26))
    assert max(map(abs, errors[:24])) <= 16 * sp.EPS and abs(errors[24]) > 1e-9


@pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
def test_even_table_mirrors_the_first_half_onto_the_negative_modes(n):
    k = np.fft.fftfreq(n, d=1.0 / n)
    assert np.array_equal(sp.even_table(np.abs(k[:n // 2 + 1]), n), np.abs(k))
