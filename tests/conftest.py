import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import qwhydro
from qwhydro.walk import SpinorField


def make_smooth_spinor(rng, n_sites, offset=4.0, amp=0.4, k_max=4):
    """Band-limited random spinor with component moduli bounded away from zero.

    The offset/amp ratio keeps the component moduli well above the phase
    floor, so the phase rates Im(ψ*∂ψ)/|ψ|² are taken at every site.
    """
    def component():
        coeff = np.zeros(n_sites, dtype=complex)
        for k in range(-k_max, k_max + 1):
            coeff[k % n_sites] = amp * (rng.normal() + 1j * rng.normal())
        return np.fft.ifft(coeff * n_sites) + offset

    return SpinorField(left=component(), right=component())


def emit_reference(t, x, values) -> bytes:
    """The long-format CSV of a grid by one `format(float(v), ".17g")` call
    per number: the loop that the numpy emitter must match byte for byte."""
    def fmt(v):
        return format(float(v), ".17g")

    lines = ["t,x,value"]
    for i, ti in enumerate(t):
        for j, xj in enumerate(x):
            lines.append(f"{fmt(ti)},{fmt(xj)},{fmt(values[i, j])}")
    return ("\n".join(lines) + "\n").encode()


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


def _reference_cut(T, X):
    """Cut of the reference contour: the least L ≥ 4 on a 0.5 grid where
    s⁴ beats the growth |T|s² + |X|s by 50 e-folds; independent of, and never
    shorter than, the cut of `asymptotics.pearcey_array`."""
    length = 4.0
    while length ** 4 - abs(T) * length ** 2 - abs(X) * length < 50.0:
        length += 0.5
    return length


def pearcey_mp(T, X):
    """I_P on the rotated contour to 40 digits by mpmath Gauss–Legendre on
    ⌈4L⌉ subintervals.

    The contour is that of `asymptotics.pearcey_array`, but cut at its own
    L (`_reference_cut`), where the integrand has fallen below e^{−50};
    the quadrature, mpmath's degree-doubling rule at 40 digits, is not the
    array's either, so the two share neither cut nor rule.  On 208 points,
    every point the tests use among them, it returns the same doubles as
    tanh-sinh on ⌊8L⌋ subintervals, in a quarter of the time.
    """
    length = _reference_cut(T, X)
    with mpmath.workdps(40):
        rot = mpmath.expjpi(mpmath.mpf(1) / 8)
        lin = 1j * mpmath.mpf(X) * rot
        quad = 1j * mpmath.mpf(T) * rot ** 2
        nodes = mpmath.linspace(-length, length, math.ceil(4 * length) + 1)
        value = mpmath.quad(lambda s: mpmath.exp(lin * s + quad * s * s - s ** 4), nodes,
                            method="gauss-legendre")
        return complex(rot * value)


def scipy_modules_loaded_by(code):
    """Names of the scipy modules a fresh interpreter holds after running `code`."""
    src = str(Path(qwhydro.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code += "\nimport sys\nprint(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout.strip()
