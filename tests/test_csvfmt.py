"""The numpy CSV emitter against `format(float(v), ".17g")`, value by value."""

import io
import itertools
import math
import struct
import tracemalloc
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwhydro import _csvfmt

from conftest import emit_reference


def printed(values) -> list[str]:
    """The value field of each line that the blocks write for one row."""
    values = np.asarray(values, dtype=np.float64)
    buf = io.BytesIO()
    _csvfmt.write_grid(buf, np.zeros(1), np.zeros(values.size), values[None, :])
    return [line.rsplit(b",", 1)[1].decode() for line in buf.getvalue().splitlines()]


def assert_prints_like_format(values):
    values = np.asarray(values, dtype=np.float64)
    expected = [format(float(v), ".17g") for v in values]
    got = printed(values)
    wrong = [(float(v), e, g) for v, e, g in zip(values, expected, got) if e != g]
    assert len(got) == len(expected) and not wrong, wrong[:5]


def _double(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


SIGN = 1 << 63
# any pattern; subnormals and ±0 of either sign; ±inf and nans of either sign
PATTERNS = st.one_of(
    st.integers(min_value=0, max_value=2 ** 64 - 1),
    st.integers(min_value=0, max_value=2 ** 52 - 1).map(lambda bits: bits | SIGN),
    st.integers(min_value=0, max_value=2 ** 52 - 1),
    st.integers(min_value=0, max_value=2 ** 52 - 1).map(lambda bits: bits | 0x7FF << 52),
    st.sampled_from([0x7FF0000000000000, 0xFFF0000000000000, 0xFFF8000000000000]))


@settings(max_examples=300, deadline=None)
@given(st.lists(PATTERNS, min_size=1, max_size=64))
@example([0, SIGN, 1, SIGN | 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000, 0x7FF0000000000000,
          0xFFF0000000000000, 0x7FF8000000000000, 0xFFF8000000000001, 0x7FEFFFFFFFFFFFFF,
          0x3FF0000000000000])
def test_raw_bit_patterns_print_like_format(patterns):
    assert_prints_like_format([_double(bits) for bits in patterns])


def test_random_doubles_print_like_format():
    bits = np.random.default_rng(19).integers(0, 2 ** 64, size=200_000, dtype=np.uint64)
    assert_prints_like_format(bits.view(np.float64))


def _nearest(k: int) -> float:
    return float(Fraction(10) ** k)


def test_neighbours_of_every_power_of_ten_print_like_format():
    values = []
    for k in range(-324, 309):
        centre = _nearest(k)
        below = above = centre
        for _ in range(3):
            values += [below, above]
            below, above = math.nextafter(below, 0.0), math.nextafter(above, math.inf)
    values = np.array(values)
    assert_prints_like_format(np.concatenate([values, -values]))


def test_exact_ties_round_half_to_even():
    # X = |v|·10^(16−e) = N + ½ exactly, 10^16 ≤ N < 10^17: v = j/2^(s+1) with
    # s = 16 − e and j·5^s = 2N + 1, j odd below 2^53, which exists for
    # −8 ≤ e ≤ 15; at e = −8 and −7, 10^s is no double
    rng = np.random.default_rng(3)
    ties = []
    for e in range(-8, 16):
        s = 16 - e
        low, high = -(-2 * 10 ** 16 // 5 ** s), min(2 * 10 ** 17 // 5 ** s, 2 ** 53)
        for j in {int(j) | 1 for j in rng.integers(low, high, size=200)} - {high}:
            v = j / 2 ** (s + 1)
            assert Fraction(v) * 10 ** s % 1 == Fraction(1, 2)
            ties.append(v)
    assert len(ties) > 3000
    assert_prints_like_format(ties + [-v for v in ties])


def _near_ties(e: int, count: int) -> list[float]:
    """Doubles v = m·2^p of decade e whose X = v·10^(16−e) = m·a/b lies within
    2⁻³⁰ of N + ½ but not on it: m·a ≡ r (mod b) for r next to b/2."""
    ties = []
    for p in range(math.floor(e * math.log2(10)) - 53, math.floor(e * math.log2(10)) - 48):
        scale = Fraction(2) ** p * Fraction(10) ** (16 - e)
        a, b = scale.numerator, scale.denominator
        # m runs over [2^52, 2^53), and v = m·2^p over decade e
        low = max(2 ** 52, math.ceil(Fraction(10) ** e / Fraction(2) ** p))
        high = min(2 ** 53, math.ceil(Fraction(10) ** (e + 1) / Fraction(2) ** p))
        inverse = pow(a, -1, b)
        j = 0
        while low < high and len(ties) < count and abs(2 * (b // 2 + j) - b) < b >> 29:
            j += 1
            for r in (b // 2 + j, (b + 1) // 2 - j):
                m = r * inverse % b
                m += -(-(low - m) // b) * b  # the least m ≥ low with m·a ≡ r
                while m < high and len(ties) < count:
                    ties.append(float(m * Fraction(2) ** p))
                    m += b
    return ties


@pytest.mark.parametrize("e", [-12, -11, -10, -9, -8, -7, 29, 30, 33, 36, 38])
def test_near_ties_of_inexact_scalings_print_like_format(e):
    # where 10^(16−e) is no double, within 2⁻³⁰ of a tie: these are left to
    # the reference
    ties = _near_ties(e, 60)
    assert len(ties) == 60
    assert_prints_like_format(ties + [-v for v in ties])


def test_exponents_where_ten_to_the_k_is_no_double_print_like_format():
    # N + ½ rounded to a double at every 7th such exponent, each left to the
    # reference
    rng = np.random.default_rng(4)
    values = [float((Fraction(int(n)) + Fraction(1, 2)) * Fraction(10) ** (e - 16))
              for e in [*range(-280, -6, 7), *range(17, 290, 7)]
              for n in rng.integers(10 ** 16, 10 ** 17, size=40)]
    assert_prints_like_format(values)


def _counted_format(monkeypatch) -> list:
    """The values that `_csvfmt` hands `format` from here on."""
    calls = []

    def counted(value, spec):
        calls.append(value)
        return format(value, spec)

    monkeypatch.setattr(_csvfmt, "format", counted, raising=False)
    return calls


SPECIALS = [np.nan, np.inf, -np.inf, 5e-324, 1e-300, 1e300, *_near_ties(30, 5)]


def _outside(values) -> np.ndarray:
    """Whether each value is nan, ±inf or nonzero with |v| outside
    [10⁻⁴, 10¹⁷), where `_csvfmt` hands it to `format`."""
    # the double nearest 1e-4 lies above 10⁻⁴, the one before it below
    assert Fraction(math.nextafter(1e-4, 0.0)) < Fraction(1, 10 ** 4) < Fraction(1e-4)
    a = np.abs(np.asarray(values, dtype=np.float64))
    return (a != 0.0) & ~((a >= 1e-4) & (a < 1e17))


def test_only_specials_and_near_ties_reach_the_reference(monkeypatch):
    calls = _counted_format(monkeypatch)
    rng = np.random.default_rng(5)
    ordinary = rng.standard_normal(20_000) * 10.0 ** rng.integers(-270, 280, size=20_000)
    powers = [_nearest(k) for k in range(-279, 289)]
    ordinary = np.concatenate([ordinary, powers, np.nextafter(powers, 0), [0.0, -0.0]])
    assert_prints_like_format(np.concatenate([ordinary, SPECIALS]))
    # the specials are all outside the range
    assert np.all(_outside(SPECIALS))
    assert len(calls) == len(SPECIALS) + np.count_nonzero(_outside(ordinary))


@pytest.mark.parametrize("shape, labels", [
    ((1, 1), False), ((2, 2), False), ((25, 41), False), ((31, 51), False), ((61, 81), True)])
def test_small_grids_and_zone_labels_reach_the_reference_only_for_specials(
        monkeypatch, shape, labels):
    # the shapes of pearcey_map's and caustic_window's double grids and of
    # zones_map's labels 1..3, with as many specials as half the grid holds
    rng = np.random.default_rng(shape[0])
    if labels:
        values = rng.integers(1, 4, size=shape) * 1.0
    else:
        values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, size=shape)
    specials = SPECIALS[:values.size // 2]
    values.ravel()[rng.permutation(values.size)[:len(specials)]] = specials
    t, x = np.linspace(0.6, 1.8, shape[0]), np.linspace(-1.0, 1.0, shape[1])
    calls = _counted_format(monkeypatch)
    buf = io.BytesIO()
    buf.write(b"t,x,value\n")
    _csvfmt.write_grid(buf, t, x, values)
    assert len(calls) == np.count_nonzero(_outside(values))
    assert buf.getvalue() == emit_reference(t, x, values)


def _doubles_from(v: float, toward: float, count: int) -> list[float]:
    """v and the next count − 1 doubles from it toward `toward`."""
    values = [v]
    while len(values) < count:
        values.append(math.nextafter(values[-1], toward))
    return values


def test_the_ends_of_the_range_print_like_format_and_route_exactly(monkeypatch):
    # the nextafter neighbours of 1e-4 and 1e17, of either sign: 1e-4 itself
    # lies above 10⁻⁴ and is printed by numpy with what is over it, while
    # 1e17 goes to format with what is over it
    inside = _doubles_from(1e-4, math.inf, 4) + _doubles_from(math.nextafter(1e17, 0.0), 0.0, 4)
    outside = _doubles_from(math.nextafter(1e-4, 0.0), 0.0, 4) + _doubles_from(1e17, math.inf, 4)
    inside += [-v for v in inside]
    outside += [-v for v in outside]
    assert not np.any(_outside(inside)) and np.all(_outside(outside))
    calls = _counted_format(monkeypatch)
    assert_prints_like_format(inside)
    assert calls == []
    assert_prints_like_format(outside)
    assert len(calls) == len(outside)


def test_no_double_in_the_range_rounds_up_to_a_new_decade():
    # the largest double below each 10^(e + 1), −6 ≤ e ≤ 16, has an X =
    # v·10^(16 − e) more than ½ below 10^17, so its 17 digits never carry; the
    # largest below 1e17 prints as itself
    for e in range(-6, 17):
        power = Fraction(10) ** (e + 1)
        below = _nearest(e + 1) if _nearest(e + 1) < power else \
            math.nextafter(_nearest(e + 1), 0.0)
        assert (power - Fraction(below)) * Fraction(10) ** (16 - e) > Fraction(1, 2)
        assert _shape(format(below, ".17g"))[1] == e
    assert printed([math.nextafter(1e17, 0.0)]) == ["99999999999999984"]


def _shape(text: str) -> tuple[int, int, int]:
    """The sign bit, decimal exponent and significant digits of a number's text."""
    sign, digits, exponent = Decimal(text).as_tuple()
    return sign, len(digits) + exponent - 1, len("".join(map(str, digits)).rstrip("0"))


def _key(text: str) -> int:
    """The mask row of a value that the blocks print as `text`, read off the
    text: fixed notation by (e, digits), with or without the minus sign; any
    other text, which the reference prints, by its length."""
    sign, e, sig = _shape(text)
    if not -4 <= e < 17:
        return 2 * _csvfmt._FIXED + len(text) - 1
    return (e + 4) * 17 + sig - 1 + sign * _csvfmt._FIXED


def _printed_as(exponents, sig: int) -> float:
    """A double that `%.17g` prints with `sig` significant digits at the
    first of the exponents where one does."""
    low, start = 10 ** (sig - 1), int("12345678912345678"[:sig])
    for e in exponents:
        for m in itertools.chain(range(start, 10 * low), range(low, start)):
            v = float(Fraction(m) * Fraction(10) ** (e - sig + 1))
            if _shape(format(v, ".17g"))[1:] == (e, sig):
                return v
    raise AssertionError(f"no double prints with {sig} digits at exponents {exponents}")


def test_every_mask_row_prints_like_format(monkeypatch):
    # every fixed (e, digits) row, of either sign, besides d.ddde±XX values
    # next to the range and at |e| ≥ 99 that the reference prints; then every
    # reference length
    values = [_printed_as([e], sig) for e in range(-4, 17) for sig in range(1, 18)]
    values += [_printed_as(exponents, sig) for sig in range(1, 18)
               for exponents in ([-5, -6, 17, 18, -99, 99], [-100, 100, -280, 289])]
    values += [-v for v in values]
    keys = {_key(format(v, ".17g")) for v in values}
    assert set(range(2 * _csvfmt._FIXED)) <= keys <= set(range(_csvfmt._KEYS))
    assert_prints_like_format(values)
    # with ⌊log10⌋ read as nan, no value is in the blocks' range and every
    # nonzero one goes to the reference
    monkeypatch.setattr(np, "log10", lambda a: np.full(np.shape(a), np.nan))
    references = values + [np.nan, np.inf, -np.inf]
    assert {len(format(v, ".17g")) for v in references} == set(range(1, _csvfmt._LONGEST + 1))
    assert _csvfmt._KEYS == 2 * _csvfmt._FIXED + _csvfmt._LONGEST
    assert_prints_like_format(references)


def test_integers_near_two_to_the_53_and_the_carry_to_a_new_decade():
    integers = [2.0 ** 53 + k for k in range(-2000, 2001)]
    integers += [float(10 ** 17 - k) for k in range(0, 2000)]
    integers += [float(10 ** 16 + k) for k in range(-2000, 2000)]
    # doubles just below 10^k whose 17 digits round up to 10^17 · 10^(k−17),
    # so N carries to 10^16 and e to k
    carries = {}
    for k in range(-300, 300):
        power = Fraction(10) ** k
        below = _nearest(k) if _nearest(k) < power else math.nextafter(_nearest(k), 0.0)
        if power - Fraction(below) <= power / (2 * 10 ** 17):
            carries[k] = below
    assert len(carries) >= 10
    assert [Fraction(text) for text in printed(list(carries.values()))] == \
        [Fraction(10) ** k for k in carries]
    assert_prints_like_format(integers + [sign * v for v in carries.values() for sign in (1, -1)])


@pytest.mark.parametrize("block", [7, 64, _csvfmt.BLOCK])
@pytest.mark.parametrize("shape", [(3, 20), (20, 3), (1, 1), (5, 64), (2, 5000)])
def test_grids_of_many_blocks_match_the_reference_loop(monkeypatch, block, shape):
    # rows split over blocks (wider than a block) and blocks of many rows
    # (taller), negative values and a ragged last block
    monkeypatch.setattr(_csvfmt, "BLOCK", block)
    rng = np.random.default_rng(block + shape[0])
    t = np.linspace(0.0, 3.0, shape[0])
    x = -np.logspace(-6, 3, shape[1])
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 20, size=shape)
    values[0, 0] = -0.0
    buf = io.BytesIO()
    buf.write(b"t,x,value\n")
    _csvfmt.write_grid(buf, t, x, values)
    assert buf.getvalue() == emit_reference(t, x, values)


def test_t_and_x_of_every_length_match_the_reference_loop():
    # the longest texts (24 bytes, 26 with the commas around x), specials,
    # ±0 and subnormals as t and as x
    edges = [-1.2345678901234567e-100, 1.2345678901234567e+100, np.nan, -np.inf, np.inf,
             -0.0, 0.0, -5e-324, 2.5]
    t, x = np.array(edges), np.array(edges[::-1] + [1.0])
    values = np.random.default_rng(8).standard_normal((t.size, x.size))
    buf = io.BytesIO()
    buf.write(b"t,x,value\n")
    _csvfmt.write_grid(buf, t, x, values)
    assert buf.getvalue() == emit_reference(t, x, values)


class Discard:
    def write(self, data):
        pass


@pytest.mark.parametrize("shape", [(1, 1 << 17), (4, 1 << 15), (1 << 15, 4)])
def test_blocks_keep_the_documented_memory_bound(shape):
    # about 400 bytes a value of one block, and at most 64 bytes a t or x value
    # for their texts and masks, whatever the grid's shape; the lines written
    # are dropped, not counted
    values = np.random.default_rng(9).standard_normal(shape)
    t, x = np.linspace(0.0, 1.5, shape[0]), np.linspace(-np.pi, np.pi, shape[1])
    _csvfmt._tables()
    tracemalloc.start()
    try:
        _csvfmt.write_grid(Discard(), t, x, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * _csvfmt.BLOCK + 64 * sum(shape)


@pytest.mark.parametrize("block", [3, _csvfmt.BLOCK])
def test_t_and_x_columns_are_format_texts_left_aligned(monkeypatch, block):
    # each row of a column is format(v, ".17g"), between commas for x, then NULs;
    # the column is as wide as its longest text, and blocks of 3 split it
    monkeypatch.setattr(_csvfmt, "BLOCK", block)
    values = np.array([0.0, -0.0, -2.5, -123456.789, 1e-5, -1e-5, 1e17, -1e17, 5e-324,
                       -2.2250738585072009e-308, 2.2250738585072014e-308, np.nan, -np.inf,
                       -1.2345678901234567e-100, 0.1])
    for commas, wrap in ((False, "{}"), (True, ",{},")):
        rows = _csvfmt._column(values, commas)
        texts = [bytes(row).rstrip(b"\0").decode() for row in rows]
        assert texts == [wrap.format(format(float(v), ".17g")) for v in values]
        assert all(b"\0" not in bytes(row).rstrip(b"\0") for row in rows)
        assert rows.shape == (values.size, max(map(len, texts)))
