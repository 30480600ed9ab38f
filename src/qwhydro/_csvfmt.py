"""The bytes of `format(v, ".17g")` for blocks of doubles, laid out by numpy.

`%.17g` prints a double's 17 significant digits, correctly rounded (ties to
even), as `%g` lays them out: with e the decimal exponent of the rounded
value, fixed notation for −4 ≤ e < 17 and d.ddde±XX otherwise, trailing
zeros dropped and a bare point with them.  This module writes those bytes
without a Python call per value.

Digits.  Numpy prints exactly the values that `%g` prints in fixed
notation: those whose exact decimal exponent e lies in −4 ≤ e ≤ 16, that is
10⁻⁴ ≤ |v| < 10¹⁷.  For these k = 16 − e runs from 0 to 20, so 10^k is a
double P, and Dekker's exact product (Veltkamp's split) of |v| and P gives
X = |v|·10^k exactly as hi + lo, hi = fl(X).  e is first estimated as the
floating-point ⌊log10 |v|⌋, which is at most one off; where X falls outside
[1e16, 1e17), compared on hi and lo exactly, e moves by one and X is formed
again.  hi is then an even integer, so N = hi + rint(lo) is X rounded half
to even.  N is below 10^17 and keeps e: the largest double below each
10^(e + 1) has an X more than 8 below 10^17.  The double nearest 1e-4 lies
above 10⁻⁴, so it is printed by numpy; 1e17 is left to the reference.

Reference.  `format(float(v), ".17g")` prints nan, ±inf and every nonzero
value outside the range, every d.ddde±XX text among them; the tests
compare every path against it.

Layout.  N is cut into a leading digit and four 4-digit groups, looked up in
a table of 10 000 four-byte strings.  Each value's text is then chosen from a
fixed row of candidate bytes (sign, two copies of "000" and the digits, point,
newline) by a mask that depends only on its sign, exponent and
digit count, so one compress of a block's rows gives its lines.  The tables
are built on first use, so importing the module costs nothing.

Blocks.  A block is as many whole rows as fit in `BLOCK` values, or `BLOCK`
sites of one row, and its transient arrays take about 400 bytes a value.  The
t and ",x," texts are laid out the same way, `BLOCK` values at a time, once
each, and kept as NUL-padded rows with their masks for the whole grid, at most
52 bytes a t or x value.  Every grid, however small, is written by blocks, so a
process's first grid pays for building the tables (about 2 ms in a fresh
interpreter).
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

# Values per block: bounds the transient arrays of one write at about 400
# bytes a value.  A 4096-site row is half a block.
BLOCK = 8192

# The decimal exponents printed by numpy, those of %g's fixed notation.
_E_MIN, _E_MAX = -4, 16
_SPLITTER = 134217729.0  # 2^27 + 1, Veltkamp's split of a double

# Columns of a value's candidate row.  A digit copy is "000" and the 17 digits,
# so fixed notation below 1 can take up to three zeros from it.
_DIGITS = 20
_SIGN = 0
_FIRST = 1                      # the integer part, or the leading digit
_POINT = _FIRST + _DIGITS
_REST = _POINT + 1              # the digits after the point
# A reference string, at most 24 bytes ("-1.2345678901234567e-300"), lies
# from the digits after the point on, so the sign, point and newline columns
# never change.
_LONGEST = 24
_NEWLINE = _REST + _LONGEST
_WIDTH = _NEWLINE + 1

# Mask rows: fixed notation by (e + 4, digits − 1); the same again with the
# minus sign; then reference strings, which carry their own sign, by length.
_FIXED = 21 * 17
_KEYS = 2 * _FIXED + _LONGEST


class _Tables(NamedTuple):
    powers: tuple[np.ndarray, ...]  # 10^(16 − e) by e − _E_MIN and its split
    groups: np.ndarray      # "0000".."9999" as uint32
    leads: np.ndarray       # "0000".."0009" as uint32
    trailing: np.ndarray    # trailing zeros of a 4-digit group, 4 for 0
    masks: np.ndarray       # (_KEYS, _WIDTH) uint8 mask rows


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Veltkamp's split a = hi + lo, each of at most 26 significant bits."""
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


def _masks() -> np.ndarray:
    """The (_KEYS, _WIDTH) mask rows, each key's exponent, digit count or
    length broadcast against the columns."""
    col = np.arange(_WIDTH)
    digits = np.arange(1, 18)

    def span(start, stop):
        return (col >= start) & (col < stop)

    # fixed by (e, digits): the integer part, or the "0" before the point, then
    # the digit copy from column 4 + e on, which starts with zeros below 1
    e, sig = np.arange(-4, 17)[:, None, None], digits[:, None]
    fixed = (np.where(e >= 0, span(_FIRST + 3, _FIRST + 4 + e), col == _FIRST + 2)
             | span(_REST + 4 + e, _REST + 3 + sig) | (col == _POINT) & (3 + sig > 4 + e))
    values = fixed.reshape(_FIXED, _WIDTH)
    reference = span(_REST, _REST + np.arange(1, _LONGEST + 1)[:, None])
    masks = np.concatenate([values, values | (col == _SIGN), reference]) | (col == _NEWLINE)
    return masks.astype(np.uint8)


@functools.cache
def _tables() -> _Tables:
    powers = np.array([float(10 ** (16 - e)) for e in range(_E_MIN, _E_MAX + 1)])
    group = np.arange(10000)
    chars = 48 + np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], 1)
    trailing = ((group % 10 == 0).astype(np.int64) + (group % 100 == 0)
                + (group % 1000 == 0) + (group == 0))
    return _Tables(powers=(powers, *_split(powers)),
                   groups=chars.astype(np.uint8).view(np.uint32).ravel(),
                   leads=chars[:10].astype(np.uint8).view(np.uint32).ravel(),
                   trailing=trailing, masks=_masks())


def _scaled(a: np.ndarray, e: np.ndarray, powers) -> tuple[np.ndarray, np.ndarray]:
    """a·10^(16 − e) exactly, as hi = fl(a·10^(16 − e)) and its error lo."""
    p, b_hi, b_lo = (table.take(e - _E_MIN) for table in powers)
    hi = a * p
    a_hi, a_lo = _split(a)
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _out_of_decade(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """−1 where hi + lo < 1e16, +1 where hi + lo ≥ 1e17, else 0."""
    below = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    above = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return above.astype(np.int64) - below


def _rows(count: int, lead: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Text and mask buffers of `count` rows: `lead` columns for the caller,
    then a value's candidate row with its sign, point and newline set."""
    text = np.empty((count, lead + _WIDTH), dtype=np.uint8)
    text[:, lead + _SIGN] = ord("-")
    text[:, lead + _POINT] = ord(".")
    text[:, lead + _NEWLINE] = ord("\n")
    return text, np.empty(text.shape, dtype=np.uint8)


def _layout(v: np.ndarray, rows: np.ndarray, mask: np.ndarray) -> None:
    """Write the digits of the values v into the candidate rows
    (len(v), _WIDTH) made by `_rows`, and their choice into mask: row i
    compressed by its mask is `format(float(v[i]), ".17g")` and a newline."""
    tables = _tables()
    a = np.abs(v)
    zero = a == 0.0
    e = np.floor(np.log10(np.where(zero, 1.0, a)))
    # ⌊log10⌋ is at most one off, so only values within a decade of the range
    # are scaled, at the nearest exponent in it; nan and ±inf compare false
    fast = ~zero & (e >= _E_MIN - 1) & (e <= _E_MAX + 1)
    a = np.where(fast, a, 1.0)
    e = np.clip(np.where(fast, e, 0.0), _E_MIN, _E_MAX).astype(np.int64)
    hi, lo = _scaled(a, e, tables.powers)
    move = _out_of_decade(hi, lo)
    e += move
    fast &= (e >= _E_MIN) & (e <= _E_MAX)
    off = np.flatnonzero(fast & (move != 0))
    hi[off], lo[off] = _scaled(a[off], e[off], tables.powers)
    # 0 (and every value left to the reference) as the digits 0 at e = 0
    n = np.where(fast, hi.astype(np.int64) + np.rint(lo).astype(np.int64), 0)
    e = np.where(fast, e, 0)

    lead = n // 10 ** 16
    rest = n - lead * 10 ** 16
    upper = rest // 10 ** 8
    lower = rest - upper * 10 ** 8
    groups = (upper // 10000, upper % 10000, lower // 10000, lower % 10000)
    words = np.empty((v.size, 5), dtype=np.uint32)
    words[:, 0] = tables.leads.take(lead)
    for i, group in enumerate(groups):
        words[:, i + 1] = tables.groups.take(group)
    digits = words.view(np.uint8)
    rows[:, _FIRST:_POINT] = digits
    rows[:, _REST:_REST + _DIGITS] = digits
    # the significant digits: 17 less the trailing zeros of the last nonzero group
    sig = 17 - tables.trailing.take(groups[3])
    for i in (2, 1, 0):
        empty = np.flatnonzero(sig == 13 - 4 * (2 - i))  # groups i + 1.. are zeros
        sig[empty] -= tables.trailing.take(groups[i].take(empty))

    key = (e + 4) * 17 + sig - 1 + np.signbit(v) * _FIXED
    for i in np.flatnonzero(~(fast | zero)):
        text = format(float(v[i]), ".17g").encode()
        rows[i, _REST:_REST + len(text)] = np.frombuffer(text, dtype=np.uint8)
        key[i] = 2 * _FIXED + len(text) - 1
    # mask is a strided view of the caller's buffer, and numpy buffers a take
    # into one: taking into a fresh contiguous array and copying costs less
    mask[...] = tables.masks.take(key, axis=0, mode="clip")


def _column(values: np.ndarray, commas: bool) -> np.ndarray:
    """`format(float(v), ".17g")` of each value, between two commas if
    `commas`, as a row of NUL-padded bytes as wide as the longest: laid out
    by `_layout`, `BLOCK` values at a time, at most 26 bytes a value."""
    lead = int(commas)
    texts = np.zeros((values.size, _LONGEST + 2 * lead), dtype=np.uint8)
    width = np.arange(texts.shape[1])
    for i in range(0, values.size, BLOCK):
        block = values[i:i + BLOCK]
        rows, mask = _rows(block.size, lead)
        _layout(block, rows[:, lead:], mask[:, lead:])
        # the comma before a value, and in place of its newline, the one after
        rows[:, :lead] = rows[:, -1:] = ord(",")
        mask[:, :lead] = 1
        mask[:, -1] = lead
        chosen = mask.view(bool)
        texts[i:i + block.size][width < chosen.sum(axis=1)[:, None]] = rows[chosen]
    # texts are left-aligned: the widest fills every column with a nonzero byte
    return texts[:, :np.count_nonzero(texts.max(axis=0))]


def write_grid(fh, t: np.ndarray, x: np.ndarray, values: np.ndarray) -> None:
    """Write the line "{t},{x},{v}" of every value of the (len(t), len(x))
    float64 grid to the binary file fh, t-major, each ended by a newline.

    The grid goes by blocks: as many whole rows as fit in `BLOCK` values, or
    `BLOCK` sites of one row.  A block's lines are rows of the t text, the
    ",x," text and the value's candidate bytes, compressed by one mask.  The
    t and ",x," texts are laid out by `_column`, once each; where blocks
    span whole rows, the ",x," columns are laid into the block buffer once
    for the grid, and only the t columns are copied per block.
    """
    nt, nx = values.shape
    if nt == 0 or nx == 0:
        return
    t_text, site = _column(t, False), _column(x, True)
    t_mask, site_mask = t_text != 0, site != 0
    wt, lead = t_text.shape[1], t_text.shape[1] + site.shape[1]
    block_rows, block_sites = min(nt, max(1, BLOCK // nx)), min(nx, BLOCK)
    lines, chosen = _rows(block_rows * block_sites, lead)
    whole_rows = block_sites == nx
    if whole_rows:  # every block holds the same ",x," columns: write them once
        shape = (block_rows, nx, lead + _WIDTH)
        lines.reshape(shape)[:, :, wt:lead] = site
        chosen.reshape(shape)[:, :, wt:lead] = site_mask
    for r0 in range(0, nt, block_rows):
        r1 = min(r0 + block_rows, nt)
        for s0 in range(0, nx, block_sites):
            s1 = min(s0 + block_sites, nx)
            count = (r1 - r0) * (s1 - s0)
            text, mask = lines[:count], chosen[:count]
            shape = (r1 - r0, s1 - s0, lead + _WIDTH)
            text.reshape(shape)[:, :, :wt] = t_text[r0:r1, None]
            mask.reshape(shape)[:, :, :wt] = t_mask[r0:r1, None]
            if not whole_rows:
                text.reshape(shape)[:, :, wt:lead] = site[s0:s1]
                mask.reshape(shape)[:, :, wt:lead] = site_mask[s0:s1]
            _layout(values[r0:r1, s0:s1].ravel(), text[:, lead:], mask[:, lead:])
            fh.write(text[mask.view(bool)])
