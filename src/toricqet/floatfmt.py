"""Exact ``'%.17g' % x`` for arrays of float64, vectorized with numpy.

``format_fields`` writes the bytes that CPython's ``'%.17g' % x`` prints
for each value, so the sweep CSV stays byte-identical to per-value Python
formatting at a fraction of its cost.  Why the vectorized digits are exact:

- For |x| in [1e-4, 1e16), let k = floor(log10 |x|) and y = |x| 10^(16-k).
  16 - k lies in [1, 20], and 10^n is an exact double for n <= 22.
- Dekker's two-product gives y = hi + err exactly: hi = fl(|x| 10^(16-k)),
  and err from a Veltkamp split of both factors by 2^27 + 1.  Each step is
  its own numpy ufunc, so no fused multiply-add changes a rounding.
- A value is kept only if the exact pair puts y in [1e16, 1e17).  There,
  doubles are 2 to 16 apart, so hi is an even integer.  D = hi + rint(err),
  summed in int64, is then y rounded half-to-even to an integer: rint
  breaks a tie of err to even, and hi is even.  CPython's correctly
  rounded dtoa prints the same 17 digits.
- |x| >= 1e-4 > 10^-4 and |x| < 10^16 = 1e16, and D < 10^17, so k in
  [-4, 15] is the printed exponent and %g uses fixed notation: the
  digits, a '.' after digit k (or "0." and -k - 1 zeros before them when
  k < 0), and no trailing fraction zeros or bare '.'.

Every other value goes to Python's ``'%.17g' %`` one at a time: zero
(signed or not), |x| < 1e-4, |x| >= 1e16, inf and nan, and a log10 that is
off by one, so that the pair falls outside [1e16, 1e17).
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

# Bytes of one formatted value, as five 8-byte words: a sign, "0." and up to
# three zeros for |x| < 1, then the 17 digits, each followed by a slot for
# '.'.  The last byte is always NUL.  The longest %.17g of any float64,
# '-1.7976931348623157e+308', also fits.
FIELD_WIDTH = 40
# Veltkamp's splitter for a 53-bit significand: 2^27 + 1.
SPLITTER = 134217729.0


@functools.cache
def _tables():
    """Lookup tables, built on first use:

    - per 4-digit group 0..9999, a word of its four digits, each followed
      by a NUL '.' slot, and the group's count of trailing zeros;
    - per count of digits kept (0..17), a mask of the bytes of those digits;
    - per (sign, '.' placed or not, exponent k in [-4, 15]), the bytes that
      are not digits: '-', the head "0." and zeros for k < 0, and the '.'
      after digit k;
    - 10^n for n <= 20, and its Veltkamp halves."""
    digit_bytes = np.array([6, *range(8, FIELD_WIDTH, 2)])
    pairs = np.arange(100, dtype=np.uint8)
    pairs = np.stack((pairs // 10, pairs % 10), axis=1) + ord("0")
    chars = np.concatenate((np.repeat(pairs, 100, axis=0), np.tile(pairs, (100, 1))), axis=1)
    groups = np.zeros((10000, 8), np.uint8)
    groups[:, ::2] = chars
    zeros = (chars[:, ::-1] == ord("0")).cumprod(axis=1, dtype=np.int8).sum(axis=1, dtype=np.int8)
    keep = np.zeros((18, FIELD_WIDTH), np.uint8)
    for kept in range(18):
        keep[kept, digit_bytes[:kept]] = 0xFF
    layout = np.zeros((2, 2, 20, FIELD_WIDTH), np.uint8)
    layout[1, :, :, 0] = ord("-")
    for k in range(-4, 16):
        if k < 0:
            layout[:, :, k + 4, 1:2 - k] = np.frombuffer(b"0." + b"0" * (-k - 1), np.uint8)
        else:
            layout[:, 1, k + 4, digit_bytes[k] + 1] = ord(".")
    powers = np.array([float(10 ** n) for n in range(21)])
    high = powers * SPLITTER
    high -= high - powers
    return (groups.view(np.uint64).ravel(), zeros, keep.view(np.uint64),
            layout.reshape(80, FIELD_WIDTH).view(np.uint64), powers, high, powers - high)


def padded(strings: Iterable[str], width: int) -> np.ndarray:
    """One row of `width` bytes per ASCII string, NUL-padded on the right."""
    text = b"".join(s.encode().ljust(width, b"\0") for s in strings)
    return np.frombuffer(text, np.uint8).reshape(-1, width)


def python_fields(values: np.ndarray) -> np.ndarray:
    """The fallback: Python's own '%.17g' % x, in format_fields' layout."""
    return padded(("%.17g" % x for x in values.tolist()), FIELD_WIDTH)


def format_fields(values: np.ndarray) -> np.ndarray:
    """'%.17g' % x for each x of the float64 array values: one FIELD_WIDTH-byte
    row each, NUL bytes between and after its characters."""
    groups, group_zeros, keep, layout, powers, high, low = _tables()
    mag = np.abs(values)
    ok = (mag >= 1e-4) & (mag < 1e16)
    np.copyto(mag, 1.0, where=~ok)
    k = np.log10(mag)
    np.floor(k, out=k)
    np.clip(k, -4.0, 15.0, out=k)
    shift = (16.0 - k).astype(np.intp)
    hi = mag * np.take(powers, shift)
    a1 = mag * SPLITTER
    a1 -= a1 - mag
    a2 = mag - a1
    b1, b2 = np.take(high, shift), np.take(low, shift)
    err = a2 * b2 - (((hi - a1 * b1) - a2 * b1) - a1 * b2)
    ok &= (hi >= 1e16) & (hi < 1e17) & ((hi > 1e16) | (err >= 0.0))
    rest = hi.astype(np.int64) + np.rint(err).astype(np.int64)
    quads = np.empty((values.size, 5), np.intp)
    # D is positive and below 1e18 (mag is 1 where the range test failed), so
    # // and a subtraction give divmod's digits, faster.  The first quotient,
    # below 100, is a valid group index; on a kept row it is the lead digit.
    for i, unit in enumerate((10 ** 16, 10 ** 12, 10 ** 8, 10 ** 4)):
        quads[:, i] = digits = rest // unit
        rest = rest - digits * unit
    quads[:, 4] = rest
    zeros = np.zeros(values.size, np.int8)
    for i in (1, 2, 3, 4):
        zeros = np.take(group_zeros, quads[:, i]) + (quads[:, i] == 0) * zeros
    # %g drops the fraction's trailing zeros, and its '.' with the last of them;
    # the fraction has 16 - k = shift digits
    kept = 17 - np.minimum(zeros, shift)
    row = (20 - shift) + 20 * ((shift <= 16) & (zeros < shift)) + 40 * (values < 0.0)
    words = np.take(groups, quads)
    words &= np.take(keep, kept, axis=0)
    words |= np.take(layout, row, axis=0)
    out = words.view(np.uint8)
    rejected = np.flatnonzero(~ok)
    if rejected.size:
        out[rejected] = python_fields(values[rejected])
    return out
