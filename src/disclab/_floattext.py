"""Shortest round-trip text of float64 arrays, byte for byte as `repr`.

Ryu (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018) finds
the shortest decimal that reads back as the same double with integer
arithmetic alone.  `encode` runs its common case on whole uint64 arrays,
its 128-bit products split into 32-bit limbs, and lays the digits out
as Python's `repr` does.  nan, +-inf, +-0.0 and the values Ryu sends
through its exact-trailing-zero branch are formatted by `repr` itself.
"""

from __future__ import annotations

import functools

import numpy as np

__all__: list = []  # private to the CLI; the package re-exports none of it

WIDTH = 24  # len(repr(-2.2250738585072014e-308)): sign, 17 digits, '.', 'e-308'

_M32 = np.uint64(0xFFFFFFFF)
_POW10 = np.array([10**i for i in range(17)], np.uint64)
_POW5 = np.array([5**i for i in range(22)], np.uint64)

# rows of the per-value source that a layout pattern picks bytes from: 0..16
# the significand's digits right-aligned, the exponent's sign and its
# hundreds, tens and ones, then the literals
_EXP_SIGN, _EXP_100, _EXP_10, _EXP_1 = 17, 18, 19, 20
_MINUS, _DOT, _ZERO, _E, _NUL = 21, 22, 23, 24, 25
_LITERALS = np.frombuffer(b"-.0e\0", dtype=np.uint8)
_LAYOUTS = 22  # fixed notation with decpt -3..16, then exponents of 2 and 3 digits
# values per pass, so each temporary is 32 KiB: one pass over a whole 20,480-value
# CSV chunk made an `attach --n 65536` call about 15 % slower (2 vCPUs, numpy 2.4)
_BLOCK = 4096


def _layout(nd: int, layout: int) -> list:
    """Source rows of one unsigned repr: `nd` digits in fixed or exponent notation."""
    d = list(range(17 - nd, 17))
    if layout >= 20:
        exp = [_EXP_100, _EXP_10, _EXP_1][21 - layout :]
        return d[:1] + ([_DOT] + d[1:] if nd > 1 else []) + [_E, _EXP_SIGN] + exp
    pt = layout - 3  # decpt: the value is 0.d1d2...dnd * 10**pt
    if pt <= 0:
        return [_ZERO, _DOT] + [_ZERO] * -pt + d
    if pt < nd:
        return d[:pt] + [_DOT] + d[pt:]
    return d + [_ZERO] * (pt - nd) + [_DOT, _ZERO]


@functools.cache
def _tables() -> tuple:
    """Ryu's 125-bit inverse powers and powers of 5 as 32-bit limbs, and the layout patterns.

    Built on first use: importing the CLI must not pay for them.
    """
    pow5 = [5**q for q in range(342)]
    inv = [(1 << (p.bit_length() + 124)) // p + 1 for p in pow5]
    split = [(p << 125) >> p.bit_length() for p in pow5[:326]]
    limbs = [[(v >> s) & 0xFFFFFFFF for v in inv + split] for s in (0, 32, 64, 96)]
    unsigned = [_layout(nd, layout) for nd in range(1, 18) for layout in range(_LAYOUTS)]
    rows = unsigned + [[_MINUS] + row for row in unsigned]  # keyed by (sign, nd, layout)
    patterns = [row + [_NUL] * (WIDTH - len(row)) for row in rows]
    return np.array(limbs, np.uint64), np.array(patterns, np.uint8)


def _pow5bits(e):
    """Bit length of 5**e for 0 <= e < 3529, as Ryu computes it."""
    return ((e * 1217359) >> 19) + 1


def _mul_shift(m, mul, j):
    """floor(m * mul / 2**j) for m < 2**64, mul as (4, len) 32-bit limbs, 64 < j < 128."""
    cols = [np.zeros_like(m) for _ in range(6)]  # the product in 32-bit columns
    for a, ma in enumerate((m & _M32, m >> 32)):
        for b in range(4):
            p = ma * mul[b]
            cols[a + b] += p & _M32
            cols[a + b + 1] += p >> 32
    for lo, hi in zip(cols, cols[1:]):
        hi += lo >> 32
        lo &= _M32
    s = (j - 64).astype(np.uint64)
    return (((cols[3] << 32) | cols[2]) >> s) | (((cols[5] << 32) | cols[4]) << (64 - s))


def encode(x) -> np.ndarray:
    """A (x.size, WIDTH) uint8 matrix: row i holds repr of the i-th value of x, NUL-padded."""
    x = np.ascontiguousarray(x, dtype=np.float64).ravel()
    out = np.empty((len(x), WIDTH), np.uint8)
    for lo in range(0, len(x), _BLOCK):
        out[lo : lo + _BLOCK] = _encode_block(x[lo : lo + _BLOCK])
    return out


def _encode_block(x) -> np.ndarray:
    mul_table, patterns = _tables()
    k = len(x)
    bits = x.view(np.uint64)
    ieee_e = ((bits >> 52) & 0x7FF).astype(np.int64)
    ieee_m = bits & ((1 << 52) - 1)
    special = (ieee_e == 0x7FF) | ((ieee_e == 0) & (ieee_m == 0))
    ieee_e[special] = 1023  # a harmless stand-in; these rows go to repr below

    e2 = np.maximum(ieee_e, 1) - 1077
    m2 = np.where(ieee_e == 0, ieee_m, ieee_m | (1 << 52))
    mv = m2 << 2
    mm_shift = ((ieee_m != 0) | (ieee_e <= 1)).astype(np.uint64)
    up = e2 >= 0
    # vr = mv * 2**e2 / 10**q if e2 >= 0, else mv * 5**i / 2**q: either way
    # mv times a 125-bit table entry over 2**j, and the value is about vr * 10**-i
    ep, en = np.maximum(e2, 0), np.maximum(-e2, 0)
    q = np.where(up, ((ep * 78913) >> 18) - (ep > 3), ((en * 732923) >> 20) - (en > 1))
    i = en - q
    mul = mul_table.take(np.where(up, q, 342 + i), axis=1)
    j = np.where(up, q - ep + 124 + _pow5bits(q), q - _pow5bits(i) + 125)
    v = _mul_shift(np.stack([mv, mv + 2, mv - 1 - mm_shift]), mul, j)  # Ryu's vr, vp, vm

    # Ryu's exact-trailing-zero branch: where 2**q (e2 < 0) or 5**q (e2 >= 0) divides a bound
    mask2 = (np.uint64(1) << np.minimum(q, 62).astype(np.uint64)) - np.uint64(1)
    fallback = special | (~up & ((q <= 1) | ((q < 63) & ((mv & mask2) == 0))))
    s = np.flatnonzero(up & (q <= 21))
    ms, p5 = mv[s], _POW5[q[s]]
    odd_s = ((ms >> 2) & 1).astype(bool)
    mod5 = ms % 5 == 0
    fallback[s] |= np.where(mod5, ms % p5 == 0, ~odd_s & ((ms - 1 - mm_shift[s]) % p5 == 0))
    v[1, s] -= (~mod5 & odd_s & ((ms + 2) % p5 == 0)).astype(np.uint64)

    # drop digits while the interval still holds a shorter decimal
    # (two at a time, then one; round_up follows the last digit dropped)
    removed, round_up = np.zeros(k, np.int64), np.zeros(k, bool)
    for base, count in ((100, 2), (10, 1)):
        while True:
            v_b = v // base
            step = v_b[1] > v_b[2]
            if not step.any():
                break
            round_up = np.where(step, v[0] - v_b[0] * base >= base // 2, round_up)
            v = np.where(step, v_b, v)
            removed += step * count
    digits = v[0] + ((v[0] == v[2]) | round_up)

    nd = np.searchsorted(_POW10, digits, side="right")
    decpt = nd - i + removed
    exp = np.abs(decpt - 1).astype(np.uint32)
    layout = np.where((decpt > -4) & (decpt <= 16), decpt + 3, 20 + (exp >= 100))
    key = ((bits >> 63).astype(np.intp) * 17 + nd - 1) * _LAYOUTS + layout

    # the source rows, one per column of bytes: a pattern row picks from them
    src = np.empty((26, k), np.uint8)
    for col in range(16, -1, -1):
        tenth = digits // 10
        src[col] = digits - tenth * 10 + 48
        digits = tenth
    src[_EXP_SIGN] = np.where(decpt > 0, ord("+"), ord("-"))
    for row, power in ((_EXP_100, 100), (_EXP_10, 10), (_EXP_1, 1)):
        src[row] = exp // power % 10 + 48
    src[_MINUS:] = _LITERALS[:, None]
    index = patterns.take(key, axis=0) * np.intp(k)
    index += np.arange(k)[:, None]
    out = src.ravel().take(index)

    rest = np.flatnonzero(fallback)
    text = np.array([repr(val) for val in x[rest].tolist()], dtype=f"S{WIDTH}")
    out[rest] = text.view(np.uint8).reshape(-1, WIDTH)
    return out
