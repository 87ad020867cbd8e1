"""Shortest round-trip text of float64 arrays, byte for byte as `repr`.

Ryu (U. Adams, "Ryu: fast float-to-string conversion", PLDI 2018) finds
the shortest decimal that reads back as the same double with integer
arithmetic alone.  `csv_rows` runs its common case on a whole block of
float columns at once, interleaved in row order as one uint64 array,
and lays the digits out as Python's `repr` does.  Everything that
depends only on the biased exponent (Ryu's q and i, the shift j, the
table column of the 125-bit multiplier M, the trailing-zero bounds) is
read from one 2,048-entry table.  Each value costs one product m2 * M,
in 32-bit limbs carried into 64-bit words; Ryu's three bounds are that
product times 4, plus 2M or minus (1 + mm_shift)M, shifted right by j
(as Dragonbox, J. Jeon 2020, takes both ends of the interval from the
value's own product).  The digits come from five uint16 groups of four
places.  nan, +-inf, +-0.0 and the values Ryu sends through its
exact-trailing-zero branch are formatted by `repr` itself.  That branch
takes x where 2**q divides mv = 4 m2, with Ryu's q (q < 63; from 2**54
up, Ryu's e2 >= 0 half, each value reads e2 = -1's row, whose q is 0).
q falls as |x| grows: the branch takes every value from 2**49 up, half
the significands of [2**47, 2**49), a quarter of [2**46, 2**47), an
eighth of [2**44, 2**46), ever fewer below, and none under 2**-26
(q = 54 there); it also takes short dyadic values such as 0.5, 0.75,
1.0, 3.0 and 1024.0.  The same gather that places the digits writes
each cell's separator, a comma or, after the last column, a newline.
"""

from __future__ import annotations

import functools

import numpy as np

__all__: list = []  # private to the CLI; the package re-exports none of it

WIDTH = 24  # len(repr(-2.2250738585072014e-308)): sign, 17 digits, '.', 'e-308'

_M32 = np.uint64(0xFFFFFFFF)
_POW10 = np.array([10**i for i in range(20)], np.uint64)

# rows of the per-value source that a layout pattern picks bytes from:
# 3..19 the significand's digits right-aligned in 17 places (0..2 pad
# them to four groups of four), then the exponent's sign and its hundreds,
# tens and ones, then the literals, then the cell's separator
_EXP_SIGN, _EXP_100, _EXP_10, _EXP_1 = 20, 21, 22, 23
_MINUS, _DOT, _ZERO, _E, _NUL, _SEP = 24, 25, 26, 27, 28, 29
_LITERALS = np.frombuffer(b"-.0e\0,", dtype=np.uint8)
_EXP_PLACES = np.array([[100], [10], [1]], np.uint32)
_LAYOUTS = 22  # fixed notation with decpt -3..16, then exponents of 2 and 3 digits


def _patterns() -> np.ndarray:
    """Source row of each byte of each CSV cell, keyed by (sign, nd, layout): (748, WIDTH + 1).

    Bytes 0..WIDTH-1 are the repr, NUL-padded; byte WIDTH is the separator.
    """
    rows = []
    for sign in ([], [_MINUS]):
        for nd in range(1, 18):  # significand digits, right-aligned in 17 places
            digits = list(range(20 - nd, 20))
            for pt in range(-3, _LAYOUTS - 3):  # decpt of fixed notation; 17 and 18 mean exponents
                if pt >= 17:  # d.ddde+XX, d.ddde-XXX
                    exp = [_E, _EXP_SIGN] + [_EXP_100, _EXP_10, _EXP_1][18 - pt :]
                    text = digits[:1] + [_DOT] * (nd > 1) + digits[1:] + exp
                elif pt <= 0:  # 0.00ddd
                    text = [_ZERO, _DOT] + [_ZERO] * -pt + digits
                elif pt < nd:  # dd.ddd
                    text = digits[:pt] + [_DOT] + digits[pt:]
                else:  # ddd00.0
                    text = digits + [_ZERO] * (pt - nd) + [_DOT, _ZERO]
                text = sign + text
                rows.append(text + [_NUL] * (WIDTH - len(text)) + [_SEP])
    return np.array(rows, np.int32)


def _pow5bits(e):
    """Bit length of 5**e for 0 <= e < 3529, as Ryu computes it."""
    return ((e * 1217359) >> 19) + 1


@functools.cache
def _tables() -> tuple:
    """The multipliers, the exponent table and the layout patterns.

    Built on first use: importing the CLI must not pay for them.
    """
    # Ryu's 125-bit multipliers M = 5**i / 2**k, for e2 < 0
    pow5 = [5**i for i in range(326)]
    mults = [(p << 125) >> p.bit_length() for p in pow5]
    words = b"".join(m.to_bytes(16, "little") for m in mults)
    lo, hi = np.frombuffer(words, np.uint64).reshape(-1, 2).T
    # 32-bit limbs of M, then the 64-bit words of M and of 2M
    mul = np.stack([lo & _M32, lo >> 32, hi & _M32, hi >> 32, lo, hi, lo << 1, hi << 1 | lo >> 63])

    # per biased exponent E, as int16: the column of M, j - 64, -i and the
    # trailing-zero shift; E >= 1077 (|x| >= 2**54), nan and inf take e2 = -1's row
    en = 1077 - np.clip(np.arange(2048), 1, 1076)  # -e2
    q = ((en * 732923) >> 20) - (en > 1)
    i = en - q
    j = q - _pow5bits(i) + 125
    # Ryu's branch is taken where 2**q divides mv = 4 m2, that is where
    # mv << (64 - q) wraps to 0: from E = 1072 (|x| >= 2**49), where q <= 2,
    # and at e2 = -1, where q = 0, every value goes to repr
    zshift = np.where(q < 63, 64 - q, 0)
    exps = np.stack([i, j - 64, -i, zshift]).astype(np.int16)

    return mul, exps, _patterns()


def csv_rows(columns) -> str:
    """Equal-length 1-D float columns as CSV rows of each value's repr.

    The whole block is one encoder pass: the columns are interleaved in
    row order, and each cell's comma or newline comes with its digits.
    """
    # any float kind converts exactly; float32 alone would stay float32
    x = np.stack(columns, axis=1, dtype=np.float64).ravel()
    text = _encode_block(x, len(columns))
    return text[text != 0].tobytes().decode("ascii")


def _bounds(mv, mul, shift, mm_shift):
    """Ryu's vr, vp and vm: (mv + d) * M >> j for d = 0, 2 and -1 - mm_shift.

    mv = 4 m2 < 2**55, `mul` holds M's limbs and words (the rows of
    `_tables()[0]` at each value's column) and shift is j - 64.  The
    product mv * M is formed once, in 32-bit limbs whose columns are
    carried into three 64-bit words; 2M is added and (1 + mm_shift) M
    subtracted with the carry or borrow of the low word.
    """
    x, y = np.stack([mv & _M32, mv >> 32])[:, None] * mul[:4]  # limb products, y < 2**55
    low = x & _M32
    cols = (x >> 32) + y  # column k + 1 of the product, less the carries
    cols[:3] += low[1:]
    c2 = cols[1] + (cols[0] >> 32)
    c3 = cols[2] + (c2 >> 32)
    lo = low[0] | (cols[0] << 32)
    mid = (c2 & _M32) | (c3 << 32)
    hi = cols[3] + (c3 >> 32)

    left = 64 - shift
    vr = (mid >> shift) | (hi << left)
    carry = lo > ~mul[6]
    mid_p = mid + (mul[7] + carry)
    vp = (mid_p >> shift) | ((hi + (mid_p < mid)) << left)
    sub_lo = np.where(mm_shift, mul[6], mul[4])
    sub_hi = np.where(mm_shift, mul[7], mul[5]) + (lo < sub_lo)
    mid_m = mid - sub_hi
    vm = (mid_m >> shift) | ((hi - (mid < sub_hi)) << left)
    return vr, vp, vm


def _shortest(vr, vp, vm):
    """Ryu's digits and the count r of digits they drop from vr.

    r is the largest count with vp // 10**r > vm // 10**r; vr // 10**r is
    rounded half up on the last digit dropped, and up where it equals
    vm // 10**r.  Every row is tried at two digits, then at one; the rows
    that took that step go on alone.
    """
    p, m = vp // 100, vm // 100
    two = p > m
    p, m = np.where(two, p, vp) // 10, np.where(two, m, vm) // 10
    one = p > m
    removed = two * 2 + one
    live = np.flatnonzero(one)
    p, m = p[live], m[live]
    while len(live):
        p, m = p // 10, m // 10
        step = p > m
        live, p, m = live[step], p[step], m[step]
        removed[live] += 1
    scale = _POW10.take(removed)
    digits = vr // scale
    low = digits * scale
    rest = vr - low
    digits += (vm >= low) | (rest >= scale - rest)
    return digits, removed


def _encode_block(x, width) -> np.ndarray:
    """CSV cells of the contiguous float64 x in rows of `width`: (len(x), WIDTH + 1) bytes."""
    mul_table, exp_table, patterns = _tables()
    k = len(x)
    bits = x.view(np.uint64)
    ieee_e = ((bits >> 52) & 0x7FF).view(np.intp)
    ieee_m = bits & ((1 << 52) - 1)
    col, shift, neg_i, zshift = exp_table.take(ieee_e, axis=1)
    mv = np.where(ieee_e == 0, ieee_m, ieee_m | (1 << 52)) << 2
    mm_shift = (ieee_m != 0) | (ieee_e <= 1)
    vr, vp, vm = _bounds(mv, mul_table.take(col, axis=1), shift.astype(np.uint64), mm_shift)

    # Ryu's exact-trailing-zero branch: where 2**q divides mv; +-0.0, nan,
    # inf and every |x| >= 2**49 land here too
    fallback = (mv << zshift.astype(np.uint64)) == 0
    digits, removed = _shortest(vr, vp, vm)

    nd = np.searchsorted(_POW10[:17], digits, side="right")
    decpt = nd + removed + neg_i
    exp = np.abs(decpt - 1).astype(np.uint32)
    layout = np.where((decpt > -4) & (decpt <= 16), decpt + 3, 20 + (exp >= 100))
    key = ((bits >> 63).astype(np.intp) * 17 + nd - 1) * _LAYOUTS + layout

    # the source rows, one per column of bytes: a pattern row picks from them
    src = np.empty((_SEP + 1, k), np.uint8)
    groups = np.empty((5, k), np.uint16)  # 20 places in fours, the leading one first
    for g in range(4, 0, -1):
        high = digits // 10000
        groups[g] = digits - high * 10000
        digits = high
    groups[0] = digits
    places = src[:20].reshape(5, 4, k)
    for col in range(3, -1, -1):
        tenth = groups // 10
        places[:, col] = groups - tenth * 10 + 48
        groups = tenth
    src[_EXP_SIGN] = np.where(decpt > 0, ord("+"), ord("-"))
    src[_EXP_100 : _EXP_1 + 1] = exp // _EXP_PLACES % 10 + 48
    src[_MINUS:] = _LITERALS[:, None]
    src[_SEP, width - 1 :: width] = ord("\n")
    # each byte's index in the flattened source: int32 holds (_SEP + 1) * k,
    # since a pass is one CLI chunk of at most _CSV_CHUNK_ROWS rows
    index = patterns.take(key, axis=0)
    index *= k
    index += np.arange(k, dtype=np.int32)[:, None]
    out = src.ravel().take(index)

    rest = np.flatnonzero(fallback)
    if len(rest):
        text = np.array([repr(val) for val in x[rest].tolist()], dtype=f"S{WIDTH}")
        out[rest, :WIDTH] = text.view(np.uint8).reshape(-1, WIDTH)
    return out
