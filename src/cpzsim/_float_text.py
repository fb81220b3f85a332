"""Float64 texts byte-equal to repr, from numpy ufuncs over whole arrays.

Digits are Ryu's d2d (U. Adams, "Ryū: fast float-to-string conversion", PLDI
2018): the shortest that read back to the same double, closest, ties to even,
from integer arithmetic alone (products of up to 182 bits in 28-bit limbs of
int64). The layout is CPython's repr rule: scientific form iff the decimal
point position decpt <= -4 or decpt > 16, exponents of at least two digits,
and ".0" after a whole number in positional form. Ryu's tables hold a column
per biased exponent, filled the first time a _float_texts call meets that
exponent and kept: module state with no lock, as every caller is single-threaded.
"""

import numpy as np

_LIMB = 28
_MASK = (1 << _LIMB) - 1
_POW10 = 10 ** np.arange(19)
# Source columns of a text: 17 digits, then these bytes, then 3 exponent digits.
_SOURCE = b"0.e+-\0"
_ZERO, _DOT, _E, _PLUS, _MINUS = range(17, 22)

# Per biased exponent: Ryu's multiplier in five limbs, the shift of vr beyond
# four limbs, vr's decimal exponent, q, and whether the column is filled.
_LIMBS = np.zeros((5, 2048), np.int64)
_SHIFT, _E10, _Q = np.zeros((3, 2048), np.int64)
_READY = np.zeros(2048, bool)


def _fill(biased):
    """Fill the table columns of the biased exponents in `biased`."""
    for b in biased.tolist():
        e2 = max(b, 1) - 1077
        if e2 >= 0:  # Ryu's POW5_INV_SPLIT[q], of 125 or 126 bits
            q = (e2 * 78913 >> 18) - (e2 > 3)
            p = 5 ** q
            m, shift, e10 = (1 << p.bit_length() + 124) // p + 1, p.bit_length() + 124 - e2 + q, q
        else:  # POW5_SPLIT[-e2 - q]
            q = (-e2 * 732923 >> 20) - (e2 < -1)
            p = 5 ** (-e2 - q)
            m, shift, e10 = (p << 125) >> p.bit_length(), q - p.bit_length() + 125, q + e2
        _LIMBS[:, b] = [m >> _LIMB * j & _MASK for j in range(5)]
        _SHIFT[b], _E10[b], _Q[b] = shift - 4 * _LIMB, e10, q
    _READY[biased] = True


def _digit_rows(x, width):
    """(width, n) uint8: the last `width` ASCII digits of nonnegative int64 x,
    zero-padded on the left."""
    rows = np.empty((width, x.size), np.uint8)
    for row in rows[::-1]:
        q = x // 10  # libdivide; % on an int64 array is several times slower
        row[...] = x - q * 10
        x = q
    return rows + 48


def _int_texts(x):
    """(n, width) uint8 rows: row i is str(x[i]) for nonnegative int64 x,
    NUL-padded on the left."""
    rows = _digit_rows(x, len(str(x.max())))
    rows[:-1][np.logical_and.accumulate(rows[:-1] == 48)] = 0
    return rows.T


def _bounds(bits):
    """Ryu's d2d up to its digit removal, on finite, nonzero float64 bits:
    vr, vp, vm, whether vr and vm drop only zeros, even mantissa, and vr's
    decimal exponent."""
    biased, frac = bits >> 52 & 0x7FF, bits & (1 << 52) - 1
    _fill(np.flatnonzero(np.bincount(biased, minlength=2048).astype(bool) & ~_READY))
    m2 = np.where(biased > 0, frac | 1 << 52, frac)
    mv, even, mm_shift = m2 << 2, (m2 & 1) == 0, (frac != 0) | (biased <= 1)
    # vr, vp and vm are (mv + d) * T >> shift for d = 0, 2 and -1 - mm_shift,
    # summed by 28-bit columns: those below 2**112 only carry into the next.
    t, high_mv = _LIMBS[:, biased], mv >> _LIMB
    low_mv = mv & _MASK
    low_mv = np.stack([low_mv, low_mv + 2, low_mv - 1 - mm_shift])
    col = t[0] * low_mv
    for k in range(1, 5):
        col >>= _LIMB
        col += t[k] * low_mv
        col += high_mv * t[k - 1]
    s = _SHIFT[biased]
    col >>= s
    col += high_mv * t[4] << _LIMB - s
    vr, vp, vm = col
    # Ryu's step 3: which of vr and vm drop only zeros in the removal below.
    q, e2_negative = _Q[biased], biased < 1077
    vr_tz = e2_negative & ((mv & (1 << q) - 1) == 0)  # mv % 2**q == 0; shifts past 63 give 0
    low = e2_negative & (q <= 1)
    vm_tz = low & even & mm_shift
    vp -= low & ~even
    small = np.flatnonzero(~e2_negative & (q <= 21))
    if small.size:
        p, u, ev = 5 ** q[small], mv[small], even[small]
        divides = lambda v: v - v // p * p == 0
        five = u - u // 5 * 5 == 0
        vr_tz[small] = five & divides(u)
        vm_tz[small] = ~five & ev & divides(u - 1 - mm_shift[small])
        vp[small] -= ~five & ~ev & divides(u + 2)
    return vr, vp, vm, vr_tz, vm_tz, even, _E10[biased]


def _shortest(vr, vp, vm, vr_tz, vm_tz, even, exponent):
    """Ryu's general digit removal: (digits, exponent) per entry, with
    |value| = digits * 10**exponent, digits as short as round-trips allow."""
    # Ryu drops digits while vp // 10 > vm // 10, then, where vm drops only
    # zeros, while vm % 10 == 0. Once false, each test stays false, so the
    # number removed is found by binary lifting, with no loop per digit.
    k = np.zeros_like(vr)
    for step in (16, 8, 4, 2, 1):
        scale = 10 ** step
        p, m = vp // scale, vm // scale
        m_zero = vm_tz & (m * scale == vm)
        ok = (p > m) | m_zero
        if ok.any():
            k += step * ok
            vp, vm, vm_tz = np.where(ok, p, vp), np.where(ok, m, vm), np.where(ok, m_zero, vm_tz)
    scale, scale_last = _POW10[k], _POW10[np.maximum(k - 1, 0)]
    r = vr // scale
    rest = vr - r * scale
    last = rest // scale_last
    vr_tz = vr_tz & (rest == last * scale_last)  # every removed digit before the last was 0
    # Round half to even where the removed digits are exactly 5 then zeros.
    up = (last > 5) | ((last == 5) & ~(vr_tz & (r & 1 == 0)))
    return r + (((r == vm) & ~(even & vm_tz)) | up), exponent + k


def _column_map(key):
    """The source columns of one text shape: sign, digit count, and decpt or exponent form."""
    negative, rest = divmod(key, 18 * 24)
    ndigits, form = divmod(rest, 24)
    digits, decpt = list(range(17 - ndigits, 17)), form - 3
    if form >= 20:  # d.ddde±XX, form 20 + 2 * (exponent < 0) + (|exponent| >= 100)
        text = digits[:1] + [_DOT] * (ndigits > 1) + digits[1:]
        text += [_E, _MINUS if form >= 22 else _PLUS] + [23, 24, 25][1 - form % 2:]
    elif decpt <= 0:
        text = [_ZERO, _DOT] + [_ZERO] * -decpt + digits
    elif decpt < ndigits:
        text = digits[:decpt] + [_DOT] + digits[decpt:]
    else:
        text = digits + [_ZERO] * (decpt - ndigits) + [_DOT, _ZERO]
    return [_MINUS] * negative + text


def _float_texts(x):
    """(n, width) uint8 rows, n >= 1: row i is repr(float(x[i])) in ASCII, NUL-padded."""
    x = np.ascontiguousarray(x, np.float64)
    bits = x.view(np.int64)
    finite, zero = np.isfinite(x), x == 0
    # Zeros and non-finite values run through the digits as 1.0.
    digits, exponent = _shortest(*_bounds(np.where(finite & ~zero, bits, 0x3FF0000000000000)))
    digits[zero] = 0
    ndigits = np.searchsorted(_POW10[1:18], digits, "right") + 1
    decpt = np.where(zero, 1, exponent + ndigits)
    sci = (decpt <= -4) | (decpt > 16)
    exponent = decpt - 1
    form = np.where(sci, 20 + 2 * (exponent < 0) + (np.abs(exponent) >= 100), decpt + 3)
    key = ((bits < 0) * 18 + ndigits) * 24 + form
    # One gather per text shape, over the entries sorted by shape.
    order = np.argsort(key)
    key = key[order]
    source = np.vstack([_digit_rows(digits[order], 17),
                        np.frombuffer(_SOURCE, np.uint8)[:, None].repeat(x.size, 1),
                        _digit_rows(np.abs(exponent[order]), 3)])
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), x.size]
    maps = [(_column_map(int(key[start])), start, stop) for start, stop in zip(bounds, bounds[1:])]
    texts = np.zeros((max(len(cols) for cols, _, _ in maps), x.size), np.uint8)
    for cols, start, stop in maps:
        texts[:len(cols), start:stop] = source[cols, start:stop]
    special = np.flatnonzero(~finite).tolist()
    rows = np.zeros((x.size, max(len(texts), 4 if special else 0)), np.uint8)
    rows[order, :len(texts)] = texts.T
    for i in special:
        text = repr(float(x[i])).encode("ascii").ljust(rows.shape[1], b"\0")
        rows[i] = np.frombuffer(text, np.uint8)
    return rows
