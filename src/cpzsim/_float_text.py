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


def _digit_rows(x, rows):
    """Fill (width, n) uint8 rows with the zero-padded ASCII digits of int64 0 <= x < 10**width."""
    for stop in range(len(rows), 0, -9):
        # Nine digits at a time as int32: its // 10 (libdivide) beats int64's and %.
        high = x // 10 ** 9 if stop > 9 else 0
        part = (x - high * 10 ** 9).astype(np.int32)
        for row in rows[max(stop - 9, 0):stop][::-1]:
            q = part // 10
            row[...], part = part - q * 10, q
        x = high
    return np.add(rows, 48, out=rows)


def _int_texts(x):
    """(n, width) uint8 rows: row i is str(x[i]) for int64 x >= 0, NUL-padded on the left."""
    rows = _digit_rows(x, np.empty((len(str(x.max())), x.size), np.uint8))
    rows[:-1][np.logical_and.accumulate(rows[:-1] == 48)] = 0
    return rows.T


def _bounds(bits):
    """Ryu's d2d up to its digit removal, on finite, nonzero float64 bits (overwritten):
    vr, vp, vm, whether vr and vm drop only zeros, even mantissa, vr's decimal exponent."""
    biased = bits >> 52 & 0x7FF
    _fill(np.flatnonzero(np.bincount(biased, minlength=2048).astype(bool) & ~_READY))
    mv = np.bitwise_and(bits, (1 << 52) - 1, out=bits)  # then Ryu's m2, then mv = 4 * m2
    mm_shift = (mv != 0) | (biased <= 1)
    np.bitwise_or(mv, 1 << 52, out=mv, where=biased > 0)
    even = (mv & 1) == 0
    mv <<= 2
    # vr, vp and vm are (mv + d) * T >> shift for d = 0, 2 and -1 - mm_shift,
    # summed by 28-bit columns: those below 2**112 only carry into the next.
    low_mv, high_mv, col = mv & _MASK, mv >> _LIMB, np.zeros((3, mv.size), np.int64)
    t, part = np.empty_like(mv), np.empty_like(mv)
    for k in range(5):
        if k:
            col >>= _LIMB
            col += np.multiply(high_mv, t, out=part)
        col += np.multiply(low_mv, np.take(_LIMBS[k], biased, out=t, mode="clip"), out=part)
        col[1] += t  # d * T: 2 T on vp's row, -(1 + mm_shift) T on vm's
        col[1] += t
        col[2] -= t
        np.subtract(col[2], t, out=col[2], where=mm_shift)
    col >>= np.take(_SHIFT, biased, out=part, mode="clip")  # "clip": out is not buffered
    col += np.left_shift(np.multiply(high_mv, t, out=t), np.subtract(_LIMB, part, out=part), out=t)
    vr, vp, vm = col
    del low_mv, high_mv, t, part
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
            np.add(k, step, out=k, where=ok)
            for old, new in ((vp, p), (vm, m), (vm_tz, m_zero)):
                np.copyto(old, new, where=ok)
    del p, m, m_zero, ok
    scale = _POW10[k]
    r = vr // scale
    rest = np.subtract(vr, np.multiply(r, scale, out=scale), out=vr)  # into spent buffers
    scale_last = np.take(_POW10, np.maximum(k - 1, 0), out=scale, mode="clip")
    last = rest // scale_last
    vr_tz = vr_tz & (rest == last * scale_last)  # every removed digit before the last was 0
    del scale, scale_last
    # Round half to even where the removed digits are exactly 5 then zeros.
    up = (last > 5) | ((last == 5) & ~(vr_tz & (r & 1 == 0)))
    r += ((r == vm) & ~(even & vm_tz)) | up
    return r, np.add(exponent, k, out=exponent)


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
    del ndigits, decpt, sci, form
    # One gather per text shape, over the entries sorted by shape.
    order = np.argsort(key)
    key = key[order]
    bounds = [0, *(np.flatnonzero(key[1:] != key[:-1]) + 1).tolist(), x.size]
    maps = [(_column_map(int(key[start])), start, stop) for start, stop in zip(bounds, bounds[1:])]
    del key
    digits, exponent = digits[order], np.abs(exponent[order])
    source = np.empty((26, x.size), np.uint8)
    _digit_rows(digits, source[:17])
    source[17:23] = np.frombuffer(_SOURCE, np.uint8)[:, None]
    _digit_rows(exponent, source[23:])
    del digits, exponent
    special = np.flatnonzero(~finite).tolist()
    width = max(len(cols) for cols, _, _ in maps)
    rows = np.zeros((x.size, max(width, 4 if special else 0)), np.uint8)
    for cols, start, stop in maps:
        rows[order[start:stop], :len(cols)] = source[cols, start:stop].T
    for i in special:
        text = repr(float(x[i])).encode("ascii").ljust(rows.shape[1], b"\0")
        rows[i] = np.frombuffer(text, np.uint8)
    return rows
