"""CSV text a column at a time, byte for byte what ``'%.17g' % x`` and
``'%s' % s`` print.

``jsonio.write_csv`` imports this module on its first file of
``jsonio.TEMPLATE_CELLS`` cells or more, so nothing here runs at package
import.
A number column costs O(rows) NumPy element work, O(1) Python per layout
class (at most 22) and one ``'%.17g'`` call per fallback cell; a text
column of ASCII strings is copied as its code points.  An integer or bool
column within +-2^53 is exact in double and below 10^16, so ``'%.17g'``
prints each value's plain digits: they come from the digit table, without
the decimal steps below.

Digits.  For finite x != 0, ``'%.17g'`` prints |x| rounded to 17
significant digits, ties to even: an integer q in [10^16, 10^17) and a
decimal exponent X with q 10^(X-16) that rounding.  With u the unit
roundoff of ``np.longdouble`` (``np.finfo(np.longdouble).eps / 2``), an
IEEE format that rounds to nearest:

* X starts as floor(log10|x|) in float64, which can be one decade off next
  to a power of ten.  y = |x| T[16 - X] in longdouble, where T[k] is 10^k
  rounded to nearest from exact integers; y >= 10^17 or y < 10^16 moves X by
  one decade and y is computed again.
* |x| is exact in longdouble, and T[k] and the product each round once, so
  y is within y* (2u + u^2) of y* = |x| 10^(16-X).  As y < 10^17, y* <
  10^17 (1 + 3u) and |y - y*| < B = 10^17 2u (1 + 4u), rounded up.
* y < 2^63, so y truncates exactly to an int64 and its fraction f = y -
  trunc(y) is exact.  The rounding midpoint nearest to y lies |f - 1/2|
  away, so when |f - 1/2| > B every point within B of y, y* among them,
  rounds to the same integer: q = trunc(y) + (f > 1/2).  A true tie
  has f within B of 1/2 and is never decided here.
* floor(log10) is off by at most one decade, so after the correction
  10^16 <= y < 10^17 and q lies in [10^16, 10^17].  q = 10^17 (y* just
  below 10^17) is the carry into the next decade: q = 10^16 with X + 1.
  A y* just below 10^16 while y >= 10^16 rounds to 10^16 at X, which is
  also the rounding at X - 1 after its carry.

Every cell with |f - 1/2| <= B, and every NaN or infinity, falls back to
``'%.17g' % x`` on its own, so the output is exact by construction.  On
x86-64 (64-bit longdouble mantissa) B is about 0.011 and about 2 % of
cells fall back; where longdouble is plain double, B is about 22 >= 1/2
and every cell does.

Layout.  The ``%g`` rules: fixed notation with 16 - X decimals for
-4 <= X < 17, else d.ddd followed by e, a sign and at least two exponent
digits; trailing zeros and a bare point go.  Each cell gets a slot of
``SLOT`` bytes in which NUL marks a byte that is not printed; the rows
are sorted by layout class (one per fixed X, one for exponential) so
that each class is filled by slice copies at its own offsets, and one
compaction drops the NULs of the whole file.
"""

from __future__ import annotations

import numpy as np

_LD = np.longdouble
_U = np.finfo(_LD).eps / 2
BOUND = np.nextafter(_LD(1e17) * (2 * _U) * (1 + 4 * _U), _LD(np.inf))
# X of a finite double lies in [-324, 308]; the decade correction can step
# one beyond.  T[k] covers k = 16 - X.
_XMIN, _XMAX = -325, 309
_KMIN, _KMAX = 16 - _XMAX, 16 - _XMIN
SLOT = 24  # the longest %.17g text: -2.2250738585072014e-308
_BLOCK_BYTES = 1 << 18
_EXACT = 2 ** 53  # every integer up to this magnitude is a double, below 10^16
_TENS = 10 ** np.arange(1, 16, dtype=np.int64)
# Row L keeps the 16 - L digits after the first L.
_LEADING = np.where(np.arange(16) >= np.arange(16)[:, None], 255, 0).astype(np.uint8)
_FIXED = range(-4, 17)  # one class per X printed in fixed notation, then one exponential


def _powers_of_ten() -> np.ndarray:
    """T[k - _KMIN] = 10^k rounded to nearest, ties to even, in longdouble."""
    bits = np.finfo(_LD).nmant + 1
    mantissas, exponents = [], []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        e = num.bit_length() - den.bit_length() - bits
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        if num >= den << bits:
            e += 1
            den <<= 1
        m, r = divmod(num, den)  # 2^(bits-1) <= m < 2^bits
        m += 2 * r > den or (2 * r == den and m & 1)
        mantissas.append(m)
        exponents.append(e)
    # 32 bits at a time: every partial sum is exact in longdouble.
    t = np.zeros(len(mantissas), _LD)
    for shift in reversed(range(0, bits, 32)):
        t = t * _LD(2 ** 32) + np.array([m >> shift & 0xFFFFFFFF for m in mantissas], _LD)
    return np.ldexp(t, np.array(exponents))


def _digit_words() -> np.ndarray:
    """4 ASCII digits of v as one uint32 at v, and with trailing zeros NUL at
    10000 + v."""
    v = np.arange(10000, dtype=np.int16)
    words = np.empty((2, 10000, 4), np.uint8)
    for k, place in enumerate((1000, 100, 10, 1)):
        words[0, :, k] = 48 + v // place % 10
        words[1, :, k] = np.where(v % (10 * place) == 0, 0, words[0, :, k])
    return words.view(np.uint32).ravel()


def _exponent_bytes() -> np.ndarray:
    """e, the sign and the digits of X (two of them for |X| < 100, the
    first one NUL) as 5 bytes at X - _XMIN."""
    x = np.arange(_XMIN, _XMAX + 1, dtype=np.int16)
    e = np.abs(x)
    return np.stack([np.full(len(x), ord("e")), np.where(x < 0, ord("-"), ord("+")),
                     np.where(e >= 100, 48 + e // 100, 0), 48 + e // 10 % 10, 48 + e % 10],
                    axis=1).astype(np.uint8)


_POW10 = _powers_of_ten()
_EXPONENTS = _exponent_bytes()
_DIGITS = _digit_words()


def _digit_bytes(q: np.ndarray) -> np.ndarray:
    """The 17 digits of each q < 10^17 as (n, 17) ASCII bytes, the zeros after
    its last nonzero digit NUL."""
    hi = q // 10 ** 8
    lo = (q - hi * 10 ** 8).astype(np.int32)  # the last 8 digits
    hi = hi.astype(np.int32)  # the first 9
    words = np.empty((len(q), 5), np.uint32)
    trailing = np.full(len(q), 10000, np.int32)
    for k, rest in ((4, lo), (3, lo), (2, hi), (1, hi), (0, hi)):
        group = rest % 10 ** 4
        rest //= 10 ** 4
        np.take(_DIGITS, group + trailing, out=words[:, k], mode="wrap")
        trailing *= group == 0
    return words.view(np.uint8)[:, 3:]  # the first group is one digit


def _decimal(x: np.ndarray):
    """(q, X, fallback): the 17 significant digits q and exponent X of each
    x (q = X = 0 for zero), and where ``'%.17g'`` must print x instead."""
    ok = np.isfinite(x) & (x != 0)
    a = np.where(ok, np.abs(x), 1.0)
    X = np.floor(np.log10(a)).astype(np.int16)
    y = np.take(_POW10, 16 - _KMIN - X)
    y *= a
    high, low = y >= 1e17, y < 1e16
    off = np.flatnonzero(high | low)
    if len(off):
        X[off] += np.where(high[off], 1, -1)
        y[off] = np.take(_POW10, 16 - _KMIN - X[off]) * a[off]
    q = y.astype(np.int64)
    f = np.subtract(y, q, out=y)  # the fraction, in place of y
    q += f > 0.5
    fallback = (f >= 0.5 - BOUND) & (f <= 0.5 + BOUND)
    carry = q == 10 ** 17
    q[carry] = 10 ** 16
    X += carry
    fallback = np.where(ok, fallback, x != 0)
    q[~ok] = 0
    X[~ok] = 0
    return q, X, fallback


def _number_cells(x: np.ndarray, out: np.ndarray) -> None:
    """The ``'%.17g'`` text of each x in its row of ``out`` ((n, SLOT)
    bytes), NUL where nothing is printed."""
    n = len(x)
    q, X, fallback = _decimal(x)
    fixed = (X >= _FIXED.start) & (X < _FIXED.stop)
    layout = np.where(fixed, X - _FIXED.start, len(_FIXED)).astype(np.int8)
    order = np.argsort(layout, kind="stable")
    ends = np.cumsum(np.bincount(layout, minlength=len(_FIXED) + 1)).tolist()
    q, X = np.take(q, order), np.take(X, order)
    digits = _digit_bytes(q)
    slot = np.zeros((n, SLOT), np.uint8)
    np.multiply(np.signbit(np.take(x, order)), ord("-"), out=slot[:, 0], casting="unsafe")
    start = 0
    for cls, end in enumerate(ends):
        rows, start = slice(start, end), end
        if rows.start == rows.stop:
            continue
        # A point is printed when a digit follows it: digits after the
        # last nonzero one are NUL, and np.minimum maps a digit to "." and
        # NUL to NUL.
        if cls == len(_FIXED):  # d.ddde-XX
            slot[rows, 1] = digits[rows, 0]
            np.minimum(digits[rows, 1], ord("."), out=slot[rows, 2])
            slot[rows, 3:19] = digits[rows, 1:]
            slot[rows, 19:] = np.take(_EXPONENTS, X[rows] - _XMIN, axis=0)
            continue
        e = cls + _FIXED.start
        if e >= 0:  # ddd.ddd: zeros before the point are printed
            np.bitwise_or(digits[rows, :e + 1], ord("0"), out=slot[rows, 1:e + 2])
            if e < 16:
                np.minimum(digits[rows, e + 1], ord("."), out=slot[rows, e + 2])
                slot[rows, e + 3:19] = digits[rows, e + 1:]
        else:  # 0.000ddd
            slot[rows, 1:3] = np.frombuffer(b"0.", np.uint8)
            slot[rows, 3:2 - e] = ord("0")
            slot[rows, 2 - e:19 - e] = digits[rows]
    del digits, q
    inverse = np.empty(n, np.intp)
    inverse[order] = np.arange(n)
    np.take(slot, inverse, axis=0, out=out, mode="wrap")
    at = np.flatnonzero(fallback)
    if len(at):
        text = ("%-24.17g" * len(at) % tuple(x[at].tolist())).encode()
        cells = np.frombuffer(text, np.uint8).reshape(len(at), SLOT)
        out[at] = np.where(cells == ord(" "), 0, cells)


def _integer_cells(v: np.ndarray, out: np.ndarray) -> None:
    """The ``'%.17g'`` text of each integer |v| <= 2^53 in its row of
    ``out``: exact as a double and below 10^16, so its plain digits after a
    minus sign, the zeros before its first digit NUL."""
    a = np.abs(v)
    leading = 15 - np.searchsorted(_TENS, a, side="right")  # 16 less the digit count
    words = np.empty((len(v), 4), np.uint32)  # 16 digits, 4 to a word
    for k in range(3, -1, -1):
        a, group = np.divmod(a, 10 ** 4)
        np.take(_DIGITS, group, out=words[:, k])
    digits = words.view(np.uint8)
    digits &= np.take(_LEADING, leading, axis=0)
    out[:, 0] = np.where(v < 0, ord("-"), 0)
    out[:, 1:17] = digits
    out[:, 17:] = 0


def _text(c: np.ndarray):
    """The code points of a column of ASCII strings without NUL as (n, width),
    else None."""
    points = np.ascontiguousarray(c).view(np.uint32).reshape(len(c), c.dtype.itemsize // 4)
    if points.size and (points.max() > 127
                        or np.any((points[:, :-1] == 0) & (points[:, 1:] != 0))):
        return None
    return points


def write_csv(path, header, columns) -> bool:
    """Write the CSV file of ``header`` and the equally long 1-D arrays
    ``columns`` to ``path``, with the bytes of one ``%s``/``%.17g`` template
    per row; False, writing nothing, when the header or a column is neither
    real numbers nor ASCII text without NUL, or the lengths differ."""
    head = ",".join(header) + "\n"
    if not head.isascii() or len({c.shape for c in columns}) != 1 or columns[0].ndim != 1:
        return False
    cells = []
    for c in columns:
        if c.dtype.kind == "U":
            c = _text(c)
            if c is None:
                return False
        elif c.dtype.kind not in "biuf" or c.dtype.itemsize > 8:
            return False
        cells.append(c)
    widths = [c.shape[1] if c.ndim == 2 else SLOT for c in cells]
    buf = np.empty((len(columns[0]), sum(widths) + len(cells)), np.uint8)
    start = 0
    for c, width in zip(cells, widths):
        cell = buf[:, start:start + width]
        if c.ndim == 2:
            cell[:] = c
        elif c.dtype.kind in "biu" and (not len(c) or -_EXACT <= c.min() and c.max() <= _EXACT):
            _integer_cells(c.astype(np.int64), cell)
        else:
            _number_cells(c.astype(np.float64, copy=False), cell)
        start += width + 1
        buf[:, start - 1] = ord(",")
    buf[:, -1] = ord("\n")
    # Dropping the NULs needs a mask as large as what it reads, so it goes
    # a block of rows at a time.
    rows = max(1, _BLOCK_BYTES // buf.shape[1])
    with open(path, "wb") as f:
        f.write(head.encode())
        for start in range(0, len(buf), rows):
            block = buf[start:start + rows].ravel()
            f.write(block[block != 0])
    return True
