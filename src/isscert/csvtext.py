"""CSV text a block of rows at a time, each block a column at a time, byte
for byte what ``'%.17g' % x`` and ``'%s' % s`` print.

``jsonio.write_csv`` imports this module on its first file of
``jsonio.TEMPLATE_CELLS`` cells or more, so nothing here runs at package
import.
Every column is checked once, before the file is opened; the rows are then
formatted into one row buffer of at most ``_ROW_BYTES`` (a block of B rows
of w bytes each, the blocks of a file as equal as the row count allows) and
written from it.  Memory is O(B w) whatever the file's N rows: the buffer
and one column's temporaries for one block.  A number column costs O(N)
NumPy element work, O(1) Python per block and layout class (at most 22) and
one ``'%.17g'`` call per fallback cell; a text column of ASCII strings is
copied as its code points.  An integer or bool column within +-2^53 is
exact in double and below 10^16, so ``'%.17g'`` prints each value's plain
digits: they come from the digit table, without the decimal steps below.

Digits.  For finite x != 0, ``'%.17g'`` prints |x| rounded to 17
significant digits, ties to even: an integer q in [10^16, 10^17) and a
decimal exponent X with q 10^(X-16) that rounding.  All arithmetic is
float64, which rounds to nearest with unit roundoff u = 2^-53:

* Table.  For each k, hi is 10^k and lo is 10^k - hi, each rounded to
  nearest from exact integers (int true division rounds correctly), so
  10^k = hi + lo + d with |lo| <= u hi and |d| <= u |lo| <= u^2 hi.  hi =
  hh + hl exactly, hh and hl of at most 26 bits each (Veltkamp's split of
  its significand).  For 10^-290 <= |x| < 10^290 every entry used is a
  normal double or zero; every other x falls back (below).
* X starts as floor(log10 a) of a = |x| in float64, which can be one decade
  off next to a power of ten; k = 16 - X and y* = a 10^k.
* Dekker's product.  a = ah + al, ah the top 26 bits of a's significand and
  al the other 27, so ah hh, al hh, ah hl and al hl are exact, and with
  p = fl(a hi) each step of e = ((ah hh - p) + al hh + ah hl) + al hl is
  exact as well: a hi = p + e.
* y = p + c with c = fl(e + fl(a lo)) misses y* by at most
  |a d| + u a |lo| + u |e + fl(a lo)| <= u (|e| + 3u a hi (1 + u)).
  For y* below 1.0000001 10^17, p < 2^57, so |e| <= ulp(p)/2 <= 8 and the
  miss is below B = u (8 + 3.01 10^17 u), about 4.6e-15, rounded up;
  below 10^18 it is below 10 B.
* p < 2^63 truncates exactly to an int64, and for y* > 2^53 + 20 it is an
  integer, so floor(y) = p + floor(c) and the fraction f = c - floor(c)
  is exact.  A floor below 10^16 or at 10^17 or more moves X by one
  decade and y is computed again, once: floor(log10) is off by at most
  one decade, so y* then lies within 10 B of [10^16, 10^17].
* The rounding midpoint nearest to y lies |f - 1/2| away, so when
  |f - 1/2| > B every point within B of y, y* among them, rounds to the
  same integer: q = floor(y) + (f > 1/2).  A true tie has f within B of
  1/2 and is never decided here.
* q lies in [10^16, 10^17].  q = 10^17 (y* within 1/2 of 10^17) is the
  carry into the next decade: q = 10^16 with X + 1.  A y* just below
  10^16 rounds to 10^16 at X, which is also the rounding at X - 1 after
  its carry.

Every cell with |f - 1/2| <= B, every NaN or infinity and every |x|
outside [10^-290, 10^290) falls back to ``'%.17g' % x`` on its own, so
the output is exact by construction.  Within the range only true ties
(the 18th significant digit a 5 with nothing after it, as in 2^-25) and
values within B of one fall back; float64 rounds the same on every IEEE
platform, so which cells fall back does not depend on the machine.

Layout.  The ``%g`` rules: fixed notation with 16 - X decimals for
-4 <= X < 17, else d.ddd followed by e, a sign and at least two exponent
digits; trailing zeros and a bare point go.  Each cell gets a slot of
``SLOT`` bytes in which NUL marks a byte that is not printed; the rows
are sorted by layout class (one per fixed X, one for exponential) so
that each class is filled by slice copies at its own offsets, and one
compaction per 64 KiB of rows drops the NULs.
"""

from __future__ import annotations

import numpy as np

BOUND = np.nextafter(2.0 ** -53 * (8 + 3.01e17 * 2.0 ** -53), 1.0)  # B, rounded up
# |x| decided by the product; X of such an x lies in [-290, 289], and the
# first guess and the decade correction can step one beyond.  The table
# covers k = 16 - X.
_LOW, _HIGH = 1e-290, 1e290
_XMIN, _XMAX = -291, 290
_KMIN, _KMAX = 16 - _XMAX, 16 - _XMIN
_TOP_26 = np.uint64(2 ** 64 - 2 ** 27)  # sign, exponent and the significand's top 26 bits
SLOT = 24  # the longest %.17g text: -2.2250738585072014e-308
_BLOCK_BYTES = 1 << 16  # the rows of one translate call
_ROW_BYTES = 1 << 20  # the row buffer: a block of rows is formatted at a time
_EXACT = 2 ** 53  # every integer up to this magnitude is a double, below 10^16
_TENS = 10 ** np.arange(1, 16, dtype=np.int64)
# Row L keeps the 16 - L digits after the first L.
_LEADING = np.where(np.arange(16) >= np.arange(16)[:, None], 255, 0).astype(np.uint8)
_FIXED = range(-4, 17)  # one class per X printed in fixed notation, then one exponential


def _powers_of_ten():
    """hi, lo and hh of 10^k for k = _KMIN .. _KMAX: hi = 10^k and lo =
    10^k - hi rounded to nearest, hh the high half of hi = hh + hl."""
    hi, lo = [], []
    for k in range(_KMIN, _KMAX + 1):
        num, den = (10 ** k, 1) if k >= 0 else (1, 10 ** -k)
        h = num / den
        n, d = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * d - n * den) / (den * d))
    hi = np.array(hi)
    m, e = np.frexp(hi)
    t = m * (2.0 ** 27 + 1)
    return hi, np.array(lo), np.ldexp(t - (t - m), e)


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


_HI, _LO, _HH = _powers_of_ten()
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
    rest, quot = lo, np.empty_like(lo)
    for k in range(4, -1, -1):
        if k == 2:
            rest = hi
        np.floor_divide(rest, 10 ** 4, out=quot)
        rest -= quot * 10 ** 4  # the last 4 digits of rest
        np.take(_DIGITS, rest + trailing, out=words[:, k], mode="wrap")
        trailing *= rest == 0
        rest, quot = quot, rest
    return words.view(np.uint8)[:, 3:]  # the first group is one digit


def _scaled(a: np.ndarray, i: np.ndarray):
    """(floor(y) as int64, y - floor(y)) of y = p + c, Dekker's product of
    each a with 10^k from row i = k - _KMIN of the table."""
    hl = np.take(_HI, i)
    p = hl * a
    e = np.take(_HH, i)
    hl -= e  # hi - hh, exact
    ah = (a.view(np.uint64) & _TOP_26).view(np.float64)
    a -= ah  # al, until a is needed again
    t = e * a
    e *= ah
    e -= p
    e += t  # (ah hh - p) + al hh
    np.multiply(hl, ah, out=t)
    e += t
    hl *= a
    e += hl  # + ah hl + al hl: a hi - p, exact
    a += ah
    del ah, hl
    np.take(_LO, i, out=t, mode="clip")
    t *= a
    c = np.add(e, t, out=e)
    floor = np.floor(c, out=t)
    q = p.astype(np.int64)
    del p
    q += floor.astype(np.int64)
    return q, np.subtract(c, floor, out=c)


def _decimal(x: np.ndarray):
    """(q, X, fallback): the 17 significant digits q and exponent X of each
    x (q = X = 0 for zero), and where ``'%.17g'`` must print x instead."""
    a = np.abs(x)
    skip = ~((a >= _LOW) & (a < _HIGH))  # zero, not finite or out of range
    a[skip] = 1.0  # q = 10^16, X = 0
    i = np.log10(a)
    np.floor(i, out=i)
    i = np.subtract(16 - _KMIN, i, out=i).astype(np.intp)  # k - _KMIN, k = 16 - X
    q, f = _scaled(a, i)
    high, low = q >= 10 ** 17, q < 10 ** 16
    off = np.flatnonzero(high | low)
    if len(off):
        i[off] += np.where(high[off], -1, 1)
        q[off], f[off] = _scaled(a[off], i[off])
    q += f > 0.5
    f -= 0.5
    fallback = np.abs(f, out=f) <= BOUND
    X = (16 - _KMIN - i).astype(np.int16)
    carry = q == 10 ** 17
    q[carry] = 10 ** 16
    X += carry
    if skip.any():
        q[skip] = 0
        fallback[skip] = x[skip] != 0
    return q, X, fallback


def _number_cells(x: np.ndarray, out: np.ndarray) -> None:
    """The ``'%.17g'`` text of each x in its row of ``out`` ((n, SLOT)
    bytes, each row contiguous), NUL where nothing is printed."""
    x = x.astype(np.float64, copy=False)
    n = len(x)
    q, X, fallback = _decimal(x)
    fixed = (X >= _FIXED.start) & (X < _FIXED.stop)
    layout = np.where(fixed, X - _FIXED.start, len(_FIXED)).astype(np.int8)
    order = np.argsort(layout, kind="stable")
    ends = np.searchsorted(np.take(layout, order), range(1, len(_FIXED) + 2)).tolist()
    q, X = np.take(q, order), np.take(X, order)
    digits = _digit_bytes(q)
    slot = np.zeros((n, SLOT), np.uint8)
    np.multiply(np.take(np.signbit(x).view(np.uint8), order), ord("-"), out=slot[:, 0])
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
    whole = np.dtype((np.void, SLOT))  # a slot as one element
    out.view(whole)[order, 0] = slot.view(whole)[:, 0]
    at = np.flatnonzero(fallback)
    if len(at):
        text = ("%-24.17g" * len(at) % tuple(x[at].tolist())).encode()
        cells = np.frombuffer(text, np.uint8).reshape(len(at), SLOT)
        out[at] = np.where(cells == ord(" "), 0, cells)


def _integer_cells(v: np.ndarray, out: np.ndarray) -> None:
    """The ``'%.17g'`` text of each integer |v| <= 2^53 in its row of
    ``out``: exact as a double and below 10^16, so its plain digits after a
    minus sign, the zeros before its first digit NUL."""
    a = v.astype(np.int64)
    np.abs(a, out=a)
    leading = 15 - np.searchsorted(_TENS, a, side="right")  # 16 less the digit count
    words = np.empty((len(v), 4), np.uint32)  # 16 digits, 4 to a word
    quot = np.empty_like(a)
    for k in range(3, -1, -1):
        np.floor_divide(a, 10 ** 4, out=quot)
        a -= quot * 10 ** 4  # the last 4 digits of a
        np.take(_DIGITS, a, out=words[:, k], mode="wrap")
        a, quot = quot, a
    digits = words.view(np.uint8)
    digits &= np.take(_LEADING, leading, axis=0)
    out[:, 0] = np.where(v < 0, ord("-"), 0)
    out[:, 1:17] = digits
    out[:, 17:] = 0


def _text(c: np.ndarray, blocks):
    """The code points of a column of ASCII strings without NUL as (n, width),
    else None; checked a block of rows at a time."""
    points = np.ascontiguousarray(c).view(np.uint32).reshape(len(c), c.dtype.itemsize // 4)
    for rows in blocks:
        block = points[rows]
        if block.size and (block.max() > 127
                           or np.any((block[:, :-1] == 0) & (block[:, 1:] != 0))):
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
    n = len(columns[0])
    widths = [c.dtype.itemsize // 4 if c.dtype.kind == "U" else SLOT for c in columns]
    # The comma after each cell; the last one's is the newline.
    ends = (np.cumsum(widths) + np.arange(len(widths))).tolist()
    width = ends[-1] + 1
    # As few blocks as keep the row buffer within _ROW_BYTES (or one row),
    # all of step rows but the last, which is short by less than their count.
    count = max(1, -(-n * width // _ROW_BYTES))
    step = max(1, -(-n // count))
    blocks = [slice(start, min(start + step, n)) for start in range(0, n, step)]
    cells = []  # each column's values, what prints them (None: text is copied) and where
    for c, end, w in zip(columns, ends, widths):
        fill = None
        if c.dtype.kind == "U":
            c = _text(c, blocks)
            if c is None:
                return False
        elif c.dtype.kind not in "biuf" or c.dtype.itemsize > 8:
            return False
        elif c.dtype.kind in "biu" and (not n or -_EXACT <= c.min() and c.max() <= _EXACT):
            fill = _integer_cells
        else:
            fill = _number_cells
        cells.append((c, fill, slice(end - w, end)))
    buf = np.empty((min(n, step), width), np.uint8)  # one block's rows, reused
    buf[:, ends] = ord(",")
    buf[:, -1] = ord("\n")
    # Dropping the NULs copies what it reads, so it goes a chunk of rows at
    # a time: the copies stay small and in cache.
    chunk = max(1, _BLOCK_BYTES // width)
    with open(path, "wb") as f:
        f.write(head.encode())
        for rows in blocks:
            out = buf[:rows.stop - rows.start]
            for c, fill, span in cells:
                if fill is None:
                    out[:, span] = c[rows]
                else:
                    fill(c[rows], out[:, span])
            for start in range(0, len(out), chunk):
                f.write(out[start:start + chunk].tobytes().translate(None, b"\0"))
    return True
