"""Python's repr of float64 tables, with numpy operations in place of one
repr call per value.

format_table(table) returns exactly what

    "".join("  ".join(map(repr, row)) + "\\n" for row in table.tolist())

returns for a C-contiguous float64 table, in two steps:

1. `_shortest` finds the decimal f 10**k that repr writes for each value:
   the shortest digit string that reads back as the same float, and of two
   such the nearer (the even one on a tie).  It is Schubfach (R. Giulietti,
   "The Schubfach way to render doubles", 2020; Ryu, U. Adams, PLDI 2018,
   solves the same problem): three products of a 61-bit multiple of the
   significand with a 126-bit scale 10**-k, done in 32-bit limbs.
2. `format_table` lays each value out as repr does ('0.001', '123.0',
   '1e-05', '-1.5e+300', 'nan', 'inf', '-0.0') in a 32-byte slot of four
   little-endian uint64 words, NUL where the text has no byte, and drops
   the NULs of the whole table at once.

All arithmetic is on uint64 arrays: conditions are 0/1 words (`_below`)
and choices are sums, not bool masks, int16 exponents or `where=`.  The
first use of a numpy kernel in a process faults in about 64 KiB of
numpy's code, so every dtype and ufunc beyond the uint64 ones the digits
need would raise the peak RSS of a run that writes tables.

The table of 617 scales and the byte templates are built on first use.
Each array is dropped as soon as it is spent, so a call peaks at about
100 B per value, its text included.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_LOW32 = np.uint64(0xFFFFFFFF)
_HIDDEN = np.uint64(1 << 52)
_SIGN = np.uint64(1 << 63)
_INF = np.uint64(0x7FF0000000000000)
_POW10 = np.array([10 ** i for i in range(18)], dtype=np.uint64)


def _word(text: bytes) -> int:
    """The integer whose 8 little-endian bytes are text, NUL-padded."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


def _words(mask: int) -> list:
    """A 192-bit integer as its three 64-bit words, the lowest first."""
    return [(mask >> (64 * w)) & (2 ** 64 - 1) for w in range(3)]


def _bytes(lo: int, hi: int) -> int:
    """The mask of bytes lo .. hi - 1."""
    return sum(0xFF << (8 * x) for x in range(lo, hi))


def _below(a, b):
    """1 where a < b, else 0, for uint64 values (arrays or scalars) below
    2**63: the sign bit of a - b."""
    d = a - b
    d >>= np.uint64(63)
    return d


@cache
def _scales() -> tuple:
    """Schubfach's g(k) = floor(10**-k 2**(125 - floor(log2 10**-k))) + 1
    for k = -324 .. 292, as four uint64 arrays: its 32-bit limbs from the
    lowest."""
    limbs = np.empty((4, 617), dtype=np.uint64)
    for i, k in enumerate(range(-324, 293)):
        r = ((-k * 913124641741) >> 38) - 125
        if k > 0:
            g = (1 << -r) // 10 ** k
        else:
            g = 10 ** -k >> r if r >= 0 else 10 ** -k << -r
        limbs[:, i] = [((g + 1) >> (32 * j)) & 0xFFFFFFFF for j in range(4)]
    return tuple(limbs)


@cache
def _templates() -> tuple:
    """The byte templates of a slot (see format_table), as uint64 words."""
    # by the dot's byte p: the bytes after it, and the dot itself (none at
    # p = 23, where a one-digit exponent form such as 1e-05 ends)
    after = np.array([_words(_bytes(p + 1, 24)) for p in range(24)],
                     dtype=np.uint64).T.copy()
    dot = np.array([_words(0x2E << 8 * p if p < 23 else 0)
                    for p in range(24)], dtype=np.uint64).T.copy()
    # by 24 p + first: the bytes first .. p - 1, the digits before the dot
    before = np.array([_words(_bytes(first, p)) for p in range(24)
                       for first in range(24)], dtype=np.uint64).T.copy()
    # by exponent + 324, with a last entry for no exponent
    exponent = np.array([_word(b"e%+03d" % e) for e in range(-324, 309)]
                        + [0], dtype=np.uint64)
    special = np.array([_words(int.from_bytes(text.rjust(24, b"\0"),
                                              "little"))
                        for text in (b"0.0", b"inf", b"nan")],
                       dtype=np.uint64).T.copy()
    return after, dot, before, exponent, special


def _eight_digits(x):
    """The eight digits of each x < 10**8 (overwritten) as the ASCII bytes
    of a little-endian word, the first digit lowest: halves of four digits
    in 32-bit lanes, then pairs in 16-bit lanes, then digits in bytes, each
    split by a multiply and shift that divides exactly in that range."""
    u = np.uint64
    hi = x // u(10 ** 4)
    x -= hi * u(10 ** 4)
    x <<= u(32)
    x |= hi
    for mul, shift, mask, base, width in (
            (10486, 20, 0x0000007F0000007F, 100, 16),
            (103, 10, 0x000F000F000F000F, 10, 8)):
        hi = x * u(mul)
        hi >>= u(shift)
        hi &= u(mask)
        x -= hi * u(base)
        x <<= u(width)
        x |= hi
    x |= u(0x3030303030303030)
    return x


def _scaled_floor(i, cp):
    """floor(g cp / 2**128) for the scales g at i (see _scales), made odd
    when any of the next 64 bits of g cp is set, for cp < 2**61, which is
    overwritten.  Each limb of g is taken once; the sums stay below 2**63."""
    u = np.uint64
    c0 = cp & _LOW32
    c1 = cp
    c1 >>= u(32)
    # col holds the 32-bit column sums of g c0 + 2**32 g c1 from bit 32
    # on, and carry what the next column gets of the last limb's products
    limbs = _scales()
    i = i.view(np.intp)
    part = limbs[0].take(i)
    carry = part * c1
    part *= c0
    col = part >> u(32)
    sticky = None
    for m in (1, 2, 3):
        limbs[m].take(i, out=part, mode="clip")
        col += carry
        np.multiply(part, c1, out=carry)
        part *= c0
        col += part & _LOW32
        part >>= u(32)
        carry += part
        if m > 1:  # bits 64 .. 127
            np.bitwise_and(col, _LOW32, out=part)
            if sticky is None:
                sticky = part.copy()
            else:
                sticky |= part
        col >>= u(32)
    col += carry
    col |= _below(u(0), sticky)
    return col


def _shortest(mag):
    """(f, i, loose): f 10**(i - 324) is the decimal that repr writes for
    the positive finite float64 whose bits are mag (overwritten).  f has 16
    or 17 digits and does not end in 0, except where loose is 1: there the
    value is below 2**-1020 (i = 0) or f a multiple of ten."""
    u = np.uint64
    be = mag >> u(52)
    c = mag
    c &= u((1 << 52) - 1)
    # the hidden bit, where the biased exponent be > 0
    hidden = be + u((1 << 52) - 1)
    hidden &= _HIDDEN
    c |= hidden
    # the value is c 2**q with q = max(be, 1) - 1075; the numbers that
    # round to it fill an interval of width 2**q, or 3/4 of that at a power
    # of two above the least normal (asym)
    be |= _below(be, u(1))
    asym = _below(c, _HIDDEN + u(1))
    asym -= _below(c, _HIDDEN)
    asym &= _below(u(1), be)
    # i = k + 324 for k = floor(log10 of that width), and h puts
    # c 2**q 10**-k at bit 128 of g (4 c << h); the integer forms of
    # floor(q log10 2) and floor(e log2 10) hold for every exponent of a
    # float64, and the offsets keep every sum positive
    i = be * u(661971961083)
    i -= asym * u(274743187321)
    i += u(324 * 2 ** 41 - 1075 * 661971961083)
    i >>= u(41)
    h = hidden
    np.multiply(i, u(913124641741), out=h)
    np.subtract(u(324 * 913124641741 + 1100 * 2 ** 38), h, out=h)
    h >>= u(38)
    h += be
    h -= u(1100 + 1075 - 3)
    del be, hidden
    # v is 4 c 2**q 10**-k and the ends are 4 c + 2 and 4 c - 2 (4 c - 1
    # when asym) times the same, each the floor made odd when inexact; the
    # ends belong to the interval when c is even
    odd = c & u(1)
    c <<= u(2)
    c <<= h
    high = h
    np.left_shift(u(2), h, out=high)
    low = asym
    np.right_shift(high, asym, out=low)
    del h, asym
    high += c
    v_high = _scaled_floor(i, high)
    v_high -= odd
    del high
    np.subtract(c, low, out=low)
    v_low = _scaled_floor(i, low)
    v_low += odd
    del low, odd
    v = _scaled_floor(i, c)
    del c
    s = v >> u(2)
    v &= u(3)
    # the shortest is s or s + 1, whichever is nearer (even on a tie:
    # v = 3, or v = 2 with s odd) ...
    v += s & u(1)
    v += u(1)
    nearer = v
    nearer >>= u(2)
    del v
    low_s = _below(v_low, (s << u(2)) + u(1))
    ten = s // u(10)
    ten *= u(40)
    low_ten = _below(v_low, ten + u(1))
    del v_low
    high_s = _below((s << u(2)) + u(3), v_high)
    ten += u(40)
    high_ten = _below(ten - u(1), v_high)
    del v_high
    # ... unless only one of them lies in the interval ...
    low_s -= high_s
    low_s &= u(1)
    high_s -= nearer
    high_s *= low_s
    nearer += high_s
    s += nearer
    del low_s, high_s, nearer
    # ... or a multiple of ten does (the interval holds at most one)
    ten >>= u(2)
    ten -= low_ten * u(10)
    low_ten |= high_ten
    ten -= s
    ten *= low_ten
    s += ten
    loose = low_ten
    loose |= _below(i, u(1))
    return s, i, loose


def format_table(table: np.ndarray) -> str:
    """The repr text of a C-contiguous float64 table: its values two
    spaces apart, each row ending in a newline.

    Each value gets a 32-byte slot of four words.  Byte 0 holds its sign,
    bytes 0..23 its mantissa, and word 3 its exponent and the separator
    after it.  The mantissa ends at byte 23 with its dot at byte p.  Its
    digits are first written as one right-aligned number, f 10**scale; then
    the integer digits move one byte left and the dot goes between."""
    if table.dtype != np.float64:
        raise TypeError("format_table takes float64 values only")
    u = np.uint64
    rows, cols = table.shape
    bits = table.reshape(-1).view(np.uint64)
    f = bits & ~_SIGN
    # 0, inf or nan
    special = np.flatnonzero(_below(f, u(1)) | _below(_INF - u(1), f))
    f[special] = u(0x3FF0000000000000)  # 1.0, written over below
    f, i, loose = _shortest(f)
    n = u(17) - _below(f, _POW10[16])
    # the loose values lose their trailing zeros, which keeps i + n; n is
    # counted afresh where f < 10**15, as only a subnormal's can be
    j = np.flatnonzero(loose)
    del loose
    if j.size:
        fj, ij = f[j], i[j]
        nj = n[j] + ij
        short = np.flatnonzero(_below(fj, _POW10[15]))
        for e in (16, 8, 4, 2, 1):
            q = fj // _POW10[e]
            whole = _below(fj - q * _POW10[e], u(1))
            q -= fj
            q *= whole
            fj += q
            ij += whole * u(e)
        nj -= ij
        if short.size:
            fs = fj[short]
            ns = np.ones_like(fs)
            for e in range(1, 15):
                ns += _below(_POW10[e] - u(1), fs)
            nj[short] = ns
        f[j], i[j], n[j] = fj, ij, nj
    del j
    # the value is 0.d1 .. dn 10**(point - 324) (n digits), and repr uses
    # the exponent form (expo) when point - 324 < -3 or > 16
    point = i + n
    expo = _below(point, u(321))
    expo |= _below(u(340), point)
    keep = u(1) - expo
    # f is written as f 10**scale: scale = max(k + 1, 0), or 0 in the
    # exponent form
    scale = i - u(323)
    scale *= _below(u(323), i)
    scale *= keep
    f *= _POW10.take(scale.view(np.intp))
    # the dot's byte p: after it come the last max(n - point, 1) digits, or
    # n - 1 in the exponent form; before it ip = max(point, 1) digits, or
    # 1, from byte first = p - ip (as 24 p + first)
    p = i
    p -= u(301)
    p -= scale
    p *= keep
    p += expo * (u(24) - n)
    del i, n, scale
    ip = point - u(325)
    ip *= _below(u(325), point)
    ip *= keep
    ip += u(1)
    first = p * u(25)
    first -= ip
    del ip, keep
    # the exponent's entry: point - 1, or the last one
    point -= u(634)
    point *= expo
    point += u(633)
    del expo
    after, dot, before, exponent, special_words = _templates()
    frame = np.empty((4, rows * cols), dtype=np.dtype("<u8"))
    frame[3] = exponent.take(point.view(np.intp))
    del point
    # digits 0 .. 15 of f from the right as bytes 23 .. 8, digit 16 as
    # byte 7, zeros before it
    upper = f // u(10 ** 8)
    f -= upper * u(10 ** 8)
    frame[2] = _eight_digits(f)
    del f
    top = upper // u(10 ** 8)
    upper -= top * u(10 ** 8)
    frame[1] = _eight_digits(upper)
    del upper
    top <<= u(56)
    top |= u(_word(b"\0\0" + b"0" * 6))
    frame[0] = top
    del top
    p, first = p.view(np.intp), first.view(np.intp)
    for w in range(3):
        word = frame[w]
        moved = word >> u(8)
        if w < 2:
            moved |= frame[w + 1] << u(56)
        moved &= before[w].take(first)
        word &= after[w].take(p)
        word |= moved
        word |= dot[w].take(p)
    del word, moved, first, p
    ends = frame[3].reshape(rows, cols)
    ends[:, :-1] |= u(_word(b"\0" * 5 + b"  "))
    ends[:, -1] |= u(_word(b"\0" * 5 + b"\n"))
    del ends
    frame[0] |= (bits >> u(63)) * u(0x2D)
    if special.size:
        mag = bits[special] & ~_SIGN
        kind = _below(u(0), mag)
        kind += _below(_INF, mag)  # 0 for 0.0, 1 for inf, 2 for nan
        sign = frame[0, special] & u(0xFF)
        sign *= _below(kind, u(2))  # repr writes no sign on nan
        frame[:3, special] = special_words[:, kind]
        frame[0, special] |= sign
    text = frame.T.tobytes()
    del frame
    text = text.translate(None, b"\0")
    return text.decode("ascii")
