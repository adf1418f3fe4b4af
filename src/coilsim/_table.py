"""The one CSV writer behind every table the package exports, and the one
place in the package that opens a file for writing.  Its writes are atomic:
a table is written whole or not at all.

A table arrives as blocks of columns, so a table too large to hold whole
streams through one block at a time.  Row-built tables (traces, logs,
diagnostics, metrics) pass their rows transposed as a single block.  The
writer turns WRITE_ROWS rows of a block at a time into one byte string and
writes it, the bytes csv.writer writes for the same rows.  A float cell,
np.float64 included, is the `repr` of the Python float; any other cell is
as `_cell` gives it: a str itself, None empty, anything else (an int) its
own `repr`.

Float cells are formatted as arrays.  The float columns of the rows being
written (a sequence of floats is first converted to float64, exactly) are
pooled and deduplicated by magnitude, and the writer alone prints signs:
every repr but a NaN's is "-" and the repr of the magnitude when the sign
bit is set.  A column given as Levels, a few distinct values and a per-row
index into them (a grid axis), skips the pool: each level is formatted once
and its text gathered down the rows.  Each distinct normal magnitude, one
slice of the sorted ones np.unique gives, gets its shortest round-trip
decimal digits from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020; the algorithm behind JDK 19's `Double.toString`), computed
in uint64 arithmetic with 128-bit products built from 32-bit limbs.  These
are the digits `repr` picks: the fewest that read back as the same double,
the closest of those to it, ties to even.  One call per write lays them out
by `repr`'s rules: exponent form when the decimal point position decpt is
<= -4 or > 16, ".0" on an integral value and at least two exponent digits.
Each value's text fills a fixed row of a uint8 matrix, with a NUL wherever
it has no character, the sign's column included; the rows' cells, commas
and line ends form one matrix whose NULs are dropped when it is written.

`repr` itself still formats zero, subnormal, infinite and NaN magnitudes,
the levels of a Levels column, and every cell of rows with fewer than
KERNEL_MIN float cells (a Levels column's count): the kernel costs some
hundred array operations per call, which such rows do not repay.

WRITE_ROWS alone bounds the writer's memory whatever the size of the
table: about 0.1 kB per cell and 0.3 kB per distinct magnitude of the rows
being written.  Traced peaks: 1.9 MB on a field map (17^3 or 33^3 points),
1.3 MB on a closed-loop trace, 3.0 MB on MSE curves and 5.1 MB on convex
diagnostics, whose nine float columns make the largest writes.
"""

from __future__ import annotations

import functools
import os
from contextlib import suppress
from typing import Iterable, Sequence

import numpy as np

# Rows formatted and written at a time; bounds the writer's memory.
WRITE_ROWS = 2048
# Fewest float cells in a write for which the kernel beats `repr`.
KERNEL_MIN = 2048

_M32 = 0xFFFFFFFF
_FRACTION = (1 << 52) - 1
_HIDDEN = 1 << 52
_SIGN = np.uint64(1 << 63)
_INF = np.uint64(0x7FF << 52)  # the bits of inf: -inf is _SIGN + _INF
_MINUS = np.uint8(ord("-"))
_POW10 = np.array([10**i for i in range(20)], np.uint64)
# The three interval points 4c - 2, 4c and 4c + 2, as wrapping uint64 offsets.
_OFFSETS = np.array([[2**64 - 2], [0], [2]], np.uint64)
# The kernel's output rows: the sign's, NUL, then either "0." and up to three
# zeros and 17 digits (fixed notation), or 17 digits and a point and "e",
# the exponent's sign and three digits (exponent notation).
_WIDTH = 24
_DIGIT_ROWS = np.arange(18, dtype=np.uint8)[:, None]
_POSITIONS = _DIGIT_ROWS + np.uint8(1)  # 1-based digit positions
_THREE = np.arange(3, dtype=np.uint8)[:, None]


@functools.cache
def _g_table() -> tuple[np.ndarray, ...]:
    """Schubfach's g for 10^e, e in -292..324, as four 32-bit limbs
    (most significant first): ceil(10^e * 2^(127 - floor(log2 10^e))),
    a 128-bit number in [2^127, 2^128)."""
    g = []
    for e in range(-292, 325):
        shift = 127 - ((e * 1741647) >> 19)
        if e >= 0:
            num, den = 10**e << max(shift, 0), 1 << max(-shift, 0)
        else:
            num, den = 1 << shift, 10**-e
        g.append(-(-num // den))
    limbs = np.array([[(v >> s) & _M32 for s in (96, 64, 32, 0)] for v in g], np.uint64)
    limbs.flags.writeable = False
    return tuple(limbs.T)


@functools.cache
def _ascii4() -> np.ndarray:
    """The ASCII digits of 0000..9999, four bytes in one uint32 each."""
    n = np.arange(10000, dtype=np.uint64)
    digits = np.empty((4, 10000), np.uint8)
    for k in (3, 2, 1, 0):
        n, digits[k] = np.divmod(n, 10)
    digits += ord("0")
    table = np.ascontiguousarray(digits.T).view(np.uint32).ravel()
    table.flags.writeable = False
    return table


def _mul(a0, a1, b0, b1, low: bool = True):
    """The high and (if `low`) low 64 bits of (a1 2^32 + a0)(b1 2^32 + b0),
    all limbs below 2^32."""
    p00 = a0 * b0
    p01 = a0 * b1
    p10 = a1 * b0
    mid = p00 >> 32
    mid += p01 & _M32
    mid += p10 & _M32
    hi = a1 * b1
    hi += p01 >> 32
    hi += p10 >> 32
    hi += mid >> 32
    if not low:
        return hi, None
    mid <<= 32
    mid |= p00 & _M32
    return hi, mid


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach: for the bits of positive normal doubles v, the shortest
    decimal d 10^e that rounds to v, the closest of those to v, ties to an
    even d.  d may carry trailing zeros."""
    biased = (bits >> 52).astype(np.int64)
    c = (bits & _FRACTION) | _HIDDEN
    q = biased - 1075
    # at a power of two the interval below v is half as wide as above it
    closer = (c == _HIDDEN) & (biased > 1)
    k = (q * 1262611 - closer * 524031) >> 22  # floor(log10(2^q)), or of 3/4 2^q
    h = (q + ((-k * 1741647) >> 19) + 1).astype(np.uint64)
    g3, g2, g1, g0 = (limb[292 - k] for limb in _g_table())
    cp = (c << 2) + _OFFSETS
    cp[0] += closer
    cp <<= h
    # round to odd: floor(cp g / 2^128), with its low bit set if inexact
    a0, a1 = cp & _M32, cp >> 32
    x_hi, _ = _mul(a0, a1, g0, g1, low=False)
    y_hi, y_lo = _mul(a0, a1, g2, g3)
    y_lo += x_hi
    y_hi += y_lo < x_hi
    y_hi |= y_lo > 1
    vbl, vb, vbr = y_hi
    odd = (c & 1).astype(bool)
    lower = vbl + odd
    upper = vbr - odd
    s = vb >> 2
    s10 = s // 10
    s40 = s10 * 40
    # one digit fewer: at most one of s40 and s40 + 40 lies in the interval
    up_in = lower <= s40
    wp_in = s40 + 40 <= upper
    short = (s >= 10) & (up_in != wp_in)
    s4 = s << 2
    u_in = lower <= s4
    w_in = s4 + 4 <= upper
    mid = s4 + 2
    nearest = (vb > mid) | ((vb == mid) & (s & 1).astype(bool))
    d = np.where(short, s10 + wp_in, s + np.where(u_in != w_in, w_in, nearest))
    return d, k + short


def _layout(bits: np.ndarray, out: np.ndarray) -> None:
    """Write the repr of each positive normal double in `bits` into the
    (_WIDTH, n) uint8 matrix `out`, one character or NUL per row; row 0,
    where the writer puts a negative value's "-", is NUL."""
    n = len(bits)
    d, e10 = _shortest(bits)
    n_digits = np.searchsorted(_POW10, d, side="right")
    x = d * _POW10[18 - n_digits]  # the digits, zero-filled to 18
    groups = np.empty((5, n), np.uint64)
    for j in (4, 3, 2, 1):
        x, groups[j] = np.divmod(x, 10000)
    groups[0] = x
    ascii4 = _ascii4()
    digits = ascii4[groups].view(np.uint8).reshape(5, n, 4).transpose(0, 2, 1).reshape(20, n)[2:]
    significant = ((digits != ord("0")) * _POSITIONS).max(axis=0)
    decpt = e10 + n_digits
    fixed = (decpt > -4) & (decpt <= 16)
    below_one = fixed & (decpt <= 0)
    sci = ~fixed
    # digits to print (an integral fixed value keeps the 0 after its point),
    # and the position of the point among them (past the end if none)
    keep = np.maximum(significant, (decpt + 1) * fixed).astype(np.uint8)
    point = np.where(fixed & ~below_one, decpt, np.where(sci & (significant > 1), 1, 99)).astype(np.uint8)
    out[0] = 0
    out[1] = below_one * ord("0")
    out[2] = below_one * ord(".")
    np.multiply(_THREE < (below_one * -decpt).astype(np.uint8), np.uint8(ord("0")), out=out[3:6])
    kept = digits * (_DIGIT_ROWS < keep)
    body = kept * (_DIGIT_ROWS < point)
    body += (_DIGIT_ROWS == point) * np.uint8(ord("."))
    body[1:] += kept[:17] * (_DIGIT_ROWS[1:] > point)
    # a fixed value's digits follow its "0.000" in rows 6-23; an exponent
    # form's follow the sign in rows 1-18, and its exponent fills 19-23
    np.multiply(body, fixed, out=out[6:24])
    out[1:19] += body * sci
    e = decpt - 1
    ae = np.abs(e)
    exponent = np.empty((5, n), np.uint8)
    exponent[0] = sci * ord("e")
    exponent[1] = sci * (ord("+") + (e < 0) * (ord("-") - ord("+")))
    np.multiply(ascii4[ae].view(np.uint8).reshape(n, 4).T[1:], sci, out=exponent[2:])
    exponent[2] *= ae >= 100
    out[19:24] += exponent


def _text_matrix(texts) -> np.ndarray:
    """Each of `texts`, one NUL-padded row of bytes each."""
    text = np.array(texts, dtype=np.bytes_)
    return text.view(np.uint8).reshape(len(text), -1)


def _cell(value) -> str:
    """The text of a cell: a float's (np.float64's too) is the repr of the
    Python float, a str is itself, None is empty, anything else its repr."""
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, str):
        return value
    return "" if value is None else repr(value)


def _format(bits: np.ndarray) -> np.ndarray:
    """The repr of each of `bits`, a write's ascending distinct magnitudes,
    one NUL-padded row each whose column 0 is NUL, for the writer's "-"."""
    # zeros and subnormals lie below the least normal, inf and NaNs from inf on
    lo, hi = np.searchsorted(bits, np.array([_HIDDEN, _INF], np.uint64))
    text = np.empty((_WIDTH, hi - lo), np.uint8)
    _layout(bits[lo:hi], text)
    table = np.zeros((len(bits), _WIDTH), np.uint8)
    table[lo:hi] = text.T
    for rows in (slice(0, lo), slice(hi, None)):
        if reprs := list(map(repr, bits[rows].view(np.float64).tolist())):
            specials = _text_matrix(reprs)
            table[rows, 1:1 + specials.shape[1]] = specials
    return table


class Levels:
    """A float column given as its distinct values and each row's index
    into them: row i holds levels[index[i]].  A grid axis has a few levels
    repeated down many rows, and the writer formats each level once."""

    __slots__ = ("levels", "index")

    def __init__(self, levels: np.ndarray, index: np.ndarray):
        self.levels = levels
        self.index = index

    def __len__(self) -> int:
        return len(self.index)

    def __getitem__(self, rows: slice) -> "Levels":
        return Levels(self.levels, self.index[rows])


def _is_float(column) -> bool:
    """Whether every cell of `column` is a float (np.float64 included)."""
    if isinstance(column, Levels):
        return True
    if isinstance(column, np.ndarray):
        return column.dtype == np.float64
    return set(map(type, column)) <= {float, np.float64}


def _cells(column, is_float: bool) -> list[str]:
    """The text of each cell of `column`, or of each level of a Levels."""
    if isinstance(column, Levels):
        column, is_float = np.asarray(column.levels, dtype=np.float64), True
    if isinstance(column, np.ndarray):
        column = column.tolist()
    return list(map(float.__repr__ if is_float else _cell, column))


def _rows(columns: list) -> bytes:
    """The CSV lines of equal-length, non-empty columns."""
    n = len(columns[0])
    floats = [_is_float(c) for c in columns]
    if n * sum(floats) < KERNEL_MIN:
        cells = [_cells(c, f) for c, f in zip(columns, floats)]
        cells = [list(map(t.__getitem__, c.index.tolist())) if isinstance(c, Levels) else t
                 for c, t in zip(columns, cells)]
        return ("\r\n".join(map(",".join, zip(*cells))) + "\r\n").encode()
    plain = [np.asarray(c, dtype=np.float64).view(np.uint64) for c, f in zip(columns, floats)
             if f and not isinstance(c, Levels)]
    if plain:
        bits = np.concatenate(plain)
        # -x prints as "-" + repr(x) for every x but NaN, whose repr has no sign
        minus = iter((bits - _SIGN <= _INF).reshape(-1, n))
        distinct, inverse = np.unique(bits & ~_SIGN, return_inverse=True)
        table = _format(distinct)
        inverse = iter(inverse.reshape(-1, n))
    matrices = [None if f and not isinstance(c, Levels) else _text_matrix(_cells(c, f))
                for c, f in zip(columns, floats)]
    widths = [table.shape[1] if m is None else m.shape[1] for m in matrices]
    text = np.empty((n, sum(widths) + len(widths) + 1), np.uint8)
    at = 0
    for c, m, w in zip(columns, matrices, widths):
        if m is None:
            text[:, at:at + w] = table[next(inverse)]
            np.multiply(next(minus), _MINUS, out=text[:, at])
        else:
            text[:, at:at + w] = m[c.index] if isinstance(c, Levels) else m
        text[:, at + w] = ord(",")
        at += w + 1
    text[:, -2:] = (ord("\r"), ord("\n"))  # in place of the last comma
    return text.tobytes().translate(None, b"\0")


def part_path(path) -> str:
    """The name a table is written under until it is complete."""
    return f"{os.fspath(path)}.part"


def write_repr_csv(path, header: Sequence[str], blocks: Iterable[Iterable[Sequence]]) -> None:
    """Write the header, then each block of equal-length columns as one line
    per row, the bytes csv.writer writes for the same rows.

    Columns are float64 arrays, Levels, or sequences of cells.  A column
    whose cells are all floats (np.float64 scalars included) prints them as
    Python floats, through the array kernel once the rows written together
    hold KERNEL_MIN float cells; a Levels column prints as the float column
    levels[index]; any other column prints each cell as `_cell` does.  No
    cell is quoted, so a str cell must be ASCII and need no csv quoting: no
    comma, quote or line break.  The writer holds WRITE_ROWS rows of text
    at a time.

    The write is atomic: the rows go to part_path(path), which replaces
    `path` after the last row; if anything raises first, the blocks
    included, the part is removed and `path` keeps its previous bytes.
    """
    part = part_path(path)
    try:
        with open(part, "wb") as fh:
            fh.write((",".join(header) + "\r\n").encode())
            for columns in blocks:
                columns = list(columns)
                for start in range(0, len(columns[0]) if columns else 0, WRITE_ROWS):
                    fh.write(_rows([c[start:start + WRITE_ROWS] for c in columns]))
        os.replace(part, path)
    except BaseException:
        with suppress(OSError):
            os.unlink(part)
        raise
