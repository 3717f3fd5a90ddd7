"""Time-sampled expectation-value trajectories, their four-spin invariant
residuals, their CSV form and a component-wise comparison, and the one
writer of every CSV table.

A trajectory with spin components and the energy component derives the
residuals of the classical spin-vector relations from its own arrays:

    resSP = |S.P|                        (+,-,-,-) four-dot
    resSS = ||S_vec|^2 - (S^0)^2 - 1|    spacelike unit norm

The CSV schema is fixed:

    t,Px,Py,Pz,S0,Sx,Sy,Sz,resSP,resSS

one row per sample, every value printed as format(v, ".17g") prints it, 17
significant digits so the doubles round-trip exactly.  ``write_table``
writes this and every other table the same way; an integer-valued double
below 10^17, such as a level count, prints as "%d" prints the integer.

The text is produced by numpy, CSV_BLOCK_ROWS rows at a time, without a
per-value Python call.  For each value x with decimal exponent
E = floor(log10|x|), y = |x| 10^(16 - E) is formed in double-double
arithmetic (error about 1e-14 absolute) against 10^(16 - E) = hi + lo,
built exactly from Python integers, with the Veltkamp halves of hi, the
first time a value of decimal exponent E is written.  Since
y >= 1e16 > 2^53, hi is an integer, and the 17-digit mantissa is
N = hi + round(lo), half-even; a misjudged E is corrected once, and
N = 10^17 carries into the exponent.
N is split into 4-digit groups in int32 and expanded through a table of
4-digit words.  Each value gets a fixed slot of 28 bytes: the separator
before it, the sign, "0." and the zeros of |x| < 1, the integer digits,
the point, the fraction digits without trailing zeros and the exponent,
following %g: fixed notation for -4 <= E < 17, "e+XX" notation
otherwise.  The slots live in a bytearray, whose unused 0 bytes are
squeezed out of the block in one pass.

A value goes to the per-value "%.17g" instead when it is not finite, when
its exponent has three digits (|E| >= 100), which no slot holds, or when
the fraction of lo lies within 1e-6 of 1/2, so that the double-double
error could decide the rounding; its slot holds "%b" for it.  The written
bytes equal the per-value ones by construction.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .doubledouble import _SPLIT
from .errors import DomainError
from .operators import OBSERVABLES

CSV_COLUMNS = ("t", *OBSERVABLES, "resSP", "resSS")
CSV_HEADER = ",".join(CSV_COLUMNS)
#: rows the CSV writer formats at a time, which bounds its working memory
CSV_BLOCK_ROWS = 1024

#: magnitudes the CSV writer formats in arrays; 10^(16 - E) and its
#: Veltkamp halves stay finite for every decade within them
_FAST_MIN, _FAST_MAX = 1e-100, 1e100
#: distance of lo's fraction from 1/2 below which the rounding is left to "%.17g"
_TIE_MARGIN = 1e-6
#: bytes of one value's slot: the separator before it, the sign, "0." of
#: |x| < 1 and the zeros after it, 17 digits with the point among them, and
#: an exponent of two digits
_SLOT = 28
_ZERO = ord("0")


def _format_value(value: float) -> bytes:
    """One value as "%.17g" prints it; the writer's path for the values its
    arrays cannot decide."""
    return b"%.17g" % value


def _word(text: bytes) -> int:
    """Up to 4 bytes of text as the uint32 that holds them."""
    return int.from_bytes(text.ljust(4, b"\0"), sys.byteorder)


@functools.cache
def _scale(x: int) -> tuple[float, float, float, float]:
    """10^(16 - x) = hi + lo, which brings a value of decimal exponent x to
    17 digits, as (hi, big, small, lo): hi the nearest double, big + small
    its Veltkamp split, and lo the nearest double to 10^(16 - x) - hi (int
    true division and int-to-float conversion both round correctly)."""
    k = 16 - x
    if k >= 0:
        hi = float(10**k)
        lo = float(10**k - int(hi))
    else:
        den = 10**-k
        hi = 1 / den
        m, d = hi.as_integer_ratio()
        lo = (d - m * den) / (d * den)
    c = _SPLIT * hi
    big = c - (c - hi)
    return hi, big, hi - big, lo


def _scales(e: np.ndarray):
    """The items of _scale(x) for each decimal exponent x of ``e``, one
    array per item, taken as they are read.  The entries are cached, so a
    process builds only those of the few decades its values reach, not all
    200 the writer may need."""
    top = int(e.max())
    table = np.array([_scale(x) for x in range(top, int(e.min()) - 1, -1)])
    index = top - e
    return (item[index] for item in table.T)


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The writer's tables, built on first use.

    ``digits``: the 4 ASCII digits of each q < 10^4 as one uint32, then each
    digit d < 10 alone in the last byte of one.  ``trailing``: the trailing
    zeros of each q < 10^4, 4 for q = 0.  ``keep``: row k holds 255 in the
    first k bytes of a slot.  ``marks``: row lead + 3 holds the "." after
    lead integer digits, or -lead zeros after "0." for lead <= 0, and
    nothing for lead = 17.
    """
    # the digits of q = 1000a + 100b + 10c + d at index (a, b, c, d)
    digit = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
    quads = np.zeros((10**4 + 10, 4), dtype=np.uint8)
    for place in range(4):
        quads[: 10**4, place] = np.broadcast_to(digit.reshape((10,) + (1,) * (3 - place)), (10,) * 4).ravel()
    quads[10**4 :, 3] = digit
    trailing = np.zeros(10**4, dtype=np.uint8)
    for k in range(1, 5):
        trailing[:: 10**k] += 1
    keep = np.tri(_SLOT + 1, _SLOT, -1, dtype=np.uint8) * 255
    marks = np.zeros((21, _SLOT), dtype=np.uint8)
    for lead in range(-3, 17):
        if lead > 0:
            marks[lead + 3, 6 + lead] = ord(".")
        else:
            marks[lead + 3, 7 + lead : 7] = _ZERO
    tables = quads.view(np.uint32).ravel(), trailing, keep.view(np.uint32), marks.view(np.uint32)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, e: np.ndarray):
    """a 10^(16 - e) as a pair (hi, lo), about 1e-14 absolute at 1e17: the
    pair of ``doubledouble._dd_mul_add(a, 0, hi, lo, 0, 0)`` without the
    terms of its zero arguments, which move at most the sign of a zero lo,
    and with the split of 10^(16 - e) read from its decade's entry."""
    scale = _scales(e)
    p = a * next(scale)
    # the Veltkamp split of a, and the error of p from the four products
    big = a * _SPLIT
    small = big - a
    big -= small
    np.subtract(a, big, out=small)
    p_big, p_small = next(scale), next(scale)
    err = big * p_big
    err -= p
    err += np.multiply(big, p_small, out=big)
    err += np.multiply(small, p_big, out=p_big)
    err += np.multiply(small, p_small, out=p_small)
    del p_big, p_small
    err += np.multiply(a, next(scale), out=small)
    hi = np.add(p, err, out=big)
    err -= np.subtract(hi, p, out=p)
    return hi, err


def _out_of_range(hi: np.ndarray, lo: np.ndarray):
    """Where hi + lo < 1e16 and where hi + lo >= 1e17."""
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return low, high


def _decimal(x: np.ndarray):
    """The 17-digit decimal mantissa n and exponent e of each |x|, with
    10^16 <= n < 10^17 (0 for zero), and where the arrays decide them."""
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    # zero and the values left to "%.17g" run through as 1.0
    a[~fast] = 1.0
    fast |= zero
    e = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, e)
    # a misjudged E leaves hi + lo outside [1e16, 1e17), and is corrected
    # once; only a value within 32 of either end can be, or round to 10^17
    edge = np.flatnonzero((hi < 1e16 + 32) | (hi > 1e17 - 32))
    if edge.size:
        low, high = _out_of_range(hi[edge], lo[edge])
        fix = edge[low | high]
        if fix.size:
            e[fix] += high[low | high].astype(np.intp) - low[low | high]
            hi[fix], lo[fix] = _scaled(a[fix], e[fix])
            low, high = _out_of_range(hi[fix], lo[fix])
            fast[fix[low | high]] = False
    r = np.rint(lo)
    fast &= np.abs(lo - r) < 0.5 - _TIE_MARGIN
    n = hi.astype(np.int64)
    n += r.astype(np.int64)
    n[zero] = 0
    if edge.size:
        carry = edge[n[edge] == 10**17]
        n[carry] = 10**16
        e[carry] += 1
    fast &= np.abs(e) < 100
    return n, e, fast


def _csv_block(table: np.ndarray) -> bytearray:
    """CSV text of the rows of ``table``: each value as format(v, ".17g"),
    a comma between columns and a newline after each row."""
    rows, columns = table.shape
    x = table.ravel()
    size = x.size
    n, e, fast = _decimal(x)

    # a slot of 7 words per value holds the separator before it, the sign,
    # "0." of |x| < 1, digit c of the mantissa at byte 7 + c and the "e"
    # notation exponent.  %g's integer digits, the first lead = E + 1 (one
    # in "e" notation), move one byte to the front to make room for the
    # point; lead <= 0 marks -lead zeros after "0.".  One more slot holds
    # the block's last newline.
    digits, trailing, keep, marks = _tables()
    fixed = (e >= -4) & (e < 17)
    lead = np.where(fixed, e + 1, 1).astype(np.int8)
    # "e+XX": the two digits of |E| < 100 are the last two of its 4-digit word
    exponent = digits[np.abs(e)] & _word(b"\0\0\xff\xff") | np.where(e < 0, _word(b"e-"), _word(b"e+"))
    exponent[fixed] = 0
    # n in 4-digit groups, from 10^8 upper + lower in int32; the first group
    # is the leading digit alone, indexed past the 4-digit words
    upper = n // 10**8
    lower = (n - upper * 10**8).astype(np.int32)
    upper = upper.astype(np.int32)
    head, third = upper // 10**4, lower // 10**4
    first = head // 10**4
    groups = (first + 10**4, head - first * 10**4, upper - head * 10**4, third, lower - third * 10**4)
    # the block's peak memory comes below, so what is done with goes first
    del e, n, upper, lower, head, first, third
    # the digit words into zeroed slots, held by a bytearray that squeezes
    # out their 0 bytes in place; 17 significant digits less the trailing
    # zeros of the last groups
    buffer = bytearray((size + 1) * _SLOT)
    words = np.frombuffer(buffer, dtype=np.uint32).reshape(size + 1, -1)
    slots = words[:size]
    trailing_zeros = np.uint8(0)
    for j, group in enumerate(groups, 1):
        group = group.astype(np.intp)
        slots[:, j] = digits[group]
        if j > 1:
            zeros = trailing[group]
            trailing_zeros = zeros + (zeros == 4) * trailing_zeros
    significant = 17 - trailing_zeros
    del groups, group
    # the digits up to the last significant or integer one; then the integer
    # digits, out of the slots and in again one byte to the front
    slots &= np.take(keep, np.maximum(significant, lead) + 7, axis=0)
    whole = np.take(keep, lead + 7, axis=0)
    whole &= slots
    slots ^= whole
    words.reshape(-1).view(np.uint8)[: whole.nbytes - 1] |= whole.reshape(-1).view(np.uint8)[1:]
    del whole
    slots |= np.take(marks, np.where(significant > lead, lead, 17) + 3, axis=0)
    slots[:, -1] = exponent
    separator = np.full((rows, columns), _word(b","), dtype=np.uint32)
    separator[:, 0] = _word(b"\n")
    separator[0, 0] = 0
    separator = separator.reshape(-1)
    sign = np.signbit(x) * np.uint32(_word(b"\0-"))
    slots[:, 0] = separator | sign | (lead <= 0) * np.uint32(_word(b"\0\0" b"0."))
    # a value left to "%.17g" holds "%b" for the formatting of the text below
    slow = np.flatnonzero(~fast)
    slots[slow, 0] = separator[slow] | _word(b"\0%b")
    slots[slow, 1:] = 0
    words[size, 0] = _word(b"\n")
    text = buffer.translate(None, b"\0")
    del buffer, words, slots  # the formatting below copies the text once more
    if slow.size:
        text %= tuple(_format_value(v) for v in x[slow].tolist())
    return text


@dataclass(frozen=True)
class Trajectory:
    """Sampled momentum and four-spin expectation values.

    ``p`` has shape (T, 3); ``s`` has shape (T, 4) ordered (S0, Sx, Sy, Sz);
    ``p0`` is the energy component completing the momentum four-vector.
    When ``s`` and ``p0`` are given, ``res_sp`` and ``res_ss`` are the
    per-sample residuals of the orthogonality and unit-norm invariants of
    the four-spin; otherwise they are None.
    """

    times: np.ndarray
    p: np.ndarray
    s: np.ndarray | None = None
    p0: np.ndarray | None = None
    res_sp: np.ndarray | None = field(init=False, default=None)
    res_ss: np.ndarray | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.times.ndim != 1:
            raise DomainError("times: must be one-dimensional")
        if not np.all(np.isfinite(self.times)):
            raise DomainError("times: must be finite")
        if np.any(np.diff(self.times) <= 0):
            raise DomainError("times: must be strictly increasing")
        if self.p.shape != (self.times.size, 3):
            raise DomainError(f"p: expected shape {(self.times.size, 3)}, got {self.p.shape}")
        if self.s is not None and self.s.shape != (self.times.size, 4):
            raise DomainError(f"s: expected shape {(self.times.size, 4)}, got {self.s.shape}")
        if self.s is None or self.p0 is None:
            return
        s = self.s
        sp = s[:, 0] * self.p0 - np.sum(s[:, 1:] * self.p, axis=1)
        ss = np.sum(s[:, 1:] ** 2, axis=1) - s[:, 0] ** 2
        object.__setattr__(self, "res_sp", np.abs(sp))
        object.__setattr__(self, "res_ss", np.abs(ss - 1.0))

    @property
    def invariant_residual(self) -> float:
        """Largest residual of either four-spin invariant over the samples."""
        if self.res_sp is None:
            raise DomainError("trajectory: invariant residuals need spin components and the energy")
        return max(float(np.max(self.res_sp)), float(np.max(self.res_ss)))

    def amplitude_factor(self, b_perp: float) -> float:
        """Largest transverse momentum |(Px, Py)| over the samples in units
        of b_perp: the packet's momentum amplitude factor.

        For a packet of real amplitudes, as the builders make, |P_perp| is
        largest at t = 0, where the phases of all levels align, and constant
        in uniform-gap mode; every grid of ``sample_times`` starts at 0, so
        the factor does not depend on the grid."""
        return float(np.max(np.hypot(self.p[:, 0], self.p[:, 1]))) / b_perp

    def four_momentum(self) -> np.ndarray:
        """Stack (p0, p) into shape (T, 4)."""
        if self.p0 is None:
            raise DomainError("p0: energy component not available")
        return np.column_stack([self.p0, self.p])

    def to_csv(self, path) -> None:
        if self.res_sp is None:
            raise DomainError("trajectory: CSV schema needs spin components and the energy")
        write_table(path, CSV_HEADER, np.column_stack([self.times, self.p, self.s, self.res_sp, self.res_ss]))


def write_table(path, header: str, table) -> None:
    """Write the rows of a 2-D table of doubles to ``path`` under a header
    line, each value as format(v, ".17g"), CSV_BLOCK_ROWS rows at a time."""
    table = np.asarray(table, dtype=float)
    with open(path, "wb") as handle:
        handle.write(header.encode() + b"\n")
        for begin in range(0, len(table), CSV_BLOCK_ROWS):
            handle.write(_csv_block(table[begin : begin + CSV_BLOCK_ROWS]))


def compare_trajectories(a: Trajectory, b: Trajectory) -> dict[str, float]:
    """L-infinity deviation of each component, keyed by observable name.

    Both trajectories must be sampled on the same grid; spin components are
    compared only when both carry them.
    """
    if a.times.shape != b.times.shape or not np.array_equal(a.times, b.times):
        raise DomainError("times: comparison needs identical time grids")
    x, y = a.p, b.p
    if a.s is not None and b.s is not None:
        x, y = np.hstack([x, a.s]), np.hstack([y, b.s])
    return {name: float(d) for name, d in zip(OBSERVABLES, np.max(np.abs(x - y), axis=0))}
