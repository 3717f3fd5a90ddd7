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
built exactly from Python integers the first time a value of decimal
exponent E is written, as is the exponent's text.  Since
y >= 1e16 > 2^53, hi is an integer, and the 17-digit mantissa is
N = hi + round(lo), half-even; a misjudged E is corrected once, and
N = 10^17 carries into the exponent.
N is expanded through a table of 4-digit strings, and each value's text is
laid out in fixed slots (sign, leading "0." and zeros, integer digits,
point, fraction digits without trailing zeros, exponent), following %g:
fixed notation for -4 <= E < 17, "e+XX" notation otherwise.  Unused slots
hold 0 bytes, which are squeezed out of the block in one pass.

A value goes to the per-value "%.17g" instead when it is not finite, when
|x| lies outside [1e-280, 1e280], where the Veltkamp split or 10^k would
overflow, or when the fraction of lo lies within 1e-6 of 1/2, so that the
double-double error could decide the rounding.  The written bytes equal
the per-value ones by construction.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from .doubledouble import _dd_mul_add
from .errors import DomainError
from .operators import OBSERVABLES

CSV_COLUMNS = ("t", *OBSERVABLES, "resSP", "resSS")
CSV_HEADER = ",".join(CSV_COLUMNS)
#: rows the CSV writer formats at a time, which bounds its working memory
CSV_BLOCK_ROWS = 1024

#: magnitudes the CSV writer formats in arrays; the Veltkamp split of the
#: value and of 10^(16 - E) stays finite within them
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
#: distance of lo's fraction from 1/2 below which the rounding is left to "%.17g"
_TIE_MARGIN = 1e-6
# bytes of one value's text slots: sign, "0." and up to 3 zeros of |x| < 1,
# 17 digits with the point among them, and the exponent and separator
_WIDTH = 32
_ZERO = ord("0")


def _format_value(value: float) -> bytes:
    """One value as "%.17g" prints it; the writer's path for the values its
    arrays cannot decide."""
    return b"%.17g" % value


@functools.cache
def _scale(x: int) -> tuple[float, float]:
    """10^(16 - x) = hi + lo, which brings a value of decimal exponent x to
    17 digits: hi the nearest double and lo the nearest double to
    10^(16 - x) - hi (int true division and int-to-float conversion both
    round correctly)."""
    k = 16 - x
    if k >= 0:
        hi = float(10**k)
        return hi, float(10**k - int(hi))
    den = 10**-k
    hi = 1 / den
    m, d = hi.as_integer_ratio()
    return hi, (d - m * den) / (d * den)


@functools.cache
def _exponent_text(x: int) -> int:
    """The "e+XX" text of decimal exponent x as the bytes of one uint64, 0
    where %g prints fixed notation."""
    return 0 if -4 <= x < 17 else int.from_bytes((b"e%+03d" % x).ljust(8, b"\0"), sys.byteorder)


def _by_exponent(entry, e: np.ndarray) -> np.ndarray:
    """entry(x) for each decimal exponent x of ``e``.  The entries are
    cached, so a process builds only those of the few decades its values
    reach, not all 600 the writer may need."""
    top = int(e.max())
    table = np.array([entry(x) for x in range(top, int(e.min()) - 1, -1)])
    return table[top - e]


@functools.cache
def _tables() -> tuple[np.ndarray, ...]:
    """The writer's digit tables, built on first use: the 4 ASCII digits of
    each q < 10^4 as one uint32, and 20-byte masks and points as 5 uint32
    each."""
    # the digits of q = 1000a + 100b + 10c + d at index (a, b, c, d)
    digit = np.arange(_ZERO, _ZERO + 10, dtype=np.uint8)
    quads = np.empty((10, 10, 10, 10, 4), dtype=np.uint8)
    for place in range(4):
        quads[..., place] = digit.reshape((10,) + (1,) * (3 - place))
    # row k of keep holds 255 in the first k of 20 bytes, row k of point a "." at byte k
    keep = np.tri(21, 20, -1, dtype=np.uint8) * 255
    point = np.eye(21, 20, dtype=np.uint8) * ord(".")
    tables = quads.view(np.uint32).ravel(), keep.view(np.uint32), point.view(np.uint32)
    for table in tables:
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, e: np.ndarray):
    """a 10^(16 - e) as a pair (hi, lo), about 1e-14 absolute at 1e17."""
    pow_hi, pow_lo = _by_exponent(_scale, e).T
    return _dd_mul_add(a, 0.0, pow_hi, pow_lo, 0.0, 0.0)


def _out_of_range(hi: np.ndarray, lo: np.ndarray):
    """Where hi + lo < 1e16 and where hi + lo >= 1e17."""
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0.0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0.0))
    return low, high


def _csv_block(table: np.ndarray) -> bytes:
    """CSV text of the rows of ``table``: each value as format(v, ".17g"),
    a comma between columns and a newline after each row."""
    rows, columns = table.shape
    x = table.ravel()
    a = np.abs(x)
    zero = a == 0.0
    fast = zero | ((a >= _FAST_MIN) & (a <= _FAST_MAX))
    # zero and the values left to "%.17g" run through as 1.0
    a = np.where(fast & ~zero, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    hi, lo = _scaled(a, e)
    low, high = _out_of_range(hi, lo)
    fix = np.flatnonzero(low | high)
    if fix.size:
        e[fix] += high[fix].astype(np.int64) - low[fix]
        hi[fix], lo[fix] = _scaled(a[fix], e[fix])
        low, high = _out_of_range(hi[fix], lo[fix])
        fast[fix[low | high]] = False
    fast &= np.abs(lo - np.floor(lo) - 0.5) > _TIE_MARGIN

    # the 17-digit mantissa, 10^16 <= n < 10^17 after the carry
    n = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    carry = n == 10**17
    n[carry] = 10**16
    e += carry
    quads, keep, point = _tables()
    # the 20 ASCII digits of n, four to a word: "000", then digit c at byte 3 + c
    groups = np.empty((x.size, 5), dtype=np.int64)
    upper, lower = np.divmod(n, 10**8)
    upper, groups[:, 2] = np.divmod(upper, 10**4)
    groups[:, 0], groups[:, 1] = np.divmod(upper, 10**4)
    groups[:, 3], groups[:, 4] = np.divmod(lower, 10**4)
    digits = quads[groups]
    significant = 17 - np.argmax(digits.view(np.uint8)[:, :2:-1] != _ZERO, axis=1)
    digits[:, 0] &= ~keep[3, 0]

    # text bytes: sign, "0." and zeros of |x| < 1 at 0-5, integer digit c at
    # 6 + c, the point after the last one, fraction digit c at 7 + c, and
    # exponent and separator at 24-31
    fixed = (e >= -4) & (e < 17)
    small = fixed & (e < 0)
    whole = np.where(fixed, np.maximum(e + 1, 0), 1)
    integer = np.take(keep, whole + 3, axis=0)
    dotted = np.where(~small & (significant > whole), whole + 3, 20)
    words = np.empty((x.size, _WIDTH // 4), dtype=np.uint32)
    words[:, 0] = 0
    words[:, 1:6] = digits & ~integer & np.take(keep, significant + 3, axis=0)
    words[:, 6:].view(np.uint64)[:, 0] = _by_exponent(_exponent_text, e)
    text = words.view(np.uint8)
    text[:, 3:23] |= ((digits & integer) | np.take(point, dotted, axis=0)).view(np.uint8)
    text[:, 0] = np.where(np.signbit(x), ord("-"), 0)
    text[:, 1] = np.where(small, _ZERO, 0)
    text[:, 2] = np.where(small, ord("."), 0)
    for z in range(3):
        text[:, 3 + z] = np.where(small & (e < -1 - z), _ZERO, 0)
    text[zero, 6] = _ZERO
    text.reshape(rows, columns, _WIDTH)[:, :, 29] = ord(",")
    text.reshape(rows, columns, _WIDTH)[:, -1, 29] = ord("\n")
    for i in np.flatnonzero(~fast).tolist():
        value = _format_value(float(x[i]))
        text[i, :29] = 0
        text[i, : len(value)] = np.frombuffer(value, dtype=np.uint8)
    return text.tobytes().translate(None, b"\0")


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
