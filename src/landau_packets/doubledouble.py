"""Double-double arithmetic: a value carried as the unevaluated sum hi + lo
of two doubles, about 2^-106 relative.  The functions work elementwise on
floats and numpy arrays alike.  ``classical`` runs the order-8 stages in it,
and ``trajectory`` multiplies values by powers of ten in it to print them,
with each power's split taken from a table.
"""

from __future__ import annotations

#: Veltkamp's split factor 2^27 + 1
_SPLIT = 134217729.0


def _two_prod(a, b):
    """(p, e) with p = fl(a * b) and p + e = a * b exactly: Dekker's
    product, on Veltkamp's split of each factor at 2^27 + 1."""
    p = a * b
    c = _SPLIT * a
    ah = c - (c - a)
    al = a - ah
    c = _SPLIT * b
    bh = c - (c - b)
    bl = b - bh
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _dd_mul_add(xh, xl, yh, yl, ch, cl):
    """x * y + c for unevaluated sums x = xh + xl, y = yh + yl and
    c = ch + cl, to about twice working precision, as a pair (hi, lo)."""
    p, e = _two_prod(xh, yh)
    s = p + ch
    t = s - p
    e = e + (xh * yl + xl * yh) + ((p - (s - t)) + (ch - t)) + cl
    hi = s + e
    return hi, e - (hi - s)
