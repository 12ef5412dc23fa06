"""Compensated (double-double) arithmetic on floats and numpy arrays.

A value is a ``(hi, lo)`` pair whose unevaluated sum represents the number
with roughly 32 significant digits.  Only the operations needed by the
two-index Hermite recurrences are provided; everything broadcasts like
numpy, so the same code path serves the kernel's scalars and whole table
rows.  Row 0 of the table, a sequential recurrence, runs these operations
written out on Python floats (``hermite._TableBuilder._row0``) with the
same bits.

The extra precision is not cosmetic: the overlap recurrences cancel up to
~13 digits in strongly displaced/stretched corners, so plain double loses
the dual-path tolerance there.  Error-free transformations recover it at
fixed (not arbitrary) precision.
"""

from __future__ import annotations

import numpy as np

# Dekker splitter, 2**27 + 1; exact for |x| < 2**996.  Larger inputs turn
# into NaN: kernel inputs reach that range once 1/omega' is above 2**996,
# so ``hermite.build_kernel`` refuses a kernel that is not finite, and table
# fills report overflow at the first entry that is not finite.
_SPLIT = 134217729.0


def _two_sum(a, b):
    s = a + b
    t = s - a
    return s, (a - (s - t)) + (b - t)


def _fast_two_sum(a, b):
    # requires |a| >= |b|; all call sites pass the high word first
    s = a + b
    return s, b - (s - a)


def split(a):
    """Dekker split: (high, low) halves of 26 and 27 bits, a = high + low."""
    t = _SPLIT * a
    high = t - (t - a)
    return high, a - high


def _two_prod(a, b):
    p = a * b
    ah, al = split(a)
    bh, bl = split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def from_float(a):
    return a, a * 0.0


def to_float(x):
    return x[0] + x[1]


def neg(x):
    return -x[0], -x[1]


def add(x, y):
    s, e = _two_sum(x[0], y[0])
    return _fast_two_sum(s, e + x[1] + y[1])


def sub(x, y):
    return add(x, neg(y))


def mul(x, y):
    p, e = _two_prod(x[0], y[0])
    return _fast_two_sum(p, e + x[0] * y[1] + x[1] * y[0])


def mul_float(x, f):
    p, e = _two_prod(x[0], f)
    return _fast_two_sum(p, e + x[1] * f)


def div(x, y):
    q1 = x[0] / y[0]
    r = sub(x, mul_float(y, q1))
    q2 = r[0] / y[0]
    r = sub(r, mul_float(y, q2))
    q3 = r[0] / y[0]
    s, e = _fast_two_sum(q1, q2)
    return _fast_two_sum(s, e + q3)


def sqrt(x):
    """Square root of a positive double-double (one Newton correction)."""
    a = np.sqrt(x[0])
    p, e = _two_prod(a, a)
    r = sub(x, (p, e))
    return _fast_two_sum(a, r[0] / (2.0 * a))
