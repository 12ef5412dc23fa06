"""Compensated (double-double) arithmetic on floats and numpy arrays.

A value is a ``(hi, lo)`` pair whose unevaluated sum represents the number
with roughly 32 significant digits.  Only the operations needed by the
two-index Hermite recurrences are provided; everything broadcasts like
numpy.  The plain forms serve the kernel's scalars and build the index
factors with their splits, once per process (``hermite._index_factors``).
The table's rows n >= 1 use ``split_into``, ``mul_into`` and ``sub_into``,
which run the same IEEE operations in the same order into arrays the
caller gives: a split taken once is passed in, not recomputed, and no
intermediate is allocated (``hermite._TableBuilder._rows`` allocates the
arrays, one per role, for each fill).  Row 0 of the table, a sequential
recurrence, runs these operations written out on Python floats
(``hermite._TableBuilder._row0``).  All three give the plain forms' bits.

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
_SPLIT_ARRAY = np.array(_SPLIT)  # for the array forms below


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


# Array forms: each ufunc writes into its last argument.  Pairs come as
# tuples of arrays, since indexing a tuple costs less than making a row view
# of an array, and scalars as arrays (0-d, or a (1,) view of the index
# factors), which numpy takes without converting them on every call.


def split_into(a, out):
    """:func:`split` of the array ``a`` written into ``out = (high, low)``."""
    high, low = out
    np.multiply(_SPLIT_ARRAY, a, high)
    np.subtract(high, a, low)
    np.subtract(high, low, high)
    np.subtract(a, high, low)


def mul_into(x, xs, y, ys, out, work):
    """:func:`mul` of x and y, given the splits ``xs`` of x[0] and ``ys`` of
    y[0], written into ``out = (hi, lo)``; ``work`` holds two scratch arrays
    of the result's shape.  The low output is scratch until the last step, so
    neither output may overlap an input."""
    p, e = work
    hi, lo = out
    np.multiply(x[0], y[0], p)
    np.subtract(np.multiply(xs[0], ys[0], e), p, e)
    np.add(e, np.multiply(xs[0], ys[1], lo), e)
    np.add(e, np.multiply(xs[1], ys[0], lo), e)
    np.add(e, np.multiply(xs[1], ys[1], lo), e)
    np.add(e, np.multiply(x[0], y[1], lo), e)
    np.add(e, np.multiply(x[1], y[0], lo), e)
    np.add(p, e, hi)
    np.subtract(e, np.subtract(hi, p, lo), lo)


def sub_into(x, y, out, work):
    """:func:`sub` written into ``out = (hi, lo)``, which may be x itself;
    ``work`` holds three scratch arrays of the result's shape."""
    neg, s, t = work
    np.negative(y[0], neg)
    np.add(x[0], neg, s)
    np.subtract(s, x[0], t)
    np.subtract(neg, t, neg)
    np.subtract(x[0], np.subtract(s, t, t), t)
    np.add(t, neg, t)
    np.add(t, x[1], t)
    np.subtract(t, y[1], t)  # t + -y[1], which IEEE defines as this
    np.add(s, t, out[0])
    np.subtract(t, np.subtract(out[0], s, neg), out[1])


def sqrt(x):
    """Square root of a positive double-double (one Newton correction)."""
    a = np.sqrt(x[0])
    p, e = _two_prod(a, a)
    r = sub(x, (p, e))
    return _fast_two_sum(a, r[0] / (2.0 * a))
