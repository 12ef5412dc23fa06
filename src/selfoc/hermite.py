"""Normalised Hermite polynomials and the scaled two-index Hermite table
behind the closed-form mode overlaps.

Natural units throughout: hbar = m = 1, so a channel of frequency
``omega`` has characteristic length ``l = omega**-0.5``.  One recurrence,
:func:`_ladder`, yields the levels H_k / sqrt(2**k k!) from 1 for
``hermite_scaled``, the coupled quadrature stacks and the Gauss-Hermite
rules.  The table entries are pre-divided by ``sqrt(2**(n+m) n! m!)`` so
no factorial is ever materialized and entries stay O(1)-ish out to
thousands of quanta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from itertools import count, islice

import numpy as np

from . import _dd as dd
from .errors import CapExceededError, NumericOverflowError

#: Hard cap on any mode index; larger requests are refused outright.
MODE_INDEX_CAP = 4096

_RESCALE_AT, _RESCALE_BITS = 1e150, 512  # see _ladder
#: Largest sum of squares a row or block of overlaps may carry before it is
#: refused as over-full: 1 (Bessel's inequality) plus a round-off allowance.
_MASS_BOUND = 1.0 + 1e-10


def check_mode_index(n, name: str = "n") -> int:
    """Validate a mode index: non-negative integer within the hard cap."""
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"{name} must be non-negative, got {n}")
    if n > MODE_INDEX_CAP:
        raise CapExceededError(f"{name}={n} exceeds the hard cap {MODE_INDEX_CAP}")
    return int(n)


@dataclass(frozen=True)
class OscillatorFrame:
    """One transverse harmonic channel: frequency and center position."""

    omega: float
    center: float = 0.0

    def __post_init__(self):
        if not (self.omega > 0.0 and math.isfinite(self.omega)):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not math.isfinite(self.center):
            raise ValueError(f"center must be finite, got {self.center}")


def _ladder(xi, out=None):
    """Yield (phi_k, phi_{k-1}, e) of phi_{k+1} = sqrt(2/(k+1)) xi phi_k -
    sqrt(k/(k+1)) phi_{k-1} from phi_0 = 1, phi_{-1} = 0, e = 0; the true
    levels are ldexp(phi, 512 e), so phi_{k-1} is on phi_k's scale.  Each
    level is computed in place with the formula's IEEE operations, in a fresh
    array, or in row k of ``out`` (levels on axis 0), where the ladder ends at
    the last row, no level is allocated and the products sqrt(2/(k+1)) xi are
    formed in one call.  A level passing 1e150 is scaled with the one below
    by 2**-512 there and e goes up by 1 (e is rebound only then; the level
    below is scaled in a copy, so a yielded level never changes): exact, so
    finite levels keep their bits.  No level passes 1.0865 exp(max xi^2/2)
    (Cramer, A&S 22.14.17)."""
    if out is None:
        cur = np.ones_like(xi)
    else:
        out[0] = 1.0
        cur = out[0]
        np.multiply.outer(np.sqrt(2.0 / np.arange(1.0, len(out))), xi, out=out[1:])
    prev, e, scaled_prev = 0.0, 0, np.empty_like(xi)
    yield cur, prev, e
    top = float(np.abs(xi).max(initial=0.0))
    rescale = not 0.5 * top * top <= math.log(_RESCALE_AT / 1.0865)
    for k in count() if out is None else range(len(out) - 1):
        nxt = math.sqrt(2.0 / (k + 1)) * xi if out is None else out[k + 1]
        nxt *= cur
        nxt -= np.multiply(prev, math.sqrt(k / (k + 1)), out=scaled_prev)
        if rescale and (big := np.abs(nxt) > _RESCALE_AT).any():
            factor = np.where(big, 2.0 ** -_RESCALE_BITS, 1.0)
            nxt *= factor
            cur, e = cur * factor, e + big
        prev, cur = cur, nxt
        yield cur, prev, e


def _poly_stack(n_top: int, xi: np.ndarray) -> np.ndarray:
    """hermite_scaled(k, xi) for k = 0..n_top on axis 0, computed in place in
    the stack; a rescaled level's scale is undone in place after the ladder."""
    out = np.empty((n_top + 1,) + xi.shape)
    scaled = [(level, e) for level, _, e in _ladder(xi, out=out) if not isinstance(e, int)]
    for level, e in scaled:
        np.ldexp(level, _RESCALE_BITS * e, out=level)
    return out


#: Doubles in one slab of :func:`_poly_slabs` (128 KB); a slab holds at
#: least one level, however large.
_SLAB_DOUBLES = 2**14


def _poly_slabs(n_top: int, xi: np.ndarray):
    """Yield (k0, slab): the rows k0.. of :func:`_poly_stack`'s stack, bit for
    bit, in order.  A stack of at most ``_SLAB_DOUBLES`` doubles is one slab,
    ``_poly_stack``'s own.  A larger one comes from one pass of
    :func:`_ladder` in slabs of max(1, _SLAB_DOUBLES // xi.size) levels, held
    in one reused buffer with each scale undone as ``_poly_stack`` undoes it;
    a one-level slab is the ladder's level itself where nothing was scaled.
    A slab is valid until the next is yielded."""
    if (n_top + 1) * xi.size <= _SLAB_DOUBLES:
        yield 0, _poly_stack(n_top, xi)
        return
    rows = max(1, _SLAB_DOUBLES // xi.size)
    buffer = np.empty((rows,) + xi.shape)
    for k, (level, _, e) in zip(range(n_top + 1), _ladder(xi)):
        i = k % rows
        if not isinstance(e, int):
            level = np.ldexp(level, _RESCALE_BITS * e, out=buffer[i])
        elif rows > 1:
            buffer[i] = level
        if i == rows - 1 or k == n_top:
            yield k - i, buffer[: i + 1] if rows > 1 else level[None]


def _scaled_pass(order: int, x: np.ndarray):
    """One sweep of :func:`_ladder` at the points ``x``: (f_order, f_{order-1},
    sum_{k<order} f_k^2, logscale), all three on f_order's scale.  The true
    function is f_k * common factor * exp(logscale); ratios and the weight
    formula are scale-free, so that factor is never formed."""
    levels = _ladder(x)
    (f, _, e), s = next(levels), 0.0
    for _ in range(order):
        s, e_below = s + f * f, e
        f, f_below, e = next(levels)
        if e is not e_below:
            factor = np.ldexp(1.0, _RESCALE_BITS * (e_below - e))
            s = s * factor * factor
    return f, f_below, s, e * _RESCALE_BITS * math.log(2.0)


def hermite_scaled(n: int, xi):
    """H_n(xi) / sqrt(2**n n!) via the normalized recurrence: level n of
    :func:`_ladder` with its scale undone, a float for scalar input.

    This is the polynomial part of an oscillator eigenfunction; dividing
    out the factorial and rescaling as :func:`_ladder` does keep it finite
    wherever the result is, also where raw H_n leaves double range.
    """
    n = check_mode_index(n)
    phi, _, e = next(islice(_ladder(np.asarray(xi, dtype=float)), n, None))
    if not isinstance(e, int):  # an int e is the start's 0: nothing was scaled
        phi = np.ldexp(phi, _RESCALE_BITS * e)
    return phi if phi.ndim else float(phi)


@dataclass(frozen=True, eq=False)
class OverlapKernel:
    """Recurrence coefficients and prefactor of one frame pair's overlap.

    With L = l^2 + l'^2 and d the displacement, ``r11 = -r22 = 2 (l^2 -
    l'^2) / L`` and ``r12 = -4 l l' / L`` are the symmetric matrix R of the
    two-index Hermite recurrences, and ``ry1 = 2 d l / L`` and ``ry2 = -2 d
    l' / L`` the vector R y.  Each is a double-double ``(hi, lo)`` pair: the
    table value is an ill-conditioned function of these numbers
    (cancellation up to ~1e13), so they are derived from the raw inputs at
    extended precision.  ``prefactor`` is the shared scalar
    sqrt(2 l l' / L) * exp(-d^2 / (2 L)).

    The overall sign of R y is fixed so that closed-form amplitudes match
    the direct overlap integral (the quadrature path) including sign;
    probabilities are insensitive to this choice.
    """

    r11: tuple
    r12: tuple
    r22: tuple
    ry1: tuple
    ry2: tuple
    prefactor: float


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def build_kernel(source: OscillatorFrame, target: OscillatorFrame) -> OverlapKernel:
    """Assemble the overlap kernel for a source -> target channel pair.

    Displacement is ``d = target.center - source.center``.

    Raises
    ------
    NumericOverflowError
        A kernel quantity left double range (extreme frequency ratios); the
        steps run with numpy's warnings off, so this is the one refusal.
    """
    one = dd.from_float(1.0)
    l2 = dd.div(one, dd.from_float(source.omega))
    lp2 = dd.div(one, dd.from_float(target.omega))
    l_dd = dd.sqrt(l2)
    lp_dd = dd.sqrt(lp2)
    big_l = dd.add(l2, lp2)
    d_dd = dd._two_sum(target.center, -source.center)

    r11 = dd.div(dd.mul_float(dd.sub(l2, lp2), 2.0), big_l)
    r12 = dd.div(dd.mul_float(dd.mul(l_dd, lp_dd), -4.0), big_l)
    ry1 = dd.div(dd.mul_float(dd.mul(d_dd, l_dd), 2.0), big_l)
    ry2 = dd.div(dd.mul_float(dd.mul(d_dd, lp_dd), -2.0), big_l)

    pref = math.sqrt(
        dd.to_float(dd.div(dd.mul_float(dd.mul(l_dd, lp_dd), 2.0), big_l))
    ) * math.exp(-dd.to_float(dd.div(dd.mul(d_dd, d_dd), dd.mul_float(big_l, 2.0))))

    if not np.isfinite([pref, *r11, *r12, *ry1, *ry2]).all():
        raise NumericOverflowError(
            f"overlap kernel for omega {source.omega!r} -> {target.omega!r} "
            "is not finite"
        )
    return OverlapKernel(r11, r12, dd.neg(r11), ry1, ry2, pref)


@functools.cache
def _index_factors():
    """The index factors of every table, built once per process on first use:
    a read-only (8, MODE_INDEX_CAP + 3) array over k = 0..MODE_INDEX_CAP+2
    whose rows are the double-double sqrt(k/2) (hi, lo) and the Dekker split
    of its hi word, then the same four rows for 1/sqrt(2(k+1)).  Fills read
    these splits and take none of their own."""
    k = np.arange(MODE_INDEX_CAP + 3, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        sq = dd.sqrt(dd.from_float(k / 2.0))
    sq_hi, sq_lo = np.where(k == 0.0, 0.0, sq[0]), np.where(k == 0.0, 0.0, sq[1])
    inv = dd.div(dd.from_float(np.ones_like(k)), dd.sqrt(dd.from_float(2.0 * (k + 1.0))))
    factors = np.array([sq_hi, sq_lo, *dd.split(sq_hi), *inv, *dd.split(inv[0])])
    factors.setflags(write=False)
    return factors


#: Columns of row 0 per chunk of index factors taken as Python floats.
_ROW0_CHUNK = 256


class _TableBuilder:
    """Incrementally grown scaled table of one kernel in compensated
    arithmetic; holds the kernel, whose prefactor makes ``amplitude`` the
    top row as overlap amplitudes.

    High and low words live in two arrays ``hi`` and ``lo`` of one row per
    slot, filled in place: storage column j is table column j - 1, and
    column 0 holds the zeros of column m = -1.  Row 0 and the top row have
    slots of their own, and rows 1..n_rows - 1 take turns in a two-slot ring
    (``_slot[n]`` is row n's slot), so the store holds at most four rows and
    grows with the columns, not with the rows.  A caller that returns every
    row passes ``rows``, an array of n_rows + 1 rows and as many columns as
    it fills: each fill writes each new row segment into it as hi + lo, the
    double it rounds to.  Row 0 is filled along m (three-term recurrence) in
    a loop over Python floats (``_row0``).  Each further row is one row step
    over the new columns (``_rows``) that reads only its window of the row
    below, the new columns and the one before them: a row is split once, at
    the start of the step above it, and its products with (ry1, r12, r11)
    serve the next two rows.  Each row's last filled column is kept as its
    frontier and put back in front of its window before the row above reads
    it, and row 0 keeps its last two columns in its slot, so a later
    ``extend`` goes on from every row.  Both fills run the IEEE operations
    of the plain ``_dd`` calls in their order, so every bit is what those
    calls would give, and every entry comes out the same however the columns
    were split into ``extend`` calls: spectra can extend their cutoff
    without recomputation.  Both read the index factors and their splits
    from ``_index_factors()``; a fill's workspaces, one array per role, live
    for its ``extend``.
    """

    def __init__(self, kernel: OverlapKernel, n_rows: int, rows: np.ndarray | None = None):
        self.kernel = kernel
        self.n_rows = n_rows
        self.rows = rows
        self.m = -1  # highest filled column
        # row 0, rows 1..n_rows - 1 by turns in slots 1 and 2, the top row
        ring = [2 - n % 2 for n in range(1, n_rows)]
        self._slot = [0, *ring, min(n_rows, 3)][: n_rows + 1]
        self.hi, self.lo = np.zeros((2, self._slot[-1] + 1, 1))
        self._edge = np.zeros((2, n_rows + 1))  # each row's frontier: column m

    def extend(self, m_new: int):
        """Fill all rows out to column ``m_new`` (inclusive)."""
        if m_new <= self.m:
            return
        lo_col = self.m + 1
        # one buffer for both words, the old columns copied in; every new
        # column is written by its row
        grown = np.empty((2, len(self.hi), m_new + 2))
        grown[0, :, :lo_col + 1], grown[1, :, :lo_col + 1] = self.hi, self.lo
        self.hi, self.lo = grown
        self._bad = []  # (m, n) of each row's first non-finite entry
        # overflow surfaces as a typed error below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            self._row0(m_new)
            if self.n_rows:
                self._rows(lo_col, m_new)
        self.m = m_new

        # earlier fills found the columns before lo_col finite, and column m
        # depends only on columns <= m: the first column holding a non-finite
        # entry, at its lowest row, is named however the columns were split
        if self._bad:
            m_bad, n = min(self._bad)
            raise NumericOverflowError(
                f"scaled Hermite table overflowed at entry (n={n}, m={m_bad})", index=(n, m_bad)
            )

    def _rows(self, lo_col: int, m_new: int):
        """Rows n >= 1 for the columns lo_col..m_new.

        Row n is dd.mul(dd.sub(dd.sub(ry1 h[n-1, m], r11 h[n-2, m] sq[n-1]),
        r12 h[n-1, m-1] sq[m]), inv[n-1]) (no r11 term in row 1), run by
        ``_dd``'s array forms with the same IEEE operations.  Row n starts by
        putting row n - 1's frontier back in front of its window, splitting
        that window and multiplying it by (ry1, r12, r11) in one stacked
        product, which rows n and n + 1 read; the two index-factor products
        of each row are one stacked product too.  Each row is checked for
        non-finite entries as it is written, and added into ``rows`` where
        the caller gave it.  The index factors and their splits are views of
        ``_index_factors()``; the workspaces, one array per role, and the
        coefficients with their split last this one fill."""
        hi, lo, k, f = self.hi, self.lo, m_new + 1 - lo_col, _index_factors()
        win, new = slice(lo_col, m_new + 2), slice(lo_col + 1, m_new + 2)
        c, slot, (edge_hi, edge_lo), rows = self.kernel, self._slot, self._edge, self.rows
        coef = np.array([[*r, *dd.split(float(r[0]))] for r in (c.ry1, c.r12, c.r11)]).T[:, :, None]
        coef, coef_split = tuple(coef[:2]), tuple(coef[2:])
        # prod: (ry1, r12, r11) times the row below; x: r12 h[n-1, m-1] and
        # r11 h[n-2, m] (zero in row 1); y: hi, lo and split of sqrt(m/2) over
        # the columns and of sqrt((n-1)/2); t: x times y; acc: the row before
        # its last product.  ``_dd`` reads each (hi, lo) pair as a tuple of views.
        x, y = np.zeros((2, 2, k)), np.empty((4, 2, k))
        y[:, 0] = f[:4, lo_col:m_new + 1]
        shapes = ((2, 3, k + 1), (2, k + 1), (2, 3, k + 1), (2, 2, k), (2, 2, k), (2, 2, k),
                  (2, k), (2, k), (3, k))
        prod, row_split, work3, x_split, t, work2, acc, acc_split, work = (
            tuple(np.empty(shape)) for shape in shapes)
        ry1_new, r12_shift, r11_new = (
            (prod[0][0, 1:], prod[1][0, 1:]), (prod[0][1, :-1], prod[1][1, :-1]),
            (prod[0][2, 1:], prod[1][2, 1:]))
        x_pair = tuple(x)
        index_products = (x_pair, x_split, tuple(y[:2]), tuple(y[2:]), t, work2)
        t_r12, t_r11 = (t[0][0], t[1][0]), (t[0][1], t[1][1])
        (x_r12_hi, x_r11_hi), (x_r12_lo, x_r11_lo) = x
        zeros = np.zeros(k)
        for n in range(1, self.n_rows + 1):
            below, at = slot[n - 1], slice(n - 1, n)
            row, row_lo = hi[below, win], lo[below, win]
            row[0], row_lo[0] = edge_hi[n - 1], edge_lo[n - 1]
            edge_hi[n - 1], edge_lo[n - 1] = row[-1], row_lo[-1]
            dd.split_into(row, row_split)
            dd.mul_into(coef, coef_split, (row, row_lo), row_split, prod, work3)
            x_r12_hi[...], x_r12_lo[...] = r12_shift
            y[:, 1] = f[:4, at]
            dd.split_into(x_pair[0], x_split)
            dd.mul_into(*index_products)
            if n >= 2:
                dd.sub_into(ry1_new, t_r11, acc, work)
                dd.sub_into(acc, t_r12, acc, work)
            else:
                dd.sub_into(ry1_new, t_r12, acc, work)
            x_r11_hi[...], x_r11_lo[...] = r11_new
            dd.split_into(acc[0], acc_split)
            out = (hi[slot[n], new], lo[slot[n], new])
            dd.mul_into(acc, acc_split, (f[4, at], f[5, at]), (f[6, at], f[7, at]), out, work[:2])
            if rows is not None:
                np.add(*out, out=rows[n, lo_col:m_new + 1])
            # zeros times a finite row sum to 0; an inf or NaN makes NaN
            if not math.isfinite(out[0].dot(zeros)):
                self._bad.append((lo_col + int(np.isfinite(out[0]).argmin()), n))

    def _row0(self, m_new: int):
        """Row 0 for columns self.m+1..m_new, written into the store (and, as
        hi + lo, into ``rows`` where the caller gave it).

        Column m+1 is dd.mul(dd.sub(dd.mul(ry2, h[m]), dd.mul(dd.mul(r22,
        h[m-1]), sq[m])), inv[m]); column 1 (m = 0) has no sub and is peeled
        off the loop, which writes the rest out operation by operation on
        Python floats.  (x0, x1) is a double-double and (xh, xl) the Dekker
        split of x0; q and c are h[m-1] and h[m].  The eight index factors of
        each column, with their splits, come from ``_index_factors()`` with
        one ``tolist`` per chunk of ``_ROW0_CHUNK`` columns, and each chunk
        is written into the store; the coefficients are split once per fill,
        each new entry once, and that split is reused for the next two
        columns.  The new columns are checked for non-finite entries."""
        splitter = dd._SPLIT
        a0, a1 = float(self.kernel.ry2[0]), float(self.kernel.ry2[1])
        g0, g1 = float(self.kernel.r22[0]), float(self.kernel.r22[1])
        hi, lo = self.hi[0], self.lo[0]
        hi[1], lo[1] = 1.0, 0.0  # h[0, 0]; later fills rewrite it unchanged
        m_old = max(self.m, 0)
        # h[m_old - 1] and h[m_old]; at m_old = 0 q is the zero column, never read
        q0, c0 = hi[m_old:m_old + 2].tolist()
        q1, c1 = lo[m_old:m_old + 2].tolist()
        f = _index_factors()
        if m_old == 0 < m_new:  # column 1
            q0, q1 = c0, c1
            c0, c1 = dd.mul(dd.mul((a0, a1), (c0, c1)), f[4:6, 0].tolist())
            hi[2], lo[2] = c0, c1
            m_old = 1
        (ah, al), (gh, gl), (qh, ql), (ch, cl) = map(dd.split, (a0, g0, q0, c0))
        for start in range(m_old, m_new, _ROW0_CHUNK):
            stop = min(start + _ROW0_CHUNK, m_new)
            new_hi, new_lo = [0.0] * (stop - start), [0.0] * (stop - start)
            for i, s0, s1, sh, sl, v0, v1, vh, vl in zip(count(), *f[:, start:stop].tolist()):
                # acc = ry2 * h[m]
                p = a0 * c0
                b = ((ah * ch - p) + ah * cl + al * ch) + al * cl + a0 * c1 + a1 * c0
                x0 = p + b
                x1 = b - (x0 - p)
                # t = r22 * h[m-1]
                p = g0 * q0
                b = ((gh * qh - p) + gh * ql + gl * qh) + gl * ql + g0 * q1 + g1 * q0
                t0 = p + b
                t1 = b - (t0 - p)
                # u = t * sq[m]
                w = splitter * t0
                th = w - (w - t0)
                tl = t0 - th
                p = t0 * s0
                b = ((th * sh - p) + th * sl + tl * sh) + tl * sl + t0 * s1 + t1 * s0
                u0 = p + b
                u1 = b - (u0 - p)
                # acc = acc - u
                s = x0 - u0
                t = s - x0
                b = (x0 - (s - t)) + (-u0 - t) + x1 - u1
                x0 = s + b
                x1 = b - (x0 - s)
                # h[m+1] = acc * inv[m]
                w = splitter * x0
                xh = w - (w - x0)
                xl = x0 - xh
                p = x0 * v0
                b = ((xh * vh - p) + xh * vl + xl * vh) + xl * vl + x0 * v1 + x1 * v0
                q0, q1, qh, ql = c0, c1, ch, cl
                c0 = new_hi[i] = p + b
                c1 = new_lo[i] = b - (c0 - p)
                w = splitter * c0
                ch = w - (w - c0)
                cl = c0 - ch
            hi[start + 2:stop + 2] = new_hi
            lo[start + 2:stop + 2] = new_lo
        if self.rows is not None:
            np.add(hi[self.m + 2:], lo[self.m + 2:], out=self.rows[0, self.m + 1:m_new + 1])
        if not (ok := np.isfinite(hi[self.m + 2:])).all():
            self._bad.append((self.m + 1 + int(ok.argmin()), 0))

    @property
    def amplitude(self) -> np.ndarray:
        """Amplitudes <n_rows|m> for m = 0..self.m: the top row rounded to
        double, times the prefactor."""
        top = self._slot[-1]
        return self.kernel.prefactor * (self.hi[top, 1:] + self.lo[top, 1:])


def _refuse_overfull(mass, what: str):
    """Raise NumericOverflowError, naming the fullest row, where a closed-form
    row's sum of squares (one per row in ``mass``) passes ``_MASS_BOUND``."""
    mass = np.atleast_1d(mass)
    if mass.max() > _MASS_BOUND:
        row = int(np.argmax(mass))
        raise NumericOverflowError(f"{what} carries mass {mass[row]:.12g} > 1", index=row)


def scaled_hermite_table(kernel: OverlapKernel, n_max: int, m_max: int) -> np.ndarray:
    """Read-only table h[n, m] = H_{nm}(y) / sqrt(2**(n+m) n! m!) up to
    (n_max, m_max): row 0 by the second-index recurrence, then each row from
    the two below it, each written into the returned array as it is filled
    (the fill itself holds at most four rows).  ``kernel.prefactor * h[n, m]``
    is the amplitude <n|m>."""
    n_max = check_mode_index(n_max, "n_max")
    m_max = check_mode_index(m_max, "m_max")
    table = np.empty((n_max + 1, m_max + 1))
    _TableBuilder(kernel, n_max, table).extend(m_max)
    table.setflags(write=False)
    return table
