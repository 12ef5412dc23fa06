"""Hermite polynomials, oscillator eigenfunctions, and the scaled
two-index Hermite table behind the closed-form mode overlaps.

Natural units throughout: hbar = m = 1, so a channel of frequency
``omega`` has characteristic length ``l = omega**-0.5``.  The table
entries are pre-divided by ``sqrt(2**(n+m) n! m!)`` so no factorial is
ever materialized and entries stay O(1)-ish out to thousands of quanta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count, islice
from typing import NamedTuple

import numpy as np

from . import _dd as dd
from .errors import CapExceededError, NumericOverflowError

#: Hard cap on any mode index; larger requests are refused outright.
MODE_INDEX_CAP = 4096

#: Widest column block one table fill step computes; wider extensions are
#: split so the step's temporaries stay small.
_FILL_BLOCK = 1024

_PI_QUARTER = math.pi ** -0.25


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

    @property
    def length(self) -> float:
        """Characteristic length l = omega**-0.5."""
        return self.omega ** -0.5


def hermite_phys(n: int, xi):
    """Physicists' Hermite polynomial H_n(xi) by the three-term recurrence.

    Positive leading coefficient; accepts scalars or arrays.  Values grow
    like sqrt(n!) so large n with large xi can overflow double range --
    use :func:`hermite_scaled` when headroom matters.
    """
    n = check_mode_index(n)
    xi = np.asarray(xi, dtype=float)
    h_prev = np.ones_like(xi)
    if n == 0:
        return h_prev if h_prev.ndim else float(h_prev)
    h_cur = 2.0 * xi
    for k in range(1, n):
        h_prev, h_cur = h_cur, 2.0 * xi * h_cur - 2.0 * k * h_prev
    return h_cur if h_cur.ndim else float(h_cur)


def _ladder(xi, phi0):
    """Yield phi_0 = phi0, phi_1 = sqrt(2) xi phi0, ... of the recurrence
    phi_{k+1} = sqrt(2/(k+1)) xi phi_k - sqrt(k/(k+1)) phi_{k-1}.  Each
    level is a fresh array computed in place with that formula's IEEE
    operations, so its bits are the formula's.  phi_{k-1} is scaled before
    the new level is allocated, which keeps one array fewer live per step."""
    yield phi0
    prev, cur = phi0, math.sqrt(2.0) * xi * phi0
    for k in count(1):
        yield cur
        prev = math.sqrt(k / (k + 1)) * prev
        nxt = math.sqrt(2.0 / (k + 1)) * xi
        nxt *= cur
        nxt -= prev
        prev, cur = cur, nxt


def hermite_scaled(n: int, xi):
    """H_n(xi) / sqrt(2**n n!) via the normalized recurrence.

    This is the polynomial part of an oscillator eigenfunction; dividing
    out the factorial keeps the recurrence overflow-free far past where
    raw H_n would leave double range.
    """
    n = check_mode_index(n)
    xi = np.asarray(xi, dtype=float)
    p = next(islice(_ladder(xi, np.ones_like(xi)), n, None))
    return p if p.ndim else float(p)


def oscillator_psi(x, n: int, frame: OscillatorFrame):
    """Harmonic-oscillator eigenfunction psi(x) for the given channel.

    Evaluated by :func:`_ladder` from the Gaussian ground state, so no
    factorial or raw Hermite value is ever formed.  Sign convention:
    positive leading Hermite coefficient.
    """
    n = check_mode_index(n)
    x = np.asarray(x, dtype=float)
    l = frame.length
    xi = (x - frame.center) / l
    phi0 = _PI_QUARTER / math.sqrt(l) * np.exp(-0.5 * xi * xi)
    phi = next(islice(_ladder(xi, phi0), n, None))
    return phi if phi.ndim else float(phi)


class _KernelCoeffs(NamedTuple):
    """Recurrence coefficients kept in double-double form.

    The table value is an ill-conditioned function of these numbers
    (cancellation up to ~1e13), so they are derived from the raw inputs
    at extended precision rather than re-read from the rounded fields.
    """

    r11: tuple
    r12: tuple
    r22: tuple
    ry1: tuple
    ry2: tuple


@dataclass(frozen=True, eq=False)
class OverlapKernel:
    """Quadratic/linear data of the closed-form overlap for one frame pair.

    ``r`` is the symmetric 2x2 matrix and ``y`` the 2-vector feeding the
    two-index Hermite recurrences; ``prefactor`` is the shared scalar
    sqrt(2 l l' / (l^2+l'^2)) * exp(-d^2 / (2 (l^2+l'^2))).

    The overall sign of ``y`` is fixed so that closed-form amplitudes
    match the direct overlap integral (the quadrature path) including
    sign; probabilities are insensitive to this choice.
    """

    r: np.ndarray
    y: np.ndarray
    prefactor: float
    l: float
    l_prime: float
    coeffs: _KernelCoeffs = field(repr=False)

    def __post_init__(self):
        self.r.setflags(write=False)
        self.y.setflags(write=False)


def build_kernel(source: OscillatorFrame, target: OscillatorFrame) -> OverlapKernel:
    """Assemble the overlap kernel for a source -> target channel pair.

    Displacement is ``d = target.center - source.center``.  All recurrence
    coefficients are additionally carried in compensated form; see
    :class:`_KernelCoeffs`.

    Raises
    ------
    NumericOverflowError
        A kernel quantity left double range (extreme frequency ratios).
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
    r22 = dd.neg(r11)
    # (R y) components in closed form: (2 d l / L, -2 d l' / L)
    ry1 = dd.div(dd.mul_float(dd.mul(d_dd, l_dd), 2.0), big_l)
    ry2 = dd.div(dd.mul_float(dd.mul(d_dd, lp_dd), -2.0), big_l)
    y1 = dd.div(dd.mul(d_dd, l_dd), big_l)
    y2 = dd.neg(dd.div(dd.mul(d_dd, lp_dd), big_l))

    pref = math.sqrt(
        dd.to_float(dd.div(dd.mul_float(dd.mul(l_dd, lp_dd), 2.0), big_l))
    ) * math.exp(-dd.to_float(dd.div(dd.mul(d_dd, d_dd), dd.mul_float(big_l, 2.0))))

    r = np.array(
        [[dd.to_float(r11), dd.to_float(r12)], [dd.to_float(r12), dd.to_float(r22)]]
    )
    y = np.array([dd.to_float(y1), dd.to_float(y2)])
    l, l_prime = dd.to_float(l_dd), dd.to_float(lp_dd)
    coeffs = _KernelCoeffs(r11, r12, r22, ry1, ry2)
    if not np.isfinite([pref, l, l_prime, *r.flat, *y, *np.ravel(coeffs)]).all():
        raise NumericOverflowError(
            f"overlap kernel for omega {source.omega!r} -> {target.omega!r} "
            "is not finite"
        )
    return OverlapKernel(r=r, y=y, prefactor=pref, l=l, l_prime=l_prime, coeffs=coeffs)


@dataclass(frozen=True, eq=False)
class ScaledHermiteTable:
    """Table h[n, m] = H_{nm}(y) / sqrt(2**(n+m) n! m!) for one kernel.

    ``prefactor * h[n, m]`` is the overlap amplitude <n|m>.
    """

    h: np.ndarray

    def __post_init__(self):
        self.h.setflags(write=False)

    @property
    def n_max(self) -> int:
        return self.h.shape[0] - 1

    @property
    def m_max(self) -> int:
        return self.h.shape[1] - 1


class _TableBuilder:
    """Incrementally grown scaled table of one kernel in compensated
    arithmetic; carries the kernel's prefactor, so ``amplitude`` is the
    top row as overlap amplitudes.

    Row 0 is filled sequentially along m (three-term recurrence) on Python
    floats, through the same ``_dd`` operations as the arrays, so its bits
    are those numpy scalars would give.  Each further row depends only on
    the two rows below it, so rows vectorize over whole column blocks of at
    most ``_FILL_BLOCK`` columns.  Growth is by column blocks so spectra can
    extend their cutoff without recomputation; every entry comes out the
    same however the columns were split into ``extend`` calls.
    """

    def __init__(self, kernel: OverlapKernel, n_rows: int):
        self.c = kernel.coeffs
        self.prefactor = kernel.prefactor
        self.n_rows = n_rows
        self.m = -1  # highest filled column
        self._hi = [np.empty(0) for _ in range(n_rows + 1)]
        self._lo = [np.empty(0) for _ in range(n_rows + 1)]
        # per-index factors sqrt(k/2) and 1/sqrt(2(k+1)), double-double
        self._sq_hi = np.empty(0)
        self._sq_lo = np.empty(0)
        self._inv_hi = np.empty(0)
        self._inv_lo = np.empty(0)

    def _extend_factors(self, m_new: int):
        k0 = len(self._sq_hi)
        if m_new + 1 <= k0:
            return
        k = np.arange(k0, m_new + 1, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = dd.sqrt(dd.from_float(k / 2.0))
        if k0 == 0:
            sq = (np.where(k == 0.0, 0.0, sq[0]), np.where(k == 0.0, 0.0, sq[1]))
        inv = dd.div(dd.from_float(np.ones_like(k)), dd.sqrt(dd.from_float(2.0 * (k + 1.0))))
        self._sq_hi = np.concatenate([self._sq_hi, sq[0]])
        self._sq_lo = np.concatenate([self._sq_lo, sq[1]])
        self._inv_hi = np.concatenate([self._inv_hi, inv[0]])
        self._inv_lo = np.concatenate([self._inv_lo, inv[1]])

    def extend(self, m_new: int):
        """Fill all rows out to column ``m_new`` (inclusive)."""
        if m_new <= self.m:
            return
        # overflow surfaces as a typed error below, not as a warning
        with np.errstate(over="ignore", invalid="ignore"):
            while self.m < m_new:
                self._extend(min(m_new, self.m + _FILL_BLOCK))

    def _extend(self, m_new: int):
        self._extend_factors(max(m_new, self.n_rows) + 1)
        c = self.c
        m_old = self.m

        # row 0, sequential in m, on Python floats: the same IEEE operations
        # in the same order as on numpy scalars, at a fraction of the cost
        hi0, lo0 = self._hi[0], self._lo[0]
        if m_old < 0:
            prev, cur, new = None, (1.0, 0.0), [(1.0, 0.0)]
            m_old = 0
        else:
            prev = (float(hi0[m_old - 1]), float(lo0[m_old - 1])) if m_old >= 1 else None
            cur, new = (float(hi0[m_old]), float(lo0[m_old])), []
        ry2 = (float(c.ry2[0]), float(c.ry2[1]))
        r22 = (float(c.r22[0]), float(c.r22[1]))
        sq = zip(self._sq_hi[m_old:m_new].tolist(), self._sq_lo[m_old:m_new].tolist())
        inv = zip(self._inv_hi[m_old:m_new].tolist(), self._inv_lo[m_old:m_new].tolist())
        for sq_m, inv_m in zip(sq, inv):
            acc = dd.mul(ry2, cur)
            if prev is not None:
                acc = dd.sub(acc, dd.mul(dd.mul(r22, prev), sq_m))
            prev, cur = cur, dd.mul(acc, inv_m)
            new.append(cur)
        new_hi, new_lo = zip(*new)
        self._hi[0] = np.concatenate([hi0, new_hi])
        self._lo[0] = np.concatenate([lo0, new_lo])

        # rows n >= 1, vectorized over the new column block
        lo_col = self.m + 1 if self.m >= 0 else 0
        sl = slice(lo_col, m_new + 1)
        sq_m = (self._sq_hi[sl], self._sq_lo[sl])
        for n in range(1, self.n_rows + 1):
            prev = (self._hi[n - 1][sl], self._lo[n - 1][sl])
            if lo_col == 0:
                shifted = (np.concatenate([[0.0], self._hi[n - 1][lo_col:m_new]]),
                           np.concatenate([[0.0], self._lo[n - 1][lo_col:m_new]]))
            else:
                shifted = (self._hi[n - 1][lo_col - 1:m_new], self._lo[n - 1][lo_col - 1:m_new])
            acc = dd.mul(c.ry1, prev)
            if n >= 2:
                below = (self._hi[n - 2][sl], self._lo[n - 2][sl])
                t = dd.mul(c.r11, below)
                t = dd.mul(t, (self._sq_hi[n - 1], self._sq_lo[n - 1]))
                acc = dd.sub(acc, t)
            t = dd.mul(c.r12, shifted)
            t = dd.mul(t, sq_m)
            acc = dd.sub(acc, t)
            val = dd.mul(acc, (self._inv_hi[n - 1], self._inv_lo[n - 1]))
            self._hi[n] = np.concatenate([self._hi[n][:lo_col], val[0]])
            self._lo[n] = np.concatenate([self._lo[n][:lo_col], val[1]])
        self.m = m_new

        for n in range(self.n_rows + 1):
            bad = ~np.isfinite(self._hi[n])
            if bad.any():
                m_bad = int(np.argmax(bad))
                raise NumericOverflowError(
                    f"scaled Hermite table overflowed at entry (n={n}, m={m_bad})",
                    index=(n, m_bad),
                )

    def row(self, n: int) -> np.ndarray:
        """Row n rounded to double."""
        return self._hi[n] + self._lo[n]

    @property
    def amplitude(self) -> np.ndarray:
        """Amplitudes <n_rows|m> for m = 0..self.m."""
        return self.prefactor * self.row(self.n_rows)

    def table(self) -> np.ndarray:
        return np.vstack([self._hi[n] + self._lo[n] for n in range(self.n_rows + 1)])


def scaled_hermite_table(kernel: OverlapKernel, n_max: int, m_max: int) -> ScaledHermiteTable:
    """Build the scaled two-index Hermite table up to (n_max, m_max): row 0
    by the second-index recurrence, then each row from the two below it."""
    n_max = check_mode_index(n_max, "n_max")
    m_max = check_mode_index(m_max, "m_max")
    builder = _TableBuilder(kernel, n_max)
    builder.extend(m_max)
    return ScaledHermiteTable(h=builder.table())
