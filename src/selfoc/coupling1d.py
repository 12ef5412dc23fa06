"""Planar (1D) mode-connection coefficients between two quadratic channels.

The closed-form route lives here, and no quadrature: ``overlap_closed`` is
the prefactor times a scaled two-index Hermite table entry.  Spectra, the
coupling matrix, and the semiclassical vertical-transition estimate build
on it; every row read from the table is refused where its mass passes
1 + 1e-10.  The independent quadrature oracle is
:func:`selfoc.coupling2d.overlap_quad`, a one-axis call of the coupled path.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, NumericOverflowError, PartialResultError
from .hermite import (
    MODE_INDEX_CAP,
    OscillatorFrame,
    _refuse_overfull,
    _TableBuilder,
    build_kernel,
    check_mode_index,
)

#: Work budget of :func:`spectrum1d`'s first fill: n + 1 rows times columns
#: of table entries computed, not held; see ``_first_extent``.
_FIRST_FILL_ENTRIES = 1 << 16


@dataclass(frozen=True)
class Transition1D:
    """A fixed initial mode crossing from one channel into another.

    The source is conventionally the reference frame; displacement is
    ``target.center - source.center``.
    """

    source: OscillatorFrame
    target: OscillatorFrame
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", check_mode_index(self.n))

    @property
    def d(self) -> float:
        return self.target.center - self.source.center


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Transition amplitudes/probabilities over final mode indices.

    Entries run over n' = 0..cutoff in order; ``probability`` is the
    square of ``amplitude`` elementwise and ``captured_mass`` their sum.
    """

    amplitude: np.ndarray
    captured_mass: float

    def __post_init__(self):
        self.amplitude.setflags(write=False)

    def __len__(self) -> int:
        return len(self.amplitude)

    @property
    def n_prime(self) -> np.ndarray:
        return np.arange(len(self.amplitude))

    @property
    def probability(self) -> np.ndarray:
        return self.amplitude * self.amplitude

    @property
    def cutoff(self) -> int:
        return len(self.amplitude) - 1

    @property
    def argmax(self) -> int:
        """Most probable final index (smallest index wins ties)."""
        return int(np.argmax(self.probability))


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """Amplitudes <n|n'> for initial modes 0..n_max, final 0..n_prime_max."""

    values: np.ndarray
    gram_defect: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def n_max(self) -> int:
        return self.values.shape[0] - 1

    @property
    def n_prime_max(self) -> int:
        return self.values.shape[1] - 1


def overlap_closed(t: Transition1D, n_prime: int) -> float:
    """Closed-form amplitude <n|n'> for the transition; NumericOverflowError
    where its row <n|0..n'> carries mass past 1 + 1e-10."""
    n_prime = check_mode_index(n_prime, "n_prime")
    builder = _TableBuilder(build_kernel(t.source, t.target), t.n)
    builder.extend(n_prime)
    row = builder.amplitude
    with np.errstate(over="ignore"):
        _refuse_overfull(np.dot(row, row), f"the closed-form row <{t.n}|0..{n_prime}>")
    return float(row[n_prime])


def _n_prime_moments(t: Transition1D) -> tuple:
    """Mean and variance of the final index n' for the transition.

    Closed forms for a source Fock state |n> (frequency omega) entering a
    target of frequency omega' shifted by d:
    <n'> = (n + 1/2)(omega/omega' + omega'/omega)/2 + omega' d^2/2 - 1/2 and
    Var n' = (beta/omega')^2 (2n^2 + 2n + 2) + omega'^2 d^2 (n + 1/2)/omega
    with beta = (omega'^2/omega - omega)/4.
    """
    w, wp, d, n = t.source.omega, t.target.omega, t.d, t.n
    mean = (n + 0.5) * (w / wp + wp / w) / 2.0 + wp * d * d / 2.0 - 0.5
    beta = (wp * wp / w - w) / 4.0
    b = beta / wp
    var = b * b * (2 * n * n + 2 * n + 2) + wp * wp * d * d * (n + 0.5) / w
    return mean, var


def _first_extent(t: Transition1D) -> int:
    """First table extent for :func:`spectrum1d`: where the mass should end.

    ceil(mean + 4 sigma) of n' plus a margin of 16, clamped to
    ``_FIRST_FILL_ENTRIES // (n + 1)`` (near 2^16 entries computed over the
    n + 1 rows): excited inputs at large shifts spread so wide that a fill
    sized by the spread alone would run to the cap, computing n + 1 rows of
    4097 columns, before the mass is even looked at.  The clamp bounds that
    work; the table held is four rows of the columns and one column of the
    n + 1 rows, whatever n is.
    Moments that leave double range (extreme frequency ratios) leave only
    the clamp.  The floor of 64 comes last, so it wins for n >= 1024:
    n = 4000 computes columns 0..64 of 4001 rows, 260,065 entries.
    """
    mean, var = _n_prime_moments(t)
    spread = mean + 4.0 * math.sqrt(var)
    limit = _FIRST_FILL_ENTRIES // (t.n + 1)
    if math.isfinite(spread):
        limit = min(limit, math.ceil(spread) + 16)
    return max(64, limit)


def spectrum1d(t: Transition1D, epsilon: float = 1e-8, cap: int = MODE_INDEX_CAP) -> Spectrum:
    """Transition probabilities P_n^{n'} until the captured mass reaches
    1 - epsilon.

    One table pass: the first fill reaches where the mass should end,
    mean + 4 sigma of n' from closed-form moments (``_first_extent``), and
    later fills grow the extent by half until the mass is reached.  The
    closed-form row is reused, never recomputed per n', and the cutoff is
    the first index whose cumulative mass reaches the target, however far
    the table was filled.

    Raises
    ------
    PartialResultError
        The cap was hit first; the partial spectrum is its ``result``.
    NumericOverflowError
        The table overflowed, or the row's mass passed 1 + 1e-10.
    """
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    cap = check_mode_index(cap, "cap")
    builder = _TableBuilder(build_kernel(t.source, t.target), t.n)
    target_mass = 1.0 - epsilon

    m_new = min(cap, _first_extent(t))
    while True:
        builder.extend(m_new)
        amplitude = builder.amplitude
        cumulative = np.cumsum(amplitude * amplitude)
        _refuse_overfull(cumulative[-1], f"spectrum of <{t.n}|n'>")
        hit = int(np.searchsorted(cumulative, target_mass))
        if hit < len(cumulative) or m_new == cap:
            break
        m_new = min(cap, m_new + m_new // 2)

    cutoff = min(hit, cap)
    spectrum = Spectrum(amplitude[: cutoff + 1], float(cumulative[cutoff]))
    if hit > cap:
        raise PartialResultError(
            f"captured mass {spectrum.captured_mass:.12g} < {target_mass:.12g} "
            f"at the hard cap {cap}",
            spectrum,
        )
    return spectrum


def coupling_matrix(
    source: OscillatorFrame,
    target: OscillatorFrame,
    n_max: int,
    n_prime_max: int,
) -> CouplingMatrix:
    """All amplitudes for initial modes 0..n_max into final 0..n_prime_max.

    Cut from a single table whose rows are written into the returned array
    as they are filled, then scaled by the prefactor in place; each row's
    mass, checked against 1 + 1e-10, is the Gram matrix's diagonal, and the
    reported Gram defect ``max |V V^T - I|`` is formed inside that matrix,
    so the call holds its result and one (n_max + 1)-square array.  The
    defect measures how much final-mode completeness is lost to the n'
    truncation.
    """
    n_max = check_mode_index(n_max, "n_max")
    n_prime_max = check_mode_index(n_prime_max, "n_prime_max")
    if n_max > n_prime_max:
        warnings.warn(
            f"n_max={n_max} > n_prime_max={n_prime_max}: rows will be badly "
            "truncated and the Gram defect large",
            RuntimeWarning,
            stacklevel=2,
        )
    kernel, values = build_kernel(source, target), np.empty((n_max + 1, n_prime_max + 1))
    _TableBuilder(kernel, n_max, values).extend(n_prime_max)
    values *= kernel.prefactor
    gram = values @ values.T
    _refuse_overfull(gram.diagonal(), "a coupling matrix row")
    gram.flat[:: n_max + 2] -= 1.0  # the diagonal
    defect = float(np.abs(gram, out=gram).max())
    return CouplingMatrix(values=values, gram_defect=defect)


def fc_candidates(t: Transition1D, cap: int = MODE_INDEX_CAP) -> dict:
    """Vertical-transition candidates for the semiclassical estimate.

    For n = 0 the transition point is the density maximum (the source
    center); for excited modes the two classical turning points are the
    candidates and the one nearer the target center is used.  A candidate
    level past ``cap`` is refused with :class:`CapExceededError`.
    """
    cap = check_mode_index(cap, "cap")
    w, wp = t.source.omega, t.target.omega

    def level(x_star: float) -> int:
        dx = x_star - t.target.center
        value = 0.5 * wp * (dx * dx) - 0.5
        if not math.isfinite(value):
            raise NumericOverflowError(
                f"vertical-transition level at x*={x_star!r} is not finite"
            )
        if value >= cap + 0.5:  # rounds past the cap
            raise CapExceededError(
                f"vertical-transition level at x*={x_star!r} is {value:.6g}, "
                f"past the hard cap {cap}"
            )
        return max(0, math.floor(value + 0.5))  # half-integers round up

    if t.n == 0:
        x_near = x_far = t.source.center
    else:
        turn = math.sqrt((2.0 * t.n + 1.0) / w)
        lo, hi = t.source.center - turn, t.source.center + turn
        if abs(hi - t.target.center) <= abs(lo - t.target.center):
            x_near, x_far = hi, lo
        else:
            x_near, x_far = lo, hi
    return {
        "near": level(x_near),
        "far": level(x_far),
        "x_near": x_near,
        "x_far": x_far,
    }


def fc_estimate(t: Transition1D) -> int:
    """Semiclassical estimate of the most probable final mode index.

    Vertical transition at the near-side point: the final potential energy
    there is matched to the final ladder E' = omega' (n' + 1/2).
    """
    return fc_candidates(t)["near"]
