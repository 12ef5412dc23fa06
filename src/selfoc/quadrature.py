"""Gauss-Hermite rules (weight exp(-t^2)) used as the integration oracle.

Nodes come from the symmetric tridiagonal Jacobi matrix and are then
Newton-polished on the Hermite-function recurrence; weights follow from
the Christoffel sum of the same pass.  Both read the rescaled levels of
:func:`selfoc.hermite._ladder`, so rules stay generatable far past the
order where raw polynomial values or bare Gaussians leave double range.

scipy (for the tridiagonal eigensolver) is loaded when the first rule of
order >= 2 is built, not when this module is imported, so processes that
only use the closed-form path never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError
from .hermite import _RESCALE_BITS, _ladder

MAX_ORDER = 2048
SQRT_PI = math.sqrt(math.pi)


def _scaled_pass(order: int, x: np.ndarray):
    """One sweep of :func:`selfoc.hermite._ladder` at the points ``x``:
    (f_order, f_{order-1}, sum_{k<order} f_k^2, logscale), the middle two
    rescaled with f_order by the same exact factors.  The true function is
    f_k * common factor * exp(logscale); ratios and the weight formula are
    scale-free, so that factor is never formed."""
    levels = _ladder(x)
    (f, e), s = next(levels), 0.0
    for _ in range(order):
        s, f_below, e_below = s + f * f, f, e
        f, e = next(levels)
        if e is not e_below:
            factor = np.ldexp(1.0, _RESCALE_BITS * (e_below - e))
            s, f_below = s * factor * factor, f_below * factor
    return f, f_below, s, e * _RESCALE_BITS * math.log(2.0)


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Gauss-Hermite nodes (ascending) and weights for one order."""

    order: int
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


@lru_cache(maxsize=256)
def gauss_hermite(order: int) -> QuadratureRule:
    """Generate the Gauss-Hermite rule of the given order.

    Parameters
    ----------
    order : int
        Number of nodes, 1 <= order <= 2048.

    Returns
    -------
    QuadratureRule
        Immutable rule with symmetric nodes; sum of weights is sqrt(pi).

    Raises
    ------
    ValueError
        Order out of range.
    ConvergenceError
        A node failed to polish to the residual tolerance (names it).
    """
    if isinstance(order, bool) or not isinstance(order, (int, np.integer)):
        raise ValueError(f"order must be an integer, got {order!r}")
    if not (1 <= order <= MAX_ORDER):
        raise ValueError(f"order must be in [1, {MAX_ORDER}], got {order}")
    order = int(order)

    if order == 1:
        x = np.zeros(1)
    else:
        # imported here: scipy.linalg costs ~0.3 s to load, and processes
        # that never build a rule of order >= 2 should not pay for it
        from scipy.linalg import eigvalsh_tridiagonal

        off_diag = np.sqrt(np.arange(1, order) / 2.0)
        x = eigvalsh_tridiagonal(np.zeros(order), off_diag)
        # Newton polish on the Hermite function; dx = f_n / f_n'
        sqrt2n = math.sqrt(2.0 * order)
        for _ in range(100):
            f_n, f_nm1, _, _ = _scaled_pass(order, x)
            dx = f_n / (sqrt2n * f_nm1 - x * f_n)
            x = x - dx
            if np.all(np.abs(dx) <= 1e-15 * np.maximum(1.0, np.abs(x))):
                break
        # exact +/- pairing; the midpoint of an odd rule lands on 0.0
        x = 0.5 * (x - x[::-1])

    f_n, f_nm1, s, logscale = _scaled_pass(order, x)
    if order > 1:
        residual = np.abs(f_n / (math.sqrt(2.0 * order) * f_nm1 - x * f_n))
        bad = residual > 1e-14 * np.maximum(1.0, np.abs(x))
        if bad.any():
            i = int(np.argmax(bad))
            raise ConvergenceError(
                f"node {i} of order-{order} rule failed to converge "
                f"(residual {residual[i]:.3e})",
                node_index=i,
            )
    with np.errstate(under="ignore"):
        w = SQRT_PI * np.exp(-2.0 * logscale) / s

    total = w.sum()
    if not math.isclose(total, SQRT_PI, rel_tol=1e-13):
        raise ConvergenceError(
            f"order-{order} rule failed the total-weight check: {total!r}"
        )
    return QuadratureRule(order=order, nodes=x, weights=w)


def integrate(rule: QuadratureRule, f, shift: float = 0.0, scale: float = 1.0) -> float:
    """Integrate f(x) * exp(-((x - shift)/scale)**2) over the real line.

    Substitutes x = shift + scale*t (dx = scale dt), so the rule's weights
    supply the Gaussian factor and ``f`` must be the integrand with that
    Gaussian divided out.  ``f`` is called once with the full node array.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise ValueError(f"scale must be positive and finite, got {scale}")
    x = shift + scale * rule.nodes
    return float(scale * np.dot(rule.weights, f(x)))
