"""Overlap reference computed apart from selfoc.

Every amplitude is a trapezoid sum of a product of oscillator functions on
a uniform grid.  The integrands are smooth and decay like Gaussians, so the
trapezoid rule converges spectrally once the step resolves the product's
highest wavenumber; the grids below are sized from that bound.  Oscillator
functions are carried as ``f * exp(s)`` with a per-point log-scale ``s`` so
that neither the Gaussian factor nor the polynomial growth leaves double
range, far outside the classical region included.

Conventions follow the selfoc documentation: natural units, channel
length ``l = omega**-0.5``, positive leading Hermite coefficient, source
channel as the reference frame, target centre displaced by ``d``; in 2D the
normal modes of a cross-coupled target are ordered by descending frequency
with the rotation angle on the branch (-pi/4, pi/4].

Only numpy is used; nothing here imports selfoc.
"""

from __future__ import annotations

import math

import numpy as np

_LOG_PI_QUARTER = -0.25 * math.log(math.pi)
_RESCALE_AT = 1e150
_RESCALE_LOG = 512.0 * math.log(2.0)
# Beyond sqrt(2n+1) + _TAIL (in units of the channel length) a mode of
# index n is below 1e-17 of its peak.
_TAIL = 9.0
# Grid step is this fraction of the Nyquist step of the product spectrum.
_OVERSAMPLE = 1.25


class _Ladder:
    """Oscillator functions psi_0, psi_1, ... at fixed points, one at a time.

    ``value()`` is psi_k at the points; ``step()`` advances k by one with
    the normalised three-term recurrence.  Values are ``f * exp(s)``; when
    ``|f|`` grows past 1e150 at a point, that point is rescaled.
    """

    def __init__(self, xi: np.ndarray, length: float):
        self.xi = xi
        self.k = 0
        self.f_prev = np.zeros_like(xi)
        self.f = np.ones_like(xi)
        self.s = -0.5 * xi * xi + _LOG_PI_QUARTER - 0.5 * math.log(length)
        self.rescaled = False

    def step(self):
        k = self.k
        f_next = math.sqrt(2.0 / (k + 1)) * self.xi * self.f - math.sqrt(k / (k + 1)) * self.f_prev
        self.f_prev, self.f = self.f, f_next
        self.k = k + 1
        big = np.abs(f_next) > _RESCALE_AT
        self.rescaled = bool(big.any())
        if self.rescaled:
            scale = np.where(big, 2.0 ** -512, 1.0)
            self.f = self.f * scale
            self.f_prev = self.f_prev * scale
            self.s = self.s + np.where(big, _RESCALE_LOG, 0.0)

    def value(self) -> np.ndarray:
        with np.errstate(under="ignore"):
            return self.f * np.exp(self.s)

    def stack(self, top: int) -> np.ndarray:
        """psi_0 .. psi_top as rows (advances the ladder to ``top``)."""
        out = np.empty((top + 1, self.xi.size))
        out[0] = self.value()
        for k in range(1, top + 1):
            self.step()
            out[k] = self.value()
        return out


def psi(n: int, x, omega: float, center: float = 0.0) -> np.ndarray:
    """Oscillator eigenfunction of index ``n`` at the points ``x``."""
    length = omega ** -0.5
    ladder = _Ladder((np.asarray(x, dtype=float) - center) / length, length)
    for _ in range(n):
        ladder.step()
    return ladder.value()


def _support(n: int) -> float:
    return math.sqrt(2.0 * n + 1.0) + _TAIL


def _grid_1d(n_src: int, k_top: int, omega: float, omega_prime: float):
    """Trapezoid nodes covering the source support, fine enough for psi_top."""
    length, length_p = omega ** -0.5, omega_prime ** -0.5
    half = length * _support(n_src)
    kappa = _support(n_src) / length + _support(k_top) / length_p
    step = 2.0 * math.pi / (kappa * _OVERSAMPLE)
    count = 2 * int(math.ceil(half / step)) + 1
    return np.linspace(-half, half, count)


def rows_1d(omega: float, omega_prime: float, d: float, n_top: int, k_top: int) -> np.ndarray:
    """Amplitudes <n|k'> for n = 0..n_top and k = 0..k_top.

    Source channel at the origin with frequency ``omega``; target channel
    centred at ``d`` with frequency ``omega_prime``.
    """
    x = _grid_1d(n_top, k_top, omega, omega_prime)
    h = x[1] - x[0]
    src = _Ladder(x / omega ** -0.5, omega ** -0.5).stack(n_top) * h
    tgt = _Ladder((x - d) / omega_prime ** -0.5, omega_prime ** -0.5)
    # per-point products are formed with the target's log-scale folded in
    out = np.empty((n_top + 1, k_top + 1))
    weight = src * np.exp(tgt.s)
    for k in range(k_top + 1):
        if k:
            tgt.step()
            if tgt.rescaled:
                with np.errstate(under="ignore", over="ignore"):
                    weight = src * np.exp(tgt.s)
        out[:, k] = weight @ tgt.f
    return out


def row_1d(omega: float, omega_prime: float, d: float, n: int, k_top: int) -> np.ndarray:
    """Amplitudes <n|k'> for k = 0..k_top (one source mode)."""
    return rows_1d(omega, omega_prime, d, n, k_top)[n]


def normal_axes(omega_x: float, omega_y: float, gamma: float):
    """(frequencies, axes) of U = (wx^2 x^2 + wy^2 y^2 + gamma x y) / 2.

    For gamma = 0 the axes stay (x, y); otherwise the higher-frequency
    mode comes first and the angle lies on (-pi/4, pi/4].
    """
    if gamma == 0.0:
        return (omega_x, omega_y), np.eye(2)
    a, c, b = omega_x ** 2, omega_y ** 2, 0.5 * gamma
    theta = math.pi / 4.0 if a == c else 0.5 * math.atan(2.0 * b / (a - c))
    e1 = np.array([math.cos(theta), math.sin(theta)])
    e2 = np.array([-math.sin(theta), math.cos(theta)])
    m = np.array([[a, b], [b, c]])
    lam1, lam2 = float(e1 @ m @ e1), float(e2 @ m @ e2)
    if lam1 >= lam2:
        return (math.sqrt(lam1), math.sqrt(lam2)), np.vstack([e1, e2])
    return (math.sqrt(lam2), math.sqrt(lam1)), np.vstack([e2, e1])


def tensor_2d(ratio_x: float, ratio_y: float, gamma_prime: float, center, n_x: int,
              n_y: int, top1: int, top2: int) -> np.ndarray:
    """Amplitudes <(n_x, n_y)|(k1, k2)'> for k1 <= top1, k2 <= top2.

    Source: uncoupled unit-frequency guide at the origin.  Target:
    frequencies ``ratio_x``, ``ratio_y``, cross-coupling ``gamma_prime``,
    centre ``center``.  The sum runs on a grid aligned with the target's
    normal axes, so the target factor separates and the tensor is
    ``Psi1 @ S @ Psi2.T`` with the source sampled on the rotated grid.
    """
    freqs, axes = normal_axes(ratio_x, ratio_y, gamma_prime)
    c_t = np.asarray(center, dtype=float)
    # source centre (the origin) in target normal coordinates
    p = axes @ (-c_t)
    radius = _support(max(n_x, n_y))
    grids = []
    for i, top in enumerate((top1, top2)):
        kappa = _support(top) * math.sqrt(freqs[i]) + radius
        step = 2.0 * math.pi / (kappa * _OVERSAMPLE)
        count = 2 * int(math.ceil(radius / step)) + 1
        grids.append(p[i] + np.linspace(-radius, radius, count))
    u1, u2 = grids
    psi1 = _Ladder(u1 * math.sqrt(freqs[0]), freqs[0] ** -0.5).stack(top1)
    psi2 = _Ladder(u2 * math.sqrt(freqs[1]), freqs[1] ** -0.5).stack(top2)
    x = c_t[0] + u1[:, None] * axes[0, 0] + u2[None, :] * axes[1, 0]
    y = c_t[1] + u1[:, None] * axes[0, 1] + u2[None, :] * axes[1, 1]
    src = psi(n_x, x, 1.0) * psi(n_y, y, 1.0)
    src *= (u1[1] - u1[0]) * (u2[1] - u2[0])
    return psi1 @ src @ psi2.T


def poisson_probabilities(big_d: float, k_top: int) -> np.ndarray:
    """Ratio 1, shift D, ground mode in: P(k) = e^(-D/2) (D/2)^k / k!."""
    k = np.arange(k_top + 1)
    mean = 0.5 * big_d
    if mean == 0.0:
        return (k == 0).astype(float)
    lgam = np.array([math.lgamma(i + 1.0) for i in k])
    return np.exp(-mean + k * math.log(mean) - lgam)


def squeeze_probabilities(ratio: float, k_top: int) -> np.ndarray:
    """D = 0, ground mode in: P(2j) = sqrt(1-t^2) C(2j,j) / 4^j t^(2j),
    t = (w' - w)/(w' + w); odd entries vanish."""
    t = (ratio - 1.0) / (ratio + 1.0)
    out = np.zeros(k_top + 1)
    log_t2 = 2.0 * math.log(abs(t)) if t != 0.0 else -math.inf
    for k in range(0, k_top + 1, 2):
        j = k // 2
        log_c = math.lgamma(2 * j + 1.0) - 2.0 * math.lgamma(j + 1.0) - 2 * j * math.log(2.0)
        out[k] = math.sqrt(1.0 - t * t) * (math.exp(log_c + j * log_t2) if j else 1.0)
    return out
