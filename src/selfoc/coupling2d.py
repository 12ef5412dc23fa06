"""Elliptic (2D) transitions: separable products, cross-coupled targets
via normal-mode rotation plus tensor quadrature, and the Schmidt-entropy
report quantifying inter-channel correlation of the arriving field.

The potential convention is U = (wx^2 x^2 + wy^2 y^2 + gamma x y) / 2,
i.e. frequencies enter squared as curvatures, matching the 1D channels,
so l(omega) = omega**-0.5 holds per normal mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotPositiveDefiniteError, PartialTensorError
from .hermite import (
    MODE_INDEX_CAP,
    OscillatorFrame,
    _TableBuilder,
    build_kernel,
    check_mode_index,
)
from .quadrature import gauss_hermite

#: Default rectangle edge cap of the coupled (quadrature) path, kept well
#: below MODE_INDEX_CAP because its cost rises with the square of the edge.
COUPLED_CAP = 256


@dataclass(frozen=True)
class Waveguide2D:
    """Two transverse channels with optional cross-coupling.

    ``gamma`` has units of frequency squared; positive definiteness of
    the quadratic form requires gamma^2 < 4 wx^2 wy^2 and is enforced at
    construction.
    """

    omega_x: float
    omega_y: float
    gamma: float = 0.0
    center: tuple = (0.0, 0.0)

    def __post_init__(self):
        for name, w in (("omega_x", self.omega_x), ("omega_y", self.omega_y)):
            if not (w > 0.0 and math.isfinite(w)):
                raise ValueError(f"{name} must be positive and finite, got {w}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if len(self.center) != 2 or not all(math.isfinite(c) for c in self.center):
            raise ValueError(f"center must be a finite (x, y) pair, got {self.center}")
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        if self.gamma * self.gamma >= 4.0 * self.omega_x**2 * self.omega_y**2:
            raise NotPositiveDefiniteError(
                f"gamma^2 = {self.gamma**2:g} must stay below "
                f"4 wx^2 wy^2 = {4.0 * self.omega_x**2 * self.omega_y**2:g}"
            )

    @property
    def form_matrix(self) -> np.ndarray:
        """Matrix M of the quadratic form U = (1/2) r^T M r."""
        return np.array(
            [[self.omega_x**2, self.gamma / 2.0], [self.gamma / 2.0, self.omega_y**2]]
        )


@dataclass(frozen=True, eq=False)
class NormalModes:
    """Rotation angle and frequencies diagonalizing a 2D quadratic form.

    For gamma = 0 the axes are kept in (x, y) order with theta = 0;
    for gamma != 0 modes are ordered by descending frequency (Omega_plus
    first) and theta is taken on the branch (-pi/4, pi/4], with
    theta = pi/4 at exact frequency degeneracy.
    ``axes`` holds the unit axis of each mode as rows (plus, minus).
    """

    theta: float
    omega_plus: float
    omega_minus: float
    axes: np.ndarray

    def __post_init__(self):
        self.axes.setflags(write=False)

    @property
    def frequencies(self) -> tuple:
        return (self.omega_plus, self.omega_minus)


def normal_modes(w: Waveguide2D) -> NormalModes:
    """Diagonalize the quadratic form of a 2D profile.

    tan(2 theta) = gamma / (wx^2 - wy^2); the normal frequencies are the
    square roots of the form-matrix eigenvalues.
    """
    m = w.form_matrix
    if w.gamma == 0.0:
        return NormalModes(
            theta=0.0,
            omega_plus=w.omega_x,
            omega_minus=w.omega_y,
            axes=np.eye(2),
        )
    a, cc, b = m[0, 0], m[1, 1], m[0, 1]
    if a == cc:
        theta = math.pi / 4.0
    else:
        theta = 0.5 * math.atan(2.0 * b / (a - cc))
    e1 = np.array([math.cos(theta), math.sin(theta)])
    e2 = np.array([-math.sin(theta), math.cos(theta)])
    lam1 = float(e1 @ m @ e1)
    lam2 = float(e2 @ m @ e2)
    if lam1 >= lam2:
        hi, lo = (lam1, e1), (lam2, e2)
    else:
        hi, lo = (lam2, e2), (lam1, e1)
    return NormalModes(
        theta=theta,
        omega_plus=math.sqrt(hi[0]),
        omega_minus=math.sqrt(lo[0]),
        axes=np.vstack([hi[1], lo[1]]),
    )


@dataclass(frozen=True, eq=False)
class CouplingTensor:
    """Amplitudes over final index pairs for one fixed initial pair."""

    values: np.ndarray
    captured_mass: float
    initial: tuple
    epsilon: float

    def __post_init__(self):
        self.values.setflags(write=False)

    @property
    def probability(self) -> np.ndarray:
        return self.values * self.values

    @property
    def argmax(self) -> tuple:
        """Most probable final pair; row-major order breaks exact ties."""
        flat = int(np.argmax(self.probability))
        i, j = np.unravel_index(flat, self.values.shape)
        return (int(i), int(j))


@dataclass(frozen=True, eq=False)
class SchmidtReport:
    """Singular values of a coupling tensor and their entropy.

    The entropy is -sum p ln p over p = sigma^2 / sum sigma^2; zero iff
    the arriving field factorizes between the two channels.
    """

    singular_values: np.ndarray
    entropy: float

    def __post_init__(self):
        self.singular_values.setflags(write=False)


class _ChannelRow:
    """Adaptive 1D amplitude row for one axis of a separable transition."""

    def __init__(self, source: OscillatorFrame, target: OscillatorFrame, n: int):
        kernel = build_kernel(source, target)
        self._prefactor = kernel.prefactor
        self._builder = _TableBuilder(kernel._dd_coeffs(), n)
        self._n = n

    def extend(self, m_new: int):
        self._builder.extend(m_new)

    @property
    def m(self) -> int:
        return self._builder.m

    @property
    def amplitude(self) -> np.ndarray:
        return self._prefactor * self._builder.row(self._n)

    @property
    def mass(self) -> float:
        a = self.amplitude
        return float(np.dot(a, a))


def _channel_frames(w: Waveguide2D):
    return (
        OscillatorFrame(w.omega_x, w.center[0]),
        OscillatorFrame(w.omega_y, w.center[1]),
    )


def spectrum2d_separable(
    source: Waveguide2D,
    target: Waveguide2D,
    n_x: int,
    n_y: int,
    epsilon: float = 1e-8,
    cap: int = MODE_INDEX_CAP,
) -> CouplingTensor:
    """Product amplitudes for an axis-aligned, uncoupled pair of profiles.

    amplitude(nx', ny') = <n_x|nx'>_x * <n_y|ny'>_y.  The index rectangle
    grows on whichever side still hides the larger marginal tail until
    the captured mass reaches 1 - epsilon.
    """
    if source.gamma != 0.0 or target.gamma != 0.0:
        raise ValueError("separable spectra require gamma = 0 on both sides")
    n_x = check_mode_index(n_x, "n_x")
    n_y = check_mode_index(n_y, "n_y")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    cap = check_mode_index(cap, "cap")

    sx, sy = _channel_frames(source)
    tx, ty = _channel_frames(target)
    rows = (_ChannelRow(sx, tx, n_x), _ChannelRow(sy, ty, n_y))
    chunk = 32
    for row in rows:
        row.extend(min(chunk, cap))
    target_mass = 1.0 - epsilon
    while True:
        masses = [row.mass for row in rows]
        if masses[0] * masses[1] >= target_mass:
            break
        grow = 0 if (1.0 - masses[0]) >= (1.0 - masses[1]) else 1
        if rows[grow].m >= cap:
            grow = 1 - grow
        if rows[grow].m >= cap:
            values = np.outer(rows[0].amplitude, rows[1].amplitude)
            tensor = CouplingTensor(
                values=values,
                captured_mass=masses[0] * masses[1],
                initial=(n_x, n_y),
                epsilon=epsilon,
            )
            raise PartialTensorError(
                f"captured mass {tensor.captured_mass:.12g} < {target_mass:.12g} "
                f"with both channels at the hard cap {cap}",
                tensor=tensor,
            )
        rows[grow].extend(min(rows[grow].m + chunk, cap))

    values = np.outer(rows[0].amplitude, rows[1].amplitude)
    return CouplingTensor(
        values=values,
        captured_mass=rows[0].mass * rows[1].mass,
        initial=(n_x, n_y),
        epsilon=epsilon,
    )


def _mode_factors(w: Waveguide2D):
    """Per-normal-mode (axis, frequency, 1/length) triples plus the
    Gaussian envelope matrix A = sum_j Omega_j e_j e_j^T."""
    nm = normal_modes(w)
    axes = nm.axes
    freqs = nm.frequencies
    a = freqs[0] * np.outer(axes[0], axes[0]) + freqs[1] * np.outer(axes[1], axes[1])
    return nm, a


def _poly_stack(n_top: int, xi: np.ndarray) -> np.ndarray:
    """hermite_scaled(k, xi) for k = 0..n_top, stacked on axis 0."""
    out = np.empty((n_top + 1,) + xi.shape)
    out[0] = 1.0
    if n_top >= 1:
        out[1] = math.sqrt(2.0) * xi
    for k in range(1, n_top):
        out[k + 1] = (
            math.sqrt(2.0 / (k + 1)) * xi * out[k] - math.sqrt(k / (k + 1)) * out[k - 1]
        )
    return out


def _coupled_block(
    source: Waveguide2D,
    target: Waveguide2D,
    n_x: int,
    n_y: int,
    top1: int,
    top2: int,
) -> np.ndarray:
    """Amplitudes <(n_x, n_y) | (k1, k2)'> for k1 <= top1, k2 <= top2.

    Tensor Gauss-Hermite in the frame diagonalizing the combined Gaussian
    envelope of the four-factor product; every factor is a 1D oscillator
    function along its own normal axis, evaluated via the scaled-Hermite
    split so the Gaussian bookkeeping stays exact.
    """
    nm_s, a_s = _mode_factors(source)
    nm_t, a_t = _mode_factors(target)
    c_s = np.asarray(source.center, dtype=float)
    c_t = np.asarray(target.center, dtype=float)

    q = a_s + a_t
    rbar = np.linalg.solve(q, a_s @ c_s + a_t @ c_t)
    c0 = 0.5 * (c_s @ a_s @ c_s + c_t @ a_t @ c_t - rbar @ q @ rbar)
    evals, vecs = np.linalg.eigh(q)

    order = (n_x + n_y + top1 + top2 + 1) // 2 + 8
    rule = gauss_hermite(order)
    t1 = rule.nodes[:, None]
    t2 = rule.nodes[None, :]
    col1 = vecs[:, 0] * math.sqrt(2.0 / evals[0])
    col2 = vecs[:, 1] * math.sqrt(2.0 / evals[1])
    x = rbar[0] + t1 * col1[0] + t2 * col2[0]
    y = rbar[1] + t1 * col1[1] + t2 * col2[1]

    def xi(axis, freq, center):
        u = axis[0] * (x - center[0]) + axis[1] * (y - center[1])
        return u * math.sqrt(freq)

    src = (
        _poly_stack(n_x, xi(nm_s.axes[0], nm_s.omega_plus, c_s))[n_x]
        * _poly_stack(n_y, xi(nm_s.axes[1], nm_s.omega_minus, c_s))[n_y]
    )
    stack1 = _poly_stack(top1, xi(nm_t.axes[0], nm_t.omega_plus, c_t))
    stack2 = _poly_stack(top2, xi(nm_t.axes[1], nm_t.omega_minus, c_t))

    norm = (
        (nm_s.omega_plus * nm_s.omega_minus * nm_t.omega_plus * nm_t.omega_minus)
        ** 0.25
        / math.pi
    )
    jac = 2.0 / math.sqrt(evals[0] * evals[1])
    weight = rule.weights[:, None] * rule.weights[None, :] * src
    g = weight.reshape(-1)
    m1 = stack1.reshape(top1 + 1, -1)
    m2 = stack2.reshape(top2 + 1, -1)
    return norm * jac * math.exp(-c0) * ((m1 * g) @ m2.T)


def overlap_coupled(
    source: Waveguide2D,
    target: Waveguide2D,
    n_x: int,
    n_y: int,
    n1_prime: int,
    n2_prime: int,
) -> float:
    """2D overlap amplitude with cross-coupling allowed on either side.

    Initial indices label the source normal modes, final indices the
    target normal modes, each in that profile's (plus, minus) order;
    for gamma = 0 these are the literal (x, y) channels.
    """
    n_x = check_mode_index(n_x, "n_x")
    n_y = check_mode_index(n_y, "n_y")
    n1_prime = check_mode_index(n1_prime, "n1_prime")
    n2_prime = check_mode_index(n2_prime, "n2_prime")
    block = _coupled_block(source, target, n_x, n_y, n1_prime, n2_prime)
    return float(block[n1_prime, n2_prime])


def coupled_tensor(
    source: Waveguide2D,
    target: Waveguide2D,
    n_x: int,
    n_y: int,
    epsilon: float = 1e-6,
    cap: int = COUPLED_CAP,
) -> CouplingTensor:
    """Grow the rectangle of coupled amplitudes to the target mass.

    The side whose outermost row/column still carries more probability is
    expanded first.  The default cap is deliberately modest: quadrature
    cost rises quadratically with the rectangle edge.
    """
    n_x = check_mode_index(n_x, "n_x")
    n_y = check_mode_index(n_y, "n_y")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    cap = check_mode_index(cap, "cap")

    top1, top2 = 8, 8
    target_mass = 1.0 - epsilon
    while True:
        values = _coupled_block(source, target, n_x, n_y, top1, top2)
        prob = values * values
        mass = float(prob.sum())
        if mass >= target_mass:
            break
        edge1 = float(prob[-1, :].sum())
        edge2 = float(prob[:, -1].sum())
        grow_first = edge1 >= edge2
        if grow_first and top1 >= cap:
            grow_first = False
        if not grow_first and top2 >= cap:
            grow_first = top1 < cap
            if not grow_first:
                tensor = CouplingTensor(
                    values=values,
                    captured_mass=mass,
                    initial=(n_x, n_y),
                    epsilon=epsilon,
                )
                raise PartialTensorError(
                    f"captured mass {mass:.12g} < {target_mass:.12g} with the "
                    f"rectangle at the cap {cap}",
                    tensor=tensor,
                )
        if grow_first:
            top1 = min(top1 + 8, cap)
        else:
            top2 = min(top2 + 8, cap)

    return CouplingTensor(
        values=values, captured_mass=mass, initial=(n_x, n_y), epsilon=epsilon
    )


def schmidt_report(tensor: CouplingTensor) -> SchmidtReport:
    """Schmidt decomposition of the amplitude matrix.

    Singular values come back descending with sum of squares equal to the
    captured mass; the entropy uses natural log over the normalized
    squared singular values, skipping exact zeros.
    """
    if tensor.values.size == 0:
        raise ValueError("empty coupling tensor")
    if not (tensor.captured_mass > 0.0):
        raise ValueError("coupling tensor carries no mass")
    sigma = np.linalg.svd(tensor.values, compute_uv=False)
    weights = sigma * sigma
    total = weights.sum()
    p = weights[weights > 0.0] / total
    entropy = float(-(p * np.log(p)).sum())
    return SchmidtReport(singular_values=sigma, entropy=entropy)
