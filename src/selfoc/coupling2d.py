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

from .errors import NotPositiveDefiniteError, NumericOverflowError, PartialTensorError
from .hermite import (
    MODE_INDEX_CAP,
    OscillatorFrame,
    _ladder,
    _TableBuilder,
    build_kernel,
    check_mode_index,
    hermite_scaled,
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
        wx, wy, g = self.omega_x, self.omega_y, self.gamma
        # g^2 >= 4 wx^2 wy^2 without squares, which underflow to 0 at tiny wx
        if 0.5 * abs(g) / wx >= wy:
            raise NotPositiveDefiniteError(
                f"gamma^2 = {g * g:g} must stay below 4 wx^2 wy^2 = "
                f"{4.0 * (wx * wx) * (wy * wy):g}"
            )

    @property
    def form_matrix(self) -> np.ndarray:
        """Matrix M of the quadratic form U = (1/2) r^T M r."""
        wx, wy, half = self.omega_x, self.omega_y, self.gamma / 2.0
        return np.array([[wx * wx, half], [half, wy * wy]])


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


def _channel_frames(w: Waveguide2D):
    return (
        OscillatorFrame(w.omega_x, w.center[0]),
        OscillatorFrame(w.omega_y, w.center[1]),
    )


def _grow_rectangle(evaluate, step, cap, target_mass):
    """Grow the index rectangle ``tops`` from ``min(step, cap)`` per side
    until ``evaluate(tops) -> (result, mass, tails)`` reaches the target
    mass; the side with the larger tail (side 0 on ties) grows by ``step``,
    the other once it is at ``cap``.  Returns the last (result, mass)."""
    tops = [min(step, cap)] * 2
    while True:
        result, mass, tails = evaluate(tops)
        side = 0 if tails[0] >= tails[1] else 1
        if tops[side] >= cap:
            side = 1 - side
        if mass >= target_mass or tops[side] >= cap:
            return result, mass
        tops[side] = min(tops[side] + step, cap)


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

    # one amplitude row per axis, grown 32 columns at a time
    frames = zip(_channel_frames(source), _channel_frames(target), (n_x, n_y))
    rows = [_TableBuilder(build_kernel(s, t), n) for s, t, n in frames]

    def evaluate(tops):
        for row, top in zip(rows, tops):
            row.extend(top)
        amps = [row.amplitude for row in rows]
        masses = [float(np.dot(a, a)) for a in amps]
        return amps, masses[0] * masses[1], (1.0 - masses[0], 1.0 - masses[1])

    target_mass = 1.0 - epsilon
    amps, mass = _grow_rectangle(evaluate, 32, cap, target_mass)
    tensor = CouplingTensor(
        values=np.outer(amps[0], amps[1]),
        captured_mass=mass,
        initial=(n_x, n_y),
        epsilon=epsilon,
    )
    if not mass >= target_mass:
        raise PartialTensorError(
            f"captured mass {mass:.12g} < {target_mass:.12g} "
            f"with both channels at the hard cap {cap}",
            tensor=tensor,
        )
    return tensor


def _mode_factors(w: Waveguide2D):
    """The profile's :class:`NormalModes` and its Gaussian envelope
    matrix A = sum_j Omega_j e_j e_j^T."""
    nm = normal_modes(w)
    axes = nm.axes
    freqs = nm.frequencies
    a = freqs[0] * np.outer(axes[0], axes[0]) + freqs[1] * np.outer(axes[1], axes[1])
    return nm, a


def _poly_stack(n_top: int, xi: np.ndarray) -> np.ndarray:
    """hermite_scaled(k, xi) for k = 0..n_top, stacked on axis 0."""
    out = np.empty((n_top + 1,) + xi.shape)
    for row, level in zip(out, _ladder(xi, np.ones_like(xi))):
        row[...] = level
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
        hermite_scaled(n_x, xi(nm_s.axes[0], nm_s.omega_plus, c_s))
        * hermite_scaled(n_y, xi(nm_s.axes[1], nm_s.omega_minus, c_s))
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
    block = norm * jac * math.exp(-c0) * ((m1 * g) @ m2.T)
    if not np.isfinite(block).all():
        raise NumericOverflowError(
            f"coupled amplitude block up to ({top1}, {top2}) is not finite"
        )
    return block


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

    def evaluate(tops):
        values = _coupled_block(source, target, n_x, n_y, *tops)
        prob = values * values
        tails = (float(prob[-1, :].sum()), float(prob[:, -1].sum()))
        return values, float(prob.sum()), tails

    target_mass = 1.0 - epsilon
    values, mass = _grow_rectangle(evaluate, 8, cap, target_mass)
    tensor = CouplingTensor(
        values=values, captured_mass=mass, initial=(n_x, n_y), epsilon=epsilon
    )
    if not mass >= target_mass:
        raise PartialTensorError(
            f"captured mass {mass:.12g} < {target_mass:.12g} with the "
            f"rectangle at the cap {cap}",
            tensor=tensor,
        )
    return tensor


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
