"""Elliptic (2D) transitions: separable products, cross-coupled targets
via normal-mode rotation plus tensor quadrature, and the Schmidt-entropy
report quantifying inter-channel correlation of the arriving field.  The
tensor quadrature is the package's one quadrature route: the 1D oracle
``overlap_quad`` is one call of ``overlap_coupled``, on one-axis profiles.

The potential convention is U = (wx^2 x^2 + wy^2 y^2 + gamma x y) / 2,
i.e. frequencies enter squared as curvatures, matching the 1D channels,
so l(omega) = omega**-0.5 holds per normal mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coupling1d import Transition1D, _first_extent
from .errors import CapExceededError, NotPositiveDefiniteError, NumericOverflowError, PartialResultError
from .hermite import (
    MODE_INDEX_CAP,
    OscillatorFrame,
    _MASS_BOUND,
    _poly_slabs,
    _poly_stack,
    _refuse_overfull,
    _TableBuilder,
    build_kernel,
    check_mode_index,
    hermite_scaled,
)
from .quadrature import MAX_ORDER, gauss_hermite

#: Default rectangle edge cap of the coupled (quadrature) path, kept well
#: below MODE_INDEX_CAP since a block's time rises with the cube of the edge
#: (its memory with the square).
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
        for name in ("omega_x", "omega_y", "gamma"):
            object.__setattr__(self, name, float(getattr(self, name)))
        object.__setattr__(self, "center", (float(self.center[0]), float(self.center[1])))
        wx, wy, g = self.omega_x, self.omega_y, self.gamma
        # g^2 >= 4 wx^2 wy^2 without squares, which underflow to 0 at tiny wx
        if 0.5 * abs(g) / wx >= wy:
            raise NotPositiveDefiniteError(
                f"gamma^2 = {g * g:g} must stay below 4 wx^2 wy^2 = "
                f"{4.0 * (wx * wx) * (wy * wy):g}"
            )


@dataclass(frozen=True, eq=False)
class NormalModes:
    """Frequencies and unit axes diagonalizing a 2D quadratic form.

    ``axes`` holds the unit axis of each mode as rows (plus, minus).  For
    gamma = 0 they are the identity, in (x, y) order.  For gamma != 0 they
    are (cos theta, sin theta) and (-sin theta, cos theta), with theta on
    the branch (-pi/4, pi/4] (pi/4 at exact frequency degeneracy), ordered
    by descending frequency (Omega_plus first).
    """

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
    square roots of the eigenvalues of the form's matrix M = [[wx^2,
    gamma/2], [gamma/2, wy^2]], U = (1/2) r^T M r.

    Raises
    ------
    NumericOverflowError
        A normal frequency is not finite (squares past double range).
    NotPositiveDefiniteError
        The smaller form eigenvalue rounds to <= 0, as it can for a profile
        that passes the construction check within an ulp of the boundary.
    """
    if w.gamma == 0.0:
        return NormalModes(omega_plus=w.omega_x, omega_minus=w.omega_y, axes=np.eye(2))
    a, cc, b = w.omega_x * w.omega_x, w.omega_y * w.omega_y, w.gamma / 2.0
    theta = math.pi / 4.0 if a == cc else 0.5 * math.atan(2.0 * b / (a - cc))
    cos, sin = math.cos(theta), math.sin(theta)
    # Rayleigh quotients e^T M e of the axes e1 = (cos, sin), e2 = (-sin, cos)
    lam1 = cos * (a * cos + b * sin) + sin * (b * cos + cc * sin)
    lam2 = sin * (a * sin - b * cos) - cos * (b * sin - cc * cos)
    e1, e2 = (cos, sin), (-sin, cos)
    hi, lo = ((lam1, e1), (lam2, e2)) if lam1 >= lam2 else ((lam2, e2), (lam1, e1))
    if not (math.isfinite(lam1) and math.isfinite(lam2)):
        raise NumericOverflowError(f"the normal frequencies of {w} are not finite")
    if not lo[0] > 0.0:
        raise NotPositiveDefiniteError(
            f"{w} is not positive definite in double precision: its smaller "
            f"form eigenvalue is {lo[0]!r}"
        )
    return NormalModes(
        omega_plus=math.sqrt(hi[0]), omega_minus=math.sqrt(lo[0]), axes=np.array([hi[1], lo[1]])
    )


@dataclass(frozen=True, eq=False)
class CouplingTensor:
    """Amplitudes over final index pairs for one fixed initial pair;
    ``captured_mass`` is the sum of their squares."""

    values: np.ndarray
    captured_mass: float

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


def _grow_rectangle(evaluate, finish, step, cap, epsilon, at_cap):
    """Grow the index rectangle ``tops`` from ``min(step, cap)`` per side
    until ``evaluate(tops) -> (state, mass, tails)`` reaches 1 - epsilon;
    the side with the larger tail (side 0 on ties) grows by ``step``, the
    other once it is at ``cap``.  The tensor of the last state's values,
    ``finish(state)``, is built once: returned, or raised as the ``result``
    of a PartialResultError that ends ``at_cap`` where the mass falls short."""
    target_mass = 1.0 - epsilon
    tops = [min(step, cap)] * 2
    while True:
        state, mass, tails = evaluate(tops)
        side = 0 if tails[0] >= tails[1] else 1
        if tops[side] >= cap:
            side = 1 - side
        if mass >= target_mass or tops[side] >= cap:
            break
        tops[side] = min(tops[side] + step, cap)
    tensor = CouplingTensor(finish(state), mass)
    if not mass >= target_mass:
        raise PartialResultError(
            f"captured mass {mass:.12g} < {target_mass:.12g} {at_cap}", tensor
        )
    return tensor


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
    grows 32 indices at a time on whichever side still hides the larger
    marginal tail until the captured mass reaches 1 - epsilon.  Each axis's
    row is filled ahead at once to where its mass should end, the first
    extent of :func:`selfoc.coupling1d.spectrum1d`, and the growth is
    replayed on leading parts of the rows; a step past that extent fills on.
    An overflow in the first fill is refused, as in ``spectrum1d``.
    """
    if source.gamma != 0.0 or target.gamma != 0.0:
        raise ValueError("separable spectra require gamma = 0 on both sides")
    n_x = check_mode_index(n_x, "n_x")
    n_y = check_mode_index(n_y, "n_y")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    cap = check_mode_index(cap, "cap")

    rows = []
    for s, t, n in zip(_channel_frames(source), _channel_frames(target), (n_x, n_y)):
        row = _TableBuilder(build_kernel(s, t), n)
        row.extend(min(cap, _first_extent(Transition1D(s, t, n))))
        rows.append(row)

    def evaluate(tops):
        amps = []
        for row, top in zip(rows, tops):
            row.extend(top)
            amps.append(row.amplitude[: top + 1])
        masses = [float(np.dot(a, a)) for a in amps]
        _refuse_overfull(masses, "a separable channel")
        return amps, masses[0] * masses[1], (1.0 - masses[0], 1.0 - masses[1])

    return _grow_rectangle(
        evaluate, lambda amps: np.outer(*amps), 32, cap, epsilon,
        f"with both channels at the hard cap {cap}",
    )


def _pair(source: Waveguide2D, target: Waveguide2D) -> tuple:
    """The coupled pair's geometry in Python floats, set up once for the
    block and the moments: ``(w_s, w_t, g, p)``, the source's and target's
    normal frequencies, g[k][i] = e_k.f_i (source axis k on target axis i)
    and p = (e_0, e_1, f_0, f_1).(c_s - c_t)."""
    nm_s, nm_t = normal_modes(source), normal_modes(target)
    e_s, f = nm_s.axes.tolist(), nm_t.axes.tolist()
    g = [[x * f[i][0] + y * f[i][1] for i in (0, 1)] for x, y in e_s]
    dx, dy = (ct - cs for ct, cs in zip(target.center, source.center))
    p = [-x * dx - y * dy for x, y in e_s + f]
    return nm_s.frequencies, nm_t.frequencies, g, p


def quad_order_for(n: int, n_prime: int) -> int:
    """Gauss-Hermite node count for a polynomial of degree n + n' times
    exp(-t^2), each node axis of the coupled block: N nodes integrate every
    degree up to 2N - 1 exactly (Golub & Welsch 1969), so (n + n') // 2 + 1
    nodes are exact and one fewer is not."""
    return (n + n_prime) // 2 + 1


@np.errstate(over="ignore", invalid="ignore")
def _coupled_block(pair: tuple, n_x: int, n_y: int, top1: int, top2: int) -> np.ndarray:
    """Amplitudes <(n_x, n_y) | (k1, k2)'> for k1 <= top1, k2 <= top2.

    Tensor Gauss-Hermite on the combined Gaussian envelope Q, in target
    normal coordinates u = F (r - c_t) sheared so that the side j with the
    larger top (side 0 on ties) reads one node axis: u_j - ubar_j =
    t_i / sqrt(s / 2), s the Schur complement of Q_oo in F Q F^T.  The
    integrand is a polynomial of degree top_j + top_o + n_x + n_y in t_i
    and top_o + n_x + n_y in t_k, so each axis takes the exact Gauss count
    for its own degree, ``quad_order_for``: order and order_o nodes.  Side
    j's Hermite stack is (top_j + 1) x order; side o's, (top_o + 1) x order
    x order_o, is summed with the weights over t_k into (top_o + 1) x order
    a slab of levels at a time (``_poly_slabs``), never held whole, before
    one product over t_i; that sum runs separately for each level and node,
    so the slabs do not change a bit, and the block's memory grows with the
    square of the edge, its time with the cube.  A zero source index has no
    Hermite factor.  Every factor is a 1D oscillator function via the
    scaled-Hermite split, so the Gaussian bookkeeping stays exact.  The
    2 x 2 set-up runs on Python floats from ``pair``, the geometry of
    :func:`_pair`, in target coordinates: Q_oo, the shear, s and the
    Gaussian's constant as sums of positive terms, so that neither det Q nor
    the cancellation of an ill-conditioned Q enters the Jacobian
    2 / (sqrt(s) sqrt(Q_oo)) or the Gaussian, and the combined Gaussian's
    centre from the same LDL^T factors of F Q F^T, with no pivoting; only
    the shift of the centres enters.  Where exp(-c0) alone would be
    subnormal, the scale carries 2**lift and one ldexp of the block takes
    it out, so an amplitude is rounded there once.
    Overflow is computed silently: callers refuse the part they read if it
    is not finite (``_refuse_nonfinite``), the one refusal; a set-up value
    out of range (the frequencies' product, the Gaussian's constant) makes
    the block NaN.  An order past ``MAX_ORDER`` raises CapExceededError
    before anything is built.
    """
    order = quad_order_for(n_x + n_y, top1 + top2)
    if order > MAX_ORDER:
        raise CapExceededError(
            f"the coupled block up to ({top1}, {top2}) needs a quadrature order "
            f"of {order}, past {MAX_ORDER}; lower the cap (--cap)"
        )
    rule = gauss_hermite(order)
    w_s, w_t, g, p = pair
    tops, n_src = (top1, top2), (n_x, n_y)
    j, o = (0, 1) if top1 >= top2 else (1, 0)
    # in target coordinates u = F (r - c_t): the source axes g[k] = F e_k (G
    # orthogonal), Q_oo = c, Q_jo = c shear and, by Lagrange's identity, the
    # Schur complement s = Q_jj - Q_jo^2 / c = w_t,j + (w_t,o B_jj + w_s,0
    # w_s,1) / c with B = G^T diag(w_s) G: sums of positive terms, however
    # ill-conditioned Q is
    c = w_s[0] * g[0][o] * g[0][o] + w_s[1] * g[1][o] * g[1][o] + w_t[o]
    shear = (w_s[0] * g[0][j] * g[0][o] + w_s[1] * g[1][j] * g[1][o]) / c
    b_jj = w_s[0] * g[0][j] * g[0][j] + w_s[1] * g[1][j] * g[1][j]
    s = w_t[j] + w_t[o] * (b_jj / c) + w_s[0] * (w_s[1] / c)
    # p is delta = c_s - c_t along the source axes and the target axes; the
    # combined Gaussian's centre is ubar = x - d' with d' = F (c_t - c_s) and
    # Q x = D d', D = diag(w_t), solved with Q's LDL^T factors c, shear and s
    # (side o first); its constant is delta^T B Q^-1 D delta / 2 = (det D
    # delta^T B delta + det B delta^T D delta) / (2 det Q), det Q = s c
    d_j, d_o = -p[2 + j], -p[2 + o]
    x_j = (w_t[j] * d_j - shear * (w_t[o] * d_o)) / s
    ubar_j, ubar_o = x_j - d_j, w_t[o] * d_o / c - shear * x_j - d_o
    c0 = 0.5 * (
        (w_s[0] * p[0] * p[0] + w_s[1] * p[1] * p[1]) * (w_t[j] / s) * (w_t[o] / c)
        + (w_t[0] * p[2] * p[2] + w_t[1] * p[3] * p[3]) * (w_s[0] / s) * (w_s[1] / c)
    )
    # the frequencies' product and c0 must fit in double range, det Q need
    # not: where they do not the block reads NaN
    prod = math.prod(w_s + w_t)
    norm = prod ** 0.25 / math.pi if 0.0 < prod < math.inf else math.nan
    jac = 2.0 / (math.sqrt(s) * math.sqrt(c))
    # exp(-c0) times 2**lift, taken out again by one ldexp of the block, so that
    # a subnormal amplitude is rounded once; lift is 0 for c0 below about 693
    lift = min(1074, max(0, math.floor(c0 / math.log(2.0)) - 1000)) if c0 < math.inf else 0
    scale = norm * jac * (math.exp(lift * math.log(2.0) - c0) if c0 < math.inf else math.nan)

    inner = gauss_hermite(quad_order_for(n_x + n_y, tops[o]))
    v_j = rule.nodes / math.sqrt(s / 2.0)
    u_j = ubar_j + v_j
    u_o = ubar_o + inner.nodes / math.sqrt(c / 2.0) - shear * v_j[:, None]
    pure = _poly_stack(tops[j], u_j * math.sqrt(w_t[j]))
    weight = rule.weights[:, None] * inner.weights
    for g_k, p_k, w, n in zip(g, p, w_s, n_src):
        if n:  # source axis e: e.(r - c_s) = (F e).u - e.(c_s - c_t)
            weight *= hermite_scaled(n, (g_k[j] * u_j[:, None] + g_k[o] * u_o - p_k) * math.sqrt(w))
    summed = np.empty((tops[o] + 1, order))
    for k0, slab in _poly_slabs(tops[o], u_o * math.sqrt(w_t[o])):
        np.einsum("aik,ik->ai", slab, weight, out=summed[k0:k0 + len(slab)])
    block = scale * (pure @ summed.T if j == 0 else summed @ pure.T)
    return np.ldexp(block, -lift, out=block)


def _refuse_nonfinite(block: np.ndarray):
    if not np.isfinite(block).all():
        top1, top2 = (k - 1 for k in block.shape)
        raise NumericOverflowError(
            f"coupled amplitude block up to ({top1}, {top2}) is not finite",
            index=(top1, top2),
        )


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
    for gamma = 0 these are the literal (x, y) channels.  As a tensor's
    rectangle is, the block up to (n1_prime, n2_prime) is refused where an
    entry is not finite or its mass passes 1 + 1e-10 (Bessel's inequality).
    """
    n_x = check_mode_index(n_x, "n_x")
    n_y = check_mode_index(n_y, "n_y")
    n1_prime = check_mode_index(n1_prime, "n1_prime")
    n2_prime = check_mode_index(n2_prime, "n2_prime")
    block = _coupled_block(_pair(source, target), n_x, n_y, n1_prime, n2_prime)
    _refuse_nonfinite(block)
    with np.errstate(over="ignore"):
        _refuse_overfull(np.vdot(block, block), f"the coupled block up to ({n1_prime}, {n2_prime})")
    return float(block[n1_prime, n2_prime])


def overlap_quad(t: Transition1D, n_prime: int) -> float:
    """Quadrature amplitude <n|n'>: the independent oracle route.

    The coupled block's one-axis case: each channel of ``t`` is the x axis
    of an uncoupled profile whose y axis (frequency 1, centre 0) is the same
    on both sides, and the amplitude is :func:`overlap_coupled`'s
    <(n, 0)|(n', 0)>, refused as it refuses, in its terms: the block up to
    (n', 0) is the column <n|0..n'>, and ``n_prime`` is its ``n1_prime``.
    """
    source, target = (Waveguide2D(f.omega, 1.0, 0.0, (f.center, 0.0)) for f in (t.source, t.target))
    return overlap_coupled(source, target, t.n, 0, n_prime, 0)


def _target_mode_moments(pair: tuple, n_x: int, n_y: int) -> list:
    """(mean, variance) of each target normal-mode index (plus, minus) for
    the source Fock state (n_x, n_y) on its normal modes, exact; the 2D
    analogue of :func:`selfoc.coupling1d._n_prime_moments`.

    Along target axis f_i (frequency Omega, source offset mu = p[2 + i]),
    N + 1/2 = (Omega v^2 + pi^2 / Omega) / 2 is, in the source ladder
    operators a_k (axes e_k, s_k = sqrt(Omega_k), r_k = g[k][i]), sum A_kl
    a_k^+ a_l + (B_kl a_k^+ a_l^+ + h.c.) / 2 + sum L_k (a_k^+ + a_k) +
    const with A, B = r_k r_l (Omega / (s_k s_l) +- s_k s_l / Omega) / 2 and
    L_k = Omega mu r_k / (sqrt(2) s_k).  Each off-diagonal term moves the
    state to its own neighbour, so Var N is the sum of their squared norms.
    ``pair`` is the geometry of :func:`_pair`.  Python floats: values out of
    double range come back inf or NaN.
    """
    w_s, w_t, g, p = pair
    s = [math.sqrt(w) for w in w_s]
    n1, n2 = n_x, n_y
    out = []
    for omega, r, mu in zip(w_t, zip(*g), p[2:]):

        def a_b(k, l):
            p, q = omega / s[k] / s[l], s[k] * s[l] / omega
            return r[k] * r[l] * (p + q) / 2.0, r[k] * r[l] * (p - q) / 2.0

        (a11, b11), (a22, b22), (a12, b12) = a_b(0, 0), a_b(1, 1), a_b(0, 1)
        l1, l2 = (omega * mu * r[k] / (math.sqrt(2.0) * s[k]) for k in (0, 1))
        mean = a11 * (n1 + 0.5) + a22 * (n2 + 0.5) + omega * mu * mu / 2.0 - 0.5
        var = (
            a12 * a12 * (2 * n1 * n2 + n1 + n2)
            + b12 * b12 * (2 * n1 * n2 + n1 + n2 + 1)
            + (b11 * b11 * (n1 * n1 + n1 + 1) + b22 * b22 * (n2 * n2 + n2 + 1)) / 2.0
            + l1 * l1 * (2 * n1 + 1)
            + l2 * l2 * (2 * n2 + 1)
        )
        out.append((mean, var))
    return out


def _first_block(pair, n_x, n_y, step, cap) -> list:
    """Block extents for :func:`coupled_tensor` to compute ahead: mean + 4
    sigma + 12 of each target index, rounded up to ``step`` and held to
    ``cap``; ``min(step, cap)``, the growth's start, where the moments leave
    double range.  The skewed index distributions reach their 1e-6 tails
    about 6 sigma out: a margin of 8 rebuilt a third of the blocks."""
    tops = []
    for mean, var in _target_mode_moments(pair, n_x, n_y):
        edge = mean + 4.0 * math.sqrt(var) + 12.0
        tops.append(min(step * math.ceil(edge / step), cap) if math.isfinite(edge) else min(step, cap))
    return tops


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
    expanded first, 8 indices at a time; edge tails within 1e-12 of each
    other, or within 2^-50 of the captured mass (a few ulp, the block's
    round-off on small tails), are a tie, which the first side wins.  The
    growth is replayed on leading sub-blocks of one block computed ahead to
    where the moments of the target indices say the mass ends
    (``_first_block``); a step past that block rebuilds it 16 indices past
    the edge asked for.  Each step reads its mass and edge tails from the
    block's probability prefix sums and checks its rectangle for non-finite
    entries only where the mass is not finite.  ``pair``, the pair's
    geometry (:func:`_pair`), is set up once and shared by the moments and
    every block.  The default cap is deliberately modest: a block computes
    (t_small + 1) order order_o + (t_big + 1) order Hermite values, with the
    exact Gauss counts order = (n_x + n_y + t1 + t2) // 2 + 1 and order_o =
    (n_x + n_y + t_small) // 2 + 1, a cube in the edge; it holds only the
    (t_big + 1) x order stack, the (t_small + 1) x order sum over t_k and
    one slab of the mixed stack, a square in the edge.
    """
    n_x = check_mode_index(n_x, "n_x")
    n_y = check_mode_index(n_y, "n_y")
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must be in (0, 1), got {epsilon}")
    cap = check_mode_index(cap, "cap")
    step = 8
    pair = _pair(source, target)
    ahead = _first_block(pair, n_x, n_y, step, cap)
    block = sums = None

    def evaluate(tops):
        nonlocal ahead, block, sums
        if block is None or tops[0] > ahead[0] or tops[1] > ahead[1]:
            ahead = [a if t <= a else min(t + 2 * step, cap) for t, a in zip(tops, ahead)]
            block = _coupled_block(pair, n_x, n_y, *ahead)
            with np.errstate(over="ignore"):
                prob = block * block
            cols = prob.cumsum(0)
            # at [k1, k2]: the probability of the rectangle up to it, of row
            # k1 and of column k2 within that rectangle
            sums = cols.cumsum(1), prob.cumsum(1), cols
        values = block[: tops[0] + 1, : tops[1] + 1]
        mass, *tails = (float(a[tops[0], tops[1]]) for a in sums)
        if not math.isfinite(mass):  # a non-finite entry makes its sums inf or NaN
            _refuse_nonfinite(values)
        if mass > _MASS_BOUND:  # the mass reached 1 - epsilon: the last step
            _refuse_overfull(mass, f"the coupled rectangle up to ({tops[0]}, {tops[1]})")
        if tails[1] - tails[0] <= 1e-12 * tails[1] + 2.0**-50 * mass:
            tails = (tails[1], tails[1])
        return values, mass, tails

    return _grow_rectangle(
        evaluate, np.copy, step, cap, epsilon, f"with the rectangle at the cap {cap}"
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
