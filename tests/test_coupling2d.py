import functools
import hashlib
import json
import math
import re
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import selfoc.coupling1d as coupling1d
import selfoc.coupling2d as coupling2d
import selfoc.hermite as hermite
from selfoc import (
    CapExceededError,
    CouplingTensor,
    NotPositiveDefiniteError,
    NumericOverflowError,
    OscillatorFrame,
    PartialResultError,
    Transition1D,
    Waveguide2D,
    coupled_tensor,
    coupling_matrix,
    overlap_closed,
    overlap_coupled,
    overlap_quad,
    schmidt_report,
    spectrum1d,
    spectrum2d_separable,
)
from selfoc.coupling1d import _n_prime_moments
from selfoc.coupling2d import _first_block, _normal_modes, _pair, _target_mode_moments, quad_order_for
from selfoc.hermite import (
    MODE_INDEX_CAP,
    _refuse_overfull,
    _TableBuilder,
    build_kernel,
    hermite_scaled,
)
from selfoc.quadrature import gauss_hermite


class TestWaveguide2D:
    def test_positive_definiteness_enforced(self):
        with pytest.raises(NotPositiveDefiniteError):
            Waveguide2D(1.0, 1.0, 2.0)  # gamma^2 == 4 wx^2 wy^2 boundary
        with pytest.raises(NotPositiveDefiniteError):
            Waveguide2D(1.0, 0.5, 1.5)
        with pytest.raises(NotPositiveDefiniteError, match=r"gamma\^2 = 144 must stay below"):
            Waveguide2D(2.0, 3.0, 12.0)
        with pytest.raises(NotPositiveDefiniteError):
            Waveguide2D(1e308, 1e-300, 1e10)  # 2 wx overflows

    def test_near_boundary_allowed(self):
        Waveguide2D(1.0, 1.0, 1.999)
        Waveguide2D(1e-300, 2.0)  # wx * wx underflows to 0


    @pytest.mark.parametrize("wx,wy", [(0.0, 1.0), (1.0, -2.0)])
    def test_bad_frequencies(self, wx, wy):
        with pytest.raises(ValueError):
            Waveguide2D(wx, wy)

    def test_bad_gamma(self):
        with pytest.raises(ValueError, match="gamma must be finite"):
            Waveguide2D(1.0, 1.0, math.nan)

    def test_bad_center(self):
        with pytest.raises(ValueError):
            Waveguide2D(1.0, 1.0, 0.0, (math.nan, 0.0))


def form_matrix(w):
    """Matrix M of a profile's quadratic form U = (1/2) r^T M r."""
    half = w.gamma / 2.0
    return np.array([[w.omega_x**2, half], [half, w.omega_y**2]])


class TestNormalModes:
    def test_uncoupled_keeps_axis_order(self):
        freqs, axes = _normal_modes(Waveguide2D(1.0, 2.0))
        assert freqs == (1.0, 2.0)
        assert np.array_equal(axes, np.eye(2))

    def test_degenerate_coupled(self):
        (w_plus, w_minus), axes = _normal_modes(Waveguide2D(1.0, 1.0, 1.0))
        assert np.array_equal(axes[0], [math.cos(math.pi / 4), math.sin(math.pi / 4)])
        assert w_plus**2 == pytest.approx(1.5, rel=1e-14)
        assert w_minus**2 == pytest.approx(0.5, rel=1e-14)

    def test_ordering_descending_for_coupled(self):
        (w_plus, w_minus), _ = _normal_modes(Waveguide2D(1.0, 2.0, 1.0))
        assert w_plus > w_minus

    def test_theta_branch(self):
        # the axes are (cos t, sin t) and (-sin t, cos t) with t in
        # (-pi/4, pi/4], in frequency order: either row may be the first
        for w, first in [(Waveguide2D(2.0, 1.0, 0.8), 0), (Waveguide2D(1.0, 2.0, 1.0), 1),
                         (Waveguide2D(1.0, 1.0, -1.0), 1), (Waveguide2D(1.0, 3.0, -2.5), 1)]:
            _, axes = _normal_modes(w)
            (cos, sin), other = axes[first], axes[1 - first]
            assert np.array_equal(other, [-sin, cos]), w
            assert -math.pi / 4 < math.atan2(sin, cos) <= math.pi / 4, w

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        wx, wy = rng.uniform(0.5, 3.0, size=2)
        gamma = rng.uniform(-1.9, 1.9) * wx * wy
        w = Waveguide2D(wx, wy, gamma)
        (w_plus, w_minus), axes = _normal_modes(w)
        rebuilt = w_plus**2 * np.outer(axes[0], axes[0]) + (
            w_minus**2 * np.outer(axes[1], axes[1])
        )
        assert np.abs(rebuilt - form_matrix(w)).max() < 1e-12

    def test_eigenvalues_match_closed_form(self):
        w = Waveguide2D(1.2, 0.8, 0.9)
        (w_plus, w_minus), _ = _normal_modes(w)
        evals = np.linalg.eigvalsh(form_matrix(w))
        assert w_minus**2 == pytest.approx(evals[0], rel=1e-13)
        assert w_plus**2 == pytest.approx(evals[1], rel=1e-13)

    def test_profiles_an_ulp_inside_the_boundary(self):
        # gamma = +/-nextafter(2 wx wy, 0) passes or fails the construction
        # check by rounding; a passing profile whose smaller form eigenvalue
        # rounds to <= 0 is refused by type, never "math domain error"
        rng = np.random.default_rng(20)
        refused_late = 0
        for wx, wy in rng.uniform(0.05, 20.0, size=(400, 2)):
            for sign in (1.0, -1.0):
                gamma = sign * math.nextafter(2.0 * wx * wy, 0.0)
                try:
                    (w_plus, w_minus), _ = _normal_modes(Waveguide2D(wx, wy, gamma))
                except NotPositiveDefiniteError as exc:
                    refused_late += "form eigenvalue" in str(exc)
                    continue
                assert 0.0 < w_minus <= w_plus < math.inf
        assert refused_late > 0


    def test_float_modes_match_eigvalsh(self):
        # ratios wy / wx from 1e-3 to 1e3, |gamma| up to 0.999 of 2 wx wy
        rng = np.random.default_rng(16)
        for wx, log_ratio, g in zip(
            np.exp(rng.uniform(-2.0, 2.0, size=400)),
            rng.uniform(math.log(1e-3), math.log(1e3), size=400),
            rng.uniform(-0.999, 0.999, size=400),
        ):
            wy = wx * math.exp(log_ratio)
            w = Waveguide2D(wx, wy, 2.0 * g * wx * wy)
            (w_plus, w_minus), axes = _normal_modes(w)
            lo, hi = np.linalg.eigvalsh(form_matrix(w))
            tol = 1e-14 * w_plus**2
            assert abs(w_plus**2 - hi) <= tol
            assert abs(w_minus**2 - lo) <= tol
            axes = np.array(axes)
            np.testing.assert_allclose(axes @ axes.T, np.eye(2), rtol=0.0, atol=1e-15)


def separable_pair(dx=3.0, dy=4.0, rx=2.0, ry=3.0):
    return Waveguide2D(1.0, 1.0), Waveguide2D(rx, ry, 0.0, (dx, dy))


class TestSpectrum2DSeparable:
    def test_identity_spike(self):
        src = Waveguide2D(1.0, 2.0)
        ten = spectrum2d_separable(src, src, 2, 1)
        assert ten.argmax == (2, 1)
        assert ten.captured_mass == pytest.approx(1.0, abs=1e-12)
        assert ten.values[2, 1] == pytest.approx(1.0, abs=1e-12)

    def test_ground_state_argmax(self):
        # stretches (2, 3), shifts (9, 16): per-channel vertical-transition
        # estimates are 8.5 and 23.5; the exact argmax pair is (8, 22)
        src, tgt = separable_pair()
        ten = spectrum2d_separable(src, tgt, 0, 0)
        assert ten.argmax == (8, 22)

    def test_factorization(self):
        src, tgt = separable_pair()
        ten = spectrum2d_separable(src, tgt, 1, 2, epsilon=1e-6)
        tx = Transition1D(OscillatorFrame(1.0), OscillatorFrame(2.0, 3.0), 1)
        ty = Transition1D(OscillatorFrame(1.0), OscillatorFrame(3.0, 4.0), 2)
        for i in (0, 3, 7):
            for j in (0, 5, 11):
                product = overlap_closed(tx, i) * overlap_closed(ty, j)
                assert abs(ten.values[i, j] - product) < 1e-12

    def test_channel_independence_of_argmax(self):
        src, tgt = separable_pair()
        ten = spectrum2d_separable(src, tgt, 0, 0)
        from selfoc import spectrum1d

        ax = spectrum1d(Transition1D(OscillatorFrame(1.0), OscillatorFrame(2.0, 3.0), 0)).argmax
        ay = spectrum1d(Transition1D(OscillatorFrame(1.0), OscillatorFrame(3.0, 4.0), 0)).argmax
        assert ten.argmax == (ax, ay)

    def test_mass_window(self):
        src, tgt = separable_pair()
        ten = spectrum2d_separable(src, tgt, 0, 0, epsilon=1e-6)
        assert 1.0 - 1e-6 <= ten.captured_mass <= 1.0 + 1e-12

    def test_overfull_channel_refused(self):
        # the x channel is the 1D row-recurrence failure at ratio 2, D 900, n 40
        src, tgt = Waveguide2D(1.0, 1.0), Waveguide2D(2.0, 3.0, center=(30.0, 0.0))
        with pytest.raises(NumericOverflowError, match="mass") as info:
            spectrum2d_separable(src, tgt, 40, 0)
        assert info.value.index == 0

    def test_rejects_coupled_input(self):
        src = Waveguide2D(1.0, 1.0, 0.5)
        tgt = Waveguide2D(2.0, 3.0)
        with pytest.raises(ValueError):
            spectrum2d_separable(src, tgt, 0, 0)

    def test_partial_tensor(self):
        src, tgt = separable_pair()
        with pytest.raises(PartialResultError) as info:
            spectrum2d_separable(src, tgt, 0, 0, cap=4)
        assert info.value.result.captured_mass < 1.0 - 1e-8


class TestOverlapCoupled:
    def test_reduces_to_separable(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            wx, wy = rng.uniform(0.5, 2.5, size=2)
            rx, ry = rng.uniform(0.5, 3.0, size=2)
            dx, dy = rng.uniform(-2.0, 2.0, size=2)
            src = Waveguide2D(wx, wy)
            tgt = Waveguide2D(wx * rx, wy * ry, 0.0, (dx, dy))
            nx, ny = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            k1, k2 = int(rng.integers(0, 7)), int(rng.integers(0, 7))
            got = overlap_coupled(src, tgt, nx, ny, k1, k2)
            tx = Transition1D(OscillatorFrame(wx), OscillatorFrame(wx * rx, dx), nx)
            ty = Transition1D(OscillatorFrame(wy), OscillatorFrame(wy * ry, dy), ny)
            want = overlap_closed(tx, k1) * overlap_closed(ty, k2)
            assert abs(got - want) < 1e-10, (wx, wy, rx, ry, dx, dy, nx, ny, k1, k2)

    def test_continuity_in_gamma(self):
        # target with omega_x' > omega_y' so the descending mode order of
        # the coupled branch matches the axis order of the gamma = 0 limit
        src = Waveguide2D(1.0, 1.4)
        base = Waveguide2D(3.0, 2.0, 0.0, (1.0, 0.5))
        nudged = Waveguide2D(3.0, 2.0, 1e-6, (1.0, 0.5))
        for pair in [(0, 0), (1, 2), (3, 1)]:
            a = overlap_coupled(src, base, 0, 1, *pair)
            b = overlap_coupled(src, nudged, 0, 1, *pair)
            assert abs(a - b) < 1e-5

    def test_isotropic_ground_state_two_routes(self):
        # an isotropic ground state is rotation invariant, so the overlap
        # into a coupled target factorizes over the target normal modes
        src = Waveguide2D(1.0, 1.0)
        tgt = Waveguide2D(1.0, 1.0, 0.8)
        (w_plus, w_minus), _ = _normal_modes(tgt)
        direct = overlap_coupled(src, tgt, 0, 0, 0, 0)
        sep = (
            overlap_closed(
                Transition1D(OscillatorFrame(1.0), OscillatorFrame(w_plus), 0), 0
            )
            * overlap_closed(
                Transition1D(OscillatorFrame(1.0), OscillatorFrame(w_minus), 0), 0
            )
        )
        assert abs(direct - sep) < 1e-10

    def test_envelope_determinant_past_double_range(self):
        # det Q = 1e310 overflows while every factor fits: the Jacobian is
        # 2 / (sqrt(s) sqrt(c)); 2 / sqrt(s c) would read 0 here
        w, wp = 1e-100, 1e155
        got = overlap_coupled(Waveguide2D(w, w), Waveguide2D(wp, wp), 0, 0, 0, 0)
        assert got == pytest.approx(2.0 * math.sqrt(w * wp) / (w + wp), rel=1e-13)

    def test_identical_isotropic_profiles_unit_overlap(self):
        src = Waveguide2D(1.3, 1.3)
        assert overlap_coupled(src, src, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "target", [Waveguide2D(1e300, 1e300), Waveguide2D(2.0, 3.0, 1.0, (1e200, 0.0))]
    )
    def test_overflow_is_refused_without_warnings(self, target):
        # warnings are errors under pytest: numpy's overflow warnings must not
        # escape the block ahead of the NumericOverflowError refusal
        source = Waveguide2D(1.0, 1.0)
        with pytest.raises(NumericOverflowError, match="block .* not finite"):
            overlap_coupled(source, target, 0, 0, 0, 0)
        with pytest.raises(NumericOverflowError, match="block .* not finite"):
            coupled_tensor(source, target, 0, 0, 1e-8, 16)

    def test_underflowing_frequency_product_refused(self):
        # the product of the four frequencies, 1e-400, reads 0: the block
        # used to come back all zeros, finite and wrong (this overlap is 1)
        profile = Waveguide2D(1e-100, 1e-100)
        with pytest.raises(NumericOverflowError, match="block .* not finite"):
            overlap_coupled(profile, profile, 0, 0, 0, 0)

    @pytest.mark.parametrize("offset", [1e4, 1e8, 1e12])
    def test_common_offset_leaves_the_block(self, offset):
        # only the shift of the centres enters; placed by absolute centres
        # the combined Gaussian's lost 7e-8 at an offset of 1e4
        def block(at):
            source = Waveguide2D(1.0, 1.3, 0.4, (at, at))
            target = Waveguide2D(2.0, 3.0, 1.5, (at + 0.5, at + 0.25))
            return coupling2d._coupled_block(_pair(source, target), 1, 1, 12, 8)

        np.testing.assert_array_equal(block(offset), block(0.0))

    @pytest.mark.parametrize("ratio", [1e8, 1e16, 1e100])
    @pytest.mark.parametrize("center", [(0.0, 0.0), (3.0, -2.0)])
    def test_ill_conditioned_envelope(self, ratio, center):
        # a source stiff along x, the target rotated: Q is as ill-conditioned
        # as the source, and <0,0|0,0> = (det A_s det A_t)^(1/4) 2 / sqrt(det Q)
        # with det A_s = 1, A_t = sqrt(M_t) = (M_t + sqrt(det M_t)) / tau
        det_m = 4.0 - 1.5**2 / 4.0
        tau = math.sqrt(5.0 + 2.0 * math.sqrt(det_m))
        det_q = (
            1.0 + math.sqrt(det_m)
            + (4.0 + math.sqrt(det_m)) / tau / ratio + ratio * (1.0 + math.sqrt(det_m)) / tau
        )
        source = Waveguide2D(ratio, 1.0 / ratio, 0.0, center)
        got = overlap_coupled(source, Waveguide2D(2.0, 1.0, 1.5, center), 0, 0, 0, 0)
        assert got == pytest.approx(det_m**0.125 * 2.0 / math.sqrt(det_q), rel=1e-13, abs=0.0)

    def test_extreme_profiles_answer_or_refuse(self):
        # frequencies 1e-150..1e150, centres up to 1e200, cross-coupling up to
        # 0.999 of the limit: a finite answer with |amp| <= 1 or a typed
        # refusal, never a ZeroDivisionError, OverflowError or numpy warning
        # (errors here)
        rng = np.random.default_rng(17)

        def profile():
            wx, wy = (float(10.0 ** u) for u in rng.uniform(-150.0, 150.0, size=2))
            gamma = 2.0 * float(rng.uniform(-0.999, 0.999)) * wx * wy if rng.random() < 0.6 else 0.0
            center = (
                0.0 if rng.random() < 0.3 else float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, 200.0))
                for _ in range(2)
            )
            return Waveguide2D(wx, wy, gamma, tuple(center))

        answered = 0
        for _ in range(150):
            source, target = profile(), profile()
            n_x, n_y, k1, k2 = (int(k) for k in rng.integers(0, 4, size=4))
            for call in (
                lambda: overlap_coupled(source, target, n_x, n_y, k1, k2),
                lambda: coupled_tensor(source, target, n_x, n_y, 1e-6, 16).values,
            ):
                try:
                    amp = np.abs(call())
                    assert np.isfinite(amp).all() and amp.max() <= 1.0 + 1e-10
                    answered += 1
                except (NumericOverflowError, NotPositiveDefiniteError, PartialResultError):
                    pass
        assert answered > 0

    def test_overfull_block_refused(self):
        # the target is the stiffer by 1e83 and shifted by 1e40: this block
        # came back with amplitude -3.7e91, where no set of target modes
        # carries more than mass 1 (Bessel's inequality)
        source = Waveguide2D(1.4933535027360897e-97, 1.6037316602407827e-73, 0.0, (0.0, 0.0))
        target = Waveguide2D(
            2.076005917584979e22, 8.449660469922764e60, 0.0, (-1.3665883845656835e40, -213544053.5202808)
        )
        with pytest.raises(NumericOverflowError, match=r"block up to \(0, 8\) carries mass .* > 1"):
            overlap_coupled(source, target, 0, 1, 0, 8)

    def test_numpy_scalar_profiles_answer_as_floats(self):
        # the same kind of extreme profiles given as np.float64 scalars: the
        # profile holds floats, so each request answers or refuses exactly
        # as with floats and lets no numpy warning out (errors here)
        rng = np.random.default_rng(18)

        def profile():
            wx, wy = 10.0 ** rng.uniform(-150.0, 150.0, size=2)
            gamma = 2.0 * rng.uniform(-0.999, 0.999) * wx * wy if rng.random() < 0.6 else np.float64(0.0)
            center = tuple(
                np.float64(0.0) if rng.random() < 0.3 else rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-5.0, 200.0)
                for _ in range(2)
            )
            return wx, wy, gamma, center

        def outcome(source, target, n_x, n_y):
            try:
                tensor = coupled_tensor(Waveguide2D(*source), Waveguide2D(*target), n_x, n_y, 1e-6, 8)
            except (NumericOverflowError, PartialResultError) as err:
                return type(err), str(err)
            return tensor.values.tobytes(), tensor.captured_mass

        for _ in range(40):
            source, target = profile(), profile()
            n_x, n_y = (int(k) for k in rng.integers(0, 4, size=2))
            as_floats = [(float(wx), float(wy), float(g), tuple(map(float, c))) for wx, wy, g, c in (source, target)]
            assert outcome(source, target, n_x, n_y) == outcome(*as_floats, n_x, n_y)
        held = Waveguide2D(*source)
        assert {type(v) for v in (held.omega_x, held.omega_y, held.gamma, *held.center)} == {float}


def _mode_factors(w: Waveguide2D):
    """The profile's normal frequencies, its unit axes and its Gaussian
    envelope matrix A = sum_j Omega_j e_j e_j^T."""
    freqs, axes = _normal_modes(w)
    a = freqs[0] * np.outer(axes[0], axes[0]) + freqs[1] * np.outer(axes[1], axes[1])
    return freqs, axes, a


def _eigenframe_block(source, target, n_x, n_y, top1, top2):
    """The coupled block integrated in the eigenframe of the combined
    envelope Q = A_s + A_t: both target Hermite stacks on the full
    order^2 node grid and one GEMM over it."""
    w_s, e_s, a_s = _mode_factors(source)
    w_t, e_t, a_t = _mode_factors(target)
    c_s = np.asarray(source.center, dtype=float)
    c_t = np.asarray(target.center, dtype=float)
    q = a_s + a_t
    rbar = np.linalg.solve(q, a_s @ c_s + a_t @ c_t)
    c0 = 0.5 * (c_s @ a_s @ c_s + c_t @ a_t @ c_t - rbar @ q @ rbar)
    evals, vecs = np.linalg.eigh(q)
    rule = gauss_hermite(quad_order_for(n_x + n_y, top1 + top2))
    t1, t2 = rule.nodes[:, None], rule.nodes[None, :]
    col1 = vecs[:, 0] * math.sqrt(2.0 / evals[0])
    col2 = vecs[:, 1] * math.sqrt(2.0 / evals[1])
    x = rbar[0] + t1 * col1[0] + t2 * col2[0]
    y = rbar[1] + t1 * col1[1] + t2 * col2[1]

    def xi(axis, freq, center):
        return (axis[0] * (x - center[0]) + axis[1] * (y - center[1])) * math.sqrt(freq)

    src = hermite_scaled(n_x, xi(e_s[0], w_s[0], c_s)) * hermite_scaled(
        n_y, xi(e_s[1], w_s[1], c_s)
    )
    stack1 = coupling2d._poly_stack(top1, xi(e_t[0], w_t[0], c_t))
    stack2 = coupling2d._poly_stack(top2, xi(e_t[1], w_t[1], c_t))
    norm = math.prod(w_s + w_t) ** 0.25 / math.pi
    jac = 2.0 / math.sqrt(evals[0] * evals[1])
    weight = (rule.weights[:, None] * rule.weights[None, :] * src).reshape(-1)
    m1 = stack1.reshape(top1 + 1, -1) * weight
    return norm * jac * math.exp(-c0) * (m1 @ stack2.reshape(top2 + 1, -1).T)


def seeded_block_requests(count=36):
    """Blocks with the first top above, equal to and below the second in
    turn; target ratios 0.1-10, cross-couplings up to 0.95 of the
    positive-definite limit, every third source cross-coupled too."""
    rng = np.random.default_rng(15)
    out = []
    for i in range(count):
        rx, ry = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=2))
        gamma_t = 2.0 * rng.uniform(-0.95, 0.95) * rx * ry
        target = Waveguide2D(rx, ry, gamma_t, tuple(rng.uniform(-2.0, 2.0, size=2)))
        sy = rng.uniform(0.5, 2.0)
        gamma_s = 2.0 * rng.uniform(-0.6, 0.6) * sy if i % 3 == 0 else 0.0
        source = Waveguide2D(1.0, sy, gamma_s, tuple(rng.uniform(-1.0, 1.0, size=2)))
        n_x, n_y = (int(k) for k in rng.integers(0, 4, size=2))
        big, small = sorted(int(k) for k in rng.integers(0, 40, size=2))[::-1]
        tops = [(big + 1, small), (big, big), (small, big + 1)][i % 3]
        out.append((source, target, n_x, n_y, *tops))
    return out


def seeded_small_side_requests(count=21):
    """Blocks whose smaller top is 0, 1 or 2, where the inner rule is
    smallest, from sources with n_x + n_y = 0..6, on either side in turn."""
    rng = np.random.default_rng(16)
    out = []
    for i in range(count):
        rx, ry = np.exp(rng.uniform(math.log(0.1), math.log(10.0), size=2))
        gamma_t = 2.0 * rng.uniform(-0.95, 0.95) * rx * ry
        target = Waveguide2D(rx, ry, gamma_t, tuple(rng.uniform(-2.0, 2.0, size=2)))
        sy = rng.uniform(0.5, 2.0)
        gamma_s = 2.0 * rng.uniform(-0.6, 0.6) * sy if i % 2 else 0.0
        source = Waveguide2D(1.0, sy, gamma_s, tuple(rng.uniform(-1.0, 1.0, size=2)))
        n_x = int(rng.integers(0, i % 7 + 1))
        small, big = i % 3, int(rng.integers(3, 40))
        out.append((source, target, n_x, i % 7 - n_x, *[(big, small), (small, big)][i % 2]))
    return out


def _fresh_ladder_stack(n_top, xi):
    """The coupled Hermite stack as filled before levels were computed in
    place: each level of the ladder a fresh array (phi_{k-1} scaled before
    it is allocated), copied into its row with its 2**512 scale undone."""
    out = np.empty((n_top + 1,) + xi.shape)
    out[0] = 1.0
    prev, cur, e = 0.0, np.ones_like(xi), 0
    top = float(np.abs(xi).max(initial=0.0))
    rescale = not 0.5 * top * top <= math.log(1e150 / 1.0865)
    for k in range(n_top):
        prev = math.sqrt(k / (k + 1)) * prev
        nxt = math.sqrt(2.0 / (k + 1)) * xi
        nxt *= cur
        nxt -= prev
        if rescale and (big := np.abs(nxt) > 1e150).any():
            factor = np.where(big, 2.0**-512, 1.0)
            nxt *= factor
            cur, e = cur * factor, e + big
        prev, cur = cur, nxt
        out[k + 1] = cur if isinstance(e, int) else np.ldexp(cur, 512 * e)
    return out


class TestPolyStack:
    @pytest.mark.parametrize("shape", [(37,), (23, 9)])
    def test_in_place_stack_keeps_the_ladder_bits(self, shape):
        # |xi| past 26.3 turns the rescaling on; at 45 the levels pass 1e150
        rng = np.random.default_rng(17)
        for half_width in (1.0, 8.0, 30.0, 45.0):
            xi = rng.uniform(-half_width, half_width, size=shape)
            for n_top in (0, 1, 7, 64, 320):
                want = _fresh_ladder_stack(n_top, xi)
                assert coupling2d._poly_stack(n_top, xi).tobytes() == want.tobytes()
        assert np.abs(want).max() > 1e150

    # budgets of one level per slab, of 3 and of 5 levels and a part, and of
    # the whole stack, for levels of 23 x 9 = 207 doubles
    @pytest.mark.parametrize("budget", [1, 3 * 207, 5 * 207 + 100, 321 * 207])
    def test_slabs_keep_the_ladder_bits(self, monkeypatch, budget):
        monkeypatch.setattr(hermite, "_SLAB_DOUBLES", budget)
        rng = np.random.default_rng(18)
        for half_width in (1.0, 8.0, 30.0, 45.0):
            xi = rng.uniform(-half_width, half_width, size=(23, 9))
            for n_top in (0, 1, 7, 64, 320):
                starts, parts = [], []
                for k0, slab in hermite._poly_slabs(n_top, xi):
                    assert slab.shape[1:] == xi.shape
                    assert len(slab) == 1 or slab.size <= budget
                    starts.append(k0)
                    parts.append(slab.copy())  # the next slab may reuse its buffer
                assert starts == np.cumsum([0] + [len(p) for p in parts[:-1]]).tolist()
                want = _fresh_ladder_stack(n_top, xi)
                assert np.concatenate(parts).tobytes() == want.tobytes()
                if (n_top + 1) * xi.size > budget:
                    assert len(parts) == -(-(n_top + 1) // max(1, budget // xi.size))
        assert np.abs(want).max() > 1e150


class TestShearedBlock:
    @pytest.mark.parametrize("request_", seeded_block_requests() + seeded_small_side_requests())
    def test_matches_eigenframe_block(self, request_):
        got = coupling2d._coupled_block(_pair(*request_[:2]), *request_[2:])
        want = _eigenframe_block(*request_)
        assert got.shape == want.shape == (request_[4] + 1, request_[5] + 1)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)

    def test_order_past_max_refused_before_building(self, traced_peak):
        # ratios 2, 3, gamma' 1.5, D 3000, 3000: _first_block's (4096, 2384)
        # needs order 3241
        source, target = Waveguide2D(1.0, 1.0), Waveguide2D(2.0, 3.0, 1.5, (38.7, 31.6))

        def refused():
            with pytest.raises(CapExceededError, match=r"up to \(4096, 2384\) .* order of 3241"):
                coupling2d._coupled_block(_pair(source, target), 0, 0, 4096, 2384)

        assert traced_peak(refused)[1] < 1e6

    # a budget of 200 doubles cuts the 8 mixed levels, each order x 5, into
    # slabs of 2 or 5 levels
    @pytest.mark.parametrize("tops", [(30, 7), (7, 7), (7, 30)])
    def test_larger_side_stack_is_1d(self, monkeypatch, tops):
        monkeypatch.setattr(hermite, "_SLAB_DOUBLES", 200)
        stacks, slabs = [], []
        poly_stack, poly_slabs = coupling2d._poly_stack, coupling2d._poly_slabs

        def stack_spy(n_top, xi):
            stacks.append((n_top, xi.shape))
            return poly_stack(n_top, xi)

        def slab_spy(n_top, xi):
            for k0, slab in poly_slabs(n_top, xi):
                slabs.append((k0, slab.shape))
                yield k0, slab

        monkeypatch.setattr(coupling2d, "_poly_stack", stack_spy)
        monkeypatch.setattr(coupling2d, "_poly_slabs", slab_spy)
        source, target = Waveguide2D(1.0, 1.3), Waveguide2D(2.0, 3.0, 1.0, (1.0, 0.5))
        coupling2d._coupled_block(_pair(source, target), 1, 0, *tops)
        order, inner = quad_order_for(1, sum(tops)), quad_order_for(1, min(tops))
        rows = 200 // (order * inner)
        assert stacks == [(max(tops), (order,))]
        assert slabs == [(k0, (min(rows, min(tops) + 1 - k0), order, inner)) for k0 in range(0, min(tops) + 1, rows)]
        assert len(slabs) > 1

    @pytest.mark.parametrize("slabs", ["two", "three", "one level each"])
    def test_block_bits_do_not_depend_on_the_slabs(self, monkeypatch, slabs):
        # the weighted sum over the inner nodes runs separately for each
        # (level, node), so no slab boundary enters it: the block is the one
        # of a single slab, the whole mixed stack
        for source, target, n_x, n_y, top1, top2 in seeded_block_requests():
            pair = _pair(source, target)
            monkeypatch.setattr(hermite, "_SLAB_DOUBLES", 2**62)
            want = coupling2d._coupled_block(pair, n_x, n_y, top1, top2)
            level = quad_order_for(n_x + n_y, top1 + top2) * quad_order_for(n_x + n_y, min(top1, top2))
            parts = {"two": 2, "three": 3, "one level each": min(top1, top2) + 1}[slabs]
            monkeypatch.setattr(hermite, "_SLAB_DOUBLES", -(-(min(top1, top2) + 1) // parts) * level)
            assert coupling2d._coupled_block(pair, n_x, n_y, top1, top2).tobytes() == want.tobytes()

    def test_corner_block_memory(self, traced_peak):
        # the pure stack (210 x 120 doubles, 0.2 MB), one slab of the mixed
        # stack (9 levels of 120 x 15, 0.13 MB), the block and the node
        # arrays; the whole mixed stack, 26 x 120 x 15, would add 0.37 MB
        source, target = Waveguide2D(1.0, 1.0), Waveguide2D(2.5, 2.5, 5.0, (5.0, 5.0))
        gauss_hermite(quad_order_for(4, 209 + 25))
        block, peak = traced_peak(lambda: coupling2d._coupled_block(_pair(source, target), 2, 2, 209, 25))
        assert np.isfinite(block).all()
        assert peak < 0.6e6

    def test_default_cap_tensor_memory(self, traced_peak):
        # ratios 2, 3, gamma' 1.5, D 100, 100: a 257 x 257 rectangle, partial
        # at the cap; its mixed stack, 257 x 259 x 131 doubles, would alone
        # take 70 MB, while a level of it takes 0.27 MB
        source, target = Waveguide2D(1.0, 1.0), Waveguide2D(2.0, 3.0, 1.5, (10.0, 10.0))

        def capped():
            with pytest.raises(PartialResultError) as info:
                coupled_tensor(source, target, 0, 0, cap=256)
            return info.value.result

        capped()  # rules built before tracing
        tensor, peak = traced_peak(capped)
        assert tensor.values.shape == (257, 257)
        assert peak < 8e6


def _ground_overlap_mp(source, target):
    """<0,0|0,0> at 80 digits: (det A_s det A_t)^(1/4) 2 / sqrt(det Q)
    exp(-d^T A_s Q^-1 A_t d / 2), with each envelope A the square root of the
    profile's form matrix M, (M + sqrt(det M) I) / sqrt(tr M + 2 sqrt(det M)),
    so det A = sqrt(det M), Q = A_s + A_t and d = c_t - c_s.  The 2 x 2
    determinants and Q^-1 = adj Q / det Q are written out: ``mp.det`` reads
    the det M of tiny frequencies as 0."""

    def det(a):
        return a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]

    with mp.workdps(80):

        def envelope(w):
            half = mp.mpf(w.gamma) / 2
            m = mp.matrix([[mp.mpf(w.omega_x) ** 2, half], [half, mp.mpf(w.omega_y) ** 2]])
            root = mp.sqrt(det(m))
            return (m + root * mp.eye(2)) / mp.sqrt(m[0, 0] + m[1, 1] + 2 * root), root

        (a_s, det_s), (a_t, det_t) = envelope(source), envelope(target)
        q = a_s + a_t
        adj_q = mp.matrix([[q[1, 1], -q[0, 1]], [-q[1, 0], q[0, 0]]])
        d = mp.matrix([mp.mpf(ct) - mp.mpf(cs) for cs, ct in zip(source.center, target.center)])
        expo = (d.T * a_s * adj_q * a_t * d)[0] / det(q)
        return float((det_s * det_t) ** 0.25 * 2 / mp.sqrt(det(q)) * mp.exp(-expo / 2))


class TestCoupledTensor:
    @pytest.mark.parametrize("epsilon", [0.0, 1.0, -1e-8, 1.5])
    @pytest.mark.parametrize("grow_", [spectrum2d_separable, coupled_tensor])
    def test_epsilon_outside_the_open_unit_interval_rejected(self, grow_, epsilon):
        src, tgt = separable_pair()
        with pytest.raises(ValueError, match=r"epsilon must be in \(0, 1\)"):
            grow_(src, tgt, 0, 0, epsilon)

    def test_mass_target(self):
        src = Waveguide2D(1.0, 1.3)
        tgt = Waveguide2D(2.0, 3.0, 1.0, (1.0, 0.5))
        ten = coupled_tensor(src, tgt, 0, 0, epsilon=1e-6)
        assert 1.0 - 1e-6 <= ten.captured_mass <= 1.0 + 1e-12

    def test_cap_raises_partial(self):
        src = Waveguide2D(1.0, 1.0)
        cases = [
            (Waveguide2D(3.0, 2.0, 0.5, (4.0, 4.0)), 1e-10, 8),
            # a cap below the growth step of 8 bounds both edges too
            (Waveguide2D(2.0, 3.0, 1.5, (2.0, 3.0)), 1e-6, 2),
        ]
        for tgt, epsilon, cap in cases:
            with pytest.raises(PartialResultError) as info:
                coupled_tensor(src, tgt, 0, 0, epsilon=epsilon, cap=cap)
            assert info.value.result.values.shape == (cap + 1, cap + 1)

    @pytest.mark.parametrize(
        "source,target,n_x,n_y,mass",
        [
            (
                Waveguide2D(1.4933535027360897e-97, 1.6037316602407827e-73, 0.0, (0.0, 0.0)),
                Waveguide2D(2.076005917584979e22, 8.449660469922764e60, 0.0, (-1.3665883845656835e40, -213544053.5202808)),
                0, 1, "3.39895740176e+183",
            ),
            # every entry finite, their squares not
            (
                Waveguide2D(1.1015858357305538e112, 3.1655650994821705e-143, 3.626387596075798e-31, (0.0, 0.0)),
                Waveguide2D(1.7438227441527384e140, 6.246341784461455e78, -1.5834855811876548e219, (0.0, 2114304666.8205717)),
                2, 0, "inf",
            ),
        ],
        ids=["mass-3.4e183", "mass-inf"],
    )
    def test_overfull_rectangle_refused(self, source, target, n_x, n_y, mass):
        # no rectangle of true overlaps holds more than mass 1
        with pytest.raises(NumericOverflowError, match=re.escape(f"carries mass {mass} > 1")):
            coupled_tensor(source, target, n_x, n_y, cap=16)

    @pytest.mark.parametrize(
        "source,target",
        [
            (
                Waveguide2D(2.3367943218213827e-53, 6.688921981130077e-81, -3.081843125532545e-133, (0.0, 1.7094368264558726e20)),
                Waveguide2D(3.621452179198231e48, 8.765109746050025e23, 3.747708964335484e72, (0.013426400866363855, 0.0)),
            ),
            (
                Waveguide2D(1.977176640076857e-68, 1.0146941160470718e-139, -3.153370496403585e-207, (0.0, -1.113724751120093e58)),
                Waveguide2D(2.1042351469444317e-33, 4.2192303273689624e-18, -1.6286257524001453e-50, (1.5991066637447194e34, 0.0)),
            ),
        ],
    )
    def test_far_shifted_ground_overlap_answered(self, source, target):
        # shifted by far more than the stiffer profile's lengths: the centre
        # found in the (x, y) frame cancelled and these rectangles came back
        # overfull (mass 1.2578 and inf); solved in the sheared frame they
        # are partial tensors whose ground entry is the closed form's
        with pytest.raises(PartialResultError) as info:
            coupled_tensor(source, target, 0, 0, cap=16)
        got = info.value.result.values[0, 0]
        assert got == pytest.approx(_ground_overlap_mp(source, target), rel=1e-10, abs=0.0)

    def test_matches_separable_when_uncoupled(self):
        src, tgt = separable_pair(dx=1.0, dy=0.5)
        sep = spectrum2d_separable(src, tgt, 1, 0, epsilon=1e-6)
        coup = coupled_tensor(src, tgt, 1, 0, epsilon=1e-6)
        n1 = min(sep.values.shape[0], coup.values.shape[0])
        n2 = min(sep.values.shape[1], coup.values.shape[1])
        assert np.abs(sep.values[:n1, :n2] - coup.values[:n1, :n2]).max() < 1e-10


def _fuzz_profiles(rng, count, freqs, centres):
    """``count`` seeded (source, target) argument tuples of Waveguide2D:
    frequencies log-uniform in ``freqs``, each gamma uniform within 0.99 of
    the positive-definite limit 2 wx wy, centres from ``centres(rng, shape)``."""
    w = np.exp(rng.uniform(*np.log(freqs), size=(count, 2, 2)))
    gamma = 2.0 * rng.uniform(-0.99, 0.99, size=(count, 2)) * w[..., 0] * w[..., 1]
    c = centres(rng, (count, 2, 2))
    return [[(*w[i, k], gamma[i, k], tuple(c[i, k])) for k in (0, 1)] for i in range(count)]


def _target_shifted(rng, shape):
    """Source centres 0, target centres uniform in +/-30."""
    return rng.uniform(-30.0, 30.0, shape) * np.array([[0.0], [1.0]])


def _far_centres(rng, shape):
    """Centres log-uniform in 1e-3..1e200 in magnitude, of random sign."""
    magnitude = np.exp(rng.uniform(math.log(1e-3), math.log(1e200), shape))
    return magnitude * rng.choice((-1.0, 1.0), shape)


@functools.cache
def _ground_fuzz():
    """(answer, closed form) of the ground amplitude on 1,000 seeded pairs."""
    got, want = [], []
    for args in _fuzz_profiles(np.random.default_rng(5), 1000, (1e-3, 1e3), _target_shifted):
        source, target = (Waveguide2D(*a) for a in args)
        got.append(overlap_coupled(source, target, 0, 0, 0, 0))
        want.append(_ground_overlap_mp(source, target))
    return np.array(got), np.array(want)


def _fuzz_transitions(rng, count, freqs, shift, top, top_prime):
    """``count`` seeded 1D (transition, n') pairs: both frequencies
    log-uniform in ``freqs``, the target centre ``shift(rng, count)``, n up
    to ``top`` and n' up to ``top_prime``."""
    w = np.exp(rng.uniform(*np.log(freqs), size=(count, 2)))
    d = shift(rng, count)
    n = rng.integers(0, top + 1, size=count).tolist()
    n_prime = rng.integers(0, top_prime + 1, size=count).tolist()
    return [
        (Transition1D(OscillatorFrame(ws), OscillatorFrame(wt, dt), k), m)
        for (ws, wt), dt, k, m in zip(w.tolist(), d.tolist(), n, n_prime)
    ]


def _assert_right_or_refused(call, read):
    """``call()`` is refused with a typed error (False), or its amplitudes
    ``read(result)`` (a PartialResultError's ``result`` included) are finite
    and no row of them carries mass past 1 + 1e-10 (True)."""
    try:
        values = read(call())
    except PartialResultError as e:
        values = read(e.result)
    except (NumericOverflowError, CapExceededError, NotPositiveDefiniteError):
        return False
    with np.errstate(over="ignore"):
        mass = (values * values).sum(axis=-1)
    assert np.isfinite(values).all() and mass.max() <= 1.0 + 1e-10, (values, mass)
    return True


class TestRightOrRefusedFuzz:
    """Seeded profile pairs on the coupled path and its one-axis case, the 1D
    quadrature oracle: each answer is right, or the request is refused with a
    typed error (numpy warnings are errors here)."""

    def test_ground_amplitude_matches_closed_form(self):
        # a fifth of the closed forms underflow to 0, and so do their
        # answers; the few subnormal ones are the test below
        got, want = _ground_fuzz()
        subnormal = (0.0 < want) & (want < 2.0**-1022)
        np.testing.assert_allclose(got[~subnormal], want[~subnormal], rtol=1e-12, atol=0.0)
        assert subnormal.any()

    def test_subnormal_ground_amplitude_matches_closed_form(self):
        # the block's scale carries 2**lift and one ldexp takes it out, so a
        # subnormal amplitude is rounded once, not exp(-c0) alone first
        got, want = _ground_fuzz()
        subnormal = (0.0 < want) & (want < 2.0**-1022)
        np.testing.assert_allclose(got[subnormal], want[subnormal], rtol=1e-12, atol=0.0)

    def test_excited_block_answered_within_bessel_or_refused(self):
        # sources (0..2, 0..2), block (8, 8): 800 pairs over the ground
        # range, all answered, then 800 over frequencies 1e-150..1e150 and
        # centres up to 1e200
        rng = np.random.default_rng(7)
        pairs = _fuzz_profiles(rng, 800, (1e-3, 1e3), _target_shifted)
        pairs += _fuzz_profiles(rng, 800, (1e-150, 1e150), _far_centres)
        answered = []
        for args, (n_x, n_y) in zip(pairs, rng.integers(0, 3, size=(len(pairs), 2)).tolist()):
            try:
                amp = overlap_coupled(*(Waveguide2D(*a) for a in args), n_x, n_y, 8, 8)
            except (NumericOverflowError, NotPositiveDefiniteError, CapExceededError):
                answered.append(False)
                continue
            assert type(amp) is float and math.isfinite(amp), (args, n_x, n_y, amp)
            assert abs(amp) <= 1.0 + 1e-10, (args, n_x, n_y, amp)
            answered.append(True)
        assert all(answered[:800])

    def test_1d_quadrature_matches_closed_form(self):
        # n <= 12 stays below the closed form's drift band (ROADMAP item 1)
        pairs = _fuzz_transitions(
            np.random.default_rng(11), 400, (0.2, 5.0),
            lambda rng, k: rng.uniform(-20.0, 20.0, k), 12, 199,
        )
        for t, m in pairs:
            got, want = overlap_quad(t, m), overlap_closed(t, m)
            assert abs(got - want) <= max(1e-13, 1e-10 * abs(want)), (t, m, got, want)

    def test_1d_quadrature_answered_within_bessel_or_refused(self):
        # frequencies 1e-150..1e150 and shifts up to 1e200, on both 1D
        # routes: about half are refused; the two are not compared, as they
        # can differ past frequency ratios of about 1e39 (ROADMAP items 2
        # and 11)
        pairs = _fuzz_transitions(
            np.random.default_rng(12), 400, (1e-150, 1e150),
            _far_centres, 8, 8,
        )
        for route in (overlap_quad, overlap_closed):
            answered = 0
            for t, m in pairs:
                try:
                    amp = route(t, m)
                except NumericOverflowError:
                    continue
                assert type(amp) is float and math.isfinite(amp), (route, t, m, amp)
                assert abs(amp) <= 1.0 + 1e-10, (route, t, m, amp)
                answered += 1
            assert 0 < answered < len(pairs), route

    def test_1d_results_within_bessel_or_refused(self):
        # spectra (cap 256) and matrices (n' up to 64) on the extreme range
        pairs = _fuzz_transitions(
            np.random.default_rng(13), 400, (1e-150, 1e150),
            _far_centres, 8, 64,
        )
        answered = np.zeros(2, int)
        for t, m in pairs:
            answered += (
                _assert_right_or_refused(lambda: spectrum1d(t, cap=256), lambda s: s.amplitude),
                _assert_right_or_refused(
                    lambda: coupling_matrix(t.source, t.target, t.n, max(m, t.n)), lambda c: c.values
                ),
            )
        assert (answered > 0).all()

    def test_tensors_within_bessel_or_refused(self):
        # coupled tensors (cap 32) and, with gamma set to 0, separable ones
        # (cap 64) on the extreme range, sources (0..2, 0..2)
        rng = np.random.default_rng(14)
        pairs = _fuzz_profiles(rng, 300, (1e-150, 1e150), _far_centres)
        answered = np.zeros(2, int)
        for args, (n_x, n_y) in zip(pairs, rng.integers(0, 3, size=(len(pairs), 2)).tolist()):
            uncoupled = [(wx, wy, 0.0, c) for wx, wy, _, c in args]
            answered += (
                _assert_right_or_refused(
                    lambda: coupled_tensor(*(Waveguide2D(*a) for a in args), n_x, n_y, cap=32),
                    lambda ten: ten.values.ravel(),
                ),
                _assert_right_or_refused(
                    lambda: spectrum2d_separable(*(Waveguide2D(*a) for a in uncoupled), n_x, n_y, cap=64),
                    lambda ten: ten.values.ravel(),
                ),
            )
        assert (answered > 0).all()

    @pytest.mark.parametrize(
        "w,wp,d,n,n_prime",
        [
            # regressions: each once came back with |amp| past 1e21
            (3.8326345123101405e-110, 14150541376.63748, 1.9371900722159692e21, 2, 8),
            (1.2166696748879556e-138, 2.591915645179487e87, 0.28716511955983715, 6, 8),
            (1.8067457186439108e-138, 1457106203720555.0, 4.056158209391492e68, 2, 1),
        ],
    )
    def test_1d_quadrature_extreme_pins(self, w, wp, d, n, n_prime):
        t = Transition1D(OscillatorFrame(w), OscillatorFrame(wp, d), n)
        assert abs(overlap_quad(t, n_prime) - overlap_closed(t, n_prime)) <= 1e-13


class TestSchmidtReport:
    def test_separable_tensor_has_zero_entropy(self):
        src, tgt = separable_pair()
        ten = spectrum2d_separable(src, tgt, 0, 0, epsilon=1e-6)
        report = schmidt_report(ten)
        assert report.entropy < 1e-10

    def test_unit_spike(self):
        ten = CouplingTensor(
            values=np.array([[0.0, 0.0], [0.0, 1.0]]),
            captured_mass=1.0,
        )
        report = schmidt_report(ten)
        assert report.singular_values[0] == pytest.approx(1.0, abs=1e-15)
        assert report.entropy == 0.0

    def test_two_equal_singular_values(self):
        ten = CouplingTensor(
            values=np.diag([math.sqrt(0.5), math.sqrt(0.5)]),
            captured_mass=1.0,
        )
        report = schmidt_report(ten)
        assert report.entropy == pytest.approx(math.log(2.0), rel=1e-12)

    def test_singular_values_descending_and_mass(self):
        src = Waveguide2D(1.0, 1.3)
        tgt = Waveguide2D(2.0, 3.0, 1.0, (1.0, 0.5))
        ten = coupled_tensor(src, tgt, 0, 0, epsilon=1e-6)
        report = schmidt_report(ten)
        sigma = report.singular_values
        assert np.all(np.diff(sigma) <= 0)
        assert float((sigma * sigma).sum()) == pytest.approx(ten.captured_mass, rel=1e-12)

    def test_entropy_onset_with_coupling(self):
        src = Waveguide2D(1.0, 1.3)
        flat = Waveguide2D(2.0, 3.0, 0.0, (1.0, 0.5))
        bent = Waveguide2D(2.0, 3.0, 1.0, (1.0, 0.5))
        assert schmidt_report(coupled_tensor(src, flat, 0, 0, 1e-6)).entropy < 1e-10
        assert schmidt_report(coupled_tensor(src, bent, 0, 0, 1e-6)).entropy > 1e-10

    def test_empty_tensor_rejected(self):
        ten = CouplingTensor(values=np.zeros((2, 2)), captured_mass=0.0)
        with pytest.raises(ValueError):
            schmidt_report(ten)

    def test_zero_size_tensor_rejected(self):
        ten = CouplingTensor(values=np.zeros((0, 3)), captured_mass=1.0)
        with pytest.raises(ValueError, match="empty coupling tensor"):
            schmidt_report(ten)


#: Growth requests pinned at caps from 4 to 256, partial results included:
#: label -> (source, target, n_x, n_y, epsilon, cap).
PINNED_REQUESTS = {
    "coupled-complete": (
        Waveguide2D(1.0, 1.3), Waveguide2D(2.0, 3.0, 1.0, (1.0, 0.5)), 0, 0, 1e-4, 256,
    ),
    "coupled-partial-cap8": (
        Waveguide2D(1.0, 1.0), Waveguide2D(3.0, 2.0, 0.5, (4.0, 4.0)), 0, 0, 1e-10, 8,
    ),
    "coupled-partial-cap16": (
        Waveguide2D(1.0, 1.0), Waveguide2D(2.0, 3.0, 1.5, (2.0, 3.0)), 0, 0, 1e-4, 16,
    ),
    "identical": (Waveguide2D(1.3, 1.3), Waveguide2D(1.3, 1.3), 1, 0, 1e-6, 256),
    "uncoupled-partial-cap12": (
        Waveguide2D(1.0, 1.0), Waveguide2D(2.0, 3.0, 0.0, (1.0, 0.5)), 1, 0, 1e-6, 12,
    ),
    "one-side-long-cap16": (
        Waveguide2D(1.0, 1.0), Waveguide2D(1.2, 4.0, 0.0, (0.0, 2.5)), 0, 0, 1e-8, 16,
    ),
    "one-side-long-cap256": (
        Waveguide2D(1.0, 1.0), Waveguide2D(1.2, 4.0, 0.0, (0.0, 2.5)), 0, 0, 1e-8, 256,
    ),
    "shifted-partial-cap8": (
        Waveguide2D(1.0, 1.0), Waveguide2D(2.0, 3.0, 0.0, (3.0, 4.0)), 1, 2, 1e-6, 8,
    ),
    # a cap below the coupled growth step of 8 bounds the rectangle too
    "identical-cap4": (Waveguide2D(1.3, 1.3), Waveguide2D(1.3, 1.3), 0, 0, 1e-6, 4),
    # separable only: equal tails, so the tie rule picks the side that grows
    "symmetric-tie": (
        Waveguide2D(1.0, 1.0), Waveguide2D(2.0, 2.0, 0.0, (2.0, 2.0)), 0, 0, 4e-8, 256,
    ),
    # separable only: both sides start below the cap and one reaches it first
    "one-side-long-cap40": (
        Waveguide2D(1.0, 1.0), Waveguide2D(1.2, 4.0, 0.0, (0.0, 2.5)), 0, 0, 1e-8, 40,
    ),
}

#: Separable results of the uncoupled requests: label -> (shape, SHA-256 of
#: the value bytes, the captured mass in hex and the partial message).
SEPARABLE_PINS = {
    "identical": (
        (33, 33),
        "2d0d61d843d54a92b2a4ad52cfb7ac61ddbd2ba6a8133f102155f9c0c009c220",
    ),
    "uncoupled-partial-cap12": (
        (13, 13),
        "103de2e15994333c90323b6c108bc1cc8c8a78ece7b0eeb3f12beffadb6842fb",
    ),
    "one-side-long-cap16": (
        (17, 17),
        "9e0de23d6088ffced22e9fbbe848f36b605ad144db414b39bc9822c0d3d40c46",
    ),
    "one-side-long-cap256": (
        (33, 97),
        "1737dc2546163585b5b21d316229bfce90d53aeeacd27033087a4a9a353db3d9",
    ),
    "shifted-partial-cap8": (
        (9, 9),
        "24ba12e3cb6061947fdceeea9ebdee36eb78dfec3bd544656c53f74e46d3c84e",
    ),
    "identical-cap4": (
        (5, 5),
        "c3531e3a0779d478fb853b77b031af1f7fde4d78e950e6e92976e8e0c994a72c",
    ),
    "symmetric-tie": (
        (65, 33),
        "e9e60978f050c2b710178413552739e0b9eb7033a5e485dc80b2401e71935cc3",
    ),
    "one-side-long-cap40": (
        (41, 41),
        "b6a28bf48a5ee1fec7fdb25e258562bb0f151894e5a52c81c0b9a446adb1214a",
    ),
}

#: Coupled results (shape, mass, partial flag, every value), compared at
#: rtol 1e-12 (atol 1e-13 for round-off entries) because the last bits of
#: the GEMM depend on the BLAS build.  Recorded before the two growth loops
#: were merged into one, except identical-cap4: the merged loop no longer
#: starts that request above its cap.
COUPLED_GOLDEN = json.loads(
    (Path(__file__).resolve().parent / "golden_tensors.json").read_text(encoding="utf-8")
)


def grow(fn, label):
    """Run one pinned request; a partial result comes back with its message."""
    source, target, n_x, n_y, epsilon, cap = PINNED_REQUESTS[label]
    try:
        return fn(source, target, n_x, n_y, epsilon, cap), None
    except PartialResultError as err:
        return err.result, str(err)


def separable_digest(tensor, message):
    digest = hashlib.sha256(tensor.values.tobytes())
    digest.update(float(tensor.captured_mass).hex().encode())
    digest.update((message or "").encode())
    return digest.hexdigest()


class TestGrowthPinned:
    @pytest.mark.parametrize("label", sorted(SEPARABLE_PINS))
    def test_separable_bits(self, label):
        tensor, message = grow(spectrum2d_separable, label)
        shape, digest = SEPARABLE_PINS[label]
        assert tensor.values.shape == shape
        assert separable_digest(tensor, message) == digest

    @pytest.mark.parametrize("label", sorted(COUPLED_GOLDEN))
    def test_coupled_values(self, label):
        tensor, message = grow(coupled_tensor, label)
        want = COUPLED_GOLDEN[label]
        assert tensor.values.shape == tuple(want["shape"])
        assert (message is not None) == want["partial"]
        if message is not None:
            assert message.endswith(f"with the rectangle at the cap {PINNED_REQUESTS[label][5]}")
        np.testing.assert_allclose(
            tensor.captured_mass, want["captured_mass"], rtol=1e-12, atol=0.0
        )
        np.testing.assert_allclose(tensor.values, want["values"], rtol=1e-12, atol=1e-13)


def rebuild_reference(source, target, n_x, n_y, epsilon, cap):
    """The coupled growth loop before compute-ahead: a new block, at the
    exact rectangle, for every step.  Returns (values, mass, partial).

    It takes the near-tie rule of the replay: at an exact symmetry the
    loop without it followed round-off, and symmetric-tie came out 41 x 33
    with one BLAS thread and 33 x 41 with two."""
    pair = _pair(source, target)

    def evaluate(tops):
        values = coupling2d._coupled_block(pair, n_x, n_y, *tops)
        if not np.isfinite(values).all():
            raise NumericOverflowError("coupled amplitude block is not finite")
        prob = values * values
        mass = float(prob.sum())
        tails = (float(prob[-1, :].sum()), float(prob[:, -1].sum()))
        if tails[1] - tails[0] <= 1e-12 * tails[1] + 2.0**-50 * mass:
            tails = (tails[1], tails[1])
        return values, mass, tails

    tops = [min(8, cap)] * 2
    while True:
        values, mass, tails = evaluate(tops)
        side = 0 if tails[0] >= tails[1] else 1
        if tops[side] >= cap:
            side = 1 - side
        if mass >= 1.0 - epsilon or tops[side] >= cap:
            return values, mass, not mass >= 1.0 - epsilon
        tops[side] = min(tops[side] + 8, cap)


def seeded_coupled_requests(count=40):
    """Cross-coupled requests like the coupled-entropy workload's; every
    fourth source is cross-coupled too, and every fifth capped at 24."""
    rng = np.random.default_rng(2024)
    out = []
    for i in range(count):
        rx, ry = rng.uniform(1.5, 2.5, size=2)
        center = tuple(np.sqrt(rng.uniform(0.0, 5.0, size=2)))
        target = Waveguide2D(rx, ry, 2.0 * rng.uniform(-0.4, 0.4) * rx * ry, center)
        gamma = 2.0 * rng.uniform(-0.3, 0.3) if i % 4 == 0 else 0.0
        source = Waveguide2D(1.0, 1.0, gamma)
        n_x, n_y = (int(k) for k in rng.integers(0, 3, size=2))
        out.append((source, target, n_x, n_y, 1e-6, 24 if i % 5 == 0 else 256))
    return out


class TestCoupledReplay:
    @pytest.mark.parametrize(
        "request_",
        list(PINNED_REQUESTS.values()) + seeded_coupled_requests(),
        ids=list(PINNED_REQUESTS) + [f"seeded-{i}" for i in range(40)],
    )
    def test_matches_rebuild_loop(self, monkeypatch, request_):
        calls = []
        block = coupling2d._coupled_block

        def counted(*args):
            calls.append(args[3:])
            return block(*args)

        monkeypatch.setattr(coupling2d, "_coupled_block", counted)
        want, want_mass, want_partial = rebuild_reference(*request_)
        reference_builds = len(calls)
        del calls[:]
        try:
            tensor, partial = coupled_tensor(*request_), False
        except PartialResultError as err:
            tensor, partial = err.result, True
        assert tensor.values.shape == want.shape
        assert partial == want_partial
        np.testing.assert_allclose(tensor.values, want, rtol=1e-12, atol=1e-13)
        np.testing.assert_allclose(tensor.captured_mass, want_mass, rtol=1e-12)
        assert len(calls) <= reference_builds
        assert tensor.values.base is None  # a copy, not a view of the block

    def test_near_tie_goes_to_the_first_side(self, monkeypatch):
        # amplitudes 2^-(k1+k2+2)/2 (1 + 1e-14 k2): the second side's edge
        # tail is larger, by round-off, at every square rectangle
        def block(pair, n_x, n_y, top1, top2):
            k1, k2 = np.ogrid[: top1 + 1, : top2 + 1]
            return 0.5 * math.sqrt(0.5) ** (k1 + k2) * (1.0 + 1e-14 * k2)

        monkeypatch.setattr(coupling2d, "_coupled_block", block)
        w = Waveguide2D(1.0, 1.0)
        assert coupled_tensor(w, w, 0, 0, epsilon=1e-5).values.shape == (25, 17)

    def test_non_finite_replayed_entry_refused(self, monkeypatch):
        # a stubbed block, finite but for entry (8, 8) of the first rectangle
        def block(pair, n_x, n_y, top1, top2):
            values = np.full((top1 + 1, top2 + 1), 0.01)
            values[8, 8] = math.inf
            return values

        monkeypatch.setattr(coupling2d, "_coupled_block", block)
        w = Waveguide2D(1.0, 1.0)
        with pytest.raises(NumericOverflowError, match=r"up to \(8, 8\) is not finite"):
            coupled_tensor(w, w, 0, 0, 1e-8, 16)

    def test_non_finite_entry_computed_ahead_answered(self, monkeypatch):
        # the near-tie stub, with an inf at (30, 0) of the block built ahead to
        # row 40: the growth stops at (24, 16) and never reads it
        def block(pair, n_x, n_y, top1, top2):
            k1, k2 = np.ogrid[: top1 + 1, : top2 + 1]
            values = 0.5 * math.sqrt(0.5) ** (k1 + k2) * (1.0 + 1e-14 * k2)
            if top1 >= 30:
                values[30, 0] = math.inf
            return values

        monkeypatch.setattr(coupling2d, "_coupled_block", block)
        w = Waveguide2D(1.0, 1.0)
        tensor = coupled_tensor(w, w, 0, 0, epsilon=1e-5)
        assert tensor.values.shape == (25, 17)
        assert np.isfinite(tensor.values).all()

    def test_non_finite_entry_refused_at_the_step_reading_it(self, monkeypatch):
        # finite through the first rectangle (8, 8); the second, (16, 8),
        # holds the inf at (16, 0)
        def block(pair, n_x, n_y, top1, top2):
            values = np.full((top1 + 1, top2 + 1), 0.01)
            values[16, 0] = math.inf
            return values

        monkeypatch.setattr(coupling2d, "_coupled_block", block)
        w = Waveguide2D(1.0, 1.0)
        with pytest.raises(NumericOverflowError, match=r"up to \(16, 8\) is not finite"):
            coupled_tensor(w, w, 0, 0, 1e-8, 16)

    def test_symmetric_tie_goes_to_the_first_side(self):
        # the tails at (8, 8), (16, 16), ... agree to round-off only; the
        # separable path, whose tails tie exactly, grows side 0 there too
        tensor = coupled_tensor(*PINNED_REQUESTS["symmetric-tie"])
        assert tensor.values.shape == (41, 33)

    @pytest.mark.parametrize("skew", [1e-11, 1e-10])
    def test_symmetric_tie_holds_past_the_relative_rule(self, monkeypatch, skew):
        # the tails at (32, 32), 2.75e-8, agree to a few 1e-12 relative, a
        # gap that grows about tenfold per step: skewing the second side by
        # 1e-11 passes the relative rule, not the floor of 2^-50 of the mass
        block = coupling2d._coupled_block

        def skewed(*args):
            values = block(*args)
            k2 = np.arange(values.shape[1])
            return values * (1.0 + skew * k2 / values.shape[1])

        monkeypatch.setattr(coupling2d, "_coupled_block", skewed)
        tensor = coupled_tensor(*PINNED_REQUESTS["symmetric-tie"])
        assert tensor.values.shape == (41, 33)


def separable_reference(source, target, n_x, n_y, epsilon, cap, builder=_TableBuilder):
    """The separable growth before fill-ahead: each axis's row filled only
    as far as the 32-column growth reads it.  Returns (values, mass, partial)."""
    frames = zip(coupling2d._channel_frames(source), coupling2d._channel_frames(target))
    rows = [builder(build_kernel(s, t), n) for (s, t), n in zip(frames, (n_x, n_y))]
    tops = [min(32, cap)] * 2
    while True:
        for row, top in zip(rows, tops):
            row.extend(top)
        amps = [row.amplitude for row in rows]
        masses = [float(np.dot(a, a)) for a in amps]
        _refuse_overfull(masses, "a separable channel")
        mass, tails = masses[0] * masses[1], (1.0 - masses[0], 1.0 - masses[1])
        side = 0 if tails[0] >= tails[1] else 1
        if tops[side] >= cap:
            side = 1 - side
        if mass >= 1.0 - epsilon or tops[side] >= cap:
            return np.outer(amps[0], amps[1]), mass, not mass >= 1.0 - epsilon
        tops[side] = min(tops[side] + 32, cap)


def seeded_separable_requests(count=24):
    """Separable requests with n up to 20 and shifts up to D 100 per axis;
    every other one has a cap of 24, 100, 300 or 600."""
    rng = np.random.default_rng(3030)
    out = []
    for i in range(count):
        rx, ry = rng.uniform(1.5, 5.0, size=2)
        center = tuple(np.sqrt(rng.uniform(0.0, 100.0, size=2)))
        n_x, n_y = (int(k) for k in rng.integers(0, 21, size=2))
        cap = (24, 100, 300, 600)[i // 2 % 4] if i % 2 else MODE_INDEX_CAP
        out.append((Waveguide2D(1.0, 1.0), Waveguide2D(rx, ry, 0.0, center), n_x, n_y, 1e-8, cap))
    return out


def separable_result(request_):
    """spectrum2d_separable as (values, mass, partial)."""
    try:
        tensor, partial = spectrum2d_separable(*request_), False
    except PartialResultError as err:
        tensor, partial = err.result, True
    return tensor.values, tensor.captured_mass, partial


class _OverflowPast(_TableBuilder):
    """A table whose entries past column 48 overflow: a call that fills past
    that column raises after the fill."""

    def extend(self, m_new):
        fills_past = m_new > max(self.m, 48)
        super().extend(m_new)
        if fills_past:
            raise NumericOverflowError("stub overflow at (n=0, m=49)", index=(0, 49))


class TestSeparableReplay:
    @pytest.mark.parametrize(
        "request_",
        [PINNED_REQUESTS[label] for label in sorted(SEPARABLE_PINS)] + seeded_separable_requests(),
        ids=sorted(SEPARABLE_PINS) + [f"seeded-{i}" for i in range(24)],
    )
    def test_matches_32_column_loop(self, request_):
        values, mass, partial = separable_result(request_)
        want, want_mass, want_partial = separable_reference(*request_)
        assert values.shape == want.shape
        assert values.tobytes() == want.tobytes()
        assert float(mass).hex() == float(want_mass).hex()
        assert partial == want_partial

    def test_fill_ahead_overflow_is_refused_as_in_spectrum1d(self, monkeypatch):
        # the growth would stop at (33, 33), short of the stub's overflow at
        # 49; a first fill to 1000 columns meets it and refuses, in both paths
        request_ = PINNED_REQUESTS["identical"]
        for module in (coupling1d, coupling2d):
            monkeypatch.setattr(module, "_TableBuilder", _OverflowPast)
            monkeypatch.setattr(module, "_first_extent", lambda t: 1000)
        with pytest.raises(NumericOverflowError) as want:
            spectrum1d(uncoupled_transitions(*request_[:4])[0])
        with pytest.raises(NumericOverflowError) as got:
            spectrum2d_separable(*request_)
        assert (got.value.index, str(got.value)) == (want.value.index, str(want.value))

    def test_overflow_the_growth_reads_is_refused_where_it_was(self, monkeypatch):
        # the y axis grows to column 96, past the stub's overflow at 49
        request_ = PINNED_REQUESTS["one-side-long-cap256"]
        with pytest.raises(NumericOverflowError) as want:
            separable_reference(*request_, builder=_OverflowPast)
        monkeypatch.setattr(coupling2d, "_TableBuilder", _OverflowPast)
        with pytest.raises(NumericOverflowError) as got:
            spectrum2d_separable(*request_)
        assert (got.value.index, str(got.value)) == (want.value.index, str(want.value))


def uncoupled_transitions(source, target, n_x, n_y):
    frames = zip(coupling2d._channel_frames(source), coupling2d._channel_frames(target))
    return [Transition1D(s, t, n) for (s, t), n in zip(frames, (n_x, n_y))]


def spy_growth(monkeypatch):
    """Record the state of every growth step and of every finish, the one
    build of the tensor's values."""
    steps, finishes = [], []
    grow = coupling2d._grow_rectangle

    def counted(evaluate, finish, *args):
        def step(tops):
            out = evaluate(tops)
            steps.append(out[0])
            return out

        def once(state):
            finishes.append(state)
            return finish(state)

        return grow(step, once, *args)

    monkeypatch.setattr(coupling2d, "_grow_rectangle", counted)
    return steps, finishes


class TestValuesBuiltOnce:
    def test_separable_outer_product_once(self, monkeypatch):
        steps, finishes = spy_growth(monkeypatch)
        outer_calls = []
        outer = np.outer

        def counted_outer(*args):
            outer_calls.append(args)
            return outer(*args)

        monkeypatch.setattr(np, "outer", counted_outer)
        # the y axis grows to column 96: three steps
        tensor = spectrum2d_separable(*PINNED_REQUESTS["one-side-long-cap256"])
        assert len(steps) >= 3
        assert len(finishes) == len(outer_calls) == 1
        assert tensor.values.shape == tuple(a.size for a in finishes[0])

    def test_coupled_sub_block_copied_once(self, monkeypatch):
        steps, finishes = spy_growth(monkeypatch)
        tensor = coupled_tensor(*PINNED_REQUESTS["symmetric-tie"])
        assert len(steps) >= 3
        assert len(finishes) == 1
        # every step reads a view of the block computed ahead, not a copy
        assert all(values.base is not None for values in steps)
        assert tensor.values.base is None
        assert tensor.values.shape == finishes[0].shape


def seeded_ground_requests(count=24):
    """(source, target) pairs for ground-state sources: target ratios
    0.4-4 with cross-couplings up to 0.9 of the positive-definite limit,
    every second source cross-coupled too."""
    rng = np.random.default_rng(20)
    out = []
    for i in range(count):
        rx, ry = np.exp(rng.uniform(math.log(0.4), math.log(4.0), size=2))
        gamma_t = 2.0 * rng.uniform(-0.9, 0.9) * rx * ry
        target = Waveguide2D(rx, ry, gamma_t, tuple(rng.uniform(-2.0, 2.0, size=2)))
        sy = rng.uniform(0.5, 2.0)
        gamma_s = 2.0 * rng.uniform(-0.6, 0.6) * sy if i % 2 else 0.0
        out.append((Waveguide2D(1.0, sy, gamma_s), target))
    return out


def _x_log_x(x):
    return x * math.log(x) if x > 0.0 else 0.0


class TestGaussianOracle:
    """A (0, 0) source is a Gaussian state, and so is its image in the
    target modes.  One target mode (Omega, axis f) has the reduced
    covariance V_x = Omega sum_k g_k^2 / (2 w_k) and V_p = sum_k g_k^2 w_k /
    (2 Omega), g_k = e_k.f, with no cross term; its symplectic eigenvalue
    nu = sqrt(V_x V_p) gives the Schmidt entropy and the singular values
    sqrt((1 - lambda) lambda^k), lambda = (nu - 1/2) / (nu + 1/2).  Only
    the normal modes are shared with the block."""

    @pytest.mark.parametrize(
        "source,target",
        # the gamma = 0 pair factorizes: nu = 1/2 and the entropy is 0
        seeded_ground_requests() + [separable_pair(1.0, 0.5)],
        ids=[f"seeded-{i}" for i in range(24)] + ["uncoupled"],
    )
    def test_entropy_and_singular_values(self, source, target):
        (w_s, e_s), (w_t, e_t) = _normal_modes(source), _normal_modes(target)
        omega, w = w_t[0], np.array(w_s)
        g = np.array(e_s) @ e_t[0]
        v_x = omega * float(np.sum(g * g / (2.0 * w)))
        v_p = float(np.sum(g * g * w)) / (2.0 * omega)
        nu = math.sqrt(v_x * v_p)
        lam = (nu - 0.5) / (nu + 0.5)
        report = schmidt_report(coupled_tensor(source, target, 0, 0, epsilon=1e-10))
        assert report.entropy == pytest.approx(_x_log_x(nu + 0.5) - _x_log_x(nu - 0.5), abs=1e-8)
        k = np.arange(report.singular_values.size)
        np.testing.assert_allclose(
            report.singular_values, np.sqrt((1.0 - lam) * lam**k), rtol=0.0, atol=1e-7
        )


class TestTargetModeMoments:
    @pytest.mark.parametrize("n_x,n_y", [(0, 0), (1, 0), (2, 3), (5, 1), (40, 7)])
    def test_uncoupled_pair_matches_1d_moments(self, n_x, n_y):
        source = Waveguide2D(1.3, 0.8, 0.0, (0.5, -1.0))
        target = Waveguide2D(2.0, 3.5, 0.0, (2.0, 1.5))
        moments = _target_mode_moments(_pair(source, target), n_x, n_y)
        for (mean, var), t in zip(moments, uncoupled_transitions(source, target, n_x, n_y)):
            want_mean, want_var = _n_prime_moments(t)
            assert mean == pytest.approx(want_mean, rel=1e-13)
            # the exact Fock variance, not the larger one of a Gaussian
            # state with the same covariance
            assert var == pytest.approx(want_var, rel=1e-13)

    @pytest.mark.parametrize(
        "source,n_x,n_y",
        [
            (Waveguide2D(1.0, 1.3), 0, 0),
            (Waveguide2D(1.0, 1.3, 0.7, (0.3, -0.2)), 2, 1),
            (Waveguide2D(1.2, 0.9, -0.5), 0, 3),
        ],
    )
    def test_complete_coupled_tensor_moments(self, source, n_x, n_y):
        target = Waveguide2D(2.0, 3.0, 1.0, (1.0, 0.5))
        tensor = coupled_tensor(source, target, n_x, n_y, epsilon=1e-12)
        moments = _target_mode_moments(_pair(source, target), n_x, n_y)
        prob = tensor.probability
        for (mean, var), marginal in zip(moments, (prob.sum(axis=1), prob.sum(axis=0))):
            k = np.arange(len(marginal))
            got_mean = k @ marginal
            assert got_mean == pytest.approx(mean, rel=1e-9)
            assert (k - got_mean) ** 2 @ marginal == pytest.approx(var, rel=1e-9)

    def test_first_block_rounds_to_the_step_and_cap(self):
        source = Waveguide2D(1.0, 1.0)
        target = Waveguide2D(2.5, 2.5, 5.0, (5.0, 5.0))
        moments = _target_mode_moments(_pair(source, target), 2, 2)
        want = [8 * math.ceil((mean + 4.0 * math.sqrt(var) + 12.0) / 8) for mean, var in moments]
        assert _first_block(_pair(source, target), 2, 2, 8, 256) == want
        assert _first_block(_pair(source, target), 2, 2, 8, 100) == [min(w, 100) for w in want]

    def test_overflowing_moments_fall_back_to_the_start(self):
        source, target = Waveguide2D(1.0, 1.0), Waveguide2D(1e300, 1e300)
        assert _first_block(_pair(source, target), 0, 0, 8, 16) == [8, 8]
        assert _first_block(_pair(source, target), 0, 0, 8, 4) == [4, 4]

    def test_overflowing_normal_frequencies_refused(self):
        source, target = Waveguide2D(1.0, 1.0), Waveguide2D(1e300, 2.0, 1.0)
        for call in (
            lambda: _normal_modes(target),
            lambda: _first_block(_pair(source, target), 0, 0, 8, 16),
            lambda: coupled_tensor(source, target, 0, 0, 1e-8, 16),
        ):
            with pytest.raises(NumericOverflowError, match="normal frequencies .* not finite"):
                call()
