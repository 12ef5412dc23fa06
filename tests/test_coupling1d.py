import math

import numpy as np
import pytest

from selfoc import (
    NumericOverflowError,
    OscillatorFrame,
    PartialSpectrumError,
    Transition1D,
    coupling_matrix,
    fc_candidates,
    fc_estimate,
    overlap_closed,
    overlap_quad,
    spectrum1d,
)
from selfoc.coupling1d import _FIRST_FILL_ENTRIES, _first_extent, _n_prime_moments
from selfoc.hermite import _TableBuilder, build_kernel


def transition(w, wp, d, n):
    return Transition1D(OscillatorFrame(w), OscillatorFrame(wp, d), n)


def agree(a, b, rel=1e-10, near_zero=1e-13):
    return abs(a - b) <= max(near_zero, rel * max(abs(a), abs(b)))


class TestOverlapClosed:
    def test_orthonormality(self):
        assert overlap_closed(transition(1.0, 1.0, 0.0, 2), 2) == pytest.approx(1.0, abs=1e-14)
        assert overlap_closed(transition(1.0, 1.0, 0.0, 2), 3) == 0.0

    def test_stretch_ground(self):
        value = overlap_closed(transition(1.0, 3.0, 0.0, 0), 0)
        assert value == pytest.approx(0.930604859102099, rel=1e-12)

    def test_pure_shift_ground(self):
        value = overlap_closed(transition(1.0, 1.0, 2.0, 0), 0)
        assert value == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_pure_shift_is_poisson(self):
        # same frequency: P(m) is Poisson with mean d^2/2
        d, lam = 1.6, 1.6**2 / 2
        for m in range(6):
            amp = overlap_closed(transition(1.0, 1.0, d, 0), m)
            expected = math.exp(-lam) * lam**m / math.factorial(m)
            assert amp * amp == pytest.approx(expected, rel=1e-12)

    def test_sign_fixed_by_integral(self):
        # <0|1> < 0 for a positive shift: the first target mode is negative
        # on the side where the source Gaussian lives
        assert overlap_closed(transition(1.0, 1.0, 1.0, 0), 1) < 0.0


class TestDualPath:
    def test_heavy_shift_peak_entry(self):
        t = transition(1.0, 3.0, 3.0, 0)
        a, b = overlap_closed(t, 13), overlap_quad(t, 13)
        assert agree(a, b)

    def test_quad_overflow_is_refused(self):
        # the scaled Hermite factors overflow outside the classical region
        t = transition(1.0, 2.0, 30.0, 40)
        with pytest.raises(NumericOverflowError) as info:
            overlap_quad(t, 542)
        assert info.value.index == (40, 542)

    def test_quad_normalization_identity(self):
        assert overlap_quad(transition(1.0, 1.0, 0.0, 4), 4) == pytest.approx(1.0, abs=1e-12)

    def test_randomized_agreement(self):
        rng = np.random.default_rng(42)
        for _ in range(60):
            w = rng.uniform(0.3, 3.0)
            wp = w * rng.uniform(0.2, 5.0)
            d = math.sqrt(rng.uniform(0.0, 25.0) / w) * rng.choice([-1.0, 1.0])
            n, m = int(rng.integers(0, 41)), int(rng.integers(0, 41))
            t = transition(w, wp, d, n)
            a, b = overlap_closed(t, m), overlap_quad(t, m)
            assert agree(a, b), (w, wp, d, n, m, a, b)


class TestSpectrum:
    @pytest.mark.parametrize("n", [0, 5, 20])
    @pytest.mark.parametrize("wp,d", [(3.0, 3.0), (1.5, 0.0), (5.0, 2.0), (0.6, 1.5)])
    def test_is_one_table_row_cut_at_cutoff(self, wp, d, n):
        t = transition(1.0, wp, d, n)
        sp = spectrum1d(t)
        kernel = build_kernel(t.source, t.target)
        builder = _TableBuilder(kernel, n)
        builder.extend(sp.cutoff + 300)
        amplitude = kernel.prefactor * builder.row(n)
        cumulative = np.cumsum(amplitude * amplitude)
        assert np.array_equal(sp.amplitude, amplitude[: sp.cutoff + 1])
        assert sp.captured_mass == cumulative[sp.cutoff]
        assert sp.cutoff == 0 or cumulative[sp.cutoff - 1] < 1.0 - 1e-8

    def test_identity_spike(self):
        sp = spectrum1d(transition(1.0, 1.0, 0.0, 5))
        assert sp.argmax == 5
        assert sp.captured_mass == 1.0
        assert sp.probability[5] == 1.0
        assert np.all(sp.probability[:5] == 0.0)

    def test_heavy_shift_argmax(self):
        # stretch 3, dimensionless shift 9: the vertical-transition
        # estimate is 13; the exact argmax sits one quantum below it
        sp = spectrum1d(transition(1.0, 3.0, 3.0, 0))
        assert sp.argmax == 12
        assert sp.probability[12] == pytest.approx(0.0644181759, rel=1e-8)

    def test_excited_argmax(self):
        sp = spectrum1d(transition(1.0, 3.0, 4.0, 3))
        assert sp.argmax == 5

    def test_mass_window(self):
        for eps in (1e-6, 1e-8):
            sp = spectrum1d(transition(1.0, 3.0, 3.0, 0), epsilon=eps)
            assert 1.0 - eps <= sp.captured_mass <= 1.0 + 1e-12

    def test_cutoff_is_first_hit(self):
        sp = spectrum1d(transition(1.0, 3.0, 3.0, 0), epsilon=1e-6)
        assert sp.captured_mass - sp.probability[-1] < 1.0 - 1e-6
        assert sp.cutoff == len(sp) - 1

    def test_probability_is_amplitude_squared(self):
        sp = spectrum1d(transition(1.0, 2.0, 1.0, 2))
        assert np.array_equal(sp.probability, sp.amplitude * sp.amplitude)

    def test_partial_spectrum_error(self):
        with pytest.raises(PartialSpectrumError) as info:
            spectrum1d(transition(1.0, 3.0, 3.0, 0), cap=8)
        partial = info.value.spectrum
        assert partial.cutoff == 8
        assert partial.captured_mass < 1.0 - 1e-8
        assert info.value.captured_mass == partial.captured_mass

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5])
    def test_bad_epsilon(self, eps):
        with pytest.raises(ValueError):
            spectrum1d(transition(1.0, 1.0, 0.0, 0), epsilon=eps)

    def test_scale_invariance(self):
        # probabilities depend only on (omega'/omega, omega d^2)
        base = spectrum1d(transition(1.0, 2.5, 2.0, 1))
        lam = 3.7
        scaled = spectrum1d(transition(lam, 2.5 * lam, 2.0 / math.sqrt(lam), 1))
        m = min(len(base), len(scaled))
        assert np.abs(base.probability[:m] - scaled.probability[:m]).max() < 1e-12


def moments(sp):
    p = sp.probability / sp.probability.sum()
    mean = float((sp.n_prime * p).sum())
    return mean, float(((sp.n_prime - mean) ** 2 * p).sum())


class TestMomentEstimate:
    @pytest.mark.parametrize(
        "w,c,wp,d,n",
        [
            (1.0, 0.0, 3.0, 3.0, 0),
            (1.0, 0.0, 3.0, 4.0, 3),
            (0.5, 1.0, 1.7, 2.0, 5),
            (2.0, -1.0, 0.6, 1.5, 2),
            (2.5, 0.0, 0.8, 0.0, 4),
            (1.0, 0.0, 2.0, 1.0, 20),
            (0.7, 0.3, 2.1, -2.5, 10),
        ],
    )
    def test_matches_computed_spectrum(self, w, c, wp, d, n):
        t = Transition1D(OscillatorFrame(w, c), OscillatorFrame(wp, c + d), n)
        mean, var = moments(spectrum1d(t, epsilon=1e-13))
        est_mean, est_var = _n_prime_moments(t)
        assert est_mean == pytest.approx(mean, rel=1e-10)
        assert est_var == pytest.approx(var, rel=1e-8)

    @pytest.mark.parametrize("w,d", [(1.0, 1.6), (1.0, 5.0), (2.5, 2.0)])
    def test_poisson_anchor(self, w, d):
        # equal frequencies, ground state in: Poisson with mean omega d^2 / 2
        t = transition(w, w, d, 0)
        lam = w * d * d / 2.0
        assert _n_prime_moments(t) == pytest.approx((lam, lam), rel=1e-14)
        assert moments(spectrum1d(t, epsilon=1e-13)) == pytest.approx((lam, lam), rel=1e-8)

    @pytest.mark.parametrize("r", [1.5, 3.0, 5.0])
    def test_squeeze_anchor(self, r):
        # no shift, ground state in: squeezed vacuum, mean sinh^2 s
        t = transition(1.0, r, 0.0, 0)
        mean = (r - 1.0) ** 2 / (4.0 * r)
        var = (r * r - 1.0) ** 2 / (8.0 * r * r)
        assert _n_prime_moments(t) == pytest.approx((mean, var), rel=1e-14)
        assert moments(spectrum1d(t, epsilon=1e-13)) == pytest.approx((mean, var), rel=1e-8)

    def test_first_extent_is_bounded(self):
        # ground state: mean + 4 sigma + 16, at least 64 columns
        assert _first_extent(transition(1.0, 1.0, 0.0, 0)) == 64
        lam = 900.0 / 2.0
        assert _first_extent(transition(1.0, 1.0, 30.0, 0)) == math.ceil(
            lam + 4.0 * math.sqrt(lam)
        ) + 16
        # an excited, far-shifted input: its spread is wide, the fill is capped
        assert _first_extent(transition(1.0, 3.0, 28.0, 32)) == _FIRST_FILL_ENTRIES // 33
        assert _first_extent(transition(1.0, 1.0, 0.0, 4000)) == 64


class TestCouplingMatrix:
    def test_identity(self):
        cm = coupling_matrix(OscillatorFrame(1.3), OscillatorFrame(1.3), 6, 10)
        assert np.abs(cm.values[:, :7] - np.eye(7)).max() < 1e-12
        assert cm.gram_defect < 1e-12

    def test_gram_defect_small_when_complete(self):
        cm = coupling_matrix(OscillatorFrame(1.0), OscillatorFrame(3.0, 3.0), 20, 400)
        assert cm.gram_defect < 1e-8

    def test_gram_defect_decreases_with_completeness(self):
        defects = [
            coupling_matrix(OscillatorFrame(1.0), OscillatorFrame(3.0, 3.0), 20, np_).gram_defect
            for np_ in (100, 200, 400)
        ]
        assert defects[0] >= defects[1] >= defects[2]

    def test_parity_flip(self):
        plus = coupling_matrix(OscillatorFrame(1.0), OscillatorFrame(2.0, 1.5), 8, 12)
        minus = coupling_matrix(OscillatorFrame(1.0), OscillatorFrame(2.0, -1.5), 8, 12)
        signs = (-1.0) ** (np.arange(9)[:, None] + np.arange(13)[None, :])
        assert np.array_equal(plus.values, signs * minus.values)

    def test_warns_on_truncated_rows(self):
        with pytest.warns(RuntimeWarning):
            coupling_matrix(OscillatorFrame(1.0), OscillatorFrame(1.0), 10, 5)


class TestExchangeSymmetry:
    def test_randomized(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            w = rng.uniform(0.3, 3.0)
            wp = w * rng.uniform(0.2, 5.0)
            d = math.sqrt(rng.uniform(0.0, 16.0) / w)
            n, m = int(rng.integers(0, 16)), int(rng.integers(0, 16))
            forward = overlap_closed(transition(w, wp, d, n), m)
            backward = overlap_closed(transition(wp, w, -d, m), n)
            assert abs(forward - backward) < 1e-12


class TestFcEstimate:
    def test_heavy_shift(self):
        assert fc_estimate(transition(1.0, 3.0, 3.0, 0)) == 13

    def test_identity(self):
        assert fc_estimate(transition(1.0, 1.0, 0.0, 0)) == 0

    def test_pure_shift(self):
        t = transition(1.0, 1.0, 4.0, 0)
        assert fc_estimate(t) == 8
        assert abs(fc_estimate(t) - spectrum1d(t).argmax) <= 1

    def test_candidates_for_excited_mode(self):
        cand = fc_candidates(transition(1.0, 3.0, 4.0, 3))
        turn = math.sqrt(7.0)
        assert cand["x_near"] == pytest.approx(turn)
        assert cand["x_far"] == pytest.approx(-turn)
        assert cand["near"] == 2
        assert cand["far"] > cand["near"]

    def test_returned_value_is_near_side(self):
        t = transition(1.0, 3.0, 4.0, 3)
        assert fc_estimate(t) == fc_candidates(t)["near"]

    def test_clamped_at_zero(self):
        assert fc_estimate(transition(1.0, 5.0, 0.0, 0)) == 0
