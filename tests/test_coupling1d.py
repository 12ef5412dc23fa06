import math

import numpy as np
import pytest

import selfoc.coupling2d as coupling2d
from selfoc import (
    MODE_INDEX_CAP,
    CapExceededError,
    NumericOverflowError,
    OscillatorFrame,
    PartialResultError,
    Transition1D,
    coupling_matrix,
    fc_candidates,
    fc_estimate,
    overlap_closed,
    overlap_quad,
    scaled_hermite_table,
    spectrum1d,
)
from selfoc.coupling1d import _FIRST_FILL_ENTRIES, _first_extent, _n_prime_moments
from selfoc.coupling2d import quad_order_for
from selfoc.hermite import _TableBuilder, build_kernel
from selfoc.quadrature import gauss_hermite


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

    @pytest.mark.parametrize("n,n_prime", [(140, 300), (200, 396), (250, 200)])
    def test_overfull_row_refused(self, n, n_prime):
        # ratio 3, D 3: past n of about 140 the table's rows drift, and these
        # came back as -1.36, 6.21e11 and -3.1e4; no row of true overlaps
        # carries mass past 1
        with pytest.raises(NumericOverflowError, match=rf"closed-form row <{n}\|0..{n_prime}> carries mass"):
            overlap_closed(transition(1.0, 3.0, 3.0, n), n_prime)

    def test_drift_band_within_unit_mass_answered(self):
        assert abs(overlap_closed(transition(1.0, 3.0, 3.0, 140), 200)) <= 1.0


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
        assert info.value.index == (542, 0)

    def test_quad_order_past_max_refused_before_building(self, monkeypatch):
        def no_rule(order):
            raise AssertionError(f"a rule of order {order} was built")

        monkeypatch.setattr(coupling2d, "gauss_hermite", no_rule)
        t = Transition1D(OscillatorFrame(1.0), OscillatorFrame(3.0, 1.0), 2100)
        with pytest.raises(CapExceededError, match=r"\(2100, 0\) .* order of 2101, past 2048"):
            overlap_quad(t, 2100)

    @pytest.mark.parametrize("n,n_prime", [(1, 1), (1, 2), (2, 5), (7, 4), (20, 31), (30, 30)])
    def test_quad_order_is_the_least_exact_count(self, n, n_prime):
        # (t + 1/2)^(n + n') against exp(-t^2): exact with quad_order_for(n,
        # n') nodes, not with one fewer, at either parity of the degree
        degree, order = n + n_prime, quad_order_for(n, n_prime)
        exact = sum(
            math.comb(degree, k) * 0.5 ** (degree - k) * math.gamma((k + 1) / 2)
            for k in range(0, degree + 1, 2)
        )
        for nodes, is_exact in ((order, True), (order - 1, False)):
            rule = gauss_hermite(nodes)
            got = float(rule.weights @ (rule.nodes + 0.5) ** degree)
            assert (abs(got - exact) <= 1e-12 * exact) is is_exact, nodes

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


def assert_derived_fields(sp):
    """n_prime, probability and cutoff follow from the stored amplitude, and
    the captured mass is the running sum of the probabilities."""
    assert len(sp) == sp.cutoff + 1
    assert np.array_equal(sp.n_prime, np.arange(sp.cutoff + 1))
    assert sp.probability.tobytes() == (sp.amplitude * sp.amplitude).tobytes()
    assert sp.captured_mass == np.cumsum(sp.probability)[-1]


class TestSpectrum:
    @pytest.mark.parametrize("n", [0, 5, 20])
    @pytest.mark.parametrize("wp,d", [(3.0, 3.0), (1.5, 0.0), (5.0, 2.0), (0.6, 1.5)])
    def test_is_one_table_row_cut_at_cutoff(self, wp, d, n):
        t = transition(1.0, wp, d, n)
        sp = spectrum1d(t)
        kernel = build_kernel(t.source, t.target)
        builder = _TableBuilder(kernel, n)
        builder.extend(sp.cutoff + 300)
        amplitude = builder.amplitude
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
        with pytest.raises(PartialResultError) as info:
            spectrum1d(transition(1.0, 3.0, 3.0, 0), cap=8)
        partial = info.value.result
        assert partial.cutoff == 8
        assert partial.captured_mass < 1.0 - 1e-8

    def test_derived_fields_of_a_finished_spectrum(self):
        sp = spectrum1d(transition(1.0, 3.0, 3.0, 2))
        assert_derived_fields(sp)
        assert sp.captured_mass >= 1.0 - 1e-8

    def test_derived_fields_of_a_partial_spectrum(self):
        with pytest.raises(PartialResultError) as info:
            spectrum1d(transition(1.0, 3.0, 3.0, 2), cap=10)
        sp = info.value.result
        assert_derived_fields(sp)
        assert sp.cutoff == 10
        assert sp.captured_mass < 1.0 - 1e-8

    @pytest.mark.parametrize(
        "ratio,D,n", [(3.0, 9.0, 200), (2.0, 900.0, 40), (2.371, 486.0, 31), (3.026, 792.2, 32)]
    )
    def test_overfull_row_refused(self, ratio, D, n):
        # the row recurrence fails here: at the parent these spectra came
        # back with captured mass 1.2075, 1.1532, 1.2995 and 1.1233
        with pytest.raises(NumericOverflowError, match="mass"):
            spectrum1d(transition(1.0, ratio, math.sqrt(D), n))

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

    def test_refused_wide_spectrum_memory_grows_with_columns(self, traced_peak):
        # n = 300 spreads past the first fill and is refused by the mass
        # guard; all 301 rows of its table would take 2.6 MB, the amplitude
        # row's store of four rows takes well under 1 MB
        t = transition(1.0, 2.0, 2.0, 300)
        with pytest.raises(NumericOverflowError, match=r"spectrum of <300\|n'> carries mass"):
            spectrum1d(t)  # index factors built before tracing

        def refused():
            with pytest.raises(NumericOverflowError):
                spectrum1d(t)

        assert traced_peak(refused)[1] < 1e6

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

    def test_overfull_row_refused(self):
        # ratio 2, D 900: rows from 36 on pass unit mass by n' 600, and the
        # fullest, row 40, carries 1.5e8
        with pytest.raises(NumericOverflowError, match="mass") as info:
            coupling_matrix(OscillatorFrame(1.0), OscillatorFrame(2.0, 30.0), 40, 600)
        assert info.value.index == 40

    def test_is_the_table_times_the_prefactor(self):
        # the rows written into the result and scaled in place give the bits
        # of prefactor * table, and the defect formed inside the Gram matrix
        # those of max |V V^T - I|
        source, target = OscillatorFrame(1.0), OscillatorFrame(2.0, 1.5)
        kernel = build_kernel(source, target)
        values = kernel.prefactor * scaled_hermite_table(kernel, 30, 200)
        cm = coupling_matrix(source, target, 30, 200)
        assert cm.values.tobytes() == values.tobytes()
        assert cm.gram_defect == float(np.abs(values @ values.T - np.eye(31)).max())

    @pytest.mark.parametrize(
        "target,n_max,n_prime_max", [((1.5, 0.5), 400, 400), ((1.1, 0.0), 200, 3000)]
    )
    def test_memory_about_twice_the_result(self, traced_peak, target, n_max, n_prime_max):
        # the table's rows go straight into the result, whose only
        # result-sized companion is the Gram matrix (square) or the squares
        # summed for the mass check (wide); the fill holds four rows
        source, target = OscillatorFrame(1.0), OscillatorFrame(*target)
        coupling_matrix(source, target, 2, 10)  # index factors built before tracing
        cm, peak = traced_peak(lambda: coupling_matrix(source, target, n_max, n_prime_max))
        assert cm.values.shape == (n_max + 1, n_prime_max + 1)
        assert peak <= 2.2 * cm.values.nbytes

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

    def test_target_below_the_source_mirrors_the_candidates(self):
        # d = -4 mirrors d = +4: the same levels, the turning points swapped
        above = fc_candidates(transition(1.0, 3.0, 4.0, 2))
        below = fc_candidates(transition(1.0, 3.0, -4.0, 2))
        assert (below["near"], below["far"]) == (above["near"], above["far"]) == (4, 58)
        assert below["x_near"] == -above["x_near"] == pytest.approx(-math.sqrt(5.0))
        assert below["x_far"] == -above["x_far"]

    def test_returned_value_is_near_side(self):
        t = transition(1.0, 3.0, 4.0, 3)
        assert fc_estimate(t) == fc_candidates(t)["near"]

    def test_clamped_at_zero(self):
        assert fc_estimate(transition(1.0, 5.0, 0.0, 0)) == 0

    def test_finite_level_where_the_squared_frequency_overflows(self):
        # omega'^2 = 1e400 leaves double range; the level omega' d^2 / 2 - 1/2
        # is 49.5, which rounds up to 50
        cand = fc_candidates(transition(1.0, 1e200, 1e-99, 0))
        assert cand["near"] == cand["far"] == 50

    def test_level_past_the_cap_is_refused(self):
        # d^2 = 4096 and omega' = 4096.5/2048 or 4097/2048 put the level at
        # exactly 4096 or 4096.5, which rounds up past the cap
        assert fc_estimate(transition(1.0, 4096.5 / 2048, 64.0, 0)) == MODE_INDEX_CAP
        for wp, d in [(4097 / 2048, 64.0), (1e300, 1.0), (3.0, 1e150)]:
            with pytest.raises(CapExceededError, match="past the hard cap 4096"):
                fc_candidates(transition(1.0, wp, d, 0))

    def test_level_past_a_given_cap_is_refused(self):
        # near 2 (level 2.25) and far 66 (level 65.75): either past the cap
        # is refused
        t = transition(1.0, 3.0, 4.0, 3)
        assert fc_candidates(t, cap=66) == fc_candidates(t)
        for cap in (65, 10, 2):
            with pytest.raises(CapExceededError, match=f"is 65.749, past the hard cap {cap}$"):
                fc_candidates(t, cap=cap)
        with pytest.raises(CapExceededError, match="is 2.25098, past the hard cap 1$"):
            fc_candidates(t, cap=1)
        with pytest.raises(ValueError, match="cap must be non-negative"):
            fc_candidates(t, cap=-1)
