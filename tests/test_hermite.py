import hashlib
import math
import struct

import numpy as np
import pytest

from selfoc import (
    MODE_INDEX_CAP,
    CapExceededError,
    NumericOverflowError,
    OscillatorFrame,
    build_kernel,
    gauss_hermite,
    hermite_phys,
    hermite_scaled,
    integrate,
    oscillator_psi,
    scaled_hermite_table,
)
from selfoc.hermite import _FILL_BLOCK, _TableBuilder


def hermite_by_sum(n, xi):
    """Independent oracle: explicit coefficient sum with exact factorials."""
    total = 0.0
    for k in range(n // 2 + 1):
        coeff = (-1) ** k * math.factorial(n) // (
            math.factorial(k) * math.factorial(n - 2 * k)
        )
        total += coeff * (2.0 * xi) ** (n - 2 * k)
    return total


class TestHermitePhys:
    def test_h0_is_one(self):
        assert hermite_phys(0, 1.7) == 1.0

    def test_h1(self):
        assert hermite_phys(1, 0.5) == 1.0

    def test_h3_at_one(self):
        # direct polynomial: 8 - 12
        assert hermite_phys(3, 1.0) == pytest.approx(-4.0, rel=1e-14)

    @pytest.mark.parametrize("n", range(13))
    def test_recurrence_matches_coefficient_sum(self, n):
        rng = np.random.default_rng(100 + n)
        for xi in rng.uniform(-3.0, 3.0, size=8):
            expected = hermite_by_sum(n, xi)
            assert hermite_phys(n, xi) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_accepts_arrays(self):
        xi = np.linspace(-2, 2, 7)
        vals = hermite_phys(2, xi)
        assert np.allclose(vals, 4 * xi**2 - 2)

    def test_cap(self):
        with pytest.raises(CapExceededError):
            hermite_phys(MODE_INDEX_CAP + 1, 0.3)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            hermite_phys(-1, 0.3)

    def test_non_integer_index(self):
        with pytest.raises(TypeError):
            hermite_phys(2.0, 0.3)


HERMITE_SCALED_SHA256 = "7ef4913896c9d79205bee9280b7bac9128107b2b7b4e360a083ff73a6efc7f52"


class TestHermiteScaled:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 9])
    def test_matches_raw_over_factorial(self, n):
        xi = 1.3
        expected = hermite_by_sum(n, xi) / math.sqrt(2.0**n * math.factorial(n))
        assert type(hermite_scaled(n, xi)) is float
        assert hermite_scaled(n, xi) == pytest.approx(expected, rel=1e-12)
        vals = hermite_scaled(n, np.full((2, 3), xi))
        assert vals.shape == (2, 3)
        assert np.all(vals == hermite_scaled(n, xi))

    def test_no_overflow_at_large_index(self):
        # raw H_500(2) has ~570 digits; the scaled form stays tame
        assert np.isfinite(hermite_scaled(500, 2.0))

    def test_bits_pinned(self):
        # every level 0..400 on a seeded grid with |xi| <= 30, as an array
        # and point by point as scalars; the digest was recorded before the
        # recurrence was shared with oscillator_psi and the coupled stacks
        rng = np.random.default_rng(7)
        xi = np.concatenate([rng.uniform(-30.0, 30.0, 60), [-30.0, -0.0, 0.0, 30.0]])
        grid = xi.reshape(8, 8)
        digest = hashlib.sha256()
        for n in range(401):
            vals = hermite_scaled(n, grid)
            assert vals.shape == grid.shape
            digest.update(vals.tobytes())
            for x in xi[::7]:
                val = hermite_scaled(n, float(x))
                assert type(val) is float
                digest.update(struct.pack("<d", val))
        assert digest.hexdigest() == HERMITE_SCALED_SHA256


class TestOscillatorFrame:
    def test_length(self):
        assert OscillatorFrame(4.0).length == 0.5

    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
    def test_bad_omega(self, omega):
        with pytest.raises(ValueError):
            OscillatorFrame(omega)

    def test_bad_center(self):
        with pytest.raises(ValueError):
            OscillatorFrame(1.0, math.inf)


class TestOscillatorPsi:
    def test_ground_state_peak(self):
        assert oscillator_psi(0.0, 0, OscillatorFrame(1.0)) == pytest.approx(
            math.pi ** -0.25, rel=1e-14
        )

    @pytest.mark.parametrize("omega,d", [(1.0, 0.0), (3.0, 2.0), (0.4, -1.5)])
    def test_shifted_ground_state_at_center(self, omega, d):
        frame = OscillatorFrame(omega, d)
        assert oscillator_psi(d, 0, frame) == pytest.approx(
            (omega / math.pi) ** 0.25, rel=1e-14
        )

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11])
    def test_parity_exact(self, n):
        frame = OscillatorFrame(1.7)
        x = np.linspace(0.1, 3.0, 9)
        left = oscillator_psi(-x, n, frame)
        right = (-1.0) ** n * oscillator_psi(x, n, frame)
        assert left.shape == x.shape
        assert np.array_equal(left, right)
        assert type(oscillator_psi(x[0], n, frame)) is float

    @pytest.mark.parametrize("n,omega", [(0, 1.0), (5, 1.0), (3, 2.5)])
    def test_normalization_by_quadrature(self, n, omega):
        frame = OscillatorFrame(omega)
        l = frame.length
        rule = gauss_hermite(n + 9)
        # psi^2 = (polynomial part)^2 * exp(-(x/l)^2): integrate the
        # polynomial part against the rule's own Gaussian
        norm = integrate(
            rule,
            lambda x: (math.pi ** -0.5 / l) * hermite_scaled(n, x / l) ** 2,
            shift=0.0,
            scale=l,
        )
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_matches_explicit_formula_small_n(self):
        frame = OscillatorFrame(2.0, 0.5)
        x = 1.1
        xi = (x - 0.5) * math.sqrt(2.0)
        expected = (
            (2.0 / math.pi) ** 0.25
            / math.sqrt(2.0**3 * math.factorial(3))
            * hermite_by_sum(3, xi)
            * math.exp(-0.5 * xi * xi)
        )
        assert oscillator_psi(x, 3, frame) == pytest.approx(expected, rel=1e-13)


class TestBuildKernel:
    def test_identical_frames(self):
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(1.0))
        assert np.allclose(k.r, [[0.0, -2.0], [-2.0, 0.0]], atol=1e-15)
        assert np.allclose(k.y, [0.0, 0.0])
        assert k.prefactor == pytest.approx(1.0, abs=1e-15)

    def test_stretch_prefactor(self):
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(3.0))
        assert k.prefactor == pytest.approx(0.930604859102099, rel=1e-12)

    def test_shift_prefactor(self):
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(1.0, 1.0))
        assert k.prefactor == pytest.approx(math.exp(-0.25), rel=1e-13)

    @pytest.mark.parametrize(
        "w,wp,d", [(1.0, 3.0, 3.0), (2.0, 0.5, -1.2), (0.7, 0.7, 4.0)]
    )
    def test_fields_reproduce_formulas(self, w, wp, d):
        k = build_kernel(OscillatorFrame(w), OscillatorFrame(wp, d))
        l, lp = w**-0.5, wp**-0.5
        big = l * l + lp * lp
        assert k.l == pytest.approx(l, rel=1e-15)
        assert k.l_prime == pytest.approx(lp, rel=1e-15)
        assert k.r[0, 0] == pytest.approx(2 * (l * l - lp * lp) / big, abs=1e-15)
        assert k.r[1, 1] == pytest.approx(-k.r[0, 0], abs=1e-16)
        assert k.r[0, 1] == pytest.approx(-4 * l * lp / big, rel=1e-15)
        assert k.r[1, 0] == k.r[0, 1]
        # oracle-fixed sign: y = (d l / L, -d l' / L)
        assert k.y[0] == pytest.approx(d * l / big, rel=1e-14, abs=1e-300)
        assert k.y[1] == pytest.approx(-d * lp / big, rel=1e-14, abs=1e-300)
        assert k.prefactor == pytest.approx(
            math.sqrt(2 * l * lp / big) * math.exp(-d * d / (2 * big)), rel=1e-13
        )

    def test_displacement_is_target_minus_source(self):
        k1 = build_kernel(OscillatorFrame(1.0, 1.0), OscillatorFrame(1.0, 3.0))
        k2 = build_kernel(OscillatorFrame(1.0, 0.0), OscillatorFrame(1.0, 2.0))
        assert np.allclose(k1.y, k2.y)
        assert k1.prefactor == pytest.approx(k2.prefactor)


def taylor_table(kernel, top):
    """Brute-force oracle: Taylor coefficients of the generating function
    exp(a^T R y - a^T R a / 2), converted to scaled-table entries."""
    size = 2 * top + 1
    s = np.zeros((size, size))
    ry = kernel.r @ kernel.y
    s[1, 0] = ry[0]
    s[0, 1] = ry[1]
    s[2, 0] = -0.5 * kernel.r[0, 0]
    s[0, 2] = -0.5 * kernel.r[1, 1]
    s[1, 1] = -kernel.r[0, 1]

    def polymul(a, b):
        out = np.zeros((size, size))
        for i in range(size):
            for j in range(size):
                if a[i, j] == 0.0:
                    continue
                out[i : size, j : size] += a[i, j] * b[: size - i, : size - j]
        return out

    series = np.zeros((size, size))
    series[0, 0] = 1.0
    term = series.copy()
    for k in range(1, 2 * size):
        term = polymul(term, s) / k
        series += term
    h = np.empty((top + 1, top + 1))
    for n in range(top + 1):
        for m in range(top + 1):
            h[n, m] = series[n, m] * math.sqrt(
                math.factorial(n) * math.factorial(m) / 2.0 ** (n + m)
            )
    return h


class TestScaledHermiteTable:
    def test_seed_entry(self):
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(2.0, 0.7))
        assert scaled_hermite_table(k, 0, 0).h[0, 0] == 1.0

    def test_one_step_by_hand(self):
        # h[1][0] = (R y)_1 / sqrt(2)
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(1.0, 1.0))
        ry1 = float((k.r @ k.y)[0])
        table = scaled_hermite_table(k, 1, 0)
        assert table.h[1, 0] == pytest.approx(ry1 / math.sqrt(2.0), rel=1e-14)
        assert table.h[1, 0] == pytest.approx(0.7071067811865476, rel=1e-14)

    def test_identical_frames_give_identity(self):
        k = build_kernel(OscillatorFrame(2.3), OscillatorFrame(2.3))
        table = scaled_hermite_table(k, 12, 12)
        assert np.abs(k.prefactor * table.h - np.eye(13)).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_taylor_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = build_kernel(
            OscillatorFrame(rng.uniform(0.5, 2.0)),
            OscillatorFrame(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5)),
        )
        expected = taylor_table(k, 4)
        got = scaled_hermite_table(k, 4, 4).h
        assert np.abs(got - expected).max() < 1e-12

    def test_overflow_reports_index(self):
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(1.0, 1e8))
        with pytest.raises(NumericOverflowError) as info:
            scaled_hermite_table(k, 0, 200)
        assert info.value.index is not None

    def test_cap(self):
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(1.0))
        with pytest.raises(CapExceededError):
            scaled_hermite_table(k, MODE_INDEX_CAP + 1, 1)

    def test_table_is_readonly(self):
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(2.0))
        table = scaled_hermite_table(k, 3, 3)
        with pytest.raises(ValueError):
            table.h[0, 0] = 5.0


class TestTableChunking:
    """The table must not depend on how its columns were split into fills:
    spectra size their fills from an estimate and rely on this."""

    STEPS = (0, 1, 2, 9, 63, 64, 200, _FILL_BLOCK + 76, _FILL_BLOCK + 300)

    @pytest.mark.parametrize("n", [0, 5, 20])
    @pytest.mark.parametrize(
        "w,wp,d", [(1.0, 3.0, 3.0), (1.0, 1.5, 0.0), (0.7, 2.1, -4.0), (2.0, 0.5, 1.5)]
    )
    def test_irregular_extends_match_one_extend(self, w, wp, d, n):
        kernel = build_kernel(OscillatorFrame(w), OscillatorFrame(wp, d))
        grown = _TableBuilder(kernel, n)
        for m in self.STEPS:
            grown.extend(m)
        once = _TableBuilder(kernel, n)
        once.extend(self.STEPS[-1])
        assert grown.m == once.m == self.STEPS[-1]
        for k in range(n + 1):
            assert np.array_equal(grown._hi[k], once._hi[k])
            assert np.array_equal(grown._lo[k], once._lo[k])
