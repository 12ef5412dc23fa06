import hashlib
import itertools
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
    hermite_scaled,
    scaled_hermite_table,
)
from selfoc import _dd as dd
from selfoc.hermite import OverlapKernel, _index_factors, _TableBuilder

#: Column block of the table fill before it filled in place: ``_ReferenceFill``
#: still splits its fills into blocks this wide.
_FILL_BLOCK = 1024


def hermite_by_sum(n, xi):
    """Independent oracle: explicit coefficient sum with exact factorials."""
    total = 0.0
    for k in range(n // 2 + 1):
        coeff = (-1) ** k * math.factorial(n) // (
            math.factorial(k) * math.factorial(n - 2 * k)
        )
        total += coeff * (2.0 * xi) ** (n - 2 * k)
    return total


def hermite_phys(n, xi):
    """Physicists' H_n(xi) by the replacement README gives for the raw
    recurrence: ``hermite_scaled(n, xi) * sqrt(2**n n!)``."""
    return hermite_scaled(n, xi) * math.sqrt(2.0**n * math.factorial(n))


class TestHermitePhys:
    def test_h0_is_one(self):
        assert hermite_phys(0, 1.7) == 1.0

    def test_h1(self):
        assert hermite_phys(1, 0.5) == pytest.approx(1.0, rel=1e-15)

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
        # recurrence was shared with the coupled stacks and the rules
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


    @pytest.mark.parametrize(
        "n,expected", [(714, 1.0026604431227648e308), (721, 1.0849497179390723e308)]
    )
    def test_finite_past_intermediate_overflow(self, n, expected):
        # mpmath values; an unscaled ladder overflows on the way (inf, NaN)
        xi = 37.683665396080485
        assert hermite_scaled(n, xi) == pytest.approx(expected, rel=1e-12)
        vals = hermite_scaled(n, np.array([xi, -xi]))
        assert vals == pytest.approx([expected, (-1) ** n * expected], rel=1e-12)

    @pytest.mark.parametrize("n,omega", [(0, 1.0), (5, 1.0), (3, 2.5)])
    def test_normalization_by_quadrature(self, n, omega):
        l = omega ** -0.5
        rule = gauss_hermite(n + 9)
        # psi^2 = (polynomial part)^2 * exp(-(x/l)^2): integrate the
        # polynomial part against the rule's own Gaussian, x = l t

        def poly_part(x):
            return (math.pi ** -0.5 / l) * hermite_scaled(n, x / l) ** 2

        norm = l * rule.weights @ poly_part(l * rule.nodes)
        assert norm == pytest.approx(1.0, rel=1e-12)


class TestOscillatorFrame:
    @pytest.mark.parametrize("omega", [0.0, -1.0, math.inf, math.nan])
    def test_bad_omega(self, omega):
        with pytest.raises(ValueError):
            OscillatorFrame(omega)

    def test_bad_center(self):
        with pytest.raises(ValueError):
            OscillatorFrame(1.0, math.inf)


class TestBuildKernel:
    def test_identical_frames(self):
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(1.0))
        coeffs = [dd.to_float(c) for c in (k.r11, k.r12, k.r22, k.ry1, k.ry2)]
        assert np.allclose(coeffs, [0.0, -2.0, 0.0, 0.0, 0.0], atol=1e-15)
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
        assert dd.to_float(k.r11) == pytest.approx(2 * (l * l - lp * lp) / big, abs=1e-15)
        assert k.r22 == dd.neg(k.r11)
        assert dd.to_float(k.r12) == pytest.approx(-4 * l * lp / big, rel=1e-15)
        # oracle-fixed sign: R y = (2 d l / L, -2 d l' / L)
        assert dd.to_float(k.ry1) == pytest.approx(2 * d * l / big, rel=1e-14, abs=1e-300)
        assert dd.to_float(k.ry2) == pytest.approx(-2 * d * lp / big, rel=1e-14, abs=1e-300)
        assert k.prefactor == pytest.approx(
            math.sqrt(2 * l * lp / big) * math.exp(-d * d / (2 * big)), rel=1e-13
        )

    def test_displacement_is_target_minus_source(self):
        k1 = build_kernel(OscillatorFrame(1.0, 1.0), OscillatorFrame(1.0, 3.0))
        k2 = build_kernel(OscillatorFrame(1.0, 0.0), OscillatorFrame(1.0, 2.0))
        assert np.allclose([k1.ry1, k1.ry2], [k2.ry1, k2.ry2])
        assert k1.prefactor == pytest.approx(k2.prefactor)

    def test_out_of_range_steps_refused_without_warnings(self):
        # d / omega leaves double range inside the double-double steps; with
        # warnings as errors the refusal must be the NumericOverflowError,
        # not numpy's "overflow encountered in scalar multiply"
        source = OscillatorFrame(1.3219264946074055e-140, -3.26571073259077e281)
        target = OscillatorFrame(8.580373148017826e99, -2.5608131557821784e282)
        with pytest.raises(NumericOverflowError, match="kernel .* not finite"):
            build_kernel(source, target)


def taylor_table(kernel, top):
    """Brute-force oracle: Taylor coefficients of the generating function
    exp(a^T R y - a^T R a / 2), converted to scaled-table entries."""
    size = 2 * top + 1
    s = np.zeros((size, size))
    s[1, 0] = dd.to_float(kernel.ry1)
    s[0, 1] = dd.to_float(kernel.ry2)
    s[2, 0] = -0.5 * dd.to_float(kernel.r11)
    s[0, 2] = -0.5 * dd.to_float(kernel.r22)
    s[1, 1] = -dd.to_float(kernel.r12)

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
        assert scaled_hermite_table(k, 0, 0)[0, 0] == 1.0

    def test_one_step_by_hand(self):
        # h[1][0] = (R y)_1 / sqrt(2)
        k = build_kernel(OscillatorFrame(1.0), OscillatorFrame(1.0, 1.0))
        ry1 = dd.to_float(k.ry1)
        table = scaled_hermite_table(k, 1, 0)
        assert table[1, 0] == pytest.approx(ry1 / math.sqrt(2.0), rel=1e-14)
        assert table[1, 0] == pytest.approx(0.7071067811865476, rel=1e-14)

    def test_identical_frames_give_identity(self):
        k = build_kernel(OscillatorFrame(2.3), OscillatorFrame(2.3))
        table = scaled_hermite_table(k, 12, 12)
        assert np.abs(k.prefactor * table - np.eye(13)).max() < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_against_taylor_oracle(self, seed):
        rng = np.random.default_rng(seed)
        k = build_kernel(
            OscillatorFrame(rng.uniform(0.5, 2.0)),
            OscillatorFrame(rng.uniform(0.5, 2.0), rng.uniform(-1.5, 1.5)),
        )
        expected = taylor_table(k, 4)
        got = scaled_hermite_table(k, 4, 4)
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
            table[0, 0] = 5.0


def seeded_dd(rng, shape):
    """A double-double array: magnitudes 1e-300-1e300 of both signs, +-0.0
    in both words, and high words past 2**996, where a split turns into NaN."""
    hi = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-300.0, 300.0, shape)
    flat_hi = hi.reshape(-1)
    # near the square root of the subnormal range, where products round
    flat_hi[4::6] = np.sign(flat_hi[4::6]) * 10.0 ** rng.uniform(-166.0, -150.0, flat_hi[4::6].shape)
    lo = hi * rng.uniform(-1.0, 1.0, shape) * 2.0**-54
    flat_lo = lo.reshape(-1)
    flat_hi[::7], flat_hi[3::7] = 0.0, -0.0
    flat_lo[::5], flat_lo[2::5] = 0.0, -0.0
    flat_hi[5::11] *= 2.0 ** (997 + 26 * rng.random(flat_hi[5::11].shape)) / np.abs(flat_hi[5::11])
    return hi, lo


def with_signed_zeros(x, y):
    """x and y with their first 16 entries set to every combination of
    signed zeros in their four words."""
    words = [w.reshape(-1) for w in (*x, *y)]
    for i, signs in enumerate(itertools.product([0.0, -0.0], repeat=4)):
        for word, sign in zip(words, signs):
            word[i] = sign
    return x, y


def assert_same_words(got, want):
    """Each word equal bit for bit where ``want`` is finite, and non-finite
    at the same places."""
    for g, w in zip(got, want):
        g, w = np.asarray(g), np.broadcast_to(w, np.shape(g))
        finite = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), finite)
        assert g[finite].tobytes() == w[finite].tobytes()


class TestArrayForms:
    """The ``_dd`` forms that write into given arrays, in the shapes the row
    fill uses them, give the bits of the plain ``split``, ``mul`` and
    ``sub``; the table fill itself only reaches values a table produces."""

    @pytest.fixture(autouse=True)
    def _quiet(self):
        with np.errstate(all="ignore"):
            yield

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_split_into(self, seed):
        a = seeded_dd(np.random.default_rng(seed), (2, 40))[0]
        out = np.empty((2, 2, 40))
        dd.split_into(a, out)
        assert_same_words(out, dd.split(a))

    @pytest.mark.parametrize(
        "x_shape,y_shape",
        [
            ((2, 40), (2, 40)),  # the index-factor products, stacked
            ((3, 1), (41,)),  # (ry1, r12, r11) times a row window
            ((40,), ()),  # a row times a 0-d factor
            ((40,), (1,)),  # a row times 1/sqrt(2n), a (1,) view of the factor table
        ],
    )
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mul_into(self, seed, x_shape, y_shape):
        rng = np.random.default_rng(seed)
        x, y = seeded_dd(rng, x_shape), seeded_dd(rng, y_shape)
        if x_shape == y_shape:
            x, y = with_signed_zeros(x, y)
        shape = np.broadcast_shapes(x_shape, y_shape)
        out, work = np.empty((2,) + shape), np.empty((2,) + shape)
        dd.mul_into(x, dd.split(x[0]), y, dd.split(y[0]), out, work)
        assert_same_words(out, dd.mul(x, y))

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_sub_into(self, seed, in_place):
        rng = np.random.default_rng(seed)
        x, y = with_signed_zeros(seeded_dd(rng, (60,)), seeded_dd(rng, (60,)))
        y[0][16::3], y[1][16::3] = x[0][16::3], x[1][16::3]  # exact cancellations
        want = dd.sub(x, y)
        out = x if in_place else np.empty((2, 60))
        dd.sub_into(x, y, out, np.empty((3, 60)))
        assert_same_words(out, want)


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
        grown, once = top_row_fills(kernel, n), top_row_fills(kernel, n)
        for m in self.STEPS:
            for fill in grown:
                fill.extend(m)
        for fill in once:
            fill.extend(self.STEPS[-1])
        for a, b in zip(grown, once):
            assert a.m == b.m == self.STEPS[-1]
            assert_same_bits(a.hi[-1, 1:], b.hi[-1, 1:])
            assert_same_bits(a.lo[-1, 1:], b.lo[-1, 1:])

    @pytest.mark.parametrize("n", [0, 1, 2, 5, 20])
    @pytest.mark.parametrize(
        "w,wp,d", [(1.0, 3.0, 3.0), (1.0, 1.5, 0.0), (0.7, 2.1, -4.0), (2.0, 0.5, 1.5)]
    )
    def test_ring_top_row_matches_every_row(self, w, wp, d, n):
        # the store (row 0, a two-slot ring, the top row) holds the top row
        # of the plain-call fill, bit for bit, with or without a caller's
        # array, and the array gets every row as hi + lo, after every extend
        # of the irregular split and in no column past it
        kernel = build_kernel(OscillatorFrame(w), OscillatorFrame(wp, d))
        rows = np.full((n + 1, self.STEPS[-1] + 1), np.nan)
        ring, every = _TableBuilder(kernel, n), _TableBuilder(kernel, n, rows)
        want, top = _ReferenceFill(kernel, n), min(n, 3)
        for m in self.STEPS:
            for fill in (ring, every, want):
                fill.extend(m)
            for fill in (ring, every):
                assert len(fill.hi) == len(fill.lo) == top + 1
                assert_same_bits(fill.hi[top, 1:], want.hi[n])
                assert_same_bits(fill.lo[top, 1:], want.lo[n])
            for k in range(n + 1):
                assert_same_bits(rows[k, :m + 1], want.hi[k] + want.lo[k])
            assert np.isnan(rows[:, m + 1:]).all()
            assert_same_bits(ring.amplitude, every.amplitude)

    def test_store_holds_at_most_four_rows(self):
        # one storage mode: however many rows, and whether or not the caller
        # takes every row, a builder keeps row 0, a two-slot ring and its top
        # row, and writes that top row into the caller's array
        kernel = build_kernel(OscillatorFrame(1.0), OscillatorFrame(1.5, 0.5))
        for n in range(51):
            for rows in (None, np.empty((n + 1, 41))):
                fill = _TableBuilder(kernel, n, rows)
                fill.extend(40)
                assert fill.hi.shape == fill.lo.shape == (min(n, 3) + 1, 42)
                if rows is not None:
                    assert rows.shape == (n + 1, 41)
                    assert_same_bits(rows[n], fill.hi[-1, 1:] + fill.lo[-1, 1:])

    def test_overflow_below_the_top_row_is_named_from_the_ring(self):
        # coefficients picked so that row 3 of 6, a ring row, leaves double
        # range first, at column 154, and the rows above it only there: a
        # builder, with or without a caller's array, names the entry the
        # plain-call fill names, however the columns were split
        kernel = OverlapKernel((-1.0, 0.0), (-0.36, 0.0), (1.0, 0.0), (-5.25, 0.0), (934.5, 0.0), 1.0)
        named = set()
        for steps in ([300], [100, 153, 154, 300], range(301)):
            for fill in (_TableBuilder(kernel, 6), _TableBuilder(kernel, 6, np.empty((7, 301))),
                         _ReferenceFill(kernel, 6)):
                with pytest.raises(NumericOverflowError) as info:
                    for m in steps:
                        fill.extend(m)
                named.add((info.value.index, str(info.value)))
        assert named == {((3, 154), "scaled Hermite table overflowed at entry (n=3, m=154)")}

    def test_overflow_entry_does_not_depend_on_the_split(self):
        # row 20 leaves double range first, at column 1728, and lower rows
        # later (row 6 at 1981, row 0 at 2103): a scan of each block row by
        # row would name an entry that depends on the split
        kernel = build_kernel(OscillatorFrame(1.0), OscillatorFrame(30.0, math.sqrt(5000.0)))
        splits = [
            [4096], [_FILL_BLOCK, 4096], [1100, 4096], [1000, 2000], [1700, 1750, 2000],
            [1727, 1728, 2000], [64, 96, 144, 216, 324, 486, 729, 1093, 1639, 2458],
            range(4097),  # column by column
        ]
        named = set()
        for steps in splits:
            builder = _TableBuilder(kernel, 20)
            with pytest.raises(NumericOverflowError) as info:
                for m in steps:
                    builder.extend(m)
            named.add((info.value.index, str(info.value)))
        assert named == {((20, 1728), "scaled Hermite table overflowed at entry (n=20, m=1728)")}


class _ReferenceFill:
    """The table fill as it was before the one-loop row-0 kernel: every
    double-double operation a ``_dd`` call, row 0 included, and the index
    factors rebuilt per table.  Kept here only as the bit-for-bit reference
    of ``_TableBuilder``."""

    def __init__(self, kernel, n_rows):
        self.c = kernel
        self.n_rows = n_rows
        self.m = -1
        self.hi = [np.empty(0) for _ in range(n_rows + 1)]
        self.lo = [np.empty(0) for _ in range(n_rows + 1)]
        self.sq = (np.empty(0), np.empty(0))
        self.inv = (np.empty(0), np.empty(0))

    def _factors(self, m_new):
        k0 = len(self.sq[0])
        if m_new + 1 <= k0:
            return
        k = np.arange(k0, m_new + 1, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            sq = dd.sqrt(dd.from_float(k / 2.0))
        if k0 == 0:
            sq = (np.where(k == 0.0, 0.0, sq[0]), np.where(k == 0.0, 0.0, sq[1]))
        inv = dd.div(dd.from_float(np.ones_like(k)), dd.sqrt(dd.from_float(2.0 * (k + 1.0))))
        self.sq = tuple(np.concatenate([a, b]) for a, b in zip(self.sq, sq))
        self.inv = tuple(np.concatenate([a, b]) for a, b in zip(self.inv, inv))

    def extend(self, m_new):
        with np.errstate(over="ignore", invalid="ignore"):
            while self.m < m_new:
                self._extend(min(m_new, self.m + _FILL_BLOCK))

    def _extend(self, m_new):
        self._factors(max(m_new, self.n_rows) + 1)
        c, m_old = self.c, self.m
        hi0, lo0 = self.hi[0], self.lo[0]
        if m_old < 0:
            prev, cur, new = None, (1.0, 0.0), [(1.0, 0.0)]
            m_old = 0
        else:
            prev = (float(hi0[m_old - 1]), float(lo0[m_old - 1])) if m_old >= 1 else None
            cur, new = (float(hi0[m_old]), float(lo0[m_old])), []
        ry2 = (float(c.ry2[0]), float(c.ry2[1]))
        r22 = (float(c.r22[0]), float(c.r22[1]))
        sq = zip(self.sq[0][m_old:m_new].tolist(), self.sq[1][m_old:m_new].tolist())
        inv = zip(self.inv[0][m_old:m_new].tolist(), self.inv[1][m_old:m_new].tolist())
        for sq_m, inv_m in zip(sq, inv):
            acc = dd.mul(ry2, cur)
            if prev is not None:
                acc = dd.sub(acc, dd.mul(dd.mul(r22, prev), sq_m))
            prev, cur = cur, dd.mul(acc, inv_m)
            new.append(cur)
        new_hi, new_lo = zip(*new)
        self.hi[0] = np.concatenate([hi0, new_hi])
        self.lo[0] = np.concatenate([lo0, new_lo])

        lo_col = self.m + 1 if self.m >= 0 else 0
        sl = slice(lo_col, m_new + 1)
        sq_m = (self.sq[0][sl], self.sq[1][sl])
        for n in range(1, self.n_rows + 1):
            prev = (self.hi[n - 1][sl], self.lo[n - 1][sl])
            if lo_col == 0:
                shifted = (np.concatenate([[0.0], self.hi[n - 1][lo_col:m_new]]),
                           np.concatenate([[0.0], self.lo[n - 1][lo_col:m_new]]))
            else:
                shifted = (self.hi[n - 1][lo_col - 1:m_new], self.lo[n - 1][lo_col - 1:m_new])
            acc = dd.mul(c.ry1, prev)
            if n >= 2:
                below = (self.hi[n - 2][sl], self.lo[n - 2][sl])
                t = dd.mul(dd.mul(c.r11, below), (self.sq[0][n - 1], self.sq[1][n - 1]))
                acc = dd.sub(acc, t)
            acc = dd.sub(acc, dd.mul(dd.mul(c.r12, shifted), sq_m))
            val = dd.mul(acc, (self.inv[0][n - 1], self.inv[1][n - 1]))
            self.hi[n] = np.concatenate([self.hi[n][:lo_col], val[0]])
            self.lo[n] = np.concatenate([self.lo[n][:lo_col], val[1]])
        self.m = m_new

        # column first: the first column holding a non-finite entry, at its
        # lowest row
        bad = ~np.isfinite(np.vstack(self.hi))
        if bad.any():
            m_bad = int(np.argmax(bad.any(axis=0)))
            n = int(np.argmax(bad[:, m_bad]))
            raise NumericOverflowError(
                f"scaled Hermite table overflowed at entry (n={n}, m={m_bad})",
                index=(n, m_bad),
            )


def seeded_fill_cases(count=24):
    """(ratio, D, n, extend steps): ratio 0.3-5, D 0-900, n 0-20, and steps
    that split the columns irregularly across the fill block."""
    rng = np.random.default_rng(1010)
    out = []
    for i in range(count):
        ratio = float(rng.uniform(0.3, 5.0))
        big_d = float(rng.uniform(0.0, 900.0)) if i % 3 else 0.0
        n = int(rng.integers(0, 21))
        last = int(rng.integers(40, 1500))
        steps = sorted({int(s) for s in rng.integers(0, last, size=int(rng.integers(0, 6)))})
        if i % 4 == 1:  # one and two columns filled before a block
            steps = [0, 1] + [s for s in steps if s > 1]
        out.append((ratio, big_d, n, steps + [last]))
    return out


def top_row_fills(kernel, n):
    """One builder per row k = 0..n of the kernel's table, whose top row is
    row k: ``fills[k].hi[-1, 1:]`` and ``.lo[-1, 1:]`` are row k's words."""
    return [_TableBuilder(kernel, k) for k in range(n + 1)]


def assert_same_bits(a, b):
    assert a.dtype == b.dtype == np.float64
    assert a.tobytes() == b.tobytes()


class TestFillBitsPinned:
    """Every entry of the table, high and low word, equals the plain
    ``_dd``-call fill bit for bit, however the columns are split."""

    @pytest.mark.parametrize(
        "case",
        seeded_fill_cases()
        # single extends of up to 4096 columns, which the blocked fill split
        + [(1.5, 0.0, 20, [4096]), (2.0, 100.0, 8, [1024, 3000, 4096])],
        ids=lambda c: f"r{c[0]:.2f}-D{c[1]:.0f}-n{c[2]}",
    )
    def test_matches_dd_call_fill(self, case):
        ratio, big_d, n, steps = case
        kernel = build_kernel(OscillatorFrame(1.0), OscillatorFrame(ratio, math.sqrt(big_d)))
        fills, want = top_row_fills(kernel, n), _ReferenceFill(kernel, n)
        for m in steps:
            want.extend(m)
            for k, fill in enumerate(fills):
                fill.extend(m)
                assert fill.m == want.m == m
                assert_same_bits(fill.hi[-1, 1:], want.hi[k])
                assert_same_bits(fill.lo[-1, 1:], want.lo[k])

    def test_index_factor_table(self):
        # the process table holds the reference's factors and their splits
        f = _index_factors()
        assert f.shape == (8, MODE_INDEX_CAP + 3)
        assert not f.flags.writeable
        want = _ReferenceFill(None, 0)
        want._factors(MODE_INDEX_CAP + 2)
        for rows, (hi, lo) in ((f[:4], want.sq), (f[4:], want.inv)):
            assert_same_bits(rows[0], hi)
            assert_same_bits(rows[1], lo)
            for got, split in zip(rows[2:], dd.split(rows[0])):
                assert_same_bits(got, split)

    @pytest.mark.parametrize(
        "ratio,big_d,n,steps",
        [
            # exp(-750) prefactor: row 0 passes double range at column 1699
            (3.0, 2000.0, 0, [1800]),
            # row 4 passes it first, at column 1641
            (3.0, 2000.0, 4, [300, 1100, 1800]),
            # row 20 passes it first, at column 1728 (row 6 at 1981)
            (30.0, 5000.0, 20, [1000, 2000]),
        ],
    )
    def test_overflow_index_matches(self, ratio, big_d, n, steps):
        kernel = build_kernel(OscillatorFrame(1.0), OscillatorFrame(ratio, math.sqrt(big_d)))
        errors = []
        for fill in (_TableBuilder(kernel, n), _ReferenceFill(kernel, n)):
            with pytest.raises(NumericOverflowError) as info:
                for m in steps:
                    fill.extend(m)
            errors.append((info.value.index, str(info.value)))
        assert errors[0] == errors[1]
        assert errors[0][0][1] > _FILL_BLOCK
