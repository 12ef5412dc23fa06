"""The benchmark's overlap reference against mpmath and closed forms.

    python3 -m pytest bench/tests -q
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference as ref  # noqa: E402

mp.mp.dps = 30


def _psi_mp(n, x, omega, center):
    xi = mp.sqrt(omega) * (x - center)
    norm = (omega / mp.pi) ** mp.mpf("0.25") / mp.sqrt(2 ** n * mp.factorial(n))
    return norm * mp.hermite(n, xi) * mp.exp(-xi * xi / 2)


def _overlap_mp(ratio, d, n, k):
    """<n|k'> by adaptive high-precision quadrature over many short pieces."""
    half = math.sqrt(2 * n + 1) + 10.0
    edges = mp.linspace(-half, half, 4 * int(half) + 8 + k // 2)
    return float(mp.quad(lambda x: _psi_mp(n, x, 1, 0) * _psi_mp(k, x, ratio, d), edges))


@pytest.mark.parametrize("ratio, big_d, n, k", [
    (3.0, 9.0, 0, 13),
    (3.0, 9.0, 5, 40),
    (1.5, 0.0, 2, 10),
    (4.2, 100.0, 7, 95),
    (2.0, 400.0, 0, 120),
])
def test_row_matches_mpmath(ratio, big_d, n, k):
    d = math.sqrt(big_d)
    row = ref.row_1d(1.0, ratio, d, n, k)
    assert row[k] == pytest.approx(_overlap_mp(ratio, d, n, k), abs=1e-13)


def test_tensor_matches_mpmath_rotated():
    """One cross-coupled entry, integrated in the lab frame: a 100 x 100
    Gauss-Legendre product rule on [-9, 9]^2 with the integrand in mpmath."""
    rx, ry, gamma, c = 2.0, 3.0, 1.5, (1.0, 1.5)
    freqs, axes = ref.normal_axes(rx, ry, gamma)
    tensor = ref.tensor_2d(rx, ry, gamma, c, 1, 0, 3, 2)
    nodes, weights = np.polynomial.legendre.leggauss(100)
    nodes, weights = 9.0 * nodes, 9.0 * weights
    src_x = [_psi_mp(1, mp.mpf(x), 1, 0) for x in nodes]
    src_y = [_psi_mp(0, mp.mpf(y), 1, 0) for y in nodes]
    total = mp.mpf(0)
    for i, x in enumerate(nodes):
        for j, y in enumerate(nodes):
            u1 = axes[0, 0] * (x - c[0]) + axes[0, 1] * (y - c[1])
            u2 = axes[1, 0] * (x - c[0]) + axes[1, 1] * (y - c[1])
            total += (weights[i] * weights[j] * src_x[i] * src_y[j]
                      * _psi_mp(2, mp.mpf(u1), freqs[0], 0) * _psi_mp(1, mp.mpf(u2), freqs[1], 0))
    assert tensor[2, 1] == pytest.approx(float(total), abs=1e-12)


def test_poisson_anchor():
    big_d = 37.0
    row = ref.row_1d(1.0, 1.0, math.sqrt(big_d), 0, 80)
    np.testing.assert_allclose(row ** 2, ref.poisson_probabilities(big_d, 80), atol=1e-14)


@pytest.mark.parametrize("ratio", [1.5, 3.0, 5.0])
def test_squeeze_anchor(ratio):
    row = ref.row_1d(1.0, ratio, 0.0, 0, 120)
    np.testing.assert_allclose(row ** 2, ref.squeeze_probabilities(ratio, 120), atol=1e-14)


def test_large_index_row_is_normalised():
    """Far past the double range of plain Gaussians, a full row keeps unit mass."""
    row = ref.row_1d(1.0, 5.0, 30.0, 0, 3500)
    assert np.all(np.isfinite(row))
    assert (row ** 2).sum() == pytest.approx(1.0, abs=1e-9)


def test_separable_tensor_is_outer_product():
    c = (2.0, 3.0)
    tensor = ref.tensor_2d(2.0, 3.0, 0.0, c, 1, 2, 40, 50)
    outer = np.outer(ref.row_1d(1.0, 2.0, c[0], 1, 40), ref.row_1d(1.0, 3.0, c[1], 2, 50))
    np.testing.assert_allclose(tensor, outer, atol=1e-14)


def test_coupled_tensor_is_complete():
    tensor = ref.tensor_2d(2.5, 1.8, -2.0, (3.0, 4.0), 2, 1, 160, 160)
    assert (tensor ** 2).sum() == pytest.approx(1.0, abs=1e-10)
