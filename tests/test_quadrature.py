import decimal
import hashlib
import json
import math
import os
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from selfoc import QuadratureRule, gauss_hermite
from selfoc.hermite import _ladder
from selfoc.quadrature import _initial_nodes, _scaled_pass

SQRT_PI = math.sqrt(math.pi)


def gaussian_moment(k: int) -> float:
    """Closed form for the weight-exp(-t^2) moment of degree k."""
    if k % 2 == 1:
        return 0.0
    double_fact = 1.0
    for j in range(k - 1, 0, -2):
        double_fact *= j
    return double_fact * SQRT_PI / 2.0 ** (k // 2)


def absolute_moment(k: int) -> float:
    """Integral of |t|^k exp(-t^2); the natural scale for odd-degree checks."""
    return math.gamma((k + 1) / 2.0)


class TestRuleGeneration:
    def test_order_one(self):
        rule = gauss_hermite(1)
        assert rule.nodes.tolist() == [0.0]
        assert rule.weights[0] == pytest.approx(SQRT_PI, rel=1e-15)

    def test_order_two_analytic(self):
        # solving the 2-point moment equations gives nodes +-1/sqrt(2),
        # equal weights sqrt(pi)/2
        rule = gauss_hermite(2)
        assert rule.nodes == pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)], rel=1e-14)
        assert rule.weights == pytest.approx([SQRT_PI / 2] * 2, rel=1e-14)

    @pytest.mark.parametrize("order", [2, 3, 7, 20, 65, 128, 513])
    def test_node_symmetry_and_total_weight(self, order):
        rule = gauss_hermite(order)
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.abs(rule.nodes + rule.nodes[::-1]).max() <= 1e-14
        if order % 2 == 1:
            assert rule.nodes[order // 2] == 0.0
        assert rule.weights.sum() == pytest.approx(SQRT_PI, rel=1e-13)

    @pytest.mark.parametrize("order", [2, 8, 64, 256])
    def test_weights_positive(self, order):
        # beyond order ~390 the extreme classical weights underflow double
        # range; within it they must be strictly positive
        rule = gauss_hermite(order)
        assert np.all(rule.weights > 0)

    def test_order_20_degree_10_moment(self):
        rule = gauss_hermite(20)
        value = float(rule.weights @ rule.nodes**10)
        assert value == pytest.approx(945.0 * SQRT_PI / 32.0, rel=1e-13)

    @pytest.mark.parametrize("order", [0, -3, 2049])
    def test_order_out_of_range(self, order):
        with pytest.raises(ValueError):
            gauss_hermite(order)

    def test_order_must_be_integer(self):
        with pytest.raises(ValueError):
            gauss_hermite(2.5)

    def test_rule_arrays_are_readonly(self):
        rule = gauss_hermite(4)
        with pytest.raises(ValueError):
            rule.nodes[0] = 0.0

    def test_large_order_generates(self):
        rule = gauss_hermite(2048)
        assert rule.weights.sum() == pytest.approx(SQRT_PI, rel=1e-13)
        assert np.all(rule.weights >= 0)


_REFERENCE_LOG = 512.0 * math.log(2.0)


def _reference_pass(order: int, x: np.ndarray):
    """The rule's Hermite-function sweep written out as its own loop, with
    the mid-sweep 2**-512 rescale of every level past 1e150: the reference
    the shared recurrence must reproduce bit for bit."""
    f_prev = np.ones_like(x)
    logscale = np.zeros_like(x)
    s = np.ones_like(x)
    f_cur = math.sqrt(2.0) * x * f_prev
    for k in range(1, order):
        s = s + f_cur * f_cur
        f_prev, f_cur = f_cur, (
            math.sqrt(2.0 / (k + 1)) * x * f_cur - math.sqrt(k / (k + 1)) * f_prev
        )
        big = np.abs(f_cur) > 1e150
        if big.any():
            factor = np.where(big, 2.0 ** -512, 1.0)
            f_prev = f_prev * factor
            f_cur = f_cur * factor
            s = s * factor * factor
            logscale = logscale + np.where(big, _REFERENCE_LOG, 0.0)
    return f_cur, f_prev, s, logscale


def _bits(a, shape):
    return np.broadcast_to(np.asarray(a, dtype=float), shape).tobytes()


PINNED_ORDERS = [*range(1, 301), 400, 513, 800, 1210, 2048]


def _pinned_points(order: int) -> np.ndarray:
    """The order's rule nodes and seeded points out past the largest node,
    where levels pass 1e150 and are rescaled."""
    reach = math.sqrt(2.0 * order) + 5.0
    rng = np.random.default_rng(order)
    nodes = gauss_hermite(order).nodes
    return np.concatenate([nodes, rng.uniform(-reach, reach, 64), [-reach, reach]])


def test_scaled_pass_bits_pinned():
    # levels are rescaled up to six times at order 2048; logscale is
    # bit-exact up to two rescales, and past that the weight
    # exp(-2 logscale) / s underflows to 0 whatever its last bits
    for order in PINNED_ORDERS:
        rule = gauss_hermite(order)
        x = _pinned_points(order)
        ref = _reference_pass(order, x)
        got = _scaled_pass(order, x)
        for name, a, b in zip(("f_n", "f_nm1", "s"), got[:3], ref[:3]):
            assert _bits(a, x.shape) == _bits(b, x.shape), (order, name)
        rescales = np.round(ref[3] / _REFERENCE_LOG)
        logscale = np.broadcast_to(got[3], x.shape)
        assert np.array_equal(np.round(logscale / _REFERENCE_LOG), rescales), order
        low = rescales <= 2
        assert logscale[low].tobytes() == ref[3][low].tobytes(), order
        with np.errstate(under="ignore"):
            w = SQRT_PI * np.exp(-2.0 * ref[3][:order]) / ref[2][:order]
        assert rule.weights.tobytes() == w.tobytes(), order


def test_newton_pair_is_the_pinned_pass_pair():
    # Newton reads level ``order`` and the level below straight from the
    # ladder; at these orders the last step rescales at one or two of the
    # points, where the level below is the ladder's rescaled copy
    rescaled_last = set()
    for order in PINNED_ORDERS:
        x = _pinned_points(order)
        (_, _, e_below), (f_n, f_nm1, e) = islice(_ladder(x), order - 1, order + 1)
        want_n, want_nm1 = _scaled_pass(order, x)[:2]
        assert f_n.tobytes() == want_n.tobytes(), order
        assert f_nm1.tobytes() == want_nm1.tobytes(), order
        if np.any(e != e_below):
            rescaled_last.add(order)
    assert rescaled_last == {271, 282, 288, 298}


#: SHA-256 of nodes.tobytes() + weights.tobytes() per order: however the
#: rule is built, no bit of a node or weight may move.
RULE_DIGESTS = {
    1: "eb58aac9bfc37805894d3b6d4ed21ff4dc9a8096eabcd92b092a8827ad392d28",
    2: "a012d445753d08f02e1287f4480ec6db6471d23ce3c057f8670efa5af874d0d4",
    3: "fe9881d6f3e545d6d20e2d2e685a007a20fb93d382e6eb0c55ebbdb5052e6c77",
    17: "593a24aaefc599d102ad0e237a2b10cc14624c13d3aa927f0158ddf60a581b2d",
    60: "3e712e9dfec8e4c8f204d988de0ccbe06f80fd5b006b8462e6b70f5b8123b7f0",
    127: "9efe635b8fcaf15d852d04c3e2d8bd8b0838fce3ffd5b3ec1b21332d5e590bba",
    200: "c746fd739944f946a44ab274ee9d925cb9645b63c8254b6fbe21c6365b8cd3a4",
    555: "9fb7e1ac04a25eb356fa9fe2bfb39cb562fc372ba18a88c8a489e25b115f82fa",
    2048: "89d75739c55674b518b854df76b0e60e2f00c1893ec5eed2e9126271dfdcdfd2",
}


@pytest.mark.parametrize("order", sorted(RULE_DIGESTS))
def test_rule_bits_pinned(order):
    rule = gauss_hermite(order)
    digest = hashlib.sha256(rule.nodes.tobytes() + rule.weights.tobytes()).hexdigest()
    assert digest == RULE_DIGESTS[order]


class TestExactness:
    @pytest.mark.parametrize("order", [1, 2, 8, 32, 128])
    def test_even_moments_exact(self, order):
        rule = gauss_hermite(order)
        for k in range(0, 2 * order, 2):
            value = float(rule.weights @ rule.nodes**k)
            assert value == pytest.approx(gaussian_moment(k), rel=1e-12), (order, k)

    @pytest.mark.parametrize("order", [2, 8, 32, 128])
    def test_odd_moments_vanish(self, order):
        # tolerance scales with the integrand's absolute mass, which is
        # what bounds the summation roundoff for high degrees
        rule = gauss_hermite(order)
        for k in range(1, 2 * order, 2):
            value = float(rule.weights @ rule.nodes**k)
            assert abs(value) <= max(1e-13, 1e-12 * absolute_moment(k)), (order, k)

    @pytest.mark.parametrize("order,seed", [(5, 0), (9, 1), (16, 2), (40, 3)])
    def test_random_polynomials(self, order, seed):
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, size=2 * order)  # degree 2*order - 1
        rule = gauss_hermite(order)
        powers = rule.nodes[:, None] ** np.arange(2 * order)[None, :]
        value = float(rule.weights @ (powers @ coeffs))
        expected = sum(c * gaussian_moment(k) for k, c in enumerate(coeffs))
        scale = sum(abs(c) * absolute_moment(k) for k, c in enumerate(coeffs))
        assert abs(value - expected) <= 1e-12 * scale

    def test_refinement_stability(self):
        def smooth(x):
            return 1.0 + 0.3 * x + 0.5 * x**2 - 0.1 * x**5 + 0.02 * x**6

        results = [float(r.weights @ smooth(r.nodes)) for r in map(gauss_hermite, (8, 16, 24))]
        assert results[0] == pytest.approx(results[1], rel=1e-12)
        assert results[1] == pytest.approx(results[2], rel=1e-12)


def test_rules_are_cached_and_shared():
    assert gauss_hermite(12) is gauss_hermite(12)


def test_dataclass_roundtrip():
    rule = gauss_hermite(3)
    clone = QuadratureRule(nodes=rule.nodes.copy(), weights=rule.weights.copy())
    assert np.array_equal(clone.nodes, rule.nodes)


_COLD_PROBE = """
import contextlib, io, json, sys
import selfoc, selfoc.cli
rules = [selfoc.gauss_hermite(order) for order in (1, 5, 200)]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = selfoc.cli.run(["coupled2d", "--ratio-x", "1.5", "--ratio-y", "2",
                           "--gamma-prime", "0.8", "--eps", "1e-5"])
print(json.dumps({"code": code,
                  "scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy"),
                  "nodes": [[v.hex() for v in r.nodes.tolist()] for r in rules],
                  "weights": [[v.hex() for v in r.weights.tolist()] for r in rules]}))
"""


def test_scipy_never_loaded():
    # rules are built from numpy alone: neither import, nor rules of any
    # order, nor a coupled CLI run may load scipy
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _COLD_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    probe = json.loads(proc.stdout)
    assert probe["code"] == 0
    assert probe["scipy"] == []
    for order, nodes, weights in zip((1, 5, 200), probe["nodes"], probe["weights"]):
        rule = gauss_hermite(order)
        assert [float.fromhex(v) for v in nodes] == rule.nodes.tolist()
        assert [float.fromhex(v) for v in weights] == rule.weights.tolist()
    rule = gauss_hermite(5)
    r = math.sqrt(10.0)
    outer, inner = math.sqrt((5 + r) / 2), math.sqrt((5 - r) / 2)
    assert rule.nodes == pytest.approx([-outer, -inner, 0.0, inner, outer], rel=1e-14, abs=0)


AGREEMENT_ORDERS = [*range(1, 301), 400, 513, 800, 1210, 2048]


def _eigensolver_rule(order: int):
    """The rule as built from eigensolver starts (the tridiagonal Jacobi
    matrix) with the same Newton polish: the reference the asymptotic
    starts must reproduce to a few ulps."""
    off = np.sqrt(np.arange(1, order) / 2.0)
    x = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    sqrt2n = math.sqrt(2.0 * order)
    for _ in range(100):
        f_n, f_nm1, _, _ = _scaled_pass(order, x)
        dx = f_n / (sqrt2n * f_nm1 - x * f_n)
        x = x - dx
        if np.all(np.abs(dx) <= 1e-15 * np.maximum(1.0, np.abs(x))):
            break
    x = 0.5 * (x - x[::-1])
    _, _, s, logscale = _scaled_pass(order, x)
    with np.errstate(under="ignore"):
        return x, SQRT_PI * np.exp(-2.0 * logscale) / s


def test_rules_ascend_pair_exactly_and_sum_to_sqrt_pi():
    for order in AGREEMENT_ORDERS:
        rule = gauss_hermite(order)
        # the asymptotic starts are as close as the docstring says, so the
        # polish stays at two or three passes
        start_error = np.abs(_initial_nodes(order) - rule.nodes).max()
        assert start_error <= (3e-3 if order < 20 else 3e-5 if order < 2048 else 2e-8), order
        assert np.all(np.diff(rule.nodes) > 0), order
        assert np.array_equal(rule.nodes, -rule.nodes[::-1]), order
        assert rule.weights.sum() == pytest.approx(SQRT_PI, rel=1e-13), order


def test_rules_match_eigensolver_starts():
    tiny = np.finfo(float).tiny
    for order in AGREEMENT_ORDERS:
        rule = gauss_hermite(order)
        nodes, weights = _eigensolver_rule(order)
        ulps = np.abs(rule.nodes - nodes) / np.spacing(np.abs(nodes))
        assert ulps.max() <= 4, (order, ulps.max())
        # past order ~390 the extreme weights underflow; compare those absolutely
        np.testing.assert_allclose(rule.weights, weights, rtol=1e-12, atol=tiny, err_msg=str(order))


_FACTORS_PROBE = """
import selfoc.cli
from selfoc.hermite import _index_factors
built = _index_factors.cache_info().currsize
selfoc.spectrum1d(selfoc.Transition1D(selfoc.OscillatorFrame(1.0), selfoc.OscillatorFrame(3.0, 3.0), 0))
print(built, _index_factors.cache_info().currsize)
"""


def test_index_factors_built_only_by_first_table():
    # import stays cheap for the cold CLI: the per-process index factors of
    # the closed-form table are built on first use, not at import
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _FACTORS_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert proc.stdout.split() == ["0", "1"]


def _zero_to_50_digits(order: int, x: float) -> decimal.Decimal:
    """The zero of H_order next to x: three Newton steps on the three-term
    recurrence in 50-digit decimal arithmetic, H_order' = 2 order H_(order-1)."""
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        z = decimal.Decimal(x)
        for _ in range(3):
            h_prev, h = decimal.Decimal(0), decimal.Decimal(1)
            for k in range(order):
                h_prev, h = h, 2 * z * h - 2 * k * h_prev
            z -= h / (2 * order * h_prev)
        return z


@pytest.mark.parametrize("order", [1830, 2048])
def test_node_accuracy_at_high_order(order):
    # the six innermost positive nodes, within 1e-16 absolute (order 1830's
    # innermost is 16.5 ulps off), and six from |x| = 1 to the edge, within
    # 2 ulps
    nodes = gauss_hermite(order).nodes
    positive = nodes[nodes > 0.0]
    outer = np.linspace(np.searchsorted(positive, 1.0), positive.size - 1, 6).astype(int)
    for x in positive[:6].tolist() + positive[outer].tolist():
        error = abs(float(decimal.Decimal(x) - _zero_to_50_digits(order, x)))
        assert error <= (1e-16 if x < 1.0 else 2.0 * math.ulp(x)), (x, error)
