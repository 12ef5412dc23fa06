"""Acceptance criteria: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

The argmax targets of criteria 1-4 and the first clause of 5 are pinned
reference values for the shipped scenario set.  Where the dual-path
verified computation disagrees with a reference value, the test still
asserts the reference (it is the criterion) and the printed line records
the computed value and the probability gap, so a failure here documents
the disagreement rather than a code defect; the cross-route agreement
asserts nearby are the correctness checks.
"""

import math
import time

import numpy as np

from selfoc import (
    OscillatorFrame,
    Transition1D,
    Waveguide2D,
    coupled_tensor,
    coupling_matrix,
    fc_estimate,
    overlap_closed,
    overlap_coupled,
    overlap_quad,
    schmidt_report,
    spectrum1d,
    spectrum2d_separable,
)
from selfoc.quadrature import gauss_hermite

SQRT_PI = math.sqrt(math.pi)


def _line(num, ok, detail):
    print(f"CRITERION {num:2d} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _transition(ratio, big_d, n):
    return Transition1D(OscillatorFrame(1.0), OscillatorFrame(ratio, math.sqrt(big_d)), n)


def _dual_ok(a, b):
    return abs(a - b) <= max(1e-13, 1e-10 * max(abs(a), abs(b)))


def test_criterion_01_planar_ground_argmax():
    started = time.perf_counter()
    sp = spectrum1d(_transition(3.0, 9.0, 0))
    elapsed = time.perf_counter() - started
    computed = sp.argmax
    gap = sp.probability[computed] - (sp.probability[13] if len(sp) > 13 else 0.0)
    ok = computed == 13 and elapsed < 1.0
    _line(
        1,
        ok,
        f"spectrum1d(ratio=3, D=9, n=0) argmax: reference 13, computed {computed} "
        f"(P[{computed}]={sp.probability[computed]:.6g}, P[13]={sp.probability[13]:.6g}, "
        f"gap {gap:.3g}); runtime {elapsed:.3f}s < 1s",
    )


def test_criterion_02_planar_excited_argmax():
    t = _transition(3.0, 16.0, 3)
    sp = spectrum1d(t)
    computed = sp.argmax
    # both routes must agree regardless of where the maximum lands
    dual = all(
        _dual_ok(overlap_closed(t, m), overlap_quad(t, m))
        for m in range(min(len(sp), 41))
    )
    gap = sp.probability[computed] - sp.probability[5]
    ok = dual and computed == 5
    _line(
        2,
        ok,
        f"spectrum1d(ratio=3, D=16, n=3) argmax: reference 5, computed {computed} "
        f"(probability gap to 5: {gap:.3g}); dual-path agreement {'ok' if dual else 'BROKEN'}",
    )


def test_criterion_03_elliptic_ground_pair():
    src = Waveguide2D(1.0, 1.0)
    tgt = Waveguide2D(2.0, 3.0, 0.0, (3.0, 4.0))
    ten = spectrum2d_separable(src, tgt, 0, 0)
    pair = ten.argmax
    ok = set(pair) == {23, 8}
    i, j = pair
    _line(
        3,
        ok,
        f"separable 2D (ratios 2,3; shifts 9,16; initial (0,0)) argmax pair: "
        f"reference {{23, 8}}, computed ordered {pair} "
        f"(P{pair}={ten.probability[i, j]:.6g})",
    )


def test_criterion_04_elliptic_excited_pair():
    src = Waveguide2D(1.0, 1.0)
    tgt = Waveguide2D(2.0, 3.0, 0.0, (4.0, 4.0))
    ten = spectrum2d_separable(src, tgt, 2, 1)
    pair = ten.argmax
    ok = set(pair) == {8, 4}
    i, j = pair
    _line(
        4,
        ok,
        f"separable 2D (ratios 2,3; shifts 16,16; initial (2,1)) argmax pair: "
        f"reference {{8, 4}}, computed ordered {pair} "
        f"(P{pair}={ten.probability[i, j]:.6g})",
    )


def test_criterion_05_semiclassical_estimate():
    anchor = fc_estimate(_transition(3.0, 9.0, 0))
    misses = []
    for ratio in np.linspace(1.5, 4.0, 5):
        for big_d in np.linspace(4.0, 25.0, 4):
            t = _transition(float(ratio), float(big_d), 0)
            estimate = fc_estimate(t)
            argmax = spectrum1d(t).argmax
            if abs(estimate - argmax) > 1:
                misses.append((round(float(ratio), 3), round(float(big_d), 1), estimate, argmax))
    ok = anchor == 13 and not misses
    _line(
        5,
        ok,
        f"fc_estimate(ratio=3, D=9, n=0) = {anchor} (reference 13); "
        f"20-point grid |estimate - argmax| <= 1: "
        f"{'all within 1' if not misses else f'{len(misses)} points off by 2: {misses}'}",
    )


def test_criterion_06_dual_path_suite():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    failures = 0
    for _ in range(200):
        omega = rng.uniform(0.3, 3.0)
        omega_p = omega * rng.uniform(0.2, 5.0)
        d = math.sqrt(rng.uniform(0.0, 25.0) / omega) * rng.choice([-1.0, 1.0])
        n, m = int(rng.integers(0, 41)), int(rng.integers(0, 41))
        t = Transition1D(OscillatorFrame(omega), OscillatorFrame(omega_p, d), n)
        a, b = overlap_closed(t, m), overlap_quad(t, m)
        diff = abs(a - b)
        tol = max(1e-13, 1e-10 * max(abs(a), abs(b)))
        worst = max(worst, diff / tol)
        if diff > tol:
            failures += 1
    elapsed = time.perf_counter() - started
    ok = failures == 0 and elapsed < 10.0
    _line(
        6,
        ok,
        f"200 randomized transitions (n, n' <= 40): {failures} outside "
        f"rel 1e-10 / abs 1e-13 (worst {worst:.2e} of tolerance); "
        f"runtime {elapsed:.2f}s < 10s",
    )


def test_criterion_07_sum_rule():
    eps = 1e-8
    masses = {}
    for label, t in (
        ("planar r3 D9 n0", _transition(3.0, 9.0, 0)),
        ("planar r3 D16 n3", _transition(3.0, 16.0, 3)),
    ):
        masses[label] = spectrum1d(t, epsilon=eps).captured_mass
    src = Waveguide2D(1.0, 1.0)
    masses["elliptic ground"] = spectrum2d_separable(
        src, Waveguide2D(2.0, 3.0, 0.0, (3.0, 4.0)), 0, 0, epsilon=eps
    ).captured_mass
    masses["elliptic excited"] = spectrum2d_separable(
        src, Waveguide2D(2.0, 3.0, 0.0, (4.0, 4.0)), 2, 1, epsilon=eps
    ).captured_mass
    ok = all(1.0 - eps <= m <= 1.0 + 1e-12 for m in masses.values())
    detail = ", ".join(f"{k}: {v:.12f}" for k, v in masses.items())
    _line(7, ok, f"captured mass within [1-1e-8, 1+1e-12] on all scenarios ({detail})")


def test_criterion_08_orthogonality_defect():
    cm = coupling_matrix(OscillatorFrame(1.0), OscillatorFrame(3.0, 3.0), 20, 400)
    ok = cm.gram_defect < 1e-8
    _line(8, ok, f"Gram defect for N=20, N'=400: {cm.gram_defect:.3e} < 1e-8")


def test_criterion_09_symmetries():
    rng = np.random.default_rng(7)
    worst_parity = worst_exchange = worst_scale = 0.0
    for _ in range(100):
        omega = rng.uniform(0.3, 3.0)
        omega_p = omega * rng.uniform(0.2, 5.0)
        d = math.sqrt(rng.uniform(0.01, 25.0) / omega)
        n, m = int(rng.integers(0, 21)), int(rng.integers(0, 21))
        plus = overlap_closed(
            Transition1D(OscillatorFrame(omega), OscillatorFrame(omega_p, d), n), m
        )
        minus = overlap_closed(
            Transition1D(OscillatorFrame(omega), OscillatorFrame(omega_p, -d), n), m
        )
        worst_parity = max(worst_parity, abs(plus - (-1.0) ** (n + m) * minus))
        swapped = overlap_closed(
            Transition1D(OscillatorFrame(omega_p), OscillatorFrame(omega, -d), m), n
        )
        worst_exchange = max(worst_exchange, abs(plus - swapped))
        lam = rng.uniform(0.2, 5.0)
        scaled = overlap_closed(
            Transition1D(
                OscillatorFrame(lam * omega),
                OscillatorFrame(lam * omega_p, d / math.sqrt(lam)),
                n,
            ),
            m,
        )
        worst_scale = max(worst_scale, abs(plus * plus - scaled * scaled))
    ok = max(worst_parity, worst_exchange, worst_scale) < 1e-12
    _line(
        9,
        ok,
        f"100-case symmetry sweeps: parity {worst_parity:.2e}, "
        f"exchange {worst_exchange:.2e}, scale {worst_scale:.2e} (all < 1e-12)",
    )


def test_criterion_10_coupled_reduction_and_entropy():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(50):
        wx, wy = rng.uniform(0.5, 2.5, size=2)
        rx, ry = rng.uniform(0.5, 3.0, size=2)
        dx, dy = rng.uniform(-2.0, 2.0, size=2)
        nx, ny = int(rng.integers(0, 6)), int(rng.integers(0, 6))
        k1, k2 = int(rng.integers(0, 11)), int(rng.integers(0, 11))
        src = Waveguide2D(wx, wy)
        tgt = Waveguide2D(wx * rx, wy * ry, 0.0, (dx, dy))
        got = overlap_coupled(src, tgt, nx, ny, k1, k2)
        want = overlap_closed(
            Transition1D(OscillatorFrame(wx), OscillatorFrame(wx * rx, dx), nx), k1
        ) * overlap_closed(
            Transition1D(OscillatorFrame(wy), OscillatorFrame(wy * ry, dy), ny), k2
        )
        worst = max(worst, abs(got - want))

    ground = spectrum2d_separable(
        Waveguide2D(1.0, 1.0), Waveguide2D(2.0, 3.0, 0.0, (3.0, 4.0)), 0, 0, epsilon=1e-6
    )
    entropy_flat = schmidt_report(ground).entropy
    bent = coupled_tensor(
        Waveguide2D(1.0, 1.3), Waveguide2D(2.0, 3.0, 1.0, (1.0, 0.5)), 0, 0, epsilon=1e-6
    )
    entropy_bent = schmidt_report(bent).entropy
    ok = worst < 1e-10 and entropy_flat < 1e-10 and entropy_bent > 1e-10
    _line(
        10,
        ok,
        f"gamma=0 coupled vs separable over 50 cases: worst {worst:.2e} < 1e-10; "
        f"aligned ground-state entropy {entropy_flat:.2e} < 1e-10; "
        f"coupled-target entropy {entropy_bent:.3g} > 0",
    )


def test_criterion_11_quadrature_moments():
    worst = 0.0
    for order in (1, 2, 8, 32, 128):
        rule = gauss_hermite(order)
        for k in range(0, 2 * order):
            value = float(rule.weights @ rule.nodes**k)
            if k % 2 == 1:
                # zero moments: measure against the integrand's absolute mass
                scale = math.gamma((k + 1) / 2.0)
                worst = max(worst, abs(value) / scale)
                continue
            double_fact = 1.0
            for j in range(k - 1, 0, -2):
                double_fact *= j
            expected = double_fact * SQRT_PI / 2.0 ** (k // 2)
            worst = max(worst, abs(value - expected) / expected)
    ok = worst < 1e-12
    _line(
        11,
        ok,
        f"moment exactness for orders {{1, 2, 8, 32, 128}}, degrees <= 2k-1: "
        f"worst relative deviation {worst:.2e} < 1e-12",
    )
