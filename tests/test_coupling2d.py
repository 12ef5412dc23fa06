import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

from selfoc import (
    CouplingTensor,
    NotPositiveDefiniteError,
    OscillatorFrame,
    PartialTensorError,
    Transition1D,
    Waveguide2D,
    coupled_tensor,
    normal_modes,
    overlap_closed,
    overlap_coupled,
    schmidt_report,
    spectrum2d_separable,
)


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

    def test_bad_center(self):
        with pytest.raises(ValueError):
            Waveguide2D(1.0, 1.0, 0.0, (math.nan, 0.0))

    def test_form_matrix(self):
        w = Waveguide2D(2.0, 3.0, 1.0)
        assert np.allclose(w.form_matrix, [[4.0, 0.5], [0.5, 9.0]])


class TestNormalModes:
    def test_uncoupled_keeps_axis_order(self):
        nm = normal_modes(Waveguide2D(1.0, 2.0))
        assert nm.theta == 0.0
        assert nm.frequencies == (1.0, 2.0)
        assert np.array_equal(nm.axes, np.eye(2))

    def test_degenerate_coupled(self):
        nm = normal_modes(Waveguide2D(1.0, 1.0, 1.0))
        assert nm.theta == pytest.approx(math.pi / 4)
        assert nm.omega_plus**2 == pytest.approx(1.5, rel=1e-14)
        assert nm.omega_minus**2 == pytest.approx(0.5, rel=1e-14)

    def test_ordering_descending_for_coupled(self):
        nm = normal_modes(Waveguide2D(1.0, 2.0, 1.0))
        assert nm.omega_plus > nm.omega_minus

    def test_theta_branch(self):
        nm = normal_modes(Waveguide2D(2.0, 1.0, 0.8))
        assert -math.pi / 4 < nm.theta <= math.pi / 4

    @pytest.mark.parametrize("seed", range(6))
    def test_round_trip_reconstruction(self, seed):
        rng = np.random.default_rng(seed)
        wx, wy = rng.uniform(0.5, 3.0, size=2)
        gamma = rng.uniform(-1.9, 1.9) * wx * wy
        w = Waveguide2D(wx, wy, gamma)
        nm = normal_modes(w)
        rebuilt = nm.omega_plus**2 * np.outer(nm.axes[0], nm.axes[0]) + (
            nm.omega_minus**2 * np.outer(nm.axes[1], nm.axes[1])
        )
        assert np.abs(rebuilt - w.form_matrix).max() < 1e-12

    def test_eigenvalues_match_closed_form(self):
        w = Waveguide2D(1.2, 0.8, 0.9)
        nm = normal_modes(w)
        evals = np.linalg.eigvalsh(w.form_matrix)
        assert nm.omega_minus**2 == pytest.approx(evals[0], rel=1e-13)
        assert nm.omega_plus**2 == pytest.approx(evals[1], rel=1e-13)


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

    def test_rejects_coupled_input(self):
        src = Waveguide2D(1.0, 1.0, 0.5)
        tgt = Waveguide2D(2.0, 3.0)
        with pytest.raises(ValueError):
            spectrum2d_separable(src, tgt, 0, 0)

    def test_partial_tensor(self):
        src, tgt = separable_pair()
        with pytest.raises(PartialTensorError) as info:
            spectrum2d_separable(src, tgt, 0, 0, cap=4)
        assert info.value.tensor.captured_mass < 1.0 - 1e-8


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
        nm = normal_modes(tgt)
        direct = overlap_coupled(src, tgt, 0, 0, 0, 0)
        sep = (
            overlap_closed(
                Transition1D(OscillatorFrame(1.0), OscillatorFrame(nm.omega_plus), 0), 0
            )
            * overlap_closed(
                Transition1D(OscillatorFrame(1.0), OscillatorFrame(nm.omega_minus), 0), 0
            )
        )
        assert abs(direct - sep) < 1e-10

    def test_identical_isotropic_profiles_unit_overlap(self):
        src = Waveguide2D(1.3, 1.3)
        assert overlap_coupled(src, src, 0, 0, 0, 0) == pytest.approx(1.0, abs=1e-12)


class TestCoupledTensor:
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
            with pytest.raises(PartialTensorError) as info:
                coupled_tensor(src, tgt, 0, 0, epsilon=epsilon, cap=cap)
            assert info.value.tensor.values.shape == (cap + 1, cap + 1)

    def test_matches_separable_when_uncoupled(self):
        src, tgt = separable_pair(dx=1.0, dy=0.5)
        sep = spectrum2d_separable(src, tgt, 1, 0, epsilon=1e-6)
        coup = coupled_tensor(src, tgt, 1, 0, epsilon=1e-6)
        n1 = min(sep.values.shape[0], coup.values.shape[0])
        n2 = min(sep.values.shape[1], coup.values.shape[1])
        assert np.abs(sep.values[:n1, :n2] - coup.values[:n1, :n2]).max() < 1e-10


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
            initial=(0, 0),
            epsilon=1e-8,
        )
        report = schmidt_report(ten)
        assert report.singular_values[0] == pytest.approx(1.0, abs=1e-15)
        assert report.entropy == 0.0

    def test_two_equal_singular_values(self):
        ten = CouplingTensor(
            values=np.diag([math.sqrt(0.5), math.sqrt(0.5)]),
            captured_mass=1.0,
            initial=(0, 0),
            epsilon=1e-8,
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
        ten = CouplingTensor(
            values=np.zeros((2, 2)), captured_mass=0.0, initial=(0, 0), epsilon=1e-8
        )
        with pytest.raises(ValueError):
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
    except PartialTensorError as err:
        return err.tensor, str(err)


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
