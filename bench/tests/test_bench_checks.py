"""Each checker passes a correct output and fails a corrupted one.

Correct outputs are built from the reference itself, in the program's
output formats, so these tests do not need selfoc.
"""

import math
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402

EPS = 1e-8


def _spectrum(ratio=3.0, big_d=9.0, n=0, eps=EPS):
    row = ref.row_1d(1.0, ratio, math.sqrt(big_d), n, 400)
    cutoff = int(np.searchsorted(np.cumsum(row ** 2), 1.0 - eps))
    amp = row[: cutoff + 1].copy()
    return {"amplitude": amp, "probability": amp * amp, "cutoff": cutoff,
            "n_prime": np.arange(cutoff + 1), "captured_mass": float((amp * amp).sum())}, row


def _fmt(v):
    return repr(float(v))


def _spectrum_csv(result):
    lines = ["n_prime,amplitude,probability"]
    lines += [f"{k},{_fmt(a)},{_fmt(p)}" for k, (a, p)
              in enumerate(zip(result["amplitude"], result["probability"])) if p != 0.0]
    return ("\n".join(lines) + "\n").encode()


def _cli_request(command="spectrum1d", **params):
    params = {"ratio": 3.0, "D": 9.0, "n": 0, "eps": EPS, **params}
    return {"id": "t", "kind": "cli", "command": command, "argv": [command],
            "params": params, "lib": workloads.library_form(command, params)}


def test_spectrum_passes_when_correct():
    result, row = _spectrum()
    assert checks.check_spectrum(result, row, EPS) == []


def test_spectrum_mass_above_one_fails():
    result, row = _spectrum()
    scale = math.sqrt(1.2 / result["captured_mass"])
    result["amplitude"] = result["amplitude"] * scale
    result["probability"] = result["amplitude"] ** 2
    result["captured_mass"] = float(result["probability"].sum())
    problems = checks.check_spectrum(result, row, EPS)
    assert any("captured mass" in p for p in problems)


def test_spectrum_sign_flip_at_argmax_fails():
    result, row = _spectrum()
    k = int(np.argmax(result["probability"]))
    result["amplitude"][k] *= -1.0  # probabilities and mass unchanged
    problems = checks.check_spectrum(result, row, EPS)
    assert problems and all("amplitude at" in p for p in problems)


def test_anchor_catches_wrong_probability():
    big_d = 16.0
    result, row = _spectrum(ratio=1.0, big_d=big_d)
    anchor = ref.poisson_probabilities(big_d, len(row) - 1)
    assert checks.check_spectrum(result, row, EPS, anchor) == []
    wrong = anchor.copy()
    wrong[3] *= 1.001
    assert any("analytic" in p for p in checks.check_spectrum(result, row, EPS, wrong))


def test_matrix_orthonormality_and_reference():
    rows = ref.rows_1d(1.0, 3.0, 3.0, 6, 300)
    gram = float(np.abs(rows @ rows.T - np.eye(7)).max())
    assert checks.check_matrix({"values": rows.copy(), "gram_defect": gram}, rows) == []
    bad = rows.copy()
    bad[2, 40] += 1e-6
    assert checks.check_matrix({"values": bad, "gram_defect": gram}, rows)


def test_tensor_mass_above_one_fails():
    expected = ref.tensor_2d(2.0, 3.0, 1.5, (2.0, 3.0), 1, 0, 80, 40)
    ok = {"values": expected.copy(), "captured_mass": float((expected ** 2).sum())}
    assert checks.check_tensor(ok, expected, 1e-6) == []
    big = expected * math.sqrt(1.2 / ok["captured_mass"])
    problems = checks.check_tensor({"values": big, "captured_mass": float((big ** 2).sum())},
                                   expected, 1e-6)
    assert any("captured mass" in p for p in problems)


def test_schmidt_consistency():
    expected = ref.tensor_2d(2.0, 3.0, 1.5, (2.0, 3.0), 1, 0, 80, 40)
    sigma = np.linalg.svd(expected, compute_uv=False)
    mass = float((sigma ** 2).sum())
    p = sigma ** 2 / mass
    entropy = float(-(p * np.log(p)).sum())
    assert checks.check_schmidt(sigma, entropy, mass, sigma, 1e-10) == []
    assert checks.check_schmidt(sigma, -0.1, mass, sigma, 1e-10)
    assert checks.check_schmidt(sigma, entropy, 1.2, sigma, 1e-10)


def test_cli_spectrum_passes_when_correct():
    result, _row = _spectrum()
    checker = checks.Checker()
    assert checker.check_cli(_cli_request(), 0, _spectrum_csv(result), "# warnings: none\n") == []


def test_cli_dropped_row_fails():
    result, _row = _spectrum()
    lines = _spectrum_csv(result).decode().splitlines()
    del lines[5]
    problems = checks.Checker().check_cli(_cli_request(), 0,
                                          ("\n".join(lines) + "\n").encode(), "")
    assert any("missing" in p for p in problems)


def test_cli_descending_rows_fail():
    result, _row = _spectrum()
    lines = _spectrum_csv(result).decode().splitlines()
    lines[3], lines[4] = lines[4], lines[3]
    problems = checks.Checker().check_cli(_cli_request(), 0,
                                          ("\n".join(lines) + "\n").encode(), "")
    assert any("ascending" in p for p in problems)


def test_cli_traceback_exit_fails():
    stderr = ("Traceback (most recent call last):\n"
              "selfoc.errors.PartialTensorError: captured mass 9.5e-207 < 0.999999999999\n")
    request = _cli_request("entropy", **{"ratio-x": 2, "ratio-y": 3, "D-x": 400, "D-y": 400,
                                         "gamma-prime": 1.5, "nx": 0, "ny": 0})
    request["fault"] = "entropy-partial"
    problems = checks.Checker().check_cli(request, 1, b"", stderr)
    assert "stderr shows a traceback" in problems
    assert any("exit code 1" in p for p in problems)
    # the mended behaviour: exit 3 with partial data and no traceback
    assert checks.Checker().check_cli(request, 3, b"k,sigma,p\n0,1,1\n", "") == []
