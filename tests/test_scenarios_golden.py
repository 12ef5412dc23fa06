"""The shipped scenarios must keep their output.

The closed-form scenarios are compared byte for byte through the SHA-256
of their standard output.  The cross-coupled entropy scenario goes through
a GEMM and an SVD whose last bits depend on the BLAS build, so its rows are
compared numerically instead.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest

from selfoc.cli import run

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

CLOSED_FORM = {
    "planar_stretch3_shift9": (
        "spectrum1d",
        "0d30229bd82a86e7f40fdbe749e9ebb2fd80f9552b0db42450e2675a5a52812b",
    ),
    "planar_stretch3_shift16_n3": (
        "spectrum1d",
        "6096d111dcb07609316251cf56e07e5e19bbcaf6f30419709d4175eda70228a7",
    ),
    "elliptic_ground": (
        "spectrum2d",
        "6378d44c4a709400c81d7176754809bbb6c6e938abdab1599ce289f980312d76",
    ),
    "elliptic_excited": (
        "spectrum2d",
        "dd268e85f812e6554c3da724dd43cac7ed908920b69f59f9901fd51dacc17fc7",
    ),
}

#: Leading Schmidt rows (k, sigma, p) of coupled_entropy; every later row is
#: SVD round-off of a rank-2 tensor.
COUPLED_LEADING = [
    (0, 0.989400356207462, 0.9789131833864751),
    (1, 0.14521299549425565, 0.021086816613524913),
]
COUPLED_ROWS = 33


def stdout_of(capsys, kind, name):
    code = run([kind, "--scenario", str(SCENARIO_DIR / f"{name}.scenario")])
    assert code == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_closed_form_scenario_is_byte_identical(capsys, name):
    kind, digest = CLOSED_FORM[name]
    out = stdout_of(capsys, kind, name)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_coupled_entropy_scenario_matches(capsys):
    lines = stdout_of(capsys, "entropy", "coupled_entropy").splitlines()
    assert lines[0] == "k,sigma,p"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert len(rows) == COUPLED_ROWS
    assert np.array_equal(rows[:, 0], np.arange(COUPLED_ROWS))
    leading = np.array(COUPLED_LEADING)
    np.testing.assert_allclose(rows[:2], leading, rtol=1e-12, atol=0.0)
    assert np.all(rows[2:, 1] < 1e-13)
