"""The shipped scenarios and every subcommand must keep their output.

The closed-form commands are compared byte for byte through the SHA-256
of their standard output, and of their run report without its
``wall_time_s`` line, in each output format.  The commands that go through
a GEMM or an SVD (``coupled2d`` and ``entropy``) have last bits that depend
on the BLAS build, so their output is compared against ``golden_cli.json``
with every number at rtol 1e-12 and all other text exactly: headers, JSON
keys in order, row counts and report lines.
"""

import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from selfoc.cli import run

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN_CLI = Path(__file__).resolve().parent / "golden_cli.json"

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


def scenario_path(name):
    return str(SCENARIO_DIR / f"{name}.scenario")


#: Commands pinned in every output format: the hashed ones by SHA-256, the
#: GEMM/SVD ones numerically against ``golden_cli.json``.
COMMANDS = {
    "spectrum1d_scenario": ["spectrum1d", "--scenario", scenario_path("planar_stretch3_shift9")],
    "spectrum2d_scenario": ["spectrum2d", "--scenario", scenario_path("elliptic_excited")],
    "matrix": ["matrix", "--ratio", "2", "--D", "4", "--n-max", "3", "--n-prime-max", "30"],
    "fc_estimate": ["fc-estimate", "--ratio", "3", "--D", "16", "--n", "3"],
    "spectrum1d_partial": ["spectrum1d", "--ratio", "3", "--D", "9", "--cap", "8"],
    "spectrum2d_partial": ["spectrum2d", "--ratio-x", "2", "--ratio-y", "3", "--cap", "0"],
    "entropy_separable": [
        "entropy", "--ratio-x", "2", "--ratio-y", "3", "--D-x", "1", "--D-y", "1", "--eps", "1e-6",
    ],
    "entropy_coupled": ["entropy", "--scenario", scenario_path("coupled_entropy")],
    "coupled2d": [
        "coupled2d", "--ratio-x", "1.5", "--ratio-y", "2", "--D-x", "1",
        "--gamma-prime", "0.8", "--eps", "1e-4",
    ],
}

#: (command, format) -> (exit code, SHA-256 of stdout, SHA-256 of stderr
#: without its wall_time_s line), recorded before the emitters were merged.
HASHED = {
    ("spectrum1d_scenario", "csv"): (
        0,
        "0d30229bd82a86e7f40fdbe749e9ebb2fd80f9552b0db42450e2675a5a52812b",
        "e214b567fa8bb0f606f01857a308d4a9cf472e5670b149c06f21f9b0e8420c14",
    ),
    ("spectrum1d_scenario", "json"): (
        0,
        "cdef966f03177a2ea1cdcbc0afd628cd101a00ee646890327f90b89effff4b70",
        "9ae9b723498a89b76faf525dd554b3be230bf4b784b0c5d8b719b1fd029e1726",
    ),
    ("spectrum1d_scenario", "plot"): (
        0,
        "11ad727e072ca4611261473956b09e8ae677b5fc08d48995b009833e7a3f78b8",
        "75b15102bfa65457af2a8f1e50b409374848e0bbc05ed33418a8b25ada956417",
    ),
    ("spectrum2d_scenario", "csv"): (
        0,
        "dd268e85f812e6554c3da724dd43cac7ed908920b69f59f9901fd51dacc17fc7",
        "744a728607f9c1ac52f204ec2e8669c34a7f7832f509d04de858e8d9eeb59186",
    ),
    ("spectrum2d_scenario", "json"): (
        0,
        "6f80f9f711fcb81eb2e05d4a7bc15705a230788baf9dd06214542ec34df6d199",
        "6ee72efad8d4cb222b24c0a4da28a8e22c0919ae7493eaea348a2c2a817ae9be",
    ),
    ("spectrum2d_scenario", "plot"): (
        0,
        "e95b3bf1892df70c888c44177e9857eb252920aef794d72b1722f9298cbae88c",
        "afb4db075833bb05e4f71c4f6858540704f1abf5ee2fb0ee5d93010290424893",
    ),
    ("matrix", "csv"): (
        0,
        "f934dad393f297447a30cdeacc077e6a538cbfaa371df16d1c784a641f363216",
        "dde8bd4f88ad7281c35c2c9a8b67e4c0f1c4a47113698a8ce042a616b9eb9921",
    ),
    ("matrix", "json"): (
        0,
        "c89aa66506dc6ec9c7c43bdac9386af36b703b1d921ac1afb4c266dac34fc215",
        "b66f18fbd4d725eee8f16598b3b2e887ba6b5c4f234295197c9545baa35efb07",
    ),
    ("matrix", "plot"): (
        0,
        "0bac52ab325e4ecb5065f5f6a7207cd5ad1bea95a9eab46849340885ad17df19",
        "829481fd83a97b9529f249ff9888a9c2ecf5ea9f2caf19915d424cbb53955692",
    ),
    ("fc_estimate", "csv"): (
        0,
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "8a9607c41855ade743f967d78b6919c618ddb17f1338ee8a25609c2c322117c4",
    ),
    ("fc_estimate", "json"): (
        0,
        "a52eb40505a6aacb6621eb41b4dc6d1fbe7665d678808082bd4a307a7b96d677",
        "76158710e0e2f669dd85a9de11ca5b3f278251dc580d41a0c055ede684904752",
    ),
    ("fc_estimate", "plot"): (
        0,
        "53c234e5e8472b6ac51c1ae1cab3fe06fad053beb8ebfd8977b010655bfdd3c3",
        "8da048e9791a7e99fe707a2c4b1fbffb755fb9a431c13719dfeed728a971ef72",
    ),
    ("spectrum1d_partial", "csv"): (
        3,
        "3fb60b1f603c9f173ca708963e4446e623c0c337e16fcde1b96909226089393f",
        "7533373dbfae99ae50032d711f53305dd6ce017d9fd109d5fab88065bfab40d1",
    ),
    ("spectrum1d_partial", "json"): (
        3,
        "d006bc481c3600e10fdd9c787e531113bdc23c771a19a3b5191c28ae5dc2adc7",
        "83ca8290f42e642166c0b7711ebbc0de83477848baa00684c71ddd4ef7a63cbe",
    ),
    ("spectrum1d_partial", "plot"): (
        3,
        "3a0ee6cba9918338ddc1da79dad83db39086ce6f2abd58239d224bb4d72afb02",
        "e6c612bd0f98e63e7abd01f19caf4c0964343e53f9353db74fafe7d4a4231f5f",
    ),
    ("spectrum2d_partial", "csv"): (
        3,
        "a5dbee5fda93da670ed7f205ca7d35a705c1bbcc3a21c2824ad7cc6cceee35ab",
        "0e3236bf7150a486d43fca414130476bebf01bfe0b19ad8af42c01cec2990082",
    ),
    ("spectrum2d_partial", "json"): (
        3,
        "64022bce929dd7085239fb2a2f0f815dd02db48dd0451c6dda165deffee3f2a8",
        "b1ad26b29405efbf289bd8220de42c90bd10c241b1a041188b3596f239102bfd",
    ),
    ("spectrum2d_partial", "plot"): (
        3,
        "934c3f4ad3b55e5d00589669c9518875677f18c89053c7d564e5e6fb96e1ccbe",
        "252c1c225e68d9ae92aa701b3b84ea57081a4c7c3bc179a917a8c1273875b9ef",
    ),
}

_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def call(capsys, name, fmt):
    code = run(COMMANDS[name] + ["--format", fmt])
    captured = capsys.readouterr()
    err = "".join(
        line for line in captured.err.splitlines(True) if not line.startswith("# wall_time_s:")
    )
    return code, captured.out, err


def assert_text_close(got, want):
    """Same text with every number equal at rtol 1e-12; atol 1e-13 covers
    the SVD round-off rows, whose values are noise of order 1e-16."""
    assert got.count("\n") == want.count("\n")
    assert _NUMBER.split(got)[::2] == _NUMBER.split(want)[::2]
    np.testing.assert_allclose(
        [float(v) for v in _NUMBER.findall(got)],
        [float(v) for v in _NUMBER.findall(want)],
        rtol=1e-12,
        atol=1e-13,
    )


@pytest.mark.parametrize("name,fmt", sorted(HASHED))
def test_command_output_is_byte_identical(capsys, name, fmt):
    want_code, want_out, want_err = HASHED[name, fmt]
    code, out, err = call(capsys, name, fmt)
    assert code == want_code
    assert hashlib.sha256(out.encode()).hexdigest() == want_out
    assert hashlib.sha256(err.encode()).hexdigest() == want_err


NUMERIC = json.loads(GOLDEN_CLI.read_text(encoding="utf-8"))


@pytest.mark.parametrize("key", sorted(NUMERIC))
def test_gemm_svd_command_output_matches(capsys, key):
    name, fmt = key.split("/")
    want = NUMERIC[key]
    code, out, err = call(capsys, name, fmt)
    assert code == want["code"]
    assert_text_close(out, want["stdout"])
    assert_text_close(err, want["stderr"])
