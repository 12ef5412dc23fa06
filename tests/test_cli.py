import json
from pathlib import Path

import numpy as np
import pytest

from selfoc import OscillatorFrame, Transition1D, spectrum1d
from selfoc.cli import run

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSpectrum1D:
    def test_identity_single_row(self, capsys):
        code, out, _ = invoke(
            capsys, "spectrum1d", "--omega", "1", "--omega-prime", "1", "--d", "0", "--n", "7"
        )
        assert code == 0
        assert out == "n_prime,amplitude,probability\n7,1,1\n"

    def test_csv_header_exact(self, capsys):
        code, out, _ = invoke(capsys, "spectrum1d", "--ratio", "3", "--D", "9")
        assert code == 0
        assert out.splitlines()[0] == "n_prime,amplitude,probability"

    def test_rows_ascend(self, capsys):
        _, out, _ = invoke(capsys, "spectrum1d", "--ratio", "3", "--D", "9")
        indices = [int(line.split(",")[0]) for line in out.splitlines()[1:]]
        assert indices == sorted(indices)

    def test_json_matches_library(self, capsys):
        code, out, _ = invoke(
            capsys, "spectrum1d", "--ratio", "3", "--D", "9", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        t = Transition1D(OscillatorFrame(1.0), OscillatorFrame(3.0, 3.0), 0)
        sp = spectrum1d(t)
        assert payload["argmax"] == sp.argmax
        assert payload["captured_mass"] == sp.captured_mass
        by_index = {e["n_prime"]: e for e in payload["entries"]}
        for i in range(len(sp)):
            if sp.probability[i] == 0.0:
                assert i not in by_index
            else:
                assert by_index[i]["amplitude"] == sp.amplitude[i]

    def test_report_argmax_matches_emitted_max(self, capsys):
        code, out, err = invoke(capsys, "spectrum1d", "--ratio", "3", "--D", "9")
        rows = [line.split(",") for line in out.splitlines()[1:]]
        best = max(rows, key=lambda r: float(r[2]))
        report_line = next(line for line in err.splitlines() if "argmax" in line)
        assert f"n_prime={best[0]}" in report_line

    def test_deterministic_output(self, capsys):
        args = ("spectrum1d", "--ratio", "3", "--D", "9", "--format", "json")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_plot_format_two_columns(self, capsys):
        _, out, _ = invoke(capsys, "spectrum1d", "--ratio", "2", "--D", "4", "--format", "plot")
        for line in out.splitlines():
            assert len(line.split()) == 2

    def test_dimensionless_equals_raw(self, capsys):
        _, a, _ = invoke(capsys, "spectrum1d", "--ratio", "3", "--D", "9")
        _, b, _ = invoke(
            capsys, "spectrum1d", "--omega", "1", "--omega-prime", "3", "--d", "3"
        )
        assert a == b

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.csv"
        code, out, _ = invoke(
            capsys, "spectrum1d", "--ratio", "3", "--D", "9", "--out", str(path)
        )
        assert code == 0
        assert out == ""
        assert path.read_text().startswith("n_prime,amplitude,probability\n")

    def test_unwritable_out(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "spectrum1d", "--ratio", "2", "--D", "1",
            "--out", str(tmp_path / "missing" / "x.csv"),
        )
        assert code == 2
        assert "--out" in err


class TestExitCodes:
    def test_cap_reached_is_3_with_partial_data(self, capsys):
        cases = [
            (("spectrum1d", "--ratio", "3", "--D", "9"), 8),
            # below the coupled growth step of 8
            (("coupled2d", "--ratio-x", "2", "--ratio-y", "3", "--gamma-prime", "1.5"), 2),
        ]
        for argv, cap in cases:
            code, out, err = invoke(capsys, *argv, "--cap", str(cap))
            assert code == 3
            rows = out.splitlines()[1:]
            assert rows  # partial rows still emitted
            assert max(int(v) for row in rows for v in row.split(",")[:-2]) <= cap
            assert "cap reached" in err

    def test_entropy_cap_reached_is_3_with_partial_data(self, capsys):
        code, out, err = invoke(
            capsys, "entropy", "--ratio-x", "2", "--ratio-y", "3", "--D-x", "400",
            "--D-y", "400", "--gamma-prime", "1.5", "--eps", "1e-12", "--cap", "16",
        )
        assert code == 3
        assert out.startswith("k,sigma,p\n")
        assert "cap reached" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("gamma_prime", ["0", "1.5"])
    def test_entropy_cap_reached_without_mass_is_3(self, capsys, fmt, gamma_prime):
        # the partial tensor's mass underflows to 0: an empty report, not exit 2
        code, out, err = invoke(
            capsys, "entropy", "--ratio-x", "2", "--ratio-y", "3", "--D-x", "4000",
            "--D-y", "4000", "--gamma-prime", gamma_prime, "--cap", "8", "--format", fmt,
        )
        assert code == 3
        if fmt == "csv":
            assert out == "k,sigma,p\n"
        else:
            payload = json.loads(out)
            assert payload["singular_values"] == []
            assert payload["entropy"] is None
            assert payload["captured_mass"] == 0.0
        assert "cap reached" in err
        assert "entropy: undefined" in err

    def test_order_past_max_is_2_and_names_the_cap(self, capsys):
        # the first coupled block, (4096, 2384), would need order 3241
        code, out, err = invoke(
            capsys, "coupled2d", "--ratio-x", "2", "--ratio-y", "3", "--gamma-prime", "1.5",
            "--D-x", "3000", "--D-y", "3000", "--cap", "4096",
        )
        assert code == 2
        assert out == ""
        assert "(4096, 2384)" in err and "order of 3241" in err and "--cap" in err
        assert "Traceback" not in err

    def test_numeric_failure_is_4(self, capsys):
        code, _, err = invoke(
            capsys, "spectrum1d", "--omega", "1", "--omega-prime", "1", "--d", "1e8"
        )
        assert code == 4
        assert "numeric failure" in err

    def test_overfull_spectrum_is_4(self, capsys):
        # the row recurrence fails at ratio 3, D 9, n 200: refused, not printed
        code, out, err = invoke(capsys, "spectrum1d", "--ratio", "3", "--D", "9", "--n", "200")
        assert code == 4
        assert out == ""
        assert "mass" in err

    def test_mixed_parameterizations_rejected(self, capsys):
        code, _, err = invoke(capsys, "spectrum1d", "--ratio", "3", "--omega", "1")
        assert code == 2
        assert "mutually exclusive" in err

    def test_missing_target_rejected(self, capsys):
        code, _, err = invoke(capsys, "spectrum1d", "--omega", "1")
        assert code == 2
        assert "--omega-prime" in err

    def test_unknown_flag_rejected(self, capsys):
        assert invoke(capsys, "spectrum1d", "--ratio", "3", "--bogus", "1")[0] == 2

    def test_bad_eps_rejected(self, capsys):
        code, _, err = invoke(capsys, "spectrum1d", "--ratio", "3", "--eps", "2")
        assert code == 2
        assert "--eps" in err

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (("spectrum1d", "--ratio", "1e300", "--D", "1"), 3),
            (("spectrum1d", "--ratio", "1e-200", "--D", "0"), 3),
            (("spectrum1d", "--omega-prime", "1e300", "--d", "0"), 3),
            (("spectrum1d", "--ratio", "1e-300", "--D", "0"), 4),
            (("matrix", "--ratio", "1e-300", "--D", "0", "--n-max", "1", "--n-prime-max", "3"), 4),
            (("fc-estimate", "--ratio", "1e300", "--D", "1e9"), 4),
            (("spectrum2d", "--ratio-x", "1e300", "--ratio-y", "2", "--cap", "16"), 3),
            (("coupled2d", "--ratio-x", "1e300", "--ratio-y", "2", "--gamma-prime", "1",
              "--cap", "16"), 4),
            (("spectrum2d", "--ratio-x", "1e-300", "--ratio-y", "2", "--cap", "16"), 4),
        ],
        ids=[
            "spectrum1d-ratio-1e300",
            "spectrum1d-ratio-1e-200",
            "spectrum1d-omega-prime-1e300",
            "spectrum1d-ratio-1e-300",
            "matrix-ratio-1e-300",
            "fc-estimate-ratio-1e300",
            "spectrum2d-ratio-x-1e300",
            "coupled2d-ratio-x-1e300",
            "spectrum2d-ratio-x-1e-300",
        ],
    )
    def test_extreme_finite_frequencies_end_cleanly(self, capsys, argv, expected):
        # valid parameters whose arithmetic leaves double range: a partial
        # result (3) or a numeric failure (4), never NaN output or exit 2
        code, out, err = invoke(capsys, *argv)
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err
        assert "nan" not in out
        assert code == expected

    def test_profile_an_ulp_inside_the_boundary_rejected(self, capsys):
        # passes the construction check, but its smaller form eigenvalue
        # rounds below 0: a typed refusal, not "math domain error"
        code, out, err = invoke(
            capsys, "coupled2d", "--ratio-x", "0.5010560407655029",
            "--ratio-y", "7.346861336999952", "--gamma-prime", "-7.36237850714069",
            "--cap", "16",
        )
        assert code == 2
        assert out == ""
        assert "is not positive definite" in err
        assert "domain" not in err

    @pytest.mark.parametrize(
        "scenario,argv,expected,message",
        [
            ("ratio = 3\nD 9\n", ("spectrum1d",), 2, "line 2: expected 'key = value'"),
            ("ratio = abc\n", ("spectrum1d",), 2, "bad value for 'ratio': 'abc'"),
            (None, ("spectrum1d", "--D", "9"), 2,
             "--ratio must be given with the dimensionless parameterization"),
            (None, ("spectrum1d", "--ratio", "3", "--D", "-1"), 2, "--D must be non-negative"),
            (None, ("spectrum1d", "--ratio", "3", "--cap", "5000"), 2,
             "--cap must be in [0, 4096], got 5000"),
            (None, ("spectrum1d", "--ratio", "3", "--n", "5000"), 2,
             "--n must be in [0, 4096], got 5000"),
            (None, ("matrix", "--ratio", "3", "--D", "1", "--n-max", "12", "--n-prime-max", "10"),
             0, "# warning: n_max=12 > n_prime_max=10"),
        ],
        ids=["no-equals", "bad-value", "D-without-ratio", "negative-D", "cap-past-4096",
             "n-past-4096", "matrix-rows-past-columns"],
    )
    def test_refusals_and_warnings_as_printed(
        self, capsys, tmp_path, scenario, argv, expected, message
    ):
        if scenario is not None:
            path = tmp_path / "s.scenario"
            path.write_text(scenario)
            argv += ("--scenario", str(path))
        code, out, err = invoke(capsys, *argv)
        assert code == expected
        assert message in err
        assert (out == "") == (expected != 0)

    def test_gamma_on_spectrum2d_rejected(self, capsys):
        code, _, err = invoke(
            capsys, "spectrum2d", "--ratio-x", "2", "--ratio-y", "3", "--gamma-prime", "1"
        )
        assert code == 2
        assert "coupled2d" in err


class TestScenarioFiles:
    def test_file_matches_flags(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("ratio = 3\nD = 9\nn = 0\n")
        _, from_file, _ = invoke(capsys, "spectrum1d", "--scenario", str(path))
        _, from_flags, _ = invoke(capsys, "spectrum1d", "--ratio", "3", "--D", "9", "--n", "0")
        assert from_file == from_flags

    def test_flags_override_file(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("ratio = 3\nD = 9\nn = 0\n")
        _, overridden, _ = invoke(
            capsys, "spectrum1d", "--scenario", str(path), "--n", "2"
        )
        _, direct, _ = invoke(capsys, "spectrum1d", "--ratio", "3", "--D", "9", "--n", "2")
        assert overridden == direct

    def test_unknown_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("ratio = 3\nwavelength = 5\n")
        code, _, err = invoke(capsys, "spectrum1d", "--scenario", str(path))
        assert code == 2
        assert "wavelength" in err

    def test_comments_and_underscores(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("# comment\nomega_prime = 2  # inline\nomega = 1\nd = 1\n")
        code, out, _ = invoke(capsys, "spectrum1d", "--scenario", str(path))
        assert code == 0
        assert out.splitlines()[0] == "n_prime,amplitude,probability"

    def test_bad_format_flag(self, capsys):
        code, out, err = invoke(capsys, "spectrum1d", "--ratio", "3", "--D", "9", "--format", "xml")
        assert (code, out) == (2, "")
        assert "--format must be one of ('csv', 'json', 'plot'), got 'xml'" in err

    def test_bad_format_in_file(self, capsys, tmp_path):
        path = tmp_path / "s.scenario"
        path.write_text("ratio = 3\nD = 9\nformat = xml\n")
        code, out, err = invoke(capsys, "spectrum1d", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert "--format must be one of ('csv', 'json', 'plot'), got 'xml'" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = invoke(
            capsys, "spectrum1d", "--scenario", str(tmp_path / "nope.scenario")
        )
        assert code == 2
        assert "--scenario" in err

    @pytest.mark.parametrize(
        "name,kind",
        [
            ("planar_stretch3_shift9.scenario", "spectrum1d"),
            ("planar_stretch3_shift16_n3.scenario", "spectrum1d"),
            ("elliptic_ground.scenario", "spectrum2d"),
            ("elliptic_excited.scenario", "spectrum2d"),
            ("coupled_entropy.scenario", "entropy"),
        ],
    )
    def test_shipped_scenarios_run(self, capsys, name, kind):
        code, out, _ = invoke(capsys, kind, "--scenario", str(SCENARIO_DIR / name))
        assert code == 0
        assert out


class TestFcEstimate:
    def test_prints_estimate(self, capsys):
        code, out, _ = invoke(
            capsys, "fc-estimate", "--omega", "1", "--omega-prime", "3", "--d", "3", "--n", "0"
        )
        assert code == 0
        assert out == "13\n"

    def test_json_payload(self, capsys):
        code, out, err = invoke(
            capsys, "fc-estimate", "--ratio", "3", "--D", "16", "--n", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["estimate"] == payload["near"]
        assert "far" in payload
        assert "candidates" in err

    def test_finite_level_where_the_squared_frequency_overflows(self, capsys):
        code, out, err = invoke(capsys, "fc-estimate", "--omega-prime", "1e200", "--d", "1e-99")
        assert code == 0
        assert out == "50\n"
        assert "estimate: 50" in err

    @pytest.mark.parametrize(
        "argv", [("--ratio", "1e300", "--D", "1"), ("--ratio", "3", "--D", "1e300")]
    )
    def test_level_past_the_cap_rejected(self, capsys, argv):
        code, out, err = invoke(capsys, "fc-estimate", *argv)
        assert code == 2
        assert out == ""
        assert "past the hard cap 4096" in err

    def test_level_past_the_requested_cap_rejected(self, capsys):
        argv = ("fc-estimate", "--ratio", "3", "--D", "16", "--n", "3")
        code, out, err = invoke(capsys, *argv, "--cap", "10")
        assert (code, out) == (2, "")
        assert "is 65.749, past the hard cap 10" in err
        code, out, err = invoke(capsys, *argv, "--cap", "66")
        assert (code, out) == (0, "2\n")
        assert "far=66" in err


class TestMatrix:
    def test_csv_shape_and_report(self, capsys):
        code, out, err = invoke(
            capsys, "matrix", "--ratio", "2", "--D", "4", "--n-max", "3", "--n-prime-max", "30"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "n,n_prime,amplitude"
        assert len(lines) == 1 + 4 * 31
        assert any("gram_defect" in line for line in err.splitlines())

    def test_json_values_roundtrip(self, capsys):
        code, out, _ = invoke(
            capsys, "matrix", "--ratio", "2", "--D", "4", "--n-max", "2",
            "--n-prime-max", "20", "--format", "json",
        )
        payload = json.loads(out)
        values = np.array(payload["values"])
        assert values.shape == (3, 21)
        gram = values @ values.T
        assert abs(payload["gram_defect"] - np.abs(gram - np.eye(3)).max()) < 1e-15


class TestSpectrum2DAndEntropy:
    def test_2d_csv_header(self, capsys):
        code, out, _ = invoke(
            capsys, "spectrum2d", "--ratio-x", "2", "--ratio-y", "3",
            "--D-x", "9", "--D-y", "16",
        )
        assert code == 0
        assert out.splitlines()[0] == "nx_prime,ny_prime,amplitude,probability"

    def test_2d_json_argmax_pair(self, capsys):
        _, out, _ = invoke(
            capsys, "spectrum2d", "--ratio-x", "2", "--ratio-y", "3",
            "--D-x", "9", "--D-y", "16", "--format", "json",
        )
        payload = json.loads(out)
        best = max(payload["entries"], key=lambda e: e["probability"])
        assert payload["argmax"] == [best["nx_prime"], best["ny_prime"]]

    def test_entropy_separable_is_zero(self, capsys):
        code, out, _ = invoke(
            capsys, "entropy", "--ratio-x", "2", "--ratio-y", "3",
            "--D-x", "4", "--D-y", "9", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["entropy"] < 1e-10

    def test_entropy_coupled_positive(self, capsys):
        code, out, _ = invoke(
            capsys, "entropy", "--scenario", str(SCENARIO_DIR / "coupled_entropy.scenario"),
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["entropy"] > 1e-10

    def test_coupled2d_runs(self, capsys):
        code, out, _ = invoke(
            capsys, "coupled2d", "--ratio-x", "1.5", "--ratio-y", "2",
            "--D-x", "1", "--D-y", "2", "--gamma-prime", "0.8",
            "--nx", "1", "--eps", "1e-5",
        )
        assert code == 0
        assert out.splitlines()[0] == "nx_prime,ny_prime,amplitude,probability"

    @pytest.mark.parametrize(
        "argv,cap",
        [
            (("coupled2d", "--gamma-prime", "0.8"), 256),
            (("coupled2d", "--gamma-prime", "0.8", "--cap", "100"), 100),
            (("entropy", "--gamma-prime", "0.8"), 256),
            (("entropy",), 4096),
            (("spectrum2d",), 4096),
        ],
    )
    def test_cap_default_follows_path(self, capsys, argv, cap):
        code, _, err = invoke(capsys, *argv, "--ratio-x", "1.5", "--ratio-y", "2", "--eps", "1e-5")
        assert code == 0
        assert f" cap={cap} " in err.splitlines()[0]


class TestHelp:
    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    def test_no_subcommand_is_error(self, capsys):
        assert invoke(capsys)[0] == 2
