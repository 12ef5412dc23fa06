"""Command-line front end.

Subcommands: spectrum1d, spectrum2d, coupled2d, matrix, fc-estimate,
entropy.  Parameters come from flags, optionally seeded by a scenario
file of ``key = value`` lines mirroring the flag names (flags win).
Numeric output is full precision (shortest round-trip decimals); a run
report goes to standard error.

Exit codes: 0 success, 2 invalid parameters, 3 index cap reached before
the mass target (partial data is still emitted), 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings

from .coupling1d import (
    Transition1D,
    coupling_matrix,
    fc_candidates,
    spectrum1d,
)
from .coupling2d import (
    COUPLED_CAP,
    Waveguide2D,
    coupled_tensor,
    schmidt_report,
    spectrum2d_separable,
)
from .errors import (
    CapExceededError,
    ConvergenceError,
    NotPositiveDefiniteError,
    NumericOverflowError,
    PartialSpectrumError,
    PartialTensorError,
)
from .hermite import MODE_INDEX_CAP, OscillatorFrame

_FORMATS = ("csv", "json", "plot")

_COMMON = {
    "eps": (float, 1e-8),
    "cap": (int, None),  # per-path default, see _default_cap
    "format": (str, "csv"),
    "out": (str, None),
}
_KEYS_1D = {
    "omega": (float, None),
    "omega-prime": (float, None),
    "d": (float, None),
    "ratio": (float, None),
    "D": (float, None),
    "n": (int, 0),
}
_KEYS_2D = {
    "omega-x": (float, None),
    "omega-y": (float, None),
    "omega-prime-x": (float, None),
    "omega-prime-y": (float, None),
    "d-x": (float, None),
    "d-y": (float, None),
    "ratio-x": (float, None),
    "ratio-y": (float, None),
    "D-x": (float, None),
    "D-y": (float, None),
    "gamma": (float, 0.0),
    "gamma-prime": (float, 0.0),
    "nx": (int, 0),
    "ny": (int, 0),
}
_KEYS_MATRIX = {"n-max": (int, 20), "n-prime-max": (int, 200)}

_SUBCOMMAND_KEYS = {
    "spectrum1d": {**_COMMON, **_KEYS_1D},
    "fc-estimate": {**_COMMON, **_KEYS_1D},
    "matrix": {**_COMMON, **_KEYS_1D, **_KEYS_MATRIX},
    "spectrum2d": {**_COMMON, **_KEYS_2D},
    "coupled2d": {**_COMMON, **_KEYS_2D},
    "entropy": {**_COMMON, **_KEYS_2D},
}


class _CliError(Exception):
    """Parameter problem; message names the offending flag or invariant."""


def _fmt(v: float) -> str:
    """Shortest round-trip decimal; integral values drop the '.0'."""
    s = repr(float(v))
    return s[:-2] if s.endswith(".0") else s


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfoc",
        description=(
            "Mode-connection coefficients between graded-index waveguides: "
            "spectra, coupling matrices, semiclassical estimates, and "
            "Schmidt-entropy reports."
        ),
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind, keys in _SUBCOMMAND_KEYS.items():
        p = sub.add_parser(kind, allow_abbrev=False)
        p.add_argument("--scenario", type=str, default=None, metavar="PATH")
        for key, (typ, _default) in keys.items():
            if key == "format":
                p.add_argument("--format", type=str, default=None, choices=_FORMATS)
            elif key == "out":
                p.add_argument("--out", type=str, default=None, metavar="PATH")
            else:
                p.add_argument(f"--{key}", type=typ, default=None, dest=key)
    return parser


def _load_scenario(path: str, keys: dict) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise _CliError(f"--scenario: cannot read {path!r}: {exc}") from exc
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise _CliError(f"--scenario {path!r} line {lineno}: expected 'key = value'")
        key, _, text = line.partition("=")
        key = key.strip().replace("_", "-")
        text = text.strip()
        if key == "scenario" or key not in keys:
            raise _CliError(f"--scenario {path!r} line {lineno}: unknown key {key!r}")
        typ = keys[key][0]
        try:
            values[key] = text if typ is str else typ(text)
        except ValueError as exc:
            raise _CliError(
                f"--scenario {path!r} line {lineno}: bad value for {key!r}: {text!r}"
            ) from exc
    if "format" in values and values["format"] not in _FORMATS:
        raise _CliError(f"--scenario {path!r}: format must be one of {_FORMATS}")
    return values


def _resolve(ns: argparse.Namespace) -> dict:
    keys = _SUBCOMMAND_KEYS[ns.kind]
    from_file = _load_scenario(ns.scenario, keys) if ns.scenario else {}
    params = {"kind": ns.kind}
    for key, (_typ, default) in keys.items():
        flag_value = getattr(ns, key)
        if flag_value is not None:
            params[key] = flag_value
        elif key in from_file:
            params[key] = from_file[key]
        else:
            params[key] = default
    if params["cap"] is None:
        params["cap"] = _default_cap(params)
    return params


def _default_cap(params) -> int:
    """The coupled quadrature path gets the library's smaller cap, since its
    cost grows with the square of the rectangle edge; the rest get 4096."""
    kind = params["kind"]
    coupled = kind == "coupled2d" or (
        kind == "entropy" and (params["gamma"] != 0.0 or params["gamma-prime"] != 0.0)
    )
    return COUPLED_CAP if coupled else MODE_INDEX_CAP


def _given(params, *keys):
    return [k for k in keys if params.get(k) is not None]


def _frames_1d(params) -> tuple:
    """Resolve the 1D frame pair; raw and dimensionless flags exclude
    each other."""
    dimless = _given(params, "ratio", "D")
    raw = _given(params, "omega", "omega-prime", "d")
    if dimless and raw:
        raise _CliError(
            f"--{dimless[0]} and --{raw[0]} are mutually exclusive parameterizations"
        )
    if dimless:
        if params["ratio"] is None:
            raise _CliError("--ratio is required with the dimensionless parameterization")
        omega = 1.0
        omega_prime = params["ratio"]
        big_d = params["D"] if params["D"] is not None else 0.0
        if big_d < 0:
            raise _CliError("--D must be non-negative")
        d = math.sqrt(big_d)
    else:
        omega = params["omega"] if params["omega"] is not None else 1.0
        omega_prime = params["omega-prime"]
        if omega_prime is None:
            raise _CliError("--omega-prime (or --ratio) is required")
        d = params["d"] if params["d"] is not None else 0.0
    try:
        return OscillatorFrame(omega, 0.0), OscillatorFrame(omega_prime, d)
    except ValueError as exc:
        raise _CliError(str(exc)) from exc


def _waveguides_2d(params) -> tuple:
    dimless = _given(params, "ratio-x", "ratio-y", "D-x", "D-y")
    raw = _given(
        params, "omega-x", "omega-y", "omega-prime-x", "omega-prime-y", "d-x", "d-y"
    )
    if dimless and raw:
        raise _CliError(
            f"--{dimless[0]} and --{raw[0]} are mutually exclusive parameterizations"
        )
    if dimless:
        if params["ratio-x"] is None or params["ratio-y"] is None:
            raise _CliError("--ratio-x and --ratio-y are required together")
        wx, wy = 1.0, 1.0
        wpx, wpy = params["ratio-x"], params["ratio-y"]
        dx_sq = params["D-x"] if params["D-x"] is not None else 0.0
        dy_sq = params["D-y"] if params["D-y"] is not None else 0.0
        if dx_sq < 0 or dy_sq < 0:
            raise _CliError("--D-x/--D-y must be non-negative")
        dx, dy = math.sqrt(dx_sq), math.sqrt(dy_sq)
    else:
        wx = params["omega-x"] if params["omega-x"] is not None else 1.0
        wy = params["omega-y"] if params["omega-y"] is not None else 1.0
        wpx, wpy = params["omega-prime-x"], params["omega-prime-y"]
        if wpx is None or wpy is None:
            raise _CliError("--omega-prime-x and --omega-prime-y (or --ratio-x/--ratio-y) are required")
        dx = params["d-x"] if params["d-x"] is not None else 0.0
        dy = params["d-y"] if params["d-y"] is not None else 0.0
    try:
        source = Waveguide2D(wx, wy, params["gamma"], (0.0, 0.0))
        target = Waveguide2D(wpx, wpy, params["gamma-prime"], (dx, dy))
    except ValueError as exc:  # includes NotPositiveDefiniteError
        raise _CliError(str(exc)) from exc
    return source, target


def _check_common(params):
    if not (0.0 < params["eps"] < 1.0):
        raise _CliError(f"--eps must be in (0, 1), got {params['eps']}")
    if not (0 <= params["cap"] <= MODE_INDEX_CAP):
        raise _CliError(f"--cap must be in [0, {MODE_INDEX_CAP}], got {params['cap']}")
    for key in ("n", "nx", "ny", "n-max", "n-prime-max"):
        if key in params and not (0 <= params[key] <= MODE_INDEX_CAP):
            raise _CliError(f"--{key} must be in [0, {MODE_INDEX_CAP}], got {params[key]}")


def _scenario_echo(params) -> dict:
    echo = {}
    for key, value in params.items():
        if value is None or key == "out":
            continue
        echo[key.replace("-", "_")] = value
    return echo


def _emit_spectrum(spectrum, echo, fmt, out):
    lines = []
    if fmt == "csv":
        lines.append("n_prime,amplitude,probability")
        for i in range(len(spectrum)):
            if spectrum.probability[i] == 0.0:
                continue
            lines.append(
                f"{spectrum.n_prime[i]},{_fmt(spectrum.amplitude[i])},{_fmt(spectrum.probability[i])}"
            )
    elif fmt == "plot":
        for i in range(len(spectrum)):
            if spectrum.probability[i] == 0.0:
                continue
            lines.append(f"{spectrum.n_prime[i]} {_fmt(spectrum.probability[i])}")
    else:
        entries = [
            {
                "n_prime": int(spectrum.n_prime[i]),
                "amplitude": float(spectrum.amplitude[i]),
                "probability": float(spectrum.probability[i]),
            }
            for i in range(len(spectrum))
            if spectrum.probability[i] != 0.0
        ]
        payload = {
            "scenario": echo,
            "entries": entries,
            "captured_mass": spectrum.captured_mass,
            "argmax": spectrum.argmax,
        }
        lines.append(json.dumps(payload))
    _write(lines, out)


def _emit_tensor(tensor, echo, fmt, out):
    prob = tensor.probability
    n1, n2 = tensor.values.shape
    lines = []
    if fmt == "csv":
        lines.append("nx_prime,ny_prime,amplitude,probability")
        for i in range(n1):
            for j in range(n2):
                if prob[i, j] == 0.0:
                    continue
                lines.append(
                    f"{i},{j},{_fmt(tensor.values[i, j])},{_fmt(prob[i, j])}"
                )
    elif fmt == "plot":
        for i in range(n1):
            for j in range(n2):
                if prob[i, j] == 0.0:
                    continue
                lines.append(f"{i} {j} {_fmt(prob[i, j])}")
    else:
        entries = [
            {
                "nx_prime": i,
                "ny_prime": j,
                "amplitude": float(tensor.values[i, j]),
                "probability": float(prob[i, j]),
            }
            for i in range(n1)
            for j in range(n2)
            if prob[i, j] != 0.0
        ]
        payload = {
            "scenario": echo,
            "entries": entries,
            "captured_mass": tensor.captured_mass,
            "argmax": list(tensor.argmax),
        }
        lines.append(json.dumps(payload))
    _write(lines, out)


def _emit_matrix(matrix, echo, fmt, out):
    lines = []
    if fmt == "csv":
        lines.append("n,n_prime,amplitude")
        for i in range(matrix.n_max + 1):
            for j in range(matrix.n_prime_max + 1):
                lines.append(f"{i},{j},{_fmt(matrix.values[i, j])}")
    elif fmt == "plot":
        for i in range(matrix.n_max + 1):
            for j in range(matrix.n_prime_max + 1):
                lines.append(f"{i} {j} {_fmt(matrix.values[i, j])}")
    else:
        payload = {
            "scenario": echo,
            "n_max": matrix.n_max,
            "n_prime_max": matrix.n_prime_max,
            "values": [[float(v) for v in row] for row in matrix.values],
            "gram_defect": matrix.gram_defect,
        }
        lines.append(json.dumps(payload))
    _write(lines, out)


def _emit_schmidt(report, tensor, echo, fmt, out):
    """``report`` None stands for a tensor without mass: no rows, and JSON
    carries no singular values and a null entropy."""
    if report is None:
        sigma, total = (), 0.0
    else:
        sigma = report.singular_values
        total = float((sigma * sigma).sum())
    lines = []
    if fmt == "csv":
        lines.append("k,sigma,p")
        for k, s in enumerate(sigma):
            if s == 0.0:
                continue
            lines.append(f"{k},{_fmt(s)},{_fmt(s * s / total)}")
    elif fmt == "plot":
        for k, s in enumerate(sigma):
            if s == 0.0:
                continue
            lines.append(f"{k} {_fmt(s)}")
    else:
        payload = {
            "scenario": echo,
            "singular_values": [float(s) for s in sigma],
            "entropy": None if report is None else report.entropy,
            "captured_mass": tensor.captured_mass,
        }
        lines.append(json.dumps(payload))
    _write(lines, out)


def _write(lines, out):
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        try:
            with open(out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError(f"--out: cannot write {out!r}: {exc}") from exc


def _report(echo, extra_lines, started, warn_messages):
    err = sys.stderr
    pairs = " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}" for k, v in echo.items())
    err.write(f"# scenario: {pairs}\n")
    for line in extra_lines:
        err.write(f"# {line}\n")
    err.write(f"# wall_time_s: {time.perf_counter() - started:.3f}\n")
    if warn_messages:
        for msg in warn_messages:
            err.write(f"# warning: {msg}\n")
    else:
        err.write("# warnings: none\n")


def run(argv=None) -> int:
    """Entry point; returns the process exit code instead of raising."""
    try:
        ns = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    started = time.perf_counter()
    try:
        params = _resolve(ns)
        _check_common(params)
        echo = {}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, echo, extra = _dispatch(params)
        _report(echo, extra, started, [str(w.message) for w in caught])
        return code
    except _CliError as exc:
        sys.stderr.write(f"selfoc: error: {exc}\n")
        return 2
    except (CapExceededError, NotPositiveDefiniteError, ValueError) as exc:
        sys.stderr.write(f"selfoc: error: {exc}\n")
        return 2
    except (NumericOverflowError, ConvergenceError, FloatingPointError) as exc:
        sys.stderr.write(f"selfoc: numeric failure: {exc}\n")
        return 4


def _dispatch(params):
    kind = params["kind"]
    fmt = params["format"]
    out = params["out"]
    echo = _scenario_echo(params)

    if kind == "spectrum1d":
        source, target = _frames_1d(params)
        t = Transition1D(source, target, params["n"])
        try:
            spectrum = spectrum1d(t, epsilon=params["eps"], cap=params["cap"])
        except PartialSpectrumError as exc:
            _emit_spectrum(exc.spectrum, echo, fmt, out)
            return 3, echo, _spectrum_report(exc.spectrum) + [f"cap reached: {exc}"]
        _emit_spectrum(spectrum, echo, fmt, out)
        return 0, echo, _spectrum_report(spectrum)

    if kind == "fc-estimate":
        source, target = _frames_1d(params)
        t = Transition1D(source, target, params["n"])
        cand = fc_candidates(t)
        if fmt == "json":
            payload = {"scenario": echo, "estimate": cand["near"], **cand}
            _write([json.dumps(payload)], out)
        else:
            _write([str(cand["near"])], out)
        extra = [
            f"estimate: {cand['near']}",
            f"candidates: near={cand['near']} (x*={_fmt(cand['x_near'])}) "
            f"far={cand['far']} (x*={_fmt(cand['x_far'])})",
        ]
        return 0, echo, extra

    if kind == "matrix":
        source, target = _frames_1d(params)
        matrix = coupling_matrix(source, target, params["n-max"], params["n-prime-max"])
        _emit_matrix(matrix, echo, fmt, out)
        extra = [f"gram_defect: {_fmt(matrix.gram_defect)}"]
        return 0, echo, extra

    source, target = _waveguides_2d(params)
    nx, ny = params["nx"], params["ny"]

    if kind == "spectrum2d":
        if source.gamma != 0.0 or target.gamma != 0.0:
            raise _CliError(
                "spectrum2d requires --gamma 0 and --gamma-prime 0; use coupled2d"
            )
        try:
            tensor = spectrum2d_separable(
                source, target, nx, ny, epsilon=params["eps"], cap=params["cap"]
            )
        except PartialTensorError as exc:
            _emit_tensor(exc.tensor, echo, fmt, out)
            return 3, echo, _tensor_report(exc.tensor) + [f"cap reached: {exc}"]
        _emit_tensor(tensor, echo, fmt, out)
        return 0, echo, _tensor_report(tensor)

    if kind == "coupled2d":
        try:
            tensor = coupled_tensor(
                source, target, nx, ny, epsilon=params["eps"], cap=params["cap"]
            )
        except PartialTensorError as exc:
            _emit_tensor(exc.tensor, echo, fmt, out)
            return 3, echo, _tensor_report(exc.tensor) + [f"cap reached: {exc}"]
        _emit_tensor(tensor, echo, fmt, out)
        return 0, echo, _tensor_report(tensor)

    if kind == "entropy":
        grow = (
            spectrum2d_separable
            if source.gamma == 0.0 and target.gamma == 0.0
            else coupled_tensor
        )
        code, capped = 0, []
        try:
            tensor = grow(source, target, nx, ny, epsilon=params["eps"], cap=params["cap"])
        except PartialTensorError as exc:
            tensor, code, capped = exc.tensor, 3, [f"cap reached: {exc}"]
        if capped and not tensor.captured_mass > 0.0:
            # the partial tensor's mass underflowed: nothing to decompose
            _emit_schmidt(None, tensor, echo, fmt, out)
            return code, echo, _tensor_report(tensor) + ["entropy: undefined"] + capped
        report = schmidt_report(tensor)
        _emit_schmidt(report, tensor, echo, fmt, out)
        extra = _tensor_report(tensor) + [f"entropy: {_fmt(report.entropy)}"]
        return code, echo, extra + capped

    raise _CliError(f"unknown subcommand {kind!r}")


def _spectrum_report(spectrum):
    am = spectrum.argmax
    return [
        f"captured_mass: {_fmt(spectrum.captured_mass)}",
        f"argmax: n_prime={am} probability={_fmt(spectrum.probability[am])}",
    ]


def _tensor_report(tensor):
    i, j = tensor.argmax
    return [
        f"captured_mass: {_fmt(tensor.captured_mass)}",
        f"argmax: nx_prime={i} ny_prime={j} probability={_fmt(tensor.probability[i, j])}",
    ]


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
