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

import numpy as np

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
from .errors import ConvergenceError, PartialResultError
from .hermite import MODE_INDEX_CAP, OscillatorFrame

_FORMATS = ("csv", "json", "plot")

_COMMON = {
    "eps": (float, 1e-8),
    "cap": (int, None),  # per-path default, see _coupled
    "format": (str, "csv"),
    "out": (str, None),
}
_AXIS_KEYS = {
    "omega": (float, None),
    "omega-prime": (float, None),
    "d": (float, None),
    "ratio": (float, None),
    "D": (float, None),
}
_KEYS_1D = {**_AXIS_KEYS, "n": (int, 0)}
_KEYS_2D = {
    **{key + s: spec for key, spec in _AXIS_KEYS.items() for s in ("-x", "-y")},
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


class _CliError(ValueError):
    """Parameter problem; message names the offending flag or invariant."""


def _fmt(v) -> str:
    """A Python int as it is; a Python float as the shortest round-trip
    decimal, integral values without the '.0'."""
    return repr(v).removesuffix(".0")


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
    return values


def _resolve(ns: argparse.Namespace) -> dict:
    keys = _SUBCOMMAND_KEYS[ns.kind]
    from_file = _load_scenario(ns.scenario, keys) if ns.scenario else {}
    params = {"kind": ns.kind}
    for key, (_typ, default) in keys.items():
        flag = getattr(ns, key)
        if flag is not None:
            params[key] = flag
        elif key in from_file:
            params[key] = from_file[key]
        else:
            params[key] = default
    if params["cap"] is None:
        params["cap"] = COUPLED_CAP if _coupled(params) else MODE_INDEX_CAP
    return params


def _coupled(params) -> bool:
    """Whether a request takes the coupled quadrature path; that path gets
    the library's smaller default cap, since its cost grows with the cube
    of the rectangle edge, and the rest get 4096."""
    kind = params["kind"]
    return kind == "coupled2d" or (
        kind == "entropy" and (params["gamma"] != 0.0 or params["gamma-prime"] != 0.0)
    )


def _axes(params, suffixes) -> list:
    """(omega, omega', d) per axis, from the raw flags or from --ratio and
    --D (omega = 1, d = sqrt(D)); the two parameterizations exclude each
    other across all axes."""

    def given(*keys):
        return [k + s for k in keys for s in suffixes if params[k + s] is not None]

    def flags(key):
        return "/".join(f"--{key}{s}" for s in suffixes)

    dimless, raw = given("ratio", "D"), given("omega", "omega-prime", "d")
    if dimless and raw:
        raise _CliError(
            f"--{dimless[0]} and --{raw[0]} are mutually exclusive parameterizations"
        )
    axes = []
    for s in suffixes:
        if dimless:
            ratio, big_d = params["ratio" + s], params["D" + s]
            if ratio is None:
                raise _CliError(
                    f"{flags('ratio')} must be given with the dimensionless parameterization"
                )
            big_d = 0.0 if big_d is None else big_d
            if big_d < 0:
                raise _CliError(f"{flags('D')} must be non-negative")
            axes.append((1.0, ratio, math.sqrt(big_d)))
        else:
            omega, omega_prime, d = (params[k + s] for k in ("omega", "omega-prime", "d"))
            if omega_prime is None:
                raise _CliError(f"{flags('omega-prime')} (or {flags('ratio')}) must be given")
            axes.append((
                1.0 if omega is None else omega, omega_prime, 0.0 if d is None else d
            ))
    return axes


def _check_common(params):
    if params["format"] not in _FORMATS:
        raise _CliError(f"--format must be one of {_FORMATS}, got {params['format']!r}")
    if not (0.0 < params["eps"] < 1.0):
        raise _CliError(f"--eps must be in (0, 1), got {params['eps']}")
    for key, (typ, _default) in _SUBCOMMAND_KEYS[params["kind"]].items():
        if typ is int and not (0 <= params[key] <= MODE_INDEX_CAP):
            raise _CliError(f"--{key} must be in [0, {MODE_INDEX_CAP}], got {params[key]}")


def _scenario_echo(params) -> dict:
    echo = {}
    for key, value in params.items():
        if value is None or key == "out":
            continue
        echo[key.replace("-", "_")] = value
    return echo


def _emit(table, echo, fmt, out):
    """Render a row table ``(header, rows, plot, fields)``.

    csv: the header (if any), then every row; plot: the ``plot`` columns of
    every row, space-separated; json: ``{"scenario": echo, **fields(rows)}``.
    ``rows`` is read once, so it may be a generator; ``fields`` is only
    called for json.
    """
    header, rows, plot, fields = table
    if fmt == "json":
        lines = [json.dumps({"scenario": echo, **fields(rows)})]
    elif fmt == "csv":
        lines = [",".join(header)] if header else []
        lines += [",".join(map(_fmt, row)) for row in rows]
    else:
        lines = [" ".join([_fmt(row[c]) for c in plot]) for row in rows]
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
        echo = _scenario_echo(params)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, table, extra = _dispatch(params)
            _emit(table, echo, params["format"], params["out"])
        _report(echo, extra, started, [str(w.message) for w in caught])
        return code
    # library errors derive from these: CapExceededError and
    # NotPositiveDefiniteError from ValueError, NumericOverflowError from
    # FloatingPointError
    except ValueError as exc:
        sys.stderr.write(f"selfoc: error: {exc}\n")
        return 2
    except (FloatingPointError, ConvergenceError) as exc:
        sys.stderr.write(f"selfoc: numeric failure: {exc}\n")
        return 4


def _dispatch(params):
    """Run one subcommand: its exit code, row table and report lines."""
    kind, eps, cap = params["kind"], params["eps"], params["cap"]
    if kind in ("spectrum1d", "fc-estimate", "matrix"):
        ((omega, omega_prime, d),) = _axes(params, ("",))
        source, target = OscillatorFrame(omega, 0.0), OscillatorFrame(omega_prime, d)
    else:
        (wx, wpx, dx), (wy, wpy, dy) = _axes(params, ("-x", "-y"))
        source = Waveguide2D(wx, wy, params["gamma"], (0.0, 0.0))
        target = Waveguide2D(wpx, wpy, params["gamma-prime"], (dx, dy))

    if kind == "fc-estimate":
        cand = fc_candidates(Transition1D(source, target, params["n"]), cap)
        near = cand["near"]
        table = ((), [(near,)], (0,), lambda rows: {"estimate": near, **cand})
        return 0, table, [
            f"estimate: {near}",
            f"candidates: near={near} (x*={_fmt(cand['x_near'])}) "
            f"far={cand['far']} (x*={_fmt(cand['x_far'])})",
        ]

    if kind == "matrix":
        matrix = coupling_matrix(source, target, params["n-max"], params["n-prime-max"])
        values = matrix.values.tolist()
        rows = ((i, j, v) for i, row in enumerate(values) for j, v in enumerate(row))
        fields = {
            "n_max": matrix.n_max,
            "n_prime_max": matrix.n_prime_max,
            "values": values,
            "gram_defect": matrix.gram_defect,
        }
        table = (("n", "n_prime", "amplitude"), rows, (0, 1, 2), lambda rows: fields)
        return 0, table, [f"gram_defect: {_fmt(matrix.gram_defect)}"]

    if kind == "spectrum2d" and (source.gamma != 0.0 or target.gamma != 0.0):
        raise _CliError("spectrum2d requires --gamma 0 and --gamma-prime 0; use coupled2d")
    code, capped = 0, []
    try:
        if kind == "spectrum1d":
            result = spectrum1d(Transition1D(source, target, params["n"]), epsilon=eps, cap=cap)
        else:
            grow = coupled_tensor if _coupled(params) else spectrum2d_separable
            result = grow(source, target, params["nx"], params["ny"], epsilon=eps, cap=cap)
    except PartialResultError as partial:
        result = partial.result
        code, capped = 3, [f"cap reached: {partial}"]
    report = _grown_report(result)
    table = _schmidt_table(result, report) if kind == "entropy" else _grown_table(result)
    return code, table, report + capped


#: Final-index columns of a spectrum (1D) and of a tensor (2D).
_INDEX_NAMES = {1: ("n_prime",), 2: ("nx_prime", "ny_prime")}


def _grown_table(result):
    """Rows (final index..., amplitude, probability) of a spectrum or tensor,
    one per index with nonzero probability; plot: index and probability."""
    prob = result.probability
    names = _INDEX_NAMES[prob.ndim]
    values = result.amplitude if prob.ndim == 1 else result.values
    hit = np.nonzero(prob)
    rows = zip(*(k.tolist() for k in hit), values[hit].tolist(), prob[hit].tolist())
    header = names + ("amplitude", "probability")
    plot = tuple(range(len(names))) + (len(names) + 1,)
    return header, rows, plot, lambda rows: {
        "entries": [dict(zip(header, row)) for row in rows],
        "captured_mass": result.captured_mass,
        "argmax": result.argmax,
    }


def _grown_report(result) -> list:
    prob = result.probability
    at = np.unravel_index(np.argmax(prob), prob.shape)
    where = " ".join(f"{name}={k}" for name, k in zip(_INDEX_NAMES[prob.ndim], at))
    return [
        f"captured_mass: {_fmt(result.captured_mass)}",
        f"argmax: {where} probability={_fmt(float(prob[at]))}",
    ]


def _schmidt_table(tensor, report):
    """Rows (k, sigma, p) of the tensor's Schmidt decomposition, one per
    nonzero singular value; plot: k and sigma.  Appends the entropy to
    ``report``.  A capped tensor whose mass underflowed to 0 has nothing to
    decompose: no rows, and JSON carries no singular values and a null
    entropy."""
    if tensor.captured_mass > 0.0:
        schmidt = schmidt_report(tensor)
        sigma, entropy = schmidt.singular_values, schmidt.entropy
        report.append(f"entropy: {_fmt(entropy)}")
    else:
        sigma, entropy = np.empty(0), None
        report.append("entropy: undefined")
    total = float((sigma * sigma).sum())
    rows = ((k, s, s * s / total) for k, s in enumerate(sigma.tolist()) if s != 0.0)
    return ("k", "sigma", "p"), rows, (0, 1), lambda rows: {
        "singular_values": sigma.tolist(),
        "entropy": entropy,
        "captured_mass": tensor.captured_mass,
    }


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
