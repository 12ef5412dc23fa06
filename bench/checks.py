"""Output checks: invariants, the reference of reference.py, analytic anchors.

Each ``check_*`` function returns a list of problems; an empty list means
the output passed.  ``Checker`` maps a request and its result to the right
checks and caches the reference per request, so that repeated passes over
one request list compute each reference once.
"""

from __future__ import annotations

import json
import math

import numpy as np

import reference as ref

#: Largest allowed |amplitude - reference|.  The reference agrees with
#: mpmath to ~1e-14 and the closed form with the reference to ~3e-13 on
#: the ranges the workloads draw from; the known faults miss by > 1e-6.
TOL_REF = 1e-10
#: Largest allowed excess of a captured mass over 1, or of |amplitude| over 1.
TOL_MASS = 1e-10
#: Reference rows and tensors are grown until their mass reaches 1 - this.
REF_MASS = 1e-12


def _mass_problems(mass, eps):
    problems = []
    if not (1.0 - eps <= mass <= 1.0 + TOL_MASS):
        problems.append(f"captured mass {mass!r} outside [1 - {eps:g}, 1 + {TOL_MASS:g}]")
    return problems


def _bound_problems(values):
    peak = float(np.max(np.abs(values))) if np.size(values) else 0.0
    return [f"|amplitude| {peak!r} > 1 + {TOL_MASS:g}"] if peak > 1.0 + TOL_MASS else []


def _ref_problems(values, expected, what="amplitude"):
    values = np.asarray(values)
    expected = np.asarray(expected)
    if values.shape != expected.shape:
        return [f"{what} shape {values.shape} != reference {expected.shape}"]
    if not np.all(np.isfinite(values)):
        return [f"non-finite {what}"]
    err = np.abs(values - expected)
    worst = np.unravel_index(int(np.argmax(err)), err.shape)
    if err[worst] > TOL_REF:
        at = tuple(int(i) for i in worst)
        return [f"{what} at {at if len(at) > 1 else at[0]} is {float(values[worst])!r}, "
                f"reference {float(expected[worst])!r} (|diff| {err[worst]:.3g} > {TOL_REF:g})"]
    return []


def check_spectrum(result, ref_row, eps, anchor=None):
    """1D spectrum: shape, P = A^2, mass window, |A| <= 1, reference
    agreement, minimal cutoff, and an analytic anchor when given."""
    amp = np.asarray(result["amplitude"], dtype=float)
    prob = np.asarray(result["probability"], dtype=float)
    cutoff = int(result["cutoff"])
    problems = []
    if amp.shape != (cutoff + 1,) or prob.shape != amp.shape:
        return [f"spectrum length {amp.shape} / {prob.shape} does not match cutoff {cutoff}"]
    if "n_prime" in result and not np.array_equal(result["n_prime"], np.arange(cutoff + 1)):
        problems.append("n_prime is not 0..cutoff in order")
    if not np.allclose(prob, amp * amp, rtol=1e-14, atol=0.0):
        problems.append("probability differs from amplitude squared")
    mass = float(prob.sum())
    if not math.isclose(mass, result["captured_mass"], rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"captured_mass {result['captured_mass']!r} != sum of probabilities {mass!r}")
    problems += _mass_problems(mass, eps)
    problems += _bound_problems(amp)
    if len(ref_row) <= cutoff:
        raise ValueError("reference row shorter than the spectrum")
    problems += _ref_problems(amp, ref_row[: cutoff + 1])
    cumulative = np.cumsum(ref_row[: cutoff + 1] ** 2)
    if cumulative[-1] < 1.0 - eps - TOL_REF or (
            cutoff > 0 and cumulative[-2] >= 1.0 - eps + TOL_REF):
        problems.append(f"cutoff {cutoff} is not the first index reaching mass 1 - {eps:g}")
    if anchor is not None:
        err = np.abs(prob - anchor[: cutoff + 1])
        if err.max() > 1e-12:
            k = int(np.argmax(err))
            problems.append(f"P({k}) = {prob[k]!r}, analytic {anchor[k]!r}")
    return problems


def check_matrix(result, ref_rows):
    """Coupling matrix: reference agreement, |A| <= 1, orthonormality of
    the rows the reference shows fully captured, and the Gram defect."""
    values = np.asarray(result["values"], dtype=float)
    problems = _ref_problems(values, ref_rows)
    if problems:
        return problems
    problems += _bound_problems(values)
    captured = (ref_rows ** 2).sum(axis=1) >= 1.0 - REF_MASS
    rows = values[captured]
    if rows.size:
        defect = np.abs(rows @ rows.T - np.eye(len(rows))).max()
        if defect > TOL_REF:
            problems.append(f"fully captured rows are not orthonormal (defect {defect:.3g})")
    if result.get("gram_defect") is not None:
        gram = float(np.abs(values @ values.T - np.eye(len(values))).max())
        if not math.isclose(gram, result["gram_defect"], rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"gram_defect {result['gram_defect']!r} != recomputed {gram!r}")
    return problems


def check_tensor(result, expected, eps):
    """2D amplitudes: mass window, |A| <= 1, reference agreement."""
    values = np.asarray(result["values"], dtype=float)
    mass = float((values * values).sum())
    problems = []
    if "captured_mass" in result and not math.isclose(
            mass, result["captured_mass"], rel_tol=1e-12, abs_tol=1e-15):
        problems.append(f"captured_mass {result['captured_mass']!r} != sum of squares {mass!r}")
    problems += _mass_problems(mass, eps)
    problems += _bound_problems(values)
    problems += _ref_problems(values, expected)
    return problems


def check_schmidt(sigma, entropy, mass, sigma_ref, tol):
    """Schmidt report: descending, sum sigma^2 = captured mass, entropy
    >= 0 and consistent with sigma, sigma agreeing with the reference."""
    sigma = np.asarray(sigma, dtype=float)
    problems = []
    if np.any(np.diff(sigma) > 0.0) or np.any(sigma < 0.0):
        problems.append("singular values are not non-negative and descending")
    total = float((sigma * sigma).sum())
    if not math.isclose(total, mass, rel_tol=1e-12):
        problems.append(f"sum sigma^2 {total!r} != captured mass {mass!r}")
    p = sigma[sigma > 0.0] ** 2 / total
    expected = float(-(p * np.log(p)).sum())
    if not entropy >= 0.0:
        problems.append(f"entropy {entropy!r} < 0")
    if not math.isclose(entropy, expected, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"entropy {entropy!r} != -sum p ln p {expected!r}")
    k = min(len(sigma), len(sigma_ref))
    err = np.abs(sigma[:k] - sigma_ref[:k])
    if k and err.max() > tol:
        i = int(np.argmax(err))
        problems.append(f"sigma[{i}] = {sigma[i]!r}, reference {sigma_ref[i]!r}")
    return problems


# ---------------------------------------------------------------- CLI output

def _csv_rows(text, header, n_index):
    """(index tuples, value rows) of a CSV whose first ``n_index`` columns
    are integer indices; rows must ascend strictly in index order."""
    columns = header.count(",") + 1
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise ValueError(f"CSV header {lines[0] if lines else ''!r} != {header!r}")
    keys, vals = [], []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != columns:
            raise ValueError(f"CSV row {line!r} has {len(fields)} fields")
        keys.append(tuple(int(f) for f in fields[:n_index]))
        vals.append([float(f) for f in fields[n_index:]])
    if not keys:
        raise ValueError("no data rows")
    if any(b <= a for a, b in zip(keys, keys[1:])):
        raise ValueError("rows are not in ascending index order")
    return keys, np.array(vals).reshape(len(vals), -1)


def _dropped(keys, ref_prob):
    """Rows may be omitted only where the probability is exactly zero
    (parity-forbidden); flag an omitted row the reference says is not."""
    present = np.zeros(ref_prob.shape, dtype=bool)
    for key in keys:
        if all(k < s for k, s in zip(key, ref_prob.shape)):
            present[key] = True
    limit = tuple(max(key[i] for key in keys) + 1 for i in range(ref_prob.ndim))
    window = tuple(slice(0, m) for m in limit)
    missing = ~present[window] & (ref_prob[window] > 1e-20)
    if missing.any():
        at = tuple(int(i[0]) for i in np.nonzero(missing))
        return [f"row {at if len(at) > 1 else at[0]} missing from the output"]
    return []


class Checker:
    """Checks results of one request list; caches references per request."""

    def __init__(self):
        self._cache = {}

    # -- references, grown on demand ------------------------------------
    def _row(self, key, ratio, big_d, n, k_min):
        cached = self._cache.get(key)
        if cached is None or len(cached) <= k_min:
            k_top = max(k_min, 2 * (len(cached) if cached is not None else 32))
            cached = ref.row_1d(1.0, ratio, math.sqrt(big_d), n, k_top)
            self._cache[key] = cached
        return cached

    def _rows(self, key, ratio, big_d, n_max, n_prime_max):
        rows = self._cache.get(key)
        if rows is None:
            rows = ref.rows_1d(1.0, ratio, math.sqrt(big_d), n_max, n_prime_max)
            self._cache[key] = rows
        return rows

    def _tensor(self, key, p, shape):
        cached = self._cache.get(key)
        if cached is None or cached.shape != shape:
            cached = ref.tensor_2d(p["ratio_x"], p["ratio_y"], p.get("gamma_prime", 0.0),
                                   (math.sqrt(p["D_x"]), math.sqrt(p["D_y"])),
                                   p["nx"], p["ny"], shape[0] - 1, shape[1] - 1)
            self._cache[key] = cached
        return cached

    def _full_tensor(self, key, p):
        """Reference tensor grown until its mass reaches 1 - REF_MASS."""
        if (key, "full") in self._cache:
            return self._cache[key, "full"]
        shape = (33, 33)
        while True:
            t = self._tensor(key, p, shape)
            prob = t * t
            if prob.sum() >= 1.0 - REF_MASS or max(shape) > 1024:
                self._cache[key, "full"] = t
                return t
            if prob[-1, :].sum() >= prob[:, -1].sum():
                shape = (shape[0] * 3 // 2, shape[1])
            else:
                shape = (shape[0], shape[1] * 3 // 2)

    def _separable(self, key, p, shape):
        row_x = self._row((key, "x"), p["ratio_x"], p["D_x"], p["nx"], shape[0])
        row_y = self._row((key, "y"), p["ratio_y"], p["D_y"], p["ny"], shape[1])
        return np.outer(row_x[: shape[0]], row_y[: shape[1]])

    # -- checks -----------------------------------------------------------
    def check(self, req, result) -> list:
        """Problems with ``result`` for ``req``; [] when it passed."""
        if "error" in result:
            return [f"raised {result['error']}"]
        key = req["id"]
        kind = req["kind"]
        if kind == "spectrum1d":
            row = self._row(key, req["ratio"], req["D"], req["n"], int(result["cutoff"]))
            anchor = None
            if req.get("anchor") == "poisson":
                anchor = ref.poisson_probabilities(req["D"], len(row) - 1)
            elif req.get("anchor") == "squeeze":
                anchor = ref.squeeze_probabilities(req["ratio"], len(row) - 1)
            return check_spectrum(result, row, req["eps"], anchor)
        if kind == "matrix":
            rows = self._rows(key, req["ratio"], req["D"], req["n_max"], req["n_prime_max"])
            return check_matrix(result, rows)
        if kind == "separable":
            shape = np.shape(result["values"])
            return check_tensor(result, self._separable(key, req, shape), req["eps"])
        if kind == "entropy":
            shape = np.shape(result["values"])
            expected = (self._separable(key, req, shape) if req["gamma_prime"] == 0.0
                        else self._tensor(key, req, shape))
            problems = check_tensor(result, expected, req["eps"])
            sigma_ref = np.linalg.svd(expected, compute_uv=False)
            problems += check_schmidt(result["singular_values"], result["entropy"],
                                      result["captured_mass"], sigma_ref, TOL_REF)
            return problems
        if kind == "cli":
            return self.check_cli(req, result["code"], result["stdout"], result["stderr"])
        raise ValueError(f"unknown request kind {kind!r}")

    def check_cli(self, req, code, stdout: bytes, stderr: str) -> list:
        problems = []
        if "Traceback" in stderr:
            problems.append("stderr shows a traceback")
        expected_code = 3 if req.get("fault") == "entropy-partial" else 0
        if code != expected_code:
            problems.append(f"exit code {code}, expected {expected_code}")
        if problems:
            return problems
        try:
            return self._cli_output(req, stdout.decode(), stderr)
        except (ValueError, KeyError, IndexError) as exc:
            return [f"output does not parse: {exc}"]

    def _cli_output(self, req, text, stderr):
        lib = req["lib"]
        key = req["id"]
        command = req["command"]
        fmt = req["params"].get("format", "csv")
        if req.get("fault") == "entropy-partial":
            # a partial result must still be emitted
            return [] if text.startswith("k,sigma,p\n") else ["no partial data emitted"]
        if command == "spectrum1d":
            keys, vals = _csv_rows(text, "n_prime,amplitude,probability", 1)
            eps = lib["eps"]
            cutoff = keys[-1][0]
            row = self._row(key, lib["ratio"], lib["D"], lib["n"], cutoff)
            problems = _dropped(keys, row[: cutoff + 1] ** 2)
            amp, prob = np.zeros(cutoff + 1), np.zeros(cutoff + 1)
            idx = [k[0] for k in keys]
            amp[idx], prob[idx] = vals[:, 0], vals[:, 1]
            result = {"amplitude": amp, "probability": prob, "cutoff": cutoff,
                      "captured_mass": float(prob.sum())}
            return problems + check_spectrum(result, row, eps)
        if command == "matrix":
            n_max, n_prime_max = lib["n_max"], lib["n_prime_max"]
            if fmt == "json":
                payload = json.loads(text)
                result = {"values": np.array(payload["values"], dtype=float),
                          "gram_defect": payload["gram_defect"]}
            else:
                keys, vals = _csv_rows(text, "n,n_prime,amplitude", 2)
                count = (n_max + 1) * (n_prime_max + 1)
                if len(keys) != count:
                    return [f"{len(keys)} rows, expected {count}"]
                result = {"values": vals[:, 0].reshape(n_max + 1, n_prime_max + 1)}
            rows = self._rows(key, lib["ratio"], lib["D"], n_max, n_prime_max)
            return check_matrix(result, rows)
        eps = lib["eps"]
        if command in ("spectrum2d", "coupled2d"):
            keys, vals = _csv_rows(text, "nx_prime,ny_prime,amplitude,probability", 2)
            shape = (max(k[0] for k in keys) + 1, max(k[1] for k in keys) + 1)
            expected = (self._separable(key, lib, shape) if command == "spectrum2d"
                        else self._tensor(key, lib, shape))
            problems = _dropped(keys, expected ** 2)
            values, prob = np.zeros(shape), np.zeros(shape)
            for (i, j), (a, pr) in zip(keys, vals):
                values[i, j], prob[i, j] = a, pr
            if not np.allclose(prob, values * values, rtol=1e-14, atol=0.0):
                problems.append("probability differs from amplitude squared")
            return problems + check_tensor({"values": values}, expected, eps)
        if command == "entropy":
            keys, vals = _csv_rows(text, "k,sigma,p", 1)
            if [k[0] for k in keys] != list(range(len(keys))):
                return ["singular values are not numbered 0, 1, ..."]
            sigma, p_col = vals[:, 0], vals[:, 1]
            mass = float((sigma * sigma).sum())
            if not np.allclose(p_col, sigma * sigma / mass, rtol=1e-12, atol=1e-300):
                return ["p column differs from sigma^2 / sum sigma^2"]
            line = [s for s in stderr.splitlines() if s.startswith("# entropy: ")]
            if not line:
                return ["run report lacks the entropy line"]
            entropy = float(line[0].split(": ", 1)[1])
            full = self._full_tensor(key, lib)
            sigma_ref = np.linalg.svd(full, compute_uv=False)
            # truncating a tensor by tail mass <= eps moves each singular
            # value by at most sqrt(eps) (Weyl's inequality)
            problems = _mass_problems(mass, eps)
            return problems + check_schmidt(sigma, entropy, mass, sigma_ref,
                                            math.sqrt(eps) + TOL_REF)
        raise ValueError(f"unknown CLI command {command!r}")
