"""Seeded request lists for the three workloads.

A request is a plain dict; ``fault`` names the known fault a request is
expected to hit (None for requests that must pass).  Parameters come from
``_Design``: the seed changes every value but not the make-up of the list,
which keeps run-to-run spread down without fixing the inputs.

Dimensionless parameters map to frames as the selfoc CLI maps them: source
frequency 1 at the origin, target frequency ``ratio``, shift ``sqrt(D)``.
"""

from __future__ import annotations

import random

WORKLOADS = ("table-spectra", "coupled-entropy", "cli-cold")

#: Known faults kept in the workloads; each failure message names one.
FAULTS = {
    "row-recurrence": (
        "row recurrence of the two-index Hermite table is unstable in n "
        "(ROADMAP item 1): excited spectra at large shift come back wrong"
    ),
    "entropy-partial": (
        "entropy has no partial path (ROADMAP item 2): a capped cross-coupled "
        "entropy request dies with a PartialTensorError traceback, exit 1"
    ),
}

#: Rule orders generated during coupled-entropy set-up (the cache holds 256).
WARM_ORDERS = range(1, 201)

SCENARIOS = (
    ("spectrum1d", "planar_stretch3_shift9.scenario"),
    ("spectrum1d", "planar_stretch3_shift16_n3.scenario"),
    ("spectrum2d", "elliptic_ground.scenario"),
    ("spectrum2d", "elliptic_excited.scenario"),
    ("entropy", "coupled_entropy.scenario"),
)


class _Design:
    """Space-filling design whose layout is fixed and whose values the seed
    jitters.

    For ``count`` requests, every continuous parameter is split into
    ``count`` equal bins and each request owns one bin per parameter.  Which
    bins go together is fixed by the design's name (a Latin hypercube drawn
    once); the seed only places each value inside its bin.  So every seed
    gives new inputs, while the mix of cheap and costly requests, which sets
    the medians and the throughput, stays the same.
    """

    def __init__(self, name: str, rng: random.Random, count: int):
        self._layout = random.Random(f"design/{name}")
        self._rng = rng
        self.count = count

    def _bins(self) -> list:
        bins = list(range(self.count))
        self._layout.shuffle(bins)
        return bins

    def uniform(self, lo: float, hi: float) -> list:
        """One value per request, one request per bin of [lo, hi]."""
        return [lo + (hi - lo) * (b + self._rng.random()) / self.count for b in self._bins()]

    def shift(self, d_max: float) -> list:
        """Dimensionless shifts D = d^2 with the displacement d in [0, d_max]."""
        return [d * d for d in self.uniform(0.0, d_max)]

    def integers(self, lo: int, hi: int) -> list:
        """lo..hi, as evenly represented as ``count`` allows, in fixed places."""
        span = hi - lo + 1
        return [lo + (b * span) // self.count for b in self._bins()]


def table_spectra(seed: int) -> list:
    """Closed-form requests: 1D spectra, coupling matrices, separable 2D."""
    rng = random.Random(f"table-spectra/{seed}")
    out = []

    # Spectra up to n = 14 over the whole shift range, and n = 15..20 at
    # shifts up to 100: the closed form agrees with the reference to
    # 1e-12 or better there.  Between these and the fault slice the error
    # crosses the check tolerance at seed-dependent points, so that band
    # is left out (see CHANGES.md).
    x = _Design("spectra", rng, 96)
    for ratio, big_d, n in zip(x.uniform(1.5, 5.0), x.shift(30.0), x.integers(0, 14)):
        out.append({"kind": "spectrum1d", "ratio": ratio, "D": big_d, "n": n, "eps": 1e-8})
    x = _Design("excited", rng, 24)
    for ratio, big_d, n in zip(x.uniform(1.5, 5.0), x.shift(10.0), x.integers(15, 20)):
        out.append({"kind": "spectrum1d", "ratio": ratio, "D": big_d, "n": n, "eps": 1e-8})

    # Known fault: excited spectra at large shift.
    x = _Design("fault", rng, 8)
    for ratio, big_d, n in zip(x.uniform(2.0, 5.0), x.uniform(400.0, 900.0),
                               x.integers(30, 40)):
        out.append({"kind": "spectrum1d", "ratio": ratio, "D": big_d, "n": n,
                    "eps": 1e-8, "fault": "row-recurrence"})

    # Analytic anchors.
    x = _Design("anchors", rng, 3)
    for big_d in x.uniform(1.0, 400.0):
        out.append({"kind": "spectrum1d", "ratio": 1.0, "D": big_d, "n": 0,
                    "eps": 1e-8, "anchor": "poisson"})
    for ratio in x.uniform(1.5, 5.0):
        out.append({"kind": "spectrum1d", "ratio": ratio, "D": 0.0, "n": 0,
                    "eps": 1e-8, "anchor": "squeeze"})

    x = _Design("matrices", rng, 16)
    for ratio, big_d, n_max, n_prime_max in zip(
            x.uniform(1.5, 5.0), x.shift(10.0), x.integers(5, 20), x.integers(200, 1000)):
        out.append({"kind": "matrix", "ratio": ratio, "D": big_d,
                    "n_max": n_max, "n_prime_max": n_prime_max})

    x = _Design("separable", rng, 12)
    for rx, ry, dx, dy, nx, ny in zip(
            x.uniform(1.5, 5.0), x.uniform(1.5, 5.0), x.shift(10.0), x.shift(10.0),
            x.integers(0, 5), x.integers(0, 5)):
        out.append({"kind": "separable", "ratio_x": rx, "ratio_y": ry, "D_x": dx,
                    "D_y": dy, "nx": nx, "ny": ny, "eps": 1e-8})

    rng.shuffle(out)
    return out


def coupled_entropy(seed: int) -> list:
    """Cross-coupled entropy reports, plus a gamma' = 0 share.

    Ranges keep the largest rectangle near 210 x 25, below the default cap
    of 256: at stretches 3 and shifts 36 the cap is reached and the request
    fails by design of the cap, not of the program.  The order is fixed
    (not shuffled): the process's peak memory depends on its allocation
    history, and a seeded order made it jump between runs.
    """
    rng = random.Random(f"coupled-entropy/{seed}")
    # Fixed, not seeded: the corner of the ranges, the largest rectangle,
    # which sets the workload's peak memory whatever the seed.
    out = [{"kind": "entropy", "ratio_x": 2.5, "ratio_y": 2.5, "gamma_prime": 5.0,
            "D_x": 25.0, "D_y": 25.0, "nx": 2, "ny": 2, "eps": 1e-6}]
    x = _Design("coupled", rng, 54)
    # gamma' is a fraction g of the positive-definiteness limit 2 wx' wy'
    for rx, ry, g, dx, dy, nx, ny in zip(
            x.uniform(1.5, 2.5), x.uniform(1.5, 2.5), x.uniform(-0.4, 0.4),
            x.shift(5.0), x.shift(5.0), x.integers(0, 2), x.integers(0, 2)):
        out.append({"kind": "entropy", "ratio_x": rx, "ratio_y": ry,
                    "gamma_prime": 2.0 * g * rx * ry, "D_x": dx, "D_y": dy,
                    "nx": nx, "ny": ny, "eps": 1e-6})
    x = _Design("uncoupled", rng, 6)
    for rx, ry, dx, dy, nx, ny in zip(
            x.uniform(1.5, 2.5), x.uniform(1.5, 2.5), x.shift(5.0), x.shift(5.0),
            x.integers(0, 2), x.integers(0, 2)):
        out.append({"kind": "entropy", "ratio_x": rx, "ratio_y": ry,
                    "gamma_prime": 0.0, "D_x": dx, "D_y": dy,
                    "nx": nx, "ny": ny, "eps": 1e-6})
    return out


def _flags(params: dict) -> list:
    argv = []
    for key, value in params.items():
        argv += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
    return argv


def read_scenario(path) -> dict:
    """``key = value`` lines, ``#`` comments; values parsed as numbers."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, text = line.partition("=")
            text = text.strip()
            try:
                value = int(text)
            except ValueError:
                value = float(text)
            values[key.strip().replace("_", "-")] = value
    return values


def library_form(command: str, params: dict) -> dict:
    """The in-process request a CLI request stands for.

    Every parameter the library call needs must be given, in the scenario
    or on the command line, so that no CLI default is copied here; only
    gamma' of ``spectrum2d`` is 0 by the command's meaning.
    """
    if command in ("spectrum1d", "matrix"):
        lib = {"kind": command, "ratio": float(params["ratio"]), "D": float(params["D"])}
        if command == "spectrum1d":
            lib.update(n=int(params["n"]), eps=float(params["eps"]))
        else:
            lib.update(n_max=int(params["n-max"]), n_prime_max=int(params["n-prime-max"]))
        return lib
    kind = {"spectrum2d": "separable", "coupled2d": "coupled", "entropy": "entropy"}[command]
    return {"kind": kind, "ratio_x": float(params["ratio-x"]),
            "ratio_y": float(params["ratio-y"]),
            "gamma_prime": 0.0 if kind == "separable" else float(params["gamma-prime"]),
            "D_x": float(params["D-x"]), "D_y": float(params["D-y"]),
            "nx": int(params["nx"]), "ny": int(params["ny"]), "eps": float(params["eps"])}


def cli_cold(seed: int, scenario_dir) -> list:
    """One fresh ``selfoc`` process per request: the shipped scenarios,
    four stress requests and the known-fault entropy request.  The seed
    sets the stress requests' parameters and the order.  ``lib`` holds
    the library form of each request (``library_form``)."""
    rng = random.Random(f"cli-cold/{seed}")
    out = []

    def add(command, params, argv, **extra):
        out.append({"kind": "cli", "command": command, "params": params, "argv": argv,
                    "lib": library_form(command, params), **extra})

    for command, name in SCENARIOS:
        path = scenario_dir / name
        add(command, read_scenario(path), [command, "--scenario", str(path)])

    def stress(command, **params):
        add(command, params, [command, *_flags(params)])

    for fmt, n_prime_max in (("csv", 2000), ("json", 2400)):
        stress("matrix", ratio=rng.uniform(1.5, 5.0), D=rng.uniform(0.0, 100.0),
               **{"n-max": 20, "n-prime-max": n_prime_max, "format": fmt})
    stress("spectrum1d", ratio=rng.uniform(1.5, 3.0), D=1600.0, n=0, eps=1e-8)
    # Fixed, not seeded: this request sets the workload's peak memory, and
    # its rectangle grows in steps of 8, so a seeded size makes the peak jump.
    stress("coupled2d", **{"ratio-x": 2.5, "ratio-y": 2.5, "gamma-prime": 3.75,
                           "D-x": 24.0, "D-y": 24.0, "nx": 0, "ny": 0, "eps": 1e-6})
    fault = {"ratio-x": 2, "ratio-y": 3, "D-x": 400, "D-y": 400, "gamma-prime": 1.5,
             "nx": 0, "ny": 0, "eps": 1e-12, "cap": 16}
    add("entropy", fault, ["entropy", *_flags(fault)], fault="entropy-partial")
    rng.shuffle(out)
    return out


def requests(workload: str, seed: int, scenario_dir) -> list:
    if workload == "table-spectra":
        return table_spectra(seed)
    if workload == "coupled-entropy":
        return coupled_entropy(seed)
    if workload == "cli-cold":
        return cli_cold(seed, scenario_dir)
    raise ValueError(f"unknown workload {workload!r}")
