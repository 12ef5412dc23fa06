"""Host process for in-process selfoc requests.

Started by ``run.py`` with ``src`` on PYTHONPATH; reads pickled commands
from stdin and answers each on stdout.  Only selfoc, numpy (through selfoc)
and the standard library are imported here, so the peak resident memory
this process reports is the program's own: the benchmark's reference
computations run in the parent.

Commands (tuples):
  ("warmup", workload, orders) import selfoc, warm up; answers "ready"
  ("call", request, trace)    run one request; answers (seconds, result, spans)
  ("cli", request, trace)     run one CLI request in-process (traced run)
  ("rule_cold", orders)       generate each rule from an empty cache
  ("maxrss",)                 peak resident set of this process in KiB
  ("exit",)
"""

from __future__ import annotations

import contextlib
import io
import math
import pickle
import resource
import sys
import time

_clock = time.perf_counter


class Tracer:
    """In-memory spans: (name, start, end, parent index, request id)."""

    def __init__(self, request_id):
        self.request_id = request_id
        self.spans = []
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, _clock(), None, parent, self.request_id])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = _clock()


class _Off:
    """Stand-in tracer for untraced runs."""

    spans = ()

    @contextlib.contextmanager
    def span(self, name):
        yield


_OFF = _Off()


def _frames_1d(req):
    from selfoc import OscillatorFrame

    return OscillatorFrame(1.0), OscillatorFrame(req["ratio"], math.sqrt(req["D"]))


def _guides_2d(req):
    from selfoc import Waveguide2D

    center = (math.sqrt(req["D_x"]), math.sqrt(req["D_y"]))
    return (Waveguide2D(1.0, 1.0),
            Waveguide2D(req["ratio_x"], req["ratio_y"], req.get("gamma_prime", 0.0), center))


def _spectrum(req, tr):
    import selfoc

    source, target = _frames_1d(req)
    t = selfoc.Transition1D(source, target, req["n"])
    t0 = _clock()
    with tr.span("coupling1d.spectrum1d"):
        s = selfoc.spectrum1d(t, epsilon=req["eps"])
    elapsed = _clock() - t0
    if tr is not _OFF:
        # re-runs, after the timed call, of the table work it contains
        with tr.span("rerun.hermite.build_kernel"):
            kernel = selfoc.build_kernel(source, target)
        with tr.span("rerun.hermite.table_row0"):
            selfoc.scaled_hermite_table(kernel, 0, s.cutoff)
        with tr.span("rerun.hermite.table"):
            selfoc.scaled_hermite_table(kernel, req["n"], s.cutoff)
    result = {"amplitude": s.amplitude, "probability": s.probability,
              "n_prime": s.n_prime, "captured_mass": s.captured_mass, "cutoff": s.cutoff}
    return elapsed, result


def _matrix(req, tr):
    import selfoc

    source, target = _frames_1d(req)
    t0 = _clock()
    with tr.span("coupling1d.coupling_matrix"):
        m = selfoc.coupling_matrix(source, target, req["n_max"], req["n_prime_max"])
    elapsed = _clock() - t0
    if tr is not _OFF:
        with tr.span("rerun.hermite.table"):
            kernel = selfoc.build_kernel(source, target)
            selfoc.scaled_hermite_table(kernel, req["n_max"], req["n_prime_max"])
    return elapsed, {"values": m.values, "gram_defect": m.gram_defect}


def _separable(req, tr):
    import selfoc

    source, target = _guides_2d(req)
    t0 = _clock()
    with tr.span("coupling2d.spectrum2d_separable"):
        c = selfoc.spectrum2d_separable(source, target, req["nx"], req["ny"], epsilon=req["eps"])
    elapsed = _clock() - t0
    return elapsed, {"values": c.values, "captured_mass": c.captured_mass}


def _entropy(req, tr):
    import selfoc
    from selfoc.quadrature import gauss_hermite

    source, target = _guides_2d(req)
    before = gauss_hermite.cache_info()
    t0 = _clock()
    with tr.span("coupling2d.coupled_tensor"):
        c = selfoc.coupled_tensor(source, target, req["nx"], req["ny"], epsilon=req["eps"])
    with tr.span("coupling2d.schmidt_report"):
        report = selfoc.schmidt_report(c)
    elapsed = _clock() - t0
    after = gauss_hermite.cache_info()
    result = {"values": c.values, "captured_mass": c.captured_mass,
              "singular_values": report.singular_values, "entropy": report.entropy,
              "rule_hits": after.hits - before.hits,
              "rule_misses": after.misses - before.misses}
    if tr is not _OFF:
        top1, top2 = (k - 1 for k in c.values.shape)
        with tr.span("rerun.coupling2d.overlap_coupled"):
            selfoc.overlap_coupled(source, target, req["nx"], req["ny"], top1, top2)
    return elapsed, result


_CALLS = {"spectrum1d": _spectrum, "matrix": _matrix, "separable": _separable,
          "entropy": _entropy}


def _cli(req, tr):
    """selfoc.cli.run in-process, then the library call it wraps.

    The rule cache is emptied before each, as in a fresh process.
    """
    import selfoc.cli
    from selfoc.quadrature import gauss_hermite

    out, err = io.StringIO(), io.StringIO()
    gauss_hermite.cache_clear()
    t0 = _clock()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tr.span("cli.run"):
                code = selfoc.cli.run(req["argv"])
    except Exception as exc:  # an escaped exception is what a traceback exit shows
        code = 1
        err.write(f"Traceback (most recent call last):\n{type(exc).__name__}: {exc}\n")
    elapsed = _clock() - t0
    lib = req["lib"]
    if req.get("fault") is None:
        gauss_hermite.cache_clear()
        import selfoc

        with tr.span("cli.library"):
            if lib["kind"] == "coupled":
                source, target = _guides_2d(lib)
                selfoc.coupled_tensor(source, target, lib["nx"], lib["ny"], epsilon=lib["eps"])
            else:
                _CALLS[lib["kind"]](lib, _OFF)
    result = {"code": code, "stdout": out.getvalue().encode(), "stderr": err.getvalue()}
    return elapsed, result


def _warmup(workload, orders):
    import selfoc  # noqa: F401  (the import is part of set-up)

    if workload == "coupled-entropy":
        from selfoc.quadrature import gauss_hermite

        for order in orders:
            gauss_hermite(order)
        _entropy({"ratio_x": 2.0, "ratio_y": 3.0, "gamma_prime": 1.5, "D_x": 4.0,
                  "D_y": 9.0, "nx": 1, "ny": 0, "eps": 1e-6}, _OFF)
    elif workload == "table-spectra":
        _spectrum({"ratio": 3.0, "D": 9.0, "n": 3, "eps": 1e-8}, _OFF)
        _matrix({"ratio": 3.0, "D": 9.0, "n_max": 5, "n_prime_max": 100}, _OFF)
        _separable({"ratio_x": 2.0, "ratio_y": 3.0, "D_x": 9.0, "D_y": 16.0,
                    "nx": 0, "ny": 0, "eps": 1e-8}, _OFF)


def _rule_cold(orders):
    from selfoc.quadrature import gauss_hermite

    times = []
    for order in orders:
        gauss_hermite.cache_clear()
        t0 = _clock()
        gauss_hermite(order)
        times.append(_clock() - t0)
    return times


def main():
    rd, wr = sys.stdin.buffer, sys.stdout.buffer
    # nothing else may write to the answer channel
    sys.stdout = sys.stderr
    while True:
        try:
            cmd = pickle.load(rd)
        except EOFError:
            return
        op = cmd[0]
        if op == "exit":
            return
        if op == "warmup":
            _warmup(cmd[1], cmd[2])
            answer = "ready"
        elif op in ("call", "cli"):
            req, trace = cmd[1], cmd[2]
            tr = Tracer(req.get("id")) if trace else _OFF
            try:
                with tr.span("request"):
                    if op == "cli":
                        elapsed, result = _cli(req, tr)
                    else:
                        elapsed, result = _CALLS[req["kind"]](req, tr)
            except Exception as exc:  # reported to the checker as a failed request
                elapsed, result = None, {"error": f"{type(exc).__name__}: {exc}"}
            answer = (elapsed, result, list(tr.spans))
        elif op == "rule_cold":
            answer = _rule_cold(cmd[1])
        elif op == "maxrss":
            answer = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            raise ValueError(f"unknown command {op!r}")
        pickle.dump(answer, wr, protocol=pickle.HIGHEST_PROTOCOL)
        wr.flush()


if __name__ == "__main__":
    main()
