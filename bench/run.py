"""Benchmark for selfoc: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload table-spectra --seed 1 --seconds 25 --trace 0

Run from the repository root (the program is imported from ``src``).  The
request list is generated from the seed, and whole passes over the list run
until ``--seconds`` of passes have gone by.  The program is set up several
times, spread between the passes, and the median set-up time is reported.
Every output is checked outside the timed region.  The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of the workload; ``--trace 1``
records spans around every public call and reports the per-layer metrics
(see README.md).  Result and span files go to ``bench/out/``.
"""

from __future__ import annotations

import os

# One BLAS thread everywhere, fixed before numpy loads, inherited by children.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pickle  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))

from checks import Checker  # noqa: E402
from workloads import FAULTS, WARM_ORDERS, WORKLOADS, requests  # noqa: E402

#: Set-ups per run, one before the passes and the rest spread between
#: them; the median is reported as setup_s.
SETUPS = 11
#: Console-script entry of selfoc, run from source.
CLI_MAIN = "import sys; from selfoc.cli import main; sys.exit(main())"
#: A small request that loads everything a CLI request loads.
CLI_WARMUP = ["fc-estimate", "--ratio", "3", "--D", "9"]
CHILD_TIMEOUT = 60.0

_clock = time.perf_counter


def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Worker:
    """A ``worker.py`` process holding selfoc; see that file for commands."""

    def __init__(self, workload):
        self.started = _clock()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, env=_child_env(), cwd=str(ROOT))
        self.ask("warmup", workload, list(WARM_ORDERS))
        self.setup_s = _clock() - self.started

    def ask(self, *cmd):
        pickle.dump(cmd, self.proc.stdin, protocol=pickle.HIGHEST_PROTOCOL)
        self.proc.stdin.flush()
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise RuntimeError(f"worker died (exit {self.proc.wait()})") from None

    def close(self):
        try:
            pickle.dump(("exit",), self.proc.stdin)
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def _cli_process(argv):
    """Run one ``selfoc`` process; (seconds, result) with output captured."""
    t0 = _clock()
    try:
        proc = subprocess.run([sys.executable, "-c", CLI_MAIN, *argv], env=_child_env(),
                              cwd=str(ROOT), capture_output=True, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        return None, {"error": f"timed out after {CHILD_TIMEOUT:g} s"}
    elapsed = _clock() - t0
    return elapsed, {"code": proc.returncode, "stdout": proc.stdout,
                     "stderr": proc.stderr.decode(errors="replace")}


class Tally:
    """Per-request outcomes over whole passes."""

    def __init__(self):
        self.times = []      # seconds per attempted request (None if not timed)
        self.passed = []     # bool per attempted request
        self.unexpected = []  # failures outside the known faults
        self.known = {}      # fault name -> first failure message

    def add(self, req, elapsed, problems):
        self.times.append(elapsed)
        self.passed.append(not problems)
        if not problems:
            return
        fault = req.get("fault")
        message = "; ".join(problems)
        if fault is None:
            self.unexpected.append(f"request {req['id']} {_describe(req)}: {message}")
        else:
            self.known.setdefault(fault, f"known fault {fault} ({FAULTS[fault]}): "
                                         f"request {req['id']} {_describe(req)}: {message}")

    @property
    def attempted(self):
        return len(self.passed)

    @property
    def failed(self):
        return self.passed.count(False)

    def op_ms_p50(self):
        # a failed request counts as missing any latency limit
        times = [t if ok and t is not None else math.inf
                 for t, ok in zip(self.times, self.passed)]
        return 1e3 * statistics.median(times)

    def ops_per_s(self):
        busy = sum(t for t in self.times if t is not None)
        return self.passed.count(True) / busy


def _describe(req):
    skip = {"id", "kind", "fault", "argv"}
    if req["kind"] == "cli":
        return "selfoc " + " ".join(req["argv"])
    return req["kind"] + " " + " ".join(
        f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}"
        for k, v in req.items() if k not in skip)


def _run_passes(reqs, seconds, one, after_pass=None):
    """Whole passes over ``reqs`` until ``seconds`` of passes have gone by.

    ``one(req)`` runs a request and returns (elapsed, problems).
    ``after_pass(share)`` runs after each pass with the share of the run
    done (1 after the last pass); its time is not counted."""
    tally = Tally()
    spent = 0.0
    passes = 0
    while passes == 0 or spent < seconds:
        t0 = _clock()
        for req in reqs:
            elapsed, problems = one(req)
            tally.add(req, elapsed, problems)
        spent += _clock() - t0
        passes += 1
        if after_pass is not None:
            after_pass(min(spent / seconds, 1.0) if seconds > 0 else 1.0)
    return tally, passes


def _in_process_one(worker, checker):
    def one(req):
        elapsed, result, _spans = worker.ask("call", req, False)
        return elapsed, checker.check(req, result)
    return one


def _cli_one(checker):
    def one(req):
        elapsed, result = _cli_process(req["argv"])
        return elapsed, checker.check(req, result)
    return one


def _cli_setup():
    elapsed, result = _cli_process(CLI_WARMUP)
    if elapsed is None or result["code"] != 0:
        raise RuntimeError(f"CLI warm-up failed: {result}")
    return elapsed


def _worker_setup(workload):
    worker = Worker(workload)
    worker.close()
    return worker.setup_s


def measure(workload, seed, seconds):
    """Untraced run: the end-to-end metrics.

    The first set-up comes before the passes (on in-process workloads its
    process runs them); the others are spread between the passes, so that
    the set-up times sample the same stretch of the host's load as the
    request times."""
    reqs = _requests(workload, seed)
    checker = Checker()
    worker = None
    if workload == "cli-cold":
        setup = _cli_setup
        setups = [setup()]
        one = _cli_one(checker)
    else:
        def setup():
            return _worker_setup(workload)
        worker = Worker(workload)
        setups = [worker.setup_s]
        one = _in_process_one(worker, checker)

    def after_pass(share):
        while len(setups) < 1 + round((SETUPS - 1) * share):
            setups.append(setup())

    try:
        tally, passes = _run_passes(reqs, seconds, one, after_pass)
        if worker is None:
            peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        else:
            peak_kib = worker.ask("maxrss")
    finally:
        if worker is not None:
            worker.close()
    metrics = {
        "op_ms_p50": (tally.op_ms_p50(), "ms"),
        "ops_per_s": (tally.ops_per_s(), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }
    extra = {"passes": passes, "setups_s": setups,
             "samples_ms": [None if t is None else 1e3 * t for t in tally.times],
             "passed": tally.passed}
    return tally, metrics, extra


def _requests(workload, seed):
    reqs = requests(workload, seed, SCENARIOS)
    for i, req in enumerate(reqs):
        req["id"] = f"{workload}/{i}"
    return reqs


# ------------------------------------------------------------------ tracing

def _durations(spans):
    """{request id: {span name: seconds per pass}}."""
    sums, passes = {}, {}
    for name, start, end, _parent, rid in spans:
        per = sums.setdefault(rid, {})
        per[name] = per.get(name, 0.0) + (end - start)
        if name == "request":
            passes[rid] = passes.get(rid, 0) + 1
    return {rid: {name: t / passes[rid] for name, t in per.items()}
            for rid, per in sums.items()}


def _layer_split(reqs, durations):
    """Seconds per pass spent in each layer, over ``reqs``.

    A public call's time is split by the re-runs (``rerun.*`` spans) of the
    lower-layer work it contains: the table fill of a spectrum's or
    matrix's own extent goes to ``hermite``, the rest of the call to
    ``coupling1d``.  ``spectrum2d_separable`` (whose per-axis rows are
    private) and ``coupled_tensor`` + ``schmidt_report`` stay whole in
    ``coupling2d``; ``cli.run`` is split into the library call of the same
    request and the CLI's own part."""
    split = {}

    def add(layer, seconds):
        split[layer] = split.get(layer, 0.0) + seconds

    for r in reqs:
        d = durations.get(r["id"], {})
        if "coupling1d.spectrum1d" in d and "rerun.hermite.table" in d:
            table = d["rerun.hermite.build_kernel"] + d["rerun.hermite.table"]
            add("hermite", table)
            add("coupling1d", d["coupling1d.spectrum1d"] - table)
        elif "coupling1d.coupling_matrix" in d and "rerun.hermite.table" in d:
            add("hermite", d["rerun.hermite.table"])
            add("coupling1d", d["coupling1d.coupling_matrix"] - d["rerun.hermite.table"])
        elif "coupling2d.spectrum2d_separable" in d:
            add("coupling2d", d["coupling2d.spectrum2d_separable"])
        elif "coupling2d.coupled_tensor" in d:
            add("coupling2d", d["coupling2d.coupled_tensor"] + d["coupling2d.schmidt_report"])
        elif "cli.run" in d and "cli.library" in d:
            add("cli", d["cli.run"] - d["cli.library"])
            add("library (cli.library)", d["cli.library"])
    return split


def _mean(values):
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _median(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def _table_layers(reqs, durations):
    spectra = [(r, durations[r["id"]]) for r in reqs
               if r["kind"] == "spectrum1d" and "rerun.hermite.table" in durations.get(r["id"], {})]
    matrices = [durations[r["id"]] for r in reqs if r["kind"] == "matrix" and r["id"] in durations]
    separable = [durations[r["id"]] for r in reqs if r["kind"] == "separable" and r["id"] in durations]
    cutoffs = [d["cutoff"] for _r, d in spectra]
    entries = [(r["n"] + 1) * (c + 1) for (r, _d), c in zip(spectra, cutoffs)]
    entries += [(r["n_max"] + 1) * (r["n_prime_max"] + 1) for r in reqs if r["kind"] == "matrix"]
    table_s = sum(d["rerun.hermite.table"] for _r, d in spectra)
    spectrum_entries = sum((r["n"] + 1) * (c + 1) for (r, _d), c in zip(spectra, cutoffs))
    return {
        "hermite.kernel_us": (1e6 * _median(d["rerun.hermite.build_kernel"] for _r, d in spectra),
                              "us"),
        "hermite.row0_ms": (1e3 * _median(d["rerun.hermite.table_row0"] for _r, d in spectra), "ms"),
        "hermite.rows_ms": (1e3 * _mean(d["rerun.hermite.table"] - d["rerun.hermite.table_row0"]
                                        for _r, d in spectra), "ms"),
        "hermite.entries": (_mean(entries), "count"),
        "hermite.ns_per_entry": (1e9 * table_s / max(spectrum_entries, 1), "ns"),
        "coupling1d.spectrum_ms": (1e3 * _median(d["coupling1d.spectrum1d"] for _r, d in spectra), "ms"),
        "coupling1d.self_ms": (1e3 * _median(d["coupling1d.spectrum1d"] - d["rerun.hermite.table"]
                                             for _r, d in spectra), "ms"),
        "coupling1d.matrix_ms": (1e3 * _mean(d["coupling1d.coupling_matrix"] for d in matrices), "ms"),
        "coupling1d.cutoff": (_mean(cutoffs), "count"),
        "coupling2d.separable_ms": (1e3 * _mean(d["coupling2d.spectrum2d_separable"]
                                                for d in separable), "ms"),
    }


def _coupled_layers(reqs, durations, rule_cold_s):
    rows = [(r, durations[r["id"]]) for r in reqs if r["id"] in durations
            and "rerun.coupling2d.overlap_coupled" in durations[r["id"]]]
    tensor = [d["coupling2d.coupled_tensor"] for _r, d in rows]
    block = [d["rerun.coupling2d.overlap_coupled"] for _r, d in rows]
    gflop = [d["gemm_flop"] / 1e9 for _r, d in rows]
    hits = sum(d["rule_hits"] for _r, d in rows)
    misses = sum(d["rule_misses"] for _r, d in rows)
    return {
        "coupling2d.tensor_ms": (1e3 * _median(tensor), "ms"),
        "coupling2d.final_block_ms": (1e3 * _median(block), "ms"),
        "coupling2d.rebuild_ratio": (sum(tensor) / sum(block) if block else 0.0, "ratio"),
        "coupling2d.gemm_gflop": (_median(gflop), "GFLOP-computed"),
        "coupling2d.schmidt_ms": (1e3 * _mean(d["coupling2d.schmidt_report"] for _r, d in rows), "ms"),
        "quadrature.rule_cold_ms": (1e3 * _median(rule_cold_s), "ms"),
        "quadrature.rules_per_op": ((hits + misses) / max(len(rows), 1), "count"),
        "quadrature.cache_hit_ratio": (hits / max(hits + misses, 1), "ratio"),
    }


def _cli_layers(reqs, durations, interpreter_s, import_s):
    rows = [durations[r["id"]] for r in reqs if r["id"] in durations
            and "cli.library" in durations[r["id"]]]
    return {
        "cli.interpreter_ms": (1e3 * _median(interpreter_s), "ms"),
        "cli.import_ms": (1e3 * (_median(import_s) - _median(interpreter_s)), "ms"),
        "cli.run_ms": (1e3 * _mean(d["cli.run"] for d in rows), "ms"),
        "cli.emit_ms": (1e3 * _mean(d["cli.run"] - d["cli.library"] for d in rows), "ms"),
        "cli.bytes_out": (_mean(d["bytes_out"] for d in rows), "bytes"),
    }


def _import_times(repeat=5):
    """Wall time of a bare interpreter and of a cold ``import selfoc.cli``."""
    bare, loaded = [], []
    for _ in range(repeat):
        for code, into in (("pass", bare), ("import selfoc.cli", loaded)):
            t0 = _clock()
            subprocess.run([sys.executable, "-c", code], env=_child_env(), cwd=str(ROOT),
                           check=True, timeout=CHILD_TIMEOUT)
            into.append(_clock() - t0)
    return bare, loaded


def trace(workload, seed, seconds):
    """Traced run: spans around every public call; the per-layer metrics.

    Every layer is measured on the workload that drives it: the traced
    workload for ``seconds``, each other workload for one pass without its
    known-fault requests.  ``attempted``/``failed`` count the traced
    workload only.  The per-layer metrics and the layer split leave the
    known-fault requests out whichever workload is traced."""
    spans = []
    durations = {}
    own = None
    order = [workload] + [w for w in WORKLOADS if w != workload]
    metrics = {}
    unexpected = []
    split_by_group = {}
    worker = Worker("table-spectra")
    try:
        for w in order:
            reqs = _requests(w, seed)
            if w != workload:
                reqs = [r for r in reqs if r.get("fault") is None]
            checker = Checker()
            if w == "coupled-entropy":
                worker.ask("warmup", w, list(WARM_ORDERS))
            op = "cli" if w == "cli-cold" else "call"
            group_spans = []

            def one(req, op=op, checker=checker, group_spans=group_spans):
                elapsed, result, req_spans = worker.ask(op, req, True)
                group_spans.extend(req_spans)
                per = durations.setdefault(req["id"], {})
                if "cutoff" in result:
                    per["cutoff"] = int(result["cutoff"])
                if "rule_hits" in result:
                    per["rule_hits"] = result["rule_hits"]
                    per["rule_misses"] = result["rule_misses"]
                    t1, t2 = (k - 1 for k in result["values"].shape)
                    nodes = (req["nx"] + req["ny"] + t1 + t2 + 1) // 2 + 8
                    per["order"] = nodes
                    per["gemm_flop"] = 2.0 * (t1 + 1) * (t2 + 1) * nodes * nodes
                if "stdout" in result:
                    per["bytes_out"] = len(result["stdout"])
                return elapsed, checker.check(req, result)

            tally, _passes = _run_passes(reqs, seconds if w == workload else 0.0, one)
            for rid, per in _durations(group_spans).items():
                durations.setdefault(rid, {}).update(per)
            spans.extend(group_spans)
            if w == workload:
                own = tally
            unexpected += tally.unexpected
            reqs = [r for r in reqs if r.get("fault") is None]
            split_by_group[w] = _layer_split(reqs, durations)
            if w == "table-spectra":
                metrics.update(_table_layers(reqs, durations))
            elif w == "coupled-entropy":
                orders = sorted({durations[r["id"]]["order"] for r in reqs
                                 if "order" in durations.get(r["id"], {})})
                rule_cold_s = worker.ask("rule_cold", orders)
                metrics.update(_coupled_layers(reqs, durations, rule_cold_s))
            else:
                bare, loaded = _import_times()
                metrics.update(_cli_layers(reqs, durations, bare, loaded))
    finally:
        worker.close()
    own.unexpected = unexpected
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace-{workload}-{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"],
                   "spans": spans}, fh)
    print(f"# traced {workload}: op_ms_p50 {own.op_ms_p50():.4f} ms, "
          f"ops_per_s {own.ops_per_s():.4f} (spans on)")
    for w, times in split_by_group.items():
        total = sum(times.values())
        shares = ", ".join(f"{layer} {1e3 * t:.1f} ms ({100.0 * t / total:.1f}%)"
                           for layer, t in sorted(times.items(), key=lambda kv: -kv[1]))
        print(f"# layer split on {w}, per pass: {1e3 * total:.1f} ms; {shares}")
    counts = _line_counts()
    for path, count in counts:
        print(f"# non-blank lines {path}: {count}")
    return own, metrics, {"traced_op_ms_p50": own.op_ms_p50(), "traced_ops_per_s": own.ops_per_s(),
                          "layer_split_s": split_by_group, "line_counts": counts}


def _line_counts():
    paths = sorted((SRC / "selfoc").glob("*.py"))
    counts = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            counts.append((str(path.relative_to(ROOT)), sum(1 for line in fh if line.strip())))
    counts.append(("total", sum(c for _p, c in counts)))
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "selfoc" / "__init__.py").is_file() or not SCENARIOS.is_dir():
        sys.stderr.write(f"bench: no selfoc sources under {ROOT}; run from a checkout\n")
        return 2

    if args.trace:
        tally, metrics, extra = trace(args.workload, args.seed, args.seconds)
    else:
        tally, metrics, extra = measure(args.workload, args.seed, args.seconds)
    for message in tally.known.values():
        print(f"# {message}")
    for message in tally.unexpected:
        print(f"# FAILED {message}")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.seed}-t{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump({**result, "extra": extra}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
