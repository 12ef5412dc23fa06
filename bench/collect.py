"""Repeat the benchmark over several seeds and summarise the spread.

    python3 bench/collect.py --seeds 1-10

Runs ``run.py`` once per (workload, seed), one run at a time, for the run
length in BENCHMARK.json, and prints for each metric the median, the
quartiles (``statistics.quantiles(n=4)``), the quartile spread as a share
of the median, and the share of failed requests.  For reference it also
prints the 90th percentile of the request times of passed requests, pooled
over the runs, with its sample count.
The figures in README.md come from this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402


def _seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    args = parser.parse_args(argv)
    if len(_seeds(args.seeds)) < 2:
        parser.error("quartiles need at least two seeds")

    with open(BENCH.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    runs = {}
    for workload in WORKLOADS:
        for seed in _seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=str(BENCH.parent), capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            saved = BENCH / "out" / f"result-{workload}-{seed}-t0.json"
            with open(saved, encoding="utf-8") as fh:
                extra = json.load(fh)["extra"]
            result["samples_ms"] = [t for t, ok in zip(extra["samples_ms"], extra["passed"])
                                    if ok and t is not None]
            runs.setdefault(workload, []).append({"seed": seed, **result})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)

    print()
    for workload, results in runs.items():
        shares = {r["failed"] / r["attempted"] for r in results}
        correct = all(r["correct"] for r in results)
        print(f"{workload}: {len(results)} runs, correct={correct}, "
              f"failed share {sorted(shares)}")
        pooled = [t for r in results for t in r["samples_ms"]]
        if len(pooled) >= 20:
            p90 = statistics.quantiles(pooled, n=10)[-1]
            print(f"  request time p90 (passed, pooled) {p90:.4g} ms over {len(pooled)} "
                  f"samples, {sum(t > p90 for t in pooled)} beyond")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(values)
            q1, _q2, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:<28} median {med:12.6g} {unit:<14} "
                  f"q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}")


if __name__ == "__main__":
    main()
