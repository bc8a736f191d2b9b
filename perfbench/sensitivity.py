"""Sensitivity self-test: a 2x slower successor materialization must show.

Runs passes of each workload plainly and with the test-only slow-rows
mode (every ``CompiledSystem.row`` call busy-waits for as long as it
took, doubling successor materialization) and checks, against the
bounds in ``BENCHMARK.json``, that

* ``explore_cold_s`` and the gated ``cold_s`` on ``verify-cold`` rise
  past the ``cold_s`` bound;
* ``warm_s`` on ``fabric-sweep`` and ``service-mixed`` (the warm sweep
  re-run and the warm request replay) stays within it: warm phases never
  materialize a row;
* a traced ``verify-cold`` pass shows the added time in ``kernel.row_s``
  (at least 1.5x the plain traced figure).

For each seed the passes run in the order plain, slow, slow, plain (or
the reverse), and a metric is judged on the median over seeds of the
slow/plain ratio of pass medians: the host's speed drifts over minutes,
and pairing cancels that drift.

Run from the root of a checkout (about six minutes at the defaults)::

    python3 perfbench/sensitivity.py --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import sys
import time
from pathlib import Path

from run import WORKLOADS, run_pass

TIMINGS = ("explore_cold_s", "cold_s", "warm_s")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    bound = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}[
        "cold_s"
    ]
    work = Path(".perfbench-work") / "sensitivity"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    deadline = time.monotonic() + 3600.0
    index = 0

    def run(workload, seed, mode):
        nonlocal index
        index += 1
        result = run_pass(workload, seed, index, mode, work, deadline)
        if result["failed"] or not all(result["labels"].values()):
            raise SystemExit(f"{workload} seed {seed} {mode}: not correct")
        return result

    ratios = {}
    medians = {}
    try:
        for workload in WORKLOADS:
            for number, seed in enumerate(args.seeds):
                order = ["plain", "slow-rows", "slow-rows", "plain"]
                if number % 2:
                    order.reverse()
                passes = {"plain": [], "slow-rows": []}
                for mode in order:
                    passes[mode].append(run(workload, seed, mode))
                for name in TIMINGS:
                    plain = statistics.median(p[name] for p in passes["plain"])
                    slow = statistics.median(p[name] for p in passes["slow-rows"])
                    ratios.setdefault((workload, name), []).append(slow / plain)
                    medians.setdefault((workload, name), []).append((plain, slow))
        traced = {
            mode: run("verify-cold", args.seeds[0], mode)["layers"]["kernel.row_s"]
            for mode in ("traced", "traced-slow-rows")
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    def ratio(workload, name):
        return statistics.median(ratios[workload, name])

    print("workload        figure            plain      slow-rows  ratio  limit")
    for workload in WORKLOADS:
        for name in TIMINGS:
            plain = statistics.median(p for p, _ in medians[workload, name])
            slow = statistics.median(s for _, s in medians[workload, name])
            print(
                f"{workload:<15} {name:<17} {plain:10.4f} {slow:10.4f} "
                f"{ratio(workload, name):6.3f}  {1 + bound:.2f}"
            )
    print(
        f"verify-cold     kernel.row_s (traced) {traced['traced']:.4f} -> "
        f"{traced['traced-slow-rows']:.4f}"
    )
    checks = {
        "verify-cold explore_cold_s past the bound": ratio(
            "verify-cold", "explore_cold_s"
        )
        > 1 + bound,
        "verify-cold cold_s past the bound": ratio("verify-cold", "cold_s")
        > 1 + bound,
        "fabric-sweep warm_s within the bound": ratio("fabric-sweep", "warm_s")
        <= 1 + bound,
        "service-mixed warm_s within the bound": ratio("service-mixed", "warm_s")
        <= 1 + bound,
        "kernel.row_s shows the slowdown": traced["traced-slow-rows"]
        >= 1.5 * traced["traced"],
    }
    for name, ok in checks.items():
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
    return 0 if all(checks.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
