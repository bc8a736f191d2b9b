"""A/B of two source trees on the repository benchmark (``BENCHMARK.json``).

Run from anywhere, with two checkouts::

    python3 benchmarks/perfbench_ab.py BASE_TREE HEAD_TREE

The script runs HEAD_TREE's ``perfbench/run.py`` once with each tree as
the working directory.  ``run.py`` takes ``src`` from the working
directory and ``answers.json`` from beside itself, so both sides run the
same benchmark code, each against its own program.  For every workload in
HEAD_TREE's ``BENCHMARK.json`` it runs ``PAIRS`` pairs of runs at the
file's ``run_seconds`` with ``--trace 0``.  Each pair has its own seed,
and the side that runs first alternates from pair to pair, so drift in
the host's speed lands on both sides alike.

The exit status is 1 if any run is not ``correct`` or failed an
operation, or if any ``end_to_end`` metric's HEAD median is worse than
its BASE median by more than the metric's ``bound`` (a fraction of the
BASE median) in the metric's ``better`` direction.  Otherwise it is 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, Iterator, List, Tuple

#: Pairs of runs per workload; each pair runs on seed ``pair + 1``.
PAIRS = 3

SIDES = ("base", "head")

#: A run that printed no result line counts as this one.
NO_RESULT = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}


def run_once(
    run_py: Path, tree: Path, workload: str, seed: int, seconds: float
) -> dict:
    """One benchmark run with ``tree`` as the working directory."""
    finished = subprocess.run(
        [
            sys.executable,
            str(run_py),
            "--workload",
            workload,
            "--seed",
            str(seed),
            "--seconds",
            f"{seconds:g}",
            "--trace",
            "0",
        ],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = [line for line in finished.stdout.splitlines() if line.startswith("{")]
    if finished.returncode != 0 or not lines:
        print(finished.stderr[-2000:], file=sys.stderr)
        return dict(NO_RESULT)
    return json.loads(lines[-1])


def worsening(base: float, head: float, better: str) -> float:
    """How much worse ``head`` is than ``base``, as a fraction of ``base``.

    Negative when ``head`` is better.
    """
    change = (head - base) / base
    return change if better == "lower" else -change


def medians(
    bench: dict, results: Dict[str, Dict[str, List[dict]]]
) -> Iterator[Tuple[str, dict, float, float]]:
    """``(workload, metric, base median, head median)`` per gated metric.

    A metric missing from every run of a side is skipped; such a run is
    not ``correct`` and fails the comparison on that count.
    """
    for workload, sides in results.items():
        for metric in bench["end_to_end"]:
            values = [
                [
                    line["metrics"][metric["name"]]["value"]
                    for line in sides[side]
                    if metric["name"] in line["metrics"]
                ]
                for side in SIDES
            ]
            if all(values):
                yield (
                    workload,
                    metric,
                    statistics.median(values[0]),
                    statistics.median(values[1]),
                )


def compare(bench: dict, results: Dict[str, Dict[str, List[dict]]]) -> List[str]:
    """Why HEAD fails the A/B; empty when it passes.

    ``results`` maps each workload to ``{"base": [...], "head": [...]}``,
    the result lines of its runs.  ``bench`` is the parsed
    ``BENCHMARK.json``.
    """
    problems = []
    for workload, sides in results.items():
        for side in SIDES:
            for number, line in enumerate(sides[side], 1):
                if line["correct"] is not True or line["failed"] > 0:
                    problems.append(
                        f"{workload}: {side} run {number} is not correct "
                        f"(correct={line['correct']}, failed={line['failed']})"
                    )
    for workload, metric, base, head in medians(bench, results):
        worse = worsening(base, head, metric["better"])
        if worse > metric["bound"]:
            problems.append(
                f"{workload} {metric['name']}: HEAD median {head:.4g} "
                f"{metric['unit']} is {worse:.1%} worse than BASE {base:.4g} "
                f"(bound {metric['bound']:.0%}, {metric['better']} is better)"
            )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path, help="checkout of the base commit")
    parser.add_argument("head", type=Path, help="checkout of the head commit")
    args = parser.parse_args(argv)
    trees = {"base": args.base.resolve(), "head": args.head.resolve()}
    bench = json.loads((trees["head"] / "BENCHMARK.json").read_text())
    run_py = trees["head"] / "perfbench" / "run.py"
    # Fresh bytecode on both sides: a stale .pyc would add compile time
    # to every pass's set-up on one side only.
    for tree in trees.values():
        subprocess.run(
            [sys.executable, "-m", "compileall", "-q", "src"], cwd=tree, check=True
        )

    results: Dict[str, Dict[str, List[dict]]] = {}
    for workload in (entry["name"] for entry in bench["workloads"]):
        sides = results[workload] = {side: [] for side in SIDES}
        for pair in range(PAIRS):
            seed = pair + 1
            for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                line = run_once(
                    run_py, trees[side], workload, seed, bench["run_seconds"]
                )
                sides[side].append(line)
                values = " ".join(
                    f"{name}={entry['value']:.4g}"
                    for name, entry in line["metrics"].items()
                )
                print(
                    f"{workload} seed={seed} {side}: correct={line['correct']} "
                    f"failed={line['failed']} {values}",
                    flush=True,
                )

    print(f"medians over {PAIRS} pairs per workload (HEAD vs BASE):")
    for workload, metric, base, head in medians(bench, results):
        worse = worsening(base, head, metric["better"])
        print(
            f"  {workload:<14} {metric['name']:<12} base {base:10.4g} "
            f"head {head:10.4g} {metric['unit']:<3} worse by {worse:+7.1%} "
            f"(bound {metric['bound']:.0%})"
        )
    problems = compare(bench, results)
    for problem in problems:
        print(f"FAIL  {problem}")
    print("perfbench A/B: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
