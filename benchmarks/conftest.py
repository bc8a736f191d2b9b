"""Benchmark harness configuration.

Each ``bench_*`` file regenerates one table or figure of the evaluation
(DESIGN.md section 4) via :func:`repro.experiments.run_experiment`, prints
the rendered output, and asserts every reproduction check.  Timing is
collected with pytest-benchmark in pedantic single-shot mode (the subject
is the experiment, not microseconds); pass ``-s`` to see the tables inline,
or read EXPERIMENTS.md for the archived copies.

The repository's performance benchmark is ``perfbench/`` (declared by
``BENCHMARK.json``); ``benchmarks/perfbench_ab.py`` compares two source
trees on it.
"""

from __future__ import annotations


def run_and_report(benchmark, experiment_id: str, seed: int = 0, quick: bool = False):
    """Run one experiment under the benchmark clock and print its table."""
    from repro.experiments import run_experiment

    result = benchmark.pedantic(
        run_experiment,
        args=(experiment_id,),
        kwargs={"seed": seed, "quick": quick},
        rounds=1,
        iterations=1,
    )
    print()
    print(result.rendered)
    if result.notes:
        print(f"notes: {result.notes}")
    result.assert_checks()
    return result
