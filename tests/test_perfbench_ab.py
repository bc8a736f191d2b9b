"""The perfbench A/B verdict (``benchmarks/perfbench_ab.py``).

Nothing is benchmarked here: :func:`compare` is fed synthetic result
lines shaped like the last line of ``perfbench/run.py``, and judges them
against the metrics and bounds of the repository's ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from benchmarks.perfbench_ab import (
    NO_RESULT,
    PAIRS,
    better_pairs,
    compare,
    parse_run,
    quartiles,
)

BENCH = json.loads(
    (Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text()
)
METRICS = {metric["name"]: metric for metric in BENCH["end_to_end"]}
WORKLOADS = [workload["name"] for workload in BENCH["workloads"]]
BASE_VALUES = {"setup_s": 0.3, "peak_rss_mb": 44.0, "cold_s": 2.9}


def line(correct=True, failed=0, **values):
    """One run's result line; metrics not given take their base value."""
    return {
        "correct": correct,
        "attempted": 1000,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": METRICS[name]["unit"]}
            for name, value in dict(BASE_VALUES, **values).items()
        },
    }


def worse_by(name, fraction):
    """The base value of ``name`` moved ``fraction`` of it in the worse
    direction (a negative fraction moves it the better way)."""
    sign = 1 if METRICS[name]["better"] == "lower" else -1
    return BASE_VALUES[name] * (1 + sign * fraction)


def results(head=None, base=None):
    """Every workload with ``PAIRS`` runs a side (base values by default)."""
    return {
        workload: {
            "base": base or [line() for _ in range(PAIRS)],
            "head": head or [line() for _ in range(PAIRS)],
        }
        for workload in WORKLOADS
    }


def test_gated_metrics_have_base_values():
    assert set(METRICS) == set(BASE_VALUES)
    assert all(metric["better"] in ("lower", "higher") for metric in METRICS.values())


def test_identical_runs_pass():
    assert compare(BENCH, results()) == []


def test_change_inside_every_bound_passes():
    inside = {
        name: worse_by(name, 0.9 * metric["bound"])
        for name, metric in METRICS.items()
    }
    assert compare(BENCH, results(head=[line(**inside)] * PAIRS)) == []


def test_improvement_passes():
    better = {name: worse_by(name, -0.5) for name in METRICS}
    assert compare(BENCH, results(head=[line(**better)] * PAIRS)) == []


@pytest.mark.parametrize("name", sorted(METRICS))
def test_metric_past_its_bound_fails(name):
    past = worse_by(name, 1.1 * METRICS[name]["bound"])
    problems = compare(BENCH, results(head=[line(**{name: past})] * PAIRS))
    assert len(problems) == len(WORKLOADS)
    for workload, problem in zip(WORKLOADS, problems):
        assert problem.startswith(f"{workload} {name}:")


def test_medians_are_compared_not_single_runs():
    past = worse_by("cold_s", 3 * METRICS["cold_s"]["bound"])
    head = [line(cold_s=past)] + [line() for _ in range(PAIRS - 1)]
    assert compare(BENCH, results(head=head)) == []


@pytest.mark.parametrize(
    "bad", [line(correct=False), line(failed=1)], ids=["not-correct", "failed"]
)
@pytest.mark.parametrize("side", ["head", "base"])
def test_a_wrong_run_fails(side, bad):
    runs = [line() for _ in range(PAIRS - 1)] + [bad]
    problems = compare(BENCH, results(**{side: runs}))
    assert len(problems) == len(WORKLOADS)
    assert all(f"{side} run {PAIRS} is not correct" in p for p in problems)


def test_a_run_without_a_result_line_fails():
    head = [line() for _ in range(PAIRS - 1)] + [dict(NO_RESULT)]
    problems = compare(BENCH, results(head=head))
    assert len(problems) == len(WORKLOADS)


def test_better_pairs_tallies_pairs_by_seed():
    cold = METRICS["cold_s"]
    rss = METRICS["peak_rss_mb"]
    base = [line(cold_s=2.0), line(cold_s=3.0), line(cold_s=4.0)]
    # Pair 1 better, pair 2 tied, pair 3 worse: one of three, although
    # the sorted values (and so the medians) would be equal.
    head = [line(cold_s=1.9), line(cold_s=3.0), line(cold_s=4.1)]
    sides = {"base": base, "head": head}
    assert better_pairs(cold, sides) == (1, 3)
    assert better_pairs(rss, sides) == (0, 3)
    # A run without a result line drops its pair from the tally.
    sides["head"] = [line(cold_s=1.9), dict(NO_RESULT), line(cold_s=3.9)]
    assert better_pairs(cold, sides) == (2, 2)


def report(result, *why):
    """Synthetic stdout of one ``run.py`` run: header, reasons, metrics,
    result line."""
    return "\n".join(
        ["perfbench service-mixed seed=3 seconds=40 trace=0 plain_passes=6"]
        + [f"  {reason}" for reason in why]
        + ["  cold_s             sum of step medians 2.9 s  pass samples: 2.9"]
        + [json.dumps(result)]
    )


def test_parse_run_keeps_why_a_run_is_not_correct():
    why = (
        "label check failed: warm_no_miss (plain pass)",
        "failed operation: explore abc: states 12 != 13",
    )
    parsed = parse_run(report(line(correct=False, failed=1), *why))
    assert parsed["correct"] is False and parsed["failed"] == 1
    assert parsed["why"] == list(why)
    assert parse_run(report(line()))["why"] == []
    assert parse_run("perfbench: server did not start\n") is None


def test_a_wrong_run_names_its_failed_checks():
    check = "label check failed: cold_no_hit (plain pass)"
    bad = parse_run(report(line(correct=False), check))
    runs = [line() for _ in range(PAIRS - 1)] + [bad]
    problems = compare(BENCH, results(head=runs))
    assert len(problems) == len(WORKLOADS)
    assert all(
        problem.endswith(f"(correct=False, failed=0); {check}")
        for problem in problems
    )
    missing = [line() for _ in range(PAIRS - 1)] + [dict(NO_RESULT)]
    problems = compare(BENCH, results(head=missing))
    assert all(problem.endswith("; no result line") for problem in problems)


def test_quartiles_stay_inside_the_runs():
    assert quartiles([5.0, 1.0, 3.0, 2.0, 4.0]) == (2.0, 4.0)
    first, third = quartiles([2.0, 4.0])
    assert 2.0 <= first <= third <= 4.0
    assert quartiles([7.0]) == (7.0, 7.0)
