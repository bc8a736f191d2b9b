"""perfbench: the repository's cold, end-to-end, per-layer benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload verify-cold --seed 1 --seconds 40 \\
        --trace 0

Workloads (inputs in ``scenario.py``, reasons in ``README.md``):

* ``verify-cold`` -- the library called directly: ``cached_explore`` over
  the T4 (m=3) and T2 (m=5) tight families, ``cached_stabilize`` over
  abp and ss-arq, then warm replays of the same calls;
* ``fabric-sweep`` -- the same verification cut into fabric cells and run
  by ``run_sweep`` on 2 workers, a 512-run ``Campaign.run(workers=2)``
  grid, then warm re-runs of both sweeps;
* ``service-mixed`` -- ``python -m repro.cli serve`` driven by 2 closed-loop
  connections: every distinct request sent as an adjacent duplicate pair,
  then warm replays.

The run repeats cold *passes* for about ``--seconds`` (at least
``MIN_PASSES``); each pass is a fresh interpreter with a fresh store, so
every pass is cold.  With ``--trace 0`` the last line reports medians
over the passes: ``cold_s`` is the sum, over the steps that tile a
pass's cold phase, of each step's median over the passes, and the other
metrics are medians of the pass values.  With ``--trace 1`` the run
alternates plain and traced passes and reports the per-layer metrics of
the traced ones; ``trace.overhead_ratio`` is the traced window over the
plain window.  Before every plain pass the run starts ``SETUP_PROBES``
set-up-only interpreters, and ``setup_s`` is the median over all the
set-ups of the run.

Every operation's answer is checked against ``answers.json``; the last
line is ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("verify-cold", "fabric-sweep", "service-mixed")
MIN_PASSES = 3
#: Set-up-only interpreters started before every plain pass.
SETUP_PROBES = 1
RUN_DEADLINE_S = 170.0

#: End-to-end metrics (every workload reports each; README.md maps them
#: to the phases of each workload).
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cold_s": "s",
}

#: Figures printed, not gated, for each workload: (pass field, unit,
#: label, parallel figure?).  explore_cold_s and warm_s moved by more
#: than the largest allowed bound from run to run on a shared 2-vCPU
#: virtual machine (README.md, "Noise").
COMMON_FIGURES = (
    ("explore_cold_s", "s", "explore_cold_s (cold explore phase)", False),
    ("warm_s", "s", "warm_s (median warm replay of a pass)", False),
)
FIGURES = {
    "verify-cold": (
        ("stabilize_cold_s", "s", "stabilize_cold_s (b)", False),
        ("warm_read_ms", "ms", "warm_read_ms (one warm cached_* call)", False),
    ),
    "fabric-sweep": (
        ("stabilize_cold_s", "s", "stabilize sweep (b)", True),
        ("sweep_cold_s", "s", "sweep_cold_s (a)+(b)", True),
        ("campaign_s", "s", "campaign_s (c)", True),
        ("sweep_warm_s", "s", "sweep_warm_s (d), per replay", True),
    ),
    "service-mixed": (
        ("stabilize_cold_s", "s", "stabilize pair rounds", False),
        ("cold_ms", "ms", "cold_p50_ms (request latency)", False),
        ("warm_ms", "ms", "warm_p50_ms (request latency)", False),
        ("warm_req_per_s", "1/s", "warm_req_per_s, per replay", False),
        ("accept_ms", "ms", "accept_ms (send until accepted)", False),
        ("cold_twins_coalesced", "count", "cold twins coalesced (of 331)", False),
    ),
}


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name.endswith("_error"):
        return "ratio"
    return "count"


def tail(values) -> str:
    """Sample count and the highest percentile with >= 10 samples beyond."""
    count = len(values)
    for percentile in (99.9, 99, 95, 90, 50):
        if count * (100 - percentile) / 100 >= 10:
            cuts = statistics.quantiles(values, n=1000, method="inclusive")
            value = cuts[min(998, int(round(percentile * 10)) - 1)]
            return f"n={count} p{percentile:g}={value:.4g}"
    return f"n={count} (no percentile has 10 samples beyond it)"


def samples(result: dict, name: str) -> list:
    """A pass's samples of one figure (a detail list or a scalar field)."""
    if name in result["details"]:
        return result["details"][name]
    return [result[name]] if name in result else []


def cold_from_steps(plain: list) -> float:
    """The run's cold phase: each cold step's median over the passes, summed.

    A pass's steps (one per call, sweep or request pair) tile its cold
    phase, and every pass of a run runs the same steps in the same
    order.  A stall that hits a step in fewer than half of the passes
    does not move that step's median, where it would add to one pass's
    total.
    """
    names = [name for name, _ in plain[0]["steps"]]
    for result in plain[1:]:
        if [name for name, _ in result["steps"]] != names:
            raise RuntimeError("the passes of one run ran different cold steps")
    return sum(
        statistics.median(result["steps"][index][1] for result in plain)
        for index in range(len(names))
    )


def run_pass(
    workload: str, seed: int, index: int, mode: str, work: Path, deadline: float
) -> dict:
    """One fresh-interpreter pass; returns its JSON result.

    The pass's directory is deleted afterwards and the file system synced,
    so no pass inherits the previous one's files or its pending writeback.
    """
    pass_dir = work / f"pass-{index}"
    environment = dict(os.environ)
    environment["PYTHONPATH"] = os.pathsep.join(
        [str(Path("src").resolve())]
        + [p for p in environment.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    # Nothing may fall back to the per-user default store.
    environment["STP_REPRO_CACHE"] = str((pass_dir / "default-store").resolve())
    # One string-hash layout for every pass, so dict and set layouts do
    # not add process-to-process variance to the timings.
    environment["PYTHONHASHSEED"] = "0"
    command = [
        sys.executable,
        str(HERE / "passes.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--work",
        str(pass_dir),
        "--mode",
        mode,
    ]
    try:
        finished = subprocess.run(
            command,
            env=environment,
            capture_output=True,
            text=True,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)
        os.sync()
    lines = [line for line in finished.stdout.splitlines() if line.startswith("{")]
    if finished.returncode != 0 or not lines:
        raise RuntimeError(
            f"{mode} pass {index} exited with {finished.returncode}:\n"
            f"{finished.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not Path("src/repro/__init__.py").is_file():
        print(
            "perfbench: run from the root of a checkout (src/repro missing)",
            file=sys.stderr,
        )
        return 2

    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    # One directory per workload, removed when the run ends (and at its
    # start, in case an earlier run was killed).
    work = Path(".perfbench-work") / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plain, traced, setups = [], [], []
    last = 0.0
    # A traced run needs one plain/traced pair; a plain run, a median.
    minimum = 1 if args.trace else MIN_PASSES
    try:
        # Start another pass while it is expected to end by about
        # --seconds (half a pass of overshoot).
        while (
            len(plain) < minimum
            or time.monotonic() - started + last / 2 < args.seconds
        ):
            began = time.monotonic()
            index = len(plain) + len(traced) + len(setups)
            if not args.trace:
                for probe in range(SETUP_PROBES):
                    setups.append(
                        run_pass(
                            args.workload,
                            args.seed,
                            index + probe,
                            "setup",
                            work,
                            deadline,
                        )["setup_s"]
                    )
                index += SETUP_PROBES
            plain.append(
                run_pass(args.workload, args.seed, index, "plain", work, deadline)
            )
            setups.append(plain[-1]["setup_s"])
            if args.trace:
                traced.append(
                    run_pass(
                        args.workload, args.seed, index + 1, "traced", work, deadline
                    )
                )
                if time.monotonic() - started >= args.seconds:
                    break
            last = time.monotonic() - began
        cold = cold_from_steps(plain)
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = plain + traced
    failed = sum(result["failed"] for result in passes)
    attempted = sum(result["attempted"] for result in passes)
    labels_ok = all(all(result["labels"].values()) for result in passes)
    cpus = min(result["cpus"] for result in passes)

    print(
        f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} plain_passes={len(plain)} traced_passes="
        f"{len(traced)} available_cpus={cpus}"
    )
    for result in passes:
        for name, ok in result["labels"].items():
            if not ok:
                print(f"  label check failed: {name} ({result['mode']} pass)")
        for failure in result["failures"]:
            print(f"  failed operation: {failure}")
    for name in END_TO_END:
        values = setups if name == "setup_s" else [result[name] for result in plain]
        value = cold if name == "cold_s" else statistics.median(values)
        how = "sum of step medians" if name == "cold_s" else "median"
        print(
            f"  {name:<18} {how} {value:.6g} {END_TO_END[name]}  "
            f"pass samples: " + " ".join(f"{sample:.4g}" for sample in values)
        )
    for detail, unit, label, parallel in COMMON_FIGURES + FIGURES[args.workload]:
        values = [v for result in plain for v in samples(result, detail)]
        if not values:
            continue
        mark = " [parallel figure on <2 CPUs]" if parallel and cpus < 2 else ""
        print(
            f"  {label}: median {statistics.median(values):.6g} {unit}  "
            f"{tail(values)}{mark}"
        )

    if args.trace:
        overhead = statistics.median(
            r["window"][1] - r["window"][0] for r in traced
        ) / statistics.median(r["window"][1] - r["window"][0] for r in plain)
        names = list(traced[0]["layers"])
        metrics = {
            name: {
                "value": float(statistics.median(r["layers"][name] for r in traced)),
                "unit": unit_of(name),
            }
            for name in names
        }
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        layer_line = ", ".join(
            f"{name}={metrics[name]['value']:.4g}"
            for name in names
            if name.startswith("layer.") or name in ("other_s", "trace.wall_s")
        )
        print(f"  layers (traced window): {layer_line}")
    else:
        metrics = {
            name: {
                "value": float(statistics.median(r[name] for r in plain)),
                "unit": unit,
            }
            for name, unit in END_TO_END.items()
        }
        metrics["setup_s"]["value"] = float(statistics.median(setups))
        metrics["cold_s"]["value"] = float(cold)
    print(
        json.dumps(
            {
                "correct": failed == 0 and labels_ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
