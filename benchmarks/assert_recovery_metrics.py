"""Nightly CI assertion: recovery measurements flow through the registry.

The chaos suite's :class:`~repro.kernel.simulator.RecoveryMetrics` must
arrive in the ``BENCH_PR2.json`` artifact via the :mod:`repro.obs`
metrics registry -- recorded at measurement time inside (possibly
forked) workers and merged back into the parent -- not scraped out of
traces after the fact.  The proof is structural: the artifact's
``metrics:`` section must contain the ``recovery.*`` histograms and
counters with non-zero observation counts.

    python benchmarks/assert_recovery_metrics.py BENCH_PR2.json

With ``--require-stabilization`` the check extends to the
``recovery.stabilization_*`` gauges the corrupted-start explorer
(:mod:`repro.resilience.stabilize`) emits -- the nightly ``stabilize``
leg runs the default ``abp,ss-arq`` pair, so every gauge (including the
non-stabilizing count, courtesy of plain ABP) must have a positive
high-water mark:

    python benchmarks/assert_recovery_metrics.py --require-stabilization \\
        stabilize.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Optional

#: Metrics the chaos artifact must carry, with the shape each must have.
REQUIRED = {
    "recovery.faults": "counter",
    "recovery.time_to_resync": "histogram",
    "recovery.retransmissions": "histogram",
    "recovery.wasted_steps": "histogram",
}

#: Gauges a stabilize artifact must carry (``--require-stabilization``).
STABILIZATION_REQUIRED = {
    "recovery.stabilization_sources": "gauge",
    "recovery.stabilization_non_stabilizing": "gauge",
    "recovery.stabilization_max_depth": "gauge",
}


def check(report: Dict, required: Optional[Dict[str, str]] = None) -> str:
    """Raise AssertionError on failure; return the success summary."""
    if required is None:
        required = REQUIRED
    metrics = report.get("metrics")
    assert metrics, (
        "artifact has no metrics: section -- the suite must run with "
        "observability collection enabled"
    )
    lines: List[str] = []
    for name, kind in required.items():
        entry = metrics.get(name)
        assert entry is not None, f"metrics section is missing {name!r}"
        assert entry.get("kind") == kind, (
            f"{name!r} is a {entry.get('kind')!r}, expected {kind!r}"
        )
        if kind == "counter":
            observed = entry["value"]
        elif kind == "gauge":
            observed = entry["high_water"]
        else:
            observed = entry["count"]
        assert observed > 0, f"{name!r} recorded no observations: {entry}"
        lines.append(f"{name}: {observed} observations")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "artifact", type=Path, help="chaos/stabilize perf artifact"
    )
    parser.add_argument(
        "--require-stabilization",
        action="store_true",
        help=(
            "assert the recovery.stabilization_* gauges instead of the "
            "chaos recovery histograms"
        ),
    )
    args = parser.parse_args(argv)
    report = json.loads(args.artifact.read_text(encoding="utf-8"))
    required = (
        STABILIZATION_REQUIRED if args.require_stabilization else REQUIRED
    )
    try:
        print(check(report, required))
    except AssertionError as error:
        print(f"FAIL: {error}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
