"""Perf records: the plain ``repro-perf/1`` JSON artifact.

``stp-repro chaos`` and ``stp-repro stabilize`` write their results in
this form, and ``stp-repro stats`` and
``benchmarks/assert_recovery_metrics.py`` read it.  Timing the program
is the repository benchmark's job (``perfbench/``, declared by
``BENCHMARK.json``), not this module's.

Schema (``repro-perf/1``)::

    {
      "schema": "repro-perf/1",
      "label": "bench",
      "python": "3.11.7",
      "platform": "linux",
      "cpu_count": 8,             # logical CPUs on the machine
      "cpu_count_available": 2,   # CPUs this process may run on (cgroups,
                                  # affinity masks -- what pools size to)
      "records": [
        {
          "name": "experiment:T2",
          "wall_seconds": 1.83,
          "runs": 40,                  # optional: simulation runs timed
          "states": 5244,              # optional: explorer states discovered
          "states_per_second": 34000.0,# optional: explorer throughput
          "extra": {...}               # free-form details (speedups, grid
        }                              # shapes, worker counts, ...)
      ],
      "spans": [...],                  # optional: per-name span aggregates
      "metrics": {...}                 # optional: metrics-registry export
    }

The ``spans:`` and ``metrics:`` sections are the perf-report bridge of
the observability layer (:mod:`repro.obs`): when collection was on while
the report was built, :meth:`PerfReport.attach_observability` folds the
span aggregates and the full metrics registry into the artifact, so one
file answers both "how long" and "where did the time and states go".
"""

from __future__ import annotations

import json
import platform
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs

BENCH_SCHEMA = "repro-perf/1"


@dataclass
class PerfRecord:
    """One timed unit of work.

    Attributes:
        name: stable identifier ("experiment:T2", "explore:t2-dup",
            "campaign:f5-parallel").
        wall_seconds: elapsed wall time.
        runs: simulation runs executed under the clock, when meaningful.
        states: explorer states discovered, when meaningful.
        states_per_second: explorer expansion throughput, when meaningful.
        extra: free-form JSON-serializable details.
    """

    name: str
    wall_seconds: float
    runs: Optional[int] = None
    states: Optional[int] = None
    states_per_second: Optional[float] = None
    extra: Dict[str, object] = field(default_factory=dict)


class PerfReport:
    """An append-only collection of :class:`PerfRecord` with a JSON form."""

    def __init__(self, label: str = "bench") -> None:
        self.label = label
        self.records: List[PerfRecord] = []
        self.spans: Optional[List[Dict[str, object]]] = None
        self.metrics: Optional[Dict[str, Dict[str, object]]] = None

    def add(
        self,
        name: str,
        wall_seconds: float,
        runs: Optional[int] = None,
        states: Optional[int] = None,
        states_per_second: Optional[float] = None,
        **extra,
    ) -> PerfRecord:
        """Append one record and return it."""
        record = PerfRecord(
            name=name,
            wall_seconds=wall_seconds,
            runs=runs,
            states=states,
            states_per_second=states_per_second,
            extra=extra,
        )
        self.records.append(record)
        return record

    def attach_observability(self) -> None:
        """Fold the live span/metrics collectors into this report.

        Populates the ``spans:`` (per-name aggregates) and ``metrics:``
        (registry export) sections of :meth:`to_dict` from the process
        collectors of :mod:`repro.obs`.  Call after the measured work,
        while collection is still enabled; a no-op-shaped result (both
        sections empty) is attached when nothing was collected.
        """
        sections = obs.export_sections()
        self.spans = sections["spans"]  # type: ignore[assignment]
        self.metrics = sections["metrics"]  # type: ignore[assignment]

    def to_dict(self) -> Dict[str, object]:
        """The JSON-serializable form (see module docstring for schema)."""
        from repro.analysis.hostinfo import (
            available_cpu_count,
            logical_cpu_count,
        )

        payload: Dict[str, object] = {
            "schema": BENCH_SCHEMA,
            "label": self.label,
            "python": platform.python_version(),
            "platform": sys.platform,
            # Both views: the machine's width for hardware context, the
            # schedulable width (cgroup quotas, affinity masks) that
            # actually bounds this run's parallelism.
            "cpu_count": logical_cpu_count(),
            "cpu_count_available": available_cpu_count(),
            "records": [asdict(record) for record in self.records],
        }
        if self.spans is not None:
            payload["spans"] = self.spans
        if self.metrics is not None:
            payload["metrics"] = self.metrics
        return payload

    def write(self, path) -> Path:
        """Write the report as pretty-printed JSON; returns the path."""
        target = Path(path)
        target.write_text(json.dumps(self.to_dict(), indent=2) + "\n")
        return target

    def render(self) -> str:
        """A terminal-friendly summary table of the records."""
        lines = [f"perf report [{self.label}]"]
        name_width = max((len(r.name) for r in self.records), default=4)
        for record in self.records:
            parts = [f"{record.name:<{name_width}}  {record.wall_seconds:9.3f}s"]
            if record.runs is not None:
                parts.append(f"runs={record.runs}")
            if record.states is not None:
                parts.append(f"states={record.states}")
            if record.states_per_second is not None:
                parts.append(f"states/s={record.states_per_second:,.0f}")
            for key, value in record.extra.items():
                parts.append(f"{key}={value}")
            lines.append("  " + "  ".join(parts))
        return "\n".join(lines)
