"""F4 (Figure 4): knowledge dynamics -- learning times ``t_i^r``.

Section 2.4 defines ``t_i^r`` (the first time ``R`` *knows* ``x_1..x_i``)
and argues it, not receive- or write-time, is the right notion of
learning.  This experiment computes the ``t_i`` with the epistemic model
checker over an exhaustive (observationally deduplicated) run ensemble of
the no-repetition protocol on duplicating channels and checks the
structural facts the paper uses:

* **stability**: once ``K_R(x_i)`` holds it never stops holding
  (complete-history interpretation, Section 2.3);
* **knowledge precedes writing**: ``t_i <=`` the time item ``i`` is
  written, on every run that writes it -- the Safety-side reading of
  "R writes only what it knows";
* **monotonicity**: ``t_1 <= t_2 <= ...``.

The rendered table reports ``t_i`` versus write times for the completed
runs of each full-length input.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.tables import render_table
from repro.channels import DuplicatingChannel
from repro.experiments.base import ExperimentResult
from repro.kernel.system import System
from repro.knowledge import exhaustive_ensemble, knowledge_is_stable, learning_times
from repro.protocols.norepeat import norepeat_protocol
from repro.workloads import repetition_free_family


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Build Figure 4."""
    domain = "ab"
    depth = 6 if quick else 7
    sender, receiver = norepeat_protocol(domain)
    family = repetition_free_family(domain)

    def make_system(input_sequence):
        return System(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            input_sequence,
        )

    ensemble = exhaustive_ensemble(make_system, family, depth=depth)

    headers = ("input", "t_i (learning)", "write times", "t<=write", "stable")
    rows: List[Tuple] = []
    all_precede = True
    all_stable = True
    all_monotone = True
    examined = 0
    # One maximal-progress run per input: most items learned, then shortest.
    for input_sequence in family:
        if not input_sequence:
            continue
        candidates = [
            trace
            for trace in ensemble.traces
            if trace.input_sequence == input_sequence and trace.output()
        ]
        if not candidates:
            continue
        best = max(candidates, key=lambda trace: len(trace.output()))
        times = learning_times(ensemble, best, domain)
        writes = best.write_times()
        known = [t for t in times if t is not None]
        precede = all(
            t is not None and t <= w for t, w in zip(times, writes)
        )
        monotone = all(a <= b for a, b in zip(known, known[1:]))
        stable = all(
            knowledge_is_stable(ensemble, best, domain, item)
            for item in range(1, len(input_sequence) + 1)
        )
        all_precede = all_precede and precede
        all_stable = all_stable and stable
        all_monotone = all_monotone and monotone
        examined += 1
        rows.append(
            (
                repr(input_sequence),
                repr(times),
                repr(writes),
                precede,
                stable,
            )
        )

    rendered = render_table(
        headers,
        rows,
        title=(
            f"F4: learning times t_i vs write times (exhaustive ensemble, "
            f"depth {depth}, {len(ensemble)} observationally distinct runs)"
        ),
    )
    return ExperimentResult(
        experiment_id="F4",
        title="Knowledge dynamics: t_i stability, monotonicity, precedence",
        rendered=rendered,
        headers=headers,
        rows=tuple(rows),
        checks={
            "knowledge_precedes_writing": all_precede and examined > 0,
            "knowledge_is_stable": all_stable and examined > 0,
            "learning_times_monotone": all_monotone and examined > 0,
        },
        notes=(
            "K_R evaluated by quantifying over all observationally distinct "
            "runs of the system up to the depth bound (exact within it)"
        ),
    )
