"""A5 (ablation): what does mechanized impossibility cost?

The attack synthesizer turns the paper's proofs into searches; this
ablation measures the searches.  For each subject the table reports the
product states explored up to the witness, the witness schedule length,
and wall time:

* the overfull optimistic candidates at ``m`` = 1, 2, 3 (the Theorem 1
  subjects of T3) -- cost grows with the alphabet because the decisive
  structure the search must assemble grows;
* the classical window protocols (ABP, Go-Back-N, Selective Repeat) on
  duplicating channels at their natural victim pairs (the T6 subjects) --
  richer sender state makes the product spaces larger but the stale-frame
  confusions remain shallow.

Every reported witness is replay-confirmed, as always.
"""

from __future__ import annotations

import time
from typing import List, Tuple

from repro.analysis.tables import render_table
from repro.channels import DuplicatingChannel
from repro.core.alpha import alpha
from repro.experiments.base import ExperimentResult
from repro.protocols.abp import abp_protocol
from repro.protocols.gobackn import gobackn_protocol
from repro.protocols.optimistic import identity_optimistic
from repro.protocols.selective import selective_repeat_protocol
from repro.verify import find_attack, find_attack_on_family, replay_witness
from repro.workloads import overfull_family

LETTERS = "abc"


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Build the A5 table."""
    headers = (
        "subject",
        "family/pair",
        "witness",
        "confirmed",
        "schedule len",
        "product states",
        "seconds",
    )
    rows: List[Tuple] = []
    checks = {}

    sizes = (1, 2) if quick else (1, 2, 3)
    for m in sizes:
        domain = LETTERS[:m]
        family = overfull_family(domain, m)
        sender, receiver = identity_optimistic(family)
        started = time.time()
        witness = find_attack_on_family(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            family,
            max_states=400_000,
        ).witness
        elapsed = time.time() - started
        confirmed = witness is not None and not replay_witness(
            sender, receiver, DuplicatingChannel(), DuplicatingChannel(), witness
        ).safe
        checks[f"optimistic_m{m}_witness_confirmed"] = confirmed
        rows.append(
            (
                f"optimistic m={m}",
                f"alpha({m})+1 = {alpha(m) + 1}",
                witness is not None,
                confirmed,
                len(witness.schedule) if witness else None,
                witness.product_states if witness else None,
                round(elapsed, 3),
            )
        )

    window_subjects = [
        ("abp", abp_protocol("ab"), (("a", "b", "a"), ("a", "b", "b"))),
        (
            "gbn-2",
            gobackn_protocol("ab", 2),
            (("a", "b", "a", "a"), ("a", "b", "a", "b")),
        ),
    ]
    if not quick:
        window_subjects.append(
            (
                "sr-1",
                selective_repeat_protocol("ab", 1, timeout=2),
                (("a", "b", "a", "a"), ("a", "b", "a", "b")),
            )
        )
    for name, (sender, receiver), (first, second) in window_subjects:
        started = time.time()
        witness = find_attack(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            first,
            second,
            max_states=400_000,
        ).witness
        elapsed = time.time() - started
        confirmed = witness is not None and not replay_witness(
            sender, receiver, DuplicatingChannel(), DuplicatingChannel(), witness
        ).safe
        checks[f"{name}_witness_confirmed"] = confirmed
        rows.append(
            (
                f"{name} / dup",
                f"{first!r} vs {second!r}"[:34],
                witness is not None,
                confirmed,
                len(witness.schedule) if witness else None,
                witness.product_states if witness else None,
                round(elapsed, 3),
            )
        )

    optimistic_costs = [
        row[5] for row in rows if str(row[0]).startswith("optimistic")
    ]
    growing = all(
        a is not None and b is not None and a <= b
        for a, b in zip(optimistic_costs, optimistic_costs[1:])
    )
    checks["search_cost_grows_with_alphabet"] = growing

    rendered = render_table(
        headers,
        rows,
        title="A5: cost of mechanized impossibility (BFS to first witness)",
    )
    return ExperimentResult(
        experiment_id="A5",
        title="Attack-engine scalability",
        rendered=rendered,
        headers=headers,
        rows=tuple(rows),
        checks=checks,
        notes=(
            "product states counted up to the first witness over the "
            "pair order of find_attack_on_family; seconds are wall time "
            "and vary with the host"
        ),
    )
