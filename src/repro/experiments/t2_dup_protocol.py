"""T2 (Table 2): the no-repetition protocol solves ``X``-STP(dup) at the bound.

Theorem 1 tightness.  For each alphabet size ``m`` the protocol of
Section 3 is run on **all** ``alpha(m)`` repetition-free inputs:

* randomized campaigns under four adversaries (eager, replay-flood,
  quiescent-burst, random), all wrapped in bounded-fairness enforcement --
  every run must complete safely;
* exhaustive state-space exploration per input (``m <= 2`` quick,
  ``m <= 4`` full) -- Safety at every reachable configuration of every
  schedule, and completion reachable;
* attack-search exhaustion over all input pairs (``m <= 2`` quick,
  ``m <= 3`` full) -- the same product engine that breaks overfull
  protocols in T3 must come back empty-handed here.

Expected outcome: 100% safe, 100% complete, zero attack witnesses.
"""

from __future__ import annotations

import time
from typing import List, Optional, Tuple

from repro.adversaries import (
    AgingFairAdversary,
    EagerAdversary,
    QuiescentBurstAdversary,
    RandomAdversary,
    ReplayFloodAdversary,
)
from repro.analysis.cache import ResultCache, cached_explore
from repro.analysis.campaign import Campaign
from repro.analysis.metrics import summarize
from repro.analysis.tables import render_table
from repro.channels import DuplicatingChannel
from repro.core.alpha import alpha
from repro.experiments.base import ExperimentResult
from repro.kernel.rng import DeterministicRNG
from repro.kernel.system import System
from repro.protocols import norepeat_protocol
from repro.verify import find_attack_on_family
from repro.workloads import repetition_free_family

LETTERS = "abcdefgh"


def _adversary_factories():
    """Named per-run adversary builders (fresh adversary per forked stream)."""
    yield "eager", lambda stream: EagerAdversary()
    yield "replay-flood", lambda stream: AgingFairAdversary(
        ReplayFloodAdversary(stream.fork("flood"), flood_factor=4),
        patience=48,
    )
    yield "quiescent-burst", lambda stream: AgingFairAdversary(
        QuiescentBurstAdversary(stream.fork("quiet"), 8, 8), patience=64
    )
    yield "random", lambda stream: AgingFairAdversary(
        RandomAdversary(stream.fork("random"), deliver_weight=3.0),
        patience=64,
    )


def run(
    seed: int = 0,
    quick: bool = False,
    workers: int = 1,
    cache: Optional[ResultCache] = None,
) -> ExperimentResult:
    """Build Table 2.

    ``workers`` shards the randomized campaigns over processes; ``cache``
    memoizes campaign runs and exhaustive explorations by content.  The
    table is identical at any worker count, with or without the cache.
    """
    rng = DeterministicRNG(seed, "t2")
    sizes = (1, 2) if quick else (1, 2, 3, 4)
    seeds = 1 if quick else 2
    explore_limit = 2 if quick else 4
    attack_limit = 2 if quick else 3
    states_total = 0
    search_seconds = 0.0

    headers = (
        "m",
        "|X|=alpha(m)",
        "runs",
        "completed",
        "safe",
        "msgs/item (mean)",
        "explored states",
        "exhaustive safe",
        "attack witness",
    )
    rows: List[Tuple] = []
    checks = {}
    for m in sizes:
        domain = LETTERS[:m]
        family = repetition_free_family(domain)
        assert len(family) == alpha(m)
        sender, receiver = norepeat_protocol(domain)

        metrics = []
        sweep_start = time.perf_counter()
        for adversary_name, adversary_factory in _adversary_factories():
            outcome = Campaign(
                sender=sender,
                receiver=receiver,
                channel_factory=DuplicatingChannel,
                inputs=family,
                adversary_factory=adversary_factory,
                seeds=seeds,
                max_steps=20_000,
                workers=workers,
                cache=cache,
            ).run(rng.fork(f"m{m}/{adversary_name}"))
            metrics.extend(outcome.metrics)
        summary = summarize(metrics)
        search_seconds += time.perf_counter() - sweep_start
        states_total += summary.states or 0

        explored_states: object = None
        exhaustive_safe: object = None
        if m <= explore_limit:
            total_states = 0
            all_safe = True
            sweep_start = time.perf_counter()
            for input_sequence in family:
                system = System(
                    sender,
                    receiver,
                    DuplicatingChannel(),
                    DuplicatingChannel(),
                    input_sequence,
                )
                report = cached_explore(
                    system,
                    max_states=500_000,
                    cache=cache,
                )
                total_states += report.states
                all_safe = (
                    all_safe
                    and report.all_safe
                    and report.completion_reachable
                    and not report.truncated
                )
            search_seconds += time.perf_counter() - sweep_start
            explored_states = total_states
            exhaustive_safe = all_safe
            states_total += total_states
            checks[f"m{m}_exhaustively_safe_and_completable"] = all_safe

        witness_found: object = None
        if m <= attack_limit:
            search = find_attack_on_family(
                sender,
                receiver,
                DuplicatingChannel(),
                DuplicatingChannel(),
                family,
                max_states=200_000,
            )
            witness_found = search.witness is not None
            # A truncated search has not shown that no attack exists.
            checks[f"m{m}_no_attack_exists"] = search.exhausted

        checks[f"m{m}_all_runs_safe"] = summary.safe == summary.runs
        checks[f"m{m}_all_runs_completed"] = summary.completed == summary.runs
        rows.append(
            (
                m,
                len(family),
                summary.runs,
                summary.completed,
                summary.safe,
                summary.messages_per_item.mean
                if summary.messages_per_item
                else None,
                explored_states,
                exhaustive_safe,
                witness_found,
            )
        )

    rendered = render_table(
        headers,
        rows,
        title=(
            "T2: no-repetition protocol on reorder+duplicate channels, "
            "|X| = alpha(m) (Theorem 1 tightness)"
        ),
    )
    return ExperimentResult(
        experiment_id="T2",
        title="X-STP(dup) solved at |X| = alpha(m) by the Section 3 protocol",
        rendered=rendered,
        headers=headers,
        rows=tuple(rows),
        checks=checks,
        notes=(
            "adversaries: eager, replay-flood, quiescent-burst, random "
            "(fairness-enforced); exhaustive exploration covers every "
            "schedule, the attack search every input pair"
        ),
        states=states_total,
        search_seconds=search_seconds,
    )
