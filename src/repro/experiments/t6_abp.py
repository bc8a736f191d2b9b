"""T6 (Table 6): the Alternating Bit Protocol separation.

Why does the paper need ``alpha(m)`` machinery at all, when one header bit
solved the data-link problem in 1969?  Because [BSW69]'s bit relies on
FIFO order.  This experiment makes the separation mechanical:

* on a **lossy FIFO** channel, ABP is exhaustively verified: Safety at
  every reachable configuration (drops included) and completion reachable,
  for every input of length up to 3 over a 2-symbol domain;
* on **reorder+duplicate** and **reorder+delete** channels, the attack
  synthesizer produces confirmed Safety-violating schedules -- the stale
  bit is accepted as fresh.

Expected outcome: exhaustive pass on FIFO, confirmed witnesses elsewhere.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.tables import render_table
from repro.channels import DeletingChannel, DuplicatingChannel, LossyFifoChannel
from repro.experiments.base import ExperimentResult
from repro.kernel.system import System
from repro.protocols.abp import abp_protocol
from repro.verify import explore, find_attack, replay_witness
from repro.workloads import bounded_length_family

DOMAIN = "ab"


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Build Table 6."""
    max_length = 2 if quick else 3
    family = bounded_length_family(DOMAIN, max_length)
    sender, receiver = abp_protocol(DOMAIN)
    headers = (
        "channel",
        "inputs / pairs",
        "verdict",
        "states / schedule len",
        "detail",
    )
    rows: List[Tuple] = []
    checks = {}

    # Lossy FIFO: exhaustive safety.  Queues are capacity-capped (tail
    # drop, legal lossy behaviour) to keep the state space finite under
    # the retransmitting sender.
    total_states = 0
    all_safe = True
    for input_sequence in family:
        system = System(
            sender,
            receiver,
            LossyFifoChannel(capacity=3),
            LossyFifoChannel(capacity=3),
            input_sequence,
        )
        report = explore(system, max_states=500_000, include_drops=True)
        total_states += report.states
        all_safe = (
            all_safe
            and report.all_safe
            and report.completion_reachable
            and not report.truncated
        )
    checks["abp_safe_on_lossy_fifo"] = all_safe
    rows.append(
        (
            "lossy-fifo",
            f"{len(family)} inputs",
            "exhaustively safe" if all_safe else "VIOLATION",
            total_states,
            "every schedule incl. head drops",
        )
    )

    # Reordering channels: attacks.  The natural victim pair shares a
    # prefix and differs where the alternating bit is first reused
    # (position 2), so a stale position-0 copy is accepted as position 2;
    # the search proves the pair is indeed confusable.
    attack_pair = (("a", "b", "a"), ("a", "b", "b"))
    for channel_name, channel in (
        ("dup", DuplicatingChannel()),
        ("del (2-copy cap)", DeletingChannel(max_copies=2)),
    ):
        witness = find_attack(
            sender,
            receiver,
            channel,
            channel,
            attack_pair[0],
            attack_pair[1],
            max_states=400_000,
        ).witness
        confirmed = False
        if witness is not None:
            confirmed = not replay_witness(
                sender, receiver, channel, channel, witness
            ).safe
        checks[f"abp_attacked_on_{channel_name.split()[0]}"] = (
            witness is not None and confirmed
        )
        rows.append(
            (
                channel_name,
                f"{len(family)} inputs",
                "attacked + replay confirmed" if confirmed else "no witness",
                len(witness.schedule) if witness else None,
                (
                    f"victim {witness.input_sequence!r}, wrote "
                    f"{witness.wrote!r} at {witness.wrong_position}"
                )
                if witness
                else "-",
            )
        )

    rendered = render_table(
        headers,
        rows,
        title=(
            "T6: Alternating Bit Protocol -- correct on lossy FIFO, broken "
            "by reordering (why finite alphabets + reordering need "
            "Theorems 1/2)"
        ),
    )
    return ExperimentResult(
        experiment_id="T6",
        title="ABP separation: FIFO-safe, reorder-attackable",
        rendered=rendered,
        headers=headers,
        rows=tuple(rows),
        checks=checks,
    )
