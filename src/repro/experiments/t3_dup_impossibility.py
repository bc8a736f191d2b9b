"""T3 (Table 3): overfull families are attackable under duplication.

Theorem 1 impossibility, made constructive.  For each alphabet size ``m``
take the overfull family of ``alpha(m) + 1`` sequences and a portfolio of
live candidate protocols that attempt it:

* ``optimistic-identity`` -- the natural "reuse messages" protocol
  (:mod:`repro.protocols.optimistic`);
* ``streaming`` -- fire-and-forget transmission.

For every candidate the product-construction attack search must return a
witness schedule, and every witness is replayed through the real simulator
to confirm a genuine Safety violation.  The table also reports the
*constructive* impossibility: no prefix-monotone encoding of the family
exists (so no handshake-style protocol can even be instantiated).

Expected outcome: a confirmed witness for every candidate at every ``m``;
encoding construction fails for every overfull family.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.analysis.tables import render_table
from repro.channels import DuplicatingChannel
from repro.core.alpha import alpha
from repro.core.bounds import family_dup_solvable
from repro.experiments.base import ExperimentResult
from repro.protocols.optimistic import identity_optimistic
from repro.protocols.trivial import StreamingReceiver, StreamingSender
from repro.verify import find_attack_on_family, replay_witness
from repro.workloads import overfull_family

LETTERS = "abcdefgh"


def _candidates(domain: str, family):
    yield "optimistic-identity", identity_optimistic(family)
    yield "streaming", (StreamingSender(domain), StreamingReceiver(domain))


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Build Table 3."""
    sizes = (1, 2) if quick else (1, 2, 3)
    headers = (
        "m",
        "|X|=alpha(m)+1",
        "candidate",
        "witness found",
        "replay violates",
        "schedule len",
        "product states",
        "victim input",
        "encoding exists",
    )
    rows: List[Tuple] = []
    checks = {}
    for m in sizes:
        domain = LETTERS[:m]
        family = overfull_family(domain, m)
        assert len(family) == alpha(m) + 1
        encodable = family_dup_solvable(family, domain)
        checks[f"m{m}_no_prefix_monotone_encoding"] = not encodable
        for name, (sender, receiver) in _candidates(domain, family):
            witness = find_attack_on_family(
                sender,
                receiver,
                DuplicatingChannel(),
                DuplicatingChannel(),
                family,
                max_states=300_000,
            ).witness
            confirmed = False
            if witness is not None:
                replay = replay_witness(
                    sender,
                    receiver,
                    DuplicatingChannel(),
                    DuplicatingChannel(),
                    witness,
                )
                confirmed = not replay.safe
            checks[f"m{m}_{name}_attacked_and_confirmed"] = (
                witness is not None and confirmed
            )
            rows.append(
                (
                    m,
                    len(family),
                    name,
                    witness is not None,
                    confirmed,
                    len(witness.schedule) if witness else None,
                    witness.product_states if witness else None,
                    repr(witness.input_sequence) if witness else None,
                    encodable,
                )
            )
    rendered = render_table(
        headers,
        rows,
        title=(
            "T3: |X| = alpha(m)+1 under reorder+duplicate channels -- every "
            "live candidate protocol is driven to a Safety violation "
            "(Theorem 1 impossibility)"
        ),
    )
    return ExperimentResult(
        experiment_id="T3",
        title="X-STP(dup) unsolvable beyond alpha(m): attack synthesis",
        rendered=rendered,
        headers=headers,
        rows=tuple(rows),
        checks=checks,
        notes=(
            "witnesses are shortest product-search schedules, each replayed "
            "through the ordinary simulator; 'encoding exists' shows the "
            "constructive impossibility (no prefix-monotone encoding)"
        ),
    )
