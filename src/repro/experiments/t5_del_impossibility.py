"""T5 (Table 5): overfull families are attackable under deletion too.

Theorem 2 impossibility.  The duplication attack (T3) replays stale
copies at will; under deletion the adversary must *bank* undelivered
copies -- each stale delivery spends one.  The product search handles this
automatically (deleting-channel states count copies; per-run drops let the
adversary discard what it must), and the retransmitting candidates refill
the bank for free, which is the operational shadow of the paper's
``delta_l`` bookkeeping (Lemma 4; see experiment A1 for the recursion
itself).

Candidates are the same protocols as T3, now over reorder+delete
channels.  A solution must satisfy Safety *and* Liveness, so each
candidate is convicted on whichever count applies: the retransmitting
optimistic protocol stays live and is driven to a Safety violation; the
fire-and-forget streaming protocol is Safety-vacuous on tiny families but
loses Liveness outright (the channel deletes its only copy and no
retransmission ever comes).  Expected outcome: every candidate convicted.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.adversaries import DroppingAdversary, EagerAdversary
from repro.analysis.tables import render_table
from repro.channels import DeletingChannel
from repro.core.alpha import alpha
from repro.core.bounds import family_dup_solvable
from repro.experiments.base import ExperimentResult
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import Simulator
from repro.kernel.system import System
from repro.protocols.optimistic import identity_optimistic
from repro.protocols.trivial import StreamingReceiver, StreamingSender
from repro.verify import find_attack_on_family, replay_witness
from repro.workloads import overfull_family

LETTERS = "abcdefgh"


def _candidates(domain: str, family):
    yield "optimistic-identity", identity_optimistic(family)
    yield "streaming", (StreamingSender(domain), StreamingReceiver(domain))


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Build Table 5."""
    sizes = (1, 2) if quick else (1, 2, 3)
    headers = (
        "m",
        "|X|=alpha(m)+1",
        "candidate",
        "verdict",
        "replay/evidence confirmed",
        "schedule len",
        "product states",
        "victim input",
    )
    rows: List[Tuple] = []
    checks = {}
    rng = DeterministicRNG(seed, "t5")
    for m in sizes:
        domain = LETTERS[:m]
        family = overfull_family(domain, m)
        assert len(family) == alpha(m) + 1
        checks[f"m{m}_no_prefix_monotone_encoding"] = not family_dup_solvable(
            family, domain
        )
        for name, (sender, receiver) in _candidates(domain, family):
            channel = DeletingChannel(max_copies=2)
            search = find_attack_on_family(
                sender,
                receiver,
                channel,
                channel,
                family,
                max_states=400_000,
                include_drops=True,
            )
            witness = search.witness
            if witness is not None:
                replay = replay_witness(sender, receiver, channel, channel, witness)
                confirmed = not replay.safe
                checks[f"m{m}_{name}_convicted"] = confirmed
                rows.append(
                    (
                        m,
                        len(family),
                        name,
                        "safety attacked",
                        confirmed,
                        len(witness.schedule),
                        witness.product_states,
                        repr(witness.input_sequence),
                    )
                )
                continue
            if search.status == "truncated":
                # The budget stopped the search before it showed that no
                # safety violation exists: no verdict, and no conviction.
                checks[f"m{m}_{name}_convicted"] = False
                rows.append(
                    (
                        m,
                        len(family),
                        name,
                        "unknown (search truncated)",
                        False,
                        None,
                        search.product_states,
                        None,
                    )
                )
                continue
            # No safety violation exists: convict on liveness (the channel
            # deletes every copy; a non-retransmitting protocol never
            # recovers, so some non-empty input is never written).
            not_live = False
            victim = None
            for input_sequence in family:
                if not input_sequence:
                    continue
                system = System(
                    sender, receiver, channel, channel, input_sequence
                )
                adversary = DroppingAdversary(
                    rng.fork(f"m{m}/{name}/{input_sequence!r}"),
                    EagerAdversary(),
                    drop_rate=1.0,
                )
                result = Simulator(system, adversary, max_steps=5_000).run()
                if not result.completed:
                    not_live = True
                    victim = input_sequence
                    break
            checks[f"m{m}_{name}_convicted"] = not_live
            rows.append(
                (
                    m,
                    len(family),
                    name,
                    "liveness violated (delete-all)",
                    not_live,
                    None,
                    None,
                    repr(victim),
                )
            )
    rendered = render_table(
        headers,
        rows,
        title=(
            "T5: |X| = alpha(m)+1 under reorder+delete channels -- every "
            "live candidate is attacked (Theorem 2 impossibility)"
        ),
    )
    return ExperimentResult(
        experiment_id="T5",
        title="Bounded X-STP(del) unsolvable beyond alpha(m): attack synthesis",
        rendered=rendered,
        headers=headers,
        rows=tuple(rows),
        checks=checks,
        notes=(
            "channel capped at 2 in-flight copies per message (legal "
            "deletion, keeps the product space finite); retransmitting "
            "candidates refill the adversary's copy bank, mirroring the "
            "delta_l argument of Lemma 4"
        ),
    )
