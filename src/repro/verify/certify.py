"""One-call protocol certification: the library's capstone API.

A downstream user with a protocol and a family wants one question
answered: *does this solve X-STP on this channel?*
:func:`certify_protocol` runs the full battery and returns a structured
verdict:

1. **campaign** -- randomized fair-adversary sweeps over every input
   (Safety + Liveness evidence at scale);
2. **exploration** -- exhaustive Safety for every schedule of every input
   (finite-state systems; capped channels recommended);
3. **attack search** -- the impossibility engine over all input pairs; a
   correct protocol must exhaust it without a witness;
4. **boundedness** (optional, deletion channels) -- the Definition 2
   certificate for a caller-supplied budget ``f``.

Any stage can be skipped; the verdict lists exactly which stages ran and
which failed, so "certified" always means "by the stages requested".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

from repro.adversaries import AgingFairAdversary, EagerAdversary, RandomAdversary
from repro.analysis.campaign import Campaign, CampaignOutcome
from repro.core.boundedness import BoundednessReport, check_f_bounded
from repro.kernel.errors import VerificationError
from repro.kernel.interfaces import ChannelModel, ReceiverProtocol, SenderProtocol
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import Simulator
from repro.kernel.system import System
from repro.verify.attack import AttackWitness, find_attack_on_family
from repro.verify.explorer import ExplorationReport, explore


@dataclass(frozen=True)
class CertificationReport:
    """The structured verdict of :func:`certify_protocol`.

    Attributes:
        certified: every requested stage passed.
        stages_run: names of the stages that executed.
        failures: human-readable failure descriptions (empty when
            certified).
        campaign: the randomized-sweep outcome (None if skipped).
        explorations: per-input exhaustive reports (empty if skipped).
        attack_witness: a witness if the attack search found one.  None
            is the *good* outcome only when the search also exhausted
            its product space; a truncated search is listed in
            ``failures``.
        boundedness: the Definition 2 certificate (None if skipped).
    """

    certified: bool
    stages_run: Tuple[str, ...]
    failures: Tuple[str, ...]
    campaign: Optional[CampaignOutcome]
    explorations: Tuple[ExplorationReport, ...]
    attack_witness: Optional[AttackWitness]
    boundedness: Optional[BoundednessReport]


def certify_protocol(
    sender: SenderProtocol,
    receiver: ReceiverProtocol,
    channel_factory: Callable[[], ChannelModel],
    family: Sequence,
    rng: Optional[DeterministicRNG] = None,
    run_campaign: bool = True,
    campaign_seeds: int = 2,
    run_exploration: bool = True,
    run_attack_search: bool = True,
    boundedness_f: Optional[Callable[[int], int]] = None,
    boundedness_channel_factory: Optional[Callable[[], ChannelModel]] = None,
    max_steps: int = 60_000,
    max_states: int = 500_000,
) -> CertificationReport:
    """Run the verification battery and aggregate the verdict.

    ``boundedness_channel_factory`` exists because Definition 2's
    fresh-only witness extensions presume the idealized (uncapped)
    deleting channel: a copy-capped channel saturated with old copies
    deletes every fresh retransmission on entry, making recovery look
    impossible.  Pass the capped factory for exploration and the uncapped
    one here (defaults to ``channel_factory``).
    """
    family = [tuple(member) for member in family]
    if not family:
        raise VerificationError("certification needs a non-empty family")
    rng = rng or DeterministicRNG(0, "certify")
    stages: List[str] = []
    failures: List[str] = []

    campaign_outcome: Optional[CampaignOutcome] = None
    if run_campaign:
        stages.append("campaign")
        campaign_outcome = Campaign(
            sender=sender,
            receiver=receiver,
            channel_factory=channel_factory,
            inputs=family,
            adversary_factory=lambda stream: AgingFairAdversary(
                RandomAdversary(stream, deliver_weight=3.0), patience=96
            ),
            seeds=campaign_seeds,
            max_steps=max_steps,
        ).run(rng.fork("campaign"))
        if not campaign_outcome.all_safe:
            failures.append(
                f"campaign: Safety violated in runs {campaign_outcome.failures}"
            )
        elif not campaign_outcome.all_completed:
            failures.append(
                f"campaign: Liveness evidence missing for "
                f"{campaign_outcome.failures}"
            )

    exploration_reports: List[ExplorationReport] = []
    if run_exploration:
        stages.append("exploration")
        for input_sequence in family:
            system = System(
                sender,
                receiver,
                channel_factory(),
                channel_factory(),
                input_sequence,
            )
            report = explore(system, max_states=max_states)
            exploration_reports.append(report)
            if report.truncated:
                failures.append(
                    f"exploration: state budget exceeded on {input_sequence!r}"
                )
            elif not report.all_safe:
                failures.append(
                    f"exploration: Safety violation reachable on "
                    f"{input_sequence!r} via {report.violation_path!r}"
                )
            elif not report.completion_reachable:
                failures.append(
                    f"exploration: completion unreachable on {input_sequence!r}"
                )

    witness: Optional[AttackWitness] = None
    if run_attack_search and len(family) >= 2:
        stages.append("attack-search")
        search = find_attack_on_family(
            sender,
            receiver,
            channel_factory(),
            channel_factory(),
            family,
            max_states=max_states,
        )
        witness = search.witness
        if witness is not None:
            failures.append(
                f"attack: input {witness.input_sequence!r} confusable with "
                f"{witness.other_sequence!r}; wrong write {witness.wrote!r} "
                f"at {witness.wrong_position}"
            )
        elif search.status == "truncated":
            failures.append(
                f"attack: search truncated at {max_states} product states "
                "per pair; no attack was ruled out"
            )

    boundedness_report: Optional[BoundednessReport] = None
    if boundedness_f is not None:
        stages.append("boundedness")
        make_channel = boundedness_channel_factory or channel_factory
        longest = max(family, key=len)
        system = System(
            sender,
            receiver,
            make_channel(),
            make_channel(),
            longest,
        )
        driver = Simulator(system, EagerAdversary(), max_steps=max_steps).run()
        if not driver.completed:
            failures.append("boundedness: driver run did not complete")
        else:
            boundedness_report = check_f_bounded(
                system, driver.trace.events(), boundedness_f
            )
            if not boundedness_report.satisfied:
                worst = boundedness_report.worst()
                failures.append(
                    f"boundedness: probe at t={worst.probe_time} needed "
                    f"{worst.recovery_steps} steps for item {worst.item} "
                    f"(budget {worst.budget})"
                )

    return CertificationReport(
        certified=not failures,
        stages_run=tuple(stages),
        failures=tuple(failures),
        campaign=campaign_outcome,
        explorations=tuple(exploration_reports),
        attack_witness=witness,
        boundedness=boundedness_report,
    )
