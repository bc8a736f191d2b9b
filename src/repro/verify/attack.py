"""The attack synthesizer: impossibility proofs as search.

The paper's Lemmas 1-4 all run on one engine: keep the receiver unable to
tell two runs (with different inputs) apart, force it to make progress,
and then one of its writes must be wrong.  This module implements that
engine as a breadth-first search over a *product* of two system
configurations constrained to share the receiver:

* the two runs have inputs ``X1`` and ``X2`` and independent sender /
  channel states;
* receiver steps and deliveries to the receiver are *synchronized*: a
  message may be delivered only if it is deliverable in **both** runs, so
  the receiver's complete history is identical in both -- the mechanical
  form of ``(r,t) ~_R (r',t')``;
* sender steps, deliveries to the sender, and channel drops are per-run
  moves (invisible to the receiver);
* because the receiver automaton is deterministic, its write sequence is
  shared; the first write inconsistent with ``X1`` (resp. ``X2``) projects
  to a genuine Safety-violating schedule of the real system on that input.

Every witness found is replayed through the ordinary simulator by
:func:`replay_witness` before being reported, so benchmark tables never
contain an unconfirmed attack.

For correct protocols the search exhausts without finding a witness --
which is what experiment T2 reports on the tight family, against the
same engine that breaks the overfull ones.  A search that stops at its
state budget says so: :class:`AttackSearch` tells a witness, an
exhausted product space and a truncated search apart, so a budget cut
never reads as "no attack".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.kernel.errors import VerificationError
from repro.kernel.interfaces import ChannelModel, ReceiverProtocol, SenderProtocol
from repro.kernel.simulator import SimulationResult, Simulator
from repro.kernel.system import Event, System
from repro.adversaries.scripted import ScriptedAdversary
from repro.core.sequences import is_prefix


@dataclass(frozen=True)
class AttackWitness:
    """A concrete Safety-violating execution found by the product search.

    Attributes:
        input_sequence: the input ``X`` of the violated run.
        other_sequence: the confusable input the receiver could not rule
            out.
        schedule: the full event schedule of the violating run.
        wrong_position: 0-based output position of the wrong write.
        wrote: the value written there.
        expected: the value ``X`` has there (None if the output overran a
            shorter input).
        product_states: number of product states explored.
    """

    input_sequence: Tuple
    other_sequence: Tuple
    schedule: Tuple[Event, ...]
    wrong_position: int
    wrote: object
    expected: object
    product_states: int


@dataclass(frozen=True)
class AttackSearch:
    """The outcome of an attack search.

    Attributes:
        status: ``"witness"`` (a Safety violation was found),
            ``"exhausted"`` (the whole reachable product space holds
            none) or ``"truncated"`` (the state budget stopped the
            search first, which proves nothing either way).
        witness: the attack when ``status == "witness"``, else None.
        product_states: product states visited (summed over every pair
            searched, for a family).
    """

    status: str
    witness: Optional[AttackWitness]
    product_states: int

    @property
    def exhausted(self) -> bool:
        """True only when the search *proved* that no attack exists."""
        return self.status == "exhausted"


def find_attack(
    sender: SenderProtocol,
    receiver: ReceiverProtocol,
    channel_sr: ChannelModel,
    channel_rs: ChannelModel,
    first_input: Sequence,
    second_input: Sequence,
    max_states: int = 500_000,
    include_drops: bool = True,
) -> AttackSearch:
    """Search for a schedule that violates Safety on one of two inputs.

    The outcome carries the witness for the *shortest* product path
    found; without one, it says whether the product space was exhausted
    or the search stopped at ``max_states`` product states.
    """
    first_input = tuple(first_input)
    second_input = tuple(second_input)
    if first_input == second_input:
        raise VerificationError("the two inputs must differ")

    initial = (
        sender.initial_state(first_input),
        channel_sr.empty(),
        channel_rs.empty(),
        sender.initial_state(second_input),
        channel_sr.empty(),
        channel_rs.empty(),
        receiver.initial_state(),
        (),
    )
    parents: Dict[Tuple, Optional[Tuple[Tuple, Tuple]]] = {initial: None}
    frontier: List[Tuple] = [initial]

    while frontier:
        next_frontier: List[Tuple] = []
        for state in frontier:
            for product_event, successor in _product_successors(
                sender, receiver, channel_sr, channel_rs, state, include_drops
            ):
                if successor in parents:
                    continue
                parents[successor] = (state, product_event)
                written = successor[7]
                verdict = _violates(written, first_input, second_input)
                if verdict is not None:
                    run_index, position = verdict
                    victim = first_input if run_index == 1 else second_input
                    other = second_input if run_index == 1 else first_input
                    schedule = _project(_path_to(parents, successor), run_index)
                    witness = AttackWitness(
                        input_sequence=victim,
                        other_sequence=other,
                        schedule=schedule,
                        wrong_position=position,
                        wrote=written[position],
                        expected=(
                            victim[position] if position < len(victim) else None
                        ),
                        product_states=len(parents),
                    )
                    return AttackSearch("witness", witness, len(parents))
                if len(parents) >= max_states:
                    return AttackSearch("truncated", None, len(parents))
                next_frontier.append(successor)
        frontier = next_frontier
    return AttackSearch("exhausted", None, len(parents))


def _violates(
    written: Tuple, first_input: Tuple, second_input: Tuple
) -> Optional[Tuple[int, int]]:
    """(run_index, wrong_position) for the first unsafe write, if any."""
    for run_index, victim in ((1, first_input), (2, second_input)):
        if not is_prefix(written, victim):
            position = len(written) - 1
            for index, value in enumerate(written):
                if index >= len(victim) or victim[index] != value:
                    position = index
                    break
            return run_index, position
    return None


def _product_successors(
    sender: SenderProtocol,
    receiver: ReceiverProtocol,
    channel_sr: ChannelModel,
    channel_rs: ChannelModel,
    state: Tuple,
    include_drops: bool,
):
    """All product moves from ``state`` as ``(product_event, successor)``."""
    s1, sr1, rs1, s2, sr2, rs2, r, written = state

    # Per-run sender steps.
    for run_index, sender_state, sr in ((1, s1, sr1), (2, s2, sr2)):
        transition = sender.check_sends(sender.on_step(sender_state))
        new_sr = sr
        for message in transition.sends:
            new_sr = channel_sr.after_send(new_sr, message)
        yield ("step", "S", run_index), _replace(
            state, run_index, sender=transition.state, sr=new_sr
        )

    # Per-run acknowledgement deliveries.
    for run_index, sender_state, rs in ((1, s1, rs1), (2, s2, rs2)):
        for message in channel_rs.deliverable(rs):
            transition = sender.check_sends(
                sender.on_message(sender_state, message)
            )
            new_rs = channel_rs.after_deliver(rs, message)
            new_sr = sr1 if run_index == 1 else sr2
            for sent in transition.sends:
                new_sr = channel_sr.after_send(new_sr, sent)
            yield ("deliver", "RS", message, run_index), _replace(
                state, run_index, sender=transition.state, sr=new_sr, rs=new_rs
            )

    # Per-run drops (invisible to the receiver).
    if include_drops:
        for run_index, sr, rs in ((1, sr1, rs1), (2, sr2, rs2)):
            for message in channel_sr.droppable(sr):
                yield ("drop", "SR", message, run_index), _replace(
                    state, run_index, sr=channel_sr.after_drop(sr, message)
                )
            for message in channel_rs.droppable(rs):
                yield ("drop", "RS", message, run_index), _replace(
                    state, run_index, rs=channel_rs.after_drop(rs, message)
                )

    # Synchronized receiver step.
    transition = receiver.check_sends(receiver.on_step(r))
    new_rs1, new_rs2 = rs1, rs2
    for message in transition.sends:
        new_rs1 = channel_rs.after_send(new_rs1, message)
        new_rs2 = channel_rs.after_send(new_rs2, message)
    yield ("step", "R"), (
        s1,
        sr1,
        new_rs1,
        s2,
        sr2,
        new_rs2,
        transition.state,
        written + transition.writes,
    )

    # Synchronized delivery to the receiver: enabled in both runs only.
    deliverable_second = set(channel_sr.deliverable(sr2))
    for message in channel_sr.deliverable(sr1):
        if message not in deliverable_second:
            continue
        transition = receiver.check_sends(receiver.on_message(r, message))
        new_sr1 = channel_sr.after_deliver(sr1, message)
        new_sr2 = channel_sr.after_deliver(sr2, message)
        new_rs1, new_rs2 = rs1, rs2
        for sent in transition.sends:
            new_rs1 = channel_rs.after_send(new_rs1, sent)
            new_rs2 = channel_rs.after_send(new_rs2, sent)
        yield ("deliver", "SR", message), (
            s1,
            new_sr1,
            new_rs1,
            s2,
            new_sr2,
            new_rs2,
            transition.state,
            written + transition.writes,
        )


def _replace(state: Tuple, run_index: int, sender=None, sr=None, rs=None) -> Tuple:
    """A product state with one run's components substituted."""
    s1, sr1, rs1, s2, sr2, rs2, r, written = state
    if run_index == 1:
        return (
            sender if sender is not None else s1,
            sr if sr is not None else sr1,
            rs if rs is not None else rs1,
            s2,
            sr2,
            rs2,
            r,
            written,
        )
    return (
        s1,
        sr1,
        rs1,
        sender if sender is not None else s2,
        sr if sr is not None else sr2,
        rs if rs is not None else rs2,
        r,
        written,
    )


def _path_to(parents: Dict, target: Tuple) -> Tuple[Tuple, ...]:
    events: List[Tuple] = []
    cursor = target
    while True:
        link = parents[cursor]
        if link is None:
            break
        cursor, event = link
        events.append(event)
    events.reverse()
    return tuple(events)


def _project(product_schedule: Tuple[Tuple, ...], run_index: int) -> Tuple[Event, ...]:
    """The victim run's real schedule, extracted from the product path."""
    schedule: List[Event] = []
    for event in product_schedule:
        kind = event[0]
        if kind == "step" and event[1] == "S":
            if event[2] == run_index:
                schedule.append(("step", "S"))
        elif kind == "deliver" and event[1] == "RS":
            if event[3] == run_index:
                schedule.append(("deliver", "RS", event[2]))
        elif kind == "drop":
            if event[3] == run_index:
                schedule.append(("drop", event[1], event[2]))
        elif kind == "step" and event[1] == "R":
            schedule.append(("step", "R"))
        elif kind == "deliver" and event[1] == "SR":
            schedule.append(("deliver", "SR", event[2]))
    return tuple(schedule)


def find_attack_on_family(
    sender: SenderProtocol,
    receiver: ReceiverProtocol,
    channel_sr: ChannelModel,
    channel_rs: ChannelModel,
    family: Sequence,
    max_states: int = 500_000,
    include_drops: bool = True,
) -> AttackSearch:
    """Try every input pair of a family (smallest combined length first).

    Stops at the first witness.  Without one, the family is
    ``"exhausted"`` only if every pair's search was; ``max_states`` is
    the budget of each pair.
    """
    members = [tuple(member) for member in family]
    pairs = [
        (a, b) for i, a in enumerate(members) for b in members[i + 1 :]
    ]
    pairs.sort(key=lambda pair: (len(pair[0]) + len(pair[1]), repr(pair)))
    status = "exhausted"
    visited = 0
    for first_input, second_input in pairs:
        search = find_attack(
            sender,
            receiver,
            channel_sr,
            channel_rs,
            first_input,
            second_input,
            max_states=max_states,
            include_drops=include_drops,
        )
        visited += search.product_states
        if search.witness is not None:
            return AttackSearch("witness", search.witness, visited)
        if search.status == "truncated":
            status = "truncated"
    return AttackSearch(status, None, visited)


def replay_witness(
    sender: SenderProtocol,
    receiver: ReceiverProtocol,
    channel_sr: ChannelModel,
    channel_rs: ChannelModel,
    witness: AttackWitness,
) -> SimulationResult:
    """Re-execute a witness schedule on the real system.

    Returns the simulation result; raises :class:`VerificationError` if
    the replay does *not* reproduce a Safety violation (which would mean
    the product search has a soundness bug -- this is the self-check that
    keeps the benchmark tables honest).
    """
    system = System(
        sender=sender,
        receiver=receiver,
        channel_sr=channel_sr,
        channel_rs=channel_rs,
        input_sequence=witness.input_sequence,
    )
    result = Simulator(
        system,
        ScriptedAdversary(witness.schedule),
        max_steps=len(witness.schedule) + 1,
        stop_on_violation=False,
        stop_when_complete=False,
    ).run()
    if result.safe:
        raise VerificationError(
            "witness replay did not violate Safety: product search is unsound"
        )
    return result
