"""Global configurations and the transition relation of an STP system.

A *system* (Section 2.2 of the paper) couples a sender protocol, a receiver
protocol, and two unidirectional channels (sender-to-receiver and
receiver-to-sender) of the same or different channel families.  A *global
configuration* corresponds to the paper's global state ``(s_E, s_S, s_R)``:
the environment component is the pair of channel states plus the output
tape; the input tape is fixed per run and carried alongside.

Events model the paper's transitions, under its simplifying assumptions:

* at most one message is delivered per step (footnote 3),
* a message cannot be delivered in the same step it is sent,
* processes take local steps (possibly sending) or react to deliveries.

The four event kinds are: sender local step, receiver local step, deliver a
chosen message to the receiver, deliver a chosen message to the sender.
Events are plain hashable tuples so traces and schedules serialize trivially.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Final, Hashable, Iterable, Optional, Tuple

from repro.kernel.errors import SimulationError
from repro.kernel.interfaces import (
    ChannelModel,
    DataItem,
    Message,
    ReceiverProtocol,
    SenderProtocol,
    State,
    Transition,
)

# Event encoding: hashable tuples.
#   ("step", "S")            -- sender local step
#   ("step", "R")            -- receiver local step
#   ("deliver", "SR", msg)   -- deliver msg from the S->R channel to R
#   ("deliver", "RS", msg)   -- deliver msg from the R->S channel to S
#   ("drop", "SR", msg)      -- environment discards msg from the S->R channel
#   ("drop", "RS", msg)      -- environment discards msg from the R->S channel
Event = Tuple

SENDER_STEP: Event = ("step", "S")
RECEIVER_STEP: Event = ("step", "R")


def deliver_to_receiver(message: Message) -> Event:
    """The event delivering ``message`` from the S->R channel to ``R``."""
    return ("deliver", "SR", message)


def deliver_to_sender(message: Message) -> Event:
    """The event delivering ``message`` from the R->S channel to ``S``."""
    return ("deliver", "RS", message)


def drop_from_sr(message: Message) -> Event:
    """The event discarding ``message`` from the S->R channel."""
    return ("drop", "SR", message)


def drop_from_rs(message: Message) -> Event:
    """The event discarding ``message`` from the R->S channel."""
    return ("drop", "RS", message)


#: Indices of a configuration's five fields, in declaration order (the
#: order of :meth:`Configuration.components`).
SENDER, RECEIVER, CHAN_SR, CHAN_RS, OUTPUT = range(5)
ALL_FIELDS: Tuple[int, ...] = (SENDER, RECEIVER, CHAN_SR, CHAN_RS, OUTPUT)


@dataclass(frozen=True)
class Configuration:
    """One global state of the system.

    Attributes:
        sender_state: the sender automaton's local state.
        receiver_state: the receiver automaton's local state.
        chan_sr: state of the sender-to-receiver channel.
        chan_rs: state of the receiver-to-sender channel.
        output: the output tape ``Y`` written so far, as a tuple.
    """

    sender_state: State
    receiver_state: State
    chan_sr: Hashable
    chan_rs: Hashable
    output: Tuple[DataItem, ...] = ()

    def components(self) -> Tuple:
        """The five fields as a tuple, indexed by ``SENDER`` .. ``OUTPUT``."""
        return (
            self.sender_state,
            self.receiver_state,
            self.chan_sr,
            self.chan_rs,
            self.output,
        )

    def with_output(self, new_items: Tuple[DataItem, ...]) -> "Configuration":
        """This configuration with items appended to the output tape."""
        if not new_items:
            return self
        return Configuration(
            sender_state=self.sender_state,
            receiver_state=self.receiver_state,
            chan_sr=self.chan_sr,
            chan_rs=self.chan_rs,
            output=self.output + new_items,
        )


#: The steps :meth:`System.apply` composes for each event kind (keyed on
#: ``event[:2]``): the channel field a delivery or a drop takes its
#: message from, and the field of the process that then moves (its sends
#: go to the other channel, a receiver's writes to the output).  Every
#: other field of the successor is the parent's.  The compiled kernel
#: memoizes each step on the component ids it reads.
EVENT_STEPS: Dict[Tuple[str, str], Tuple[Optional[int], Optional[int]]] = {
    ("step", "S"): (None, SENDER),
    ("step", "R"): (None, RECEIVER),
    ("deliver", "SR"): (CHAN_SR, RECEIVER),
    ("deliver", "RS"): (CHAN_RS, SENDER),
    ("drop", "SR"): (CHAN_SR, None),
    ("drop", "RS"): (CHAN_RS, None),
}
#: The fields :meth:`System.enabled_events` reads.
ENABLED_FRAME: Tuple[int, ...] = (CHAN_SR, CHAN_RS)
#: The fields :meth:`System.output_is_safe` and
#: :meth:`System.output_is_complete` read.
VERDICT_FRAME: Tuple[int, ...] = (OUTPUT,)

#: The stimulus of a local step, in place of a delivered message
#: (:meth:`System.sender_move`, :meth:`System.receiver_move`).
STEP: Final = object()


def put(
    channel: ChannelModel, state: Hashable, sends: Iterable[Message]
) -> Hashable:
    """``channel``'s state after its origin sends ``sends``, in order."""
    for message in sends:
        state = channel.after_send(state, message)
    return state


class System:
    """The transition relation of one STP system on one input sequence.

    This is the single source of truth for dynamics: the simulator, the
    exhaustive explorer, the attack synthesizer, and the knowledge-ensemble
    generator all fold :meth:`enabled_events` / :meth:`apply`.
    """

    def __init__(
        self,
        sender: SenderProtocol,
        receiver: ReceiverProtocol,
        channel_sr: ChannelModel,
        channel_rs: ChannelModel,
        input_sequence: Tuple[DataItem, ...],
    ) -> None:
        self.sender = sender
        self.receiver = receiver
        self.channel_sr = channel_sr
        self.channel_rs = channel_rs
        self.input_sequence = tuple(input_sequence)

    def initial(self) -> Configuration:
        """The initial global configuration on this input sequence."""
        return Configuration(
            sender_state=self.sender.initial_state(self.input_sequence),
            receiver_state=self.receiver.initial_state(),
            chan_sr=self.channel_sr.empty(),
            chan_rs=self.channel_rs.empty(),
            output=(),
        )

    def enabled_events(self, config: Configuration) -> Tuple[Event, ...]:
        """All events the environment may schedule from ``config``.

        Local steps are always enabled (Property 1b-i guarantees runs where
        nothing is delivered); a delivery is enabled per deliverable message.
        """
        events = [SENDER_STEP, RECEIVER_STEP]
        events.extend(
            deliver_to_receiver(message)
            for message in self.channel_sr.deliverable(config.chan_sr)
        )
        events.extend(
            deliver_to_sender(message)
            for message in self.channel_rs.deliverable(config.chan_rs)
        )
        events.extend(
            drop_from_sr(message)
            for message in self.channel_sr.droppable(config.chan_sr)
        )
        events.extend(
            drop_from_rs(message)
            for message in self.channel_rs.droppable(config.chan_rs)
        )
        return tuple(events)

    def apply(self, config: Configuration, event: Event) -> Configuration:
        """The configuration reached by scheduling ``event`` at ``config``.

        Each event composes the same steps: a delivery first takes its
        message from the channel (``after_deliver``; a drop does only
        that, with ``after_drop``), then the receiving process moves
        (:meth:`sender_move` / :meth:`receiver_move`), its sends are
        :func:`put` on its outgoing channel, and a receiver's writes are
        appended to the output.  The compiled kernel memoizes each step
        on its own (:mod:`repro.kernel.compiled`).
        """
        kind = event[0]
        if kind == "step":
            if event[1] == "S":
                move = self.sender_move(config.sender_state, STEP)
                return Configuration(
                    move.state,
                    config.receiver_state,
                    put(self.channel_sr, config.chan_sr, move.sends),
                    config.chan_rs,
                    config.output,
                )
            if event[1] == "R":
                move = self.receiver_move(config.receiver_state, STEP)
                return Configuration(
                    config.sender_state,
                    move.state,
                    config.chan_sr,
                    put(self.channel_rs, config.chan_rs, move.sends),
                    config.output + move.writes,
                )
            raise SimulationError(f"unknown step target in event {event!r}")
        if kind == "deliver":
            direction, message = event[1], event[2]
            if direction == "SR":
                chan_sr = self.channel_sr.after_deliver(config.chan_sr, message)
                move = self.receiver_move(config.receiver_state, message)
                return Configuration(
                    config.sender_state,
                    move.state,
                    chan_sr,
                    put(self.channel_rs, config.chan_rs, move.sends),
                    config.output + move.writes,
                )
            if direction == "RS":
                chan_rs = self.channel_rs.after_deliver(config.chan_rs, message)
                move = self.sender_move(config.sender_state, message)
                return Configuration(
                    move.state,
                    config.receiver_state,
                    put(self.channel_sr, config.chan_sr, move.sends),
                    chan_rs,
                    config.output,
                )
            raise SimulationError(f"unknown delivery direction in event {event!r}")
        if kind == "drop":
            direction, message = event[1], event[2]
            if direction == "SR":
                return Configuration(
                    config.sender_state,
                    config.receiver_state,
                    self.channel_sr.after_drop(config.chan_sr, message),
                    config.chan_rs,
                    config.output,
                )
            if direction == "RS":
                return Configuration(
                    config.sender_state,
                    config.receiver_state,
                    config.chan_sr,
                    self.channel_rs.after_drop(config.chan_rs, message),
                    config.output,
                )
            raise SimulationError(f"unknown drop direction in event {event!r}")
        raise SimulationError(f"unknown event kind in event {event!r}")

    def sender_move(self, state: State, message: Message) -> Transition:
        """The sender's transition on ``message``, or a local step on ``STEP``.

        Raises :class:`~repro.kernel.errors.AlphabetError` on a send
        outside the sender's alphabet and
        :class:`~repro.kernel.errors.SimulationError` on a write.
        """
        sender = self.sender
        transition = sender.check_sends(
            sender.on_step(state)
            if message is STEP
            else sender.on_message(state, message)
        )
        if transition.writes:
            raise SimulationError("sender transitions must not write output items")
        return transition

    def receiver_move(self, state: State, message: Message) -> Transition:
        """The receiver's transition on ``message``, or a local step on ``STEP``.

        Raises :class:`~repro.kernel.errors.AlphabetError` on a send
        outside the receiver's alphabet.
        """
        receiver = self.receiver
        return receiver.check_sends(
            receiver.on_step(state)
            if message is STEP
            else receiver.on_message(state, message)
        )

    def deliverable_to_receiver(self, config: Configuration) -> Tuple[Message, ...]:
        """Support of the receiver-side ``dlvrble`` vector at ``config``."""
        return self.channel_sr.deliverable(config.chan_sr)

    def deliverable_to_sender(self, config: Configuration) -> Tuple[Message, ...]:
        """Support of the sender-side ``dlvrble`` vector at ``config``."""
        return self.channel_rs.deliverable(config.chan_rs)

    def output_is_safe(self, config: Configuration) -> bool:
        """The paper's Safety predicate: ``Y`` is a prefix of ``X``."""
        output = config.output
        return (
            len(output) <= len(self.input_sequence)
            and tuple(output) == self.input_sequence[: len(output)]
        )

    def output_is_complete(self, config: Configuration) -> bool:
        """True when the whole input sequence has been written."""
        return tuple(config.output) == self.input_sequence
