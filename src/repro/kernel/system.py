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
from typing import Dict, Hashable, Tuple

from repro.kernel.errors import ChannelError, SimulationError
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


#: The *frame* of each event kind (keyed on ``event[:2]``): the fields
#: :meth:`System.apply` reads for it, which are also the only fields it
#: writes.  Every other field of the successor is the parent's, so, the
#: automata and channels being pure, two configurations that agree on an
#: event's frame have successors that agree on it too.  The compiled
#: kernel keys its successor memo on this table.  The exactness sweep in
#: ``tests/verify/test_compiled_equivalence.py`` checks it against
#: ``apply`` on every registered protocol and channel, and
#: ``tests/kernel/test_compiled.py`` on the sends and writes no
#: registered protocol makes (sends on deliveries, writes on steps).
EVENT_FRAMES: Dict[Tuple[str, str], Tuple[int, ...]] = {
    ("step", "S"): (SENDER, CHAN_SR),
    ("step", "R"): (RECEIVER, CHAN_RS, OUTPUT),
    ("deliver", "SR"): (RECEIVER, CHAN_SR, CHAN_RS, OUTPUT),
    ("deliver", "RS"): (SENDER, CHAN_SR, CHAN_RS),
    ("drop", "SR"): (CHAN_SR,),
    ("drop", "RS"): (CHAN_RS,),
}
#: The fields :meth:`System.enabled_events` reads.
ENABLED_FRAME: Tuple[int, ...] = (CHAN_SR, CHAN_RS)
#: The fields :meth:`System.output_is_safe` and
#: :meth:`System.output_is_complete` read.
VERDICT_FRAME: Tuple[int, ...] = (OUTPUT,)


def event_frame(event: Event) -> Tuple[int, ...]:
    """The fields ``event`` reads and writes (see :data:`EVENT_FRAMES`)."""
    try:
        return EVENT_FRAMES[event[:2]]
    except (KeyError, TypeError):
        raise SimulationError(f"unknown event {event!r}") from None


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
        """The configuration reached by scheduling ``event`` at ``config``."""
        kind = event[0]
        if kind == "step":
            if event[1] == "S":
                transition = self.sender.check_sends(
                    self.sender.on_step(config.sender_state)
                )
                return self._after_sender(config, transition)
            if event[1] == "R":
                transition = self.receiver.check_sends(
                    self.receiver.on_step(config.receiver_state)
                )
                return self._after_receiver(config, transition)
            raise SimulationError(f"unknown step target in event {event!r}")
        if kind == "deliver":
            direction, message = event[1], event[2]
            if direction == "SR":
                new_chan = self.channel_sr.after_deliver(config.chan_sr, message)
                transition = self.receiver.check_sends(
                    self.receiver.on_message(config.receiver_state, message)
                )
                intermediate = Configuration(
                    sender_state=config.sender_state,
                    receiver_state=config.receiver_state,
                    chan_sr=new_chan,
                    chan_rs=config.chan_rs,
                    output=config.output,
                )
                return self._after_receiver(intermediate, transition)
            if direction == "RS":
                new_chan = self.channel_rs.after_deliver(config.chan_rs, message)
                transition = self.sender.check_sends(
                    self.sender.on_message(config.sender_state, message)
                )
                intermediate = Configuration(
                    sender_state=config.sender_state,
                    receiver_state=config.receiver_state,
                    chan_sr=config.chan_sr,
                    chan_rs=new_chan,
                    output=config.output,
                )
                return self._after_sender(intermediate, transition)
            raise SimulationError(f"unknown delivery direction in event {event!r}")
        if kind == "drop":
            direction, message = event[1], event[2]
            if direction == "SR":
                return Configuration(
                    sender_state=config.sender_state,
                    receiver_state=config.receiver_state,
                    chan_sr=self.channel_sr.after_drop(config.chan_sr, message),
                    chan_rs=config.chan_rs,
                    output=config.output,
                )
            if direction == "RS":
                return Configuration(
                    sender_state=config.sender_state,
                    receiver_state=config.receiver_state,
                    chan_sr=config.chan_sr,
                    chan_rs=self.channel_rs.after_drop(config.chan_rs, message),
                    output=config.output,
                )
            raise SimulationError(f"unknown drop direction in event {event!r}")
        raise SimulationError(f"unknown event kind in event {event!r}")

    def _after_sender(
        self, config: Configuration, transition: Transition
    ) -> Configuration:
        if transition.writes:
            raise SimulationError("sender transitions must not write output items")
        chan_sr = config.chan_sr
        for message in transition.sends:
            chan_sr = self.channel_sr.after_send(chan_sr, message)
        return Configuration(
            sender_state=transition.state,
            receiver_state=config.receiver_state,
            chan_sr=chan_sr,
            chan_rs=config.chan_rs,
            output=config.output,
        )

    def _after_receiver(
        self, config: Configuration, transition: Transition
    ) -> Configuration:
        chan_rs = config.chan_rs
        for message in transition.sends:
            chan_rs = self.channel_rs.after_send(chan_rs, message)
        return Configuration(
            sender_state=config.sender_state,
            receiver_state=transition.state,
            chan_sr=config.chan_sr,
            chan_rs=chan_rs,
            output=config.output + transition.writes,
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
