"""Tests for the Go-Back-N sliding-window protocol."""

import pytest

from repro.adversaries import EagerAdversary, FaultInjectingAdversary
from repro.channels import DuplicatingChannel, LossyFifoChannel
from repro.kernel.errors import ProtocolError
from repro.kernel.simulator import run_protocol
from repro.protocols.gobackn import GoBackNReceiver, GoBackNSender, gobackn_protocol
from repro.verify import find_attack, replay_witness


class TestWindowMechanics:
    def test_pipelines_up_to_window(self):
        sender = GoBackNSender("ab", window=3)
        state = sender.initial_state(("a", "b", "a", "b"))
        sent = []
        for _ in range(6):
            transition = sender.on_step(state)
            sent.extend(transition.sends)
            state = transition.state
        # Only the first `window` frames go out without acknowledgements.
        assert len(sent) == 3
        assert [frame[1] for frame in sent] == [0, 1, 2]

    def test_cumulative_ack_slides_window(self):
        sender = GoBackNSender("ab", window=3)
        state = sender.initial_state(("a", "b", "a", "b"))
        for _ in range(3):
            state = sender.on_step(state).state
        # Ack "expecting 2" confirms frames 0 and 1 at once.
        state = sender.on_message(state, ("ack", 2)).state
        items, base, next_index, tick = state
        assert base == 2

    def test_timeout_goes_back(self):
        sender = GoBackNSender("ab", window=2, timeout=3)
        state = sender.initial_state(("a", "b"))
        sent = []
        for _ in range(8):
            transition = sender.on_step(state)
            sent.extend(transition.sends)
            state = transition.state
        # Frames 0, 1 sent, then after the timeout both resent.
        sequence_numbers = [frame[1] for frame in sent]
        assert sequence_numbers[:2] == [0, 1]
        assert 0 in sequence_numbers[2:]

    def test_stale_ack_ignored(self):
        sender = GoBackNSender("ab", window=2)
        state = sender.initial_state(("a", "b"))
        state = sender.on_step(state).state
        before = state
        # "expecting 0" means nothing new: 0 frames acknowledged.
        assert sender.on_message(state, ("ack", 0)).state == before

    def test_receiver_accepts_only_in_order(self):
        receiver = GoBackNReceiver("ab", window=3)
        state = receiver.initial_state()
        skip = receiver.on_message(state, ("data", 2, "a"))
        assert skip.writes == ()
        assert skip.sends == (("ack", 0),)  # cumulative re-ack
        ok = receiver.on_message(state, ("data", 0, "a"))
        assert ok.writes == ("a",)
        assert ok.sends == (("ack", 1),)

    def test_parameter_validation(self):
        with pytest.raises(ProtocolError):
            GoBackNSender("ab", window=0)
        with pytest.raises(ProtocolError):
            GoBackNSender("ab", window=1, timeout=0)
        with pytest.raises(ProtocolError):
            GoBackNReceiver("ab", window=0)


class TestEndToEnd:
    @pytest.mark.parametrize("window", [1, 2, 4, 8])
    def test_correct_on_lossy_fifo(self, window):
        sender, receiver = gobackn_protocol("ab", window)
        result = run_protocol(
            sender,
            receiver,
            LossyFifoChannel(),
            LossyFifoChannel(),
            tuple("ab" * 4),
            EagerAdversary(),
            max_steps=20_000,
        )
        assert result.completed and result.safe

    def test_recovers_from_burst_loss(self):
        sender, receiver = gobackn_protocol("ab", 4, timeout=6)
        adversary = FaultInjectingAdversary(
            EagerAdversary(), fault_time=7, outage_length=8
        )
        result = run_protocol(
            sender,
            receiver,
            LossyFifoChannel(),
            LossyFifoChannel(),
            tuple("ab" * 3),
            adversary,
            max_steps=20_000,
        )
        assert result.completed and result.safe

    def test_attackable_under_reordering(self):
        # Same disease as ABP: modulo sequence numbers trust FIFO order.
        sender, receiver = gobackn_protocol("ab", 2)
        witness = find_attack(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a", "b", "a", "a"),
            ("a", "b", "a", "b"),
            max_states=400_000,
        ).witness
        assert witness is not None
        replay_witness(
            sender, receiver, DuplicatingChannel(), DuplicatingChannel(), witness
        )
