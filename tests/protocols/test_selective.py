"""Tests for the Selective Repeat sliding-window protocol."""

import pytest

from repro.adversaries import EagerAdversary, FaultInjectingAdversary
from repro.channels import DuplicatingChannel, LossyFifoChannel
from repro.kernel.errors import ProtocolError
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import run_protocol
from repro.kernel.timed import TimedSimulator, constant_latency
from repro.protocols.gobackn import gobackn_protocol
from repro.protocols.selective import (
    SelectiveRepeatReceiver,
    SelectiveRepeatSender,
    selective_repeat_protocol,
)
from repro.verify import find_attack, replay_witness


class TestWindowMechanics:
    def test_modulus_is_twice_window(self):
        sender = SelectiveRepeatSender("ab", window=3)
        assert sender.modulus == 6

    def test_individual_acks_do_not_force_order(self):
        sender = SelectiveRepeatSender("ab", window=3, timeout=1)
        state = sender.initial_state(("a", "b", "a"))
        # Transmit all three frames.
        for _ in range(3):
            state = sender.on_step(state).state
        # Ack the middle frame only: base must not move.
        state = sender.on_message(state, ("sack", 1)).state
        items, base, acked, tick = state
        assert base == 0 and acked == (1,)
        # Now ack frame 0: base jumps over the already-acked frame 1.
        state = sender.on_message(state, ("sack", 0)).state
        items, base, acked, tick = state
        assert base == 2 and acked == ()

    def test_receiver_buffers_out_of_order(self):
        receiver = SelectiveRepeatReceiver("ab", window=3)
        state = receiver.initial_state()
        ahead = receiver.on_message(state, ("data", 1, "b"))
        assert ahead.writes == ()
        assert ahead.sends == (("sack", 1),)
        in_order = receiver.on_message(ahead.state, ("data", 0, "a"))
        assert in_order.writes == ("a", "b")  # buffered frame flushed

    def test_below_window_frame_reacked(self):
        receiver = SelectiveRepeatReceiver("ab", window=2)
        state = receiver.initial_state()
        state = receiver.on_message(state, ("data", 0, "a")).state
        state = receiver.on_message(state, ("data", 1, "b")).state
        stale = receiver.on_message(state, ("data", 0, "a"))
        assert stale.writes == ()
        assert stale.sends == (("sack", 0),)

    def test_duplicate_buffered_frame_not_duplicated(self):
        receiver = SelectiveRepeatReceiver("ab", window=3)
        state = receiver.initial_state()
        state = receiver.on_message(state, ("data", 2, "a")).state
        again = receiver.on_message(state, ("data", 2, "a"))
        expected, buffer = again.state
        assert len(buffer) == 1

    def test_parameter_validation(self):
        with pytest.raises(ProtocolError):
            SelectiveRepeatSender("ab", window=0)
        with pytest.raises(ProtocolError):
            SelectiveRepeatSender("ab", window=1, timeout=0)
        with pytest.raises(ProtocolError):
            SelectiveRepeatReceiver("ab", window=0)


class TestEndToEnd:
    @pytest.mark.parametrize("window", [1, 2, 4])
    def test_correct_on_lossy_fifo(self, window):
        sender, receiver = selective_repeat_protocol("ab", window, timeout=4)
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
        sender, receiver = selective_repeat_protocol("ab", 4, timeout=4)
        adversary = FaultInjectingAdversary(
            EagerAdversary(), fault_time=7, outage_length=8
        )
        result = run_protocol(
            sender,
            receiver,
            LossyFifoChannel(),
            LossyFifoChannel(),
            tuple("ab" * 4),
            adversary,
            max_steps=20_000,
        )
        assert result.completed and result.safe

    def test_beats_gobackn_under_loss(self):
        items = tuple("ab" * 8)
        rng = DeterministicRNG(1)
        gbn = TimedSimulator(
            *gobackn_protocol("ab", 4, timeout=10),
            items,
            rng.fork("gbn"),
            constant_latency(4.0),
            loss_rate=0.3,
            max_time=100_000,
        ).run()
        sr = TimedSimulator(
            *selective_repeat_protocol("ab", 4, timeout=8),
            items,
            rng.fork("sr"),
            constant_latency(4.0),
            loss_rate=0.3,
            max_time=100_000,
        ).run()
        assert gbn.completed and sr.completed
        assert sr.goodput > gbn.goodput

    def test_attackable_under_reordering(self):
        sender, receiver = selective_repeat_protocol("ab", 1, timeout=2)
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
