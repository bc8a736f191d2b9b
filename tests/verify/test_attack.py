"""Tests for the product-construction attack synthesizer."""

import pytest

from repro.channels import DeletingChannel, DuplicatingChannel, ReorderingChannel
from repro.core.alpha import alpha
from repro.kernel.errors import VerificationError
from repro.protocols.abp import abp_protocol
from repro.protocols.norepeat import norepeat_protocol
from repro.protocols.optimistic import identity_optimistic
from repro.protocols.trivial import StreamingReceiver, StreamingSender
from repro.verify import find_attack, find_attack_on_family, replay_witness
from repro.workloads import overfull_family, repetition_free_family


class TestFindsRealAttacks:
    def test_streaming_under_reordering(self):
        sender, receiver = StreamingSender("ab"), StreamingReceiver("ab")
        witness = find_attack(
            sender,
            receiver,
            ReorderingChannel(),
            ReorderingChannel(),
            ("a", "b"),
            ("b", "a"),
        ).witness
        assert witness is not None
        assert witness.wrong_position == 0

    def test_witness_replays_to_violation(self):
        sender, receiver = StreamingSender("ab"), StreamingReceiver("ab")
        witness = find_attack(
            sender,
            receiver,
            ReorderingChannel(),
            ReorderingChannel(),
            ("a", "b"),
            ("b", "a"),
        ).witness
        result = replay_witness(
            sender, receiver, ReorderingChannel(), ReorderingChannel(), witness
        )
        assert not result.safe
        assert result.trace.input_sequence == witness.input_sequence

    def test_optimistic_overfull_dup(self):
        family = overfull_family("a", 1)  # alpha(1)+1 = 3 sequences
        sender, receiver = identity_optimistic(family)
        witness = find_attack_on_family(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            family,
        ).witness
        assert witness is not None
        replay_witness(
            sender, receiver, DuplicatingChannel(), DuplicatingChannel(), witness
        )

    def test_optimistic_overfull_del_with_drops(self):
        family = overfull_family("a", 1)
        sender, receiver = identity_optimistic(family)
        channel = DeletingChannel(max_copies=2)
        witness = find_attack_on_family(
            sender,
            receiver,
            channel,
            channel,
            family,
            include_drops=True,
        ).witness
        assert witness is not None
        replay_witness(sender, receiver, channel, channel, witness)

    def test_abp_under_duplication(self):
        sender, receiver = abp_protocol("ab")
        witness = find_attack(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a", "b", "a"),
            ("a", "b", "b"),
        ).witness
        assert witness is not None
        # The wrong write is at the bit-reuse position.
        assert witness.wrong_position == 2

    def test_disjoint_message_runs_are_not_confusable(self):
        # ('a',) vs ('b',): no message is ever deliverable in both runs,
        # so the receiver can always tell them apart -- and indeed this
        # 2-sequence family is within alpha(2), hence solvable.
        sender, receiver = StreamingSender("ab"), StreamingReceiver("ab")
        witness = find_attack(
            sender,
            receiver,
            ReorderingChannel(),
            ReorderingChannel(),
            ("a",),
            ("b",),
        ).witness
        assert witness is None

    def test_witness_metadata_is_consistent(self):
        sender, receiver = StreamingSender("ab"), StreamingReceiver("ab")
        witness = find_attack(
            sender,
            receiver,
            ReorderingChannel(),
            ReorderingChannel(),
            ("a", "b"),
            ("b", "a"),
        ).witness
        assert witness.input_sequence in {("a", "b"), ("b", "a")}
        assert witness.other_sequence != witness.input_sequence
        assert witness.wrote != witness.expected
        assert witness.product_states > 0


class TestExhaustsOnCorrectProtocols:
    def test_norepeat_dup_has_no_attack(self):
        sender, receiver = norepeat_protocol("ab")
        family = repetition_free_family("ab")
        assert len(family) == alpha(2)
        search = find_attack_on_family(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            family,
            max_states=200_000,
        )
        assert search.witness is None
        assert search.status == "exhausted"

    def test_norepeat_del_has_no_attack(self):
        sender, receiver = norepeat_protocol("ab")
        channel = DeletingChannel(max_copies=2)
        search = find_attack_on_family(
            sender,
            receiver,
            channel,
            channel,
            repetition_free_family("ab"),
            max_states=200_000,
            include_drops=True,
        )
        assert search.witness is None
        assert search.status == "exhausted"

    def test_t2_m2_pair_is_exhausted(self):
        sender, receiver = norepeat_protocol("ab")
        search = find_attack(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a", "b"),
            ("b", "a"),
            max_states=200_000,
        )
        assert search.status == "exhausted"
        assert search.exhausted and search.witness is None
        assert 0 < search.product_states < 200_000


class TestTruncation:
    """A search cut by its budget must never read as "no attack"."""

    def test_a_few_states_on_norepeat_dup_is_truncated(self):
        sender, receiver = norepeat_protocol("ab")
        search = find_attack(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a", "b"),
            ("b", "a"),
            max_states=4,
        )
        assert search.status == "truncated"
        assert not search.exhausted and search.witness is None
        assert search.product_states == 4

    def test_one_truncated_pair_makes_the_family_truncated(self):
        sender, receiver = norepeat_protocol("ab")
        search = find_attack_on_family(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            repetition_free_family("ab"),
            max_states=4,
        )
        assert search.status == "truncated"
        assert search.witness is None

    def test_certify_names_a_truncated_attack_search(self):
        from repro.verify.certify import certify_protocol

        sender, receiver = norepeat_protocol("ab")
        report = certify_protocol(
            sender,
            receiver,
            DuplicatingChannel,
            repetition_free_family("ab"),
            run_campaign=False,
            run_exploration=False,
            max_states=4,
        )
        assert report.stages_run == ("attack-search",)
        assert report.attack_witness is None
        assert not report.certified
        (failure,) = report.failures
        assert failure.startswith("attack: search truncated at 4")


class TestContracts:
    def test_identical_inputs_rejected(self):
        sender, receiver = norepeat_protocol("ab")
        with pytest.raises(VerificationError):
            find_attack(
                sender,
                receiver,
                DuplicatingChannel(),
                DuplicatingChannel(),
                ("a",),
                ("a",),
            )

    def test_budget_truncation_returns_none(self):
        family = overfull_family("ab", 2)
        sender, receiver = identity_optimistic(family)
        search = find_attack(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            ("a",),
            ("b",),
            max_states=2,
        )
        assert search.witness is None
        assert search.status == "truncated"

    def test_replay_of_forged_witness_raises(self):
        from repro.verify.attack import AttackWitness

        sender, receiver = norepeat_protocol("ab")
        forged = AttackWitness(
            input_sequence=("a",),
            other_sequence=("b",),
            schedule=(("step", "S"),),
            wrong_position=0,
            wrote="b",
            expected="a",
            product_states=1,
        )
        with pytest.raises(VerificationError):
            replay_witness(
                sender,
                receiver,
                DuplicatingChannel(),
                DuplicatingChannel(),
                forged,
            )
