"""The paper's formal claims, each as a direct integration test.

Where the experiments (T1-A3) produce tables, these tests state the
theorems once, in code, at small parameters -- the reproduction's
executive summary.
"""

import pytest

from repro.adversaries import AgingFairAdversary, EagerAdversary, RandomAdversary
from repro.channels import DeletingChannel, DuplicatingChannel
from repro.core.alpha import alpha
from repro.core.bounds import family_dup_solvable
from repro.core.encoding import EncodingError
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import run_protocol
from repro.kernel.system import System
from repro.protocols.handshake import protocol_for_family
from repro.protocols.norepeat import norepeat_protocol
from repro.protocols.norepeat_del import bounded_del_protocol, f_bound
from repro.protocols.optimistic import identity_optimistic
from repro.verify import explore, find_attack_on_family
from repro.workloads import overfull_family, repetition_free_family


class TestTheorem1:
    """X-STP(dup) solvable iff |X| <= alpha(m), tightly."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_tightness_half(self, m):
        # A protocol exists at exactly |X| = alpha(m): every input of the
        # repetition-free family transmits safely over dup channels.
        domain = "abc"[:m]
        family = repetition_free_family(domain)
        assert len(family) == alpha(m)
        sender, receiver = norepeat_protocol(domain)
        for input_sequence in family:
            result = run_protocol(
                sender,
                receiver,
                DuplicatingChannel(),
                DuplicatingChannel(),
                input_sequence,
                EagerAdversary(),
            )
            assert result.completed and result.safe

    @pytest.mark.parametrize("m", [1, 2])
    def test_impossibility_half(self, m):
        # At |X| = alpha(m) + 1 the natural candidate is attackable and no
        # prefix-monotone encoding exists.
        domain = "ab"[:m]
        family = overfull_family(domain, m)
        sender, receiver = identity_optimistic(family)
        witness = find_attack_on_family(
            sender, receiver, DuplicatingChannel(), DuplicatingChannel(), family
        ).witness
        assert witness is not None
        assert not family_dup_solvable(family, domain)

    def test_impossibility_is_about_counting_not_luck(self):
        # protocol_for_family refuses overfull families with the theorem's
        # bound in the message.
        with pytest.raises(EncodingError, match="Theorem 1"):
            protocol_for_family(overfull_family("ab", 2), "ab")


class TestTheorem2:
    """Bounded X-STP(del) solvable iff |X| <= alpha(m), tightly."""

    def test_tightness_half_with_boundedness_certificate(self):
        from repro.core.boundedness import check_f_bounded
        from repro.kernel.simulator import Simulator

        domain = "abc"
        sender, receiver = bounded_del_protocol(domain)
        system = System(
            sender, receiver, DeletingChannel(), DeletingChannel(), tuple(domain)
        )
        driver = Simulator(system, EagerAdversary(), max_steps=2_000).run()
        assert driver.completed
        report = check_f_bounded(system, driver.trace.events(), f_bound)
        assert report.satisfied

    def test_impossibility_half(self):
        family = overfull_family("a", 1)
        sender, receiver = identity_optimistic(family)
        channel = DeletingChannel(max_copies=2)
        witness = find_attack_on_family(
            sender, receiver, channel, channel, family, include_drops=True
        ).witness
        assert witness is not None


class TestSection3ProtocolProperties:
    def test_protocol_is_finite_state(self):
        # Exhaustive exploration terminates without truncation.
        sender, receiver = norepeat_protocol("ab")
        for input_sequence in repetition_free_family("ab"):
            system = System(
                sender,
                receiver,
                DuplicatingChannel(),
                DuplicatingChannel(),
                input_sequence,
            )
            report = explore(system, max_states=100_000)
            assert not report.truncated and report.all_safe

    def test_liveness_under_fair_randomness(self):
        sender, receiver = norepeat_protocol("ab")
        rng = DeterministicRNG(99)
        for index, input_sequence in enumerate(repetition_free_family("ab")):
            adversary = AgingFairAdversary(
                RandomAdversary(rng.fork(str(index))), patience=48
            )
            result = run_protocol(
                sender,
                receiver,
                DuplicatingChannel(),
                DuplicatingChannel(),
                input_sequence,
                adversary,
                max_steps=50_000,
            )
            assert result.completed


class TestSection5:
    def test_weak_boundedness_strictly_weaker(self):
        """The hybrid protocol separates the two notions (Section 5)."""
        from repro.adversaries import FaultInjectingAdversary
        from repro.channels import LossyFifoChannel
        from repro.core.boundedness import check_f_bounded, check_weakly_bounded
        from repro.kernel.simulator import Simulator
        from repro.protocols.hybrid import hybrid_protocol

        length = 12
        sender, receiver = hybrid_protocol("ab", length, timeout=4)
        system = System(
            sender,
            receiver,
            LossyFifoChannel(),
            LossyFifoChannel(),
            tuple("ab"[i % 2] for i in range(length)),
        )
        adversary = FaultInjectingAdversary(
            EagerAdversary(), fault_time=9, outage_length=12
        )
        run = Simulator(system, adversary, max_steps=50_000).run()
        assert run.completed and run.safe
        strong = check_f_bounded(system, run.trace.events(), f_bound)
        weak = check_weakly_bounded(
            system, run.trace.events(), lambda i: f_bound(i) + 24
        )
        assert weak.satisfied and not strong.satisfied
