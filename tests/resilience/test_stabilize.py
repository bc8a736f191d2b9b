"""Tests for corrupted-start exploration (repro.resilience.stabilize).

Three layers of evidence:

* **The retired engine label** -- ``engine="batched"`` and
  ``engine="scalar"`` are accepted and change nothing: the per-source
  verdicts equal those of a call without the label, and a cached result
  is stored under the same key.
* **The qualitative split** the workload family exists to show: the
  self-stabilizing ARQ converges from *every* corrupt start (finite max
  depth), while plain ABP has corrupt starts it can never recover from
  -- including under ``corruption="receiver-amnesia"``, the exhaustive
  face of a ``CrashRestart(state_loss="full")`` crash.
* **Crash composition at the run level** -- a campaign whose protocols
  are pinned to a corrupt start via :class:`CorruptedStartSender` /
  :class:`CorruptedStartReceiver` and supervised with
  ``ResilientRunner(stabilization=True)`` reports a stuck ABP start as a
  ``non_stabilizing`` failure, while the ss-ARQ analog simply completes.
"""

from __future__ import annotations

import pytest

from repro.analysis.cache import ResultCache, cached_stabilize
from repro.analysis.campaign import Campaign
from repro.adversaries import EagerAdversary
from repro.channels import LossyFifoChannel
from repro.kernel.errors import VerificationError
from repro.kernel.rng import DeterministicRNG
from repro.kernel.system import System
from repro.protocols import protocol_by_name
from repro.resilience import ResilientRunner
from repro.resilience.stabilize import (
    CorruptedStartReceiver,
    CorruptedStartSender,
    analyze_stabilization,
    corrupt_initial_set,
    corrupt_set_fingerprint,
)

ITEMS = ("a", "b")
#: Two letters the input never uses widen the forged message alphabet.
DOMAIN = ("a", "b", "c", "d")


def build_system(protocol_name: str) -> System:
    sender, receiver = protocol_by_name(protocol_name, DOMAIN, len(ITEMS))
    return System(
        sender,
        receiver,
        LossyFifoChannel(capacity=1),
        LossyFifoChannel(capacity=1),
        ITEMS,
    )


def invariants(result):
    """Every field of a result that must not depend on how it was made."""
    return (
        result.sources,
        result.legitimate_states,
        result.stabilizing,
        result.non_stabilizing,
        result.max_depth,
        result.depth_histogram,
        result.verdicts,
        result.converges,
        result.corrupt_fingerprint,
    )


PROTOCOLS = ("abp", "ss-arq")


@pytest.mark.parametrize("protocol", PROTOCOLS)
class TestEngineEquivalence:
    def test_batched_and_scalar_match(self, protocol):
        baseline = analyze_stabilization(build_system(protocol), domain=DOMAIN)
        for engine in ("batched", "scalar"):
            labelled = analyze_stabilization(
                build_system(protocol), engine=engine, domain=DOMAIN
            )
            assert invariants(labelled) == invariants(baseline), engine
            assert labelled.explored_states == baseline.explored_states


class TestVerdicts:
    def test_ss_arq_converges_from_every_corrupt_start(self):
        result = analyze_stabilization(build_system("ss-arq"), domain=DOMAIN)
        assert result.converges
        assert result.non_stabilizing == 0
        assert result.max_depth is not None
        assert result.depth_histogram
        # Every source carries a finite depth verdict.
        assert all(ok and depth is not None for _, ok, depth in result.verdicts)

    def test_abp_has_non_stabilizing_corrupt_starts(self):
        result = analyze_stabilization(build_system("abp"), domain=DOMAIN)
        assert not result.converges
        assert result.non_stabilizing >= 1
        assert result.non_stabilizing_examples
        assert result.stabilizing + result.non_stabilizing == result.sources

    def test_receiver_amnesia_is_the_full_crash_slice(self):
        """``corruption="receiver-amnesia"`` pins the receiver to its
        fresh initial state -- the configuration a
        ``CrashRestart(state_loss="full")`` crash leaves behind -- and
        preserves the qualitative split."""
        abp = analyze_stabilization(
            build_system("abp"), corruption="receiver-amnesia", domain=DOMAIN
        )
        ss_arq = analyze_stabilization(
            build_system("ss-arq"),
            corruption="receiver-amnesia",
            domain=DOMAIN,
        )
        assert not abp.converges
        assert ss_arq.converges
        fresh = build_system("ss-arq").receiver.initial_state()
        assert all(
            config.receiver_state == fresh for config, _, _ in ss_arq.verdicts
        )
        # The amnesia slice is a strict subset of the full corrupt set.
        full = analyze_stabilization(build_system("ss-arq"), domain=DOMAIN)
        assert ss_arq.sources < full.sources

    def test_sampling_is_deterministic(self):
        one = analyze_stabilization(
            build_system("abp"), sample=100, seed=7, domain=DOMAIN
        )
        two = analyze_stabilization(
            build_system("abp"), sample=100, seed=7, domain=DOMAIN
        )
        assert one.sources == 100
        assert invariants(one) == invariants(two)
        other_seed = analyze_stabilization(
            build_system("abp"), sample=100, seed=8, domain=DOMAIN
        )
        assert other_seed.corrupt_fingerprint != one.corrupt_fingerprint

    def test_validation(self):
        with pytest.raises(VerificationError):
            analyze_stabilization(build_system("abp"), engine="warp")
        with pytest.raises(VerificationError):
            analyze_stabilization(build_system("abp"), corruption="partial")
        with pytest.raises(VerificationError):
            # Truncated graphs would judge unsoundly; the budget refuses.
            analyze_stabilization(build_system("abp"), max_states=10)


class TestCorruptSet:
    def test_enumeration_is_sorted_and_fingerprint_stable(self):
        one = corrupt_initial_set(build_system("abp"))
        two = corrupt_initial_set(build_system("abp"))
        assert one == two
        assert list(one) == sorted(one, key=repr)
        assert corrupt_set_fingerprint(one) == corrupt_set_fingerprint(two)
        assert all(config.output == () for config in one)

    def test_abp_fingerprint_and_verdicts_are_pinned(self):
        """Golden values: a change here changes every stabilize key."""
        result = analyze_stabilization(build_system("abp"), domain=DOMAIN)
        assert result.corrupt_fingerprint == "825a57dbf41b4414"
        assert (result.sources, result.stabilizing) == (1323, 531)
        assert (result.non_stabilizing, result.max_depth) == (792, 2)

    def test_fingerprint_distinguishes_corruption_modes(self):
        full = corrupt_initial_set(build_system("abp"))
        amnesia = corrupt_initial_set(
            build_system("abp"), corruption="receiver-amnesia"
        )
        assert len(amnesia) < len(full)
        assert corrupt_set_fingerprint(amnesia) != corrupt_set_fingerprint(
            full
        )


class TestCache:
    def test_round_trip_ignores_engine(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = cached_stabilize(
            build_system("abp"), cache=cache, engine="batched", domain=DOMAIN
        )
        assert cache.misses == 1
        warm = cached_stabilize(build_system("abp"), cache=cache, domain=DOMAIN)
        assert cache.hits == 1
        assert warm == cold
        assert cache.disk_stats()["entries"] == 1
        with pytest.raises(VerificationError, match="engine"):
            cached_stabilize(
                build_system("abp"), cache=cache, engine="warp", domain=DOMAIN
            )

    def test_corruption_mode_changes_the_key(self, tmp_path):
        cache = ResultCache(tmp_path)
        cached_stabilize(build_system("abp"), cache=cache, domain=DOMAIN)
        cached_stabilize(
            build_system("abp"),
            cache=cache,
            corruption="receiver-amnesia",
            domain=DOMAIN,
        )
        assert cache.misses == 2


def corrupted_campaign(protocol_name: str, sender_state, receiver_state):
    sender, receiver = protocol_by_name(protocol_name, DOMAIN, len(ITEMS))
    return Campaign(
        sender=CorruptedStartSender(sender, sender_state),
        receiver=CorruptedStartReceiver(receiver, receiver_state),
        channel_factory=lambda: LossyFifoChannel(capacity=1),
        inputs=[ITEMS],
        adversary_factory=lambda rng: EagerAdversary(),
        seeds=1,
        max_steps=300,
    )


class TestCrashComposition:
    """Run-level face of the exhaustive verdicts: the same dead ABP
    configuration the explorer flags is reported as ``non_stabilizing``
    by a stabilization-aware resilient runner, and the ss-ARQ analog
    simply converges and completes."""

    #: ABP's silent-deadlock family: sender believes it is done, the
    #: receiver has written nothing, both channels are empty -- no event
    #: ever changes anything.
    DEAD_SENDER = (ITEMS, len(ITEMS), 0)
    DEAD_RECEIVER = (0, 0)

    def test_abp_dead_start_reported_as_non_stabilizing(self):
        campaign = corrupted_campaign(
            "abp", self.DEAD_SENDER, self.DEAD_RECEIVER
        )
        result = ResilientRunner(
            campaign, stabilization=True, backoff=0.01
        ).run(DeterministicRNG(0, "stabilize"))
        kinds = [failure.kind for failure in result.run_failures]
        assert "non_stabilizing" in kinds
        flagged = next(
            failure
            for failure in result.run_failures
            if failure.kind == "non_stabilizing"
        )
        assert "never converged" in flagged.message
        assert not result.outcome.metrics[0].completed
        assert result.outcome.metrics[0].step_budget_exhausted

    def test_abp_dead_start_not_flagged_without_stabilization(self):
        """A plain runner reports the same run as a generic grid failure
        -- the named verdict is opt-in."""
        campaign = corrupted_campaign(
            "abp", self.DEAD_SENDER, self.DEAD_RECEIVER
        )
        result = ResilientRunner(campaign, backoff=0.01).run(
            DeterministicRNG(0, "stabilize")
        )
        assert all(
            failure.kind != "non_stabilizing"
            for failure in result.run_failures
        )

    def test_ss_arq_same_start_converges(self):
        campaign = corrupted_campaign(
            "ss-arq", self.DEAD_SENDER, self.DEAD_RECEIVER
        )
        result = ResilientRunner(
            campaign, stabilization=True, backoff=0.01
        ).run(DeterministicRNG(0, "stabilize"))
        assert all(
            failure.kind != "non_stabilizing"
            for failure in result.run_failures
        )
        assert result.outcome.metrics[0].completed

    def test_explorer_agrees_the_dead_start_is_doomed(self):
        """The run-level witness is in the exhaustive verdict sheet."""
        result = analyze_stabilization(build_system("abp"), domain=DOMAIN)
        doomed = {
            (config.sender_state, config.receiver_state, config.chan_sr,
             config.chan_rs)
            for config, ok, _ in result.verdicts
            if not ok
        }
        empty = LossyFifoChannel(capacity=1).empty()
        assert (
            self.DEAD_SENDER,
            self.DEAD_RECEIVER,
            empty,
            empty,
        ) in doomed
