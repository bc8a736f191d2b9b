"""Tests for the self-healing campaign runner.

The crash/timeout tests use marker files to make the *first* attempt of a
run misbehave and every retry succeed: every attempt runs in a forked
child, so a marker created by a doomed child is visible to its retry.
"""

import multiprocessing
import os
import time

import pytest

from repro.adversaries import AgingFairAdversary, EagerAdversary, RandomAdversary
from repro.analysis.campaign import Campaign
from repro.channels import DuplicatingChannel
from repro.fabric.store import LocalDirStore
from repro.kernel.errors import VerificationError
from repro.kernel.rng import DeterministicRNG
from repro.protocols.norepeat import norepeat_protocol
from repro.resilience import (
    ResilientRunner,
    RunCrash,
    RunError,
    RunTimeout,
)
from repro.resilience.runner import supervised_single_run


def small_campaign(adversary_factory=None, **overrides):
    sender, receiver = norepeat_protocol("abcd")
    factory = adversary_factory or (
        lambda rng: AgingFairAdversary(
            RandomAdversary(rng, deliver_weight=3.0), patience=64
        )
    )
    spec = dict(
        sender=sender,
        receiver=receiver,
        channel_factory=DuplicatingChannel,
        inputs=[("a", "b"), ("c", "d", "a")],
        adversary_factory=factory,
        seeds=2,
        max_steps=20_000,
    )
    spec.update(overrides)
    return Campaign(**spec)


class _SabotagedAdversary(EagerAdversary):
    """Misbehaves until its marker file exists, then behaves normally."""

    def __init__(self, marker, mode):
        super().__init__()
        self.marker = marker
        self.mode = mode

    def choose(self, system, trace, enabled):
        if not os.path.exists(self.marker):
            with open(self.marker, "w") as handle:
                handle.write("sabotaged once\n")
            if self.mode == "crash":
                os._exit(13)
            if self.mode == "hang":
                time.sleep(30.0)
            if self.mode == "error":
                raise RuntimeError("injected failure")
        return super().choose(system, trace, enabled)


class TestDeterminism:
    def test_outcome_bit_identical_to_plain_campaign(self):
        campaign = small_campaign()
        plain = campaign.run(DeterministicRNG(7, "resilient-test"))
        resilient = ResilientRunner(campaign, workers=2).run(
            DeterministicRNG(7, "resilient-test")
        )
        assert resilient.outcome.metrics == plain.metrics
        assert resilient.outcome.summary == plain.summary
        assert resilient.run_failures == ()
        assert resilient.abandoned == ()

    def test_run_resilient_facade(self):
        campaign = small_campaign()
        plain = campaign.run(DeterministicRNG(3, "facade"))
        resilient = campaign.run_resilient(DeterministicRNG(3, "facade"))
        assert resilient.outcome.metrics == plain.metrics


class TestCheckpointResume:
    def test_interrupted_sweep_resumes_bit_identical(self, tmp_path):
        checkpoint = tmp_path / "sweep"
        campaign = small_campaign()
        rng = DeterministicRNG(5, "resume")
        uninterrupted = campaign.run(rng)

        # Full supervised sweep, leaving its queue and store behind.
        ResilientRunner(campaign, checkpoint_dir=checkpoint).run(rng)
        # Simulate a sweep stopped after two runs: the other two never
        # reached the store, one of them mid-attempt (its ticket still
        # leased by a worker that is gone), one never claimed.
        ids = [campaign.run_key(rng, key) for key in campaign.grid_keys()]
        store = LocalDirStore(checkpoint / "store")
        for cell_id in ids[2:]:
            assert store.delete("run", cell_id)
        for cell_id, state in zip(ids[2:], ("leased", "pending")):
            (checkpoint / "done" / f"{cell_id}.json").rename(
                checkpoint / state / f"{cell_id}.json"
            )

        resumed = ResilientRunner(campaign, checkpoint_dir=checkpoint).run(
            DeterministicRNG(5, "resume")
        )
        assert resumed.resumed_runs == 2
        assert resumed.run_failures == ()
        assert resumed.outcome.metrics == uninterrupted.metrics
        assert resumed.outcome.summary == uninterrupted.summary
        # Resuming a finished sweep runs nothing.
        again = ResilientRunner(campaign, checkpoint_dir=checkpoint).run(
            DeterministicRNG(5, "resume")
        )
        assert again.resumed_runs == 4
        assert again.outcome.metrics == uninterrupted.metrics

    def test_checkpoint_from_other_grid_refused(self, tmp_path):
        checkpoint = tmp_path / "sweep"
        ResilientRunner(
            small_campaign(inputs=[("a", "b")]), checkpoint_dir=checkpoint
        ).run(DeterministicRNG(5, "resume"))
        before = sorted(checkpoint.rglob("*"))
        for inputs, rng in (
            ([("c", "d", "a")], DeterministicRNG(5, "resume")),  # other grid
            ([("a", "b")], DeterministicRNG(6, "resume")),  # other RNG seed
            ([("a", "b")], DeterministicRNG(5, "other")),  # other RNG path
        ):
            runner = ResilientRunner(
                small_campaign(inputs=inputs), checkpoint_dir=checkpoint
            )
            with pytest.raises(VerificationError, match="different campaign"):
                runner.run(rng)
        # Refused before any work started: nothing enqueued or stored.
        assert sorted(checkpoint.rglob("*")) == before


class TestSelfHealing:
    def test_crashed_worker_is_retried(self, tmp_path):
        marker = str(tmp_path / "crash-marker")
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(marker, "crash"),
            inputs=[("a", "b")],
            seeds=1,
        )
        clean = small_campaign(
            adversary_factory=lambda rng: EagerAdversary(),
            inputs=[("a", "b")],
            seeds=1,
        ).run(DeterministicRNG(0, "heal"))
        result = ResilientRunner(campaign).run(
            DeterministicRNG(0, "heal")
        )
        assert result.retried_runs == 1
        assert result.abandoned == ()
        assert [f.kind for f in result.run_failures] == ["crash"]
        assert "exit code 13" in result.run_failures[0].message
        # The retry recomputed the exact run the sabotage interrupted.
        assert result.outcome.metrics == clean.metrics

    def test_hung_worker_is_killed_and_retried(self, tmp_path):
        marker = str(tmp_path / "hang-marker")
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(marker, "hang"),
            inputs=[("a", "b")],
            seeds=1,
        )
        result = ResilientRunner(
            campaign, run_timeout=0.5
        ).run(DeterministicRNG(0, "heal"))
        assert result.retried_runs == 1
        assert result.abandoned == ()
        assert [f.kind for f in result.run_failures] == ["timeout"]
        assert result.outcome.summary.runs == 1

    def test_erroring_run_reported_and_retried(self, tmp_path):
        marker = str(tmp_path / "error-marker")
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(marker, "error"),
            inputs=[("a", "b")],
            seeds=1,
        )
        result = ResilientRunner(campaign).run(
            DeterministicRNG(0, "heal")
        )
        assert [f.kind for f in result.run_failures] == ["error"]
        assert "injected failure" in result.run_failures[0].message
        assert result.outcome.summary.runs == 1

    def test_permanently_failing_run_is_abandoned(self):
        class AlwaysCrash(EagerAdversary):
            def choose(self, system, trace, enabled):
                if len(system.input_sequence) == 3:
                    os._exit(13)
                return super().choose(system, trace, enabled)

        campaign = small_campaign(
            adversary_factory=lambda rng: AlwaysCrash(), seeds=1
        )
        result = ResilientRunner(campaign, retries=1).run(
            DeterministicRNG(0, "heal")
        )
        assert result.abandoned == ((("c", "d", "a"), 0),)
        assert len(result.run_failures) == 2  # first attempt + one retry
        # The healthy grid key still produced its metrics.
        assert result.outcome.summary.runs == 1
        assert result.outcome.metrics[0].completed

    def test_every_run_failing_raises(self):
        class AlwaysCrash(EagerAdversary):
            def choose(self, system, trace, enabled):
                os._exit(13)

        campaign = small_campaign(
            adversary_factory=lambda rng: AlwaysCrash(),
            inputs=[("a", "b")],
            seeds=1,
        )
        runner = ResilientRunner(campaign, retries=0)
        with pytest.raises(VerificationError):
            runner.run(DeterministicRNG(0, "heal"))


class TestValidation:
    def test_runner_options_validated(self):
        campaign = small_campaign()
        with pytest.raises(VerificationError):
            ResilientRunner(campaign, run_timeout=0)
        with pytest.raises(VerificationError):
            ResilientRunner(campaign, retries=-1)


class TestSupervisedSingleRun:
    """The per-cell supervision primitive the fabric workers reuse."""

    def test_matches_inline_single_run(self):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign()
        rng = DeterministicRNG(3, "sup")
        key = (("a", "b"), 1)
        supervised = supervised_single_run(campaign, rng, key)
        inline = campaign._single_run(rng, key[0], key[1])
        assert supervised == inline

    def test_timeout_raises(self, tmp_path):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "m1"), "hang"
            )
        )
        with pytest.raises(VerificationError, match="exceeded"):
            supervised_single_run(
                campaign,
                DeterministicRNG(0),
                (("a", "b"), 0),
                run_timeout=0.3,
            )

    def test_crash_raises(self, tmp_path):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "m2"), "crash"
            )
        )
        with pytest.raises(VerificationError, match="died"):
            supervised_single_run(
                campaign, DeterministicRNG(0), (("a", "b"), 0)
            )

    def test_error_raises_with_message(self, tmp_path):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "m3"), "error"
            )
        )
        with pytest.raises(VerificationError, match="injected failure"):
            supervised_single_run(
                campaign, DeterministicRNG(0), (("a", "b"), 0)
            )

    def test_heartbeat_is_called_while_running(self, tmp_path):
        from repro.resilience.runner import supervised_single_run

        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "m4"), "hang"
            )
        )
        beats = []
        with pytest.raises(VerificationError):
            supervised_single_run(
                campaign,
                DeterministicRNG(0),
                (("a", "b"), 0),
                run_timeout=0.5,
                heartbeat=lambda: beats.append(1),
            )
        assert beats  # the lease stayed fresh while the child hung


class TestTypedFailures:
    """A failure's kind is its type, and its message prefix, so it
    survives the queue ticket's attempt history."""

    @pytest.mark.parametrize(
        "mode, error_type",
        [("crash", RunCrash), ("hang", RunTimeout), ("error", RunError)],
    )
    def test_each_failure_raises_its_kind(self, tmp_path, mode, error_type):
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "marker"), mode
            )
        )
        with pytest.raises(error_type) as info:
            supervised_single_run(
                campaign, DeterministicRNG(0), (("a", "b"), 0), run_timeout=0.5
            )
        assert isinstance(info.value, VerificationError)
        assert str(info.value).startswith(f"{error_type.kind}: ")

    def test_error_without_fork_is_typed(self, tmp_path, monkeypatch):
        """Without ``fork`` the run executes in-process; its exception
        must still surface as a typed failure, not escape untyped and
        take the fabric worker (and its lease) down with it."""
        monkeypatch.setattr(
            multiprocessing, "get_all_start_methods", lambda: ["spawn"]
        )
        campaign = small_campaign(
            adversary_factory=lambda rng: _SabotagedAdversary(
                str(tmp_path / "marker"), "error"
            ),
            inputs=[("a", "b")],
            seeds=1,
        )
        with pytest.raises(RunError, match="injected failure"):
            supervised_single_run(campaign, DeterministicRNG(0), (("a", "b"), 0))
        # Re-armed, the same failure reaches the runner's inline worker,
        # which records it and retries the run instead of dying.
        os.remove(tmp_path / "marker")
        result = ResilientRunner(campaign).run(DeterministicRNG(0, "heal"))
        assert [f.kind for f in result.run_failures] == ["error"]
        assert result.retried_runs == 1
        assert result.outcome.summary.runs == 1
