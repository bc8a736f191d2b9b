"""Fork-safe aggregation: parallel sweeps leave the same registry as serial.

The tentpole contract of :mod:`repro.obs`: children of the campaign
fork-pool and of the resilient runner record spans and metrics locally,
ship a delta back beside their results, and the parent's merged registry
is bit-identical to what a serial execution would have accumulated.

The campaign pool normally refuses to fork on single-core hosts (the
BENCH_PR1 regression guard); these tests bypass that gate so the child
-> delta -> merge path is genuinely exercised wherever ``fork`` exists.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro import obs
from repro.adversaries import AgingFairAdversary, RandomAdversary
from repro.analysis.campaign import Campaign
from repro.channels import DuplicatingChannel
from repro.kernel.rng import DeterministicRNG
from repro.protocols.norepeat import norepeat_protocol

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="fork start method unavailable",
)


def build_f5_campaign(length: int = 12, seeds: int = 4, workers: int = 1):
    """The F5-style throughput workload as a campaign grid.

    The handshake (no-repetition) protocol over ``length`` distinct items
    -- F5's pipelining baseline input -- swept over every prefix length
    from 4 to ``length`` under the fair random adversary.  The grid gives
    a parallel sweep enough independent runs to shard.
    """
    domain = tuple(f"d{index}" for index in range(length))
    sender, receiver = norepeat_protocol(domain)
    inputs = [domain[:cut] for cut in range(4, length + 1)]
    return Campaign(
        sender=sender,
        receiver=receiver,
        channel_factory=DuplicatingChannel,
        inputs=inputs,
        adversary_factory=lambda rng: AgingFairAdversary(
            RandomAdversary(rng, deliver_weight=3.0), patience=64
        ),
        seeds=seeds,
        max_steps=50_000,
        workers=workers,
    )


def test_build_f5_campaign_grid_shape():
    campaign = build_f5_campaign(length=6, seeds=2, workers=1)
    assert len(campaign.inputs) == 3  # prefix lengths 4, 5, 6
    assert campaign.seeds == 2
    assert all(len(set(sequence)) == len(sequence) for sequence in campaign.inputs)


@pytest.fixture
def forced_pool(monkeypatch):
    """Make the campaign pool fork whenever workers > 1 (even on 1 CPU)."""
    monkeypatch.setattr(
        Campaign,
        "_effective_workers",
        lambda self, grid_size: (
            min(self.workers, grid_size) if self.workers > 1 else 1
        ),
    )


def _run_campaign(workers: int):
    campaign = build_f5_campaign(length=8, seeds=2, workers=workers)
    with obs.scoped() as (tracer, registry):
        outcome = campaign.run(DeterministicRNG(0, "obs-fork-test"))
        return outcome, registry.to_dict(), tracer.spans()


@needs_fork
def test_parallel_campaign_metrics_bit_identical_to_serial(forced_pool):
    serial_outcome, serial_metrics, serial_spans = _run_campaign(workers=1)
    parallel_outcome, parallel_metrics, parallel_spans = _run_campaign(
        workers=4
    )

    assert parallel_outcome.metrics == serial_outcome.metrics
    # The pool gauges describe the fleet shape, so they only exist on the
    # parallel path; everything the *workload* recorded must match bit-for-bit.
    workload_metrics = {
        name: state
        for name, state in parallel_metrics.items()
        if not name.startswith("campaign.pool.")
    }
    assert workload_metrics == serial_metrics, (
        "fork-pool merge must leave the registry bit-identical to serial"
    )
    # Same spans by name; ids were re-assigned by absorb, never colliding.
    assert sorted(s.name for s in parallel_spans) == sorted(
        s.name for s in serial_spans
    )
    ids = [s.span_id for s in parallel_spans]
    assert len(ids) == len(set(ids))
    # Worker spans really crossed a process boundary.
    assert {s.pid for s in parallel_spans} != {os.getpid()}


@needs_fork
def test_campaign_pool_gauges_record_fleet_shape(forced_pool):
    campaign = build_f5_campaign(length=8, seeds=2, workers=4)
    with obs.scoped() as (_, registry):
        campaign.run(DeterministicRNG(0, "obs-gauge-test"))
        exported = registry.to_dict()
    assert exported["campaign.pool.workers"]["high_water"] == 4
    assert exported["campaign.pool.queue_depth"]["high_water"] >= 1


@needs_fork
def test_recovery_metrics_arrive_through_the_registry():
    """The nightly-CI contract: RecoveryMetrics flow registry-first.

    A faulted campaign under the supervised runner (forked children,
    pipes, retries) must deliver ``recovery.*`` counters and histograms
    into the *parent* registry -- not require scraping traces after the
    fact.  The resilient runner always forks, so no pool bypass is
    needed here.
    """
    from repro.resilience.report import build_chaos_campaign, default_scenarios

    scenario = default_scenarios(quick=True)[0]  # abp-outage
    campaign = build_chaos_campaign(scenario, seeds=1, workers=2)
    with obs.scoped() as (_, registry):
        campaign.run_resilient(
            DeterministicRNG(0, "obs-recovery-test"),
            run_timeout=60.0,
            retries=1,
            workers=2,
        )
        exported = registry.to_dict()

    assert exported["recovery.faults"]["value"] > 0
    for name in (
        "recovery.time_to_resync",
        "recovery.retransmissions",
        "recovery.wasted_steps",
    ):
        assert exported[name]["kind"] == "histogram"
        assert exported[name]["count"] > 0, f"{name} never observed"
