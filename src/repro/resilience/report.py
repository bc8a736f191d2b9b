"""The chaos suite behind ``stp-repro chaos`` and ``BENCH_PR2.json``.

A matrix of small fault-injection campaigns -- every protocol family in
the repository crossed with the fault vocabulary of
:mod:`repro.adversaries.fault` -- each executed under the self-healing
:class:`~repro.resilience.runner.ResilientRunner` and summarized as one
:class:`~repro.analysis.perfreport.PerfRecord`.  The report is written
in the ``repro-perf/1`` schema to its own artifact, ``BENCH_PR2.json``.

Records:

* ``chaos:<scenario>`` -- one per matrix cell: wall time, run count,
  completed/safe rates, mean recovery metrics, retry/resume counters, and
  the fault plan's JSON form;
* ``stabilize:<protocol>`` -- the corrupted-start verdict sheet
  (:class:`~repro.resilience.stabilize.StabilizationResult` summary) for
  plain ABP and the self-stabilizing ARQ on the small lossy-FIFO
  instance: the exhaustive complement of the sampled crash scenarios;
* ``experiment:F8`` -- the fault-intensity-vs-recovery sweep, carrying the
  Section 5 trend flags (``hybrid_grows``, ``norepeat_bounded``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple

from repro import obs
from repro.adversaries import AgingFairAdversary, RandomAdversary
from repro.adversaries.fault import (
    BurstDrop,
    ChannelOutage,
    CrashRestart,
    DuplicationStorm,
    FaultPlan,
    ReorderWindow,
)
from repro.analysis.campaign import Campaign
from repro.analysis.perfreport import PerfReport
from repro.kernel.rng import DeterministicRNG
from repro.resilience.crash import apply_crash_plan

BENCH_PR2_FILENAME = "BENCH_PR2.json"

#: Section 5 fault shape shared by the outage scenarios (same constants
#: as experiments F2 and F8).
FAULT_TIME = 9
OUTAGE = 12


@dataclass(frozen=True)
class ChaosScenario:
    """One cell of the chaos matrix.

    Attributes:
        name: record suffix ("abp-outage", ...).
        build: () -> (sender, receiver, channel_factory) for the cell.
        plan: the fault plan every run of the cell executes.
        inputs: the campaign's input family.
    """

    name: str
    build: Callable[[], Tuple]
    plan: FaultPlan
    inputs: Tuple[Tuple, ...]


def _binary_inputs(lengths: Sequence[int]) -> Tuple[Tuple, ...]:
    return tuple(
        tuple("ab"[i % 2] for i in range(length)) for length in lengths
    )


def _distinct_inputs(lengths: Sequence[int]) -> Tuple[Tuple, ...]:
    return tuple(
        tuple(f"d{i}" for i in range(length)) for length in lengths
    )


def default_scenarios(quick: bool = True) -> Tuple[ChaosScenario, ...]:
    """The chaos matrix: protocol families x fault kinds."""
    from repro.channels import DuplicatingChannel, LossyFifoChannel
    from repro.protocols.abp import abp_protocol
    from repro.protocols.gobackn import gobackn_protocol
    from repro.protocols.hybrid import hybrid_protocol
    from repro.protocols.norepeat import norepeat_protocol

    lengths = (6, 8) if quick else (6, 8, 10, 12)
    binary = _binary_inputs(lengths)
    distinct = _distinct_inputs(lengths)
    max_length = max(lengths)
    outage = FaultPlan.of(ChannelOutage(at=FAULT_TIME, length=OUTAGE))

    return (
        ChaosScenario(
            name="abp-outage",
            build=lambda: (*abp_protocol("ab"), LossyFifoChannel),
            plan=outage,
            inputs=binary,
        ),
        ChaosScenario(
            name="abp-burst",
            build=lambda: (*abp_protocol("ab"), LossyFifoChannel),
            plan=FaultPlan.of(BurstDrop(at=FAULT_TIME, count=None)),
            inputs=binary,
        ),
        ChaosScenario(
            name="gbn-outage",
            build=lambda: (
                *gobackn_protocol("ab", 4, timeout=10),
                LossyFifoChannel,
            ),
            plan=outage,
            inputs=binary,
        ),
        ChaosScenario(
            name="hybrid-outage",
            build=lambda: (
                *hybrid_protocol("ab", max_length, timeout=4),
                LossyFifoChannel,
            ),
            plan=outage,
            inputs=binary,
        ),
        ChaosScenario(
            name="norepeat-dupstorm",
            build=lambda: (
                *norepeat_protocol(tuple(f"d{i}" for i in range(max_length))),
                DuplicatingChannel,
            ),
            plan=FaultPlan.of(
                DuplicationStorm(at=6, length=8, direction="SR")
            ),
            inputs=distinct,
        ),
        ChaosScenario(
            name="norepeat-reorder",
            build=lambda: (
                *norepeat_protocol(tuple(f"d{i}" for i in range(max_length))),
                DuplicatingChannel,
            ),
            plan=FaultPlan.of(ReorderWindow(at=6, length=8)),
            inputs=distinct,
        ),
        ChaosScenario(
            name="abp-crash-warm",
            build=lambda: (*abp_protocol("ab"), LossyFifoChannel),
            plan=FaultPlan.of(
                CrashRestart(at=6, process="S", downtime=4, state_loss="none")
            ),
            inputs=binary,
        ),
    )


def build_chaos_campaign(
    scenario: ChaosScenario,
    seeds: int = 2,
    max_steps: int = 30_000,
    workers: int = 1,
) -> Campaign:
    """The scenario as an ordinary campaign grid.

    The plan's crash events wrap the automata; its channel events wrap a
    fair random base adversary forked per run key, so the grid keeps the
    engine's bit-identical determinism under any worker count, retry, or
    resume.
    """
    sender, receiver, channel_factory = scenario.build()
    sender, receiver = apply_crash_plan(scenario.plan, sender, receiver)
    plan = scenario.plan
    return Campaign(
        sender=sender,
        receiver=receiver,
        channel_factory=channel_factory,
        inputs=scenario.inputs,
        adversary_factory=lambda rng: plan.adversary(
            AgingFairAdversary(
                RandomAdversary(rng, deliver_weight=3.0), patience=64
            )
        ),
        seeds=seeds,
        max_steps=max_steps,
        workers=workers,
    )


def _mean(values) -> Optional[float]:
    present = [v for v in values if v is not None]
    return (sum(present) / len(present)) if present else None


def run_chaos(
    seed: int = 0,
    quick: bool = True,
    workers: int = 2,
    checkpoint_dir=None,
    run_timeout: float = 60.0,
    retries: int = 2,
) -> PerfReport:
    """Execute the chaos matrix plus F8 and build the PR2 perf report.

    Args:
        seed: campaign RNG seed (the nightly job sweeps a seed matrix).
        quick: smaller grids and a shorter F8 sweep.
        workers: concurrent supervised child processes per campaign.
        checkpoint_dir: directory for per-scenario checkpoint files
            (``<scenario>.json``); None disables checkpointing.
        run_timeout: per-run wall budget handed to the runner.
        retries: per-run retry budget handed to the runner.
    """
    from pathlib import Path

    from repro.experiments.base import run_experiment

    report = PerfReport(label="stp-repro chaos")
    # Collection is on for the whole matrix so recovery measurements
    # arrive in the artifact through the metrics registry (histograms
    # merged across fork workers), not by scraping traces post-hoc --
    # the nightly CI job asserts exactly this.
    was_enabled = obs.enabled()
    obs.enable()
    seeds = 2 if quick else 3
    for scenario in default_scenarios(quick=quick):
        campaign = build_chaos_campaign(scenario, seeds=seeds, workers=workers)
        checkpoint_path = (
            Path(checkpoint_dir) / f"{scenario.name}.json"
            if checkpoint_dir is not None
            else None
        )
        start = time.perf_counter()
        resilient = campaign.run_resilient(
            DeterministicRNG(seed, f"chaos/{scenario.name}"),
            run_timeout=run_timeout,
            retries=retries,
            checkpoint_path=checkpoint_path,
            workers=workers,
        )
        wall = time.perf_counter() - start
        outcome = resilient.outcome
        metrics = outcome.metrics
        report.add(
            f"chaos:{scenario.name}",
            wall,
            runs=outcome.summary.runs,
            completed_rate=outcome.summary.completed / outcome.summary.runs,
            safe_rate=outcome.summary.safe / outcome.summary.runs,
            mean_time_to_resync=_mean(m.time_to_resync for m in metrics),
            mean_retransmissions=_mean(m.retransmissions for m in metrics),
            mean_wasted_steps=_mean(m.wasted_steps for m in metrics),
            retried_runs=resilient.retried_runs,
            resumed_runs=resilient.resumed_runs,
            abandoned=len(resilient.abandoned),
            run_failures=len(resilient.run_failures),
            plan=scenario.plan.to_dict(),
        )

    # The corrupted-start verdict sheets: the exhaustive complement of
    # the sampled crash scenarios above (one protocol that provably
    # converges from every corrupt start, one that provably does not).
    from repro.channels import LossyFifoChannel
    from repro.kernel.system import System
    from repro.protocols import protocol_by_name
    from repro.resilience.stabilize import analyze_stabilization

    stabilize_items = ("a", "b")
    stabilize_domain = ("a", "b", "c", "d")
    for protocol_name in ("abp", "ss-arq"):
        sender, receiver = protocol_by_name(
            protocol_name, stabilize_domain, len(stabilize_items)
        )
        system = System(
            sender,
            receiver,
            LossyFifoChannel(capacity=1),
            LossyFifoChannel(capacity=1),
            stabilize_items,
        )
        start = time.perf_counter()
        result = analyze_stabilization(system, domain=stabilize_domain)
        report.add(
            f"stabilize:{protocol_name}",
            time.perf_counter() - start,
            states=result.explored_states,
            states_per_second=result.states_per_second,
            **result.summary(),
        )

    start = time.perf_counter()
    f8 = run_experiment("F8", seed=seed, quick=quick)
    report.add(
        "experiment:F8",
        time.perf_counter() - start,
        runs=len(f8.rows),
        checks_passed=f8.all_checks_pass,
        hybrid_grows=f8.checks["hybrid_recovery_grows_with_intensity"],
        norepeat_bounded=f8.checks["norepeat_recovery_bounded"],
        window_bounded=f8.checks["window_protocols_recovery_bounded"],
    )
    report.attach_observability()
    if not was_enabled:
        obs.disable()
    return report
