"""Resilience: composable fault plans, crash--restart, self-healing sweeps.

This package is the robustness face of the reproduction, motivated by
Section 5 of the paper (one unlucky fault can cost a weakly-bounded
protocol unboundedly many recovery steps) and by the richer fault
vocabulary of the self-stabilizing ARQ literature.  Three pieces:

* **Fault plans** (:mod:`repro.adversaries.fault`, re-exported here):
  a :class:`FaultPlan` composes typed, registry-backed fault events --
  burst drops, channel outages, duplication storms, reorder windows,
  crash--restart -- around any base adversary, and every faulted run
  carries :class:`~repro.kernel.simulator.RecoveryMetrics`
  (time-to-resync, retransmissions, wasted steps) on its result.
* **Crash--restart processes** (:mod:`repro.resilience.crash`): protocol
  wrappers realizing a plan's crash events inside the pure automata, with
  configurable state loss.  :func:`run_with_plan` is the one-call harness
  wiring plan, wrappers, and recovery measurement together.
* **The self-healing campaign runner** (:mod:`repro.resilience.runner`):
  a campaign grid drained through the fabric's work queue -- per-run
  timeouts, retries of crashed or hung runs within an attempt budget,
  structured per-run failure records, and resume from the queue
  directory and its result store -- all preserving the campaign engine's
  bit-identical determinism guarantee.
* **Corrupted-start exploration** (:mod:`repro.resilience.stabilize`):
  drops the clean-start assumption entirely -- enumerate the corrupt
  initial configurations of a protocol x channel pair, multi-source-BFS
  from all of them at once, and judge per-source stabilization
  (does the run provably re-enter the legitimate set, and in how many
  levels).  ``stp-repro stabilize`` drives it.

``stp-repro chaos`` drives the fault-plan layer and writes the
``BENCH_PR2.json`` resilience report (:mod:`repro.resilience.report`).
"""

from repro.adversaries.fault import (
    BurstDrop,
    ChannelOutage,
    CrashRestart,
    DuplicationStorm,
    FaultEvent,
    FaultPlan,
    FaultPlanAdversary,
    FaultRecord,
    ReorderWindow,
    fault_event_by_name,
    register_fault_event,
)
from repro.kernel.simulator import RecoveryMetrics, measure_recovery
from repro.resilience.crash import (
    CrashableReceiver,
    CrashableSender,
    apply_crash_plan,
    crash_time_in_trace,
)
from repro.resilience.harness import run_with_plan
from repro.resilience.runner import (
    ResilientOutcome,
    ResilientRunner,
    RunCrash,
    RunError,
    RunFailure,
    RunTimeout,
)
from repro.resilience.report import BENCH_PR2_FILENAME, run_chaos
from repro.resilience.stabilize import (
    CORRUPTION_MODES,
    CorruptedStartReceiver,
    CorruptedStartSender,
    OutputProjectedReceiver,
    StabilizationResult,
    analyze_stabilization,
    corrupt_initial_set,
    corrupt_set_fingerprint,
    projected_system,
)

__all__ = [
    "BurstDrop",
    "ChannelOutage",
    "CrashRestart",
    "DuplicationStorm",
    "FaultEvent",
    "FaultPlan",
    "FaultPlanAdversary",
    "FaultRecord",
    "ReorderWindow",
    "fault_event_by_name",
    "register_fault_event",
    "RecoveryMetrics",
    "measure_recovery",
    "CrashableReceiver",
    "CrashableSender",
    "apply_crash_plan",
    "crash_time_in_trace",
    "run_with_plan",
    "ResilientOutcome",
    "ResilientRunner",
    "RunCrash",
    "RunError",
    "RunFailure",
    "RunTimeout",
    "BENCH_PR2_FILENAME",
    "run_chaos",
    "CORRUPTION_MODES",
    "CorruptedStartReceiver",
    "CorruptedStartSender",
    "OutputProjectedReceiver",
    "StabilizationResult",
    "analyze_stabilization",
    "corrupt_initial_set",
    "corrupt_set_fingerprint",
    "projected_system",
]
