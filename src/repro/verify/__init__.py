"""Verification: oracles, exhaustive exploration, and attack synthesis.

* :mod:`repro.verify.safety` / :mod:`repro.verify.liveness` -- trace-level
  oracles for the two STP requirements (Section 2.1/2.4).
* :mod:`repro.verify.explorer` -- exhaustive BFS over the reachable global
  states of a (protocol x channel) system: machine-checked Safety for
  every schedule, not just sampled ones.
* :mod:`repro.verify.attack` -- the impossibility engine: a product
  construction that searches for a delivery schedule driving the receiver
  -- who cannot tell two inputs apart -- into a wrong write.  This is the
  executable content of the dup-/del-decisive tuple arguments (Lemmas 1-4):
  every witness it returns is replayed through the ordinary simulator and
  re-confirmed as a genuine Safety violation.

Verification sweeps too large for one process distribute through
:mod:`repro.fabric`: campaign grids split into content-addressed work
cells (the same sha256 fingerprints :func:`repro.analysis.cache.cached_explore`
and :func:`repro.analysis.cache.cached_stabilize` key their memoization
on), so a cell verified warm by any worker -- or by a plain serial run
-- is never re-verified anywhere.
"""

from repro.verify.safety import check_safety, SafetyVerdict
from repro.verify.liveness import check_liveness, LivenessVerdict
from repro.verify.explorer import explore, explore_compiled, ExplorationReport
from repro.kernel.frontier import explore_multi_source_batched
from repro.verify.deadlock import (
    assert_outage_recoverable,
    find_liveness_trap,
    DeadlockReport,
)
from repro.verify.certify import certify_protocol, CertificationReport
from repro.verify.attack import (
    AttackSearch,
    AttackWitness,
    find_attack,
    find_attack_on_family,
    replay_witness,
)

__all__ = [
    "check_safety",
    "SafetyVerdict",
    "check_liveness",
    "LivenessVerdict",
    "explore",
    "explore_compiled",
    "ExplorationReport",
    "explore_multi_source_batched",
    "assert_outage_recoverable",
    "find_liveness_trap",
    "DeadlockReport",
    "certify_protocol",
    "CertificationReport",
    "AttackSearch",
    "AttackWitness",
    "find_attack",
    "find_attack_on_family",
    "replay_witness",
]
