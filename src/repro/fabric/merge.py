"""Reassembling fabric cells into campaign and sweep outcomes.

The merge step is where the fabric's headline guarantee is cashed in:
reading every cell's result back from the shared store *in plan order*
and aggregating with the same code the serial path uses produces an
outcome **equal** to the single-host run -- not statistically close,
``==``-equal, because each cell is a pure function of its content
address and the aggregation order is pinned by the plan.

* :func:`merge_outcome` reassembles campaign cells into a
  :class:`CampaignOutcome` equal to ``Campaign.run``.
* :func:`merge_sweep` reassembles sweep cells: every member reads its
  report or verdict sheet straight from the store, where its one cell
  put it -- equal, timing aside, to the single-host ``cached_explore`` /
  ``cached_stabilize`` result.

:func:`outcome_to_json` / :func:`sweep_outcome_to_json` render
outcomes as canonical JSON (sorted keys, fixed separators, trailing
newline; sweep projections are timing-free), so "bit-identical" can be
asserted as byte equality of files -- which is exactly what the CI
fabric-smoke job and the property tests do.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict
from typing import Dict, List, Optional

from repro import obs
from repro.analysis.cache import ResultCache
from repro.analysis.campaign import CampaignOutcome
from repro.analysis.metrics import RunMetrics, summarize
from repro.fabric.planner import CAMPAIGN_CELL_KIND, FabricPlan
from repro.fabric.spec import FabricError
from repro.fabric.sweep import SweepPlan


def merge_outcome(
    plan: FabricPlan,
    cache: ResultCache,
    wait_timeout: float = 0.0,
) -> CampaignOutcome:
    """Assemble the campaign outcome from the shared store.

    Reads every planned cell back by fingerprint, in the plan's grid
    order, and aggregates exactly as :meth:`Campaign.run` does.  With a
    positive ``wait_timeout``, cells still being computed are polled for
    up to that many seconds (the wait is recorded on the
    ``fabric.merge_wait`` gauge); a cell still missing afterwards is an
    error naming the stragglers -- never a partial, silently-wrong
    outcome.
    """
    with obs.span("fabric.merge", cells=len(plan.cells)):
        metrics = _collect(plan, cache, wait_timeout)
    failures = [
        (cell.input_sequence, cell.seed)
        for cell, measured in zip(plan.cells, metrics)
        if not (measured.safe and measured.completed)
    ]
    return CampaignOutcome(
        summary=summarize(metrics),
        metrics=tuple(metrics),
        failures=tuple(failures),
    )


def _collect(
    plan: FabricPlan, cache: ResultCache, wait_timeout: float
) -> List[RunMetrics]:
    slots: List[Optional[RunMetrics]] = [None] * len(plan.cells)
    deadline = time.monotonic() + max(wait_timeout, 0.0)
    waited = 0.0
    while True:
        missing = []
        for index, cell in enumerate(plan.cells):
            if slots[index] is None:
                slots[index] = cache.get(CAMPAIGN_CELL_KIND, cell.cell_id)
                if slots[index] is None:
                    missing.append(cell)
        if not missing:
            break
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            raise FabricError(
                f"{len(missing)} of {len(plan.cells)} cells missing from "
                f"store {cache.store.describe()} after waiting "
                f"{waited:.1f}s; first missing cell "
                f"{missing[0].cell_id[:12]}... "
                f"(input={missing[0].input_sequence!r}, "
                f"seed={missing[0].seed})"
            )
        step = min(0.05, remaining)
        time.sleep(step)
        waited += step
    if obs.enabled() and waited:
        obs.gauge_set("fabric.merge_wait", waited)
    return slots  # type: ignore[return-value]


def outcome_to_json(outcome: CampaignOutcome) -> str:
    """Canonical JSON for byte-for-byte outcome comparison.

    Deterministic by construction: sorted keys, fixed separators, no
    floats introduced beyond what :class:`RunMetrics` carries, one
    trailing newline.  Two outcomes are equal iff their renderings are
    byte-equal, which lets shell-level CI assert the fabric/serial
    equivalence with ``cmp``.
    """
    payload = {
        "schema": "stp-fabric-report/1",
        "summary": asdict(outcome.summary),
        "metrics": [asdict(m) for m in outcome.metrics],
        "failures": [
            [list(input_sequence), seed]
            for input_sequence, seed in outcome.failures
        ],
    }
    return (
        json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    )


# ---------------------------------------------------------------------------
# sweep merging: one member result per (protocol, channel, input)
# ---------------------------------------------------------------------------


def merge_sweep(
    plan: SweepPlan,
    cache: ResultCache,
    wait_timeout: float = 0.0,
) -> Dict[str, object]:
    """Assemble per-member results for a drained sweep.

    Returns ``{result_key: report-or-result}`` in the plan's member
    order (dicts preserve insertion order): each member's
    :class:`~repro.verify.explorer.ExplorationReport` or
    :class:`~repro.resilience.stabilize.StabilizationResult`, read from
    the store under the spec's kind.  Missing members are polled for up
    to ``wait_timeout`` seconds, then named in a :class:`FabricError`.
    """
    members = list(plan.members())
    with obs.span("fabric.sweep.merge", members=len(members)):
        results: Dict[str, object] = {key: None for _, _, _, key in members}
        deadline = time.monotonic() + max(wait_timeout, 0.0)
        waited = 0.0
        while True:
            missing = []
            for protocol, channel, items, result_key in members:
                if results[result_key] is not None:
                    continue
                payload = cache.get(plan.spec.kind, result_key)
                if payload is None:
                    missing.append((protocol, channel, items, result_key))
                else:
                    results[result_key] = payload
            if not missing:
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                protocol, channel, items, result_key = missing[0]
                raise FabricError(
                    f"{len(missing)} of {len(members)} sweep members "
                    f"missing from store {cache.store.describe()} after "
                    f"waiting {waited:.1f}s; first missing "
                    f"{result_key[:12]}... ({protocol}/{channel}, "
                    f"input={items!r})"
                )
            step = min(0.05, remaining)
            time.sleep(step)
            waited += step
        if obs.enabled() and waited:
            obs.gauge_set("fabric.merge_wait", waited)
    return results


def _explore_payload(report) -> Dict[str, object]:
    """A timing-free JSON projection of one exploration report."""
    return {
        "states": report.states,
        "expanded_states": report.expanded_states,
        "peak_frontier": report.peak_frontier,
        "all_safe": report.all_safe,
        "completion_reachable": report.completion_reachable,
        "truncated": report.truncated,
        "violation_path": (
            None
            if report.violation_path is None
            else [repr(event) for event in report.violation_path]
        ),
    }


def _stabilize_payload(result) -> Dict[str, object]:
    """A timing-free JSON projection of one verdict sheet.

    Byte-identical no matter how the member was computed -- serial or by
    a fabric worker.  The full repr-sorted verdict sheet is included:
    that is the field the byte-equality CI gate actually proves
    distributed/serial agreement on.
    """
    payload = dict(result.summary())
    payload["verdicts"] = [
        [repr(config), bool(ok), depth]
        for config, ok, depth in result.verdicts
    ]
    payload["non_stabilizing_examples"] = [
        repr(config) for config in result.non_stabilizing_examples
    ]
    return payload


def sweep_outcome_to_json(
    plan: SweepPlan, results: Dict[str, object]
) -> str:
    """Canonical JSON for byte-for-byte sweep comparison.

    One entry per member in plan order, each carrying the member's grid
    coordinates plus a timing-free payload projection, so renderings
    from any worker count or warm/cold mix are byte-equal iff the
    underlying verdicts agree.
    """
    members = []
    for protocol, channel, items, result_key in plan.members():
        result = results[result_key]
        if plan.spec.kind == "explore":
            payload = _explore_payload(result)
        else:
            payload = _stabilize_payload(result)
        members.append(
            {
                "protocol": protocol,
                "channel": channel,
                "input": list(items),
                "result_key": result_key,
                "payload": payload,
            }
        )
    report = {
        "schema": "stp-fabric-sweep-report/1",
        "kind": plan.spec.kind,
        "plan_fingerprint": plan.plan_fingerprint,
        "members": members,
    }
    return (
        json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"
    )
