"""Per-layer accounting over the spans every traced process wrote.

Wall-time attribution: each instant of the workload's traced window is
split equally among the threads (of any process) that are *busy* in a
measured span at that instant -- inside a span that is not a wait.  A
busy span passes its share to its own layer, except for the part of its
self time that nested timers of another layer measured, which goes to
that layer.  When no thread is busy the instant goes to the layers of
the threads that are waiting (a pipe receive, a service round trip),
and when no thread is in any span at all it goes to ``other_s``.  The
layer self times plus ``other_s`` therefore add up to the window by
construction, so that sum is not checked.  Two checks can fail instead:

* ``trace.unattributed_ratio`` -- ``other_s`` over the window, the time
  no layer span covers (harness code and code the wrappers miss) -- must
  stay within ``UNATTRIBUTED_TOLERANCE``;
* on a single-threaded pass, ``trace.attribution_error`` -- the largest
  difference between a layer's attributed time and its self time summed
  span by span from parent links (``direct_self_times``), over the
  window -- must stay within ``ATTRIBUTION_TOLERANCE``.

Spans on one thread nest (they are recorded from a stack), so a span's
self time is its duration minus its children's.  All processes use
``time.perf_counter``, which on Linux is the system-wide monotonic
clock, so spans from forked workers and the server line up with the
pass's window.
"""

from __future__ import annotations

import glob
import os
import pickle
import statistics
from collections import defaultdict

from tracing import (
    END,
    EXTRA,
    LAYER,
    LAYERS,
    NAME,
    OP,
    PARENT,
    SID,
    START,
    TID,
    TIMED,
    TIMER_LAYER,
    WAIT,
)

#: Largest share of the window that may go to ``other_s``.
UNATTRIBUTED_TOLERANCE = 0.10
#: Largest |attributed - direct self time| / window, any layer.
ATTRIBUTION_TOLERANCE = 0.001

FRONTIER_SPANS = ("frontier.explore", "frontier.multi_source")
STABILIZE_SPANS = (
    "stabilize.analyze",
    "stabilize.shard",
    "stabilize.merge",
    "stabilize.corrupt_set",
    "stabilize.project",
)


def load(trace_dir: str) -> list:
    """Every process record written under ``trace_dir``."""
    records = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "*.pkl"))):
        with open(path, "rb") as handle:
            records.append(pickle.load(handle))
    return records


def _thread_pieces(spans):
    """``(t0, t1, span)`` pieces where ``span`` is the innermost open one."""
    spans = sorted(spans, key=lambda span: (span[START], -span[END]))
    pieces = []
    stack = []
    cursor = 0.0
    for span in spans:
        while stack and stack[-1][END] <= span[START]:
            top = stack.pop()
            pieces.append((cursor, top[END], top))
            cursor = top[END]
        if stack:
            pieces.append((cursor, span[START], stack[-1]))
        cursor = span[START]
        stack.append(span)
    while stack:
        top = stack.pop()
        pieces.append((cursor, top[END], top))
        cursor = top[END]
    return [piece for piece in pieces if piece[1] > piece[0]]


def _weights(span, self_time):
    """How a span's self time splits over layers (timed foreign time)."""
    foreign = defaultdict(float)
    for group, seconds in (span[TIMED] or {}).items():
        layer = TIMER_LAYER[group]
        if layer != span[LAYER]:
            foreign[layer] += seconds
    if self_time <= 0 or not foreign:
        return ((span[LAYER], 1.0),)
    scale = min(1.0, sum(foreign.values()) / self_time)
    total = sum(foreign.values())
    weights = [(span[LAYER], 1.0 - scale)]
    weights.extend(
        (layer, scale * seconds / total) for layer, seconds in foreign.items()
    )
    return tuple(weights)


class Trace:
    """All processes' spans, with per-span self times computed."""

    def __init__(self, records: list) -> None:
        self.records = records
        self.spans = []
        self.self_time = {}
        self.segments = []
        self.by_key = {}
        for record in records:
            pid = record["pid"]
            threads = defaultdict(list)
            for span in record["spans"]:
                threads[span[TID]].append(span)
                self.by_key[(pid, span[SID])] = span
                self.spans.append((pid, span))
            for spans in threads.values():
                pieces = _thread_pieces(spans)
                owned = defaultdict(float)
                for t0, t1, span in pieces:
                    owned[id(span)] += t1 - t0
                for span in spans:
                    self.self_time[id(span)] = owned.get(id(span), 0.0)
                for t0, t1, span in pieces:
                    self.segments.append(
                        (t0, t1, span[WAIT], _weights(span, owned[id(span)]))
                    )

    def named(self, *names):
        return [span for _, span in self.spans if span[NAME] in names]

    def total(self, *names) -> float:
        return sum(span[END] - span[START] for span in self.named(*names))

    def count(self, *names) -> int:
        return len(self.named(*names))

    def extra_sum(self, key, *names) -> float:
        return sum(
            (span[EXTRA] or {}).get(key, 0) for span in self.named(*names)
        )

    def timer(self, group):
        count = sum(record["timers"][group][0] for record in self.records)
        seconds = sum(record["timers"][group][1] for record in self.records)
        return count, seconds

    def samples(self, name) -> list:
        values = []
        for record in self.records:
            values.extend(record["samples"].get(name, ()))
        return values

    def pure_self(self, *names) -> float:
        """Self time of the named spans minus nested timed time."""
        total = 0.0
        for span in self.named(*names):
            timed = sum((span[TIMED] or {}).values())
            total += max(0.0, self.self_time[id(span)] - timed)
        return total

    def attribute(self, start: float, end: float) -> dict:
        """Split the window ``[start, end]`` over layers (see module doc)."""
        events = []
        for index, (t0, t1, _, _) in enumerate(self.segments):
            t0, t1 = max(t0, start), min(t1, end)
            if t1 > t0:
                events.append((t0, 1, index))
                events.append((t1, -1, index))
        events.sort()
        totals = dict.fromkeys(LAYERS + ("other",), 0.0)
        active = {}
        cursor = start
        for moment, delta, index in events:
            if moment > cursor:
                _distribute(moment - cursor, active.values(), totals)
                cursor = moment
            if delta > 0:
                active[index] = self.segments[index]
            else:
                del active[index]
        if end > cursor:
            _distribute(end - cursor, (), totals)
        return totals


def direct_self_times(trace: Trace, start: float, end: float) -> dict:
    """Per-layer self time inside the window, span by span.

    Independent of ``Trace.attribute``: a span's self time is its duration
    minus its children's (found through parent links), both clipped to
    the window, split over layers by its timed time; ``other`` adds the
    time no span covers.  On a single-threaded pass the two must agree.
    """

    def clipped(span) -> float:
        return max(0.0, min(span[END], end) - max(span[START], start))

    children = defaultdict(float)
    for pid, span in trace.spans:
        if span[PARENT]:
            children[(pid, span[PARENT])] += clipped(span)
    totals = dict.fromkeys(LAYERS + ("other",), 0.0)
    totals["other"] = end - start
    for pid, span in trace.spans:
        if not span[PARENT]:
            totals["other"] -= clipped(span)
        own = clipped(span) - children[(pid, span[SID])]
        for layer, weight in _weights(span, own):
            totals[layer] += own * weight
    return totals


def _distribute(dt, active, totals) -> None:
    active = list(active)
    chosen = [segment for segment in active if not segment[2]] or active
    if not chosen:
        totals["other"] += dt
        return
    share = dt / len(chosen)
    for segment in chosen:
        for layer, weight in segment[3]:
            totals[layer] += share * weight


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _ratio(numerator, denominator) -> float:
    return float(numerator) / denominator if denominator else 0.0


def _worker_accounting(trace: Trace):
    """Cells, busy and idle seconds of every fabric worker loop."""
    claims = defaultdict(list)
    for pid, span in trace.spans:
        if span[NAME] == "queue.claim":
            claims[(pid, span[TID])].append(span)
    cells = 0
    busy = 0.0
    total = 0.0
    for pid, run in trace.spans:
        if run[NAME] != "worker.run":
            continue
        total += run[END] - run[START]
        inside = sorted(
            (
                claim
                for claim in claims[(pid, run[TID])]
                if run[START] <= claim[START] <= run[END]
            ),
            key=lambda claim: claim[START],
        )
        for index, claim in enumerate(inside):
            if (claim[EXTRA] or {}).get("empty"):
                continue
            cells += 1
            following = (
                inside[index + 1][START] if index + 1 < len(inside) else run[END]
            )
            busy += following - claim[END]
    return cells, busy, max(0.0, total - busy)


def _pool_overhead(trace: Trace) -> float:
    """Campaign wall minus the runs' own time spread over the workers."""
    runs = trace.named("simulator.run")
    overhead = 0.0
    for campaign in trace.named("campaign.run"):
        workers = max(1, (campaign[EXTRA] or {}).get("workers", 1))
        inside = sum(
            run[END] - run[START]
            for run in runs
            if campaign[START] <= run[START] <= campaign[END]
        )
        overhead += (campaign[END] - campaign[START]) - inside / workers
    return overhead


def _spawn_seconds(trace: Trace) -> float:
    total = 0.0
    for pid, span in trace.spans:
        if span[NAME] != "proc.start":
            continue
        parent = trace.by_key.get((pid, span[PARENT]))
        if parent is not None and parent[NAME] == "coordinator.run":
            total += span[END] - span[START]
    return total


def layer_metrics(trace: Trace, start: float, end: float, facts: dict) -> dict:
    """Every per-layer metric of one traced pass.

    ``facts`` carries what the pass measured itself: the program's obs
    counters, the service ``stats`` counters, client-side accept times
    and the host's CPU count.
    """
    obs = facts.get("obs", {})
    service = facts.get("service", {})
    window = end - start
    layers = trace.attribute(start, end)
    attribution_error = 0.0
    if len({(pid, span[TID]) for pid, span in trace.spans}) == 1:
        direct = direct_self_times(trace, start, end)
        attribution_error = max(
            abs(layers[layer] - direct[layer]) for layer in layers
        ) / window

    row_calls, row_s = trace.timer("kernel.row")
    apply_calls, apply_s = trace.timer("kernel.apply")
    table_inits, _ = trace.timer("kernel.table_init")
    revived = trace.count("kernel.revive")
    gets = trace.named("cache.get")
    hits = sum(1 for span in gets if (span[EXTRA] or {}).get("hit"))
    claims = trace.named("queue.claim")
    empty = sum(1 for span in claims if (span[EXTRA] or {}).get("empty"))
    waits = trace.samples("queue.wait_s")
    cells, busy, idle = _worker_accounting(trace)
    members = trace.extra_sum("members", "stabilize.analyze", "stabilize.shard")
    corrupt_calls = trace.count("stabilize.corrupt_set")
    computed = service.get("computed", 0)
    coalesced = service.get("coalesced", 0)
    ops = {span[OP] for _, span in trace.spans if span[OP] is not None}

    metrics = {
        "kernel.rows": obs.get("compiled.rows_materialized", 0),
        "kernel.row_calls": row_calls,
        "kernel.row_s": row_s,
        "kernel.apply_calls": apply_calls,
        "kernel.apply_s": apply_s,
        "kernel.intern_s": trace.timer("kernel.intern")[1],
        "kernel.multiset_s": trace.timer("kernel.multiset")[1],
        "kernel.tables_compiled": table_inits - revived,
        "kernel.tables_revived": revived,
        "kernel.snapshot_s": trace.total("kernel.snapshot"),
        "kernel.revive_s": trace.total("kernel.revive"),
        "frontier.states": trace.extra_sum("states", *FRONTIER_SPANS),
        "frontier.self_s": trace.pure_self(*FRONTIER_SPANS),
        "stabilize.sources": trace.extra_sum(
            "sources", "stabilize.analyze", "stabilize.shard"
        ),
        "stabilize.corrupt_set_calls": corrupt_calls,
        "stabilize.prep_ratio": _ratio(members, corrupt_calls),
        "stabilize.corrupt_set_s": trace.total("stabilize.corrupt_set"),
        "stabilize.self_s": trace.pure_self(*STABILIZE_SPANS),
        "stabilize.merge_s": trace.total("stabilize.merge"),
        "cache.gets": len(gets),
        "cache.hits": hits,
        "cache.hit_ratio": _ratio(hits, len(gets)),
        "cache.get_s": trace.total("cache.get"),
        "cache.key_s": trace.timer("cache.key")[1],
        "cache.puts": trace.count("cache.put"),
        "cache.put_s": trace.total("cache.put"),
        "cache.bytes_written": trace.extra_sum("bytes", "store.write"),
        "store.reads": trace.count("store.read"),
        "store.read_s": trace.total("store.read"),
        "store.writes": trace.count("store.write"),
        "store.write_s": trace.total("store.write"),
        "queue.claims": len(claims) - empty,
        "queue.empty_claims": empty,
        "queue.claim_s": trace.total("queue.claim"),
        "queue.enqueue_s": trace.total("queue.enqueue"),
        "queue.mark_done_s": trace.total("queue.mark_done"),
        "queue.requeue_scan_s": trace.total("queue.requeue_scan"),
        "queue.wait_p50_s": _median(waits),
        "queue.wait_max_s": max(waits) if waits else 0.0,
        "worker.cells": cells,
        "worker.busy_s": busy,
        "worker.idle_s": idle,
        "worker.busy_ratio": _ratio(busy, busy + idle),
        "cells.warm_probe_s": trace.total("cells.warm_probe"),
        "coordinator.spawn_s": _spawn_seconds(trace),
        "sweep.plan_s": trace.total("sweep.plan"),
        "sweep.split_s": trace.total("sweep.split"),
        "merge.merge_s": trace.total("merge.merge"),
        "campaign.runs": trace.count("simulator.run"),
        "simulator.steps": trace.extra_sum("steps", "simulator.run"),
        "simulator.run_s": trace.total("simulator.run"),
        "campaign.pool_overhead_s": _pool_overhead(trace),
        "runner.supervised_runs": trace.count("runner.supervised"),
        "runner.supervised_s": trace.total("runner.supervised"),
        "service.accept_ms": _median(facts.get("accept_ms", ())),
        "service.parse_s": trace.total("service.parse"),
        "service.job_key_s": trace.total("service.job_key"),
        "service.codec_s": trace.total("service.codec"),
        "service.pool_wait_s": sum(trace.samples("service.pool_wait_s")),
        "service.execute_s": trace.total("service.execute"),
        "service.computed": computed,
        "service.coalesced": coalesced,
        "service.coalesce_ratio": _ratio(coalesced, coalesced + computed),
        "service.warm": service.get("warm", 0),
        "service.shed": service.get("shed", 0),
        "obs.compiled_rows_materialized": obs.get(
            "compiled.rows_materialized", 0
        ),
        "obs.cache_hits": obs.get("cache.hits", 0),
        "obs.fabric_compile_reuse": obs.get("fabric.compile_reuse", 0),
        "obs.service_coalesced": obs.get("service.coalesced", 0),
        "trace.wall_s": window,
        "trace.unattributed_ratio": _ratio(layers["other"], window),
        "trace.attribution_error": attribution_error,
        "trace.spans": len(trace.spans),
        "trace.ops": len(ops),
        "host.available_cpus": facts.get("cpus", 0),
    }
    for layer in LAYERS:
        metrics[f"layer.{layer}_s"] = layers[layer]
    metrics["other_s"] = layers["other"]
    return metrics
