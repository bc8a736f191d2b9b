"""Span and timer wrappers installed on the program from outside.

A traced pass imports the repro modules and then replaces their public
functions with wrappers from this file; nothing under ``src/`` changes.
Per process the wrappers record:

* **spans** at layer boundaries -- name, layer, start, end, parent span,
  operation id -- for calls made at most a few thousand times per pass;
* **timers** (call count and total time) for the hot kernel functions,
  which run hundreds of thousands of times per pass and would drown the
  run in span records.  The outermost timer of a layer that runs under a
  span of another layer charges its time to that span as *timed* time,
  so layer self times stay exact without one span per call;
* **waits** -- spans around blocking calls (pipe receive, sleep, future
  result, service round trip) that the layer accounting does not count
  as busy time while some other thread is busy.

All spans of one operation (a family member, a fabric cell, a service
request, a simulated run) carry the same operation id.

Records stay in memory.  Each process writes them once, when it exits:
the pass and the server at the end of their main function, forked
fabric and pool workers from ``os._exit``, which multiprocessing calls
at the end of every forked child.

``install_slow_rows`` is the test-only sensitivity mode: it wraps
``CompiledSystem.row`` alone so every call busy-waits for as long as the
call took, doubling successor materialization.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import pickle
import sys
import threading
import time

perf = time.perf_counter

#: Module -> layer.  protocols, channels and adversaries run underneath
#: kernel.system and have no boundary of their own.
LAYER_OF_MODULE = {
    "repro.kernel.system": "kernel",
    "repro.kernel.intern": "kernel",
    "repro.kernel.types": "kernel",
    "repro.kernel.compiled": "kernel",
    "repro.kernel.frontier": "kernel",
    "repro.kernel.simulator": "kernel",
    "repro.resilience.stabilize": "resilience",
    "repro.resilience.runner": "resilience",
    "repro.analysis.cache": "analysis",
    "repro.analysis.campaign": "analysis",
    "repro.fabric.store": "fabric",
    "repro.fabric.queue": "fabric",
    "repro.fabric.worker": "fabric",
    "repro.fabric.cells": "fabric",
    "repro.fabric.sweep": "fabric",
    "repro.fabric.planner": "fabric",
    "repro.fabric.merge": "fabric",
    "repro.fabric.coordinator": "fabric",
    "repro.service.server": "service",
    "repro.service.requests": "service",
    "repro.service.pool": "service",
    "repro.service.protocol": "service",
}
LAYERS = ("kernel", "resilience", "analysis", "fabric", "service")

# Span record slots (a list per span keeps the wrapper cheap).
NAME, LAYER, WAIT, START, END, SID, PARENT, OP, TID, TIMED, EXTRA = range(11)

#: Timer groups and the layer each belongs to.
TIMER_LAYER = {
    "kernel.row": "kernel",
    "kernel.apply": "kernel",
    "kernel.intern": "kernel",
    "kernel.multiset": "kernel",
    "kernel.table_init": "kernel",
    "cache.key": "analysis",
}


class _ThreadState(threading.local):
    """Per-thread span stack, operation id and timer nesting."""

    def __init__(self) -> None:
        self.stack: list = []
        self.op = None
        #: active timer groups, and open timers per layer
        self.active: set = set()
        self.layers: dict = {}


class Recorder:
    """One process's spans, timers, counts and samples."""

    def __init__(self, trace_dir: str, role: str) -> None:
        self.trace_dir = trace_dir
        self.role = role
        self.pid = os.getpid()
        self.local = _ThreadState()
        self.ids = itertools.count(1)
        self.spans: list = []
        self.timers = {group: [0, 0.0] for group in TIMER_LAYER}
        self.samples: dict = {}
        #: enqueue time per cell id, and submit time / operation per
        #: service request object -- inherited by forked workers, which
        #: is how a claim measures its queue wait.
        self.enqueued: dict = {}
        self.submitted: dict = {}
        self.op_of_key: dict = {}
        self.flushed = False

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def reset_after_fork(self) -> None:
        self.pid = os.getpid()
        self.role = "forked"
        self.spans = []
        for agg in self.timers.values():
            agg[0] = 0
            agg[1] = 0.0
        self.samples = {}
        self.flushed = False
        self.local.__init__()

    def flush(self, extra=None) -> None:
        """Write this process's records once (atomic rename)."""
        if self.flushed:
            return
        self.flushed = True
        payload = {
            "pid": self.pid,
            "role": self.role,
            "spans": self.spans,
            "timers": self.timers,
            "samples": self.samples,
            "extra": extra or {},
        }
        path = os.path.join(self.trace_dir, f"{self.pid}-{time.monotonic_ns()}")
        with open(path + ".tmp", "wb") as handle:
            pickle.dump(payload, handle, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(path + ".tmp", path + ".pkl")


RECORDER = None  # the installed Recorder, once install() ran


# -- wrappers ---------------------------------------------------------------


def _span_wrapper(fn, name, layer, wait=False, hook=None, begin=None):
    rec = RECORDER

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        local = rec.local
        stack = local.stack
        parent = stack[-1] if stack else None
        if begin is not None:
            begin(rec, local, args, kwargs)
        span = [
            name,
            layer or (parent[LAYER] if parent else "other"),
            wait,
            perf(),
            0.0,
            next(rec.ids),
            parent[SID] if parent else 0,
            local.op,
            threading.get_ident(),
            None,
            None,
        ]
        stack.append(span)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[END] = perf()
            stack.pop()
            rec.spans.append(span)
        if hook is not None:
            hook(rec, local, span, args, kwargs, result)
        return result

    return wrapper


def _timer_wrapper(fn, group):
    rec = RECORDER
    local = rec.local
    agg = rec.timers[group]
    layer = TIMER_LAYER[group]

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        active = local.active
        if group in active:  # recursion: the outer call is timing it
            return fn(*args, **kwargs)
        layers = local.layers
        depth = layers.get(layer, 0)
        active.add(group)
        layers[layer] = depth + 1
        started = perf()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf() - started
            active.discard(group)
            layers[layer] = depth
            agg[0] += 1
            agg[1] += elapsed
            if not depth and local.stack:
                top = local.stack[-1]
                timed = top[TIMED]
                if timed is None:
                    timed = top[TIMED] = {}
                timed[group] = timed.get(group, 0.0) + elapsed

    return wrapper


def _slow_row_wrapper(fn):
    @functools.wraps(fn)
    def wrapper(self, state_id):
        started = perf()
        row = fn(self, state_id)
        finished = perf()
        until = finished + (finished - started)
        while perf() < until:
            pass
        return row

    return wrapper


# -- hooks: counts taken where the work happens -----------------------------


def _extra(span, key, value):
    if span[EXTRA] is None:
        span[EXTRA] = {}
    span[EXTRA][key] = value


def _hook_cache_get(rec, local, span, args, kwargs, result):
    _extra(span, "hit", result is not None)


def _hook_store_write(rec, local, span, args, kwargs, result):
    data = args[3] if len(args) > 3 else kwargs.get("data", b"")
    _extra(span, "bytes", len(data))


def _hook_enqueue(rec, local, span, args, kwargs, result):
    cell_id = args[1] if len(args) > 1 else kwargs.get("cell_id")
    if result:
        rec.enqueued[cell_id] = span[START]


def _hook_claim(rec, local, span, args, kwargs, result):
    if result is None:
        _extra(span, "empty", True)
        return
    cell_id = result.get("cell_id")
    enqueued = rec.enqueued.get(cell_id)
    if enqueued is not None:
        rec.sample("queue.wait_s", span[END] - enqueued)
    # Every span of this thread until its next claim works on this
    # ticket: a fabric cell, or the service request the job was for.
    local.op = rec.op_of_key.get(cell_id, f"cell:{cell_id[:16]}")
    span[OP] = local.op


def _hook_explore(rec, local, span, args, kwargs, result):
    report = result[0] if isinstance(result, tuple) else result
    _extra(span, "states", int(getattr(report, "states", 0)))


def _hook_multi_source(rec, local, span, args, kwargs, result):
    visited = result[0] if isinstance(result, tuple) else ()
    _extra(span, "states", len(visited))


def _hook_analyze(rec, local, span, args, kwargs, result):
    _extra(span, "sources", int(result.sources))
    _extra(span, "members", 1.0)


def _hook_shard(rec, local, span, args, kwargs, result):
    _extra(span, "sources", len(result.verdicts))
    _extra(span, "members", 1.0 / max(1, int(result.shard_count)))


def _hook_simulation(rec, local, span, args, kwargs, result):
    _extra(span, "steps", int(result.steps))
    span[OP] = f"run:{rec.pid}:{span[SID]}"


def _hook_campaign(rec, local, span, args, kwargs, result):
    _extra(span, "workers", int(getattr(args[0], "workers", 1)))


def _hook_decode(rec, local, span, args, kwargs, result):
    # Server side: the sync path from decode to dispatch has no await,
    # so every span until the next decode belongs to this request.
    if isinstance(result, dict) and result.get("id") is not None:
        local.op = f"req:{result['id']}"
        span[OP] = local.op


def _begin_encode(rec, local, args, kwargs):
    payload = args[0] if args else kwargs.get("payload")
    if isinstance(payload, dict) and payload.get("id") is not None:
        local.op = f"req:{payload['id']}"


def _begin_submit(rec, local, args, kwargs):
    job = args[1] if len(args) > 1 else kwargs.get("job")
    rec.submitted[id(job.request)] = (perf(), local.op)
    rec.op_of_key[job.key] = local.op


def _begin_execute(rec, local, args, kwargs):
    submitted = rec.submitted.pop(id(args[0]), None)
    if submitted is not None:
        started, op = submitted
        rec.sample("service.pool_wait_s", perf() - started)
        local.op = op


# -- targets ----------------------------------------------------------------

# (module, attribute, kind, span/timer name, hook, begin)
# kind: "span" (busy), "wait" (not busy), "inherit" (busy, layer of the
# caller), "timer".  Spans and waits in repro modules take the module's
# layer; waits in the standard library take the caller's.
TARGETS = (
    ("repro.kernel.compiled", "CompiledSystem.row", "timer", "kernel.row", None, None),
    ("repro.kernel.compiled", "CompiledSystem.__init__", "timer", "kernel.table_init", None, None),
    ("repro.kernel.compiled", "CompiledSystem.from_snapshot", "span", "kernel.revive", None, None),
    ("repro.kernel.compiled", "CompiledSystem.snapshot", "span", "kernel.snapshot", None, None),
    ("repro.kernel.system", "System.apply", "timer", "kernel.apply", None, None),
    ("repro.kernel.intern", "ConfigurationInterner.key", "timer", "kernel.intern", None, None),
    ("repro.kernel.types", "Multiset.__init__", "timer", "kernel.multiset", None, None),
    ("repro.kernel.types", "Multiset.from_counts", "timer", "kernel.multiset", None, None),
    ("repro.kernel.types", "Multiset.add", "timer", "kernel.multiset", None, None),
    ("repro.kernel.types", "Multiset.remove", "timer", "kernel.multiset", None, None),
    ("repro.kernel.types", "Multiset.union_counts", "timer", "kernel.multiset", None, None),
    ("repro.kernel.frontier", "explore_batched", "span", "frontier.explore", _hook_explore, None),
    ("repro.kernel.frontier", "explore_batched_resumable", "span", "frontier.explore", _hook_explore, None),
    ("repro.kernel.frontier", "explore_multi_source_batched", "span", "frontier.multi_source", _hook_multi_source, None),
    ("repro.kernel.simulator", "Simulator.run", "span", "simulator.run", _hook_simulation, None),
    ("repro.kernel.simulator", "simulate_compiled", "span", "simulator.run", _hook_simulation, None),
    ("repro.resilience.stabilize", "analyze_stabilization", "span", "stabilize.analyze", _hook_analyze, None),
    ("repro.resilience.stabilize", "analyze_stabilization_shard", "span", "stabilize.shard", _hook_shard, None),
    ("repro.resilience.stabilize", "merge_stabilization_shards", "span", "stabilize.merge", None, None),
    ("repro.resilience.stabilize", "corrupt_initial_set", "span", "stabilize.corrupt_set", None, None),
    ("repro.resilience.stabilize", "projected_system", "span", "stabilize.project", None, None),
    ("repro.resilience.runner", "supervised_single_run", "span", "runner.supervised", None, None),
    ("repro.analysis.cache", "ResultCache.get", "span", "cache.get", _hook_cache_get, None),
    ("repro.analysis.cache", "ResultCache.put", "span", "cache.put", None, None),
    ("repro.analysis.cache", "fingerprint", "timer", "cache.key", None, None),
    ("repro.analysis.cache", "cached_explore", "span", "cache.cached_explore", None, None),
    ("repro.analysis.cache", "cached_stabilize", "span", "cache.cached_stabilize", None, None),
    ("repro.analysis.cache", "CompiledTableCache.table_for", "span", "cache.table_for", None, None),
    ("repro.analysis.cache", "CompiledTableCache.publish", "span", "cache.publish", None, None),
    ("repro.analysis.campaign", "Campaign.run", "span", "campaign.run", _hook_campaign, None),
    ("repro.fabric.store", "LocalDirStore.read", "span", "store.read", None, None),
    ("repro.fabric.store", "LocalDirStore.write", "span", "store.write", _hook_store_write, None),
    ("repro.fabric.queue", "WorkQueue.enqueue", "span", "queue.enqueue", _hook_enqueue, None),
    ("repro.fabric.queue", "WorkQueue.claim", "span", "queue.claim", _hook_claim, None),
    ("repro.fabric.queue", "WorkQueue.mark_done", "span", "queue.mark_done", None, None),
    ("repro.fabric.queue", "WorkQueue.requeue_expired", "span", "queue.requeue_scan", None, None),
    ("repro.fabric.queue", "WorkQueue.release_failed", "span", "queue.release_failed", None, None),
    ("repro.fabric.queue", "WorkQueue.heartbeat", "span", "queue.heartbeat", None, None),
    ("repro.fabric.queue", "WorkQueue.init", "span", "queue.init", None, None),
    ("repro.fabric.queue", "WorkQueue.drained", "span", "queue.drained", None, None),
    ("repro.fabric.queue", "WorkQueue.failed_tickets", "span", "queue.failed_tickets", None, None),
    ("repro.fabric.worker", "FabricWorker.run", "span", "worker.run", None, None),
    ("repro.fabric.cells", "execute_sweep_cell", "span", "cells.execute", None, None),
    ("repro.fabric.cells", "sweep_cell_warm", "span", "cells.warm_probe", None, None),
    ("repro.fabric.cells", "merge_stabilize_member", "span", "cells.merge_member", None, None),
    ("repro.fabric.sweep", "plan_sweep", "span", "sweep.plan", None, None),
    ("repro.fabric.sweep", "sweep_split_warm_cold", "span", "sweep.split", None, None),
    ("repro.fabric.sweep", "build_explore_system", "span", "sweep.build_system", None, None),
    ("repro.fabric.sweep", "build_stabilize_system", "span", "sweep.build_system", None, None),
    ("repro.fabric.planner", "plan_cells", "span", "sweep.plan", None, None),
    ("repro.fabric.planner", "split_warm_cold", "span", "sweep.split", None, None),
    ("repro.fabric.merge", "merge_sweep", "span", "merge.merge", None, None),
    ("repro.fabric.merge", "merge_outcome", "span", "merge.merge", None, None),
    ("repro.fabric.coordinator", "run_sweep", "span", "coordinator.run", None, None),
    ("repro.fabric.coordinator", "run_fabric", "span", "coordinator.run", None, None),
    ("repro.service.requests", "parse_request", "span", "service.parse", None, None),
    ("repro.service.requests", "ExploreRequest.job_key", "span", "service.job_key", None, None),
    ("repro.service.requests", "StabilizeRequest.job_key", "span", "service.job_key", None, None),
    ("repro.service.requests", "CampaignRequest.job_key", "span", "service.job_key", None, None),
    ("repro.service.requests", "ExploreRequest.execute", "span", "service.execute", None, _begin_execute),
    ("repro.service.requests", "StabilizeRequest.execute", "span", "service.execute", None, _begin_execute),
    ("repro.service.requests", "CampaignRequest.execute", "span", "service.execute", None, _begin_execute),
    ("repro.service.protocol", "encode", "span", "service.codec", None, _begin_encode),
    ("repro.service.protocol", "decode", "span", "service.codec", _hook_decode, None),
    ("repro.service.pool", "ServicePool.submit", "span", "service.submit", None, _begin_submit),
    ("multiprocessing.connection", "Connection.recv", "wait", "wait.recv", None, None),
    ("multiprocessing.connection", "Connection.poll", "wait", "wait.poll", None, None),
    ("multiprocessing.process", "BaseProcess.join", "wait", "wait.join", None, None),
    ("multiprocessing.process", "BaseProcess.start", "inherit", "proc.start", None, None),
    ("concurrent.futures", "Future.result", "wait", "wait.future", None, None),
    ("time", "sleep", "wait", "wait.sleep", None, None),
)


def _resolve(module_name: str, attribute: str):
    module = importlib.import_module(module_name)
    owner = module
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return module, owner, parts[-1]


def _patch(owner, name: str, make):
    """Replace ``owner.name`` with ``make(function)``; returns (old, new)."""
    if isinstance(owner, type):
        raw = next(
            klass.__dict__[name]
            for klass in owner.__mro__
            if name in klass.__dict__
        )
    else:
        raw = getattr(owner, name)
    if isinstance(raw, classmethod):
        new = classmethod(make(raw.__func__))
        setattr(owner, name, new)
        return raw, new
    if isinstance(raw, staticmethod):
        new = staticmethod(make(raw.__func__))
        setattr(owner, name, new)
        return raw, new
    new = make(raw)
    setattr(owner, name, new)
    return raw, new


def _rebind_imported(replaced: dict) -> None:
    """Point ``from x import f`` bindings in repro modules at the wrappers."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        namespace = vars(module)
        for key, value in list(namespace.items()):
            wrapper = replaced.get(id(value))
            if wrapper is not None and wrapper[0] is value:
                namespace[key] = wrapper[1]


def _exit_with_flush(real_exit):
    def _exit(code):
        try:
            RECORDER.flush()
        except Exception:  # noqa: BLE001 - a trace must never block exit
            pass
        real_exit(code)

    return _exit


def install(trace_dir: str, role: str) -> Recorder:
    """Wrap every target and arrange the per-process flush."""
    global RECORDER
    RECORDER = Recorder(trace_dir, role)
    replaced: dict = {}
    for module_name, attribute, kind, name, hook, begin in TARGETS:
        module, owner, leaf = _resolve(module_name, attribute)
        if kind == "timer":
            def make(fn, group=name):
                return _timer_wrapper(fn, group)
        else:
            # Waits and process starts in the standard library take the
            # layer of the code that called them.
            layer = None if kind == "inherit" else LAYER_OF_MODULE.get(module_name)

            def make(fn, name=name, layer=layer, hook=hook, begin=begin,
                     wait=(kind == "wait")):
                return _span_wrapper(fn, name, layer, wait, hook, begin)
        old, new = _patch(owner, leaf, make)
        if not isinstance(owner, type):
            replaced[id(old)] = (old, new)
    _rebind_imported(replaced)
    os.register_at_fork(after_in_child=RECORDER.reset_after_fork)
    os._exit = _exit_with_flush(os._exit)
    return RECORDER


def install_slow_rows() -> None:
    """Test-only: make every ``CompiledSystem.row`` call take twice as long."""
    from repro.kernel.compiled import CompiledSystem

    _patch(CompiledSystem, "row", _slow_row_wrapper)


def import_layers() -> None:
    """Import every measured module (so wrappers can rebind their names)."""
    for module_name in LAYER_OF_MODULE:
        importlib.import_module(module_name)


def set_op(op) -> None:
    """Tag the calling thread's next spans with operation id ``op``."""
    if RECORDER is not None:
        RECORDER.local.op = op


class phase:
    """A span opened by the benchmark itself.

    Harness code runs in ``other`` spans; the load generator's wait for
    server replies is a ``service`` wait.
    """

    def __init__(self, name: str, layer: str = "other", wait: bool = False):
        self.name = name
        self.layer = layer
        self.wait = wait
        self.span = None

    def __enter__(self):
        rec = RECORDER
        if rec is None:
            return self
        local = rec.local
        parent = local.stack[-1] if local.stack else None
        self.span = [
            self.name, self.layer, self.wait, perf(), 0.0, next(rec.ids),
            parent[SID] if parent else 0, local.op, threading.get_ident(),
            None, None,
        ]
        local.stack.append(self.span)
        return self

    def __exit__(self, *exc_info):
        rec = RECORDER
        if rec is None or self.span is None:
            return False
        self.span[END] = perf()
        local = rec.local
        local.stack.pop()
        rec.spans.append(self.span)
        return False
