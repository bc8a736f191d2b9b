"""One-host fabric orchestration: plan, enqueue, work, merge.

:func:`run_fabric` (campaigns) and :func:`run_sweep` (explore /
stabilize sweeps) wire the fabric pieces together for the common case
of N worker processes on one machine sharing a local queue directory and
cache store.  The exact same queue/store layout works with workers on
other hosts pointed at a shared filesystem -- this module just saves the
local case from shell plumbing.

The flow, for either entry point:

1. plan the work into content-addressed cells (:func:`plan_cells` /
   :func:`plan_sweep`);
2. bind a :class:`WorkQueue` to the plan and enqueue the *cold* cells --
   warm cells (already in the shared store) go straight to ``done/``,
   never recomputed.  Sweep cells travel self-described in their
   tickets, so a worker pool needs no plan to execute them;
3. run N :class:`FabricWorker` loops -- forked processes when the
   platform has ``fork`` and ``workers > 1``, an inline loop otherwise
   (same results, no speedup), each shipping its observability delta
   back over a pipe so the parent registry sees the whole sweep;
4. merge cells back into the single-host result shape
   (:func:`merge_outcome` / :func:`merge_sweep`), bit-identical to the
   serial path (:meth:`Campaign.run` / :func:`serial_sweep`).
"""

from __future__ import annotations

import multiprocessing
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import obs
from repro.analysis.cache import ResultCache
from repro.analysis.campaign import CampaignOutcome
from repro.fabric.merge import merge_outcome, merge_sweep
from repro.fabric.planner import FabricPlan, plan_cells, split_warm_cold
from repro.fabric.queue import WorkQueue
from repro.fabric.spec import FabricError, FabricSpec
from repro.fabric.sweep import (
    SweepPlan,
    SweepSpec,
    build_explore_system,
    build_stabilize_system,
    plan_sweep,
    sweep_split_warm_cold,
)
from repro.fabric.worker import FabricWorker, WorkerStats


@dataclass(frozen=True)
class FabricResult:
    """Everything one fabric run produced.

    Attributes:
        outcome: the merged campaign outcome (bit-identical to serial).
        plan: the executed plan.
        warm_cells / cold_cells: how the planner split the grid against
            the shared store before any work started.
        worker_stats: per-worker accounting, in worker order.
    """

    outcome: CampaignOutcome
    plan: FabricPlan
    warm_cells: int
    cold_cells: int
    worker_stats: Tuple[WorkerStats, ...]


def _worker_child(conn, queue_root, cache_locator, options) -> None:
    """Entry point of a forked fabric worker process."""
    try:
        cut = obs.mark()
        worker = FabricWorker(
            queue=WorkQueue(queue_root, lease_timeout=options["lease_timeout"]),
            cache=ResultCache(cache_locator),
            run_timeout=options["run_timeout"],
            idle_timeout=options["idle_timeout"],
            worker_id=options["worker_id"],
        )
        stats = worker.run()
        conn.send(("ok", (stats, obs.delta_since(cut))))
    except BaseException as error:  # reported, not raised
        conn.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        conn.close()


def run_fabric(
    spec: FabricSpec,
    queue_dir,
    cache: ResultCache,
    workers: int = 2,
    rng_seed: int = 0,
    rng_path: str = "fabric",
    run_timeout: float = 60.0,
    lease_timeout: float = 60.0,
    idle_timeout: float = 30.0,
) -> FabricResult:
    """Execute ``spec`` over ``workers`` local fabric workers.

    ``cache.root`` must be a real directory (shared store); the queue is
    created under ``queue_dir``.  Returns the merged outcome plus the
    plan and per-worker stats.  Platforms without ``fork`` -- or
    ``workers <= 1`` -- degrade to one inline worker loop with identical
    results.
    """
    if workers < 1:
        raise FabricError("workers must be >= 1")
    if cache.root is None:
        raise FabricError(
            "run_fabric needs a directory-backed shared cache"
        )
    with obs.span("fabric.run", workers=workers):
        plan = plan_cells(spec, rng_seed=rng_seed, rng_path=rng_path)
        queue = WorkQueue(queue_dir, lease_timeout=lease_timeout)
        queue.init(plan)
        warm, cold = split_warm_cold(plan, cache)
        for cell in cold:
            queue.enqueue(cell.cell_id)
        for cell in warm:
            # Already in the shared store: record completion without a
            # ticket ever entering pending/.
            queue.mark_done(cell.cell_id, {"warm": True})
        obs.gauge_set("fabric.plan.warm_cells", len(warm))
        obs.gauge_set("fabric.plan.cold_cells", len(cold))

        options = {
            "run_timeout": run_timeout,
            "lease_timeout": lease_timeout,
            "idle_timeout": idle_timeout,
        }
        stats = _drive_workers(queue, cache, workers, options)

        failed = queue.failed_tickets()
        if failed:
            raise FabricError(
                f"{len(failed)} cells failed permanently; first: "
                f"{failed[0].get('error', '?')}"
            )
        outcome = merge_outcome(plan, cache, wait_timeout=run_timeout)
    return FabricResult(
        outcome=outcome,
        plan=plan,
        warm_cells=len(warm),
        cold_cells=len(cold),
        worker_stats=tuple(stats),
    )


def _drive_workers(
    queue: WorkQueue, cache: ResultCache, workers: int, options
) -> List[WorkerStats]:
    """Drain ``queue`` with N workers (forked when possible, else inline)."""
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        return _run_forked(queue, cache, workers, options)
    worker = FabricWorker(
        queue=queue,
        cache=cache,
        run_timeout=options["run_timeout"],
        idle_timeout=options["idle_timeout"],
        worker_id="inline-0",
    )
    return [worker.run()]


def _run_forked(
    queue: WorkQueue, cache: ResultCache, workers: int, options
) -> List[WorkerStats]:
    context = multiprocessing.get_context("fork")
    children = []
    for index in range(workers):
        child_options = dict(options, worker_id=f"fabric-{index}")
        parent_conn, child_conn = context.Pipe(duplex=False)
        # Not daemonic: each worker forks its own supervised per-cell
        # children, and daemons may not have children.
        process = context.Process(
            target=_worker_child,
            args=(child_conn, queue.root, cache.root, child_options),
        )
        process.start()
        child_conn.close()
        children.append((process, parent_conn, child_options["worker_id"]))
    stats: List[WorkerStats] = []
    errors: List[str] = []
    try:
        for process, conn, worker_id in children:
            try:
                status, payload = conn.recv()
            except EOFError:
                process.join()
                errors.append(
                    f"worker {worker_id} died with exit code "
                    f"{process.exitcode}"
                )
                continue
            process.join()
            conn.close()
            if status == "ok":
                worker_stats, delta = payload
                obs.merge(delta)
                stats.append(worker_stats)
            else:
                errors.append(f"worker {worker_id}: {payload}")
    finally:
        for process, conn, _ in children:
            if process.is_alive():
                process.terminate()
                process.join()
    # Dead workers leave their leases behind; the queue heals (any
    # survivor requeues them), so partial worker loss is only an error
    # when *every* worker failed and nothing can drain the queue.
    if errors and not stats:
        raise FabricError(
            f"all {workers} fabric workers failed; first: {errors[0]}"
        )
    if not queue.drained():
        # Survivors exited idle while dead workers' leases were still
        # fresh.  Drain the leftovers inline rather than failing.
        sweeper = FabricWorker(
            queue=queue,
            cache=cache,
            run_timeout=options["run_timeout"],
            idle_timeout=options["idle_timeout"],
            worker_id="sweeper",
        )
        stats.append(sweeper.run())
    return stats


# ---------------------------------------------------------------------------
# sweep orchestration: explore / stabilize families over the same fabric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Everything one distributed sweep produced.

    Attributes:
        results: ``{result_key: report-or-result}`` per family member,
            in plan order -- equal (timing aside) to
            :func:`serial_sweep` over the same spec.
        plan: the executed :class:`SweepPlan`.
        warm_cells / cold_cells: how the planner split the cells against
            the shared store before any work started.
        worker_stats: per-worker accounting, in worker order.
    """

    results: Dict[str, object]
    plan: SweepPlan
    warm_cells: int
    cold_cells: int
    worker_stats: Tuple[WorkerStats, ...]


def run_sweep(
    spec: SweepSpec,
    queue_dir,
    cache: ResultCache,
    workers: int = 2,
    run_timeout: float = 60.0,
    lease_timeout: float = 60.0,
    idle_timeout: float = 30.0,
) -> SweepResult:
    """Execute a sweep spec over ``workers`` local fabric workers.

    Same shape as :func:`run_fabric`, but over explore/stabilize sweep
    cells: plan, enqueue cold cells (self-describing tickets), drive
    workers, then merge per-member results.  A sweep whose members were
    all computed before -- by any worker fleet, or by the plain
    ``cached_*`` single-host path -- enqueues nothing and claims
    nothing.
    """
    if workers < 1:
        raise FabricError("workers must be >= 1")
    if cache.root is None:
        raise FabricError("run_sweep needs a directory-backed shared cache")
    with obs.span("fabric.sweep.run", kind=spec.kind, workers=workers):
        plan = plan_sweep(spec)
        queue = WorkQueue(queue_dir, lease_timeout=lease_timeout)
        queue.init(plan)
        warm, cold = sweep_split_warm_cold(plan, cache)
        for cell in cold:
            queue.enqueue(cell.cell_id, cell=cell.to_dict())
        for cell in warm:
            queue.mark_done(cell.cell_id, {"warm": True, "kind": cell.kind})
        obs.gauge_set("fabric.sweep.planned", len(plan.cells))
        obs.gauge_set("fabric.sweep.warm_cells", len(warm))
        obs.gauge_set("fabric.sweep.cold_cells", len(cold))

        options = {
            "run_timeout": run_timeout,
            "lease_timeout": lease_timeout,
            "idle_timeout": idle_timeout,
        }
        stats = _drive_workers(queue, cache, workers, options)

        failed = queue.failed_tickets()
        if failed:
            raise FabricError(
                f"{len(failed)} sweep cells failed permanently; first: "
                f"{failed[0].get('error', '?')}"
            )
        results = merge_sweep(plan, cache, wait_timeout=run_timeout)
    return SweepResult(
        results=results,
        plan=plan,
        warm_cells=len(warm),
        cold_cells=len(cold),
        worker_stats=tuple(stats),
    )


def serial_sweep(spec: SweepSpec, cache: ResultCache) -> Dict[str, object]:
    """The single-host reference a distributed sweep must reproduce.

    Runs every family member through the plain cached analysis path --
    :func:`cached_explore` / :func:`cached_stabilize`, no queue, no
    workers -- and returns the same ``{result_key: result}``
    mapping :func:`run_sweep` produces, in the same plan order.  The CI
    fabric-smoke leg renders both through
    :func:`~repro.fabric.merge.sweep_outcome_to_json` and asserts byte
    equality.
    """
    from repro.analysis.cache import cached_explore, cached_stabilize

    plan = plan_sweep(spec)
    results: Dict[str, object] = {}
    for protocol, channel, items, result_key in plan.members():
        if spec.kind == "explore":
            system = build_explore_system(protocol, channel, items)
            results[result_key] = cached_explore(
                system,
                max_states=spec.max_states,
                include_drops=spec.include_drops,
                cache=cache,
            )
        else:
            domain = spec.member_domain(items)
            system = build_stabilize_system(
                protocol, channel, items, domain, capacity=spec.capacity
            )
            results[result_key] = cached_stabilize(
                system,
                cache=cache,
                sample=spec.sample,
                seed=spec.seed,
                max_states=spec.max_states,
                channel_depth=spec.channel_depth,
                include_drops=spec.include_drops,
                corruption=spec.corruption,
                domain=domain,
            )
    return results
