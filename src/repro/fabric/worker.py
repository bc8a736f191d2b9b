"""The pull-based fabric worker.

A worker is deliberately dumb: it loads the queue's bound plan (if
any), then loops *claim ticket -> compute (or discover warm) -> publish
-> mark done* until the queue drains or an idle/cell budget runs out.
All coordination lives in the queue's atomic renames and the shared
store's content addressing; workers never talk to each other, which is
why any number of them -- processes on one host today, hosts on a
shared filesystem tomorrow -- compose without new protocol.

Workers execute every registered cell kind
(:mod:`repro.fabric.cells`):

* **campaign** cells run under
  :func:`~repro.resilience.runner.supervised_single_run`: each cell
  runs in a forked child under a wall-clock budget, heartbeating its
  queue lease, so a crash or hang costs one queue attempt rather than
  the worker.  The campaign comes from the queue's bound
  :class:`~repro.fabric.planner.FabricPlan`, or is handed to the worker
  in memory (the resilient runner's workers); in the latter case each
  ticket embeds its grid key, which must hash to the ticket's id.
* **explore / stabilize** sweep cells are self-describing -- the
  :class:`~repro.fabric.sweep.SweepCell` travels in the ticket (or is
  found in a bound :class:`~repro.fabric.sweep.SweepPlan`), so they run
  even on a plan-less service ledger.  They execute in-process (each
  heartbeats before its analysis; the per-attempt wall budget is the
  queue's lease expiry rather than a fork supervisor).

Results are published to the shared cache *before* the ticket is marked
done, so a completed ticket always implies a readable result.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro import obs
from repro.analysis.cache import ResultCache
from repro.fabric.planner import CAMPAIGN_CELL_KIND, FabricPlan
from repro.fabric.queue import WorkQueue, default_worker_id
from repro.fabric.spec import FabricError
from repro.kernel.errors import VerificationError

if TYPE_CHECKING:
    from repro.analysis.campaign import Campaign
    from repro.kernel.rng import DeterministicRNG


@dataclass
class WorkerStats:
    """What one worker loop did, for logs and the bench harness."""

    worker_id: str
    claimed: int = 0
    computed: int = 0
    warm: int = 0
    failed: int = 0
    requeued_leases: int = 0
    elapsed_seconds: float = 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "worker_id": self.worker_id,
            "claimed": self.claimed,
            "computed": self.computed,
            "warm": self.warm,
            "failed": self.failed,
            "requeued_leases": self.requeued_leases,
            "elapsed_seconds": self.elapsed_seconds,
        }


@dataclass
class FabricWorker:
    """One pull loop over a :class:`WorkQueue` and a shared cache.

    Attributes:
        queue: the work queue (shared directory).
        cache: the shared result store cells publish into.
        run_timeout: wall-second budget per campaign cell attempt
            (sweep cells are bounded by the queue lease instead).
        idle_timeout: give up after this long with nothing claimable
            (None waits only for an already-drained queue).
        max_cells: stop after completing this many cells (None = until
            drained); lets tests and benchmarks bound a worker.
        worker_id: lease audit tag; defaults to ``<host>-<pid>``.
        campaign / rng: the campaign whose runs this worker computes,
            when the queue has no bound :class:`FabricPlan` to build it
            from (a bound plan takes precedence).
    """

    queue: WorkQueue
    cache: ResultCache
    run_timeout: float = 60.0
    idle_timeout: Optional[float] = 10.0
    max_cells: Optional[int] = None
    worker_id: str = field(default_factory=default_worker_id)
    campaign: Optional["Campaign"] = None
    rng: Optional["DeterministicRNG"] = None

    def run(self) -> WorkerStats:
        """Pull until the queue drains (or a budget stops us)."""
        with obs.span("fabric.worker", worker=self.worker_id):
            return self._run()

    def _run(self) -> WorkerStats:
        plan = self.queue.load_plan_optional()
        campaign, rng = self.campaign, self.rng
        if isinstance(plan, FabricPlan):
            campaign = plan.spec.build_campaign(cache=None)
            rng = plan.rng
        stats = WorkerStats(worker_id=self.worker_id)
        started = time.monotonic()
        idle_since: Optional[float] = None
        while True:
            if (
                self.max_cells is not None
                and stats.claimed >= self.max_cells
            ):
                break
            stats.requeued_leases += self.queue.requeue_expired()
            ticket = self.queue.claim(self.worker_id)
            if ticket is None:
                if self.queue.drained():
                    break
                # Others hold leases; wait for completion or expiry.
                now = time.monotonic()
                idle_since = idle_since if idle_since is not None else now
                if (
                    self.idle_timeout is not None
                    and now - idle_since > self.idle_timeout
                ):
                    break
                time.sleep(0.05)
                continue
            idle_since = None
            stats.claimed += 1
            self._work_one(plan, campaign, rng, ticket, stats)
        stats.elapsed_seconds = time.monotonic() - started
        return stats

    def _work_one(self, plan, campaign, rng, ticket, stats) -> None:
        cell_id = ticket["cell_id"]
        try:
            sweep_cell = self._resolve_sweep_cell(plan, ticket)
        except (FabricError, TypeError) as error:
            self.queue.release_failed(
                ticket, f"malformed embedded cell: {error}"
            )
            stats.failed += 1
            return
        if sweep_cell is not None:
            self._work_sweep(sweep_cell, ticket, stats)
            return
        if campaign is None:
            # Not a sweep ticket and no campaign plan bound: a ticket
            # from some other queue has no business here.
            self.queue.release_failed(
                ticket,
                f"ticket {cell_id[:12]}... carries no cell payload and "
                "the queue has no campaign plan",
            )
            stats.failed += 1
            return
        try:
            key = self._grid_key(plan, campaign, rng, ticket)
        except FabricError as error:
            # A ticket from some other campaign has no business here.
            self.queue.release_failed(ticket, str(error))
            stats.failed += 1
            return
        # Warm probe first: a cell computed by any prior run -- serial,
        # parallel, or another fabric worker -- short-circuits here.
        if self.cache.get(CAMPAIGN_CELL_KIND, cell_id) is not None:
            obs.add("fabric.cells_warm")
            stats.warm += 1
            self._mark_done(ticket, warm=True)
            return
        try:
            from repro.resilience.runner import supervised_single_run

            metrics = supervised_single_run(
                campaign,
                rng,
                key,
                run_timeout=self.run_timeout,
                heartbeat=lambda: self.queue.heartbeat(cell_id),
            )
        except (VerificationError, FabricError) as error:
            stats.failed += 1
            self.queue.release_failed(ticket, str(error))
            return
        # Publish before completing: a done ticket must imply a readable
        # result.  A failed put (full disk) requeues the attempt rather
        # than recording a completion nothing can read.
        self.cache.put(CAMPAIGN_CELL_KIND, cell_id, metrics)
        if self.cache.get(CAMPAIGN_CELL_KIND, cell_id) is None:
            stats.failed += 1
            self.queue.release_failed(
                ticket, "result store rejected the cell value"
            )
            return
        obs.add("fabric.cells_completed")
        stats.computed += 1
        self._mark_done(ticket)

    def _mark_done(self, ticket, **info) -> None:
        """Complete ``ticket``, keeping the history of its failed attempts."""
        info = {"worker": self.worker_id, **info}
        if "history" in ticket:
            info["history"] = ticket["history"]
        self.queue.mark_done(ticket["cell_id"], info)

    @staticmethod
    def _grid_key(plan, campaign, rng, ticket) -> Tuple[Tuple, int]:
        """The campaign ticket's ``(input, seed)``, from the ticket or plan.

        An embedded key must hash to the ticket's id under this worker's
        campaign, as an embedded sweep cell must match its ticket; a
        :class:`FabricError` names the mismatch.
        """
        cell_id = ticket["cell_id"]
        embedded = ticket.get("cell")
        if isinstance(embedded, dict):
            try:
                key = (tuple(embedded["input"]), embedded["seed"])
            except (KeyError, TypeError) as error:
                raise FabricError(
                    f"malformed embedded cell: {error!r}"
                ) from None
            if campaign.run_key(rng, key) != cell_id:
                raise FabricError(
                    f"embedded key {key!r} does not match ticket "
                    f"{cell_id[:12]}..."
                )
            return key
        if not isinstance(plan, FabricPlan):
            raise FabricError(f"ticket {cell_id[:12]}... carries no grid key")
        cell = plan.cell_by_id(cell_id)
        if cell is None:
            raise FabricError(
                f"cell {cell_id[:12]}... is not in plan "
                f"{plan.plan_fingerprint[:12]}..."
            )
        return (cell.input_sequence, cell.seed)

    @staticmethod
    def _resolve_sweep_cell(plan, ticket):
        """The ticket's :class:`SweepCell`, from the ticket or the plan."""
        from repro.fabric.sweep import SweepCell, SweepPlan

        embedded = ticket.get("cell")
        if isinstance(embedded, dict) and embedded.get("kind") != "campaign":
            return SweepCell.from_dict(embedded)
        if isinstance(plan, SweepPlan):
            return plan.cell_by_id(ticket["cell_id"])
        return None

    def _work_sweep(self, cell, ticket, stats) -> None:
        from repro.fabric.cells import (
            execute_sweep_cell,
            sweep_cell_warm,
        )

        cell_id = cell.cell_id
        if cell_id != ticket["cell_id"]:
            self.queue.release_failed(
                ticket,
                f"embedded cell {cell_id[:12]}... does not match ticket "
                f"{ticket['cell_id'][:12]}...",
            )
            stats.failed += 1
            return
        if sweep_cell_warm(cell, self.cache):
            obs.add("fabric.cells_warm")
            stats.warm += 1
            self._mark_done(ticket, warm=True, kind=cell.kind)
            return
        try:
            execute_sweep_cell(
                cell,
                self.cache,
                heartbeat=lambda: self.queue.heartbeat(cell_id),
            )
        except (VerificationError, FabricError) as error:
            stats.failed += 1
            self.queue.release_failed(ticket, str(error))
            return
        # Same publish-then-complete discipline as campaign cells.
        if not sweep_cell_warm(cell, self.cache):
            stats.failed += 1
            self.queue.release_failed(
                ticket, "result store rejected the cell value"
            )
            return
        obs.add("fabric.cells_completed")
        obs.add("fabric.sweep.cells_completed")
        stats.computed += 1
        self._mark_done(ticket, kind=cell.kind)


def run_worker(
    queue_dir,
    cache_dir,
    run_timeout: float = 60.0,
    idle_timeout: Optional[float] = 10.0,
    max_cells: Optional[int] = None,
    worker_id: Optional[str] = None,
    lease_timeout: float = 60.0,
) -> WorkerStats:
    """Convenience entry point the CLI ``worker`` subcommand uses."""
    queue = WorkQueue(queue_dir, lease_timeout=lease_timeout)
    cache = ResultCache(cache_dir)
    worker = FabricWorker(
        queue=queue,
        cache=cache,
        run_timeout=run_timeout,
        idle_timeout=idle_timeout,
        max_cells=max_cells,
        worker_id=worker_id or default_worker_id(),
    )
    return worker.run()
