"""The bounded worker pool: cold jobs, executed off the event loop.

A :class:`ServicePool` marries three existing pieces:

* a ``ThreadPoolExecutor`` bounds *concurrency* -- at most ``workers``
  verification computations run at once, everything else queues;
* the fabric's :class:`~repro.fabric.queue.WorkQueue` is reused as the
  crash-auditable **job ledger**: every dispatched job becomes a ticket
  (keyed by its report/plan fingerprint instead of a campaign cell id)
  that moves pending -> leased -> done/failed through the same atomic
  renames, with the lease heartbeat refreshed from inside long
  computations.  The worker thread keeps the ledger, not the event
  loop: it enqueues the ticket already naming the job's kind and the
  pool as worker, claims it by id without a rewrite and completes it by
  renaming the lease, so a cold job writes one ticket file and the loop
  is free to parse the next request (a coalescing twin) meanwhile.  The
  ledger is an audit trail and liveness signal, not a correctness
  dependency -- results live in the content-addressed cache, exactly as
  in the fabric;
* :func:`~repro.resilience.runner.supervised_single_run` supervises each
  campaign cell (fork, timeout, crash containment) via the request's own
  ``execute``.

Futures are resolved back on the event loop with
``loop.call_soon_threadsafe`` -- worker threads never touch asyncio
state directly.

**Dispatch modes.**  ``dispatch="inline"`` (the default) computes cold
explore/stabilize jobs in the pool's own threads via the request's
``execute``.  ``dispatch="enqueue"`` instead publishes the request's
self-describing fabric sweep cells (:meth:`sweep_cells`) into the
shared :class:`WorkQueue` and waits for the result to appear in the
content-addressed cache -- any fabric worker fleet pointed at the same
queue/store drains them, which is how the service front-end scales out
beyond one host.  Campaign jobs always run inline (their cells are
plan-bound, already fabric-shaped).
"""

from __future__ import annotations

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro import obs
from repro.fabric.queue import WorkQueue, default_worker_id
from repro.kernel.errors import KernelError
from repro.service.jobs import Job, JobBoard, ServiceStats
from repro.service.protocol import ServiceError
from repro.service.requests import ServiceLimits


class ServicePool:
    """Bounded executor + job ledger for cold verification work."""

    def __init__(
        self,
        cache,
        queue: WorkQueue,
        limits: ServiceLimits,
        board: JobBoard,
        stats: ServiceStats,
        workers: int = 2,
        dispatch: str = "inline",
    ) -> None:
        if dispatch not in ("inline", "enqueue"):
            raise ValueError(
                f"dispatch must be 'inline' or 'enqueue', got {dispatch!r}"
            )
        self.cache = cache
        self.queue = queue
        self.limits = limits
        self.board = board
        self.stats = stats
        self.workers = max(1, int(workers))
        self.dispatch = dispatch
        self.worker_id = default_worker_id()
        self._executor: Optional[ThreadPoolExecutor] = None

    def start(self) -> None:
        self.queue.init_layout()
        self._executor = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="stp-service"
        )

    def shutdown(self, wait: bool = True) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=wait)
            self._executor = None

    def submit(self, job: Job, loop: asyncio.AbstractEventLoop) -> None:
        """Hand the job to a worker thread, which tickets it in the ledger."""
        if self._executor is None:
            raise RuntimeError("pool is not running")
        if self._enqueues(job):
            # The sweep cells become the tickets; no job-key ticket.
            self._executor.submit(self._run_enqueued, job, loop)
            return
        self._executor.submit(self._run, job, loop)

    def _enqueues(self, job: Job) -> bool:
        """True when this job is dispatched as fabric sweep cells."""
        return self.dispatch == "enqueue" and hasattr(
            job.request, "sweep_cells"
        )

    # -- worker-thread side --------------------------------------------

    def _run(self, job: Job, loop: asyncio.AbstractEventLoop) -> None:
        ticket = None
        try:
            # The ticket names this pool, so the targeted claim of
            # exactly this job's ticket renames it without a rewrite.  A
            # None ticket is tolerated: a stale done/failed ticket from
            # a prior server on the same ledger makes enqueue a no-op,
            # and the ledger is an audit aid, not the source of truth.
            self.queue.enqueue(
                job.key,
                info={"kind": job.request.kind, "worker": self.worker_id},
            )
            ticket = self.queue.claim(self.worker_id, cell_id=job.key)
            with obs.span("service.job", kind=job.request.kind):
                outcome = job.request.execute(
                    self.cache,
                    self.limits,
                    heartbeat=lambda: self.queue.heartbeat(job.key),
                )
        except ServiceError as error:
            self._ledger_failed(ticket, job, str(error))
            self._resolve(loop, job, error=error)
        except KernelError as error:
            self._ledger_failed(ticket, job, str(error))
            wrapped = ServiceError(str(error))
            self._resolve(loop, job, error=wrapped)
        except Exception as error:  # noqa: BLE001 - worker must not die
            self._ledger_failed(ticket, job, repr(error))
            self._resolve(loop, job, error=ServiceError(repr(error)))
        else:
            # The lease names the kind; a done ticket written without
            # one (see above) must name it itself.
            self.queue.mark_done(
                job.key, {"kind": job.request.kind} if ticket is None else None
            )
            self._resolve(loop, job, outcome=outcome)

    def _run_enqueued(self, job: Job, loop: asyncio.AbstractEventLoop) -> None:
        """Dispatch one cold job as sweep cells and await its result."""
        try:
            with obs.span(
                "service.job", kind=job.request.kind, dispatch="enqueue"
            ):
                outcome = self._await_enqueued(job)
        except ServiceError as error:
            self._resolve(loop, job, error=error)
        except KernelError as error:
            self._resolve(loop, job, error=ServiceError(str(error)))
        except Exception as error:  # noqa: BLE001 - worker must not die
            self._resolve(loop, job, error=ServiceError(repr(error)))
        else:
            self._resolve(loop, job, outcome=outcome)

    def _await_enqueued(self, job: Job):
        from repro.fabric.cells import sweep_cell_warm

        cells = job.request.sweep_cells()
        cell_ids = set()
        for cell in cells:
            cell_ids.add(cell.cell_id)
            if not sweep_cell_warm(cell, self.cache):
                if self.queue.enqueue(cell.cell_id, cell=cell.to_dict()):
                    obs.add("service.cells_enqueued")
        deadline = time.monotonic() + self.limits.run_timeout
        while True:
            result = self.cache.get(job.request.cache_kind, job.key)
            if result is not None:
                return job.request.outcome(result)
            for ticket in self.queue.failed_tickets():
                if ticket.get("cell_id") in cell_ids:
                    raise ServiceError(
                        "enqueued cell failed permanently: "
                        f"{ticket.get('error', '?')}"
                    )
            if time.monotonic() >= deadline:
                raise ServiceError(
                    f"enqueued {job.request.kind} job "
                    f"{job.key[:12]}... not completed within "
                    f"{self.limits.run_timeout:.0f}s -- are fabric "
                    "workers draining this queue?"
                )
            time.sleep(0.05)

    def _ledger_failed(self, ticket, job: Job, message: str) -> None:
        # ticket is None when a stale done/failed entry on a reused
        # ledger made enqueue a no-op -- nothing to release then.
        if ticket is not None:
            self.queue.release_failed(ticket, message)

    def _resolve(
        self,
        loop: asyncio.AbstractEventLoop,
        job: Job,
        outcome=None,
        error: Optional[ServiceError] = None,
    ) -> None:
        def settle() -> None:
            self.board.finish(job.key)
            if job.future.cancelled():
                return
            if error is not None:
                self.stats.errors += 1
                if error.code == "budget_exceeded":
                    self.stats.budget_exceeded += 1
                obs.add("service.job_errors")
                job.future.set_exception(error)
                # Coalesced waiters all consume the same exception; mark
                # it retrieved so an abandoned future does not log.
                job.future.exception()
            else:
                self.stats.computed += 1
                obs.add("service.computed")
                obs.observe("service.job_seconds", job.elapsed)
                job.future.set_result(outcome)

        loop.call_soon_threadsafe(settle)
