"""The self-healing campaign runner: a campaign grid over the work fabric.

:class:`~repro.analysis.campaign.Campaign` is fast but brittle: one worker
that hangs or dies takes the whole ``ProcessPoolExecutor`` sweep with it,
and an interrupted sweep loses everything it had computed.
:class:`ResilientRunner` executes the same grid with the same bit-identical
determinism guarantee as a planner over the fabric's
:class:`~repro.fabric.queue.WorkQueue`:

* **one cell per grid run** -- the cell id is the run's content address,
  :meth:`Campaign.run_key`, and the ticket embeds the grid key, which a
  worker refuses unless it hashes to the id;
* **per-run supervision** -- :class:`~repro.fabric.worker.FabricWorker`
  loops, which inherit the in-memory campaign by fork, run each cell
  under :func:`supervised_single_run`: a forked child with a wall-clock
  budget, so a crash or hang costs one queue attempt;
* **retries** -- a failed attempt returns to ``pending`` until the cell
  has had ``retries + 1`` attempts, then parks in ``failed/``; because
  every run is a pure function of ``(campaign, rng, key)``, a retry
  recomputes exactly the same :class:`RunMetrics`;
* **structured failure records** -- a failure's kind (``timeout``,
  ``crash``, ``error``) survives the queue in the ticket's attempt
  history, and every failed attempt becomes a :class:`RunFailure` in the
  outcome instead of a pool-wide exception;
* **checkpoint/resume** -- the queue directory and its result store are
  the checkpoint.  A runner pointed at a directory an interrupted sweep
  left behind reads the finished runs from the store and runs the rest
  afresh, so the outcome is still bit-identical to an uninterrupted
  serial run.  A directory holding tickets of another grid or RNG is
  refused before any work starts.

Checkpoint directory layout (one runner at a time per directory)::

    <checkpoint_dir>/
      pending/ leased/ done/ failed/   # WorkQueue tickets, one per run
      store/run/<id[:2]>/<id>.pkl      # RunMetrics of each finished run

The fabric modules are imported when a sweep runs, not with this module:
importing :mod:`repro.resilience` stays as cheap as it was.
"""

from __future__ import annotations

import multiprocessing
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro import obs
from repro.analysis.campaign import Campaign, CampaignOutcome
from repro.analysis.metrics import RunMetrics, summarize
from repro.kernel.errors import VerificationError
from repro.kernel.rng import DeterministicRNG

RunKey = Tuple[Tuple, int]


class RunError(VerificationError):
    """A supervised run attempt raised; :attr:`kind` names the failure.

    The message starts with ``"<kind>: "``, so the kind survives a queue
    ticket, whose attempt history stores messages.
    """

    kind = "error"

    def __init__(self, key: RunKey, detail: str) -> None:
        super().__init__(f"{self.kind}: run {key!r} {detail}")


class RunTimeout(RunError):
    """A supervised run attempt exceeded its wall-clock budget."""

    kind = "timeout"


class RunCrash(RunError):
    """A supervised run's process died without reporting."""

    kind = "crash"


@dataclass(frozen=True)
class RunFailure:
    """One failed attempt at one grid run.

    Attributes:
        input_sequence / seed: the run's grid key.
        attempt: 1-based attempt number that failed.
        kind: "timeout", "crash" (process died without reporting),
            "error" (the run raised, or the queue refused the attempt;
            message carries the detail), or "non_stabilizing" (a
            corrupted-start run exhausted its step budget without ever
            converging -- emitted only by runners constructed with
            ``stabilization=True``, so a stuck corrupted start is
            reported as what it is instead of a generic step-budget
            exhaustion).
        message: human-readable failure detail.
    """

    input_sequence: Tuple
    seed: int
    attempt: int
    kind: str
    message: str


@dataclass(frozen=True)
class ResilientOutcome:
    """Everything a supervised sweep produced.

    Attributes:
        outcome: the ordinary campaign outcome over all completed runs --
            bit-identical to ``Campaign.run`` when nothing was abandoned.
        run_failures: structured records of every failed attempt (empty
            for a healthy sweep; non-empty does not imply missing data,
            since retries usually recover).
        retried_runs: grid runs that needed more than one attempt.
        resumed_runs: grid runs read from the checkpoint's store instead
            of executed.
        abandoned: grid keys that exhausted their retries; their metrics
            are missing from ``outcome``.
    """

    outcome: CampaignOutcome
    run_failures: Tuple[RunFailure, ...]
    retried_runs: int
    resumed_runs: int
    abandoned: Tuple[RunKey, ...]


def _child_main(conn, campaign: Campaign, rng: DeterministicRNG, key: RunKey):
    """Run one grid key in a forked child; report through the pipe.

    The success payload carries the run's observability delta beside its
    metrics, so spans and registry increments recorded inside the child
    (simulator steps, recovery measurements) survive the process
    boundary -- the supervisor merges them on receipt.
    """
    try:
        cut = obs.mark()
        metrics = campaign._single_run(rng, key[0], key[1])
        conn.send(("ok", (metrics, obs.delta_since(cut))))
    except BaseException as error:  # reported, not raised: child exits clean
        conn.send(("error", f"{type(error).__name__}: {error}"))
    finally:
        conn.close()


def supervised_single_run(
    campaign: Campaign,
    rng: DeterministicRNG,
    key: RunKey,
    run_timeout: float = 60.0,
    heartbeat=None,
) -> RunMetrics:
    """One grid run under supervision: the unit a fabric worker claims.

    Executes ``campaign._single_run(rng, *key)`` in a forked child with a
    wall-clock budget and merges the child's obs delta.  ``heartbeat``
    (when given) is called roughly every 100ms while the child runs, so
    the caller can keep a queue lease fresh without threading.

    Raises :class:`RunTimeout`, :class:`RunCrash` or :class:`RunError`
    (all :class:`VerificationError`) when the attempt fails; the caller
    owns the retry policy (the queue's attempt budget, for fabric
    workers).

    Falls back to a plain in-process run where ``fork`` is unavailable
    (no timeout enforcement, same bit-identical metrics); a run that
    raises there still surfaces as :class:`RunError`.
    """
    if run_timeout <= 0:
        raise VerificationError("run_timeout must be positive")
    if "fork" not in multiprocessing.get_all_start_methods():
        try:
            return campaign._single_run(rng, key[0], key[1])
        except Exception as error:
            raise RunError(
                key, f"failed: {type(error).__name__}: {error}"
            ) from error
    context = multiprocessing.get_context("fork")
    parent_conn, child_conn = context.Pipe(duplex=False)
    process = context.Process(
        target=_child_main,
        args=(child_conn, campaign, rng, key),
        daemon=True,
    )
    process.start()
    child_conn.close()
    started = time.monotonic()
    try:
        while True:
            if parent_conn.poll(0.1):
                break
            if heartbeat is not None:
                heartbeat()
            if time.monotonic() - started > run_timeout:
                process.terminate()
                process.join()
                raise RunTimeout(key, f"exceeded {run_timeout}s")
            if not process.is_alive():
                raise RunCrash(
                    key, f"worker died with exit code {process.exitcode}"
                )
        try:
            status, payload = parent_conn.recv()
        except EOFError:
            process.join()
            raise RunCrash(
                key, f"worker died with exit code {process.exitcode}"
            ) from None
        process.join()
        if status != "ok":
            raise RunError(key, f"failed: {payload}")
        metrics, delta = payload
        obs.merge(delta)
        return metrics
    finally:
        parent_conn.close()
        if process.is_alive():
            process.terminate()
            process.join()


def _failure(key: RunKey, attempt: int, entry: str) -> RunFailure:
    """A ticket history entry as a :class:`RunFailure`."""
    kind, _, message = entry.partition(": ")
    if kind not in (RunTimeout.kind, RunCrash.kind, RunError.kind):
        # The queue's own refusals (an expired lease, a rejected result).
        kind, message = RunError.kind, entry
    return RunFailure(
        input_sequence=key[0],
        seed=key[1],
        attempt=attempt,
        kind=kind,
        message=message,
    )


class ResilientRunner:
    """Supervised execution of a :class:`Campaign` grid.

    Args:
        campaign: the declarative sweep to execute.
        run_timeout: wall-second budget per run attempt (enforced only on
            platforms with the ``fork`` start method, where runs execute
            in child processes).
        retries: maximum retries per run after its first failure.
        checkpoint_dir: the sweep's work-queue directory, kept so an
            interrupted sweep can resume; None runs the queue in a
            temporary directory.
        workers: concurrent fabric workers (defaults to the campaign's
            ``workers`` attribute).
        stabilization: mark the campaign as a corrupted-start workload
            (protocols wrapped with
            :class:`~repro.resilience.stabilize.CorruptedStartSender` /
            ``CorruptedStartReceiver``).  Runs that burn their whole
            step budget without completing are then classified as
            ``non_stabilizing`` :class:`RunFailure` records -- the
            run-level face of the exhaustive verdict
            :func:`~repro.resilience.stabilize.analyze_stabilization`
            computes.
    """

    def __init__(
        self,
        campaign: Campaign,
        run_timeout: float = 60.0,
        retries: int = 2,
        checkpoint_dir=None,
        workers: Optional[int] = None,
        stabilization: bool = False,
    ) -> None:
        if run_timeout <= 0:
            raise VerificationError("run_timeout must be positive")
        if retries < 0:
            raise VerificationError("retries must be non-negative")
        self.campaign = campaign
        self.run_timeout = run_timeout
        self.retries = retries
        self.checkpoint_dir = (
            Path(checkpoint_dir) if checkpoint_dir is not None else None
        )
        self.workers = max(workers if workers is not None else campaign.workers, 1)
        self.stabilization = stabilization

    def run(self, rng: DeterministicRNG) -> ResilientOutcome:
        """Execute the sweep, healing failures, and aggregate."""
        with obs.span(
            "resilient.run",
            workers=self.workers,
            retries=self.retries,
            checkpointed=self.checkpoint_dir is not None,
        ):
            if self.checkpoint_dir is not None:
                return self._run(rng, self.checkpoint_dir)
            with tempfile.TemporaryDirectory(prefix="stp-resilient-") as root:
                return self._run(rng, Path(root))

    def _run(self, rng: DeterministicRNG, root: Path) -> ResilientOutcome:
        from repro.analysis.cache import ResultCache
        from repro.fabric.coordinator import drive_workers
        from repro.fabric.planner import CAMPAIGN_CELL_KIND
        from repro.fabric.queue import STATES, WorkQueue
        from repro.fabric.worker import FabricWorker

        campaign = self.campaign
        if campaign.seeds < 1:
            raise VerificationError("seeds must be >= 1")
        if not campaign.inputs:
            raise VerificationError("campaign needs at least one input")
        keys = campaign.grid_keys()
        ids = [campaign.run_key(rng, key) for key in keys]
        queue = WorkQueue(root, max_attempts=self.retries + 1)
        foreign = {
            cell_id for state in STATES for cell_id in queue.tickets(state)
        }.difference(ids)
        if foreign:
            raise VerificationError(
                f"checkpoint {root} holds tickets of a different campaign "
                "grid or RNG; refusing to resume from it"
            )
        queue.init_layout()
        cache = ResultCache(root / "store")

        # Finished runs are read back from the store; every other run
        # starts afresh, whatever ticket an interrupted sweep left for it.
        resumed = 0
        for key, cell_id in zip(keys, ids):
            queue.discard(cell_id)
            if cache.get(CAMPAIGN_CELL_KIND, cell_id) is not None:
                resumed += 1
                queue.mark_done(cell_id, {"warm": True})
            else:
                queue.enqueue(
                    cell_id,
                    cell={"kind": "campaign", "input": list(key[0]), "seed": key[1]},
                )
        if resumed:
            obs.add("resilience.resumed_runs", resumed)
        if resumed < len(keys):
            worker = FabricWorker(
                queue=queue,
                cache=cache,
                run_timeout=self.run_timeout,
                idle_timeout=None,
                campaign=campaign,
                rng=rng,
            )
            drive_workers(worker, self.workers)

        done, failed = queue.tickets("done"), queue.tickets("failed")
        failures: List[RunFailure] = []
        abandoned: List[RunKey] = []
        completed: List[Tuple[RunKey, RunMetrics]] = []
        retried = 0
        for key, cell_id in zip(keys, ids):
            history = (failed.get(cell_id) or done.get(cell_id, {})).get(
                "history", []
            )
            failures += [
                _failure(key, attempt, entry)
                for attempt, entry in enumerate(history, 1)
            ]
            retried += bool(history)
            if cell_id in failed:
                abandoned.append(key)
                continue
            measured = cache.get(CAMPAIGN_CELL_KIND, cell_id)
            if measured is None:
                raise VerificationError(
                    f"run {key!r} finished without a stored result in "
                    f"{cache.store.describe()}"
                )
            completed.append((key, measured))
        if not completed:
            raise VerificationError(
                f"every run failed permanently; first failure: "
                f"{failures[0] if failures else None}"
            )
        if self.stabilization:
            # Corrupted-start workload: a run that drained its whole step
            # budget without completing did not merely "run long" -- it
            # never re-entered legitimate behaviour.  Name it.
            failures += [
                RunFailure(
                    input_sequence=key[0],
                    seed=key[1],
                    attempt=1,
                    kind="non_stabilizing",
                    message=(
                        "corrupted start never converged: "
                        f"{run.steps} steps exhausted the budget "
                        "without completion"
                    ),
                )
                for key, run in completed
                if run.step_budget_exhausted and not run.completed
            ]
        for failure in failures:
            obs.add(f"resilience.failures.{failure.kind}")
        metrics = [run for _, run in completed]
        outcome = CampaignOutcome(
            summary=summarize(metrics),
            metrics=tuple(metrics),
            failures=tuple(
                key for key, run in completed if not (run.safe and run.completed)
            ),
        )
        return ResilientOutcome(
            outcome=outcome,
            run_failures=tuple(failures),
            retried_runs=retried,
            resumed_runs=resumed,
            abandoned=tuple(abandoned),
        )
