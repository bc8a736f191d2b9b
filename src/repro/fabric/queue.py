"""A crash-safe, server-less work queue on a shared directory.

Any filesystem both sides can see *is* the coordination layer: there is
no broker process to run, crash, or firewall.  Correctness rests on one
primitive -- ``os.rename`` within a filesystem is atomic -- so every
state transition of a ticket is a rename, and a ticket is always in
exactly one state directory:

.. code-block:: text

    <root>/
      plan.json         # the bound plan: FabricPlan (stp-fabric/1)
                        # or SweepPlan (stp-fabric-sweep/1); absent for
                        # plan-less ledgers (service, enqueue-only)
      pending/<id>.json  # enqueued, unclaimed
      leased/<id>.json   # claimed by a worker; mtime is the heartbeat
      done/<id>.json     # completed (result lives in the shared cache)
      failed/<id>.json   # exhausted its attempts (with attempt history)

Tickets may embed their whole :class:`~repro.fabric.sweep.SweepCell`
under ``"cell"`` -- self-describing work a worker can execute without
any bound plan, which is how the service's enqueue-only dispatch hands
explore/stabilize cells to remote fleets.  The embedded cell and the
accumulated ``history`` of attempt errors survive every
requeue/park transition.

Claiming is ``rename(pending/X, leased/X)``: of N racing workers
exactly one rename succeeds and the rest observe ``FileNotFoundError``
and move on -- mutual exclusion without locks.  A worker heartbeats by
touching its leased ticket; any participant may requeue leased tickets
whose heartbeat is older than the lease timeout (the worker died, or
the host did), so a crashed claim always returns to ``pending`` with an
incremented attempt count.

The requeue-vs-slow-worker race is benign by design: if a lease expires
while the original worker is merely slow, the cell may be computed
twice, but cells are pure functions stored content-addressed in the
shared cache -- both computations publish byte-identical results and
``done`` tickets are idempotent.  At-least-once execution plus
deterministic results equals exactly-once observable effect.
"""

from __future__ import annotations

import json
import os
import secrets
import socket
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs
from repro.fabric.planner import FabricPlan
from repro.fabric.spec import FABRIC_SCHEMA, FabricError

#: Ticket states, as subdirectory names.
STATES = ("pending", "leased", "done", "failed")


def default_worker_id() -> str:
    """``<hostname>-<pid>``: unique enough to audit who held a lease."""
    return f"{socket.gethostname()}-{os.getpid()}"


class WorkQueue:
    """One campaign plan's tickets on a shared directory.

    Args:
        root: the queue directory (shared between all participants).
        lease_timeout: seconds without a heartbeat before a leased
            ticket is considered abandoned and eligible for requeue.
        max_attempts: total attempts a cell gets before it is parked in
            ``failed/`` (mirrors the resilient runner's retry budget).
    """

    def __init__(
        self, root, lease_timeout: float = 60.0, max_attempts: int = 3
    ) -> None:
        if lease_timeout <= 0:
            raise FabricError("lease_timeout must be positive")
        if max_attempts < 1:
            raise FabricError("max_attempts must be >= 1")
        self.root = Path(root)
        self.lease_timeout = lease_timeout
        self.max_attempts = max_attempts

    # -- layout --------------------------------------------------------

    def _dir(self, state: str) -> Path:
        return self.root / state

    def _ticket_path(self, state: str, cell_id: str) -> Path:
        return self._dir(state) / f"{cell_id}.json"

    @property
    def plan_path(self) -> Path:
        return self.root / "plan.json"

    # -- plan binding --------------------------------------------------

    def init_layout(self) -> None:
        """Create the state directories without binding a plan.

        The service front-end (:mod:`repro.service`) reuses this queue
        as its job ledger: tickets are keyed by report fingerprints
        rather than by one campaign plan's cells, so there is no plan to
        bind.  Idempotent and race-safe, like :meth:`init`.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        for state in STATES:
            self._dir(state).mkdir(exist_ok=True)

    def init(self, plan) -> None:
        """Create the queue layout and bind it to ``plan``.

        ``plan`` is a :class:`~repro.fabric.planner.FabricPlan` or a
        :class:`~repro.fabric.sweep.SweepPlan` -- anything with a
        ``to_dict`` / ``plan_fingerprint``.  Re-initializing with the
        *same* plan is a no-op (any host may race to set up a shared
        queue); a different plan is refused rather than silently mixed.
        """
        self.init_layout()
        payload = plan.to_dict()
        if self.plan_path.exists():
            existing = self.load_plan()
            if existing.plan_fingerprint != plan.plan_fingerprint:
                raise FabricError(
                    f"queue {self.root} is bound to plan "
                    f"{existing.plan_fingerprint[:12]}..., refusing to "
                    f"rebind to {plan.plan_fingerprint[:12]}..."
                )
            return
        self._write_json(self.plan_path, payload)

    def load_plan(self):
        """The plan this queue is bound to (campaign or sweep).

        Dispatches on the stored schema tag:``stp-fabric/1`` revives a
        :class:`FabricPlan`, ``stp-fabric-sweep/1`` a
        :class:`~repro.fabric.sweep.SweepPlan`.
        """
        try:
            payload = json.loads(self.plan_path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            raise FabricError(
                f"queue {self.root} has no readable plan.json: {error}"
            ) from None
        if payload.get("schema") == FABRIC_SCHEMA:
            return FabricPlan.from_dict(payload)
        from repro.fabric.sweep import SWEEP_SCHEMA, SweepPlan

        if payload.get("schema") == SWEEP_SCHEMA:
            return SweepPlan.from_dict(payload)
        raise FabricError(
            f"queue {self.root} plan.json has unsupported schema "
            f"{payload.get('schema')!r}"
        )

    def load_plan_optional(self):
        """:meth:`load_plan`, or None for plan-less ledgers.

        A missing ``plan.json`` is a legitimate state (the service's
        enqueue-only dispatch runs the queue as a ledger of
        self-describing tickets); an unreadable or unsupported one is
        still an error.
        """
        if not self.plan_path.exists():
            return None
        return self.load_plan()

    # -- ticket lifecycle ----------------------------------------------

    def enqueue(
        self,
        cell_id: str,
        attempt: int = 1,
        cell: Optional[Dict] = None,
    ) -> bool:
        """Add a pending ticket; False if the cell is already tracked.

        ``cell`` embeds a self-describing payload (a
        :meth:`SweepCell.to_dict`) so workers can execute the ticket
        without a bound plan.
        """
        if any(
            self._ticket_path(state, cell_id).exists() for state in STATES
        ):
            return False
        payload: Dict = {
            "schema": FABRIC_SCHEMA,
            "cell_id": cell_id,
            "attempt": attempt,
        }
        if cell is not None:
            payload["cell"] = cell
        self._write_json(self._ticket_path("pending", cell_id), payload)
        return True

    def mark_done(self, cell_id: str, info: Optional[Dict] = None) -> None:
        """Record completion and release any lease (idempotent)."""
        payload = {"schema": FABRIC_SCHEMA, "cell_id": cell_id}
        payload.update(info or {})
        self._write_json(self._ticket_path("done", cell_id), payload)
        self._ticket_path("leased", cell_id).unlink(missing_ok=True)
        # A ticket requeued by an overeager lease expiry may also sit in
        # pending; completion supersedes it.
        self._ticket_path("pending", cell_id).unlink(missing_ok=True)

    def claim(
        self, worker_id: Optional[str] = None, cell_id: Optional[str] = None
    ) -> Optional[Dict]:
        """Atomically claim one pending ticket, or None if none remain.

        Scans in sorted order so contending workers walk the same list
        and the rename race spreads them across distinct tickets after
        at most a few collisions.  With ``cell_id`` the claim is
        *targeted*: only that ticket is attempted (the service pool
        claims the exact job it was dispatched for, never a sibling's).
        """
        worker_id = worker_id or default_worker_id()
        pending = self._dir("pending")
        if not pending.is_dir():
            return None
        if cell_id is not None:
            candidates = [self._ticket_path("pending", cell_id)]
        else:
            candidates = sorted(pending.glob("*.json"))
        for path in candidates:
            cell_id = path.stem
            leased = self._ticket_path("leased", cell_id)
            try:
                os.rename(path, leased)
            except OSError:
                continue  # lost the race for this ticket; try the next
            try:
                ticket = json.loads(leased.read_text())
            except (OSError, json.JSONDecodeError):
                # Torn ticket (should not happen: writes are atomic).
                # Park it as failed rather than looping on it forever.
                self._write_json(
                    self._ticket_path("failed", cell_id),
                    {
                        "schema": FABRIC_SCHEMA,
                        "cell_id": cell_id,
                        "error": "unreadable ticket",
                    },
                )
                leased.unlink(missing_ok=True)
                continue
            ticket["worker"] = worker_id
            self._write_json(leased, ticket)
            obs.add("fabric.cells_claimed")
            return ticket
        return None

    def heartbeat(self, cell_id: str) -> None:
        """Refresh the lease on a claimed ticket."""
        try:
            os.utime(self._ticket_path("leased", cell_id))
        except OSError:
            pass  # lease was expired/completed under us; harmless

    def release_failed(self, ticket: Dict, message: str) -> str:
        """Handle a failed attempt: requeue with backoff budget or park.

        Returns ``"requeued"`` or ``"failed"``.  The embedded cell (if
        any) and the accumulated ``history`` of per-attempt error
        messages ride along, so a parked ticket records every attempt
        that led there.
        """
        cell_id = ticket["cell_id"]
        attempt = int(ticket.get("attempt", 1))
        history = list(ticket.get("history", []))
        history.append(message)
        carried: Dict = {"schema": FABRIC_SCHEMA, "cell_id": cell_id}
        if "cell" in ticket:
            carried["cell"] = ticket["cell"]
        self._ticket_path("leased", cell_id).unlink(missing_ok=True)
        if attempt + 1 > self.max_attempts:
            carried.update(
                {"attempt": attempt, "error": message, "history": history}
            )
            self._write_json(self._ticket_path("failed", cell_id), carried)
            obs.add("fabric.cells_failed")
            return "failed"
        carried.update(
            {
                "attempt": attempt + 1,
                "last_error": message,
                "history": history,
            }
        )
        self._write_json(self._ticket_path("pending", cell_id), carried)
        obs.add("fabric.cells_requeued")
        return "requeued"

    def requeue_expired(self) -> int:
        """Return abandoned leases (stale heartbeat) to ``pending``.

        Any participant may call this; it is how the fabric heals from
        workers that died without releasing their claim.  Returns the
        number of tickets requeued.
        """
        leased = self._dir("leased")
        if not leased.is_dir():
            return 0
        now = time.time()
        requeued = 0
        for path in sorted(leased.glob("*.json")):
            try:
                age = now - path.stat().st_mtime
            except OSError:
                continue  # completed or requeued under us
            if age <= self.lease_timeout:
                continue
            try:
                ticket = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            cell_id = path.stem
            if self._ticket_path("done", cell_id).exists():
                path.unlink(missing_ok=True)
                continue
            outcome = self.release_failed(
                ticket,
                f"lease expired after {self.lease_timeout}s "
                f"(worker {ticket.get('worker', '?')})",
            )
            if outcome == "requeued":
                requeued += 1
            obs.add("fabric.lease_expired")
        return requeued

    # -- inspection ----------------------------------------------------

    def counts(self) -> Dict[str, int]:
        """Ticket counts per state."""
        return {
            state: (
                len(list(self._dir(state).glob("*.json")))
                if self._dir(state).is_dir()
                else 0
            )
            for state in STATES
        }

    def kind_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-state ticket counts split by cell kind.

        Tickets without an embedded cell are campaign cells (the PR 8
        ticket shape); unreadable tickets count under ``"?"``.
        """
        result: Dict[str, Dict[str, int]] = {}
        for state in STATES:
            directory = self._dir(state)
            counts: Dict[str, int] = {}
            if directory.is_dir():
                for path in sorted(directory.glob("*.json")):
                    try:
                        ticket = json.loads(path.read_text())
                    except (OSError, json.JSONDecodeError):
                        kind = "?"
                    else:
                        embedded = ticket.get("cell")
                        if isinstance(embedded, dict):
                            kind = str(embedded.get("kind", "campaign"))
                        else:
                            # done tickets carry the kind at top level
                            kind = str(ticket.get("kind", "campaign"))
                    counts[kind] = counts.get(kind, 0) + 1
            result[state] = counts
        return result

    def drained(self) -> bool:
        """True when no ticket is pending or leased."""
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def done_ids(self) -> List[str]:
        done = self._dir("done")
        if not done.is_dir():
            return []
        return sorted(path.stem for path in done.glob("*.json"))

    def failed_tickets(self) -> List[Dict]:
        failed = self._dir("failed")
        if not failed.is_dir():
            return []
        tickets = []
        for path in sorted(failed.glob("*.json")):
            try:
                tickets.append(json.loads(path.read_text()))
            except (OSError, json.JSONDecodeError):
                continue
        return tickets

    # -- plumbing ------------------------------------------------------

    @staticmethod
    def _write_json(path: Path, payload: Dict) -> None:
        """Atomic JSON publish (unique tmp + rename), like the store.

        The random token keeps the temporary name unique across hosts:
        two hosts on a shared filesystem can run writers with the same
        pid in the same ``monotonic_ns`` tick.
        """
        temporary = path.parent / (
            f".{path.stem}.{os.getpid()}.{time.monotonic_ns()}."
            f"{secrets.token_hex(4)}.tmp"
        )
        temporary.write_text(json.dumps(payload, indent=2) + "\n")
        os.replace(temporary, path)
