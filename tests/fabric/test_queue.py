"""Tests for the file-backed work queue (repro.fabric.queue)."""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.fabric.planner import plan_cells
from repro.fabric.queue import STATES, WorkQueue, default_worker_id
from repro.fabric.spec import FabricError, FabricSpec, demo_spec


def tiny_spec() -> FabricSpec:
    return FabricSpec(
        protocol="norepeat",
        channel="dup",
        inputs=(("a",), ("a", "b")),
        seeds=1,
        max_steps=2_000,
    )


def make_queue(tmp_path, **kwargs) -> WorkQueue:
    queue = WorkQueue(tmp_path / "queue", **kwargs)
    queue.init(plan_cells(tiny_spec()))
    return queue


class TestQueueLayoutAndPlanBinding:
    def test_init_creates_state_dirs_and_plan(self, tmp_path):
        queue = make_queue(tmp_path)
        for state in STATES:
            assert (queue.root / state).is_dir()
        assert queue.plan_path.is_file()

    def test_reinit_with_same_plan_is_noop(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.init(plan_cells(tiny_spec()))  # no error

    def test_reinit_with_different_plan_is_refused(self, tmp_path):
        queue = make_queue(tmp_path)
        with pytest.raises(FabricError, match="refusing to rebind"):
            queue.init(plan_cells(demo_spec()))

    def test_load_plan_roundtrip(self, tmp_path):
        queue = make_queue(tmp_path)
        plan = plan_cells(tiny_spec())
        loaded = queue.load_plan()
        assert loaded == plan

    def test_load_plan_without_init_fails(self, tmp_path):
        with pytest.raises(FabricError, match="plan.json"):
            WorkQueue(tmp_path / "empty").load_plan()

    def test_validation(self, tmp_path):
        with pytest.raises(FabricError, match="lease_timeout"):
            WorkQueue(tmp_path, lease_timeout=0)
        with pytest.raises(FabricError, match="max_attempts"):
            WorkQueue(tmp_path, max_attempts=0)


class TestTicketLifecycle:
    def test_enqueue_claim_complete(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.enqueue("cell-1")
        ticket = queue.claim("w1")
        assert ticket["cell_id"] == "cell-1"
        assert ticket["attempt"] == 1
        assert ticket["worker"] == "w1"
        assert queue.counts() == {
            "pending": 0, "leased": 1, "done": 0, "failed": 0,
        }
        queue.mark_done("cell-1")
        assert queue.counts()["done"] == 1
        assert queue.drained()
        assert queue.done_ids() == ["cell-1"]

    def test_enqueue_is_idempotent_across_states(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.enqueue("cell-1")
        assert not queue.enqueue("cell-1")  # pending
        queue.claim()
        assert not queue.enqueue("cell-1")  # leased
        queue.mark_done("cell-1")
        assert not queue.enqueue("cell-1")  # done

    def test_claim_on_empty_queue(self, tmp_path):
        queue = make_queue(tmp_path)
        assert queue.claim() is None
        assert queue.drained()

    def test_each_ticket_claimed_exactly_once(self, tmp_path):
        queue = make_queue(tmp_path)
        for index in range(5):
            queue.enqueue(f"cell-{index}")
        claimed = [queue.claim(f"w{i}")["cell_id"] for i in range(5)]
        assert sorted(claimed) == [f"cell-{i}" for i in range(5)]
        assert queue.claim() is None

    def test_failed_attempt_requeues_with_attempt_bump(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=3)
        queue.enqueue("cell-1")
        ticket = queue.claim()
        assert queue.release_failed(ticket, "boom") == "requeued"
        again = queue.claim()
        assert again["attempt"] == 2
        assert again["last_error"] == "boom"

    def test_attempt_budget_parks_in_failed(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=2)
        queue.enqueue("cell-1")
        assert queue.release_failed(queue.claim(), "one") == "requeued"
        assert queue.release_failed(queue.claim(), "two") == "failed"
        assert queue.claim() is None
        tickets = queue.failed_tickets()
        assert len(tickets) == 1
        assert tickets[0]["error"] == "two"
        assert queue.drained()  # failed tickets don't block draining

    def test_mark_done_supersedes_requeued_duplicate(self, tmp_path):
        """The requeue-vs-complete race resolves to done."""
        queue = make_queue(tmp_path)
        queue.enqueue("cell-1")
        queue.claim()
        # A lease-expiry sweep requeued it while the slow worker finished.
        queue._write_json(
            queue._ticket_path("pending", "cell-1"),
            {"schema": "stp-fabric/1", "cell_id": "cell-1", "attempt": 2},
        )
        queue.mark_done("cell-1")
        assert queue.counts() == {
            "pending": 0, "leased": 0, "done": 1, "failed": 0,
        }


class TestLeaseExpiry:
    def test_fresh_leases_are_left_alone(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=60.0)
        queue.enqueue("cell-1")
        queue.claim()
        assert queue.requeue_expired() == 0
        assert queue.counts()["leased"] == 1

    def test_stale_lease_is_requeued_with_attempt_bump(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=0.05)
        queue.enqueue("cell-1")
        queue.claim("dead-worker")
        time.sleep(0.1)
        assert queue.requeue_expired() == 1
        ticket = queue.claim("survivor")
        assert ticket["attempt"] == 2
        assert "dead-worker" in ticket["last_error"]

    def test_heartbeat_keeps_a_lease_alive(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=0.3)
        queue.enqueue("cell-1")
        queue.claim()
        for _ in range(4):
            time.sleep(0.1)
            queue.heartbeat("cell-1")
        assert queue.requeue_expired() == 0
        assert queue.counts()["leased"] == 1

    def test_expired_lease_of_done_cell_is_dropped(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=0.05)
        queue.enqueue("cell-1")
        queue.claim()
        # Simulate the done ticket landing while the lease also expired.
        queue._write_json(
            queue._ticket_path("done", "cell-1"),
            {"schema": "stp-fabric/1", "cell_id": "cell-1"},
        )
        time.sleep(0.1)
        assert queue.requeue_expired() == 0
        assert queue.counts() == {
            "pending": 0, "leased": 0, "done": 1, "failed": 0,
        }

    def test_stale_lease_exhausting_attempts_parks(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=0.05, max_attempts=1)
        queue.enqueue("cell-1")
        queue.claim()
        time.sleep(0.1)
        assert queue.requeue_expired() == 0  # parked, not requeued
        assert queue.counts()["failed"] == 1


class TestAttemptBudgetExhaustion:
    """Repeated lease expiry burns the attempt budget and parks the
    ticket in ``failed/`` with the full per-attempt history."""

    def test_exhaustion_parks_with_full_history(self, tmp_path):
        queue = make_queue(tmp_path, lease_timeout=0.05, max_attempts=3)
        embedded = {"schema": "stp-fabric-sweep/1", "kind": "explore"}
        assert queue.enqueue("cell-1", cell=embedded)

        # Attempts 1 and 2 crash (stale lease) and are requeued with an
        # incremented attempt count and a growing history.
        for attempt in (1, 2):
            ticket = queue.claim(f"w{attempt}")
            assert ticket["attempt"] == attempt
            assert ticket["cell"] == embedded
            time.sleep(0.1)
            assert queue.requeue_expired() == 1
            pending = json.loads(
                (queue.root / "pending" / "cell-1.json").read_text()
            )
            assert pending["attempt"] == attempt + 1
            assert pending["cell"] == embedded
            assert len(pending["history"]) == attempt
            assert f"worker w{attempt}" in pending["history"][-1]

        # Attempt 3 exhausts the budget: parked, not requeued.
        ticket = queue.claim("w3")
        assert ticket["attempt"] == 3
        time.sleep(0.1)
        assert queue.requeue_expired() == 0
        assert queue.counts() == {
            "pending": 0, "leased": 0, "done": 0, "failed": 1,
        }

        (failed,) = queue.failed_tickets()
        assert failed["cell_id"] == "cell-1"
        assert failed["attempt"] == 3
        # One message per attempt, in order, each naming its worker.
        assert len(failed["history"]) == 3
        for attempt, message in enumerate(failed["history"], start=1):
            assert "lease expired" in message
            assert f"worker w{attempt}" in message
        # The terminal error is the last history entry, and the
        # embedded cell payload survived every transition.
        assert failed["error"] == failed["history"][-1]
        assert failed["cell"] == embedded

    def test_release_failed_parks_immediately_at_budget_one(self, tmp_path):
        queue = make_queue(tmp_path, max_attempts=1)
        queue.enqueue("cell-1")
        ticket = queue.claim("w1")
        assert queue.release_failed(ticket, "boom") == "failed"
        (failed,) = queue.failed_tickets()
        assert failed["history"] == ["boom"]
        assert failed["error"] == "boom"


def _racing_claimer(queue_root, results_path, worker_id):
    queue = WorkQueue(queue_root)
    claimed = []
    while True:
        ticket = queue.claim(worker_id)
        if ticket is None:
            break
        claimed.append(ticket["cell_id"])
    with open(results_path, "a") as handle:
        for cell_id in claimed:
            handle.write(f"{worker_id} {cell_id}\n")


class TestClaimRace:
    def test_concurrent_processes_claim_disjoint_tickets(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        queue = make_queue(tmp_path)
        cells = [f"cell-{index}" for index in range(40)]
        for cell_id in cells:
            queue.enqueue(cell_id)
        results = tmp_path / "claims.txt"
        results.touch()
        context = multiprocessing.get_context("fork")
        children = [
            context.Process(
                target=_racing_claimer,
                args=(queue.root, results, f"w{index}"),
            )
            for index in range(4)
        ]
        for child in children:
            child.start()
        for child in children:
            child.join()
            assert child.exitcode == 0
        lines = results.read_text().splitlines()
        claimed = [line.split()[1] for line in lines]
        # Every ticket claimed exactly once, none lost, none duplicated.
        assert sorted(claimed) == sorted(cells)


class TestWorkerIdAndPlumbing:
    def test_default_worker_id_has_pid(self):
        assert str(os.getpid()) in default_worker_id()

    def test_ticket_writes_are_atomic_json(self, tmp_path):
        queue = make_queue(tmp_path)
        queue.enqueue("cell-1")
        path = queue._ticket_path("pending", "cell-1")
        payload = json.loads(path.read_text())
        assert payload["cell_id"] == "cell-1"
        assert [p for p in queue.root.rglob("*.tmp")] == []

    def test_temp_names_differ_when_pid_and_clock_collide(
        self, tmp_path, monkeypatch
    ):
        """Two hosts on one shared filesystem can share a pid and a
        ``monotonic_ns`` reading; their temporary files must not."""
        temporaries = []
        real_replace = os.replace

        def recording_replace(source, target):
            temporaries.append(Path(source).name)
            real_replace(source, target)

        monkeypatch.setattr(os, "getpid", lambda: 4242)
        monkeypatch.setattr(time, "monotonic_ns", lambda: 7)
        monkeypatch.setattr(os, "replace", recording_replace)
        target = tmp_path / "ticket.json"
        WorkQueue._write_json(target, {"attempt": 1})
        WorkQueue._write_json(target, {"attempt": 2})
        assert len(temporaries) == 2
        assert temporaries[0] != temporaries[1]
        assert json.loads(target.read_text()) == {"attempt": 2}
