"""End-to-end fabric tests: worker loops, merge equivalence, CLI.

The headline property: a fabric run over any worker count produces a
:class:`CampaignOutcome` equal -- and, rendered canonically,
byte-identical -- to a serial ``Campaign.run`` over the same grid.
"""

from __future__ import annotations

import json
import multiprocessing

import pytest

from repro.analysis.cache import ResultCache
from repro.cli import main
from repro.kernel.rng import DeterministicRNG
from repro.fabric import (
    FabricError,
    FabricWorker,
    WorkQueue,
    demo_spec,
    merge_outcome,
    outcome_to_json,
    plan_cells,
    run_fabric,
)

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def small_spec():
    return demo_spec(inputs=3, seeds=2, length=4)


@pytest.fixture(scope="module")
def serial_reference():
    spec = small_spec()
    plan = plan_cells(spec)
    outcome = spec.build_campaign().run(plan.rng)
    return spec, plan, outcome


class TestFabricMatchesSerial:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_outcome_equal_for_any_worker_count(
        self, tmp_path, serial_reference, workers
    ):
        spec, _, serial = serial_reference
        cache = ResultCache(tmp_path / "store")
        result = run_fabric(
            spec,
            tmp_path / "queue",
            cache,
            workers=workers,
            idle_timeout=10.0,
        )
        assert result.outcome == serial
        assert outcome_to_json(result.outcome) == outcome_to_json(serial)
        claimed = sum(s.claimed for s in result.worker_stats)
        computed = sum(s.computed for s in result.worker_stats)
        assert claimed == len(result.plan.cells)
        assert computed == len(result.plan.cells)

    def test_twelve_cell_demo_grid_two_workers(self, tmp_path):
        """The acceptance-criteria configuration: >= 12 cells, 2 workers,
        merged report bit-identical to the serial campaign."""
        spec = demo_spec()
        assert spec.cell_count >= 12
        plan = plan_cells(spec)
        serial = spec.build_campaign().run(plan.rng)
        cache = ResultCache(tmp_path / "store")
        result = run_fabric(
            spec, tmp_path / "queue", cache, workers=2, idle_timeout=10.0
        )
        assert outcome_to_json(result.outcome) == outcome_to_json(serial)

    def test_second_run_is_fully_warm(self, tmp_path, serial_reference):
        spec, _, serial = serial_reference
        cache = ResultCache(tmp_path / "store")
        first = run_fabric(
            spec, tmp_path / "q1", cache, workers=1, idle_timeout=10.0
        )
        assert first.cold_cells == spec.cell_count
        second = run_fabric(
            spec, tmp_path / "q2", cache, workers=1, idle_timeout=10.0
        )
        assert second.warm_cells == spec.cell_count
        assert second.cold_cells == 0
        # Warm cells never reach a worker: nothing was claimed.
        assert sum(s.claimed for s in second.worker_stats) == 0
        assert second.outcome == serial

    def test_serial_campaign_cache_warms_the_fabric(
        self, tmp_path, serial_reference
    ):
        spec, plan, serial = serial_reference
        cache = ResultCache(tmp_path / "store")
        spec.build_campaign(cache=cache).run(plan.rng)
        result = run_fabric(
            spec, tmp_path / "queue", cache, workers=2, idle_timeout=10.0
        )
        assert result.warm_cells == spec.cell_count
        assert result.outcome == serial


class TestWorkerLoop:
    def make_plan_queue_cache(self, tmp_path, spec=None):
        spec = spec or small_spec()
        plan = plan_cells(spec)
        queue = WorkQueue(tmp_path / "queue", lease_timeout=0.2)
        queue.init(plan)
        for cell in plan.cells:
            queue.enqueue(cell.cell_id)
        return plan, queue, ResultCache(tmp_path / "store")

    def test_single_worker_drains_the_queue(self, tmp_path):
        plan, queue, cache = self.make_plan_queue_cache(tmp_path)
        stats = FabricWorker(
            queue=queue, cache=cache, idle_timeout=5.0
        ).run()
        assert stats.computed == len(plan.cells)
        assert queue.drained()
        assert queue.done_ids() == sorted(c.cell_id for c in plan.cells)

    def test_max_cells_bounds_a_worker(self, tmp_path):
        plan, queue, cache = self.make_plan_queue_cache(tmp_path)
        stats = FabricWorker(
            queue=queue, cache=cache, max_cells=2, idle_timeout=5.0
        ).run()
        assert stats.claimed == 2
        assert queue.counts()["pending"] == len(plan.cells) - 2

    def test_crashed_worker_lease_is_recovered(self, tmp_path):
        """A cell claimed by a dead worker is requeued after lease expiry
        and completed by a survivor -- the fabric's crash-safety story."""
        import time

        plan, queue, cache = self.make_plan_queue_cache(tmp_path)
        victim_ticket = queue.claim("crashed-worker")
        time.sleep(0.3)  # let the orphan lease go stale
        stats = FabricWorker(
            queue=queue, cache=cache, idle_timeout=5.0
        ).run()
        assert stats.requeued_leases >= 1
        assert stats.computed == len(plan.cells)
        assert queue.drained()
        assert cache.get("run", victim_ticket["cell_id"]) is not None
        # The recovered outcome is still bit-identical to serial.
        serial = plan.spec.build_campaign().run(plan.rng)
        assert merge_outcome(plan, cache) == serial

    def test_foreign_ticket_is_rejected(self, tmp_path):
        plan, queue, cache = self.make_plan_queue_cache(tmp_path)
        queue.enqueue("not-a-real-cell")
        stats = FabricWorker(
            queue=queue, cache=cache, idle_timeout=5.0
        ).run()
        assert stats.failed >= 1
        assert stats.computed == len(plan.cells)
        failed = queue.failed_tickets()
        assert any("not in plan" in t.get("error", "") for t in failed)

    def test_embedded_key_must_hash_to_its_ticket(self, tmp_path):
        """A worker handed a campaign in memory runs the grid key its
        ticket embeds, and refuses one that the ticket's id does not
        address, as it refuses a mismatched sweep cell."""
        campaign = small_spec().build_campaign()
        rng = DeterministicRNG(0, "fabric")
        first, second = campaign.grid_keys()[:2]
        queue = WorkQueue(tmp_path / "queue")
        queue.init_layout()
        for key in (first, second):
            queue.enqueue(
                campaign.run_key(rng, key),
                cell={"kind": "campaign", "input": list(second[0]), "seed": second[1]},
            )
        cache = ResultCache(tmp_path / "store")
        stats = FabricWorker(
            queue=queue, cache=cache, idle_timeout=5.0, campaign=campaign, rng=rng
        ).run()
        assert stats.computed == 1
        assert cache.get("run", campaign.run_key(rng, second)) is not None
        assert cache.get("run", campaign.run_key(rng, first)) is None
        (failed,) = queue.failed_tickets()
        assert failed["cell_id"] == campaign.run_key(rng, first)
        assert "does not match" in failed["error"]

    def test_computed_cell_writes_two_ticket_files(
        self, tmp_path, monkeypatch
    ):
        """The pending ticket and the claim's lease naming the worker;
        completion renames the lease into done/."""
        plan = plan_cells(small_spec())
        queue = WorkQueue(tmp_path / "queue")
        queue.init(plan)
        written = []
        write_json = WorkQueue._write_json

        def recording_write(path, payload):
            written.append(path.parent.name)
            write_json(path, payload)

        monkeypatch.setattr(
            WorkQueue, "_write_json", staticmethod(recording_write)
        )
        cell_id = plan.cells[0].cell_id
        queue.enqueue(cell_id)
        stats = FabricWorker(
            queue=queue,
            cache=ResultCache(tmp_path / "store"),
            worker_id="w1",
        ).run()
        assert stats.computed == 1
        assert written == ["pending", "leased"]
        assert queue.tickets("done")[cell_id]["worker"] == "w1"

    def test_idle_poll_backs_off_and_resets_after_a_claim(
        self, tmp_path, monkeypatch
    ):
        """Waiting on a peer's lease starts with a short poll that doubles
        up to the cap; a claim starts the backoff over."""
        import time

        from repro.fabric import worker as worker_module

        queue = WorkQueue(tmp_path / "queue", max_attempts=1)
        queue.init_layout()
        queue.enqueue("held")
        queue.claim("peer")  # a live peer's lease keeps the queue busy
        waits = []

        def fake_sleep(seconds):
            waits.append(seconds)
            if len(waits) == 8:
                queue.enqueue("stray")  # claimed and parked next poll
            elif len(waits) == 10:
                queue.mark_done("held")  # the peer finishes

        monkeypatch.setattr(time, "sleep", fake_sleep)
        stats = FabricWorker(
            queue=queue, cache=ResultCache(tmp_path / "store")
        ).run()
        assert stats.claimed == 1 and stats.failed == 1
        assert len(waits) == 10
        cap = worker_module._IDLE_POLL_MAX_S
        assert waits[0] < cap
        assert max(waits) == cap
        assert waits[:8] == sorted(waits[:8])
        assert waits[8] == waits[0]

    def test_warm_ticket_short_circuits(self, tmp_path):
        plan, queue, cache = self.make_plan_queue_cache(tmp_path)
        # Pre-warm one cell the way a prior campaign would.
        campaign = plan.spec.build_campaign()
        rng = plan.rng
        first = plan.cells[0]
        cache.put(
            "run",
            first.cell_id,
            campaign._single_run(rng, first.input_sequence, first.seed),
        )
        stats = FabricWorker(
            queue=queue, cache=cache, idle_timeout=5.0
        ).run()
        assert stats.warm == 1
        assert stats.computed == len(plan.cells) - 1


class TestMerge:
    def test_missing_cells_fail_loudly(self, tmp_path):
        plan = plan_cells(small_spec())
        cache = ResultCache(tmp_path)
        with pytest.raises(FabricError, match="missing"):
            merge_outcome(plan, cache, wait_timeout=0.05)

    def test_canonical_json_is_deterministic(self, serial_reference):
        _, _, serial = serial_reference
        assert outcome_to_json(serial) == outcome_to_json(serial)
        payload = json.loads(outcome_to_json(serial))
        assert payload["schema"] == "stp-fabric-report/1"
        assert payload["summary"]["runs"] == serial.summary.runs


@pytest.mark.skipif(not HAS_FORK, reason="needs the fork start method")
class TestFabricCli:
    def test_plan_worker_merge_flow(self, tmp_path, capsys):
        queue = str(tmp_path / "queue")
        store = str(tmp_path / "store")
        assert main(
            [
                "fabric", "plan", "--inputs", "3", "--seeds", "2",
                "--length", "4", "--queue", queue, "--cache-dir", store,
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "6 cells" in out and "queued 6 tickets" in out

        assert main(
            [
                "worker", "--queue", queue, "--cache-dir", store,
                "--idle-timeout", "5",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "computed 6" in out

        merged = tmp_path / "merged.json"
        assert main(
            [
                "fabric", "merge", "--queue", queue, "--cache-dir", store,
                "--out", str(merged),
            ]
        ) == 0
        capsys.readouterr()

        # The merged file is byte-identical to the serial outcome.
        spec = demo_spec(inputs=3, seeds=2, length=4)
        plan = plan_cells(spec)
        serial = spec.build_campaign().run(plan.rng)
        assert merged.read_text() == outcome_to_json(serial)

    def test_run_subcommand(self, tmp_path, capsys):
        out_file = tmp_path / "outcome.json"
        assert main(
            [
                "fabric", "run", "--inputs", "3", "--seeds", "2",
                "--length", "4", "--workers", "2",
                "--queue", str(tmp_path / "q"),
                "--cache-dir", str(tmp_path / "store"),
                "--out", str(out_file),
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "6 cells" in out
        payload = json.loads(out_file.read_text())
        assert payload["summary"]["runs"] == 6

    def test_status_subcommand(self, tmp_path, capsys):
        queue_dir = str(tmp_path / "queue")
        assert main(
            [
                "fabric", "plan", "--inputs", "2", "--seeds", "1",
                "--length", "4", "--queue", queue_dir,
            ]
        ) == 0
        capsys.readouterr()
        assert main(["fabric", "status", "--queue", queue_dir]) == 0
        out = capsys.readouterr().out
        assert "pending:2" in out.replace(" ", "")
