"""Tests for fabric sweep cells (repro.fabric.sweep/cells/coordinator).

The contract under test is the PR's headline: a sweep distributed over
any number of fabric workers must render **byte-identically** to the
single-host ``serial_sweep`` reference -- cold, warm, after a worker
crash, and across stores warmed by either path -- while storing exactly
one result per member.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import time

import pytest

from repro.analysis.cache import ResultCache, stabilize_report_key
from repro.fabric import (
    FabricWorker,
    SweepCell,
    SweepSpec,
    WorkQueue,
    cell_kind,
    demo_sweep_spec,
    execute_sweep_cell,
    kind_of_ticket,
    merge_stabilize_member,
    merge_sweep,
    plan_sweep,
    run_sweep,
    serial_sweep,
    sweep_cell_warm,
    sweep_outcome_to_json,
    sweep_split_warm_cold,
)
from repro.fabric.spec import FabricError
from repro.fabric.sweep import build_stabilize_system


def explore_spec() -> SweepSpec:
    """Six explore cells (two protocols x three prefixes), small states."""
    return demo_sweep_spec(kind="explore", members=4, length=3)


def stabilize_spec() -> SweepSpec:
    """Two stabilize members: abp and ss-arq on input ``ab``."""
    return demo_sweep_spec(kind="stabilize")


def perfbench_stabilize_spec() -> SweepSpec:
    """The four stabilize members the fabric-sweep benchmark checks."""
    return SweepSpec(
        kind="stabilize",
        protocols=("abp", "ss-arq"),
        channels=("lossy-fifo",),
        inputs=(("a", "b"), ("a", "b", "c")),
        domain=("a", "b", "c", "d"),
        shards=4,
    )


def needs_fork():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs the fork start method")


class TestSweepSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FabricError, match="unknown sweep kind"):
            SweepSpec(
                kind="campaign",
                protocols=("norepeat",),
                channels=("dup",),
                inputs=(("a",),),
            )

    def test_empty_grid_rejected(self):
        with pytest.raises(FabricError, match="at least one"):
            SweepSpec(
                kind="explore", protocols=(), channels=("dup",),
                inputs=(("a",),),
            )

    def test_shard_and_budget_validation(self):
        with pytest.raises(FabricError, match="shards"):
            SweepSpec(
                kind="stabilize", protocols=("ss-arq",),
                channels=("lossy-fifo",), inputs=(("a",),), shards=0,
            )
        with pytest.raises(FabricError, match="max_states"):
            SweepSpec(
                kind="explore", protocols=("norepeat",),
                channels=("dup",), inputs=(("a",),), max_states=0,
            )

    def test_roundtrip_through_dict(self):
        spec = perfbench_stabilize_spec()
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_fields_rejected(self):
        payload = explore_spec().to_dict()
        payload["frobnicate"] = True
        with pytest.raises(FabricError, match="frobnicate"):
            SweepSpec.from_dict(payload)

    def test_retired_reduce_field_rejected(self):
        payload = explore_spec().to_dict()
        payload["reduce"] = False
        with pytest.raises(FabricError, match="reduce"):
            SweepSpec.from_dict(payload)

    def test_member_domain_is_sorted_union_with_extras(self):
        spec = SweepSpec(
            kind="stabilize", protocols=("ss-arq",),
            channels=("lossy-fifo",), inputs=(("b", "a"),),
            domain=("c",),
        )
        assert spec.member_domain(("b", "a")) == ("a", "b", "c")

    def test_grid_counts(self):
        spec = SweepSpec(
            kind="stabilize", protocols=("ss-arq",),
            channels=("lossy-fifo",), inputs=(("a",), ("a", "b")),
            shards=3,
        )
        assert spec.member_count == 2
        # The retired shards field no longer multiplies cells.
        assert len(plan_sweep(spec).cells) == 2


class TestPlanDeterminism:
    def test_replanning_is_bit_stable(self):
        first = plan_sweep(explore_spec())
        second = plan_sweep(explore_spec())
        assert first.plan_fingerprint == second.plan_fingerprint
        assert [c.cell_id for c in first.cells] == [
            c.cell_id for c in second.cells
        ]

    def test_explore_cell_id_is_its_result_key(self):
        plan = plan_sweep(explore_spec())
        assert len(plan.cells) == 6
        for cell in plan.cells:
            assert cell.kind == "explore"
            assert cell.cell_id == cell.result_key

    def test_stabilize_cell_id_is_its_result_key(self):
        spec = perfbench_stabilize_spec()
        plan = plan_sweep(spec)
        assert len(plan.cells) == spec.member_count == 4
        for cell in plan.cells:
            assert cell.kind == "stabilize"
            system = build_stabilize_system(
                cell.protocol, cell.channel, cell.input_sequence,
                cell.domain,
            )
            assert cell.cell_id == cell.result_key == stabilize_report_key(
                system, max_states=spec.max_states, domain=cell.domain
            )
            assert plan.member_cells(cell.result_key) == (cell,)
        # shards no longer changes which cells are planned.
        unsharded = plan_sweep(dataclasses.replace(spec, shards=1))
        assert unsharded.cells == plan.cells

    def test_plan_roundtrip_through_dict(self):
        plan = plan_sweep(perfbench_stabilize_spec())
        revived = type(plan).from_dict(plan.to_dict())
        assert revived == plan

    def test_cell_roundtrip_rejects_unknown_fields(self):
        cell = plan_sweep(explore_spec()).cells[0]
        assert SweepCell.from_dict(cell.to_dict()) == cell
        payload = cell.to_dict()
        payload["mystery"] = 1
        with pytest.raises(FabricError, match="mystery"):
            SweepCell.from_dict(payload)

    def test_cell_rejects_retired_reduce_field(self):
        payload = plan_sweep(explore_spec()).cells[0].to_dict()
        payload["reduce"] = False
        with pytest.raises(FabricError, match="reduce"):
            SweepCell.from_dict(payload)


class TestCellKindRegistry:
    def test_registered_kinds(self):
        assert cell_kind("explore").result_kind == "explore"
        stabilize = cell_kind("stabilize")
        assert stabilize.result_kind == "stabilize"
        assert stabilize.merged_kind is None

    def test_unknown_kind_is_a_fabric_error(self):
        with pytest.raises(FabricError, match="unknown cell kind"):
            cell_kind("mapreduce")

    def test_kind_of_ticket(self):
        cell = plan_sweep(explore_spec()).cells[0]
        assert kind_of_ticket({"cell": cell.to_dict()}) == "explore"
        assert kind_of_ticket({"cell_id": "x"}) == "campaign"

    def test_executor_refuses_forged_cell_id(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = plan_sweep(explore_spec()).cells[0]
        forged = SweepCell.from_dict(
            {**cell.to_dict(), "cell_id": "0" * 64, "result_key": "0" * 64}
        )
        with pytest.raises(FabricError, match="does not match"):
            execute_sweep_cell(forged, cache)

    def test_executor_refuses_forged_stabilize_cell(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = plan_sweep(stabilize_spec()).cells[0]
        forged = dataclasses.replace(cell, seed=cell.seed + 1)
        with pytest.raises(FabricError, match="does not match"):
            execute_sweep_cell(forged, cache)
        assert cache.disk_stats()["entries"] == 0

    @staticmethod
    def record_writes(cache):
        writes = []
        write = cache.store.write

        def recording_write(kind, key, data):
            writes.append(kind)
            return write(kind, key, data)

        cache.store.write = recording_write
        return writes

    def test_explore_cell_writes_its_report_once(self, tmp_path):
        cache = ResultCache(tmp_path)
        writes = self.record_writes(cache)
        cell = plan_sweep(explore_spec()).cells[0]
        execute_sweep_cell(cell, cache)
        assert writes == ["explore"]

    def test_stabilize_cell_writes_one_stabilize_entry(self, tmp_path):
        cache = ResultCache(tmp_path)
        writes = self.record_writes(cache)
        cell = plan_sweep(stabilize_spec()).cells[0]
        beats = []
        execute_sweep_cell(cell, cache, heartbeat=lambda: beats.append(1))
        assert writes == ["stabilize"]
        assert beats == [1]


class TestExploreSweepByteIdentity:
    def test_one_worker_matches_serial_reference(self, tmp_path):
        spec = explore_spec()
        serial_cache = ResultCache(tmp_path / "serial")
        reference = sweep_outcome_to_json(
            plan_sweep(spec), serial_sweep(spec, serial_cache)
        )

        fabric_cache = ResultCache(tmp_path / "fabric")
        outcome = run_sweep(
            spec, tmp_path / "queue", fabric_cache, workers=1
        )
        assert outcome.cold_cells == len(outcome.plan.cells) == 6
        assert outcome.warm_cells == 0
        rendered = sweep_outcome_to_json(outcome.plan, outcome.results)
        assert rendered == reference

        # Warm re-run over the same store: zero cells claimed, same bytes.
        warm = run_sweep(
            spec, tmp_path / "queue-warm", fabric_cache, workers=1
        )
        assert warm.cold_cells == 0
        assert warm.warm_cells == 6
        assert sum(s.claimed for s in warm.worker_stats) == 0
        assert sweep_outcome_to_json(warm.plan, warm.results) == reference

        # Warm-anywhere: a fabric sweep over the store the *serial* path
        # populated enqueues nothing and reproduces the same bytes.
        cross = run_sweep(
            spec, tmp_path / "queue-cross", serial_cache, workers=1
        )
        assert cross.cold_cells == 0
        assert (
            sweep_outcome_to_json(cross.plan, cross.results) == reference
        )

    def test_two_workers_match_serial_reference(self, tmp_path):
        needs_fork()
        spec = explore_spec()
        reference = sweep_outcome_to_json(
            plan_sweep(spec),
            serial_sweep(spec, ResultCache(tmp_path / "serial")),
        )
        outcome = run_sweep(
            spec, tmp_path / "queue", ResultCache(tmp_path / "fabric"),
            workers=2,
        )
        assert (
            sweep_outcome_to_json(outcome.plan, outcome.results)
            == reference
        )

    def test_two_workers_leave_only_explore_entries(self, tmp_path):
        needs_fork()
        spec = explore_spec()
        reference = sweep_outcome_to_json(
            plan_sweep(spec),
            serial_sweep(spec, ResultCache(tmp_path / "serial")),
        )
        cache = ResultCache(tmp_path / "fabric")
        outcome = run_sweep(spec, tmp_path / "queue", cache, workers=2)
        assert (
            sweep_outcome_to_json(outcome.plan, outcome.results)
            == reference
        )
        kinds = cache.disk_stats()["kinds"]
        assert {kind: kinds[kind]["entries"] for kind in kinds} == {
            "explore": 6
        }

    def test_compile_once_per_distinct_system_at_one_worker(
        self, tmp_path, monkeypatch
    ):
        from repro.kernel.compiled import CompiledSystem

        compiles = []
        init = CompiledSystem.__init__

        def counting_init(table, system):
            compiles.append(system)
            init(table, system)

        monkeypatch.setattr(CompiledSystem, "__init__", counting_init)
        spec = explore_spec()
        cache = ResultCache(tmp_path / "store")
        run_sweep(spec, tmp_path / "queue", cache, workers=1)
        # Each explore demo member is a distinct system: one compile
        # each, and only its report is stored.
        assert len(compiles) == 6
        assert list(cache.disk_stats()["kinds"]) == ["explore"]


class TestStabilizeSweep:
    def test_sweep_matches_serial_reference(self, tmp_path):
        spec = stabilize_spec()
        reference = sweep_outcome_to_json(
            plan_sweep(spec),
            serial_sweep(spec, ResultCache(tmp_path / "serial")),
        )
        cache = ResultCache(tmp_path / "fabric")
        outcome = run_sweep(spec, tmp_path / "queue", cache, workers=1)
        assert outcome.cold_cells == 2
        assert (
            sweep_outcome_to_json(outcome.plan, outcome.results)
            == reference
        )

    def test_single_host_warm_store_claims_zero_cells(self, tmp_path):
        """A store warmed by ``cached_stabilize`` satisfies a sweep
        without recomputation."""
        spec = stabilize_spec()
        cache = ResultCache(tmp_path / "store")
        serial_results = serial_sweep(spec, cache)
        plan = plan_sweep(spec)
        warm, cold = sweep_split_warm_cold(plan, cache)
        assert cold == []
        assert len(warm) == 2
        outcome = run_sweep(spec, tmp_path / "queue", cache, workers=1)
        assert outcome.cold_cells == 0
        assert sum(s.claimed for s in outcome.worker_stats) == 0
        assert sweep_outcome_to_json(
            outcome.plan, outcome.results
        ) == sweep_outcome_to_json(plan, serial_results)

    def test_merge_names_a_missing_member(self, tmp_path):
        plan = plan_sweep(stabilize_spec())
        cache = ResultCache(tmp_path / "store")
        first, second = plan.cells
        execute_sweep_cell(first, cache)
        with pytest.raises(FabricError, match="1 of 2 sweep members missing"):
            merge_sweep(plan, cache, wait_timeout=0.0)
        execute_sweep_cell(second, cache)
        results = merge_sweep(plan, cache)
        assert list(results) == [first.result_key, second.result_key]

    def test_one_analysis_per_member(self, tmp_path, monkeypatch):
        from repro.resilience import stabilize

        analyzed = []
        analyze = stabilize.analyze_stabilization

        def counting_analyze(system, **kwargs):
            analyzed.append(kwargs["domain"])
            return analyze(system, **kwargs)

        monkeypatch.setattr(
            stabilize, "analyze_stabilization", counting_analyze
        )
        spec = perfbench_stabilize_spec()
        outcome = run_sweep(
            spec, tmp_path / "queue", ResultCache(tmp_path / "store"),
            workers=1,
        )
        assert outcome.cold_cells == spec.member_count == 4
        assert len(analyzed) == 4

    def test_sweep_leaves_only_stabilize_entries(self, tmp_path):
        spec = perfbench_stabilize_spec()
        cache = ResultCache(tmp_path / "store")
        run_sweep(spec, tmp_path / "queue", cache, workers=1)
        kinds = cache.disk_stats()["kinds"]
        assert list(kinds) == ["stabilize"]
        assert kinds["stabilize"]["entries"] == spec.member_count

    def test_two_workers_match_serial_reference(self, tmp_path):
        needs_fork()
        spec = perfbench_stabilize_spec()
        reference = sweep_outcome_to_json(
            plan_sweep(spec),
            serial_sweep(spec, ResultCache(tmp_path / "serial")),
        )
        outcome = run_sweep(
            spec, tmp_path / "queue", ResultCache(tmp_path / "fabric"),
            workers=2,
        )
        assert (
            sweep_outcome_to_json(outcome.plan, outcome.results)
            == reference
        )


class TestWorkerCrashRecovery:
    def test_abandoned_lease_requeues_and_bytes_match(self, tmp_path):
        spec = explore_spec()
        reference = sweep_outcome_to_json(
            plan_sweep(spec),
            serial_sweep(spec, ResultCache(tmp_path / "serial")),
        )
        plan = plan_sweep(spec)
        queue = WorkQueue(tmp_path / "queue", lease_timeout=0.1)
        queue.init(plan)
        for cell in plan.cells:
            assert queue.enqueue(cell.cell_id, cell=cell.to_dict())
        # A worker claims one cell and dies without heartbeating.
        crashed = queue.claim("crashed-worker")
        assert crashed is not None
        time.sleep(0.2)

        cache = ResultCache(tmp_path / "store")
        stats = FabricWorker(
            queue=queue, cache=cache, idle_timeout=10.0,
            worker_id="survivor",
        ).run()
        assert stats.requeued_leases >= 1
        assert queue.drained()
        assert queue.counts()["failed"] == 0
        results = merge_sweep(plan, cache)
        assert sweep_outcome_to_json(plan, results) == reference


class TestTicketWrites:
    def test_computed_sweep_cell_completes_by_rename(
        self, tmp_path, monkeypatch
    ):
        """The lease embeds the cell, so its kind needs no done ticket
        of its own: two ticket files per computed cell."""
        plan = plan_sweep(explore_spec())
        cell = plan.cells[0]
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
        queue.enqueue(cell.cell_id, cell=cell.to_dict())
        stats = FabricWorker(
            queue=queue, cache=ResultCache(tmp_path / "store")
        ).run()
        assert stats.computed == 1
        assert written == ["pending", "leased"]
        assert queue.kind_counts()["done"] == {"explore": 1}


class TestMalformedTickets:
    def test_malformed_embedded_cell_parks_as_failed(self, tmp_path):
        plan = plan_sweep(explore_spec())
        queue = WorkQueue(tmp_path / "queue", max_attempts=1)
        queue.init(plan)
        queue.enqueue("bogus-cell", cell={"kind": "explore", "junk": 1})
        cache = ResultCache(tmp_path / "store")
        stats = FabricWorker(
            queue=queue, cache=cache, idle_timeout=2.0
        ).run()
        assert stats.failed == 1
        (failed,) = queue.failed_tickets()
        assert failed["cell_id"] == "bogus-cell"
        assert "malformed embedded cell" in failed["error"]

    def test_forged_embedded_cell_id_parks_as_failed(self, tmp_path):
        plan = plan_sweep(explore_spec())
        queue = WorkQueue(tmp_path / "queue", max_attempts=1)
        queue.init(plan)
        cell = plan.cells[0]
        queue.enqueue("f" * 64, cell=cell.to_dict())
        cache = ResultCache(tmp_path / "store")
        stats = FabricWorker(
            queue=queue, cache=cache, idle_timeout=2.0
        ).run()
        assert stats.failed == 1
        (failed,) = queue.failed_tickets()
        assert "does not match ticket" in failed["error"]

    def test_shard_shaped_ticket_parks_as_failed(self, tmp_path):
        """A shard ticket left by an older planner is never executed."""
        plan = plan_sweep(stabilize_spec())
        cell = plan.cells[0]
        queue = WorkQueue(tmp_path / "queue", max_attempts=1)
        queue.init(plan)
        queue.enqueue(
            "0" * 64,
            cell={**cell.to_dict(), "cell_id": "0" * 64,
                  "shard_index": 0, "shard_count": 4},
        )
        cache = ResultCache(tmp_path / "store")
        stats = FabricWorker(
            queue=queue, cache=cache, idle_timeout=2.0
        ).run()
        assert stats.failed == 1 and stats.computed == 0
        (failed,) = queue.failed_tickets()
        assert "malformed embedded cell" in failed["error"]
        assert "shard_count" in failed["error"]
        assert cache.disk_stats()["entries"] == 0


class TestWarmProbe:
    def test_sweep_cell_warm_explore(self, tmp_path):
        cache = ResultCache(tmp_path)
        cell = plan_sweep(explore_spec()).cells[0]
        assert not sweep_cell_warm(cell, cache)
        execute_sweep_cell(cell, cache)
        assert sweep_cell_warm(cell, cache)

    def test_sweep_cell_warm_stabilize(self, tmp_path):
        """A member stored by the single-host path satisfies its cell."""
        spec = stabilize_spec()
        cache = ResultCache(tmp_path)
        cells = plan_sweep(spec).cells
        assert not any(sweep_cell_warm(cell, cache) for cell in cells)
        serial_sweep(spec, cache)
        for cell in cells:
            assert sweep_cell_warm(cell, cache)
            assert merge_stabilize_member(cell, cache) is not None
