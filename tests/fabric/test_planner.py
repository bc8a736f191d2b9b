"""Tests for the spec and cell planner (repro.fabric.spec / .planner)."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.cache import ResultCache
from repro.fabric.planner import (
    CAMPAIGN_CELL_KIND,
    FabricPlan,
    plan_cells,
    split_warm_cold,
)
from repro.fabric.spec import FabricError, FabricSpec, demo_spec

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


class TestFabricSpec:
    def test_validation(self):
        with pytest.raises(FabricError, match="adversary"):
            FabricSpec("norepeat", "dup", (("a",),), adversary="chaotic")
        with pytest.raises(FabricError, match="input"):
            FabricSpec("norepeat", "dup", ())
        with pytest.raises(FabricError, match="seeds"):
            FabricSpec("norepeat", "dup", (("a",),), seeds=0)

    def test_inputs_normalize_to_tuples(self):
        spec = FabricSpec("norepeat", "dup", [["a", "b"], ["b"]])
        assert spec.inputs == (("a", "b"), ("b",))

    def test_domain_and_cell_count(self):
        spec = FabricSpec("norepeat", "dup", (("b", "a"), ("c",)), seeds=3)
        assert spec.domain == ("a", "b", "c")
        assert spec.cell_count == 6

    def test_to_dict_roundtrip(self):
        spec = demo_spec()
        assert FabricSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        payload = demo_spec().to_dict()
        payload["surprise"] = 1
        with pytest.raises(FabricError, match="surprise"):
            FabricSpec.from_dict(payload)

    def test_build_campaign_matches_spec(self):
        spec = demo_spec(inputs=2, seeds=3)
        campaign = spec.build_campaign()
        assert len(campaign.inputs) == 2
        assert campaign.seeds == 3
        assert campaign.max_steps == spec.max_steps

    def test_demo_spec_has_at_least_twelve_cells(self):
        assert demo_spec().cell_count >= 12


class TestPlanCells:
    def test_cells_cover_grid_in_order(self):
        spec = demo_spec(inputs=2, seeds=2)
        plan = plan_cells(spec)
        coordinates = [
            (cell.input_sequence, cell.seed) for cell in plan.cells
        ]
        assert coordinates == spec.build_campaign().grid_keys()

    def test_cell_ids_are_campaign_run_keys(self):
        """The identity choice the whole fabric rides on."""
        spec = demo_spec(inputs=2, seeds=1)
        plan = plan_cells(spec, rng_seed=3, rng_path="p")
        campaign = spec.build_campaign()
        rng = plan.rng
        for cell in plan.cells:
            assert cell.cell_id == campaign.run_key(
                rng, (cell.input_sequence, cell.seed)
            )

    def test_plan_is_deterministic(self):
        one = plan_cells(demo_spec())
        two = plan_cells(demo_spec())
        assert one == two
        assert one.plan_fingerprint == two.plan_fingerprint

    def test_plan_is_deterministic_across_processes(self):
        """Byte-equal plans from a fresh interpreter: what lets cells
        computed anywhere warm the shared store for everyone."""
        parent = plan_cells(demo_spec()).plan_fingerprint
        result = subprocess.run(
            [
                sys.executable,
                "-c",
                "from repro.fabric import demo_spec, plan_cells;"
                "print(plan_cells(demo_spec()).plan_fingerprint)",
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == parent

    def test_rng_identity_changes_the_plan(self):
        base = plan_cells(demo_spec(), rng_seed=0)
        reseeded = plan_cells(demo_spec(), rng_seed=1)
        repathed = plan_cells(demo_spec(), rng_path="other")
        assert base.plan_fingerprint != reseeded.plan_fingerprint
        assert base.plan_fingerprint != repathed.plan_fingerprint

    def test_spec_changes_the_plan(self):
        assert (
            plan_cells(demo_spec()).plan_fingerprint
            != plan_cells(demo_spec(seeds=3)).plan_fingerprint
        )

    def test_to_dict_roundtrip(self):
        plan = plan_cells(demo_spec())
        assert FabricPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_wrong_schema(self):
        payload = plan_cells(demo_spec()).to_dict()
        payload["schema"] = "stp-fabric/99"
        with pytest.raises(FabricError, match="schema"):
            FabricPlan.from_dict(payload)

    def test_cell_by_id(self):
        plan = plan_cells(demo_spec())
        cell = plan.cells[3]
        assert plan.cell_by_id(cell.cell_id) == cell
        assert plan.cell_by_id("nope") is None


class TestSplitWarmCold:
    def test_everything_cold_on_empty_store(self, tmp_path):
        plan = plan_cells(demo_spec(inputs=2, seeds=1))
        warm, cold = split_warm_cold(plan, ResultCache(tmp_path))
        assert warm == []
        assert list(cold) == list(plan.cells)

    def test_serial_campaign_warms_the_fabric(self, tmp_path):
        """A cell cached by a plain Campaign.run is warm for the fabric --
        same kind, same key, same store."""
        spec = demo_spec(inputs=2, seeds=1)
        cache = ResultCache(tmp_path)
        plan = plan_cells(spec)
        campaign = spec.build_campaign(cache=cache)
        campaign.run(plan.rng)
        warm, cold = split_warm_cold(plan, cache)
        assert cold == []
        assert list(warm) == list(plan.cells)
        assert all(
            cache.get(CAMPAIGN_CELL_KIND, cell.cell_id) is not None
            for cell in warm
        )
