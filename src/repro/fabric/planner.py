"""The deterministic cell planner: campaign grid -> content-addressed cells.

This module plans the fabric's original cell kind -- **campaign** cells,
one per ``(input, seed)`` grid point of a
:class:`~repro.fabric.spec.FabricSpec`; the sweep kinds (``explore`` /
``stabilize``, planned from a :class:`~repro.fabric.sweep.SweepSpec`)
live in :mod:`repro.fabric.sweep`, and :mod:`repro.fabric.cells` is the
registry that names them all.  Every kind shares one identity
discipline: a cell's id is the sha256 fingerprint its result is cached
under -- here, the same fingerprint
:class:`~repro.analysis.campaign.Campaign` already uses to memoize
per-cell :class:`RunMetrics` (:meth:`Campaign.run_key`).  That identity
choice does all the heavy lifting:

* a cell that any prior run -- serial, parallel, fabric, another host --
  has completed is **warm in the shared store** and is never recomputed;
* the merge step can read every cell's result back by fingerprint and
  reassemble the outcome in grid order, bit-identical to a serial
  :meth:`Campaign.run`;
* planning is a pure function of ``(spec, rng identity)``: two planners
  anywhere produce byte-equal plans, so any worker can validate that a
  queue ticket belongs to the plan it loaded.

The plan fingerprint binds a work queue to one exact grid + RNG
identity; a worker refuses tickets from a plan it did not load, the
same refusal discipline as the resilient runner's checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.analysis.cache import ResultCache, fingerprint
from repro.fabric.spec import FABRIC_SCHEMA, FabricSpec
from repro.kernel.rng import DeterministicRNG

#: Cache kind under which *campaign* cell results are stored -- the
#: same kind ``Campaign.run`` uses, deliberately.  (Explore and
#: stabilize sweep cells store under their own kinds; see
#: :mod:`repro.fabric.cells` for the full kind registry.)
CAMPAIGN_CELL_KIND = "run"

#: Cache kind for whole merged campaign outcomes, keyed by the plan
#: fingerprint.  The service front-end (:mod:`repro.service`) publishes
#: the merged outcome here beside the per-cell
#: :data:`CAMPAIGN_CELL_KIND` entries, so a repeated campaign request is
#: answered from the store without re-planning or re-merging.
CAMPAIGN_OUTCOME_KIND = "campaign"


@dataclass(frozen=True)
class WorkCell:
    """One content-addressed unit of campaign work.

    Attributes:
        cell_id: sha256 fingerprint of everything the cell's result
            depends on (protocol pair, factories, budget, RNG identity,
            input, seed) -- identical to the campaign cache key.
        input_sequence / seed: the grid coordinates.
    """

    cell_id: str
    input_sequence: Tuple
    seed: int


@dataclass(frozen=True)
class FabricPlan:
    """The deterministic decomposition of one campaign sweep.

    Attributes:
        spec: the portable campaign description.
        rng_seed / rng_path: the campaign RNG identity.
        cells: every grid cell, in grid order (input-major, then seed)
            -- the order the merge step reassembles.
        plan_fingerprint: binds queue tickets to this exact plan.
    """

    spec: FabricSpec
    rng_seed: int
    rng_path: str
    cells: Tuple[WorkCell, ...]
    plan_fingerprint: str

    @property
    def rng(self) -> DeterministicRNG:
        return DeterministicRNG(self.rng_seed, self.rng_path)

    def cell_by_id(self, cell_id: str) -> Optional[WorkCell]:
        for cell in self.cells:
            if cell.cell_id == cell_id:
                return cell
        return None

    def to_dict(self) -> Dict[str, object]:
        """The JSON form written into a queue's ``plan.json``."""
        return {
            "schema": FABRIC_SCHEMA,
            "spec": self.spec.to_dict(),
            "rng_seed": self.rng_seed,
            "rng_path": self.rng_path,
            "plan_fingerprint": self.plan_fingerprint,
            "cells": [
                {
                    "cell_id": cell.cell_id,
                    "input": list(cell.input_sequence),
                    "seed": cell.seed,
                }
                for cell in self.cells
            ],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "FabricPlan":
        from repro.fabric.spec import FabricError

        if payload.get("schema") != FABRIC_SCHEMA:
            raise FabricError(
                f"unsupported fabric plan schema {payload.get('schema')!r}"
            )
        spec = FabricSpec.from_dict(payload["spec"])  # type: ignore[arg-type]
        cells = tuple(
            WorkCell(
                cell_id=item["cell_id"],
                input_sequence=tuple(item["input"]),
                seed=item["seed"],
            )
            for item in payload["cells"]  # type: ignore[index]
        )
        return cls(
            spec=spec,
            rng_seed=payload["rng_seed"],  # type: ignore[arg-type]
            rng_path=payload["rng_path"],  # type: ignore[arg-type]
            cells=cells,
            plan_fingerprint=payload[
                "plan_fingerprint"
            ],  # type: ignore[arg-type]
        )


def plan_cells(
    spec: FabricSpec, rng_seed: int = 0, rng_path: str = "fabric"
) -> FabricPlan:
    """Split ``spec``'s grid into content-addressed work cells.

    Pure and deterministic: equal ``(spec, rng_seed, rng_path)`` produce
    byte-equal plans on any host.
    """
    campaign = spec.build_campaign()
    rng = DeterministicRNG(rng_seed, rng_path)
    cells = tuple(
        WorkCell(
            cell_id=campaign.run_key(rng, key),
            input_sequence=key[0],
            seed=key[1],
        )
        for key in campaign.grid_keys()
    )
    plan_fingerprint = fingerprint(
        "fabric-plan",
        FABRIC_SCHEMA,
        spec.to_dict(),
        rng_seed,
        rng_path,
        tuple(cell.cell_id for cell in cells),
    )
    return FabricPlan(
        spec=spec,
        rng_seed=rng_seed,
        rng_path=rng_path,
        cells=cells,
        plan_fingerprint=plan_fingerprint,
    )


def split_warm_cold(
    plan: FabricPlan, cache: ResultCache
) -> Tuple[List[WorkCell], List[WorkCell]]:
    """Partition the plan's cells into (warm, cold) against ``cache``.

    A warm cell's result already sits in the shared store -- planned
    around, never recomputed.  The probe uses :meth:`ResultCache.get`,
    so hit/miss accounting stays truthful.
    """
    warm: List[WorkCell] = []
    cold: List[WorkCell] = []
    for cell in plan.cells:
        if cache.get(CAMPAIGN_CELL_KIND, cell.cell_id) is not None:
            warm.append(cell)
        else:
            cold.append(cell)
    return warm, cold
