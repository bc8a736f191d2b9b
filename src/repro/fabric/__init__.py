"""repro.fabric: the distributed campaign fabric.

Splits a campaign into content-addressed work cells, coordinates any
number of pull-based workers through a crash-safe file-backed queue on a
shared directory, publishes per-cell results into the pluggable result
store, and merges them back into a :class:`CampaignOutcome` proven
bit-identical to a serial :meth:`Campaign.run`.

The pieces, importable a la carte:

* :mod:`repro.fabric.store` -- the :class:`CacheStore` byte-store
  contract behind :class:`~repro.analysis.cache.ResultCache`
  (local directory today, shared-FS / object-store shims tomorrow);
* :mod:`repro.fabric.spec` -- :class:`FabricSpec`, the JSON-portable
  registry-named campaign description;
* :mod:`repro.fabric.planner` -- :func:`plan_cells`, the deterministic
  grid -> cell decomposition keyed by campaign cache fingerprints;
* :mod:`repro.fabric.sweep` -- :class:`SweepSpec` / :func:`plan_sweep`,
  the explore/stabilize family -> cell decomposition;
* :mod:`repro.fabric.cells` -- the typed cell-kind registry and the
  sweep-cell executors (one cell per member, one stored result each);
* :mod:`repro.fabric.queue` -- :class:`WorkQueue`, lease/claim/
  heartbeat/requeue via atomic renames, no server;
* :mod:`repro.fabric.worker` -- :class:`FabricWorker`, the pull loop;
* :mod:`repro.fabric.merge` -- :func:`merge_outcome` /
  :func:`merge_sweep` and the canonical JSON reports;
* :mod:`repro.fabric.coordinator` -- :func:`run_fabric` /
  :func:`run_sweep`, the one-host N-worker convenience wrappers.

Attribute access is lazy (PEP 562): :mod:`repro.analysis.cache` imports
:mod:`repro.fabric.store` at module load, which executes this package
``__init__`` -- eager re-exports of the coordinator would import the
cache module back mid-initialization.
"""

from typing import Dict, Tuple

_EXPORTS: Dict[str, str] = {
    # store
    "CacheStore": "repro.fabric.store",
    "LocalDirStore": "repro.fabric.store",
    "MemoryStore": "repro.fabric.store",
    "StoreEntry": "repro.fabric.store",
    "open_store": "repro.fabric.store",
    # spec
    "ADVERSARY_NAMES": "repro.fabric.spec",
    "FABRIC_SCHEMA": "repro.fabric.spec",
    "FabricError": "repro.fabric.spec",
    "FabricSpec": "repro.fabric.spec",
    "demo_spec": "repro.fabric.spec",
    # planner
    "CAMPAIGN_CELL_KIND": "repro.fabric.planner",
    "CAMPAIGN_OUTCOME_KIND": "repro.fabric.planner",
    "FabricPlan": "repro.fabric.planner",
    "WorkCell": "repro.fabric.planner",
    "plan_cells": "repro.fabric.planner",
    "split_warm_cold": "repro.fabric.planner",
    # sweep
    "SWEEP_SCHEMA": "repro.fabric.sweep",
    "SWEEP_KINDS": "repro.fabric.sweep",
    "SweepCell": "repro.fabric.sweep",
    "SweepPlan": "repro.fabric.sweep",
    "SweepSpec": "repro.fabric.sweep",
    "build_explore_system": "repro.fabric.sweep",
    "build_stabilize_system": "repro.fabric.sweep",
    "demo_sweep_spec": "repro.fabric.sweep",
    "plan_sweep": "repro.fabric.sweep",
    "sweep_split_warm_cold": "repro.fabric.sweep",
    # cells
    "CELL_KINDS": "repro.fabric.cells",
    "CellKindSpec": "repro.fabric.cells",
    "cell_kind": "repro.fabric.cells",
    "execute_sweep_cell": "repro.fabric.cells",
    "kind_of_ticket": "repro.fabric.cells",
    "merge_stabilize_member": "repro.fabric.cells",
    "sweep_cell_warm": "repro.fabric.cells",
    # queue
    "WorkQueue": "repro.fabric.queue",
    "default_worker_id": "repro.fabric.queue",
    # worker
    "FabricWorker": "repro.fabric.worker",
    "WorkerStats": "repro.fabric.worker",
    "run_worker": "repro.fabric.worker",
    # merge
    "merge_outcome": "repro.fabric.merge",
    "merge_sweep": "repro.fabric.merge",
    "outcome_to_json": "repro.fabric.merge",
    "sweep_outcome_to_json": "repro.fabric.merge",
    # coordinator
    "FabricResult": "repro.fabric.coordinator",
    "SweepResult": "repro.fabric.coordinator",
    "run_fabric": "repro.fabric.coordinator",
    "run_sweep": "repro.fabric.coordinator",
    "serial_sweep": "repro.fabric.coordinator",
}

__all__: Tuple[str, ...] = tuple(sorted(_EXPORTS))


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(
            f"module 'repro.fabric' has no attribute {name!r}"
        )
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
