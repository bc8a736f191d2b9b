"""Sweep planning: explore/stabilize grids -> content-addressed cells.

PR 8's fabric distributed *campaign* cells only; the heaviest workloads
-- exhaustive ``cached_explore`` family sweeps and ``cached_stabilize``
corrupted-start sets -- still ran on one host.  This module plans those
workloads onto the same queue/store machinery:

* A :class:`SweepSpec` names a grid of protocol x channel x input-family
  members plus the analysis knobs, for one of two kinds:

  - ``"explore"`` -- one cell per member, whose cell id *is* the
    member's :func:`~repro.analysis.cache.explore_report_key`;
  - ``"stabilize"`` -- one cell per member, whose cell id *is* the
    member's :func:`~repro.analysis.cache.stabilize_report_key`.

* :func:`plan_sweep` expands the spec into a :class:`SweepPlan` of
  :class:`SweepCell`\\ s.  Cells are **self-describing**: every field an
  executor needs travels in the cell (and is embedded in the queue
  ticket), so a worker can execute sweep cells without any bound plan --
  which is what lets the *service* enqueue cold explore/stabilize work
  into a shared queue for remote worker fleets to drain.

Because cell ids are the live cache fingerprints, warm-anywhere holds in
both directions: a sweep warmed by plain ``cached_explore`` /
``cached_stabilize`` calls yields zero claimed cells on re-run, and a
drained sweep answers later calls from the store.

The system builders here (:func:`build_explore_system` /
:func:`build_stabilize_system`) are the single source of truth shared
with :mod:`repro.service.requests`, so the service's job keys and the
sweep's cell ids can never drift apart.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.analysis.cache import (
    ResultCache,
    explore_report_key,
    fingerprint,
    stabilize_report_key,
)
from repro.fabric.spec import FabricError

#: Schema tag for sweep plans (distinct from the campaign
#: ``stp-fabric/1`` so queue plan files self-identify their kind).
SWEEP_SCHEMA = "stp-fabric-sweep/1"

#: The sweep cell kinds this module plans.
SWEEP_KINDS = ("explore", "stabilize")


def build_explore_system(
    protocol: str, channel: str, items: Tuple[str, ...]
):
    """The live :class:`System` an explore cell analyzes.

    Identical construction to the service's explore request (domain is
    the sorted distinct input items, both channel directions from the
    registry), so :func:`~repro.analysis.cache.explore_report_key` over
    this system equals the service job key for the same parameters.
    Unknown names raise :class:`FabricError` with a ``field`` attribute
    (``"protocol"`` / ``"channel"``) the service maps to a typed
    bad_request.
    """
    from repro.channels import channel_by_name
    from repro.kernel.system import System
    from repro.protocols import protocol_by_name

    items = tuple(items)
    domain = tuple(sorted(set(items))) or ("a",)
    try:
        sender, receiver = protocol_by_name(
            protocol, domain, max(len(items), 1)
        )
    except Exception:
        error = FabricError(f"unknown protocol {protocol!r}")
        error.field = "protocol"  # type: ignore[attr-defined]
        raise error from None
    try:
        return System(
            sender,
            receiver,
            channel_by_name(channel),
            channel_by_name(channel),
            items,
        )
    except Exception:
        error = FabricError(f"unknown channel {channel!r}")
        error.field = "channel"  # type: ignore[attr-defined]
        raise error from None


def build_stabilize_system(
    protocol: str,
    channel: str,
    items: Tuple[str, ...],
    domain: Tuple[str, ...],
    capacity: int = 1,
):
    """The live :class:`System` a stabilize cell analyzes.

    Mirrors the service's stabilize request construction exactly,
    including the bounded ``lossy-fifo`` special case: corrupted-start
    exploration needs a bounded channel, because an unbounded lossy
    queue's state space is infinite under retransmitting protocols.
    """
    from repro.channels import channel_by_name
    from repro.channels.fifo import LossyFifoChannel
    from repro.kernel.system import System
    from repro.protocols import protocol_by_name

    items = tuple(items)
    try:
        sender, receiver = protocol_by_name(
            protocol, tuple(domain), max(len(items), 1)
        )
    except Exception:
        error = FabricError(f"unknown protocol {protocol!r}")
        error.field = "protocol"  # type: ignore[attr-defined]
        raise error from None

    def make_channel():
        if channel == "lossy-fifo":
            return LossyFifoChannel(capacity=capacity)
        return channel_by_name(channel)

    try:
        return System(sender, receiver, make_channel(), make_channel(), items)
    except Exception:
        error = FabricError(f"unknown channel {channel!r}")
        error.field = "channel"  # type: ignore[attr-defined]
        raise error from None


@dataclass(frozen=True)
class SweepSpec:
    """A portable description of one explore/stabilize sweep grid.

    The grid is ``protocols x channels x inputs`` (every combination is
    one *member*, planned as one cell); the remaining fields are the
    analysis knobs, all part of each member's result fingerprint.
    ``domain`` adds extra data items to each stabilize member's data
    domain (the member domain is the sorted union of its input items
    and these extras, exactly the service's rule).

    ``shards`` is retired: it is still accepted and validated (>= 1),
    but the plan no longer depends on it.  Sharding a member's corrupt
    set made every cell re-run the member's whole preparation and a BFS
    reaching most of its illegitimate graph, so four shards cost
    3.6-5.2x one single-host analysis and the average shard cost about
    as much as the whole member: no worker count made a sharded member
    finish sooner.
    """

    kind: str
    protocols: Tuple[str, ...]
    channels: Tuple[str, ...]
    inputs: Tuple[Tuple[str, ...], ...]
    max_states: int = 100_000
    include_drops: bool = True
    corruption: str = "full"
    channel_depth: Optional[int] = None
    sample: Optional[int] = None
    seed: int = 0
    capacity: int = 1
    shards: int = 1
    domain: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in SWEEP_KINDS:
            raise FabricError(
                f"unknown sweep kind {self.kind!r}; known: {SWEEP_KINDS}"
            )
        object.__setattr__(self, "protocols", tuple(self.protocols))
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(
            self, "inputs", tuple(tuple(items) for items in self.inputs)
        )
        object.__setattr__(self, "domain", tuple(self.domain))
        if not (self.protocols and self.channels and self.inputs):
            raise FabricError(
                "a sweep needs at least one protocol, channel, and input"
            )
        if self.max_states <= 0:
            raise FabricError("max_states must be positive")
        if self.shards < 1:
            raise FabricError("shards must be >= 1")
        if self.capacity < 1:
            raise FabricError("capacity must be >= 1")

    @property
    def member_count(self) -> int:
        return len(self.protocols) * len(self.channels) * len(self.inputs)

    def member_domain(self, items: Tuple[str, ...]) -> Tuple[str, ...]:
        """A stabilize member's data domain (service rule, verbatim)."""
        return tuple(sorted(set(items) | set(self.domain))) or ("a",)

    def members(self):
        """``(protocol, channel, items)`` triples, protocol-major."""
        for protocol in self.protocols:
            for channel in self.channels:
                for items in self.inputs:
                    yield protocol, channel, items

    def to_dict(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "protocols": list(self.protocols),
            "channels": list(self.channels),
            "inputs": [list(items) for items in self.inputs],
            "max_states": self.max_states,
            "include_drops": self.include_drops,
            "corruption": self.corruption,
            "channel_depth": self.channel_depth,
            "sample": self.sample,
            "seed": self.seed,
            "capacity": self.capacity,
            "shards": self.shards,
            "domain": list(self.domain),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepSpec":
        known = {spec_field.name for spec_field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise FabricError(f"unknown SweepSpec fields: {unknown}")
        data = dict(payload)
        data["protocols"] = tuple(data.get("protocols", ()))
        data["channels"] = tuple(data.get("channels", ()))
        data["inputs"] = tuple(
            tuple(items) for items in data.get("inputs", ())
        )
        data["domain"] = tuple(data.get("domain", ()))
        return cls(**data)


@dataclass(frozen=True)
class SweepCell:
    """One self-describing unit of sweep work.

    ``cell_id`` is the cache fingerprint the cell's result is stored
    under -- the member's explore or stabilize report key -- and
    ``result_key`` repeats it as the member's address.  Every analysis
    knob rides along, so an executor reconstructs the system, recomputes
    the key, and refuses a cell whose id does not match its parameters.
    """

    cell_id: str
    kind: str
    protocol: str
    channel: str
    input_sequence: Tuple[str, ...]
    result_key: str
    max_states: int = 100_000
    include_drops: bool = True
    corruption: str = "full"
    channel_depth: Optional[int] = None
    sample: Optional[int] = None
    seed: int = 0
    capacity: int = 1
    domain: Tuple[str, ...] = field(default_factory=tuple)

    def to_dict(self) -> Dict[str, object]:
        """The JSON form embedded in queue tickets and plan files."""
        return {
            "cell_id": self.cell_id,
            "kind": self.kind,
            "protocol": self.protocol,
            "channel": self.channel,
            "input": list(self.input_sequence),
            "result_key": self.result_key,
            "max_states": self.max_states,
            "include_drops": self.include_drops,
            "corruption": self.corruption,
            "channel_depth": self.channel_depth,
            "sample": self.sample,
            "seed": self.seed,
            "capacity": self.capacity,
            "domain": list(self.domain),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepCell":
        data = dict(payload)
        data["input_sequence"] = tuple(data.pop("input", ()))
        data["domain"] = tuple(data.get("domain", ()))
        known = {cell_field.name for cell_field in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise FabricError(f"unknown SweepCell fields: {unknown}")
        return cls(**data)


@dataclass(frozen=True)
class SweepPlan:
    """The deterministic decomposition of one sweep.

    Attributes:
        spec: the portable sweep description.
        cells: one cell per member, in member order (protocol-major,
            then channel, then input) -- the order the merge step
            reassembles.
        plan_fingerprint: binds queue tickets to this exact plan.
    """

    spec: SweepSpec
    cells: Tuple[SweepCell, ...]
    plan_fingerprint: str

    def cell_by_id(self, cell_id: str) -> Optional[SweepCell]:
        for cell in self.cells:
            if cell.cell_id == cell_id:
                return cell
        return None

    def members(self) -> List[Tuple[str, str, Tuple[str, ...], str]]:
        """``(protocol, channel, items, result_key)`` in plan order."""
        seen: Dict[str, Tuple[str, str, Tuple[str, ...], str]] = {}
        for cell in self.cells:
            if cell.result_key not in seen:
                seen[cell.result_key] = (
                    cell.protocol,
                    cell.channel,
                    cell.input_sequence,
                    cell.result_key,
                )
        return list(seen.values())

    def member_cells(self, result_key: str) -> Tuple[SweepCell, ...]:
        """The cells computing one member's result."""
        return tuple(
            cell for cell in self.cells if cell.result_key == result_key
        )

    def to_dict(self) -> Dict[str, object]:
        """The JSON form written into a queue's ``plan.json``."""
        return {
            "schema": SWEEP_SCHEMA,
            "spec": self.spec.to_dict(),
            "plan_fingerprint": self.plan_fingerprint,
            "cells": [cell.to_dict() for cell in self.cells],
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SweepPlan":
        if payload.get("schema") != SWEEP_SCHEMA:
            raise FabricError(
                f"unsupported sweep plan schema {payload.get('schema')!r}"
            )
        spec = SweepSpec.from_dict(payload["spec"])  # type: ignore[arg-type]
        cells = tuple(
            SweepCell.from_dict(item)
            for item in payload["cells"]  # type: ignore[index]
        )
        return cls(
            spec=spec,
            cells=cells,
            plan_fingerprint=payload[
                "plan_fingerprint"
            ],  # type: ignore[arg-type]
        )


def plan_sweep(spec: SweepSpec) -> SweepPlan:
    """Expand ``spec`` into content-addressed sweep cells.

    Pure and deterministic: equal specs produce byte-equal plans on any
    host, and each cell id is computed by the same key function the
    result cache (and the service coalescer) uses -- so planning *is*
    the warm probe's address book.
    """
    cells: List[SweepCell] = []
    for protocol, channel, items in spec.members():
        knobs: Dict[str, Any] = {}
        if spec.kind == "explore":
            system = build_explore_system(protocol, channel, items)
            report_key = explore_report_key(
                system,
                max_states=spec.max_states,
                include_drops=spec.include_drops,
            )
        else:
            domain = spec.member_domain(items)
            system = build_stabilize_system(
                protocol, channel, items, domain, capacity=spec.capacity
            )
            report_key = stabilize_report_key(
                system,
                max_states=spec.max_states,
                include_drops=spec.include_drops,
                corruption=spec.corruption,
                channel_depth=spec.channel_depth,
                sample=spec.sample,
                seed=spec.seed,
                domain=domain,
            )
            knobs = dict(
                corruption=spec.corruption,
                channel_depth=spec.channel_depth,
                sample=spec.sample,
                seed=spec.seed,
                capacity=spec.capacity,
                domain=domain,
            )
        cells.append(
            SweepCell(
                cell_id=report_key,
                kind=spec.kind,
                protocol=protocol,
                channel=channel,
                input_sequence=items,
                result_key=report_key,
                max_states=spec.max_states,
                include_drops=spec.include_drops,
                **knobs,
            )
        )
    plan_fingerprint = fingerprint(
        "sweep-plan",
        SWEEP_SCHEMA,
        spec.to_dict(),
        tuple(cell.cell_id for cell in cells),
    )
    return SweepPlan(
        spec=spec,
        cells=tuple(cells),
        plan_fingerprint=plan_fingerprint,
    )


def sweep_split_warm_cold(
    plan: SweepPlan, cache: ResultCache
) -> Tuple[List[SweepCell], List[SweepCell]]:
    """Partition the plan's cells into (warm, cold) against ``cache``.

    A cell is warm when its member's result is stored, whichever path
    stored it -- a fabric worker, ``serial_sweep`` or a plain
    ``cached_explore`` / ``cached_stabilize`` call.
    """
    from repro.fabric.cells import sweep_cell_warm

    warm: List[SweepCell] = []
    cold: List[SweepCell] = []
    for cell in plan.cells:
        if sweep_cell_warm(cell, cache):
            warm.append(cell)
        else:
            cold.append(cell)
    return warm, cold


def demo_sweep_spec(
    kind: str = "explore",
    members: int = 6,
    length: int = 4,
    max_states: int = 150_000,
) -> SweepSpec:
    """A small deterministic sweep for CLI demos, CI smoke, and benches.

    ``explore``: repetition-free prefixes of a ``length``-item alphabet
    over two protocols (member count = ``2 * min(members, length)``).
    ``stabilize``: abp and ss-arq on the bounded lossy-fifo
    corrupted-start instance with input ``ab`` -- two members, so two
    workers drain them in parallel.
    """
    if kind == "stabilize":
        return SweepSpec(
            kind="stabilize",
            protocols=("abp", "ss-arq"),
            channels=("lossy-fifo",),
            inputs=(("a", "b"),),
            max_states=max_states,
        )
    alphabet = tuple(chr(ord("a") + i) for i in range(length))
    prefixes = tuple(
        alphabet[: length - offset]
        for offset in range(min(members, length))
    )
    return SweepSpec(
        kind="explore",
        protocols=("norepeat", "stenning"),
        channels=("dup",),
        inputs=prefixes,
        max_states=max_states,
    )


__all__ = [
    "SWEEP_SCHEMA",
    "SWEEP_KINDS",
    "SweepSpec",
    "SweepCell",
    "SweepPlan",
    "plan_sweep",
    "sweep_split_warm_cold",
    "build_explore_system",
    "build_stabilize_system",
    "demo_sweep_spec",
]
