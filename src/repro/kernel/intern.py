"""Compact state interning (collapse compression) for state-space engines.

The explorer and the compiled kernel visit up to millions of global
configurations.  Keeping every :class:`~repro.kernel.system.Configuration`
object alive in a visited structure costs hundreds of bytes per state (a
dataclass, its ``__dict__``, and the object graphs of two channel states
and the output tape).  :class:`ConfigurationInterner` applies
collapse-style compression (the technique model checkers like SPIN use):
each of a configuration's five components -- sender state, receiver
state, the two channel states, and the output tape -- is interned once
into a per-component table, and a configuration's canonical *key* is the
tuple of its five component ids.

Why this is both exact and fast:

* two configurations are equal iff their five components are pairwise
  equal, iff they receive identical component ids, iff their keys are
  equal -- component tables are ordinary dicts, so equality is
  Python's own ``==`` (no dependence on set iteration order or on any
  hand-rolled serialization being injective);
* components are shared massively across states (the reachable space is
  close to a cross product of per-component spaces), so the tables stay
  tiny relative to the state count and each distinct component object is
  retained exactly once;
* the per-state footprint of the visited set is one 5-tuple of shared
  small ints plus a dense integer id, independent of how large the
  configuration is.

This module lives in the kernel so that :mod:`repro.kernel.compiled` can
use it without inverting the layering (kernel depends on nothing).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from repro.kernel.system import ALL_FIELDS, Configuration

#: A configuration's canonical key: its five component ids, in field order.
Key = Tuple[int, ...]


class ConfigurationInterner:
    """Dense integer ids for configurations, via per-component collapse.

    Ids are assigned in discovery order, so BFS layers map to contiguous
    id ranges and parent links always point backwards.

    Besides whole configurations, single components can be interned
    (:meth:`component_id`) and read back (:meth:`component`), states
    looked up by their key (:attr:`state_ids`, :meth:`ensure_key`) and
    keys decoded back (:meth:`decode`).  So a caller that knows how each
    component changes -- the compiled kernel's factored transition memo,
    which composes a successor's key from memoized per-component steps
    -- never has to build or hash a :class:`Configuration` to find a
    state.
    """

    __slots__ = ("_components", "_values", "_ids")

    def __init__(self) -> None:
        # One table per Configuration field: value -> small id, and back.
        self._components: Tuple[Dict, ...] = ({}, {}, {}, {}, {})
        self._values: Tuple[List, ...] = ([], [], [], [], [])
        self._ids: Dict[Key, int] = {}

    def component_id(self, field: int, part: Hashable) -> int:
        """The id of ``part`` as a value of ``field`` (interned)."""
        table = self._components[field]
        part_id = table.get(part)
        if part_id is None:
            part_id = len(table)
            table[part] = part_id
            self._values[field].append(part)
        return part_id

    def component(self, field: int, part_id: int) -> Hashable:
        """The value of ``field`` whose id is ``part_id``."""
        return self._values[field][part_id]

    def key(self, config: Configuration) -> Key:
        """The canonical key of ``config`` (interns its components)."""
        # component_id inlined: calling it per field doubled key()'s cost.
        parts = config.components()
        ids = []
        for field in ALL_FIELDS:
            part = parts[field]
            table = self._components[field]
            part_id = table.get(part)
            if part_id is None:
                part_id = len(table)
                table[part] = part_id
                self._values[field].append(part)
            ids.append(part_id)
        return tuple(ids)

    def decode(self, key: Key) -> Configuration:
        """The configuration whose components have the ids in ``key``."""
        return Configuration(*map(list.__getitem__, self._values, key))

    @property
    def state_ids(self) -> Dict[Key, int]:
        """Key -> dense id of every state so far (add with :meth:`ensure_key`)."""
        return self._ids

    def ensure_key(self, key: Key) -> Tuple[int, bool]:
        """The dense id of the state with ``key``, plus whether it is new."""
        existing = self._ids.get(key)
        if existing is not None:
            return existing, False
        new_id = len(self._ids)
        self._ids[key] = new_id
        return new_id, True

    def intern(self, config: Configuration) -> Optional[int]:
        """Assign the next dense id to ``config``; None if already seen."""
        state_id, is_new = self.ensure_key(self.key(config))
        return state_id if is_new else None

    def __contains__(self, config: Configuration) -> bool:
        return self.key(config) in self._ids

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def component_counts(self) -> Tuple[int, ...]:
        """Distinct (sender, receiver, chan_sr, chan_rs, output) counts."""
        return tuple(len(table) for table in self._components)
