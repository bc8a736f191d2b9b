"""Content-addressed on-disk result cache.

Repeated experiments, campaign grid cells, and CI runs keep recomputing
identical work: the same (protocol, channel, input, caps) system is
explored again, the same seeded run is simulated again.  Every such unit
is a pure function of its inputs (the determinism policy), so its result
can be cached *by content*: the cache key is a canonical fingerprint of
everything the result depends on, and a hit is returned verbatim --
bit-identical to recomputation, because recomputation itself is
deterministic.

Three layers use this module:

* :func:`cached_explore` -- :class:`~repro.verify.explorer.ExplorationReport`
  keyed by (protocol, channel, input, caps); the compiled transition
  table it searched is not stored;
* :class:`repro.analysis.campaign.Campaign` with ``cache=`` -- per-grid-cell
  :class:`~repro.analysis.metrics.RunMetrics` keyed by (campaign spec,
  RNG identity, input, seed);
* the T2/T4/F2 experiments, through :func:`cached_explore` with the
  ``cache=`` they are given; the service reports the hit / miss counts
  in its ``stats`` answer.

:func:`cached_stabilize` extends the same scheme to corrupted-start
analysis: the report key pins everything the corrupt initial set and its
verdicts depend on, and the stored
:class:`~repro.resilience.stabilize.StabilizationResult` carries the
corrupt-set fingerprint it was computed from.

Fingerprints are SHA-256 over a *canonical form*: primitives by value,
containers recursively (sets sorted), objects by class identity plus
attribute dict, functions by qualified name plus defaults and closure
contents.  Anything that cannot be canonicalized stably (process
addresses in default reprs, for instance) degrades to a cache **miss**,
never to a false hit on differing inputs.  The canonical form never uses
Python's ``hash()`` (which is per-process salted).

Storage is pluggable (:mod:`repro.fabric.store`): the cache pickles
values and hands the bytes to a :class:`~repro.fabric.store.CacheStore`.
The default is a :class:`~repro.fabric.store.LocalDirStore` rooted at
``$STP_REPRO_CACHE`` or ``~/.cache/stp-repro`` with the historical
layout ``<root>/<kind>/<first two key hex chars>/<key>.pkl``; any
shared-filesystem directory (or, later, an object-store shim) makes the
same cache a multi-worker fabric's shared memory.  Writes are atomic
and concurrency-safe -- many processes may ``put`` the same key -- and
a corrupt or unreadable entry reads as a miss.  ``ResultCache.wipe()``
(or ``rm -rf`` on the root) invalidates everything; bumping
:data:`CACHE_SCHEMA` does so implicitly whenever the result formats
change.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import types
from pathlib import Path
from typing import Optional

from repro import obs
from repro.fabric.store import CacheStore, LocalDirStore, open_store

#: Version salt mixed into every fingerprint.  Bump on any change to the
#: canonical form or to the pickled result layouts.
CACHE_SCHEMA = "stp-repro-cache/1"

#: Environment variable overriding the default cache root.
CACHE_ENV_VAR = "STP_REPRO_CACHE"

#: The values the retired ``engine`` keyword still accepts, and ignores.
#: Exploration has one fast engine and stabilization one search; the
#: keyword survives because the benchmark in ``perfbench/`` passes it.
RETIRED_ENGINE_NAMES = ("scalar", "batched")


def _default_root() -> Path:
    override = os.environ.get(CACHE_ENV_VAR)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "stp-repro"


def canonical(value, _depth: int = 0) -> str:
    """A deterministic, process-independent encoding of ``value``.

    Injective on the value shapes this library feeds it (primitives,
    containers, frozen dataclasses, protocol/channel objects, factory
    closures); unknown object kinds fall back to ``repr`` -- if that repr
    embeds a memory address the fingerprint simply never repeats, which
    is a miss, not a wrong hit.
    """
    if _depth > 50:
        raise ValueError("canonical() recursion depth exceeded (cyclic value?)")
    if value is None or isinstance(value, (bool, int, float, str, bytes)):
        return f"{type(value).__name__}:{value!r}"
    if isinstance(value, (tuple, list)):
        inner = ",".join(canonical(item, _depth + 1) for item in value)
        return f"{type(value).__name__}[{inner}]"
    if isinstance(value, (set, frozenset)):
        inner = ",".join(sorted(canonical(item, _depth + 1) for item in value))
        return f"{type(value).__name__}{{{inner}}}"
    if isinstance(value, dict):
        pairs = sorted(
            (canonical(k, _depth + 1), canonical(v, _depth + 1))
            for k, v in value.items()
        )
        inner = ",".join(f"{k}={v}" for k, v in pairs)
        return f"dict{{{inner}}}"
    if isinstance(value, types.FunctionType):
        cells = (
            tuple(cell.cell_contents for cell in value.__closure__)
            if value.__closure__
            else ()
        )
        code = value.__code__
        # Sibling lambdas share the qualname "<lambda>"; the line number
        # and body digest keep their fingerprints distinct.
        return (
            f"fn:{value.__module__}.{value.__qualname__}"
            f"@{code.co_firstlineno}#{_code_digest(code)}"
            f"(defaults={canonical(value.__defaults__, _depth + 1)},"
            f"closure={canonical(cells, _depth + 1)})"
        )
    if isinstance(value, type):
        return f"class:{value.__module__}.{value.__qualname__}"
    # RNG identity is (seed, path); its internal Mersenne state is derived.
    from repro.kernel.rng import DeterministicRNG

    if isinstance(value, DeterministicRNG):
        return f"rng:({value.seed},{value.path!r})"
    label = f"{type(value).__module__}.{type(value).__qualname__}"
    state = getattr(value, "__dict__", None)
    if state is not None:
        return f"obj:{label}({canonical(state, _depth + 1)})"
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        attrs = {
            name: getattr(value, name)
            for name in slots
            # Per-process salted values (cached hash() results) must never
            # leak into a fingerprint.
            if hasattr(value, name) and "hash" not in name
        }
        return f"obj:{label}({canonical(attrs, _depth + 1)})"
    return f"opaque:{label}:{value!r}"


def _code_digest(code) -> str:
    """A process-stable digest of a code object's behaviour.

    Bytecode alone is not enough: two lambdas differing only in a literal
    share identical ``co_code`` (the literal lives in ``co_consts``), so
    constants and referenced names are folded in.  Nested code objects
    (inner functions) recurse instead of hitting ``repr``, whose memory
    address would never repeat.
    """
    digest = hashlib.sha256(code.co_code)
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            digest.update(_code_digest(const).encode())
        else:
            digest.update(canonical(const).encode())
    digest.update(repr(code.co_names).encode())
    return digest.hexdigest()[:16]


def fingerprint(*parts) -> str:
    """The SHA-256 content address of ``parts`` under :data:`CACHE_SCHEMA`."""
    encoded = canonical((CACHE_SCHEMA,) + parts)
    return hashlib.sha256(encoded.encode()).hexdigest()


def system_fingerprint(system) -> str:
    """Canonical fingerprint of a :class:`~repro.kernel.system.System`.

    Covers the protocol pair (class + configuration), both channel models
    (class + caps such as ``max_copies`` / ``capacity``), and the input
    sequence -- the full identity of the transition relation.
    """
    return fingerprint(
        "system",
        system.sender,
        system.receiver,
        system.channel_sr,
        system.channel_rs,
        system.input_sequence,
    )


def explore_report_key(
    system,
    max_states: int = 1_000_000,
    include_drops: bool = True,
) -> str:
    """The cache key of an exhaustive-exploration report.

    The single source of truth for explore-report addressing: both
    :func:`cached_explore`'s warm probe and the service coalescer
    (:mod:`repro.service`) key through here, so a request fingerprinted
    by one layer always finds work the other layer started or finished.
    """
    return fingerprint(
        "explore", system_fingerprint(system), max_states, include_drops
    )


def stabilize_report_key(
    system,
    max_states: int = 500_000,
    include_drops: bool = True,
    corruption: str = "full",
    channel_depth=None,
    sample=None,
    seed: int = 0,
    domain=None,
) -> str:
    """The cache key of a corrupted-start stabilization result.

    Shared by :func:`cached_stabilize` and the service coalescer, same
    discipline as :func:`explore_report_key`.  The key pins everything
    the corrupt initial set and its verdicts depend on.
    """
    base = system_fingerprint(system)
    return fingerprint(
        "stabilize",
        base,
        max_states,
        include_drops,
        corruption,
        channel_depth,
        sample,
        seed,
        tuple(domain) if domain is not None else None,
    )


class ResultCache:
    """Content-addressed pickle caching with hit/miss accounting.

    Fingerprinting, pickling, and accounting live here; raw byte storage
    is delegated to a pluggable :class:`~repro.fabric.store.CacheStore`,
    so the same cache object works over a private temp directory, a
    shared filesystem that several fabric workers write concurrently, or
    any future object-store shim.

    Args:
        root: cache directory for the default local store; defaults to
            ``$STP_REPRO_CACHE`` or ``~/.cache/stp-repro``.  Created
            lazily on first write.
        store: an explicit :class:`~repro.fabric.store.CacheStore` (or a
            locator :func:`~repro.fabric.store.open_store` understands);
            overrides ``root``.
    """

    def __init__(self, root=None, store: Optional[CacheStore] = None) -> None:
        if store is not None:
            self.store = open_store(store)
        else:
            self.store = LocalDirStore(
                Path(root) if root is not None else _default_root()
            )
        # The filesystem root, for local stores; non-local stores expose
        # their locator through describe() instead.
        self.root = getattr(self.store, "root", None)
        self.hits = 0
        self.misses = 0

    def _path(self, kind: str, key: str) -> Path:
        return self.store.path_for(kind, key)

    def get(self, kind: str, key: str):
        """The stored value, or None on a miss (absent or unreadable)."""
        data = self.store.read(kind, key)
        if data is not None:
            try:
                value = pickle.loads(data)
            except Exception:
                # Torn, truncated, or stale-schema bytes: a miss, never
                # a corrupt value surfaced to the caller.
                value = None
            if value is not None:
                self.hits += 1
                obs.add("cache.hits")
                return value
        self.misses += 1
        obs.add("cache.misses")
        return None

    def put(self, kind: str, key: str, value) -> None:
        """Store ``value`` atomically; concurrent writers are safe.

        Storage failure (read-only root, full disk) must never fail the
        computation whose result we merely failed to remember -- the
        store contract absorbs it and this method stays silent.
        """
        data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        if self.store.write(kind, key, data):
            obs.add("cache.puts")

    def stats(self) -> dict:
        """Hit/miss counters as a JSON-friendly dict."""
        total = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": (self.hits / total) if total else 0.0,
            "root": self.store.describe(),
        }

    def disk_stats(self) -> dict:
        """On-disk shape of the store: entry/byte totals, per kind."""
        kinds: dict = {}
        entries = 0
        total_bytes = 0
        for entry in self.store.entries():
            bucket = kinds.setdefault(entry.kind, {"entries": 0, "bytes": 0})
            bucket["entries"] += 1
            bucket["bytes"] += entry.size
            entries += 1
            total_bytes += entry.size
        return {
            "root": self.store.describe(),
            "entries": entries,
            "bytes": total_bytes,
            "kinds": kinds,
        }

    def prune(self, max_bytes: int) -> dict:
        """Evict oldest entries (by mtime) until the store fits.

        Content-addressed entries are pure-function results, so eviction
        is always safe: a future request simply recomputes, and a reader
        racing an eviction sees a plain miss.  Returns the eviction
        summary (JSON-friendly).
        """
        if max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        entries = sorted(
            self.store.entries(), key=lambda e: (e.mtime, e.kind, e.key)
        )
        total = sum(entry.size for entry in entries)
        removed = 0
        freed = 0
        for entry in entries:
            if total <= max_bytes:
                break
            if not self.store.delete(entry.kind, entry.key):
                continue
            total -= entry.size
            freed += entry.size
            removed += 1
        return {
            "removed": removed,
            "freed_bytes": freed,
            "remaining_entries": len(entries) - removed,
            "remaining_bytes": total,
        }

    def wipe(self) -> None:
        """Delete the whole store (the invalidation hammer)."""
        self.store.wipe()

    def __repr__(self) -> str:
        return (
            f"ResultCache(root={self.store.describe()!r}, hits={self.hits}, "
            f"misses={self.misses})"
        )


def check_retired_engine(engine: Optional[str], error=ValueError) -> None:
    """Accept ``engine`` as ``None`` or a :data:`RETIRED_ENGINE_NAMES`
    value, which changes nothing; raise ``error`` on any other value, so
    a misspelt name still fails loudly."""
    if engine is not None and engine not in RETIRED_ENGINE_NAMES:
        raise error(
            f"unknown engine {engine!r}; the retired engine keyword "
            f"accepts only {RETIRED_ENGINE_NAMES}"
        )


def cached_explore(
    system,
    max_states: int = 1_000_000,
    include_drops: bool = True,
    cache: Optional[ResultCache] = None,
    engine: Optional[str] = None,
):
    """:func:`~repro.verify.explorer.explore_compiled` behind the cache.

    On a report hit the stored :class:`ExplorationReport` is returned
    verbatim (bit-identical to recomputation).  On a miss the search runs
    over a freshly compiled table and only the report is stored: a cold
    call makes one store read and one store write.  The table is not
    stored, because nothing would revive it -- the members of a family
    are distinct systems, each explored once.  ``engine`` is retired:
    see :func:`check_retired_engine`.

    With ``cache=None`` this is exactly ``explore_compiled``, uncached.
    """
    from repro.verify.explorer import explore_compiled

    check_retired_engine(engine)
    if cache is None:
        return explore_compiled(
            system, max_states=max_states, include_drops=include_drops
        )
    report_key = explore_report_key(system, max_states, include_drops)
    report = cache.get("explore", report_key)
    if report is None:
        report = explore_compiled(
            system, max_states=max_states, include_drops=include_drops
        )
        cache.put("explore", report_key, report)
    return report


def cached_stabilize(
    system,
    cache: Optional[ResultCache] = None,
    engine: Optional[str] = None,
    sample: Optional[int] = None,
    seed: int = 0,
    max_states: int = 500_000,
    channel_depth=None,
    include_drops: bool = True,
    corruption: str = "full",
    domain=None,
):
    """Corrupted-start analysis behind the cache.

    The report key fingerprints everything the corrupt initial set and
    its per-source verdicts depend on: the system, the exploration
    budget, the corruption mode, the channel forge depth and the
    sampling identity; ``domain`` enters the key as the caller names
    it.  The stored
    :class:`~repro.resilience.stabilize.StabilizationResult` carries the
    ``corrupt_fingerprint`` of the set it judged, so report consumers
    can cross-check which corrupt enumeration a cached verdict sheet
    belongs to.  ``engine`` is retired: see :func:`check_retired_engine`.

    With ``cache=None`` this is exactly
    :func:`~repro.resilience.stabilize.analyze_stabilization`, uncached.
    """
    from repro.kernel.errors import VerificationError
    from repro.resilience.stabilize import analyze_stabilization

    check_retired_engine(engine, VerificationError)

    def compute():
        return analyze_stabilization(
            system,
            sample=sample,
            seed=seed,
            max_states=max_states,
            channel_depth=channel_depth,
            include_drops=include_drops,
            corruption=corruption,
            domain=domain,
        )

    if cache is None:
        return compute()
    key = stabilize_report_key(
        system,
        max_states=max_states,
        include_drops=include_drops,
        corruption=corruption,
        channel_depth=channel_depth,
        sample=sample,
        seed=seed,
        domain=domain,
    )
    result = cache.get("stabilize", key)
    if result is None:
        result = compute()
        cache.put("stabilize", key, result)
    return result


class CompiledTableCache:
    """A stub that stores nothing and holds no tables.

    Nothing under ``src/`` calls it.  It exists only because the
    benchmark's tracer (``perfbench/tracing.py``) wraps
    :meth:`table_for` and :meth:`publish` by name and refuses to run
    when a target no longer resolves.  Explore cells go through
    :func:`cached_explore`, which compiles a fresh table per search and
    stores only the report.
    """

    def table_for(self, system, base: Optional[str] = None):
        """A freshly compiled table for ``system``."""
        from repro.kernel.compiled import CompiledSystem

        return CompiledSystem(system)

    def publish(self, base: str, table) -> None:
        """Store nothing."""
