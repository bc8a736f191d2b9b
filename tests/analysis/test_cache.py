"""Tests for the content-addressed result cache (repro.analysis.cache)."""

from __future__ import annotations

import multiprocessing

import pytest

from dataclasses import replace

from repro.analysis.cache import (
    CACHE_ENV_VAR,
    ResultCache,
    cached_explore,
    canonical,
    fingerprint,
    system_fingerprint,
)
from repro.channels import DeletingChannel, DuplicatingChannel
from repro.kernel.rng import DeterministicRNG
from repro.kernel.system import System
from repro.kernel.types import Multiset
from repro.protocols.norepeat import norepeat_protocol
from repro.verify import explore


def make_system(items=("a", "b"), channel=DuplicatingChannel):
    sender, receiver = norepeat_protocol(tuple(sorted(set(items))) or ("a",))
    return System(sender, receiver, channel(), channel(), tuple(items))


def strip_timing(report):
    return replace(report, elapsed_seconds=0.0, states_per_second=0.0)


class TestFingerprint:
    def test_deterministic(self):
        assert fingerprint("x", 1, (2, 3)) == fingerprint("x", 1, (2, 3))

    def test_distinguishes_values_and_types(self):
        assert fingerprint(1) != fingerprint("1")
        assert fingerprint((1, 2)) != fingerprint([1, 2])
        assert fingerprint("a") != fingerprint("b")

    def test_rng_identity_is_seed_and_path(self):
        assert fingerprint(DeterministicRNG(5, "p")) == fingerprint(
            DeterministicRNG(5, "p")
        )
        assert fingerprint(DeterministicRNG(5, "p")) != fingerprint(
            DeterministicRNG(6, "p")
        )

    def test_multiset_hash_slot_is_excluded(self):
        one = Multiset(("x", "y"))
        two = Multiset(("x", "y"))
        hash(one)  # populate the cached-hash slot on one side only
        assert canonical(one) == canonical(two)

    def test_sibling_lambdas_do_not_collide(self):
        makers = [lambda: 1, lambda: 2]
        assert fingerprint(makers[0]) != fingerprint(makers[1])

    def test_system_fingerprint_covers_channel_caps(self):
        capped = make_system(channel=lambda: DeletingChannel(max_copies=2))
        uncapped = make_system(channel=DeletingChannel)
        assert system_fingerprint(capped) != system_fingerprint(uncapped)

    def test_system_fingerprint_equal_for_equal_systems(self):
        assert system_fingerprint(make_system()) == system_fingerprint(
            make_system()
        )


class TestResultCache:
    def test_put_get_roundtrip(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("kind", "a" * 64, {"value": 7})
        assert cache.get("kind", "a" * 64) == {"value": 7}
        assert (cache.hits, cache.misses) == (1, 0)

    def test_absent_key_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get("kind", "b" * 64) is None
        assert (cache.hits, cache.misses) == (0, 1)

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("kind", "c" * 64, [1, 2, 3])
        path = cache._path("kind", "c" * 64)
        path.write_bytes(b"not a pickle")
        assert cache.get("kind", "c" * 64) is None

    def test_wipe_removes_everything(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cache.put("kind", "d" * 64, 1)
        cache.wipe()
        assert not (tmp_path / "cache").exists()
        assert cache.get("kind", "d" * 64) is None

    def test_env_var_overrides_default_root(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "env-root"))
        assert ResultCache().root == tmp_path / "env-root"

    def test_stats_shape(self, tmp_path):
        cache = ResultCache(tmp_path)
        stats = cache.stats()
        assert stats["hits"] == 0 and stats["misses"] == 0
        assert stats["root"] == str(tmp_path)


KEY = "f" * 64


def _hammer_one_key(root, writer_index: int, rounds: int) -> None:
    """Child process body: repeatedly publish one key's value.

    Each writer's payload is internally consistent (every element equals
    the writer index), so any torn or interleaved write would surface as
    a mixed or truncated list on the reader side.
    """
    cache = ResultCache(root)
    payload = [writer_index] * 2048
    for _ in range(rounds):
        assert cache.put("stress", KEY, payload) or True
    cache.put("stress", KEY, payload)


class TestConcurrentCache:
    """Multi-process writers and prune-vs-put races.

    These are the contracts the fabric leans on: any number of workers
    may publish the same content-addressed key at once, and eviction may
    race an in-flight put -- readers must only ever see a complete value
    or a plain miss, never an exception or a torn read.
    """

    def test_processes_hammering_one_key_never_tear(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        context = multiprocessing.get_context("fork")
        writers = 4
        children = [
            context.Process(
                target=_hammer_one_key, args=(tmp_path, index, 50)
            )
            for index in range(writers)
        ]
        for child in children:
            child.start()
        reader = ResultCache(tmp_path)
        observed = set()
        try:
            while any(child.is_alive() for child in children):
                value = reader.get("stress", KEY)
                if value is not None:
                    # Complete and self-consistent, or the write tore.
                    assert len(value) == 2048
                    assert len(set(value)) == 1
                    observed.add(value[0])
        finally:
            for child in children:
                child.join()
                assert child.exitcode == 0
        final = reader.get("stress", KEY)
        assert final is not None and len(set(final)) == 1
        assert set(observed) <= set(range(writers))
        # Exactly one file remains: no tmp-file droppings survive.
        store_files = list(tmp_path.rglob("*"))
        assert [p for p in store_files if p.suffix == ".tmp"] == []

    def test_prune_racing_put_degrades_to_miss(self, tmp_path):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("needs the fork start method")
        context = multiprocessing.get_context("fork")
        writer = context.Process(
            target=_hammer_one_key, args=(tmp_path, 7, 200)
        )
        writer.start()
        pruner = ResultCache(tmp_path)
        try:
            for _ in range(100):
                # Evict everything, repeatedly, while the writer races.
                pruner.prune(0)
                value = pruner.get("stress", KEY)
                assert value is None or (
                    len(value) == 2048 and set(value) == {7}
                )
        finally:
            writer.join()
            assert writer.exitcode == 0

    def test_inflight_tmp_files_are_invisible(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("kind", KEY, 1)
        # Simulate an in-flight writer: a tmp file sitting beside the
        # entry, as the atomic-rename protocol produces mid-write.
        target = cache._path("kind", KEY)
        (target.parent / f"{KEY}.999.0.deadbeef.tmp").write_bytes(b"partial")
        stats = cache.disk_stats()
        assert stats["entries"] == 1  # the tmp file is not an entry
        summary = cache.prune(0)
        assert summary["removed"] == 1
        assert cache.get("kind", KEY) is None  # miss, not corruption


class TestCachedExplore:
    def test_matches_object_explorer(self, tmp_path):
        base = explore(make_system())
        cached = cached_explore(make_system(), cache=ResultCache(tmp_path))
        assert strip_timing(cached) == strip_timing(base)

    def test_hit_returns_stored_report_verbatim(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = cached_explore(make_system(), cache=cache)
        hits_before = cache.hits
        second = cached_explore(make_system(), cache=cache)
        assert second == first  # timing fields included: stored verbatim
        assert cache.hits > hits_before

    def test_different_caps_key_differently(self, tmp_path):
        cache = ResultCache(tmp_path)
        cached_explore(make_system(), max_states=600, cache=cache)
        cached_explore(make_system(), max_states=700, cache=cache)
        # Distinct report keys, but the second call revives the stored
        # transition-table snapshot.
        assert cache.hits == 1

    def test_without_cache_is_plain_explore_compiled(self):
        report = cached_explore(make_system(), cache=None)
        assert strip_timing(report) == strip_timing(explore(make_system()))

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            cached_explore(make_system(), engine="gpu")

    def test_reduce_requires_batched(self):
        with pytest.raises(ValueError, match="reduce"):
            cached_explore(make_system(), engine="scalar", reduce=True)
