"""The cache management CLI and ``cached_explore``'s retired ``engine``.

Covers the ``stp-repro cache`` subcommand (stats / clear / prune) and
the cache-layer contracts: a call naming the retired ``engine`` equals
one without it and shares its report key, a misspelt engine still
fails, and a cold run stores its report and nothing else.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.analysis.cache import ResultCache, cached_explore
from repro.channels import DuplicatingChannel
from repro.cli import main
from repro.kernel.system import System
from repro.protocols.norepeat import norepeat_protocol


def build_system(input_sequence=("a", "b")):
    domain = tuple(sorted(set(input_sequence))) or ("a",)
    sender, receiver = norepeat_protocol(domain)
    return System(
        sender,
        receiver,
        DuplicatingChannel(),
        DuplicatingChannel(),
        tuple(input_sequence),
    )


def strip_timing(report):
    return replace(report, elapsed_seconds=0.0, states_per_second=0.0)


class TestCacheSubcommand:
    def test_stats_on_empty_cache(self, tmp_path, capsys):
        root = tmp_path / "cache"
        assert main(
            ["cache", "stats", "--cache-dir", str(root), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0
        assert stats["bytes"] == 0

    def test_stats_human_table(self, tmp_path, capsys):
        root = tmp_path / "cache"
        cached_explore(build_system(), cache=ResultCache(root))
        assert main(["cache", "stats", "--cache-dir", str(root)]) == 0
        out = capsys.readouterr().out
        assert str(root) in out
        assert "entries:" in out
        assert "explore" in out
        # Default output is the table, not JSON.
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)

    def test_stats_after_explore(self, tmp_path, capsys):
        root = tmp_path / "cache"
        assert (
            main(
                ["explore", "--cache-dir", str(root)]
            )
            == 0
        )
        capsys.readouterr()
        assert main(
            ["cache", "stats", "--cache-dir", str(root), "--json"]
        ) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 1  # the report alone
        assert set(stats["kinds"]) == {"explore"}

    def test_clear_empties_the_store(self, tmp_path, capsys):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        cached_explore(build_system(), cache=cache)
        assert cache.disk_stats()["entries"] > 0
        assert main(["cache", "clear", "--cache-dir", str(root)]) == 0
        assert "cleared" in capsys.readouterr().out
        assert ResultCache(root).disk_stats()["entries"] == 0

    def test_prune_evicts_down_to_budget(self, tmp_path, capsys):
        root = tmp_path / "cache"
        cache = ResultCache(root)
        for items in (("a",), ("a", "b"), ("b", "a")):
            cached_explore(build_system(items), cache=cache)
        before = cache.disk_stats()
        assert before["entries"] == 3
        # A budget one byte short of the store: something must go.
        budget = before["bytes"] - 1
        assert main(
            [
                "cache", "prune", "--cache-dir", str(root),
                "--max-size", str(budget),
            ]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["removed"] >= 1
        assert summary["remaining_bytes"] <= budget
        assert summary["freed_bytes"] <= before["bytes"]

    def test_prune_size_suffixes(self, tmp_path, capsys):
        root = tmp_path / "cache"
        assert main(
            ["cache", "prune", "--cache-dir", str(root), "--max-size", "2M"]
        ) == 0
        assert json.loads(capsys.readouterr().out)["removed"] == 0
        assert main(
            ["cache", "prune", "--cache-dir", str(root), "--max-size", "oops"]
        ) == 2


class TestEngineAwareCachedExplore:
    def test_cross_engine_report_key_is_shared(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        scalar = cached_explore(build_system(), cache=cache)
        hits_before = cache.stats()["hits"]
        batched = cached_explore(
            build_system(), cache=cache, engine="batched"
        )
        assert cache.stats()["hits"] == hits_before + 1
        assert strip_timing(batched) == strip_timing(scalar)

    def test_batched_warm_serves_scalar(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        batched = cached_explore(
            build_system(), cache=cache, engine="batched"
        )
        hits_before = cache.stats()["hits"]
        scalar = cached_explore(build_system(), cache=cache)
        assert cache.stats()["hits"] == hits_before + 1
        assert strip_timing(scalar) == strip_timing(batched)

    def test_cold_batched_writes_only_its_report(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        writes = []
        write = cache.store.write

        def recording_write(kind, key, data):
            writes.append(kind)
            return write(kind, key, data)

        cache.store.write = recording_write
        cached_explore(
            build_system(("a", "b", "c")), cache=cache, engine="batched"
        )
        assert writes == ["explore"]

    def test_engine_validation(self, tmp_path):
        with pytest.raises(ValueError, match="engine"):
            cached_explore(build_system(), engine="warp")

    def test_no_cache_direct_paths(self):
        scalar = cached_explore(build_system())
        batched = cached_explore(build_system(), engine="batched")
        assert strip_timing(batched) == strip_timing(scalar)
