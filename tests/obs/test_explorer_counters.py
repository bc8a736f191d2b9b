"""Explorer observability: exact counters.

Regression for a double-count bug: with ``store_parents=False`` a search
that found a violation used to re-run itself through the *public* entry
point to recover the witness path, emitting two ``explorer.searches``
spans and double-counting ``explorer.states``.  Both explorers must emit
exactly one search with the report's own state count.
"""

from __future__ import annotations

from repro import obs
from repro.channels import channel_by_name
from repro.kernel.system import System
from repro.protocols import protocol_by_name
from repro.verify import explore, explore_compiled


def unsafe_system():
    # streaming over a duplicating channel violates Safety within a few
    # levels -- the smallest violation-path workload in the registry.
    sender, receiver = protocol_by_name("streaming", ("a", "b"), 2)
    return System(
        sender,
        receiver,
        channel_by_name("dup"),
        channel_by_name("dup"),
        ("a",),
    )


def counter(registry, name):
    return registry.to_dict().get(name, {}).get("value", 0)


class TestNoDoubleCount:
    def assert_single_search(self, engine):
        with obs.scoped() as (_, registry):
            report = engine(unsafe_system(), store_parents=False)
            assert not report.all_safe
            assert report.violation_path  # witness recovered
            assert counter(registry, "explorer.searches") == 1
            assert counter(registry, "explorer.states") == report.states

    def test_object_engine(self):
        self.assert_single_search(explore)

    def test_compiled_engine(self):
        self.assert_single_search(explore_compiled)
