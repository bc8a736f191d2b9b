"""Property sweep: the frontier engine matches the scalar one.

Swept over every registered protocol crossed with every registered
channel and a family of small inputs: :func:`explore_batched` is
**bit-identical** to :func:`explore_compiled` in every non-timing field,
including under truncating budgets (the order-sensitive cases delegate
to the scalar engine, so even violation paths match).

This is the soundness evidence behind using the frontier engine for
the paper's exhaustive T2/T4 verification columns.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.channels import channel_by_name, channel_names
from repro.kernel.system import System
from repro.protocols import protocol_by_name, protocol_names
from repro.verify import explore_batched, explore_compiled

DOMAIN = ("a", "b")
INPUTS = ((), ("a",), ("a", "b"))
MAX_STATES = 600
# 5 forces mid-level / boundary truncation on most systems; 1 truncates
# at the initial state -- both must reproduce the scalar reports exactly.
BUDGETS = (MAX_STATES, 5, 1)

GRID = [
    (protocol, channel, input_sequence)
    for protocol in protocol_names()
    for channel in channel_names()
    for input_sequence in INPUTS
]


def build_system(protocol: str, channel: str, input_sequence):
    sender, receiver = protocol_by_name(protocol, DOMAIN, len(DOMAIN))
    return System(
        sender,
        receiver,
        channel_by_name(channel),
        channel_by_name(channel),
        tuple(input_sequence),
    )


def strip_timing(report):
    return replace(report, elapsed_seconds=0.0, states_per_second=0.0)


@pytest.mark.parametrize(
    "protocol,channel,input_sequence",
    GRID,
    ids=[f"{p}-{c}-{len(i)}" for p, c, i in GRID],
)
class TestBatchedEquivalence:
    def test_unreduced_reports_bit_identical(
        self, protocol, channel, input_sequence
    ):
        for budget in BUDGETS:
            scalar = explore_compiled(
                build_system(protocol, channel, input_sequence),
                max_states=budget,
            )
            batched = explore_batched(
                build_system(protocol, channel, input_sequence),
                max_states=budget,
            )
            assert strip_timing(batched) == strip_timing(scalar), budget
