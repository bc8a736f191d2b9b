"""Workload inputs and known answers shared by every perfbench pass.

The inputs are the paper's tight families at the sizes ROADMAP targets:

* T4 (Theorem 2 tightness): ``bounded_del_protocol("abc")`` over two
  ``DeletingChannel(max_copies=2)`` directions, drops included -- the 16
  repetition-free inputs over ``abc``, 12,196 states in total;
* T2 (Theorem 1 tightness): ``norepeat_protocol("abcde")`` over
  ``DuplicatingChannel`` -- the 326 repetition-free inputs over
  ``abcde``, 4,241 states in total;
* corrupted-start stabilization of ``abp`` and ``ss-arq`` on inputs
  ``ab`` and ``abc``, domain ``a``-``d``, one-slot lossy FIFO channels,
  full corruption, unreduced;
* a campaign grid: norepeat over dup on the 64 non-empty repetition-free
  inputs over ``abcd``, 8 seeds each, ``deliver_weight=3.0``.

``answers.json`` holds the expected verdict of every operation, computed
by ``make_answers.py`` with the object-graph explorer (the scalar oracle
the fast engines are proven bit-identical to).  Every pass checks every
answer it receives against it.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ANSWERS_PATH = Path(__file__).with_name("answers.json")

STABILIZE_PROTOCOLS = ("abp", "ss-arq")
STABILIZE_INPUTS = (("a", "b"), ("a", "b", "c"))
STABILIZE_DOMAIN = ("a", "b", "c", "d")
CAMPAIGN_SEEDS = 8
CAMPAIGN_DELIVER_WEIGHT = 3.0

#: Totals the benchmark was specified with for the families above;
#: ``make_answers.py`` refuses to write answers that disagree with them.
EXPECTED_TOTALS = {
    "t4_members": 16,
    "t4_states": 12_196,
    "t2_members": 326,
    "t2_states": 4_241,
    "stabilize": {
        "abp:ab": (1323, 792),
        "abp:abc": (2700, 1872),
        "ss-arq:ab": (2268, 0),
        "ss-arq:abc": (7800, 0),
    },
}


def word(items: Sequence[str]) -> str:
    """The answers-file key of one input sequence (``""`` when empty)."""
    return "".join(items)


def t4_inputs() -> Tuple[Tuple[str, ...], ...]:
    from repro.workloads import repetition_free_family

    return repetition_free_family("abc")


def t2_inputs() -> Tuple[Tuple[str, ...], ...]:
    from repro.workloads import repetition_free_family

    return repetition_free_family("abcde")


def campaign_inputs() -> Tuple[Tuple[str, ...], ...]:
    from repro.workloads import repetition_free_family

    return tuple(items for items in repetition_free_family("abcd") if items)


def stabilize_members() -> List[Tuple[str, Tuple[str, ...]]]:
    return [
        (protocol, items)
        for protocol in STABILIZE_PROTOCOLS
        for items in STABILIZE_INPUTS
    ]


def stabilize_key(protocol: str, items: Sequence[str]) -> str:
    return f"{protocol}:{word(items)}"


def seeded_order(values: Sequence, seed: int, salt: str) -> list:
    """``values`` shuffled by ``seed``: the only thing the seed changes."""
    ordered = list(values)
    random.Random(f"{seed}/{salt}").shuffle(ordered)
    return ordered


def load_answers() -> Dict[str, Dict]:
    return json.loads(ANSWERS_PATH.read_text())


def explore_answer(report) -> List:
    """The verdict of one exploration, in the answers-file shape."""
    return [
        int(report.states),
        bool(report.all_safe),
        bool(report.completion_reachable),
        bool(report.truncated),
    ]


def explore_outcome_answer(outcome: Dict) -> List:
    """The same verdict, read from a service ``explore`` result."""
    return [
        int(outcome["states"]),
        bool(outcome["all_safe"]),
        bool(outcome["completion_reachable"]),
        bool(outcome["truncated"]),
    ]


def stabilize_answer(summary: Dict) -> Dict:
    """The verdict of one stabilization analysis (timing-free fields)."""
    return {
        "sources": int(summary["sources"]),
        "stabilizing": int(summary["stabilizing"]),
        "non_stabilizing": int(summary["non_stabilizing"]),
        "max_depth": summary["max_depth"],
        "converges": bool(summary["converges"]),
        "depth_histogram": [list(pair) for pair in summary["depth_histogram"]],
    }


def campaign_answer(safe: int, completed: int, runs: int) -> Dict:
    return {"runs": int(runs), "safe": int(safe), "completed": int(completed)}
