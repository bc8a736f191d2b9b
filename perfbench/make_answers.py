"""Regenerate ``answers.json``, the known answers every pass checks.

Run from the repository root::

    PYTHONPATH=src python3 perfbench/make_answers.py

Explorations use the object-graph explorer (``repro.verify.explorer
.explore``), the scalar oracle every fast engine is proven bit-identical
to; stabilization verdicts use ``analyze_stabilization``.  The script
refuses to write a file whose totals disagree with
``scenario.EXPECTED_TOTALS`` (the figures the benchmark was specified
with), so a wrong oracle cannot silently become the expected answer.
"""

from __future__ import annotations

import json
import re
import sys

import scenario


def main() -> int:
    from repro.channels import DeletingChannel, DuplicatingChannel
    from repro.fabric.sweep import build_explore_system, build_stabilize_system
    from repro.kernel.system import System
    from repro.protocols import norepeat_protocol
    from repro.protocols.norepeat_del import bounded_del_protocol
    from repro.resilience.stabilize import analyze_stabilization
    from repro.verify.explorer import explore

    answers: dict = {"explore": {}, "stabilize": {}, "campaign": {}}

    sender, receiver = bounded_del_protocol("abc")
    answers["explore"]["t4"] = {
        scenario.word(items): scenario.explore_answer(
            explore(
                System(
                    sender,
                    receiver,
                    DeletingChannel(max_copies=2),
                    DeletingChannel(max_copies=2),
                    items,
                ),
                max_states=500_000,
            )
        )
        for items in scenario.t4_inputs()
    }
    sender, receiver = norepeat_protocol("abcde")
    answers["explore"]["t2"] = {
        scenario.word(items): scenario.explore_answer(
            explore(
                System(
                    sender,
                    receiver,
                    DuplicatingChannel(),
                    DuplicatingChannel(),
                    items,
                ),
                max_states=500_000,
            )
        )
        for items in scenario.t2_inputs()
    }
    # Sweep cells and service requests build each member over its own
    # input items (the registry rule), not over the whole of abcde.
    answers["explore"]["t2_member_domain"] = {
        scenario.word(items): scenario.explore_answer(
            explore(build_explore_system("norepeat", "dup", items))
        )
        for items in scenario.t2_inputs()
    }
    for protocol, items in scenario.stabilize_members():
        system = build_stabilize_system(
            protocol, "lossy-fifo", items, scenario.STABILIZE_DOMAIN
        )
        result = analyze_stabilization(
            system, engine="batched", domain=scenario.STABILIZE_DOMAIN
        )
        answers["stabilize"][scenario.stabilize_key(protocol, items)] = (
            scenario.stabilize_answer(result.summary())
        )
    runs = len(scenario.campaign_inputs()) * scenario.CAMPAIGN_SEEDS
    answers["campaign"]["grid"] = scenario.campaign_answer(runs, runs, runs)
    answers["campaign"]["demo_spec"] = scenario.campaign_answer(12, 12, 12)

    problems = check_totals(answers)
    if problems:
        for problem in problems:
            print(f"make_answers: {problem}", file=sys.stderr)
        return 1
    text = json.dumps(answers, indent=1, sort_keys=True)
    # One member per line: lists of plain values stay on their line.
    text = re.sub(
        r"\[\s+([^\[\]{}]*?)\s+\]",
        lambda match: "[" + " ".join(match.group(1).split()) + "]",
        text,
    )
    scenario.ANSWERS_PATH.write_text(text + "\n")
    print(f"wrote {scenario.ANSWERS_PATH}")
    return 0


def check_totals(answers: dict) -> list:
    expected = scenario.EXPECTED_TOTALS
    problems = []
    for family, members, states in (
        ("t4", expected["t4_members"], expected["t4_states"]),
        ("t2", expected["t2_members"], expected["t2_states"]),
        ("t2_member_domain", expected["t2_members"], expected["t2_states"]),
    ):
        table = answers["explore"][family]
        total = sum(entry[0] for entry in table.values())
        verdicts_ok = all(
            entry[1] and entry[2] and not entry[3] for entry in table.values()
        )
        if len(table) != members or total != states or not verdicts_ok:
            problems.append(
                f"{family}: {len(table)} members, {total} states, "
                f"all safe/completable/untruncated={verdicts_ok}; expected "
                f"{members} members and {states} states"
            )
    for key, (sources, non_stabilizing) in expected["stabilize"].items():
        entry = answers["stabilize"][key]
        if (entry["sources"], entry["non_stabilizing"]) != (
            sources,
            non_stabilizing,
        ):
            problems.append(
                f"stabilize {key}: {entry['sources']} sources, "
                f"{entry['non_stabilizing']} non-stabilizing; expected "
                f"{sources}, {non_stabilizing}"
            )
    return problems


if __name__ == "__main__":
    sys.exit(main())
