"""A3 (extension): probabilistic STP beyond the bound (Section 6 outlook).

Section 6: "it is conceivable that we sometimes can be satisfied with
'solutions' to X-STP with |X| > alpha(m) that, although having the
*possibility* of failure, present an acceptably low *probability* of
failure."  The residue-header protocol (:mod:`repro.protocols.modulo`)
is the natural family of such solutions: window ``W`` gives a finite
alphabet of ``W * |D|`` data messages for an unbounded family, and stale
residue collisions are its only failure mode.

Measured: empirical Safety-violation rate under replay-heavy randomized
adversaries on deleting channels, over *random* inputs (a fixed periodic
input can alias with the window -- a stale collision then writes the
correct value by luck -- so inputs are drawn fresh per run), as a function
of ``W``; plus the certainty side -- for every ``W`` the attack
synthesizer still finds a deterministic violating schedule on the crafted
pair that differs exactly one window back (Theorems 1/2 are not
probabilistic).

Expected shape: violation rate decreasing in ``W``, attack witness
existing at every ``W``.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.adversaries import AgingFairAdversary, RandomAdversary
from repro.analysis.tables import render_series, render_table
from repro.channels import DeletingChannel
from repro.experiments.base import ExperimentResult
from repro.kernel.rng import DeterministicRNG
from repro.kernel.simulator import Simulator
from repro.kernel.system import System
from repro.protocols.modulo import modulo_protocol
from repro.verify import find_attack, replay_witness

DOMAIN = "ab"


def _attack_pair(window: int) -> Tuple[Tuple, Tuple]:
    """Two inputs differing only ``window`` positions after a repeat.

    A stale copy of the position-0 data message has residue 0, the same
    as position ``window``; accepting it there writes ``base[0]`` -- wrong
    for the variant whose item there differs.
    """
    base = tuple(DOMAIN[i % 2] for i in range(window))
    return base + (DOMAIN[0],), base + (DOMAIN[1],)


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Build the A3 table and series."""
    rng = DeterministicRNG(seed, "a3")
    windows = (1, 2, 3) if quick else (1, 2, 3, 4, 6)
    input_length = 6
    runs_per_window = 80 if quick else 300

    headers = ("W", "alphabet", "runs", "violations", "violation rate", "attack exists")
    rows: List[Tuple] = []
    rates: List[Tuple] = []
    checks = {}
    previous_rate = None
    non_increasing = True
    for window in windows:
        sender, receiver = modulo_protocol(DOMAIN, window)
        violations = 0
        for index in range(runs_per_window):
            input_rng = rng.fork(f"input/w{window}/{index}")
            input_sequence = tuple(
                input_rng.choice(DOMAIN) for _ in range(input_length)
            )
            adversary = AgingFairAdversary(
                RandomAdversary(
                    rng.fork(f"w{window}/{index}"), deliver_weight=3.0
                ),
                patience=48,
            )
            system = System(
                sender,
                receiver,
                DeletingChannel(),
                DeletingChannel(),
                input_sequence,
            )
            result = Simulator(system, adversary, max_steps=12_000).run()
            if not result.safe:
                violations += 1
        rate = violations / runs_per_window

        if window <= 4:
            # The witness schedule's length grows with W (the stale copy
            # must survive W fresh handshakes), so the bounded search is
            # only run where its budget is known to suffice; Theorems 1/2
            # guarantee existence at every W regardless.
            first, second = _attack_pair(window)
            witness = find_attack(
                sender,
                receiver,
                DeletingChannel(max_copies=2),
                DeletingChannel(max_copies=2),
                first,
                second,
                max_states=400_000,
            ).witness
            attack_exists: object = witness is not None
            if witness is not None:
                attack_exists = not replay_witness(
                    sender,
                    receiver,
                    DeletingChannel(max_copies=2),
                    DeletingChannel(max_copies=2),
                    witness,
                ).safe
            checks[f"W{window}_deterministic_attack_exists"] = bool(attack_exists)
        else:
            attack_exists = None  # not searched at this window
        if previous_rate is not None and rate > previous_rate + 0.05:
            non_increasing = False
        previous_rate = rate
        rows.append(
            (
                window,
                window * len(DOMAIN),
                runs_per_window,
                violations,
                rate,
                attack_exists,
            )
        )
        rates.append((window, rate))

    checks["violation_rate_decreases_with_window"] = non_increasing and (
        rows[0][4] > rows[-1][4] or rows[-1][4] == 0.0
    )
    series = render_series(
        "A3: empirical Safety-violation rate vs residue window W",
        "W",
        "rate",
        rates,
    )
    table = render_table(headers, rows, title="A3 data")
    return ExperimentResult(
        experiment_id="A3",
        title="Probabilistic STP beyond alpha(m): residue headers",
        rendered=series + "\n\n" + table,
        headers=headers,
        rows=tuple(rows),
        checks=checks,
        notes=(
            f"input: {input_length} alternating items; adversary: fair "
            "random with stale-friendly weights on deleting channels; the "
            "deterministic attack column is Theorem 1/2's reminder that "
            "low probability is not impossibility"
        ),
    )
