"""Telemetry over a duplicating mesh: sizing the alphabet with alpha(m).

Run:  python examples/sensor_telemetry.py

A field sensor reports a *phase sequence*: the order in which it entered
states like CALIBRATING, ACTIVE, ALERT, ... (each state entered at most
once per mission -- a repetition-free sequence).  The radio mesh between
sensor and base station reorders and duplicates packets arbitrarily, and
the sensor's firmware can only afford a tiny fixed packet vocabulary.

This is exactly the paper's setting, and the theory answers the two
engineering questions directly:

* *How many missions profiles can a vocabulary of m packets support?*
  ``alpha(m)`` -- here computed per m, with the protocol run over every
  profile under a hostile duplicating scheduler.
* *What is the smallest vocabulary for our profile set?*
  ``min_alphabet_size(|X|)`` -- and one packet fewer provably fails,
  demonstrated by the attack synthesizer.
"""

from repro import alpha, min_alphabet_size, norepeat_protocol, run_protocol
from repro.adversaries import AgingFairAdversary, ReplayFloodAdversary
from repro.channels import DuplicatingChannel
from repro.kernel.rng import DeterministicRNG
from repro.protocols.optimistic import identity_optimistic
from repro.verify import find_attack_on_family
from repro.workloads import repetition_free_family

PHASES = ("BOOT", "CALIBRATING", "ACTIVE", "ALERT")


def main() -> None:
    rng = DeterministicRNG(3)
    m = len(PHASES)
    profiles = repetition_free_family(PHASES)
    print(f"phase vocabulary: {PHASES}")
    print(
        f"alpha({m}) = {alpha(m)}: a {m}-packet vocabulary supports "
        f"{alpha(m)} distinct mission profiles\n"
    )

    print(f"== Transmitting all {len(profiles)} profiles over the mesh")
    sender, receiver = norepeat_protocol(PHASES)
    worst_steps = 0
    for profile in profiles:
        adversary = AgingFairAdversary(
            ReplayFloodAdversary(rng.fork(repr(profile)), flood_factor=3),
            patience=64,
        )
        result = run_protocol(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            profile,
            adversary,
            max_steps=100_000,
        )
        assert result.completed and result.safe, profile
        worst_steps = max(worst_steps, result.steps)
    print(
        f"   all {len(profiles)} profiles delivered safely under replay "
        f"flooding (worst run: {worst_steps} steps)\n"
    )

    print("== Sizing: how small can the vocabulary go?")
    needed = min_alphabet_size(len(profiles))
    print(
        f"   {len(profiles)} profiles need alpha(m) >= {len(profiles)}, "
        f"i.e. m >= {needed} packets (alpha({needed}) = {alpha(needed)})"
    )

    print(f"\n== Proof that {needed - 1} packets cannot work")
    # Keep only (needed-1) phase packets and let missions revisit phases:
    # the first alpha(needed-1)+1 profiles over the reduced vocabulary.
    # The natural firmware (each phase is its own packet, repeats allowed)
    # stays live -- and the attack synthesizer demolishes it, as Theorem 1
    # says it must for ANY live firmware at this family size.
    from repro.workloads import overfull_family

    small_phases = PHASES[: needed - 1]
    reduced_profiles = overfull_family(small_phases, needed - 1)
    doomed_sender, doomed_receiver = identity_optimistic(reduced_profiles)
    witness = find_attack_on_family(
        doomed_sender,
        doomed_receiver,
        DuplicatingChannel(),
        DuplicatingChannel(),
        reduced_profiles,
        max_states=300_000,
    ).witness
    assert witness is not None, "Theorem 1 says this must be attackable"
    print(
        f"   {len(reduced_profiles)} profiles over {needed - 1} packets: "
        f"attacked.\n"
        f"   mission {witness.input_sequence!r} was confused with\n"
        f"   {witness.other_sequence!r}; the base station logged phase\n"
        f"   {witness.wrote!r} at position {witness.wrong_position} "
        f"(truth: {witness.expected!r})"
    )


if __name__ == "__main__":
    main()
