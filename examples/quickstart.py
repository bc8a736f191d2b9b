"""Quickstart: the tight bound, a correct protocol, and a doomed one.

Run:  python examples/quickstart.py

Walks through the paper's headline result in four steps:

1. compute ``alpha(m)``, the exact ceiling on ``|X|``;
2. transmit sequences with the Section 3 protocol over a hostile
   reorder+duplicate channel at exactly ``|X| = alpha(m)``;
3. go one sequence past the bound and watch the attack synthesizer
   construct a real Safety-violating schedule;
4. replay the witness through the simulator to confirm it.
"""

from repro import alpha, find_attack_on_family, norepeat_protocol, run_protocol
from repro.adversaries import AgingFairAdversary, ReplayFloodAdversary
from repro.channels import DuplicatingChannel
from repro.kernel.rng import DeterministicRNG
from repro.protocols.optimistic import identity_optimistic
from repro.verify import replay_witness
from repro.workloads import overfull_family, repetition_free_family


def main() -> None:
    domain = "abc"
    m = len(domain)
    print(f"== 1. The bound: alpha({m}) = {alpha(m)}")
    print(
        f"   With {m} messages, at most {alpha(m)} different sequences can\n"
        f"   ever be transmitted over a reordering+duplicating channel.\n"
    )

    print(f"== 2. The Section 3 protocol at |X| = alpha({m})")
    family = repetition_free_family(domain)
    sender, receiver = norepeat_protocol(domain)
    rng = DeterministicRNG(7)
    adversary = AgingFairAdversary(
        ReplayFloodAdversary(rng, flood_factor=4), patience=48
    )
    completed = 0
    for input_sequence in family:
        result = run_protocol(
            sender,
            receiver,
            DuplicatingChannel(),
            DuplicatingChannel(),
            input_sequence,
            adversary,
            max_steps=50_000,
        )
        assert result.safe, "the correct protocol must never violate Safety"
        completed += result.completed
    print(
        f"   transmitted {completed}/{len(family)} inputs safely under a\n"
        f"   replay-flooding adversary (every stale message redelivered 4x).\n"
    )

    print(f"== 3. One sequence too many: |X| = alpha({m - 1}) + 1 over 'ab'")
    small_domain = "ab"
    doomed_family = overfull_family(small_domain, len(small_domain))
    doomed_sender, doomed_receiver = identity_optimistic(doomed_family)
    witness = find_attack_on_family(
        doomed_sender,
        doomed_receiver,
        DuplicatingChannel(),
        DuplicatingChannel(),
        doomed_family,
    ).witness
    assert witness is not None, "Theorem 1 guarantees an attack exists"
    print(f"   victim input:      {witness.input_sequence!r}")
    print(f"   confused with:     {witness.other_sequence!r}")
    print(
        f"   wrong write:       {witness.wrote!r} at position "
        f"{witness.wrong_position} (expected {witness.expected!r})"
    )
    print(f"   schedule length:   {len(witness.schedule)} events")
    print(f"   search explored:   {witness.product_states} product states\n")

    print("== 4. Replaying the witness through the real simulator")
    replay = replay_witness(
        doomed_sender,
        doomed_receiver,
        DuplicatingChannel(),
        DuplicatingChannel(),
        witness,
    )
    print(f"   input:  {replay.trace.input_sequence!r}")
    print(f"   output: {replay.trace.output()!r}   <- not a prefix of the input")
    print(f"   Safety violated at step {replay.first_violation_time}: confirmed.\n")

    print("== 5. The attack, as a sequence diagram")
    from repro.analysis import sequence_diagram

    for line in sequence_diagram(replay.trace).splitlines():
        print(f"   {line}")


if __name__ == "__main__":
    main()
