"""Prefix-monotone encodings (end of Section 3).

The paper observes that solving ``X``-STP(dup) requires mapping every input
sequence ``X`` to a *repetition-free* message sequence ``mu(X)`` over
``M^S`` such that ``mu(X1)`` is a prefix of ``mu(X2)`` **only when** ``X1``
is a prefix of ``X2``.  We call such injective maps *prefix-monotone
encodings*.  Their existence is exactly what separates solvable from
unsolvable families:

* every family of size at most ``m!`` admits one (map members to distinct
  full permutations -- an antichain, so the prefix condition is vacuous);
* families with internal prefix structure can do better, up to the family
  of *all* repetition-free sequences (``alpha(m)`` members, identity map);
* no family beyond ``alpha(m)`` admits one (there are only ``alpha(m)``
  repetition-free sequences to map to).

This module provides the encoding interface used by the handshake protocol
(:mod:`repro.protocols.handshake`), the identity instance (the paper's own
Section 3 protocol), table-backed instances, a constructive builder with a
backtracking core, and checkers.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.kernel.errors import (
    EncodingError,
    EncodingSearchExhausted,
    VerificationError,
)
from repro.core.sequences import (
    is_prefix,
    is_repetition_free,
    longest_common_prefix,
    repetition_free_sequences,
)


class Encoding(ABC):
    """A prefix-monotone encoding of a sequence family.

    Implementations must guarantee:

    * ``encode`` is injective on ``family`` and every image is a
      repetition-free sequence over ``message_alphabet``;
    * if ``encode(X1)`` is a prefix of ``encode(X2)`` then ``X1`` is a
      prefix of ``X2`` (prefix monotonicity).

    ``decode_prefix`` is the receiver-side map ``delta``: given the message
    prefix reconstructed so far, the longest output that is safe to write.
    """

    @property
    @abstractmethod
    def family(self) -> Tuple[Tuple, ...]:
        """The allowable input sequences ``X``, in deterministic order."""

    @property
    @abstractmethod
    def message_alphabet(self) -> FrozenSet:
        """The message alphabet ``M^S`` the images are drawn from."""

    @abstractmethod
    def encode(self, sequence: Sequence) -> Tuple:
        """``mu(X)``: the repetition-free message sequence for ``X``."""

    def decode_prefix(self, message_prefix: Sequence) -> Tuple:
        """``delta(p)``: the longest common prefix of all family members
        whose encoding extends ``p``.

        Safety follows directly: in a run on input ``X``, any reconstructed
        ``p`` is a prefix of ``mu(X)``, so ``X`` is among the candidates and
        ``delta(p)`` is a prefix of ``X``.  Liveness follows from prefix
        monotonicity: ``delta(mu(X)) = X``.
        """
        message_prefix = tuple(message_prefix)
        candidates = [
            member
            for member in self.family
            if is_prefix(message_prefix, self.encode(member))
        ]
        if not candidates:
            raise EncodingError(
                f"message prefix {message_prefix!r} matches no family member"
            )
        return longest_common_prefix(candidates)

    def validate(self) -> None:
        """Raise :class:`EncodingError` unless all encoding laws hold."""
        images: Dict[Tuple, Tuple] = {}
        for member in self.family:
            image = self.encode(member)
            if not is_repetition_free(image):
                raise EncodingError(f"mu({member!r}) = {image!r} repeats a message")
            if any(message not in self.message_alphabet for message in image):
                raise EncodingError(
                    f"mu({member!r}) = {image!r} leaves the message alphabet"
                )
            if image in images.values():
                raise EncodingError(f"encoding is not injective at {member!r}")
            images[tuple(member)] = image
        if not is_prefix_monotone(images):
            raise EncodingError("encoding is not prefix-monotone")


def is_prefix_monotone(mapping: Mapping[Tuple, Tuple]) -> bool:
    """Check the law: ``mu(X1) <= mu(X2)`` (prefix) implies ``X1 <= X2``."""
    members = list(mapping)
    for first in members:
        for second in members:
            if first == second:
                continue
            if is_prefix(mapping[first], mapping[second]) and not is_prefix(
                first, second
            ):
                return False
    return True


class IdentityEncoding(Encoding):
    """The paper's Section 3 encoding: ``X`` itself is the message sequence.

    Defined on the family of *all* repetition-free sequences over a domain
    ``D`` with ``M^S = D``; realizes ``|X| = alpha(m)``, witnessing the
    tightness of Theorems 1 and 2.
    """

    #: Largest domain whose full alpha(m) family may be materialized by the
    #: ``family`` property (alpha(8) = 109601; alpha(12) is over a billion).
    FAMILY_ENUMERATION_LIMIT = 8

    def __init__(self, domain: Sequence) -> None:
        symbols = tuple(domain)
        if len(set(symbols)) != len(symbols):
            raise EncodingError(f"domain has repeated symbols: {symbols!r}")
        self._symbols = symbols
        self._alphabet = frozenset(symbols)
        self._family: Optional[Tuple[Tuple, ...]] = None

    @property
    def family(self) -> Tuple[Tuple, ...]:
        """All repetition-free sequences, materialized lazily.

        The protocol automata never need this (identity encode/decode are
        direct); it exists for enumeration-style callers, and refuses
        domains whose alpha(m) would not fit in memory.
        """
        if self._family is None:
            if len(self._symbols) > self.FAMILY_ENUMERATION_LIMIT:
                raise EncodingError(
                    f"refusing to materialize alpha({len(self._symbols)}) "
                    f"sequences; iterate repetition_free_sequences() instead"
                )
            self._family = tuple(
                sorted(
                    repetition_free_sequences(self._symbols),
                    key=lambda s: (len(s), repr(s)),
                )
            )
        return self._family

    @property
    def message_alphabet(self) -> FrozenSet:
        return self._alphabet

    def encode(self, sequence: Sequence) -> Tuple:
        sequence = tuple(sequence)
        if not is_repetition_free(sequence) or any(
            item not in self._alphabet for item in sequence
        ):
            raise EncodingError(
                f"{sequence!r} is not a repetition-free sequence over the domain"
            )
        return sequence

    def decode_prefix(self, message_prefix: Sequence) -> Tuple:
        # The identity decode is the identity: every extension of p in the
        # family shares exactly p (p itself is in the family).
        return tuple(message_prefix)


class TableEncoding(Encoding):
    """An explicit ``member -> image`` table, validated on construction,
    with decode answers precomputed for every image prefix."""

    def __init__(self, mapping: Mapping[Sequence, Sequence]) -> None:
        self._table: Dict[Tuple, Tuple] = {
            tuple(member): tuple(image) for member, image in mapping.items()
        }
        if len(self._table) != len(mapping):
            raise EncodingError("family contains duplicate sequences")
        self._family = tuple(
            sorted(self._table, key=lambda member: (len(member), repr(member)))
        )
        self._alphabet = frozenset(
            message for image in self._table.values() for message in image
        )
        self.validate()
        self._decode: Dict[Tuple, Tuple] = {}
        for member in self._family:
            image = self._table[member]
            for cut in range(len(image) + 1):
                prefix = image[:cut]
                candidates = [
                    other
                    for other in self._family
                    if is_prefix(prefix, self._table[other])
                ]
                self._decode[prefix] = longest_common_prefix(candidates)

    @property
    def family(self) -> Tuple[Tuple, ...]:
        return self._family

    @property
    def message_alphabet(self) -> FrozenSet:
        return self._alphabet

    def encode(self, sequence: Sequence) -> Tuple:
        try:
            return self._table[tuple(sequence)]
        except KeyError:
            raise EncodingError(f"{tuple(sequence)!r} is not in the family") from None

    def decode_prefix(self, message_prefix: Sequence) -> Tuple:
        try:
            return self._decode[tuple(message_prefix)]
        except KeyError:
            raise EncodingError(
                f"message prefix {tuple(message_prefix)!r} matches no family member"
            ) from None


def max_encodable_antichain(alphabet_size: int) -> int:
    """The largest antichain family encodable with ``alphabet_size``
    messages: ``m!`` (distinct full permutations are the only way to give
    pairwise prefix-incomparable images to pairwise incomparable members in
    the worst case)."""
    if alphabet_size < 0:
        raise VerificationError("alphabet_size must be non-negative")
    return math.factorial(alphabet_size)


def build_prefix_monotone_encoding(
    family: Iterable[Sequence],
    message_alphabet: Sequence,
    search_limit: int = 2_000_000,
) -> TableEncoding:
    """Construct a prefix-monotone encoding of ``family`` over the alphabet.

    Strategy, mirroring the paper's closing remarks of Section 3:

    1. reject a family with more than ``alpha(m)`` members, or with more
       than ``m!`` maximal members (members that are no other member's
       proper prefix): maximal members are pairwise incomparable, so
       their images must be incomparable repetition-free sequences, and
       incomparable sequences extend to disjoint sets of the ``m!`` full
       permutations;
    2. if the family is already a set of repetition-free sequences over the
       alphabet, use the identity (the ``alpha(m)``-tight case);
    3. if the family is an antichain (so at most ``m!`` members), map
       members to distinct full permutations;
    4. otherwise run a backtracking search assigning members to
       repetition-free sequences under the monotonicity constraint.

    Raises :class:`EncodingError` when no encoding exists, and its
    subclass :class:`~repro.kernel.errors.EncodingSearchExhausted` when
    the search exceeds ``search_limit`` constraint checks without
    deciding.
    """
    from repro.core.alpha import alpha

    members = [tuple(member) for member in family]
    if len(set(members)) != len(members):
        raise EncodingError("family contains duplicate sequences")
    alphabet = tuple(message_alphabet)
    if len(set(alphabet)) != len(alphabet):
        raise EncodingError(f"message alphabet has repeats: {alphabet!r}")
    capacity = alpha(len(alphabet))
    if len(members) > capacity:
        raise EncodingError(
            f"family of size {len(members)} exceeds alpha({len(alphabet)}) = "
            f"{capacity}: no prefix-monotone encoding exists (Theorem 1)"
        )
    proper_prefixes = {
        member[:cut] for member in members for cut in range(len(member))
    }
    maximal = sum(member not in proper_prefixes for member in members)
    leaves = math.factorial(len(alphabet))
    if maximal > leaves:
        raise EncodingError(
            f"family has {maximal} maximal members but only "
            f"{len(alphabet)}! = {leaves} full permutations exist: no "
            f"prefix-monotone encoding"
        )

    # Fast path 1: identity.
    if all(
        is_repetition_free(member)
        and all(item in set(alphabet) for item in member)
        for member in members
    ):
        return TableEncoding({member: member for member in members})

    # Fast path 2: antichain onto permutations (at most m! members, above).
    if maximal == len(members):
        permutations = itertools.permutations(alphabet)
        table = {
            member: perm for member, perm in zip(sorted(members, key=repr), permutations)
        }
        return TableEncoding(table)

    # General backtracking.  Assign members (shortest first) to
    # repetition-free nodes, checking monotonicity incrementally.  The
    # node pool is the full alpha(m) tree for small alphabets; for large
    # alphabets it is depth-capped at the family size (chains in the
    # family are no deeper than the family, so the usable depth is
    # bounded; enumerating alpha(m) nodes would be astronomically wasteful
    # when m is large and the family tiny).
    if len(alphabet) <= 7:
        nodes = list(repetition_free_sequences(alphabet))
    else:
        nodes = list(
            repetition_free_sequences(alphabet, max_length=len(members))
        )
    order = sorted(members, key=lambda member: (len(member), repr(member)))
    assignment: Dict[Tuple, Tuple] = {}
    used: set = set()
    budget = [search_limit]

    def consistent(member: Tuple, image: Tuple) -> bool:
        for other, other_image in assignment.items():
            budget[0] -= 1
            if budget[0] <= 0:
                raise EncodingSearchExhausted(
                    f"encoding search exceeded {search_limit} constraint checks"
                )
            if is_prefix(image, other_image) and not is_prefix(member, other):
                return False
            if is_prefix(other_image, image) and not is_prefix(other, member):
                return False
        return True

    def assign(index: int) -> bool:
        if index == len(order):
            return True
        member = order[index]
        for image in nodes:
            if image in used:
                continue
            if consistent(member, image):
                assignment[member] = image
                used.add(image)
                if assign(index + 1):
                    return True
                del assignment[member]
                used.remove(image)
        return False

    if not assign(0):
        raise EncodingError(
            f"no prefix-monotone encoding of this {len(members)}-sequence family "
            f"over {len(alphabet)} messages exists"
        )
    return TableEncoding(assignment)
