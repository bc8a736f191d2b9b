"""Theorems 1 and 2 packaged as decision procedures.

Given a family size (or the family itself) and a sender alphabet size,
answer the questions the paper answers:

* can ``X``-STP(dup) be solved?  (Theorem 1: iff ``|X| <= alpha(m)``, with
  the caveat that *which* families of size ``alpha(m)`` are solvable
  depends on their prefix structure -- see
  :mod:`repro.core.encoding` for the constructive test);
* can ``X``-STP(del) be solved *boundedly*?  (Theorem 2: same bound);
* what is the smallest alphabet for a given family?
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from repro.kernel.errors import (
    EncodingError,
    EncodingSearchExhausted,
    VerificationError,
)
from repro.core.alpha import alpha
from repro.core.encoding import build_prefix_monotone_encoding


def dup_solvable(family_size: int, alphabet_size: int) -> bool:
    """Theorem 1's necessary condition: ``family_size <= alpha(m)``."""
    if family_size < 0 or alphabet_size < 0:
        raise VerificationError("sizes must be non-negative")
    return family_size <= alpha(alphabet_size)


def del_bounded_solvable(family_size: int, alphabet_size: int) -> bool:
    """Theorem 2's necessary condition for *bounded* solutions: identical
    to the duplication bound."""
    return dup_solvable(family_size, alphabet_size)


def min_alphabet_size(family_size: int) -> int:
    """The smallest ``m`` with ``alpha(m) >= family_size``.

    The necessary alphabet size for any solution to ``X``-STP(dup) (or any
    bounded solution to ``X``-STP(del)) with ``|X| = family_size``.
    """
    if family_size < 0:
        raise VerificationError("family_size must be non-negative")
    m = 0
    while alpha(m) < family_size:
        m += 1
    return m


def structural_min_alphabet(
    family: Iterable[Sequence],
    max_alphabet: int = 8,
    search_limit: int = 2_000_000,
) -> Optional[int]:
    """The smallest alphabet size for which ``family`` is actually
    encodable, accounting for its prefix structure.

    The counting bound :func:`min_alphabet_size` is necessary but not
    sufficient: an antichain of ``m! + 1`` members needs more than ``m``
    messages even when ``alpha(m)`` would allow it by count.  This scans
    upward from the counting bound, attempting the constructive builder
    at each size; returns None if no alphabet up to ``max_alphabet``
    suffices.  A search that runs out of ``search_limit`` at some size
    decides nothing about that size, so it raises
    :class:`~repro.kernel.errors.EncodingSearchExhausted` instead of
    moving on to the next.
    """
    members = [tuple(member) for member in family]
    lower = min_alphabet_size(len(members))
    for size in range(lower, max_alphabet + 1):
        alphabet = tuple(f"_m{i}" for i in range(size))
        if family_dup_solvable(members, alphabet, search_limit=search_limit):
            return size
    return None


def family_dup_solvable(
    family: Iterable[Sequence],
    message_alphabet: Sequence,
    search_limit: int = 2_000_000,
) -> bool:
    """The *constructive* solvability test for a concrete family: does a
    prefix-monotone encoding over the given alphabet exist?

    Subsumes the counting bound (an overfull family can have no encoding)
    and additionally accounts for the family's prefix structure, per the
    closing remarks of Section 3.  Raises
    :class:`~repro.kernel.errors.EncodingSearchExhausted` when
    ``search_limit`` runs out before the search decides.
    """
    try:
        build_prefix_monotone_encoding(
            family, message_alphabet, search_limit=search_limit
        )
    except EncodingSearchExhausted:
        raise
    except EncodingError:
        return False
    return True
