"""A2 (ablation): prefix-monotone encoding optimality.

The closing remarks of Section 3: solving ``X``-STP(dup) requires a
prefix-monotone, repetition-free encoding ``mu``; "when |X| <= m! one can
always find such a mapping; if the sequences in X are such that some are
prefixes of the others, then one can do better, but no better than
|X| = alpha(m)."  The constructive builder is exercised at all the
boundaries:

* the full repetition-free family (``alpha(m)`` members) -- identity, OK;
* an antichain of exactly ``m!`` members -- permutations, OK;
* an antichain of ``m! + 1`` members -- must fail (incomparable members
  need incomparable images, and only ``m!`` leaves exist); the builder
  rejects it by that count, without a search;
* a prefix chain of ``m + 1`` members -- a single path suffices;
* the overfull family (``alpha(m) + 1``) -- must fail (counting).

Every produced encoding is validated against the Encoding laws.  A
search that runs out of budget decides nothing: its row reads
"unknown" and its check fails.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

from repro.analysis.tables import render_table
from repro.core.alpha import alpha
from repro.core.encoding import EncodingError, build_prefix_monotone_encoding
from repro.experiments.base import ExperimentResult
from repro.kernel.errors import EncodingSearchExhausted
from repro.workloads import (
    antichain_family,
    overfull_family,
    prefix_chain_family,
    repetition_free_family,
)

LETTERS = "abcdefgh"


def _attempt(family, alphabet) -> Tuple[Optional[bool], object]:
    """``(encodable, detail)``; ``encodable`` is None when the search ran
    out of budget before deciding."""
    try:
        encoding = build_prefix_monotone_encoding(family, alphabet)
        encoding.validate()
        return True, max((len(encoding.encode(x)) for x in encoding.family), default=0)
    except EncodingSearchExhausted as error:
        return None, str(error)[:48]
    except EncodingError as error:
        return False, str(error)[:48]


def run(seed: int = 0, quick: bool = False) -> ExperimentResult:
    """Build the A2 table."""
    sizes = (1, 2, 3) if quick else (1, 2, 3, 4)
    headers = ("m", "family", "|X|", "expected", "encodable", "detail")
    rows: List[Tuple] = []
    checks = {}
    for m in sizes:
        alphabet = LETTERS[:m]
        cases = [
            (
                "all repetition-free",
                repetition_free_family(alphabet),
                True,
            ),
            (
                "antichain m!",
                antichain_family("01", math.factorial(m), _antichain_len(m)),
                True,
            ),
            (
                "antichain m!+1",
                antichain_family("01", math.factorial(m) + 1, _antichain_len(m)),
                False,
            ),
            (
                "prefix chain m+1",
                prefix_chain_family(alphabet, m),
                True,
            ),
            (
                "overfull alpha(m)+1",
                overfull_family(alphabet, m),
                False,
            ),
        ]
        for name, family, expected in cases:
            ok, detail = _attempt(family, alphabet)
            label = name.replace(" ", "_").replace("!", "fact").replace("+", "p")
            checks[f"m{m}_{label}_matches_theory"] = ok == expected
            encodable = "unknown" if ok is None else ok
            rows.append((m, name, len(family), expected, encodable, detail))
        checks[f"m{m}_alpha_counts"] = len(repetition_free_family(alphabet)) == alpha(
            m
        )
    rendered = render_table(
        headers,
        rows,
        title=(
            "A2: prefix-monotone encoding existence at the structural "
            "boundaries (Section 3 closing remarks)"
        ),
    )
    return ExperimentResult(
        experiment_id="A2",
        title="Encoding optimality: m! antichains, alpha(m) ceilings",
        rendered=rendered,
        headers=headers,
        rows=tuple(rows),
        checks=checks,
    )


def _antichain_len(m: int) -> int:
    """Smallest fixed length giving at least m!+1 binary sequences."""
    length = 1
    while 2**length < math.factorial(m) + 1:
        length += 1
    return length
