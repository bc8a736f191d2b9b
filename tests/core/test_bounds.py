"""Tests for the theorem-as-decision-procedure wrappers."""

import pytest
from hypothesis import given, strategies as st

from repro.core.alpha import alpha
from repro.core.bounds import (
    del_bounded_solvable,
    dup_solvable,
    family_dup_solvable,
    min_alphabet_size,
)
from repro.kernel.errors import VerificationError
from repro.workloads import overfull_family, repetition_free_family


class TestCountingBound:
    def test_at_the_bound(self):
        assert dup_solvable(alpha(3), 3)

    def test_beyond_the_bound(self):
        assert not dup_solvable(alpha(3) + 1, 3)

    def test_del_matches_dup(self):
        for size in (0, 1, 5, 16, 17):
            assert del_bounded_solvable(size, 3) == dup_solvable(size, 3)

    def test_negative_sizes_rejected(self):
        with pytest.raises(VerificationError):
            dup_solvable(-1, 2)

    @given(st.integers(min_value=0, max_value=8))
    def test_boundary_is_exactly_alpha(self, m):
        assert dup_solvable(alpha(m), m)
        assert not dup_solvable(alpha(m) + 1, m)


class TestMinAlphabet:
    def test_known_thresholds(self):
        assert min_alphabet_size(1) == 0
        assert min_alphabet_size(2) == 1
        assert min_alphabet_size(3) == 2
        assert min_alphabet_size(6) == 3
        assert min_alphabet_size(16) == 3
        assert min_alphabet_size(17) == 4

    def test_negative_rejected(self):
        with pytest.raises(VerificationError):
            min_alphabet_size(-1)

    @given(st.integers(min_value=0, max_value=500))
    def test_minimality(self, size):
        m = min_alphabet_size(size)
        assert alpha(m) >= size
        if m > 0:
            assert alpha(m - 1) < size


class TestConstructiveTest:
    def test_tight_family_solvable(self):
        family = repetition_free_family("ab")
        assert family_dup_solvable(family, "ab")

    def test_overfull_family_unsolvable(self):
        family = overfull_family("ab", 2)
        assert not family_dup_solvable(family, "ab")

    def test_structurally_unencodable_family(self):
        # 3 pairwise incomparable members need 3 incomparable images, but
        # 2 messages give only 2! = 2 full permutations.
        family = [("x", "x"), ("y", "y"), ("x", "y")]
        assert not family_dup_solvable(family, "ab")
        # The same family fits easily with 3 messages.
        assert family_dup_solvable(family, "abc")

    def test_starved_search_is_not_a_no(self):
        """An encoding search that runs out of budget decides nothing:
        it must raise, not answer "unsolvable" (or skip an alphabet
        size), although the same family is solvable on a real budget."""
        from repro.core.bounds import structural_min_alphabet
        from repro.kernel.errors import EncodingSearchExhausted

        family = [(), ("x",), ("x", "x")]
        assert family_dup_solvable(family, "ab")
        assert structural_min_alphabet(family) == 2
        with pytest.raises(EncodingSearchExhausted):
            family_dup_solvable(family, "ab", search_limit=1)
        with pytest.raises(EncodingSearchExhausted):
            structural_min_alphabet(family, search_limit=1)


class TestStructuralMinAlphabet:
    def test_matches_counting_bound_for_repetition_free_families(self):
        from repro.core.bounds import structural_min_alphabet

        family = repetition_free_family("ab")
        assert structural_min_alphabet(family) == 2

    def test_antichain_needs_more_than_counting_bound(self):
        import math

        from repro.core.bounds import structural_min_alphabet
        from repro.workloads import antichain_family

        # 3 pairwise incomparable members: counting says m=2 (alpha(2)=5),
        # structure says m=3 (only 2! = 2 incomparable images at m=2).
        family = antichain_family("01", 3, 2)
        assert min_alphabet_size(len(family)) == 2
        assert structural_min_alphabet(family) == 3

    def test_chain_meets_the_counting_bound(self):
        from repro.core.bounds import structural_min_alphabet
        from repro.workloads import prefix_chain_family

        # Monotonicity is one-directional (image-prefix implies
        # source-prefix, not conversely), so a 4-chain does NOT need a
        # 4-deep image path: nodes (), (a), (b), (a,b) host it at m = 2,
        # exactly the counting bound alpha(2) = 5 >= 4.
        family = prefix_chain_family("abcd", 3)  # 4 nested members
        assert min_alphabet_size(len(family)) == 2
        assert structural_min_alphabet(family) == 2

    def test_none_when_cap_too_small(self):
        from repro.core.bounds import structural_min_alphabet
        from repro.workloads import antichain_family

        family = antichain_family("01", 7, 3)  # needs m! >= 7 => m >= 4
        assert structural_min_alphabet(family, max_alphabet=3) is None
