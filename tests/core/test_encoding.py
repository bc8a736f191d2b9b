"""Tests for prefix-monotone encodings."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.alpha import alpha
from repro.core.encoding import (
    EncodingError,
    IdentityEncoding,
    TableEncoding,
    build_prefix_monotone_encoding,
    is_prefix_monotone,
    max_encodable_antichain,
)
from repro.core.sequences import is_prefix, is_repetition_free
from repro.kernel.errors import EncodingSearchExhausted
from repro.workloads import (
    antichain_family,
    overfull_family,
    prefix_chain_family,
    repetition_free_family,
)


class TestIdentityEncoding:
    def test_family_is_all_repetition_free(self):
        encoding = IdentityEncoding("ab")
        assert len(encoding.family) == alpha(2)

    def test_encode_is_identity(self):
        encoding = IdentityEncoding("abc")
        assert encoding.encode(("b", "a")) == ("b", "a")

    def test_decode_is_identity(self):
        encoding = IdentityEncoding("abc")
        assert encoding.decode_prefix(("c",)) == ("c",)

    def test_encode_rejects_repetitions(self):
        with pytest.raises(EncodingError):
            IdentityEncoding("ab").encode(("a", "a"))

    def test_encode_rejects_foreign_symbols(self):
        with pytest.raises(EncodingError):
            IdentityEncoding("ab").encode(("z",))

    def test_repeated_domain_rejected(self):
        with pytest.raises(EncodingError):
            IdentityEncoding("aa")

    def test_validates(self):
        IdentityEncoding("abc").validate()


class TestTableEncoding:
    def test_valid_table_accepted(self):
        table = TableEncoding({("x",): ("a",), ("y",): ("b",)})
        assert table.encode(("x",)) == ("a",)

    def test_decode_prefix_lcp(self):
        table = TableEncoding(
            {("x", "y"): ("a", "b"), ("x", "z"): ("a", "c")}
        )
        # After only 'a', both candidates share the source prefix ('x',).
        assert table.decode_prefix(("a",)) == ("x",)
        assert table.decode_prefix(("a", "b")) == ("x", "y")

    def test_decode_empty_prefix_gives_common_prefix(self):
        table = TableEncoding(
            {("x", "y"): ("a",), ("x", "z"): ("b",), ("x",): ("c",)}
        )
        assert table.decode_prefix(()) == ("x",)

    def test_rejects_repeating_image(self):
        with pytest.raises(EncodingError):
            TableEncoding({("x",): ("a", "a")})

    def test_rejects_non_injective(self):
        with pytest.raises(EncodingError):
            TableEncoding({("x",): ("a",), ("y",): ("a",)})

    def test_rejects_non_monotone(self):
        # mu(x) = (a) is a prefix of mu(y,z) = (a, b), but (x,) is not a
        # prefix of (y, z).
        with pytest.raises(EncodingError):
            TableEncoding({("x",): ("a",), ("y", "z"): ("a", "b")})

    def test_unknown_member_rejected(self):
        table = TableEncoding({("x",): ("a",)})
        with pytest.raises(EncodingError):
            table.encode(("nope",))

    def test_unknown_prefix_rejected(self):
        table = TableEncoding({("x",): ("a",)})
        with pytest.raises(EncodingError):
            table.decode_prefix(("z",))


class TestMonotonicityChecker:
    def test_accepts_antichain(self):
        assert is_prefix_monotone({("x",): ("a",), ("y",): ("b",)})

    def test_accepts_aligned_chain(self):
        assert is_prefix_monotone({("x",): ("a",), ("x", "y"): ("a", "b")})

    def test_rejects_crossed_chain(self):
        assert not is_prefix_monotone({("x",): ("a",), ("y", "z"): ("a", "b")})


class TestBuilder:
    def test_identity_fast_path(self):
        family = repetition_free_family("ab")
        encoding = build_prefix_monotone_encoding(family, "ab")
        assert all(encoding.encode(member) == member for member in family)

    def test_antichain_fast_path(self):
        family = antichain_family("01", 6, 3)  # 6 = 3! members
        encoding = build_prefix_monotone_encoding(family, "abc")
        encoding.validate()
        images = [encoding.encode(member) for member in family]
        assert all(len(image) == 3 for image in images)

    def test_overfull_family_rejected_with_theorem_reference(self):
        family = overfull_family("ab", 2)
        with pytest.raises(EncodingError, match="Theorem 1"):
            build_prefix_monotone_encoding(family, "ab")

    def test_oversized_antichain_rejected(self):
        family = antichain_family("01", math.factorial(2) + 1, 2)
        with pytest.raises(EncodingError):
            build_prefix_monotone_encoding(family, "ab")

    @pytest.mark.parametrize("m, length", [(3, 3), (4, 5)])
    def test_antichain_past_the_permutation_ceiling_needs_no_search(
        self, m, length
    ):
        # m!+1 incomparable members need m!+1 incomparable images, but
        # only m! full permutations exist: decided before any search,
        # so even a one-check budget cannot leave it undecided.
        family = antichain_family("01", math.factorial(m) + 1, length)
        with pytest.raises(EncodingError, match="maximal members") as info:
            build_prefix_monotone_encoding(family, "abcd"[:m], search_limit=1)
        assert not isinstance(info.value, EncodingSearchExhausted)

    def test_starved_search_is_not_a_verdict(self):
        # Neither identity nor antichain: only the search can decide,
        # and one constraint check is not enough to.
        with pytest.raises(EncodingSearchExhausted, match="exceeded 1"):
            build_prefix_monotone_encoding(
                [(), ("x",), ("x", "x")], "ab", search_limit=1
            )

    def test_prefix_chain_fits_single_path(self):
        family = prefix_chain_family("abc", 3)
        encoding = build_prefix_monotone_encoding(family, "abc")
        encoding.validate()

    def test_mixed_family_backtracking(self):
        # Not identity (foreign items), not an antichain: forces the
        # general search.
        family = [(), ("x",), ("x", "x")]
        encoding = build_prefix_monotone_encoding(family, "ab")
        encoding.validate()

    def test_duplicate_family_rejected(self):
        with pytest.raises(EncodingError):
            build_prefix_monotone_encoding([("x",), ("x",)], "ab")

    def test_repeated_alphabet_rejected(self):
        with pytest.raises(EncodingError):
            build_prefix_monotone_encoding([("x",)], "aa")

    def test_max_encodable_antichain(self):
        assert max_encodable_antichain(3) == 6
        assert max_encodable_antichain(0) == 1

    @settings(max_examples=25, deadline=None)
    @given(
        st.sets(
            st.lists(st.sampled_from("01"), min_size=2, max_size=2).map(tuple),
            min_size=1,
            max_size=4,
        )
    )
    def test_random_small_antichains_encode_and_validate(self, family):
        encoding = build_prefix_monotone_encoding(sorted(family), "abc")
        encoding.validate()
        for member in family:
            image = encoding.encode(member)
            assert is_repetition_free(image)
            assert encoding.decode_prefix(image) == member

    @settings(max_examples=15, deadline=None)
    @given(
        st.sets(
            st.lists(st.sampled_from("xy"), max_size=2).map(tuple),
            min_size=1,
            max_size=5,
        )
    )
    def test_random_families_roundtrip_when_encodable(self, family):
        family = sorted(family)
        try:
            encoding = build_prefix_monotone_encoding(family, "abc")
        except EncodingError:
            return  # structurally unencodable: acceptable outcome
        encoding.validate()
        for member in family:
            assert encoding.decode_prefix(encoding.encode(member)) == member
