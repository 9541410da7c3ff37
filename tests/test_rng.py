"""The seeded stream is part of the file-format contract: every seeded
generator in the package draws from XorShift64Star, so these vectors are
frozen.  If they move, every "seeded" result file in the wild changes."""

import pytest
from hypothesis import given, strategies as st

from gmalg.rng import XorShift64Star

FROZEN = {
    1: [5180492295206395165, 12380297144915551517, 13389498078930870103],
    42: [6255019084209693600, 14430073426741505498, 14575455857230217846],
    0: [973819730272012410, 6108091081255984487, 12125365036566318712],
}


def test_frozen_vectors():
    for seed, expected in FROZEN.items():
        s = XorShift64Star(seed)
        assert [s.next_u64() for _ in range(3)] == expected


def test_zero_seed_replacement():
    # seed 0 is a fixed point of the recurrence and must be remapped
    assert XorShift64Star(0).next_u64() == XorShift64Star(0x9E3779B97F4A7C15).next_u64()
    assert XorShift64Star(0).next_u64() != 0


def test_same_seed_same_stream():
    a, b = XorShift64Star(9), XorShift64Star(9)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=97))
def test_below_stays_in_range(seed, n):
    s = XorShift64Star(seed)
    for _ in range(8):
        assert 0 <= s.below(n) < n


def test_below_rejects_nonpositive():
    with pytest.raises(ValueError):
        XorShift64Star(1).below(0)
