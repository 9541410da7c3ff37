"""Deterministic pseudo-random stream used by every seeded generator.

The generator is xorshift64* with Vigna's multiplier:

    state ^= state >> 12
    state ^= (state << 25) & 0xFFFFFFFFFFFFFFFF
    state ^= state >> 27
    output = (state * 0x2545F4914F6CDD1D) & 0xFFFFFFFFFFFFFFFF

A seed of 0 would be a fixed point of the recurrence, so it is replaced by
the odd constant 0x9E3779B97F4A7C15 (the 64-bit golden ratio).  Bounded
draws are plain ``output % n``.  The recurrence and the test vectors below
are frozen: any reimplementation that reproduces them reproduces every
seeded value in this package bit for bit.

Test vectors (first three outputs):
    seed=1  -> 5180492295206395165, 12380297144915551517, 13389498078930870103
    seed=42 -> 6255019084209693600, 14430073426741505498, 14575455857230217846
    seed=0  -> 973819730272012410, 6108091081255984487, 12125365036566318712
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D
_ZERO_SEED_REPLACEMENT = 0x9E3779B97F4A7C15


class XorShift64Star:
    """xorshift64* stream; all package-level randomness flows through this."""

    def __init__(self, seed: int):
        state = seed & _MASK
        if state == 0:
            state = _ZERO_SEED_REPLACEMENT
        self._state = state

    def next_u64(self) -> int:
        s = self._state
        s ^= s >> 12
        s = (s ^ (s << 25)) & _MASK
        s ^= s >> 27
        self._state = s
        return (s * _MULT) & _MASK

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); bias is irrelevant at our n << 2**64."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n
