"""The one elimination kernel, on both rings.

Bit-identity against the retained slow kernels is in test_oracles.py; here
are the kernel's own contracts: a known reduction, idempotence, the input
left untouched, and the canonical scalar types of each ring; and the
batched null vectors on slices without rows, zero slices and full-rank
ones."""

from fractions import Fraction

import numpy as np

from gmalg import backend
from gmalg.exact import RATIONAL, prime_field
from gmalg.rng import XorShift64Star


def random_matrix(stream, rows, cols, p):
    return np.array(
        [[stream.below(p) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )


def test_known_reduction():
    a = np.array([[2, 1], [3, 4]], dtype=np.int64)
    red, piv, rank = backend.rref(prime_field(5), a)
    assert red.tolist() == [[1, 3], [0, 0]]
    assert piv.tolist() == [0]
    assert rank == 1


def test_known_reduction_over_q():
    a = RATIONAL.array([[2, 1, 0], [4, 2, 3], [0, 0, 6]])
    red, piv, rank = backend.rref(RATIONAL, a)
    assert red.tolist() == [[1, Fraction(1, 2), 0], [0, 0, 1], [0, 0, 0]]
    assert all(type(v) is Fraction for v in red.flat)
    assert piv.tolist() == [0, 2]
    assert rank == 2


def test_rref_is_idempotent():
    stream = XorShift64Star(99)
    a = random_matrix(stream, 6, 9, 5)
    red, piv, rank = backend.rref(prime_field(5), a)
    red2, piv2, rank2 = backend.rref(prime_field(5), red)
    assert rank == rank2 and piv.tolist() == piv2.tolist()
    assert np.array_equal(red, red2)


def test_input_is_left_untouched():
    stream = XorShift64Star(3)
    for ring in (prime_field(7), RATIONAL):
        a = ring.array(random_matrix(stream, 5, 5, 7).tolist())
        before = a.copy()
        backend.rref(ring, a)
        assert np.array_equal(a, before)


def test_nullspace_stack_without_rows_frees_every_column():
    """Every column of a slice without rows is free, with its unit vector."""
    slices, free, null = backend.nullspace_stack(5, np.zeros((2, 0, 3), dtype=np.int64))
    assert slices.tolist() == [0, 0, 0, 1, 1, 1]
    assert free.tolist() == [0, 1, 2, 0, 1, 2]
    assert null.tolist() == np.tile(np.eye(3, dtype=np.int64), (2, 1)).tolist()


def test_nullspace_stack_zero_slice_beside_full_rank():
    """A zero slice has every unit vector, a full-rank one none, and a
    rank-one slice e_f - red[0, f] e_0 for each f past its pivot."""
    stack = np.array([[[0, 0, 0], [0, 0, 0]], [[1, 2, 0], [3, 4, 1]], [[2, 4, 1], [4, 3, 2]]])
    before = stack.copy()
    slices, free, null = backend.nullspace_stack(5, stack)
    assert np.array_equal(stack, before)
    assert slices.tolist() == [0, 0, 0, 1, 2, 2]
    assert free.tolist() == [0, 1, 2, 2, 1, 2]
    # slice 1: rows (1, 2, 0) and (3, 4, 1) reduce to (1, 0, 1) and (0, 1, 2)
    # slice 2: (2, 4, 1) is half of (4, 3, 2) mod 5 and reduces to (1, 2, 3)
    assert null.tolist() == [[1, 0, 0], [0, 1, 0], [0, 0, 1], [4, 3, 1], [3, 1, 0], [2, 0, 1]]
