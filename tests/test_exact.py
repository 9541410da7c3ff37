"""Exact linear algebra over Q (Fraction) and F_p.

The worked examples are frozen from hand-row-reduction; the hypothesis
blocks state the algebraic laws the solvers must satisfy for arbitrary
small inputs.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmalg.exact import (
    ExactError,
    FactoredMatrix,
    RATIONAL,
    RingDescriptor,
    inverse_array,
    nullspace_array,
    prime_field,
    rank_array,
    ring_from_json,
    ring_to_json,
    row_span_coords,
    rref_array,
)
from support import factored_solve
from test_oracles import row_space_contains, row_space_equal, solve_array

F5 = prime_field(5)
F7 = prime_field(7)


# ---------------------------------------------------------------------------
# ring descriptors
# ---------------------------------------------------------------------------


def test_ring_descriptor_kinds():
    assert RATIONAL.kind == "rational"
    assert not RATIONAL.is_prime_field
    assert F5.is_prime_field and F5.p == 5


def test_prime_field_rejects_bad_moduli():
    for bad in (4, 6, 9, 1, 0, -5):
        with pytest.raises(ExactError):
            prime_field(bad)
    # p >= 5 so that 2 and 3 are invertible
    for bad in (2, 3):
        with pytest.raises(ExactError):
            prime_field(bad)


def test_ring_json_roundtrip():
    for ring in (RATIONAL, F5, F7):
        assert ring_from_json(ring_to_json(ring)) == ring


def test_scalar_canonical_forms():
    assert F5.coerce(12) == 2
    assert F5.neg(F5.coerce(2)) == 3
    assert F5.inv(F5.coerce(2)) == 3
    assert RATIONAL.coerce(Fraction(2, 4)) == Fraction(1, 2)
    assert RATIONAL.inv(Fraction(3, 7)) == Fraction(7, 3)
    assert F5.half == 3  # 2 * 3 = 6 = 1 mod 5
    assert RATIONAL.half == Fraction(1, 2)


def test_division_by_zero_raises():
    with pytest.raises(ZeroDivisionError):
        F5.inv(F5.zero)
    with pytest.raises(ZeroDivisionError):
        RATIONAL.inv(RATIONAL.zero)


# ---------------------------------------------------------------------------
# frozen elimination examples
# ---------------------------------------------------------------------------


def test_rref_rational_example():
    red, piv, rank = rref_array(RATIONAL, RATIONAL.array([[1, 2], [2, 4]]))
    assert RATIONAL.equal(red, RATIONAL.array([[1, 2], [0, 0]]))
    assert piv == (0,)
    assert rank == 1


def test_rref_mod5_example():
    red, piv, rank = rref_array(F5, F5.array([[2, 1], [3, 4]]))
    # row0 * inv(2)=3 -> [1,3]; row1 - 3*row0 -> 0
    assert F5.equal(red, F5.array([[1, 3], [0, 0]]))
    assert piv == (0,)
    assert rank == 1


def test_solve_underdetermined_zeroes_free_variables():
    A, b = RATIONAL.array([[1, 1]]), RATIONAL.array([2])
    for sol in (solve_array(RATIONAL, A, b), factored_solve(FactoredMatrix(RATIONAL, A), b)):
        assert RATIONAL.equal(sol, RATIONAL.array([2, 0]))


def test_solve_inconsistent_returns_none():
    A, b = RATIONAL.array([[1], [1]]), RATIONAL.array([1, 2])
    assert solve_array(RATIONAL, A, b) is None
    assert factored_solve(FactoredMatrix(RATIONAL, A), b) is None


def test_nullspace_rational_example():
    ns = nullspace_array(RATIONAL, RATIONAL.array([[1, 2], [2, 4]]))
    assert ns.shape == (1, 2)
    assert RATIONAL.equal(ns, RATIONAL.array([[-2, 1]]))


def test_inverse_examples():
    # det([[2,1],[3,4]]) = 5: invertible over Q, singular mod 5
    A = [[2, 1], [3, 4]]
    inv_q = inverse_array(RATIONAL, RATIONAL.array(A))
    expected = RATIONAL.array(
        [[Fraction(4, 5), Fraction(-1, 5)], [Fraction(-3, 5), Fraction(2, 5)]]
    )
    assert RATIONAL.equal(inv_q, expected)
    assert inverse_array(F5, F5.array(A)) is None
    assert inverse_array(F7, F7.array(A)) is not None


def test_singular_matrix_rref_rank_inverse_nullspace():
    a = F5.array([[2, 1], [3, 4]])
    red, piv, rank = rref_array(F5, a)
    assert F5.equal(red, F5.array([[1, 3], [0, 0]]))
    assert piv == (0,) and rank == 1
    assert rank_array(F5, a) == 1
    assert inverse_array(F5, a) is None
    assert nullspace_array(F5, a).shape == (1, 2)


# ---------------------------------------------------------------------------
# span helpers
# ---------------------------------------------------------------------------


def test_row_span_helpers():
    rows = rref_array(F5, F5.array([[1, 2, 0], [0, 0, 1]]))[0]
    coords = row_span_coords(F5, rows, F5.array([2, 4, 3]))
    assert coords is not None
    assert F5.equal(coords, F5.array([2, 3]))
    assert row_span_coords(F5, rows, F5.array([0, 1, 0])) is None
    assert row_space_contains(F5, rows, F5.array([[2, 4, 3]]))
    assert not row_space_contains(F5, rows, F5.array([[0, 1, 0]]))
    assert row_space_equal(F5, rows, F5.array([[2, 4, 0], [0, 0, 4]]))
    assert not row_space_equal(F5, rows, F5.array([[1, 2, 0]]))


# ---------------------------------------------------------------------------
# elimination laws on arbitrary small matrices
# ---------------------------------------------------------------------------

small_f5_matrix = st.lists(
    st.lists(st.integers(min_value=0, max_value=4), min_size=3, max_size=3),
    min_size=1,
    max_size=5,
).map(lambda rows: F5.array(rows))


@settings(deadline=None, max_examples=60)
@given(small_f5_matrix)
def test_rref_is_idempotent(A):
    red, _, rank = rref_array(F5, A)
    red2, _, rank2 = rref_array(F5, red)
    assert rank == rank2
    assert F5.equal(red, red2)


@settings(deadline=None, max_examples=60)
@given(small_f5_matrix)
def test_rref_preserves_row_space(A):
    red, _, rank = rref_array(F5, A)
    assert row_space_equal(F5, A, red)
    assert rank <= min(A.shape)


@settings(deadline=None, max_examples=60)
@given(small_f5_matrix)
def test_nullspace_really_annihilates(A):
    ns = nullspace_array(F5, A)
    assert ns.shape[0] == A.shape[1] - rank_array(F5, A)
    if ns.shape[0]:
        assert F5.is_zero(F5.tensordot(A, ns, axes=([1], [1])))


@settings(deadline=None, max_examples=60)
@given(small_f5_matrix, st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=5))
def test_solve_solutions_verify(A, rhs_list):
    rhs = F5.array(rhs_list[: A.shape[0]] + [0] * max(0, A.shape[0] - len(rhs_list)))
    sol = solve_array(F5, A, rhs)
    factored = factored_solve(FactoredMatrix(F5, A), rhs)
    assert (sol is None) == (factored is None)
    if sol is not None:
        assert F5.equal(F5.tensordot(A, sol, axes=([1], [0])), rhs)
        assert F5.equal(factored, sol)


@settings(deadline=None, max_examples=40)
@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=6), min_size=3, max_size=3),
        min_size=3,
        max_size=3,
    )
)
def test_inverse_is_two_sided(rows):
    A = F7.array(rows)
    inv = inverse_array(F7, A)
    if inv is None:
        assert rank_array(F7, A) < 3
    else:
        eye = F7.eye(3)
        assert F7.equal(F7.tensordot(A, inv, axes=([1], [0])), eye)
        assert F7.equal(F7.tensordot(inv, A, axes=([1], [0])), eye)


def test_mixed_ring_arrays_stay_exact():
    # a rational matrix with denominators survives a rref round untouched
    A = RATIONAL.array([[Fraction(1, 3), 1], [1, Fraction(3, 4)]])
    red, _, rank = rref_array(RATIONAL, A)
    assert rank == 2
    assert RATIONAL.equal(red, RATIONAL.eye(2))
