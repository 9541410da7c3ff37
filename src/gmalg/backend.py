"""The exact elimination kernel: one Gauss-Jordan for F_p and Q.

Every nullspace, solve, rank and inverse in this package lands here.  The
kernel is generic over the ring: it needs only ``ring.normalize`` (reduce an
array to canonical scalars) and ``ring.inv`` (invert one scalar), so the
same code runs on ``int64`` residues mod p and on ``object`` arrays of
``Fraction``.  A pivot step touches only the rows that are nonzero in the
pivot column, and in them only the columns where the pivot row is nonzero;
every other cell would be left as it is anyway.  That is what keeps the
sparse constraint systems of this package cheap, over Q above all, where
each skipped cell is a skipped ``Fraction`` operation.

Two batched companions run over F_p only.  Both read one column-by-column
Gauss-Jordan over every slice of a (batch, m, n) stack of residues at
once, so they pay the per-pivot Python overhead once per column of a
stack, not once per matrix.  ``rank_stack`` returns the ranks: the
loyalty and central zero-divisor scans reduce all candidates of a chunk
with it, and the witness of the first singular candidate still comes
from ``nullspace_array`` on that one matrix.  ``rref_stack`` returns each
slice's canonical reduced rows, pivot columns and rank: the blocked
nullspace reduces its same-shape components with it.  With p < 2^20
every product of two residues stays below 2^40, so the int64 arithmetic
keeps its margin.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVE_BACKEND", "rank_stack", "rref", "rref_stack"]

# the name of the kernel that runs; there is exactly one
ACTIVE_BACKEND = "numpy"


def rref(ring, a: np.ndarray):
    """Reduced row echelon form of a copy of ``a``: (matrix, pivot columns, rank).

    The pivot of each column is the first nonzero entry at or below the
    current row; the pivot row is scaled to 1 and the pivot column is
    cleared in every other row that has a nonzero there."""
    red = ring.normalize(a)
    a = red.copy() if red is a else red
    rows, cols = a.shape
    pivcols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = a[:, c].nonzero()[0]
        k = nz.searchsorted(r)
        if k == nz.size:
            continue
        piv = nz[k]
        prow = ring.normalize(a[piv] * ring.inv(a[piv, c]))
        a[piv] = a[r]  # row r is zero in column c unless piv == r
        a[r] = prow
        hit = nz[nz != piv][:, None]
        if hit.size:
            # only the cells of hit rows under the pivot row's nonzeros change
            support = prow.nonzero()[0]
            a[hit, support] = ring.normalize(a[hit, support] - a[hit, c] * prow[support])
        pivcols.append(c)
        r += 1
    return a, np.array(pivcols, dtype=np.int64), r


def _inverse_mod(p: int, x: np.ndarray) -> np.ndarray:
    """x^(p-2) mod p elementwise, the inverse of each nonzero residue, by
    square and multiply over the bits of p - 2."""
    out = np.ones_like(x)
    base = x.copy()
    e = p - 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _sweep(p: int, stack: np.ndarray):
    """The Gauss-Jordan mod p of every (m, n) slice of a (batch, m, n)
    integer stack at once: (a, pivot_row), with a the reduced stack held
    column first, (n, batch, m), and pivot_row[c, b] the pivot row of
    column c in slice b, -1 where it has none.

    For each column c, each slice takes as pivot its first nonzero row not
    yet used, scales it to 1 and clears column c from the other rows; a
    slice with no such row gets scale 0 and is left as it is.  Only the
    columns right of c are updated, and of them only those where some pivot
    row is nonzero; the pivot row takes its update with col[piv] - 1 in
    place of col[piv], which leaves it scaled.  Pivot columns themselves
    are not written: each is the unit vector of its pivot row.

    A column is reduced mod p only when it becomes the pivot column; the
    columns to its right take each update unreduced.  An update subtracts
    less than p^2 < 2^40 from a cell, so n updates stay within int64 for
    any n below 2^22.  Column first, each column of every slice is one
    contiguous block."""
    a = np.remainder(np.moveaxis(np.asarray(stack, dtype=np.int64), 2, 0), p, order="C")
    n, batch, m = a.shape
    slices = np.arange(batch)
    free = np.ones((batch, m), dtype=bool)  # rows not yet a pivot
    pivot_row = np.full((n, batch), -1, dtype=np.int64)
    for c in range(n if m else 0):
        col = a[c] % p
        cand = (col != 0) & free
        piv = cand.argmax(axis=1)
        has = cand[slices, piv]
        if not has.any():
            continue
        pivot_row[c] = np.where(has, piv, -1)
        free[slices, piv] &= ~has
        if c + 1 == n:
            break
        scale = _inverse_mod(p, col[slices, piv]) * has
        col[slices, piv] -= has
        prow = a[c + 1 :, slices, piv] % p * scale % p  # (n - c - 1, batch)
        hit = np.flatnonzero(prow.any(axis=1))
        a[c + 1 + hit] -= prow[hit, :, None] * col
    return a, pivot_row


def rank_stack(p: int, stack: np.ndarray) -> np.ndarray:
    """Rank mod p of every (m, n) slice of a (batch, m, n) integer stack:
    the number of pivots of one ``_sweep`` over all slices at once."""
    return np.count_nonzero(_sweep(p, stack)[1] >= 0, axis=0)


def rref_stack(p: int, stack: np.ndarray):
    """Reduced row echelon form mod p of every (m, n) slice of a
    (batch, m, n) integer stack: (reduced, pivots, rank).

    reduced[b] is the canonical RREF of slice b, rank[b] rows followed by
    zero rows, and pivots[b, :rank[b]] its pivot columns, ascending; pivots
    is (batch, min(m, n)) and -1 past each rank.  The RREF is unique, so
    each slice comes out as ``rref`` reduces it on its own, bit for bit:
    the rows of one ``_sweep`` over all slices at once, each pivot column
    made the unit vector of its pivot row and each slice's pivot rows
    gathered in the order of their pivot columns."""
    a, pivot_row = _sweep(p, stack)
    n, batch, m = a.shape
    at, c = np.nonzero(pivot_row.T >= 0)  # by slice, pivot columns ascending
    rank = np.bincount(at, minlength=batch)
    k = np.arange(at.size) - np.repeat(np.cumsum(rank) - rank, rank)  # of each pivot in its slice
    reduced = np.zeros((batch, m, n), dtype=np.int64)
    reduced[at, k] = a[:, at, pivot_row[c, at]].T % p
    reduced[at, :, c] = 0
    reduced[at, k, c] = 1
    pivots = np.full((batch, min(m, n)), -1, dtype=np.int64)
    pivots[at, k] = c
    return reduced, pivots, rank
