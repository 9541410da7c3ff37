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

``rank_stack`` is the one batched companion, for F_p only: the ranks of a
whole (batch, m, n) stack of residues from one column-by-column
Gauss-Jordan over every slice at once.  The loyalty and central
zero-divisor scans reduce all candidates of a chunk with it, so they pay
the per-pivot Python overhead once per column of a chunk, not once per
candidate matrix; the witness of the first singular candidate still
comes from ``nullspace_array`` on that one matrix.  With p < 2^20 every
product of two residues stays below 2^40, so the int64 arithmetic keeps
its margin.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVE_BACKEND", "rank_stack", "rref"]

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


def rank_stack(p: int, stack: np.ndarray) -> np.ndarray:
    """Rank mod p of every (m, n) slice of a (batch, m, n) integer stack.

    One Gauss-Jordan over all slices at once: for each column c, each
    slice takes as pivot its first nonzero row not yet used, scales it by
    the pivot's inverse and clears column c from the other rows; only the
    columns right of c are kept, the only ones read again.  A slice with no
    such row has no pivot in column c.  The rank is the number of pivots.

    A column is reduced mod p only when it becomes the pivot column; the
    columns to its right take each update unreduced.  An update subtracts
    less than p^2 < 2^40 from a cell, so n updates stay within int64 for
    any n below 2^22.  The stack is held column first, (n, batch, m), so
    that each column of every slice is one contiguous block."""
    a = np.remainder(np.moveaxis(np.asarray(stack, dtype=np.int64), 2, 0), p, order="C")
    n, batch, m = a.shape
    rank = np.zeros(batch, dtype=np.int64)
    if a.size == 0:
        return rank
    slices = np.arange(batch)
    free = np.ones((batch, m), dtype=bool)  # rows not yet a pivot
    for c in range(n):
        col = a[c] % p
        cand = (col != 0) & free
        piv = cand.argmax(axis=1)
        has = cand[slices, piv]
        if not has.any():
            continue
        rank += has
        free[slices[has], piv[has]] = False
        if c + 1 == n:
            break
        # in a slice without a pivot only used rows are nonzero in column c;
        # they change, but they are never read again
        scale = _inverse_mod(p, col[slices, piv])
        prow = a[c + 1 :, slices, piv] % p * scale % p  # (n - c - 1, batch)
        a[c + 1 :] -= prow[:, :, None] * col
    return rank
