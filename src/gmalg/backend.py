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

One batched companion runs over F_p only.  ``nullspace_stack`` makes one
column-by-column Gauss-Jordan over every slice of a (batch, m, n) stack of
residues at once, so it pays the per-pivot Python overhead once per column
of a stack, not once per matrix, and reads each slice's canonical null
vectors straight off the reduced columns.  The blocked nullspace reduces
its same-shape components with it, and the loyalty and central
zero-divisor scans reduce every candidate of a chunk with it and take the
first null vector as the witness.  With p < 2^20 every product of two
residues stays below 2^40, so the int64 arithmetic keeps its margin.
"""

from __future__ import annotations

import numpy as np

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
    stack of residues in [0, p) at once: (a, pivot_row), with a the reduced
    stack held column first, (n, batch, m), and pivot_row[c, b] the pivot
    row of column c in slice b, -1 where it has none.

    For each column c, each slice takes as pivot its first nonzero row not
    yet used, scales it to 1 and clears column c from the other rows; a
    slice with no such row gets scale 0 and is left as it is.  Only the
    columns right of c are updated, and of them only those where some pivot
    row is nonzero; the pivot row takes its update with col[piv] - 1 in
    place of col[piv], which leaves it scaled.  Pivot columns themselves
    are not written: each is the unit vector of its pivot row.

    A column is reduced mod p only when it becomes the pivot column; the
    columns to its right take each update unreduced.  An update subtracts
    less than p^2 < 2^40 from a cell, so n updates to a cell that starts in
    [0, p) stay within int64 for any n below 2^22; the input is not reduced
    again.  Column first, each column of every slice is one contiguous
    block."""
    a = np.moveaxis(np.asarray(stack, dtype=np.int64), 2, 0).copy()
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


def nullspace_stack(p: int, stack: np.ndarray):
    """The canonical null vectors mod p of every (m, n) slice of a
    (batch, m, n) stack of residues in [0, p): (slices, free columns,
    vectors), one vector per free column, by slice and then free column.

    The vector of free column f in slice b is the one ``nullspace_array``
    gives it, read off one ``_sweep`` over all slices at once: 1 at f,
    -a[f, b, pivot_row[c, b]] at each pivot column c, 0 elsewhere.  A free
    column is zero mod p in every row that is not yet a pivot row when the
    sweep reaches it, and is left alone after, so the pivot columns right
    of f read 0."""
    a, pivot_row = _sweep(p, stack)
    n = a.shape[0]
    b, f = np.nonzero(pivot_row.T < 0)
    rows = pivot_row[:, b]  # (n, vectors): the pivot row of each column
    c, k = np.nonzero(rows >= 0)
    null = np.zeros((b.size, n), dtype=np.int64)
    null[k, c] = -a[f[k], b[k], rows[c, k]] % p
    null[np.arange(b.size), f] = 1
    return b, f, null
