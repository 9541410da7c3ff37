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
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVE_BACKEND", "rref"]

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

