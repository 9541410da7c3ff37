"""Exact scalars and dense exact linear algebra over Q and F_p (p >= 5).

Scalars are plain python objects: ``fractions.Fraction`` over the rationals,
``int`` residues in [0, p) over a prime field.  Matrices and tensors are
numpy arrays (``object`` dtype holding Fractions, or ``int64`` mod p), so
all the structure-constant plumbing elsewhere can use plain numpy indexing
and tensordot.  There is no floating point anywhere in this module and no
epsilon anywhere in this package: every comparison is exact equality.

The trace predicates, the reconstruction check and the check of each
factored solve test for zero and equality on lifted values (``_lift``): over
Q an array of python ints n and one denominator L for the values n / L, over
F_p the residues themselves with L = 1.  They build ``Fraction``s
(``_unlift``) only for the values they return.

RREF is canonical (unique reduced row echelon form).  ``FactoredMatrix``
solves a matrix many times from reductions made once: each solve returns
the canonical solution, every free variable set to zero, or None when the
system is inconsistent.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

import numpy as np

from . import backend


class ExactError(ValueError):
    """Raised for malformed rings, scalars, or shape mismatches."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True)
class RingDescriptor:
    """Which exact coefficient ring is in play: Q, or F_p with p an odd prime >= 5.

    p >= 5 keeps 2, 3 and 6 invertible (the decompositions divide by them) and
    keeps degree-3 coefficient extraction faithful (individual degrees stay
    below the characteristic).
    """

    kind: str  # "rational" | "prime_field"
    p: int | None = None

    def __post_init__(self):
        if self.kind == "rational":
            if self.p is not None:
                raise ExactError("rational ring takes no modulus")
        elif self.kind == "prime_field":
            # the size comes first: trial division of a huge p would not end
            if self.p is not None and self.p >= 1 << 20:
                raise ExactError("p too large for the int64 kernels")
            if self.p is None or not _is_prime(self.p) or self.p < 5:
                raise ExactError(f"prime_field needs a prime p >= 5, got {self.p!r}")
        else:
            raise ExactError(f"unknown ring kind {self.kind!r}")

    # -- scalar helpers -------------------------------------------------

    @property
    def is_prime_field(self) -> bool:
        return self.kind == "prime_field"

    @property
    def zero(self):
        return 0 if self.is_prime_field else Fraction(0)

    @property
    def one(self):
        return 1 if self.is_prime_field else Fraction(1)

    def coerce(self, v):
        """Coerce ints / Fractions / 'a/b' strings into a canonical scalar."""
        if self.is_prime_field:
            if isinstance(v, str):
                v = int(v, 10)
            if isinstance(v, (int, np.integer)):
                return int(v) % self.p
            raise ExactError(f"cannot coerce {v!r} into F_{self.p}")
        if isinstance(v, Fraction):
            return v
        if isinstance(v, (int, np.integer)):
            return Fraction(int(v))
        if isinstance(v, str):
            return Fraction(v)
        raise ExactError(f"cannot coerce {v!r} into Q")

    def inv(self, v):
        v = self.coerce(v)
        if v == self.zero:
            raise ZeroDivisionError("inverting zero")
        if self.is_prime_field:
            return pow(v, self.p - 2, self.p)
        return Fraction(1) / v

    def neg(self, v):
        v = self.coerce(v)
        return (-v) % self.p if self.is_prime_field else -v

    @property
    def half(self):
        """1/2 — always defined (char is 0 or an odd prime)."""
        return self.inv(self.coerce(2))

    def scalar_to_json(self, v):
        v = self.coerce(v)
        return int(v) if self.is_prime_field else str(v)

    def random_scalar(self, stream):
        """Seeded draw: uniform residue over F_p, small integer over Q."""
        if self.is_prime_field:
            return stream.below(self.p)
        return Fraction(stream.below(7) - 3)

    # -- array helpers --------------------------------------------------

    @property
    def dtype(self):
        return np.int64 if self.is_prime_field else object

    def zeros(self, shape) -> np.ndarray:
        if self.is_prime_field:
            return np.zeros(shape, dtype=np.int64)
        a = np.empty(shape, dtype=object)
        a[...] = Fraction(0)
        return a

    def eye(self, n: int) -> np.ndarray:
        a = self.zeros((n, n))
        for i in range(n):
            a[i, i] = self.one
        return a

    def array(self, nested) -> np.ndarray:
        """Build a canonical array from nested python data."""
        raw = np.array(nested, dtype=object)
        out = self.zeros(raw.shape)
        for idx in np.ndindex(raw.shape):
            out[idx] = self.coerce(raw[idx])
        return out

    def normalize(self, arr: np.ndarray) -> np.ndarray:
        if self.is_prime_field:
            return np.asarray(arr, dtype=np.int64) % self.p
        return arr

    def tensordot(self, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
        """Exact tensordot; guards empty contractions (numpy would emit float zeros).

        Both operands are lifted (``_lift``) and contracted, so over Q each
        output cell costs one ``Fraction`` instead of a ``Fraction`` product
        and sum per term; over F_p the lift is the identity."""
        na, la = _lift(self, np.asarray(a))
        nb, lb = _lift(self, np.asarray(b))
        return _unlift(self, _contract(self, na, nb, axes), la * lb)

    def equal(self, a: np.ndarray, b: np.ndarray) -> bool:
        a = self.normalize(a)
        b = self.normalize(b)
        return a.shape == b.shape and bool(np.all(a == b))

    def is_zero(self, arr: np.ndarray) -> bool:
        return bool(np.all(self.normalize(arr) == self.zero))


RATIONAL = RingDescriptor("rational")


def clear_denominators(a: np.ndarray):
    """(n, L) with a == n / L: L is the lcm of the denominators of a's
    rational entries and n an ``object`` array of python ints."""
    ratios = [v.as_integer_ratio() for v in np.asarray(a).ravel().tolist()]
    den = lcm(*{d for _, d in ratios})
    lifted = np.array([n * (den // d) for n, d in ratios], dtype=object)
    return lifted.reshape(np.shape(a)), den


def _lift(ring: RingDescriptor, a: np.ndarray):
    """(n, L) with a == n / L, the form in which the package decides
    equalities: over Q, n holds python ints (``clear_denominators``); over
    F_p a is returned as it is, with L = 1."""
    if ring.is_prime_field:
        return a, 1
    return clear_denominators(a)


def _unlift(ring: RingDescriptor, n: np.ndarray, L: int) -> np.ndarray:
    """The ring values n / L of lifted values n: one ``Fraction`` per cell
    over Q, n itself over F_p when L = 1."""
    if ring.is_prime_field:
        return n if L == 1 else ring.normalize(n * ring.inv(L))
    return np.array([Fraction(v, L) for v in n.ravel().tolist()], dtype=object).reshape(n.shape)


def _contract(ring: RingDescriptor, a: np.ndarray, b: np.ndarray, axes) -> np.ndarray:
    """tensordot of lifted values, reduced mod p over F_p; guards empty
    contractions (numpy would emit float zeros)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.size == 0 or b.size == 0:
        shape = np.tensordot(np.zeros(a.shape), np.zeros(b.shape), axes=axes).shape
        return np.zeros(shape, dtype=ring.dtype)
    return ring.normalize(np.tensordot(a, b, axes=axes))


def _td(ring: RingDescriptor, a, b, axes):
    """_contract of lifted a = (n, L) and b = (m, K): (contraction, L * K)."""
    return _contract(ring, a[0], b[0], axes), a[1] * b[1]


def _scaled_equal(ring: RingDescriptor, a: np.ndarray, la: int, b: np.ndarray, lb: int) -> bool:
    """Is a / la == b / lb cell by cell, for lifted a and b?  Decided as
    a * lb == b * la, on the integers themselves over Q."""
    if la != lb:
        a, b = ring.normalize(a * lb), ring.normalize(b * la)
    return a.shape == b.shape and bool(np.all(a == b))


def _scaled(n: np.ndarray, k: int) -> np.ndarray:
    """n * k for lifted n, skipped when k == 1, as every scale is over F_p."""
    return n if k == 1 else n * k


def _common(*terms):
    """The numerators of lifted terms (n, L) over their common scale, and
    that scale: the lcm of theirs, 1 over F_p."""
    L = lcm(*(l for _, l in terms))
    return [n if l == L else n * (L // l) for n, l in terms], L


def _add(ring: RingDescriptor, *terms):
    """The sum of lifted terms (n, L), lifted over their common scale."""
    ns, L = _common(*terms)
    return ring.normalize(sum(ns[1:], ns[0])), L


def _sub(ring: RingDescriptor, a, b):
    """a - b for lifted a = (n, L) and b, lifted over their common scale."""
    (na, nb), L = _common(a, b)
    return ring.normalize(na - nb), L


def prime_field(p: int) -> RingDescriptor:
    return RingDescriptor("prime_field", p)


def ring_to_json(ring: RingDescriptor) -> dict:
    if ring.is_prime_field:
        return {"kind": "prime_field", "p": ring.p}
    return {"kind": "rational"}


def ring_from_json(d: dict) -> RingDescriptor:
    if not isinstance(d, dict) or "kind" not in d:
        raise ExactError(f"bad ring descriptor {d!r}")
    if d["kind"] == "rational":
        return RATIONAL
    if d["kind"] == "prime_field":
        p = d.get("p", 0)
        if isinstance(p, bool) or not isinstance(p, int):
            raise ExactError(f"prime_field needs an integer p, got {p!r}")
        return prime_field(p)
    raise ExactError(f"unknown ring kind {d['kind']!r}")


# ---------------------------------------------------------------------------
# dense exact elimination
# ---------------------------------------------------------------------------


def rref_array(ring: RingDescriptor, mat: np.ndarray):
    """Reduced row echelon form: (rref, pivot column tuple, rank)."""
    mat = ring.normalize(mat)
    if mat.ndim != 2:
        raise ExactError("rref expects a 2-D matrix")
    if mat.size == 0:
        return mat.copy(), (), 0
    red, piv, rank = backend.rref(ring, mat)
    return red, tuple(int(c) for c in piv), rank


def row_basis(ring: RingDescriptor, rows: np.ndarray) -> np.ndarray:
    """The canonical basis of the row span of rows: the nonzero rows of
    their RREF, as a (rank, columns) array."""
    red, _, rank = rref_array(ring, rows)
    return red[:rank].copy()


def rank_array(ring: RingDescriptor, mat: np.ndarray) -> int:
    return rref_array(ring, mat)[2]


def nullspace_array(ring: RingDescriptor, mat: np.ndarray) -> np.ndarray:
    """Canonical nullspace basis, one vector per row (free columns ascending).

    Row f is e_f - sum_k red[k, f] e_{piv_k}.  It is also the annihilator of
    the row span: ``nullspace_array(rows) @ v`` is zero iff v lies in the
    span of rows, the package's one test of span membership.
    """
    rows, cols = np.shape(mat)
    red, piv, rank = rref_array(ring, mat)  # rref_array normalizes its own copy
    pivots = set(piv)
    free = [c for c in range(cols) if c not in pivots]
    basis = ring.zeros((len(free), cols))
    if free:
        basis[range(len(free)), free] = ring.one
        basis[:, list(piv)] = -red[:rank, free].T
    return ring.normalize(basis)


# a system at most this wide is reduced whole, as one dense matrix
_WHOLE_COLUMNS = 32


def blocked_nullspace(ring: RingDescriptor, entries, n_cols: int) -> np.ndarray:
    """``nullspace_array`` of the (n_rows, n_cols) matrix whose nonzero
    entries (row count, rows, columns, values) are given, each (row, column)
    once and in canonical scalars, as ``_sparse_times`` takes them, solved
    one block at a time.

    A matrix of at most _WHOLE_COLUMNS columns is scattered dense and
    reduced whole.  A wider one is cut into the connected components of the
    graph in which an entry joins its row to its column, each a dense block
    of its own rows and columns, both in ascending order.  Over F_p the
    components of a (rows, columns) shape that at least two of them share
    are reduced together by ``backend.nullspace_stack``; every other
    component, and every component over Q, is reduced alone by
    ``nullspace_array``.
    A block-diagonal matrix has the pivots of its blocks, and each canonical
    null vector e_f - sum_k red[k, f] e_{piv_k} lies in the columns of f's
    block, so the null vectors of the blocks put back into their columns
    and sorted by free column are the dense ones, bit for bit.  The free
    column of a null vector is its last nonzero entry: red[k, f] != 0 only
    for piv_k < f."""
    n_rows, r, c, values = entries
    if n_cols <= _WHOLE_COLUMNS:
        dense = ring.zeros((n_rows, n_cols))
        dense[r, c] = values
        return nullspace_array(ring, dense)
    component = np.unique(_column_components(n_rows, r, c, n_cols), return_inverse=True)[1]
    n_blocks = int(component.max()) + 1
    row_component = np.full(n_rows, n_blocks)  # past the last for a row without entries
    row_component[r] = component[c]
    at_col, by_col, width = _ordinals(component, n_blocks)
    at_row, _, height = _ordinals(row_component, n_blocks + 1)
    _, by_entry, count = _ordinals(component[c], n_blocks)
    first_col, first_entry = np.cumsum(width) - width, np.cumsum(count) - count
    shape = np.arange(n_blocks)  # over Q each component is reduced alone
    if ring.is_prime_field:
        shape = np.unique(height[:-1] * (n_cols + 1) + width, return_inverse=True)[1]
    pieces = []  # (free columns, the columns of their null vectors, null vectors)
    for s in range(int(shape.max()) + 1):
        members = np.flatnonzero(shape == s)
        m, n = height[members[0]], width[members[0]]
        at = np.concatenate([by_entry[first_entry[k] : first_entry[k] + count[k]] for k in members])
        stack = ring.zeros((members.size, m, n))
        slot = np.repeat(np.arange(members.size), count[members])
        stack[slot, at_row[r[at]], at_col[c[at]]] = values[at]
        cols = by_col[first_col[members, None] + np.arange(n)]
        if members.size > 1:
            b, f, null = backend.nullspace_stack(ring.p, stack)
            pieces.append((cols[b, f], cols[b], null))
        else:
            null = nullspace_array(ring, stack[0])
            pieces.append((cols[0, n - 1 - np.argmax(null[:, ::-1] != 0, axis=1)], cols, null))
    is_free = np.zeros(n_cols, dtype=bool)
    for free, _, _ in pieces:
        is_free[free] = True
    slot = np.cumsum(is_free) - 1  # the basis row of each free column
    basis = ring.zeros((int(is_free.sum()), n_cols))
    for free, cols, null in pieces:
        basis[slot[free, None], cols] = null
    return basis


def _ordinals(label: np.ndarray, n_labels: int):
    """(ordinal, order, count): the place of each item among the items of
    its label, in index order; the items sorted by label, stably; and the
    number of items of each label."""
    order = np.argsort(label, kind="stable")
    count = np.bincount(label, minlength=n_labels)
    ordinal = np.empty(label.size, dtype=np.intp)
    ordinal[order] = np.arange(label.size) - np.repeat(np.cumsum(count) - count, count)
    return ordinal, order, count


def _column_components(n_rows: int, r: np.ndarray, c: np.ndarray, n_cols: int) -> np.ndarray:
    """label[j], the least column joined to column j through shared rows:
    each row takes the least label of its columns and hands it back to
    them, and pointer jumping (label = label[label]) shortcuts the chains,
    until nothing changes."""
    label = np.arange(n_cols)
    while True:
        low = np.full(n_rows, n_cols)
        np.minimum.at(low, r, label[c])
        new = label.copy()
        np.minimum.at(new, c, low[r])
        while not np.array_equal(jumped := new[new], new):
            new = jumped
        if np.array_equal(new, label):
            return label
        label = new


class FactoredMatrix:
    """A matrix reduced once for many exact solves ``mat @ x = b``.

    A solve on its own reduces ``[mat | b]`` for every b; this pays two
    reductions once.  Reducing the transpose of mat's distinct nonzero rows
    picks r = rank independent rows S of mat, and reducing ``[mat_S | I_r]``
    gives the pivot columns P of mat (mat_S has mat's row space, hence its
    column dependencies) and the transform E with E mat_S = RREF(mat).  For
    each b, x_P = E b_S and x = 0 elsewhere: if b is consistent this is its
    unique canonical solution, the one the reduction of ``[mat | b]`` gives, so
    ``mat @ x == b`` decides consistency.  E and mat are kept as their
    nonzero entries, so both products cost one operation per nonzero, and
    lifted (``_lift``), so over Q both run on python ints and only x is
    built as ``Fraction``s.

    ``mat`` must hold canonical scalars of ``ring``, as ``ring.normalize``
    returns them.
    """

    def __init__(self, ring: RingDescriptor, mat: np.ndarray):
        if np.ndim(mat) != 2:
            raise ExactError("FactoredMatrix expects a 2-D matrix")
        rows, cols = mat.shape
        self._matrix, self._matrix_scale = _nonzero_entries(ring, mat)
        # zero and repeated rows add nothing to the row space, so only the
        # first copy of each distinct nonzero row goes into mat^T
        nonzero = np.flatnonzero(np.bincount(self._matrix[1], minlength=rows))
        first = {}
        for i, row in zip(nonzero.tolist(), mat[nonzero].tolist()):
            first.setdefault(tuple(row), i)
        candidates = list(first.values())
        self.ring = ring
        self.shape = (rows, cols)
        self.rows = [candidates[c] for c in rref_array(ring, mat[candidates].T)[1]]
        red, piv, _ = rref_array(
            ring, np.concatenate([mat[self.rows], ring.eye(len(self.rows))], axis=1)
        )
        self.pivots = list(piv)
        self._transform, self._transform_scale = _nonzero_entries(ring, red[:, cols:])

    def solve_lifted(self, b: np.ndarray, lb: int):
        """Solves of mat @ x = b / lb on lifted values (``_lift``), for one
        right-hand side b or a stack of them as rows: (x, L, ok) with x / L
        the canonical solution wherever ok holds, meaningless elsewhere."""
        ring = self.ring
        x = np.zeros(b.shape[:-1] + self.shape[1:], dtype=ring.dtype)
        x[..., self.pivots] = _sparse_times(ring, self._transform, b[..., self.rows].T).T
        # mat @ x / (mat's scale * E's scale * lb) == b / lb
        Kx = _sparse_times(ring, self._matrix, x.T)
        ok = np.all(Kx == _scaled(b.T, self._matrix_scale * self._transform_scale), axis=0)
        return x, self._transform_scale * lb, ok


def _nonzero_entries(ring: RingDescriptor, mat: np.ndarray):
    """((row count, rows, columns, values), L): the nonzero entries of mat,
    by row, with their values lifted (``_lift``) over L."""
    r, c = np.nonzero(mat != 0)  # a Fraction compares with the int 0 faster than with Fraction(0)
    values, L = _lift(ring, mat[r, c])
    return (mat.shape[0], r, c, values), L


def _sparse_times(ring: RingDescriptor, entries, v: np.ndarray) -> np.ndarray:
    """mat @ v on lifted values (``_lift``), for mat given by
    ``_nonzero_entries`` and v a vector or a matrix."""
    n, r, c, values = entries
    out = np.zeros((n,) + v.shape[1:], dtype=ring.dtype)
    np.add.at(out, r, values.reshape((-1,) + (1,) * (v.ndim - 1)) * v[c])
    return ring.normalize(out)


def inverse_array(ring: RingDescriptor, mat: np.ndarray):
    """Exact inverse, or None when the matrix is singular."""
    mat = ring.normalize(mat)
    n, m = mat.shape
    if n != m:
        raise ExactError("inverse expects a square matrix")
    aug = ring.zeros((n, 2 * n))
    aug[:, :n] = mat
    aug[:, n:] = ring.eye(n)
    red, piv, rank = rref_array(ring, aug)
    if rank < n or any(c >= n for c in piv[:n]) or len(piv) < n:
        return None
    return red[:, n:].copy()


def row_span_coords(ring: RingDescriptor, basis_rows: np.ndarray, v: np.ndarray):
    """Coordinates of v in a *canonical RREF* row basis, or None if outside.

    The coordinates are v read at the pivot columns; v is inside iff the
    annihilator ``nullspace_array(basis_rows)`` kills it.  v may stack
    vectors along its leading axes, and is outside if any of them is.
    """
    v = ring.normalize(np.asarray(v))
    if not ring.is_zero(ring.tensordot(v, nullspace_array(ring, basis_rows), axes=([-1], [1]))):
        return None
    return v[..., (basis_rows != 0).argmax(axis=1)] if basis_rows.size else v[..., :0]
