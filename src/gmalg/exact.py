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

RREF is canonical (unique reduced row echelon form); ``solve`` returns the
canonical solution with every free variable set to zero, or None when the
system is inconsistent.  ``FactoredMatrix`` returns the same solutions for a
matrix solved many times, from reductions made once.
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
            if self.p is None or not _is_prime(self.p) or self.p < 5:
                raise ExactError(f"prime_field needs a prime p >= 5, got {self.p!r}")
            if self.p >= 1 << 20:
                raise ExactError("p too large for the int64 kernels")
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

    def scalar_from_json(self, v):
        return self.coerce(v)

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


def solve_array(ring: RingDescriptor, mat: np.ndarray, rhs: np.ndarray):
    """Canonical solution of mat @ x = rhs (free variables zeroed), or None."""
    rhs = ring.normalize(np.asarray(rhs))
    if rhs.ndim != 1:
        raise ExactError("rhs shape mismatch")
    sols, first_bad = solve_columns(ring, mat, rhs[None])
    return None if first_bad is not None else sols[0]


def solve_columns(ring: RingDescriptor, mat: np.ndarray, rhs_rows: np.ndarray):
    """Canonical solutions of mat @ x = b for each row b of rhs_rows, from
    one reduction of [mat | rhs_rows^T]: (solutions, first_bad), where
    first_bad is the first inconsistent row (None if there is none).

    Up to first_bad every right-hand side lies in the column span of mat,
    so it gets no pivot and its read-off is that of a solve on its own;
    the solution rows from first_bad on are meaningless.
    """
    mat = ring.normalize(mat)
    rhs_rows = ring.normalize(np.asarray(rhs_rows))
    rows, cols = mat.shape
    if rhs_rows.ndim != 2 or rhs_rows.shape[1] != rows:
        raise ExactError("rhs shape mismatch")
    aug = ring.zeros((rows, cols + rhs_rows.shape[0]))
    aug[:, :cols] = mat
    aug[:, cols:] = rhs_rows.T
    red, piv, rank = rref_array(ring, aug)
    n = sum(1 for c in piv if c < cols)
    sols = ring.zeros((rhs_rows.shape[0], cols))
    sols[:, list(piv[:n])] = red[:n, cols:].T
    return sols, (piv[n] - cols if rank > n else None)


class FactoredMatrix:
    """A matrix reduced once for many exact solves ``mat @ x = b``.

    ``solve_array`` reduces ``[mat | b]`` for every b; this pays two
    reductions once.  Reducing the transpose of mat's distinct nonzero rows
    picks r = rank independent rows S of mat, and reducing ``[mat_S | I_r]``
    gives the pivot columns P of mat (mat_S has mat's row space, hence its
    column dependencies) and the transform E with E mat_S = RREF(mat).  For
    each b, x_P = E b_S and x = 0 elsewhere: if b is consistent this is its
    unique canonical solution, the one ``solve_array`` returns, so
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

    def solve(self, rhs: np.ndarray):
        """The canonical solution of mat @ x = rhs, as ``solve_array`` gives it, or None."""
        ring = self.ring
        rhs = ring.normalize(np.asarray(rhs))
        if rhs.shape != self.shape[:1]:
            raise ExactError("rhs shape mismatch")
        x, L, ok = self.solve_lifted(*_lift(ring, rhs))
        return _unlift(ring, x, L) if ok else None

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


def row_space_equal(ring: RingDescriptor, rows_a: np.ndarray, rows_b: np.ndarray) -> bool:
    """Do two row collections span the same subspace?  (unique RREF compare)"""
    ra = rref_array(ring, rows_a) if rows_a.size else (rows_a, (), 0)
    rb = rref_array(ring, rows_b) if rows_b.size else (rows_b, (), 0)
    if ra[2] != rb[2]:
        return False
    return bool(np.all(ra[0][: ra[2]] == rb[0][: rb[2]]))
