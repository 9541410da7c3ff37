"""Arithmetic of the benchmark's own, kept apart from gmalg.

The inputs the program receives are built here, and the program's outputs are
checked here, with plain numpy integer arrays (over F_p) or object arrays of
``fractions.Fraction`` (over Q) and a seeded ``random.Random``.  Nothing in
this module imports gmalg, so a fault in gmalg cannot hide itself by also
bending the check.

Coordinates follow the documented full-matrix layout of a GMA built from M_n
split at k: the A block (k x k), then M (k x (n-k)), then N ((n-k) x k), then
B ((n-k) x (n-k)), each block row-major.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np


class Field:
    """F_p (p an odd prime) when ``p`` is given, otherwise Q."""

    def __init__(self, p: int | None):
        self.p = p

    @property
    def is_prime(self) -> bool:
        return self.p is not None

    def num(self, v):
        return v % self.p if self.is_prime else Fraction(v)

    def inv(self, v):
        return pow(int(v), -1, self.p) if self.is_prime else Fraction(1) / v

    def zeros(self, shape) -> np.ndarray:
        if self.is_prime:
            return np.zeros(shape, dtype=np.int64)
        out = np.empty(shape, dtype=object)
        out[...] = Fraction(0)
        return out

    def reduce(self, a: np.ndarray) -> np.ndarray:
        return a % self.p if self.is_prime else a

    def draw(self, rng: random.Random):
        """A uniform residue over F_p; a small integer in [-3, 3] over Q."""
        if self.is_prime:
            return rng.randrange(self.p)
        return Fraction(rng.randrange(7) - 3)

    def draw_nonzero(self, rng: random.Random):
        while True:
            v = self.draw(rng)
            if v != 0:
                return v


def positions(n: int, k: int) -> list:
    """(row, col) of each coordinate of the M_n split at k."""
    pos = [(r, c) for r in range(k) for c in range(k)]
    pos += [(r, c) for r in range(k) for c in range(k, n)]
    pos += [(r, c) for r in range(k, n) for c in range(k)]
    pos += [(r, c) for r in range(k, n) for c in range(k, n)]
    return pos


class MatrixCoords:
    """Matrix units of M_n over a field, in the split-at-k coordinate order."""

    def __init__(self, field: Field, n: int, k: int):
        self.field = field
        self.n = n
        self.pos = positions(n, k)
        self.index = {rc: i for i, rc in enumerate(self.pos)}
        self.dim = n * n

    def unit_products(self) -> np.ndarray:
        """mul[i, j, r]: coefficient of unit r in (unit i)(unit j)."""
        d = self.dim
        mul = np.zeros((d, d, d), dtype=np.int64)
        for i, (a, b) in enumerate(self.pos):
            for j, (c, e) in enumerate(self.pos):
                if b == c:
                    mul[i, j, self.index[(a, e)]] = 1
        return mul

    def identity(self) -> np.ndarray:
        v = self.field.zeros(self.dim)
        for r in range(self.n):
            v[self.index[(r, r)]] = self.field.num(1)
        return v

    def to_matrix(self, v) -> np.ndarray:
        X = self.field.zeros((self.n, self.n))
        for i, (r, c) in enumerate(self.pos):
            X[r, c] = v[i]
        return X

    def to_coords(self, X) -> np.ndarray:
        v = self.field.zeros(self.dim)
        for i, (r, c) in enumerate(self.pos):
            v[i] = X[r, c]
        return v

    def unit_matrix(self, i: int) -> np.ndarray:
        X = self.field.zeros((self.n, self.n))
        X[self.pos[i]] = self.field.num(1)
        return X

    def is_scalar(self, X) -> bool:
        d = X[0, 0]
        return all(
            X[r, c] == (d if r == c else 0) for r in range(self.n) for c in range(self.n)
        )

    def random_point(self, rng: random.Random) -> np.ndarray:
        v = self.field.zeros(self.dim)
        for i in range(self.dim):
            v[i] = self.field.draw(rng)
        return v

    def trace_value(self, q: np.ndarray, x) -> np.ndarray:
        """q(x, x) for a (dim, dim, dim) coefficient tensor, as a matrix."""
        d = self.dim
        out = self.field.zeros(d)
        for i in range(d):
            if x[i] == 0:
                continue
            for j in range(d):
                if x[j] != 0:
                    out = out + q[i, j] * (x[i] * x[j])
        return self.to_matrix(self.field.reduce(out))

    def trace_commutator(self, q: np.ndarray, x) -> np.ndarray:
        """[q(x, x), x] as a matrix."""
        T = self.trace_value(q, x)
        X = self.to_matrix(x)
        return self.field.reduce(T @ X - X @ T)


def rank_mod_p(mat, p: int) -> int:
    """Rank over F_p by forward elimination (row echelon form, not RREF)."""
    a = np.array(mat, dtype=np.int64) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), -1, p) % p
        below = r + 1 + np.flatnonzero(a[r + 1 :, c])
        if below.size:
            a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
    return r


# A prime near 2^20, so products of two residues stay far inside int64.
CERT_PRIME = 1048573


def rank_over_q_of_integer_matrix(mat) -> int | None:
    """A lower bound on the rank over Q of a matrix of integers: its rank
    modulo CERT_PRIME.  None when an entry is not an integer."""
    flat = []
    for v in np.asarray(mat).flat:
        v = Fraction(v)
        if v.denominator != 1:
            return None
        flat.append(int(v.numerator) % CERT_PRIME)
    ints = np.array(flat, dtype=np.int64).reshape(np.asarray(mat).shape)
    return rank_mod_p(ints, CERT_PRIME)


def det3(field: Field, U):
    d = (
        U[0, 0] * (U[1, 1] * U[2, 2] - U[1, 2] * U[2, 1])
        - U[0, 1] * (U[1, 0] * U[2, 2] - U[1, 2] * U[2, 0])
        + U[0, 2] * (U[1, 0] * U[2, 1] - U[1, 1] * U[2, 0])
    )
    return int(d) % field.p if field.is_prime else d


def inverse3(field: Field, U):
    """Inverse of a 3x3 matrix by the adjugate, or None when singular."""
    det = det3(field, U)
    if det == 0:
        return None
    inv_det = field.inv(det)
    adj = field.zeros((3, 3))
    for r in range(3):
        for c in range(3):
            rows = [i for i in range(3) if i != c]
            cols = [j for j in range(3) if j != r]
            minor = U[rows[0], cols[0]] * U[rows[1], cols[1]] - U[rows[0], cols[1]] * U[rows[1], cols[0]]
            adj[r, c] = minor if (r + c) % 2 == 0 else -minor
    return field.reduce(adj * inv_det)


def proper_trace(mc: MatrixCoords, mul: np.ndarray, z, mu, nu) -> np.ndarray:
    """Coefficient tensor of q(x, y) = z(xy + yx)/2 + (mu(x)y + mu(y)x)/2 + nu(x, y)1.

    Its trace is z x^2 + mu(x) x + nu(x, x) 1, the proper form with a
    one-dimensional center spanned by the identity.
    """
    f = mc.field
    d = mc.dim
    half = f.inv(f.num(2))
    one = mc.identity()
    q = f.zeros((d, d, d))
    for i in range(d):
        for j in range(d):
            v = (mul[i, j] + mul[j, i]) * (z * half)
            v = v + mu[i] * half * _unit(f, d, j) + mu[j] * half * _unit(f, d, i)
            q[i, j] = f.reduce(v + one * nu[i, j])
    return q


def _unit(field: Field, d: int, i: int) -> np.ndarray:
    v = field.zeros(d)
    v[i] = field.num(1)
    return v


def draw_proper(field: Field, d: int, rng: random.Random):
    """Seeded (z, mu, nu): z a scalar, mu a d-vector, nu a symmetric d x d matrix."""
    z = field.draw(rng)
    mu = field.zeros(d)
    for i in range(d):
        mu[i] = field.draw(rng)
    nu = field.zeros((d, d))
    for i in range(d):
        for j in range(i, d):
            nu[i, j] = nu[j, i] = field.draw(rng)
    return z, mu, nu
