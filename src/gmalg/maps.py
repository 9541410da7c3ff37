"""Linear and bilinear map carriers plus the commuting / centralizing predicates.

Every predicate that can fail returns a verified witness: the offending input
is re-evaluated directly through the product tensor, never inferred from the
coefficient system alone.  Witness search is deterministic: one grid of four
values per slot (the defect has degree at most three in each slot, so the
grid is exhaustive for it), walked from the basis sum on, so a failing
predicate always produces the same witness for the same input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

import numpy as np

from .exact import (
    ExactError,
    RingDescriptor,
    _common,
    _contract,
    _lift,
    _sparse_times,
    _td,
    _unlift,
    blocked_nullspace,
)
from .structure import _freeze, _read_only


class MapError(ExactError):
    pass


@dataclass(eq=False)
class LinearMapRep:
    """A linear map as a (dim_out, dim_in) matrix acting on coordinate columns."""

    ring: RingDescriptor
    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = self.ring.normalize(np.asarray(self.matrix))
        if self.matrix.ndim != 2:
            raise MapError("linear map wants a 2-D matrix")

    @property
    def dim_out(self) -> int:
        return self.matrix.shape[0]

    def apply(self, x):
        return self.ring.tensordot(self.matrix, np.asarray(x), axes=([1], [0]))

    def __sub__(self, other):
        # numpy would broadcast across shapes, so the shapes must agree
        if self.ring != other.ring or self.matrix.shape != other.matrix.shape:
            raise MapError(
                f"maps over {self.ring} and {other.ring} of shapes "
                f"{self.matrix.shape} and {other.matrix.shape}"
            )
        return LinearMapRep(self.ring, self.ring.normalize(self.matrix - other.matrix))

    def scale(self, c) -> "LinearMapRep":
        c = self.ring.coerce(c)
        return LinearMapRep(self.ring, self.ring.normalize(self.matrix * c))

    def equal(self, other) -> bool:
        return self.ring == other.ring and self.ring.equal(self.matrix, other.matrix)

    @classmethod
    def identity(cls, ring, dim):
        return cls(ring, ring.eye(dim))


@dataclass(eq=False)
class BilinearMapRep:
    """A bilinear map as a (dim_in1, dim_in2, dim_out) coefficient tensor,
    read-only (a copy where ``normalize`` hands back the caller's array)."""

    ring: RingDescriptor
    tensor: np.ndarray

    def __post_init__(self):
        tensor = self.ring.normalize(np.asarray(self.tensor))
        self.tensor = _freeze(tensor) if tensor is self.tensor else _read_only(tensor)
        if self.tensor.ndim != 3:
            raise MapError("bilinear map wants a 3-D tensor")

    @cached_property
    def lifted(self):
        """The tensor lifted (exact._lift) and read-only, built on first use:
        the one lift every predicate, grid and reconstruction check reads."""
        return _read_only(_lift(self.ring, self.tensor))

    def apply(self, x, y):
        t = self.ring.tensordot(np.asarray(x), self.tensor, axes=([0], [0]))
        return self.ring.tensordot(np.asarray(y), t, axes=([0], [0]))

    def trace_eval(self, x):
        """The associated quadratic (trace) map x -> B(x, x)."""
        return self.apply(x, x)


def _grid_values(ring):
    # four points per slot: the defect polynomials have per-variable degree
    # at most three, so a nonzero restriction stays nonzero somewhere here
    # (all four values are distinct and nonzero in every supported ring)
    return [ring.coerce(1), ring.coerce(2), ring.coerce(3), ring.coerce(4)]


def _grid_points(carrier, *groups):
    """The witness grid, in itertools.product order over _grid_values with
    one value per slot: for each choice, one vector per group of basis
    indices, the sum of its basis vectors times their values.  The first
    point is the basis sums."""
    ring, e = carrier.ring, carrier.basis_vector
    for values in itertools.product(_grid_values(ring), repeat=sum(map(len, groups))):
        it = iter(values)
        yield tuple(ring.normalize(sum(next(it) * e(i) for i in g)) for g in groups)


def _arrangements3(a, b, c):
    return sorted(set(
        ((a, b, c), (a, c, b), (b, a, c), (b, c, a), (c, a, b), (c, b, a))
    ))


@lru_cache(maxsize=None)
def _arrangement_table(d: int):
    """The cubic monomials x_a x_b x_c (a <= b <= c) in order, and the
    distinct arrangements (u, v, w) of each, grouped by monomial: returns
    (triples, uvw, owner, starts) with uvw a (d**3, 3) array, owner[n] the
    monomial of arrangement n and starts[t] the first arrangement of
    monomial t.  Every ordered triple arranges exactly one monomial, so the
    rows of uvw are a permutation of all d**3 ordered triples."""
    triples = tuple(
        (a, b, c) for a in range(d) for b in range(a, d) for c in range(b, d)
    )
    groups = [_arrangements3(*t) for t in triples]
    sizes = np.array([len(g) for g in groups])
    uvw = np.array([arr for g in groups for arr in g], dtype=np.intp).reshape(-1, 3)
    owner = np.repeat(np.arange(len(triples)), sizes)
    starts = np.cumsum(sizes) - sizes
    for arr in (uvw, owner, starts):
        arr.flags.writeable = False
    return triples, uvw, owner, starts


@lru_cache(maxsize=None)
def _monomial_table(d: int, degree: int):
    """(monomials, owner): the monomials of degree 2 (in pair_index_order)
    or 3 (as _arrangement_table lists them), and owner[slot, k], the
    monomial that a slot times x_k makes.  A slot is a basis index at
    degree 2 and a pair u <= v (in pair_index_order) at degree 3."""
    I, J = np.triu_indices(d)
    pair = np.empty((d, d), dtype=np.intp)
    pair[I, J] = pair[J, I] = np.arange(len(I))
    if degree == 2:
        monomials, owner = tuple(pair_index_order(d)), pair
    else:
        monomials, uvw, arranges, _ = _arrangement_table(d)
        real = uvw[:, 0] <= uvw[:, 1]  # each (u <= v, w) arranges one monomial
        u, v, w = uvw[real].T
        owner = np.empty((len(I), d), dtype=np.intp)
        owner[pair[u, v], w] = arranges[real]
    owner.flags.writeable = False
    return monomials, owner


def constraint_operator(ring, degree: int, act: np.ndarray):
    """The map K from an unknown U to the monomial coefficients of [U(x), x]
    (degree 2, U(e_s) per basis index s) or [U(x, x), x] (degree 3, U in
    pair layout), with [e_t, e_k] read as act[k, t, :]:
    K[(monomial, q), (slot, t)] = act[k, t, q], where the slot times x_k is
    the monomial.  Each (monomial, slot) fixes k, so each (row, column)
    occurs once.  Returned as the nonzero entries (row count, rows,
    columns, values) that exact._sparse_times applies; act may be lifted
    (exact._lift), and then so are the values."""
    act = ring.normalize(np.asarray(act))
    m, n = act.shape[1:]
    monomials, owner = _monomial_table(act.shape[0], degree)
    k, t, q = np.nonzero(act != 0)
    rows = owner[:, k] * n + q  # (slots, nnz)
    cols = np.arange(owner.shape[0])[:, None] * m + t
    values = np.broadcast_to(act[k, t, q], rows.shape)
    return len(monomials) * n, rows.ravel(), cols.ravel(), values.ravel()


def _product_tensors(carrier) -> dict:
    """The tensors derived from the product, lifted (exact._lift) over its
    scale and built once per carrier (``cached``): "commutator" [t, k, r] =
    [e_t, e_k]_r, "jordan" (e_t e_k + e_k e_t)_r and "pairs" [n, r] =
    (e_i e_j + e_j e_i)_r for the n-th pair of pair_index_order (e_i^2 on
    the diagonal)."""
    return carrier.cached("products", partial(_build_product_tensors, carrier))


def _build_product_tensors(carrier) -> dict:
    ring = carrier.ring
    mul, L = carrier.lifted_mul
    swapped = np.transpose(mul, (1, 0, 2))
    return {
        "commutator": (ring.normalize(mul - swapped), L),
        "jordan": (ring.normalize(mul + swapped), L),
        "pairs": (pair_coefficients(ring, mul), L),
    }


def _bracket_action(carrier, centralizing: bool):
    """(act, L), lifted (exact._lift): act[k, t, q] / L = [e_t, e_k] in
    coordinate q, or read through the center's annihilator when
    centralizing, so that it vanishes iff the bracket is central."""
    ring = carrier.ring
    Bk, L = _product_tensors(carrier)["commutator"]
    if centralizing:
        ann, La = _lift(ring, carrier.center.annihilator)
        Bk, L = _contract(ring, Bk, ann, axes=([2], [1])), L * La
    return np.transpose(Bk, (1, 0, 2)), L


def _verdict(carrier, centralizing: bool, degree: int, unknown, image):
    """(ok, witness) for [U(x), x] (degree 2) or [U(x, x), x] (degree 3)
    vanishing, or landing in the center: ok iff the constraint operator
    kills U's unknown layout, lifted (exact._lift); only whether a value
    is zero counts, so the scales of both are left out.  Otherwise the
    witness is the first point x of the grid on the basis indices of the
    first monomial with a nonzero coefficient row at which [image(x), x] is
    nonzero (or not central).  The operator depends only on the carrier, so
    it is built once per carrier, degree and mode (``cached``)."""
    ring = carrier.ring
    K = carrier.cached(
        ("constraint_operator", degree, centralizing),
        lambda: constraint_operator(ring, degree, _bracket_action(carrier, centralizing)[0]),
    )
    rows = _sparse_times(ring, K, unknown.reshape(-1))
    monomials, _ = _monomial_table(carrier.dim, degree)
    bad = np.flatnonzero(np.any(rows.reshape(len(monomials), -1) != 0, axis=1))
    if bad.size == 0:
        return True, None
    quotient = carrier.center.quotient if centralizing else (lambda v: v)
    slots = monomials[bad[0]]
    if degree == 2 and slots[0] == slots[1]:
        # the defect is homogeneous: no multiple of e_i fails where e_i passes
        slots = slots[:1]
    for (x,) in _grid_points(carrier, slots):
        if not ring.is_zero(quotient(carrier.commutator(image(x), x))):
            return False, x
    raise MapError("nonzero defect coefficient but witness grid found nothing")


# ---------------------------------------------------------------------------
# linear predicates
# ---------------------------------------------------------------------------


def _require_shape(F: LinearMapRep, dim_out: int, dim_in: int):
    if F.matrix.shape != (dim_out, dim_in):
        raise MapError(f"map has shape {F.matrix.shape}, the algebras want {(dim_out, dim_in)}")


def is_commuting_linear(carrier, F: LinearMapRep):
    """Does [F(x), x] = 0 hold identically?  (ok, witness)."""
    _require_shape(F, carrier.dim, carrier.dim)
    unknown = _lift(carrier.ring, F.matrix)[0].T
    return _verdict(carrier, False, 2, unknown, F.apply)


def is_centralizing_linear(gma, F: LinearMapRep):
    """Does [F(x), x] land in Z(G) for every x?  (ok, witness)."""
    _require_shape(F, gma.dim, gma.dim)
    unknown = _lift(gma.ring, F.matrix)[0].T
    return _verdict(gma, True, 2, unknown, F.apply)


# ---------------------------------------------------------------------------
# trace (quadratic) predicates
# ---------------------------------------------------------------------------


def _pair_layout(carrier, bil: BilinearMapRep):
    """The unknown of the trace predicates: B's pair layout, lifted."""
    d = carrier.dim
    if bil.tensor.shape != (d, d, d):
        raise MapError(f"bilinear map has shape {bil.tensor.shape}, the algebra wants {(d, d, d)}")
    return pair_coefficients(carrier.ring, bil.lifted[0])


def is_commuting_trace(carrier, bil: BilinearMapRep):
    layout = _pair_layout(carrier, bil)
    return _verdict(carrier, False, 3, layout, bil.trace_eval)


def is_centralizing_trace(gma, bil: BilinearMapRep):
    layout = _pair_layout(gma, bil)
    return _verdict(gma, True, 3, layout, bil.trace_eval)


# ---------------------------------------------------------------------------
# homomorphism-flavoured predicates
# ---------------------------------------------------------------------------


def _second_commutator_tensor(carrier):
    """[i, j, k, r] = [[e_i, e_j], e_k]_r, lifted, built once per carrier (``cached``)."""

    def build():
        Bk = _product_tensors(carrier)["commutator"]
        return _td(carrier.ring, Bk, Bk, axes=([2], [0]))

    return carrier.cached("second_commutators", build)


def _image_products(ring, P, F):
    """[i, j, r] = P(F e_i, F e_j)_r for a bilinear P given as an (a, b, r)
    tensor, P and F lifted."""
    t = _td(ring, F, P, axes=([0], [0]))  # (i, b, r)
    n, L = _td(ring, t, F, axes=([1], [0]))
    return np.transpose(n, (0, 2, 1)), L


def _first_failure(src, lhs, rhs, offset: int):
    """(ok, witness) for lhs == rhs, both lifted, over index tuples
    (i, j, ...) with j >= i + offset: the witness is the basis vectors of
    the first failing tuple in C order, the tuple a loop over i, then j,
    then k stops at."""
    (lhs, rhs), _ = _common(lhs, rhs)
    d = src.dim
    mask = np.triu(np.ones((d, d), dtype=bool), offset)
    mask = mask.reshape(mask.shape + (1,) * (lhs.ndim - 3))
    bad = np.argwhere(np.any(lhs != rhs, axis=-1) & mask)
    if bad.size == 0:
        return True, None
    return False, tuple(src.basis_vector(int(i)) for i in bad[0])


def is_jordan_hom(src, dst, F: LinearMapRep):
    """F(x*y + y*x) = F(x)F(y) + F(y)F(x) on all basis pairs.  (ok, witness)."""
    ring = dst.ring
    _require_shape(F, dst.dim, src.dim)
    f = _lift(ring, F.matrix)
    lhs = _td(ring, _product_tensors(src)["jordan"], f, axes=([2], [1]))
    rhs = _image_products(ring, _product_tensors(dst)["jordan"], f)
    return _first_failure(src, lhs, rhs, 0)


def is_lie_triple_hom(src, dst, F: LinearMapRep):
    """F([[x, y], z]) = [[F(x), F(y)], F(z)] on all basis triples.  (ok, witness)."""
    ring = dst.ring
    _require_shape(F, dst.dim, src.dim)
    f = _lift(ring, F.matrix)
    lhs = _td(ring, _second_commutator_tensor(src), f, axes=([3], [1]))
    Bd = _product_tensors(dst)["commutator"]
    inner = _image_products(ring, Bd, f)  # (i, j, m) = [F e_i, F e_j]_m
    outer = _td(ring, Bd, f, axes=([1], [0]))  # (m, r, k) = [e_m, F e_k]_r
    n, L = _td(ring, inner, outer, axes=([2], [0]))
    return _first_failure(src, lhs, (np.transpose(n, (0, 1, 3, 2)), L), 1)


def vanishes_on_second_commutators(src, F: LinearMapRep):
    """F([[x, y], z]) = 0 on all basis triples.  (ok, witness)."""
    _require_shape(F, F.dim_out, src.dim)
    f = _lift(F.ring, F.matrix)
    lhs = _td(F.ring, _second_commutator_tensor(src), f, axes=([3], [1]))
    return _first_failure(src, lhs, (0, 1), 1)


# ---------------------------------------------------------------------------
# the space of all symmetric bilinear maps with commuting / centralizing trace
# ---------------------------------------------------------------------------


def pair_index_order(d: int):
    return [(i, j) for i in range(d) for j in range(i, d)]


def pair_coefficients(ring, T: np.ndarray) -> np.ndarray:
    """(d, d, k) tensor -> its pair-coefficient layout (npairs, k) in
    pair_index_order, the coefficients of x_i x_j in T(x, x): a diagonal
    pair is copied, an off-diagonal one sums its two slots.  The inverse of
    symmetric_from_pairs on symmetric tensors."""
    I, J = np.triu_indices(T.shape[0])
    return np.where((I == J)[:, None], T[I, J], ring.normalize(T[I, J] + T[J, I]))


def symmetric_from_pairs(ring, d: int, W: np.ndarray) -> np.ndarray:
    """Pair-coefficient layout (..., npairs, k) in pair_index_order -> the
    symmetric (..., d, d, k) tensor: a diagonal pair is copied, an
    off-diagonal one is halved onto both of its slots."""
    I, J = np.triu_indices(d)
    W = np.array(W, dtype=ring.dtype)  # a copy: only its nonzero off-diagonal cells are halved
    W = ring.normalize(np.multiply(W, ring.half, out=W, where=(W != 0) & (I != J)[:, None]))
    S = ring.zeros(W.shape[:-2] + (d, d) + W.shape[-1:])
    S[..., I, J, :] = W
    S[..., J, I, :] = W
    return S


@dataclass
class TraceSpaceResult:
    mode: str
    n_rows: int  # constraint rows  (triples x target dim)
    n_cols: int  # unknowns         (pairs x algebra dim)
    basis: list  # BilinearMapRep, symmetric
    raw_rows: np.ndarray  # canonical nullspace rows, pair-coefficient layout

    @property
    def dim(self) -> int:
        return len(self.basis)


def trace_space(gma, mode: str = "centralizing") -> TraceSpaceResult:
    """All symmetric bilinear B: G x G -> G whose trace x -> B(x, x) has
    [B(x,x), x] central ("centralizing") or zero ("commuting"), over either
    ring and at any dimension.

    Unknowns are the pair coefficients v_ij = coefficient of x_i x_j (i <= j)
    as vectors in G; the recovered symmetric tensor halves the off-diagonal.
    The rows are the canonical nullspace of the degree-3 constraint operator
    (n_rows x n_cols = monomials x target dim by pairs x dim), solved from
    its entries one block at a time (exact.blocked_nullspace), so the dense
    system is never built.
    """
    ring, d = gma.ring, gma.dim
    if mode not in ("centralizing", "commuting"):
        raise MapError(f"unknown mode {mode!r}")

    npairs = d * (d + 1) // 2
    K = constraint_operator(ring, 3, _unlift(ring, *_bracket_action(gma, mode == "centralizing")))
    n_rows, n_cols = K[0], npairs * d
    rows = blocked_nullspace(ring, K, n_cols)
    tensors = symmetric_from_pairs(ring, d, rows.reshape(len(rows), npairs, d))
    # BilinearMapRep gives each slice an array of its own, on either ring
    basis = [BilinearMapRep(ring, t) for t in tensors]
    return TraceSpaceResult(mode, n_rows, n_cols, basis, rows)
