"""The contraction paths and the elimination kernel against slow references.

The loops below are the straightforward per-monomial and per-pair
formulations: basis commutators summed over the arrangements of each cubic
monomial (and the constraint operator against one addition per
arrangement), one product call per basis pair or triple, and the loyalty
scan over every nonzero candidate vector. The center scans that became a
projective scan or a rank test are checked against the enumerations they
replaced (zero divisors, central multipliers), the balanced-pair system
one pair at a time, the proper generators one by one, and the independent
pair against the basis loop and an exhaustive (m0, b0) enumeration. The
elimination references are the three kernels the ring-generic one
replaced: scalar loops mod p, a dense rank-1 update over every row mod p,
and row-by-row Fraction elimination. The contraction over Q is checked
against numpy's tensordot on the Fraction arrays themselves, and the trace
predicates, the reconstruction check and the factored solve, which decide
on lifted integers over Q, against the Fraction code they replaced, on
contexts whose constants are not all integers. The constructive chain,
which runs on lifted integers, is checked against its per-basis-vector
loops (the witness extraction, the shape laws and the mu/nu assembly) and
against the same chain as contractions on ring values, which over Q build
Fractions, on the same contexts. The factored solve is checked against
``solve_array`` and ``solve_columns``, one reduction of [mat | b] per
solve. The blocked nullspace, solved one connected block of the
constraint operator at a time, is checked against ``nullspace_array`` of
the operator's dense scatter, which is kept here as an oracle. The corner
isomorphism phi is checked against one exact solve per
projected center row, and the matrix-unit builders against one loop per
product tensor. The table of block laws that checks the Morita axioms is
compared with one hand-written contraction per identity, law by law, on
seeded mutations of the builder contexts. Every test modulo a span reads
the annihilator ``nullspace_array(rows)``; it is checked against the
nullspace read-off loop, the greedy unit-vector complement it replaced,
the pivot read-back residual and the rank tests of span containment. The
center Z(G), a commutant, is checked against the intertwining system over
pairs (a, b) it replaced. They are kept here only as oracles. Every
comparison is literal: same keys in the same order, same dtype, same
scalar type, same values, same witnesses.

The instances cover a center of dimension one (M3, M4), a triangular split
(T3), a center of dimension two (the diagonal pair), the rationals, and
p = 1048573, the largest prime the int64 kernels accept.
"""

import functools
import itertools
import math
import re
import types
import unittest.mock
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pickle

from gmalg import backend, decompose, exact
from gmalg.center import (
    CenterError,
    ProperSpanReport,
    _identity_42_witness,
    _independent_pair,
    _integer_mul_tensor,
    balanced_pair_space_dim,
    center_multiplier_annihilator_ok,
    center_zero_divisor_free,
    check_all_commuting_proper,
    check_identity_42,
    check_loyal,
    commuting_linear_space,
    compute_center_algebra,
    cube_annihilating_forms_contained,
)
from gmalg.decompose import (
    ComponentPatternError,
    ConstructiveDecomposition,
    ConstructiveWitness,
    PredicateNotSatisfied,
    ProperTraceForm,
    WitnessExtractionError,
    build_generic_system,
    decompose_lie_triple_iso,
    decompose_trace_constructive,
    decompose_trace_generic,
    extract_components,
    extract_constructive_witness,
    random_lie_triple_iso,
    random_proper_trace,
    witness_shape_report,
)
from gmalg.exact import (
    RATIONAL,
    ExactError,
    FactoredMatrix,
    clear_denominators,
    _lift,
    _scaled_equal,
    _sparse_times,
    _unlift,
    blocked_nullspace,
    nullspace_array,
    prime_field,
    rank_array,
    rref_array,
)
from gmalg.io import context_to_json
from gmalg.maps import (
    BilinearMapRep,
    LinearMapRep,
    _arrangements3,
    _bracket_action,
    MapError,
    _grid_values,
    _monomial_table,
    _product_tensors,
    constraint_operator,
    is_centralizing_linear,
    is_centralizing_trace,
    is_commuting_linear,
    is_commuting_trace,
    is_jordan_hom,
    is_lie_triple_hom,
    pair_coefficients,
    pair_index_order,
    symmetric_from_pairs,
    trace_space,
    vanishes_on_second_commutators,
)
from gmalg.rng import XorShift64Star
from gmalg.structure import (
    AlgebraSpec,
    AxiomError,
    BimoduleSpec,
    MoritaContext,
    MoritaReport,
    assemble_gma,
    build_diagonal_pair,
    build_full_matrix,
    build_inflated,
    build_peirce,
    build_upper_triangular,
    check_morita_axioms,
    full_matrix_positions,
    make_matrix_algebra,
    make_triangular_algebra,
)
from gmalg.structure import _MORITA_LAWS, _block_products, _first_nonzero, _law_defect
from test_change_of_basis import block_diagonal, rescaled, transported

F5 = prime_field(5)
BIG_P = prime_field(1048573)

INSTANCES = {
    "m4-f5": lambda: build_full_matrix(4, 2, F5),
    "t3-f5": lambda: build_upper_triangular(3, 1, F5),
    "m3-q": lambda: build_full_matrix(3, 1, RATIONAL),
    "diagonal-f5": lambda: build_diagonal_pair(F5),
    "m3-p1048573": lambda: build_full_matrix(3, 1, BIG_P),
}

# Contexts over Q with structure constants, centers or inputs off the
# integers: the matrix-unit bases have denominator 1 almost everywhere, so
# they cannot show a denominator lost on the way.  The moved M3(Q) has a
# center and an annihilator off the integers too.
M3_Q_BASES = {
    "m3-q-rescaled": lambda ctx: rescaled(ctx, 2000),
    "m3-q-moved": lambda ctx: transported(ctx, 1),
}
Q_LANE = {
    "m3-q": lambda: build_full_matrix(3, 1, RATIONAL),
    "t3-q": lambda: build_upper_triangular(3, 1, RATIONAL),
    "inflated-half-q": lambda: build_inflated(RATIONAL, 1, [[Fraction(1, 2)]]),
    **{
        name: lambda move=move: move(build_full_matrix(3, 1, RATIONAL))[0]
        for name, move in M3_Q_BASES.items()
    },
}


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


# Span membership as it was decided before every span test read the
# annihilator: the pivot read-back residual, and a rank test.


def row_span_residual(ring, basis_rows, v):
    """(coords, residual) of v against a *canonical RREF* row basis.

    The coordinates are v sampled at the pivot columns and the residual is
    v minus their combination of the basis rows; it is zero iff v lies in
    the span.  v may stack vectors along its leading axes.
    """
    basis_rows = ring.normalize(basis_rows)
    v = ring.normalize(np.asarray(v))
    if basis_rows.shape[0] == 0:
        return ring.zeros(v.shape[:-1] + (0,)), v.copy()
    nonzero = basis_rows != ring.zero
    if not nonzero.any(axis=1).all():
        raise ExactError("zero row in supposed basis")
    coords = v[..., nonzero.argmax(axis=1)]
    return coords, ring.normalize(v - ring.tensordot(coords, basis_rows, axes=([-1], [0])))


def row_span_coords(ring, basis_rows, v):
    """Coordinates of v in a *canonical RREF* row basis, or None if outside."""
    coords, resid = row_span_residual(ring, basis_rows, v)
    return coords if ring.is_zero(resid) else None


def row_space_contains(ring, span_rows, cand_rows) -> bool:
    """Is every candidate row inside the row span?  rank test, exact."""
    if cand_rows.size == 0:
        return True
    if span_rows.size == 0:
        return ring.is_zero(cand_rows)
    stacked = np.concatenate([span_rows, cand_rows], axis=0)
    return rank_array(ring, span_rows) == rank_array(ring, stacked)


def row_space_equal(ring, rows_a, rows_b) -> bool:
    """Do two row collections span the same subspace?  (unique RREF compare)"""
    ra = rref_array(ring, rows_a) if rows_a.size else (rows_a, (), 0)
    rb = rref_array(ring, rows_b) if rows_b.size else (rows_b, (), 0)
    if ra[2] != rb[2]:
        return False
    return bool(np.all(ra[0][: ra[2]] == rb[0][: rb[2]]))


def commutator_from_mul(carrier):
    """[t, k, r] = [e_t, e_k]_r in ring values, read off the product tensor."""
    mul = carrier.mul
    return carrier.ring.normalize(mul - np.transpose(mul, (1, 0, 2)))


def slow_cubic_trace_coefficients(carrier, bil):
    ring, d = carrier.ring, carrier.dim
    B = bil.tensor
    out = {}
    for a in range(d):
        for b in range(a, d):
            for c in range(b, d):
                acc = ring.zeros(d)
                for (u, v, w) in _arrangements3(a, b, c):
                    acc = acc + carrier.commutator(B[u, v], carrier.basis_vector(w))
                out[(a, b, c)] = ring.normalize(acc)
    return out


def slow_trace_witness(carrier, bil, bad_triple, offending):
    """The basis sum, then the grid of four values per slot, a's outermost."""
    ring = carrier.ring
    a, b, c = bad_triple
    e = carrier.basis_vector

    def defect(x):
        return carrier.commutator(bil.apply(x, x), x)

    x = ring.normalize(e(a) + e(b) + e(c))
    if offending(defect(x)):
        return x
    for t in _grid_values(ring):
        for u in _grid_values(ring):
            for v in _grid_values(ring):
                x = ring.normalize(e(a) * t + e(b) * u + e(c) * v)
                if offending(defect(x)):
                    return x
    raise MapError("nonzero defect coefficient but witness grid found nothing")


def slow_trace_predicate(carrier, bil, coeffs, offending):
    """The first monomial whose coefficient offends starts the witness grid."""
    for triple, coef in coeffs.items():
        if offending(coef):
            return False, slow_trace_witness(carrier, bil, triple, offending)
    return True, None


def slow_sym_tensor(form, gma):
    ring, d = gma.ring, gma.dim
    S = ring.zeros((d, d, d))
    z = form.z_vec(gma)
    half = ring.half
    for i in range(d):
        ei = gma.basis_vector(i)
        mi = form.mu_vec(gma, ei)
        for j in range(i, d):
            ej = gma.basis_vector(j)
            mj = form.mu_vec(gma, ej)
            sym_prod = gma.multiply(ei, ej) + gma.multiply(ej, ei)
            core = gma.multiply(z, sym_prod) + gma.multiply(mi, ej) + gma.multiply(mj, ei)
            S[i, j] = ring.normalize(core * half + form.nu_vec(gma, ei, ej))
            S[j, i] = S[i, j]
    return S


def slow_generic_system(gma):
    ring, d = gma.ring, gma.dim
    zg = gma.center.z_g
    zdim = zg.shape[0]
    pairs = pair_index_order(d)
    npairs = len(pairs)
    ZB = ring.tensordot(zg, gma.mul, axes=([1], [0]))
    sym = ring.zeros((npairs, d))
    K = ring.zeros((npairs * d, zdim * (1 + d + npairs)))
    for n, (i, j) in enumerate(pairs):
        ei, ej = gma.basis_vector(i), gma.basis_vector(j)
        if i == j:
            w = gma.square(ei)
        else:
            w = ring.normalize(gma.multiply(ei, ej) + gma.multiply(ej, ei))
        sym[n] = w
        base = n * d
        for t in range(zdim):
            K[base : base + d, t] = gma.multiply(zg[t], w)
            K[base : base + d, zdim * (1 + i) + t] += ZB[t, j]
            if i != j:
                K[base : base + d, zdim * (1 + j) + t] += ZB[t, i]
            K[base : base + d, zdim * (1 + d + n) + t] = zg[t]
    return ring.normalize(K), sym


def slow_trace_space_matrix(gma, mode, quotient=None):
    """quotient: the rows that read a value modulo the center (default the
    center's annihilator), for the centralizing mode."""
    ring, d = gma.ring, gma.dim
    Bk = ring.normalize(gma.mul - np.transpose(gma.mul, (1, 0, 2)))
    if mode == "centralizing":
        if quotient is None:
            quotient = gma.center.annihilator
        target = ring.tensordot(Bk, quotient, axes=([2], [1]))
    else:
        target = Bk
    tdim = target.shape[2]
    pairs = pair_index_order(d)
    pair_pos = {pq: n for n, pq in enumerate(pairs)}
    triples = [(a, b, c) for a in range(d) for b in range(a, d) for c in range(b, d)]
    K = ring.zeros((len(triples) * tdim, len(pairs) * d))
    for row, (a, b, c) in enumerate(triples):
        base = row * tdim
        if a < b < c:
            reals = [((a, b), c), ((a, c), b), ((b, c), a)]
        elif a == b < c:
            reals = [((a, a), c), ((a, c), a)]
        elif a < b == c:
            reals = [((a, b), b), ((b, b), a)]
        else:
            reals = [((a, a), a)]
        for (pq, k) in reals:
            col = pair_pos[pq] * d
            K[base : base + tdim, col : col + d] += target[:, k, :].T
    return ring.normalize(K)


def slow_basis_tensors(ring, d, rows):
    out = []
    for w in rows:
        S = ring.zeros((d, d, d))
        for n, (i, j) in enumerate(pair_index_order(d)):
            v = w[n * d : (n + 1) * d]
            if i == j:
                S[i, i] = v
            else:
                S[i, j] = v * ring.half
                S[j, i] = S[i, j]
        out.append(ring.normalize(S))
    return out


def slow_cube_annihilation_matrix(gma):
    ring, N = gma.ring, gma.ctx.N
    dB, dN = gma.ctx.B.dim, N.dim
    triples = [(a, b, c) for a in range(dB) for b in range(a, dB) for c in range(b, dB)]
    K1 = ring.zeros((len(triples) * dN, dB * dB * dN))
    for row, (a, b, c) in enumerate(triples):
        base = row * dN
        for (u, v, w) in _arrangements3(a, b, c):
            for n in range(dN):
                K1[base : base + dN, (v * dB + w) * dN + n] += N.left[u, n]
    return K1


def slow_linear_defect_coefficients(carrier, F):
    ring, d = carrier.ring, carrier.dim
    out = {}
    img = [F.apply(carrier.basis_vector(i)) for i in range(d)]
    for i in range(d):
        for j in range(i, d):
            if i == j:
                c = carrier.commutator(img[i], carrier.basis_vector(i))
            else:
                c = ring.normalize(
                    carrier.commutator(img[i], carrier.basis_vector(j))
                    + carrier.commutator(img[j], carrier.basis_vector(i))
                )
            out[(i, j)] = c
    return out


def slow_linear_witness(carrier, F, bad_pair, offending):
    """e_i alone on a diagonal pair, then the grid of four values per slot."""
    ring = carrier.ring
    i, j = bad_pair
    e = carrier.basis_vector

    def defect(x):
        return carrier.commutator(F.apply(x), x)

    if i == j and offending(defect(e(i))):
        return e(i)
    for t in _grid_values(ring):
        for u in _grid_values(ring):
            x = ring.normalize(e(i) * t + e(j) * u)
            if offending(defect(x)):
                return x
    raise MapError("nonzero defect coefficient but witness grid found nothing")


def slow_linear_predicate(carrier, F, coeffs, offending):
    """The first pair whose coefficient offends starts the witness grid."""
    for pair, coef in coeffs.items():
        if offending(coef):
            return False, slow_linear_witness(carrier, F, pair, offending)
    return True, None


def slow_is_jordan_hom(src, dst, F):
    ring = dst.ring
    img = [F.apply(src.basis_vector(i)) for i in range(src.dim)]
    for i in range(src.dim):
        for j in range(i, src.dim):
            lhs = F.apply(src.jordan(src.basis_vector(i), src.basis_vector(j)))
            rhs = dst.jordan(img[i], img[j])
            if not ring.equal(lhs, rhs):
                return False, (src.basis_vector(i), src.basis_vector(j))
    return True, None


def slow_is_lie_triple_hom(src, dst, F):
    ring = dst.ring
    img = [F.apply(src.basis_vector(i)) for i in range(src.dim)]
    for i in range(src.dim):
        for j in range(i + 1, src.dim):
            inner = src.commutator(src.basis_vector(i), src.basis_vector(j))
            inner_img = dst.commutator(img[i], img[j])
            for k in range(src.dim):
                lhs = F.apply(src.commutator(inner, src.basis_vector(k)))
                rhs = dst.commutator(inner_img, img[k])
                if not ring.equal(lhs, rhs):
                    return False, tuple(src.basis_vector(t) for t in (i, j, k))
    return True, None


def slow_vanishes_on_second_commutators(src, F):
    ring = F.ring
    for i in range(src.dim):
        for j in range(i + 1, src.dim):
            inner = src.commutator(src.basis_vector(i), src.basis_vector(j))
            for k in range(src.dim):
                val = F.apply(src.commutator(inner, src.basis_vector(k)))
                if not ring.is_zero(val):
                    return False, tuple(src.basis_vector(t) for t in (i, j, k))
    return True, None


def slow_identity_42_monomials(gma):
    """The monomials x_a x_b x_c y_s y_t (a <= b <= c, s <= t) of
    [[x^2, y], [x, y]] with a nonzero coefficient, in scan order, as
    (a, b, c, s, t).  Over Q on python ints, whatever the size of the
    constants."""
    ring, d = gma.ring, gma.dim
    if ring.is_prime_field:
        mul, p = np.asarray(gma.mul, dtype=np.int64), ring.p
    else:
        mul, p = clear_denominators(gma.mul)[0], None
    Bk = mul - np.transpose(mul, (1, 0, 2))
    if p is not None:
        Bk %= p
    W = np.tensordot(mul, Bk, axes=([2], [0]))  # [u, v, s, r] = [e_u e_v, f_s]_r
    if p is not None:
        W %= p

    def reduce(arr):
        return arr % p if p is not None else arr

    for a in range(d):
        for b in range(a, d):
            for c in range(b, d):
                contrib = np.zeros((d, d, d), dtype=mul.dtype)
                for (u, v, w) in _arrangements3(a, b, c):
                    Z1 = np.tensordot(W[u, v], Bk, axes=([1], [0]))  # (s, l, r)
                    T = np.tensordot(Bk[w], Z1, axes=([1], [1]))  # (t, s, r)
                    contrib += np.transpose(T, (1, 0, 2))
                contrib = reduce(contrib)
                for s in range(d):
                    for t in range(s, d):
                        coef = contrib[s, t] if s == t else reduce(contrib[s, t] + contrib[t, s])
                        if np.any(coef != 0):
                            yield a, b, c, s, t


def slow_check_identity_42(gma):
    bad = next(slow_identity_42_monomials(gma), None)
    return (True, None) if bad is None else slow_identity_42_witness(gma, bad)


def slow_identity_42_witness(gma, bad):
    """The grid of four values per coordinate, x's outermost."""
    ring = gma.ring
    a, b, c, s, t = bad
    e = gma.basis_vector

    def defect(x, y):
        return gma.commutator(gma.commutator(gma.square(x), y), gma.commutator(x, y))

    for ca in _grid_values(ring):
        for cb in _grid_values(ring):
            for cc in _grid_values(ring):
                x = ring.normalize(e(a) * ca + e(b) * cb + e(c) * cc)
                for cs in _grid_values(ring):
                    for ct in _grid_values(ring):
                        y = ring.normalize(e(s) * cs + e(t) * ct)
                        if not ring.is_zero(defect(x, y)):
                            return False, (x, y)
    raise CenterError("nonzero defect coefficient but witness grid found nothing")


def _digits_le(n: int, base: int, width: int):
    out = []
    for _ in range(width):
        out.append(n % base)
        n //= base
    return out


def slow_check_loyal(ctx):
    """Every nonzero candidate vector of the smaller corner, over F_p:
    (status, witness, candidate count)."""
    ring = ctx.ring
    dA, dB, dM = ctx.A.dim, ctx.B.dim, ctx.M.dim
    p = ring.p
    side_a = dA <= dB
    width = dA if side_a else dB
    total = p**width - 1
    for nidx in range(1, total + 1):
        vec = ring.array(_digits_le(nidx, p, width))
        if side_a:
            U = ring.tensordot(vec, ctx.M.left, axes=([0], [0]))
            K = ring.tensordot(U, ctx.M.right, axes=([1], [0]))
            K = np.transpose(K, (0, 2, 1)).reshape(dM * dM, dB)
        else:
            U = ring.tensordot(vec, ctx.M.right, axes=([0], [1]))
            K = ring.tensordot(U, ctx.M.left, axes=([1], [1]))
            K = np.transpose(K, (0, 2, 1)).reshape(dM * dM, dA)
        ker = nullspace_array(ring, K)
        if ker.shape[0]:
            partner = ker[0].copy()
            return "false", (vec, partner) if side_a else (partner, vec), total
    return "true", None, total


def slow_balanced_pair_space_dim(gma):
    """The (f | g) system with one block of rows per pair (m_i, m_j)."""
    ring, ctx = gma.ring, gma.ctx
    dA, dM = ctx.A.dim, ctx.M.dim
    if dM == 0:
        return None
    K = ring.zeros((dM * dM * dM, 2 * dA * dM))  # unknowns [f columns | g columns]
    for i in range(dM):
        for j in range(dM):
            base = (i * dM + j) * dM
            for a in range(dA):
                K[base : base + dM, a * dM + i] += ctx.M.left[a, j]
                K[base : base + dM, dA * dM + a * dM + j] += ctx.M.left[a, i]
    return nullspace_array(ring, ring.normalize(K)).shape[0]


def slow_center_multiplier_annihilator_ok(gma, bound=5**8):
    """Every nonzero projected-center multiplier against every A basis
    element, over F_p; None when the grid is not enumerated."""
    ring, C, A = gma.ring, gma.center, gma.ctx.A
    if not ring.is_prime_field:
        return None
    ka, p = C.pia_image.shape[0], ring.p
    if p**ka - 1 > bound:
        return None
    for nidx in range(1, p**ka):
        coeff = ring.array(_digits_le(nidx, p, ka))
        alpha = ring.tensordot(coeff, C.pia_image, axes=([0], [0]))
        for i in range(A.dim):
            if ring.is_zero(A.multiply(alpha, A.basis_vector(i))):
                return False
    return True


def slow_center_zero_divisor_free(gma, bound=5**8):
    """Every product of two nonzero central elements, over F_p."""
    ring, C = gma.ring, gma.center
    if not ring.is_prime_field:
        return None
    z, p = C.zdim, ring.p
    if z == 0:
        return True
    if p ** (2 * z) > bound:
        return None
    elems = [C.expand(ring.array(_digits_le(nidx, p, z))) for nidx in range(1, p**z)]
    for z1 in elems:
        for z2 in elems:
            if ring.is_zero(gma.multiply(z1, z2)):
                return False
    return True


def independent(ctx, m0, b0) -> bool:
    """Is {m0*b0, m0} linearly independent?"""
    return rank_array(ctx.ring, np.stack([ctx.M.act_right(m0, b0), m0])) == 2


def slow_basis_independent_pair(ctx):
    """The first basis pair (m_i, b_j), i outermost, that is independent."""
    ring = ctx.ring
    for i in range(ctx.M.dim):
        for j in range(ctx.B.dim):
            m0, b0 = ring.zeros(ctx.M.dim), ring.zeros(ctx.B.dim)
            m0[i] = b0[j] = ring.one
            if independent(ctx, m0, b0):
                return m0, b0
    return None


def any_independent_pair(ctx) -> bool:
    """Is some pair (m0, b0) of all of M x B independent?  Over F_p."""
    ring, p = ctx.ring, ctx.ring.p
    dM, dB = ctx.M.dim, ctx.B.dim
    return any(
        independent(ctx, ring.array(_digits_le(m, p, dM)), ring.array(_digits_le(b, p, dB)))
        for m in range(1, p**dM)
        for b in range(1, p**dB)
    )


def rref_mod_p_loops(a, p):
    """Row-reduce the int64 matrix ``a`` in place mod p with scalar loops."""
    rows, cols = a.shape
    pivcols = np.full(cols, -1, dtype=np.int64)
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = -1
        for i in range(r, rows):
            if a[i, c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            for j in range(cols):
                tmp = a[r, j]
                a[r, j] = a[piv, j]
                a[piv, j] = tmp
        # modular inverse by Fermat: a^(p-2) mod p
        inv = 1
        base = a[r, c] % p
        e = p - 2
        while e > 0:
            if e & 1:
                inv = (inv * base) % p
            base = (base * base) % p
            e >>= 1
        for j in range(cols):
            a[r, j] = (a[r, j] * inv) % p
        for i in range(rows):
            if i != r and a[i, c] != 0:
                f = a[i, c]
                for j in range(cols):
                    a[i, j] = (a[i, j] - f * a[r, j]) % p
        pivcols[r] = c
        r += 1
    return pivcols[:r], r


def dense_rref_mod_p(a, p):
    """Rank-1 update of every row per pivot, mod p."""
    a = np.array(a, dtype=np.int64) % p
    rows, cols = a.shape
    pivcols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[:, c].copy()
        col[r] = 0
        a -= np.outer(col, a[r])
        a %= p
        pivcols.append(c)
        r += 1
    return a, np.array(pivcols, dtype=np.int64), r


def rref_object(a):
    """Gauss-Jordan over Q on an object array of Fractions, row by row."""
    a = a.copy()
    rows, cols = a.shape
    pivcols = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = -1
        for i in range(r, rows):
            if a[i, c] != 0:
                piv = i
                break
        if piv < 0:
            continue
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * (Fraction(1) / a[r, c])
        for i in range(rows):
            if i != r and a[i, c] != 0:
                a[i] = a[i] - a[i, c] * a[r]
        pivcols.append(c)
        r += 1
    return a, np.array(pivcols, dtype=np.int64), r


# ---------------------------------------------------------------------------
# fixtures
# ---------------------------------------------------------------------------


def assert_identical(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)
    if a.dtype == object:
        assert [type(v) for v in a.flat] == [type(v) for v in b.flat]


@pytest.fixture(scope="module", params=sorted(INSTANCES))
def gma(request):
    g = assemble_gma(INSTANCES[request.param]())
    g.center
    return g


@pytest.fixture(scope="module")
def traces(gma):
    """A proper trace and a perturbed copy, each with its reference coefficients."""
    ring, d = gma.ring, gma.dim
    proper = random_proper_trace(gma, seed=7)
    t = proper.tensor.copy()
    t[0, 1, d - 1] = t[0, 1, d - 1] + ring.one
    perturbed = BilinearMapRep(ring, t)
    return {
        name: (q, slow_cubic_trace_coefficients(gma, q))
        for name, q in (("proper", proper), ("perturbed", perturbed))
    }


def test_instances_cover_a_wide_center():
    g = assemble_gma(INSTANCES["diagonal-f5"]())
    assert g.center.zdim > 1


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------


def operator_rows(carrier, degree, centralizing, unknown):
    """The coefficient rows of K * unknown, one per monomial, from the
    lifted bracket action and unknown."""
    ring = carrier.ring
    act, la = _bracket_action(carrier, centralizing)
    u, lu = _lift(ring, unknown)
    rows = _sparse_times(ring, constraint_operator(ring, degree, act), u.reshape(-1))
    return _unlift(ring, rows, la * lu).reshape(-1, act.shape[2])


def test_cubic_coefficients_match_loop(gma, traces):
    """The degree-3 operator applied to a trace's pair layout gives the
    coefficients of [B(x,x), x], and read through the annihilator, their
    readings modulo the center."""
    ring, C = gma.ring, gma.center
    for q, slow in traces.values():
        want = np.stack(list(slow.values()))
        pairs = pair_coefficients(ring, q.tensor)
        assert_identical(operator_rows(gma, 3, False, pairs), want)
        assert_identical(
            operator_rows(gma, 3, True, pairs),
            ring.tensordot(want, C.annihilator, axes=([1], [1])),
        )


def test_trace_predicates_match_loop(gma, traces):
    ring, C = gma.ring, gma.center
    verdicts = {}
    for name, (q, slow) in traces.items():
        for pred, offending in (
            (is_commuting_trace, lambda v: not ring.is_zero(v)),
            (is_centralizing_trace, lambda v: not ring.is_zero(C.quotient(v))),
        ):
            ok, w = pred(gma, q)
            ok_slow, w_slow = slow_trace_predicate(gma, q, slow, offending)
            assert ok == ok_slow
            if w_slow is None:
                assert w is None
            else:
                assert_identical(w, w_slow)
            verdicts[name, pred.__name__] = ok
    # both outcomes are exercised on every instance
    assert all(verdicts[k] for k in verdicts if k[0] == "proper")
    assert not any(verdicts[k] for k in verdicts if k[0] == "perturbed")


def test_sym_tensor_matches_loop(gma):
    ring, d, zdim = gma.ring, gma.dim, gma.center.zdim
    stream = XorShift64Star(11)

    def draw(shape):
        out = ring.zeros(shape)
        for idx in np.ndindex(shape):
            out[idx] = ring.random_scalar(stream)
        return out

    for _ in range(2):
        nu = draw((d, d, zdim))
        nu = ring.normalize(nu + np.transpose(nu, (1, 0, 2)))
        form = ProperTraceForm(draw((zdim,)), draw((zdim, d)), nu)
        assert_identical(form.sym_tensor(gma), slow_sym_tensor(form, gma))


def test_generic_system_matches_loop(gma):
    system = build_generic_system(gma)
    K, sym = slow_generic_system(gma)
    assert_identical(system.matrix, K)
    assert_identical(_unlift(gma.ring, *_product_tensors(gma)["pairs"]), sym)


# (n_rows, n_cols, dim) of the trace spaces of M4(F5), 2+2 split: the
# centralizing traces are the 153 proper ones the generic system solves for
M4_TRACE_SPACES = {"centralizing": (12240, 2176, 153), "commuting": (13056, 2176, 153)}


@pytest.mark.parametrize("mode", ["centralizing", "commuting"])
def test_trace_space_matches_loop(gma, mode):
    """The blocked solve against the dense nullspace of the loop-built
    system, on both rings and at every dimension (M4 is dim 16)."""
    ring, d = gma.ring, gma.dim
    K = slow_trace_space_matrix(gma, mode)
    act = _unlift(ring, *_bracket_action(gma, mode == "centralizing"))
    assert_identical(dense_constraint_matrix(ring, 3, act), K)
    space = trace_space(gma, mode)
    assert (space.n_rows, space.n_cols) == K.shape
    assert_identical(space.raw_rows, nullspace_array(ring, K))
    if d == 16:  # M4(F5), the one instance of dim 16
        assert (space.n_rows, space.n_cols, space.dim) == M4_TRACE_SPACES[mode]
        assert space.dim == gma.generic_system.matrix.shape[1]
    slow_basis = slow_basis_tensors(ring, d, space.raw_rows)
    assert len(space.basis) == len(slow_basis)
    for b, s in zip(space.basis, slow_basis):
        assert_identical(b.tensor, s)


def dense_constraint_matrix(ring, degree: int, act: np.ndarray) -> np.ndarray:
    """constraint_operator scattered into a dense matrix."""
    n, rows, cols, values = constraint_operator(ring, degree, act)
    K = ring.zeros((n, _monomial_table(act.shape[0], degree)[1].shape[0] * act.shape[1]))
    K[rows, cols] = values
    return K


def slow_constraint_matrix(ring, degree, act):
    """One addition per arrangement: at degree 2 the arrangement (s, k) of
    x_i x_j, at degree 3 each arrangement (u, v, k) of x_a x_b x_c with
    u <= v, adds act[k, t, q] at row (monomial, q), column (slot, t)."""
    d, m, n = act.shape
    pairs = pair_index_order(d)
    if degree == 2:
        monomials, slots = pairs, list(range(d))
    else:
        monomials = [(a, b, c) for a in range(d) for b in range(a, d) for c in range(b, d)]
        slots = pairs
    K = ring.zeros((len(monomials) * n, len(slots) * m))
    for row, mono in enumerate(monomials):
        for arr in sorted(set(itertools.permutations(mono))):
            slot, k = (arr[0], arr[1]) if degree == 2 else (arr[:2], arr[2])
            if slot not in slots:
                continue  # u > v: the same pair as (v, u)
            col = slots.index(slot)
            for q in range(n):
                for t in range(m):
                    K[row * n + q, col * m + t] += act[k, t, q]
    return ring.normalize(K)


@st.composite
def constraint_actions(draw):
    """A ring, a degree and an action of shape (d, m, n), d <= 4, with zeros."""
    ring = draw(st.sampled_from([F5, BIG_P, RATIONAL]))
    shape = (draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    cells = (
        st.one_of(st.just(0), st.integers(-(10**7), 10**7)) if ring.is_prime_field else RATIONALS
    )
    act = ring.zeros(shape)
    for idx in np.ndindex(shape):
        act[idx] = ring.coerce(draw(cells))
    return ring, draw(st.sampled_from([2, 3])), act


@settings(deadline=None, max_examples=150)
@given(constraint_actions())
def test_constraint_operator_matches_arrangement_loop(case):
    ring, degree, act = case
    n_rows, rows, cols, values = constraint_operator(ring, degree, act)
    assert len(set(zip(rows.tolist(), cols.tolist()))) == len(rows)
    assert not np.any(values == 0)
    want = slow_constraint_matrix(ring, degree, act)
    assert n_rows == want.shape[0]
    assert_identical(dense_constraint_matrix(ring, degree, act), want)


def _action(ring, shape, nonzero):
    """An action of the given shape, one at the given cells, zero elsewhere."""
    act = ring.zeros(shape)
    for idx in nonzero:
        act[idx] = ring.one
    return act


@settings(deadline=None, max_examples=150)
@given(constraint_actions())
@example((F5, 3, F5.zeros((3, 2, 2))))  # the zero operator: every column without entries
@example((RATIONAL, 2, RATIONAL.zeros((2, 3, 1))))
@example((F5, 3, F5.zeros((3, 0, 2))))  # m = 0: no columns
@example((BIG_P, 2, BIG_P.zeros((3, 2, 0))))  # n = 0: no rows
@example((F5, 3, _action(F5, (2, 3, 2), [(0, 0, 1), (1, 2, 0)])))  # column t = 1 never hit
@example((RATIONAL, 3, _action(RATIONAL, (3, 2, 1), [(2, 1, 0)])))
def test_blocked_nullspace_matches_dense_nullspace(case):
    """With one component per block and with components packed together."""
    ring, degree, act = case
    K = constraint_operator(ring, degree, act)
    dense = dense_constraint_matrix(ring, degree, act)
    want = nullspace_array(ring, dense)
    for group_columns in (1, 4, exact._GROUP_COLUMNS):
        with unittest.mock.patch.object(exact, "_GROUP_COLUMNS", group_columns):
            assert_identical(blocked_nullspace(ring, K, dense.shape[1]), want)


@pytest.mark.parametrize("name", ["t3-f5", "m4-f5", "m3-q"])
def test_cube_annihilation_matrix_matches_loop(name):
    """The loop's system in the unknowns K[v, w, n] has equal columns for
    (v, w) and (w, v); its columns v <= w are the degree-3 operator of N's
    left action."""
    g = assemble_gma(INSTANCES[name]())
    dB, dN = g.ctx.B.dim, g.ctx.N.dim
    slow = slow_cube_annihilation_matrix(g)
    slow = slow.reshape(slow.shape[0], dB, dB, dN)
    assert_identical(slow, np.transpose(slow, (0, 2, 1, 3)))
    v, w = np.triu_indices(dB)
    want = slow[:, v, w, :].reshape(slow.shape[0], len(v) * dN)
    assert_identical(dense_constraint_matrix(g.ring, 3, g.ctx.N.left), want)


def perturbed(F, at):
    """F with one added to the matrix entry at `at`."""
    m = F.matrix.copy()
    m[at] = m[at] + F.ring.one
    return LinearMapRep(F.ring, m)


@pytest.fixture(scope="module")
def linear_maps(gma):
    """A passing map (a seeded conjugation on full-matrix instances, the
    identity elsewhere), the zero map, and each perturbed at the first and
    at the last matrix entry, so that failures fall both early and late."""
    ring, d = gma.ring, gma.dim
    if gma.ctx.meta.get("builder") == "full_matrix":
        passing = random_lie_triple_iso(gma, seed=3)
    else:
        passing = LinearMapRep.identity(ring, d)
    zero = LinearMapRep.zero(ring, d, d)
    maps = {}
    for name, F in (("passing", passing), ("zero", zero)):
        maps[name] = F
        maps[name + "+first"] = perturbed(F, (0, 0))
        maps[name + "+last"] = perturbed(F, (d - 1, d - 1))
    return maps


def assert_same_verdict(got, want):
    assert got[0] == want[0]
    if want[1] is None:
        assert got[1] is None
    elif isinstance(want[1], tuple):
        assert isinstance(got[1], tuple) and len(got[1]) == len(want[1])
        for g, w in zip(got[1], want[1]):
            assert_identical(g, w)
    else:
        assert_identical(got[1], want[1])


HOM_PREDICATES = {
    "jordan": (lambda g, F: is_jordan_hom(g, g, F), lambda g, F: slow_is_jordan_hom(g, g, F)),
    "lie-triple": (
        lambda g, F: is_lie_triple_hom(g, g, F),
        lambda g, F: slow_is_lie_triple_hom(g, g, F),
    ),
    "vanishing": (vanishes_on_second_commutators, slow_vanishes_on_second_commutators),
}


@pytest.mark.parametrize("pred", sorted(HOM_PREDICATES))
def test_hom_predicates_match_loop(gma, linear_maps, pred):
    fast, slow = HOM_PREDICATES[pred]
    # the zero maps run through the vanishing predicate only: the Lie-triple
    # and Jordan loops are slow over Q
    names = [n for n in linear_maps if pred == "vanishing" or n.startswith("passing")]
    verdicts = {}
    for name in names:
        got = fast(gma, linear_maps[name])
        assert_same_verdict(got, slow(gma, linear_maps[name]))
        verdicts[name] = got[0]
    if pred != "vanishing":
        assert verdicts["passing"]
    assert not all(verdicts.values())


def test_linear_defect_matches_loop(gma, linear_maps):
    ring, C = gma.ring, gma.center
    for F in linear_maps.values():
        slow = slow_linear_defect_coefficients(gma, F)
        assert list(slow) == pair_index_order(gma.dim)
        rows = operator_rows(gma, 2, False, F.matrix.T)
        assert_identical(rows, np.stack(list(slow.values())))
        for pred, offending in (
            (is_commuting_linear, lambda v: not ring.is_zero(v)),
            (is_centralizing_linear, lambda v: not ring.is_zero(C.quotient(v))),
        ):
            assert_same_verdict(pred(gma, F), slow_linear_predicate(gma, F, slow, offending))


def test_identity_42_matches_loop(gma):
    assert_same_verdict(check_identity_42(gma), slow_check_identity_42(gma))


@pytest.mark.parametrize("name", ["t3-f5", "t3-q"])
def test_identity_42_witness_walks_the_grid_on_every_nonzero_monomial(name):
    """Not only the first monomial: on some the basis sums give a zero
    defect and the witness comes from further along the grid."""
    ring = {"f5": F5, "q": RATIONAL}[name[3:]]
    g = assemble_gma(build_upper_triangular(3, 1, ring))
    late = 0
    for a, b, c, s, t in slow_identity_42_monomials(g):
        got = _identity_42_witness(g, (a, b, c), (s, t))
        assert_same_verdict((False, got), slow_identity_42_witness(g, (a, b, c, s, t)))
        e = g.basis_vector
        late += not all(ring.equal(w, v) for w, v in zip(got, (e(a) + e(b) + e(c), e(s) + e(t))))
    assert late


def build_late_annihilator_pair(ring):
    """A = B = R^2 componentwise, M = R^2 with a.m = a_0 m and m.b
    coordinatewise, N = 0.  No multiple of (1, 0) annihilates M, but (0, 1)
    kills it: the first witness is candidate p, not candidate 1."""
    base = build_diagonal_pair(ring)
    left = ring.zeros((2, 2, 2))
    left[0, 0, 0] = left[0, 1, 1] = ring.one
    M = BimoduleSpec(ring, 2, left, base.M.right)
    N = BimoduleSpec(ring, 0, ring.zeros((2, 0, 0)), ring.zeros((0, 2, 0)))
    return MoritaContext(base.A, base.B, M, N, ring.zeros((2, 0, 2)), ring.zeros((0, 2, 2)))


def test_late_annihilator_pair_is_lawful():
    assert check_morita_axioms(build_late_annihilator_pair(F5)).ok


def build_right_annihilator_pair(ring):
    """The late-annihilator pair mirrored: a.m coordinatewise and
    m.b = m b_0, so (0, 1) in B kills M from the right."""
    base = build_diagonal_pair(ring)
    right = ring.zeros((2, 2, 2))
    right[0, 0, 0] = right[1, 0, 1] = ring.one
    M = BimoduleSpec(ring, 2, base.M.left, right)
    N = BimoduleSpec(ring, 0, ring.zeros((2, 0, 0)), ring.zeros((0, 2, 0)))
    return MoritaContext(base.A, base.B, M, N, ring.zeros((2, 0, 2)), ring.zeros((0, 2, 2)))


def test_corner_isomorphism_inverse_needs_a_left_faithful_bimodule():
    gma = assemble_gma(build_late_annihilator_pair(F5))
    msg = "corner isomorphism inverse needs the bimodule faithful on the left; it is not"
    with pytest.raises(CenterError, match=re.escape(msg)):
        gma.center


def test_corner_isomorphism_needs_a_right_faithful_bimodule():
    ctx = build_right_annihilator_pair(F5)
    assert check_morita_axioms(ctx).ok
    gma = assemble_gma(ctx)
    msg = "corner isomorphism needs the bimodule faithful on the right; it is not"
    with pytest.raises(CenterError, match=re.escape(msg)):
        gma.center


def build_wide_annihilator_pair(ring):
    """A = R^3 componentwise, B = R, M = R^2 with a.m = (a_0 m_0, a_1 m_1),
    N = 0.  Loyalty scans the smaller corner B, and (0, 0, 1) kills M: the
    witness is read in the other orientation."""
    A = build_diagonal_pair(ring, 3).A
    B = AlgebraSpec(ring, 1, ring.array([[[1]]]), ring.array([1]))
    left, right = ring.zeros((3, 2, 2)), ring.zeros((2, 1, 2))
    left[0, 0, 0] = left[1, 1, 1] = right[0, 0, 0] = right[1, 0, 1] = ring.one
    M = BimoduleSpec(ring, 2, left, right)
    N = BimoduleSpec(ring, 0, ring.zeros((1, 0, 0)), ring.zeros((0, 3, 0)))
    return MoritaContext(A, B, M, N, ring.zeros((2, 0, 3)), ring.zeros((0, 2, 1)))


LOYALTY_CONTEXTS = {
    "late-annihilator-f5": lambda: build_late_annihilator_pair(F5),
    "wide-annihilator-f7": lambda: build_wide_annihilator_pair(prime_field(7)),
    "m4-split3-f5": lambda: build_full_matrix(4, 3, F5),
    "diagonal-f5": lambda: build_diagonal_pair(F5),
    "diagonal-f7": lambda: build_diagonal_pair(prime_field(7)),
    "t3-f5": INSTANCES["t3-f5"],
    "m4-f5": INSTANCES["m4-f5"],
}


@pytest.mark.parametrize("name", sorted(LOYALTY_CONTEXTS))
def test_loyalty_scan_matches_full_scan(name):
    ctx = LOYALTY_CONTEXTS[name]()
    res = check_loyal(ctx)
    status, witness, total = slow_check_loyal(ctx)
    assert_same_verdict((res.status, res.witness), (status, witness))
    if status == "true":
        assert res.detail == f"enumeration over {total} candidates"


def test_wide_annihilator_witness_is_read_from_the_smaller_corner():
    ctx = build_wide_annihilator_pair(F5)
    assert check_morita_axioms(ctx).ok
    res = check_loyal(ctx)
    assert res.status == "false"
    assert_same_verdict((True, res.witness), (True, (F5.array([0, 0, 1]), F5.array([1]))))


SCAN_CONTEXTS = {
    "m3-f5": lambda: build_full_matrix(3, 1, F5),
    "m4-f5": lambda: build_full_matrix(4, 2, F5),
    "t3-f5": lambda: build_upper_triangular(3, 1, F5),
    "t3-split2-f7": lambda: build_upper_triangular(3, 2, prime_field(7)),
    "diagonal-f5": lambda: build_diagonal_pair(F5),
    "diagonal-k3-f5": lambda: build_diagonal_pair(F5, 3),
    "inflated-f5": lambda: build_inflated(F5, 1, F5.eye(1)),
    "m3-q": lambda: build_full_matrix(3, 1, RATIONAL),
    "diagonal-q": lambda: build_diagonal_pair(RATIONAL),
}


@pytest.mark.parametrize("name", sorted(SCAN_CONTEXTS))
def test_center_scans_match_their_loops(name):
    """The balanced dimension, the zero-divisor scan and, wherever the old
    enumeration runs, the multiplier against their loops; over Q the loops
    and the zero-divisor scan do not decide."""
    gma = assemble_gma(SCAN_CONTEXTS[name]())
    assert balanced_pair_space_dim(gma) == slow_balanced_pair_space_dim(gma)
    for bound in (5**8, 24):
        assert center_zero_divisor_free(gma, bound) is slow_center_zero_divisor_free(gma, bound)
    want = slow_center_multiplier_annihilator_ok(gma)
    if want is not None:
        assert center_multiplier_annihilator_ok(gma) is want


def test_center_multiplier_decides_over_q():
    m3, diagonal = (assemble_gma(SCAN_CONTEXTS[name]()) for name in ("m3-q", "diagonal-q"))
    assert center_multiplier_annihilator_ok(m3) is True
    assert center_multiplier_annihilator_ok(diagonal) is False


# how the independent pair is found: a basis pair, m_0 + m_i against a
# diagonal action, or not at all (B acts on M by scalars)
PAIR_CONTEXTS = {
    "t3-f5": "basis",
    "m3-f5": "basis",
    "diagonal-f5": "diagonal",
    "diagonal-k3-f5": "diagonal",
    "inflated-f5": "none",
}


@pytest.mark.parametrize("name", sorted(PAIR_CONTEXTS))
def test_independent_pair_matches_exhaustive_enumeration(name):
    ctx = SCAN_CONTEXTS[name]()
    pair = _independent_pair(assemble_gma(ctx))
    assert (pair is not None) == any_independent_pair(ctx) == (PAIR_CONTEXTS[name] != "none")
    basis = slow_basis_independent_pair(ctx)
    assert (basis is not None) == (PAIR_CONTEXTS[name] == "basis")
    if basis is not None:
        assert_same_verdict((True, pair), (True, basis))
    elif pair is not None:
        assert independent(ctx, *pair)
        assert [int(v) for v in pair[0]] == [1, 1] + [0] * (ctx.M.dim - 2)


# ---------------------------------------------------------------------------
# the constructive chain
# ---------------------------------------------------------------------------


def slow_corner_map(ring, image, iso, v):
    coeff = row_span_coords(ring, image, np.asarray(v))
    return None if coeff is None else ring.tensordot(iso, coeff, axes=([1], [0]))


def slow_center_coords(C, v):
    to_coords = slow_coordinate_complement(C.ring, C.z_g)[1]
    c = C.ring.tensordot(to_coords, np.asarray(v), axes=([1], [0]))
    return None if not C.ring.is_zero(c[C.zdim :]) else c[: C.zdim].copy()


def slow_extract_constructive_witness(gma, grid, report):
    ring, C, ctx = gma.ring, gma.center, gma.ctx
    dA, dM, dN, dB = gma.dims
    unitA, unitB = ctx.A.unit, ctx.B.unit

    def need(vec, where, stage):
        coords = row_span_coords(ring, where, vec)
        if coords is None:
            raise WitnessExtractionError(stage, "value escapes the projected center", report)
        return coords

    def phi(a_vec, stage):
        out = slow_corner_map(ring, C.pia_image, C.phi, a_vec)
        if out is None:
            raise WitnessExtractionError(stage, "phi argument outside pi_A(Z)", report)
        return out

    def phi_inv(b_vec, stage):
        out = slow_corner_map(ring, C.pib_image, C.phi_inv, b_vec)
        if out is None:
            raise WitnessExtractionError(stage, "phi^-1 argument outside pi_B(Z)", report)
        return out

    f11_11 = grid.evaluate("f", 0, 0, unitA, unitA)
    k11_11 = grid.evaluate("k", 0, 0, unitA, unitA)
    kappa = ring.normalize(phi(f11_11, "kappa") - k11_11)
    k44_11 = grid.evaluate("k", 3, 3, unitB, unitB)
    f44_11 = grid.evaluate("f", 3, 3, unitB, unitB)
    theta = ring.normalize(phi_inv(k44_11, "theta") - f44_11)

    alpha = ring.zeros((dA, dM))
    for j in range(dM):
        em = ring.zeros(dM)
        em[j] = ring.one
        val = grid.evaluate("f", 0, 1, unitA, em) - phi_inv(
            grid.evaluate("k", 0, 1, unitA, em), "alpha"
        )
        alpha[:, j] = ring.normalize(val)
        need(alpha[:, j], C.z_a, "alpha-centrality")
    tau = ring.zeros((dA, dN))
    for j in range(dN):
        en = ring.zeros(dN)
        en[j] = ring.one
        val = grid.evaluate("f", 0, 2, unitA, en) - phi_inv(
            grid.evaluate("k", 0, 2, unitA, en), "tau"
        )
        tau[:, j] = ring.normalize(val)
        need(tau[:, j], C.z_a, "tau-centrality")

    a_noncomm = C.z_a.shape[0] < dA
    b_noncomm = C.z_b.shape[0] < dB
    f14 = grid.component("f", 0, 3)
    k14 = grid.component("k", 0, 3)
    gamma = ring.zeros((dA, dB))
    gamma_prime = ring.zeros((dB, dA))
    delta = ring.zeros((dA, dB, dA))

    if a_noncomm or not b_noncomm:
        side = "A" if a_noncomm else "fallback"
        QA = slow_algebra_quotient(ring, C.z_a)
        qdim, za_dim = QA.shape[0], C.z_a.shape[0]
        coeff = ring.zeros((dA * qdim, za_dim))
        for u in range(za_dim):
            for i in range(dA):
                prod = ctx.A.multiply(C.z_a[u], ctx.A.basis_vector(i))
                coeff[i * qdim : (i + 1) * qdim, u] = ring.tensordot(QA, prod, axes=([1], [0]))
        for t in range(dB):
            rhs = ring.zeros(dA * qdim)
            for i in range(dA):
                rhs[i * qdim : (i + 1) * qdim] = ring.tensordot(QA, f14[i, t], axes=([1], [0]))
            c = solve_array(ring, coeff, rhs)
            if c is None:
                raise WitnessExtractionError("gamma-solve", "inconsistent system", report)
            gamma[:, t] = ring.tensordot(c, C.z_a, axes=([0], [0])) if za_dim else ring.zeros(dA)
            for i in range(dA):
                delta[i, t] = ring.normalize(
                    f14[i, t] - ctx.A.multiply(gamma[:, t], ctx.A.basis_vector(i))
                )
        for i in range(dA):
            dval = ring.tensordot(unitB, delta[i], axes=([0], [0]))
            gamma_prime[:, i] = ring.normalize(
                ring.tensordot(unitB, k14[i], axes=([0], [0])) - phi(dval, "gamma-prime")
            )
            need(gamma_prime[:, i], C.z_b, "gamma-prime-centrality")
    else:
        side = "B"
        QB = slow_algebra_quotient(ring, C.z_b)
        qdim, zb_dim = QB.shape[0], C.z_b.shape[0]
        coeff = ring.zeros((dB * qdim, zb_dim))
        for u in range(zb_dim):
            for t in range(dB):
                prod = ctx.B.multiply(C.z_b[u], ctx.B.basis_vector(t))
                coeff[t * qdim : (t + 1) * qdim, u] = ring.tensordot(QB, prod, axes=([1], [0]))
        for i in range(dA):
            rhs = ring.zeros(dB * qdim)
            for t in range(dB):
                rhs[t * qdim : (t + 1) * qdim] = ring.tensordot(QB, k14[i, t], axes=([1], [0]))
            c = solve_array(ring, coeff, rhs)
            if c is None:
                raise WitnessExtractionError("gamma-prime-solve", "inconsistent system", report)
            gamma_prime[:, i] = (
                ring.tensordot(c, C.z_b, axes=([0], [0])) if zb_dim else ring.zeros(dB)
            )
            for t in range(dB):
                rem = ring.normalize(
                    k14[i, t] - ctx.B.multiply(gamma_prime[:, i], ctx.B.basis_vector(t))
                )
                delta[i, t] = phi_inv(rem, "delta")
        for t in range(dB):
            dval = ring.tensordot(unitA, delta[:, t], axes=([0], [0]))
            gamma[:, t] = ring.normalize(ring.tensordot(unitA, f14[:, t], axes=([0], [0])) - dval)
            need(gamma[:, t], C.z_a, "gamma-centrality")

    for i in range(dA):
        for t in range(dB):
            resid_a = ring.normalize(f14[i, t] - ctx.A.multiply(gamma[:, t], ctx.A.basis_vector(i)))
            if row_span_coords(ring, C.z_a, resid_a) is None:
                raise WitnessExtractionError("f14-shape", "f14 - gamma(a4)a1 escapes Z(A)", report)
            resid_b = ring.normalize(
                k14[i, t] - ctx.B.multiply(gamma_prime[:, i], ctx.B.basis_vector(t))
            )
            if row_span_coords(ring, C.z_b, resid_b) is None:
                raise WitnessExtractionError("k14-shape", "k14 - gamma'(a1)a4 escapes Z(B)", report)

    epsilon = ring.normalize(theta - ring.tensordot(gamma, unitB, axes=([1], [0])))
    epsilon_prime = ring.normalize(kappa - ring.tensordot(gamma_prime, unitA, axes=([1], [0])))
    if slow_center_coords(C, gma.embed_diag(epsilon, epsilon_prime)) is None:
        raise WitnessExtractionError(
            "epsilon-pair", "epsilon + epsilon' is not central in G", report
        )

    eta = ring.zeros((dA, dM, dA))
    f12 = grid.component("f", 0, 1)
    for i in range(dA):
        for j in range(dM):
            eta[i, j] = ring.normalize(
                f12[i, j] - ctx.A.multiply(alpha[:, j], ctx.A.basis_vector(i))
            )
            need(eta[i, j], C.z_a, "eta-centrality")
    return ConstructiveWitness(
        kappa, theta, alpha, tau, gamma, gamma_prime, delta, eta, epsilon, epsilon_prime, side
    )


def slow_witness_shape_report(grid, w):
    gma = grid.gma
    ring, C, ctx = gma.ring, gma.center, gma.ctx
    dA, dM, dN, dB = gma.dims
    out = {}

    def basis(n, j):
        v = ring.zeros(n)
        v[j] = ring.one
        return v

    gp_back = [
        slow_corner_map(ring, C.pib_image, C.phi_inv, w.gamma_prime[:, i]) for i in range(dA)
    ]
    g_fwd = [slow_corner_map(ring, C.pia_image, C.phi, w.gamma[:, t]) for t in range(dB)]

    ok = True
    for j in range(dM):
        for i in range(dA):
            if gp_back[i] is None:
                ok = False
                continue
            a1 = basis(dA, i)
            lhs = grid.evaluate("g", 0, 1, a1, basis(dM, j))
            coef = ring.normalize(ctx.A.multiply(w.epsilon, a1) + gp_back[i])
            ok = ok and ring.equal(lhs, ctx.M.act_left(coef, basis(dM, j)))
    out["g12-shape"] = ok
    ok = True
    for j in range(dM):
        for t in range(dB):
            if g_fwd[t] is None:
                ok = False
                continue
            a4 = basis(dB, t)
            lhs = grid.evaluate("g", 1, 3, basis(dM, j), a4)
            coef = ring.normalize(ctx.B.multiply(w.epsilon_prime, a4) + g_fwd[t])
            ok = ok and ring.equal(lhs, ctx.M.act_right(basis(dM, j), coef))
    out["g24-shape"] = ok
    if dN:
        ok = True
        for i in range(dA):
            a1 = basis(dA, i)
            for j in range(dN):
                a3 = basis(dN, j)
                lhs = grid.evaluate("h", 0, 2, a1, a3)
                rhs = ring.normalize(
                    ctx.N.act_right(a3, ctx.A.multiply(w.epsilon, a1))
                    + ctx.N.act_left(w.gamma_prime[:, i], a3)
                )
                ok = ok and ring.equal(lhs, rhs)
        out["h13-shape"] = ok
        ok = True
        for j in range(dN):
            a3 = basis(dN, j)
            for t in range(dB):
                if g_fwd[t] is None:
                    ok = False
                    continue
                a4 = basis(dB, t)
                coef = ring.normalize(ctx.B.multiply(w.epsilon_prime, a4) + g_fwd[t])
                lhs = grid.evaluate("h", 2, 3, a3, a4)
                ok = ok and ring.equal(lhs, ctx.N.act_left(coef, a3))
        out["h34-shape"] = ok
        ok = True
        for j in range(dM):
            a2 = basis(dM, j)
            for t in range(dN):
                a3 = basis(dN, t)
                val = grid.evaluate("k", 1, 2, a2, a3)
                resid = ring.normalize(val - ctx.B.multiply(w.epsilon_prime, ctx.pair_nm(a3, a2)))
                ok = ok and row_span_coords(ring, C.z_b, resid) is not None
        out["k23-centrality"] = ok
        ok = True
        for j in range(dM):
            a2 = basis(dM, j)
            for t in range(dN):
                a3 = basis(dN, t)
                val = grid.evaluate("f", 1, 2, a2, a3)
                resid = ring.normalize(val - ctx.A.multiply(w.epsilon, ctx.pair_mn(a2, a3)))
                ok = ok and row_span_coords(ring, C.z_a, resid) is not None
        out["f23-centrality"] = ok
    for (kind_pair, name, n) in ((1, "f22k22-central", dM), (2, "f33k33-central", dN)):
        ok = True
        for i in range(n):
            for j in range(i, n):
                ea, eb = basis(n, i), basis(n, j)
                fa = grid.evaluate("f", kind_pair, kind_pair, ea, eb)
                fb = grid.evaluate("f", kind_pair, kind_pair, eb, ea)
                ka = grid.evaluate("k", kind_pair, kind_pair, ea, eb)
                kb = grid.evaluate("k", kind_pair, kind_pair, eb, ea)
                pair = gma.embed_diag(ring.normalize(fa + fb), ring.normalize(ka + kb))
                ok = ok and slow_center_coords(C, pair) is not None
        out[name] = ok
    out["g-pattern"] = grid.pattern_violation is None or grid.pattern_violation[0] != "g"
    out["h-pattern"] = grid.pattern_violation is None or grid.pattern_violation[0] != "h"
    return out


def slow_decompose_trace_constructive(q, gma):
    """The chain with one product per basis vector or pair; the entry
    predicate is left to the caller."""
    ring, C, report = gma.ring, gma.center, gma.report
    grid = extract_components(q, gma, centralizing=True)
    w = slow_extract_constructive_witness(gma, grid, report)
    dA, dM, dN, dB = gma.dims
    d = gma.dim
    z_vec = gma.embed_diag(w.epsilon, w.epsilon_prime)
    z_coords = slow_center_coords(C, z_vec)

    mu_mat = ring.zeros((C.zdim, d))
    for col in range(d):
        a1, a2, a3, a4 = gma.blocks(gma.basis_vector(col))
        ga = ring.tensordot(w.gamma, a4, axes=([1], [0]))
        al = ring.tensordot(w.alpha, a2, axes=([1], [0]))
        ta = ring.tensordot(w.tau, a3, axes=([1], [0])) if dN else ring.zeros(dA)
        gp = ring.tensordot(w.gamma_prime, a1, axes=([1], [0]))
        gp_back = slow_corner_map(ring, C.pib_image, C.phi_inv, gp)
        fwd = slow_corner_map(ring, C.pia_image, C.phi, ring.normalize(ga + al + ta))
        if gp_back is None or fwd is None:
            raise WitnessExtractionError(
                "mu-assembly", "witness value outside the projected center", report
            )
        a_part = ring.normalize(gp_back + ga + al + ta)
        b_part = ring.normalize(gp + fwd)
        coords = slow_center_coords(C, gma.embed_diag(a_part, b_part))
        if coords is None:
            raise WitnessExtractionError("mu-assembly", "mu value not central", report)
        mu_mat[:, col] = coords

    vals = pair_coefficients(ring, q.tensor)
    nu = ring.zeros((d, d, C.zdim))
    shape_report = slow_witness_shape_report(grid, w)
    for n, (i, j) in enumerate(pair_index_order(d)):
        ei, ej = gma.basis_vector(i), gma.basis_vector(j)
        if i == j:
            w_prod = gma.square(ei)
        else:
            w_prod = ring.normalize(gma.multiply(ei, ej) + gma.multiply(ej, ei))
        mui = C.expand(mu_mat[:, i])
        resid = vals[n] - gma.multiply(z_vec, w_prod) - gma.multiply(mui, ej)
        if i != j:
            resid = resid - gma.multiply(C.expand(mu_mat[:, j]), ei)
        resid = ring.normalize(resid)
        coords = slow_center_coords(C, resid)
        if coords is None:
            violation = {
                "stage": "nu-centrality",
                "pair": (i, j),
                "residual": resid.tolist(),
                "q": q.tensor.tolist(),
            }
            return ConstructiveDecomposition(
                "violation-candidate", None, w, shape_report, violation, report.route, report
            )
        if i == j:
            nu[i, i] = coords
        else:
            nu[i, j] = ring.normalize(coords * ring.half)
            nu[j, i] = nu[i, j]
    form = ProperTraceForm(z_coords, mu_mat, nu)
    assert form.matches(gma, q)
    return ConstructiveDecomposition("ok", form, w, shape_report, None, report.route, report)


# The chain as contractions on ring values, as it ran before it moved to
# lifted integers: over Q every contraction, span test and solve builds
# Fractions.  Kept only as an oracle for the lifted chain.


def fraction_corner_rows(C, image, iso, v):
    coeff, resid = row_span_residual(C.ring, image, np.asarray(v))
    return (
        C.ring.tensordot(coeff, iso, axes=([-1], [1])),
        ~np.any(resid != C.ring.zero, axis=-1),
    )


def fraction_center_rows(C, v):
    v = C.ring.normalize(np.asarray(v))
    rest = C.ring.tensordot(v, C.annihilator, axes=([-1], [1]))
    pivots = (C.z_g != C.ring.zero).argmax(axis=1)
    return v[..., pivots], ~np.any(rest != C.ring.zero, axis=-1)


def fraction_outside(ring, rows, v):
    return np.any(row_span_residual(ring, rows, v)[1] != ring.zero, axis=-1)


def fraction_diag_rows(gma, a, b):
    out = gma.ring.zeros(np.shape(a)[:-1] + (gma.dim,))
    out[..., gma.block_slice(0)] = a
    out[..., gma.block_slice(3)] = b
    return out


def fraction_central_multiples(ring, alg, z_rows, targets):
    Q = nullspace_array(ring, z_rows)
    ze = ring.tensordot(z_rows, alg.mul, axes=([1], [0]))
    coeff = np.transpose(ring.tensordot(ze, Q, axes=([2], [1])), (1, 2, 0))
    rhs = ring.tensordot(targets, Q, axes=([2], [1]))
    sols, first_bad = solve_columns(
        ring, coeff.reshape(-1, z_rows.shape[0]), rhs.reshape(rhs.shape[0], -1)
    )
    failed = np.zeros(rhs.shape[0], dtype=bool)
    if first_bad is not None:
        failed[first_bad] = True
    return ring.tensordot(sols, z_rows, axes=([1], [0])), failed


def fraction_components(q, gma):
    """The grid's components as ring values: (i, j) -> C_ij."""
    ring = gma.ring
    P = ring.normalize(q.tensor + np.transpose(q.tensor, (1, 0, 2)))
    tensors = {}
    for i in range(4):
        for j in range(i, 4):
            block = P[gma.block_slice(i), gma.block_slice(j), :]
            tensors[(i, j)] = ring.normalize(block * ring.half) if i == j else block.copy()
    return tensors


def fraction_extract_constructive_witness(gma, tensors, report):
    ring, C, ctx = gma.ring, gma.center, gma.ctx
    A, B = ctx.A, ctx.B
    dA, dM, dN, dB = gma.dims
    td = ring.tensordot

    def component(kind, i, j):
        return tensors[(i, j)][:, :, gma.block_slice("fghk".index(kind))]

    def evaluate(kind, i, j, x, y):
        return td(y, td(x, component(kind, i, j), axes=([0], [0])), axes=([0], [0]))

    def check(*checks):
        failure = decompose._first_failed_check(checks)
        if failure is not None:
            raise WitnessExtractionError(*failure, report)

    fwd, inside = fraction_corner_rows(C, C.pia_image, C.phi, evaluate("f", 0, 0, A.unit, A.unit))
    check(("kappa", decompose._OFF_PHI, ~inside))
    kappa = ring.normalize(fwd - evaluate("k", 0, 0, A.unit, A.unit))
    back, inside = fraction_corner_rows(C, C.pib_image, C.phi_inv, evaluate("k", 3, 3, B.unit, B.unit))
    check(("theta", decompose._OFF_PHI_INV, ~inside))
    theta = ring.normalize(back - evaluate("f", 3, 3, B.unit, B.unit))

    def unit_column_values(block, stage):
        f = td(A.unit, component("f", 0, block), axes=([0], [0]))
        k = td(A.unit, component("k", 0, block), axes=([0], [0]))
        back, inside = fraction_corner_rows(C, C.pib_image, C.phi_inv, k)
        vals = ring.normalize(f - back)
        check(
            (stage, decompose._OFF_PHI_INV, ~inside),
            (stage + "-centrality", decompose._ESCAPES, fraction_outside(ring, C.z_a, vals)),
        )
        out = ring.zeros((dA, vals.shape[0]))
        out[...] = vals.T
        return out

    alpha = unit_column_values(1, "alpha")
    tau = unit_column_values(2, "tau")
    f14, k14 = component("f", 0, 3), component("k", 0, 3)
    gamma, gamma_prime, delta = ring.zeros((dA, dB)), ring.zeros((dB, dA)), ring.zeros((dA, dB, dA))

    def rest_a():
        return ring.normalize(f14 - np.transpose(td(gamma, A.mul, axes=([0], [0])), (1, 0, 2)))

    def rest_b():
        return ring.normalize(k14 - td(gamma_prime, B.mul, axes=([0], [0])))

    a_noncomm = C.z_a.shape[0] < dA
    if a_noncomm or not C.z_b.shape[0] < dB:
        side = "A" if a_noncomm else "fallback"
        sols, failed = fraction_central_multiples(ring, A, C.z_a, np.transpose(f14, (1, 0, 2)))
        check(("gamma-solve", "inconsistent system", failed))
        gamma[...] = sols.T
        delta[...] = rest_a()
        fwd, inside = fraction_corner_rows(C, C.pia_image, C.phi, td(B.unit, delta, axes=([0], [1])))
        vals = ring.normalize(td(B.unit, k14, axes=([0], [1])) - fwd)
        check(
            ("gamma-prime", decompose._OFF_PHI, ~inside),
            ("gamma-prime-centrality", decompose._ESCAPES, fraction_outside(ring, C.z_b, vals)),
        )
        gamma_prime[...] = vals.T
    else:
        side = "B"
        sols, failed = fraction_central_multiples(ring, B, C.z_b, k14)
        gamma_prime[...] = sols.T
        back, inside = fraction_corner_rows(C, C.pib_image, C.phi_inv, rest_b())
        check(
            ("gamma-prime-solve", "inconsistent system", failed),
            ("delta", decompose._OFF_PHI_INV, ~inside.all(axis=1)),
        )
        delta[...] = back
        vals = ring.normalize(td(A.unit, f14, axes=([0], [0])) - td(A.unit, delta, axes=([0], [0])))
        check(("gamma-centrality", decompose._ESCAPES, fraction_outside(ring, C.z_a, vals)))
        gamma[...] = vals.T
    check(
        ("f14-shape", "f14 - gamma(a4)a1 escapes Z(A)", fraction_outside(ring, C.z_a, rest_a())),
        ("k14-shape", "k14 - gamma'(a1)a4 escapes Z(B)", fraction_outside(ring, C.z_b, rest_b())),
    )
    epsilon = ring.normalize(theta - td(gamma, B.unit, axes=([1], [0])))
    epsilon_prime = ring.normalize(kappa - td(gamma_prime, A.unit, axes=([1], [0])))
    if not fraction_center_rows(C, gma.embed_diag(epsilon, epsilon_prime))[1]:
        raise WitnessExtractionError("epsilon-pair", "epsilon + epsilon' is not central in G", report)
    eta = ring.zeros((dA, dM, dA))
    eta[...] = ring.normalize(
        component("f", 0, 1) - np.transpose(td(alpha, A.mul, axes=([0], [0])), (1, 0, 2))
    )
    check(("eta-centrality", decompose._ESCAPES, fraction_outside(ring, C.z_a, eta)))
    return ConstructiveWitness(
        kappa, theta, alpha, tau, gamma, gamma_prime, delta, eta, epsilon, epsilon_prime, side
    )


def fraction_witness_shape_report(gma, tensors, pattern_violation, w):
    ring, C, ctx = gma.ring, gma.center, gma.ctx
    td = ring.tensordot
    dA, dM, dN, dB = gma.dims

    def component(kind, i, j):
        return tensors[(i, j)][:, :, gma.block_slice("fghk".index(kind))]

    gp_back, back_ok = fraction_corner_rows(C, C.pib_image, C.phi_inv, w.gamma_prime.T)
    g_fwd, fwd_ok = fraction_corner_rows(C, C.pia_image, C.phi, w.gamma.T)
    eps_a = td(w.epsilon, ctx.A.mul, axes=([0], [0]))
    eps_b = td(w.epsilon_prime, ctx.B.mul, axes=([0], [0]))
    coef_a = ring.normalize(eps_a + gp_back)
    coef_b = ring.normalize(eps_b + g_fwd)

    def law(lhs, rhs, *phis_ok):
        return all(bool(ok.all()) for ok in phis_ok) and ring.equal(lhs, rhs)

    out = {}
    out["g12-shape"] = not dM or law(
        component("g", 0, 1), td(coef_a, ctx.M.left, axes=([1], [0])), back_ok
    )
    out["g24-shape"] = not dM or law(
        component("g", 1, 3),
        np.transpose(td(ctx.M.right, coef_b, axes=([1], [1])), (0, 2, 1)),
        fwd_ok,
    )
    if dN:
        out["h13-shape"] = law(
            component("h", 0, 2),
            np.transpose(td(ctx.N.right, eps_a, axes=([1], [1])), (2, 0, 1))
            + td(w.gamma_prime, ctx.N.left, axes=([0], [0])),
        )
        out["h34-shape"] = law(
            component("h", 2, 3),
            np.transpose(td(coef_b, ctx.N.left, axes=([1], [0])), (1, 0, 2)),
            fwd_ok,
        )
        eps_nm = td(np.transpose(ctx.pairing_NM, (1, 0, 2)), eps_b, axes=([2], [0]))
        out["k23-centrality"] = not fraction_outside(
            ring, C.z_b, ring.normalize(component("k", 1, 2) - eps_nm)
        ).any()
        eps_mn = td(ctx.pairing_MN, eps_a, axes=([2], [0]))
        out["f23-centrality"] = not fraction_outside(
            ring, C.z_a, ring.normalize(component("f", 1, 2) - eps_mn)
        ).any()
    for block, name in ((1, "f22k22-central"), (2, "f33k33-central")):
        f, k = component("f", block, block), component("k", block, block)
        pairs = fraction_diag_rows(
            gma,
            ring.normalize(f + np.transpose(f, (1, 0, 2))),
            ring.normalize(k + np.transpose(k, (1, 0, 2))),
        )
        out[name] = bool(fraction_center_rows(C, pairs)[1].all())
    out["g-pattern"] = pattern_violation is None or pattern_violation[0] != "g"
    out["h-pattern"] = pattern_violation is None or pattern_violation[0] != "h"
    return out


def fraction_decompose_trace_constructive(q, gma):
    """decompose_trace_constructive on ring values; the entry predicate is
    left to the caller."""
    ring, C, report = gma.ring, gma.center, gma.report
    grid = extract_components(q, gma, centralizing=True)
    tensors = fraction_components(q, gma)
    w = fraction_extract_constructive_witness(gma, tensors, report)
    dA, dM, dN, dB = gma.dims
    d = gma.dim
    z_vec = gma.embed_diag(w.epsilon, w.epsilon_prime)
    z_coords = fraction_center_rows(C, z_vec)[0].copy()
    a_vals = ring.zeros((d, dA))
    a_vals[gma.block_slice(1)] = w.alpha.T
    a_vals[gma.block_slice(2)] = w.tau.T
    a_vals[gma.block_slice(3)] = w.gamma.T
    b_vals = ring.zeros((d, dB))
    b_vals[gma.block_slice(0)] = w.gamma_prime.T
    back, back_ok = fraction_corner_rows(C, C.pib_image, C.phi_inv, b_vals)
    fwd, fwd_ok = fraction_corner_rows(C, C.pia_image, C.phi, a_vals)
    mu_rows, central = fraction_center_rows(
        C, fraction_diag_rows(gma, ring.normalize(back + a_vals), ring.normalize(b_vals + fwd))
    )
    failure = decompose._first_failed_check(
        (
            ("mu-assembly", "witness value outside the projected center", ~(back_ok & fwd_ok)),
            ("mu-assembly", "mu value not central", ~central),
        )
    )
    if failure is not None:
        raise WitnessExtractionError(*failure, report)
    mu_mat = ring.zeros((C.zdim, d))
    mu_mat[...] = mu_rows.T
    mul = gma.mul
    sym = pair_coefficients(ring, mul)
    z_sym = ring.tensordot(sym, ring.tensordot(z_vec, mul, axes=([0], [0])), axes=([1], [0]))
    mu_e = ring.tensordot(ring.tensordot(mu_mat, C.z_g, axes=([0], [0])), mul, axes=([1], [0]))
    resid = ring.normalize(
        pair_coefficients(ring, q.tensor) - z_sym - pair_coefficients(ring, mu_e)
    )
    nu_rows, central = fraction_center_rows(C, resid)
    shape_report = fraction_witness_shape_report(gma, tensors, grid.pattern_violation, w)
    if not central.all():
        n = int(np.argmax(~central))
        violation = {
            "stage": "nu-centrality",
            "pair": pair_index_order(d)[n],
            "residual": resid[n].tolist(),
            "q": q.tensor.tolist(),
        }
        return ConstructiveDecomposition(
            "violation-candidate", None, w, shape_report, violation, report.route, report
        )
    form = ProperTraceForm(z_coords, mu_mat, symmetric_from_pairs(ring, d, nu_rows))
    assert form.matches(gma, q)
    return ConstructiveDecomposition("ok", form, w, shape_report, None, report.route, report)


def build_scalar_gap_a(ring):
    """A = R^2 componentwise, B = R, M = R^2, N = 0: the center of A is all
    of A, its part in the projected center only the scalars, so phi can
    fail on A-corner values that are central in A."""
    A = AlgebraSpec(ring, 2, ring.array([[[1, 0], [0, 0]], [[0, 0], [0, 1]]]), ring.array([1, 1]))
    B = AlgebraSpec(ring, 1, ring.array([[[1]]]), ring.array([1]))
    M = BimoduleSpec(ring, 2, A.mul.copy(), ring.array([[[1, 0]], [[0, 1]]]))
    N = BimoduleSpec(ring, 0, ring.zeros((1, 0, 0)), ring.zeros((0, 2, 0)))
    return MoritaContext(A, B, M, N, ring.zeros((2, 0, 2)), ring.zeros((0, 2, 1)))


def build_scalar_gap_b(ring):
    """A = R, B = T2 x R (E11, E12, E22, f), M = R^3 (row vectors of T2,
    then R), N = 0: B is noncommutative and its center, scalars plus f, is
    wider than the projected center, so phi^-1 can fail on B-corner values
    that are central in B."""
    A = AlgebraSpec(ring, 1, ring.array([[[1]]]), ring.array([1]))
    mul = ring.zeros((4, 4, 4))
    for i, j, r in [(0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2), (3, 3, 3)]:
        mul[i, j, r] = ring.one
    B = AlgebraSpec(ring, 4, mul, ring.array([1, 0, 1, 1]))
    right = ring.zeros((3, 4, 3))
    for m, b, r in [(0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 3, 2)]:
        right[m, b, r] = ring.one
    M = BimoduleSpec(ring, 3, ring.eye(3)[None], right)
    N = BimoduleSpec(ring, 0, ring.zeros((4, 0, 0)), ring.zeros((0, 1, 0)))
    return MoritaContext(A, B, M, N, ring.zeros((3, 0, 1)), ring.zeros((0, 3, 4)))


CHAIN_INSTANCES = {
    "m4-f5": INSTANCES["m4-f5"],
    "t3-f5": INSTANCES["t3-f5"],
    "diagonal-f5": INSTANCES["diagonal-f5"],
    "m3-q": INSTANCES["m3-q"],
    "m3-p1048573": INSTANCES["m3-p1048573"],
    "scalar-gap-a-f5": lambda: build_scalar_gap_a(F5),
    "scalar-gap-b-f5": lambda: build_scalar_gap_b(F5),
    **Q_LANE,
}


def run_chain(route, q, gma):
    try:
        return route(q, gma)
    except (WitnessExtractionError, ComponentPatternError) as e:
        return e


def assert_same_chain_result(got, want):
    """Same outcome: witness fields, side, shape laws, form and violation,
    or the same error."""
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want)
        assert getattr(got, "stage", None) == getattr(want, "stage", None)
        return
    assert (got.status, got.route, got.report) == (want.status, want.route, want.report)
    for field in ConstructiveWitness.__dataclass_fields__:
        g, w = getattr(got.witness, field), getattr(want.witness, field)
        if field == "side":
            assert g == w
        else:
            assert_identical(g, w)
    assert list(got.shape_report.items()) == list(want.shape_report.items())
    assert all(type(v) is bool for v in got.shape_report.values())
    assert got.violation == want.violation
    if want.violation is not None:
        assert [type(v) for v in got.violation["residual"]] == [
            type(v) for v in want.violation["residual"]
        ]
        assert type(got.violation["pair"][0]) is int
    if want.form is None:
        assert got.form is None
    else:
        for part in ("z", "mu", "nu"):
            assert_identical(getattr(got.form, part), getattr(want.form, part))
    # object sharing included: the results pickle to the same bytes
    assert pickle.dumps(got) == pickle.dumps(want)


@pytest.fixture(scope="module", params=sorted(CHAIN_INSTANCES))
def chain_instance(request):
    g = assemble_gma(CHAIN_INSTANCES[request.param]())
    g.report
    return request.param, g


def outcome(result):
    """The stage of an error, else the status."""
    if isinstance(result, ComponentPatternError):
        return "pattern"
    return getattr(result, "stage", None) or result.status


# what the centralizing inputs below come to, per instance
CENTRALIZING_OUTCOMES = {
    **{name: {"ok"} for name in Q_LANE},
    "diagonal-f5": {"ok", "violation-candidate"},
    "m3-p1048573": {"ok"},
    "m4-f5": {"ok"},
    "scalar-gap-a-f5": {"ok", "gamma-prime", "kappa", "mu-assembly"},
    "scalar-gap-b-f5": {"ok", "alpha", "delta", "mu-assembly", "theta"},
    "t3-f5": {"ok"},
}


def centralizing_traces(gma):
    """The multiplication itself and proper traces, then, on the F5
    contexts up to dim 12 (the rest would make Tier-1 slow), the basis of
    the centralizing trace space."""
    ring = gma.ring
    qs = [BilinearMapRep(ring, gma.mul)]
    qs += [random_proper_trace(gma, seed) for seed in ((1, 2) if ring.p == 5 else (1,))]
    basis = trace_space(gma, "centralizing").basis if ring.p == 5 and gma.dim <= 12 else []
    return qs, basis


def test_constructive_chain_matches_loops(chain_instance):
    name, gma = chain_instance
    qs, basis = centralizing_traces(gma)
    results = []
    for q in qs + basis:
        got = run_chain(decompose_trace_constructive, q, gma)
        assert_same_chain_result(got, run_chain(slow_decompose_trace_constructive, q, gma))
        assert_same_chain_result(got, run_chain(fraction_decompose_trace_constructive, q, gma))
        results.append(got)
    assert {outcome(r) for r in results} == CENTRALIZING_OUTCOMES[name]
    if name == "diagonal-f5":
        # the fallback side: of the 88 basis traces four are violation
        # candidates, and the g24 and h34 laws fail on some
        on_basis = results[len(qs) :]
        assert len(on_basis) == 88
        assert {dec.witness.side for dec in on_basis} == {"fallback"}
        assert sum(dec.status == "violation-candidate" for dec in on_basis) == 4
        for law in ("g24-shape", "h34-shape"):
            assert not all(dec.shape_report[law] for dec in on_basis)


def chain_perturbations(gma):
    """A proper trace changed symmetrically at (i, j, r): j at the start and
    one past the start of each block, r at the start of each block, i at 0,
    at 1 and at j.  Then changed at (0, j, r) and (0, j + 1, r') with r != r',
    so that neighbouring basis vectors can fail different checks."""
    ring, d = gma.ring, gma.dim
    base = random_proper_trace(gma, 7).tensor
    starts = sorted({o + k for o in gma.offsets for k in (0, 1) if o + k < d})
    rs = sorted(set(gma.offsets) - {d})

    def changed(*at):
        t = base.copy()
        for i, j, r in at:
            t[i, j, r] = t[i, j, r] + ring.one
            t[j, i, r] = t[i, j, r]
        return BilinearMapRep(ring, t)

    for j in starts:
        for r in rs:
            for i in sorted({0, 1, j} & set(range(j + 1))):
                yield changed((i, j, r))
    for j in starts:
        if j + 1 in starts:
            for r, r1 in itertools.permutations(rs, 2):
                yield changed((0, j, r), (0, j + 1, r1))


# what the perturbed inputs come to, per instance; "pattern" is a grid whose
# forced vanishing pattern fails, checked on the chain without it below
PERTURBED_OUTCOMES = {
    "diagonal-f5": {"epsilon-pair", "pattern", "violation-candidate"},
    "m3-p1048573": {
        "alpha", "epsilon-pair", "gamma-prime-solve", "pattern", "tau", "theta",
        "violation-candidate",
    },
    **{
        name: {
            "alpha", "epsilon-pair", "gamma-prime-solve", "pattern", "tau", "theta",
            "violation-candidate",
        }
        for name in ("m3-q", *M3_Q_BASES)
    },
    "t3-q": {
        "alpha", "epsilon-pair", "gamma-prime-solve", "pattern", "theta", "violation-candidate",
    },
    "inflated-half-q": {"epsilon-pair", "pattern", "violation-candidate"},
    "m4-f5": {
        "alpha", "alpha-centrality", "epsilon-pair", "eta-centrality",
        "gamma-prime-centrality", "gamma-solve", "k14-shape", "kappa", "pattern", "tau",
        "tau-centrality", "theta", "violation-candidate",
    },
    "scalar-gap-a-f5": {"gamma-prime", "kappa", "pattern"},
    "scalar-gap-b-f5": {"alpha", "delta", "gamma-prime-solve", "pattern", "theta"},
    "t3-f5": {
        "alpha", "epsilon-pair", "gamma-prime-solve", "pattern", "theta", "violation-candidate",
    },
}


def test_constructive_chain_matches_loops_off_the_predicate(chain_instance, monkeypatch):
    """Non-centralizing grids, let past the entry predicate, reach the raised
    stages; the first failure in loop order decides which one."""
    name, gma = chain_instance
    monkeypatch.setattr(decompose, "is_centralizing_trace", lambda gma, q: (True, None))
    outcomes = set()
    for q in chain_perturbations(gma):
        got = run_chain(decompose_trace_constructive, q, gma)
        assert_same_chain_result(got, run_chain(slow_decompose_trace_constructive, q, gma))
        assert_same_chain_result(got, run_chain(fraction_decompose_trace_constructive, q, gma))
        outcomes.add(outcome(got))
        if isinstance(got, ComponentPatternError):
            grid = extract_components(q, gma, centralizing=False)
            tensors = fraction_components(q, gma)
            fast = run_chain(lambda q, g: extract_constructive_witness(q, g, grid=grid), q, gma)
            for oracle in (
                lambda q, g: slow_extract_constructive_witness(g, grid, g.report),
                lambda q, g: fraction_extract_constructive_witness(g, tensors, g.report),
            ):
                slow = run_chain(oracle, q, gma)
                assert type(fast) is type(slow)
                if isinstance(slow, Exception):
                    assert (fast.stage, str(fast)) == (slow.stage, str(slow))
                    continue
                assert pickle.dumps(fast) == pickle.dumps(slow)
            if isinstance(fast, Exception):
                continue
            laws = list(witness_shape_report(grid, fast).items())
            assert laws == list(slow_witness_shape_report(grid, fast).items())
            want = fraction_witness_shape_report(gma, tensors, grid.pattern_violation, fast)
            assert laws == list(want.items())
    assert outcomes == PERTURBED_OUTCOMES[name]


def test_chain_instances_reach_every_raised_stage():
    """f14-shape, gamma-centrality and a non-central mu cannot fail once the
    steps before them passed, so no input reaches them."""
    reached = set().union(*CENTRALIZING_OUTCOMES.values(), *PERTURBED_OUTCOMES.values())
    assert reached - {"ok", "violation-candidate", "pattern"} == {
        "kappa", "theta", "alpha", "alpha-centrality", "tau", "tau-centrality",
        "gamma-solve", "gamma-prime", "gamma-prime-centrality", "gamma-prime-solve",
        "delta", "k14-shape", "epsilon-pair", "eta-centrality", "mu-assembly",
    }


# ---------------------------------------------------------------------------
# the corner isomorphism: one solve per projected center row
# ---------------------------------------------------------------------------


def slow_rref_rows(ring, rows):
    if rows.shape[0] == 0:
        return rows
    red, _, rank = rref_array(ring, rows)
    return red[:rank].copy()


def slow_solve_partner(gma, alpha, forward):
    """forward: alpha in A, find b with a*m = m*b, n*a = b*n; else alpha in
    B, find a."""
    ring, ctx = gma.ring, gma.ctx
    dA, dM, dN, dB = gma.dims
    sub_rows = []
    rhs_parts = []
    if forward:
        if dM:
            # m_j * b = alpha * m_j
            sub_rows.append(np.transpose(ctx.M.right, (0, 2, 1)).reshape(dM * dM, dB))
            rhs_parts.append(ring.tensordot(alpha, ctx.M.left, axes=([0], [0])).reshape(dM * dM))
        if dN:
            # b * n_j = n_j * alpha
            sub_rows.append(np.transpose(ctx.N.left, (1, 2, 0)).reshape(dN * dN, dB))
            rhs_parts.append(ring.tensordot(alpha, ctx.N.right, axes=([0], [1])).reshape(dN * dN))
        width = dB
    else:
        if dM:
            # a * m_j = m_j * alpha
            sub_rows.append(np.transpose(ctx.M.left, (1, 2, 0)).reshape(dM * dM, dA))
            rhs_parts.append(ring.tensordot(alpha, ctx.M.right, axes=([0], [1])).reshape(dM * dM))
        if dN:
            # n_j * a = alpha * n_j
            sub_rows.append(np.transpose(ctx.N.right, (0, 2, 1)).reshape(dN * dN, dA))
            rhs_parts.append(ring.tensordot(alpha, ctx.N.left, axes=([0], [0])).reshape(dN * dN))
        width = dA
    mat = ring.zeros((sum(r.shape[0] for r in sub_rows), width))
    vec = ring.zeros(mat.shape[0])
    at = 0
    for coeff, rhs in zip(sub_rows, rhs_parts):
        mat[at : at + coeff.shape[0]] = ring.normalize(coeff)
        vec[at : at + coeff.shape[0]] = ring.normalize(rhs)
        at += coeff.shape[0]
    return solve_array(ring, mat, vec)


def slow_corner_isomorphisms(gma):
    """(pia_image, pib_image, phi, phi_inv): each projection reduced on its
    own, and the partner of each of its rows solved for."""
    ring, z_g = gma.ring, gma.center.z_g
    dA, dB = gma.ctx.A.dim, gma.ctx.B.dim
    pia = slow_rref_rows(ring, z_g[:, gma.block_slice(0)].copy())
    pib = slow_rref_rows(ring, z_g[:, gma.block_slice(3)].copy())
    phi = ring.zeros((dB, pia.shape[0]))
    for idx, alpha in enumerate(pia):
        b = slow_solve_partner(gma, alpha, True)
        assert b is not None
        phi[:, idx] = b
    phi_inv = ring.zeros((dA, pib.shape[0]))
    for idx, beta in enumerate(pib):
        a = slow_solve_partner(gma, beta, False)
        assert a is not None
        phi_inv[:, idx] = a
    return pia, pib, phi, phi_inv


def peirce_context(ring, n, idempotent):
    ctx, _ = build_peirce(make_matrix_algebra(n, ring), ring.array(idempotent))
    return ctx


CORNER_ISO_INSTANCES = {
    **INSTANCES,
    **CHAIN_INSTANCES,
    "t3-q": lambda: build_upper_triangular(3, 1, RATIONAL),
    "diagonal-k3-f5": lambda: build_diagonal_pair(F5, 3),
    # e = E11 + E12 and e = E11 + E13: corners off the matrix-unit basis
    "peirce-m2-f5": lambda: peirce_context(F5, 2, [1, 1, 0, 0]),
    "peirce-m2-q": lambda: peirce_context(RATIONAL, 2, [1, 1, 0, 0]),
    "peirce-m3-f5": lambda: peirce_context(F5, 3, [1, 0, 1, 0, 0, 0, 0, 0, 0]),
    "peirce-m3-q": lambda: peirce_context(RATIONAL, 3, [1, 0, 1, 0, 0, 0, 0, 0, 0]),
}


@pytest.mark.parametrize("name", sorted(CORNER_ISO_INSTANCES))
def test_corner_isomorphism_matches_partner_solves(name):
    gma = assemble_gma(CORNER_ISO_INSTANCES[name]())
    C = gma.center
    want = slow_corner_isomorphisms(gma)
    for got, ref in zip((C.pia_image, C.pib_image, C.phi, C.phi_inv), want):
        assert_identical(got, ref)


# ---------------------------------------------------------------------------
# the center: the intertwining route
# ---------------------------------------------------------------------------


def slow_intertwining_center(gma):
    """Z(G) from the intertwining system over pairs (a | b): a*m_j = m_j*b
    and n_j*a = b*n_j, embedded as a + b and reduced.  This is the center
    when M is faithful on both sides, as it is on every context whose
    center exists (phi needs it)."""
    ring, ctx = gma.ring, gma.ctx
    dA, dM, dN, dB = gma.dims
    ma = np.transpose(ctx.M.left, (1, 2, 0)).reshape(dM * dM, dA)
    mb = np.transpose(ctx.M.right, (0, 2, 1)).reshape(dM * dM, dB)
    na = np.transpose(ctx.N.right, (0, 2, 1)).reshape(dN * dN, dA)
    nb = np.transpose(ctx.N.left, (1, 2, 0)).reshape(dN * dN, dB)
    pairs = nullspace_array(ring, ring.normalize(np.block([[ma, -mb], [na, -nb]])))
    z = ring.zeros((pairs.shape[0], gma.dim))
    z[:, gma.block_slice(0)] = pairs[:, :dA]
    z[:, gma.block_slice(3)] = pairs[:, dA:]
    return slow_rref_rows(ring, z)


INTERTWINING_INSTANCES = {
    **INSTANCES,
    **Q_LANE,
    "scalar-gap-a-f5": lambda: build_scalar_gap_a(F5),
    "scalar-gap-b-f5": lambda: build_scalar_gap_b(F5),
}


@pytest.mark.parametrize("name", sorted(INTERTWINING_INSTANCES))
def test_center_is_the_intertwining_space(name):
    """The commutant Z(G) is, bit for bit, the canonical basis of the
    intertwining pairs, and every row is raw-central."""
    gma = assemble_gma(INTERTWINING_INSTANCES[name]())
    z_g = gma.center.z_g
    assert_identical(z_g, slow_intertwining_center(gma))
    assert gma.ring.is_zero(gma.ring.tensordot(z_g, commutator_from_mul(gma), axes=([1], [0])))


# ---------------------------------------------------------------------------
# the matrix-unit builders: one loop per tensor
# ---------------------------------------------------------------------------


def slow_make_matrix_algebra(n, ring):
    d = n * n
    idx = {(r, c): r * n + c for r in range(n) for c in range(n)}
    mul = ring.zeros((d, d, d))
    one = ring.one
    for (r, c), i in idx.items():
        for (s, t), j in idx.items():
            if c == s:
                mul[i, j, idx[(r, t)]] = one
    unit = ring.zeros(d)
    for r in range(n):
        unit[idx[(r, r)]] = one
    labels = tuple(f"E{r + 1}{c + 1}" for r in range(n) for c in range(n))
    return AlgebraSpec(ring, d, mul, unit, labels)


def slow_make_triangular_algebra(n, ring):
    pairs = [(r, c) for r in range(n) for c in range(r, n)]
    idx = {rc: i for i, rc in enumerate(pairs)}
    d = len(pairs)
    mul = ring.zeros((d, d, d))
    one = ring.one
    for (r, c), i in idx.items():
        for (s, t), j in idx.items():
            if c == s:
                mul[i, j, idx[(r, t)]] = one
    unit = ring.zeros(d)
    for r in range(n):
        unit[idx[(r, r)]] = one
    labels = tuple(f"E{r + 1}{c + 1}" for (r, c) in pairs)
    return AlgebraSpec(ring, d, mul, unit, labels)


def slow_build_full_matrix(n, k, ring):
    A = slow_make_matrix_algebra(k, ring)
    B = slow_make_matrix_algebra(n - k, ring)
    km, kn = k, n - k
    one = ring.one

    def rect_index(rows, cols):
        return {(r, c): r * cols + c for r in range(rows) for c in range(cols)}

    mi = rect_index(km, kn)  # M: k x (n-k)
    ni = rect_index(kn, km)  # N: (n-k) x k
    ai = rect_index(km, km)
    bi = rect_index(kn, kn)

    left_m = ring.zeros((A.dim, len(mi), len(mi)))
    for (r, c), a in ai.items():
        for (s, t), m in mi.items():
            if c == s:
                left_m[a, m, mi[(r, t)]] = one
    right_m = ring.zeros((len(mi), B.dim, len(mi)))
    for (r, c), m in mi.items():
        for (s, t), b in bi.items():
            if c == s:
                right_m[m, b, mi[(r, t)]] = one
    left_n = ring.zeros((B.dim, len(ni), len(ni)))
    for (r, c), b in bi.items():
        for (s, t), nn in ni.items():
            if c == s:
                left_n[b, nn, ni[(r, t)]] = one
    right_n = ring.zeros((len(ni), A.dim, len(ni)))
    for (r, c), nn in ni.items():
        for (s, t), a in ai.items():
            if c == s:
                right_n[nn, a, ni[(r, t)]] = one
    pair_mn = ring.zeros((len(mi), len(ni), A.dim))
    for (r, c), m in mi.items():
        for (s, t), nn in ni.items():
            if c == s:
                pair_mn[m, nn, ai[(r, t)]] = one
    pair_nm = ring.zeros((len(ni), len(mi), B.dim))
    for (r, c), nn in ni.items():
        for (s, t), m in mi.items():
            if c == s:
                pair_nm[nn, m, bi[(r, t)]] = one

    M = BimoduleSpec(ring, len(mi), left_m, right_m)
    N = BimoduleSpec(ring, len(ni), left_n, right_n)
    meta = {"builder": "full_matrix", "n": n, "k": k, "prime_certified": True}
    return MoritaContext(A, B, M, N, pair_mn, pair_nm, meta)


def slow_build_upper_triangular(n, k, ring):
    A = slow_make_triangular_algebra(k, ring)
    B = slow_make_triangular_algebra(n - k, ring)
    km, kn = k, n - k
    one = ring.one
    mi = {(r, c): r * kn + c for r in range(km) for c in range(kn)}
    a_pairs = [(r, c) for r in range(km) for c in range(r, km)]
    b_pairs = [(r, c) for r in range(kn) for c in range(r, kn)]
    ai = {rc: i for i, rc in enumerate(a_pairs)}
    bi = {rc: i for i, rc in enumerate(b_pairs)}

    left_m = ring.zeros((A.dim, len(mi), len(mi)))
    for (r, c), a in ai.items():
        for (s, t), m in mi.items():
            if c == s:
                left_m[a, m, mi[(r, t)]] = one
    right_m = ring.zeros((len(mi), B.dim, len(mi)))
    for (r, c), m in mi.items():
        for (s, t), b in bi.items():
            if c == s:
                right_m[m, b, mi[(r, t)]] = one
    M = BimoduleSpec(ring, len(mi), left_m, right_m)
    N = BimoduleSpec(ring, 0, ring.zeros((B.dim, 0, 0)), ring.zeros((0, A.dim, 0)))
    pair_mn = ring.zeros((len(mi), 0, A.dim))
    pair_nm = ring.zeros((0, len(mi), B.dim))
    meta = {"builder": "upper_triangular", "n": n, "k": k}
    return MoritaContext(A, B, M, N, pair_mn, pair_nm, meta)


def slow_full_matrix_positions(n, k):
    pos = []
    pos += [(r, c) for r in range(k) for c in range(k)]
    pos += [(r, k + c) for r in range(k) for c in range(n - k)]
    pos += [(k + r, c) for r in range(n - k) for c in range(k)]
    pos += [(k + r, k + c) for r in range(n - k) for c in range(n - k)]
    return pos


def assert_same_tensor(got, want):
    assert_identical(got, want)
    assert got.flags.writeable == want.flags.writeable


def assert_same_algebra(got, want):
    assert (got.dim, got.labels) == (want.dim, want.labels)
    assert_same_tensor(got.mul, want.mul)
    assert_same_tensor(got.unit, want.unit)


def assert_same_context(got, want):
    assert context_to_json(got) == context_to_json(want)
    assert list(got.meta.items()) == list(want.meta.items())
    assert_same_algebra(got.A, want.A)
    assert_same_algebra(got.B, want.B)
    for mod in ("M", "N"):
        g, w = getattr(got, mod), getattr(want, mod)
        assert g.dim == w.dim
        assert_same_tensor(g.left, w.left)
        assert_same_tensor(g.right, w.right)
    assert_same_tensor(got.pairing_MN, want.pairing_MN)
    assert_same_tensor(got.pairing_NM, want.pairing_NM)


BUILDER_RINGS = {"f5": F5, "q": RATIONAL, "p1048573": BIG_P}


@pytest.mark.parametrize("ring", list(BUILDER_RINGS.values()), ids=list(BUILDER_RINGS))
def test_matrix_unit_algebras_match_loops(ring):
    for n in range(1, 6):
        assert_same_algebra(make_matrix_algebra(n, ring), slow_make_matrix_algebra(n, ring))
        assert_same_algebra(
            make_triangular_algebra(n, ring), slow_make_triangular_algebra(n, ring)
        )


@pytest.mark.parametrize("ring", list(BUILDER_RINGS.values()), ids=list(BUILDER_RINGS))
def test_matrix_unit_contexts_match_loops(ring):
    for n in range(2, 6):
        for k in range(1, n):
            assert_same_context(build_full_matrix(n, k, ring), slow_build_full_matrix(n, k, ring))
            assert_same_context(
                build_upper_triangular(n, k, ring), slow_build_upper_triangular(n, k, ring)
            )
            assert full_matrix_positions(n, k) == slow_full_matrix_positions(n, k)


# ---------------------------------------------------------------------------
# the Morita axioms
# ---------------------------------------------------------------------------


def _first_mismatch(ring, lhs, rhs):
    diff = ring.normalize(lhs - rhs)
    bad = np.argwhere(diff != ring.zero)
    if bad.size == 0:
        return None
    return tuple(int(v) for v in bad[0])


def slow_morita_witnesses(ctx):
    """{identity: first mismatching basis tuple or None} in report order,
    every bimodule / pairing / associativity-diagram identity as its own
    contraction with its own transpose; identities on a zero module are
    left out."""
    ring = ctx.ring
    A, B, M, N = ctx.A, ctx.B, ctx.M, ctx.N
    td = ring.tensordot

    checks = []

    def add(name, lhs, rhs):
        checks.append((name, lhs, rhs))

    for alg, tag in ((A, "A"), (B, "B")):
        lhs = td(alg.mul, alg.mul, axes=([2], [0]))
        rhs = np.transpose(td(alg.mul, alg.mul, axes=([2], [1])), (2, 0, 1, 3))
        add(f"{tag}.associativity", lhs, ring.normalize(rhs))
        add(f"{tag}.left-unit", td(alg.unit, alg.mul, axes=([0], [0])), ring.eye(alg.dim))
        add(f"{tag}.right-unit", td(alg.unit, alg.mul, axes=([0], [1])), ring.eye(alg.dim))

    def module_checks(mod, left_alg, right_alg, tag):
        if mod.dim == 0:
            return
        # (aa')m = a(a'm):  [a, a', m, r]
        lhs = td(left_alg.mul, mod.left, axes=([2], [0]))
        rhs = np.transpose(td(mod.left, mod.left, axes=([2], [1])), (2, 0, 1, 3))
        add(f"{tag}.left-associative", lhs, ring.normalize(rhs))
        # 1m = m
        add(f"{tag}.left-unit", td(left_alg.unit, mod.left, axes=([0], [0])), ring.eye(mod.dim))
        # m(bb') = (mb)b':  [m, b, b', r]
        lhs = np.transpose(td(right_alg.mul, mod.right, axes=([2], [1])), (2, 0, 1, 3))
        rhs = td(mod.right, mod.right, axes=([2], [0]))
        add(f"{tag}.right-associative", ring.normalize(lhs), rhs)
        # m1 = m
        add(f"{tag}.right-unit", td(right_alg.unit, mod.right, axes=([0], [1])), ring.eye(mod.dim))
        # (am)b = a(mb):  [a, m, b, r]
        lhs = td(mod.left, mod.right, axes=([2], [0]))
        rhs = np.transpose(td(mod.right, mod.left, axes=([2], [1])), (2, 0, 1, 3))
        add(f"{tag}.actions-commute", lhs, ring.normalize(rhs))

    module_checks(M, A, B, "M")
    module_checks(N, B, A, "N")

    if M.dim and N.dim:
        # pairing_MN is an (A, A)-bimodule map, B-balanced
        # (am, n) = a(m, n):  [a, m, n, r]
        lhs = td(M.left, ctx.pairing_MN, axes=([2], [0]))
        rhs = np.transpose(td(ctx.pairing_MN, A.mul, axes=([2], [1])), (2, 0, 1, 3))
        add("pairing_MN.left-A-linear", lhs, ring.normalize(rhs))
        # (m, na) = (m, n)a:  [m, n, a, r]
        lhs = np.transpose(td(N.right, ctx.pairing_MN, axes=([2], [1])), (2, 0, 1, 3))
        rhs = td(ctx.pairing_MN, A.mul, axes=([2], [0]))
        add("pairing_MN.right-A-linear", ring.normalize(lhs), rhs)
        # (mb, n) = (m, bn):  [m, b, n, r]
        lhs = td(M.right, ctx.pairing_MN, axes=([2], [0]))
        rhs = np.transpose(td(N.left, ctx.pairing_MN, axes=([2], [1])), (2, 0, 1, 3))
        add("pairing_MN.B-balanced", ring.normalize(lhs), ring.normalize(rhs))
        # pairing_NM is a (B, B)-bimodule map, A-balanced
        lhs = td(N.left, ctx.pairing_NM, axes=([2], [0]))
        rhs = np.transpose(td(ctx.pairing_NM, B.mul, axes=([2], [1])), (2, 0, 1, 3))
        add("pairing_NM.left-B-linear", lhs, ring.normalize(rhs))
        lhs = np.transpose(td(M.right, ctx.pairing_NM, axes=([2], [1])), (2, 0, 1, 3))
        rhs = td(ctx.pairing_NM, B.mul, axes=([2], [0]))
        add("pairing_NM.right-B-linear", ring.normalize(lhs), rhs)
        lhs = td(N.right, ctx.pairing_NM, axes=([2], [0]))
        rhs = np.transpose(td(M.left, ctx.pairing_NM, axes=([2], [1])), (2, 0, 1, 3))
        add("pairing_NM.A-balanced", lhs, ring.normalize(rhs))
        # associativity diagrams: (m,n)m' = m(n,m')  and  (n,m)n' = n(m,n')
        lhs = td(ctx.pairing_MN, M.left, axes=([2], [0]))  # [m, n, m', r]
        rhs = np.transpose(td(ctx.pairing_NM, M.right, axes=([2], [1])), (2, 0, 1, 3))
        add("diagram.MN-M", lhs, ring.normalize(rhs))
        lhs = td(ctx.pairing_NM, N.left, axes=([2], [0]))  # [n, m, n', r]
        rhs = np.transpose(td(ctx.pairing_MN, N.right, axes=([2], [1])), (2, 0, 1, 3))
        add("diagram.NM-N", lhs, ring.normalize(rhs))

    return {name: _first_mismatch(ring, lhs, rhs) for name, lhs, rhs in checks}


def slow_check_morita_axioms(ctx):
    if ctx.M.dim == 0 and ctx.N.dim == 0:
        return MoritaReport(False, "context.degenerate-both-modules-zero")
    for name, w in slow_morita_witnesses(ctx).items():
        if w is not None:
            return MoritaReport(False, name, w)
    return MoritaReport(True)


MORITA_INSTANCES = {
    "m3-f5": lambda: build_full_matrix(3, 1, F5),
    "m4-f5": lambda: build_full_matrix(4, 2, F5),
    "t4-f5": lambda: build_upper_triangular(4, 2, F5),
    "m3-q": lambda: build_full_matrix(3, 1, RATIONAL),
    "t3-q": lambda: build_upper_triangular(3, 1, RATIONAL),
    "diagonal-f5": lambda: build_diagonal_pair(F5),
    "inflated-f5": lambda: build_inflated(F5, 2, F5.zeros((2, 2))),
    "inflated-half-q": lambda: build_inflated(RATIONAL, 1, [[Fraction(1, 2)]]),
    "inflated-halves-q": lambda: build_inflated(
        RATIONAL, 2, [[Fraction(1, 2), Fraction(-1, 2)], [Fraction(-1, 2), Fraction(1, 2)]]
    ),
}

CONTEXT_TENSORS = (
    ("A", "mul"),
    ("A", "unit"),
    ("B", "mul"),
    ("B", "unit"),
    ("M", "left"),
    ("M", "right"),
    ("N", "left"),
    ("N", "right"),
    (None, "pairing_MN"),
    (None, "pairing_NM"),
)


def mutated_context(ctx, stream):
    """ctx with 1-3 seeded cells of one of its structure tensors shifted."""
    ring = ctx.ring
    parts = {
        (owner, name): (getattr(ctx, owner) if owner else ctx).__dict__[name].copy()
        for owner, name in CONTEXT_TENSORS
    }
    nonempty = [key for key, t in parts.items() if t.size]
    t = parts[nonempty[stream.below(len(nonempty))]]
    for _ in range(1 + stream.below(3)):
        cell = tuple(stream.below(n) for n in t.shape)
        if ring.is_prime_field:
            shift = 1 + stream.below(ring.p - 1)
        else:
            shift = Fraction(1 + stream.below(3), 1 + stream.below(2)) * (
                1 if stream.below(2) else -1
            )
        t[cell] = t[cell] + ring.coerce(shift)
    alg = {
        x: AlgebraSpec(ring, getattr(ctx, x).dim, parts[x, "mul"], parts[x, "unit"])
        for x in "AB"
    }
    mod = {
        x: BimoduleSpec(ring, getattr(ctx, x).dim, parts[x, "left"], parts[x, "right"])
        for x in "MN"
    }
    return MoritaContext(
        alg["A"],
        alg["B"],
        mod["M"],
        mod["N"],
        parts[None, "pairing_MN"],
        parts[None, "pairing_NM"],
        dict(ctx.meta),
    )


@pytest.mark.parametrize("name", sorted(MORITA_INSTANCES))
def test_block_laws_match_hand_written_axioms_under_mutation(name):
    base = MORITA_INSTANCES[name]()
    stream = XorShift64Star(sum(map(ord, name)))
    for ctx in [base] + [mutated_context(base, stream) for _ in range(40)]:
        # every law, not only the first that fails, has the oracle's witness
        slow = slow_morita_witnesses(ctx)
        prods = _block_products(ctx)
        for name, law in _MORITA_LAWS:
            got = _first_nonzero(ctx.ring, _law_defect(ctx, prods, law))
            assert got == slow.get(name)
        want = slow_check_morita_axioms(ctx)
        assert str(check_morita_axioms(ctx)) == str(want)
        if not want.ok:
            with pytest.raises(AxiomError) as err:
                assemble_gma(ctx)
            assert type(err.value) is AxiomError
            assert str(err.value) == str(AxiomError(want.failure, want.indices))
            continue
        g = assemble_gma(ctx)
        assert g._assoc_witness() is None and g._unit_witness() is None


# ---------------------------------------------------------------------------
# the elimination kernel
# ---------------------------------------------------------------------------


def assert_same_rref(got, want):
    assert_identical(got[0], want[0])
    assert_identical(got[1], want[1])
    assert got[2] == want[2]


def augmented_generic_system(name):
    """The generic system of an instance with the pair values of a proper
    trace appended, as one solve of the generic route reduces it."""
    g = assemble_gma(INSTANCES[name]())
    K = g.generic_system.matrix
    rhs = pair_coefficients(g.ring, random_proper_trace(g, seed=3).tensor).reshape(K.shape[0])
    return np.concatenate([K, rhs[:, None]], axis=1)


def factor_reductions(name):
    """The two matrices the kernel reduces to factor the generic system of
    an instance: the transpose of its distinct nonzero rows, then its
    independent rows S beside an identity."""
    g = assemble_gma(INSTANCES[name]())
    K = g.generic_system.matrix
    return kernel_inputs(lambda: FactoredMatrix(g.ring, K))


def kernel_inputs(run):
    """Copies of the matrices the kernel reduces while run() runs."""
    seen = []
    rref = backend.rref
    backend.rref = lambda ring, a: seen.append(a.copy()) or rref(ring, a)
    try:
        run()
    finally:
        backend.rref = rref
    return seen


def largest_trace_space_block(ctx, mode):
    """The first of the largest blocks that trace_space reduces, the
    center of the algebra built beforehand."""
    g = assemble_gma(ctx)
    g.center
    return max(kernel_inputs(lambda: trace_space(g, mode)), key=lambda a: a.size)


def m3_f5_trace_space_matrix(mode):
    g = assemble_gma(build_full_matrix(3, 1, F5))
    return dense_constraint_matrix(F5, 3, _unlift(F5, *_bracket_action(g, mode == "centralizing")))


# name: (build, shape, rank)
WORKLOAD_SHAPES = {
    "m3-f5-centralizing": (lambda: m3_f5_trace_space_matrix("centralizing"), (1320, 405), 350),
    "m3-f5-commuting": (lambda: m3_f5_trace_space_matrix("commuting"), (1485, 405), 350),
    "m4-f5-generic": (lambda: augmented_generic_system("m4-f5"), (2176, 154), 153),
    "m3-q-generic": (lambda: augmented_generic_system("m3-q"), (405, 56), 55),
    "m4-f5-generic-transposed": (lambda: factor_reductions("m4-f5")[0], (153, 227), 153),
    "m4-f5-generic-selected": (lambda: factor_reductions("m4-f5")[1], (153, 306), 153),
    "m3-q-generic-transposed": (lambda: factor_reductions("m3-q")[0], (55, 88), 55),
    "m3-q-generic-selected": (lambda: factor_reductions("m3-q")[1], (55, 110), 55),
    # the largest blocks trace_space reduces; no workload reduces the dense
    # M3(F5) systems above any more
    "m3-f5-centralizing-block": (
        lambda: largest_trace_space_block(build_full_matrix(3, 1, F5), "centralizing"),
        (94, 51),
        38,
    ),
    "m3-f5-commuting-block": (
        lambda: largest_trace_space_block(build_full_matrix(3, 1, F5), "commuting"),
        (96, 51),
        38,
    ),
    "m4-f5-centralizing-block": (
        lambda: largest_trace_space_block(INSTANCES["m4-f5"](), "centralizing"),
        (396, 136),
        115,
    ),
    "m3-q-commuting-block": (  # Fraction entries: the object kernel reduces it
        lambda: largest_trace_space_block(INSTANCES["m3-q"](), "commuting"),
        (96, 51),
        38,
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_SHAPES))
def test_kernel_matches_retained_kernel_on_workload_shapes(name):
    build, shape, rank = WORKLOAD_SHAPES[name]
    a = build()
    assert a.shape == shape
    ring = RATIONAL if a.dtype == object else F5
    want = rref_object(a) if a.dtype == object else dense_rref_mod_p(a, 5)
    assert_same_rref(backend.rref(ring, a), want)
    assert want[2] == rank


def random_sparse_matrix(stream, rows, cols, draw):
    """About a third of the entries zero, so pivots get skipped and rows swapped."""
    return [[draw() if stream.below(3) else 0 for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("p", [5, 7, 1048573])
def test_kernel_matches_loops_on_random_matrices(p):
    ring = prime_field(p)
    stream = XorShift64Star(p)
    for _ in range(40):
        rows, cols = 1 + stream.below(9), 1 + stream.below(9)
        a = np.array(
            random_sparse_matrix(stream, rows, cols, lambda: stream.below(p)), dtype=np.int64
        )
        ref = a.copy()
        piv, rank = rref_mod_p_loops(ref, p)
        assert_same_rref(backend.rref(ring, a), (ref, piv, rank))


def test_kernel_matches_object_kernel_over_q():
    stream = XorShift64Star(2024)

    def draw():
        return Fraction(stream.below(9) - 4, 1 + stream.below(4))

    deficient = set()
    for _ in range(40):
        rows, cols = 1 + stream.below(8), 1 + stream.below(8)
        a = RATIONAL.array(random_sparse_matrix(stream, rows, cols, draw))
        want = rref_object(a)
        assert_same_rref(backend.rref(RATIONAL, a), want)
        deficient.add(want[2] < min(rows, cols))
    assert deficient == {True, False}


def slow_solve(ring, mat, rhs):
    """One reduction of [mat | rhs] per right-hand side."""
    rows, cols = mat.shape
    aug = ring.zeros((rows, cols + 1))
    aug[:, :cols] = ring.normalize(mat)
    aug[:, cols] = ring.normalize(rhs)
    red, piv, rank = backend.rref(ring, aug)
    if any(c == cols for c in piv):
        return None
    x = ring.zeros(cols)
    for ri, pc in enumerate(piv):
        x[pc] = red[ri, cols]
    return x


def solve_array(ring, mat, rhs):
    """Canonical solution of mat @ x = rhs (free variables zeroed), or None:
    the solve FactoredMatrix replaced, one reduction of [mat | rhs]."""
    rhs = ring.normalize(np.asarray(rhs))
    if rhs.ndim != 1:
        raise ExactError("rhs shape mismatch")
    sols, first_bad = solve_columns(ring, mat, rhs[None])
    return None if first_bad is not None else sols[0]


def solve_columns(ring, mat, rhs_rows):
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


def seeded_solve_cases(ring):
    """Sparse matrices with a few right-hand sides each: about two in three
    are images of the matrix, the others are drawn."""
    stream = XorShift64Star(17 if ring.is_prime_field else 19)

    def draw():
        return ring.coerce(stream.below(5) - 2)

    for _ in range(60):
        rows, cols, k = 1 + stream.below(6), 1 + stream.below(5), 1 + stream.below(5)
        mat = ring.array(random_sparse_matrix(stream, rows, cols, draw))
        rhs = ring.array(random_sparse_matrix(stream, k, rows, draw))
        for n in range(k):
            if stream.below(3):
                x = ring.array([draw() for _ in range(cols)])
                rhs[n] = ring.tensordot(mat, x, axes=([1], [0]))
        yield mat, rhs


@pytest.mark.parametrize("ring", [F5, BIG_P, RATIONAL], ids=["f5", "p1048573", "q"])
def test_shared_solve_matches_one_solve_per_column(ring):
    """Up to the first inconsistent right-hand side the shared reduction
    gives each column's own solution, and it finds that column."""
    firsts = set()
    for mat, rhs in seeded_solve_cases(ring):
        k = rhs.shape[0]
        sols, first_bad = solve_columns(ring, mat, rhs)
        want = [slow_solve(ring, mat, b) for b in rhs]
        bad = [n for n, x in enumerate(want) if x is None]
        assert first_bad == (bad[0] if bad else None)
        for n in range(bad[0] if bad else k):
            assert_identical(sols[n], want[n])
        if want[0] is not None:
            assert_identical(solve_array(ring, mat, rhs[0]), want[0])
        else:
            assert solve_array(ring, mat, rhs[0]) is None
        firsts.add(first_bad is None or first_bad > 0)
    assert firsts == {True, False}


# ---------------------------------------------------------------------------
# the factored solve
# ---------------------------------------------------------------------------


def assert_same_solution(got, want):
    if want is None:
        assert got is None
    else:
        assert got is not None
        assert_identical(got, want)


def check_factored_solves(ring, mat, rhs_rows):
    """Each right-hand side through one factorization, against one reduction
    of [mat | b] per b and against solve_array; the set of "inconsistent"
    outcomes seen."""
    factored = FactoredMatrix(ring, mat)
    outcomes = set()
    for b in rhs_rows:
        want = slow_solve(ring, mat, b)
        assert_same_solution(factored.solve(b), want)
        assert_same_solution(solve_array(ring, mat, b), want)
        outcomes.add(want is None)
    return outcomes


FACTORED_INSTANCES = dict(INSTANCES, **{"m2-f5": lambda: build_full_matrix(2, 1, F5)})

# name: (instance, columns dropped, rank, columns); the z columns are
# dropped as in a Lie triple split.  M2 and the diagonal pair leave free
# columns.
FACTORED_SYSTEMS = {
    "m4-f5": ("m4-f5", 0, 153, 153),
    "m4-f5-mu-nu": ("m4-f5", 1, 152, 152),
    "m3-q": ("m3-q", 0, 55, 55),
    "m3-q-mu-nu": ("m3-q", 1, 54, 54),
    "m3-p1048573": ("m3-p1048573", 0, 55, 55),
    "t3-f5": ("t3-f5", 0, 28, 28),
    "m2-f5": ("m2-f5", 0, 14, 15),
    "diagonal-f5": ("diagonal-f5", 0, 88, 90),
}


def factored_system_rhs(g, mat, stream):
    """Images of mat, the pair values of proper traces, those with one cell
    shifted, and drawn vectors."""
    ring = g.ring

    def draw(n):
        if ring.is_prime_field:
            return ring.array([stream.below(ring.p) for _ in range(n)])
        return ring.array([Fraction(stream.below(9) - 4, 1 + stream.below(4)) for _ in range(n)])

    rows, cols = mat.shape
    rhs = [ring.tensordot(mat, draw(cols), axes=([1], [0])) for _ in range(3)]
    for seed in (3, 5):
        rhs.append(
            pair_coefficients(g.ring, random_proper_trace(g, seed=seed).tensor).reshape(rows)
        )
    shifted = rhs[-1].copy()
    shifted[stream.below(rows)] += ring.one
    rhs += [ring.normalize(shifted), draw(rows), ring.zeros(rows)]
    return rhs


@pytest.mark.parametrize("name", sorted(FACTORED_SYSTEMS))
def test_factored_solve_matches_one_solve_per_rhs_on_generic_systems(name):
    instance, dropped, rank, cols = FACTORED_SYSTEMS[name]
    g = assemble_gma(FACTORED_INSTANCES[instance]())
    mat = g.generic_system.matrix[:, dropped:]
    assert mat.shape[1] == cols
    assert len(FactoredMatrix(g.ring, mat).pivots) == rank
    stream = XorShift64Star(11)
    assert check_factored_solves(g.ring, mat, factored_system_rhs(g, mat, stream)) == {True, False}


@pytest.mark.parametrize("ring", [F5, RATIONAL], ids=["f5", "q"])
@pytest.mark.parametrize("shape", [(4, 3), (0, 3), (3, 0), (0, 0)])
def test_factored_solve_on_zero_and_empty_matrices(ring, shape):
    mat = ring.zeros(shape)
    rhs = [ring.zeros(shape[0])]
    if shape[0]:
        rhs.append(ring.array([0] * (shape[0] - 1) + [2]))
    check_factored_solves(ring, mat, rhs)
    factored = FactoredMatrix(ring, mat)
    assert factored.pivots == [] and factored.rows == []
    with pytest.raises(ExactError):
        factored.solve(ring.zeros(shape[0] + 1))


@pytest.mark.parametrize("ring", [F5, BIG_P, RATIONAL], ids=["f5", "p1048573", "q"])
def test_factored_solve_matches_one_solve_per_rhs_fuzzed(ring):
    outcomes = set()
    for mat, rhs in seeded_solve_cases(ring):
        outcomes |= check_factored_solves(ring, mat, rhs)
    assert outcomes == {True, False}


# ---------------------------------------------------------------------------
# the contraction over Q
# ---------------------------------------------------------------------------


def fraction_tensordot(a, b, axes):
    """numpy's tensordot on the Fraction arrays themselves, behind the same
    empty-operand guard: the contraction over Q before denominators were
    cleared."""
    a, b = np.asarray(a), np.asarray(b)
    if a.size == 0 or b.size == 0:
        shape = np.tensordot(np.zeros(a.shape), np.zeros(b.shape), axes=axes).shape
        return RATIONAL.zeros(shape)
    return np.tensordot(a, b, axes=axes)


def assert_same_contraction(a, b, axes):
    got = RATIONAL.tensordot(a, b, axes)
    assert_identical(got, fraction_tensordot(a, b, axes))
    assert got.dtype == object
    assert all(type(v) is Fraction for v in got.flat)
    return got


def random_rationals(stream, shape):
    """Mixed signs, zeros and denominators up to 10**6."""
    cells = [
        Fraction(stream.below(2_000_001) - 1_000_000, 1 + stream.below(1_000_000))
        if stream.below(4)
        else Fraction(0)
        for _ in range(int(np.prod(shape)))
    ]
    return np.array(cells, dtype=object).reshape(shape)


def test_q_contraction_matches_fraction_contraction_on_call_shapes():
    g = assemble_gma(INSTANCES["m3-q"]())
    mul, d = g.mul, g.dim
    stream = XorShift64Star(31)
    x = random_rationals(stream, (d,))
    MU = random_rationals(stream, (d, d))
    z = g.center.z_g[0] * Fraction(-3, 7)
    q = random_proper_trace(g, seed=7).tensor
    sym = mul + np.transpose(mul, (1, 0, 2))
    cases = [
        (mul, mul, ([2], [0])),  # associativity, both bracketings
        (mul, mul, ([2], [1])),
        (q, commutator_from_mul(g), ([2], [0])),  # the cubic D
        (q + random_rationals(stream, q.shape), commutator_from_mul(g), ([2], [0])),
        (sym, g.left_mult_matrix(z), ([2], [1])),  # fraction_sym_tensor
        (MU, mul, ([1], [0])),
        (x, mul, ([0], [0])),  # a vector times mul
        (x, g.mul * Fraction(5, 6), ([0], [1])),
    ]
    for a, b, axes in cases:
        assert_same_contraction(a, b, axes)


@pytest.mark.parametrize(
    "shape_a, shape_b, axes",
    [
        ((0, 3), (3, 4), ([1], [0])),
        ((2, 0), (0, 5), ([1], [0])),  # empty contracted axis: zeros
        ((3,), (0,), 0),
        ((2, 3), (2, 3), 2),  # full contractions are 0-d arrays
        ((4,), (4,), ([0], [0])),
        ((2, 3, 4), (4, 3, 2), ([1, 2], [1, 0])),
        ((2, 3, 4), (3, 2), ([0, 1], [1, 0])),
        ((3, 2), (2, 3), 0),  # outer product
    ],
)
def test_q_contraction_edge_shapes(shape_a, shape_b, axes):
    stream = XorShift64Star(sum(shape_a) + 7 * sum(shape_b))
    a, b = random_rationals(stream, shape_a), random_rationals(stream, shape_b)
    got = assert_same_contraction(a, b, axes)
    want_shape = np.tensordot(np.zeros(shape_a), np.zeros(shape_b), axes=axes).shape
    assert type(got) is np.ndarray and got.shape == want_shape


RATIONALS = st.builds(
    Fraction,
    st.one_of(st.just(0), st.integers(-(10**6), 10**6)),
    st.one_of(st.sampled_from([1, 2, 3, 10**6]), st.integers(1, 10**6)),
)


@st.composite
def contraction_cases(draw):
    """Operands of up to three axes each; the last k axes of a contract
    with k axes of b in a drawn order."""
    shape_a = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    k = draw(st.integers(0, len(shape_a)))
    shape_b = shape_a[len(shape_a) - k :] + draw(st.lists(st.integers(1, 3), max_size=3 - k))
    perm = draw(st.permutations(range(len(shape_b))))
    axes = (list(range(len(shape_a) - k, len(shape_a))), [perm.index(i) for i in range(k)])

    def operand(shape):
        size = int(np.prod(shape))
        cells = draw(st.lists(RATIONALS, min_size=size, max_size=size))
        return np.array(cells, dtype=object).reshape(shape)

    a = operand(shape_a)
    return a, np.transpose(operand(shape_b), perm), axes


@settings(deadline=None, max_examples=150)
@given(contraction_cases())
def test_q_contraction_matches_fraction_contraction_fuzzed(case):
    assert_same_contraction(*case)


# ---------------------------------------------------------------------------
# the Q lane on lifted integers
# ---------------------------------------------------------------------------

def fraction_sparse_times(ring, entries, v):
    """exact._sparse_times on Fraction values: a Fraction product and sum per nonzero."""
    n, r, c, values = entries
    out = ring.zeros(n)
    np.add.at(out, r, values * v[c])
    return ring.normalize(out)


def fraction_bracket_action(carrier, centralizing):
    """maps._bracket_action on Fraction values."""
    Bk = commutator_from_mul(carrier)
    if centralizing:
        Bk = carrier.ring.tensordot(Bk, carrier.center.annihilator, axes=([2], [1]))
    return np.transpose(Bk, (1, 0, 2))


def fraction_verdict(carrier, centralizing, degree, unknown, witness):
    """maps._verdict on Fraction values."""
    ring = carrier.ring
    K = constraint_operator(ring, degree, fraction_bracket_action(carrier, centralizing))
    rows = fraction_sparse_times(ring, K, unknown.reshape(-1))
    monomials = _monomial_table(carrier.dim, degree)[0]
    bad = np.flatnonzero(np.any(rows.reshape(len(monomials), -1) != 0, axis=1))
    if bad.size == 0:
        return True, None
    quotient = carrier.center.quotient if centralizing else (lambda v: v)
    return False, witness(monomials[bad[0]], lambda v: not ring.is_zero(quotient(v)))


def fraction_trace_predicate(carrier, bil, centralizing):
    unknown = pair_coefficients(carrier.ring, bil.tensor)
    return fraction_verdict(
        carrier, centralizing, 3, unknown, functools.partial(slow_trace_witness, carrier, bil)
    )


def fraction_linear_predicate(carrier, F, centralizing):
    return fraction_verdict(
        carrier, centralizing, 2, F.matrix.T, functools.partial(slow_linear_witness, carrier, F)
    )


def fraction_sym_tensor(form, gma):
    """ProperTraceForm.sym_tensor on Fraction values: halved and summed cell by cell."""
    ring, z_g = gma.ring, gma.center.z_g
    MU = ring.tensordot(form.mu, z_g, axes=([0], [0]))  # rows: mu(e_i)
    nu = ring.tensordot(form.nu, z_g, axes=([2], [0]))
    upper = np.triu(np.ones((gma.dim, gma.dim), dtype=bool))[:, :, None]
    nu = np.where(upper, nu, np.transpose(nu, (1, 0, 2)))
    sym = gma.mul + np.transpose(gma.mul, (1, 0, 2))
    zxy = ring.tensordot(sym, gma.left_mult_matrix(form.z_vec(gma)), axes=([2], [1]))
    P = ring.tensordot(MU, gma.mul, axes=([1], [0]))  # [i, j] = mu(e_i) e_j
    return ring.normalize((zxy + P + np.transpose(P, (1, 0, 2))) * ring.half + nu)


def fraction_matches(form, gma, q):
    return gma.ring.equal(fraction_sym_tensor(form, gma), q.symmetrize().tensor)


class SolvedEveryTime:
    """FactoredMatrix's interface on one solve_array per right-hand side."""

    def __init__(self, ring, mat):
        self.ring, self.mat = ring, mat

    def solve(self, rhs):
        return solve_array(self.ring, self.mat, rhs)

    def solve_lifted(self, b, lb):
        flat = b.reshape((math.prod(b.shape[:-1]), b.shape[-1]))
        rows = [self.solve(_unlift(self.ring, r, lb)) for r in flat]
        ok = np.array([x is not None for x in rows])
        x = np.stack([self.ring.zeros(self.mat.shape[1]) if x is None else x for x in rows])
        x, L = _lift(self.ring, x)
        return x.reshape(b.shape[:-1] + x.shape[1:]), L, ok.reshape(b.shape[:-1])


def q_lane_traces(gma):
    """Proper traces, each with one cell moved by 1/3, a drawn rational
    trace and the product itself."""
    d = gma.dim
    stream = XorShift64Star(17)
    traces = {}
    for seed in (1, 2):
        q = random_proper_trace(gma, seed=seed)
        t = q.tensor.copy()
        t[0, 1, d - 1] += Fraction(1, 3)
        traces[f"proper-{seed}"] = q
        traces[f"moved-{seed}"] = BilinearMapRep(RATIONAL, t)
    traces["drawn"] = BilinearMapRep(RATIONAL, random_rationals(stream, (d, d, d)))
    traces["product"] = BilinearMapRep(RATIONAL, gma.mul)
    return traces


@pytest.fixture(scope="module", params=sorted(Q_LANE))
def q_gma(request):
    g = assemble_gma(Q_LANE[request.param]())
    g.center
    return g


def test_q_lane_predicates_match_the_fraction_predicates(q_gma):
    g, d = q_gma, q_gma.dim
    stream = XorShift64Star(19)
    verdicts = set()
    for q in q_lane_traces(g).values():
        for centralizing, pred in ((False, is_commuting_trace), (True, is_centralizing_trace)):
            got = pred(g, q)
            assert_same_verdict(got, fraction_trace_predicate(g, q, centralizing))
            verdicts.add(got[0])
            # the lifted rows, scaled back, are the Fraction rows
            act = fraction_bracket_action(g, centralizing)
            assert_identical(_unlift(RATIONAL, *_bracket_action(g, centralizing)), act)
            pairs = pair_coefficients(RATIONAL, q.tensor)
            K = constraint_operator(RATIONAL, 3, act)
            want = fraction_sparse_times(RATIONAL, K, pairs.reshape(-1))
            assert_identical(operator_rows(g, 3, centralizing, pairs), want.reshape(-1, act.shape[2]))
    assert verdicts == {True, False}
    for F in (LinearMapRep.identity(RATIONAL, d), LinearMapRep(RATIONAL, random_rationals(stream, (d, d)))):
        for centralizing, pred in ((False, is_commuting_linear), (True, is_centralizing_linear)):
            assert_same_verdict(pred(g, F), fraction_linear_predicate(g, F, centralizing))


def test_q_lane_reconstruction_matches_the_fraction_check(q_gma):
    g = q_gma
    for name, q in q_lane_traces(g).items():
        if not name.startswith("proper"):
            continue
        forms = [decompose_trace_generic(q, g).form, decompose_trace_constructive(q, g).form]
        for form in forms:
            sym = form.sym_tensor(g)
            assert_identical(sym, fraction_sym_tensor(form, g))
            assert all(type(v) is Fraction for v in sym.flat)
            assert form.matches(g, q) and fraction_matches(form, g, q)
            for part in ("z", "mu", "nu"):
                moved = {k: getattr(form, k).copy() for k in ("z", "mu", "nu")}
                moved[part].flat[0] += Fraction(1, 3)
                moved = ProperTraceForm(**moved)
                assert_identical(moved.sym_tensor(g), fraction_sym_tensor(moved, g))
                assert not moved.matches(g, q)
                assert not fraction_matches(moved, g, q)


def q_lane_outcomes(g, traces, lti_maps):
    """Both routes on every trace and the Lie triple split of every map, as
    comparable tuples."""
    out = []
    for q in traces.values():
        for route in (decompose_trace_generic, decompose_trace_constructive):
            try:
                dec = route(q, g)
            except PredicateNotSatisfied as e:
                out.append(("reject", e.witness))
                continue
            form = dec.form
            out.append((dec.status, None if form is None else (form.z, form.mu, form.nu)))
    for l in lti_maps:
        L = decompose_lie_triple_iso(l, g, g)
        m, n = (None, None) if L.m is None else (L.m.matrix, L.n.matrix)
        out.append((L.status, L.lam, m, n, L.mu1, L.nu1, L.checks))
    return out


def assert_same_outcomes(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert type(a) is type(b)
        if isinstance(a, tuple):
            assert_same_outcomes(a, b)
        elif isinstance(a, (np.ndarray, Fraction)):
            assert_identical(a, b)
        else:
            assert a == b


@pytest.mark.parametrize("name", sorted(Q_LANE))
def test_q_lane_routes_and_splits_match_the_fraction_code(name, monkeypatch):
    """The routes and the Lie triple split on lifted integers, and on a
    fresh algebra again with the Fraction predicates, reconstruction check
    and one solve_array per solve patched in."""
    g = assemble_gma(Q_LANE[name]())
    traces = q_lane_traces(g)
    lti_maps = []
    if name == "m3-q" or name in M3_Q_BASES:
        m3 = assemble_gma(build_full_matrix(3, 1, RATIONAL))
        lti_maps = [random_lie_triple_iso(m3, 3, shape) for shape in ("conjugation", "neg-antiauto")]
        if name in M3_Q_BASES:
            _, P = M3_Q_BASES[name](m3.ctx)
            G, G_inv = block_diagonal(RATIONAL, P, 0), block_diagonal(RATIONAL, P, 1)
            td = RATIONAL.tensordot
            lti_maps = [
                LinearMapRep(RATIONAL, td(td(G_inv, l.matrix, axes=([1], [0])), G, axes=([1], [0])))
                for l in lti_maps
            ]
    got = q_lane_outcomes(g, traces, lti_maps)
    for pred, centralizing in (("is_commuting_trace", False), ("is_centralizing_trace", True)):
        monkeypatch.setattr(
            decompose, pred, functools.partial(fraction_trace_predicate, centralizing=centralizing)
        )
    monkeypatch.setattr(decompose.ProperTraceForm, "matches", fraction_matches)
    monkeypatch.setattr(decompose, "FactoredMatrix", SolvedEveryTime)
    want = q_lane_outcomes(assemble_gma(Q_LANE[name]()), traces, lti_maps)
    assert_same_outcomes(got, want)
    assert {o[0] for o in got[: 2 * len(traces)]} >= {"ok", "reject"}


@pytest.mark.parametrize("name", ["inflated-large-q", "m3-q-rescaled", "m3-q-moved"])
def test_identity_42_matches_loop_past_the_int64_bound(name):
    build = dict(Q_LANE, **{"inflated-large-q": lambda: build_inflated(RATIONAL, 1, [[10**12]])})
    g = assemble_gma(build[name]())
    assert _integer_mul_tensor(g)[0].dtype == object
    assert_same_verdict(check_identity_42(g), slow_check_identity_42(g))


# numerators past int64 and denominators up to the largest supported prime
LIFT_RATIONALS = st.builds(
    Fraction,
    st.one_of(st.integers(-(2**80), 2**80), st.sampled_from([2**63, -(2**63) - 1, 2**64 + 7])),
    st.one_of(st.integers(1, 1048573), st.sampled_from([1, 2, 1048573])),
)


@settings(deadline=None, max_examples=200)
@given(st.lists(LIFT_RATIONALS, min_size=1, max_size=12), st.integers(1, 1048573), st.data())
def test_lift_and_scaled_equality(cells, k, data):
    a = np.array(cells, dtype=object)
    n, L = _lift(RATIONAL, a)
    assert L == math.lcm(*(v.denominator for v in cells))
    assert all(type(v) is int for v in n.flat)
    assert_identical(_unlift(RATIONAL, n, L), a)
    # the same values over another scale are equal; moving one cell by any
    # nonzero amount, however small against the scale, breaks equality
    assert _scaled_equal(RATIONAL, n * k, L * k, n, L)
    i = data.draw(st.integers(0, len(cells) - 1))
    moved = n * k
    moved[i] += data.draw(st.sampled_from([1, -1, 2**64]))
    assert not _scaled_equal(RATIONAL, moved, L * k, n, L)
    # and it decides what Fraction comparison decides
    other = [data.draw(st.sampled_from([c, c + Fraction(1, k)])) for c in cells]
    got = _scaled_equal(RATIONAL, *_lift(RATIONAL, np.array(other, dtype=object)), n, L)
    assert got == (other == cells)


@pytest.mark.parametrize("ring", [F5, BIG_P], ids=["f5", "p1048573"])
def test_lift_is_the_identity_over_a_prime_field(ring):
    x = ring.array([[0, 1, 2], [3, 4, ring.p - 1]])
    n, L = _lift(ring, x)
    assert n is x and L == 1
    assert _unlift(ring, x, 1) is x
    assert_identical(_unlift(ring, x, 2), ring.normalize(x * ring.half))
    assert _scaled_equal(ring, x, 1, x.copy(), 1)
    assert not _scaled_equal(ring, x, 1, ring.normalize(x + ring.eye(3)[:2]), 1)


# ---------------------------------------------------------------------------
# quotients modulo a span
# ---------------------------------------------------------------------------


def slow_nullspace_array(ring, mat):
    """The read-off loop: one free column, then one pivot at a time."""
    rows, cols = np.shape(mat)
    red, piv, rank = rref_array(ring, mat)
    free = [c for c in range(cols) if c not in set(piv)]
    basis = ring.zeros((len(free), cols))
    for bi, fc in enumerate(free):
        basis[bi, fc] = ring.one
        for ri, pc in enumerate(piv):
            basis[bi, pc] = ring.neg(red[ri, fc]) if ring.is_prime_field else -red[ri, fc]
    return ring.normalize(basis)


def slow_coordinate_complement(ring, rows):
    """Extend independent rows greedily by unit vectors e_i, ascending i:
    (complement, to_coords), to_coords the inverse of [rows; complement]^T."""
    k, dim = rows.shape
    red, piv, _ = rref_array(ring, np.concatenate([rows.T, ring.eye(dim)], axis=1))
    assert piv[:k] == tuple(range(k)), "complement of dependent rows"
    chosen = [c - k for c in piv[k:]]
    complement = ring.zeros((len(chosen), dim))
    complement[np.arange(len(chosen)), chosen] = ring.one
    return complement, red[:, k:].copy()


def slow_algebra_quotient(ring, z_rows):
    """(qdim, dim) rows Q with Qv = 0 iff v lies in span(z_rows)."""
    return slow_coordinate_complement(ring, z_rows)[1][z_rows.shape[0] :]


def slow_commuting_linear_space(alg):
    """One row block per basis pair, one column block per basis vector."""
    ring, d, mul = alg.ring, alg.dim, alg.mul
    Bk = ring.normalize(mul - np.transpose(mul, (1, 0, 2)))  # [k, j, r] = [e_k, e_j]_r
    pairs = [(i, j) for i in range(d) for j in range(i, d)]
    K = ring.zeros((len(pairs) * d, d * d))  # unknown w[i*d + k] = f(e_i)_k
    for row, (i, j) in enumerate(pairs):
        base = row * d
        for k in range(d):
            K[base : base + d, i * d + k] += Bk[k, j]
            if i != j:
                K[base : base + d, j * d + k] += Bk[k, i]
    return [w.reshape(d, d).T.copy() for w in nullspace_array(ring, ring.normalize(K))]


def proper_linear_generators(alg, z_rows):
    """Matrices spanning {x -> z*x + eta(x) : z central, eta linear into the center}."""
    ring, d = alg.ring, alg.dim
    gens = []
    for z in z_rows:
        gens.append(alg.left_mult_matrix(z))
    for z in z_rows:
        for i in range(d):
            F = ring.zeros((d, d))
            F[:, i] = z
            gens.append(F)
    return gens


def slow_check_all_commuting_proper(alg):
    """Containment as a rank test: adding the commuting maps to the proper
    span leaves its rank unchanged."""
    ring, d = alg.ring, alg.dim
    comm = slow_commuting_linear_space(alg)
    gens = proper_linear_generators(alg, compute_center_algebra(alg))
    span = ring.zeros((len(gens), d * d))
    for i, F in enumerate(gens):
        span[i] = F.reshape(d * d)
    cand = ring.zeros((len(comm), d * d))
    for i, F in enumerate(comm):
        cand[i] = F.reshape(d * d)
    return ProperSpanReport(row_space_contains(ring, span, cand), len(comm), rank_array(ring, span))


def slow_cube_annihilating_forms_contained(gma):
    """The nullspace of the hand-built x*K(x, x) and K(x, x) systems, then a rank test."""
    ring, ctx = gma.ring, gma.ctx
    dB, dN = ctx.B.dim, ctx.N.dim
    if dN == 0 or dB == 0:
        return True
    null_cubic = nullspace_array(ring, slow_cube_annihilation_matrix(gma))
    pairs = [(a, b) for a in range(dB) for b in range(a, dB)]
    K2 = ring.zeros((len(pairs) * dN, dB * dB * dN))
    for row, (a, b) in enumerate(pairs):
        for n in range(dN):
            K2[row * dN + n, (a * dB + b) * dN + n] += ring.one
            if a != b:
                K2[row * dN + n, (b * dB + a) * dN + n] += ring.one
    return row_space_contains(ring, nullspace_array(ring, ring.normalize(K2)), null_cubic)


def nullspace_cases(ring):
    """Empty, zero and full-rank matrices, then seeded sparse ones."""
    stream = XorShift64Star(23 if ring.is_prime_field else 29)

    def draw():
        if ring.is_prime_field:
            return ring.coerce(stream.below(7) - 3)
        return Fraction(stream.below(9) - 4, 1 + stream.below(4))

    yield from (ring.zeros(shape) for shape in [(0, 0), (0, 4), (4, 0), (3, 5)])
    yield ring.eye(4)
    yield ring.array([[1, 2, 0, 3], [0, 1, 4, 1]])  # full row rank
    yield ring.array([[1, 0], [2, 1], [0, 3]])  # full column rank
    for _ in range(40):
        rows, cols = 1 + stream.below(8), 1 + stream.below(8)
        yield ring.array(random_sparse_matrix(stream, rows, cols, draw))


@pytest.mark.parametrize("ring", [F5, BIG_P, RATIONAL], ids=["f5", "p1048573", "q"])
def test_nullspace_matches_read_off_loop(ring):
    sizes = set()
    for mat in nullspace_cases(ring):
        got = nullspace_array(ring, mat)
        assert_identical(got, slow_nullspace_array(ring, mat))
        assert got.dtype == ring.dtype
        if ring.is_prime_field:
            assert got.size == 0 or (got.min() >= 0 and got.max() < ring.p)
        else:
            assert all(type(v) is Fraction for v in got.flat)
        sizes.add(0 < got.shape[0] < mat.shape[1])
    # both an empty or full kernel and a proper one
    assert sizes == {True, False}


@st.composite
def span_and_vectors(draw):
    """A ring, a matrix of 0-4 rows and 1-5 columns, and 1-3 vectors."""
    ring = draw(st.sampled_from([F5, RATIONAL]))
    cols = draw(st.integers(1, 5))
    cells = st.integers(-3, 3) if ring.is_prime_field else RATIONALS

    def matrix(rows):
        out = ring.zeros((rows, cols))
        for idx in np.ndindex(out.shape):
            out[idx] = ring.coerce(draw(cells))
        return out

    return ring, matrix(draw(st.integers(0, 4))), matrix(draw(st.integers(1, 3)))


@settings(deadline=None, max_examples=150)
@given(span_and_vectors())
def test_row_span_residual_is_the_annihilator_on_free_columns(case):
    ring, mat, v = case
    red, piv, rank = rref_array(ring, mat)
    rows = red[:rank]
    free = [c for c in range(mat.shape[1]) if c not in piv]
    _, resid = row_span_residual(ring, rows, v)
    assert ring.is_zero(resid[:, list(piv)])
    ann = nullspace_array(ring, rows)
    assert_identical(resid[:, free], ring.tensordot(v, ann, axes=([1], [1])))


@settings(deadline=None, max_examples=150)
@given(span_and_vectors())
def test_row_span_coords_reads_the_annihilator_as_the_residual_does(case):
    ring, mat, v = case
    red, piv, rank = rref_array(ring, mat)
    rows = red[:rank]
    for vec in v:
        got, want = exact.row_span_coords(ring, rows, vec), row_span_coords(ring, rows, vec)
        assert (got is None) == (want is None)
        if want is not None:
            assert_identical(got, want)


@pytest.mark.parametrize("name", sorted({**INSTANCES, **Q_LANE}))
def test_center_span_tests_match_the_residual(name):
    """CenterData.span_lifted decides membership in each of the center's
    five row sets with their annihilators: on seeded vectors and on
    combinations of the rows it agrees with the pivot read-back residual,
    coordinates included."""
    g = assemble_gma({**INSTANCES, **Q_LANE}[name]())
    ring, C = g.ring, g.center
    stream = XorShift64Star(sum(map(ord, name)))
    for rows_name in ("z_g", "z_a", "z_b", "pia_image", "pib_image"):
        rows = getattr(C, rows_name)
        k, width = rows.shape
        draws = ring.array([[ring.random_scalar(stream) for _ in range(width)] for _ in range(4)])
        combos = ring.tensordot(draws[:, :k], rows, axes=([1], [0]))
        v = np.concatenate([draws, combos])
        coords, resid = row_span_residual(ring, rows, v)
        (n, L), inside = C.span_lifted(rows_name, _lift(ring, v))
        assert inside.tolist() == (~np.any(resid != ring.zero, axis=-1)).tolist()
        assert inside[len(draws) :].all()
        assert_identical(_unlift(ring, n, L), coords)


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_annihilators_kill_what_the_greedy_complement_kills(name):
    """Two quotient matrices of one span have one kernel, so one row space,
    and the center coordinates read at the pivots are the greedy ones."""
    g = assemble_gma(INSTANCES[name]())
    ring, C = g.ring, g.center
    for rows in (C.z_g, C.z_a, C.z_b):
        want = slow_algebra_quotient(ring, rows)
        assert row_space_equal(ring, nullspace_array(ring, rows), want)
    assert row_space_equal(ring, C.annihilator, slow_algebra_quotient(ring, C.z_g))
    stream = XorShift64Star(len(name))
    vectors = [g.unit, *C.z_g, *(g.basis_vector(i) for i in range(g.dim))]
    vectors += [C.expand(ring.array([ring.random_scalar(stream) for _ in range(C.zdim)]))]
    for v in vectors:
        want = slow_center_coords(C, v)
        got = C.center_coords(v)
        assert (got is None) == (want is None)
        if want is not None:
            assert_identical(got, want)
        assert ring.is_zero(C.quotient(v)) == (want is not None)


@pytest.mark.parametrize("name", ["t3-f5", "diagonal-f5", "m3-p1048573"])
def test_trace_space_rows_match_greedy_complement(name):
    g = assemble_gma(INSTANCES[name]())
    ring = g.ring
    K = slow_trace_space_matrix(g, "centralizing", slow_algebra_quotient(ring, g.center.z_g))
    space = trace_space(g, "centralizing")
    assert (space.n_rows, space.n_cols) == K.shape
    assert_identical(space.raw_rows, nullspace_array(ring, K))


def zeroed_cells(ring, t, stream):
    """t with each cell zeroed with probability one half."""
    t = t.copy()
    for idx in np.ndindex(t.shape):
        if stream.below(2):
            t[idx] = ring.zero
    return t


def test_span_tests_match_rank_tests_under_mutation():
    """Every builder context passes both span tests, so seeded zeroed
    cells of a corner's product and of N's left action reach the False
    verdicts; they agree with the rank tests either way."""
    verdicts = {"proper": set(), "cube": set()}
    for name in sorted(MORITA_INSTANCES):
        ctx = MORITA_INSTANCES[name]()
        ring = ctx.ring
        stream = XorShift64Star(sum(map(ord, name)))
        for _ in range(8):
            for alg in (ctx.A, ctx.B):
                moved = AlgebraSpec(ring, alg.dim, zeroed_cells(ring, alg.mul, stream), alg.unit)
                got = check_all_commuting_proper(moved, compute_center_algebra(moved))
                assert got == slow_check_all_commuting_proper(moved)
                verdicts["proper"].add(got.ok)
                comm = commuting_linear_space(moved)
                slow = slow_commuting_linear_space(moved)
                assert len(comm) == len(slow)
                for a, b in zip(comm, slow):
                    assert_identical(a, b)
            N = BimoduleSpec(
                ring, ctx.N.dim, zeroed_cells(ring, ctx.N.left, stream), ctx.N.right
            )
            mutated = types.SimpleNamespace(
                ring=ring,
                ctx=MoritaContext(
                    ctx.A, ctx.B, ctx.M, N, ctx.pairing_MN, ctx.pairing_NM, dict(ctx.meta)
                ),
            )
            got = cube_annihilating_forms_contained(mutated)
            assert got == slow_cube_annihilating_forms_contained(mutated)
            verdicts["cube"].add(got)
    assert verdicts == {"proper": {True, False}, "cube": {True, False}}


def test_commuting_linear_space_matches_loop(gma):
    for alg in (gma.ctx.A, gma.ctx.B):
        comm = commuting_linear_space(alg)
        slow = slow_commuting_linear_space(alg)
        assert len(comm) == len(slow)
        for a, b in zip(comm, slow):
            assert_identical(a, b)
    got = check_all_commuting_proper(gma.ctx.A, gma.center.z_a)
    assert got == slow_check_all_commuting_proper(gma.ctx.A)
    assert cube_annihilating_forms_contained(gma) is slow_cube_annihilating_forms_contained(gma)
