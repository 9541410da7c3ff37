"""The contraction paths and the elimination kernel against slow references.

The loops below are the straightforward per-monomial and per-pair
formulations: basis commutators summed over the arrangements of each cubic
monomial, one product call per basis pair or triple, and the loyalty scan
over every nonzero candidate vector.  The elimination references are
the three kernels the ring-generic one replaced: scalar loops mod p, a dense
rank-1 update over every row mod p, and row-by-row Fraction elimination.
The contraction over Q is checked against numpy's tensordot on the
Fraction arrays themselves.  They are kept here only as oracles.  Every
comparison is literal: same keys in the same order, same dtype, same
scalar type, same values, same witnesses.

The instances cover a center of dimension one (M3, M4), a triangular split
(T3), a center of dimension two (the diagonal pair), the rationals, and
p = 1048573, the largest prime the int64 kernels accept.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gmalg import backend
from gmalg.center import (
    CenterError,
    _cube_annihilation_matrix,
    _digits_le,
    _integer_mul_tensor,
    check_identity_42,
    check_loyal,
)
from gmalg.decompose import (
    ProperTraceForm,
    _pair_values,
    build_generic_system,
    random_lie_triple_iso,
    random_proper_trace,
)
from gmalg.exact import RATIONAL, nullspace_array, prime_field
from gmalg.maps import (
    BilinearMapRep,
    LinearMapRep,
    _arrangements3,
    _commutator_tensor,
    _linear_defect_coefficients,
    _linear_witness,
    _trace_space_matrix,
    _trace_witness,
    cubic_trace_coefficients,
    is_centralizing_linear,
    is_centralizing_trace,
    is_commuting_linear,
    is_commuting_trace,
    is_jordan_hom,
    is_lie_triple_hom,
    pair_index_order,
    trace_space,
    vanishes_on_second_commutators,
)
from gmalg.rng import XorShift64Star
from gmalg.structure import (
    BimoduleSpec,
    MoritaContext,
    assemble_gma,
    build_diagonal_pair,
    build_full_matrix,
    build_upper_triangular,
    check_morita_axioms,
)

F5 = prime_field(5)
BIG_P = prime_field(1048573)

INSTANCES = {
    "m4-f5": lambda: build_full_matrix(4, 2, F5),
    "t3-f5": lambda: build_upper_triangular(3, 1, F5),
    "m3-q": lambda: build_full_matrix(3, 1, RATIONAL),
    "diagonal-f5": lambda: build_diagonal_pair(F5),
    "m3-p1048573": lambda: build_full_matrix(3, 1, BIG_P),
}


# ---------------------------------------------------------------------------
# reference loops
# ---------------------------------------------------------------------------


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


def slow_trace_predicate(carrier, bil, coeffs, offending):
    """The first monomial whose coefficient offends starts the witness grid."""
    for triple, coef in coeffs.items():
        if offending(coef):
            return False, _trace_witness(carrier, bil, triple, offending)
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


def slow_trace_space_matrix(gma, mode):
    ring, d = gma.ring, gma.dim
    Bk = ring.normalize(gma.mul - np.transpose(gma.mul, (1, 0, 2)))
    if mode == "centralizing":
        Q = gma.center.to_coords[gma.center.zdim :]
        target = ring.tensordot(Bk, Q, axes=([2], [1]))
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


def slow_linear_predicate(carrier, F, coeffs, offending):
    """The first pair whose coefficient offends starts the witness grid."""
    for pair, coef in coeffs.items():
        if offending(coef):
            return False, _linear_witness(carrier, F, pair, offending)
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


def slow_check_identity_42(gma, seed):
    ring, d = gma.ring, gma.dim
    mul, p = _integer_mul_tensor(gma)
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
                contrib = np.zeros((d, d, d), dtype=np.int64)
                for (u, v, w) in _arrangements3(a, b, c):
                    Z1 = np.tensordot(W[u, v], Bk, axes=([1], [0]))  # (s, l, r)
                    T = np.tensordot(Bk[w], Z1, axes=([1], [1]))  # (t, s, r)
                    contrib += np.transpose(T, (1, 0, 2))
                contrib = reduce(contrib)
                for s in range(d):
                    for t in range(s, d):
                        coef = contrib[s, t] if s == t else reduce(contrib[s, t] + contrib[t, s])
                        if np.any(coef != 0):
                            return slow_identity_42_witness(gma, (a, b, c, s, t), seed)
    return True, None


def slow_identity_42_witness(gma, bad, seed):
    ring, d = gma.ring, gma.dim

    def defect(x, y):
        return gma.commutator(gma.commutator(gma.square(x), y), gma.commutator(x, y))

    a, b, c, s, t = bad
    x = ring.normalize(gma.basis_vector(a) + gma.basis_vector(b) + gma.basis_vector(c))
    y = ring.normalize(gma.basis_vector(s) + gma.basis_vector(t))
    if not ring.is_zero(defect(x, y)):
        return False, (x, y)
    stream = XorShift64Star(seed)
    for _ in range(2000):
        x = ring.array([ring.random_scalar(stream) for _ in range(d)])
        y = ring.array([ring.random_scalar(stream) for _ in range(d)])
        if not ring.is_zero(defect(x, y)):
            return False, (x, y)
    raise CenterError("nonzero defect coefficient but no evaluable witness found")


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
    proper = random_proper_trace(gma, None, seed=7)
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


def test_cubic_coefficients_match_loop(gma, traces):
    for q, slow in traces.values():
        fast = cubic_trace_coefficients(gma, q)
        assert list(fast) == list(slow)
        for key in slow:
            assert_identical(fast[key], slow[key])
        triples, rows = cubic_trace_coefficients(gma, q, as_rows=True)
        assert list(triples) == list(slow)
        assert_identical(rows, np.stack(list(slow.values())))


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
    assert_identical(system.sym_products, sym)


@pytest.mark.parametrize("mode", ["centralizing", "commuting"])
def test_trace_space_matches_loop(gma, mode):
    ring, d = gma.ring, gma.dim
    if not ring.is_prime_field or d > 12:
        pytest.skip("trace_space enumerates prime fields up to dim 12")
    K = slow_trace_space_matrix(gma, mode)
    assert_identical(_trace_space_matrix(gma, mode), K)
    space = trace_space(gma, mode)
    assert (space.n_rows, space.n_cols) == K.shape
    assert_identical(space.raw_rows, nullspace_array(ring, K))
    slow_basis = slow_basis_tensors(ring, d, space.raw_rows)
    assert len(space.basis) == len(slow_basis)
    for b, s in zip(space.basis, slow_basis):
        assert_identical(b.tensor, s)


@pytest.mark.parametrize("name", ["t3-f5", "m4-f5", "m3-q"])
def test_cube_annihilation_matrix_matches_loop(name):
    g = assemble_gma(INSTANCES[name]())
    assert_identical(_cube_annihilation_matrix(g), slow_cube_annihilation_matrix(g))


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
        fast = _linear_defect_coefficients(gma, F)
        slow = slow_linear_defect_coefficients(gma, F)
        assert list(fast) == list(slow)
        for key in slow:
            assert_identical(fast[key], slow[key])
        for pred, offending in (
            (is_commuting_linear, lambda v: not ring.is_zero(v)),
            (is_centralizing_linear, lambda v: not ring.is_zero(C.quotient(v))),
        ):
            assert_same_verdict(pred(gma, F), slow_linear_predicate(gma, F, slow, offending))


def test_identity_42_matches_loop(gma):
    assert_same_verdict(check_identity_42(gma, seed=5), slow_check_identity_42(gma, 5))


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


LOYALTY_CONTEXTS = {
    "late-annihilator-f5": lambda: build_late_annihilator_pair(F5),
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


# ---------------------------------------------------------------------------
# the elimination kernel
# ---------------------------------------------------------------------------


def assert_same_rref(got, want):
    assert_identical(got[0], want[0])
    assert_identical(got[1], want[1])
    assert got[2] == want[2]


def augmented_generic_system(name):
    """The generic system of an instance with the pair values of a proper
    trace appended, as the generic route solves it."""
    g = assemble_gma(INSTANCES[name]())
    K = g.generic_system.matrix
    rhs = _pair_values(g, random_proper_trace(g, None, seed=3)).reshape(K.shape[0])
    return np.concatenate([K, rhs[:, None]], axis=1)


def m3_f5_trace_space_matrix(mode):
    return _trace_space_matrix(assemble_gma(build_full_matrix(3, 1, F5)), mode)


WORKLOAD_SHAPES = {
    "m3-f5-centralizing": (lambda: m3_f5_trace_space_matrix("centralizing"), (1320, 405)),
    "m3-f5-commuting": (lambda: m3_f5_trace_space_matrix("commuting"), (1485, 405)),
    "m4-f5-generic": (lambda: augmented_generic_system("m4-f5"), (2176, 154)),
    "m3-q-generic": (lambda: augmented_generic_system("m3-q"), (405, 56)),
}


@pytest.mark.parametrize("name", sorted(WORKLOAD_SHAPES))
def test_kernel_matches_retained_kernel_on_workload_shapes(name):
    build, shape = WORKLOAD_SHAPES[name]
    a = build()
    assert a.shape == shape
    ring = RATIONAL if a.dtype == object else F5
    want = rref_object(a) if a.dtype == object else dense_rref_mod_p(a, 5)
    assert_same_rref(backend.rref(ring, a), want)
    assert 0 < want[2] < min(shape)


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
    q = random_proper_trace(g, None, seed=7).tensor
    sym = mul + np.transpose(mul, (1, 0, 2))
    cases = [
        (mul, mul, ([2], [0])),  # associativity, both bracketings
        (mul, mul, ([2], [1])),
        (q, _commutator_tensor(g), ([2], [0])),  # the cubic D
        (q + random_rationals(stream, q.shape), _commutator_tensor(g), ([2], [0])),
        (sym, g.left_mult_matrix(z), ([2], [1])),  # _proper_tensor
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
