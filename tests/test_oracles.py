"""The contraction paths and the elimination kernel against slow references.

The loops below are the straightforward per-monomial and per-pair
formulations: basis commutators summed over the arrangements of each cubic
monomial, one product call per basis pair.  The elimination references are
the three kernels the ring-generic one replaced: scalar loops mod p, a dense
rank-1 update over every row mod p, and row-by-row Fraction elimination.
They are kept here only as oracles.  Every comparison is literal: same keys
in the same order, same dtype, same scalar type, same values, same
witnesses.

The instances cover a center of dimension one (M3, M4), a triangular split
(T3), a center of dimension two (the diagonal pair), the rationals, and
p = 1048573, the largest prime the int64 kernels accept.
"""

from fractions import Fraction

import numpy as np
import pytest

from gmalg import backend
from gmalg.center import _cube_annihilation_matrix
from gmalg.decompose import (
    ProperTraceForm,
    _pair_values,
    build_generic_system,
    random_proper_trace,
)
from gmalg.exact import RATIONAL, nullspace_array, prime_field
from gmalg.maps import (
    BilinearMapRep,
    _arrangements3,
    _trace_space_matrix,
    _trace_witness,
    cubic_trace_coefficients,
    is_centralizing_trace,
    is_commuting_trace,
    pair_index_order,
    trace_space,
)
from gmalg.rng import XorShift64Star
from gmalg.structure import (
    assemble_gma,
    build_diagonal_pair,
    build_full_matrix,
    build_upper_triangular,
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
