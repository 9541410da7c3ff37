"""The center, the corner isomorphism and the hypothesis report under a
change of basis that keeps the blocks.

Each context is transported by one seeded invertible matrix per block
(A, M, N, B): the columns of a block's matrix are its new basis vectors in
the old coordinates.  The transported context is isomorphic to the
original, so its center and both corner projections have the same
dimensions, its center and phi are the transported ones, and every
verdict of the hypothesis report is the same.  So are the dimensions of
both trace spaces, the status of both decomposition routes on a trace
moved to the new basis, over Q the maps z, mu and nu they return, moved
likewise, and the status and sign of a Lie triple splitting moved likewise.
The builders only emit matrix-unit bases; these are the first contexts on
any other basis, so the first that the annihilator of a center other than a
span of unit vectors runs on.
"""

import numpy as np
import pytest

from gmalg.center import _integer_mul_tensor, check_identity_42
from gmalg.decompose import (
    decompose_lie_triple_iso,
    decompose_trace_constructive,
    decompose_trace_generic,
    random_lie_triple_iso,
    random_proper_trace,
)
from gmalg.exact import RATIONAL, ExactError, inverse_array, prime_field
from gmalg.maps import BilinearMapRep, LinearMapRep, trace_space
from gmalg.rng import XorShift64Star
from gmalg.structure import (
    AlgebraSpec,
    BimoduleSpec,
    MoritaContext,
    assemble_gma,
    build_diagonal_pair,
    build_full_matrix,
    build_upper_triangular,
    check_morita_axioms,
)
from support import blocks, corner_map

F5 = prime_field(5)

CONTEXTS = {
    "t3-f5": lambda: build_upper_triangular(3, 1, F5),
    "m3-f5": lambda: build_full_matrix(3, 1, F5),
    "m4-f5": lambda: build_full_matrix(4, 2, F5),
    "m3-q-split-1": lambda: build_full_matrix(3, 1, RATIONAL),
    "m3-q-split-2": lambda: build_full_matrix(3, 2, RATIONAL),
    "diagonal-f5": lambda: build_diagonal_pair(F5),
    "diagonal-k3-f7": lambda: build_diagonal_pair(prime_field(7), 3),
}


def random_invertible(ring, n, stream):
    """(P, P^-1) for the first invertible n x n matrix the stream draws."""
    while True:
        P = ring.zeros((n, n))
        for idx in np.ndindex(n, n):
            P[idx] = ring.random_scalar(stream)
        inv = inverse_array(ring, P)
        if inv is not None:
            return P, inv


def transport(ring, T, P, Q, R_inv):
    """The product tensor T[a, b, c] with its inputs in the bases given by
    the columns of P and Q and its output in the basis whose inverse
    change is R_inv."""
    t = ring.tensordot(P, T, axes=([0], [0]))  # (i, b, c)
    t = ring.tensordot(t, Q, axes=([1], [0]))  # (i, c, j)
    return ring.tensordot(t, R_inv, axes=([1], [1]))  # (i, j, r)


def block_dims(ctx):
    return {"A": ctx.A.dim, "M": ctx.M.dim, "N": ctx.N.dim, "B": ctx.B.dim}


def transported(ctx, seed):
    """(context, P) with P[block] = (matrix, inverse) for blocks A, M, N, B."""
    stream = XorShift64Star(seed)
    P = {name: random_invertible(ctx.ring, d, stream) for name, d in block_dims(ctx).items()}
    return moved_context(ctx, P), P


def rescaled(ctx, factor):
    """(context, P): ctx with the first basis vector of M multiplied by factor."""
    ring = ctx.ring
    P = {name: (ring.eye(d), ring.eye(d)) for name, d in block_dims(ctx).items()}
    P["M"][0][0, 0] = ring.coerce(factor)
    P["M"][1][0, 0] = ring.inv(factor)
    return moved_context(ctx, P), P


def moved_context(ctx, P):
    """ctx in the bases given by P[block] = (matrix, inverse)."""
    ring = ctx.ring

    def move(T, first, second, out):
        return transport(ring, T, P[first][0], P[second][0], P[out][1])

    def algebra(alg, name):
        unit = ring.tensordot(P[name][1], alg.unit, axes=([1], [0]))
        return AlgebraSpec(ring, alg.dim, move(alg.mul, name, name, name), unit)

    M = BimoduleSpec(
        ring, ctx.M.dim, move(ctx.M.left, "A", "M", "M"), move(ctx.M.right, "M", "B", "M")
    )
    N = BimoduleSpec(
        ring, ctx.N.dim, move(ctx.N.left, "B", "N", "N"), move(ctx.N.right, "N", "A", "N")
    )
    # loyalty over Q is certified by primeness, which an isomorphism keeps
    meta = {k: v for k, v in ctx.meta.items() if k == "prime_certified"}
    return MoritaContext(
        algebra(ctx.A, "A"),
        algebra(ctx.B, "B"),
        M,
        N,
        move(ctx.pairing_MN, "M", "N", "A"),
        move(ctx.pairing_NM, "N", "M", "B"),
        meta,
    )


def intertwines(ctx, a, b):
    """a*m = m*b and n*a = b*n for every basis vector m of M and n of N."""
    ring = ctx.ring
    am = ring.tensordot(a, ctx.M.left, axes=([0], [0]))  # (m, r)
    mb = ring.tensordot(b, ctx.M.right, axes=([0], [1]))
    na = ring.tensordot(a, ctx.N.right, axes=([0], [1]))  # (n, r)
    bn = ring.tensordot(b, ctx.N.left, axes=([0], [0]))
    return ring.equal(am, mb) and ring.equal(na, bn)


def verdicts(report):
    return (
        report.M_faithful_left,
        report.M_faithful_right,
        report.M_loyal.status,
        report.zA_eq_piA,
        report.zA_ne_A,
        report.zB_eq_piB,
        report.zB_ne_B,
        report.commuting_proper_on_A,
        report.commuting_proper_on_B,
        report.central_over_R,
        report.b_central_over_R,
        report.route,
    )


@pytest.fixture(scope="module", params=sorted(CONTEXTS))
def original(request):
    g = assemble_gma(CONTEXTS[request.param]())
    g.report
    return g


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_center_phi_and_report_survive_a_change_of_basis(original, seed):
    g = original
    ring, C = g.ring, g.center
    moved, P = transported(g.ctx, seed)
    assert not ring.equal(moved.M.left, g.ctx.M.left)  # a basis other than matrix units
    assert check_morita_axioms(moved).ok
    h = assemble_gma(moved)
    D = h.center
    assert (D.zdim, D.pia_image.shape[0], D.pib_image.shape[0]) == (
        C.zdim,
        C.pia_image.shape[0],
        C.pib_image.shape[0],
    )

    def back(name, v):
        return ring.tensordot(P[name][0], v, axes=([1], [0]))

    # the center of the transported algebra is the transported center
    for z in D.z_g:
        parts = [back(name, part) for name, part in zip("AMNB", blocks(h, z))]
        assert C.center_rows(np.concatenate(parts))[1]
    # phi' links the corners of the new basis, and it is the transported
    # phi: P_B phi'(a') = phi(P_A a'); likewise phi^-1
    for a in D.pia_image:
        b = corner_map(D, True, a)
        assert intertwines(moved, a, b)
        want = corner_map(C, True, back("A", a))
        assert want is not None and ring.equal(back("B", b), want)
    for b in D.pib_image:
        a = corner_map(D, False, b)
        assert intertwines(moved, a, b)
        want = corner_map(C, False, back("B", b))
        assert want is not None and ring.equal(back("A", a), want)
    assert verdicts(h.report) == verdicts(g.report)



def block_diagonal(ring, P, which):
    """The change of basis of G: P[block][which] for A, M, N, B on the diagonal."""
    mats = [P[name][which] for name in "AMNB"]
    out = ring.zeros((sum(m.shape[0] for m in mats),) * 2)
    at = 0
    for m in mats:
        out[at : at + m.shape[0], at : at + m.shape[0]] = m
        at += m.shape[0]
    return out


# the dimension of both trace spaces, centralizing and commuting
TRACE_SPACE_DIMS = {"t3-f5": 28, "m3-f5": 55, "diagonal-f5": 88, "diagonal-k3-f7": 270}


@pytest.mark.parametrize("name", sorted(TRACE_SPACE_DIMS))
def test_trace_space_dimensions_survive_a_change_of_basis(name):
    moved, _ = transported(CONTEXTS[name](), 1)
    h = assemble_gma(moved)
    for mode in ("centralizing", "commuting"):
        assert trace_space(h, mode).dim == TRACE_SPACE_DIMS[name]


def outcome(route, q, g):
    """The status a route returns, or the name of the error it raises."""
    try:
        return route(q, g).status
    except ExactError as err:
        return type(err).__name__


def test_both_routes_keep_their_status_on_a_moved_trace(original):
    g = original
    ring = g.ring
    moved, P = transported(g.ctx, 1)
    h = assemble_gma(moved)
    G, G_inv = block_diagonal(ring, P, 0), block_diagonal(ring, P, 1)
    q = random_proper_trace(g, seed=5)
    t = q.tensor.copy()
    t[0, 1, g.dim - 1] = t[0, 1, g.dim - 1] + ring.one
    traces = [q, BilinearMapRep(ring, t)]
    for q in traces:
        moved_q = BilinearMapRep(ring, transport(ring, q.tensor, G, G, G_inv))
        for route in (decompose_trace_generic, decompose_trace_constructive):
            assert outcome(route, moved_q, h) == outcome(route, q, g)
    assert outcome(decompose_trace_generic, traces[0], g) == "ok"
    assert outcome(decompose_trace_generic, traces[1], g) == "PredicateNotSatisfied"


@pytest.mark.parametrize("name", ["m3-f5", "m4-f5", "m3-q-split-1"])
@pytest.mark.parametrize("shape", ["conjugation", "neg-antiauto"])
def test_lie_triple_splitting_keeps_status_and_sign(name, shape):
    g = assemble_gma(CONTEXTS[name]())
    ring = g.ring
    moved, P = transported(g.ctx, 2)
    h = assemble_gma(moved)
    G, G_inv = block_diagonal(ring, P, 0), block_diagonal(ring, P, 1)
    l = random_lie_triple_iso(g, 3, shape)
    moved_l = LinearMapRep(
        ring,
        ring.tensordot(ring.tensordot(G_inv, l.matrix, axes=([1], [0])), G, axes=([1], [0])),
    )
    want = decompose_lie_triple_iso(l, g, g)
    got = decompose_lie_triple_iso(moved_l, h, h)
    assert want.status == "ok"
    assert (got.status, got.lam) == (want.status, want.lam)
    assert got.checks == want.checks


def test_identity_42_on_a_rescaled_rational_basis():
    """Scaling M's first basis vector of M3(Q) by 2000 puts structure
    constants of 2000 and 1/2000 beside 1, past the bound below which the
    identity scan runs on int64; it decides on python ints instead, with the
    same verdict, and the witness holds on the rescaled algebra."""
    g = assemble_gma(CONTEXTS["m3-q-split-1"]())
    h = assemble_gma(rescaled(g.ctx, 2000)[0])
    assert _integer_mul_tensor(g)[0].dtype == np.int64
    assert _integer_mul_tensor(h)[0].dtype == object
    for gma in (g, h):
        ok, (x, y) = check_identity_42(gma)
        assert not ok
        defect = gma.commutator(gma.commutator(gma.square(x), y), gma.commutator(x, y))
        assert not gma.ring.is_zero(defect)


def proper_maps(ring, g, form):
    """The G-valued data of a proper form: z, mu as the matrix of columns
    mu(e_i), and nu as the tensor [i, j] = nu(e_i, e_j)."""
    z_g = g.center.z_g
    mu = ring.tensordot(form.mu, z_g, axes=([0], [0])).T
    nu = ring.tensordot(form.nu, z_g, axes=([2], [0]))
    return form.z_vec(g), mu, nu


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_both_routes_return_the_moved_maps_for_a_moved_trace(seed):
    """q moved to a seeded rational basis of M3(Q) decomposes, by either
    route, into the moved z, x -> mu(x) and (x, y) -> nu(x, y): G^-1 z,
    G^-1 mu(G x) and G^-1 nu(G x, G y)."""
    ring = RATIONAL
    g = assemble_gma(CONTEXTS["m3-q-split-1"]())
    moved, P = transported(g.ctx, seed)
    h = assemble_gma(moved)
    G, G_inv = block_diagonal(ring, P, 0), block_diagonal(ring, P, 1)
    q = random_proper_trace(g, seed=seed + 10)
    moved_q = BilinearMapRep(ring, transport(ring, q.tensor, G, G, G_inv))
    assert not ring.equal(moved_q.tensor, q.tensor)
    for route in (decompose_trace_generic, decompose_trace_constructive):
        want = route(q, g)
        got = route(moved_q, h)
        assert (got.status, want.status) == ("ok", "ok")
        z, mu, nu = proper_maps(ring, g, want.form)
        moved_z, moved_mu, moved_nu = proper_maps(ring, h, got.form)
        assert ring.equal(moved_z, ring.tensordot(G_inv, z, axes=([1], [0])))
        assert ring.equal(
            moved_mu,
            ring.tensordot(ring.tensordot(G_inv, mu, axes=([1], [0])), G, axes=([1], [0])),
        )
        assert ring.equal(moved_nu, transport(ring, nu, G, G, G_inv))
