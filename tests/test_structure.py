"""Morita contexts, their axiom battery, the block assembly, and every
builder.  The block-product conventions here are load-bearing for all
later modules, so most checks are structural identities rather than
frozen numbers."""

import numpy as np
import pytest

from gmalg.exact import RATIONAL, ExactError, inverse_array, prime_field, rank_array
from gmalg.maps import trace_space
from gmalg.rng import XorShift64Star
from gmalg.structure import (
    AlgebraSpec,
    AxiomError,
    BimoduleSpec,
    MoritaContext,
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
from support import blocks, embed_diag, pair_mn, pair_nm

F5 = prime_field(5)


def random_vec(ring, d, stream):
    return ring.array([ring.random_scalar(stream) for _ in range(d)])


# ---------------------------------------------------------------------------
# algebra specs
# ---------------------------------------------------------------------------


def test_matrix_algebra_units():
    alg = make_matrix_algebra(2, F5)
    assert alg.dim == 4
    alg.validate()
    # E_rc basis is row-major: E00 E01 E10 E11; E01 * E10 = E00
    e01 = alg.basis_vector(1)
    e10 = alg.basis_vector(2)
    assert F5.equal(alg.multiply(e01, e10), alg.basis_vector(0))
    assert F5.is_zero(alg.multiply(e01, e01))


def test_triangular_algebra_is_closed():
    alg = make_triangular_algebra(3, F5)
    assert alg.dim == 6
    alg.validate()


def test_validate_catches_broken_mul():
    alg = make_matrix_algebra(2, F5)
    bad = alg.mul.copy()
    bad[1, 2, 0] = 3  # E01*E10 now wrong
    broken = type(alg)(alg.ring, alg.dim, bad, alg.unit)
    with pytest.raises(AxiomError):
        broken.validate()


# ---------------------------------------------------------------------------
# builders and the axiom battery
# ---------------------------------------------------------------------------


def test_full_matrix_split_dimensions():
    ctx = build_full_matrix(3, 1, F5)
    assert (ctx.A.dim, ctx.M.dim, ctx.N.dim, ctx.B.dim) == (1, 2, 2, 4)
    rep = check_morita_axioms(ctx)
    assert rep.ok
    assert str(rep) == "morita axioms: pass"
    assert ctx.meta["builder"] == "full_matrix"
    assert ctx.meta["prime_certified"]


def test_full_matrix_positions_give_matrix_units():
    ctx = build_full_matrix(3, 1, F5)
    gma = assemble_gma(ctx)
    pos = full_matrix_positions(3, 1)
    assert len(pos) == 9
    coord_of = {rc: i for i, rc in enumerate(pos)}
    # E_uv E_wz = [v == w] E_uz, through the coordinate embedding
    for (u, v) in pos:
        for (w, z) in pos:
            prod = gma.multiply(
                gma.basis_vector(coord_of[(u, v)]), gma.basis_vector(coord_of[(w, z)])
            )
            if v == w:
                assert F5.equal(prod, gma.basis_vector(coord_of[(u, z)]))
            else:
                assert F5.is_zero(prod)


def test_upper_triangular_has_zero_lower_block():
    ctx = build_upper_triangular(3, 1, F5)
    assert ctx.N.dim == 0
    assert check_morita_axioms(ctx).ok
    gma = assemble_gma(ctx)
    assert gma.dim == 6


def test_diagonal_pair_componentwise_structure():
    ctx = build_diagonal_pair(F5)
    assert (ctx.A.dim, ctx.B.dim) == (2, 2)
    # everything is coordinatewise: pair(e_i, e_j) = delta_ij e_i
    assert F5.equal(pair_mn(ctx, F5.array([1, 0]), F5.array([1, 0])), F5.array([1, 0]))
    assert F5.is_zero(pair_mn(ctx, F5.array([1, 0]), F5.array([0, 1])))
    assert check_morita_axioms(ctx).ok
    # the canonical annihilating sandwich: (1,0) * m * (0,1) = 0 for every m
    a, b = F5.array([1, 0]), F5.array([0, 1])
    for j in range(2):
        m = F5.zeros(2)
        m[j] = F5.one
        assert F5.is_zero(ctx.M.act_right(ctx.M.act_left(a, m), b))


def test_inflated_gamma_identity_only_works_in_dim_one():
    ok1 = check_morita_axioms(build_inflated(F5, 1, F5.eye(1)))
    assert ok1.ok
    # gamma(v, w) u must equal gamma(w, u) v; the identity form breaks this
    # as soon as there are two independent vectors
    bad = check_morita_axioms(build_inflated(F5, 2, F5.eye(2)))
    assert not bad.ok
    assert bad.failure.startswith("diagram")
    # the zero form always satisfies the compatibility (trivially)
    ok2 = check_morita_axioms(build_inflated(F5, 2, F5.zeros((2, 2))))
    assert ok2.ok


def test_doubled_pairing_fails_with_pinned_witness():
    ctx = build_full_matrix(2, 1, F5)
    broken = MoritaContext(
        ctx.A,
        ctx.B,
        ctx.M,
        ctx.N,
        F5.normalize(ctx.pairing_MN * F5.coerce(2)),
        ctx.pairing_NM,
        dict(ctx.meta),
    )
    rep = check_morita_axioms(broken)
    assert not rep.ok
    assert rep.failure == "diagram.MN-M"
    assert rep.indices == (0, 0, 0, 0)
    assert str(rep) == "morita axioms: FAIL [diagram.MN-M] at indices (0, 0, 0, 0)"
    with pytest.raises(AxiomError):
        assemble_gma(broken)


@pytest.mark.parametrize(
    "module, side, shape",
    [
        ("M", "left", (3, 2, 2)),
        ("M", "right", (2, 3, 2)),
        ("N", "left", (3, 2, 2)),
        ("N", "right", (2, 3, 2)),
    ],
)
def test_action_on_the_wrong_algebra_is_rejected(module, side, shape):
    # M3 split 1: dim A = 1, dim B = 4, dim M = dim N = 2; each action
    # below has the right module axes and an algebra axis of 3
    ctx = build_full_matrix(3, 1, F5)
    parts = {"M": ctx.M, "N": ctx.N}
    old = parts[module]
    actions = {"left": old.left, "right": old.right, side: F5.zeros(shape)}
    parts[module] = BimoduleSpec(F5, old.dim, actions["left"], actions["right"])
    with pytest.raises(ExactError, match=rf"^{module}\.{side} acts by an algebra of dim 3, not"):
        MoritaContext(
            ctx.A, ctx.B, parts["M"], parts["N"], ctx.pairing_MN, ctx.pairing_NM, dict(ctx.meta)
        )


def test_peirce_splitting_of_m2():
    alg = make_matrix_algebra(2, F5)
    # e = E00 + E01 is a non-diagonal idempotent
    e = F5.array([1, 1, 0, 0])
    assert F5.equal(alg.multiply(e, e), e)
    ctx, cert = build_peirce(alg, e)
    assert check_morita_axioms(ctx).ok
    gma = assemble_gma(ctx)
    assert gma.dim == alg.dim
    # cert column j holds GMA coordinate j in algebra coordinates, and the
    # identification must be multiplicative
    assert inverse_array(F5, cert) is not None

    def to_alg(v):
        return F5.tensordot(cert, v, axes=([1], [0]))

    stream = XorShift64Star(11)
    for _ in range(10):
        x = random_vec(F5, gma.dim, stream)
        y = random_vec(F5, gma.dim, stream)
        assert F5.equal(to_alg(gma.multiply(x, y)), alg.multiply(to_alg(x), to_alg(y)))


def test_peirce_rejects_non_idempotent():
    alg = make_matrix_algebra(2, F5)
    with pytest.raises(AxiomError):
        build_peirce(alg, F5.array([1, 1, 1, 1]))


def test_peirce_rejects_an_algebra_that_breaks_a_law():
    """A lawless algebra fails on its own law, not on a Morita law of a
    split it should never have produced."""
    alg = make_matrix_algebra(2, F5)
    mul = alg.mul.copy()
    mul[1, 2, 0] = 2  # e12 e21 = 2 e11, so (e12 e21) e12 != e12 (e21 e12)
    with pytest.raises(AxiomError, match=r"algebra\.associativity at indices \(1, 2, 1\)$"):
        build_peirce(AlgebraSpec(F5, 4, mul, alg.unit), F5.array([1, 0, 0, 0]))


# ---------------------------------------------------------------------------
# the assembled algebra
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def gma_t3():
    return assemble_gma(build_upper_triangular(3, 1, F5))


def test_unit_laws(gma_t3):
    g = gma_t3
    for i in range(g.dim):
        e = g.basis_vector(i)
        assert F5.equal(g.multiply(g.unit, e), e)
        assert F5.equal(g.multiply(e, g.unit), e)


def test_associativity_on_random_triples(gma_t3):
    g = gma_t3
    stream = XorShift64Star(5)
    for _ in range(20):
        x, y, z = (random_vec(F5, g.dim, stream) for _ in range(3))
        assert F5.equal(g.multiply(g.multiply(x, y), z), g.multiply(x, g.multiply(y, z)))


def test_block_product_formula(m4):
    """(a|m|n|b)(a'|m'|n'|b') expands blockwise through the context."""
    g = m4
    c = g.ctx
    stream = XorShift64Star(17)
    for _ in range(10):
        x = random_vec(F5, g.dim, stream)
        y = random_vec(F5, g.dim, stream)
        a, m, n, b = blocks(g, x)
        a2, m2, n2, b2 = blocks(g, y)
        pa, pm, pn, pb = blocks(g, g.multiply(x, y))
        assert F5.equal(pa, c.A.multiply(a, a2) + pair_mn(c, m, n2))
        assert F5.equal(pm, c.M.act_left(a, m2) + c.M.act_right(m, b2))
        assert F5.equal(pn, c.N.act_right(n, a2) + c.N.act_left(b, n2))
        assert F5.equal(pb, c.B.multiply(b, b2) + pair_nm(c, n, m2))


def test_embed_blocks_roundtrip(gma_t3):
    """The block slices cut the coordinates, in the order A, M, N, B, into
    pieces of the block dimensions."""
    g = gma_t3
    slices = [g.block_slice(i) for i in range(4)]
    assert [sl.stop - sl.start for sl in slices] == list(g.dims)
    assert [sl.start for sl in slices] == [0, *(sl.stop for sl in slices[:3])]
    assert slices[3].stop == g.dim
    x = random_vec(F5, g.dim, XorShift64Star(23))
    assert F5.equal(np.concatenate(blocks(g, x)), x)


def test_cross_diagonal_products_vanish(m4):
    # a*b = 0 inside G for pure corner elements
    g = m4
    a = embed_diag(g, g.ctx.A.unit, F5.zeros(g.ctx.B.dim))
    b = embed_diag(g, F5.zeros(g.ctx.A.dim), g.ctx.B.unit)
    assert F5.is_zero(g.multiply(a, b))
    assert F5.is_zero(g.multiply(b, a))


def test_commutator_and_jordan_helpers(m3):
    g = m3
    stream = XorShift64Star(29)
    x = random_vec(F5, g.dim, stream)
    y = random_vec(F5, g.dim, stream)
    assert F5.equal(g.commutator(x, y), g.multiply(x, y) - g.multiply(y, x))
    assert F5.equal(g.square(x), g.multiply(x, x))


def test_rational_lane_builders():
    for ctx in (
        build_full_matrix(2, 1, RATIONAL),
        build_upper_triangular(2, 1, RATIONAL),
        build_inflated(RATIONAL, 1, RATIONAL.eye(1)),
    ):
        assert check_morita_axioms(ctx).ok
        g = assemble_gma(ctx)
        assert RATIONAL.equal(g.multiply(g.unit, g.unit), g.unit)


@pytest.mark.parametrize("ring", [F5, RATIONAL], ids=["f5", "q"])
def test_carrier_products_contract_with_the_one_lift_of_the_product(ring, monkeypatch):
    """multiply, left_mult_matrix and right_mult_matrix read lifted_mul:
    once it is built, none of them clears the denominators of the 729-cell
    product of M3 again, and each returns what RingDescriptor.tensordot
    on the product gives, cell types included."""
    from fractions import Fraction

    from gmalg import exact

    g = assemble_gma(build_full_matrix(3, 1, ring))
    stream = XorShift64Star(31)
    draw = (lambda: stream.below(5)) if ring.is_prime_field else (
        lambda: Fraction(stream.below(9) - 4, 1 + stream.below(6))
    )
    x, y = (ring.array([draw() for _ in range(g.dim)]) for _ in range(2))
    g.lifted_mul
    sizes = []
    clear = exact.clear_denominators

    def counted(a):
        sizes.append(np.size(a))
        return clear(a)

    monkeypatch.setattr(exact, "clear_denominators", counted)
    got = (g.multiply(x, y), g.left_mult_matrix(x), g.right_mult_matrix(x))
    assert g.dim**3 not in sizes
    monkeypatch.undo()
    left, right = (ring.tensordot(x, g.mul, axes=([0], [axis])) for axis in (0, 1))
    want = (ring.tensordot(y, left, axes=([0], [0])), left.T, right.T)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and np.array_equal(a, b)
        assert [type(v) for v in a.flat] == [type(v) for v in b.flat]


@pytest.mark.parametrize("n", [3, 4], ids=["m3", "m4"])
def test_axiom_checks_lift_each_tensor_once(n, monkeypatch):
    """check_morita_axioms over Q clears the denominators of each of the
    eight block tensors and two corner units at most once, and validate
    lifts the product through lifted_mul and the unit once."""
    from gmalg import exact

    lifted = []
    clear = exact.clear_denominators

    def counted(a):
        lifted.append(id(a))
        return clear(a)

    monkeypatch.setattr(exact, "clear_denominators", counted)
    ctx = build_full_matrix(n, n // 2, RATIONAL)
    assert check_morita_axioms(ctx).ok
    assert len(lifted) <= 10 and len(set(lifted)) == len(lifted)
    lifted.clear()
    alg = make_matrix_algebra(n, RATIONAL)
    alg.validate()
    alg.validate()
    assert sorted(lifted) == sorted([id(alg.mul), id(alg.unit), id(alg.unit)])


def opposite(ctx: MoritaContext) -> MoritaContext:
    """The context of G^op split along 1 - e: the corners are B^op and A^op,
    M and N keep their elements with their left and right actions traded,
    and the two pairings swap."""

    def op(alg):
        return AlgebraSpec(alg.ring, alg.dim, np.transpose(alg.mul, (1, 0, 2)), alg.unit)

    def traded(mod):
        left, right = (np.transpose(t, (1, 0, 2)) for t in (mod.right, mod.left))
        return BimoduleSpec(mod.ring, mod.dim, left, right)

    return MoritaContext(
        op(ctx.B),
        op(ctx.A),
        traded(ctx.M),
        traded(ctx.N),
        np.transpose(ctx.pairing_NM, (1, 0, 2)),
        np.transpose(ctx.pairing_MN, (1, 0, 2)),
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_full_matrix(3, 1, F5),
        lambda: build_upper_triangular(3, 1, F5),
        lambda: build_diagonal_pair(F5),
        lambda: build_full_matrix(3, 1, RATIONAL),
    ],
    ids=["m3-f5", "t3-f5", "diagonal-f5", "m3-q"],
)
def test_opposite_algebra_keeps_center_and_trace_spaces(build):
    """G and G^op have the same center and, since [x, y] changes sign and
    x^2 does not, the same centralizing and commuting traces; the
    decomposition route is one-sided and is not compared."""
    ctx = build()
    rev = opposite(ctx)
    assert check_morita_axioms(rev).ok
    g, g_op = assemble_gma(ctx), assemble_gma(rev)
    assert g_op.center.zdim == g.center.zdim
    for mode in ("centralizing", "commuting"):
        assert trace_space(g_op, mode).dim == trace_space(g, mode).dim


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_full_matrix(3, 1, F5),
        lambda: build_upper_triangular(3, 1, F5),
        lambda: build_full_matrix(3, 1, RATIONAL),
    ],
    ids=["m3-f5", "t3-f5", "m3-q"],
)
def test_known_gap_the_corner_route_reads_only_b(build):
    """The corner route's predicates read B alone, so G takes it where G^op,
    whose B is A^op, does not, though both have the same traces.  A
    mirrored route that reads A as well must flip the second assertion."""
    ctx = build()
    assert assemble_gma(ctx).report.route == "corner"
    assert assemble_gma(opposite(ctx)).report.route == "none"
