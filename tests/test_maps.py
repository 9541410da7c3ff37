"""Linear/bilinear map representations, the commuting / centralizing /
homomorphism predicates (with verified witnesses), and the exhaustive
trace-space enumeration."""

import tracemalloc

import numpy as np
import pytest

from gmalg.decompose import (
    decompose_trace_constructive,
    decompose_trace_generic,
    random_proper_trace,
)
from gmalg.exact import RATIONAL, prime_field
from gmalg.maps import (
    BilinearMapRep,
    LinearMapRep,
    MapError,
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
from gmalg.structure import assemble_gma, build_full_matrix, full_matrix_positions
from test_oracles import row_space_contains

F5 = prime_field(5)


def transpose_map(gma, n, k):
    """Coordinate matrix of X -> X^T through the block embedding."""
    pos = full_matrix_positions(n, k)
    coord_of = {rc: i for i, rc in enumerate(pos)}
    P = gma.ring.zeros((gma.dim, gma.dim))
    for i, (u, v) in enumerate(pos):
        P[coord_of[(v, u)], i] = gma.ring.one
    return LinearMapRep(gma.ring, P)


def trace_functional_times_unit(gma, n, k):
    pos = full_matrix_positions(n, k)
    tr = gma.ring.zeros(gma.dim)
    for i, (u, v) in enumerate(pos):
        if u == v:
            tr[i] = gma.ring.one
    return LinearMapRep(gma.ring, gma.ring.normalize(np.outer(gma.unit, tr)))


# ---------------------------------------------------------------------------
# rep plumbing
# ---------------------------------------------------------------------------


def test_linear_rep_algebra(m3):
    ident = LinearMapRep.identity(F5, m3.dim)
    z = LinearMapRep.zero(F5, m3.dim, m3.dim)
    assert ident.equal(ident.compose(ident))
    assert z.equal(ident.scale(F5.zero))
    two = ident + ident
    assert F5.equal(two.apply(m3.unit), F5.normalize(m3.unit * F5.coerce(2)))
    assert (two - ident).equal(ident)
    assert ident.is_injective() and ident.is_surjective()
    assert not z.is_injective()


def test_bilinear_rep_trace_eval(t2):
    q = BilinearMapRep(F5, t2.mul)
    x = F5.array([1, 2, 3])  # T_2 on basis (E00, E01, E11)
    assert F5.equal(q.apply(x, x), t2.square(x))
    assert F5.equal(q.trace_eval(x), t2.square(x))
    # symmetrization never changes the trace
    s = q.symmetrize()
    assert F5.equal(s.trace_eval(x), q.trace_eval(x))


F7 = prime_field(7)
MISMATCHED_OPERANDS = {
    "linear-shape": lambda: (LinearMapRep(F5, F5.eye(3)), LinearMapRep(F5, F5.zeros((1, 3)))),
    "linear-ring": lambda: (LinearMapRep(F5, F5.eye(3)), LinearMapRep(F7, F7.eye(3))),
    "bilinear-shape": lambda: (
        BilinearMapRep(F5, F5.zeros((2, 2, 2))),
        BilinearMapRep(F5, F5.zeros((1, 2, 2))),
    ),
    "bilinear-ring": lambda: (
        BilinearMapRep(F5, F5.zeros((2, 2, 2))),
        BilinearMapRep(RATIONAL, RATIONAL.zeros((2, 2, 2))),
    ),
}


@pytest.mark.parametrize("op", ["add", "sub"])
@pytest.mark.parametrize("case", sorted(MISMATCHED_OPERANDS))
def test_map_arithmetic_rejects_mismatched_operands(case, op):
    """numpy would broadcast a (1, 3) matrix onto a (3, 3) one silently."""
    a, b = MISMATCHED_OPERANDS[case]()
    with pytest.raises(MapError):
        a + b if op == "add" else a - b


def test_composition_rejects_another_ring():
    with pytest.raises(MapError, match="one ring"):
        LinearMapRep.identity(F5, 3).compose(LinearMapRep.identity(F7, 3))


def test_maps_over_different_rings_are_not_equal():
    assert not LinearMapRep.identity(F5, 3).equal(LinearMapRep.identity(F7, 3))
    assert LinearMapRep.identity(F5, 3).equal(LinearMapRep.identity(F5, 3))
    a, b = MISMATCHED_OPERANDS["bilinear-ring"]()
    assert not a.equal(b) and a.equal(BilinearMapRep(F5, F5.zeros((2, 2, 2))))


def test_pair_index_order():
    assert pair_index_order(3) == [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]


# ---------------------------------------------------------------------------
# linear predicates
# ---------------------------------------------------------------------------


def test_identity_is_commuting_and_centralizing(m3):
    ident = LinearMapRep.identity(F5, m3.dim)
    ok, wit = is_commuting_linear(m3, ident)
    assert ok and wit is None
    ok, wit = is_centralizing_linear(m3, ident)
    assert ok and wit is None


def test_left_multiplication_is_not_commuting(m3):
    # F(x) = E_01 x fails [F(x), x] = 0 and the witness proves it
    e01 = m3.basis_vector(1)
    F = LinearMapRep(F5, m3.left_mult_matrix(e01))
    ok, wit = is_commuting_linear(m3, F)
    assert not ok
    assert not F5.is_zero(m3.commutator(F.apply(wit), wit))


def test_transpose_is_not_centralizing(m3):
    tau = transpose_map(m3, 3, 1)
    ok, wit = is_centralizing_linear(m3, tau)
    assert not ok
    assert m3.center.center_coords(m3.commutator(tau.apply(wit), wit)) is None


# ---------------------------------------------------------------------------
# trace predicates
# ---------------------------------------------------------------------------


def test_multiplication_trace_is_commuting(m3):
    # T(x) = x^2 and [x^2, x] = 0 identically
    q = BilinearMapRep(F5, m3.mul)
    ok, wit = is_commuting_trace(m3, q)
    assert ok and wit is None
    ok, wit = is_centralizing_trace(m3, q)
    assert ok and wit is None


def test_sandwich_trace_is_not_centralizing(m3):
    # T(x) = x E_01 x
    e01 = m3.basis_vector(1)
    L = m3.left_mult_matrix(e01)
    tensor = F5.zeros((m3.dim, m3.dim, m3.dim))
    for i in range(m3.dim):
        xi = m3.basis_vector(i)
        for j in range(m3.dim):
            tensor[i, j] = m3.multiply(xi, F5.tensordot(L, m3.basis_vector(j), axes=([1], [0])))
    q = BilinearMapRep(F5, tensor)
    ok, wit = is_centralizing_trace(m3, q)
    assert not ok
    # single-vector witness: its trace value fails centrality at wit itself
    assert isinstance(wit, np.ndarray) and wit.shape == (m3.dim,)
    val = q.trace_eval(wit)
    assert m3.center.center_coords(m3.commutator(val, wit)) is None


# ---------------------------------------------------------------------------
# homomorphism predicates
# ---------------------------------------------------------------------------


def test_transpose_is_jordan_but_negative_transpose_is_not(m3):
    tau = transpose_map(m3, 3, 1)
    ok, _ = is_jordan_hom(m3, m3, tau)
    assert ok
    neg = tau.scale(F5.neg(F5.one))
    ok, wit = is_jordan_hom(m3, m3, neg)
    assert not ok
    # witness pair violates m(x o y) = m(x) o m(y)
    x, y = wit
    lhs = neg.apply(m3.jordan(x, y))
    rhs = m3.jordan(neg.apply(x), neg.apply(y))
    assert not F5.equal(lhs, rhs)


def test_negative_transpose_is_a_lie_triple_hom(m3):
    neg = transpose_map(m3, 3, 1).scale(F5.neg(F5.one))
    ok, wit = is_lie_triple_hom(m3, m3, neg)
    assert ok and wit is None
    # but a random scaling is not
    bad = LinearMapRep.identity(F5, m3.dim).scale(F5.coerce(2))
    ok, wit = is_lie_triple_hom(m3, m3, bad)
    assert not ok
    x, y, z = wit
    lhs = bad.apply(m3.commutator(m3.commutator(x, y), z))
    rhs = m3.commutator(m3.commutator(bad.apply(x), bad.apply(y)), bad.apply(z))
    assert not F5.equal(lhs, rhs)


def test_second_commutator_killers(m3):
    zero = LinearMapRep.zero(F5, m3.dim, m3.dim)
    assert vanishes_on_second_commutators(m3, zero)[0]
    tr_map = trace_functional_times_unit(m3, 3, 1)
    assert vanishes_on_second_commutators(m3, tr_map)[0]
    ident = LinearMapRep.identity(F5, m3.dim)
    ok, wit = vanishes_on_second_commutators(m3, ident)
    assert not ok
    # the canonical counterexample: [[E00, E01], E10] != 0
    pos = full_matrix_positions(3, 1)
    coord_of = {rc: i for i, rc in enumerate(pos)}
    e00 = m3.basis_vector(coord_of[(0, 0)])
    e01 = m3.basis_vector(coord_of[(0, 1)])
    e10 = m3.basis_vector(coord_of[(1, 0)])
    assert not F5.is_zero(m3.commutator(m3.commutator(e00, e01), e10))


MALFORMED = [
    (name, pred, shape)
    for name, pred in (
        ("jordan-hom", lambda g, F: is_jordan_hom(g, g, F)),
        ("lie-triple-hom", lambda g, F: is_lie_triple_hom(g, g, F)),
        ("commuting-linear", is_commuting_linear),
        ("centralizing-linear", is_centralizing_linear),
    )
    for shape in ((4, 9), (9, 4))
] + [("kills-second-commutators", vanishes_on_second_commutators, (9, 4))]


@pytest.mark.parametrize(
    "pred, shape", [m[1:] for m in MALFORMED], ids=[f"{m[0]}-{m[2]}" for m in MALFORMED]
)
def test_malformed_map_is_a_map_error(m3, pred, shape):
    F = LinearMapRep(F5, F5.zeros(shape))
    with pytest.raises(MapError, match="shape"):
        pred(m3, F)


MALFORMED_BILINEAR = [
    (name, entry, shape)
    for name, entry in (
        ("commuting-trace", is_commuting_trace),
        ("centralizing-trace", is_centralizing_trace),
        ("generic-route", lambda g, q: decompose_trace_generic(q, g)),
        ("constructive-route", lambda g, q: decompose_trace_constructive(q, g)),
    )
    for shape in ((9, 9, 4), (4, 4, 9))
]


@pytest.mark.parametrize(
    "entry, shape",
    [m[1:] for m in MALFORMED_BILINEAR],
    ids=[f"{m[0]}-{m[2]}" for m in MALFORMED_BILINEAR],
)
def test_malformed_bilinear_map_is_a_map_error(m3, entry, shape):
    q = BilinearMapRep(F5, F5.zeros(shape))
    with pytest.raises(MapError, match="shape"):
        entry(m3, q)


# ---------------------------------------------------------------------------
# the trace-space enumeration
# ---------------------------------------------------------------------------


def test_trace_space_on_m3_frozen_dimensions(m3):
    ts = trace_space(m3, mode="centralizing")
    assert (ts.n_rows, ts.n_cols) == (1320, 405)
    # 55 = 1 (z) + 9 (mu coefficients) + 45 (symmetric nu coefficients):
    # exactly the proper forms, each with a one-dimensional center
    assert ts.dim == 55
    for rep in ts.basis:
        assert F5.equal(rep.tensor, np.transpose(rep.tensor, (1, 0, 2)))
        assert rep.tensor.base is None  # no view into a shared array


def test_trace_space_basis_elements_pass_the_predicate(m3):
    ts = trace_space(m3, mode="centralizing")
    for rep in ts.basis:
        assert is_centralizing_trace(m3, rep)[0]


def test_trace_space_modes_coincide_on_m3(m3):
    cen = trace_space(m3, mode="centralizing")
    com = trace_space(m3, mode="commuting")
    assert cen.dim == com.dim == 55
    assert np.array_equal(cen.raw_rows, com.raw_rows)


def test_trace_space_contains_multiplication_on_t2(t2):
    ts = trace_space(t2, mode="centralizing")
    d = t2.dim
    q = BilinearMapRep(F5, t2.mul).symmetrize()
    row = F5.zeros(len(pair_index_order(d)) * d)
    for n, (i, j) in enumerate(pair_index_order(d)):
        ei, ej = t2.basis_vector(i), t2.basis_vector(j)
        if i == j:
            row[n * d : (n + 1) * d] = q.apply(ei, ei)
        else:
            row[n * d : (n + 1) * d] = q.apply(ei, ej) + q.apply(ej, ei)
    assert row_space_contains(F5, ts.raw_rows, F5.normalize(row).reshape(1, -1))


def test_trace_space_guards(m3):
    """Only an unknown mode is refused; Q is enumerated like F_p."""
    with pytest.raises(MapError):
        trace_space(m3, mode="sideways")
    gq = assemble_gma(build_full_matrix(2, 1, RATIONAL))
    space = trace_space(gq)
    assert space.dim == trace_space(assemble_gma(build_full_matrix(2, 1, F5))).dim
    assert all(is_centralizing_trace(gq, b)[0] for b in space.basis)


def test_centralizing_trace_predicate_stays_small(m4):
    """The predicate applies the constraint operator as its nonzero entries
    (17,136 on M4(F_5)); gathering a block per realization, or the dense
    12240 x 2176 operator, would take megabytes."""
    q = random_proper_trace(m4, seed=1)
    assert is_centralizing_trace(m4, q)[0]  # the center and the tables, built once
    tracemalloc.start()
    try:
        assert is_centralizing_trace(m4, q)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20
