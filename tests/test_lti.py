"""Splitting second-commutator-preserving bijections as lam*m + n.

Conjugations must come back with sign +1 and no central part, negated ones
with sign -1, a drawn central shift must surface exactly as n (on M_3 a
nonzero multiple of tr(x)*1), and the negated transpose flips the sign.
The 1+1 split of M_2 is the known degenerate case where both signs admit a
central completion."""

import numpy as np
import pytest

from gmalg.exact import RATIONAL, RingDescriptor, prime_field, inverse_array
from gmalg.maps import LinearMapRep, MapError, is_jordan_hom
from gmalg.structure import (
    assemble_gma,
    build_full_matrix,
    build_upper_triangular,
    full_matrix_positions,
)
from gmalg.decompose import (
    PredicateNotSatisfied,
    decompose_lie_triple_iso,
    random_lie_triple_iso,
)

F5 = prime_field(5)

REQUIRED_CHECKS = {
    "trace-centralizing",
    "m-jordan",
    "m-injective",
    "n-central",
    "n-kills-second-commutators",
    "splitting-identity",
}


def transpose_rep(gma, n, k):
    pos = full_matrix_positions(n, k)
    coord_of = {rc: i for i, rc in enumerate(pos)}
    P = gma.ring.zeros((gma.dim, gma.dim))
    for i, (u, v) in enumerate(pos):
        P[coord_of[(v, u)], i] = gma.ring.one
    return LinearMapRep(gma.ring, P)


def trace_times_unit(gma, n, k):
    pos = full_matrix_positions(n, k)
    tr = gma.ring.zeros(gma.dim)
    for i, (u, v) in enumerate(pos):
        if u == v:
            tr[i] = gma.ring.one
    return gma.ring.normalize(np.outer(gma.unit, tr))


def test_identity_splits_trivially(m3):
    dec = decompose_lie_triple_iso(LinearMapRep.identity(F5, m3.dim), m3, m3)
    assert dec.status == "ok"
    assert dec.lam == 1
    assert dec.m.equal(LinearMapRep.identity(F5, m3.dim))
    assert F5.is_zero(dec.n.matrix)
    assert REQUIRED_CHECKS <= set(dec.checks)
    assert all(dec.checks[k] for k in REQUIRED_CHECKS)
    # M_3 is central over its scalars, so the unit conditions are active
    assert dec.checks["m-unit-to-unit"] and dec.checks["m-surjective"]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_conjugations_come_back_clean(m3, seed):
    l = random_lie_triple_iso(m3, seed, "conjugation")
    dec = decompose_lie_triple_iso(l, m3, m3)
    assert dec.status == "ok"
    assert dec.lam == 1
    assert F5.is_zero(dec.n.matrix)
    assert dec.m.equal(l)


@pytest.mark.parametrize("seed", [0, 5])
def test_trace_shift_recovers_the_central_part(m3, seed):
    l = random_lie_triple_iso(m3, seed, "central-shift")
    sigma = random_lie_triple_iso(m3, seed, "conjugation")
    dec = decompose_lie_triple_iso(l, m3, m3)
    assert dec.status == "ok"
    assert dec.lam == 1
    # the jordan part is the drawn conjugation, the central part the drawn shift
    assert dec.m.equal(sigma)
    assert dec.n.equal(l - sigma)
    # on M_3 a functional killing second commutators is a multiple of the trace
    c = dec.n.matrix[0, 0]
    assert c != 0
    assert F5.equal(dec.n.matrix, F5.normalize(c * trace_times_unit(m3, 3, 1)))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_negated_conjugations_flip_the_sign(m3, seed):
    l = random_lie_triple_iso(m3, seed, "neg-conjugation")
    dec = decompose_lie_triple_iso(l, m3, m3)
    assert dec.status == "ok"
    assert dec.lam == -1
    assert F5.is_zero(dec.n.matrix)
    assert dec.m.equal(random_lie_triple_iso(m3, seed, "conjugation"))


def test_central_shift_redraws_tau_when_tau_of_one_is_minus_one(m4, monkeypatch):
    # on M_4(F_5) tau = c*tr and tau(1) = 4c, so c = 1 gives tau(1) = -1 and
    # the singular map x -> uxu^-1 + tr(x)1; c = 0 gives tau = 0
    draws = []
    scalar = RingDescriptor.random_scalar

    def recorded(ring, stream):
        draws.append(scalar(ring, stream))
        return draws[-1]

    monkeypatch.setattr(RingDescriptor, "random_scalar", recorded)
    redrawn = 0
    for seed in range(12):
        draws.clear()
        l = random_lie_triple_iso(m4, seed, "central-shift")
        # u takes m4.dim draws per attempt, then one per tau (the trace alone)
        taus = draws[len(draws) - len(draws) % m4.dim :]
        assert all(c in (0, 1) for c in taus[:-1]) and taus[-1] not in (0, 1)
        redrawn += taus[0] == 1
        assert inverse_array(F5, l.matrix) is not None
        sigma = random_lie_triple_iso(m4, seed, "conjugation")
        shift = F5.normalize(taus[-1] * trace_times_unit(m4, 4, 2))
        assert F5.equal(F5.normalize(l.matrix - sigma.matrix), shift)
    assert redrawn


def test_neg_antiauto_needs_a_full_matrix_instance(t3):
    with pytest.raises(MapError, match="full-matrix"):
        random_lie_triple_iso(t3, 0, "neg-antiauto")


def test_negated_transpose_flips_the_sign(m3):
    tau = transpose_rep(m3, 3, 1)
    l = tau.scale(F5.neg(F5.one))
    dec = decompose_lie_triple_iso(l, m3, m3)
    assert dec.status == "ok"
    assert dec.lam == -1
    assert F5.is_zero(dec.n.matrix)
    # l = -m: the jordan part is the transpose itself
    assert dec.m.equal(tau)
    assert is_jordan_hom(m3, m3, dec.m)[0]


def test_seeded_neg_antiautomorphisms(m3):
    for seed in (0, 3):
        l = random_lie_triple_iso(m3, seed, "neg-antiauto")
        dec = decompose_lie_triple_iso(l, m3, m3)
        assert dec.status == "ok"
        assert dec.lam == -1
        assert F5.is_zero(dec.n.matrix)


def test_splitting_identity_and_center_valued_parts(m3):
    l = random_lie_triple_iso(m3, 11, "central-shift")
    dec = decompose_lie_triple_iso(l, m3, m3)
    lam = F5.coerce(dec.lam) if dec.lam == 1 else F5.neg(F5.one)
    recomposed = F5.normalize(dec.m.matrix * lam + dec.n.matrix)
    assert F5.equal(recomposed, l.matrix)
    assert dec.mu1.shape == (m3.center.zdim, m3.dim)
    assert dec.nu1.shape == (m3.dim, m3.dim, m3.center.zdim)
    for i in range(m3.dim):
        assert m3.center.center_rows(dec.n.matrix[:, i])[1]


def test_m2_split_is_ambiguous(m2):
    dec = decompose_lie_triple_iso(LinearMapRep.identity(F5, m2.dim), m2, m2)
    assert dec.status == "ambiguous"
    assert dec.lam is None and dec.m is None
    assert dec.checks["plus-consistent"] and dec.checks["minus-consistent"]


def test_singular_map_is_rejected(m3):
    l = LinearMapRep(F5, F5.zeros((m3.dim, m3.dim)))
    with pytest.raises(MapError):
        decompose_lie_triple_iso(l, m3, m3)


def test_non_lie_triple_map_is_rejected(m3):
    l = LinearMapRep.identity(F5, m3.dim).scale(F5.coerce(2))
    assert inverse_array(F5, l.matrix) is not None
    with pytest.raises(PredicateNotSatisfied) as e:
        decompose_lie_triple_iso(l, m3, m3)
    x, y, z = e.value.witness
    lhs = l.apply(m3.commutator(m3.commutator(x, y), z))
    rhs = m3.commutator(m3.commutator(l.apply(x), l.apply(y)), l.apply(z))
    assert not F5.equal(lhs, rhs)


def test_rational_lane_conjugation():
    g = assemble_gma(build_full_matrix(3, 1, RATIONAL))
    l = random_lie_triple_iso(g, 4, "conjugation")
    dec = decompose_lie_triple_iso(l, g, g)
    assert dec.status == "ok"
    assert dec.lam == 1
    assert g.ring.is_zero(dec.n.matrix)


def test_random_iso_shapes_are_seed_stable(m3):
    a = random_lie_triple_iso(m3, 21, "conjugation")
    b = random_lie_triple_iso(m3, 21, "conjugation")
    assert a.equal(b)
    with pytest.raises(MapError):
        random_lie_triple_iso(m3, 0, "no-such-shape")


def test_splits_reuse_the_algebras_report_and_system(f5):
    gma = assemble_gma(build_full_matrix(3, 1, f5))
    first = decompose_lie_triple_iso(random_lie_triple_iso(gma, 1), gma, gma)
    second = decompose_lie_triple_iso(random_lie_triple_iso(gma, 2), gma, gma)
    assert first.report is second.report is gma.report
    assert gma.generic_system is gma.generic_system
